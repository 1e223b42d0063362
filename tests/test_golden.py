"""Golden digests of the output trees on a small generated corpus.

The rerun tests elsewhere only check that two runs agree with each other,
so a change that alters every output the same way passes them. These
digests were recorded before the rating pass was shared between rate,
explain and evaluate; a change that moves any output byte fails here.
"""
import hashlib
from pathlib import Path

from alarmsift.cli import main

GOLDEN = {
    "evaluate": "5aed1cd99f99dd3e8b46ce12c263fb12820ef251a3e04d1874f14bc227973813",
    "train+rate": "b5c3fa74efb03a8d5c1ab489577956a60dddd1d1b4c4c497a5a9fea8df0bb45d",
    "explain": "4fc97152f3f66800caac136afbcdf1628a8ba60aed44b30903837663079bf0bd",
}


def _tree_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and contents of root's files."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def test_output_trees_match_recorded_digests(tmp_path):
    corpus = tmp_path / "corpus"
    common = ["--corpus", str(corpus), "--seed", "3"]
    assert main(["gen-synthetic", "--normal", "60", "--slowloris", "20",
                 "--seed", "9", "--out", str(corpus)]) == 0
    assert main(["evaluate", *common, "--runs", "2",
                 "--output-dir", str(tmp_path / "evaluate")]) == 0
    # train writes <dir>/bundle and rate writes <dir>/rating: one tree.
    assert main(["train", *common, "--output-dir", str(tmp_path / "rated")]) == 0
    bundle = tmp_path / "rated" / "bundle"
    assert main(["rate", *common, "--bundle", str(bundle),
                 "--output-dir", str(tmp_path / "rated")]) == 0
    assert main(["explain", *common, "--bundle", str(bundle),
                 "--out", str(tmp_path / "explain.json")]) == 0
    digests = {
        "evaluate": _tree_digest(tmp_path / "evaluate"),
        "train+rate": _tree_digest(tmp_path / "rated"),
        "explain": hashlib.sha256((tmp_path / "explain.json").read_bytes()).hexdigest(),
    }
    assert digests == GOLDEN
