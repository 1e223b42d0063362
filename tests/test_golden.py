"""Golden digests of the output trees on a small generated corpus.

The rerun tests elsewhere only check that two runs agree with each other,
so a change that alters every output the same way passes them. These
digests were recorded before the rating pass was shared between rate,
explain and evaluate; a change that moves any output byte fails here. The
external-score digests were recorded before a trained bundle carried its
own settings.
"""
import csv
import hashlib
from pathlib import Path

from alarmsift.cli import main

GOLDEN = {
    "evaluate": "5aed1cd99f99dd3e8b46ce12c263fb12820ef251a3e04d1874f14bc227973813",
    "train+rate": "b5c3fa74efb03a8d5c1ab489577956a60dddd1d1b4c4c497a5a9fea8df0bb45d",
    "explain": "4fc97152f3f66800caac136afbcdf1628a8ba60aed44b30903837663079bf0bd",
}
GOLDEN_EXTERNAL = {
    "evaluate": "b71566470a50b13c7cb11af43e13e2fa9023a47441481a1fa836dd556089ecd3",
    "train+rate": "111f95a45481892d3657a49c8591af3734eb063378bc95f94693064f38dfa7d9",
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


def _generate_corpus(corpus: Path) -> None:
    assert main(["gen-synthetic", "--normal", "60", "--slowloris", "20",
                 "--seed", "9", "--out", str(corpus)]) == 0


def test_output_trees_match_recorded_digests(tmp_path):
    corpus = tmp_path / "corpus"
    common = ["--corpus", str(corpus), "--seed", "3"]
    _generate_corpus(corpus)
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


def _write_external_scores(corpus: Path, path: Path) -> None:
    """Scores each corpus flow: 0.9 for an attack, and 0.75 or 0.25 for a
    normal flow by its row; the second flow has no score, and one row names
    no corpus flow."""
    with (corpus / "flows.csv").open(newline="") as fh:
        next(fh)  # the schema line
        rows = list(csv.DictReader(fh))
    lines = ["flow_id,score"]
    for i, row in enumerate(rows):
        if i != 1:
            normal_score = "0.75" if i % 3 == 0 else "0.25"
            lines.append(f"{row['flow_id']},{'0.9' if row['truth'] == 'attack' else normal_score}")
    path.write_text("\n".join([*lines, "ghost-000,0.95"]) + "\n")


def test_external_score_output_trees_match_recorded_digests(tmp_path):
    corpus, scores = tmp_path / "corpus", tmp_path / "scores.csv"
    _generate_corpus(corpus)
    _write_external_scores(corpus, scores)
    common = ["--corpus", str(corpus), "--seed", "3",
              "--external-scores", str(scores), "--external-threshold", "0.5"]
    assert main(["evaluate", *common, "--runs", "2",
                 "--output-dir", str(tmp_path / "evaluate")]) == 0
    assert main(["train", *common, "--output-dir", str(tmp_path / "rated")]) == 0
    assert main(["rate", *common, "--bundle", str(tmp_path / "rated" / "bundle"),
                 "--output-dir", str(tmp_path / "rated")]) == 0
    digests = {
        "evaluate": _tree_digest(tmp_path / "evaluate"),
        "train+rate": _tree_digest(tmp_path / "rated"),
    }
    assert digests == GOLDEN_EXTERNAL
