"""Boundary fuzz: a corrupt bundle or a cut corpus ends `rate` with an exit
code, never with a raised exception, a bundle JSON file loads only if
its writer writes it back, and a corrupt capture fails only itself.

The cases are every substitution of a JSON value in the bundle's
manifest.json, detector.json and extraction.json, every dropped element,
dropped attribute and emptied text of one PNML net, and cuts of the
corpus files at sampled byte offsets. The capture cases edit or cut a
capture at each byte. A fixed-seed sample of each set runs.
"""
import json
import random
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from alarmsift import pipeline, synthetic
from alarmsift.cli import main
from alarmsift.config import CaptureSpec, RunConfig
from alarmsift.detector import save_model
from alarmsift.errors import ConfigError, DataError
from alarmsift.events import save_params
from capturecraft import handshake_fin_frames, pcap_bytes

_SEED = 24
_SAMPLE = 400
_CUTS_PER_FILE = 40
_VALUES = [None, "x", [], {}, -1, 0, 1.5, True, [1], {"a": 1}, 1e308]
_NET = "nets/state_1.pnml"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    synthetic.write_corpus(synthetic.generate_flows("normal", 100, seed=41), root / "train")
    flows = synthetic.generate_flows("normal", 6, seed=3)
    flows += synthetic.generate_flows("slowloris", 4, seed=4)
    synthetic.write_corpus(flows, root / "corpus")
    bundle = pipeline.cmd_train(RunConfig(corpus=root / "train", output_dir=root / "train_out"))
    return root, bundle


def _positions(value, path=()):
    """Each key of an object and the first three entries of each list, nested."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value[:3])
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def _json_cases(path: Path):
    text = path.read_text()
    for position in _positions(json.loads(text)):
        for value in _VALUES:
            payload = json.loads(text)
            parent = payload
            for key in position[:-1]:
                parent = parent[key]
            parent[position[-1]] = value
            yield f"{path.name} {list(position)} = {value!r}", path, json.dumps(payload).encode()


def _net_cases(path: Path):
    def edited(index, edit):
        root = ET.parse(path).getroot()
        parents = {child: parent for parent in root.iter() for child in parent}
        element = list(root.iter())[index]
        edit(element, parents.get(element))
        return ET.tostring(root)

    for index, element in enumerate(ET.parse(path).getroot().iter()):
        label = f"{path.name} element {index} <{element.tag}>"
        if index:
            yield f"{label} dropped", path, edited(index, lambda e, parent: parent.remove(e))
        for name in element.attrib:
            yield (f"{label} without {name!r}", path,
                   edited(index, lambda e, _, name=name: e.attrib.pop(name)))
        if element.text:
            yield f"{label} emptied", path, edited(index, lambda e, _: setattr(e, "text", None))


def _cut_cases(path: Path, rng: random.Random):
    data = path.read_bytes()
    for offset in sorted(rng.sample(range(len(data)), _CUTS_PER_FILE)):
        yield f"{path.name} cut at byte {offset}", path, data[:offset]


def test_rate_ends_every_boundary_case_with_an_exit_code(inputs, tmp_path):
    root, bundle = inputs
    rng = random.Random(_SEED)
    cases = [
        *(case for name in ("manifest.json", "detector.json", "extraction.json")
          for case in _json_cases(bundle / name)),
        *_net_cases(bundle / _NET),
        *(case for name in ("flows.csv", "events.jsonl")
          for case in _cut_cases(root / "corpus" / name, rng)),
    ]
    argv = ["rate", "--corpus", str(root / "corpus"), "--bundle", str(bundle),
            "--output-dir", str(tmp_path / "out")]
    outcomes = {}
    for label, path, corrupt in rng.sample(cases, min(_SAMPLE, len(cases))):
        original = path.read_bytes()
        path.write_bytes(corrupt)
        try:
            outcomes[label] = main(argv)
        except Exception as exc:
            outcomes[label] = repr(exc)
        finally:
            path.write_bytes(original)
    assert {label: code for label, code in outcomes.items() if code not in (0, 2, 3, 4)} == {}


def _sorted_json(data: bytes) -> str:
    return json.dumps(json.loads(data), sort_keys=True)


def test_every_bundle_json_that_loads_is_what_its_writer_writes(inputs, tmp_path):
    # All substitutions run, not a sample; a case that raises anything but
    # DataError fails. JSON text is compared, not values, because
    # True == 1 == 1.0 in Python.
    _, bundle = inputs
    resave = {
        "detector.json": lambda loaded, path: save_model(loaded.model, path),
        "extraction.json": lambda loaded, path: save_params(loaded.params, path),
    }
    checked, rewritten = set(), {}
    for label, path, corrupt in (
        case for name in ("manifest.json", *resave) for case in _json_cases(bundle / name)
    ):
        original = path.read_bytes()
        path.write_bytes(corrupt)
        try:
            loaded = pipeline.load_bundle(bundle)
        except DataError:
            continue
        finally:
            path.write_bytes(original)
        if path.name in resave:
            resave[path.name](loaded, tmp_path / path.name)
            checked.add(path.name)
            if _sorted_json((tmp_path / path.name).read_bytes()) != _sorted_json(corrupt):
                rewritten[label] = (tmp_path / path.name).read_text()
    assert checked == set(resave)
    assert rewritten == {}


def _capture_cases(data: bytes):
    """Each byte of data set to 0x00 or 0xff, incremented, or with bit 7
    flipped, and data cut before each byte."""
    for i, byte in enumerate(data):
        for name, value in (("0x00", 0), ("0xff", 0xFF), ("+1", (byte + 1) % 256),
                            ("bit 7 flipped", byte ^ 0x80)):
            yield f"byte {i} {name}", data[:i] + bytes([value]) + data[i + 1:]
        yield f"cut at byte {i}", data[:i]


def test_rate_scores_a_good_capture_beside_any_corrupt_one(inputs, tmp_path):
    _, bundle = inputs
    good, bad = tmp_path / "good.pcap", tmp_path / "bad.pcap"
    good.write_bytes(pcap_bytes(handshake_fin_frames()))
    cases = list(_capture_cases(good.read_bytes()))
    assert len(cases) == 5 * 444
    alone = RunConfig(output_dir=tmp_path / "out", captures=(CaptureSpec(good),))
    good_ids = {r.flow_id for r in pipeline.load_records(alone)}
    config = RunConfig(output_dir=tmp_path / "out", captures=(CaptureSpec(good), CaptureSpec(bad)))
    failures = {}
    for label, corrupt in random.Random(_SEED).sample(cases, _SAMPLE):
        bad.write_bytes(corrupt)
        try:
            scored = {s.flow_id for s in pipeline.cmd_rate(config, bundle).scored}
        except (ConfigError, DataError):
            continue
        except Exception as exc:
            failures[label] = repr(exc)
            continue
        if not good_ids <= scored:
            failures[label] = f"scored {sorted(scored)}"
    assert good_ids and failures == {}
