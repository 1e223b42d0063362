"""Reconstruction-baseline detector and score import."""
import numpy as np
import pytest

from alarmsift.detector import (
    calibrate_threshold,
    classify,
    fit_baseline,
    import_scores,
    load_model,
    read_scores_csv,
    save_model,
    score_flows,
    write_scores_csv,
    ScoredFlow,
)
from alarmsift.errors import DataError, SchemaError

FEATS2 = ("x", "y")


def test_colinear_data_rank_one():
    train = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0], [2.5, 5.0]])
    model = fit_baseline(train, components=1, seed=0, feature_names=FEATS2)
    on_line = score_flows(model, np.array([[5.0, 10.0], [0.5, 1.0]]))
    off_line = score_flows(model, np.array([[4.0, -1.0]]))
    assert np.all(on_line < 1e-18)
    assert off_line[0] > 1.0


def test_full_rank_projection_reconstructs_training():
    rng = np.random.default_rng(2)
    train = rng.normal(size=(30, 4))
    names = ("a", "b", "c", "d")
    model = fit_baseline(train, components=4, seed=0, feature_names=names)
    scores = score_flows(model, train)
    assert np.all(scores < 1e-9)


def test_seeded_fit_is_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    train = rng.normal(size=(40, 5))
    names = tuple("abcde")
    m1 = fit_baseline(train, 2, seed=9, feature_names=names)
    m2 = fit_baseline(train, 2, seed=9, feature_names=names)
    m1 = calibrate_threshold(m1, train[:20], 0.9)
    m2 = calibrate_threshold(m2, train[:20], 0.9)
    save_model(m1, tmp_path / "m1.json")
    save_model(m2, tmp_path / "m2.json")
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
    loaded = load_model(tmp_path / "m1.json")
    assert np.array_equal(loaded.basis, m1.basis)
    assert loaded.threshold == m1.threshold


def test_constant_columns_masked():
    train = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    model = fit_baseline(train, 1, seed=0, feature_names=FEATS2)
    assert model.mask.tolist() == [True, False]
    # Changing only the constant column does not move the score.
    s1 = score_flows(model, np.array([[2.0, 7.0]]))
    s2 = score_flows(model, np.array([[2.0, 99.0]]))
    assert s1 == pytest.approx(s2)


def _unit_model() -> "DetectorModel":
    # Hand-built model: basis keeps x, so score(x, y) == y**2 exactly.
    from alarmsift.detector import DetectorModel

    return DetectorModel(
        feature_names=FEATS2,
        mean=np.zeros(2),
        std=np.ones(2),
        basis=np.array([[1.0, 0.0]]),
        seed=0,
    )


def test_threshold_nearest_rank():
    model = _unit_model()
    validation = np.array([[0.0, np.sqrt(i)] for i in range(1, 101)])
    cal90 = calibrate_threshold(model, validation, 0.90)
    assert cal90.threshold == pytest.approx(90.0)
    cal100 = calibrate_threshold(model, validation, 1.0)
    assert cal100.threshold == pytest.approx(100.0)
    assert (score_flows(cal100, validation) > cal100.threshold).sum() == 0


def test_restrictive_percentile_yields_fp_pool():
    # 136 validation flows at percentile 0.85 leave 20 above the threshold.
    model = _unit_model()
    validation = np.array([[0.0, np.sqrt(i)] for i in range(1, 137)])
    calibrated = calibrate_threshold(model, validation, 0.85)
    scores = score_flows(calibrated, validation)
    assert (scores > calibrated.threshold).sum() == 20


def test_calibrate_threshold_on_model_scores():
    # 1-D feature with components=1 on 2-D data: residual grows with the
    # distance from the training line, so validation ordering is stable.
    train = np.array([[i, 2.0 * i] for i in range(1, 31)], dtype=float)
    model = fit_baseline(train, 1, seed=0, feature_names=FEATS2)
    validation = np.array([[i, 2.0 * i + (i % 10)] for i in range(1, 21)], dtype=float)
    calibrated = calibrate_threshold(model, validation, 0.9)
    scores = score_flows(calibrated, validation)
    assert (scores > calibrated.threshold).sum() == 2  # 10% of 20
    full = calibrate_threshold(model, validation, 1.0)
    assert (score_flows(full, validation) > full.threshold).sum() == 0


def test_calibrate_preconditions():
    train = np.diag([1.0, 2.0, 3.0]) + 1
    model = fit_baseline(np.vstack([train, train]), 1, seed=0, feature_names=("a", "b", "c"))
    with pytest.raises(DataError):
        calibrate_threshold(model, np.empty((0, 3)), 0.9)
    with pytest.raises(DataError):
        calibrate_threshold(model, train, 0.9)  # < 10 flows
    with pytest.raises(DataError):
        calibrate_threshold(model, np.vstack([train] * 4), 1.5)


def test_classify_tie_is_negative():
    train = np.array([[i, 2.0 * i] for i in range(1, 31)], dtype=float)
    model = fit_baseline(train, 1, seed=0, feature_names=FEATS2)
    validation = np.array([[i, 2.0 * i + (i % 7)] for i in range(1, 21)], dtype=float)
    model = calibrate_threshold(model, validation, 0.85)
    scores = score_flows(model, validation)
    at_threshold = validation[np.argmin(np.abs(scores - model.threshold))]
    (s,) = classify(model, at_threshold[None, :], ["tie"])
    assert s.score == pytest.approx(model.threshold)
    assert not s.positive


def test_classify_requires_calibration_and_matching_dims():
    train = np.array([[i, 2.0 * i] for i in range(1, 31)], dtype=float)
    model = fit_baseline(train, 1, seed=0, feature_names=FEATS2)
    with pytest.raises(DataError):
        classify(model, train, ["x"] * len(train))
    model = calibrate_threshold(model, train[:12], 0.9)
    with pytest.raises(DataError) as err:
        classify(model, np.ones((2, 5)), ["a", "b"])
    assert "mask" in str(err.value)


def test_fit_preconditions():
    with pytest.raises(DataError):
        fit_baseline(np.ones((3, 2)), 3, seed=0, feature_names=FEATS2)
    with pytest.raises(DataError):
        fit_baseline(np.array([[np.nan, 1.0]] * 5), 1, seed=0, feature_names=FEATS2)
    with pytest.raises(DataError):
        fit_baseline(np.ones((5, 2)), 0, seed=0, feature_names=FEATS2)


def test_scale_robustness_affine_rescaling():
    rng = np.random.default_rng(7)
    train = rng.normal(size=(60, 4)) * [1, 10, 100, 3] + [0, 5, -2, 9]
    test = rng.normal(size=(10, 4)) * [1, 10, 100, 3] + [0, 5, -2, 9]
    names = tuple("abcd")
    base_model = fit_baseline(train, 2, seed=0, feature_names=names)
    base_scores = score_flows(base_model, test)

    scale = np.array([3.0, 1.0, 0.01, 2.0])
    shift = np.array([100.0, -4.0, 0.0, 1.0])
    scaled_model = fit_baseline(train * scale + shift, 2, seed=0, feature_names=names)
    scaled_scores = score_flows(scaled_model, test * scale + shift)
    assert np.allclose(base_scores, scaled_scores, atol=1e-9)


@pytest.mark.parametrize("value", [1e308, np.inf, np.nan])
def test_fit_refuses_features_or_statistics_that_are_not_finite(value):
    # 1e308 is finite, but the std of its column overflows.
    train = np.array([[float(i), 2.0 * i] for i in range(1, 31)])
    train[0, 0] = value
    with pytest.raises(DataError, match="their mean and std must be finite"):
        fit_baseline(train, 1, seed=0, feature_names=FEATS2)


def test_calibration_refuses_a_validation_score_that_overflows():
    # 1e308 is finite, but its squared residual is not; classify would only
    # leave such a flow out, but a threshold must rank every validation flow.
    train = np.array([[i, 2.0 * i] for i in range(1, 31)], dtype=float)
    model = fit_baseline(train, 1, seed=0, feature_names=FEATS2)
    validation = np.array([[i, 2.0 * i + (i % 10)] for i in range(1, 21)], dtype=float)
    validation[0, 1] = 1e308
    with pytest.raises(DataError, match="validation scores are not finite"):
        calibrate_threshold(model, validation, 0.9)


def test_classify_leaves_out_flows_whose_score_is_not_finite():
    model = calibrate_threshold(_unit_model(), np.array([[0.0, float(i)] for i in range(10)]), 0.9)
    scored = classify(model, np.array([[0.0, 1.0], [0.0, 1e308], [0.0, 3.0]]), ["a", "b", "c"])
    assert [s.flow_id for s in scored] == ["a", "c"]
    with pytest.raises(DataError, match="detector scores are not finite"):
        classify(model, np.array([[0.0, 1e308]]), ["b"])


def test_monotonicity_of_threshold():
    scored = [ScoredFlow(str(i), float(i), False) for i in range(20)]
    positives = lambda thr: sum(1 for s in scored if s.score > thr)
    counts = [positives(t) for t in (0.5, 5.5, 10.5, 19.5)]
    assert counts == sorted(counts, reverse=True)


def test_import_scores_roundtrip(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("flow_id,score,truth\nf1,0.1,normal\nf2,0.9,attack\nf3,0.5,normal\n")
    scored = import_scores(read_scores_csv(path), threshold=0.4, known_ids=["f1", "f2", "f3"])
    assert [s.positive for s in scored] == [False, True, True]
    scored2 = import_scores(read_scores_csv(path), threshold=0.4, known_ids=["f1", "f2"])
    assert [s.flow_id for s in scored2] == ["f1", "f2"]
    assert len(scored2) == 2


def test_import_scores_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("flow_id,value\nf1,0.1\n")
    with pytest.raises(SchemaError):
        import_scores(read_scores_csv(path), threshold=0.5, known_ids=["f1"])


@pytest.mark.parametrize("bad_row", ["f2,abc", "f2", "f2,", "f2,nan", "f2,inf"])
def test_scores_csv_rejects_bad_score_values(tmp_path, bad_row):
    path = tmp_path / "scores.csv"
    path.write_text(f"flow_id,score\nf1,0.1\n{bad_row}\n")
    with pytest.raises(SchemaError, match=r"scores\.csv: line 3: malformed row"):
        read_scores_csv(path)


def test_scores_csv_errors_name_the_file_line_after_a_comment(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("# exported by the IDS\nflow_id,score\nf1,0.1\nf2,abc\n")
    with pytest.raises(SchemaError, match=r"scores\.csv: line 4: malformed row"):
        read_scores_csv(path)


def test_scores_csv_header_must_hold_flow_id_and_score_without_rows(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("flow_id,value\n")
    with pytest.raises(SchemaError, match=r"scores\.csv: .*score"):
        read_scores_csv(path)


def test_import_scores_follows_known_ids_with_caller_truths(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("flow_id,score,truth\nf3,0.9,normal\nf1,0.1,normal\nghost,0.5,normal\n")
    scores = read_scores_csv(path)
    scored = import_scores(
        scores, threshold=0.4, known_ids=["f1", "f2", "f3"], truths=["normal", "attack", "attack"]
    )
    assert [(s.flow_id, s.positive, s.truth) for s in scored] == [
        ("f1", False, "normal"), ("f3", True, "attack"),
    ]
    with pytest.raises(DataError, match="none"):
        import_scores(scores, threshold=0.4, known_ids=["f2"])


def test_import_matches_classify_decision_rule(tmp_path):
    train = np.array([[i, 2.0 * i] for i in range(1, 31)], dtype=float)
    model = fit_baseline(train, 1, seed=0, feature_names=FEATS2)
    validation = np.array([[i, 2.0 * i + (i % 5)] for i in range(1, 21)], dtype=float)
    model = calibrate_threshold(model, validation, 0.8)
    ids = [f"f{i}" for i in range(len(validation))]
    scored = classify(model, validation, ids)
    path = tmp_path / "exported.csv"
    write_scores_csv(scored, path)
    rows = read_scores_csv(path)
    assert len(rows) == len(scored)
    imported = import_scores(rows, threshold=model.threshold, known_ids=ids)
    assert [s.positive for s in imported] == [s.positive for s in scored]
