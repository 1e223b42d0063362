"""Cosine-similarity rating, severity bands, banded metrics."""
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from alarmsift.errors import ContractError, DataError
from alarmsift.rating import (
    BAND_NAMES,
    BandedConfusion,
    SeverityBands,
    banded_metrics,
    cos_sim,
    rate_all,
)


def test_identical_nonzero_profiles_score_one():
    profile = {"a": 2.0, "b": 1.5}
    assert cos_sim(profile, dict(profile)) == pytest.approx(1.0)


def test_orthogonal_profiles_score_zero():
    assert cos_sim({"a": 1.0}, {"b": 1.0}) == 0.0


def test_direct_formula_value():
    # (2,1) . (1,1) / (sqrt(5) * sqrt(2)) = 3 / sqrt(10)
    value = cos_sim({"a": 2.0, "b": 1.0}, {"a": 1.0, "b": 1.0})
    assert value == pytest.approx(3 / math.sqrt(10), abs=1e-12)
    assert f"{value:.5f}" == "0.94868"


def test_zero_vector_conventions():
    assert cos_sim({}, {}) == 1.0
    assert cos_sim({"a": 1.0}, {}) == 1.0  # flow fits the FP model perfectly
    assert cos_sim({}, {"a": 1.0}) == 0.0  # nothing FP-like about the flow
    assert cos_sim({"a": 0.0}, {"a": 0.0}) == 1.0


def test_negative_entries_rejected():
    with pytest.raises(ContractError):
        cos_sim({"a": -0.5}, {"a": 1.0})
    with pytest.raises(ContractError):
        cos_sim({"a": 0.5}, {"a": -1.0})


def _scaled_exactly(reference, scaled):
    """Each nonzero entry and its scaled copy are normal floats, so the copy
    is the reference times the scale up to one rounding per entry."""
    return all(
        v == 0.0 or min(v, w) >= sys.float_info.min
        for v, w in zip(reference.values(), scaled.values())
    )


# A subnormal reference entry times a scale below 1 loses its digits, and
# 5e-324 * 0.5 rounds to 0.0: the scaled copy is then no multiple of the
# reference, and an all-zero one rates 0.0 by the zero-reference rule.
@example(reference={"a": 5e-324}, flow={"a": 1.0}, scale=0.5)
@example(reference={"a": 5e-324, "b": 1.5e-323}, flow={"a": 1.0}, scale=0.5)
@given(
    st.dictionaries(st.sampled_from("abcdef"), st.floats(0, 50), min_size=1),
    st.dictionaries(st.sampled_from("abcdef"), st.floats(0, 50), min_size=1),
    st.floats(min_value=1e-6, max_value=1e6),
)
@settings(max_examples=200, deadline=None)
def test_scale_invariance_and_range(reference, flow, scale):
    scaled_reference = {k: v * scale for k, v in reference.items()}
    base = cos_sim(reference, flow)
    scaled = cos_sim(scaled_reference, flow)
    assert 0.0 <= base <= 1.0 and 0.0 <= scaled <= 1.0
    if _scaled_exactly(reference, scaled_reference):
        assert abs(base - scaled) <= 1e-12
    elif max(scaled_reference.values()) == 0.0 and max(flow.values()) > 0.0:
        assert scaled == 0.0


def test_band_boundaries():
    bands = SeverityBands()
    assert bands.band_of(0.005) == 1 and BAND_NAMES[1] == "VeryHigh"
    assert bands.band_of(0.0) == 1
    assert bands.band_of(0.01) == 2
    assert bands.band_of(0.25) == 3  # upper-exclusive for High
    assert bands.band_of(0.75) == 4
    assert bands.band_of(0.99) == 5
    assert bands.band_of(1.0) == 5  # closed upper end
    with pytest.raises(DataError):
        bands.band_of(1.0000001)
    with pytest.raises(DataError):
        bands.band_of(-0.1)


def test_band_partition_total_over_grid():
    bands = SeverityBands()
    score = 0.0
    step = 0.005
    count = {k: 0 for k in range(1, 6)}
    for i in range(201):
        count[bands.band_of(round(i * step, 10))] += 1
    assert sum(count.values()) == 201
    assert all(v > 0 for v in count.values())


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_every_score_maps_to_exactly_one_band(score):
    bands = SeverityBands()
    k = bands.band_of(score)
    assert 1 <= k <= 5


def test_custom_boundaries_validated():
    SeverityBands((0.1, 0.2, 0.3, 0.4))
    with pytest.raises(DataError):
        SeverityBands((0.4, 0.2, 0.3, 0.5))
    with pytest.raises(DataError):
        SeverityBands((0.0, 0.2, 0.3, 0.5))


def test_paper_scale_metric_arithmetic():
    # 14141 TPs and 2 FPs kept, 8 TPs discarded, no false negatives.
    confusion = BandedConfusion(tp={3: 14141, 5: 8}, fp={4: 2}, fn=0)
    recall, precision = banded_metrics(confusion, 4)
    assert recall * 100 == pytest.approx(99.943, abs=1e-3)
    assert precision * 100 == pytest.approx(99.986, abs=1e-3)


def test_recall_everything_included_with_no_fn():
    confusion = BandedConfusion(tp={1: 5, 4: 7}, fp={5: 3}, fn=0)
    recall, _ = banded_metrics(confusion, 5)
    assert recall == 1.0


def test_precision_absent_when_no_alarms_survive():
    confusion = BandedConfusion(tp={5: 4}, fp={5: 2}, fn=1)
    recall, precision = banded_metrics(confusion, 2)
    assert precision is None
    assert recall == 0.0


def test_metrics_against_independent_arithmetic():
    cases = [
        ({1: 3, 2: 0, 3: 9}, {1: 1, 4: 5}, 2),
        ({2: 10}, {2: 10}, 4),
        ({5: 1}, {}, 0),
    ]
    for tp, fp, fn in cases:
        confusion = BandedConfusion(tp=tp, fp=fp, fn=fn)
        for k in range(1, 6):
            recall, precision = banded_metrics(confusion, k)
            kept_tp = sum(v for band, v in tp.items() if band <= k)
            all_tp = sum(tp.values())
            kept_fp = sum(v for band, v in fp.items() if band <= k)
            want_recall = kept_tp / (all_tp + fn) if (all_tp + fn) else 1.0
            assert recall == pytest.approx(want_recall)
            if kept_tp + kept_fp == 0:
                assert precision is None
            else:
                assert precision == pytest.approx(kept_tp / (kept_tp + kept_fp))


@given(
    st.dictionaries(st.integers(1, 5), st.integers(0, 500)),
    st.dictionaries(st.integers(1, 5), st.integers(0, 500)),
    st.integers(0, 100),
)
@settings(max_examples=200, deadline=None)
def test_recall_monotone_in_k(tp, fp, fn):
    confusion = BandedConfusion(tp=tp, fp=fp, fn=fn)
    recalls = [banded_metrics(confusion, k)[0] for k in range(1, 6)]
    assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))
    # Recall_5 equals unbanded recall of the raw detector.
    total_tp = sum(tp.values())
    if total_tp + fn:
        assert recalls[-1] == pytest.approx(total_tp / (total_tp + fn))


def test_rate_all_empty_and_zero_profiles():
    alarms, histogram = rate_all({"a": 1.0}, [])
    assert alarms == [] and sum(histogram.values()) == 0
    rows = [("f1", {}, "normal"), ("f2", {"a": 0.0}, "attack")]
    alarms, histogram = rate_all({"a": 1.0}, rows)
    assert [a.band for a in alarms] == [5, 5]
    assert histogram[5] == 2
    assert alarms[0].band_name == "VeryLow"


def test_rate_all_band_consistency():
    reference = {"a": 1.0, "b": 1.0}
    rows = [
        ("exact", {"a": 2.0, "b": 2.0}, "normal"),
        ("ortho", {"c": 3.0}, "attack"),
    ]
    alarms, _ = rate_all(reference, rows)
    bands = SeverityBands()
    for alarm in alarms:
        assert alarm.band == bands.band_of(alarm.cos_sim)
    assert alarms[0].band == 5 and alarms[1].band == 1


def test_banded_confusion_validation():
    with pytest.raises(DataError):
        BandedConfusion(tp={7: 1})
    with pytest.raises(DataError):
        BandedConfusion(fn=-1)
    with pytest.raises(DataError):
        banded_metrics(BandedConfusion(), 6)
