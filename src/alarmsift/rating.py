"""Alarm rating: cosine similarity to the false-positive reference profile,
severity bands over [0, 1], and banded recall/precision."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .detector import TRUTH_UNKNOWN
from .errors import ContractError, DataError

#: Inner band boundaries; bands are lower-inclusive, upper-exclusive,
#: except the last which closes at 1.0.
DEFAULT_BAND_BOUNDARIES = (0.01, 0.25, 0.75, 0.99)

BAND_NAMES = {1: "VeryHigh", 2: "High", 3: "Medium", 4: "Low", 5: "VeryLow"}
NUM_BANDS = 5


@dataclass(frozen=True)
class SeverityBands:
    """Five half-open similarity intervals partitioning [0, 1] exactly."""

    boundaries: tuple[float, float, float, float] = DEFAULT_BAND_BOUNDARIES

    def __post_init__(self):
        b = self.boundaries
        if len(b) != 4 or any(not (0.0 < x < 1.0) for x in b) or list(b) != sorted(set(b)):
            raise DataError(f"band boundaries must be 4 strictly increasing values in (0,1): {b}")

    def band_of(self, score: float) -> int:
        """Ordinal band (1 = most severe) for a similarity score."""
        if not (0.0 <= score <= 1.0) or math.isnan(score):
            raise DataError(f"similarity {score} outside [0, 1]")
        for k, upper in enumerate(self.boundaries, start=1):
            if score < upper:
                return k
        return NUM_BANDS


def cos_sim(reference: Mapping[str, float], flow: Mapping[str, float]) -> float:
    """Cosine similarity over the union alphabet; missing entries read 0.

    Zero-vector conventions: two zero vectors are maximally similar (1.0);
    a zero flow vector fits the false-positive model perfectly (1.0); a
    nonzero flow against a zero reference is maximally dissimilar (0.0).
    """
    for name, vec in (("reference", reference), ("flow", flow)):
        for label, value in vec.items():
            if value < 0:
                raise ContractError(f"{name} profile entry {label}={value} is negative")
    max_a = max(reference.values(), default=0.0)
    max_b = max(flow.values(), default=0.0)
    if max_b == 0.0:
        return 1.0
    if max_a == 0.0:
        return 0.0
    # Normalizing by the max keeps the computation scale-free and avoids
    # under/overflow in the squared sums.
    keys = set(reference) | set(flow)
    dot = sq_a = sq_b = 0.0
    for key in keys:
        a = reference.get(key, 0.0) / max_a
        b = flow.get(key, 0.0) / max_b
        dot += a * b
        sq_a += a * a
        sq_b += b * b
    value = dot / (math.sqrt(sq_a) * math.sqrt(sq_b))
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class RatedAlarm:
    flow_id: str
    cos_sim: float
    band: int
    profile: Mapping[str, float]
    truth: str = TRUTH_UNKNOWN

    @property
    def band_name(self) -> str:
        return BAND_NAMES[self.band]


@dataclass
class BandedConfusion:
    """Per-band true/false positives plus global false negatives."""

    tp: dict[int, int] = field(default_factory=dict)
    fp: dict[int, int] = field(default_factory=dict)
    fn: int = 0

    def __post_init__(self):
        for counts in (self.tp, self.fp):
            for band, value in counts.items():
                if band not in BAND_NAMES or value < 0:
                    raise DataError(f"bad banded count {band}={value}")
        if self.fn < 0:
            raise DataError("false-negative count must be >= 0")

    def tp_at(self, band: int) -> int:
        return self.tp.get(band, 0)

    def fp_at(self, band: int) -> int:
        return self.fp.get(band, 0)


def banded_metrics(confusion: BandedConfusion, k: int) -> tuple[float, float | None]:
    """Recall_k and Precision_k after discarding alarms in bands above k.

    Precision is None (absent) when no alarm survives the cut; reporting 0
    there would be dishonest.
    """
    if not 1 <= k <= NUM_BANDS:
        raise DataError(f"band threshold k={k} outside 1..{NUM_BANDS}")
    tp_in = sum(confusion.tp_at(i) for i in range(1, k + 1))
    tp_out = sum(confusion.tp_at(i) for i in range(k + 1, NUM_BANDS + 1))
    fp_in = sum(confusion.fp_at(i) for i in range(1, k + 1))
    recall_den = tp_in + tp_out + confusion.fn
    recall = tp_in / recall_den if recall_den else 1.0
    precision = tp_in / (tp_in + fp_in) if (tp_in + fp_in) else None
    return recall, precision


def rate_all(
    reference: Mapping[str, float],
    flows: Iterable[tuple[str, Mapping[str, float], str]],
    bands: SeverityBands | None = None,
) -> tuple[list[RatedAlarm], dict[int, int]]:
    """Rates (flow_id, profile, truth) rows; also returns the band histogram.

    This only ever sees detector positives; negatives are untouched by the
    rating layer.
    """
    bands = bands or SeverityBands()
    alarms: list[RatedAlarm] = []
    histogram = {k: 0 for k in BAND_NAMES}
    for flow_id, profile, truth in flows:
        score = cos_sim(reference, profile)
        band = bands.band_of(score)
        histogram[band] += 1
        alarms.append(
            RatedAlarm(flow_id=flow_id, cos_sim=score, band=band, profile=dict(profile), truth=truth)
        )
    return alarms, histogram
