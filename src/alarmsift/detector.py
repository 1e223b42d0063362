"""Reference anomaly detector: principal-direction reconstruction error
over z-scored flow features, with a nearest-rank percentile threshold
calibrated on a validation split. External scores can be imported so any
black-box IDS's alarms can be rated. One rule decides both the baseline's
flows and imported scores: a flow is positive iff its score exceeds the
threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import read_csv, read_json, read_table, write_csv, write_schema_json
from .errors import DataError

MODEL_SCHEMA = "alarmsift-detector/1"
SCORES_CSV_SCHEMA = "alarmsift-scores/1"

# The two detectors a bundle can be trained on, as its manifest names them.
KIND_BASELINE = "reconstruction-baseline"
KIND_EXTERNAL = "external-scores"

TRUTH_NORMAL = "normal"
TRUTH_ATTACK = "attack"
TRUTH_UNKNOWN = "unknown"
# The ground-truth labels a flow may carry, in corpora and capture configs.
TRUTH_LABELS = (TRUTH_NORMAL, TRUTH_ATTACK, TRUTH_UNKNOWN)


@dataclass(frozen=True)
class DetectorModel:
    feature_names: tuple[str, ...]
    mean: np.ndarray          # per raw feature
    std: np.ndarray           # per raw feature (population); 0 on constant training columns
    basis: np.ndarray         # (d, n_active) top principal directions; d is the component count
    seed: int
    threshold: float | None = None
    percentile: float | None = None

    @property
    def mask(self) -> np.ndarray:  # the active features
        return self.std > 0

    @property
    def calibrated(self) -> bool:
        return self.threshold is not None


@dataclass(frozen=True)
class ScoredFlow:
    flow_id: str
    score: float
    positive: bool
    truth: str = TRUTH_UNKNOWN


def fit_baseline(
    train: np.ndarray,
    components: int,
    seed: int,
    feature_names: Sequence[str],
) -> DetectorModel:
    """Fits the reconstruction baseline on normal-flow features.

    Features are z-scored with training statistics; constant columns, whose
    std is 0, are masked out. The score of a flow is the squared residual
    after projecting its normalized vector onto the top principal
    directions of the training data, at most `components` of them.
    """
    train = np.asarray(train, dtype=float)
    if train.ndim != 2 or train.shape[1] != len(feature_names):
        raise DataError("training matrix does not match the feature list")
    if components < 1:
        raise DataError("component count must be >= 1")
    if len(train) <= components:
        raise DataError(f"need more than {components} training flows, got {len(train)}")
    # A finite feature near the float limit can still overflow the std.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.mean(axis=0)
        std = train.std(axis=0)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise DataError("training features and their mean and std must be finite")
    mask = std > 0
    if not mask.any():
        raise DataError("every feature column is constant; nothing to model")
    z = (train[:, mask] - mean[mask]) / std[mask]
    _, _, vt = np.linalg.svd(z, full_matrices=False)
    basis = vt[:components].copy()
    # Deterministic sign convention: largest-magnitude entry positive.
    for row in basis:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    return DetectorModel(
        feature_names=tuple(feature_names),
        mean=mean,
        std=std,
        basis=basis,
        seed=seed,
    )


def score_flows(model: DetectorModel, features: np.ndarray) -> np.ndarray:
    """Squared reconstruction error of each normalized feature vector. A
    finite feature overflows it to inf or nan through a corrupt model or
    through a value near the float limit, such as a bytes_total of 1e308."""
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[None, :]
    if features.shape[1] != len(model.feature_names):
        raise DataError(
            f"feature dimension mismatch: expected {len(model.feature_names)} "
            f"columns (active mask {model.mask.astype(int).tolist()}), got {features.shape[1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        z = (features[:, model.mask] - model.mean[model.mask]) / model.std[model.mask]
        recon = (z @ model.basis.T) @ model.basis
        return ((z - recon) ** 2).sum(axis=1)


def calibrate_threshold(
    model: DetectorModel, validation: np.ndarray, percentile: float
) -> DetectorModel:
    """Sets the decision threshold to the nearest-rank percentile of the
    validation scores. A lower percentile leaves more validation flows
    above the threshold, enriching the false-positive pool used for
    process mining."""
    if not 0.0 < percentile <= 1.0:
        raise DataError(f"percentile must be in (0, 1], got {percentile}")
    validation = np.asarray(validation, dtype=float)
    if len(validation) == 0:
        raise DataError("validation set is empty")
    if len(validation) < 10:
        raise DataError(f"validation set too small ({len(validation)} < 10 flows)")
    scores = np.sort(score_flows(model, validation))
    if not np.isfinite(scores).all():
        raise DataError("validation scores are not finite; a feature or the model is out of range")
    rank = int(np.ceil(percentile * len(scores)))
    threshold = float(scores[rank - 1])
    return replace(model, threshold=threshold, percentile=percentile)


def classify(
    model: DetectorModel,
    features: np.ndarray,
    flow_ids: Sequence[str],
    truths: Sequence[str] | None = None,
) -> list[ScoredFlow]:
    """The baseline's decision at the calibrated threshold for each flow
    whose score is finite, in input order; the caller counts the flows left
    out. Raises DataError when no flow has a finite score."""
    if not model.calibrated:
        raise DataError("detector model has no calibrated threshold")
    scores = score_flows(model, features)
    if len(scores) != len(flow_ids):
        raise DataError("flow id list does not match the feature matrix")
    scored = _decide(flow_ids, scores.tolist(), model.threshold, truths)
    if not scored:
        raise DataError("detector scores are not finite; a feature or the model is out of range")
    return scored


def _decide(
    flow_ids: Sequence[str], scores: Sequence[float], threshold: float,
    truths: Sequence[str] | None,
) -> list[ScoredFlow]:
    """Decision rule: positive iff score > threshold (ties are negative).
    A flow whose score is not finite is left out. Without truths, each flow
    reads TRUTH_UNKNOWN."""
    truths = truths or [TRUTH_UNKNOWN] * len(flow_ids)
    return [
        ScoredFlow(flow_id=fid, score=score, positive=score > threshold, truth=truth)
        for fid, score, truth in zip(flow_ids, scores, truths) if math.isfinite(score)
    ]


# --- external scores -------------------------------------------------------

def _score(row: dict) -> float:
    score = float(row["score"])
    if not math.isfinite(score):
        raise ValueError(f"score {row['score']!r} is not a finite number")
    return score


def read_scores_csv(path: str | Path | None) -> dict[str, float] | None:
    """Reads flow_id -> score, in row order, from a scores CSV, or None
    without a path; a "#" first line is skipped, the header must hold
    flow_id and score, and other columns, such as truth, are ignored.

    Each score must be a finite number and each flow id may occur once;
    anything else, or a file that cannot be read, raises SchemaError naming
    the file and line (artifacts.read_table).
    """
    if path is None:
        return None
    return read_table(path, read_csv(path, None, ("flow_id", "score")), "flow_id", _score)


def import_scores(
    scores: dict[str, float],
    threshold: float,
    known_ids: Sequence[str],
    truths: Sequence[str] | None = None,
) -> list[ScoredFlow]:
    """Turns an external scores table (read_scores_csv) into classified flows.

    Mirrors classify, which takes features: the same decision rule, results in
    the order of known_ids, and truth labels from the caller. Only known flows
    with a score are returned; the caller counts the known flows left out and
    the score rows for other ids. Raises DataError when no known flow has one.
    """
    ids = [fid for fid in known_ids if fid in scores]
    truths = truths and [t for fid, t in zip(known_ids, truths) if fid in scores]
    scored = _decide(ids, [scores[fid] for fid in ids], threshold, truths)
    if not scored:
        raise DataError("external scores match none of the input flows")
    return scored


def write_scores_csv(scored: Sequence[ScoredFlow], path: str | Path) -> None:
    rows = (
        [s.flow_id, repr(s.score), "positive" if s.positive else "negative", s.truth]
        for s in scored
    )
    write_csv(path, ["flow_id", "score", "predicted", "truth"], rows, schema=SCORES_CSV_SCHEMA)


# --- persistence -----------------------------------------------------------

def _model_payload(model: DetectorModel) -> dict:
    return {
        "kind": KIND_BASELINE,
        "feature_names": list(model.feature_names),
        "mean": [float(v) for v in model.mean],
        "std": [float(v) for v in model.std],
        "mask": [bool(v) for v in model.mask],
        "basis": [[float(v) for v in row] for row in model.basis],
        "components": len(model.basis),
        "seed": model.seed,
        "threshold": model.threshold,
        "percentile": model.percentile,
    }


def save_model(model: DetectorModel, path: str | Path) -> None:
    write_schema_json(path, MODEL_SCHEMA, _model_payload(model))


def load_model(path: str | Path) -> DetectorModel:
    """Reads save_model's file, valid exactly when _model_payload writes it
    back (artifacts.read_json), so mask is std > 0 and components the basis
    rows; mean and std have one entry per feature, basis a column per
    active feature, mean, std, basis and threshold are finite and the
    percentile is in (0, 1]; else raises SchemaError naming the file."""
    return read_json(path, MODEL_SCHEMA, _model_from, _model_payload)


def _model_from(payload: dict) -> DetectorModel:
    model = DetectorModel(
        feature_names=tuple(str(name) for name in payload["feature_names"]),
        mean=np.array([float(v) for v in payload["mean"]]),
        std=np.array([float(v) for v in payload["std"]]),
        basis=np.array([[float(v) for v in row] for row in payload["basis"]]),
        seed=int(payload["seed"]),
        threshold=float(payload["threshold"]),
        percentile=float(payload["percentile"]),
    )
    n, active = len(model.feature_names), int(model.mask.sum())
    if model.mean.shape != (n,) or model.std.shape != (n,):
        raise ValueError(f"mean and std must have {n} entries, one per feature")
    if model.basis.shape[1:] != (active,):
        raise ValueError(f"basis must have {active} columns, one per active feature")
    if not np.isfinite([*model.mean, *model.std, *model.basis.ravel(), model.threshold]).all():
        raise ValueError("mean, std, basis and threshold must be finite")
    if not 0.0 < model.percentile <= 1.0:
        raise ValueError(f"percentile {model.percentile!r} is not in (0, 1]")
    return model
