"""Binary-classification metrics and an exact paired significance test."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

LOGLOSS_CLIP = 1e-7


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    mcc: float
    kappa: float
    log_loss: float | None
    tp: int
    tn: int
    fp: int
    fn: int

    def to_dict(self) -> dict:
        return asdict(self)


def check_labels(name: str, y: np.ndarray, shape: tuple) -> None:
    """Raises ValueError unless y has `shape` and every entry is 0 or 1."""
    if y.shape != shape:
        raise ValueError(f"{name} has shape {y.shape}, the labels {shape}")
    bad = np.flatnonzero((y != 0) & (y != 1))
    if bad.size:
        raise ValueError(f"{name}[{bad[0]}] is {y.flat[bad[0]]}, not 0 or 1")


def compute_metrics(
    y_true: np.ndarray, y_pred: np.ndarray, probs: np.ndarray | None = None
) -> MetricsReport:
    """Confusion-matrix metrics with the 0-denominator conventions:
    precision/recall/f1 are 0 when undefined, mcc is 0 when any marginal
    is 0, and kappa is 1 for perfect agreement even when chance agreement
    is also perfect.  Labels must be a flat array of 0 or 1, and probs
    numbers in [0, 1]."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    if y_true.ndim != 1:
        raise ValueError(f"y_true has shape {y_true.shape}, not a flat list of labels")
    check_labels("y_true", y_true, y_true.shape)
    check_labels("y_pred", y_pred, y_true.shape)
    if probs is not None:
        probs = np.asarray(probs)
        if probs.shape != y_true.shape:
            raise ValueError(f"probs has shape {probs.shape}, the labels {y_true.shape}")
        if probs.dtype.kind not in "iuf":
            raise ValueError(f"probs has {probs.dtype} entries, not numbers")
        bad = np.flatnonzero(~((probs >= 0.0) & (probs <= 1.0)))
        if bad.size:
            raise ValueError(f"probs[{bad[0]}] is {probs.flat[bad[0]]}, not in [0, 1]")
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    n = tp + tn + fp + fn
    accuracy = (tp + tn) / n if n else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(denom) if denom else 0.0
    po = accuracy
    pe = ((tp + fp) * (tp + fn) + (tn + fn) * (tn + fp)) / (n * n) if n else 0.0
    if pe == 1.0:
        kappa = 1.0 if po == 1.0 else 0.0
    else:
        kappa = (po - pe) / (1 - pe)
    ll = log_loss(y_true, probs) if probs is not None else None
    return MetricsReport(accuracy, precision, recall, f1, mcc, kappa, ll, tp, tn, fp, fn)


def log_loss(y_true: np.ndarray, probs: np.ndarray) -> float:
    """Mean negative log likelihood with probabilities clipped away from 0/1."""
    y = np.asarray(y_true, dtype=np.float64)
    p = np.clip(np.asarray(probs, dtype=np.float64), LOGLOSS_CLIP, 1 - LOGLOSS_CLIP)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def mcnemar_test(y_true: np.ndarray, pred_a: np.ndarray, pred_b: np.ndarray) -> tuple[int, float]:
    """Exact two-sided McNemar test on the discordant pairs.

    Returns (statistic, p_value) where the statistic is min(b, c) for
    b = a-right/b-wrong and c = a-wrong/b-right counts. With no discordant
    pairs the p-value is 1.  Every array must hold as many 0/1 labels as y_true.
    """
    y_true, pred_a, pred_b = np.asarray(y_true), np.asarray(pred_a), np.asarray(pred_b)
    for name, y in (("y_true", y_true), ("pred_a", pred_a), ("pred_b", pred_b)):
        check_labels(name, y, y_true.shape)
    right_a = pred_a == y_true
    right_b = pred_b == y_true
    b = int(np.sum(right_a & ~right_b))
    c = int(np.sum(~right_a & right_b))
    n = b + c
    if n == 0:
        return 0, 1.0
    k = min(b, c)
    # two-sided exact binomial(n, 0.5) tail, doubled and capped at 1; the
    # ratio of two exact integers is rounded once, so no term can overflow
    tail = sum(math.comb(n, i) for i in range(k + 1))
    return k, min(1.0, tail / 2 ** (n - 1))
