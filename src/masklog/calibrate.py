"""Adaptive threshold selection from held-out normal scores.

The threshold is an empirical quantile (default 90th percentile) computed with
linear interpolation between the closest order statistics, so calibration
never sees an anomaly label. A percentile outside (0, 100] is refused by
`check_percentile`, which the CLI also runs on every percentile option
before it reads any file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyScores, NonFiniteScore


@dataclass(frozen=True)
class Threshold:
    value: float
    percentile: float
    n_calibration: int
    checkpoint_hash: str = ""
    vocab_hash: str = ""
    strategy: str = ""
    repeats: int = 1


def interpolated_quantile(scores, percentile: float) -> float:
    """Linear interpolation between order statistics at rank (n-1) * p / 100."""
    s = sorted(float(x) for x in scores)
    rank = (len(s) - 1) * percentile / 100.0
    lo = int(math.floor(rank))
    frac = rank - lo
    if frac == 0.0 or lo + 1 >= len(s):
        return s[lo]
    return s[lo] + (s[lo + 1] - s[lo]) * frac


def check_percentile(percentile: float) -> float:
    """`percentile` itself if it lies in (0, 100]; NaN does not."""
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], not {percentile!r}")
    return percentile


def select_threshold(scores, percentile: float = 90.0) -> Threshold:
    """Pick the decision boundary as a percentile of normal-log scores.

    The threshold's provenance fields (checkpoint and vocabulary digests,
    strategy, repeats) stay empty; `calibrate` fills them from its scores file.
    """
    scores = [float(x) for x in scores]
    if not scores:
        raise EmptyScores("threshold selection needs at least one calibration score")
    if not all(math.isfinite(x) for x in scores):
        raise NonFiniteScore("calibration scores must be finite")
    check_percentile(percentile)
    return Threshold(
        value=interpolated_quantile(scores, percentile),
        percentile=percentile,
        n_calibration=len(scores),
    )
