import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masklog.calibrate import Threshold, interpolated_quantile, select_threshold
from masklog.errors import EmptyScores, NonFiniteScore


def oracle_quantile(scores, percentile):
    """Independent sort-and-interpolate implementation (order statistics by hand)."""
    s = list(scores)
    s.sort()
    rank = (len(s) - 1) * percentile / 100.0
    k = math.floor(rank)
    t = rank - k
    if k + 1 >= len(s) or t == 0.0:
        return s[k]
    return s[k] + (s[k + 1] - s[k]) * t


class TestSelectThreshold:
    def test_textbook_example(self):
        t = select_threshold(list(range(1, 11)), 90)
        assert t.value == pytest.approx(9.1)
        assert t.n_calibration == 10
        assert t.percentile == 90

    def test_degenerate_constant_scores(self):
        for p in (1, 37.5, 90, 100):
            assert select_threshold([3.25] * 17, p).value == 3.25

    def test_thousand_random_sets_match_oracle_exactly(self):
        rng = np.random.default_rng(12345)
        for i in range(1000):
            n = int(rng.integers(1, 200))
            style = i % 4
            if style == 0:
                scores = rng.normal(0, 10, n).tolist()
            elif style == 1:
                scores = rng.integers(0, 5, n).astype(float).tolist()  # tie-heavy
            elif style == 2:
                scores = [float(rng.normal())] * n  # constant
            else:
                scores = np.round(rng.exponential(3, n), 1).tolist()
            p = float(rng.uniform(0.5, 100.0))
            assert select_threshold(scores, p).value == oracle_quantile(scores, p)

    def test_ten_thousand_scores_match_oracle(self):
        rng = np.random.default_rng(777)
        scores = rng.gamma(2.0, 1.5, 10_000).tolist()
        assert select_threshold(scores, 90).value == oracle_quantile(scores, 90)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(EmptyScores):
            select_threshold([], 90)
        with pytest.raises(NonFiniteScore):
            select_threshold([1.0, float("nan")], 90)
        with pytest.raises(ValueError):
            select_threshold([1.0], 0)
        with pytest.raises(ValueError):
            select_threshold([1.0], 101)


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=80),
    percentile=st.floats(min_value=0.01, max_value=100.0),
)
def test_quantile_always_matches_oracle(scores, percentile):
    assert interpolated_quantile(scores, percentile) == oracle_quantile(scores, percentile)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=2, max_size=50))
def test_threshold_monotone_in_percentile(scores):
    values = [interpolated_quantile(scores, p) for p in (10, 30, 50, 70, 90, 100)]
    assert values == sorted(values)


def test_calibration_purity_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        scores = rng.normal(0, 1, int(rng.integers(5, 300))).tolist()
        p = float(rng.uniform(50, 100))
        t = select_threshold(scores, p)
        above = sum(1 for s in scores if s > t.value)
        assert above / len(scores) <= (100.0 - p) / 100.0 + 1.0 / len(scores)

