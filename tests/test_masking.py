import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masklog.masking import (
    RANDOM_FRACTION,
    TOKEN_BY_TOKEN,
    MaskingStrategy,
    plan_random,
    plan_token_by_token,
)
from masklog.vocab import MASK_ID, TokenSequence

from conftest import make_seq


class TestPlanRandom:
    def test_count_rounding(self):
        assert len(plan_random(make_seq(20, width=32), 0.15, 0).masked_indices) == 3

    def test_at_least_one(self):
        assert len(plan_random(make_seq(1), 0.15, 0).masked_indices) == 1
        assert len(plan_random(make_seq(1), 0.99, 0).masked_indices) == 1

    def test_golden_seeded_indices(self):
        # pinned fixtures: deterministic across runs and platforms
        seq10 = TokenSequence(ids=np.r_[np.arange(4, 14), np.zeros(22, np.int64)], length=10)
        assert plan_random(seq10, 0.15, 1234).masked_indices == (8, 9)
        seq20 = TokenSequence(ids=np.r_[np.arange(4, 24), np.zeros(12, np.int64)], length=20)
        assert plan_random(seq20, 0.15, 7).masked_indices == (3, 8, 12)
        seq12 = TokenSequence(ids=np.r_[np.arange(4, 16), np.zeros(20, np.int64)], length=12)
        assert plan_random(seq12, 0.5, 99).masked_indices == (0, 2, 4, 5, 8, 10)

    def test_masked_sequence_differs_only_on_m(self):
        seq = make_seq(10, width=16)
        plan = plan_random(seq, 0.3, 42)
        for i in range(16):
            if i in plan.masked_indices:
                assert plan.masked_sequence.ids[i] == MASK_ID
            else:
                assert plan.masked_sequence.ids[i] == seq.ids[i]
        assert list(plan.original_ids) == [seq.ids[i] for i in plan.masked_indices]

    def test_never_masks_padding(self):
        seq = make_seq(4, width=16)
        for seed in range(50):
            plan = plan_random(seq, 0.9, seed)
            assert max(plan.masked_indices) < 4

    def test_coverage_bound(self):
        for length in (3, 7, 10, 20, 33):
            seq = make_seq(length, width=64)
            for fraction in (0.15, 0.25, 0.5):
                k = len(plan_random(seq, fraction, 5).masked_indices)
                assert fraction - 1.0 / length <= k / length <= fraction + 1.0 / length

    def test_positional_frequency_uniform(self):
        seq = make_seq(100, width=128)
        hits = np.zeros(100)
        n_draws = 1000
        for seed in range(n_draws):
            for i in plan_random(seq, 0.15, seed).masked_indices:
                hits[i] += 1
        freq = hits / n_draws
        assert np.all(np.abs(freq - 0.15) <= 0.05)


class TestPlanTokenByToken:
    def test_one_plan_per_position(self):
        plans = plan_token_by_token(make_seq(3))
        assert [p.masked_indices for p in plans] == [(0,), (1,), (2,)]

    def test_union_covers_content(self):
        seq = make_seq(6, width=16)
        plans = plan_token_by_token(seq)
        assert sorted(i for p in plans for i in p.masked_indices) == list(range(6))

    def test_each_plan_differs_at_one_position(self):
        seq = make_seq(5, width=8)
        for plan in plan_token_by_token(seq):
            diff = [i for i in range(8) if plan.masked_sequence.ids[i] != seq.ids[i]]
            assert diff == list(plan.masked_indices)


class TestStrategy:
    def test_parse_round_trip(self):
        for text in ("token", "random0.15", "random0.25", "random0.5"):
            assert MaskingStrategy.parse(text).describe() == text

    def test_parse_bare_random(self):
        s = MaskingStrategy.parse("random")
        assert s.kind == RANDOM_FRACTION and s.fraction == 0.15

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            MaskingStrategy(kind=RANDOM_FRACTION, fraction=0.0)
        with pytest.raises(ValueError):
            MaskingStrategy(kind=RANDOM_FRACTION, fraction=1.5)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            MaskingStrategy(kind="sliding")

    def test_repeats_are_part_of_the_strategy(self):
        assert MaskingStrategy().repeats == MaskingStrategy.parse("token").repeats == 1
        random3 = MaskingStrategy(fraction=0.25, repeats=3)
        assert random3.describe() == "random0.25"  # repeats are recorded on their own

    def test_repeats_have_an_upper_bound(self):
        MaskingStrategy(repeats=100_000)  # the bound itself is allowed; nothing is scored here
        for repeats in (100_001, 2**70):
            with pytest.raises(ValueError, match=f"^repeats must be <= 100000, not {repeats}$"):
                MaskingStrategy(repeats=repeats)

    @pytest.mark.parametrize("repeats", [0, 2, 5])
    def test_token_masks_each_position_once(self, repeats):
        with pytest.raises(ValueError, match="repeats must be"):
            MaskingStrategy(kind=TOKEN_BY_TOKEN, fraction=1.0, repeats=repeats)


@settings(max_examples=80, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=40),
    fraction=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_plan_random_invariants(length, fraction, seed):
    seq = make_seq(length, width=48)
    plan = plan_random(seq, fraction, seed)
    assert len(plan.masked_indices) >= 1
    assert len(set(plan.masked_indices)) == len(plan.masked_indices)
    assert all(0 <= i < length for i in plan.masked_indices)
    again = plan_random(seq, fraction, seed)
    assert again.masked_indices == plan.masked_indices
