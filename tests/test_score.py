import math

import numpy as np
import pytest

from masklog import score as score_mod
from masklog.errors import ConfigInvalid
from masklog.masking import TOKEN_BY_TOKEN, MaskingStrategy, plan_random, plan_token_by_token
from masklog.model import ModelConfig, forward, init_params
from masklog.score import (
    PROB_FLOOR,
    heatmap,
    recompute_score,
    score_corpus,
    score_log,
)
from masklog.train import Checkpoint, TrainConfig, derive_seed

from conftest import make_seq

TOKEN = MaskingStrategy(kind=TOKEN_BY_TOKEN, fraction=1.0)
RANDOM15 = MaskingStrategy()


def brute_force_token_score(ckpt, seq):
    """Independent oracle: one forward per position, probabilities multiplied
    into the same negative-mean-log formula."""
    log_sum = 0.0
    for plan in plan_token_by_token(seq):
        out = forward(ckpt.params, [plan.masked_sequence])
        pos = plan.masked_indices[0]
        p = float(out.probabilities[0, pos, int(plan.original_ids[0])])
        log_sum += math.log(max(p, PROB_FLOOR))
    return -log_sum / seq.length


def full_forward_probs(ckpt, plans):
    """Reference: each variant's full per-position forward, read at its masked cells."""
    pairs = []
    for plan in plans:
        probs = forward(ckpt.params, [plan.masked_sequence]).probabilities[0]
        for pos, true_id in zip(plan.masked_indices, plan.original_ids):
            pairs.append((pos, max(float(probs[pos, true_id]), PROB_FLOOR)))
    return pairs


class TestScoreLog:
    def test_token_by_token_matches_brute_force(self, toy_model):
        ckpt = toy_model["checkpoint"]
        for seq in toy_model["seqs"][:4]:
            report = score_log(ckpt, seq, TOKEN)
            assert report.score == pytest.approx(brute_force_token_score(ckpt, seq), abs=1e-6)
            assert report.masked_count == seq.length
            assert {pos for pos, _ in report.token_probs} == set(range(seq.length))

    def test_self_consistency(self, toy_model):
        ckpt = toy_model["checkpoint"]
        for strategy in (TOKEN, RANDOM15):
            for seq in toy_model["seqs"][:3]:
                report = score_log(ckpt, seq, strategy, seed=5)
                assert report.score == pytest.approx(recompute_score(report.token_probs), abs=1e-9)
                assert all(0.0 < p <= 1.0 for _, p in report.token_probs)
                assert report.score >= 0.0

    def test_seeded_determinism(self, toy_model):
        ckpt = toy_model["checkpoint"]
        seq = toy_model["seqs"][0]
        a = score_log(ckpt, seq, RANDOM15, seed=3)
        b = score_log(ckpt, seq, RANDOM15, seed=3)
        assert a.score == b.score and a.token_probs == b.token_probs

    def test_repeats_concatenate_plans(self, toy_model):
        ckpt = toy_model["checkpoint"]
        seq = toy_model["seqs"][0]
        r = score_log(ckpt, seq, RANDOM15, seed=3, repeats=4)
        k = max(1, round(0.15 * seq.length))
        assert r.masked_count == 4 * k
        assert r.repeats == 4
        assert r.score == pytest.approx(recompute_score(r.token_probs), abs=1e-9)

    @pytest.mark.parametrize("repeats", [0, -4])
    def test_repeats_below_one_are_refused(self, toy_model, repeats):
        ckpt, seqs = toy_model["checkpoint"], toy_model["seqs"][:3]
        for strategy in (RANDOM15, TOKEN):
            with pytest.raises(ConfigInvalid, match="repeats"):
                score_log(ckpt, seqs[0], strategy, repeats=repeats)
            with pytest.raises(ConfigInvalid, match="repeats"):
                score_corpus(ckpt, seqs, strategy, repeats=repeats)

    @pytest.mark.parametrize("strategy", [RANDOM15, TOKEN], ids=["random", "token"])
    def test_gathered_probs_match_full_forward(self, toy_model, strategy):
        ckpt = toy_model["checkpoint"]
        for seq in toy_model["seqs"][:4]:
            report = score_log(ckpt, seq, strategy, seed=5, repeats=3)
            if strategy.kind == TOKEN_BY_TOKEN:
                plans = plan_token_by_token(seq)
            else:
                plans = [plan_random(seq, strategy.fraction, rng_seed=(5, r)) for r in range(3)]
            expected = full_forward_probs(ckpt, plans)
            assert [pos for pos, _ in report.token_probs] == [pos for pos, _ in expected]
            for (_, got), (_, want) in zip(report.token_probs, expected):
                assert abs(got - want) <= 1e-12

    def test_float64_weights_cast_once_and_exact(self, toy_model):
        ckpt = toy_model["checkpoint"]
        cached = ckpt.scoring_params()
        score_log(ckpt, toy_model["seqs"][0], RANDOM15)
        assert ckpt.scoring_params() is cached
        assert cached.config == ckpt.params.config
        assert set(cached.tensors) == set(ckpt.params.tensors)
        for name, tensor in ckpt.params.items():  # out.w/out.b sliced to |V|
            assert cached[name].dtype == np.float64
            assert np.array_equal(cached[name][..., : tensor.shape[-1]], tensor)

    def test_monotone_in_probabilities(self):
        probs = [(0, 0.9), (1, 0.5), (2, 0.8)]
        base = recompute_score(probs)
        worse = [(0, 0.9), (1, 0.2), (2, 0.8)]
        assert recompute_score(worse) > base

    def test_probability_one_gives_zero_score(self):
        assert recompute_score([(0, 1.0), (1, 1.0)]) == 0.0

    def test_known_arithmetic(self):
        assert recompute_score([(0, 0.5), (1, 0.25)]) == pytest.approx(1.0397207708399179)


class TestScoreCorpus:
    def test_order_and_length_preserved(self, toy_model):
        reports = score_corpus(toy_model["checkpoint"], toy_model["seqs"][:6], RANDOM15, seed=1)
        assert len(reports) == 6
        assert [r.raw_ref for r in reports] == [s.raw_ref for s in toy_model["seqs"][:6]]

    def test_deterministic_across_runs(self, toy_model):
        a = [r.score for r in score_corpus(toy_model["checkpoint"], toy_model["seqs"][:6], RANDOM15, seed=9)]
        b = [r.score for r in score_corpus(toy_model["checkpoint"], toy_model["seqs"][:6], RANDOM15, seed=9)]
        assert a == b

    def test_threads_do_not_change_scores(self, toy_model):
        seqs = toy_model["seqs"][:8]
        serial = [r.score for r in score_corpus(toy_model["checkpoint"], seqs, RANDOM15, seed=2, threads=1)]
        threaded = [r.score for r in score_corpus(toy_model["checkpoint"], seqs, RANDOM15, seed=2, threads=4)]
        assert serial == threaded

    def test_batching_granularity_invariance(self, toy_model):
        # a log scores the same in any chunk, so any grouping is identical;
        # compare full-corpus run against one-at-a-time runs
        seqs = toy_model["seqs"][:6]
        together = [r.score for r in score_corpus(toy_model["checkpoint"], seqs, TOKEN)]
        one_by_one = [score_corpus(toy_model["checkpoint"], [s], TOKEN)[0].score for s in seqs]
        # per-log seeds depend on corpus index, so compare the index-0 calls
        assert together[0] == one_by_one[0]
        for s, r in zip(seqs, score_corpus(toy_model["checkpoint"], seqs, TOKEN)):
            assert r.score == pytest.approx(brute_force_token_score(toy_model["checkpoint"], s), abs=1e-6)

    def test_repeats_reduce_score_variance(self, toy_model):
        ckpt = toy_model["checkpoint"]
        seq = toy_model["seqs"][0]
        var = []
        for repeats in (1, 4):
            scores = [score_log(ckpt, seq, RANDOM15, seed=s, repeats=repeats).score for s in range(20)]
            var.append(float(np.var(scores)))
        assert var[1] <= var[0]


class TestHeatmap:
    def test_single_log_matrix(self, toy_model):
        seq = toy_model["seqs"][0]
        hm = heatmap(toy_model["checkpoint"], [seq])
        assert hm.values.shape == (1, seq.length)
        assert not np.isnan(hm.values).any()

    def test_cells_equal_token_by_token_reports(self, toy_model):
        seqs = toy_model["seqs"][:3]
        hm = heatmap(toy_model["checkpoint"], seqs)
        for i, seq in enumerate(seqs):
            report = score_log(toy_model["checkpoint"], seq, TOKEN)
            for pos, p in report.token_probs:
                assert hm.values[i, pos] == pytest.approx(p, abs=1e-12)

    def test_ragged_rows_marked_missing(self, toy_model):
        seqs = [toy_model["seqs"][0], toy_model["seqs"][8]]
        lengths = [s.length for s in seqs]
        hm = heatmap(toy_model["checkpoint"], seqs)
        assert hm.values.shape == (2, max(lengths))
        for i, L in enumerate(lengths):
            assert np.isnan(hm.values[i, L:]).all()
            assert not np.isnan(hm.values[i, :L]).any()

    def test_label_summaries(self, toy_model):
        seqs = toy_model["seqs"][:4]
        labels = ["normal", "normal", "anomalous", "anomalous"]
        hm = heatmap(toy_model["checkpoint"], seqs, labels=labels)
        assert set(hm.summary) == {"normal", "anomalous"}
        assert np.nanmean(hm.values[[i for i, lab in enumerate(labels) if lab == "normal"]]) > 0.0


def _mixed_corpus(vocab_size):
    """Logs of every length 1-24, plus enough of length 5 to fill several chunks."""
    rng = np.random.default_rng(17)
    lengths = [n for n in range(1, 25) for _ in range(2)] + [5] * (score_mod.CHUNK_ROWS // 5 + 11)
    rng.shuffle(lengths)
    return [make_seq(n, width=32, hi=vocab_size, rng=rng) for n in lengths]


def _untrained_checkpoint(cfg, seed):
    return Checkpoint(params=init_params(cfg, seed), vocab_hash="", train_config=TrainConfig(), final_loss=0.0)


class TestBatchedScoring:
    """`score_corpus` scores logs of one length together; per-log `score_log` is the reference, to the bit.

    Bit identity rests on the BLAS giving a row of a 2-D product the same bits
    whatever the row count. Checked on OpenBLAS 0.3.31 (DYNAMIC_ARCH, SkylakeX
    core, numpy 2.4.6), where it holds for output widths that are multiples
    of 8 and inner widths up to 384: both dims below meet it.
    """

    @pytest.mark.parametrize("dims", [
        dict(d_model=32, n_heads=2, n_layers=1, d_ff=48),  # the toy_model dims
        dict(),  # the defaults: d_model 128, 4 heads, 2 layers, d_ff 256
    ], ids=["toy", "default"])
    @pytest.mark.parametrize("strategy, repeats", [(RANDOM15, 1), (RANDOM15, 3), (TOKEN, 1)],
                             ids=["random", "random-repeats3", "token"])
    def test_batched_equals_per_log(self, dims, strategy, repeats):
        cfg = ModelConfig(vocab_size=130, max_len=32, **dims)  # |V| 130: the head is padded to 136
        ckpt = _untrained_checkpoint(cfg, 4)
        corpus = _mixed_corpus(cfg.vocab_size)
        chunks = score_mod._chunks(corpus, strategy, repeats)
        assert max(len(c) for c in chunks) > 1
        assert sum(1 for c in chunks if corpus[c[0]].length == 5) > 1  # a chunk boundary inside one length
        batched = score_corpus(ckpt, corpus, strategy, seed=8, repeats=repeats)
        for i, (seq, got) in enumerate(zip(corpus, batched)):
            want = score_log(ckpt, seq, strategy, seed=derive_seed(8, score_mod._STREAM_SCORE, i),
                             repeats=repeats)
            if seq.length <= 3 and strategy is RANDOM15:
                assert got.masked_count == repeats  # one masked position per plan
            assert np.float64(got.score).tobytes() == np.float64(want.score).tobytes(), i
            assert got.token_probs == want.token_probs, i
            assert (got.masked_count, got.repeats, got.raw_ref) == (want.masked_count, want.repeats, want.raw_ref)

    def test_threads_take_whole_chunks(self):
        ckpt = _untrained_checkpoint(ModelConfig(vocab_size=130, d_model=32, n_heads=2, d_ff=48, max_len=32), 2)
        corpus = _mixed_corpus(130)
        serial = score_corpus(ckpt, corpus, RANDOM15, seed=3)
        threaded = score_corpus(ckpt, corpus, RANDOM15, seed=3, threads=3)
        assert [r.token_probs for r in threaded] == [r.token_probs for r in serial]

    def test_scoring_head_is_padded_and_dropped(self):
        ckpt = _untrained_checkpoint(ModelConfig(vocab_size=130, d_model=32, n_heads=2, d_ff=48, max_len=32), 2)
        padded = ckpt.scoring_params()
        assert padded["out.w"].shape == (32, 136) and padded["out.b"].shape == (136,)
        assert not padded["out.w"][:, 130:].any() and not padded["out.b"][130:].any()
        assert ckpt.scoring_params() is padded
        seqs = _mixed_corpus(130)[:6]
        positions = [[0]] * len(seqs)
        out = forward(padded, seqs, mask_positions=positions)
        ref = forward(ckpt.params, seqs, mask_positions=positions)
        assert out.logits.shape == ref.logits.shape == (6, 130)
        np.testing.assert_allclose(out.probabilities, ref.probabilities, rtol=0, atol=1e-12)
