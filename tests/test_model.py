import math

import numpy as np
import pytest

from masklog.errors import (
    NoMaskedPositions,
    NonFiniteActivation,
    ShapeMismatch,
)
from masklog.model import (
    LN_EPS,
    ModelConfig,
    backward,
    forward,
    init_params,
    loss_and_gradients,
    mlm_loss,
    params_digest,
)
from masklog.train import TrainConfig, train
from masklog.vocab import PAD_ID, TokenSequence

from conftest import make_seq


def finite_difference(params, batch, targets, mask_positions, name, idx, step=1e-3):
    """Independent central-difference oracle on one parameter coordinate."""
    flat = params.tensors[name].reshape(-1)
    orig = flat[idx]
    hi = np.float32(orig + step)
    lo = np.float32(orig - step)
    flat[idx] = hi
    loss_hi = mlm_loss(forward(params, batch), targets, mask_positions)
    flat[idx] = lo
    loss_lo = mlm_loss(forward(params, batch), targets, mask_positions)
    flat[idx] = orig
    return (loss_hi - loss_lo) / (float(hi) - float(lo))


class TestInit:
    def test_deterministic(self, tiny_cfg):
        a = init_params(tiny_cfg, seed=9)
        b = init_params(tiny_cfg, seed=9)
        assert params_digest(a) == params_digest(b)
        for name in a.names():
            assert a[name].tobytes() == b[name].tobytes()

    def test_seed_changes_weights(self, tiny_cfg):
        assert params_digest(init_params(tiny_cfg, 1)) != params_digest(init_params(tiny_cfg, 2))

    def test_norm_gains_are_ones(self, tiny_cfg):
        params = init_params(tiny_cfg, 0)
        for name in params.names():
            if name.endswith(".gain"):
                assert np.all(params[name] == 1.0)
            if name.endswith(".offset") or name.endswith((".bq", ".bk", ".bv", ".bo", ".b1", ".b2", "out.b")):
                assert np.all(params[name] == 0.0)

    def test_parameter_count_closed_form(self):
        cfg = ModelConfig(vocab_size=4096, d_model=128, n_heads=4, n_layers=2, d_ff=256, max_len=128)
        params = init_params(cfg, 0)
        v, d, f, ml, nl = 4096, 128, 256, 128, 2
        per_layer = 4 * (d * d + d) + 2 * 2 * d + (d * f + f) + (f * d + d)
        expected = v * d + ml * d + nl * per_layer + 2 * d + (d * v + v)
        assert sum(int(v.size) for _, v in params.items()) == expected

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=20, d_model=10, n_heads=3)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=2)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=20, dropout_rate=1.0)


class TestForward:
    def test_softmax_rows_sum_to_one(self, tiny_cfg, tiny_batch):
        batch, _, _ = tiny_batch
        out = forward(init_params(tiny_cfg, 3), batch)
        sums = out.probabilities.sum(-1)
        assert np.all(np.abs(sums - 1.0) <= 1e-6)
        assert np.all(out.probabilities > 0)
        assert np.all(out.probabilities < 1)

    def test_inference_deterministic(self, tiny_cfg, tiny_batch):
        batch, _, _ = tiny_batch
        params = init_params(tiny_cfg, 3)
        a = forward(params, batch, train_mode=False)
        b = forward(params, batch, train_mode=False)
        assert a.logits.tobytes() == b.logits.tobytes()

    def test_pad_isolation(self, tiny_cfg):
        params = init_params(tiny_cfg, 3)
        seq = make_seq(4, width=8)
        out_a = forward(params, [seq])
        mutated = TokenSequence(ids=seq.ids.copy(), length=seq.length)
        mutated.ids[6] = 11  # padding slot content should be invisible
        out_b = forward(params, [mutated])
        assert out_a.logits[0, :4].tobytes() == out_b.logits[0, :4].tobytes()

    def test_batch_permutation_equivariance(self, tiny_cfg, tiny_batch):
        batch, _, _ = tiny_batch
        params = init_params(tiny_cfg, 3)
        out = forward(params, batch)
        swapped = forward(params, [batch[1], batch[0], batch[2]])
        assert out.logits[0].tobytes() == swapped.logits[1].tobytes()
        assert out.logits[1].tobytes() == swapped.logits[0].tobytes()
        assert out.logits[2].tobytes() == swapped.logits[2].tobytes()

    def test_dropout_seeded_replay(self, tiny_batch):
        cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=1, n_layers=1, d_ff=24, max_len=8,
                          dropout_rate=0.2)
        batch, _, _ = tiny_batch
        params = init_params(cfg, 3)
        a = forward(params, batch, train_mode=True, seed=11)
        b = forward(params, batch, train_mode=True, seed=11)
        c = forward(params, batch, train_mode=True, seed=12)
        assert a.logits.tobytes() == b.logits.tobytes()
        assert a.logits.tobytes() != c.logits.tobytes()

    def test_rejects_overlong_batch(self, tiny_cfg):
        params = init_params(tiny_cfg, 0)
        with pytest.raises(ShapeMismatch):
            forward(params, [make_seq(9, width=9)])

    def test_rejects_out_of_vocab_ids(self, tiny_cfg):
        params = init_params(tiny_cfg, 0)
        seq = make_seq(4)
        seq.ids[0] = 25
        with pytest.raises(ShapeMismatch):
            forward(params, [seq])

    def test_nonfinite_weights_detected(self, tiny_cfg, tiny_batch):
        batch, _, _ = tiny_batch
        params = init_params(tiny_cfg, 0)
        params.tensors["out.w"][0, 0] = np.float32("inf")
        with pytest.raises(NonFiniteActivation):
            forward(params, batch)


class TestHandComputedForward:
    def test_single_head_two_tokens_matches_manual_computation(self):
        """Step-by-step recomputation with plain numpy expressions as the oracle."""
        cfg = ModelConfig(vocab_size=6, d_model=4, n_heads=1, n_layers=1, d_ff=4, max_len=2,
                          dropout_rate=0.0)
        params = init_params(cfg, 0)
        rng = np.random.default_rng(42)
        for name in params.names():  # small but nontrivial weights everywhere
            params.tensors[name] = rng.normal(0, 0.3, size=params[name].shape).astype(np.float32)
        w = {k: v.astype(np.float64) for k, v in params.items()}

        ids = np.array([4, 5])
        seq = TokenSequence(ids=ids.copy(), length=2)
        got = forward(params, [seq]).logits[0]

        def ln(x, g, b):
            mu = x.mean()
            var = ((x - mu) ** 2).mean()
            return g * (x - mu) / np.sqrt(var + LN_EPS) + b

        x = np.array([w["embed.token"][4] + w["embed.position"][0],
                      w["embed.token"][5] + w["embed.position"][1]])
        h = np.array([ln(x[0], w["layers.0.ln1.gain"], w["layers.0.ln1.offset"]),
                      ln(x[1], w["layers.0.ln1.gain"], w["layers.0.ln1.offset"])])
        q = h @ w["layers.0.attn.wq"] + w["layers.0.attn.bq"]
        k = h @ w["layers.0.attn.wk"] + w["layers.0.attn.bk"]
        v = h @ w["layers.0.attn.wv"] + w["layers.0.attn.bv"]
        scores = q @ k.T / math.sqrt(4)
        attn = np.exp(scores - scores.max(1, keepdims=True))
        attn /= attn.sum(1, keepdims=True)
        ao = (attn @ v) @ w["layers.0.attn.wo"] + w["layers.0.attn.bo"]
        x = x + ao
        h2 = np.array([ln(x[0], w["layers.0.ln2.gain"], w["layers.0.ln2.offset"]),
                       ln(x[1], w["layers.0.ln2.gain"], w["layers.0.ln2.offset"])])
        z = h2 @ w["layers.0.ffn.w1"] + w["layers.0.ffn.b1"]
        gelu = 0.5 * z * (1 + np.tanh(math.sqrt(2 / math.pi) * (z + 0.044715 * z**3)))
        x = x + gelu @ w["layers.0.ffn.w2"] + w["layers.0.ffn.b2"]
        hf = np.array([ln(x[0], w["final_ln.gain"], w["final_ln.offset"]),
                       ln(x[1], w["final_ln.gain"], w["final_ln.offset"])])
        expected = hf @ w["out.w"] + w["out.b"]

        assert np.max(np.abs(got - expected)) < 1e-5


class TestLoss:
    def test_perfect_prediction_zero_loss(self):
        logits = np.full((1, 3, 5), -1e9)
        logits[0, 1, 2] = 1e9  # all mass on the target
        from masklog.model import ForwardOutput, _softmax

        out = ForwardOutput(logits=logits, probabilities=_softmax(logits))
        targets = np.array([[0, 2, 0]])
        assert mlm_loss(out, targets, [[1]]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction_is_log_vocab(self, tiny_cfg, tiny_batch):
        batch, targets, positions = tiny_batch
        params = init_params(tiny_cfg, 0)
        params.tensors["out.w"][:] = 0.0
        params.tensors["out.b"][:] = 0.0
        loss = mlm_loss(forward(params, batch), targets, positions)
        assert loss == pytest.approx(math.log(tiny_cfg.vocab_size), abs=1e-6)

    def test_matches_recomputation_from_probabilities(self, tiny_cfg, tiny_batch):
        batch, targets, positions = tiny_batch
        out = forward(init_params(tiny_cfg, 8), batch)
        loss = mlm_loss(out, targets, positions)
        manual = -np.mean(
            [
                math.log(out.probabilities[b, p, targets[b, p]])
                for b, pos in enumerate(positions)
                for p in pos
            ]
        )
        assert loss == pytest.approx(manual, abs=1e-6)

    def test_no_masked_positions(self, tiny_cfg, tiny_batch):
        batch, targets, _ = tiny_batch
        out = forward(init_params(tiny_cfg, 0), batch)
        with pytest.raises(NoMaskedPositions):
            mlm_loss(out, targets, [[], [], []])

    def test_hand_worked_two_probability_example(self):
        from masklog.model import ForwardOutput, _softmax

        # probabilities 0.5 and 0.25 at the two masked targets
        logits = np.log(np.array([[[0.5, 0.5, 1e-12], [0.25, 0.75, 1e-12]]]))
        out = ForwardOutput(logits=logits, probabilities=_softmax(logits))
        loss = mlm_loss(out, np.array([[0, 0]]), [[0, 1]])
        assert loss == pytest.approx((math.log(2) + math.log(4)) / 2, rel=1e-9)


class TestBackward:
    def test_gradients_span_every_tensor_type(self, tiny_cfg, tiny_batch):
        batch, targets, positions = tiny_batch
        params = init_params(tiny_cfg, 3)
        grads = backward(params, batch, targets, positions)
        rng = np.random.default_rng(1)
        for name in params.names():
            flat_grad = grads[name].reshape(-1)
            size = flat_grad.size
            for idx in rng.integers(0, size, size=3):
                fd = finite_difference(params, batch, targets, positions, name, int(idx))
                a = flat_grad[int(idx)]
                if abs(a - fd) < 1e-6:  # below the finite-difference resolution floor
                    continue
                assert abs(a - fd) / max(abs(a), abs(fd)) < 1e-4, name

    def test_gradient_shapes_match_parameters(self, tiny_cfg, tiny_batch):
        batch, targets, positions = tiny_batch
        params = init_params(tiny_cfg, 3)
        grads = backward(params, batch, targets, positions)
        assert set(grads) == set(params.tensors)
        for name in grads:
            assert grads[name].shape == params[name].shape

    def test_unused_embedding_row_gets_zero_gradient(self, tiny_cfg, tiny_batch):
        batch, targets, positions = tiny_batch
        used = {int(i) for seq in batch for i in seq.ids}
        unused = next(i for i in range(tiny_cfg.vocab_size) if i not in used)
        grads = backward(init_params(tiny_cfg, 3), batch, targets, positions)
        assert np.all(grads["embed.token"][unused] == 0.0)

    def test_gradcheck_with_dropout_replay(self, tiny_batch):
        cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=1, n_layers=1, d_ff=24, max_len=8,
                          dropout_rate=0.25)
        batch, targets, positions = tiny_batch
        params = init_params(cfg, 3)
        seed = 77
        loss, grads = loss_and_gradients(params, batch, targets, positions, train_mode=True, seed=seed)
        rng = np.random.default_rng(2)
        checked = 0
        for name in ("layers.0.attn.wq", "layers.0.ffn.w1", "out.w", "embed.token"):
            flat = params.tensors[name].reshape(-1)
            for idx in rng.integers(0, flat.size, size=2):
                idx = int(idx)
                orig = flat[idx]
                hi, lo = np.float32(orig + 1e-3), np.float32(orig - 1e-3)
                flat[idx] = hi
                l_hi, _ = loss_and_gradients(params, batch, targets, positions, train_mode=True, seed=seed)
                flat[idx] = lo
                l_lo, _ = loss_and_gradients(params, batch, targets, positions, train_mode=True, seed=seed)
                flat[idx] = orig
                fd = (l_hi - l_lo) / (float(hi) - float(lo))
                a = grads[name].reshape(-1)[idx]
                checked += 1
                if abs(a - fd) >= 1e-6:
                    assert abs(a - fd) / max(abs(a), abs(fd)) < 1e-4, name
        assert checked == 8


REPEATED_POSITIONS = [[0, 2, 2], [1, 4, 7], [2]]  # row 0 lists position 2 twice


class TestGatheredHead:
    """loss_and_gradients runs the final LN, head and softmax on masked rows only;
    the full per-position forward followed by mlm_loss is the reference."""

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.25])
    @pytest.mark.parametrize("repeated", [False, True])
    def test_loss_matches_full_forward(self, tiny_batch, dropout_rate, repeated):
        batch, targets, positions = tiny_batch
        positions = REPEATED_POSITIONS if repeated else positions
        cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_layers=2, d_ff=24, max_len=8,
                          dropout_rate=dropout_rate)
        params = init_params(cfg, 4)
        for train_mode, seed in ((False, 0), (True, 31)):
            loss, _ = loss_and_gradients(params, batch, targets, positions, train_mode=train_mode, seed=seed)
            full = mlm_loss(forward(params, batch, train_mode=train_mode, seed=seed), targets, positions)
            assert abs(loss - full) <= 1e-12

    def test_repeated_position_gradients_match_finite_differences(self, tiny_cfg, tiny_batch):
        batch, targets, _ = tiny_batch
        params = init_params(tiny_cfg, 3)
        grads = backward(params, batch, targets, REPEATED_POSITIONS)
        d = tiny_cfg.d_model
        repeated_target = int(targets[0, 2])
        repeated_token = int(batch[0].ids[2])
        coords = {
            "out.w": [k * tiny_cfg.vocab_size + repeated_target for k in range(3)],
            "final_ln.gain": [0, 1, 2],
            "embed.token": [repeated_token * d + k for k in range(3)],
        }
        for name, indices in coords.items():
            for idx in indices:
                fd = finite_difference(params, batch, targets, REPEATED_POSITIONS, name, idx)
                a = grads[name].reshape(-1)[idx]
                assert abs(fd) > 1e-4, name  # well above the finite-difference resolution floor
                assert abs(a - fd) / max(abs(a), abs(fd)) < 1e-4, name


class TestLossDecreases:
    def test_fifty_steps_cut_loss_by_twenty_percent(self):
        # 32 template-structured logs (8 copies of 4 patterns), one batch per step
        patterns = [[4, 5, 6, 7, 8, 9], [10, 11, 12, 13, 14, 15], [4, 6, 8, 10, 12, 14],
                    [16, 17, 18, 19, 4, 5]]
        seqs = []
        for pat in patterns:
            for _ in range(8):
                ids = np.full(8, PAD_ID, dtype=np.int64)
                ids[: len(pat)] = pat
                seqs.append(TokenSequence(ids=ids, length=len(pat)))
        cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_layers=1, d_ff=24, max_len=8,
                          dropout_rate=0.0)
        ckpt = train(seqs, cfg, TrainConfig(epochs=50, batch_size=32, seed=6))
        assert len(ckpt.history) == 50
        assert ckpt.history[-1] <= 0.8 * ckpt.history[0]
        assert all(math.isfinite(h) for h in ckpt.history)
