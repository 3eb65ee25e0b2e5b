import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masklog import model
from masklog.errors import (
    NoMaskedPositions,
    NonFiniteActivation,
    ShapeMismatch,
)
from masklog.model import (
    LN_EPS,
    ModelConfig,
    _forward_cached,
    _gelu,
    _gelu_grad,
    _ln_forward,
    _masked_coords,
    _scatter_add,
    _stack_batch,
    _TokenRows,
    backward,
    forward,
    init_params,
    loss_and_gradients,
    mlm_loss,
    params_digest,
)
from masklog.masking import plan_random, plan_token_by_token
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
        for name in a.tensors:
            assert a[name].tobytes() == b[name].tobytes()

    def test_seed_changes_weights(self, tiny_cfg):
        assert params_digest(init_params(tiny_cfg, 1)) != params_digest(init_params(tiny_cfg, 2))

    def test_digest_equals_a_tobytes_reference(self, tiny_cfg):
        params = init_params(tiny_cfg, 3)
        h = hashlib.sha256()
        for name in sorted(params.tensors):
            h.update(name.encode("utf-8"))
            h.update(np.array(params[name].shape, dtype="<u4").tobytes())
            h.update(params[name].astype("<f4").tobytes())
        assert params_digest(params) == h.hexdigest()

    def test_norm_gains_are_ones(self, tiny_cfg):
        params = init_params(tiny_cfg, 0)
        for name in params.tensors:
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
            ModelConfig(vocab_size=20, d_model=0)
        with pytest.raises(ValueError, match="^max_len must be >= 2"):  # the bound `encode` holds
            ModelConfig(vocab_size=20, max_len=1)


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
        a = forward(params, batch)
        b = forward(params, batch)
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
        with pytest.raises(NonFiniteActivation), np.errstate(invalid="ignore", over="ignore"):
            forward(params, batch)


class TestHandComputedForward:
    def test_single_head_two_tokens_matches_manual_computation(self):
        """Step-by-step recomputation with plain numpy expressions as the oracle."""
        cfg = ModelConfig(vocab_size=6, d_model=4, n_heads=1, n_layers=1, d_ff=4, max_len=2)
        params = init_params(cfg, 0)
        rng = np.random.default_rng(42)
        for name in params.tensors:  # small but nontrivial weights everywhere
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
        for name in params.tensors:
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


REPEATED_POSITIONS = [[0, 2, 2], [1, 4, 7], [2]]  # row 0 lists position 2 twice


class TestGatheredHead:
    """loss_and_gradients runs the final LN, head and softmax on masked rows only;
    the full per-position forward followed by mlm_loss is the reference."""

    @pytest.mark.parametrize("repeated", [False, True])
    def test_loss_matches_full_forward(self, tiny_batch, repeated):
        batch, targets, positions = tiny_batch
        positions = REPEATED_POSITIONS if repeated else positions
        cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_layers=2, d_ff=24, max_len=8)
        params = init_params(cfg, 4)
        loss, _ = loss_and_gradients(params, batch, targets, positions)
        full = mlm_loss(forward(params, batch), targets, positions)
        assert abs(loss - full) <= 1e-12

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_repeated_position_gradients_match_finite_differences(self, tiny_cfg, tiny_batch, n_layers):
        # lengths 5, 8 and 3 with 3, 3 and 1 masked: the top layer's query grid has
        # empty slots, and row 0's two slots at position 2 are one token row
        batch, targets, _ = tiny_batch
        cfg = dataclasses.replace(tiny_cfg, n_heads=2, n_layers=n_layers)
        params = init_params(cfg, 3)
        grads = backward(params, batch, targets, REPEATED_POSITIONS)
        d = cfg.d_model
        repeated_target = int(targets[0, 2])
        repeated_token = int(batch[0].ids[2])
        coords = {
            "out.w": [k * cfg.vocab_size + repeated_target for k in range(3)],
            "final_ln.gain": [0, 1, 2],
            "embed.token": [repeated_token * d + k for k in range(3)],
        }
        for i in {0, n_layers - 1}:  # layer 0 and the top layer: each tensor's steepest coordinate
            for name in ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2", "ln1.gain", "ln2.gain"):
                name = f"layers.{i}.{name}"
                coords[name] = [int(np.abs(grads[name]).argmax())]
        for name, indices in coords.items():
            for idx in indices:
                fd = finite_difference(params, batch, targets, REPEATED_POSITIONS, name, idx)
                a = grads[name].reshape(-1)[idx]
                assert abs(fd) > 1e-4, name  # well above the finite-difference resolution floor
                assert abs(a - fd) / max(abs(a), abs(fd)) < 1e-4, name


def _float_arrays(obj, path="cache"):
    """(path, array) for every floating-point array reachable in a forward cache."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            yield path, obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _float_arrays(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _float_arrays(v, f"{path}[{i}]")


class TestFloat32Path:
    """Training computes in float32; the float64 default is its reference."""

    CFG = dict(vocab_size=20, d_model=16, n_heads=2, n_layers=2, d_ff=24, max_len=8)

    def test_no_silent_promotion(self, tiny_batch, monkeypatch):
        batch, targets, positions = tiny_batch  # ragged: lengths 5, 8 and 3
        params = init_params(ModelConfig(**self.CFG), 4)
        ids, lengths = _stack_batch(batch, params.config)
        cache = _forward_cached(params, ids, lengths, _masked_coords(positions, lengths), np.float32, keep=True)
        assert cache["tokens"].valid is not None  # run unpadded, not as a [B, L] grid
        arrays = dict(_float_arrays(cache))
        assert "cache.logits" in arrays
        assert {p: a.dtype for p, a in arrays.items() if a.dtype != np.float32} == {}

        produced = []  # (helper, every float array it returned) during one training step

        def spy(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                for a in out if isinstance(out, tuple) else (out,):
                    if isinstance(a, np.ndarray) and a.dtype.kind == "f":
                        produced.append((fn.__name__, a.dtype))
                return out
            return wrapped

        for name in ("gather", "scatter", "to_heads", "from_heads", "affine", "embed"):
            monkeypatch.setattr(_TokenRows, name, spy(getattr(_TokenRows, name)))
        for name in ("_scatter_add", "_gelu_grad", "_ln_backward"):
            monkeypatch.setattr(model, name, spy(getattr(model, name)))
        loss, grads = loss_and_gradients(params, batch, targets, positions, dtype=np.float32)
        assert isinstance(loss, float)
        assert {n: g.dtype for n, g in grads.items() if g.dtype != np.float32} == {}
        assert {n for n, _ in produced} == {
            "gather", "scatter", "to_heads", "from_heads", "affine", "embed",
            "_scatter_add", "_gelu_grad", "_ln_backward",
        }
        assert [(n, dt) for n, dt in produced if dt != np.float32] == []

    def test_matches_float64(self, tiny_batch):
        batch, targets, positions = tiny_batch
        params = init_params(ModelConfig(**self.CFG), 4)
        l64, g64 = loss_and_gradients(params, batch, targets, positions)
        l32, g32 = loss_and_gradients(params, batch, targets, positions, dtype=np.float32)
        assert abs(l32 - l64) <= 1e-6 * abs(l64)
        total = math.sqrt(sum(float((g * g).sum()) for g in g64.values()))
        for name, g in g64.items():
            # attn.bk is analytically zero, so each tensor's norm is floored by the total's
            bound = 1e-4 * max(float(np.linalg.norm(g)), 1e-3 * total)
            assert float(np.linalg.norm(g32[name] - g)) <= bound, name

    def test_training_is_reproducible(self):
        seqs = [make_seq(n, rng=np.random.default_rng(n)) for n in (3, 5, 6, 8, 4, 7, 8, 2)]
        cfg = ModelConfig(**self.CFG)
        tcfg = TrainConfig(epochs=3, batch_size=3, seed=5)
        a, b = train(seqs, cfg, tcfg), train(seqs, cfg, tcfg)
        assert a.digest() == b.digest()
        assert a.history == b.history
        assert all(t.dtype == np.float32 for _, t in a.params.items())


class TestUnpaddedBatch:
    """A padded batch runs on its content rows only: in float64, the same
    sequences one at a time are the reference."""

    CFG = ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_layers=2, d_ff=24, max_len=8)
    POSITIONS = [[0, 2], [1, 4, 6, 7], [3]]

    def _ragged(self):
        rng = np.random.default_rng(5)
        batch = [make_seq(n, rng=rng) for n in (3, 8, 5)]
        return batch, rng.integers(4, 20, size=(3, 8))

    def test_batch_is_the_masked_count_weighted_sum_of_its_sequences(self):
        batch, targets = self._ragged()
        params = init_params(self.CFG, 6)
        loss, grads = loss_and_gradients(params, batch, targets, self.POSITIONS)
        total = sum(len(p) for p in self.POSITIONS)
        ref_loss, ref = 0.0, {name: np.zeros(t.shape) for name, t in params.items()}
        for seq, tgt, pos in zip(batch, targets, self.POSITIONS):
            l1, g1 = loss_and_gradients(params, [seq], tgt[None], [pos])
            ref_loss += len(pos) / total * l1
            for name in ref:
                ref[name] += len(pos) / total * g1[name]
        assert abs(loss - ref_loss) <= 1e-12
        for name in ref:
            assert np.abs(grads[name] - ref[name]).max() <= 1e-12, name

    def test_padding_slot_ids_change_nothing(self):
        batch, targets = self._ragged()
        params = init_params(self.CFG, 6)
        rng = np.random.default_rng(8)
        noisy = []
        for seq in batch:
            ids = seq.ids.copy()
            ids[seq.length:] = rng.integers(0, 20, size=len(ids) - seq.length)
            noisy.append(TokenSequence(ids=ids, length=seq.length))
        loss, grads = loss_and_gradients(params, batch, targets, self.POSITIONS)
        loss_n, grads_n = loss_and_gradients(params, noisy, targets, self.POSITIONS)
        assert loss == loss_n
        for name in grads:
            assert grads[name].tobytes() == grads_n[name].tobytes(), name


class TestBackwardHelpers:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index, n_out", [
        ([2], 4),  # a single row
        ([5, 0, 5, 1, 0], 7),  # ids 2, 3, 4 and 6 never occur; no id more than twice
        ([3, 3], 4),
    ])
    def test_scatter_add_equals_add_at(self, dtype, index, n_out):
        index = np.array(index)
        rows = np.random.default_rng(len(index)).normal(size=(len(index), 6)).astype(dtype)
        expected = np.zeros((n_out, 6), dtype)
        np.add.at(expected, index, rows)
        got = _scatter_add(index, rows, n_out)
        assert got.dtype == dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_add_of_long_runs_is_add_at_up_to_summation_order(self, dtype):
        rng = np.random.default_rng(0)
        index = rng.integers(0, 5, size=400)  # about 80 rows per id; id 5 never occurs
        rows = (rng.normal(size=(400, 6)) * 10.0 ** rng.integers(-3, 4, size=(400, 1))).astype(dtype)
        expected = np.zeros((6, 6), dtype)
        np.add.at(expected, index, rows)
        magnitude = np.zeros((6, 6))
        np.add.at(magnitude, index, np.abs(rows.astype(np.float64)))
        count = np.bincount(index, minlength=6)[:, None]
        got = _scatter_add(index, rows, 6)
        assert got.dtype == dtype
        # two summation orders of m terms differ by at most (m - 1) * eps * sum |term|
        bound = np.maximum(count - 1, 0) * np.finfo(dtype).eps * magnitude
        assert np.all(np.abs(got.astype(np.float64) - expected) <= bound)
        assert np.all(got[5] == 0.0)

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_gelu_grad_matches_the_closed_form(self, dtype, rtol):
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 3.0, size=(64, 24)).astype(dtype)
        dy = rng.normal(size=x.shape).astype(dtype)
        _, t = _gelu(x)
        c, a = math.sqrt(2.0 / math.pi), 0.044715
        expected = (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * (c * (1.0 + 3.0 * a * x * x))) * dy
        got = _gelu_grad(x, t, dy.copy())
        assert got.dtype == dtype
        np.testing.assert_allclose(got, expected, rtol=rtol, atol=0.0)


def _ln_textbook(x, gain, offset):
    """Layer norm as the expressions read, one temporary per operation: the reference."""
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gain * xhat + offset, xhat, inv


def _gelu_textbook(x):
    """GELU (tanh form) as the expression reads, and its tanh: the reference."""
    t = np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x))
    return 0.5 * x * (1.0 + t), t


class TestLeanElementwise:
    """`_ln_forward` and `_gelu` run the textbook expressions' operations in the same order in
    fewer buffers, so everything they return has the textbook's bits, in either dtype."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 16), (7, 16), (324, 128), (50, 256)])
    def test_layer_norm_and_gelu_give_the_textbook_bits(self, dtype, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.normal(0.0, 3.0, size=shape).astype(dtype)
        gain, offset = (rng.normal(size=shape[1]).astype(dtype) for _ in range(2))
        before = x.tobytes()

        want, *want_cache = _ln_textbook(x, gain, offset)
        y, cache = _ln_forward(x, gain, offset)
        for got, ref in zip((y, *cache), (want, *want_cache)):  # output, xhat, inv
            assert got.dtype == dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()
        lean, cache = _ln_forward(x, gain, offset, keep=False)
        assert cache is None and lean.tobytes() == want.tobytes()

        want, want_t = _gelu_textbook(x)
        y, t = _gelu(x)
        for got, ref in ((y, want), (t, want_t)):
            assert got.dtype == dtype and got.tobytes() == ref.tobytes()
        assert x.tobytes() == before  # kept for the backward
        z = x.copy()
        lean, t = _gelu(z, keep=False)
        assert t is None and lean is z and lean.tobytes() == want.tobytes()


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
        cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_layers=1, d_ff=24, max_len=8)
        ckpt = train(seqs, cfg, TrainConfig(epochs=50, batch_size=32, seed=6))
        assert len(ckpt.history) == 50
        assert ckpt.history[-1] <= 0.8 * ckpt.history[0]
        assert all(math.isfinite(h) for h in ckpt.history)


class TestTrimmedTopLayer:
    """`forward` with masked positions runs the top layer past K/V on the masked rows only;
    the full per-position forward read at the masked cells is the reference."""

    CFG = ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_layers=2, d_ff=24, max_len=8)

    @pytest.mark.parametrize("layout", ["same-length", "ragged", "ragged-two-each", "repeated"])
    def test_matches_full_forward_at_masked_cells(self, tiny_batch, layout):
        batch, _, positions = tiny_batch  # lengths 5, 8 and 3; 2, 3 and 1 masked positions
        if layout == "same-length":
            rng = np.random.default_rng(3)
            batch = [make_seq(6, rng=rng) for _ in range(4)]
            positions = [[0, 5], [1, 2], [3, 4], [5, 0]]
        elif layout == "ragged-two-each":  # padded keys, and the [B, H, m, L] query grid
            positions = [[0, 2], [1, 7], [2, 0]]
        elif layout == "repeated":
            positions = REPEATED_POSITIONS
        params = init_params(self.CFG, 7)
        bs, ps = (np.array(a) for a in zip(*[(b, p) for b, pos in enumerate(positions) for p in pos]))
        trimmed = forward(params, batch, mask_positions=positions)
        full = forward(params, batch)
        assert trimmed.logits.shape == (len(bs), self.CFG.vocab_size)
        assert np.abs(trimmed.logits - full.logits[bs, ps]).max() <= 1e-12
        assert np.abs(trimmed.probabilities - full.probabilities[bs, ps]).max() <= 1e-12

    @pytest.mark.parametrize("positions, layout", [
        ([[0, 2], [1, 5], [2, 0]], "same-length"),  # two each: the query grid has no empty slot
        ([[0, 2], [1, 3, 5], [2]], "same-length"),  # 2, 3 and 1: empty slots
        ([[0, 2], [1, 7], [2, 0]], "padded"),  # two each in a padded batch
        ([[1, 4], [0, 2, 7], [1]], "padded"),
    ])
    def test_every_masked_call_trims_the_top_layer(self, tiny_batch, monkeypatch, positions, layout):
        rng = np.random.default_rng(3)
        batch = tiny_batch[0] if layout == "padded" else [make_seq(6, rng=rng) for _ in range(3)]
        n_tokens, n_masked = sum(int(s.length) for s in batch), sum(len(p) for p in positions)
        seen, real = [], _TokenRows.affine
        monkeypatch.setattr(_TokenRows, "affine", lambda self, x, w, b: seen.append(len(x)) or real(self, x, w, b))
        forward(init_params(self.CFG, 7), batch, mask_positions=positions)
        # the top layer's K and V; its Q, attn.wo, FFN in and FFN out; the head
        assert seen[-7:] == [n_tokens] * 2 + [n_masked] * 5

    def test_the_training_forward_trims_the_top_layer_too(self):
        rng = np.random.default_rng(3)
        batch, positions = [make_seq(6, rng=rng) for _ in range(3)], [[0, 2], [1, 5], [2, 0]]
        params = init_params(self.CFG, 7)
        ids, lengths = _stack_batch(batch, self.CFG)
        coords = _masked_coords(positions, lengths)
        plain = _forward_cached(params, ids, lengths, coords, keep=True)
        n_tokens, n_masked, (*below, top) = int(lengths.sum()), len(coords[0]), plain["layers"]
        assert len(below) == self.CFG.n_layers - 1
        for lc in below:  # every content row, in every cached activation
            assert {len(lc[a]) for a in ("h", "hq", "ctx", "h2", "z1", "fz", "gelu_t")} == {n_tokens}
            assert lc["q"].shape[2] == lc["attn"].shape[2] == 6
        assert len(top["h"]) == n_tokens  # LN1, K and V: every row
        assert top["k"].shape[2] == top["v"].shape[2] == 6
        assert {len(top[a]) for a in ("hq", "ctx", "h2", "z1", "fz", "gelu_t")} == {n_masked}
        assert top["q"].shape[2] == top["attn"].shape[2] == 2  # two query slots per sequence
        assert plain["hf"].shape == (n_masked, self.CFG.d_model)

    def test_padding_slots_of_a_full_output_hold_the_head_of_the_final_ln_offset(self, tiny_batch):
        params = init_params(self.CFG, 7)
        params.tensors["final_ln.offset"][:] = np.random.default_rng(6).normal(size=self.CFG.d_model)
        batch = tiny_batch[0]  # lengths 5, 8 and 3
        out = forward(params, batch)
        w = {k: v.astype(np.float64) for k, v in params.items()}
        head = w["final_ln.offset"] @ w["out.w"] + w["out.b"]
        for b, seq in enumerate(batch):
            for p in range(seq.length, out.logits.shape[1]):
                assert np.abs(out.logits[b, p] - head).max() <= 1e-12, (b, p)
        assert np.all(np.abs(out.probabilities.sum(-1) - 1.0) <= 1e-6)


class TestTwoDimensionalProducts:
    def test_one_row_is_multiplied_as_two_equal_rows(self):
        rng = np.random.default_rng(4)
        x, w, b = rng.normal(size=(1, 128)), rng.normal(size=(128, 128)), rng.normal(size=128)
        tokens = _TokenRows(np.array([1]), 1)
        got = tokens.affine(x, w, b)
        assert got.shape == (1, 128)
        assert got.tobytes() == ((np.vstack([x, x]) @ w)[:1] + b).tobytes()

    def test_a_one_token_log_scores_the_same_alone_and_in_a_batch(self):
        params = init_params(ModelConfig(vocab_size=20, d_model=32, n_heads=2, n_layers=2, d_ff=48, max_len=8), 5)
        rng = np.random.default_rng(6)
        logs = [make_seq(1, rng=rng) for _ in range(3)]
        together = forward(params, logs, mask_positions=[[0]] * 3).logits
        for i, log in enumerate(logs):
            alone = forward(params, [log], mask_positions=[[0]]).logits
            assert alone[0].tobytes() == together[i].tobytes(), i


def _variants(seqs, plan, repeats=1):
    """Masked variants of same-length logs as (batch, mask_positions), log-major."""
    if plan == "token":
        plans = [p for seq in seqs for p in plan_token_by_token(seq)]
    else:
        plans = [plan_random(seq, 0.4, rng_seed=(i, r)) for i, seq in enumerate(seqs) for r in range(repeats)]
    return [p.masked_sequence for p in plans], [list(p.masked_indices) for p in plans]


class TestScoringForward:
    """Without a backward, a padding-free batch of two or more sequences runs layer 0 once
    per distinct (token id, position) pair. Each sequence run alone is the bit-exact
    reference, and the full per-position forward the 1e-12 one."""

    # output widths that are multiples of 8, so a row's product bits do not depend on the row count
    @staticmethod
    def _params(n_layers):
        return init_params(ModelConfig(vocab_size=24, d_model=16, n_heads=2, n_layers=n_layers, d_ff=32, max_len=8), 9)

    @settings(max_examples=60, deadline=None)
    @given(
        n_layers=st.sampled_from([1, 2]),
        plan=st.sampled_from(["token", "random"]),
        repeats=st.integers(1, 3),
        logs=st.integers(1, 8).flatmap(  # ids from a 4-token alphabet, so pairs repeat across logs
            lambda n: st.lists(st.lists(st.integers(4, 7), min_size=n, max_size=n), min_size=2, max_size=4)
        ),
    )
    def test_each_row_keeps_its_bits_alone(self, n_layers, plan, repeats, logs):
        params = self._params(n_layers)
        seqs = [TokenSequence(ids=np.array(ids, dtype=np.int64), length=len(ids)) for ids in logs]
        batch, positions = _variants(seqs, plan, repeats)
        together = forward(params, batch, mask_positions=positions).logits
        full = forward(params, batch).logits
        start = 0
        for b, (seq, pos) in enumerate(zip(batch, positions)):
            got, start = together[start : start + len(pos)], start + len(pos)
            assert got.tobytes() == forward(params, [seq], mask_positions=[pos]).logits.tobytes(), b
            assert np.abs(got - full[b, pos]).max() <= 1e-12, b

    @pytest.mark.parametrize("n_logs, plan", [(1, "token"), (3, "token"), (3, "random"), (1, "random")])
    @pytest.mark.parametrize("call", ["forward", "loss_and_gradients"])
    def test_layer_zero_projections_see_only_the_distinct_pairs(self, monkeypatch, n_logs, plan, call):
        rng = np.random.default_rng(2)
        batch, positions = _variants([make_seq(5, rng=rng) for _ in range(n_logs)], plan)
        ids = np.stack([seq.ids[:5] for seq in batch])
        n_rows, n_masked = ids.size, sum(len(p) for p in positions)
        # a training step keeps its activations for the backward and never shares
        pairs = len(np.unique(ids * 5 + np.arange(5))) if len(batch) > 1 and call == "forward" else n_rows
        seen, real = [], _TokenRows.affine
        monkeypatch.setattr(_TokenRows, "affine", lambda self, x, w, b: seen.append(len(x)) or real(self, x, w, b))
        if call == "forward":
            forward(self._params(2), batch, mask_positions=positions)
            assert pairs < n_rows or len(batch) == 1
        else:
            loss_and_gradients(self._params(2), batch, ids, positions)
        assert seen == [
            pairs, pairs, pairs, n_rows, n_rows, n_rows,  # layer 0: K, V, Q; out, FFN in, FFN out
            n_rows, n_rows, n_masked, n_masked, n_masked, n_masked,  # top layer, trimmed past K and V
            n_masked,  # head
        ]
