import importlib
import math
import os
import platform
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import masklog
from masklog.checkpoint import load_container, save_container
from masklog.errors import DivergenceDetected, EmptyCorpus, MalformedInput
from masklog.masking import plan_token_by_token
from masklog.model import ModelConfig, forward, init_params, param_table, params_digest
from masklog.train import _BLOCK, _AdamW, TrainConfig, load_checkpoint, save_checkpoint, train
from masklog.vocab import PAD_ID, TokenSequence


def pattern_seqs(n_copies=8, width=8):
    patterns = [[4, 5, 6, 7, 8], [9, 10, 11, 12, 13], [14, 15, 16, 17, 18]]
    seqs = []
    for pat in patterns:
        for _ in range(n_copies):
            ids = np.full(width, PAD_ID, dtype=np.int64)
            ids[: len(pat)] = pat
            seqs.append(TokenSequence(ids=ids, length=len(pat)))
    return seqs


train_mod = importlib.import_module("masklog.train")  # the package exports the function `train`

SMALL_CFG = ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_layers=1, d_ff=24, max_len=8)


class TestTrain:
    def test_bit_identical_checkpoints_for_same_seed(self):
        seqs = pattern_seqs()
        cfg = TrainConfig(epochs=3, batch_size=8, seed=42)
        a = train(seqs, SMALL_CFG, cfg, vocab_hash="h")
        b = train(seqs, SMALL_CFG, cfg, vocab_hash="h")
        assert params_digest(a.params) == params_digest(b.params)
        assert a.history == b.history

    def test_history_length_and_improvement(self):
        seqs = pattern_seqs()
        ckpt = train(seqs, SMALL_CFG, TrainConfig(epochs=10, batch_size=8, seed=0))
        assert len(ckpt.history) == 10
        assert len(ckpt.epoch_seconds) == 10 and all(s > 0.0 for s in ckpt.epoch_seconds)
        assert ckpt.final_loss == ckpt.history[-1]
        assert ckpt.history[-1] < ckpt.history[0]
        assert all(math.isfinite(h) for h in ckpt.history)

    def test_memorizes_a_singleton_distribution(self):
        # 32 identical copies of one 5-token log; the model must overfit it.
        # Decay off and a hot learning rate: this is a pure memorization probe.
        ids = np.full(8, PAD_ID, dtype=np.int64)
        ids[:5] = [4, 7, 9, 11, 13]
        seqs = [TokenSequence(ids=ids.copy(), length=5) for _ in range(32)]
        cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=1e-2, weight_decay=0.0, seed=1)
        ckpt = train(seqs, SMALL_CFG, cfg)
        probs = []
        for plan in plan_token_by_token(seqs[0]):
            out = forward(ckpt.params, [plan.masked_sequence])
            pos = plan.masked_indices[0]
            probs.append(out.probabilities[0, pos, int(plan.original_ids[0])])
        assert float(np.mean(probs)) > 0.9

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            train([], SMALL_CFG, TrainConfig(epochs=1))

    def test_divergence_detected(self, monkeypatch):
        # layer norm keeps the real net finite even at absurd rates, so force
        # the non-finite-loss path directly
        monkeypatch.setattr(train_mod, "loss_and_gradients", lambda *a, **k: (float("nan"), {}))
        with pytest.raises(DivergenceDetected):
            train(pattern_seqs(n_copies=2), SMALL_CFG, TrainConfig(epochs=1, batch_size=8, seed=0))

    def test_config_validation(self):
        for name in ("epochs", "batch_size"):  # each refusal names its own field alone
            with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
                TrainConfig(**{name: 0})
            with pytest.raises(ValueError, match=f"^{name} must be <= {TrainConfig.BOUNDS[name][1]}, not {2**70}$"):
                TrainConfig(**{name: 2**70})
        with pytest.raises(ValueError):
            TrainConfig(mask_fraction=0.0)
        for bad in ({"learning_rate": 0.0}, {"learning_rate": -3e-3}, {"weight_decay": -1.0},
                    {"warmup_steps": -5}, {"grad_clip": 0.0}, {"grad_clip": -1.0}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(**bad)
        TrainConfig(weight_decay=0.0, warmup_steps=0)  # the boundaries themselves are allowed
        TrainConfig(grad_clip=None)  # clipping off

    @pytest.mark.parametrize("key", ["learning_rate", "weight_decay", "grad_clip"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_refused(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})


class _ReferenceAdamW:
    """The out-of-place whole-tensor AdamW formula in float32, kept as the oracle for the in-place one.

    Only the clip norm is summed in float64.
    """

    def __init__(self, tensors, cfg):
        self.cfg, self.step = cfg, 0
        self.m = {k: np.zeros(v.shape, np.float32) for k, v in tensors.items()}
        self.v = {k: np.zeros(v.shape, np.float32) for k, v in tensors.items()}

    def apply(self, tensors, grads):
        c = self.cfg
        self.step += 1
        lr = c.learning_rate
        if c.warmup_steps > 0:
            lr *= min(1.0, self.step / c.warmup_steps)
        scale = None
        if c.grad_clip is not None:
            norm = math.sqrt(sum(float(np.square(g.astype(np.float64)).sum()) for g in grads.values()))
            if norm > c.grad_clip:
                scale = c.grad_clip / norm
        grads = {k: g.astype(np.float32) for k, g in grads.items()}
        if scale is not None:
            grads = {k: g * scale for k, g in grads.items()}
        bc1 = 1.0 - c.beta1**self.step
        bc2 = 1.0 - c.beta2**self.step
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * g * g
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + c.adam_eps)
            w = tensors[name]
            if w.ndim == 2 and c.weight_decay:
                update = update + lr * c.weight_decay * w
            tensors[name] = w - update


class TestAdamW:
    @pytest.mark.parametrize("grad_clip", [0.5, None])
    def test_in_place_update_is_bit_identical_to_the_reference_formula(self, grad_clip):
        cfg = TrainConfig(learning_rate=3e-2, weight_decay=0.1, grad_clip=grad_clip, warmup_steps=2)
        params = init_params(SMALL_CFG, 3)
        ours, ref = ({k: v.copy() for k, v in params.items()} for _ in range(2))
        opt, ref_opt = _AdamW(ours, cfg), _ReferenceAdamW(ref, cfg)
        rng = np.random.default_rng(8)
        clipped = 0
        for _ in range(6):
            grads = {k: rng.normal(0.0, 0.3, v.shape) for k, v in ours.items()}
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            clipped += grad_clip is not None and norm > grad_clip
            opt.apply(ours, {k: g.copy() for k, g in grads.items()})
            ref_opt.apply(ref, grads)
            for name in ref:
                assert ours[name].dtype == ref[name].dtype == np.float32
                assert opt.m[name].dtype == opt.v[name].dtype == np.float32, name
                assert ours[name].tobytes() == ref[name].tobytes(), name
                assert opt.m[name].tobytes() == ref_opt.m[name].tobytes(), name
                assert opt.v[name].tobytes() == ref_opt.v[name].tobytes(), name
        assert clipped == (6 if grad_clip is not None else 0)

    # A block of 128 elements, numpy's pairwise-sum leaf and the smallest at which the
    # block-wise clip norm still splits where numpy's sum does. Around it: tensors of
    # several blocks with ragged tails, exactly one block, one element either side, one element.
    BLOCK_SHAPES = {"a.w": (37, 29), "b.w": (16, 8), "c.w": (3, 43), "d.b": (300,), "e.b": (127,),
                    "f.b": (129,), "g.b": (1,)}

    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("grad_clip", [0.5, None])
    def test_ragged_blocks_are_bit_identical_to_the_reference_formula(self, monkeypatch, grad_dtype, grad_clip):
        monkeypatch.setattr(train_mod, "_BLOCK", 128)
        cfg = TrainConfig(learning_rate=3e-2, weight_decay=0.1, grad_clip=grad_clip, warmup_steps=3)
        rng = np.random.default_rng(11)
        ours = {k: rng.normal(0.0, 0.5, s).astype(np.float32) for k, s in self.BLOCK_SHAPES.items()}
        ref = {k: w.copy() for k, w in ours.items()}
        weights = dict(ours)
        opt, ref_opt = _AdamW(ours, cfg), _ReferenceAdamW(ref, cfg)
        for _ in range(5):
            grads = {k: rng.normal(0.0, 0.3, w.shape).astype(grad_dtype) for k, w in ours.items()}
            g64 = [g.astype(np.float64) for g in grads.values()]
            norm = opt.apply(ours, {k: g.copy() for k, g in grads.items()})
            ref_opt.apply(ref, grads)
            if grad_clip is None:
                assert norm is None
            else:
                assert norm == math.sqrt(sum(float(np.multiply(g, g).sum()) for g in g64))
            for name in ref:
                assert ours[name] is weights[name]  # written in place
                assert opt.m[name].dtype == opt.v[name].dtype == np.float32, name
                assert ours[name].tobytes() == ref[name].tobytes(), name
                assert opt.m[name].tobytes() == ref_opt.m[name].tobytes(), name
                assert opt.v[name].tobytes() == ref_opt.v[name].tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1,), (7,), (8,), (9,), (127,), (128,), (129,), (_BLOCK - 1,), (_BLOCK,),
                                       (_BLOCK + 1,), (3 * _BLOCK + 5,), (8192, 128)])
    def test_block_sum_of_squares_equals_numpys_whole_tensor_sum(self, shape, dtype):
        # heavy tails, so that any change in the order of additions shows in the last bits
        g = np.random.default_rng(int(np.prod(shape))).standard_cauchy(shape).astype(dtype)
        g64 = g.astype(np.float64)
        opt = _AdamW({"g": g}, TrainConfig())
        assert opt._sum_squares(np.ravel(g)) == float(np.multiply(g64, g64).sum())


def random_15_token_logs(cfg: ModelConfig, n: int = 128) -> list:
    rng = np.random.default_rng(0)
    seqs = []
    for _ in range(n):
        ids = np.full(cfg.max_len, PAD_ID, dtype=np.int64)
        ids[:15] = rng.integers(4, cfg.vocab_size, size=15)
        seqs.append(TokenSequence(ids=ids, length=15))
    return seqs


class TestStepMemory:
    def test_a_step_holds_the_weights_moments_one_set_of_gradients_and_one_steps_activations(self):
        """At |V| = 8,192 the traced peak of `train` stays within 25 MB of its fixed holdings.

        Those are the float32 weights, the two float32 moments and one set of
        float32 gradients: 16 bytes per parameter, 38.1 MB here. The rest is
        one step's activations (about 15 MB on these 15-token logs). Keeping
        the previous step's gradients through the next backward, three
        [n_masked, |V|] arrays at once and every layer's cache to the end of
        the backward put 44 MB above the holdings of float64 moments (24 bytes
        per parameter), and float64 moments alone put 34 MB above these.
        """
        cfg = ModelConfig(vocab_size=8192, d_model=128, max_len=64)
        seqs = random_15_token_logs(cfg)
        holdings = 16 * sum(math.prod(shape) for _, shape, _ in param_table(cfg))
        tracemalloc.start()
        try:
            train(seqs, cfg, TrainConfig(epochs=1, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - holdings) / 1e6 <= 25.0

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's heap policy")
    def test_training_again_reuses_the_heap_instead_of_faulting_it_in(self):
        """In a fresh process, a second `train` faults in almost no page.

        glibc's sliding thresholds depend on what the process allocated
        before, so this runs in a process of its own. Under the default policy
        the second run faults in about 9,000 pages, and 19,000 once each step
        frees its memory as it goes.
        """
        code = textwrap.dedent("""
            import resource
            from masklog.model import ModelConfig
            from masklog.train import TrainConfig, train
            from test_train import random_15_token_logs
            cfg = ModelConfig(vocab_size=130, d_model=128, max_len=64)
            seqs = random_15_token_logs(cfg)
            train(seqs, cfg, TrainConfig(epochs=2, seed=0))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train(seqs, cfg, TrainConfig(epochs=2, seed=0))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        path = os.pathsep.join([os.path.dirname(__file__), os.path.dirname(os.path.dirname(masklog.__file__))])
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 1000


class TestCheckpointFile:
    def test_round_trip_bit_exact(self, tmp_path):
        seqs = pattern_seqs(n_copies=2)
        ckpt = train(seqs, SMALL_CFG, TrainConfig(epochs=2, batch_size=8, seed=8), vocab_hash="vh")
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for name in ckpt.params.tensors:
            assert loaded.params[name].tobytes() == ckpt.params[name].tobytes()
            assert loaded.params[name].dtype == np.float32
        assert loaded.model_config == ckpt.model_config
        assert loaded.train_config == ckpt.train_config
        assert loaded.vocab_hash == "vh"
        assert loaded.history == ckpt.history
        assert loaded.final_loss == ckpt.final_loss
        assert forward(loaded.params, seqs).logits.tobytes() == forward(ckpt.params, seqs).logits.tobytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        seqs = pattern_seqs(n_copies=2)
        ckpt = train(seqs, SMALL_CFG, TrainConfig(epochs=1, batch_size=8, seed=8))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(ckpt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_rejects_bytes_after_the_last_tensor(self, tmp_path):
        ckpt = train(pattern_seqs(n_copies=2), SMALL_CFG, TrainConfig(epochs=1, batch_size=8, seed=8))
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        with open(path, "ab") as f:
            f.write(b"\0" * 700)
        with pytest.raises(MalformedInput, match=f"^{re.escape(str(path))}: 700 bytes follow the last tensor$"):
            load_checkpoint(path)


class TestContainer:
    def test_tensor_payload_layout(self, tmp_path):
        path = tmp_path / "t.bin"
        tensors = {"b": np.arange(6, dtype=np.float32).reshape(2, 3), "a": np.ones(2, np.float32)}
        save_container(path, {"k": "v", "n": 3}, tensors)
        header, loaded = load_container(path)
        assert header == {"k": "v", "n": "3"}
        assert list(loaded) == ["a", "b"]  # sorted record order
        assert np.array_equal(loaded["b"], tensors["b"])
        raw = path.read_bytes()
        assert raw.startswith(b"MLCKPT01")
        # row-major little-endian float32 payload for tensor "b"
        assert tensors["b"].astype("<f4").tobytes() in raw

    def test_loaded_tensors_are_writable_and_equal_to_those_saved(self, tmp_path):
        path = tmp_path / "t.bin"
        tensors = {"w": np.arange(12, dtype=np.float32).reshape(3, 4) / 7, "b": np.zeros(0, np.float32)}
        save_container(path, {}, tensors)
        _, loaded = load_container(path)
        for name, saved in tensors.items():
            assert loaded[name].dtype == np.float32 and loaded[name].shape == saved.shape
            assert loaded[name].tobytes() == saved.tobytes()
            assert loaded[name].flags.writeable
        loaded["w"][0, 0] = 5.0  # an update in place, as a training step makes
        assert loaded["w"][0, 0] == 5.0
