"""Masked-token training loop on normal logs, producing a reusable checkpoint.

The optimizer is adaptive moment estimation with decoupled weight decay
(decay on matrix-shaped tensors only) and global-norm gradient clipping. Each
step's forward and backward pass run in float32, the weights' storage dtype;
the clip norm and the optimizer moments stay float64. The optimizer sweeps each
tensor in cache-sized blocks and writes the float32 weights in place, with the
same float64 operations per element as the whole-tensor update. The whole run
is a pure function of its inputs and seed.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as ckpt_io
from .errors import DivergenceDetected, EmptyCorpus, MalformedInput
from .masking import plan_random
from .model import (
    ModelConfig,
    Parameters,
    init_params,
    loss_and_gradients,
    param_table,
    params_digest,
)

# Sub-seed stream codes, fanned out of the run seed.
_STREAM_SHUFFLE = 1
_STREAM_MASK = 2


def derive_seed(*parts: int) -> int:
    """Collapse a tuple of integers into one reproducible 32-bit seed."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    mask_fraction: float = 0.15
    learning_rate: float = 3e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float | None = 1.0
    warmup_steps: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, not {self.epochs!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, not {self.batch_size!r}")
        if not 0.0 < self.mask_fraction <= 1.0:
            raise ValueError("mask_fraction must lie in (0, 1]")
        # written so that NaN fails each check
        if not (self.learning_rate > 0.0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be finite and > 0, not {self.learning_rate!r}")
        if not (self.weight_decay >= 0.0 and math.isfinite(self.weight_decay)):
            raise ValueError(f"weight_decay must be finite and >= 0, not {self.weight_decay!r}")
        if self.grad_clip is not None and not (self.grad_clip > 0.0 and math.isfinite(self.grad_clip)):
            raise ValueError(f"grad_clip must be None, or finite and > 0, not {self.grad_clip!r}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, not {self.warmup_steps!r}")


@dataclass(eq=False)
class Checkpoint:
    params: Parameters
    vocab_hash: str
    train_config: TrainConfig
    final_loss: float
    history: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)  # wall time per epoch; not saved
    # pre-clip global gradient norm of each step, per epoch (empty when clipping is off); not saved
    grad_norms: list[list[float]] = field(default_factory=list)

    @property
    def model_config(self) -> ModelConfig:
        return self.params.config

    def digest(self) -> str:
        """Content digest of the parameter tensors (cached per instance)."""
        cached = getattr(self, "_digest", None)
        if cached is None:
            cached = params_digest(self.params)
            object.__setattr__(self, "_digest", cached)
        return cached

    def scoring_params(self) -> Parameters:
        """float64 parameters, cast once per instance, `out.w`/`out.b` zero-padded to a multiple of 8 columns.

        Scoring reads this copy; training updates its own `Parameters`. `forward`
        drops the padded logits. OpenBLAS computes a row of a product 130 columns
        wide (the fixture's |V|) with bits that depend on the product's row count;
        at a multiple of 8 they do not, so a log scores the same alone as in a batch.
        """
        cached = getattr(self, "_scoring_params", None)
        if cached is None:
            tensors = {k: v.astype(np.float64) for k, v in self.params.items()}
            pad = -tensors["out.b"].shape[0] % 8
            if pad:
                tensors["out.w"] = np.pad(tensors["out.w"], ((0, 0), (0, pad)))
                tensors["out.b"] = np.pad(tensors["out.b"], (0, pad))
            cached = Parameters(self.params.config, tensors)
            object.__setattr__(self, "_scoring_params", cached)
        return cached


# float64 elements per block of an AdamW sweep (256 KiB): a block's gradient, moments,
# weights and three buffers, about 1.5 MB, fit a 2 MB per-core L2. It must be at least
# 128, numpy's pairwise-sum leaf, so that the clip norm's block sums split where
# numpy's own sum splits.
_BLOCK = 32_768


class _AdamW:
    """AdamW with float64 moments, one flat array per tensor, updated in place by blocks.

    Each tensor is swept in blocks of `_BLOCK` elements. A block's gradient is
    cast to float64 into a block-sized buffer, and its clip scaling, moment
    updates, update and decay run there, in the operation order of
    ``w - (lr * (m / bc1) / (sqrt(v / bc2) + eps) + lr * wd * w)``, before the
    result is rounded into the float32 weights in place. Every element sees the
    float64 operations of the whole-tensor formula, so the result is the same
    to the bit. The weights must be C-contiguous float32; a tensor that is not
    is replaced by a contiguous float32 copy on the first step.
    """

    def __init__(self, tensors: dict, cfg: TrainConfig):
        self.cfg = cfg
        self.step = 0
        self.m = {k: np.zeros(v.size) for k, v in tensors.items()}
        self.v = {k: np.zeros(v.size) for k, v in tensors.items()}
        self._bufs = tuple(np.zeros(_BLOCK) for _ in range(3))

    def apply(self, tensors: dict, grads: dict) -> float | None:
        """One step; returns the pre-clip global gradient norm, or None when clipping is off."""
        c = self.cfg
        self.step += 1
        lr = c.learning_rate
        if c.warmup_steps > 0:
            lr *= min(1.0, self.step / c.warmup_steps)
        flat = {name: np.ravel(g) for name, g in grads.items()}
        norm = scale = None
        if c.grad_clip is not None:
            norm = math.sqrt(sum(self._sum_squares(g) for g in flat.values()))
            if norm > c.grad_clip:
                scale = c.grad_clip / norm
        bc1 = 1.0 - c.beta1**self.step
        bc2 = 1.0 - c.beta2**self.step
        for name, g in flat.items():
            tensors[name] = np.ascontiguousarray(tensors[name], dtype=np.float32)
            decay = tensors[name].ndim == 2 and c.weight_decay
            w, m, v = tensors[name].reshape(-1), self.m[name], self.v[name]
            for lo in range(0, g.size, _BLOCK):
                hi = min(lo + _BLOCK, g.size)
                gb, tmp, wb = (buf[: hi - lo] for buf in self._bufs)
                mb, vb = m[lo:hi], v[lo:hi]
                np.copyto(gb, g[lo:hi])
                if scale is not None:
                    gb *= scale
                mb *= c.beta1
                mb += np.multiply(gb, 1.0 - c.beta1, out=tmp)
                vb *= c.beta2
                np.multiply(gb, 1.0 - c.beta2, out=tmp)
                vb += np.multiply(tmp, gb, out=tmp)
                # gb is spent: it holds sqrt(v / bc2) + eps, then the decay term
                update = np.multiply(np.divide(mb, bc1, out=tmp), lr, out=tmp)
                update /= np.add(np.sqrt(np.divide(vb, bc2, out=gb), out=gb), c.adam_eps, out=gb)
                np.copyto(wb, w[lo:hi])
                if decay:
                    update += np.multiply(wb, lr * c.weight_decay, out=gb)
                np.subtract(wb, update, out=w[lo:hi])
        return norm

    def _sum_squares(self, g: np.ndarray) -> float:
        """``float(np.multiply(g64, g64).sum())`` of a flat gradient, one block at a time.

        numpy sums by pairwise halving, each half a multiple of 8 elements, down
        to 128-element leaves; splitting the same way down to blocks and
        summing each block's squares with numpy adds in the same order.
        """
        if g.size <= _BLOCK:
            sq = self._bufs[0][: g.size]
            np.copyto(sq, g)
            return float(np.multiply(sq, sq, out=sq).sum())
        half = g.size // 2
        half -= half % 8
        return self._sum_squares(g[:half]) + self._sum_squares(g[half:])


@functools.cache  # once per process
def _keep_freed_heap() -> None:
    """Ask glibc to keep freed heap memory in the process instead of handing it back.

    Each training step frees nearly everything it allocated, and the next step
    allocates the same again. With glibc's default sliding thresholds the
    freed top of the heap goes back to the system, and the next step faults
    it in again page by page: about 200,000 minor page faults in each epoch
    of the fixture's training. With these settings, every epoch after the
    first faults fewer than 100 pages. The values are the ceilings of glibc's
    own sliding thresholds. Elsewhere than on glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks under 32 MB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: up to 64 MB of freed heap stays in the process


def _batch_step_inputs(corpus, indices, mask_fraction, seed_prefix: tuple):
    """Masked inputs, masked positions and targets for one batch of corpus indices.

    Each sequence's mask plan is seeded by `seed_prefix` plus its corpus index.
    """
    seqs, positions, targets_rows = [], [], []
    for idx in indices:
        seq = corpus[idx]
        plan = plan_random(seq, mask_fraction, rng_seed=(*seed_prefix, int(idx)))
        seqs.append(plan.masked_sequence)
        positions.append(plan.masked_indices)
        targets_rows.append(seq.ids)
    return seqs, positions, np.stack(targets_rows)


def train(corpus_train, model_cfg: ModelConfig, cfg: TrainConfig, vocab_hash: str = "") -> Checkpoint:
    """Train from random initialization on normal logs only.

    Each epoch reshuffles the corpus and redraws one random mask plan per
    sequence (both seeded), then applies one optimizer step per batch. The
    recorded history is the mean loss per masked token for each epoch, and
    `grad_norms` holds each step's pre-clip global gradient norm. A step that
    leaves a weight non-finite (a learning rate or weight decay so large that
    the update overflows float32) raises DivergenceDetected. The first call
    sets the process's heap policy (`_keep_freed_heap`).
    """
    corpus = list(corpus_train)
    if not corpus:
        raise EmptyCorpus("training corpus is empty")
    _keep_freed_heap()
    params = init_params(model_cfg, cfg.seed)
    opt = _AdamW(params.tensors, cfg)
    history: list[float] = []
    epoch_seconds: list[float] = []
    grad_norms: list[list[float]] = []
    n = len(corpus)
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = np.random.default_rng((cfg.seed, _STREAM_SHUFFLE, epoch)).permutation(n)
        nll_sum = 0.0
        masked_sum = 0
        norms = []
        for start in range(0, n, cfg.batch_size):
            indices = order[start : start + cfg.batch_size]
            seqs, positions, targets = _batch_step_inputs(
                corpus, indices, cfg.mask_fraction, (cfg.seed, _STREAM_MASK, epoch)
            )
            loss, grads = loss_and_gradients(params, seqs, targets, positions, dtype=np.float32)
            if not math.isfinite(loss):
                raise DivergenceDetected(f"non-finite loss at epoch {epoch}")
            n_masked = sum(len(p) for p in positions)
            nll_sum += loss * n_masked
            masked_sum += n_masked
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
                norm = opt.apply(params.tensors, grads)
            del grads  # spent: not kept alive through the next step's backward
            if not all(np.isfinite(w).all() for w in params.tensors.values()):
                raise DivergenceDetected(f"non-finite weights after a step of epoch {epoch}")
            if norm is not None:
                norms.append(norm)
        history.append(nll_sum / masked_sum)
        epoch_seconds.append(time.perf_counter() - t0)
        grad_norms.append(norms)
    return Checkpoint(
        params=params,
        vocab_hash=vocab_hash,
        train_config=cfg,
        final_loss=history[-1],
        history=history,
        epoch_seconds=epoch_seconds,
        grad_norms=grad_norms,
    )


def format_float(x) -> str:
    """The shortest text that reads back as the same float; artifacts write every float this way."""
    return repr(float(x))


def _is_float_field(f: dataclasses.Field) -> bool:
    # By the declared default, not the value: an int passed for a float field
    # is still written as a float, so the header bytes do not depend on it.
    return isinstance(f.default, float)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    header = {f"model.{k}": v for k, v in dataclasses.asdict(ckpt.model_config).items()}
    for f in dataclasses.fields(TrainConfig):
        value = getattr(ckpt.train_config, f.name)
        if value is None:
            value = "none"
        elif _is_float_field(f):
            value = format_float(value)
        header[f"train.{f.name}"] = value
    header.update(
        {
            "vocab_hash": ckpt.vocab_hash,
            "final_loss": format_float(ckpt.final_loss),
            "history": ",".join(format_float(h) for h in ckpt.history),
        }
    )
    ckpt_io.save_container(path, header, ckpt.params.tensors)


def _config_from_header(cls, prefix: str, header: dict):
    values = {}
    for f in dataclasses.fields(cls):
        text = header[f"{prefix}.{f.name}"]
        values[f.name] = None if text == "none" else (float if _is_float_field(f) else int)(text)
    return cls(**values)


def load_checkpoint(path) -> Checkpoint:
    header, tensors = ckpt_io.load_container(path)
    try:
        model_cfg = _config_from_header(ModelConfig, "model", header)
        train_cfg = _config_from_header(TrainConfig, "train", header)
        history = [float(h) for h in header["history"].split(",")] if header["history"] else []
        vocab_hash, final_loss = header["vocab_hash"], float(header["final_loss"])
    except KeyError as e:
        raise MalformedInput(f"{path}: checkpoint header has no {e.args[0]!r} key") from None
    except ValueError as e:
        raise MalformedInput(f"{path}: checkpoint header: {e}") from None
    expected = {name: shape for name, shape, _ in param_table(model_cfg)}
    found = {name: t.shape for name, t in tensors.items()}
    if found != expected:
        misshapen = sorted(n for n in expected.keys() & found.keys() if expected[n] != found[n])
        raise MalformedInput(
            f"{path}: tensors do not match the header's model config: missing "
            f"{sorted(expected.keys() - found.keys())}, extra {sorted(found.keys() - expected.keys())}, "
            f"misshapen {misshapen}"
        )
    return Checkpoint(
        params=Parameters(config=model_cfg, tensors=tensors),
        vocab_hash=vocab_hash,
        train_config=train_cfg,
        final_loss=final_loss,
        history=history,
    )
