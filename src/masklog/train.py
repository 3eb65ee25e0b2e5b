"""Masked-token training loop on normal logs, producing a reusable checkpoint.

The optimizer is adaptive moment estimation with decoupled weight decay
(decay on matrix-shaped tensors only) and global-norm gradient clipping. The
whole run is a pure function of its inputs and seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as ckpt_io
from .errors import DivergenceDetected, EmptyCorpus, VocabMismatch
from .masking import plan_random
from .model import ModelConfig, Parameters, init_params, loss_and_gradients, params_digest

# Sub-seed stream codes, fanned out of the run seed.
_STREAM_SHUFFLE = 1
_STREAM_MASK = 2
_STREAM_DROPOUT = 3
_STREAM_EVAL_MASK = 4


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
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 < self.mask_fraction <= 1.0:
            raise ValueError("mask_fraction must lie in (0, 1]")


@dataclass(eq=False)
class Checkpoint:
    params: Parameters
    vocab_hash: str
    train_config: TrainConfig
    final_loss: float
    history: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)  # wall time per epoch; not saved

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

    def float64_params(self) -> Parameters:
        """The parameters cast to float64, the forward pass's dtype (cached per instance).

        Scoring reads this copy so that it does not re-cast every weight on
        every forward call. Training updates its own `Parameters`, never this copy.
        """
        cached = getattr(self, "_float64_params", None)
        if cached is None:
            cached = Parameters(
                self.params.config, {k: v.astype(np.float64) for k, v in self.params.items()}
            )
            object.__setattr__(self, "_float64_params", cached)
        return cached


class _AdamW:
    def __init__(self, tensors: dict, cfg: TrainConfig):
        self.cfg = cfg
        self.step = 0
        self.m = {k: np.zeros(v.shape) for k, v in tensors.items()}
        self.v = {k: np.zeros(v.shape) for k, v in tensors.items()}

    def apply(self, tensors: dict, grads: dict) -> None:
        c = self.cfg
        self.step += 1
        lr = c.learning_rate
        if c.warmup_steps > 0:
            lr *= min(1.0, self.step / c.warmup_steps)
        if c.grad_clip is not None:
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if norm > c.grad_clip:
                scale = c.grad_clip / norm
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
            w = tensors[name].astype(np.float64)
            if w.ndim == 2 and c.weight_decay:
                update = update + lr * c.weight_decay * w
            tensors[name] = (w - update).astype(np.float32)


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
    recorded history is the mean loss per masked token for each epoch.
    """
    corpus = list(corpus_train)
    if not corpus:
        raise EmptyCorpus("training corpus is empty")
    params = init_params(model_cfg, cfg.seed)
    opt = _AdamW(params.tensors, cfg)
    history: list[float] = []
    epoch_seconds: list[float] = []
    n = len(corpus)
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = np.random.default_rng((cfg.seed, _STREAM_SHUFFLE, epoch)).permutation(n)
        nll_sum = 0.0
        masked_sum = 0
        for start in range(0, n, cfg.batch_size):
            indices = order[start : start + cfg.batch_size]
            seqs, positions, targets = _batch_step_inputs(
                corpus, indices, cfg.mask_fraction, (cfg.seed, _STREAM_MASK, epoch)
            )
            loss, grads = loss_and_gradients(
                params,
                seqs,
                targets,
                positions,
                train_mode=True,
                seed=derive_seed(cfg.seed, _STREAM_DROPOUT, epoch, start),
            )
            if not math.isfinite(loss):
                raise DivergenceDetected(f"non-finite loss at epoch {epoch}")
            n_masked = sum(len(p) for p in positions)
            nll_sum += loss * n_masked
            masked_sum += n_masked
            opt.apply(params.tensors, grads)
        history.append(nll_sum / masked_sum)
        epoch_seconds.append(time.perf_counter() - t0)
    return Checkpoint(
        params=params,
        vocab_hash=vocab_hash,
        train_config=cfg,
        final_loss=history[-1],
        history=history,
        epoch_seconds=epoch_seconds,
    )


def evaluate_loss(ckpt: Checkpoint, corpus, seed: int, vocab_hash: str | None = None) -> float:
    """Mean masked-token loss over a corpus under seeded masking; no updates."""
    if vocab_hash is not None and ckpt.vocab_hash and vocab_hash != ckpt.vocab_hash:
        raise VocabMismatch("corpus vocabulary does not match the checkpoint")
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("evaluation corpus is empty")
    nll_sum = 0.0
    masked_sum = 0
    bs = ckpt.train_config.batch_size
    for start in range(0, len(corpus), bs):
        seqs, positions, targets = _batch_step_inputs(
            corpus,
            range(start, min(start + bs, len(corpus))),
            ckpt.train_config.mask_fraction,
            (seed, _STREAM_EVAL_MASK),
        )
        loss, _ = loss_and_gradients(ckpt.params, seqs, targets, positions)
        n_masked = sum(len(p) for p in positions)
        nll_sum += loss * n_masked
        masked_sum += n_masked
    return nll_sum / masked_sum


def _format_float(x: float) -> str:
    return repr(float(x))


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    header = {f"model.{k}": v for k, v in ckpt.model_config.as_dict().items()}
    tc = ckpt.train_config
    header.update(
        {
            "train.epochs": tc.epochs,
            "train.batch_size": tc.batch_size,
            "train.mask_fraction": _format_float(tc.mask_fraction),
            "train.learning_rate": _format_float(tc.learning_rate),
            "train.weight_decay": _format_float(tc.weight_decay),
            "train.beta1": _format_float(tc.beta1),
            "train.beta2": _format_float(tc.beta2),
            "train.adam_eps": _format_float(tc.adam_eps),
            "train.grad_clip": "none" if tc.grad_clip is None else _format_float(tc.grad_clip),
            "train.warmup_steps": tc.warmup_steps,
            "train.seed": tc.seed,
            "vocab_hash": ckpt.vocab_hash,
            "final_loss": _format_float(ckpt.final_loss),
            "history": ",".join(_format_float(h) for h in ckpt.history),
        }
    )
    ckpt_io.save_container(path, header, ckpt.params.tensors)


def load_checkpoint(path) -> Checkpoint:
    header, tensors = ckpt_io.load_container(path)
    model_cfg = ModelConfig(
        vocab_size=int(header["model.vocab_size"]),
        d_model=int(header["model.d_model"]),
        n_heads=int(header["model.n_heads"]),
        n_layers=int(header["model.n_layers"]),
        d_ff=int(header["model.d_ff"]),
        max_len=int(header["model.max_len"]),
        dropout_rate=float(header["model.dropout_rate"]),
    )
    clip = header["train.grad_clip"]
    train_cfg = TrainConfig(
        epochs=int(header["train.epochs"]),
        batch_size=int(header["train.batch_size"]),
        mask_fraction=float(header["train.mask_fraction"]),
        learning_rate=float(header["train.learning_rate"]),
        weight_decay=float(header["train.weight_decay"]),
        beta1=float(header["train.beta1"]),
        beta2=float(header["train.beta2"]),
        adam_eps=float(header["train.adam_eps"]),
        grad_clip=None if clip == "none" else float(clip),
        warmup_steps=int(header["train.warmup_steps"]),
        seed=int(header["train.seed"]),
    )
    history = [float(h) for h in header["history"].split(",")] if header["history"] else []
    return Checkpoint(
        params=Parameters(config=model_cfg, tensors=tensors),
        vocab_hash=header["vocab_hash"],
        train_config=train_cfg,
        final_loss=float(header["final_loss"]),
        history=history,
    )
