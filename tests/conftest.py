"""Shared fixtures: tiny models for fast unit tests and one full pipeline run.

The session-scoped `pipeline` fixture drives the CLI end to end on the pinned
synthetic fixture exactly once; acceptance tests read its artifacts.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from masklog.cli import main as cli_main
from masklog.model import ModelConfig
from masklog.train import Checkpoint, TrainConfig, train
from masklog.vocab import PAD_ID, TokenSequence, Vocabulary, build_vocab, encode

# Pinned seeds for the end-to-end fixture; changing any of them re-rolls every
# downstream expectation.
SYNTH_SEED = 7
SPLIT_SEED = 11
TRAIN_SEED = 5
SCORE_SEED = 123

TINY_CFG = ModelConfig(vocab_size=20, d_model=16, n_heads=1, n_layers=1, d_ff=24, max_len=8)


def make_seq(length: int, width: int = 8, lo: int = 4, hi: int = 20, rng=None) -> TokenSequence:
    rng = rng or np.random.default_rng(0)
    ids = np.full(width, PAD_ID, dtype=np.int64)
    ids[:length] = rng.integers(lo, hi, size=length)
    return TokenSequence(ids=ids, length=length)


@pytest.fixture(scope="session")
def tiny_cfg() -> ModelConfig:
    return TINY_CFG


@pytest.fixture(scope="session")
def tiny_batch():
    rng = np.random.default_rng(0)
    batch = [make_seq(5, rng=rng), make_seq(8, rng=rng), make_seq(3, rng=rng)]
    targets = np.stack([s.ids for s in batch])
    mask_positions = [[0, 2], [1, 4, 7], [2]]
    return batch, targets, mask_positions


@pytest.fixture(scope="session")
def toy_model():
    """A small model trained on a 4-pattern toy corpus; fast and well-converged."""
    patterns = [
        "link up on port alpha",
        "link down on port beta",
        "disk write cache flush done",
        "session open for user gamma",
    ]
    texts = [p for p in patterns for _ in range(8)]
    vocab = build_vocab(texts)
    seqs = [encode(t, vocab, 16) for t in texts]
    cfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=2, n_layers=1, d_ff=48, max_len=16)
    ckpt = train(seqs, cfg, TrainConfig(epochs=30, batch_size=16, seed=1), vocab_hash=vocab.digest())
    return {"vocab": vocab, "seqs": seqs, "checkpoint": ckpt, "texts": texts}


def run_cli(*argv) -> int:
    return cli_main([str(a) for a in argv])


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Full CLI pipeline on the pinned fixture corpus; returns paths + timing."""
    root = tmp_path_factory.mktemp("pipeline")
    p = {
        "root": root,
        "raw": root / "raw.log",
        "raw_labels": root / "raw.labels",
        "clean": root / "clean.log",
        "clean_labels": root / "clean.log.labels",
        "splits": root / "splits",
        "vocab": root / "vocab.txt",
        "ckpt": root / "model.ckpt",
        "val_scores": root / "val_scores.tsv",
        "threshold": root / "threshold.json",
        "test_scores": root / "test_scores.tsv",
        "verdicts": root / "verdicts.tsv",
        "metrics": root / "metrics.json",
    }
    t0 = time.time()
    steps = [
        ("synth", "--out", p["raw"], "--labels-out", p["raw_labels"],
         "--templates", 50, "--normal", 5000, "--anomalies", 200, "--seed", SYNTH_SEED),
        ("clean", "--in", p["raw"], "--out", p["clean"], "--labels", p["raw_labels"]),
        ("split", "--in", p["clean"], "--labels", p["clean_labels"],
         "--out-dir", p["splits"], "--seed", SPLIT_SEED),
    ]
    for step in steps:
        assert run_cli(*step) == 0, f"pipeline step {step[0]} failed"
    p["train"] = p["splits"] / "train.txt"
    p["val"] = p["splits"] / "val.txt"
    p["test"] = p["splits"] / "test.tsv"
    steps = [
        ("build-vocab", "--in", p["train"], "--out", p["vocab"]),
        ("train", "--in", p["train"], "--vocab", p["vocab"], "--out", p["ckpt"],
         "--max-len", 64, "--seed", TRAIN_SEED),
        ("score", "--in", p["val"], "--vocab", p["vocab"], "--checkpoint", p["ckpt"],
         "--out", p["val_scores"], "--seed", SCORE_SEED),
        ("calibrate", "--scores", p["val_scores"], "--out", p["threshold"], "--percentile", 90),
        ("score", "--in", p["test"], "--labeled", "--vocab", p["vocab"], "--checkpoint", p["ckpt"],
         "--out", p["test_scores"], "--seed", SCORE_SEED),
        ("detect", "--scores", p["test_scores"], "--threshold", p["threshold"],
         "--out", p["verdicts"]),
        ("eval", "--verdicts", p["verdicts"], "--test", p["test"],
         "--train", p["train"], "--val", p["val"], "--out", p["metrics"]),
    ]
    for step in steps:
        assert run_cli(*step) == 0, f"pipeline step {step[0]} failed"
    p["wall_time"] = time.time() - t0
    with open(p["metrics"], "r", encoding="utf-8") as f:
        p["metrics_doc"] = json.load(f)
    return p


@pytest.fixture(scope="session")
def pipeline_vocab(pipeline) -> Vocabulary:
    from masklog.vocab import load_vocab

    return load_vocab(pipeline["vocab"])


@pytest.fixture(scope="session")
def pipeline_checkpoint(pipeline) -> Checkpoint:
    from masklog.train import load_checkpoint

    return load_checkpoint(pipeline["ckpt"])
