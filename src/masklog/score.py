"""Anomaly scoring: true-token probabilities under masking, aggregated per log.

A log's score is the negative mean natural log of the probabilities the model
assigns to the true tokens at masked positions. Logs are scored one at a time
(each forward pass sees exactly one sequence family), so results are
independent of corpus batching and safely parallel.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import VocabMismatch
from .masking import TOKEN_BY_TOKEN, MaskingStrategy, plan_random, plan_token_by_token
from .model import forward
from .train import Checkpoint, derive_seed

PROB_FLOOR = 1e-12  # guards -ln(0) on underflowed softmax cells

_STREAM_SCORE = 5


def recompute_score(token_probs) -> float:
    """Score from scratch out of a report's own (position, probability) pairs."""
    return -sum(math.log(max(p, PROB_FLOOR)) for _, p in token_probs) / len(token_probs)


@dataclass(eq=False)
class ScoreReport:
    raw_ref: tuple
    score: float
    masked_count: int
    token_probs: list  # (position, probability of the true token)
    strategy: MaskingStrategy
    repeats: int = 1
    checkpoint_hash: str = ""


@dataclass(eq=False)
class HeatmapMatrix:
    """Logs x token positions grid of true-token probabilities (NaN = absent)."""

    values: np.ndarray
    row_refs: list
    labels: list | None = None
    summary: dict = field(default_factory=dict)


def _true_token_probs(ckpt: Checkpoint, plans) -> list:
    """One batched forward over a log's masked variants; reads P(true | context).

    The head runs only at the masked positions, and the weights are the
    checkpoint's float64 copy, cast once per checkpoint.
    """
    out = forward(
        ckpt.float64_params(),
        [p.masked_sequence for p in plans],
        mask_positions=[p.masked_indices for p in plans],
    )
    positions = [pos for p in plans for pos in p.masked_indices]
    true_ids = np.concatenate([p.original_ids for p in plans])
    probs = out.probabilities[np.arange(len(positions)), true_ids]
    return [(pos, max(float(prob), PROB_FLOOR)) for pos, prob in zip(positions, probs)]


def score_log(
    ckpt: Checkpoint,
    seq,
    strategy: MaskingStrategy,
    seed: int = 0,
    repeats: int = 1,
    vocab_hash: str | None = None,
) -> ScoreReport:
    """Score one log under the given masking strategy.

    random_fraction draws `repeats` seeded plans and averages their scores;
    token_by_token masks every content position in its own variant, so
    token_probs covers the whole log.
    """
    if vocab_hash is not None and ckpt.vocab_hash and vocab_hash != ckpt.vocab_hash:
        raise VocabMismatch("sequence vocabulary does not match the checkpoint")
    if strategy.kind == TOKEN_BY_TOKEN:
        plans = plan_token_by_token(seq)
        repeats = 1
    else:
        repeats = max(1, int(repeats))
        plans = [
            plan_random(seq, strategy.fraction, rng_seed=(int(seed), r)) for r in range(repeats)
        ]
    pairs = _true_token_probs(ckpt, plans)
    return ScoreReport(
        raw_ref=seq.raw_ref,
        score=recompute_score(pairs),
        masked_count=len(pairs),
        token_probs=pairs,
        strategy=strategy,
        repeats=repeats,
        checkpoint_hash=ckpt.digest(),
    )


def score_corpus(
    ckpt: Checkpoint,
    corpus,
    strategy: MaskingStrategy,
    seed: int = 0,
    repeats: int = 1,
    threads: int = 1,
) -> list[ScoreReport]:
    """Score logs in input order; per-log seeds derive from (seed, index).

    Thread count only distributes the per-log work; any value produces the
    same reports as a serial run.
    """
    corpus = list(corpus)

    def one(i: int) -> ScoreReport:
        return score_log(ckpt, corpus[i], strategy, seed=derive_seed(seed, _STREAM_SCORE, i), repeats=repeats)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, range(len(corpus))))
    return [one(i) for i in range(len(corpus))]


def heatmap(ckpt: Checkpoint, corpus, labels=None, threads: int = 1) -> HeatmapMatrix:
    """Token-by-token probability matrix for a corpus (always full coverage)."""
    corpus = list(corpus)
    if not corpus:
        raise ValueError("heatmap needs a non-empty corpus")
    reports = score_corpus(
        ckpt, corpus, MaskingStrategy(kind=TOKEN_BY_TOKEN, fraction=1.0), threads=threads
    )
    width = max(seq.length for seq in corpus)
    values = np.full((len(corpus), width), np.nan)
    for i, rep in enumerate(reports):
        for pos, p in rep.token_probs:
            values[i, pos] = p
    labels = list(labels) if labels is not None else None
    hm = HeatmapMatrix(values=values, row_refs=[seq.raw_ref for seq in corpus], labels=labels)
    if labels is not None:
        present = ~np.isnan(values)
        for lab in sorted(set(labels)):
            rows = [i for i, l in enumerate(labels) if l == lab]
            counts = present[rows].sum(axis=0)
            sums = np.where(present[rows], values[rows], 0.0).sum(axis=0)
            hm.summary[lab] = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return hm
