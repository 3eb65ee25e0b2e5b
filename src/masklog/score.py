"""Anomaly scoring: true-token probabilities under masking, aggregated per log.

A log's score is the negative mean natural log of the probabilities the model
assigns to the true tokens at masked positions. The `MaskingStrategy` says
how a log is masked, `repeats` included, and was checked when it was built.
`score_corpus` groups logs by content length and scores each group in chunks
of whole logs, one `forward` per chunk of at most CHUNK_ROWS token rows, so
no chunk holds padding. `score_log` is the same code with a chunk of one log.
Threads take whole chunks, so the thread count never changes a report.

Each chunk is one call of `model.forward` in the scoring shape (no padding,
the same masked count per variant), which runs the scoring forward. It runs
layer 0 once per distinct (token id, position) pair of the chunk: the
variants of one log, and logs of one template, repeat most pairs. A chunk of
one sequence skips that share.

A log scores to the same bits alone as in a chunk only where the BLAS gives
each row of a 2-D product the same bits whatever the product's row count
(see `model`); the layer-0 share changes row counts as batching does.
OpenBLAS 0.3.31 on a SkylakeX core does for output widths that are multiples
of 8 and inner widths up to 384, so d_model and d_ff must both be such widths
(the defaults, 128 and 256, are). Elsewhere a log's report can differ from
`score_log` of it in the last bits, depending on which other logs share its
chunk.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid, EmptyCorpus
from .masking import TOKEN_BY_TOKEN, MaskingStrategy, plan_random, plan_token_by_token
from .model import forward
from .train import Checkpoint, derive_seed

PROB_FLOOR = 1e-12  # guards -ln(0) on underflowed softmax cells

_STREAM_SCORE = 5
CHUNK_ROWS = 256  # token rows (variants x length) per forward pass, unless one log's variants hold more


def recompute_score(token_probs) -> float:
    """Score from scratch out of a report's own (position, probability) pairs."""
    return -sum(math.log(max(p, PROB_FLOOR)) for _, p in token_probs) / len(token_probs)


@dataclass(eq=False)
class ScoreReport:
    raw_ref: tuple
    score: float
    masked_count: int
    token_probs: list  # (position, probability of the true token)
    strategy: MaskingStrategy  # repeats included


@dataclass(eq=False)
class HeatmapMatrix:
    """Logs x token positions grid of true-token probabilities (NaN = absent)."""

    values: np.ndarray
    row_refs: list
    labels: list | None = None
    summary: dict = field(default_factory=dict)


def _true_token_probs(ckpt: Checkpoint, plans) -> list:
    """One batched forward over masked variants of one length; reads P(true | context).

    The head runs only at the masked positions, and the weights are the
    checkpoint's float64 scoring copy, cast once per checkpoint.
    """
    out = forward(
        ckpt.scoring_params(),
        [p.masked_sequence for p in plans],
        mask_positions=[p.masked_indices for p in plans],
    )
    positions = [pos for p in plans for pos in p.masked_indices]
    true_ids = np.concatenate([p.original_ids for p in plans])
    probs = out.probabilities[np.arange(len(positions)), true_ids]
    return [(pos, max(float(prob), PROB_FLOOR)) for pos, prob in zip(positions, probs)]


def _plans(seq, strategy: MaskingStrategy, seed: int) -> list:
    if strategy.kind == TOKEN_BY_TOKEN:
        return plan_token_by_token(seq)
    return [plan_random(seq, strategy.fraction, rng_seed=(int(seed), r)) for r in range(strategy.repeats)]


def _score_chunk(ckpt: Checkpoint, seqs, seeds, strategy: MaskingStrategy) -> list[ScoreReport]:
    """Reports for logs of one length, all of their masked variants in one forward."""
    plans = [_plans(seq, strategy, seed) for seq, seed in zip(seqs, seeds)]
    pairs = _true_token_probs(ckpt, [p for log_plans in plans for p in log_plans])
    reports, start = [], 0
    for seq, log_plans in zip(seqs, plans):
        n = sum(len(p.masked_indices) for p in log_plans)
        own, start = pairs[start : start + n], start + n
        reports.append(ScoreReport(
            raw_ref=seq.raw_ref,
            score=recompute_score(own),
            masked_count=n,
            token_probs=own,
            strategy=strategy,
        ))
    return reports


def score_log(ckpt: Checkpoint, seq, strategy: MaskingStrategy, seed: int = 0) -> ScoreReport:
    """Score one log under the given masking strategy.

    random_fraction draws `strategy.repeats` seeded plans and averages their
    scores; token_by_token masks every content position in its own variant,
    so token_probs covers the whole log.
    """
    return _score_chunk(ckpt, [seq], [seed], strategy)[0]


def _chunks(corpus, strategy: MaskingStrategy) -> list[list[int]]:
    """Corpus indices in chunks of one content length and at most CHUNK_ROWS token rows.

    Input order is kept within a length. A log's variants are never split: a
    log whose variants hold more rows than that makes a chunk of its own.
    """
    by_length: dict = {}
    for i, seq in enumerate(corpus):
        by_length.setdefault(int(seq.length), []).append(i)
    chunks = []
    for length, indices in by_length.items():
        step = max(1, CHUNK_ROWS // (strategy.variants(length) * length))
        chunks += [indices[k : k + step] for k in range(0, len(indices), step)]
    return chunks


def score_corpus(
    ckpt: Checkpoint, corpus, strategy: MaskingStrategy, seed: int = 0, threads: int = 1
) -> list[ScoreReport]:
    """Score logs, returned in input order; per-log seeds derive from (seed, index).

    Each log's report equals `score_log` of that log with its derived seed,
    to the bit where the BLAS meets the condition in the module docstring;
    elsewhere it may differ in the last bits. Threads take whole chunks, so
    any count gives the same reports.
    """
    if threads < 1:
        raise ConfigInvalid(f"threads must be >= 1, not {threads!r}")
    corpus = list(corpus)

    def run(chunk: list[int]) -> list[ScoreReport]:
        seeds = [derive_seed(seed, _STREAM_SCORE, i) for i in chunk]
        return _score_chunk(ckpt, [corpus[i] for i in chunk], seeds, strategy)

    chunks = _chunks(corpus, strategy)
    if threads > 1:
        ckpt.scoring_params()  # cast here, or each thread may build its own float64 copy
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(run, chunks))
    else:
        done = [run(chunk) for chunk in chunks]
    reports: list = [None] * len(corpus)
    for chunk, chunk_reports in zip(chunks, done):
        for i, report in zip(chunk, chunk_reports):
            reports[i] = report
    return reports


def heatmap(ckpt: Checkpoint, corpus, labels=None) -> HeatmapMatrix:
    """Token-by-token probability matrix for a corpus (always full coverage)."""
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("heatmap needs a non-empty corpus")
    reports = score_corpus(ckpt, corpus, MaskingStrategy(kind=TOKEN_BY_TOKEN, fraction=1.0))
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
