"""Anomaly scoring: true-token probabilities under masking, aggregated per log.

A log's score is the negative mean natural log of the probabilities the model
assigns to the true tokens at masked positions. The `MaskingStrategy` says
how a log is masked, `repeats` included, and was checked when it was built.
`score_corpus` and `score_log` run one core. Per content length, it cuts the
run of (log, masked variant) pairs into chunks of masked variants, at most
CHUNK_ROWS token rows each, and runs one `forward` per chunk. So no chunk
holds padding, a chunk may split a log, and memory is bounded whatever a
log's length or `repeats`. Threads take whole chunks, read back in order, so
the thread count never changes a report.

Each chunk is one call of `model.forward` on a batch without padding, which
runs the model's one forward pass and keeps nothing for a backward. It runs
layer 0 once per distinct (token id, position) pair of the chunk: the
variants of one log, and logs of one template, repeat most pairs. A chunk of
one sequence skips that share. A log scores to the same bits alone as in a
chunk under the product rule of `model._TokenRows.affine`.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from .errors import EmptyCorpus
from .masking import TOKEN_BY_TOKEN, MaskingStrategy, plan_random, plan_token_by_token
from .model import forward
from .train import Checkpoint, derive_seed

PROB_FLOOR = 1e-12  # guards -ln(0) on underflowed softmax cells

_STREAM_SCORE = 5
CHUNK_ROWS = 256  # token rows (variants x length) per forward pass, unless one variant holds more


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


def _true_token_probs(params, chunk) -> list:
    """One batched forward over a chunk's masked variants of one length; reads P(true | context).

    The chunk holds (log index, call that draws the variant) pairs, so the
    thread that runs it draws its random plans. Returns (log index, (position,
    probability) pairs) per variant. The head runs only at the masked positions.
    """
    indices, plans = zip(*((i, draw()) for i, draw in chunk))
    out = forward(params, [p.masked_sequence for p in plans], mask_positions=[p.masked_indices for p in plans])
    true_ids = np.concatenate([p.original_ids for p in plans])
    probs = iter(out.probabilities[np.arange(len(true_ids)), true_ids].tolist())
    return [(i, [(k, max(next(probs), PROB_FLOOR)) for k in plan.masked_indices]) for i, plan in zip(indices, plans)]


def _variants(seq, strategy: MaskingStrategy, seed: int):
    """Calls that return a log's masked variants, in plan order; a random plan is drawn when its call runs."""
    if strategy.kind == TOKEN_BY_TOKEN:
        return [(lambda plan=plan: plan) for plan in plan_token_by_token(seq)]
    return (partial(plan_random, seq, strategy.fraction, rng_seed=(int(seed), r)) for r in range(strategy.repeats))


def _chunks(corpus, strategy: MaskingStrategy, seeds):
    """(corpus index, variant call) pairs in chunks of one content length and at most CHUNK_ROWS token rows.

    Each length's logs come in input order and each log's variants in plan
    order; a chunk takes the next max(1, CHUNK_ROWS // length) of them. So a
    chunk may end partway through a log and hold the tail of one log and the
    head of the next. Token plans are made as a chunk fills, random ones as it runs.
    """
    by_length: dict = {}
    for i, seq in enumerate(corpus):
        by_length.setdefault(int(seq.length), []).append(i)
    for length, indices in by_length.items():
        pairs = ((i, draw) for i in indices for draw in _variants(corpus[i], strategy, seeds[i]))
        while chunk := list(islice(pairs, max(1, CHUNK_ROWS // length))):
            yield chunk


def _mapped(run, chunks, threads: int):
    """`map(run, chunks)` in order; on more threads, chunks are cut as the pool runs, 2 x threads at most unread."""
    if threads == 1:
        yield from map(run, chunks)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for chunk in chunks:
            pending.append(pool.submit(run, chunk))
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
        yield from (future.result() for future in pending)


def _score(ckpt: Checkpoint, corpus: list, strategy: MaskingStrategy, seeds: list, threads: int = 1) -> list:
    """Reports in input order, log i's random plans drawn from seeds[i]; one forward per chunk."""
    run = partial(_true_token_probs, ckpt.scoring_params())  # float64 weights, cast once; threads share them
    token_probs: list = [[] for _ in corpus]
    for done in _mapped(run, _chunks(corpus, strategy, seeds), threads):
        for i, pairs in done:
            token_probs[i] += pairs
    return [
        ScoreReport(raw_ref=seq.raw_ref, score=recompute_score(own), masked_count=len(own), token_probs=own,
                    strategy=strategy)
        for seq, own in zip(corpus, token_probs)
    ]


def score_log(ckpt: Checkpoint, seq, strategy: MaskingStrategy, seed: int = 0) -> ScoreReport:
    """Score one log under the given masking strategy.

    random_fraction draws `strategy.repeats` seeded plans and averages their
    scores; token_by_token masks every content position in its own variant,
    so token_probs covers the whole log.
    """
    return _score(ckpt, [seq], strategy, [seed])[0]


def score_corpus(
    ckpt: Checkpoint, corpus, strategy: MaskingStrategy, seed: int = 0, threads: int = 1
) -> list[ScoreReport]:
    """Score logs, returned in input order; per-log seeds derive from (seed, index).

    Each log's report equals `score_log` of that log with its derived seed,
    to the bit under the product rule of `model._TokenRows.affine`. Chunks
    of masked variants, at most CHUNK_ROWS rows each, may split a log;
    threads take whole chunks and their results are read in order, so any
    count gives the same reports.
    """
    corpus = list(corpus)
    return _score(ckpt, corpus, strategy, [derive_seed(seed, _STREAM_SCORE, i) for i in range(len(corpus))], threads)


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
