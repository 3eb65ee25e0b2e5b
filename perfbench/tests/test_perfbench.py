"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q (from the repo root)."""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from masklog.masking import MaskingStrategy  # noqa: E402
from masklog.model import ModelConfig, init_params  # noqa: E402
from masklog.score import score_log  # noqa: E402
from masklog.train import Checkpoint, TrainConfig  # noqa: E402
from masklog.vocab import TokenSequence  # noqa: E402


# --- large-vocabulary generator ---------------------------------------------


def test_generator_is_deterministic_per_seed():
    assert gen.generate(3) == gen.generate(3)
    assert gen.generate(3)[0] != gen.generate(4)[0]


def test_generator_words_are_letters_only_and_fill_the_vocabulary():
    lines, labels = gen.generate(5)
    assert labels.count("anomalous") == gen.N_ANOMALIES
    words = [tok for line in lines for tok in line.split()[3:]]  # after "Mon d hh:mm:ss"
    assert all(w.isalpha() and w.islower() for w in words)
    normals = [line.split()[3:] for line, lab in zip(lines, labels) if lab == "normal"]
    # 70% of the normals (the size of the train split) hold more words than |V| = 8192 has room for
    train_sized = normals[: round(0.7 * len(normals))]
    assert len({w for toks in train_sized for w in toks}) > 8192 - 4


# --- spans and self time ----------------------------------------------------


def test_self_time_subtracts_covered_child_time_on_a_hand_built_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, -1, "r"),
        spans.Span("a", 1.0, 4.0, 0, "r"),
        spans.Span("b", 3.0, 6.0, 0, "r"),  # overlaps a: the union counts once
        spans.Span("a.child", 1.5, 2.0, 1, "r"),  # grandchild: only a loses it
        spans.Span("c", 9.0, 12.0, 0, "r"),  # runs past root: clipped to [9, 10]
        spans.Span("other", 0.0, 1.0, -1, "s"),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0, 1.0])
    total, own = spans.totals(tree, "r")
    assert total["root"] == pytest.approx(10.0) and own["root"] == pytest.approx(4.0)
    assert "other" not in total


def test_tracer_records_parents_counts_and_restores_wrapped_names():
    import masklog.score as score_mod

    original = score_mod.recompute_score
    tracer = spans.Tracer()
    tracer.run_id = "r1"
    hooks = [("masklog.score", "recompute_score", "score.recompute", lambda a, k, r: {"calls": 1})]
    with spans.installed(tracer, hooks), tracer.span("outer"):
        assert score_mod.recompute_score is not original
        score_mod.recompute_score([(0, 0.5)])
        score_mod.recompute_score([(0, 0.25)])
    assert score_mod.recompute_score is original
    assert [s.name for s in tracer.spans] == ["outer", "score.recompute", "score.recompute"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert tracer.counts["r1"]["calls"] == 2


def test_every_hook_names_an_existing_function():
    tracer = spans.Tracer()
    with spans.installed(tracer, workloads.HOOKS):
        pass


# --- float64 score oracle ---------------------------------------------------


@pytest.fixture(scope="module")
def small_checkpoint():
    cfg = ModelConfig(vocab_size=40, d_model=16, n_heads=2, n_layers=2, d_ff=24, max_len=16)
    return Checkpoint(params=init_params(cfg, 1), vocab_hash="", train_config=TrainConfig(), final_loss=0.0)


def _seq(length: int) -> TokenSequence:
    ids = np.zeros(16, dtype=np.int64)
    ids[:length] = np.arange(length) % 30 + 5
    return TokenSequence(ids=ids, length=length)


def test_oracle_agrees_with_score_log_and_rejects_a_perturbed_score(small_checkpoint):
    seq = _seq(13)
    report = score_log(small_checkpoint, seq, MaskingStrategy(), seed=77)
    ref = workloads.oracle_score(small_checkpoint, seq, 77)
    assert oracle.score_matches(report.score, ref)
    assert not oracle.score_matches(report.score + 10 * oracle.SCORE_TOL, ref)
    assert not oracle.score_matches(math.nan, ref)


# --- the metric list matches BENCHMARK.json ----------------------------------


def test_metric_names_and_units_match_the_benchmark_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_keeps_each_threads_spans_apart_and_counts_exactly():
    from concurrent.futures import ThreadPoolExecutor

    tracer = spans.Tracer()
    tracer.run_id = "r"

    def work(i):
        with tracer.span("job"), tracer.span("job.inner"):
            tracer.count("jobs")

    with tracer.span("outer"), ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(work, range(200)))
    assert tracer.counts["r"]["jobs"] == 200
    assert len(tracer.spans) == 401
    for s in tracer.spans[1:]:  # a worker's job opens a tree of its own; its inner span nests under it
        assert s.parent == -1 if s.name == "job" else tracer.spans[s.parent].name == "job"
