"""The benchmark's workloads: seeded inputs, the timed CLI chain, checks and metrics.

One iteration runs the user's path through `masklog.cli.main`: clean, split,
build-vocab and train, then scoring rounds (CLI `score`, CLI `score --threads
2` of val, every val and test log scored alone through
`masklog.score.score_log` for per-log latency, CLI `heatmap`), then
calibrate, detect and eval. Checks run after the timed part
and count into the run's ledger.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from masklog import cli
from masklog import score as score_mod
from masklog.corpus import load_labeled, load_lines
from masklog.masking import MaskingStrategy, plan_random
from masklog.normalize import CleanLog
from masklog.train import derive_seed, load_checkpoint
from masklog.vocab import MASK_ID, encode, load_vocab

import gen
import oracle
import spans

MAX_LEN = 64
FIXTURE_SYNTH_SEED = 7  # the acceptance suite's pinned fixture; --seed drives split, train and score
ROUNDS = 3  # interleaved scoring rounds per iteration
THREADS = 2  # workers of the threaded CLI `score` stage: the reference box's nproc
MIN_LATENCY_LOGS = 1100  # the p99 then has at least 11 logs beyond it
ORACLE_LOGS = 4  # per file and round
F1_FLOOR = 0.70  # the fixture's 2-epoch F1 over seeds 1-10 lay in 0.77-0.85
STAGES = ("synth", "clean", "split", "build-vocab", "train", "score", "score-threads2", "calibrate", "detect", "eval",
          "heatmap")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_tokens_per_s": "tokens/s",
    "score_logs_per_s": "logs/s",
    "score_p50_ms": "ms",
    "score_p99_ms": "ms",
    "heatmap_variants_per_s": "variants/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.fwd_bwd_s": "s",
    "model.fwd_bwd_calls": "count",
    "model.forward_s": "s",
    "model.forward_calls": "count",
    "model.batch_rows": "count",
    "model.rows_computed": "count",
    "model.rows_read": "count",
    "model.rows_read_ratio": "1",
    "model.head_gflop": "GFLOP",
    "train.self_s": "s",
    "train.steps": "count",
    "train.tokens": "count",
    "masking.busy_s": "s",
    "masking.plans": "count",
    "score.self_s": "s",
    "score.logs": "count",
    "score.variants": "count",
    "score.threads2_speedup": "1",
    "normalize.busy_s": "s",
    "normalize.lines": "count",
    "vocab.build_s": "s",
    "vocab.encode_s": "s",
    "vocab.size": "count",
    "corpus.busy_s": "s",
    "calibrate.busy_s": "s",
    "detect.busy_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "manifest.digest_s": "s",
    "manifest.digest_bytes": "bytes",
    **{f"cli.{stage}_s": "s" for stage in STAGES},
    "eval.f1": "1",
    "trace.overhead_frac": "1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    epochs: int  # fixed reduced count; the full 10 belong to the acceptance suite
    heatmap_logs: int  # evenly spaced test logs given to `heatmap`
    cli_scored: tuple  # files the CLI `score` stage reads each round
    detect: bool  # calibrate, detect and eval, with the F1 floor
    vocab_size: int | None = None  # exact |V| the run must produce


WORKLOADS = {
    "fixture": Workload("fixture", epochs=2, heatmap_logs=96, cli_scored=("val", "test"), detect=True),
    "large-vocab": Workload("large-vocab", epochs=1, heatmap_logs=8, cli_scored=("val",), detect=False,
                            vocab_size=8192),
}


class StageFailed(Exception):
    pass


@dataclass
class Ledger:
    """Operations attempted and failed in one run; notes say what failed."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def _error_lines(stderr: str) -> list:
    found = []
    for line in stderr.splitlines():
        with contextlib.suppress(ValueError):
            doc = json.loads(line)
            if isinstance(doc, dict) and "error" in doc:
                found.append(line)
    return found


def run_stage(ledger: Ledger, times: dict, tracer, name: str, *argv, label: str | None = None) -> None:
    """One CLI command; it must exit 0 and print no JSON error line. Timed under `label` (default: name)."""
    label = label or name
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{label}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([name, *map(str, argv)])
        except (Exception, SystemExit) as e:  # a traceback is a failure like any other
            rc = repr(e)
    times.setdefault(label, []).append(time.perf_counter() - t0)
    detail = err.getvalue().strip()[-400:]
    if not ledger.op(rc == 0 and not _error_lines(err.getvalue()), f"stage {name}: rc={rc} {detail}"):
        raise StageFailed(f"stage {name} failed: rc={rc} {detail}")


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: Workload, seed: int, directory: str, ledger: Ledger, times: dict) -> tuple[str, str]:
    """Write the raw log and its label file that the timed chain starts from."""
    os.makedirs(directory, exist_ok=True)
    raw, labels = os.path.join(directory, "raw.log"), os.path.join(directory, "raw.labels")
    if workload.name == "fixture":
        run_stage(ledger, times, None, "synth", "--out", raw, "--labels-out", labels,
                  "--templates", 50, "--normal", 5000, "--anomalies", 200, "--seed", FIXTURE_SYNTH_SEED)
    else:
        gen.write_corpus(seed, raw, labels)
    return raw, labels


# ---------------------------------------------------------------------------
# one iteration of the timed chain


@dataclass
class Iteration:
    wall_s: float
    stage_s: dict  # CLI stage -> wall time of each call, in call order
    paths: dict
    seqs: dict  # "val" / "test" -> encoded logs, in file order
    reports: dict  # ("val" | "test", round) -> per-log reports of that round
    latency_ms: dict  # ("val" | "test", log index) -> latency of each round
    train_tokens: int
    heatmap_variants: int  # per heatmap call


def _seqs(path: str, vocab, labeled: bool) -> list:
    # cli._load_clean_seqs would do, but it calls `encode` through the name a
    # traced run wraps, and the harness's own encoding must not count in vocab.encode_s.
    texts = load_labeled(path)[0] if labeled else load_lines(path)
    name = os.path.basename(path)
    return [encode(CleanLog(text=t, raw_ref=(name, i)), vocab, MAX_LEN) for i, t in enumerate(texts)]


def run_iteration(workload: Workload, seed: int, raw: str, labels: str, directory: str,
                  ledger: Ledger, tracer) -> Iteration:
    """The timed chain: prepare and train once, then ROUNDS interleaved scoring rounds.

    Round k scores the workload's CLI-scored files with seed + k, scores val
    again with THREADS workers (the thread-pool path), scores every val and
    test log alone, in a seeded order, with the same per-log seeds (for
    latency), and runs `heatmap` on a fixed sample of test logs. Interleaving spreads each
    scoring metric over the whole scoring phase, so one slow stretch of a
    shared machine moves one round, not the metric.
    """
    os.makedirs(directory, exist_ok=True)
    p = {name: os.path.join(directory, name) for name in (
        "clean.log", "splits", "vocab.txt", "model.ckpt", "threshold.json", "verdicts.tsv",
        "metrics.json", "heat_in.tsv", "heatmap.tsv")}
    train, val, test = (os.path.join(p["splits"], n) for n in ("train.txt", "val.txt", "test.tsv"))
    p.update(train=train, val=val, test=test)
    times: dict = {}

    def stage(name, *argv, label=None):
        run_stage(ledger, times, tracer, name, *argv, label=label)

    t0 = time.perf_counter()
    stage("clean", "--in", raw, "--out", p["clean.log"], "--labels", labels)
    stage("split", "--in", p["clean.log"], "--labels", p["clean.log"] + ".labels", "--out-dir", p["splits"], "--seed", seed)
    stage("build-vocab", "--in", train, "--out", p["vocab.txt"])
    stage("train", "--in", train, "--vocab", p["vocab.txt"], "--out", p["model.ckpt"],
          "--max-len", MAX_LEN, "--epochs", workload.epochs, "--seed", seed)
    common = ("--vocab", p["vocab.txt"], "--checkpoint", p["model.ckpt"])
    ckpt = load_checkpoint(p["model.ckpt"])
    vocab = load_vocab(p["vocab.txt"])
    scored = {"val": _seqs(val, vocab, False), "test": _seqs(test, vocab, True)}
    test_rows = load_lines(test)
    picked = [test_rows[i * len(test_rows) // workload.heatmap_logs] for i in range(workload.heatmap_logs)]
    with open(p["heat_in.tsv"], "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(row + "\n" for row in picked))
    strategy = MaskingStrategy()
    pool = [(part, i) for part, seqs in scored.items() for i in range(len(seqs))]
    reports, latency = {}, {}
    for k in range(ROUNDS):
        for part in workload.cli_scored:
            p[f"{part}{k}.scores"] = os.path.join(directory, f"{part}{k}.scores")
            labeled = ("--labeled",) if part == "test" else ()
            stage("score", "--in", p[part], *labeled, *common, "--out", p[f"{part}{k}.scores"], "--seed", seed + k)
        p[f"val{k}.threads.scores"] = os.path.join(directory, f"val{k}.threads.scores")
        stage("score", "--in", val, *common, "--out", p[f"val{k}.threads.scores"], "--seed", seed + k,
              "--threads", THREADS, label="score-threads2")
        # A fresh order each round, so that a slow stretch of the machine hits
        # different logs in different rounds and a log's median drops it.
        done = {}
        for j in np.random.default_rng((seed, k)).permutation(len(pool)):
            part, i = pool[j]
            s0 = time.perf_counter()
            rep = score_mod.score_log(ckpt, scored[part][i], strategy,
                                      seed=derive_seed(seed + k, score_mod._STREAM_SCORE, i))
            latency.setdefault((part, i), []).append((time.perf_counter() - s0) * 1e3)
            done[part, i] = rep
        for part, seqs in scored.items():
            reports[part, k] = [done[part, i] for i in range(len(seqs))]
        stage("heatmap", "--in", p["heat_in.tsv"], "--labeled", *common, "--out", p["heatmap.tsv"])
    if workload.detect:
        stage("calibrate", "--scores", p["val0.scores"], "--out", p["threshold.json"])
        stage("detect", "--scores", p["test0.scores"], "--threshold", p["threshold.json"], "--out", p["verdicts.tsv"])
        stage("eval", "--verdicts", p["verdicts.tsv"], "--test", test, "--train", train, "--val", val,
              "--out", p["metrics.json"])
    wall = time.perf_counter() - t0

    train_tokens = sum(min(len(t.split()), MAX_LEN) for t in load_lines(train)) * workload.epochs
    heatmap_variants = sum(min(len(row.split("\t")[0].split()), MAX_LEN) for row in picked)
    return Iteration(
        wall_s=wall,
        stage_s=times,
        paths=p,
        seqs=scored,
        reports=reports,
        latency_ms=latency,
        train_tokens=train_tokens,
        heatmap_variants=heatmap_variants,
    )


# ---------------------------------------------------------------------------
# checks (untimed)


def _read_scores(path: str) -> list:
    return [row["score"] for row in cli.read_scores(path)[1]]


def _heatmap_cells(path: str) -> int:
    with open(path, "r", encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f][1:]
    return sum(cell != "NA" for row in rows for cell in row[2:])


def oracle_score(ckpt, seq, log_seed: int) -> float:
    """Float64 reference score of the plan `score_log` draws for this log (repeats=1)."""
    plan = plan_random(seq, MaskingStrategy().fraction, rng_seed=(int(log_seed), 0))
    cfg = ckpt.model_config
    return oracle.reference_score(
        ckpt.params.tensors, cfg.n_heads, cfg.n_layers,
        plan.masked_sequence.ids[: seq.length], plan.masked_indices, plan.original_ids,
    )


def check_iteration(workload: Workload, seed: int, it: Iteration, ledger: Ledger) -> float | None:
    """Every correctness check on one iteration's outputs; returns F1 when eval ran."""
    p = it.paths
    f1 = None
    if workload.vocab_size is not None:
        size = len(load_vocab(p["vocab.txt"]))
        ledger.op(size == workload.vocab_size, f"vocabulary has {size} entries, expected {workload.vocab_size}")
    if workload.detect:
        with open(p["metrics.json"], "r", encoding="utf-8") as f:
            f1 = json.load(f).get("f1")
        ok = isinstance(f1, float) and math.isfinite(f1) and f1 >= F1_FLOOR
        ledger.op(ok, f"eval F1 {f1!r} is not a finite value >= {F1_FLOOR}")
    n_logs = len(it.latency_ms)
    ledger.op(n_logs >= MIN_LATENCY_LOGS, f"latency covers {n_logs} logs, fewer than {MIN_LATENCY_LOGS}")
    ckpt = load_checkpoint(p["model.ckpt"])
    for (part, k), reports in it.reports.items():
        for i, rep in enumerate(reports):
            ok = math.isfinite(rep.score) and rep.score == score_mod.recompute_score(rep.token_probs)
            ledger.op(ok, f"{part} round {k} log {i}: score {rep.score!r} is not its own recomputation")
        own = [rep.score for rep in reports]
        if part in workload.cli_scored:
            same = _read_scores(p[f"{part}{k}.scores"]) == own
            ledger.op(same, f"{part}{k}.scores differs from the per-log scores of the same seeds")
        if part == "val":
            same = _read_scores(p[f"val{k}.threads.scores"]) == own
            ledger.op(same, f"val{k}.threads.scores ({THREADS} threads) differs from the per-log scores")
        step = max(1, len(reports) // ORACLE_LOGS)
        for i in range(0, len(reports), step)[:ORACLE_LOGS]:
            ref = oracle_score(ckpt, it.seqs[part][i], derive_seed(seed + k, score_mod._STREAM_SCORE, i))
            ledger.op(oracle.score_matches(reports[i].score, ref),
                      f"{part} round {k} log {i}: score {reports[i].score!r} vs float64 oracle {ref!r}")
    cells = _heatmap_cells(p["heatmap.tsv"])
    ledger.op(cells == it.heatmap_variants, f"heatmap has {cells} cells for {it.heatmap_variants} variants")
    return f1


# ---------------------------------------------------------------------------
# tracing hooks: (module, name the caller looks up, span name, counter)


def _batch(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["batch"]


def _head_counts(params, batch, rows_read: int) -> dict:
    rows = len(batch) * max(int(s.length) for s in batch)
    cfg = params.config
    return {
        "model.rows_computed": rows,
        "model.rows_read": rows_read,
        "model.head_flop": 2 * rows * cfg.d_model * cfg.vocab_size,
    }


def _count_fwd_bwd(args, kwargs, result) -> dict:
    batch = _batch(args, kwargs)
    positions = args[3] if len(args) > 3 else kwargs["mask_positions"]
    counts = _head_counts(args[0], batch, sum(len(pos) for pos in positions))
    counts.update({"model.fwd_bwd_calls": 1, "train.steps": 1, "train.tokens": sum(int(s.length) for s in batch)})
    return counts


def _count_forward(args, kwargs, result) -> dict:
    batch = _batch(args, kwargs)
    masked = sum(int((s.ids[: s.length] == MASK_ID).sum()) for s in batch)
    counts = _head_counts(args[0], batch, masked)
    counts.update({"model.forward_calls": 1, "model.batch_rows": len(batch), "score.variants": len(batch)})
    return counts


def _count_file(key: str):
    return lambda args, kwargs, result: {key: os.path.getsize(args[0])}


HOOKS = (
    ("masklog.train", "loss_and_gradients", "model.loss_and_gradients", _count_fwd_bwd),
    ("masklog.score", "forward", "model.forward", _count_forward),
    ("masklog.train", "plan_random", "masking.plan_random", lambda a, k, r: {"masking.plans": 1}),
    ("masklog.score", "plan_random", "masking.plan_random", lambda a, k, r: {"masking.plans": 1}),
    ("masklog.score", "plan_token_by_token", "masking.plan_token_by_token",
     lambda a, k, r: {"masking.plans": len(r)}),
    ("masklog.score", "score_log", "score.score_log", lambda a, k, r: {"score.logs": 1}),
    ("masklog.cli", "train", "train.train", None),
    ("masklog.cli", "clean_lines", "normalize.clean_lines", lambda a, k, r: {"normalize.lines": len(a[0])}),
    ("masklog.cli", "build_vocab", "vocab.build_vocab", lambda a, k, r: {"vocab.size": len(r)}),
    ("masklog.cli", "encode", "vocab.encode", None),
    *(("masklog.cli", fn, f"corpus.{fn}", None) for fn in (
        "load_lines", "load_labeled", "write_lines", "write_labeled", "dedupe", "split_corpus")),
    ("masklog.cli", "select_threshold", "calibrate.select_threshold", None),
    *(("masklog.cli", fn, f"detect.{fn}", None) for fn in (
        "assert_no_leakage", "confusion_counts", "metrics_from_counts")),
    ("masklog.checkpoint", "save_container", "checkpoint.save", _count_file("checkpoint.bytes")),
    ("masklog.checkpoint", "load_container", "checkpoint.load", _count_file("checkpoint.bytes")),
    ("masklog.manifest", "file_digest", "manifest.file_digest", _count_file("manifest.digest_bytes")),
)


def threads_speedup(workload: Workload, stage_s: dict) -> float:
    """Median over rounds of val's CLI `score` wall at one thread ÷ at THREADS threads."""
    n_cli, at = len(workload.cli_scored), workload.cli_scored.index("val")
    one = stage_s["score"][at::n_cli]
    return statistics.median(a / b for a, b in zip(one, stage_s["score-threads2"]))


def per_layer(tracer: spans.Tracer, run_id: str, workload: Workload, it: Iteration) -> dict:
    total, own = spans.totals(tracer.spans, run_id)
    c = tracer.counts[run_id]
    computed = c["model.rows_computed"]
    return {
        "model.fwd_bwd_s": total["model.loss_and_gradients"],
        "model.fwd_bwd_calls": c["model.fwd_bwd_calls"],
        "model.forward_s": total["model.forward"],
        "model.forward_calls": c["model.forward_calls"],
        "model.batch_rows": c["model.batch_rows"],
        "model.rows_computed": computed,
        "model.rows_read": c["model.rows_read"],
        "model.rows_read_ratio": c["model.rows_read"] / computed if computed else 0.0,
        "model.head_gflop": c["model.head_flop"] / 1e9,
        "train.self_s": own["train.train"],
        "train.steps": c["train.steps"],
        "train.tokens": c["train.tokens"],
        "masking.busy_s": total["masking.plan_random"] + total["masking.plan_token_by_token"],
        "masking.plans": c["masking.plans"],
        "score.self_s": own["score.score_log"],
        "score.logs": c["score.logs"],
        "score.variants": c["score.variants"],
        "score.threads2_speedup": threads_speedup(workload, it.stage_s),
        "normalize.busy_s": total["normalize.clean_lines"],
        "normalize.lines": c["normalize.lines"],
        "vocab.build_s": total["vocab.build_vocab"],
        "vocab.encode_s": total["vocab.encode"],
        "vocab.size": c["vocab.size"],
        "corpus.busy_s": sum(v for k, v in total.items() if k.startswith("corpus.")),
        "calibrate.busy_s": total["calibrate.select_threshold"],
        "detect.busy_s": sum(v for k, v in total.items() if k.startswith("detect.")),
        "checkpoint.load_s": total["checkpoint.load"],
        "checkpoint.save_s": total["checkpoint.save"],
        "checkpoint.bytes": c["checkpoint.bytes"],
        "manifest.digest_s": total["manifest.file_digest"],
        "manifest.digest_bytes": c["manifest.digest_bytes"],
        **{f"cli.{stage}_s": total[f"cli.{stage}"] for stage in STAGES},
    }


# ---------------------------------------------------------------------------
# one run: repeated set-up, iterations for `seconds`, medians


SETUP_REPEATS, SETUP_SECONDS = 3, 4.0  # at least this many set-ups, and this long in all


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def end_to_end(workload: Workload, it: Iteration) -> dict:
    """Scoring-stage rates are medians over rounds.

    p50 is over each log's median of its rounds. p99 is over each log's
    fastest round: on a shared machine a few percent of calls lose a time
    slice to other tenants, which can move a p99 of medians by half, while
    all of one log's rounds rarely lose one.
    """
    st = it.stage_s
    n_cli = len(workload.cli_scored)
    n_logs = sum(len(it.seqs[part]) for part in workload.cli_scored)
    score_rounds = [n_logs / sum(st["score"][r : r + n_cli]) for r in range(0, len(st["score"]), n_cli)]
    p50 = np.percentile([statistics.median(v) for v in it.latency_ms.values()], 50)
    p99 = np.percentile([min(v) for v in it.latency_ms.values()], 99)
    return {
        "wall_s": it.wall_s,
        "train_tokens_per_s": it.train_tokens / st["train"][0],
        "score_logs_per_s": statistics.median(score_rounds),
        "score_p50_ms": float(p50),
        "score_p99_ms": float(p99),
        "heatmap_variants_per_s": statistics.median(it.heatmap_variants / t for t in st["heatmap"]),
    }


@dataclass
class RunResult:
    ledger: Ledger
    metrics: dict  # name -> value, end-to-end or per-layer by the run's mode
    tracer: spans.Tracer | None
    iterations: int
    f1: float | None  # median eval F1 of the iterations, when the workload runs eval
    error: str | None = None  # the stage failure that stopped the run


def _median_dict(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: str) -> RunResult:
    """Set up repeatedly, then iterate the timed chain for about `seconds`.

    Untraced, every iteration is measured. Traced, iterations alternate
    untraced and traced (at least one of each), so the run also yields the
    tracing overhead.
    """
    ledger = Ledger()
    tracer = spans.Tracer() if trace else None
    try:
        return _run(workload, seed, seconds, tracer, work_dir, ledger)
    except StageFailed as e:
        return RunResult(ledger=ledger, metrics={}, tracer=tracer, iterations=0, f1=None, error=str(e))


def _run(workload: Workload, seed: int, seconds: float, tracer, work_dir: str, ledger: Ledger) -> RunResult:
    trace = tracer is not None
    setup_s, synth_s, digests = [], [], set()
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        times: dict = {}
        t0 = time.perf_counter()
        raw, labels = make_inputs(workload, seed, os.path.join(work_dir, f"setup{len(setup_s)}"), ledger, times)
        setup_s.append(time.perf_counter() - t0)
        synth_s.append(sum(times.get("synth", [])))
        digests.add(_digest((raw, labels)))
    ledger.op(len(digests) == 1, "set-up inputs differ between repeats of one seed")

    plain, traced, layers, f1s, loop_s = [], [], [], [], []
    start = time.perf_counter()
    while True:
        k = len(loop_s)
        t0 = time.perf_counter()
        it_dir = os.path.join(work_dir, f"it{k}")
        if trace and k % 2 == 1:
            tracer.run_id = f"{workload.name}-seed{seed}-it{k}"
            with spans.installed(tracer, HOOKS), tracer.span("iteration"):
                it = run_iteration(workload, seed, raw, labels, it_dir, ledger, tracer)
            traced.append(it.wall_s)
            layers.append(per_layer(tracer, tracer.run_id, workload, it))
        else:
            it = run_iteration(workload, seed, raw, labels, it_dir, ledger, None)
            plain.append(end_to_end(workload, it))
        f1s.append(check_iteration(workload, seed, it, ledger))
        shutil.rmtree(it_dir)
        loop_s.append(time.perf_counter() - t0)
        if trace and not traced:
            continue
        if time.perf_counter() - start + statistics.median(loop_s) > seconds:
            break

    if trace:
        metrics = _median_dict(layers)
        metrics["cli.synth_s"] = statistics.median(synth_s)
        metrics["eval.f1"] = statistics.median(f1s) if workload.detect else 0.0
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(p["wall_s"] for p in plain) - 1.0
    else:
        metrics = _median_dict(plain)
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    f1 = statistics.median(f1s) if workload.detect else None
    return RunResult(ledger=ledger, metrics=metrics, tracer=tracer, iterations=len(loop_s), f1=f1)
