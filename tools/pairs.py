"""Run perfbench end to end on a parent tree and a change tree in alternating pairs, and write a BENCH_*.json.

    python tools/pairs.py PARENT_DIR CHANGE_DIR --workload fixture --seeds 2201-2210 --seconds 55 --out BENCH_x.json

Each seed is one pair: `perfbench/run.py --workload W --seed S --seconds T --trace X` runs once in each
tree, from that tree's root. `--trace` (0 or 1, default 0) is passed through: at 0 the runs report the
end-to-end metrics, at 1 the per-layer ones. The parent runs first in the first pair, the change in the
second, and so on, so a machine that speeds up or slows down over the session does not favour one side.

The output holds the two trees' source sha256 (as perfbench reports them), the command, the machine,
every run's environment line and final line (`correct: false` runs included), and a summary per
workload: for each metric the runs report (the `end_to_end` list of the change tree's BENCHMARK.json, or
its `per_layer` list with `--trace 1`), the medians and quartiles of both sides, the parent's interquartile
range, in how many pairs the change was better, whether every change run was better than every parent run
(what a claim needs when a metric's spread is wider than its bound), and the change's median relative to
the parent's (null when the parent's is 0). A metric is summarised over the pairs in which both runs report it. When `--out` already
exists, its runs of other workloads are kept, so one file can gather every workload; a file written with
the other `--trace` value is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    """'A-B' -> [A, ..., B]; 'A' -> [A]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in `tree`: its environment line and its final line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "returncode": done.returncode, "stderr": done.stderr[-2000:]}
    return {"env": env, "result": result}


def run_pairs(parent: str, change: str, workload: str, seeds: list[int], seconds: float,
              trace: int = 0) -> list[dict]:
    """Every run of the pairs, in the order they ran; the first side alternates between pairs."""
    runs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_once(parent if side == "parent" else change, workload, seed, seconds, trace)
            runs.append({"workload": workload, "side": side, "seed": seed, **run})
            print(f"{workload} seed {seed} {side}: correct={run['result'].get('correct')}", file=sys.stderr)
    return runs


def _quartiles(values: list[float]) -> list[float]:
    """[first quartile, third quartile]."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Per workload: the pair count and, per metric, medians, quartiles, the parent's IQR, change wins and relative change."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"].get("metrics", {})
        entry: dict = {"pairs": len(pairs)}
        for metric in declared:
            name, better = metric["name"], metric["better"]
            both = [(p["parent"][name]["value"], p["change"][name]["value"])
                    for p in pairs.values() if name in p.get("parent", {}) and name in p.get("change", {})]
            if not both:
                continue
            old, new = [a for a, _ in both], [b for _, b in both]
            parent_median, change_median = statistics.median(old), statistics.median(new)
            parent_quartiles = _quartiles(old)
            entry[name] = {
                "better": better,
                "parent_median": parent_median,
                "change_median": change_median,
                "parent_quartiles": parent_quartiles,
                "change_quartiles": _quartiles(new),
                "parent_iqr": parent_quartiles[1] - parent_quartiles[0],
                "change_wins": sum((b < a) if better == "lower" else (b > a) for a, b in both),
                "change_beats_every_parent_run": max(new) < min(old) if better == "lower" else min(new) > max(old),
                "change_vs_parent": change_median / parent_median - 1.0 if parent_median else None,
            }
            if len(both) != len(pairs):
                entry[name]["pairs"] = len(both)
        summary[workload] = entry
    return summary


def _one(values: set, what: str):
    if len(values) > 1:
        print(f"warning: the {what} differs between runs: {sorted(map(str, values))}", file=sys.stderr)
    return next(iter(values)) if len(values) == 1 else sorted(map(str, values))


def bench_document(runs: list[dict], declared: list[dict], what: str, seconds: float, trace: int = 0) -> dict:
    envs = [r["env"] for r in runs if r["env"]]
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    shas = {side: _one({r["env"]["source_sha256"] for r in runs if r["env"] and r["side"] == side},
                       f"{side} source") for side in SIDES}
    machine = _one({
        f"{e['nproc']}-vCPU {e['machine']}, python {e['python']}, numpy {e['numpy']}, {e['blas']}, "
        f"BLAS threads {e['blas_threads'].get('OPENBLAS_NUM_THREADS')}" for e in envs}, "machine")
    return {
        "what": what,
        "machine": machine,
        "command": f"python3 perfbench/run.py --workload "
                   f"{workloads[0] if len(workloads) == 1 else '{' + ','.join(workloads) + '}'}"
                   f" --seed <seed> --seconds {seconds:g} --trace {trace}",
        "parent_source_sha256": shas["parent"],
        "change_source_sha256": shas["change"],
        "summary": summarize(runs, declared),
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent tree's root")
    parser.add_argument("change", help="the change tree's root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B: one pair per seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced runs, summarised over BENCHMARK.json's per_layer metrics")
    parser.add_argument("--out", required=True)
    parser.add_argument("--what", default="perfbench end-to-end runs of a parent and a change tree; parent and "
                        "change alternate within each pair, and which side runs first alternates between pairs")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    kept = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            old = json.load(f)
        if old.get("command", "").endswith("--trace 1") != bool(args.trace):
            parser.error(f"{args.out} holds runs of the other --trace value, not --trace {args.trace}")
        kept = [r for r in old["runs"] if r["workload"] != args.workload]
    runs = kept + run_pairs(args.parent, args.change, args.workload, args.seeds, args.seconds, args.trace)
    doc = bench_document(runs, declared, args.what, args.seconds, args.trace)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for name, stats in doc["summary"][args.workload].items():
        if isinstance(stats, dict):
            relative = "n/a" if stats["change_vs_parent"] is None else f"{stats['change_vs_parent']:+.1%}"
            q1, q3 = stats["change_quartiles"]
            print(f"{args.workload} {name}: {stats['parent_median']:.6g} -> {stats['change_median']:.6g} "
                  f"({relative}, {stats['change_wins']}/{doc['summary'][args.workload]['pairs']} "
                  f"wins, parent IQR {stats['parent_iqr']:.4g}, change quartiles {q1:.6g}..{q3:.6g}, "
                  f"every change run better: {'yes' if stats['change_beats_every_parent_run'] else 'no'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
