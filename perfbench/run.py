"""masklog benchmark: one workload (or all of them) per process, closed loop, one caller.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 55 --trace 0

Run from the repository root. Inputs come from --seed only; the program is
imported from ./src. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Earlier lines give the
environment and a readable table. Scratch files live under .bench_work/ and
are removed at exit; a traced run leaves its spans in .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = "1"  # one caller on a shared 2-vCPU box: a second BLAS thread gained nothing
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha(root: str):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, "r", encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as f:
            for line in f:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "masklog")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "git_sha": _git_sha(ROOT),
        "source_sha256": _source_digest(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _table(title: str, result, units: dict, f1_floor: float) -> None:
    print(f"== {title}")
    for name, value in result.metrics.items():
        print(f"  {name:<26} {value:>14.6g} {units[name]}")
    ledger = result.ledger
    if result.f1 is not None:
        print(f"  {'f1':<26} {result.f1:>14.6g} 1   (eval; checked >= {f1_floor})")
    frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"  {'failed_frac':<26} {frac:>14.6g} 1   ({ledger.failed} of {ledger.attempted} operations)")
    for note in ledger.notes[:20]:
        print(f"  FAILED: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy loads
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "masklog", "cli.py")):
        print(f"no masklog sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    work_root = os.path.join(ROOT, ".bench_work")
    out_dir = os.path.join(ROOT, ".bench_out")
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        # a fixed-width pid keeps the length of the paths that outputs record, so byte counts repeat
        work_dir = os.path.join(work_root, f"{name}-seed{args.seed}-pid{os.getpid():07d}")
        try:
            result = workloads.run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
            with contextlib.suppress(OSError):  # still holds another run's directory
                os.rmdir(work_root)
        attempted += result.ledger.attempted
        failed += result.ledger.failed
        if result.error:
            print(f"{name}: {result.error}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
            return 1
        _table(f"{name} (seed {args.seed}, {result.iterations} iterations)", result, units, workloads.F1_FLOOR)
        if result.tracer is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"trace-{name}-seed{args.seed}.json")
            result.tracer.write(path, {"env": env, "workload": name, "metrics": result.metrics})
            print(f"  spans written to {os.path.relpath(path, ROOT)}")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in result.metrics.items()})

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
