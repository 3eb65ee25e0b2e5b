import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# (parent, change) wall_s and train_tokens_per_s per seed; seed 12's change run fails its F1 check
WALL = {10: (10.0, 9.0), 11: (12.0, 12.5), 12: (11.0, 8.0), 13: (13.0, 10.0)}
TRAIN = {10: (100.0, 120.0), 11: (90.0, 80.0), 12: (110.0, 130.0), 13: (95.0, 99.0)}
END_TO_END = [{"name": "wall_s", "better": "lower"}, {"name": "train_tokens_per_s", "better": "higher"},
              {"name": "score_p50_ms", "better": "lower"}]


def _env(tree):
    return {"source_sha256": f"sha-{tree}", "nproc": 2, "machine": "x86_64", "python": "3.11.7", "numpy": "2.4.6",
            "blas": "scipy-openblas 0.3.31", "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}}


@pytest.fixture
def canned(monkeypatch):
    """perfbench's stdout for each run, in place of a real benchmark run; records the calls in order."""
    calls = []

    def fake_run(argv, cwd, capture_output, text):
        assert argv[1:3] == ["perfbench/run.py", "--workload"] and argv[-2:] == ["--trace", "0"]
        tree = Path(cwd).name
        seed, side = int(argv[argv.index("--seed") + 1]), 0 if tree == "P" else 1
        calls.append((seed, "parent" if side == 0 else "change"))
        metrics = {"wall_s": {"value": WALL[seed][side], "unit": "s"},
                   "train_tokens_per_s": {"value": TRAIN[seed][side], "unit": "tokens/s"}}
        correct = not (seed == 12 and side == 1)
        final = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1, "metrics": metrics}
        stdout = f"env {json.dumps(_env(tree))}\n== table\n{json.dumps(final)}\n"
        return subprocess.CompletedProcess(argv, 0 if correct else 1, stdout, "")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    return calls


def test_pairs_alternate_and_summarize(canned):
    runs = pairs.run_pairs("P", "C", "fixture", pairs.seed_range("10-13"), 55.0)
    assert canned == [(10, "parent"), (10, "change"), (11, "change"), (11, "parent"),
                      (12, "parent"), (12, "change"), (13, "change"), (13, "parent")]
    assert [(r["seed"], r["side"]) for r in runs] == canned
    assert [r["result"]["correct"] for r in runs].count(False) == 1  # the failed run is kept
    doc = pairs.bench_document(runs, END_TO_END, "what", 55.0)
    assert doc["parent_source_sha256"] == "sha-P" and doc["change_source_sha256"] == "sha-C"
    assert doc["command"] == "python3 perfbench/run.py --workload fixture --seed <seed> --seconds 55 --trace 0"
    summary = doc["summary"]["fixture"]
    assert summary["pairs"] == 4 and "score_p50_ms" not in summary
    wall = summary["wall_s"]
    assert wall["parent_median"] == 11.5 and wall["change_median"] == 9.5
    assert wall["parent_iqr"] == pytest.approx(12.25 - 10.75)
    assert wall["change_wins"] == 3  # lower is better; seed 11 is the loss
    assert wall["change_vs_parent"] == pytest.approx(9.5 / 11.5 - 1)
    train = summary["train_tokens_per_s"]
    assert train["change_wins"] == 3  # higher is better; seed 11 is the loss
    assert train["parent_iqr"] == pytest.approx(102.5 - 93.75)


def test_cli_writes_every_run_and_keeps_other_workloads(canned, tmp_path):
    change = tmp_path / "C"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    out = tmp_path / "BENCH_x.json"
    other = {"workload": "large-vocab", "side": "parent", "seed": 1, "env": _env("P"),
             "result": {"correct": True, "metrics": {"wall_s": {"value": 1.0}}}}
    out.write_text(json.dumps({"runs": [other, {**other, "side": "change", "env": _env("C")}]}))
    assert pairs.main(["P", str(change), "--workload", "fixture", "--seeds", "10-13", "--seconds", "55",
                       "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["runs"]) == 10
    assert set(doc["summary"]) == {"large-vocab", "fixture"}
    assert doc["summary"]["fixture"]["wall_s"]["change_wins"] == 3
    assert doc["summary"]["large-vocab"]["wall_s"]["change_wins"] == 0
