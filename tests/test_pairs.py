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
# peak_rss_mb: every change run is below every parent run
RSS = {10: (131.0, 113.0), 11: (130.8, 112.5), 12: (131.4, 113.1), 13: (131.1, 112.9)}
END_TO_END = [{"name": "wall_s", "better": "lower"}, {"name": "train_tokens_per_s", "better": "higher"},
              {"name": "score_p50_ms", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]
# (parent, change) per-layer metrics per seed, which only a traced run reports; detect.busy_s reads 0 at the parent
FORWARD = {10: (2.0, 1.5), 11: (2.2, 2.4), 12: (1.8, 1.6), 13: (2.1, 1.9)}
PER_LAYER = [{"name": "model.forward_s", "better": "lower"}, {"name": "detect.busy_s", "better": "lower"},
             {"name": "score.logs", "better": "higher"}]


def _env(tree):
    return {"source_sha256": f"sha-{tree}", "nproc": 2, "machine": "x86_64", "python": "3.11.7", "numpy": "2.4.6",
            "blas": "scipy-openblas 0.3.31", "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}}


@pytest.fixture
def canned(monkeypatch):
    """perfbench's stdout for each run, in place of a real benchmark run; records the calls in order."""
    calls = []

    def fake_run(argv, cwd, capture_output, text):
        assert argv[1:3] == ["perfbench/run.py", "--workload"] and argv[-2] == "--trace"
        tree, trace = Path(cwd).name, int(argv[-1])
        seed, side = int(argv[argv.index("--seed") + 1]), 0 if tree == "P" else 1
        calls.append((seed, "parent" if side == 0 else "change"))
        metrics = {"wall_s": {"value": WALL[seed][side], "unit": "s"},
                   "train_tokens_per_s": {"value": TRAIN[seed][side], "unit": "tokens/s"},
                   "peak_rss_mb": {"value": RSS[seed][side], "unit": "MB"}}
        if trace:
            metrics = {"model.forward_s": {"value": FORWARD[seed][side], "unit": "s"},
                       "detect.busy_s": {"value": 0.0 if side == 0 else 0.01, "unit": "s"}}
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
    assert wall["parent_quartiles"] == pytest.approx([10.75, 12.25])
    assert wall["change_quartiles"] == pytest.approx([8.75, 10.625])  # of 8, 9, 10, 12.5
    assert wall["change_wins"] == 3  # lower is better; seed 11 is the loss
    assert wall["change_beats_every_parent_run"] is False  # seed 11's 12.5 is above the parent's 10 and 11
    assert wall["change_vs_parent"] == pytest.approx(9.5 / 11.5 - 1)
    train = summary["train_tokens_per_s"]
    assert train["change_wins"] == 3  # higher is better; seed 11 is the loss
    assert train["parent_iqr"] == pytest.approx(102.5 - 93.75)
    assert train["change_beats_every_parent_run"] is False
    rss = summary["peak_rss_mb"]
    assert rss["change_wins"] == 4 and rss["change_beats_every_parent_run"] is True
    assert rss["change_quartiles"] == pytest.approx([112.8, 113.025])  # of 112.5, 112.9, 113.0, 113.1


def test_cli_writes_every_run_and_keeps_other_workloads(canned, tmp_path, capsys):
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
    printed = capsys.readouterr().out.splitlines()
    assert "fixture wall_s: 11.5 -> 9.5 (-17.4%, 3/4 wins, parent IQR 1.5, change quartiles 8.75..10.625, " \
           "every change run better: no)" in printed
    assert "fixture peak_rss_mb: 131.05 -> 112.95 (-13.8%, 4/4 wins, parent IQR 0.225, change quartiles " \
           "112.8..113.025, every change run better: yes)" in printed


def test_traced_pairs_summarize_the_per_layer_metrics(canned, tmp_path):
    change = tmp_path / "C"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END, "per_layer": PER_LAYER}))
    out = tmp_path / "BENCH_trace.json"
    argv = ["P", str(change), "--workload", "fixture", "--seeds", "10-13", "--seconds", "55", "--out", str(out)]
    assert pairs.main([*argv, "--trace", "1"]) == 0
    doc = json.loads(out.read_text())
    assert doc["command"].endswith("--seconds 55 --trace 1")
    summary = doc["summary"]["fixture"]
    assert set(summary) == {"pairs", "model.forward_s", "detect.busy_s"}  # score.logs: no run reports it
    forward = summary["model.forward_s"]
    assert forward["parent_median"] == pytest.approx(2.05) and forward["change_median"] == pytest.approx(1.75)
    assert forward["change_wins"] == 3  # lower is better; seed 11 is the loss
    busy = summary["detect.busy_s"]
    assert busy["parent_median"] == 0.0 and busy["change_vs_parent"] is None and busy["change_wins"] == 0
    with pytest.raises(SystemExit):  # the file holds traced runs: untraced ones are not mixed into it
        pairs.main(argv)
    assert json.loads(out.read_text()) == doc
