import argparse
import contextlib
import glob
import inspect
import io
import json
import os
import platform
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import masklog
from masklog import cli, errors, manifest
from masklog.calibrate import select_threshold
from masklog.checkpoint import load_container, save_container
from masklog.cli import main, read_scores, read_table, read_threshold, read_verdicts
from masklog.detect import ablate_finetune, ablate_masking
from masklog.errors import NoAnomaliesInTruth
from masklog.manifest import file_digest, load_manifest, manifest_path_for
from masklog.corpus import load_labeled, load_lines
from masklog.masking import MaskingStrategy
from masklog.normalize import CleanLog
from masklog.score import _STREAM_SCORE, score_corpus, score_log
from masklog.train import derive_seed, load_checkpoint, save_checkpoint
from masklog.vocab import build_vocab, encode, load_vocab

from conftest import run_cli


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A miniature but complete pipeline for command-surface tests."""
    root = tmp_path_factory.mktemp("cli")
    p = {
        "root": root,
        "raw": root / "raw.log",
        "labels": root / "raw.labels",
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
    assert run_cli("synth", "--out", p["raw"], "--labels-out", p["labels"],
                   "--templates", 12, "--normal", 400, "--anomalies", 40, "--seed", 3) == 0
    assert run_cli("clean", "--in", p["raw"], "--out", p["clean"], "--labels", p["labels"]) == 0
    assert run_cli("split", "--in", p["clean"], "--labels", p["clean_labels"],
                   "--out-dir", p["splits"], "--seed", 4) == 0
    p["train"], p["val"], p["test"] = (p["splits"] / "train.txt", p["splits"] / "val.txt",
                                       p["splits"] / "test.tsv")
    assert run_cli("build-vocab", "--in", p["train"], "--out", p["vocab"]) == 0
    assert run_cli("train", "--in", p["train"], "--vocab", p["vocab"], "--out", p["ckpt"],
                   "--epochs", 4, "--d-model", 32, "--d-ff", 48, "--max-len", 48,
                   "--seed", 5) == 0
    assert run_cli("score", "--in", p["val"], "--vocab", p["vocab"], "--checkpoint", p["ckpt"],
                   "--out", p["val_scores"], "--seed", 6) == 0
    assert run_cli("calibrate", "--scores", p["val_scores"], "--out", p["threshold"]) == 0
    assert run_cli("score", "--in", p["test"], "--labeled", "--vocab", p["vocab"],
                   "--checkpoint", p["ckpt"], "--out", p["test_scores"], "--seed", 6) == 0
    assert run_cli("detect", "--scores", p["test_scores"], "--threshold", p["threshold"],
                   "--out", p["verdicts"]) == 0
    assert run_cli("eval", "--verdicts", p["verdicts"], "--test", p["test"],
                   "--train", p["train"], "--val", p["val"], "--out", p["metrics"]) == 0
    return p


class TestArtifacts:
    def test_clean_report_lists_drops_and_counts(self, small_run):
        report = json.loads((small_run["root"] / "clean.log.report.json").read_text())
        assert "dropped_line_nos" in report
        assert report["counts"]["timestamps"] > 0

    def test_clean_output_line_parallel(self, small_run):
        raw_lines = small_run["raw"].read_text().splitlines()
        clean_lines_ = small_run["clean"].read_text().splitlines()
        report = json.loads((small_run["root"] / "clean.log.report.json").read_text())
        assert len(clean_lines_) == len(raw_lines) - len(report["dropped_line_nos"])
        labels = small_run["clean_labels"].read_text().splitlines()
        assert len(labels) == len(clean_lines_)

    def test_split_artifacts(self, small_run):
        info = json.loads((small_run["splits"] / "split.json").read_text())
        n = info["n_unique_normals"]
        assert abs(info["n_train"] - 0.7 * n) <= 1
        assert info["n_anomalies"] == 40
        train = set((small_run["splits"] / "train.txt").read_text().splitlines())
        val = set((small_run["splits"] / "val.txt").read_text().splitlines())
        assert not train & val

    def test_scores_file_format(self, small_run):
        meta, rows = read_scores(small_run["val_scores"])
        assert meta["strategy"] == "random0.15"
        assert len(meta["checkpoint"]) == 64
        assert all(r["score"] >= 0 for r in rows)
        n_val = len(small_run["val"].read_text().splitlines())
        assert len(rows) == n_val

    def test_threshold_file(self, small_run):
        t = read_threshold(small_run["threshold"])
        meta, rows = read_scores(small_run["val_scores"])
        assert t.percentile == 90.0
        assert t.n_calibration == len(rows)
        provenance = (t.checkpoint_hash, t.vocab_hash, t.strategy, t.repeats)
        assert provenance == (meta["checkpoint"], meta["vocab"], meta["strategy"], int(meta["repeats"]))
        assert provenance[1:] == (load_vocab(small_run["vocab"]).digest(), "random0.15", 1)

    def test_detect_matches_rowwise_rule(self, small_run):
        t = read_threshold(small_run["threshold"])
        _, scores = read_scores(small_run["test_scores"])
        _, verdicts = read_verdicts(small_run["verdicts"])
        assert len(scores) == len(verdicts)
        for s, v in zip(scores, verdicts):
            assert v["label"] == ("anomalous" if s["score"] > t.value else "normal")

    def test_scores_and_verdicts_name_the_scored_file(self, small_run):
        assert read_scores(small_run["val_scores"])[0]["input"] == file_digest(small_run["val"])
        assert read_scores(small_run["test_scores"])[0]["input"] == file_digest(small_run["test"])
        assert read_verdicts(small_run["verdicts"])[0]["input"] == file_digest(small_run["test"])

    def test_train_log_reports_throughput(self, small_run):
        vocab = load_vocab(small_run["vocab"])
        texts = small_run["train"].read_text().splitlines()
        tokens = sum(encode(CleanLog(text=t, raw_ref=("", 0)), vocab, 48).length for t in texts)
        columns = {"epoch": int, "mean_loss": float, "wall_time_s": float, "tokens_per_s": float,
                   "grad_norm_mean": float, "grad_norm_max": float, "clip_frac": float}
        _, rows = read_table(str(small_run["ckpt"]) + ".log.tsv", columns)
        assert [r["epoch"] for r in rows] == [0, 1, 2, 3]
        for r in rows:  # wall_time_s is rounded to the millisecond
            secs = r["wall_time_s"]
            assert tokens / (secs + 5e-4) <= r["tokens_per_s"] <= tokens / (secs - 5e-4)
            assert 0.0 < r["grad_norm_mean"] <= r["grad_norm_max"]
            assert 0.0 <= r["clip_frac"] <= 1.0
            assert (r["clip_frac"] > 0.0) == (r["grad_norm_max"] > 1.0)  # the default --grad-clip
        header = load_container(small_run["ckpt"])[0]
        assert not {"tokens_per_s", "grad_norm_mean", "grad_norm_max", "clip_frac"} & set(header)

    def test_train_log_norm_columns_read_na_without_clipping(self, small_run, tmp_path):
        out = tmp_path / "m.ckpt"
        assert run_cli("train", "--in", small_run["train"], "--vocab", small_run["vocab"], "--out", out,
                       "--epochs", 2, "--d-model", 16, "--n-heads", 2, "--d-ff", 16, "--max-len", 48,
                       "--grad-clip", 0) == 0
        columns = {"epoch": int, "mean_loss": float, "wall_time_s": float, "tokens_per_s": float,
                   "grad_norm_mean": str, "grad_norm_max": str, "clip_frac": float}
        _, rows = read_table(str(out) + ".log.tsv", columns)
        assert [(r["grad_norm_mean"], r["grad_norm_max"], r["clip_frac"]) for r in rows] == [("NA", "NA", 0.0)] * 2

    def test_eval_report(self, small_run):
        doc = json.loads(small_run["metrics"].read_text())
        assert set(doc) >= {"tp", "fp", "fn", "tn", "precision", "recall", "f1"}
        assert doc["tp"] + doc["fp"] + doc["fn"] + doc["tn"] == doc["n_test"]

    def test_manifest_written_with_digests(self, small_run):
        doc = load_manifest(manifest_path_for(small_run["ckpt"]))
        assert doc["command"] == "train"
        assert str(small_run["train"]) in doc["inputs"]
        assert doc["outputs"][str(small_run["ckpt"])] == file_digest(small_run["ckpt"])
        assert doc["options"]["epochs"] == 4

    def test_manifest_records_memory_and_versions(self, small_run, tmp_path):
        doc = load_manifest(manifest_path_for(small_run["val_scores"]))
        runtime = doc["runtime"]
        assert set(runtime) == {"peak_rss_bytes", "python", "numpy", "blas", "blas_core"}
        assert runtime["peak_rss_bytes"] > 10 * 2**20  # numpy alone takes more
        assert runtime["python"] == platform.python_version()
        assert runtime["numpy"] == np.__version__
        assert isinstance(runtime["blas"], str) and runtime["blas"]
        assert runtime["blas_core"] == manifest._blas_core()
        # rerun reads the command, options and inputs only
        edited = tmp_path / "edited.manifest.json"
        doc["runtime"] = {"python": "0.0", "peak_rss_bytes": -1}
        edited.write_text(json.dumps(doc), encoding="utf-8")
        before = file_digest(small_run["val_scores"])
        assert run_cli("rerun", "--manifest", edited) == 0
        assert file_digest(small_run["val_scores"]) == before


@pytest.mark.skipif(platform.machine() != "x86_64" or not glob.glob(
    os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")),
    reason="needs numpy's bundled x86-64 scipy-openblas, which can be told to run its Nehalem kernel")
def test_blas_core_is_the_kernel_openblas_loaded():
    src = str(Path(masklog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               OPENBLAS_CORETYPE="Nehalem", OPENBLAS_NUM_THREADS="1")
    code = "from masklog.manifest import _blas_core; print(_blas_core())"
    forced = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
                            check=True)
    assert forced.stdout.strip() == "Nehalem"
    assert manifest._blas_core() not in ("", "unknown")


def test_blas_core_without_a_bundled_openblas_is_unknown(monkeypatch, tmp_path):
    monkeypatch.setattr(manifest.glob, "glob", lambda pattern: [str(tmp_path / "libscipy_openblas_missing.so")])
    assert manifest._blas_core() == "unknown"


class TestRerunAndThreads:
    def test_rerun_is_byte_identical(self, small_run):
        before = file_digest(small_run["val_scores"])
        manifest = manifest_path_for(small_run["val_scores"])
        assert run_cli("rerun", "--manifest", manifest) == 0
        assert file_digest(small_run["val_scores"]) == before

    @pytest.mark.parametrize("part, labeled", [("val", False), ("test", True)])
    def test_every_score_row_equals_score_log(self, small_run, part, labeled):
        ckpt = load_checkpoint(small_run["ckpt"])
        vocab = load_vocab(small_run["vocab"])
        texts = load_labeled(small_run[part])[0] if labeled else load_lines(small_run[part])
        _, rows = read_scores(small_run[f"{part}_scores"])
        assert len(rows) == len(texts)
        for i, (text, row) in enumerate(zip(texts, rows)):
            seq = encode(CleanLog(text=text, raw_ref=(small_run[part].name, i)), vocab, ckpt.model_config.max_len)
            rep = score_log(ckpt, seq, MaskingStrategy(), seed=derive_seed(6, _STREAM_SCORE, i))
            assert (row["line_no"], row["score"], row["masked_count"]) == (i, rep.score, rep.masked_count)

    def test_threads_flag_reproduces_serial_output(self, small_run, tmp_path):
        out = tmp_path / "scores_threaded.tsv"
        assert run_cli("score", "--in", small_run["val"], "--vocab", small_run["vocab"],
                       "--checkpoint", small_run["ckpt"], "--out", out,
                       "--seed", 6, "--threads", 4) == 0
        assert file_digest(out) == file_digest(small_run["val_scores"])


class TestHeatmapCommand:
    def test_heatmap_files(self, small_run, tmp_path):
        out = tmp_path / "heat.tsv"
        assert run_cli("heatmap", "--in", small_run["test"], "--labeled",
                       "--vocab", small_run["vocab"], "--checkpoint", small_run["ckpt"],
                       "--out", out) == 0
        lines = out.read_text().splitlines()
        n_test = len(small_run["test"].read_text().splitlines())
        assert len(lines) == n_test + 1
        assert "NA" in out.read_text()
        with open(str(out) + ".rows.json", "r", encoding="utf-8") as f:
            sidecar = json.load(f)
        assert len(sidecar["rows"]) == n_test
        assert set(sidecar["summary"]) == {"normal", "anomalous"}


class TestAblateCommands:
    def test_masking_grid_shape(self, small_run, tmp_path):
        out = tmp_path / "grid.tsv"
        assert run_cli("ablate-masking", "--checkpoint", small_run["ckpt"],
                       "--vocab", small_run["vocab"], "--val", small_run["val"],
                       "--test", small_run["test"], "--out", out,
                       "--strategies", "token,random0.15", "--percentiles", "80,90",
                       "--seed", 6) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        header = lines[0].split("\t")
        assert header == ["strategy", "percentile", "threshold", "tp", "fp", "fn", "tn",
                          "precision", "recall", "f1"]

    def test_default_grid_cell_matches_pipeline(self, small_run, tmp_path):
        out = tmp_path / "grid1.tsv"
        assert run_cli("ablate-masking", "--checkpoint", small_run["ckpt"],
                       "--vocab", small_run["vocab"], "--val", small_run["val"],
                       "--test", small_run["test"], "--out", out,
                       "--strategies", "random0.15", "--percentiles", "90",
                       "--seed", 6) == 0
        row = out.read_text().splitlines()[1].split("\t")
        doc = json.loads(small_run["metrics"].read_text())
        assert [int(x) for x in row[3:7]] == [doc["tp"], doc["fp"], doc["fn"], doc["tn"]]

    def test_finetune_report(self, small_run, tmp_path):
        out = tmp_path / "ft.json"
        assert run_cli("ablate-finetune", "--checkpoint", small_run["ckpt"], "--val", small_run["val"],
                       "--test", small_run["test"], "--vocab", small_run["vocab"], "--out", out,
                       "--seed", 5) == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {"trained", "untrained", "f1_gap"}
        assert doc["trained"]["f1"] >= doc["untrained"]["f1"]


class TestConfigLoading:
    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"templates": 5, "normal": 30, "anomalies": 3, "seed": 1}))
        out, labels = tmp_path / "a.log", tmp_path / "a.labels"
        assert run_cli("synth", "--config", cfg, "--out", out, "--labels-out", labels,
                       "--normal", 40) == 0
        doc = load_manifest(manifest_path_for(out))
        assert doc["options"]["normal"] == 40  # flag wins
        assert doc["options"]["templates"] == 5  # config file applies
        assert len(out.read_text().splitlines()) == 43

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--labels-out", str(tmp_path / "y")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalid"
        assert "not_a_key" in err["message"]

    def test_defaults_recorded_in_manifest(self, tmp_path):
        out, labels = tmp_path / "b.log", tmp_path / "b.labels"
        assert run_cli("synth", "--out", out, "--labels-out", labels, "--normal", 20,
                       "--anomalies", 2, "--templates", 4) == 0
        doc = load_manifest(manifest_path_for(out))
        assert doc["options"]["seed"] == 0  # documented default


class TestErrorPaths:
    def test_missing_input(self, tmp_path, capsys):
        rc = main(["build-vocab", "--in", str(tmp_path / "absent.txt"),
                   "--out", str(tmp_path / "v.txt")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "MissingInput"

    def test_detect_digest_mismatch(self, small_run, tmp_path, capsys):
        doc = json.loads(small_run["threshold"].read_text())
        doc["checkpoint_hash"] = "0" * 64
        bad = tmp_path / "bad_threshold.json"
        bad.write_text(json.dumps(doc))
        rc = main(["detect", "--scores", str(small_run["test_scores"]),
                   "--threshold", str(bad), "--out", str(tmp_path / "v.tsv")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DigestMismatch"
        assert "checkpoint" in err["message"]

    def test_score_vocab_mismatch(self, small_run, tmp_path, capsys):
        other_vocab = tmp_path / "other_vocab.txt"
        other_vocab.write_text("[PAD]\n[UNK]\n[MASK]\n[CLS]\nalpha\n")
        rc = main(["score", "--in", str(small_run["val"]), "--vocab", str(other_vocab),
                   "--checkpoint", str(small_run["ckpt"]), "--out", str(tmp_path / "s.tsv")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "VocabMismatch"

    def test_eval_leakage_aborts(self, small_run, tmp_path, capsys):
        leaked_test = tmp_path / "leaked.tsv"
        train_first = small_run["train"].read_text().splitlines()[0]
        leaked_test.write_text(f"{train_first}\tnormal\n")
        verdicts = tmp_path / "v.tsv"
        with open(verdicts, "w") as f:
            f.write("source_id\tline_no\tscore\tthreshold\tlabel\n")
            f.write("leaked.tsv\t0\t0.5\t1.0\tnormal\n")
        rc = main(["eval", "--verdicts", str(verdicts), "--test", str(leaked_test),
                   "--train", str(small_run["train"]), "--val", str(small_run["val"]),
                   "--out", str(tmp_path / "m.json")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "LeakageDetected"

    def test_rerun_rejects_changed_inputs(self, small_run, tmp_path, capsys):
        # copy artifacts so we can tamper without poisoning other tests
        import shutil

        raw2 = tmp_path / "raw2.log"
        shutil.copy(small_run["raw"], raw2)
        clean2 = tmp_path / "clean2.log"
        assert run_cli("clean", "--in", raw2, "--out", clean2) == 0
        raw2.write_text("tampered\n")
        rc = main(["rerun", "--manifest", manifest_path_for(clean2)])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DigestMismatch"

    def test_rerun_refuses_an_option_the_command_does_not_define(self, small_run, tmp_path, capsys):
        clean = tmp_path / "clean3.log"
        assert run_cli("clean", "--in", small_run["raw"], "--out", clean) == 0
        manifest = manifest_path_for(clean)
        doc = load_manifest(manifest)
        doc["options"]["split_compound"] = False
        with open(manifest, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        rc = main(["rerun", "--manifest", manifest])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalid"
        assert "split_compound" in err["message"]

    def test_eval_warns_when_truth_has_no_anomalies(self, tmp_path, capsys):
        test = tmp_path / "normals.tsv"
        test.write_text("a b\tnormal\nc d\tnormal\n")
        verdicts = tmp_path / "v.tsv"
        verdicts.write_text(f"# input={file_digest(test)}\n"
                            "source_id\tline_no\tscore\tthreshold\tlabel\n"
                            "normals.tsv\t0\t2.0\t1.0\tanomalous\n"
                            "normals.tsv\t1\t0.5\t1.0\tnormal\n")
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a Python warning escaping main fails the test
            assert main(["eval", "--verdicts", str(verdicts), "--test", str(test), "--out", str(out)]) == 0
        line = {"warning": NoAnomaliesInTruth.__name__, "message": "truth contains no anomalies; recall is vacuous"}
        assert capsys.readouterr().err == json.dumps(line) + "\n"
        assert load_manifest(manifest_path_for(out))["warnings"] == [line]
        doc = json.loads(out.read_text())
        assert doc["zero_division"] == ["recall", "f1"]

    def test_a_warning_then_a_refusal_prints_both(self, tmp_path, capsys):
        test = tmp_path / "normals.tsv"
        test.write_text("a b\tnormal\n")
        verdicts = tmp_path / "v.tsv"
        verdicts.write_text(f"# input={file_digest(test)}\n"
                            "source_id\tline_no\tscore\tthreshold\tlabel\n"
                            "normals.tsv\t0\t2.0\t1.0\tanomalous\n")
        out = tmp_path / "missing" / "m.json"  # metrics warn, then writing --out fails
        assert main(["eval", "--verdicts", str(verdicts), "--test", str(test), "--out", str(out)]) == 2
        warning, error = map(json.loads, capsys.readouterr().err.splitlines())
        assert warning["warning"] == NoAnomaliesInTruth.__name__
        assert error["error"] == "MissingInput"
        assert not out.parent.exists()

    def test_ablate_masking_prints_a_warning_once(self, small_run, tmp_path, capsys):
        test = _write(tmp_path / "normals.tsv", "".join(
            f"{text}\tnormal\n" for text in small_run["val"].read_text().splitlines()[:4]))
        out = tmp_path / "grid.tsv"
        assert run_cli("ablate-masking", "--checkpoint", small_run["ckpt"], "--vocab", small_run["vocab"],
                       "--val", small_run["val"], "--test", test, "--out", out,
                       "--strategies", "token,random0.15", "--percentiles", "90,95") == 0
        (line,) = capsys.readouterr().err.splitlines()  # four cells, one warning line
        assert json.loads(line)["warning"] == NoAnomaliesInTruth.__name__
        assert len(load_manifest(manifest_path_for(out))["warnings"]) == 1


def _write(path, text):
    path.write_text(text)
    return path


def _truncated_checkpoint(run, tmp):
    path = tmp / "truncated.ckpt"
    path.write_bytes(run["ckpt"].read_bytes()[:200])
    return ["score", "--in", run["val"], "--vocab", run["vocab"], "--checkpoint", path,
            "--out", tmp / "s.tsv"]


def _checkpoint_with_trailing_bytes(run, tmp):
    path = tmp / "trailing.ckpt"
    path.write_bytes(run["ckpt"].read_bytes() + b"\0" * 700)
    return ["score", "--in", run["val"], "--vocab", run["vocab"], "--checkpoint", path,
            "--out", tmp / "s.tsv"]


def _threshold_file(run, tmp, text):
    path = tmp / "t.json"
    path.write_text(text)
    return ["detect", "--scores", run["test_scores"], "--threshold", path, "--out", tmp / "v.tsv"]


def _threshold_with_unknown_key(run, tmp):
    doc = json.loads(run["threshold"].read_text())
    doc["bogus"] = 1
    return _threshold_file(run, tmp, json.dumps(doc))


def _checkpoint_without_config(run, tmp):
    path = tmp / "bare.ckpt"
    save_container(path, {"x": 1}, {})
    return ["score", "--in", run["val"], "--vocab", run["vocab"], "--checkpoint", path,
            "--out", tmp / "s.tsv"]


def _checkpoint_with_garbled_config(run, tmp):
    header, tensors = load_container(run["ckpt"])
    header["model.d_model"] = "abc"
    path = tmp / "garbled.ckpt"
    save_container(path, header, tensors)
    return ["score", "--in", run["val"], "--vocab", run["vocab"], "--checkpoint", path,
            "--out", tmp / "s.tsv"]


def _checkpoint_with_tensor(name, value):
    """Score with the run's checkpoint re-saved with tensor `name` replaced by `value` (None deletes it)."""

    def make(run, tmp):
        header, tensors = load_container(run["ckpt"])
        del tensors[name]
        if value is not None:
            tensors[name] = value
        path = tmp / "edited.ckpt"
        save_container(path, header, tensors)
        return ["score", "--in", run["val"], "--vocab", run["vocab"], "--checkpoint", path,
                "--out", tmp / "s.tsv"]

    return make


def _checkpoint_with_an_inf_weight(run, tmp):
    header, tensors = load_container(run["ckpt"])
    tensors["embed.token"][4, 0] = np.inf  # the first non-special token
    path = tmp / "inf.ckpt"
    save_container(path, header, tensors)
    return ["score", "--in", run["val"], "--vocab", run["vocab"], "--checkpoint", path, "--out", tmp / "s.tsv"]


def _vocab_without_specials(run, tmp):
    path = tmp / "vocab.txt"
    path.write_text("alpha\nbeta\ngamma\ndelta\nepsilon\n")
    return ["score", "--in", run["val"], "--vocab", path, "--checkpoint", run["ckpt"],
            "--out", tmp / "s.tsv"]


def _eval_of_val_verdicts_against_another_file(run, tmp):
    verdicts = tmp / "val_verdicts.tsv"
    assert run_cli("detect", "--scores", run["val_scores"], "--threshold", run["threshold"],
                   "--out", verdicts) == 0
    n_val = len(run["val"].read_text().splitlines())
    other = tmp / "other.tsv"  # a labeled file with as many rows as val.txt
    other.write_text("".join(run["test"].read_text().splitlines(keepends=True)[:n_val]))
    return ["eval", "--verdicts", verdicts, "--test", other, "--out", tmp / "m.json"]


def _eval_against_a_reordered_copy_of_test(run, tmp):
    other = tmp / "other" / run["test"].name  # same base name and row count, lines reversed
    other.parent.mkdir()
    other.write_text("".join(reversed(run["test"].read_text().splitlines(keepends=True))))
    return ["eval", "--verdicts", run["verdicts"], "--test", other, "--out", tmp / "m.json"]


def _eval_of_verdicts_without_input_digest(run, tmp):
    verdicts = tmp / "v.tsv"
    lines = run["verdicts"].read_text().splitlines(keepends=True)
    verdicts.write_text("".join(line for line in lines if not line.startswith("# input=")))
    return ["eval", "--verdicts", verdicts, "--test", run["test"], "--out", tmp / "m.json"]


def _ablate_finetune_with_another_vocab(run, tmp):
    vocab = tmp / "other_vocab.txt"
    vocab.write_text("[PAD]\n[UNK]\n[MASK]\n[CLS]\nalpha\n")
    return ["ablate-finetune", "--checkpoint", run["ckpt"], "--vocab", vocab, "--val", run["val"],
            "--test", run["test"], "--out", tmp / "ft.json"]


def _clean_with_short_labels(run, tmp):
    labels = tmp / "short.labels"
    labels.write_text(run["labels"].read_text().splitlines(keepends=True)[0])
    return ["clean", "--in", run["raw"], "--out", tmp / "c.log", "--labels", labels]


def _score_of_the_labeled_test_file_without_labeled(run, tmp):
    return ["score", "--in", run["test"], "--vocab", run["vocab"], "--checkpoint", run["ckpt"],
            "--out", tmp / "s.tsv"]


def _rerun_of(edit):
    """rerun of the run's val-score manifest as `edit` leaves its JSON document."""

    def make(run, tmp):
        path = tmp / "edited.manifest.json"
        path.write_text(json.dumps(edit(load_manifest(manifest_path_for(run["val_scores"])))))
        return ["rerun", "--manifest", path]

    return make


def _checkpoint_file(data: bytes):
    def make(run, tmp):
        path = tmp / "forged.ckpt"
        path.write_bytes(data)
        return ["score", "--in", run["val"], "--vocab", run["vocab"], "--checkpoint", path,
                "--out", tmp / "s.tsv"]

    return make


def _one_record(rank: int, *dims: int) -> bytes:
    """A container with an empty header and one record named "x" that claims `dims`, and no payload."""
    return (b"MLCKPT01" + struct.pack("<I", 0) + struct.pack("<I", 1) + struct.pack("<H", 1) + b"x"
            + struct.pack("<B", rank) + struct.pack(f"<{rank}I", *dims))


def _scores_with_repeats(text):
    def make(run, tmp):
        path = tmp / "s.tsv"
        lines = run["val_scores"].read_text().splitlines(keepends=True)
        path.write_text("".join(f"# repeats={text}\n" if line.startswith("# repeats=") else line for line in lines))
        return ["calibrate", "--scores", path, "--out", tmp / "t.json"]

    return make


def _unhashed_checkpoint_with_a_vocab_of_another_size(run, tmp):
    header, tensors = load_container(run["ckpt"])
    save_container(tmp / "unhashed.ckpt", {**header, "vocab_hash": ""}, tensors)
    vocab = _write(tmp / "other_vocab.txt", "[PAD]\n[UNK]\n[MASK]\n[CLS]\nalpha\n")
    return ["score", "--in", run["val"], "--vocab", vocab, "--checkpoint", tmp / "unhashed.ckpt",
            "--out", tmp / "s.tsv"]


def _rerun_after_an_input_was_deleted(run, tmp):
    scores = tmp / "copied_scores.tsv"
    scores.write_bytes(run["val_scores"].read_bytes())
    assert run_cli("calibrate", "--scores", scores, "--out", tmp / "t.json") == 0
    scores.unlink()
    return ["rerun", "--manifest", manifest_path_for(tmp / "t.json")]


def _threshold_with(**changes):
    def make(run, tmp):
        doc = json.loads(run["threshold"].read_text())
        doc.update(changes)
        return _threshold_file(run, tmp, json.dumps(doc))

    return make


BAD_INPUTS = {
    "model-dims": ("ConfigInvalid", lambda r, t: [
        "train", "--in", r["train"], "--vocab", r["vocab"], "--out", t / "m.ckpt",
        "--d-model", 10, "--n-heads", 4]),
    "percentile-0": ("ConfigInvalid", lambda r, t: [
        "calibrate", "--scores", r["val_scores"], "--out", t / "t.json", "--percentile", 0]),
    "mask-fraction-0": ("ConfigInvalid", lambda r, t: [
        "score", "--in", r["val"], "--vocab", r["vocab"], "--checkpoint", r["ckpt"],
        "--out", t / "s.tsv", "--mask-strategy", "random0"]),
    "truncated-checkpoint": ("MalformedInput", _truncated_checkpoint),
    "trailing-bytes-checkpoint": ("MalformedInput", _checkpoint_with_trailing_bytes),
    "threshold-not-json": ("MalformedInput", lambda r, t: _threshold_file(r, t, "{not json")),
    "threshold-unknown-key": ("ConfigInvalid", _threshold_with_unknown_key),
    "eval-unlabeled-test": ("MalformedInput", lambda r, t: [
        "eval", "--verdicts", r["verdicts"], "--test", r["val"], "--out", t / "m.json"]),
    "checkpoint-without-config": ("MalformedInput", _checkpoint_without_config),
    "checkpoint-config-not-a-number": ("MalformedInput", _checkpoint_with_garbled_config),
    "threshold-value-a-string": ("ConfigInvalid", _threshold_with(value="abc")),
    "threshold-percentile-nan": ("ConfigInvalid", _threshold_with(percentile=float("nan"))),
    "threshold-value-beyond-float-range": ("ConfigInvalid", _threshold_with(value=10**400)),
    "threshold-n-calibration-a-float": ("ConfigInvalid", _threshold_with(n_calibration=2.5)),
    "threshold-repeats-a-bool": ("ConfigInvalid", _threshold_with(repeats=True)),
    "threshold-digest-a-number": ("ConfigInvalid", _threshold_with(checkpoint_hash=5)),
    "checkpoint-missing-a-tensor": ("MalformedInput", _checkpoint_with_tensor("layers.1.ffn.w2", None)),
    "checkpoint-out-w-3x3": ("MalformedInput", _checkpoint_with_tensor("out.w", np.zeros((3, 3), np.float32))),
    "vocab-without-specials": ("MalformedInput", _vocab_without_specials),
    "eval-verdicts-of-another-file": ("MalformedInput", _eval_of_val_verdicts_against_another_file),
    "eval-reordered-test-of-the-same-name": ("DigestMismatch", _eval_against_a_reordered_copy_of_test),
    "eval-verdicts-without-input-digest": ("MalformedInput", _eval_of_verdicts_without_input_digest),
    "ablate-finetune-other-vocab": ("VocabMismatch", _ablate_finetune_with_another_vocab),
    "clean-short-labels": ("LengthMismatch", _clean_with_short_labels),
    "unknown-flag": ("ConfigInvalid", lambda r, t: ["calibrate", "--no-such-flag", 1]),
    "score-labeled-file-without-labeled": ("MalformedInput", _score_of_the_labeled_test_file_without_labeled),
    "manifest-a-json-list": ("MalformedInput", _rerun_of(lambda doc: [doc])),
    "manifest-without-options": ("MalformedInput", _rerun_of(
        lambda doc: {k: v for k, v in doc.items() if k != "options"})),
    "manifest-inputs-a-list": ("MalformedInput", _rerun_of(lambda doc: {**doc, "inputs": []})),
    "manifest-command-a-list": ("MalformedInput", _rerun_of(lambda doc: {**doc, "command": ["x"]})),
    "checkpoint-record-past-the-end": ("MalformedInput", _checkpoint_file(_one_record(2, 2**20, 2**20))),
    "checkpoint-record-count-beyond-int64": ("MalformedInput", _checkpoint_file(_one_record(3, 2**31, 3, 2**32 - 1))),
    "checkpoint-record-2e31-by-3": ("MalformedInput", _checkpoint_file(_one_record(2, 2**31, 3))),
    "scores-repeats-not-an-int": ("MalformedInput", _scores_with_repeats("two")),
    "config-value-of-another-type": ("ConfigInvalid", lambda r, t: [
        "calibrate", "--config", _write(t / "c.json", '{"percentile": "90"}'), "--scores", r["val_scores"],
        "--out", t / "t.json"]),
    "badly-typed-flag": ("ConfigInvalid", lambda r, t: ["synth", "--seed", "abc"]),
    "heatmap-of-an-empty-file": ("EmptyCorpus", lambda r, t: [
        "heatmap", "--in", _write(t / "empty.txt", ""), "--vocab", r["vocab"], "--checkpoint", r["ckpt"],
        "--out", t / "h.tsv"]),
    "build-vocab-max-vocab-4": ("ConfigInvalid", lambda r, t: [
        "build-vocab", "--in", r["train"], "--out", t / "v.txt", "--max-vocab", 4]),
    "score-repeats-0": ("ConfigInvalid", lambda r, t: [
        "score", "--in", r["val"], "--vocab", r["vocab"], "--checkpoint", r["ckpt"], "--out", t / "s.tsv",
        "--repeats", 0]),
    "ablate-masking-repeats-0": ("ConfigInvalid", lambda r, t: [
        "ablate-masking", "--checkpoint", r["ckpt"], "--vocab", r["vocab"], "--val", r["val"], "--test", r["test"],
        "--out", t / "grid.tsv", "--repeats", 0]),
    "train-learning-rate-negative": ("ConfigInvalid", lambda r, t: [
        "train", "--in", r["train"], "--vocab", r["vocab"], "--out", t / "m.ckpt", "--learning-rate", -0.003]),
    "train-weight-decay-negative": ("ConfigInvalid", lambda r, t: [
        "train", "--in", r["train"], "--vocab", r["vocab"], "--out", t / "m.ckpt", "--weight-decay", -1.0]),
    "train-warmup-steps-negative": ("ConfigInvalid", lambda r, t: [
        "train", "--in", r["train"], "--vocab", r["vocab"], "--out", t / "m.ckpt", "--warmup-steps", -5]),
    "train-learning-rate-nan": ("ConfigInvalid", lambda r, t: [
        "train", "--in", r["train"], "--vocab", r["vocab"], "--out", t / "m.ckpt", "--learning-rate", "nan"]),
    "train-learning-rate-inf": ("ConfigInvalid", lambda r, t: [
        "train", "--in", r["train"], "--vocab", r["vocab"], "--out", t / "m.ckpt", "--learning-rate", "inf"]),
    "train-weight-decay-nan": ("ConfigInvalid", lambda r, t: [
        "train", "--in", r["train"], "--vocab", r["vocab"], "--out", t / "m.ckpt", "--weight-decay", "nan"]),
    "train-grad-clip-nan": ("ConfigInvalid", lambda r, t: [
        "train", "--in", r["train"], "--vocab", r["vocab"], "--out", t / "m.ckpt", "--grad-clip", "nan"]),
    "train-grad-clip-minus-inf": ("ConfigInvalid", lambda r, t: [
        "train", "--in", r["train"], "--vocab", r["vocab"], "--out", t / "m.ckpt", "--grad-clip=-inf"]),
    "score-token-repeats-5": ("ConfigInvalid", lambda r, t: [
        "score", "--in", r["val"], "--vocab", r["vocab"], "--checkpoint", r["ckpt"], "--out", t / "s.tsv",
        "--mask-strategy", "token", "--repeats", 5]),
    "synth-normal-negative": ("ConfigInvalid", lambda r, t: [
        "synth", "--out", t / "raw.log", "--labels-out", t / "raw.labels", "--normal", -5]),
    "synth-anomalies-negative": ("ConfigInvalid", lambda r, t: [
        "synth", "--out", t / "raw.log", "--labels-out", t / "raw.labels", "--anomalies", -3]),
    "synth-no-lines": ("ConfigInvalid", lambda r, t: [
        "synth", "--out", t / "raw.log", "--labels-out", t / "raw.labels", "--normal", 0, "--anomalies", 0]),
    "detect-threshold-of-another-strategy": ("DigestMismatch", _threshold_with(strategy="token")),
    "detect-threshold-of-other-repeats": ("DigestMismatch", _threshold_with(repeats=3)),
    "ablate-masking-no-strategies": ("ConfigInvalid", lambda r, t: [
        "ablate-masking", "--checkpoint", t / "never-read.ckpt", "--vocab", r["vocab"], "--val", r["val"],
        "--test", r["test"], "--out", t / "grid.tsv", "--strategies", ""]),
    "ablate-masking-no-percentiles": ("ConfigInvalid", lambda r, t: [
        "ablate-masking", "--checkpoint", t / "never-read.ckpt", "--vocab", r["vocab"], "--val", r["val"],
        "--test", r["test"], "--out", t / "grid.tsv", "--percentiles", ""]),
    "score-threads-0": ("ConfigInvalid", lambda r, t: [
        "score", "--in", r["val"], "--vocab", r["vocab"], "--checkpoint", r["ckpt"], "--out", t / "s.tsv",
        "--threads", 0]),
    "score-threads-negative": ("ConfigInvalid", lambda r, t: [
        "score", "--in", r["val"], "--vocab", r["vocab"], "--checkpoint", r["ckpt"], "--out", t / "s.tsv",
        "--threads", -3]),
    "score-of-an-empty-file": ("EmptyCorpus", lambda r, t: [
        "score", "--in", _write(t / "empty.txt", ""), "--vocab", r["vocab"], "--checkpoint", r["ckpt"],
        "--out", t / "s.tsv"]),
    "ablate-masking-repeated-strategy": ("ConfigInvalid", lambda r, t: [
        "ablate-masking", "--checkpoint", t / "never-read.ckpt", "--vocab", r["vocab"], "--val", r["val"],
        "--test", r["test"], "--out", t / "grid.tsv", "--strategies", "token,random,random0.15"]),
    "ablate-masking-repeated-percentile": ("ConfigInvalid", lambda r, t: [
        "ablate-masking", "--checkpoint", t / "never-read.ckpt", "--vocab", r["vocab"], "--val", r["val"],
        "--test", r["test"], "--out", t / "grid.tsv", "--percentiles", "90,95,90.0"]),
    # Option values refused while the options are parsed: each names a file that does not exist.
    "ablate-masking-repeats-3-with-token": ("ConfigInvalid", lambda r, t: [
        "ablate-masking", "--checkpoint", t / "never-read.ckpt", "--vocab", r["vocab"], "--val", r["val"],
        "--test", r["test"], "--out", t / "grid.tsv", "--repeats", 3]),
    "ablate-masking-percentile-0": ("ConfigInvalid", lambda r, t: [
        "ablate-masking", "--checkpoint", t / "never-read.ckpt", "--vocab", r["vocab"], "--val", r["val"],
        "--test", r["test"], "--out", t / "grid.tsv", "--percentiles", 0]),
    "ablate-masking-percentile-nan": ("ConfigInvalid", lambda r, t: [
        "ablate-masking", "--checkpoint", t / "never-read.ckpt", "--vocab", r["vocab"], "--val", r["val"],
        "--test", r["test"], "--out", t / "grid.tsv", "--percentiles", "nan"]),
    "ablate-finetune-percentile-101": ("ConfigInvalid", lambda r, t: [
        "ablate-finetune", "--checkpoint", t / "never-read.ckpt", "--vocab", r["vocab"], "--val", r["val"],
        "--test", r["test"], "--out", t / "ft.json", "--percentile", 101]),
    "calibrate-percentile-0-before-reading": ("ConfigInvalid", lambda r, t: [
        "calibrate", "--scores", t / "never-read.tsv", "--out", t / "t.json", "--percentile", 0]),
    "synth-seed-negative": ("ConfigInvalid", lambda r, t: [
        "synth", "--out", t / "raw.log", "--labels-out", t / "raw.labels", "--seed", -1]),
    "split-seed-negative-before-reading": ("ConfigInvalid", lambda r, t: [
        "split", "--in", t / "never-read.log", "--labels", t / "never-read.labels", "--out-dir", t / "splits",
        "--seed", -1]),
    "train-seed-negative-before-reading": ("ConfigInvalid", lambda r, t: [
        "train", "--in", r["train"], "--vocab", t / "never-read.txt", "--out", t / "m.ckpt", "--seed", -1]),
    "score-seed-negative-before-reading": ("ConfigInvalid", lambda r, t: [
        "score", "--in", r["val"], "--vocab", r["vocab"], "--checkpoint", t / "never-read.ckpt",
        "--out", t / "s.tsv", "--seed", -1]),
    "ablate-masking-seed-negative-before-reading": ("ConfigInvalid", lambda r, t: [
        "ablate-masking", "--checkpoint", t / "never-read.ckpt", "--vocab", r["vocab"], "--val", r["val"],
        "--test", r["test"], "--out", t / "grid.tsv", "--seed", -1]),
    **{f"train-{flag}-0-before-reading": ("ConfigInvalid", lambda r, t, flag=flag: [
        "train", "--in", t / "never-read.txt", "--vocab", t / "never-read.vocab", "--out", t / "m.ckpt",
        f"--{flag}", 0]) for flag in ("d-model", "n-heads", "n-layers", "d-ff", "max-len", "epochs", "batch-size")},
    "train-max-len-1-before-reading": ("ConfigInvalid", lambda r, t: [
        "train", "--in", t / "never-read.txt", "--vocab", t / "never-read.vocab", "--out", t / "m.ckpt",
        "--max-len", 1]),
    "synth-templates-1": ("ConfigInvalid", lambda r, t: [
        "synth", "--out", t / "raw.log", "--labels-out", t / "raw.labels", "--templates", 1]),
    **{f"score-mask-strategy-{text}-before-reading": ("ConfigInvalid", lambda r, t, text=text: [
        "score", "--in", t / "never-read.txt", "--vocab", t / "never-read.vocab", "--checkpoint",
        t / "never-read.ckpt", "--out", t / "s.tsv", "--mask-strategy", text]) for text in ("foo", "randomnan")},
    "train-mask-fraction-1.5-before-reading": ("ConfigInvalid", lambda r, t: [
        "train", "--in", t / "never-read.txt", "--vocab", t / "never-read.vocab", "--out", t / "m.ckpt",
        "--mask-fraction", 1.5]),
    "train-d-model-10-n-heads-4-before-reading": ("ConfigInvalid", lambda r, t: [
        "train", "--in", t / "never-read.txt", "--vocab", t / "never-read.vocab", "--out", t / "m.ckpt",
        "--d-model", 10, "--n-heads", 4]),
    "score-threads-0-before-reading": ("ConfigInvalid", lambda r, t: [
        "score", "--in", t / "never-read.txt", "--vocab", t / "never-read.vocab", "--checkpoint",
        t / "never-read.ckpt", "--out", t / "s.tsv", "--threads", 0]),
    "score-without-out": ("MissingInput", lambda r, t: [
        "score", "--in", r["val"], "--vocab", r["vocab"], "--checkpoint", r["ckpt"]]),
    "score-unhashed-checkpoint-with-a-vocab-of-another-size": (
        "VocabMismatch", _unhashed_checkpoint_with_a_vocab_of_another_size),
    "manifest-of-an-unknown-command": ("ConfigInvalid", _rerun_of(lambda doc: {**doc, "command": "nope"})),
    "rerun-after-an-input-was-deleted": ("MissingInput", _rerun_after_an_input_was_deleted),
    "build-vocab-min-freq-0": ("ConfigInvalid", lambda r, t: [
        "build-vocab", "--in", r["train"], "--out", t / "v.txt", "--min-freq", 0]),
    # Training that overflows float32 on its first step.
    "train-learning-rate-1e308": ("DivergenceDetected", lambda r, t: [
        "train", "--in", r["train"], "--vocab", r["vocab"], "--out", t / "m.ckpt", "--learning-rate", 1e308]),
    "train-weight-decay-1e308": ("DivergenceDetected", lambda r, t: [
        "train", "--in", r["train"], "--vocab", r["vocab"], "--out", t / "m.ckpt", "--weight-decay", 1e308]),
    # numpy warns of the overflow before the forward's own check: the warning is the one error line.
    "score-of-a-checkpoint-with-an-inf-weight": ("NonFiniteActivation", _checkpoint_with_an_inf_weight),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_gives_one_typed_json_error_line(case, small_run, tmp_path, capsys):
    expected, make_argv = BAD_INPUTS[case]
    rc = main([str(a) for a in make_argv(small_run, tmp_path)])
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == expected


def test_score_of_an_empty_file_writes_nothing(small_run, tmp_path, capsys):
    _, make_argv = BAD_INPUTS["score-of-an-empty-file"]
    assert main([str(a) for a in make_argv(small_run, tmp_path)]) == 2
    assert not (tmp_path / "s.tsv").exists()


@pytest.mark.parametrize("case, option, value", [
    ("ablate-masking-repeated-strategy", "--strategies", "'random0.15'"),
    ("ablate-masking-repeated-percentile", "--percentiles", "90.0"),
])
def test_ablate_masking_names_the_repeated_value(small_run, tmp_path, capsys, case, option, value):
    _, make_argv = BAD_INPUTS[case]
    assert main([str(a) for a in make_argv(small_run, tmp_path)]) == 2
    message = json.loads(capsys.readouterr().err.strip())["message"]
    assert option in message and value in message


@pytest.mark.parametrize("case, option, written", [
    ("ablate-masking-repeats-3-with-token", "--repeats", ["grid.tsv"]),
    ("ablate-masking-percentile-0", "--percentiles", ["grid.tsv"]),
    ("ablate-masking-percentile-nan", "--percentiles", ["grid.tsv"]),
    ("ablate-finetune-percentile-101", "--percentile", ["ft.json"]),
    ("calibrate-percentile-0-before-reading", "--percentile", ["t.json"]),
    ("synth-seed-negative", "--seed", ["raw.log", "raw.labels"]),
    ("split-seed-negative-before-reading", "--seed", ["splits"]),
    ("train-seed-negative-before-reading", "--seed", ["m.ckpt", "m.ckpt.log.tsv"]),
    ("score-seed-negative-before-reading", "--seed", ["s.tsv"]),
    ("ablate-masking-seed-negative-before-reading", "--seed", ["grid.tsv"]),
    *((f"train-{flag}-0-before-reading", f"--{flag}", ["m.ckpt", "m.ckpt.log.tsv"])
      for flag in ("d-model", "n-heads", "n-layers", "d-ff", "max-len")),
    ("train-max-len-1-before-reading", "--max-len", ["m.ckpt", "m.ckpt.log.tsv"]),
    ("train-epochs-0-before-reading", "--epochs", ["m.ckpt", "m.ckpt.log.tsv"]),
    ("train-batch-size-0-before-reading", "--batch-size", ["m.ckpt", "m.ckpt.log.tsv"]),
    ("synth-templates-1", "templates", ["raw.log", "raw.labels"]),
    ("score-mask-strategy-foo-before-reading", "--mask-strategy", ["s.tsv"]),
    ("score-mask-strategy-randomnan-before-reading", "--mask-strategy", ["s.tsv"]),
    ("train-mask-fraction-1.5-before-reading", "mask_fraction", ["m.ckpt", "m.ckpt.log.tsv"]),
    ("build-vocab-min-freq-0", "min_freq", ["v.txt"]),
    ("train-d-model-10-n-heads-4-before-reading", "--n-heads", ["m.ckpt", "m.ckpt.log.tsv"]),
    ("score-threads-0-before-reading", "--threads", ["s.tsv"]),
    ("train-learning-rate-1e308", "non-finite weights", ["m.ckpt", "m.ckpt.log.tsv"]),
    ("train-weight-decay-1e308", "non-finite weights", ["m.ckpt", "m.ckpt.log.tsv"]),
])
def test_refusal_names_its_cause_and_writes_nothing(small_run, tmp_path, capsys, case, option, written):
    _, make_argv = BAD_INPUTS[case]
    assert main([str(a) for a in make_argv(small_run, tmp_path)]) == 2
    assert option in json.loads(capsys.readouterr().err.strip())["message"]
    assert not [name for name in written if (tmp_path / name).exists()]


def test_main_raises_numpy_warnings_itself(small_run, tmp_path, capsys):
    # The suite turns every RuntimeWarning into an error; main must do so without that filter too.
    _, make_argv = BAD_INPUTS["score-of-a-checkpoint-with-an-inf-weight"]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main([str(a) for a in make_argv(small_run, tmp_path)]) == 2
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["error"] == "NonFiniteActivation"


def test_command_defaults_are_the_library_defaults():
    """Each default that `_COMMANDS` writes again, and does not take from a config class, is the library's own."""

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    library = {
        "build-vocab": {"min_freq": default(build_vocab, "min_freq"), "max_vocab": default(build_vocab, "max_size")},
        "calibrate": {"percentile": default(select_threshold, "percentile")},
        "score": {"seed": default(score_corpus, "seed"), "threads": default(score_corpus, "threads")},
        "ablate-masking": {"seed": default(ablate_masking, "seed")},
        "ablate-finetune": {"mask_strategy": default(ablate_finetune, "strategy").describe(),
                            "percentile": default(ablate_finetune, "percentile"),
                            "seed": default(ablate_finetune, "seed")},
    }
    for name, theirs in library.items():
        ours = cli._COMMANDS[name]["defaults"]
        assert {k: ours[k] for k in theirs} == theirs, name


# Every settable value of each command, as its flag name; `--config` aside.
OPTION_SURFACE = {
    "synth": "anomalies labels-out normal out seed templates",
    "clean": "in labels labels-out out report",
    "build-vocab": "in max-vocab min-freq out",
    "split": "in labels out-dir seed",
    "train": "batch-size d-ff d-model epochs grad-clip in learning-rate log mask-fraction max-len "
             "n-heads n-layers out seed vocab warmup-steps weight-decay",
    "score": "checkpoint in labeled mask-strategy out repeats seed threads vocab",
    "calibrate": "out percentile scores",
    "detect": "out scores threshold",
    "eval": "out test train val verdicts",
    "ablate-masking": "checkpoint out percentiles repeats seed strategies test val vocab",
    "ablate-finetune": "checkpoint mask-strategy out percentile seed test val vocab",
    "heatmap": "checkpoint in labeled out vocab",
    "rerun": "manifest",
}


def test_option_surface_lists_every_settable_value():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: sorted(a.option_strings[0][2:] for a in sub._actions if a.dest not in ("help", "config"))
        for name, sub in commands.choices.items()
    }
    assert found == {name: sorted(flags.split()) for name, flags in OPTION_SURFACE.items()}
    assert sum(len(flags) for name, flags in found.items() if name != "rerun") == 78


_EXTREMES = ("0", "-1", "nan", "inf", "-inf", "1e308", str(2**70))
# Every command's int and float options at each extreme.
_NUMERIC_OPTIONS = [
    (name, key, value)
    for name, cmd in cli._COMMANDS.items()
    for key, default in cmd["defaults"].items() if type(default) in (int, float)
    for value in _EXTREMES
]
# The count options with an upper bound, far above each default: 2**70 is refused by name before any read.
_BOUNDED = {"d_model", "n_heads", "n_layers", "d_ff", "max_len", "epochs", "batch_size", "repeats", "threads"}


@pytest.mark.parametrize("name, key, value", _NUMERIC_OPTIONS)
def test_every_numeric_option_is_refused_by_name_or_reaches_a_missing_input(tmp_path, capsys, name, key, value):
    """Every path points into a missing directory: the value is refused, naming its option, or no work starts."""
    missing = tmp_path / "missing"
    paths = [f"{'--in' if p == 'in_' else '--' + p.replace('_', '-')}={missing / p}"
             for p in cli._COMMANDS[name]["paths"]]
    flag = "--" + key.replace("_", "-")
    assert main([name, *paths, f"{flag}={value}"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "MissingInput" or (
        err["error"] == "ConfigInvalid" and (flag in err["message"] or key in err["message"])), err
    if key in _BOUNDED and value == str(2**70):
        assert err["error"] == "ConfigInvalid" and flag in err["message"], err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 8.00 TiB for an array"), MemoryError()],
                         ids=["numpy-message", "bare"])
def test_a_memory_error_is_one_typed_line(tmp_path, capsys, monkeypatch, error):
    """A run that cannot allocate exits 2 with one `OutOfMemory` line; the runner raises, nothing is allocated."""

    def runner(opts):
        raise error

    monkeypatch.setitem(cli._COMMANDS["train"], "runner", runner)
    assert main(["train", "--in", str(tmp_path / "in"), "--vocab", str(tmp_path / "v"),
                 "--out", str(tmp_path / "m.ckpt")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "OutOfMemory" and err["error"] in _ERROR_NAMES, err
    assert err["message"] == (str(error) or "out of memory")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key, value", [
    ("min_freq", 0), ("min_freq", -1), ("max_vocab", 4), ("max_vocab", 0), ("max_vocab", -1),
])
def test_build_vocab_refuses_its_bounds_before_reading(tmp_path, capsys, key, value):
    flag = "--" + key.replace("_", "-")
    missing = tmp_path / "missing"
    assert main(["build-vocab", f"--in={missing / 'in'}", f"--out={missing / 'v.txt'}", f"{flag}={value}"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigInvalid" and key in err["message"], err


@pytest.mark.parametrize("command, old_options, key", [
    ("heatmap", {"threads": 1}, "threads"),
    ("score", {"mask_strategy": "random", "mask_fraction": 0.15}, "mask_fraction"),
])
def test_rerun_refuses_a_manifest_with_a_deleted_option(small_run, tmp_path, capsys, command, old_options, key):
    out = tmp_path / f"{command}.tsv"
    assert run_cli(command, "--in", small_run["val"], "--vocab", small_run["vocab"],
                   "--checkpoint", small_run["ckpt"], "--out", out) == 0
    doc = load_manifest(manifest_path_for(out))
    doc["options"].update(old_options)
    old = _write(tmp_path / "old.manifest.json", json.dumps(doc))
    assert main(["rerun", "--manifest", str(old)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigInvalid" and repr(key) in err["message"]


def test_train_refuses_the_deleted_dropout_option(small_run, tmp_path, capsys):
    config = _write(tmp_path / "c.json", '{"dropout": 0.1}')
    doc = load_manifest(manifest_path_for(small_run["ckpt"]))
    doc["options"]["dropout"] = 0.0
    old = _write(tmp_path / "old.manifest.json", json.dumps(doc))
    for argv in (["train", "--config", config, "--in", small_run["train"], "--vocab", small_run["vocab"],
                  "--out", tmp_path / "m.ckpt"], ["rerun", "--manifest", old]):
        assert main([str(a) for a in argv]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigInvalid" and "'dropout'" in err["message"]
    assert not (tmp_path / "m.ckpt").exists()


def test_a_checkpoint_with_a_dropout_rate_header_loads_and_scores_the_same(small_run, tmp_path):
    """A checkpoint written while the model had a dropout rate (always 0.0) differs only by that header line."""
    header, tensors = load_container(small_run["ckpt"])
    assert "model.dropout_rate" not in header
    old_path = tmp_path / "old.ckpt"
    save_container(old_path, {**header, "model.dropout_rate": "0.0"}, tensors)
    ckpt, old = load_checkpoint(small_run["ckpt"]), load_checkpoint(old_path)
    assert old.digest() == ckpt.digest()
    save_checkpoint(old, tmp_path / "resaved.ckpt")
    assert file_digest(tmp_path / "resaved.ckpt") == file_digest(small_run["ckpt"])
    vocab = load_vocab(small_run["vocab"])
    for i, text in enumerate(load_lines(small_run["val"])[:20]):
        seq = encode(CleanLog(text=text, raw_ref=("val.txt", i)), vocab, ckpt.model_config.max_len)
        want, got = (score_log(c, seq, MaskingStrategy(), seed=i) for c in (ckpt, old))
        assert (got.score, got.token_probs) == (want.score, want.token_probs)


_ERROR_NAMES = {n for n, c in vars(errors).items() if isinstance(c, type) and issubclass(c, errors.MasklogError)}

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _edited_json(doc: dict):
    """`doc` with one top-level key dropped or given another JSON value, or another JSON value in its place."""
    keys = sorted(doc)
    dropped = st.sampled_from(keys).map(lambda k: {n: v for n, v in doc.items() if n != k})
    swapped = st.tuples(st.sampled_from(keys), _JSON_VALUES).map(lambda kv: {**doc, kv[0]: kv[1]})
    return st.one_of(dropped, swapped, _JSON_VALUES).map(lambda d: json.dumps(d).encode())


def _damaged(own: bytes, others: list):
    """A file cut at a random byte, random bytes, non-UTF-8 bytes, an empty file or another artifact's file."""
    kinds = [
        st.integers(0, len(own)).map(lambda n: own[:n]),
        st.binary(max_size=300),
        st.integers(0, len(own)).map(lambda n: own[:n] + b"\xff\xfe" + own[n:]),
        st.just(b""),
        st.sampled_from(others),
    ]
    try:
        doc = json.loads(own)
    except ValueError:  # not JSON text
        doc = None
    if isinstance(doc, dict):
        kinds.append(_edited_json(doc))
    return st.one_of(kinds)


@pytest.fixture(scope="module")
def fuzz_files(small_run, tmp_path_factory):
    """Per reader: its own file's bytes, every reader's file's bytes, its command line, and a work directory."""
    root = tmp_path_factory.mktemp("fuzz")
    r = small_run
    threshold = root / "threshold.json"
    assert run_cli("calibrate", "--scores", r["val_scores"], "--out", threshold) == 0
    readers = {
        "scores": (r["val_scores"], lambda f: ["calibrate", "--scores", f, "--out", root / "t.json"]),
        "verdicts": (r["verdicts"], lambda f: ["eval", "--verdicts", f, "--test", r["test"], "--out", root / "m.json"]),
        "threshold": (threshold, lambda f: ["detect", "--scores", r["test_scores"], "--threshold", f,
                                            "--out", root / "v.tsv"]),
        "checkpoint": (r["ckpt"], lambda f: ["score", "--in", r["val"], "--vocab", r["vocab"], "--checkpoint", f,
                                             "--out", root / "s.tsv"]),
        "vocabulary": (r["vocab"], lambda f: ["score", "--in", r["val"], "--vocab", f, "--checkpoint", r["ckpt"],
                                              "--out", root / "s.tsv"]),
        "labeled text": (r["test"], lambda f: ["score", "--in", f, "--labeled", "--vocab", r["vocab"],
                                               "--checkpoint", r["ckpt"], "--out", root / "s.tsv"]),
        "manifest": (manifest_path_for(threshold), lambda f: ["rerun", "--manifest", f]),
        "config": (_write(root / "c.json", '{"percentile": 80.0}'),
                   lambda f: ["calibrate", "--config", f, "--scores", r["val_scores"], "--out", root / "t.json"]),
    }
    own = {name: Path(path).read_bytes() for name, (path, _) in readers.items()}
    return {name: (own[name], list(own.values()), argv, root) for name, (_, argv) in readers.items()}


@pytest.mark.parametrize("reader", ["scores", "verdicts", "threshold", "checkpoint", "vocabulary", "labeled text",
                                    "manifest", "config"])
def test_every_reader_refuses_a_damaged_file_with_one_typed_error(fuzz_files, reader, monkeypatch):
    own, others, make_argv, root = fuzz_files[reader]
    monkeypatch.chdir(root)  # where a relative path in an edited manifest or config lands
    path = root / "fuzzed"

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=_damaged(own, others))
    def run(data):
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([str(a) for a in make_argv(path)])
        lines = err.getvalue().splitlines()
        assert (rc, len(lines)) in ((0, 0), (2, 1)), (rc, lines)
        if rc:
            assert json.loads(lines[0])["error"] in _ERROR_NAMES, lines

    run()


def test_threshold_reader_accepts_integral_floats(small_run, tmp_path):
    doc = json.loads(small_run["threshold"].read_text())
    doc.update(value=3, percentile=90)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    t = read_threshold(path)
    assert (t.value, t.percentile) == (3.0, 90.0)
    assert isinstance(t.value, float) and isinstance(t.percentile, float)


def test_python_dash_m_runs_the_cli_from_a_source_tree(tmp_path):
    src = str(Path(masklog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "masklog", "build-vocab", "--in", str(tmp_path / "absent.txt"),
         "--out", str(tmp_path / "v.txt")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "MissingInput"
