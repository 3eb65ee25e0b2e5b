import json

import numpy as np
import pytest

from masklog.cli import main, read_scores, read_threshold, read_verdicts
from masklog.errors import NoAnomaliesInTruth
from masklog.manifest import file_digest, load_manifest, manifest_path_for

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
        assert t.checkpoint_hash == meta["checkpoint"]

    def test_detect_matches_rowwise_rule(self, small_run):
        t = read_threshold(small_run["threshold"])
        _, scores = read_scores(small_run["test_scores"])
        _, verdicts = read_verdicts(small_run["verdicts"])
        assert len(scores) == len(verdicts)
        for s, v in zip(scores, verdicts):
            assert v["label"] == ("anomalous" if s["score"] > t.value else "normal")

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


class TestRerunAndThreads:
    def test_rerun_is_byte_identical(self, small_run):
        before = file_digest(small_run["val_scores"])
        manifest = manifest_path_for(small_run["val_scores"])
        assert run_cli("rerun", "--manifest", manifest) == 0
        assert file_digest(small_run["val_scores"]) == before

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
        assert run_cli("ablate-finetune", "--train", small_run["train"], "--val", small_run["val"],
                       "--test", small_run["test"], "--vocab", small_run["vocab"], "--out", out,
                       "--epochs", 4, "--d-model", 32, "--d-ff", 48, "--max-len", 48,
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

    def test_eval_warns_when_truth_has_no_anomalies(self, tmp_path):
        test = tmp_path / "normals.tsv"
        test.write_text("a b\tnormal\nc d\tnormal\n")
        verdicts = tmp_path / "v.tsv"
        verdicts.write_text("source_id\tline_no\tscore\tthreshold\tlabel\n"
                            "normals.tsv\t0\t2.0\t1.0\tanomalous\n"
                            "normals.tsv\t1\t0.5\t1.0\tnormal\n")
        out = tmp_path / "m.json"
        with pytest.warns(NoAnomaliesInTruth):
            assert main(["eval", "--verdicts", str(verdicts), "--test", str(test), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["zero_division"] == ["recall", "f1"]


def _truncated_checkpoint(run, tmp):
    path = tmp / "truncated.ckpt"
    path.write_bytes(run["ckpt"].read_bytes()[:200])
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


BAD_INPUTS = {
    "model-dims": ("ConfigInvalid", lambda r, t: [
        "train", "--in", r["train"], "--vocab", r["vocab"], "--out", t / "m.ckpt",
        "--d-model", 10, "--n-heads", 4]),
    "percentile-0": ("ConfigInvalid", lambda r, t: [
        "calibrate", "--scores", r["val_scores"], "--out", t / "t.json", "--percentile", 0]),
    "mask-fraction-0": ("ConfigInvalid", lambda r, t: [
        "score", "--in", r["val"], "--vocab", r["vocab"], "--checkpoint", r["ckpt"],
        "--out", t / "s.tsv", "--mask-fraction", 0]),
    "truncated-checkpoint": ("MalformedInput", _truncated_checkpoint),
    "threshold-not-json": ("MalformedInput", lambda r, t: _threshold_file(r, t, "{not json")),
    "threshold-unknown-key": ("ConfigInvalid", _threshold_with_unknown_key),
    "eval-unlabeled-test": ("MalformedInput", lambda r, t: [
        "eval", "--verdicts", r["verdicts"], "--test", r["val"], "--out", t / "m.json"]),
    "unknown-flag": ("ConfigInvalid", lambda r, t: ["calibrate", "--no-such-flag", 1]),
    "badly-typed-flag": ("ConfigInvalid", lambda r, t: ["synth", "--seed", "abc"]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_gives_one_typed_json_error_line(case, small_run, tmp_path, capsys):
    expected, make_argv = BAD_INPUTS[case]
    rc = main([str(a) for a in make_argv(small_run, tmp_path)])
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == expected
