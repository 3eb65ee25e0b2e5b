"""Command-line surface tying the pipeline together.

Every command validates its inputs, writes its artifacts plus a run manifest
(JSON sidecar next to the first output), and exits nonzero with one
machine-readable error line on stderr when something is wrong. All randomness
flows from the command's single --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .calibrate import Threshold, select_threshold
from .corpus import (
    LABEL_ANOMALOUS,
    LABEL_NORMAL,
    canon_label,
    dedupe,
    load_labeled,
    load_lines,
    split_corpus,
    synthesize,
    write_labeled,
    write_lines,
)
from .detect import (
    ablate_finetune,
    ablate_masking,
    assert_no_leakage,
    classify,
    metrics_from_counts,
    confusion_counts,
)
from .errors import (
    ConfigInvalid,
    DigestMismatch,
    LengthMismatch,
    MasklogError,
    MissingInput,
    VocabMismatch,
)
from .manifest import digest_map, load_manifest, verify_inputs, write_manifest
from .masking import MaskingStrategy
from .model import ModelConfig
from .normalize import CleanLog, DEFAULT_CONFIG, NormalizationConfig, clean_lines
from .score import heatmap as compute_heatmap
from .score import score_corpus
from .train import TrainConfig, load_checkpoint, save_checkpoint, train
from .vocab import build_vocab, encode, load_vocab, save_vocab


def _fmt(x) -> str:
    return repr(float(x))


def _dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _require(opts, *keys) -> None:
    for key in keys:
        if not opts.get(key):
            raise MissingInput(f"option --{key.replace('_', '-')} is required")


def _load_clean_seqs(path, vocab, max_len, labeled=False):
    name = os.path.basename(str(path))
    if labeled:
        texts, labels = load_labeled(path)
    else:
        texts, labels = load_lines(path), None
    seqs = [
        encode(CleanLog(text=t, raw_ref=(name, i)), vocab, max_len) for i, t in enumerate(texts)
    ]
    return texts, seqs, labels


# ---------------------------------------------------------------------------
# artifact formats


def write_scores(path, reports, meta: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key in sorted(meta):
            f.write(f"# {key}={meta[key]}\n")
        f.write("source_id\tline_no\tscore\tmasked_count\tstrategy\n")
        for r in reports:
            sid, line_no = r.raw_ref
            f.write(f"{sid}\t{line_no}\t{_fmt(r.score)}\t{r.masked_count}\t{r.strategy.describe()}\n")


def read_scores(path):
    meta, rows = {}, []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
                continue
            if line.startswith("source_id\t") or not line:
                continue
            sid, line_no, score, masked_count, strategy = line.split("\t")
            rows.append(
                {
                    "source_id": sid,
                    "line_no": int(line_no),
                    "score": float(score),
                    "masked_count": int(masked_count),
                    "strategy": strategy,
                }
            )
    return meta, rows


def write_threshold(path, t: Threshold) -> None:
    _dump_json(
        path,
        {
            "value": t.value,
            "percentile": t.percentile,
            "n_calibration": t.n_calibration,
            "checkpoint_hash": t.checkpoint_hash,
            "vocab_hash": t.vocab_hash,
            "strategy": t.strategy,
            "repeats": t.repeats,
        },
    )


def read_threshold(path) -> Threshold:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return Threshold(**doc)


def write_verdicts(path, rows, meta: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key in sorted(meta):
            f.write(f"# {key}={meta[key]}\n")
        f.write("source_id\tline_no\tscore\tthreshold\tlabel\n")
        for sid, line_no, score, thr, label in rows:
            f.write(f"{sid}\t{line_no}\t{_fmt(score)}\t{_fmt(thr)}\t{label}\n")


def read_verdicts(path):
    meta, rows = {}, []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
                continue
            if line.startswith("source_id\t") or not line:
                continue
            sid, line_no, score, thr, label = line.split("\t")
            rows.append((sid, int(line_no), float(score), float(thr), label))
    return meta, rows


def write_grid(path, cells) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("strategy\tpercentile\tthreshold\ttp\tfp\tfn\ttn\tprecision\trecall\tf1\n")
        for c in cells:
            m = c.metrics
            f.write(
                f"{c.strategy}\t{_fmt(c.percentile)}\t{_fmt(c.threshold)}\t"
                f"{m.tp}\t{m.fp}\t{m.fn}\t{m.tn}\t"
                f"{_fmt(m.precision)}\t{_fmt(m.recall)}\t{_fmt(m.f1)}\n"
            )


def write_heatmap(path, hm) -> None:
    n_rows, width = hm.values.shape
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("source_id\tline_no\t" + "\t".join(f"pos{i}" for i in range(width)) + "\n")
        for r in range(n_rows):
            sid, line_no = hm.row_refs[r]
            cells = [
                "NA" if not (hm.values[r, c] == hm.values[r, c]) else _fmt(hm.values[r, c])
                for c in range(width)
            ]
            f.write(f"{sid}\t{line_no}\t" + "\t".join(cells) + "\n")
    sidecar = {
        "rows": [
            {
                "source_id": hm.row_refs[i][0],
                "line_no": hm.row_refs[i][1],
                "label": (hm.labels[i] if hm.labels else None),
            }
            for i in range(n_rows)
        ],
        "summary": {k: [_fmt(v) if v == v else "NA" for v in vals] for k, vals in hm.summary.items()},
    }
    _dump_json(str(path) + ".rows.json", sidecar)


# ---------------------------------------------------------------------------
# command runners: each returns (inputs, outputs, logs) path lists


def run_synth(opts):
    _require(opts, "out", "labels_out")
    corpus = synthesize(opts["templates"], opts["normal"], opts["anomalies"], opts["seed"])
    write_lines(opts["out"], corpus.lines)
    write_lines(opts["labels_out"], corpus.labels)
    return [], [opts["out"], opts["labels_out"]], []


def _normalization_config(opts) -> NormalizationConfig:
    extra = opts.get("extra_timestamp_patterns") or []
    patterns = tuple((str(n), str(p)) for n, p in extra) + DEFAULT_CONFIG.timestamp_patterns
    return NormalizationConfig(
        timestamp_patterns=patterns,
        split_compound=bool(opts.get("split_compound", True)),
    )


def run_clean(opts):
    _require(opts, "in_", "out")
    cfg = _normalization_config(opts)
    lines = load_lines(opts["in_"])
    cleaned, report = clean_lines(lines, source_id=os.path.basename(opts["in_"]), cfg=cfg)
    write_lines(opts["out"], [c.text for c in cleaned])
    report_path = opts.get("report") or opts["out"] + ".report.json"
    _dump_json(report_path, report.as_dict())
    inputs = [opts["in_"]]
    outputs = [opts["out"], report_path]
    if opts.get("labels"):
        labels = [canon_label(v) for v in load_lines(opts["labels"])]
        if len(labels) != len(lines):
            raise LengthMismatch(f"{len(lines)} logs vs {len(labels)} labels")
        dropped = set(report.dropped_line_nos)
        kept = [lab for i, lab in enumerate(labels) if i not in dropped]
        labels_out = opts.get("labels_out") or opts["out"] + ".labels"
        write_lines(labels_out, kept)
        inputs.append(opts["labels"])
        outputs.append(labels_out)
    return inputs, outputs, []


def run_build_vocab(opts):
    _require(opts, "in_", "out")
    texts = load_lines(opts["in_"])
    vocab = build_vocab(texts, min_freq=opts["min_freq"], max_size=opts["max_vocab"])
    save_vocab(vocab, opts["out"])
    return [opts["in_"]], [opts["out"]], []


def run_split(opts):
    _require(opts, "in_", "out_dir")
    if opts.get("labels"):
        texts = load_lines(opts["in_"])
        labels = [canon_label(v) for v in load_lines(opts["labels"])]
        if len(texts) != len(labels):
            raise LengthMismatch(f"{len(texts)} logs vs {len(labels)} labels")
        inputs = [opts["in_"], opts["labels"]]
    else:
        texts, labels = load_labeled(opts["in_"])
        inputs = [opts["in_"]]
    name = os.path.basename(opts["in_"])
    normals = [
        CleanLog(text=t, raw_ref=(name, i))
        for i, (t, lab) in enumerate(zip(texts, labels))
        if lab != LABEL_ANOMALOUS
    ]
    anomalies = [
        CleanLog(text=t, raw_ref=(name, i))
        for i, (t, lab) in enumerate(zip(texts, labels))
        if lab == LABEL_ANOMALOUS
    ]
    unique_normals, counts = dedupe(normals)
    result = split_corpus(unique_normals, anomalies, opts["seed"])
    os.makedirs(opts["out_dir"], exist_ok=True)
    train_path = os.path.join(opts["out_dir"], "train.txt")
    val_path = os.path.join(opts["out_dir"], "val.txt")
    test_path = os.path.join(opts["out_dir"], "test.tsv")
    info_path = os.path.join(opts["out_dir"], "split.json")
    write_lines(train_path, [c.text for c in result.train])
    write_lines(val_path, [c.text for c in result.validation])
    write_labeled(test_path, [c.text for c, _ in result.test], [lab for _, lab in result.test])
    _dump_json(
        info_path,
        {
            "seed": opts["seed"],
            "n_input_logs": len(texts),
            "n_unique_normals": len(unique_normals),
            "n_duplicates_removed": len(normals) - len(unique_normals),
            "n_train": len(result.train),
            "n_val": len(result.validation),
            "n_test_normals": sum(1 for _, lab in result.test if lab != LABEL_ANOMALOUS),
            "n_anomalies": sum(1 for _, lab in result.test if lab == LABEL_ANOMALOUS),
            "max_multiplicity": max(counts.values()) if counts else 0,
        },
    )
    return inputs, [train_path, val_path, test_path, info_path], []


def run_train(opts):
    _require(opts, "in_", "vocab", "out")
    vocab = load_vocab(opts["vocab"])
    model_cfg = ModelConfig(
        vocab_size=len(vocab),
        d_model=opts["d_model"],
        n_heads=opts["n_heads"],
        n_layers=opts["n_layers"],
        d_ff=opts["d_ff"],
        max_len=opts["max_len"],
        dropout_rate=opts["dropout"],
    )
    train_cfg = TrainConfig(
        epochs=opts["epochs"],
        batch_size=opts["batch_size"],
        mask_fraction=opts["mask_fraction"],
        learning_rate=opts["learning_rate"],
        weight_decay=opts["weight_decay"],
        grad_clip=None if opts["grad_clip"] <= 0 else opts["grad_clip"],
        warmup_steps=opts["warmup_steps"],
        seed=opts["seed"],
    )
    _, seqs, _ = _load_clean_seqs(opts["in_"], vocab, opts["max_len"])
    ckpt = train(seqs, model_cfg, train_cfg, vocab_hash=vocab.digest())
    save_checkpoint(ckpt, opts["out"])
    log_path = opts.get("log") or opts["out"] + ".log.tsv"
    with open(log_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("epoch\tmean_loss\twall_time_s\n")
        for i, (loss, secs) in enumerate(zip(ckpt.history, ckpt.epoch_seconds)):
            f.write(f"{i}\t{_fmt(loss)}\t{secs:.3f}\n")
    return [opts["in_"], opts["vocab"]], [opts["out"]], [log_path]


def _checkpoint_and_vocab(opts):
    _require(opts, "checkpoint", "vocab")
    if not os.path.exists(opts["checkpoint"]):
        raise MissingInput(f"checkpoint {opts['checkpoint']} does not exist")
    ckpt = load_checkpoint(opts["checkpoint"])
    vocab = load_vocab(opts["vocab"])
    if ckpt.vocab_hash and vocab.digest() != ckpt.vocab_hash:
        raise VocabMismatch("field vocab: digest does not match the checkpoint's vocab_hash")
    if len(vocab) != ckpt.model_config.vocab_size:
        raise VocabMismatch("field vocab: size does not match the checkpoint configuration")
    return ckpt, vocab


def run_score(opts):
    _require(opts, "in_", "out")
    ckpt, vocab = _checkpoint_and_vocab(opts)
    strategy = _strategy_from_opts(opts)
    _, seqs, _ = _load_clean_seqs(
        opts["in_"], vocab, ckpt.model_config.max_len, labeled=opts.get("labeled", False)
    )
    reports = score_corpus(
        ckpt, seqs, strategy, seed=opts["seed"], repeats=opts["repeats"], threads=opts["threads"]
    )
    meta = {
        "checkpoint": ckpt.digest(),
        "vocab": vocab.digest(),
        "strategy": strategy.describe(),
        "repeats": reports[0].repeats if reports else 1,
        "seed": opts["seed"],
    }
    write_scores(opts["out"], reports, meta)
    return [opts["in_"], opts["vocab"], opts["checkpoint"]], [opts["out"]], []


def _strategy_from_opts(opts) -> MaskingStrategy:
    kind = opts.get("mask_strategy", "random")
    if kind == "token":
        return MaskingStrategy(kind="token_by_token", fraction=1.0)
    if kind == "random":
        return MaskingStrategy(kind="random_fraction", fraction=opts.get("mask_fraction", 0.15))
    raise ConfigInvalid(f"field mask_strategy: unknown value {kind!r}")


def run_calibrate(opts):
    _require(opts, "scores", "out")
    meta, rows = read_scores(opts["scores"])
    t = select_threshold(
        [r["score"] for r in rows],
        percentile=opts["percentile"],
        checkpoint_hash=meta.get("checkpoint", ""),
        vocab_hash=meta.get("vocab", ""),
        strategy=meta.get("strategy", ""),
        repeats=int(meta.get("repeats", 1)),
    )
    write_threshold(opts["out"], t)
    return [opts["scores"]], [opts["out"]], []


def run_detect(opts):
    _require(opts, "scores", "threshold", "out")
    meta, rows = read_scores(opts["scores"])
    t = read_threshold(opts["threshold"])
    if t.checkpoint_hash and meta.get("checkpoint") != t.checkpoint_hash:
        raise DigestMismatch("field checkpoint: scores and threshold disagree")
    if t.vocab_hash and meta.get("vocab") != t.vocab_hash:
        raise DigestMismatch("field vocab: scores and threshold disagree")
    verdict_rows = [
        (
            r["source_id"],
            r["line_no"],
            r["score"],
            t.value,
            LABEL_ANOMALOUS if r["score"] > t.value else LABEL_NORMAL,
        )
        for r in rows
    ]
    write_verdicts(
        opts["out"],
        verdict_rows,
        {"checkpoint": meta.get("checkpoint", ""), "threshold": _fmt(t.value)},
    )
    return [opts["scores"], opts["threshold"]], [opts["out"]], []


def run_eval(opts):
    _require(opts, "verdicts", "test", "out")
    _, rows = read_verdicts(opts["verdicts"])
    texts, truth = load_labeled(opts["test"])
    if len(rows) != len(texts):
        raise LengthMismatch(f"{len(rows)} verdicts vs {len(texts)} labeled test logs")
    inputs = [opts["verdicts"], opts["test"]]
    train_texts, cal_texts = [], []
    if opts.get("train"):
        train_texts = load_lines(opts["train"])
        inputs.append(opts["train"])
    if opts.get("val"):
        cal_texts = load_lines(opts["val"])
        inputs.append(opts["val"])
    if train_texts or cal_texts:
        assert_no_leakage(texts, train_texts, cal_texts)
    predicted = [label for *_rest, label in rows]
    m = metrics_from_counts(*confusion_counts(predicted, truth))
    doc = m.as_dict()
    doc["n_test"] = len(texts)
    _dump_json(opts["out"], doc)
    print(f"precision={m.precision:.4f} recall={m.recall:.4f} f1={m.f1:.4f}")
    return inputs, [opts["out"]], []


def run_ablate_masking(opts):
    _require(opts, "val", "test", "out")
    ckpt, vocab = _checkpoint_and_vocab(opts)
    max_len = ckpt.model_config.max_len
    _, val_seqs, _ = _load_clean_seqs(opts["val"], vocab, max_len)
    _, test_seqs, test_labels = _load_clean_seqs(opts["test"], vocab, max_len, labeled=True)
    strategies = [s.strip() for s in str(opts["strategies"]).split(",") if s.strip()]
    percentiles = [float(p) for p in str(opts["percentiles"]).split(",") if p.strip()]
    cells = ablate_masking(
        ckpt,
        val_seqs,
        test_seqs,
        test_labels,
        strategies,
        percentiles,
        seed=opts["seed"],
        repeats=opts["repeats"],
        threads=opts["threads"],
    )
    write_grid(opts["out"], cells)
    return [opts["val"], opts["test"], opts["vocab"], opts["checkpoint"]], [opts["out"]], []


def run_ablate_finetune(opts):
    _require(opts, "train", "val", "test", "vocab", "out")
    vocab = load_vocab(opts["vocab"])
    model_cfg = ModelConfig(
        vocab_size=len(vocab),
        d_model=opts["d_model"],
        n_heads=opts["n_heads"],
        n_layers=opts["n_layers"],
        d_ff=opts["d_ff"],
        max_len=opts["max_len"],
        dropout_rate=opts["dropout"],
    )
    train_cfg = TrainConfig(
        epochs=opts["epochs"],
        batch_size=opts["batch_size"],
        mask_fraction=opts["mask_fraction"],
        seed=opts["seed"],
    )
    _, train_seqs, _ = _load_clean_seqs(opts["train"], vocab, opts["max_len"])
    _, val_seqs, _ = _load_clean_seqs(opts["val"], vocab, opts["max_len"])
    _, test_seqs, test_labels = _load_clean_seqs(opts["test"], vocab, opts["max_len"], labeled=True)
    result = ablate_finetune(
        model_cfg,
        train_cfg,
        train_seqs,
        val_seqs,
        test_seqs,
        test_labels,
        percentile=opts["percentile"],
        strategy=_strategy_from_opts(opts),
        seed=opts["seed"],
        vocab_hash=vocab.digest(),
        threads=opts["threads"],
    )
    doc = {
        "trained": result.trained.as_dict(),
        "untrained": result.untrained.as_dict(),
        "trained_mean_normal_score": result.trained_mean_normal_score,
        "untrained_mean_normal_score": result.untrained_mean_normal_score,
        "f1_gap": result.trained.f1 - result.untrained.f1,
    }
    _dump_json(opts["out"], doc)
    return [opts["train"], opts["val"], opts["test"], opts["vocab"]], [opts["out"]], []


def run_heatmap(opts):
    _require(opts, "in_", "out")
    ckpt, vocab = _checkpoint_and_vocab(opts)
    _, seqs, labels = _load_clean_seqs(
        opts["in_"], vocab, ckpt.model_config.max_len, labeled=opts.get("labeled", False)
    )
    hm = compute_heatmap(ckpt, seqs, labels=labels, threads=opts["threads"])
    write_heatmap(opts["out"], hm)
    return [opts["in_"], opts["vocab"], opts["checkpoint"]], [opts["out"], opts["out"] + ".rows.json"], []


# ---------------------------------------------------------------------------
# option plumbing

_PATH_OPTS = {
    "in_", "out", "labels", "labels_out", "report", "vocab", "checkpoint", "scores",
    "threshold", "verdicts", "test", "train", "val", "out_dir", "log", "manifest",
}

_COMMANDS: dict = {}


def _register(name, runner, defaults, paths, help_text):
    _COMMANDS[name] = {"runner": runner, "defaults": defaults, "paths": paths, "help": help_text}


_MODEL_DEFAULTS = {
    "d_model": 128,
    "n_heads": 4,
    "n_layers": 2,
    "d_ff": 256,
    "max_len": 128,
    "dropout": 0.0,
}

_register(
    "synth",
    run_synth,
    {"templates": 50, "normal": 5000, "anomalies": 200, "seed": 0},
    ("out", "labels_out"),
    "generate a labeled synthetic raw-log corpus",
)
_register(
    "clean",
    run_clean,
    {"seed": 0, "split_compound": True, "extra_timestamp_patterns": []},
    ("in_", "out", "labels", "labels_out", "report"),
    "normalize raw logs into cleaned text",
)
_register(
    "build-vocab",
    run_build_vocab,
    {"min_freq": 1, "max_vocab": 8192, "seed": 0},
    ("in_", "out"),
    "build a token vocabulary from cleaned logs",
)
_register(
    "split",
    run_split,
    {"seed": 0},
    ("in_", "labels", "out_dir"),
    "dedupe normals and cut 70/15/15 train/val/test partitions",
)
_register(
    "train",
    run_train,
    {
        "epochs": 10,
        "batch_size": 64,
        "mask_fraction": 0.15,
        "learning_rate": 3e-3,
        "weight_decay": 0.01,
        "grad_clip": 1.0,
        "warmup_steps": 0,
        "seed": 0,
        **_MODEL_DEFAULTS,
    },
    ("in_", "vocab", "out", "log"),
    "train the encoder on normal logs",
)
_register(
    "score",
    run_score,
    {"mask_strategy": "random", "mask_fraction": 0.15, "repeats": 1, "seed": 0, "threads": 1,
     "labeled": False},
    ("in_", "vocab", "checkpoint", "out"),
    "compute per-log anomaly scores",
)
_register(
    "calibrate",
    run_calibrate,
    {"percentile": 90.0, "seed": 0},
    ("scores", "out"),
    "select the percentile threshold from normal-log scores",
)
_register(
    "detect",
    run_detect,
    {"seed": 0},
    ("scores", "threshold", "out"),
    "classify scored logs against a threshold",
)
_register(
    "eval",
    run_eval,
    {"seed": 0},
    ("verdicts", "test", "train", "val", "out"),
    "compare verdicts to truth labels (with leakage guard)",
)
_register(
    "ablate-masking",
    run_ablate_masking,
    {
        "strategies": "token,random0.15,random0.25,random0.5",
        "percentiles": "70,75,80,85,90,95,100",
        "seed": 0,
        "repeats": 1,
        "threads": 1,
    },
    ("checkpoint", "vocab", "val", "test", "out"),
    "metrics grid over masking strategies x percentile thresholds",
)
_register(
    "ablate-finetune",
    run_ablate_finetune,
    {
        "epochs": 10,
        "batch_size": 64,
        "mask_fraction": 0.15,
        "mask_strategy": "random",
        "percentile": 90.0,
        "seed": 0,
        "threads": 1,
        **_MODEL_DEFAULTS,
    },
    ("train", "val", "test", "vocab", "out"),
    "trained vs. freshly initialized detection, same seeds elsewhere",
)
_register(
    "heatmap",
    run_heatmap,
    {"seed": 0, "threads": 1, "labeled": False},
    ("in_", "vocab", "checkpoint", "out"),
    "token-by-token probability matrix for a corpus",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="masklog", description=__doc__)
    parser.add_argument("--version", action="version", version=f"masklog {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd["help"])
        p.add_argument("--config", default=None, help="JSON config file; flags override its values")
        for path_opt in cmd["paths"]:
            flag = "--in" if path_opt == "in_" else "--" + path_opt.replace("_", "-")
            p.add_argument(flag, dest=path_opt, default=None)
        for key, default in cmd["defaults"].items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, dest=key, action="store_const", const=True, default=None)
            elif isinstance(default, int):
                p.add_argument(flag, dest=key, type=int, default=None)
            elif isinstance(default, float):
                p.add_argument(flag, dest=key, type=float, default=None)
            else:
                p.add_argument(flag, dest=key, default=None)
    rerun = sub.add_parser("rerun", help="re-execute a command from its run manifest")
    rerun.add_argument("--manifest", required=True)
    return parser


def _merge_options(name: str, ns: argparse.Namespace) -> dict:
    cmd = _COMMANDS[name]
    allowed = set(cmd["defaults"]) | set(cmd["paths"])
    opts = dict(cmd["defaults"])
    opts.update({k: None for k in cmd["paths"] if k not in opts})
    if ns.config:
        if not os.path.exists(ns.config):
            raise MissingInput(f"config file {ns.config} does not exist")
        with open(ns.config, "r", encoding="utf-8") as f:
            try:
                loaded = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigInvalid(f"config file is not valid JSON: {e}") from None
        for key, value in loaded.items():
            if key not in allowed:
                raise ConfigInvalid(f"unknown config key {key!r}")
            opts[key] = value
    for key in allowed:
        value = getattr(ns, key, None)
        if value is not None:
            opts[key] = value
    return opts


def _execute(name: str, opts: dict) -> dict:
    started = time.time()
    runner = _COMMANDS[name]["runner"]
    inputs, outputs, logs = runner(opts)
    return write_manifest(
        command=name,
        options=opts,
        inputs=digest_map(inputs),
        outputs=digest_map(outputs),
        logs=digest_map(logs),
        started_at=started,
        version=__version__,
    )


def run_rerun(manifest_path: str) -> dict:
    doc = load_manifest(manifest_path)
    name = doc.get("command")
    if name not in _COMMANDS:
        raise ConfigInvalid(f"manifest names unknown command {name!r}")
    verify_inputs(doc)
    return _execute(name, doc["options"])


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "rerun":
            run_rerun(ns.manifest)
        else:
            opts = _merge_options(ns.command, ns)
            _execute(ns.command, opts)
    except FileNotFoundError as e:
        print(json.dumps({"error": "MissingInput", "message": str(e)}), file=sys.stderr)
        return 2
    except MasklogError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
