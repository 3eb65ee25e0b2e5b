"""Command-line surface tying the pipeline together.

Every command validates its inputs, writes its artifacts plus a run manifest
(JSON sidecar next to the first output), and exits nonzero with one
machine-readable error line on stderr when something is wrong. All randomness
in a command flows from its single --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import struct
import sys
import time
import warnings

from . import __version__
from .atomic import atomic_open, write_json
from .calibrate import Threshold, check_percentile, select_threshold
from .corpus import (
    LABEL_ANOMALOUS,
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
    metrics,
    verdict_label,
)
# Not called here: perfbench's tracing hooks look these names up on this module.
from .detect import confusion_counts, metrics_from_counts  # noqa: F401
from .errors import (
    ConfigInvalid,
    DigestMismatch,
    EmptyCorpus,
    MalformedInput,
    MasklogError,
    MissingInput,
    NonFiniteActivation,
    OutOfMemory,
    VocabMismatch,
)
from .manifest import digest_map, file_digest, load_manifest, verify_inputs, write_manifest
from .masking import MaskingStrategy
from .model import ModelConfig, check_bounds
from .normalize import CleanLog, clean_lines
from .score import heatmap as compute_heatmap
from .score import score_corpus
from .train import TrainConfig, format_float, load_checkpoint, save_checkpoint, train
from .vocab import build_vocab, check_vocab_bounds, encode, load_vocab, save_vocab


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
        tabbed = next((i for i, t in enumerate(texts) if "\t" in t), None)
        if tabbed is not None:  # cleaned text never holds one: this is a labeled file
            raise MalformedInput(f"{path} line {tabbed} holds a tab, as a labeled file does; pass --labeled")
    seqs = [
        encode(CleanLog(text=t, raw_ref=(name, i)), vocab, max_len) for i, t in enumerate(texts)
    ]
    return seqs, labels


# ---------------------------------------------------------------------------
# artifact formats


SCORE_COLUMNS = {"source_id": str, "line_no": int, "score": float, "masked_count": int, "strategy": str}
VERDICT_COLUMNS = {"source_id": str, "line_no": int, "score": float, "threshold": float, "label": str}
GRID_COLUMNS = {
    "strategy": str, "percentile": float, "threshold": float, "tp": int, "fp": int, "fn": int,
    "tn": int, "precision": float, "recall": float, "f1": float,
}


def _cell(value) -> str:
    return format_float(value) if isinstance(value, float) else str(value)


def write_table(path, columns, rows, meta: dict | None = None) -> None:
    """Sorted `# key=value` header lines, a tab-separated column line, then one line per row."""
    meta = meta or {}
    with atomic_open(path) as f:
        for key in sorted(meta):
            f.write(f"# {key}={_cell(meta[key])}\n")
        f.write("\t".join(columns) + "\n")
        for row in rows:
            f.write("\t".join(_cell(v) for v in row) + "\n")


def read_table(path, columns: dict) -> tuple[dict, list[dict]]:
    """Inverse of `write_table`: the header, and each row as a dict cast by `columns` (name -> type)."""
    meta, rows, header = {}, [], None
    with open(path, "r", encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if header is None and line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split("\t")
                if header != list(columns):
                    raise MalformedInput(f"{path}: columns {header} are not {list(columns)}")
            elif line:
                try:
                    cells = zip(columns.items(), line.split("\t"), strict=True)
                    rows.append({name: cast(cell) for (name, cast), cell in cells})
                except ValueError as e:
                    raise MalformedInput(f"{path} line {n}: {e}") from None
    if header is None:
        raise MalformedInput(f"{path} has no column line")
    return meta, rows


def read_scores(path):
    return read_table(path, SCORE_COLUMNS)


def read_verdicts(path):
    return read_table(path, VERDICT_COLUMNS)


def write_threshold(path, t: Threshold) -> None:
    write_json(path, dataclasses.asdict(t))


_JSON_TYPES = {"float": (int, float), "int": int, "str": str}


def read_threshold(path) -> Threshold:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    names = {f.name for f in dataclasses.fields(Threshold)}
    found = set(doc) if isinstance(doc, dict) else set()
    if found != names:
        raise ConfigInvalid(
            f"threshold file {path}: unknown keys {sorted(found - names)}, "
            f"missing keys {sorted(names - found)}"
        )
    values = {}
    for f in dataclasses.fields(Threshold):  # f.type is the annotation text: float, int or str
        value = doc[f.name]
        ok = isinstance(value, _JSON_TYPES[f.type]) and not isinstance(value, bool)
        if ok and f.type == "float":
            ok = abs(value) <= sys.float_info.max  # false for inf, nan and ints beyond float range
            value = float(value) if ok else value
        if not ok:
            raise ConfigInvalid(
                f"threshold file {path}: {f.name} must be a {'finite ' * (f.type == 'float')}{f.type}, not {value!r}"
            )
        values[f.name] = value
    return Threshold(**values)


def write_grid(path, cells) -> None:
    write_table(
        path,
        GRID_COLUMNS,
        [
            (c.strategy, c.percentile, c.threshold, c.metrics.tp, c.metrics.fp, c.metrics.fn,
             c.metrics.tn, c.metrics.precision, c.metrics.recall, c.metrics.f1)
            for c in cells
        ],
    )


def write_heatmap(path, hm) -> None:
    n_rows, width = hm.values.shape
    write_table(
        path,
        ["source_id", "line_no", *(f"pos{i}" for i in range(width))],
        [(*hm.row_refs[r], *("NA" if v != v else v for v in hm.values[r])) for r in range(n_rows)],
    )
    sidecar = {
        "rows": [
            {
                "source_id": hm.row_refs[i][0],
                "line_no": hm.row_refs[i][1],
                "label": (hm.labels[i] if hm.labels else None),
            }
            for i in range(n_rows)
        ],
        "summary": {k: [format_float(v) if v == v else "NA" for v in vals] for k, vals in hm.summary.items()},
    }
    write_json(str(path) + ".rows.json", sidecar)


# ---------------------------------------------------------------------------
# command runners: each returns (inputs, outputs, logs) path lists


def run_synth(opts):
    _require(opts, "out", "labels_out")
    corpus = synthesize(opts["templates"], opts["normal"], opts["anomalies"], opts["seed"])
    write_lines(opts["out"], corpus.lines)
    write_lines(opts["labels_out"], corpus.labels)
    return [], [opts["out"], opts["labels_out"]], []


def run_clean(opts):
    _require(opts, "in_", "out")
    if opts.get("labels"):
        lines, labels = load_labeled(opts["in_"], opts["labels"])
    else:
        lines, labels = load_lines(opts["in_"]), None
    cleaned, report = clean_lines(lines, source_id=os.path.basename(opts["in_"]))
    write_lines(opts["out"], [c.text for c in cleaned])
    report_path = opts.get("report") or opts["out"] + ".report.json"
    write_json(report_path, report.as_dict())
    inputs = [opts["in_"]]
    outputs = [opts["out"], report_path]
    if labels is not None:
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
    texts, labels = load_labeled(opts["in_"], opts.get("labels"))
    inputs = [opts["in_"], opts["labels"]] if opts.get("labels") else [opts["in_"]]
    name = os.path.basename(opts["in_"])
    logs = [(CleanLog(text=t, raw_ref=(name, i)), lab) for i, (t, lab) in enumerate(zip(texts, labels))]
    normals = [log for log, lab in logs if lab != LABEL_ANOMALOUS]
    anomalies = [log for log, lab in logs if lab == LABEL_ANOMALOUS]
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
    write_json(
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


def _config(cls, opts, **fields):
    """A `cls` of the options named like its fields, `fields` set over them."""
    return cls(**{f.name: opts[f.name] for f in dataclasses.fields(cls) if f.name in opts} | fields)


def run_train(opts):
    _require(opts, "in_", "vocab", "out")
    clip = opts["grad_clip"]  # 0 or below turns clipping off; NaN and -inf go on to be refused
    train_cfg = _config(TrainConfig, opts, grad_clip=None if clip <= 0 and math.isfinite(clip) else clip)
    vocab = load_vocab(opts["vocab"])
    model_cfg = _config(ModelConfig, opts, vocab_size=len(vocab))
    seqs, _ = _load_clean_seqs(opts["in_"], vocab, opts["max_len"])
    ckpt = train(seqs, model_cfg, train_cfg, vocab_hash=vocab.digest())
    save_checkpoint(ckpt, opts["out"])
    log_path = opts.get("log") or opts["out"] + ".log.tsv"
    tokens = sum(int(s.length) for s in seqs)  # content tokens per epoch
    write_table(
        log_path,
        ["epoch", "mean_loss", "wall_time_s", "tokens_per_s", "grad_norm_mean", "grad_norm_max", "clip_frac"],
        [
            (i, loss, f"{secs:.3f}", f"{tokens / secs:.1f}", *_grad_norm_cells(norms, train_cfg.grad_clip))
            for i, (loss, secs, norms) in enumerate(zip(ckpt.history, ckpt.epoch_seconds, ckpt.grad_norms))
        ],
    )
    return [opts["in_"], opts["vocab"]], [opts["out"]], [log_path]


def _grad_norm_cells(norms: list[float], clip: float | None) -> tuple:
    """An epoch's mean and max pre-clip gradient norm (`NA` when clipping is off) and its clipped share of steps."""
    if not norms:
        return "NA", "NA", 0.0
    return sum(norms) / len(norms), max(norms), sum(n > clip for n in norms) / len(norms)


def _checkpoint_and_vocab(opts):
    _require(opts, "checkpoint", "vocab")
    ckpt = load_checkpoint(opts["checkpoint"])
    vocab = load_vocab(opts["vocab"])
    if ckpt.vocab_hash and vocab.digest() != ckpt.vocab_hash:
        raise VocabMismatch("field vocab: digest does not match the checkpoint's vocab_hash")
    if len(vocab) != ckpt.model_config.vocab_size:
        raise VocabMismatch("field vocab: size does not match the checkpoint configuration")
    return ckpt, vocab


def run_score(opts):
    _require(opts, "in_", "out")
    strategy = opts["mask_strategy"]
    ckpt, vocab = _checkpoint_and_vocab(opts)
    seqs, _ = _load_clean_seqs(
        opts["in_"], vocab, ckpt.model_config.max_len, labeled=opts.get("labeled", False)
    )
    if not seqs:
        raise EmptyCorpus(f"{opts['in_']} holds no log to score")
    reports = score_corpus(ckpt, seqs, strategy, seed=opts["seed"], threads=opts["threads"])
    meta = {
        "checkpoint": ckpt.digest(),
        "vocab": vocab.digest(),
        "input": file_digest(opts["in_"]),  # sha256 of the scored file, checked by eval
        "strategy": strategy.describe(),
        "repeats": strategy.repeats,
        "seed": opts["seed"],
    }
    rows = [(*r.raw_ref, r.score, r.masked_count, r.strategy.describe()) for r in reports]
    write_table(opts["out"], SCORE_COLUMNS, rows, meta)
    return [opts["in_"], opts["vocab"], opts["checkpoint"]], [opts["out"]], []


def _header_repeats(path, meta) -> int:
    try:
        return int(meta.get("repeats", 1))
    except ValueError:
        raise MalformedInput(f"{path}: header repeats={meta['repeats']!r} is not an int") from None


def run_calibrate(opts):
    _require(opts, "scores", "out")
    meta, rows = read_scores(opts["scores"])
    repeats = _header_repeats(opts["scores"], meta)
    t = select_threshold([r["score"] for r in rows], percentile=opts["percentile"])
    write_threshold(opts["out"], dataclasses.replace(  # the provenance that detect checks scores against
        t, checkpoint_hash=meta.get("checkpoint", ""), vocab_hash=meta.get("vocab", ""),
        strategy=meta.get("strategy", ""), repeats=repeats))
    return [opts["scores"]], [opts["out"]], []


def run_detect(opts):
    _require(opts, "scores", "threshold", "out")
    meta, rows = read_scores(opts["scores"])
    t = read_threshold(opts["threshold"])
    for name, ours, theirs in (
        ("checkpoint", meta.get("checkpoint"), t.checkpoint_hash),
        ("vocab", meta.get("vocab"), t.vocab_hash),
        ("strategy", meta.get("strategy"), t.strategy),
        ("repeats", _header_repeats(opts["scores"], meta), t.repeats),
    ):
        if theirs and ours != theirs:
            raise DigestMismatch(f"field {name}: scores and threshold disagree")
    verdict_rows = [
        (r["source_id"], r["line_no"], r["score"], t.value, verdict_label(r["score"], t.value))
        for r in rows
    ]
    header = {"checkpoint": meta.get("checkpoint", ""), "threshold": t.value}
    if "input" in meta:
        header["input"] = meta["input"]
    write_table(opts["out"], VERDICT_COLUMNS, verdict_rows, header)
    return [opts["scores"], opts["threshold"]], [opts["out"]], []


def run_eval(opts):
    _require(opts, "verdicts", "test", "out")
    meta, rows = read_verdicts(opts["verdicts"])
    texts, truth = load_labeled(opts["test"])
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
    if "input" not in meta:
        raise MalformedInput(f"{opts['verdicts']}: the header has no input digest of the scored file")
    name = os.path.basename(str(opts["test"]))
    refs = [(name, i) for i in range(len(texts))]
    predicted = {(r["source_id"], r["line_no"]): r["label"] for r in rows}
    if len(predicted) != len(rows) or predicted.keys() != set(refs):
        raise MalformedInput(
            f"{opts['verdicts']}: the verdict rows are not lines 0-{len(texts) - 1} of {name}, once each"
        )
    if meta["input"] != file_digest(opts["test"]):
        raise DigestMismatch(f"field input: {opts['verdicts']} was not scored from {opts['test']}")
    m = metrics([predicted[ref] for ref in refs], truth)
    doc = dataclasses.asdict(m)
    doc["n_test"] = len(texts)
    write_json(opts["out"], doc)
    print(f"precision={m.precision:.4f} recall={m.recall:.4f} f1={m.f1:.4f}")
    return inputs, [opts["out"]], []


def _ablation_inputs(opts):
    """The checkpoint, the encoded val logs, the encoded labeled test logs, and the input paths."""
    _require(opts, "val", "test", "out")
    ckpt, vocab = _checkpoint_and_vocab(opts)
    max_len = ckpt.model_config.max_len
    val_seqs, _ = _load_clean_seqs(opts["val"], vocab, max_len)
    test_seqs, test_labels = _load_clean_seqs(opts["test"], vocab, max_len, labeled=True)
    inputs = [opts["val"], opts["test"], opts["vocab"], opts["checkpoint"]]
    return ckpt, val_seqs, test_seqs, test_labels, inputs


def run_ablate_masking(opts):
    ckpt, val_seqs, test_seqs, test_labels, inputs = _ablation_inputs(opts)
    cells = ablate_masking(
        ckpt, val_seqs, test_seqs, test_labels, opts["strategies"], opts["percentiles"], seed=opts["seed"]
    )
    write_grid(opts["out"], cells)
    return inputs, [opts["out"]], []


def run_ablate_finetune(opts):
    ckpt, val_seqs, test_seqs, test_labels, inputs = _ablation_inputs(opts)
    result = ablate_finetune(
        ckpt, val_seqs, test_seqs, test_labels,
        percentile=opts["percentile"], strategy=opts["mask_strategy"], seed=opts["seed"],
    )
    doc = {
        "trained": dataclasses.asdict(result.trained),
        "untrained": dataclasses.asdict(result.untrained),
        "trained_mean_normal_score": result.trained_mean_normal_score,
        "untrained_mean_normal_score": result.untrained_mean_normal_score,
        "f1_gap": result.trained.f1 - result.untrained.f1,
    }
    write_json(opts["out"], doc)
    return inputs, [opts["out"]], []


def run_heatmap(opts):
    _require(opts, "in_", "out")
    ckpt, vocab = _checkpoint_and_vocab(opts)
    seqs, labels = _load_clean_seqs(
        opts["in_"], vocab, ckpt.model_config.max_len, labeled=opts.get("labeled", False)
    )
    hm = compute_heatmap(ckpt, seqs, labels=labels)
    write_heatmap(opts["out"], hm)
    return [opts["in_"], opts["vocab"], opts["checkpoint"]], [opts["out"], opts["out"] + ".rows.json"], []


# ---------------------------------------------------------------------------
# option plumbing

_COMMANDS: dict = {}


def _defaults(cls, *skip) -> dict:
    """The fields of dataclass `cls` that have a default, less `skip`, each with its default."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING and f.name not in skip}


def _register(name, runner, defaults, paths, help_text):
    _COMMANDS[name] = {"runner": runner, "defaults": defaults, "paths": paths, "help": help_text}


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
    {},
    ("in_", "out", "labels", "labels_out", "report"),
    "normalize raw logs into cleaned text",
)
_register(
    "build-vocab",
    run_build_vocab,
    {"min_freq": 1, "max_vocab": 8192},
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
    # AdamW's betas and epsilon are recorded in the checkpoint but set by no option
    {**_defaults(TrainConfig, "beta1", "beta2", "adam_eps"), **_defaults(ModelConfig)},
    ("in_", "vocab", "out", "log"),
    "train the encoder on normal logs",
)
_register(
    "score",
    run_score,
    {"mask_strategy": MaskingStrategy().describe(), "repeats": MaskingStrategy().repeats, "seed": 0, "threads": 1,
     "labeled": False},
    ("in_", "vocab", "checkpoint", "out"),
    "compute per-log anomaly scores",
)
_register(
    "calibrate",
    run_calibrate,
    {"percentile": 90.0},
    ("scores", "out"),
    "select the percentile threshold from normal-log scores",
)
_register(
    "detect",
    run_detect,
    {},
    ("scores", "threshold", "out"),
    "classify scored logs against a threshold",
)
_register(
    "eval",
    run_eval,
    {},
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
        "repeats": MaskingStrategy().repeats,
    },
    ("checkpoint", "vocab", "val", "test", "out"),
    "metrics grid over masking strategies x percentile thresholds",
)
_register(
    "ablate-finetune",
    run_ablate_finetune,
    {"mask_strategy": MaskingStrategy().describe(), "percentile": 90.0, "seed": 0},
    ("checkpoint", "vocab", "val", "test", "out"),
    "a checkpoint vs. its own initial weights, same detection pipeline and seeds",
)
_register(
    "heatmap",
    run_heatmap,
    {"labeled": False},
    ("in_", "vocab", "checkpoint", "out"),
    "token-by-token probability matrix for a corpus",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigInvalid(f"{self.prog}: {message}")


@functools.cache  # built once per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="masklog", description=__doc__)
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


# The types an option's value may have, by the type of its default (None: a path option).
_OPTION_TYPES = {type(None): (str, type(None)), bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _options(name: str, given: dict) -> tuple[dict, dict]:
    """(defaults updated by `given`, `_built` of them); an unknown key or a value of another type is refused."""
    cmd = _COMMANDS[name]
    opts = {**dict.fromkeys(cmd["paths"]), **cmd["defaults"]}
    for key, value in given.items():
        if key not in opts:
            raise ConfigInvalid(f"unknown config key {key!r} for {name}")
        if type(value) not in _OPTION_TYPES[type(opts[key])]:  # exact types: a bool is no int here
            raise ConfigInvalid(f"config key {key!r} for {name} must be like {opts[key]!r}, not {value!r}")
    opts.update(given)
    return opts, _built(opts)


def _setting(key: str, text, repeats: int = 1):
    """A masking strategy that carries `repeats`, or a checked percentile; a refusal names its option."""
    option = key.replace("_", "-")
    try:
        if key.startswith("percentile"):
            return check_percentile(float(text))
        strategy = MaskingStrategy.parse(text)
        option = "repeats"
        return dataclasses.replace(strategy, repeats=repeats)
    except ValueError as e:
        raise ConfigInvalid(f"--{option}: {e}") from None


# Each count option's (least, most); `repeats` is MaskingStrategy's to check, when `_setting` builds one.
_BOUNDS = {**ModelConfig.BOUNDS, **TrainConfig.BOUNDS, "threads": (1, 64)}


def _built(opts: dict) -> dict:
    """`opts` as the runner takes them: each masking strategy and percentile built and checked.

    No file is read here. A negative `seed`, a count outside its `_BOUNDS`, a
    `d_model` that `n_heads` does not divide and a `min_freq` or `max_vocab`
    that `check_vocab_bounds` refuses are refused, `mask_strategy` becomes a
    `MaskingStrategy`, and `strategies` and `percentiles` become lists of
    distinct values.
    """
    built, repeats = dict(opts), opts.get("repeats", 1)
    if opts.get("seed", 0) < 0:
        raise ConfigInvalid(f"--seed must be a non-negative integer, not {opts['seed']}")
    check_bounds(opts, _BOUNDS, flag=True)  # a ValueError, reported as ConfigInvalid
    if "d_model" in opts and opts["d_model"] % opts["n_heads"]:
        raise ConfigInvalid(f"--d-model {opts['d_model']} must be divisible by --n-heads {opts['n_heads']}")
    if "min_freq" in opts:
        check_vocab_bounds(opts["min_freq"], opts["max_vocab"])
    if "mask_strategy" in opts:
        built["mask_strategy"] = _setting("mask_strategy", opts["mask_strategy"], repeats)
    if "percentile" in opts:
        _setting("percentile", opts["percentile"])
    for key in ("strategies", "percentiles"):
        if key in opts:
            values = [_setting(key, text, repeats) for text in opts[key].split(",") if text.strip()]
            names = [v.describe() if key == "strategies" else v for v in values]
            repeated = [n for i, n in enumerate(names) if n in names[:i]]
            if repeated or not values:
                raise ConfigInvalid(f"--{key} names {repeated[0]!r} more than once" if repeated
                                    else f"--{key} names no value")
            built[key] = values
    return built


def _merge_options(name: str, ns: argparse.Namespace) -> tuple[dict, dict]:
    given = {}
    if ns.config:
        with open(ns.config, "r", encoding="utf-8") as f:
            try:
                given = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigInvalid(f"config file is not valid JSON: {e}") from None
        if not isinstance(given, dict):
            raise ConfigInvalid("config file must hold a JSON object")
    flags = {k: v for k, v in vars(ns).items() if v is not None and k not in ("command", "config")}
    return _options(name, {**given, **flags})


def _execute(name: str, opts: dict, built: dict) -> dict:
    """Run the command on its built options; the manifest records the options as given.

    Each distinct warning the run gave is printed as one JSON line on stderr,
    also when the run then fails, and listed in the manifest.
    """
    started = time.time()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)  # every run reports its own, not once per process
        try:
            inputs, outputs, logs = _COMMANDS[name]["runner"](built)
        finally:
            distinct = dict.fromkeys((w.category.__name__, str(w.message)) for w in caught)
            found = [{"warning": category, "message": message} for category, message in distinct]
            for warning in found:
                print(json.dumps(warning), file=sys.stderr)
    return write_manifest(
        command=name,
        options=opts,
        inputs=digest_map(inputs),
        outputs=digest_map(outputs),
        logs=digest_map(logs),
        warnings=found,
        started_at=started,
        version=__version__,
    )


def run_rerun(manifest_path: str) -> dict:
    doc = load_manifest(manifest_path)
    name = doc.get("command")
    if name not in _COMMANDS:
        raise ConfigInvalid(f"manifest names unknown command {name!r}")
    opts, built = _options(name, doc["options"])
    verify_inputs(doc)
    return _execute(name, opts, built)


def _typed(error: Exception) -> MasklogError:
    """The package error a failure is reported as; errors from outside the package get a typed name."""
    if isinstance(error, MasklogError):
        return error
    if isinstance(error, (struct.error, UnicodeDecodeError, json.JSONDecodeError)):
        return MalformedInput(str(error))
    if isinstance(error, ValueError):
        return ConfigInvalid(str(error))
    if isinstance(error, RuntimeWarning):  # numpy's overflow or invalid value: a non-finite on its way
        return NonFiniteActivation(f"numpy warned: {error}")
    if isinstance(error, MemoryError):
        return OutOfMemory(str(error) or "out of memory")
    return MissingInput(str(error))


def main(argv=None) -> int:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # raised here, so reported as one typed line
            ns = _build_parser().parse_args(argv)
            if ns.command == "rerun":
                run_rerun(ns.manifest)
            else:
                _execute(ns.command, *_merge_options(ns.command, ns))
    except (MasklogError, ValueError, struct.error, OSError, RuntimeWarning, MemoryError) as e:
        error = _typed(e)
        print(json.dumps({"error": type(error).__name__, "message": str(error)}), file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
