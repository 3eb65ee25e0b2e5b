"""Dataset handling: dedup, seeded 70/15/15 splits, labeled files, synthesis.

The synthetic generator exists so the end-to-end gates can run at desk scale
without the public benchmark datasets. It produces template-structured normal
logs plus three anomaly flavors: never-seen templates (out-of-vocabulary),
shuffled token order, and in-vocabulary word/slot corruption. The latter two
use only words the model sees in training, so out-of-vocabulary detection
alone cannot ace the fixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .errors import LengthMismatch, MalformedInput, TooFewLogs
from .normalize import CleanLog, RawLog, normalize

LABEL_NORMAL = "normal"
LABEL_ANOMALOUS = "anomalous"


def canon_label(label) -> str:
    if label in (LABEL_NORMAL, LABEL_ANOMALOUS):
        return label
    if str(label) in ("0", "false", "False"):
        return LABEL_NORMAL
    if str(label) in ("1", "true", "True"):
        return LABEL_ANOMALOUS
    raise MalformedInput(f"unrecognized label {label!r}")


_WORD_POOL = (
    "kernel", "cache", "parity", "instruction", "data", "interface", "link", "daemon",
    "service", "session", "connection", "timeout", "retry", "buffer", "queue", "memory",
    "page", "fault", "disk", "volume", "mount", "sync", "flush", "commit", "transaction",
    "socket", "packet", "network", "node", "port", "channel", "controller", "power",
    "status", "check", "health", "monitor", "thread", "worker", "job", "task", "schedule",
    "start", "stop", "complete", "success", "failure", "warning", "info", "debug", "trace",
    "request", "response", "client", "server", "auth", "login", "logout", "user", "group",
    "policy", "rule", "filter", "route", "table", "index", "block", "segment", "region",
    "cluster", "replica", "shard", "primary", "secondary", "backup", "restore", "snapshot",
    "register", "handler", "event", "signal", "interrupt", "driver", "module", "firmware",
    "version", "update", "upgrade", "install", "remove", "config", "parameter", "value",
    "limit", "threshold", "quota", "usage", "load", "average", "peak", "idle", "active",
    "pending", "closed", "open", "read", "write", "send", "receive", "bytes", "count",
    "total", "rate", "latency", "duration", "error", "corrected", "detected", "recovered",
    "ignored", "aborted", "resumed", "paused",
)

_PATH_SEGMENTS = (
    "var", "log", "sys", "usr", "lib", "tmp", "data", "cache", "run", "proc",
    "dev", "mnt", "opt", "srv", "etc", "home", "core", "dump", "trace", "spool",
)

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

# Syllables for never-seen anomaly vocabulary; combinations are gibberish by
# construction and are filtered against the normal pool anyway.
_ANOMALY_SYLLABLES = (
    "xen", "vor", "qua", "zel", "pyx", "gro", "thal", "brim", "ska", "dru",
    "fen", "wex", "jol", "yam", "kru", "plo", "snid", "tarn", "ulv", "morg",
)

_SLOT_KINDS = ("number", "path", "address")

# Anomaly mix: never-seen templates / shuffled order / in-vocab corruption.
_FRAC_NOVEL = 0.4
_FRAC_SHUFFLE = 0.3
# Templates 0.._N_CORRUPT_SOURCES-1 donate bodies and swap words for the
# corrupted flavors; keeping the donor set small keeps the anomaly vocabulary
# dominated by never-seen tokens.
_N_CORRUPT_SOURCES = 8


@dataclass(eq=False)
class Split:
    train: list
    validation: list
    test: list  # (CleanLog, label)


@dataclass(eq=False)
class SyntheticCorpus:
    lines: list  # raw log lines, timestamps and all
    labels: list


def dedupe(corpus) -> tuple[list, dict]:
    """Keep the first occurrence of each cleaned text; report multiplicities."""
    unique: list = []
    counts: dict = {}
    for log in corpus:
        text = log.text if isinstance(log, CleanLog) else str(log)
        if text not in counts:
            counts[text] = 0
            unique.append(log)
        counts[text] += 1
    return unique, counts


def split_corpus(unique_normals, anomalies, seed: int) -> Split:
    """Seeded shuffle then a contiguous 70/15/15 cut over unique normal logs.

    The test partition holds the final 15% of normals plus every anomaly;
    anomalies never enter train or validation.
    """
    normals = list(unique_normals)
    n = len(normals)
    if n < 10:
        raise TooFewLogs(f"need at least 10 unique normal logs, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [normals[i] for i in order]
    n_train = round(0.70 * n)
    n_val = round(0.15 * n)
    train = shuffled[:n_train]
    validation = shuffled[n_train : n_train + n_val]
    test = [(log, LABEL_NORMAL) for log in shuffled[n_train + n_val :]]
    test += [(log, LABEL_ANOMALOUS) for log in anomalies]
    return Split(train=train, validation=validation, test=test)


def _make_timestamp(rng) -> str:
    y, mo, d = int(rng.integers(2004, 2025)), int(rng.integers(1, 13)), int(rng.integers(1, 29))
    h, mi, s = int(rng.integers(0, 24)), int(rng.integers(0, 60)), int(rng.integers(0, 60))
    style = int(rng.integers(0, 3))
    if style == 0:
        return f"{y:04d}-{mo:02d}-{d:02d}-{h:02d}.{mi:02d}.{s:02d}.{int(rng.integers(0, 10**6)):06d}"
    if style == 1:
        return f"{y:04d}-{mo:02d}-{d:02d} {h:02d}:{mi:02d}:{s:02d}"
    return f"{_MONTHS[mo - 1]} {d} {h:02d}:{mi:02d}:{s:02d}"


def _fill_slot(kind: str, rng) -> str:
    if kind == "number":
        if rng.random() < 0.5:
            return str(int(rng.integers(0, 100000)))
        return f"{rng.uniform(0, 1000):.4f}"
    if kind == "path":
        segs = [str(x) for x in rng.choice(_PATH_SEGMENTS, size=int(rng.integers(2, 5)), replace=False)]
        return "/" + "/".join(segs)
    if rng.random() < 0.5:
        return ".".join(str(int(rng.integers(0, 256))) for _ in range(4))
    return f"0x{int(rng.integers(0, 2**32)):08x}"


class _Template:
    """A keyword skeleton with alternation slots and raw value slots."""

    def __init__(self, rng, word_pool):
        n_skeleton = int(rng.integers(9, 15))
        skeleton = [str(w) for w in rng.choice(word_pool, size=n_skeleton, replace=False)]
        parts = [("word", w) for w in skeleton]
        for _ in range(int(rng.integers(3, 6))):
            n_choices = int(rng.integers(2, 5))
            choices = tuple(str(w) for w in rng.choice(word_pool, size=n_choices, replace=False))
            parts.insert(int(rng.integers(0, len(parts) + 1)), ("alt", choices))
        for _ in range(int(rng.integers(1, 4))):
            kind = _SLOT_KINDS[int(rng.integers(0, len(_SLOT_KINDS)))]
            parts.insert(int(rng.integers(0, len(parts) + 1)), ("slot", kind))
        self.parts = tuple(parts)

    def realize(self, rng) -> list[str]:
        tokens = []
        for kind, payload in self.parts:
            if kind == "word":
                tokens.append(payload)
            elif kind == "alt":
                tokens.append(payload[int(rng.integers(0, len(payload)))])
            else:
                tokens.append(_fill_slot(payload, rng))
        return tokens

    def word_positions(self):
        return [i for i, (kind, _) in enumerate(self.parts) if kind != "slot"]

    def slot_positions(self):
        return [i for i, (kind, _) in enumerate(self.parts) if kind == "slot"]


def _novel_words(rng, n: int, taken: set) -> list[str]:
    words = []
    while len(words) < n:
        syls = int(rng.integers(2, 4))
        w = "".join(_ANOMALY_SYLLABLES[int(rng.integers(0, len(_ANOMALY_SYLLABLES)))] for _ in range(syls))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _clean_text(line: str) -> str:
    return normalize(RawLog(text=line)).text


def _raw_line(tokens, rng) -> str:
    prefix = [_make_timestamp(rng)]
    if rng.random() < 0.3:
        prefix.append(f"node{int(rng.integers(0, 512))}")
    return " ".join(prefix + list(tokens))


def synthesize(n_templates: int, n_normal: int, n_anomalies: int, seed: int) -> SyntheticCorpus:
    """Deterministic labeled corpus of raw log lines for desk-scale runs."""
    if n_templates < 2:
        raise ValueError("need at least 2 templates")
    if n_normal < 0 or n_anomalies < 0:
        raise ValueError(f"line counts must be >= 0, not normal={n_normal!r} anomalies={n_anomalies!r}")
    if n_normal + n_anomalies == 0:
        raise ValueError("need at least one normal or anomalous line")
    rng = np.random.default_rng(seed)
    templates = [_Template(rng, _WORD_POOL) for _ in range(n_templates)]

    normal_tokens = [templates[int(rng.integers(0, n_templates))].realize(rng) for _ in range(n_normal)]
    normal_lines = [_raw_line(toks, rng) for toks in normal_tokens]
    normal_clean = {_clean_text(line) for line in normal_lines}

    n_novel = round(_FRAC_NOVEL * n_anomalies)
    n_shuffle = round(_FRAC_SHUFFLE * n_anomalies)
    n_corrupt = n_anomalies - n_novel - n_shuffle

    taken: set = set(_WORD_POOL)
    novel_pool = tuple(_novel_words(rng, 260, taken))
    novel_templates = [_Template(rng, novel_pool) for _ in range(max(2, n_templates // 3))]

    n_sources = min(_N_CORRUPT_SOURCES, n_templates)
    swap_words = sorted(
        {w for t in templates[:n_sources] for kind, payload in t.parts if kind != "slot"
         for w in ([payload] if kind == "word" else list(payload))}
    )

    anomaly_lines: list[str] = []

    def admit(tokens) -> bool:
        line = _raw_line(tokens, rng)
        if _clean_text(line) in normal_clean:
            return False
        anomaly_lines.append(line)
        return True

    while len(anomaly_lines) < n_novel:
        t = novel_templates[int(rng.integers(0, len(novel_templates)))]
        admit(t.realize(rng))

    while len(anomaly_lines) < n_novel + n_shuffle:
        t = templates[int(rng.integers(0, n_sources))]
        tokens = t.realize(rng)
        perm = rng.permutation(len(tokens))
        # demand a real scramble, not a near-identity permutation
        if np.mean(perm != np.arange(len(tokens))) < 0.5:
            continue
        tokens = [tokens[i] for i in perm]
        for pos in rng.choice(len(tokens), size=3, replace=False):
            tokens[int(pos)] = swap_words[int(rng.integers(0, len(swap_words)))]
        admit(tokens)

    while len(anomaly_lines) < n_novel + n_shuffle + n_corrupt:
        ti = int(rng.integers(0, n_sources))
        t = templates[ti]
        tokens = t.realize(rng)
        words_at = t.word_positions()
        for pos in words_at:
            tokens[pos] = swap_words[int(rng.integers(0, len(swap_words)))]
        for pos in t.slot_positions():
            wrong_kind = _SLOT_KINDS[int(rng.integers(0, len(_SLOT_KINDS)))]
            tokens[pos] = _fill_slot(wrong_kind, rng)
        admit(tokens)

    lines = normal_lines + anomaly_lines
    labels = [LABEL_NORMAL] * len(normal_lines) + [LABEL_ANOMALOUS] * len(anomaly_lines)
    order = rng.permutation(len(lines))
    return SyntheticCorpus(lines=[lines[i] for i in order], labels=[labels[i] for i in order])


def load_lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as f:
        return [line.rstrip("\n").rstrip("\r") for line in f]


def write_lines(path, lines) -> None:
    with atomic_open(path) as f:
        for line in lines:
            f.write(line + "\n")


def load_labeled(path, labels_path=None) -> tuple[list[str], list[str]]:
    """Read a labeled corpus: inline two-column TSV, or text plus a parallel 0/1 file."""
    if labels_path is None:
        texts, labels = [], []
        for line in load_lines(path):
            text, _, label = line.rpartition("\t")
            texts.append(text)
            labels.append(canon_label(label.strip()))
        return texts, labels
    texts = load_lines(path)
    labels = [canon_label(v.strip()) for v in load_lines(labels_path)]
    if len(texts) != len(labels):
        raise LengthMismatch(f"{len(texts)} logs vs {len(labels)} labels")
    return texts, labels


def write_labeled(path, texts, labels) -> None:
    if len(texts) != len(labels):
        raise ValueError("texts and labels must align")
    write_lines(path, [f"{t}\t{l}" for t, l in zip(texts, labels)])
