"""Raw log cleaning: timestamp removal, compound splitting, placeholder substitution.

The cleaning is parsing-free: no templates are mined, only a fixed inventory
of regular expressions and placeholder words is applied. Output text is
lowercase, whitespace-collapsed, and contains no digits (numeric content is
abstracted into placeholder words).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import EmptyAfterCleaning

# Applied in order; earlier patterns win on overlap. Digits-heavy forms
# (dotted datetime) must precede the bare-date form that they contain.
_TIMESTAMP_RES = (
    re.compile(r"\d{4}-\d{2}-\d{2}-\d{2}\.\d{2}\.\d{2}\.\d+"),  # dotted datetime
    re.compile(r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}(?:[.,]\d+)?(?:Z|[+-]\d{2}:?\d{2})?"),  # ISO datetime
    re.compile(  # syslog
        r"(?:(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun)\s+)?"
        r"(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\s+\d{1,2}\s+"
        r"\d{2}:\d{2}:\d{2}(?:\s+\d{4})?"
    ),
    re.compile(r"(?<![\d.])[12]\d{9}(?:\.\d+)?(?![\d.])"),  # epoch seconds
    re.compile(r"(?<![\d.-])\d{4}[-/]\d{2}[-/]\d{2}(?![\d.-])"),  # bare date
    re.compile(r"(?<![\d:.])\d{1,2}:\d{2}:\d{2}(?:[.,]\d+)?(?![\d:])"),  # time of day
)

# Placeholder words: lowercase single tokens, pairwise distinct.
PATH_WORD = "filepath"
NUMBER_WORD = "float"
ADDRESS_WORD = "address"

# Absolute unix or windows paths, optionally ~-prefixed. The lookbehind keeps
# slashes that terminate a word (URLs, fractions) from being mistaken for a
# path start.
_PATH_RE = re.compile(r"(?:[A-Za-z]:\\[\w\\.\-+~%]+|(?<![\w.:])~?(?:/[\w.\-+~%@]+)+/?)")

_ADDRESS_RES = (
    re.compile(r"(?<![\w.])(?:\d{1,3}\.){3}\d{1,3}(?::\d{1,5})?(?:/\d{1,2})?(?![\w.])"),  # IPv4
    re.compile(r"0[xX][0-9a-fA-F]+"),  # hex literal / memory address
    re.compile(r"(?<![\w:])(?:[0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}(?![\w:])"),  # MAC
    re.compile(r"(?<![\w:])(?:[0-9a-fA-F]{1,4}:){2,7}[0-9a-fA-F]{1,4}(?![\w:])"),  # IPv6-like
)

# Whole numeric tokens, including decimals, dotted groups and exponents.
_NUMBER_RE = re.compile(r"(?<![\w.])[+-]?\d+(?:\.\d+)*(?:[eE][+-]?\d+)?(?![\w.])")
# Digit runs embedded in alphanumeric tokens ("r27", "ciod2"); splitting them
# out keeps the output digit-free.
_EMBEDDED_DIGITS_RE = re.compile(r"\d+(?:\.\d+)*")

_UPPER_RUN_RE = re.compile(r"([A-Z]+)([A-Z][a-z])")
_CASE_FLIP_RE = re.compile(r"([a-z0-9])([A-Z])")
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class RawLog:
    """One log line as read from the source, before any cleaning."""

    text: str
    source_id: str = ""
    line_no: int = 0


@dataclass(frozen=True)
class CleanLog:
    """A normalized log line plus a back-reference to its raw origin."""

    text: str
    raw_ref: tuple[str, int] = ("", 0)


@dataclass
class CleanReport:
    """Sidecar statistics for a cleaning run over many lines."""

    dropped_line_nos: list[int] = field(default_factory=list)
    n_timestamps: int = 0
    n_paths: int = 0
    n_addresses: int = 0
    n_numbers: int = 0

    def as_dict(self) -> dict:
        return {
            "dropped_line_nos": self.dropped_line_nos,
            "counts": {
                "timestamps": self.n_timestamps,
                "paths": self.n_paths,
                "addresses": self.n_addresses,
                "numbers": self.n_numbers,
            },
        }


def _strip_timestamps(text: str) -> tuple[str, int]:
    n_total = 0
    for rx in _TIMESTAMP_RES:
        text, n = rx.subn(" ", text)
        n_total += n
    return _WS_RE.sub(" ", text).strip(), n_total


def strip_timestamps(text: str) -> str:
    """Remove every substring matching one of the timestamp patterns.

    Surrounding whitespace is collapsed to a single space; text without
    timestamps passes through unchanged (modulo whitespace collapsing).
    """
    return _strip_timestamps(text)[0]


def split_compound(text: str) -> str:
    """Insert token boundaries at case transitions inside compound words.

    A run of uppercase letters followed by a lowercase letter splits before
    its last capital ("RASKernel" -> "RAS Kernel"); a lowercase letter or
    digit followed by an uppercase letter splits between them
    ("ciod2Fail" -> "ciod2 Fail"). Single-case tokens are left alone.
    """
    text = _UPPER_RUN_RE.sub(r"\1 \2", text)
    return _CASE_FLIP_RE.sub(r"\1 \2", text)


def _replace_placeholders(text: str) -> tuple[str, int, int, int]:
    text, n_paths = _PATH_RE.subn(PATH_WORD, text)
    n_addr = 0
    for rx in _ADDRESS_RES:
        text, n = rx.subn(ADDRESS_WORD, text)
        n_addr += n
    text, n_num = _NUMBER_RE.subn(NUMBER_WORD, text)
    # Any token still carrying digits sheds them as separate number tokens.
    text, n_emb = _EMBEDDED_DIGITS_RE.subn(f" {NUMBER_WORD} ", text)
    return _WS_RE.sub(" ", text).strip(), n_paths, n_addr, n_num + n_emb


def replace_placeholders(text: str) -> str:
    """Abstract variable fields into placeholder words.

    Replacement order is paths, then addresses, then numbers, so digits
    inside a path or address never leak out as a number placeholder.
    """
    return _replace_placeholders(text)[0]


def normalize(raw: RawLog) -> CleanLog:
    """Full cleaning pass: timestamps, compound splitting, placeholders, lowercasing.

    Raises EmptyAfterCleaning when nothing survives; callers decide whether
    to drop the line or keep a single unknown-token stand-in.
    """
    clean, _ = _normalize_counted(raw, CleanReport())
    return clean


def _normalize_counted(raw: RawLog, report: CleanReport) -> tuple[CleanLog, CleanReport]:
    text, n_ts = _strip_timestamps(raw.text)
    text, n_p, n_a, n_n = _replace_placeholders(split_compound(text))
    text = _WS_RE.sub(" ", text.lower()).strip()
    report.n_timestamps += n_ts
    report.n_paths += n_p
    report.n_addresses += n_a
    report.n_numbers += n_n
    if not text:
        raise EmptyAfterCleaning(f"log {raw.source_id}:{raw.line_no} reduced to zero tokens")
    return CleanLog(text=text, raw_ref=(raw.source_id, raw.line_no)), report


def clean_lines(lines, source_id: str = "") -> tuple[list[CleanLog], CleanReport]:
    """Normalize many lines, dropping the ones that clean away to nothing.

    Returns the surviving CleanLogs in input order and a report listing the
    dropped line numbers and per-class replacement counts.
    """
    report = CleanReport()
    cleaned: list[CleanLog] = []
    for i, line in enumerate(lines):
        raw = RawLog(text=line.rstrip("\r\n"), source_id=source_id, line_no=i)
        try:
            clean, report = _normalize_counted(raw, report)
        except EmptyAfterCleaning:
            report.dropped_line_nos.append(i)
            continue
        cleaned.append(clean)
    return cleaned, report
