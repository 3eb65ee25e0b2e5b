"""Raw log cleaning: timestamp removal, compound splitting, placeholder substitution.

The cleaning is parsing-free: no templates are mined, only a fixed inventory
of regular expressions and placeholder words is applied. Output text is
lowercase, whitespace-collapsed, and holds no decimal digit (Unicode Nd, what
`\\d` and `str.isdecimal` match): numeric content is abstracted into
placeholder words. Other numeric characters, such as `²` or `½`, pass through.

Cleaning runs in two stages. The line stage removes timestamps, the only
patterns that may match whitespace, and splits what is left into whitespace
tokens. The token stage then transforms each token on its own: compound
splitting (which leaves each hex literal whole), paths, addresses, numbers,
embedded digits and lowercasing, in that order. This gives the same text and
counts as running every pass over the whole line, because of one rule that
every token-stage pattern keeps:

    it matches no whitespace, and its lookarounds treat a space exactly as
    they treat the edge of the string.

`str.lower`'s final-sigma rule stops at whitespace too. A new token-stage
pattern that breaks the rule belongs in the line stage.

Each pass runs only when the text it runs on holds a literal the pattern
cannot match without (a digit, `:`, `/`, ...). Each stage tests for a digit
once, on its input as it came in: substitutions insert only spaces and
lowercase placeholder words, so they never add a literal that a later
pattern needs. A token of lowercase letters alone cannot match any pattern
and passes through.
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
# Per timestamp pattern, in the same order: the literals it cannot match
# without, tested on the text it runs on. Every pattern also needs a digit.
_TIMESTAMP_GUARDS = (
    lambda text: "-" in text and "." in text,  # dotted datetime
    lambda text: "-" in text and ":" in text,  # ISO datetime
    lambda text: ":" in text,  # syslog
    lambda text: True,  # epoch seconds
    lambda text: "-" in text or "/" in text,  # bare date
    lambda text: ":" in text,  # time of day
)

# Placeholder words: lowercase single tokens, pairwise distinct.
PATH_WORD = "filepath"
NUMBER_WORD = "float"
ADDRESS_WORD = "address"

# Absolute unix or windows paths, optionally ~-prefixed. The lookbehind keeps
# slashes that terminate a word (URLs, fractions) from being mistaken for a
# path start.
_PATH_RE = re.compile(r"(?:[A-Za-z]:\\[\w\\.\-+~%]+|(?<![\w.:])~?(?:/[\w.\-+~%@]+)+/?)")

_IPV4_RE = re.compile(r"(?<![\w.])(?:\d{1,3}\.){3}\d{1,3}(?::\d{1,5})?(?:/\d{1,2})?(?![\w.])")
_HEX_RE = re.compile(r"0[xX][0-9a-fA-F]+")  # hex literal / memory address
_HEX_SPLIT_RE = re.compile(f"({_HEX_RE.pattern})")  # split() keeps each hex literal as a part
_COLON_ADDRESS_RES = (
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
_DIGIT_RE = re.compile(r"\d")


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


def _timestamp_tokens(text: str, report: CleanReport) -> list[str]:
    """The line stage: remove timestamps, then split into whitespace tokens."""
    if _DIGIT_RE.search(text):  # every timestamp pattern needs one
        for rx, guard in zip(_TIMESTAMP_RES, _TIMESTAMP_GUARDS):
            if guard(text):
                text, n = rx.subn(" ", text)
                report.n_timestamps += n
    return text.split()


def strip_timestamps(text: str) -> str:
    """Remove every substring matching one of the timestamp patterns.

    Surrounding whitespace is collapsed to a single space; text without
    timestamps passes through unchanged (modulo whitespace collapsing).
    """
    return " ".join(_timestamp_tokens(text, CleanReport()))


def split_compound(text: str) -> str:
    """Insert token boundaries at case transitions inside compound words.

    A run of uppercase letters followed by a lowercase letter splits before
    its last capital ("RASKernel" -> "RAS Kernel"); a lowercase letter or
    digit followed by an uppercase letter splits between them
    ("ciod2Fail" -> "ciod2 Fail"). Single-case tokens are left alone, and so
    is each hex literal ("0x00544EB8"), which the address pass then replaces
    whole.
    """
    parts = _HEX_SPLIT_RE.split(text) if "0x" in text or "0X" in text else [text]
    return "".join(
        part if i % 2 else _CASE_FLIP_RE.sub(r"\1 \2", _UPPER_RUN_RE.sub(r"\1 \2", part))
        for i, part in enumerate(parts)
    )


def _placeholders(token: str, report: CleanReport) -> str:
    """Paths, then addresses, then numbers in one whitespace token; may add spaces."""
    digit = _DIGIT_RE.search(token) is not None
    if "/" in token or "\\" in token:
        token, n = _PATH_RE.subn(PATH_WORD, token)
        report.n_paths += n
    if digit and "." in token:
        token, n = _IPV4_RE.subn(ADDRESS_WORD, token)
        report.n_addresses += n
    if "0x" in token or "0X" in token:  # a literal inside a word splits it: "id0x1f" -> "id address"
        token, n = _HEX_RE.subn(f" {ADDRESS_WORD} ", token)
        report.n_addresses += n
    if ":" in token:
        for rx in _COLON_ADDRESS_RES:
            token, n = rx.subn(ADDRESS_WORD, token)
            report.n_addresses += n
    if digit:
        token, n = _NUMBER_RE.subn(NUMBER_WORD, token)
        # Any token still carrying digits sheds them as separate number tokens.
        token, n_emb = _EMBEDDED_DIGITS_RE.subn(f" {NUMBER_WORD} ", token)
        report.n_numbers += n + n_emb
    return token


def replace_placeholders(text: str) -> str:
    """Abstract variable fields into placeholder words.

    Replacement order is paths, then addresses, then numbers, so digits
    inside a path or address never leak out as a number placeholder.
    """
    report = CleanReport()
    return " ".join(word for token in text.split() for word in _placeholders(token, report).split())


def _clean_tokens(tokens: list[str], report: CleanReport) -> list[str]:
    """The token stage: compound splitting, placeholders and lowercasing, token by token."""
    words: list[str] = []
    for token in tokens:
        lowered = token.lower()
        if lowered == token and token.isalpha():
            words.append(token)
            continue
        if lowered != token:  # only a token with a capital letter can split
            token = split_compound(token)
        words.extend(_placeholders(token, report).lower().split())
    return words


def normalize(raw: RawLog) -> CleanLog:
    """Full cleaning pass: timestamps, compound splitting, placeholders, lowercasing.

    Raises EmptyAfterCleaning when nothing survives; callers decide whether
    to drop the line or keep a single unknown-token stand-in.
    """
    clean, _ = _normalize_counted(raw, CleanReport())
    return clean


def _normalize_counted(raw: RawLog, report: CleanReport) -> tuple[CleanLog, CleanReport]:
    words = _clean_tokens(_timestamp_tokens(raw.text, report), report)
    if not words:
        raise EmptyAfterCleaning(f"log {raw.source_id}:{raw.line_no} reduced to zero tokens")
    return CleanLog(text=" ".join(words), raw_ref=(raw.source_id, raw.line_no)), report


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
