import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masklog.corpus import synthesize
from masklog.errors import EmptyAfterCleaning
from masklog.normalize import (
    _CASE_FLIP_RE,
    _COLON_ADDRESS_RES,
    _EMBEDDED_DIGITS_RE,
    _HEX_RE,
    _IPV4_RE,
    _NUMBER_RE,
    _PATH_RE,
    _TIMESTAMP_RES,
    _UPPER_RUN_RE,
    ADDRESS_WORD,
    NUMBER_WORD,
    PATH_WORD,
    RawLog,
    clean_lines,
    normalize,
    replace_placeholders,
    split_compound,
    strip_timestamps,
)


# ---------------------------------------------------------------------------
# Reference: every pass over the whole line, unguarded, in the order the
# cleaner applies them. The two-stage cleaner must give the same text, counts
# and dropped lines for every input.

_WS_RE = re.compile(r"\s+")


def _reference_timestamps(text: str) -> tuple[str, int]:
    n_total = 0
    for rx in _TIMESTAMP_RES:
        text, n = rx.subn(" ", text)
        n_total += n
    return _WS_RE.sub(" ", text).strip(), n_total


def _reference_placeholders(text: str) -> tuple[str, int, int, int]:
    text, n_paths = _PATH_RE.subn(PATH_WORD, text)
    n_addr = 0
    for rx, word in ((_IPV4_RE, ADDRESS_WORD), (_HEX_RE, f" {ADDRESS_WORD} "),
                     *((rx, ADDRESS_WORD) for rx in _COLON_ADDRESS_RES)):
        text, n = rx.subn(word, text)
        n_addr += n
    text, n_num = _NUMBER_RE.subn(NUMBER_WORD, text)
    text, n_emb = _EMBEDDED_DIGITS_RE.subn(f" {NUMBER_WORD} ", text)
    return _WS_RE.sub(" ", text).strip(), n_paths, n_addr, n_num + n_emb


def _reference_split_compound(text: str) -> str:
    """Compound splitting of the text between hex literals; each literal is kept whole."""
    out, end = [], 0
    for m in [*_HEX_RE.finditer(text), None]:
        gap = text[end : m.start() if m else len(text)]
        out.append(_CASE_FLIP_RE.sub(r"\1 \2", _UPPER_RUN_RE.sub(r"\1 \2", gap)))
        if m:
            out.append(m.group())
            end = m.end()
    return "".join(out)


def _reference_normalize(text: str) -> tuple[str, list[int]]:
    """(cleaned text, [timestamps, paths, addresses, numbers]) for one raw line."""
    text, n_ts = _reference_timestamps(text)
    text = _reference_split_compound(text)
    text, *counts = _reference_placeholders(text)
    return _WS_RE.sub(" ", text.lower()).strip(), [n_ts, *counts]


def _reference_clean_lines(lines, source_id: str = "") -> tuple:
    texts, refs, dropped, counts = [], [], [], [0, 0, 0, 0]
    for i, line in enumerate(lines):
        text, line_counts = _reference_normalize(line.rstrip("\r\n"))
        counts = [a + b for a, b in zip(counts, line_counts)]
        if text:
            texts.append(text)
            refs.append((source_id, i))
        else:
            dropped.append(i)
    return texts, refs, dropped, counts


def _observed(lines, source_id: str = "") -> tuple:
    cleaned, report = clean_lines(lines, source_id=source_id)
    counts = [report.n_timestamps, report.n_paths, report.n_addresses, report.n_numbers]
    return [c.text for c in cleaned], [c.raw_ref for c in cleaned], report.dropped_line_nos, counts


class TestStripTimestamps:
    def test_dotted_datetime_removed(self):
        assert strip_timestamps("2005-06-09-14.53.14.219998 R27 kernel info") == "R27 kernel info"

    def test_no_timestamp_is_noop(self):
        assert strip_timestamps("kernel info") == "kernel info"

    def test_multiple_timestamps(self):
        text = "a 2005-06-09-14.53.14.219998 b 2005-06-09-14.53.14.219999 c"
        assert strip_timestamps(text) == "a b c"

    @pytest.mark.parametrize(
        "text",
        [
            "2020-01-02 03:04:05 boot",
            "2020-01-02T03:04:05.123Z boot",
            "Jun 9 14:53:14 boot",
            "Tue Jun 9 14:53:14 boot",
            "1117838570 boot",
            "2020/01/02 boot",
            "14:53:14 boot",
        ],
    )
    def test_default_pattern_inventory(self, text):
        assert strip_timestamps(text) == "boot"


class TestSplitCompound:
    def test_upper_run_boundary(self):
        assert split_compound("RASKernelInfo") == "RAS Kernel Info"

    def test_single_case_unchanged(self):
        assert split_compound("error") == "error"
        assert split_compound("ERROR") == "ERROR"

    def test_digit_to_upper_boundary(self):
        assert split_compound("ciod2Fail") == "ciod2 Fail"

    def test_lower_to_upper_boundary(self):
        assert split_compound("infoKernel") == "info Kernel"

    def test_hex_literals_stay_whole(self):
        assert split_compound("RASKernel 0x00544EB8 0XAb ciod2Fail") == "RAS Kernel 0x00544EB8 0XAb ciod2 Fail"


class TestReplacePlaceholders:
    def test_number_and_path(self):
        assert replace_placeholders("read 3.2143 from /var/log/sys.d") == "read float from filepath"

    def test_nothing_to_replace(self):
        assert replace_placeholders("hello world") == "hello world"

    def test_address_then_number_order(self):
        got = replace_placeholders("conn 10.0.0.1 buf 0x00ffee count 42")
        assert got == "conn address buf address count float"

    def test_path_with_digits_yields_no_float(self):
        got = replace_placeholders("mount /dev/sda3 now")
        assert got == "mount filepath now"
        assert "float" not in got

    def test_embedded_digits_split_out(self):
        assert replace_placeholders("ciod2 up") == "ciod float up"

    def test_mac_address(self):
        assert replace_placeholders("if aa:bb:cc:dd:ee:ff up") == "if address up"


class TestNormalize:
    def test_composed_example(self):
        raw = RawLog("2005-06-09-14.53.14.219998 RASKernelInfo 3.2143")
        assert normalize(raw).text == "ras kernel info float"

    def test_fixed_point(self):
        assert normalize(RawLog("abc")).text == "abc"

    def test_empty_after_cleaning(self):
        with pytest.raises(EmptyAfterCleaning):
            normalize(RawLog("2005-06-09-14.53.14.219998"))

    def test_raw_ref_carried(self):
        clean = normalize(RawLog("abc", source_id="s.log", line_no=17))
        assert clean.raw_ref == ("s.log", 17)

    def test_no_digits_survive(self):
        raw = RawLog("core.2005 R27 val=42 ip 10.1.2.3 id 0xdead x9y")
        for token in normalize(raw).text.split():
            assert not any(ch.isdigit() for ch in token)

    def test_idempotent_on_examples(self):
        lines = [
            "2005-06-09-14.53.14.219998 RASKernelInfo 3.2143",
            "conn 10.0.0.1 buf 0x00ffee count 42",
            "read 3.2143 from /var/log/sys.d",
            "Jun 9 14:53:14 sshd session opened for user root",
            "ciod2Fail on node R27-M0 at 14:53:14",
        ]
        for line in lines:
            once = normalize(RawLog(line)).text
            twice = normalize(RawLog(once)).text
            assert twice == once


@settings(max_examples=200, deadline=None)
@given(
    st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Zs"), max_codepoint=0x7F),
        min_size=0,
        max_size=60,
    )
)
def test_normalize_idempotent_and_digit_free(text):
    raw = RawLog(text)
    try:
        once = normalize(raw).text
    except EmptyAfterCleaning:
        return
    assert normalize(RawLog(once)).text == once
    assert not any(ch.isdigit() for tok in once.split() for ch in tok)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abcXYZ09 ./:-", min_size=1, max_size=40))
def test_normalize_deterministic(text):
    try:
        a = normalize(RawLog(text)).text
        b = normalize(RawLog(text)).text
    except EmptyAfterCleaning:
        return
    assert a == b


class TestConfig:
    """The fixed placeholder inventory keeps the invariants the cleaned text relies on."""

    def test_placeholder_words_must_be_lowercase(self):
        for word in (PATH_WORD, NUMBER_WORD, ADDRESS_WORD):
            assert word == word.lower() and word.split() == [word]

    def test_placeholder_words_must_be_distinct(self):
        assert len({PATH_WORD, NUMBER_WORD, ADDRESS_WORD}) == 3


class TestCleanLines:
    def test_drops_and_counts(self):
        lines = [
            "2005-06-09-14.53.14.219998 RASKernelInfo 3.2143",
            "",
            "conn 10.0.0.1 up",
            "2005-06-09-14.53.14.219998",
        ]
        cleaned, report = clean_lines(lines, source_id="x.log")
        assert [c.text for c in cleaned] == ["ras kernel info float", "conn address up"]
        assert report.dropped_line_nos == [1, 3]
        assert report.n_timestamps == 2
        assert report.n_addresses == 1
        assert report.n_numbers == 1
        assert cleaned[1].raw_ref == ("x.log", 2)


# ---------------------------------------------------------------------------
# The two-stage cleaner against the whole-line reference


# Characters and fragments that reach every guard, every pattern and the
# whitespace and casing corner cases: Unicode digits (٣), a digit that is no
# decimal (²), final sigma, and whitespace that is not a space.
ADVERSARIAL = [
    *"abxyzXYZ019-:/.\\~@%+_eE ,T",
    "٣", "²", "½", "Σ", "\t", "\u00a0", "\x1c", "\u2028",
    "Jan ", "Tue ", "2005-06-09", "2005-06-09-14.53.14.219998", "14:53:14", "1117838570",
    "0XAB", "0x1f", "fe80::1", "aa:bb:cc:dd:ee:ff", "10.0.0.1", "C:\\x", "/var/log", "ciod2Fail",
    "RASKernel", "ΣΑΣ", "3.2e-5",
]


ADVERSARIAL_LINE = st.lists(st.sampled_from(ADVERSARIAL), max_size=14).map("".join)


@settings(max_examples=1500, deadline=None)
@given(st.lists(ADVERSARIAL_LINE, max_size=4))
def test_clean_lines_equals_the_whole_line_reference(lines):
    assert _observed(lines, "a.log") == _reference_clean_lines(lines, "a.log")


@settings(max_examples=1000, deadline=None)
@given(ADVERSARIAL_LINE)
def test_public_passes_equal_the_whole_line_reference(text):
    assert strip_timestamps(text) == _reference_timestamps(text)[0]
    assert replace_placeholders(text) == _reference_placeholders(text)[0]


def test_fixture_raw_log_equals_the_whole_line_reference():
    lines = synthesize(50, 5000, 200, seed=7).lines  # the pinned fixture's raw log
    assert _observed(lines, "raw.log") == _reference_clean_lines(lines, "raw.log")


# One case per guard: each line holds the literal the guard looks for, but
# the guarded pattern does not match (or, where noted, does), so a guard that
# skips too much or a stage that runs a pattern out of order changes the
# result.
GUARD_CASES = {
    "line-digit": "no digits at all: Jan - . : /",
    "dotted-datetime": "a-b.c 2005-06-09-14.53 x",
    "iso-datetime": "x-y 14:53 2005-06-09T14:53",
    "syslog": "Jan x:y 9 14:53",
    "epoch": "3117838570 11178385701 1117838570.x",
    "bare-date": "a-b/c 2005-6-09 2005/06/091",
    "time-of-day": "x:y 1:2:3 14:53:14:1",
    "timestamp-then-token": "Jan 9 14:53:14 2005 rest",
    "lowercase-word": "ab éé σς",
    "compound-capital": "ABC Éa aΣ R27",
    "path": "a/b a\\b http://h/x 1/2",
    "ipv4": "1.x a.1 1.2.3 v1.2.3.4",
    "hex": "0xg 0X 0xAB",
    "colon-address": "x:y a:b:c 12:34 fe80::1 aa:bb:cc:dd:ee:ff:00",
    "number": "a1 1a +1 -2.5e3 1.2.",
    "embedded-digits": "ab12cd r27-m0 x٣y",
}


@pytest.mark.parametrize("line", GUARD_CASES.values(), ids=GUARD_CASES.keys())
def test_guard_case_equals_the_whole_line_reference(line):
    assert _observed([line]) == _reference_clean_lines([line])


def test_uppercase_hex_guard():
    # Compound splitting leaves "0XAB" whole, so a full cleaning pass reaches
    # the "0X" guard too; "0X" and "0Xg" are no hex literals and do split.
    assert replace_placeholders("0XAB 0X 0Xg") == _reference_placeholders("0XAB 0X 0Xg")[0] == "address float X float Xg"
    assert _observed(["0XAB 0X 0Xg"])[0] == _reference_clean_lines(["0XAB 0X 0Xg"])[0] == ["address float x float xg"]


# Hex literals with capital letters, each one address and nothing else.
UPPERCASE_HEX_CASES = {
    "whole-token": ("0xDEADBEEF", "address"),
    "capital-x": ("0XDEADBEEF", "address"),
    "mid-line": ("addr 0x00544EB8 ok", "addr address ok"),
    "two-literals": ("instr 0x1F at 0xaB", "instr address at address"),
}


@pytest.mark.parametrize("line, text", UPPERCASE_HEX_CASES.values(), ids=UPPERCASE_HEX_CASES.keys())
def test_uppercase_hex_is_one_address(line, text):
    assert normalize(RawLog(line)).text == text
    assert _observed([line]) == _reference_clean_lines([line])
    assert _observed([line])[3][2] == line.count("0x") + line.count("0X")  # the address count


# Hex literals glued to letters: the literal becomes its own address word and splits the word.
GLUED_HEX_CASES = {
    "letters-before": ("id0x1f ok", "id address ok"),
    "hex-letters-before": ("deadbeef0x12", "deadbeef address"),
    "letters-after": ("reg0x1FGo", "reg address go"),
}


@pytest.mark.parametrize("line, text", GLUED_HEX_CASES.values(), ids=GLUED_HEX_CASES.keys())
def test_glued_hex_is_an_address_word_of_its_own(line, text):
    assert normalize(RawLog(line)).text == text
    assert replace_placeholders(line) == _reference_placeholders(line)[0]
    assert _observed([line]) == _reference_clean_lines([line])
    assert _observed([line])[3][2] == 1  # the address count


class TestDigitInvariant:
    """Cleaned text holds no decimal digit (Unicode Nd); other numeric characters pass through."""

    def test_decimal_digits_of_any_script_become_numbers(self):
        assert normalize(RawLog("a ٣٤ b")).text == "a float b"

    def test_other_numeric_characters_pass_through(self):
        assert "²".isdigit() and not "²".isdecimal()
        assert normalize(RawLog("x² y")).text == "x² y"
        assert normalize(RawLog("½ cup")).text == "½ cup"

    def test_no_decimal_digit_survives(self):
        raw = RawLog("core.2005 R27 val=42 ip 10.1.2.3 id 0xdead x9y ٣x x²")
        assert not any(ch.isdecimal() for ch in normalize(raw).text)
