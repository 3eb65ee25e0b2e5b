import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masklog.errors import EmptyAfterCleaning
from masklog.normalize import (
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
