import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masklog.errors import ConfigInvalid, EmptyAfterCleaning, EmptyCorpus, UnknownId
from masklog.normalize import CleanLog
from masklog.vocab import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    build_vocab,
    decode,
    encode,
    load_vocab,
    save_vocab,
)


class TestBuildVocab:
    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab(["a b", "a c"], min_freq=1)
        assert vocab.id_to_token[:4] == SPECIAL_TOKENS
        assert vocab.token_to_id["a"] == 4
        assert vocab.id_to_token[4:] == ("a", "b", "c")

    def test_min_freq_filters(self):
        vocab = build_vocab(["a b", "a c"], min_freq=2)
        assert vocab.id_to_token == SPECIAL_TOKENS + ("a",)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([], min_freq=1)

    def test_max_size_truncates(self):
        vocab = build_vocab(["a a a b b c"], min_freq=1, max_size=6)
        assert len(vocab) == 6
        assert vocab.id_to_token[4:] == ("a", "b")

    @pytest.mark.parametrize("max_size", [0, 4])
    def test_max_size_without_room_for_a_token_is_refused(self, max_size):
        with pytest.raises(ConfigInvalid, match=f"max_vocab={max_size} .* 4 special tokens"):
            build_vocab(["a b"], min_freq=1, max_size=max_size)

    def test_monotone_in_min_freq(self):
        corpus = ["a b c", "a b", "a", "d d e"]
        sizes = [len(build_vocab(corpus, min_freq=f)) for f in (1, 2, 3)]
        assert sizes == sorted(sizes, reverse=True)

    def test_accepts_cleanlog_objects(self):
        vocab = build_vocab([CleanLog("a b"), CleanLog("a")])
        assert vocab.token_to_id["a"] == 4

    def test_byte_deterministic(self, tmp_path):
        corpus = ["gamma beta", "alpha beta", "beta"]
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        save_vocab(build_vocab(corpus), p1)
        save_vocab(build_vocab(list(corpus)), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestEncode:
    def test_basic(self):
        vocab = build_vocab(["ras kernel info"])
        seq = encode(CleanLog("ras kernel info"), vocab, max_len=8)
        assert seq.length == 3
        assert list(seq.ids[:3]) == [vocab.token_to_id[t] for t in ("ras", "kernel", "info")]
        assert all(i == PAD_ID for i in seq.ids[3:])

    def test_oov_becomes_unk(self):
        vocab = build_vocab(["kernel info"])
        seq = encode(CleanLog("zzz-unknown kernel"), vocab, max_len=8)
        assert seq.length == 2
        assert seq.ids[0] == UNK_ID
        assert seq.ids[1] == vocab.token_to_id["kernel"]

    def test_truncation_flag(self):
        vocab = build_vocab(["w"])
        seq = encode(CleanLog(" ".join(["w"] * 200)), vocab, max_len=128)
        assert seq.length == 128
        assert seq.ids.shape == (128,) and (seq.ids == vocab.token_to_id["w"]).all()

    def test_empty_text_propagates(self):
        vocab = build_vocab(["a"])
        with pytest.raises(EmptyAfterCleaning):
            encode(CleanLog("   "), vocab, max_len=8)


class TestDecode:
    def test_round_trip(self):
        vocab = build_vocab(["ras kernel info float"])
        seq = encode(CleanLog("ras kernel info"), vocab, max_len=8)
        assert decode(seq.ids, vocab) == ["ras", "kernel", "info"]

    def test_mask_id_decodes_to_literal(self):
        vocab = build_vocab(["a"])
        assert decode([MASK_ID], vocab) == ["[MASK]"]

    def test_unknown_id_raises(self):
        vocab = build_vocab(["a"])
        with pytest.raises(UnknownId):
            decode([len(vocab)], vocab)

    def test_pad_omitted(self):
        vocab = build_vocab(["a"])
        assert decode([PAD_ID, 4, PAD_ID], vocab) == ["a"]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6).map(" ".join),
        min_size=1,
        max_size=12,
    )
)
def test_round_trip_in_vocab_logs(corpus):
    vocab = build_vocab(corpus, min_freq=1)
    for text in corpus:
        seq = encode(CleanLog(text), vocab, max_len=16)
        assert decode(seq.ids, vocab) == text.split()


def test_corpus_wide_round_trip():
    """decode(encode(x)) equals whitespace-split x wherever nothing is OOV/truncated."""
    from masklog.corpus import synthesize
    from masklog.normalize import clean_lines

    corp = synthesize(12, 400, 0, seed=13)
    cleaned, _ = clean_lines(corp.lines)
    vocab = build_vocab(cleaned)
    for log in cleaned:
        tokens = log.text.split()
        if len(tokens) > 64 or any(t not in vocab.token_to_id for t in tokens):
            continue
        assert decode(encode(log, vocab, 64).ids, vocab) == tokens


class TestVocabFile:
    def test_file_round_trip_and_digest(self, tmp_path):
        vocab = build_vocab(["ras kernel info", "kernel up"])
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[:4] == list(SPECIAL_TOKENS)
        loaded = load_vocab(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.digest() == vocab.digest()

    def test_specials_never_collide_with_corpus(self):
        # cleaned corpus text is lowercase; the uppercase specials cannot appear
        vocab = build_vocab(["[pad] [unk] weird"])
        assert vocab.token_to_id["[pad]"] >= 4
        assert vocab.id_to_token[PAD_ID] == "[PAD]"
        assert vocab.id_to_token[CLS_ID] == "[CLS]"
