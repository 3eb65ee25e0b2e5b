"""Corpus-derived vocabulary and bounded token-id sequences.

Tokenization is plain whitespace splitting: normalization already collapsed
variable fields into placeholder words, so subword modeling buys nothing and
whole-word ids keep decoding exact.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyAfterCleaning, EmptyCorpus, UnknownId
from .normalize import CleanLog

PAD_ID = 0
UNK_ID = 1
MASK_ID = 2
CLS_ID = 3
# Uppercase special strings cannot collide with corpus tokens, which are
# lowercased during cleaning.
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[MASK]", "[CLS]")


@dataclass(frozen=True)
class Vocabulary:
    id_to_token: tuple[str, ...]
    token_to_id: dict = field(repr=False)

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def digest(self) -> str:
        """sha256 of the canonical file serialization."""
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    def to_text(self) -> str:
        return "\n".join(self.id_to_token) + "\n"

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        id_to_token = tuple(tokens)
        if id_to_token[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise ValueError("vocabulary must start with the special tokens")
        return cls(id_to_token=id_to_token, token_to_id={t: i for i, t in enumerate(id_to_token)})


@dataclass(eq=False)
class TokenSequence:
    """A log as token ids, right-padded to max_len; length counts content only."""

    ids: np.ndarray
    length: int
    raw_ref: tuple[str, int] = ("", 0)
    truncated: bool = False


def build_vocab(corpus, min_freq: int = 1, max_size: int = 8192) -> Vocabulary:
    """Count whitespace tokens over cleaned logs and keep the frequent ones.

    Tokens with frequency >= min_freq are ordered most-frequent-first with
    lexicographic tie-breaks, truncated to max_size - 4, and prefixed by the
    four special tokens. The result is byte-deterministic for a fixed corpus.
    """
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts: Counter = Counter()
    n_logs = 0
    for log in corpus:
        text = log.text if isinstance(log, CleanLog) else str(log)
        counts.update(text.split())
        n_logs += 1
    if n_logs == 0:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )[: max(0, max_size - len(SPECIAL_TOKENS))]
    if not kept:
        raise EmptyCorpus(f"no token reaches min_freq={min_freq}")
    return Vocabulary.from_tokens(SPECIAL_TOKENS + tuple(kept))


def encode(log: CleanLog, vocab: Vocabulary, max_len: int = 128) -> TokenSequence:
    """Map a cleaned log to ids: OOV -> UNK, truncate to max_len, right-pad."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    text = log.text if isinstance(log, CleanLog) else str(log)
    tokens = text.split()
    if not tokens:
        raise EmptyAfterCleaning("cannot encode a log with zero tokens")
    truncated = len(tokens) > max_len
    tokens = tokens[:max_len]
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    for i, tok in enumerate(tokens):
        ids[i] = vocab.token_to_id.get(tok, UNK_ID)
    raw_ref = log.raw_ref if isinstance(log, CleanLog) else ("", 0)
    return TokenSequence(ids=ids, length=len(tokens), raw_ref=raw_ref, truncated=truncated)


def decode(ids, vocab: Vocabulary) -> list[str]:
    """Inverse of encode; PAD positions are omitted."""
    out = []
    for i in np.asarray(ids).ravel():
        i = int(i)
        if i < 0 or i >= len(vocab):
            raise UnknownId(f"id {i} outside vocabulary of size {len(vocab)}")
        if i == PAD_ID:
            continue
        out.append(vocab.id_to_token[i])
    return out


def save_vocab(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(vocab.to_text())


def load_vocab(path) -> Vocabulary:
    with open(path, "r", encoding="utf-8") as f:
        tokens = f.read().splitlines()
    if len(tokens) < 5:
        raise ValueError("vocabulary file must hold the 4 specials plus at least one token")
    return Vocabulary.from_tokens(tokens)
