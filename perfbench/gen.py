"""Seeded generator of a large-vocabulary raw log corpus.

Every log is a template skeleton of frequent words plus value slots filled
with fresh random words, so 700 training logs hold more than 8,188
distinct words and `build-vocab` fills its 8,192-entry cap. Words are made of
lowercase letters only: the cleaner folds digits into `float` and splits
case changes, either of which would shrink the vocabulary.

Anomalies come in two flavours: whole logs scrambled out of order, and logs
whose skeleton words are replaced by random skeleton words. Both use only
words the model sees in training.
"""

from __future__ import annotations

import random

LETTERS = "abcdefghijklmnopqrstuvwxyz"
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
N_NORMAL = 1000  # the 70% train split is then 700 logs holding 8,400 slot words
N_ANOMALIES = 800  # val + test then hold 1,100 logs, so a p99 has 11 logs beyond it
N_TEMPLATES, N_SKELETON, N_SLOTS = 40, 3, 12


def _word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(rng.randint(lo, hi)))


def _timestamp(rng: random.Random) -> str:
    return (
        f"{_MONTHS[rng.randrange(12)]} {rng.randint(1, 28)} "
        f"{rng.randrange(24):02d}:{rng.randrange(60):02d}:{rng.randrange(60):02d}"
    )


def _templates(rng: random.Random):
    pool = sorted({_word(rng, 3, 7) for _ in range(4 * N_TEMPLATES * N_SKELETON)})
    out = []
    for _ in range(N_TEMPLATES):
        parts = [("word", w) for w in rng.sample(pool, N_SKELETON)]
        for _ in range(N_SLOTS):
            parts.insert(rng.randrange(len(parts) + 1), ("slot", None))
        out.append(parts)
    return out


def _realize(rng: random.Random, parts) -> list[str]:
    # Slot words are 8-10 letters, skeleton words 3-7, so the two never collide.
    return [w if kind == "word" else _word(rng, 8, 10) for kind, w in parts]


def generate(seed: int) -> tuple[list[str], list[str]]:
    """Return (raw lines, labels) in a seeded shuffled order; same seed, same corpus."""
    rng = random.Random(seed)
    templates = _templates(rng)
    docs = [(_realize(rng, rng.choice(templates)), "normal") for _ in range(N_NORMAL)]
    skeleton_words = sorted({w for t in templates for kind, w in t if kind == "word"})
    for i in range(N_ANOMALIES):
        tokens = _realize(rng, rng.choice(templates))
        if i % 2:
            rng.shuffle(tokens)
        else:
            tokens = [rng.choice(skeleton_words) if len(t) < 8 else t for t in tokens]
        docs.append((tokens, "anomalous"))
    rng.shuffle(docs)
    lines = [f"{_timestamp(rng)} {' '.join(tokens)}" for tokens, _ in docs]
    return lines, [label for _, label in docs]


def write_corpus(seed: int, log_path: str, labels_path: str) -> None:
    """Write the corpus as a raw log plus a parallel label file."""
    lines, labels = generate(seed)
    for path, rows in ((log_path, lines), (labels_path, labels)):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("".join(row + "\n" for row in rows))
