"""Masked-variant generation, shared by training, calibration and scoring.

Masked positions are always substituted with the mask token; there is no
80/10/10 corruption mix. Content positions are the first `length` slots of a
sequence (unknown-token stand-ins included; padding excluded).

`MaskingStrategy` says how scoring masks a log, `repeats` included, and its
constructor is the one check of it: both `score` and `ablate-masking` build one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vocab import MASK_ID, TokenSequence

RANDOM_FRACTION = "random_fraction"
TOKEN_BY_TOKEN = "token_by_token"


@dataclass(frozen=True)
class MaskingStrategy:
    """`repeats` seeded random plans per log, or one plan per position (token, so repeats 1)."""

    kind: str = RANDOM_FRACTION
    fraction: float = 0.15
    repeats: int = 1

    def __post_init__(self):
        if self.kind not in (RANDOM_FRACTION, TOKEN_BY_TOKEN):
            raise ValueError(f"unknown masking kind {self.kind!r}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in (0, 1], not {self.fraction!r}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, not {self.repeats!r}")
        if self.kind == TOKEN_BY_TOKEN and self.repeats != 1:
            raise ValueError(f"repeats must be 1 with masking strategy token, which masks each position "
                             f"once, not {self.repeats!r}")

    def describe(self) -> str:
        if self.kind == TOKEN_BY_TOKEN:
            return "token"
        return f"random{self.fraction:g}"

    @classmethod
    def parse(cls, text: str) -> "MaskingStrategy":
        """`token` or `random<fraction>` as `describe` writes them; bare `random` is the default fraction."""
        text = text.strip()
        if text == "token":
            return cls(kind=TOKEN_BY_TOKEN, fraction=1.0)
        if text.startswith("random"):
            frac = text[len("random"):]
            return cls(kind=RANDOM_FRACTION, fraction=float(frac)) if frac else cls()
        raise ValueError(f"cannot parse masking strategy {text!r}")


@dataclass(eq=False)
class MaskPlan:
    """One masked variant: which positions were hidden and what they held."""

    masked_indices: tuple[int, ...]
    original_ids: np.ndarray
    masked_sequence: TokenSequence


def _mask_count(length: int, fraction: float) -> int:
    return max(1, round(fraction * length))


def _apply_mask(seq: TokenSequence, positions) -> MaskPlan:
    positions = tuple(int(p) for p in positions)
    original = seq.ids[list(positions)].copy()
    masked_ids = seq.ids.copy()
    masked_ids[list(positions)] = MASK_ID
    masked = TokenSequence(ids=masked_ids, length=seq.length, raw_ref=seq.raw_ref)
    return MaskPlan(masked_indices=positions, original_ids=original, masked_sequence=masked)


def plan_random(seq: TokenSequence, fraction: float, rng_seed) -> MaskPlan:
    """Mask max(1, round(fraction * length)) positions, uniform without replacement."""
    if seq.length < 1:
        raise ValueError("cannot mask an empty sequence")
    k = _mask_count(seq.length, fraction)
    rng = np.random.default_rng(rng_seed)
    positions = np.sort(rng.permutation(seq.length)[:k])
    return _apply_mask(seq, positions)


def plan_token_by_token(seq: TokenSequence) -> list[MaskPlan]:
    """One plan per content position; plan k hides exactly position k."""
    if seq.length < 1:
        raise ValueError("cannot mask an empty sequence")
    return [_apply_mask(seq, (k,)) for k in range(seq.length)]
