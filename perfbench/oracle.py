"""Independent float64 reference for masked-token scores.

The encoder is re-derived here from its definition (pre-LN blocks, tanh GELU,
final LN and a linear head over the vocabulary) and evaluated in float64 on
one unpadded sequence, without calling masklog's forward pass. A faster
numeric path in masklog (float32, gathered rows, cached casts) must still
reproduce these scores within SCORE_TOL.
"""

from __future__ import annotations

import math

import numpy as np

SCORE_TOL = 1e-6  # the score-oracle tolerance of acceptance criterion 5
PROB_FLOOR = 1e-12
LN_EPS = 1e-5


def _ln(x, gain, offset):
    xc = x - x.mean(-1, keepdims=True)
    return gain * xc / np.sqrt((xc * xc).mean(-1, keepdims=True) + LN_EPS) + offset


def _softmax(z):
    e = np.exp(z - z.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def reference_probs(tensors: dict, n_heads: int, n_layers: int, ids) -> np.ndarray:
    """[length, vocab] token distributions for one sequence of content ids."""
    w = {k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()}
    ids = np.asarray(ids, dtype=np.int64)
    length, d = len(ids), w["embed.token"].shape[1]
    dh = d // n_heads
    x = w["embed.token"][ids] + w["embed.position"][:length]
    for i in range(n_layers):
        p = f"layers.{i}."
        h = _ln(x, w[p + "ln1.gain"], w[p + "ln1.offset"])
        q, k, v = (
            (h @ w[p + f"attn.w{n}"] + w[p + f"attn.b{n}"]).reshape(length, n_heads, dh).transpose(1, 0, 2)
            for n in "qkv"
        )
        attn = _softmax(q @ k.transpose(0, 2, 1) / math.sqrt(dh))
        ctx = (attn @ v).transpose(1, 0, 2).reshape(length, d)
        x = x + ctx @ w[p + "attn.wo"] + w[p + "attn.bo"]
        h2 = _ln(x, w[p + "ln2.gain"], w[p + "ln2.offset"])
        x = x + _gelu(h2 @ w[p + "ffn.w1"] + w[p + "ffn.b1"]) @ w[p + "ffn.w2"] + w[p + "ffn.b2"]
    hf = _ln(x, w["final_ln.gain"], w["final_ln.offset"])
    return _softmax(hf @ w["out.w"] + w["out.b"])


def reference_score(tensors: dict, n_heads: int, n_layers: int, masked_ids, positions, targets) -> float:
    """Negative mean log-probability of the true tokens at the masked positions."""
    probs = reference_probs(tensors, n_heads, n_layers, masked_ids)
    logs = [math.log(max(float(probs[pos, tgt]), PROB_FLOOR)) for pos, tgt in zip(positions, targets)]
    return -sum(logs) / len(logs)


def score_matches(score: float, reference: float) -> bool:
    return math.isfinite(score) and abs(score - reference) <= SCORE_TOL
