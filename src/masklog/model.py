"""From-scratch bidirectional encoder with a masked-token prediction head.

Forward pass, loss, and exact reverse-mode gradients are written by hand over
numpy. Parameter tensors are stored as float32 (the checkpoint payload dtype)
while all arithmetic runs in float64: save/load round-trips stay bit-exact and
finite-difference gradient checks stay tight.

The loss and the anomaly score read the head's distribution only at masked
positions. When a caller passes those positions, the encoder output is
gathered to the masked (row, position) pairs before the final layer norm, so
the final LN, the |V|-wide head and the softmax run on n_masked rows only.
Without them, full per-position distributions are formed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NoMaskedPositions,
    NonFiniteActivation,
    NonFiniteGradient,
    ShapeMismatch,
)
from .vocab import TokenSequence

LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_EMBED_STD = 0.1
_OUT_STD = 0.02  # small output head keeps the fresh model near-uniform over the vocabulary
_DROPOUT_STREAM = 0xD0


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 256
    max_len: int = 128
    dropout_rate: float = 0.0

    def __post_init__(self):
        if min(self.d_model, self.n_heads, self.n_layers, self.d_ff, self.max_len) < 1:
            raise ValueError("all model dimensions must be >= 1")
        if self.vocab_size < 5:
            raise ValueError("vocab_size must cover the 4 specials plus content")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


@dataclass(eq=False)
class Parameters:
    """Named float32 tensors plus the configuration they instantiate."""

    config: ModelConfig
    tensors: dict = field(repr=False)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def names(self):
        return list(self.tensors.keys())

    def copy(self) -> "Parameters":
        return Parameters(self.config, {k: v.copy() for k, v in self.tensors.items()})


@dataclass(eq=False)
class ForwardOutput:
    """Vocabulary logits and their softmax probabilities.

    Shape [batch, padded_len, vocab] for every position, or [n_masked, vocab]
    when the forward pass was given masked positions.
    """

    logits: np.ndarray
    probabilities: np.ndarray  # same shape, rows sum to 1


def params_digest(params: Parameters) -> str:
    """sha256 over names, shapes and float32 payloads; stable across processes."""
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        arr = np.ascontiguousarray(params.tensors[name], dtype="<f4")
        h.update(name.encode("utf-8"))
        h.update(np.array(arr.shape, dtype="<u4").tobytes())
        h.update(arr.tobytes())
    return h.hexdigest()


def init_params(cfg: ModelConfig, seed: int) -> Parameters:
    """Seeded random initialization; attention/FFN projections use scale 1/sqrt(d_model)."""
    rng = np.random.default_rng(seed)
    d, f4 = cfg.d_model, np.float32
    proj_std = 1.0 / math.sqrt(d)

    def draw(shape, std):
        return rng.normal(0.0, std, size=shape).astype(f4)

    p: dict[str, np.ndarray] = {}
    p["embed.token"] = draw((cfg.vocab_size, d), _EMBED_STD)
    p["embed.position"] = draw((cfg.max_len, d), _EMBED_STD)
    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        p[pre + "ln1.gain"] = np.ones(d, f4)
        p[pre + "ln1.offset"] = np.zeros(d, f4)
        for nm in ("wq", "wk", "wv", "wo"):
            p[pre + "attn." + nm] = draw((d, d), proj_std)
        for nm in ("bq", "bk", "bv", "bo"):
            p[pre + "attn." + nm] = np.zeros(d, f4)
        p[pre + "ln2.gain"] = np.ones(d, f4)
        p[pre + "ln2.offset"] = np.zeros(d, f4)
        p[pre + "ffn.w1"] = draw((d, cfg.d_ff), proj_std)
        p[pre + "ffn.b1"] = np.zeros(cfg.d_ff, f4)
        p[pre + "ffn.w2"] = draw((cfg.d_ff, d), proj_std)
        p[pre + "ffn.b2"] = np.zeros(d, f4)
    p["final_ln.gain"] = np.ones(d, f4)
    p["final_ln.offset"] = np.zeros(d, f4)
    p["out.w"] = draw((d, cfg.vocab_size), _OUT_STD)
    p["out.b"] = np.zeros(cfg.vocab_size, f4)
    return Parameters(config=cfg, tensors=p)


def _stack_batch(batch, cfg: ModelConfig):
    if not batch:
        raise ShapeMismatch("empty batch")
    try:
        ids = np.stack([np.asarray(s.ids, dtype=np.int64) for s in batch])
    except ValueError as e:
        raise ShapeMismatch(f"sequences in a batch must share a padded width: {e}") from None
    lengths = np.array([int(s.length) for s in batch], dtype=np.int64)
    if lengths.min() < 1:
        raise ShapeMismatch("every sequence in a batch needs at least one content token")
    padded = int(lengths.max())
    if padded > cfg.max_len:
        raise ShapeMismatch(f"sequence length {padded} exceeds max_len {cfg.max_len}")
    ids = ids[:, :padded]
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ShapeMismatch("token id outside vocabulary")
    return ids, lengths


def _gelu(x):
    t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    return 0.5 * x * (1.0 + t), t


def _gelu_grad(x, t):
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


def _contract_bl(a, b):
    """[B,L,M] x [B,L,N] -> [M,N], contracting batch and position."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _ln_forward(x, gain, offset):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gain * xhat + offset, (xhat, inv)

def _ln_backward(dy, gain, cache):
    xhat, inv = cache
    rows = tuple(range(dy.ndim - 1))
    dgain = (dy * xhat).sum(rows)
    doffset = dy.sum(rows)
    dxh = dy * gain
    dx = inv * (dxh - dxh.mean(-1, keepdims=True) - xhat * (dxh * xhat).mean(-1, keepdims=True))
    return dx, dgain, doffset


def _split_heads(x, n_heads):
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _softmax(z):
    m = z.max(-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(-1, keepdims=True)


def _forward_cached(params: Parameters, ids, lengths, train_mode: bool, seed: int, coords=None):
    """Forward pass keeping what the backward needs; `coords` = (rows, positions) to gather."""
    cfg = params.config
    w = {k: v.astype(np.float64, copy=False) for k, v in params.items()}
    n_batch, padded = ids.shape
    n_heads = cfg.n_heads
    scale = 1.0 / math.sqrt(cfg.d_model // n_heads)

    drop = cfg.dropout_rate if train_mode else 0.0
    rng = np.random.default_rng((int(seed), _DROPOUT_STREAM)) if drop > 0.0 else None

    def dropmask(shape):
        if rng is None:
            return None
        return (rng.random(shape) >= drop).astype(np.float64) / (1.0 - drop)

    valid = np.arange(padded)[None, :] < lengths[:, None]
    attn_bias = np.where(valid, 0.0, -np.inf)[:, None, None, :]

    x = w["embed.token"][ids] + w["embed.position"][:padded][None, :, :]
    emb_mask = dropmask(x.shape)
    if emb_mask is not None:
        x = x * emb_mask

    cache = {
        "ids": ids,
        "lengths": lengths,
        "emb_mask": emb_mask,
        "weights": w,
        "layers": [],
    }
    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        lc: dict = {"x_in": x}
        h, lc["ln1"] = _ln_forward(x, w[pre + "ln1.gain"], w[pre + "ln1.offset"])
        lc["h"] = h
        q = _split_heads(h @ w[pre + "attn.wq"] + w[pre + "attn.bq"], n_heads)
        k = _split_heads(h @ w[pre + "attn.wk"] + w[pre + "attn.bk"], n_heads)
        v = _split_heads(h @ w[pre + "attn.wv"] + w[pre + "attn.bv"], n_heads)
        scores = q @ k.transpose(0, 1, 3, 2) * scale + attn_bias
        attn = _softmax(scores)
        ctx = _merge_heads(attn @ v)
        lc.update(q=q, k=k, v=v, attn=attn, ctx=ctx)
        ao = ctx @ w[pre + "attn.wo"] + w[pre + "attn.bo"]
        lc["attn_mask"] = dropmask(ao.shape)
        if lc["attn_mask"] is not None:
            ao = ao * lc["attn_mask"]
        x = x + ao
        lc["x_mid"] = x
        h2, lc["ln2"] = _ln_forward(x, w[pre + "ln2.gain"], w[pre + "ln2.offset"])
        lc["h2"] = h2
        z1 = h2 @ w[pre + "ffn.w1"] + w[pre + "ffn.b1"]
        fz, gelu_t = _gelu(z1)
        lc.update(z1=z1, fz=fz, gelu_t=gelu_t)
        f2 = fz @ w[pre + "ffn.w2"] + w[pre + "ffn.b2"]
        lc["ffn_mask"] = dropmask(f2.shape)
        if lc["ffn_mask"] is not None:
            f2 = f2 * lc["ffn_mask"]
        x = x + f2
        cache["layers"].append(lc)

    if coords is not None:
        x = x[coords]  # [n_masked, d]: only these rows reach the head
    hf, cache["final_ln"] = _ln_forward(x, w["final_ln.gain"], w["final_ln.offset"])
    cache["hf"] = hf
    logits = hf @ w["out.w"] + w["out.b"]
    if not np.isfinite(logits).all():
        raise NonFiniteActivation("forward pass produced non-finite logits")
    cache["logits"] = logits
    return cache


def forward(
    params: Parameters,
    batch: list[TokenSequence],
    train_mode: bool = False,
    seed: int = 0,
    mask_positions=None,
) -> ForwardOutput:
    """Run the encoder stack on a padded batch and emit vocabulary distributions.

    Without mask_positions the output holds a distribution for every
    position, [batch, padded_len, vocab]. With mask_positions (one list of
    positions per sequence) the final LN, head and softmax run only on those
    (row, position) pairs, and the output is [n_masked, vocab] in row-major
    order of the pairs as given.

    Padding positions are excluded from attention, so a sequence's outputs do
    not depend on what the padding slots hold or on its batch companions.
    Dropout is active only in train_mode and is fully determined by `seed`.
    Weights already held as float64 are used without a copy.
    """
    ids, lengths = _stack_batch(batch, params.config)
    coords = None if mask_positions is None else _masked_coords(mask_positions, lengths)
    cache = _forward_cached(params, ids, lengths, train_mode, seed, coords)
    logits = cache["logits"]
    return ForwardOutput(logits=logits, probabilities=_softmax(logits))


def _masked_coords(mask_positions, lengths):
    bs, ps = [], []
    for b, positions in enumerate(mask_positions):
        for pos in positions:
            pos = int(pos)
            if pos < 0 or pos >= lengths[b]:
                raise ShapeMismatch(f"masked position {pos} outside sequence {b} content")
            bs.append(b)
            ps.append(pos)
    if not bs:
        raise NoMaskedPositions("no masked positions in the batch")
    return np.array(bs, dtype=np.int64), np.array(ps, dtype=np.int64)


def _target_ids(targets, batch_shape, bs, ps):
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape[0] != batch_shape[0] or targets.shape[1] < batch_shape[1]:
        raise ShapeMismatch("targets do not cover the batch")
    return targets[bs, ps]


def _masked_loss(logits, tgt):
    """Mean NLL of tgt under the rows of logits [n_masked, vocab], plus their softmax.

    One exp pass gives both the log-sum-exp and the probabilities.
    """
    m = logits.max(-1, keepdims=True)
    e = np.exp(logits - m)
    total = e.sum(-1, keepdims=True)
    nll = m[:, 0] + np.log(total[:, 0]) - logits[np.arange(len(tgt)), tgt]
    return float(nll.mean()), e / total


def mlm_loss(out: ForwardOutput, targets, mask_positions) -> float:
    """Mean negative log-probability (natural log) of the true tokens at masked positions.

    `out` holds full per-position logits, as `forward` returns without mask_positions.
    """
    n_batch, padded, _ = out.logits.shape
    bs, ps = _masked_coords(mask_positions, np.full(n_batch, padded, dtype=np.int64))
    loss, _ = _masked_loss(out.logits[bs, ps], _target_ids(targets, (n_batch, padded), bs, ps))
    return loss


def loss_and_gradients(
    params: Parameters,
    batch: list[TokenSequence],
    targets,
    mask_positions,
    train_mode: bool = False,
    seed: int = 0,
):
    """Loss plus exact gradients for every parameter tensor, in one pass.

    The final LN, head and softmax, forward and backward, run only on the
    masked (row, position) pairs; their input gradient is scattered back
    with accumulation, so a position listed twice counts twice, as it does
    in the loss. When train_mode is on, the dropout masks drawn for the loss
    are the same ones the gradients are propagated through.
    """
    cfg = params.config
    ids, lengths = _stack_batch(batch, cfg)
    bs, ps = _masked_coords(mask_positions, lengths)
    tgt = _target_ids(targets, ids.shape, bs, ps)
    cache = _forward_cached(params, ids, lengths, train_mode, seed, (bs, ps))
    w = cache["weights"]
    loss, probs = _masked_loss(cache["logits"], tgt)

    n_masked = len(bs)
    dlogits = probs / n_masked  # [n_masked, vocab]
    dlogits[np.arange(n_masked), tgt] -= 1.0 / n_masked

    g: dict[str, np.ndarray] = {}
    g["out.w"] = cache["hf"].T @ dlogits
    g["out.b"] = dlogits.sum(0)
    dhf = dlogits @ w["out.w"].T
    dtop, g["final_ln.gain"], g["final_ln.offset"] = _ln_backward(
        dhf, w["final_ln.gain"], cache["final_ln"]
    )
    dx = np.zeros(ids.shape + (cfg.d_model,))
    np.add.at(dx, (bs, ps), dtop)

    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
    for i in reversed(range(cfg.n_layers)):
        pre = f"layers.{i}."
        lc = cache["layers"][i]
        # feed-forward branch
        df2 = dx if lc["ffn_mask"] is None else dx * lc["ffn_mask"]
        g[pre + "ffn.w2"] = _contract_bl(lc["fz"], df2)
        g[pre + "ffn.b2"] = df2.sum((0, 1))
        dfz = df2 @ w[pre + "ffn.w2"].T
        dz1 = dfz * _gelu_grad(lc["z1"], lc["gelu_t"])
        g[pre + "ffn.w1"] = _contract_bl(lc["h2"], dz1)
        g[pre + "ffn.b1"] = dz1.sum((0, 1))
        dh2 = dz1 @ w[pre + "ffn.w1"].T
        dmid, g[pre + "ln2.gain"], g[pre + "ln2.offset"] = _ln_backward(
            dh2, w[pre + "ln2.gain"], lc["ln2"]
        )
        dx = dx + dmid
        # attention branch
        dao = dx if lc["attn_mask"] is None else dx * lc["attn_mask"]
        g[pre + "attn.wo"] = _contract_bl(lc["ctx"], dao)
        g[pre + "attn.bo"] = dao.sum((0, 1))
        dctx = _split_heads(dao @ w[pre + "attn.wo"].T, cfg.n_heads)
        attn, q, k, v = lc["attn"], lc["q"], lc["k"], lc["v"]
        dattn = dctx @ v.transpose(0, 1, 3, 2)
        dv = attn.transpose(0, 1, 3, 2) @ dctx
        dscores = attn * (dattn - (attn * dattn).sum(-1, keepdims=True))
        dq = dscores @ k * scale
        dk = dscores.transpose(0, 1, 3, 2) @ q * scale
        dq_m, dk_m, dv_m = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
        h = lc["h"]
        dh = np.zeros_like(h)
        for nm, dproj in (("wq", dq_m), ("wk", dk_m), ("wv", dv_m)):
            g[pre + "attn." + nm] = _contract_bl(h, dproj)
            g[pre + "attn.b" + nm[1]] = dproj.sum((0, 1))
            dh += dproj @ w[pre + "attn." + nm].T
        dattn_in, g[pre + "ln1.gain"], g[pre + "ln1.offset"] = _ln_backward(
            dh, w[pre + "ln1.gain"], lc["ln1"]
        )
        dx = dx + dattn_in

    demb = dx if cache["emb_mask"] is None else dx * cache["emb_mask"]
    dtok = np.zeros((cfg.vocab_size, cfg.d_model))
    np.add.at(dtok, ids.ravel(), demb.reshape(-1, cfg.d_model))
    g["embed.token"] = dtok
    dpos = np.zeros((cfg.max_len, cfg.d_model))
    dpos[: ids.shape[1]] = demb.sum(0)
    g["embed.position"] = dpos

    for name, grad in g.items():
        if grad.shape != params[name].shape:
            raise ShapeMismatch(f"gradient shape {grad.shape} != {params[name].shape} for {name}")
        if not np.isfinite(grad).all():
            raise NonFiniteGradient(f"non-finite gradient in {name}")
    return loss, g


def backward(params: Parameters, batch, targets, mask_positions) -> dict:
    """Exact gradients of mlm_loss w.r.t. every parameter tensor (dropout off)."""
    _, grads = loss_and_gradients(params, batch, targets, mask_positions, train_mode=False)
    return grads
