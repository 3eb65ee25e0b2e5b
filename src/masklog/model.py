"""From-scratch bidirectional encoder with a masked-token prediction head.

Forward pass, loss, and exact reverse-mode gradients are written by hand over
numpy. Parameter tensors are stored as float32, the checkpoint payload dtype,
so save/load round-trips stay bit-exact. `_forward_cached` and
`loss_and_gradients` compute in the dtype they are given. Training passes
float32: the weights are used without a copy and the step runs at single
precision. `forward`, `backward` (the gradient oracle) and therefore all
scoring compute in float64, which keeps finite-difference gradient checks tight
and scores within 1e-6 of an independent float64 reference.

The loss and the anomaly score read the head's distribution only at masked
positions. When a caller passes those positions, the encoder output is
gathered to the masked (row, position) pairs before the final layer norm, so
the final LN, the |V|-wide head and the softmax run on n_masked rows only.
Without masked positions, full per-position distributions are formed.

There are two forward passes, and `forward` alone picks one. Scoring sends
one shape: a batch without padding (logs of one length) with the same
number of masked positions in every sequence. `_forward_scores` runs that
shape, keeps no activations and saves work three ways that leave every
row's bits as they are:
- The top layer computes K and V for every row, and Q, the attention core,
  the output projection, LN2 and the FFN only for the masked rows.
- In a batch of two or more sequences, layer 0's embedding sum, LN1 and
  Q/K/V run once per distinct (token id, position) pair and are indexed
  back to the rows. One sequence never repeats a pair.
- Layer norms and GELU run in place, in the training forward's operation
  order.
Every other call (full per-position output, a padded batch, unequal masked
counts) runs `_forward_cached`, the training forward, in float64.

In `_forward_cached` a batch is unpadded (`_TokenRows`): its content tokens
are gathered once into an [n_tokens, d] matrix, and everything below the
head runs on those rows, forward and backward, except the attention core
(scores, softmax, attention-weighted values), which runs on [B, H, L, d/H]
with padded keys masked out. No row at a padding position is computed, and
no id in a padding slot reaches the arithmetic. A batch without padding
bypasses the gather and the scatter. A pass depends only on its parameters
and its batch.

Every projection, the head included, is one 2-D `rows @ W` product of at
least two rows (`_TokenRows.affine`). Where a row's bits in such a product do
not depend on how many rows it has, a log scores the same alone as in a batch
of logs. OpenBLAS 0.3.31 on a SkylakeX core meets this when the output width
is a multiple of 8 and the inner width is at most 384 (the scoring copy pads
the head to such a width); d_model and d_ff are not padded. At widths outside
that rule, batching can move a row's last bits, and so can the layer-0 share,
which changes the row count of the Q/K/V products.
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


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 256
    max_len: int = 128

    def __post_init__(self):
        if min(self.d_model, self.n_heads, self.n_layers, self.d_ff, self.max_len) < 1:
            raise ValueError("all model dimensions must be >= 1")
        if self.vocab_size < 5:
            raise ValueError("vocab_size must cover the 4 specials plus content")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")


@dataclass(eq=False)
class Parameters:
    """Named float32 tensors plus the configuration they instantiate."""

    config: ModelConfig
    tensors: dict = field(repr=False)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

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


def param_table(cfg: ModelConfig) -> list[tuple[str, tuple, float | str]]:
    """Every parameter tensor as (name, shape, init), in initialization order.

    `init` is the std of a seeded normal draw, or "ones"/"zeros". `init_params`
    builds from this table and `load_checkpoint` checks a file's tensors against it.
    """
    d, ff, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    proj = 1.0 / math.sqrt(d)  # attention/FFN projections
    table = [("embed.token", (v, d), _EMBED_STD), ("embed.position", (cfg.max_len, d), _EMBED_STD)]
    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        table += [(pre + "ln1.gain", (d,), "ones"), (pre + "ln1.offset", (d,), "zeros")]
        table += [(pre + "attn." + nm, (d, d), proj) for nm in ("wq", "wk", "wv", "wo")]
        table += [(pre + "attn." + nm, (d,), "zeros") for nm in ("bq", "bk", "bv", "bo")]
        table += [
            (pre + "ln2.gain", (d,), "ones"), (pre + "ln2.offset", (d,), "zeros"),
            (pre + "ffn.w1", (d, ff), proj), (pre + "ffn.b1", (ff,), "zeros"),
            (pre + "ffn.w2", (ff, d), proj), (pre + "ffn.b2", (d,), "zeros"),
        ]
    return table + [
        ("final_ln.gain", (d,), "ones"), ("final_ln.offset", (d,), "zeros"),
        ("out.w", (d, v), _OUT_STD), ("out.b", (v,), "zeros"),
    ]


def init_params(cfg: ModelConfig, seed: int) -> Parameters:
    """Seeded random initialization from `param_table`, drawing in table order."""
    rng = np.random.default_rng(seed)
    fill = {"ones": np.ones, "zeros": np.zeros}
    tensors = {
        name: fill[init](shape, np.float32) if isinstance(init, str)
        else rng.normal(0.0, init, size=shape).astype(np.float32)
        for name, shape, init in param_table(cfg)
    }
    return Parameters(config=cfg, tensors=tensors)


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


def _gelu_grad(x, t, dy):
    """dy * GELU'(x) from the tanh `t` that `_gelu` returned, written into `dy`.

    GELU'(x) = 0.5(1 + t) + 0.5x(1 - t^2) c(1 + 3a x^2), in that operation
    order, computed in two scratch buffers instead of a temporary per operation.
    """
    du = np.multiply(x, 3.0 * _GELU_A)
    du *= x
    du += 1.0
    du *= _GELU_C
    second = np.multiply(t, t)
    np.subtract(1.0, second, out=second)
    second *= x
    second *= 0.5
    second *= du
    first = np.add(t, 1.0, out=du)
    first *= 0.5
    first += second
    dy *= first
    return dy


def _scatter_add(index, rows, n_out):
    """[n_out, width] sums of `rows` grouped by `index`: `np.add.at` on zeros, in one pass.

    A stable sort makes each index's rows one contiguous run, in input order.
    Runs of one or two rows sum exactly as `np.add.at` does; `reduceat` adds a
    longer run's tail pairwise, so its last bits may differ.
    """
    order = np.argsort(index, kind="stable")
    sorted_index = index[order]
    starts = np.flatnonzero(np.diff(sorted_index, prepend=-1))
    out = np.zeros((n_out, rows.shape[1]), rows.dtype)
    out[sorted_index[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


def _ln_forward(x, gain, offset):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gain * xhat + offset, (xhat, inv)


def _ln_backward(dy, gain, cache):
    """Gradients of a layer norm over [rows, d]: (dx, dgain, doffset)."""
    xhat, inv = cache
    tmp = np.multiply(dy, xhat)
    dgain = tmp.sum(0)
    doffset = dy.sum(0)
    dxh = dy * gain
    m1 = dxh.mean(-1, keepdims=True)
    m2 = np.multiply(dxh, xhat, out=tmp).mean(-1, keepdims=True)
    dxh -= m1
    dxh -= np.multiply(xhat, m2, out=tmp)
    dxh *= inv
    return dxh, dgain, doffset


def _ln_scores(x, gain, offset):
    """`_ln_forward`'s output, to the bit, in two buffers and with no cache.

    The same operations run in the same order (x - mean, the mean of its
    squares, 1 / sqrt(var + eps), then the scale and the affine map), each
    written in place where `_ln_forward` makes a fresh temporary.
    """
    y = np.subtract(x, x.mean(-1, keepdims=True))
    inv = np.multiply(y, y).mean(-1, keepdims=True)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    y *= inv
    y *= gain
    y += offset
    return y


def _gelu_scores(x):
    """`_gelu`'s output, to the bit, written into `x`: one scratch buffer and no tanh kept.

    ((a x) x) x, + x, * c and tanh run in that order in the scratch buffer,
    then 0.5 x (1 + t) in `x`.
    """
    t = np.multiply(x, _GELU_A)
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    t += 1.0
    x *= 0.5
    x *= t
    return x


def _softmax(z):
    """Softmax over the last axis, in one new array."""
    e = z - z.max(-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(-1, keepdims=True)
    return e


class _TokenRows:
    """A padded [B, L] batch's content tokens as the rows of an [n_tokens, width] matrix.

    Rows follow the batch in row-major order with the padding slots left out.
    A padding-free batch (every batch `score` and `heatmap` run) needs no
    index: `valid` is None and its rows are the [B, L] grid itself, so
    `gather`, `scatter` and `embed` reduce to reshapes.
    """

    def __init__(self, lengths, padded: int):
        self.grid = (len(lengths), padded)
        self.lengths = lengths
        self.valid = None if lengths.min() == padded else np.arange(padded) < lengths[:, None]

    def gather(self, a):
        """[B, L, ...] -> [n_tokens, ...]."""
        return a.reshape((-1,) + a.shape[2:]) if self.valid is None else a[self.valid]

    def scatter(self, rows):
        """[n_tokens, ...] -> [B, L, ...], zeros in the padding slots."""
        if self.valid is None:
            return rows.reshape(self.grid + rows.shape[1:])
        out = np.zeros(self.grid + rows.shape[1:], rows.dtype)
        out[self.valid] = rows
        return out

    def positions(self):
        """The position of each row within its sequence."""
        return self.gather(np.broadcast_to(np.arange(self.grid[1]), self.grid))

    def embed(self, ids, token, position):
        """Token plus position embedding of every row."""
        if self.valid is None:
            return (token[ids] + position[: self.grid[1]]).reshape(-1, token.shape[1])
        return token[ids[self.valid]] + position[self.positions()]

    def affine(self, x, weight, bias):
        """x @ weight + bias for 2-D x, as one product of at least two rows.

        One row is multiplied as two equal rows and the first is kept: BLAS
        runs a one-row product on its matrix-vector path, whose last bits
        differ from the same row's inside a larger product.
        """
        y = (x[[0, 0]] @ weight)[:1] if len(x) == 1 else x @ weight
        y += bias
        return y

    def to_heads(self, rows, n_heads):
        """[n_tokens, d] -> [B, H, L, d / H] for the attention core."""
        return self.scatter(rows.reshape(len(rows), n_heads, -1)).transpose(0, 2, 1, 3)

    def from_heads(self, a):
        """[B, H, L, d / H] -> [n_tokens, d]; padding slots are dropped."""
        rows = self.gather(a.transpose(0, 2, 1, 3))
        return rows.reshape(len(rows), -1)

    def index(self, coords):
        """Row number of each (sequence, position) pair in `coords`."""
        bs, ps = coords
        return (np.cumsum(self.lengths) - self.lengths)[bs] + ps


def _masked_attention(q, k, v, scale):
    """Attention of query rows q [B * m, d] over every key of their own sequence.

    Each of the B sequences has m queries (m = L below the top layer),
    sequence-major, so they run as [B, H, m, L] scores against k and v [B, H, L, d / H].
    """
    n_batch, n_heads = k.shape[:2]
    q = q.reshape(n_batch, -1, n_heads, q.shape[1] // n_heads).transpose(0, 2, 1, 3)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= scale
    ctx = _softmax(scores) @ v
    return ctx.transpose(0, 2, 1, 3).reshape(n_batch * q.shape[2], -1)


def _forward_cached(params: Parameters, ids, lengths, coords, dtype=np.float64):
    """Training forward, and `forward` outside the scoring shape; `coords` = (rows, positions) to gather.

    The cache keeps what the backward needs. Every activation outside the
    attention core is a `_TokenRows` matrix, one row per content token, and
    every layer runs on all of them. Every activation is computed in `dtype`.
    The attention bias is built in it too, because one float64 operand would
    promote the whole pass back to float64.
    """
    cfg = params.config
    w = {k: v.astype(dtype, copy=False) for k, v in params.items()}
    n_heads = cfg.n_heads
    scale = 1.0 / math.sqrt(cfg.d_model // n_heads)
    tokens = _TokenRows(lengths, ids.shape[1])

    attn_bias = None
    if tokens.valid is not None:
        attn_bias = np.where(tokens.valid, 0.0, -np.inf).astype(dtype, copy=False)[:, None, None, :]

    x = tokens.embed(ids, w["embed.token"], w["embed.position"])
    cache = {"tokens": tokens, "weights": w, "layers": []}
    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        lc: dict = {}
        h, lc["ln1"] = _ln_forward(x, w[pre + "ln1.gain"], w[pre + "ln1.offset"])
        q, k, v = (
            tokens.to_heads(tokens.affine(h, w[pre + "attn.w" + c], w[pre + "attn.b" + c]), n_heads)
            for c in "qkv"
        )
        scores = q @ k.transpose(0, 1, 3, 2) * scale
        if attn_bias is not None:
            scores += attn_bias
        attn = _softmax(scores)
        ctx = tokens.from_heads(attn @ v)
        x = x + tokens.affine(ctx, w[pre + "attn.wo"], w[pre + "attn.bo"])
        h2, lc["ln2"] = _ln_forward(x, w[pre + "ln2.gain"], w[pre + "ln2.offset"])
        z1 = tokens.affine(h2, w[pre + "ffn.w1"], w[pre + "ffn.b1"])
        fz, gelu_t = _gelu(z1)
        x = x + tokens.affine(fz, w[pre + "ffn.w2"], w[pre + "ffn.b2"])
        lc.update(h=h, q=q, k=k, v=v, attn=attn, ctx=ctx, h2=h2, z1=z1, fz=fz, gelu_t=gelu_t)
        cache["layers"].append(lc)

    hf, cache["final_ln"] = _ln_forward(x[tokens.index(coords)], w["final_ln.gain"], w["final_ln.offset"])
    cache["hf"] = hf
    cache["logits"] = _head(tokens, hf, w, cfg.vocab_size)
    return cache


def _head(tokens, hf, w, vocab_size):
    """Vocabulary logits of the final-LN rows `hf` [..., d]; finite, or NonFiniteActivation.

    An `out.w` wider than the vocabulary (zero columns padding the scoring
    copy) gives logits whose extra columns are dropped.
    """
    logits = tokens.affine(hf.reshape(-1, hf.shape[-1]), w["out.w"], w["out.b"])
    logits = logits[:, :vocab_size].reshape(hf.shape[:-1] + (vocab_size,))
    if not np.isfinite(logits).all():
        raise NonFiniteActivation("forward pass produced non-finite logits")
    return logits


def _forward_scores(params: Parameters, ids, coords):
    """Scoring forward in float64: logits at `coords`, the same count per sequence, of a padding-free batch.

    It keeps nothing for a backward and saves work as the module docstring
    lists. A row's layer-0 work depends only on its (token id, position) pair
    because the embedding, LN1 and the Q/K/V projections see that row alone.
    """
    cfg = params.config
    w = {k: v.astype(np.float64, copy=False) for k, v in params.items()}
    n_batch, length = ids.shape
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
    tokens = _TokenRows(np.full(n_batch, length), length)

    shared = None  # row -> its distinct (token id, position) pair, while layer 0 runs on the pairs
    if n_batch > 1:
        flat, pos = ids.reshape(-1), tokens.positions()
        _, first, shared = np.unique(flat * length + pos, return_index=True, return_inverse=True)
        x = w["embed.token"][flat[first]] + w["embed.position"][pos[first]]
    else:
        x = tokens.embed(ids, w["embed.token"], w["embed.position"])
    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        rows = tokens.index(coords) if i == cfg.n_layers - 1 else None  # the top layer keeps the masked rows
        h = _ln_scores(x, w[pre + "ln1.gain"], w[pre + "ln1.offset"])
        k, v = (tokens.affine(h, w[pre + "attn.w" + c], w[pre + "attn.b" + c]) for c in "kv")
        q_in = h if rows is None or shared is not None else h[rows]
        q = tokens.affine(q_in, w[pre + "attn.wq"], w[pre + "attn.bq"])
        if shared is not None:  # back to one row per token
            k, v = k[shared], v[shared]
            keep = shared if rows is None else shared[rows]
            x, q = x[keep], q[keep]
            shared = None
        elif rows is not None:
            x = x[rows]
        ctx = _masked_attention(q, tokens.to_heads(k, cfg.n_heads), tokens.to_heads(v, cfg.n_heads), scale)
        x += tokens.affine(ctx, w[pre + "attn.wo"], w[pre + "attn.bo"])
        h2 = _ln_scores(x, w[pre + "ln2.gain"], w[pre + "ln2.offset"])
        z1 = tokens.affine(h2, w[pre + "ffn.w1"], w[pre + "ffn.b1"])
        x += tokens.affine(_gelu_scores(z1), w[pre + "ffn.w2"], w[pre + "ffn.b2"])
    return _head(tokens, _ln_scores(x, w["final_ln.gain"], w["final_ln.offset"]), w, cfg.vocab_size)


def forward(
    params: Parameters,
    batch: list[TokenSequence],
    mask_positions=None,
) -> ForwardOutput:
    """Run the encoder stack on a padded batch and emit vocabulary distributions.

    Without mask_positions the output holds a distribution for every
    position, [batch, padded_len, vocab]. With mask_positions (one list of
    positions per sequence) the final LN, the head and the softmax run only on
    those (row, position) pairs, and the output is [n_masked, vocab] in
    row-major order of the pairs as given.

    This is the one place that picks a forward. The scoring shape (no padding,
    the same masked count in every sequence: every `score` and `heatmap` batch)
    runs `_forward_scores`; every other call runs `_forward_cached`, the
    float64 forward that the gradient oracle differentiates.

    Padding positions are excluded from attention and never computed, so a
    sequence's outputs do not depend on what the padding slots hold, nor, up to
    rounding in a padded batch, on its batch companions. Padding positions in a
    full per-position output hold the distribution of an all-zero encoder row,
    the head applied to `final_ln.offset`. The same parameters and batch give
    the same bits on every call. Weights already held as float64 are used
    without a copy.
    """
    cfg = params.config
    ids, lengths = _stack_batch(batch, cfg)
    full = mask_positions is None
    coords = _masked_coords([range(n) for n in lengths] if full else mask_positions, lengths)
    counts = np.bincount(coords[0], minlength=len(lengths))
    if not full and lengths.min() == ids.shape[1] and counts.min() == counts.max():
        logits = _forward_scores(params, ids, coords)
    else:
        cache = _forward_cached(params, ids, lengths, coords)
        logits = cache["logits"]
        if full:  # padding slots hold the head of an all-zero encoder row
            w, logits = cache["weights"], np.empty(ids.shape + (cfg.vocab_size,))
            logits[:] = _head(cache["tokens"], w["final_ln.offset"][None], w, cfg.vocab_size)
            logits[coords] = cache["logits"]
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
    dtype=np.float64,
):
    """Loss plus exact gradients for every parameter tensor, in one pass.

    Activations and gradients are computed in `dtype`; training passes
    float32, and the float64 default is the reference the tests hold it to.

    The final LN, head and softmax, forward and backward, run only on the
    masked (row, position) pairs; their input gradient is scattered back
    with accumulation, so a position listed twice counts twice, as it does
    in the loss. Below the head the backward runs on the content-token rows
    the forward pass kept, so every weight gradient is one [n_tokens, m].T @
    [n_tokens, n] product.
    """
    cfg = params.config
    ids, lengths = _stack_batch(batch, cfg)
    bs, ps = _masked_coords(mask_positions, lengths)
    tgt = _target_ids(targets, ids.shape, bs, ps)
    cache = _forward_cached(params, ids, lengths, (bs, ps), dtype)
    w, tokens = cache["weights"], cache["tokens"]
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
    dx = _scatter_add(tokens.index((bs, ps)), dtop, int(lengths.sum()))  # [n_tokens, d]

    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
    for i in reversed(range(cfg.n_layers)):
        pre = f"layers.{i}."
        lc = cache["layers"][i]
        # feed-forward branch
        g[pre + "ffn.w2"] = lc["fz"].T @ dx
        g[pre + "ffn.b2"] = dx.sum(0)
        dz1 = _gelu_grad(lc["z1"], lc["gelu_t"], dx @ w[pre + "ffn.w2"].T)
        g[pre + "ffn.w1"] = lc["h2"].T @ dz1
        g[pre + "ffn.b1"] = dz1.sum(0)
        dmid, g[pre + "ln2.gain"], g[pre + "ln2.offset"] = _ln_backward(
            dz1 @ w[pre + "ffn.w1"].T, w[pre + "ln2.gain"], lc["ln2"]
        )
        dx += dmid
        # attention branch
        g[pre + "attn.wo"] = lc["ctx"].T @ dx
        g[pre + "attn.bo"] = dx.sum(0)
        dctx = tokens.to_heads(dx @ w[pre + "attn.wo"].T, cfg.n_heads)
        attn, q, k, v = lc["attn"], lc["q"], lc["k"], lc["v"]
        dv = attn.transpose(0, 1, 3, 2) @ dctx
        dscores = dctx @ v.transpose(0, 1, 3, 2)  # d attn, then d scores in place
        dscores -= np.multiply(attn, dscores).sum(-1, keepdims=True)
        dscores *= attn
        dq = dscores @ k
        dq *= scale
        dk = dscores.transpose(0, 1, 3, 2) @ q
        dk *= scale
        h = lc["h"]
        dh = np.zeros_like(h)
        for c, dproj in (("q", dq), ("k", dk), ("v", dv)):
            dproj = tokens.from_heads(dproj)
            g[pre + "attn.w" + c] = h.T @ dproj
            g[pre + "attn.b" + c] = dproj.sum(0)
            dh += dproj @ w[pre + "attn.w" + c].T
        dattn_in, g[pre + "ln1.gain"], g[pre + "ln1.offset"] = _ln_backward(
            dh, w[pre + "ln1.gain"], lc["ln1"]
        )
        dx += dattn_in

    g["embed.token"] = _scatter_add(tokens.gather(ids), dx, cfg.vocab_size)
    g["embed.position"] = _scatter_add(tokens.positions(), dx, cfg.max_len)

    for name, grad in g.items():
        if grad.shape != params[name].shape:
            raise ShapeMismatch(f"gradient shape {grad.shape} != {params[name].shape} for {name}")
        if not np.isfinite(grad).all():
            raise NonFiniteGradient(f"non-finite gradient in {name}")
    return loss, g


def backward(params: Parameters, batch, targets, mask_positions) -> dict:
    """Exact gradients of mlm_loss w.r.t. every parameter tensor."""
    _, grads = loss_and_gradients(params, batch, targets, mask_positions)
    return grads
