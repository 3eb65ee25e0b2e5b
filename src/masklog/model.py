"""From-scratch bidirectional encoder with a masked-token prediction head.

Forward pass, loss, and exact reverse-mode gradients are written by hand over
numpy. Parameter tensors are stored as float32, the checkpoint payload dtype,
so save/load round-trips stay bit-exact. `_forward_cached` and
`loss_and_gradients` compute in the dtype they are given. Training passes
float32: the weights are used without a copy and the step runs at single
precision. `forward`, `backward` (the gradient oracle) and therefore all
scoring compute in float64, which keeps finite-difference gradient checks tight
and scores within 1e-6 of an independent float64 reference.

There is one forward pass, `_forward_cached`: `forward` (and so scoring, the
heatmap and the ablations) and `loss_and_gradients` run it. The loss and the
anomaly score read the head's distribution only at masked positions, so
when a caller passes them the top layer is trimmed: it computes LN1, K and V
for every row, and Q, the attention core, the output projection, LN2, the
FFN, the final LN, the |V|-wide head and the softmax only for the masked
(row, position) pairs. Their queries sit in a [B, H, m, L] grid, one
sequence of m slots per batch row (`_TokenRows.queries`), with empty slots
where the masked counts differ. Without masked positions every position is
a query, and full per-position distributions are formed.

The pass keeps each layer's activations only when a backward follows. When
none does, layer norms and GELU write their outputs over their own scratch
buffers, and a batch without padding of two or more sequences (every
`score` and `heatmap` chunk of more than one variant) runs layer 0's
embedding sum, LN1 and Q/K/V once per distinct (token id, position) pair,
indexed back to the rows; one sequence never repeats a pair. Neither moves
a row's bits: the layer norms and GELU run the same operations in the same
order either way.

A batch is unpadded (`_TokenRows`): its content tokens are gathered once into
an [n_tokens, d] matrix, and every layer below the top runs on those rows,
forward and backward, except the attention core (scores, softmax,
attention-weighted values), which runs on [B, H, L, d/H] with padded keys
masked out. The top layer's backward scatters the masked rows' gradients
back to the token rows. No row at a padding position is computed, and no id
in a padding slot reaches the arithmetic. A batch without padding bypasses
the gather and the scatter. A pass depends only on its parameters and its
batch.

Every projection, the head included, is one `_TokenRows.affine` product,
whose docstring says when a log scores to the same bits alone as in a batch.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import ClassVar

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


def check_bounds(values: dict, bounds: dict, flag: bool = False) -> None:
    """ValueError for the first key of `bounds` whose value is outside its (least, most); `flag`: call it `--key`."""
    for key, (least, most) in bounds.items():
        value = values.get(key, least)
        if not least <= value <= most:
            name = "--" + key.replace("_", "-") if flag else key
            raise ValueError(f"{name} must be {f'>= {least}' if value < least else f'<= {most}'}, not {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 256
    max_len: int = 128
    # Each dimension's (least, most); max_len's least is the bound `vocab.encode` holds.
    BOUNDS: ClassVar[dict] = {"d_model": (1, 4096), "n_heads": (1, 4096), "n_layers": (1, 256),
                              "d_ff": (1, 16384), "max_len": (2, 8192)}

    def __post_init__(self):
        check_bounds(vars(self), self.BOUNDS)
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
        h.update(arr.data)  # the tensor's own buffer, not a bytes copy of it
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


def scoring_copy(params: Parameters) -> Parameters:
    """The weights scoring reads: float64, with `attn.w*`, `ffn.w*` and `out.w` zero-padded to a multiple of 8 columns.

    `_TokenRows.affine` cuts the padding off again, and says why it is there.
    Each tensor is written once into its float64 array, so no second copy of it is held.
    The embedding tables are only gathered by rows, which the pass casts itself: they are
    these parameters' own arrays, not copies.
    """
    tensors = {}
    for name, t in params.items():
        if name.startswith("embed."):
            tensors[name] = t
            continue
        pad = -t.shape[1] % 8 if t.ndim == 2 else 0  # projections only
        tensors[name] = np.zeros(t.shape[:-1] + (t.shape[-1] + pad,))
        tensors[name][..., : t.shape[-1]] = t
    return Parameters(params.config, tensors)


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


def _gelu(x, keep=True):
    """GELU (tanh form) of x and the tanh `_gelu_grad` reads: (0.5 x (1 + t), t).

    ((a x) x) x, + x, * c and tanh run in that order in one scratch buffer t,
    then 0.5 x (1 + t). Without `keep` no backward follows: 1 + t is written
    over t and the output over x, and the tanh returned is None.
    """
    t = np.multiply(x, _GELU_A)
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = np.multiply(x, 0.5, out=None if keep else x)
    y *= np.add(t, 1.0, out=None if keep else t)
    return y, t if keep else None


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


def _ln_forward(x, gain, offset, keep=True):
    """Layer norm over the last axis: (gain * xhat + offset, (xhat, inv)).

    x - mean, the mean of its squares, 1 / sqrt(var + eps), the scale and the
    affine map run in that order, each into a buffer made once. Without
    `keep` no backward follows: the output is written over xhat, and the
    cache returned is None.
    """
    xhat = np.subtract(x, x.mean(-1, keepdims=True))
    inv = np.multiply(xhat, xhat).mean(-1, keepdims=True)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    y = np.multiply(xhat, gain, out=None if keep else xhat)
    y += offset
    return y, (xhat, inv) if keep else None


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
    `gather` and `scatter` reduce to reshapes. The top layer's
    queries are laid out by one too (`queries`), with a sequence's masked
    pairs in place of its tokens.
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

    def affine(self, x, weight, bias):
        """x @ weight + bias for 2-D x, on the columns `bias` names.

        The product rule, under which a log scores to the same bits alone as
        in a batch: every product has at least two rows (one row is run as
        two equal rows, since BLAS gives a lone row other bits), every float64
        projection an output width that is a multiple of 8 (`scoring_copy`
        pads it with zero columns, cut off here), and every inner width,
        d_model or d_ff, is at most 384. Then a row's bits do not depend on
        the row count; this was checked on OpenBLAS 0.3.31's SkylakeX kernel
        only. Past 384 or on other kernels, batching and the layer-0 share
        (which changes Q/K/V's row count) can move a row's last bits.
        """
        y = (x[[0, 0]] @ weight)[:1] if len(x) == 1 else x @ weight
        y = y[:, : len(bias)]
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

    def queries(self, coords):
        """The pairs in `coords` as a query grid: a `_TokenRows` whose sequence b holds b's pairs.

        `coords` is sequence-major, as `_masked_coords` builds it, so row j of
        the grid is pair j, repeats included. Each sequence has as many slots
        as the largest count, and only unequal counts leave a slot empty.
        """
        counts = np.bincount(coords[0], minlength=self.grid[0])
        return _TokenRows(counts, int(counts.max()))


def _forward_cached(params: Parameters, ids, lengths, coords, dtype=np.float64, keep=False):
    """The forward pass: the logits at `coords`, and with `keep` what the backward reads.

    `coords` = (rows, positions), sequence-major as `_masked_coords` builds
    it. Every activation outside the attention core is a `_TokenRows` matrix:
    one row per content token below the top layer's K/V, one per pair of
    `coords` past them, whose queries sit in `tokens.queries(coords)`'s grid.
    Without `keep`, a padding-free batch of two or more sequences runs layer
    0 up to Q/K/V on its distinct (token id, position) pairs, since the
    embedding, LN1 and the projections see each row alone. Every activation
    is computed in `dtype`. The attention bias is built in it too, because
    one float64 operand would promote the whole pass back to float64. The
    embedding tables are not cast: only their gathered rows are, before the
    sum, so a float32 table gives the bits of its float64 copy.
    """
    cfg = params.config
    w = {k: v if k.startswith("embed.") else v.astype(dtype, copy=False) for k, v in params.items()}
    n_heads = cfg.n_heads
    scale = 1.0 / math.sqrt(cfg.d_model // n_heads)
    tokens = _TokenRows(lengths, ids.shape[1])

    attn_bias = None
    if tokens.valid is not None:
        attn_bias = np.where(tokens.valid, 0.0, -np.inf).astype(dtype, copy=False)[:, None, None, :]

    flat, pos = tokens.gather(ids), tokens.positions()
    shared = None  # row -> its distinct (token id, position) pair, while layer 0 runs on the pairs
    if not keep and tokens.valid is None and len(ids) > 1:
        _, first, shared = np.unique(flat * ids.shape[1] + pos, return_index=True, return_inverse=True)
        flat, pos = flat[first], pos[first]
    x = w["embed.token"][flat].astype(dtype, copy=False)  # each token row cast before the sum
    x += w["embed.position"][pos]
    cache = {"tokens": tokens, "weights": w, "layers": []}
    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        top = i == cfg.n_layers - 1  # the top layer keeps the masked rows past K/V
        rows, queries = (tokens.index(coords), tokens.queries(coords)) if top else (None, tokens)
        h, ln1 = _ln_forward(x, w[pre + "ln1.gain"], w[pre + "ln1.offset"], keep)
        k, v = (tokens.affine(h, w[pre + "attn.w" + c], w[pre + "attn.b" + c]) for c in "kv")
        hq = h if rows is None or shared is not None else h[rows]
        q = tokens.affine(hq, w[pre + "attn.wq"], w[pre + "attn.bq"])
        if shared is not None:  # back to one row per token, or per masked pair
            k, v = k[shared], v[shared]
            shared = shared if rows is None else shared[rows]
            x, q, shared = x[shared], q[shared], None
        elif rows is not None:
            x = x[rows]
        k, v, q = tokens.to_heads(k, n_heads), tokens.to_heads(v, n_heads), queries.to_heads(q, n_heads)
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= scale
        if attn_bias is not None:
            scores += attn_bias
        attn = _softmax(scores)
        ctx = queries.from_heads(attn @ v)
        x += tokens.affine(ctx, w[pre + "attn.wo"], w[pre + "attn.bo"])
        h2, ln2 = _ln_forward(x, w[pre + "ln2.gain"], w[pre + "ln2.offset"], keep)
        z1 = tokens.affine(h2, w[pre + "ffn.w1"], w[pre + "ffn.b1"])
        fz, gelu_t = _gelu(z1, keep)
        x += tokens.affine(fz, w[pre + "ffn.w2"], w[pre + "ffn.b2"])
        if keep:
            cache["layers"].append(dict(rows=rows, queries=queries, ln1=ln1, ln2=ln2, h=h, hq=hq, q=q, k=k, v=v,
                                        attn=attn, ctx=ctx, h2=h2, z1=z1, fz=fz, gelu_t=gelu_t))

    cache["hf"], cache["final_ln"] = _ln_forward(x, w["final_ln.gain"], w["final_ln.offset"], keep)
    cache["logits"] = _head(tokens, cache["hf"], w)
    return cache


def _head(tokens, hf, w):
    """Vocabulary logits of the final-LN rows `hf` [rows, d]; finite, or NonFiniteActivation."""
    logits = tokens.affine(hf, w["out.w"], w["out.b"])
    if not np.isfinite(logits).all():
        raise NonFiniteActivation("forward pass produced non-finite logits")
    return logits


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

    Every call runs `_forward_cached` in float64 and keeps nothing for a
    backward; the gradient oracle differentiates the same loop.

    Padding positions are excluded from attention and never computed, so a
    sequence's outputs do not depend on what the padding slots hold, nor, up to
    rounding in a padded batch, on its batch companions. Padding positions in a
    full per-position output hold the distribution of an all-zero encoder row,
    the head applied to `final_ln.offset`. The same parameters and batch give
    the same bits on every call. Weights already held as float64, and the
    embedding tables in either float dtype, are used without a copy.
    """
    cfg = params.config
    ids, lengths = _stack_batch(batch, cfg)
    full = mask_positions is None
    coords = _masked_coords([range(n) for n in lengths] if full else mask_positions, lengths)
    cache = _forward_cached(params, ids, lengths, coords)
    logits = cache["logits"]
    if full:  # padding slots hold the head of an all-zero encoder row
        w, logits = cache["weights"], np.empty(ids.shape + (cfg.vocab_size,))
        logits[:] = _head(cache["tokens"], w["final_ln.offset"][None], w)
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

    One exp pass gives both the log-sum-exp and the probabilities, which are
    formed in one new buffer: `logits - max`, then exp and the normalisation in
    place. `logits` is read before that buffer is made, so an array that only
    the caller's argument held is freed as soon as the buffer exists.
    """
    picked = logits[np.arange(len(tgt)), tgt]
    m = logits.max(-1, keepdims=True)
    e = np.subtract(logits, m)
    del logits
    np.exp(e, out=e)
    total = e.sum(-1, keepdims=True)
    nll = m[:, 0] + np.log(total[:, 0]) - picked
    e /= total
    return float(nll.mean()), e


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

    The top layer past K/V, the final LN, the head and the softmax, forward
    and backward, run only on the masked (row, position) pairs. Their
    gradients reach the token rows below by scatter-adds: the queries' into
    the top LN1's input gradient, the residual's into the layer below. So a
    position listed twice counts twice, as it does in the loss. Every other
    activation gradient is a `_TokenRows` matrix of the rows the forward
    kept, and every weight gradient is one [rows, m].T @ [rows, n] product.

    The backward lets go of the forward's cache as it goes: the logits and the
    head's input once read, and a layer's cache entry once the layer below it
    starts. The softmax becomes d loss / d logits in place, and no more than
    two [n_masked, vocab] arrays are alive at once.
    """
    cfg = params.config
    ids, lengths = _stack_batch(batch, cfg)
    bs, ps = _masked_coords(mask_positions, lengths)
    tgt = _target_ids(targets, ids.shape, bs, ps)
    cache = _forward_cached(params, ids, lengths, (bs, ps), dtype, keep=True)
    w, tokens = cache["weights"], cache["tokens"]
    loss, dlogits = _masked_loss(cache.pop("logits"), tgt)  # the softmax, made d loss / d logits in place

    n_masked = len(bs)
    dlogits /= n_masked  # [n_masked, vocab]
    dlogits[np.arange(n_masked), tgt] -= 1.0 / n_masked

    g: dict[str, np.ndarray] = {}
    g["out.w"] = cache.pop("hf").T @ dlogits
    g["out.b"] = dlogits.sum(0)
    dhf = dlogits @ w["out.w"].T
    del dlogits
    dx, g["final_ln.gain"], g["final_ln.offset"] = _ln_backward(
        dhf, w["final_ln.gain"], cache["final_ln"]
    )  # [n_masked, d]

    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
    for i in reversed(range(cfg.n_layers)):
        pre = f"layers.{i}."
        lc, cache["layers"][i] = cache["layers"][i], None
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
        rows, queries = lc["rows"], lc["queries"]
        dctx = queries.to_heads(dx @ w[pre + "attn.wo"].T, cfg.n_heads)
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
        dq = queries.from_heads(dq)
        g[pre + "attn.wq"] = lc["hq"].T @ dq
        g[pre + "attn.bq"] = dq.sum(0)
        dh = dq @ w[pre + "attn.wq"].T
        if rows is not None:  # the masked rows' queries, back onto the token rows
            dh = _scatter_add(rows, dh, len(h))
        for c, dproj in (("k", dk), ("v", dv)):
            dproj = tokens.from_heads(dproj)
            g[pre + "attn.w" + c] = h.T @ dproj
            g[pre + "attn.b" + c] = dproj.sum(0)
            dh += dproj @ w[pre + "attn.w" + c].T
        dattn_in, g[pre + "ln1.gain"], g[pre + "ln1.offset"] = _ln_backward(
            dh, w[pre + "ln1.gain"], lc["ln1"]
        )
        if rows is not None:  # the residual, from the masked rows to every token row
            dx = _scatter_add(rows, dx, len(h))
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
