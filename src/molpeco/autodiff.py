"""Dense tensors with reverse-mode differentiation, plus the model's
positional encoder and its loss as ops with hand-written backwards.

The ops are the ones the model and its loss run: ``gather_rows`` (atom
embedding), ``positional_encoder`` (a batch's lift, encoder blocks and pair
sum, one op with a hand-written backward), ``add``, ``block_matmul``,
``matmul`` and ``selu`` (the graph convolutions), ``segment_sum``
(pooling, one ``np.add.reduceat``), ``rowwise_matmul`` (the head, one
stacked product of one-row factors), and ``multilabel_loss`` (the loss,
also one op with a hand-written backward). ``logistic`` is the plain
numpy sigmoid that the loss and the reported scores share. ``mul`` and
``tensor_sum`` have only test callers, which use them to weight and sum an
op's output.

Everything runs in double precision. Operations never mutate their inputs;
``backward`` accumulates gradients additively into the reachable leaves, so
running it twice without clearing doubles every gradient.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ShapeError

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805


class Tensor:
    """A dense float64 array participating in a backward graph.

    Leaves created with ``requires_grad=True`` receive gradients in
    ``.grad`` after ``backward``; op outputs track their parents and a
    closure mapping the output gradient onto parent gradients.
    """

    __slots__ = ("values", "grad", "requires_grad", "parents", "grad_fn")

    def __init__(self, values, requires_grad: bool = False,
                 parents: tuple["Tensor", ...] = (),
                 grad_fn: Optional[Callable[[np.ndarray], tuple]] = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.parents = parents
        self.grad_fn = grad_fn

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def sum(self) -> "Tensor":
        return tensor_sum(self)


@dataclass
class Parameter:
    """A named trainable tensor; names index checkpoints and optimizer state."""

    name: str
    tensor: Tensor


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast to produce it."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no backward graph inside the block: op outputs keep no
    parents and require no gradient, so each intermediate is freed as soon
    as nothing reads it. The previous mode returns on exit, also after an
    exception."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(values, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    return Tensor(values, requires_grad=requires,
                  parents=parents if requires else (),
                  grad_fn=grad_fn if requires else None)


def add(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)
    return _node(a.values + b.values, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return (_unbroadcast(g * b.values, a.values.shape),
                _unbroadcast(g * a.values, b.values.shape))
    return _node(a.values * b.values, (a, b), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2D factors. A one-row left factor is multiplied as
    the first row of a two-row product: numpy sends a single row to a
    vector kernel that rounds differently from the matrix kernel its rows
    get inside any longer factor."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    out = (np.concatenate([av, av]) @ bv)[:1] if len(av) == 1 else av @ bv

    def grad_fn(g):
        return g @ bv.T, av.T @ g
    return _node(out, (a, b), grad_fn)


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of every entry."""
    def grad_fn(g):
        return (np.broadcast_to(g, a.values.shape).copy(),)
    return _node(a.values.sum(), (a,), grad_fn)


def _row_blocks(array: np.ndarray, sizes: Sequence[int]) -> list[np.ndarray]:
    """Views of consecutive row blocks, block i holding ``sizes[i]`` rows
    (plain slices, about 4x cheaper than ``np.split``)."""
    return [array[end - n:end] for n, end in zip(sizes, accumulate(sizes))]


def segment_sum(a: Tensor, sizes: Sequence[int]) -> Tensor:
    """Column sums over consecutive row segments of a 2D tensor, one output
    row per segment, ``sizes`` giving the segments' row counts (each at
    least 1). Each segment is summed in row order, as it would be alone."""
    av = a.values
    if av.ndim != 2 or sum(sizes) != av.shape[0] or min(sizes, default=0) < 1:
        raise ShapeError(f"segment_sum expects a 2D tensor of {sum(sizes)} rows in "
                         f"segments of at least 1, got {av.shape} in {list(sizes)}")
    out = np.add.reduceat(av, np.cumsum([0, *sizes[:-1]]), axis=0)

    def grad_fn(g):
        return (np.repeat(g, sizes, axis=0),)
    return _node(out, (a,), grad_fn)


def block_matmul(mats: Sequence[np.ndarray], h: Tensor) -> Tensor:
    """Block-diagonal product of constant square matrices with stacked rows:
    block i owns the next ``len(mats[i])`` rows of ``h`` and gives
    ``mats[i] @ h[rows_i]``, each block its own product."""
    sizes = [m.shape[0] for m in mats]
    if any(m.shape != (n, n) for m, n in zip(mats, sizes)) \
            or h.values.ndim != 2 or sum(sizes) != h.values.shape[0]:
        raise ShapeError(f"block matrices {[m.shape for m in mats]} incompatible "
                         f"with rows {h.values.shape}")
    out = np.concatenate([m @ rows for m, rows in zip(mats, _row_blocks(h.values, sizes))])

    def grad_fn(g):
        return (np.concatenate([m.T @ rows for m, rows in zip(mats, _row_blocks(g, sizes))]),)
    return _node(out, (h,), grad_fn)


def rowwise_matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for 2D factors, computed as a stack of ``(1, k) @ (k, o)``
    products, one per row of ``a``, in one call. A product over many rows
    may round differently from a single row's, so this keeps every row
    independent of its batch."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"rowwise_matmul shape mismatch: {av.shape} @ {bv.shape}")

    def grad_fn(g):
        return g @ bv.T, av.T @ g
    return _node((av[:, None, :] @ bv)[:, 0, :], (a, b), grad_fn)


def selu(a: Tensor) -> Tensor:
    """Scaled exponential linear unit with the standard self-normalizing
    constants."""
    av = a.values
    exp_neg = np.exp(np.minimum(av, 0.0))
    # SELU_LAMBDA * (max(x, 0) + SELU_ALPHA * (exp(min(x, 0)) - 1)), in place
    out = exp_neg - 1.0
    out *= SELU_ALPHA
    out += np.maximum(av, 0.0)
    out *= SELU_LAMBDA

    def grad_fn(g):
        local = SELU_LAMBDA * np.where(av > 0.0, 1.0, SELU_ALPHA * exp_neg)
        return (g * local,)
    return _node(out, (a,), grad_fn)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]`` of a 2-D table, with scatter-add
    backward."""
    idx = np.asarray(indices, dtype=np.int64)

    def grad_fn(g):
        rows, d = table.values.shape
        # bincount adds in input order, as np.add.at does, so the sums match
        flat = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
        gt = np.bincount(flat, weights=g.ravel(), minlength=rows * d)
        return (gt.reshape(rows, d),)
    return _node(table.values[idx], (table,), grad_fn)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Gradients accumulate additively across graph fan-out and into the
    ``.grad`` of every reachable leaf that requires gradients.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.values.shape}")

    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    acc: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = acc.pop(id(node))
        if node.grad_fn is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node.parents, node.grad_fn(g)):
            if parent.requires_grad:
                key = id(parent)
                acc[key] = acc[key] + pg if key in acc else pg


# ---------------------------------------------------------------------------
# Positional encoder
# ---------------------------------------------------------------------------

def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``x`` at zero mean and unit variance (of the variance plus
    1e-5), and the reciprocal standard deviations used."""
    xhat = x - (x @ np.full(x.shape[1], 1.0 / x.shape[1]))[:, None]
    rstd = 1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / x.shape[1] + 1e-5)
    xhat *= rstd[:, None]
    return xhat, rstd


def _layer_norm_backward(g: np.ndarray, xhat: np.ndarray, rstd: np.ndarray,
                         gain: np.ndarray):
    """Gradients of the layer norm ``xhat * gain + bias`` for the input of
    ``_normalize``, for ``gain`` and for ``bias``."""
    ones, mean_gain = np.ones(len(g)), gain / g.shape[1]
    g_xhat = g * xhat
    g_gain = ones @ g_xhat
    gx = g * gain
    gx -= (g @ mean_gain)[:, None]
    gx -= np.multiply(xhat, (g_xhat @ mean_gain)[:, None], out=g_xhat)
    gx *= rstd[:, None]
    return gx, g_gain, ones @ g


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = x @ w
    out += b
    return out


def _encoder_block(x: np.ndarray, weights: tuple, pairs: int, saved: Optional[list]):
    """One pre-norm block, x + Attn(LN(x)) and then + FFN(LN(.)), over
    ``(rows, d)`` rows of which each run of ``pairs`` is one sequence.
    Appends what the backward reads to ``saved`` unless it is None."""
    g1, c1, wq, bq, wk, bk, wv, bv, wo, bo, g2, c2, w1, b1, w2, b2 = weights
    d = x.shape[1]
    # a norm's gain and bias fold into the product after it, (xhat g + c) @ w
    # + b = xhat @ (g w) + (c @ w + b); the score scale 1/sqrt(d) into the
    # query's weights and SELU's lambda into w2
    xhat1, rstd1 = _normalize(x)
    q3, k3, v3 = (_affine(xhat1, g1[:, None] * w, c1 @ w + b).reshape(-1, pairs, d)
                  for w, b in ((wq / math.sqrt(d), bq / math.sqrt(d)), (wk, bk), (wv, bv)))
    attn = q3 @ np.swapaxes(k3, -1, -2)
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= (attn @ np.ones(pairs))[..., None]
    mixed = (attn @ v3).reshape(-1, d)
    x1 = _affine(mixed, wo, bo)
    x1 += x
    xhat2, rstd2 = _normalize(x1)
    act = _affine(xhat2, g2[:, None] * w1, c2 @ w1 + b1)
    neg = np.minimum(act, 0.0)
    np.expm1(neg, out=neg)
    neg *= SELU_ALPHA
    np.maximum(act, 0.0, out=act)
    act += neg
    out = _affine(act, w2 * SELU_LAMBDA, b2)
    out += x1
    if saved is not None:
        saved.append((xhat1, rstd1, q3, k3, v3, attn, mixed, xhat2, rstd2, act))
    return out


def _encoder_block_backward(g: np.ndarray, weights: tuple, saved: tuple):
    """Gradients of ``_encoder_block`` for its input and its 16 weights."""
    g1, c1, wq, _, wk, _, wv, _, wo, _, g2, c2, w1, _, w2, _ = weights
    xhat1, rstd1, q3, k3, v3, attn, mixed, xhat2, rstd2, act = saved
    # act is SELU / lambda, whose slope is 1 where act > 0, else act + alpha
    slope = np.minimum(act, 0.0) + SELU_ALPHA
    slope -= (act > 0.0) * (SELU_ALPHA - 1.0)
    g_act = np.multiply(g @ (w2.T * SELU_LAMBDA), slope, out=slope)
    gx1, g_g2, g_c2 = _layer_norm_backward(g_act @ w1.T, xhat2, rstd2, g2)
    gx1 += g
    g_mixed = (gx1 @ wo.T).reshape(v3.shape)
    g_attn = g_mixed @ np.swapaxes(v3, -1, -2)
    g_attn -= np.einsum("nij,nij->ni", g_attn, attn)[..., None]
    g_attn *= attn
    gq = (g_attn @ k3).reshape(g.shape) / math.sqrt(g.shape[1])
    gk = (np.swapaxes(g_attn, -1, -2) @ q3).reshape(g.shape)
    gv = (np.swapaxes(attn, -1, -2) @ g_mixed).reshape(g.shape)
    gx, g_g1, g_c1 = _layer_norm_backward(gq @ wq.T + gk @ wk.T + gv @ wv.T, xhat1, rstd1, g1)
    gx += gx1
    ones, h1, h2 = np.ones(len(g)), xhat1 * g1 + c1, xhat2 * g2 + c2
    return gx, (g_g1, g_c1, h1.T @ gq, ones @ gq, h1.T @ gk, ones @ gk, h1.T @ gv, ones @ gv,
                mixed.T @ gx1, ones @ gx1, g_g2, g_c2, h2.T @ g_act, ones @ g_act,
                (act.T @ g) * SELU_LAMBDA, ones @ g)


def positional_encoder(pairs: Sequence[np.ndarray], w0: Tensor,
                       blocks: Sequence[Sequence[Tensor]]) -> Tensor:
    """A batch's positional encoding as one op. ``pairs`` holds one constant
    ``(n, k, c)`` array per molecule, the k input pairs of each of its n
    atoms. Each is lifted by ``@ w0`` to width d, run through the pre-norm
    encoder ``blocks`` (each the 16 weights ``_encoder_block`` unpacks) with
    every atom's k rows as one sequence, and summed over the pairs; the
    molecules' ``(n, d)`` rows are stacked in batch order. The forward is
    the same arithmetic with or without a graph; with one it keeps what the
    hand-written backward reads for the gradients of ``w0`` and every block
    weight, which it adds over the molecules left to right."""
    tensors = (w0, *(t for block in blocks for t in block))
    weights = [tuple(t.values for t in block) for block in blocks]
    saved = [] if _grad_enabled and any(t.requires_grad for t in tensors) else None
    rows = []
    for x in pairs:
        n, k = x.shape[:2]
        h = (x @ w0.values).reshape(n * k, -1)
        molecule_saved = None if saved is None else []
        for block_weights in weights:
            h = _encoder_block(h, block_weights, k, molecule_saved)
        rows.append(h.reshape(n, k, -1).sum(axis=-2))
        if saved is not None:
            saved.append(molecule_saved)

    def grad_fn(g):
        total = None
        for x, molecule_saved, gm in zip(pairs, saved, _row_blocks(g, [len(x) for x in pairs])):
            grads, gh = [], np.repeat(gm, x.shape[1], axis=0)
            for block_weights, block_saved in zip(reversed(weights), reversed(molecule_saved)):
                gh, block_grads = _encoder_block_backward(gh, block_weights, block_saved)
                grads[:0] = block_grads
            grads.insert(0, x.reshape(-1, x.shape[-1]).T @ gh)
            total = grads if total is None else [a + b for a, b in zip(total, grads)]
        return tuple(total)
    return _node(np.concatenate(rows), tensors, grad_fn)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def logistic(z: np.ndarray) -> np.ndarray:
    """The sigmoid 1 / (1 + exp(-z)) as exp(min(z, 0)) / (1 + exp(-|z|)),
    which overflows for no z."""
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def multilabel_loss(z: Tensor, targets: np.ndarray, weights: np.ndarray,
                    eps: float) -> Tensor:
    """Weighted multi-label loss of logits ``z`` against 0/1 ``targets`` of
    the same shape as one op: the mean over every entry of w * ((1 - t) z -
    log sigmoid(z) + |log(sigmoid(z) + eps) - log(t + eps)|), ``weights``
    broadcast over the last axis. The closed-form backward adds its three
    terms in the order the chain rule through elementary ops adds them, so
    its gradients equal that graph's bit for bit."""
    zv = z.values
    p = logistic(zv)
    log_p = np.minimum(zv, 0.0) - np.log1p(np.exp(-np.abs(zv)))
    ratio = np.log(p + eps) - np.log(targets + eps)
    scale = 1.0 / zv.size
    out = (((1.0 - targets) * zv - log_p + np.abs(ratio)) * weights).sum() * scale

    def grad_fn(g):
        gw = g * scale * weights
        return (gw * (1.0 - targets) + -gw * np.exp(log_p - zv)
                + gw * np.sign(ratio) / (p + eps) * p * (1.0 - p),)
    return _node(out, (z,), grad_fn)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def glorot_uniform(rng: np.random.Generator, shape: Sequence[int]) -> np.ndarray:
    fan_in, fan_out = shape[-2], shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=tuple(shape))
