"""Dense tensors with reverse-mode differentiation, plus the neural
building blocks used by the model: linear maps, SELU, layer normalization,
masked softmax attention, and a pre-norm transformer encoder block.

Everything runs in double precision. Operations never mutate their inputs;
``backward`` accumulates gradients additively into the reachable leaves, so
running it twice without clearing doubles every gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ShapeError

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805

_MASK_NEG = -1e30  # additive logit for masked attention keys


class Tensor:
    """A dense float64 array participating in a backward graph.

    Leaves created with ``requires_grad=True`` receive gradients in
    ``.grad`` after ``backward``; op outputs track their parents and a
    closure mapping the output gradient onto parent gradients.
    """

    __slots__ = ("values", "grad", "requires_grad", "parents", "grad_fn", "op")

    def __init__(self, values, requires_grad: bool = False,
                 parents: tuple["Tensor", ...] = (),
                 grad_fn: Optional[Callable[[np.ndarray], tuple]] = None,
                 op: Optional[str] = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.parents = parents
        self.grad_fn = grad_fn
        self.op = op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.values.size if axis is None else self.values.shape[axis]
        return tensor_sum(self, axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r})"

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


@dataclass
class Parameter:
    """A named trainable tensor; names index checkpoints and optimizer state."""

    name: str
    tensor: Tensor
    trainable: bool = True


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(values) -> Tensor:
    """A tensor outside the differentiation graph."""
    return Tensor(values, requires_grad=False)


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


def _node(values, parents: tuple[Tensor, ...], grad_fn, op: str) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    return Tensor(values, requires_grad=requires,
                  parents=parents if requires else (),
                  grad_fn=grad_fn if requires else None, op=op)


def add(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)
    return _node(a.values + b.values, (a, b), grad_fn, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(-g, b.values.shape)
    return _node(a.values - b.values, (a, b), grad_fn, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return (_unbroadcast(g * b.values, a.values.shape),
                _unbroadcast(g * a.values, b.values.shape))
    return _node(a.values * b.values, (a, b), grad_fn, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return (_unbroadcast(g / b.values, a.values.shape),
                _unbroadcast(-g * a.values / (b.values * b.values), b.values.shape))
    return _node(a.values / b.values, (a, b), grad_fn, "div")


def neg(a: Tensor) -> Tensor:
    return _node(-a.values, (a,), lambda g: (-g,), "neg")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports 2D @ 2D, batched ND @ 2D (shared right
    factor), and ND @ ND with identical batch dimensions."""
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim < 2 or av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    if bv.ndim > 2 and av.shape[:-2] != bv.shape[:-2]:
        raise ShapeError(f"matmul batch dims differ: {av.shape} @ {bv.shape}")

    def grad_fn(g):
        ga = g @ np.swapaxes(bv, -1, -2)
        if bv.ndim == 2 and av.ndim > 2:
            gb = av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = np.swapaxes(av, -1, -2) @ g
        return ga, gb
    return _node(av @ bv, (a, b), grad_fn, "matmul")


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    def grad_fn(g):
        return (np.swapaxes(g, -1, -2),)
    return _node(np.swapaxes(a.values, -1, -2), (a,), grad_fn, "transpose")


def reshape(a: Tensor, shape) -> Tensor:
    original = a.values.shape

    def grad_fn(g):
        return (g.reshape(original),)
    return _node(a.values.reshape(shape), (a,), grad_fn, "reshape")


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    original = a.values.shape

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g, original).copy(),)
        g_expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_expanded, original).copy(),)
    return _node(a.values.sum(axis=axis, keepdims=keepdims), (a,), grad_fn, "sum")


def sum_rows_exact(a: Tensor) -> Tensor:
    """Column sums over the rows of a 2D tensor, each column summed in
    sorted order, so the result is order-independent: bit-identical under
    any reordering of the rows."""
    av = a.values
    if av.ndim != 2:
        raise ShapeError(f"sum_rows_exact expects a 2D tensor, got {av.shape}")
    out = np.sort(av, axis=0).sum(axis=0, keepdims=True)

    def grad_fn(g):
        return (np.broadcast_to(g, av.shape).copy(),)
    return _node(out, (a,), grad_fn, "sum_rows_exact")


def log(a: Tensor) -> Tensor:
    def grad_fn(g):
        return (g / a.values,)
    return _node(np.log(a.values), (a,), grad_fn, "log")


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)

    def grad_fn(g):
        return (g * out,)
    return _node(out, (a,), grad_fn, "exp")


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.values)

    def grad_fn(g):
        return (g * 0.5 / out,)
    return _node(out, (a,), grad_fn, "sqrt")


def absolute(a: Tensor) -> Tensor:
    def grad_fn(g):
        return (g * np.sign(a.values),)
    return _node(np.abs(a.values), (a,), grad_fn, "abs")


def selu(a: Tensor) -> Tensor:
    """Scaled exponential linear unit with the standard self-normalizing
    constants."""
    av = a.values
    positive = av > 0.0
    exp_neg = np.exp(np.where(positive, 0.0, av))
    out = SELU_LAMBDA * np.where(positive, av, SELU_ALPHA * (exp_neg - 1.0))

    def grad_fn(g):
        local = SELU_LAMBDA * np.where(positive, 1.0, SELU_ALPHA * exp_neg)
        return (g * local,)
    return _node(out, (a,), grad_fn, "selu")


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    av = a.values
    out = np.empty_like(av)
    pos = av >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
    ez = np.exp(av[~pos])
    out[~pos] = ez / (1.0 + ez)

    def grad_fn(g):
        return (g * out * (1.0 - out),)
    return _node(out, (a,), grad_fn, "sigmoid")


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(z)) = min(z, 0) - log1p(exp(-|z|)), finite for every
    finite z. Its derivative sigmoid(-z) = exp(out - z) lies in [0, 1]."""
    av = a.values
    out = np.minimum(av, 0.0) - np.log1p(np.exp(-np.abs(av)))

    def grad_fn(g):
        return (g * np.exp(out - av),)
    return _node(out, (a,), grad_fn, "log_sigmoid")


def softmax_last(a: Tensor) -> Tensor:
    """Softmax over the last axis (max-shifted for stability)."""
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)
    return _node(out, (a,), grad_fn, "softmax")


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]`` with scatter-add backward."""
    idx = np.asarray(indices, dtype=np.int64)

    def grad_fn(g):
        gt = np.zeros_like(table.values)
        np.add.at(gt, idx, g)
        return (gt,)
    return _node(table.values[idx], (table,), grad_fn, "gather_rows")


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Gradients accumulate additively across graph fan-out and into the
    ``.grad`` of every reachable leaf that requires gradients.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")

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
        g = acc.pop(id(node), None)
        if g is None:
            continue
        if node.grad_fn is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node.parents, node.grad_fn(g)):
            if not parent.requires_grad or pg is None:
                continue
            key = id(parent)
            if key in acc:
                acc[key] = acc[key] + pg
            else:
                acc[key] = pg


# ---------------------------------------------------------------------------
# Neural building blocks
# ---------------------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then apply a
    learned per-feature gain and bias."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = mul(centered, centered).mean(axis=-1, keepdims=True)
    std = sqrt(add(var, constant(eps)))
    return add(mul(div(centered, std), gain), bias)


def softmax_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray) -> Tensor:
    """Scaled dot-product attention over the second-last axis.

    ``mask`` flags valid rows; masked rows are excluded as keys (their
    logits are driven to -inf) and produce all-zero outputs as queries.
    """
    d_k = q.values.shape[-1]
    if d_k == 0:
        raise ShapeError("attention requires d_k >= 1")
    if q.values.shape[-2] != k.values.shape[-2] or k.values.shape[-2] != v.values.shape[-2]:
        raise ShapeError(
            f"attention row counts differ: Q {q.shape}, K {k.shape}, V {v.shape}"
        )
    mask = np.asarray(mask, dtype=bool)
    key_bias = constant(np.where(mask, 0.0, _MASK_NEG)[..., None, :])
    query_gate = constant(mask.astype(np.float64)[..., :, None])

    scores = mul(matmul(q, transpose(k)), constant(1.0 / math.sqrt(d_k)))
    weights = mul(softmax_last(add(scores, key_bias)), query_gate)
    return matmul(weights, v)


@dataclass
class TransformerBlockParams:
    """Weights of one pre-norm encoder block (single attention head,
    feed-forward expansion x2)."""

    ln1_gain: Tensor
    ln1_bias: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor


def transformer_block(x: Tensor, mask: np.ndarray,
                      params: TransformerBlockParams) -> Tensor:
    """Pre-norm residual block: x + Attn(LN(x)), then + FFN(LN(.)).

    Both residual branches are gated by the row mask, so masked (padded)
    rows pass through unchanged; zero-padded inputs stay exactly zero.
    """
    mask = np.asarray(mask, dtype=bool)
    gate = constant(mask.astype(np.float64)[..., :, None])

    h = layer_norm(x, params.ln1_gain, params.ln1_bias)
    attended = softmax_attention(
        linear(h, params.wq, params.bq),
        linear(h, params.wk, params.bk),
        linear(h, params.wv, params.bv),
        mask,
    )
    x = add(x, mul(linear(attended, params.wo, params.bo), gate))

    h = layer_norm(x, params.ln2_gain, params.ln2_bias)
    ff = linear(selu(linear(h, params.ffn_w1, params.ffn_b1)),
                params.ffn_w2, params.ffn_b2)
    return add(x, mul(ff, gate))


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def glorot_uniform(rng: np.random.Generator, shape: Sequence[int]) -> np.ndarray:
    fan_in, fan_out = shape[-2], shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=tuple(shape))
