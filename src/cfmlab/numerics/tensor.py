"""Dense float64 tensors with reverse-mode autodiff recorded on a flat tape.

Design constraints: everything is 64-bit, every op checks its output for
NaN/Inf (non-finite values are an error state, not a silent warning), and
the primitive set is deliberately small -- matmul, elementwise arithmetic,
exp/log/sqrt, tanh/GELU, reductions, concat/slice/reshape/transpose plus
the stabilized softmax/logsumexp/l2-normalize composites built on top.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

_UID = itertools.count()
_GRAD_ENABLED = True
_FINITE_CHECKS = True
_FAULT_OP = None  # set via inject_backward_fault(), test instrumentation only

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class NumericError(RuntimeError):
    """An operation produced non-finite values or violated its contract."""


def _check_finite(data, op):
    # a finite sum proves every entry finite; a non-finite one may be overflow
    # of finite entries, so only then is the elementwise test run
    if (_FINITE_CHECKS and not np.isfinite(np.sum(data))
            and not np.isfinite(data).all()):
        raise NumericError(f"non-finite values produced by op '{op}'")


@contextmanager
def no_grad():
    """Disable tape recording; forward values only."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextmanager
def finite_checks(enabled):
    global _FINITE_CHECKS
    prev = _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)
    try:
        yield
    finally:
        _FINITE_CHECKS = prev


@contextmanager
def inject_backward_fault(op_name):
    """Negate the gradients flowing out of `op_name` during backprop.

    Exists so the gradient-check harness can prove it detects a broken
    backward rule; never active outside tests / `cfmlab gradcheck`.
    """
    global _FAULT_OP
    prev = _FAULT_OP
    _FAULT_OP = op_name
    try:
        yield
    finally:
        _FAULT_OP = prev


class Tensor:
    """N-d float64 array plus the graph edges needed for backprop."""

    __slots__ = ("data", "requires_grad", "_op", "_parents", "_vjp", "_uid")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._op = "leaf"
        self._parents = ()
        self._vjp = None
        self._uid = next(_UID)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise NumericError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def numpy(self):
        return self.data

    def detach(self):
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r})"

    # identity-based hashing: tensors are graph nodes, not values
    __hash__ = object.__hash__

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return pow_scalar(self, exponent)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def transpose(self, axes=None):
        return transpose(self, axes)

    @property
    def mT(self):
        return swap_last(self)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(parents):
    if not _GRAD_ENABLED:
        return False
    return any(p.requires_grad or p._vjp is not None for p in parents)


def _from_op(data, parents, vjp, op):
    _check_finite(data, op)
    out = Tensor(data)
    if _tracked(parents):
        out._op = op
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g, shape):
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squash = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if squash:
        g = g.sum(axis=squash, keepdims=True)
    return g.reshape(shape)


# -- elementwise primitives ------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _from_op(
        a.data + b.data, (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
        "add")


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _from_op(
        a.data - b.data, (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
        "sub")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _from_op(
        a.data * b.data, (a, b),
        lambda g: (_unbroadcast(g * b.data, a.data.shape),
                   _unbroadcast(g * a.data, b.data.shape)),
        "mul")


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = a.data / b.data
    return _from_op(
        out, (a, b),
        lambda g: (_unbroadcast(g / b.data, a.data.shape),
                   _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)),
        "div")


def neg(a):
    a = as_tensor(a)
    return _from_op(-a.data, (a,), lambda g: (-g,), "neg")


def pow_scalar(a, exponent):
    a = as_tensor(a)
    c = float(exponent)
    with np.errstate(invalid="ignore", over="ignore"):
        out = a.data ** c
    return _from_op(
        out, (a,), lambda g: (g * c * a.data ** (c - 1.0),), "pow")


def exp(a):
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    return _from_op(out, (a,), lambda g: (g * out,), "exp")


def log(a):
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    return _from_op(out, (a,), lambda g: (g / a.data,), "log")


def sqrt(a):
    a = as_tensor(a)
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.data)
    return _from_op(out, (a,), lambda g: (g * 0.5 / out,), "sqrt")


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _from_op(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


def gelu(a):
    """Exact (erf-based) GELU."""
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * cdf

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return _from_op(out, (a,), vjp, "gelu")


# -- matmul and shape ops ----------------------------------------------------

def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise NumericError("matmul requires operands with ndim >= 2")
    out = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return (ga, gb)

    return _from_op(out, (a, b), vjp, "matmul")


def reshape(a, shape):
    a = as_tensor(a)
    return _from_op(
        a.data.reshape(shape), (a,),
        lambda g: (g.reshape(a.data.shape),), "reshape")


def transpose(a, axes=None):
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _from_op(
        np.transpose(a.data, axes), (a,),
        lambda g: (np.transpose(g, inv),), "transpose")


def swap_last(a):
    a = as_tensor(a)
    return _from_op(
        np.swapaxes(a.data, -1, -2), (a,),
        lambda g: (np.swapaxes(g, -1, -2),), "swap_last")


def concat(tensors, axis=-1):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise NumericError("concat of zero tensors")
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _from_op(np.concatenate(datas, axis=axis), tensors, vjp, "concat")


def getitem(a, key):
    a = as_tensor(a)

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)  # repeated indices accumulate; += keeps one
        return (full,)

    return _from_op(a.data[key], (a,), vjp, "getitem")


# -- reductions --------------------------------------------------------------

def _expand_reduced(g, in_shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, in_shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(ax % len(in_shape) for ax in axes)
        shape = tuple(1 if i in axes else s for i, s in enumerate(in_shape))
        g = g.reshape(shape)
    return np.broadcast_to(g, in_shape)


def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    return _from_op(
        np.sum(a.data, axis=axis, keepdims=keepdims), (a,),
        lambda g: (_expand_reduced(g, a.data.shape, axis, keepdims).copy(),),
        "sum")


def mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = np.mean(a.data, axis=axis, keepdims=keepdims)
    count = a.data.size if out.size == 0 else a.data.size // max(out.size, 1)

    def vjp(g):
        return (_expand_reduced(g, a.data.shape, axis, keepdims) / count,)

    return _from_op(out, (a,), vjp, "mean")


def max_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = np.max(a.data, axis=axis, keepdims=keepdims)

    def vjp(g):
        full = np.max(a.data, axis=axis, keepdims=True)
        mask = (a.data == full).astype(np.float64)
        mask /= np.sum(mask, axis=axis, keepdims=True)  # split ties evenly
        return (mask * _expand_reduced(g, a.data.shape, axis, keepdims),)

    return _from_op(out, (a,), vjp, "max")


def detach(a):
    return as_tensor(a).detach()


# -- stabilized composites -----------------------------------------------------

def logsumexp(a, axis=-1, keepdims=False):
    """log(sum(exp(x))) with the max subtracted as a constant for stability."""
    a = as_tensor(a)
    m = Tensor(np.max(a.data, axis=axis, keepdims=True))
    lse = log(sum_(exp(a - m), axis=axis, keepdims=True)) + m
    if keepdims:
        return lse
    ax = axis % a.data.ndim
    squeezed = tuple(s for i, s in enumerate(lse.data.shape) if i != ax)
    return reshape(lse, squeezed)


def softmax(a, axis=-1):
    return exp(as_tensor(a) - logsumexp(a, axis=axis, keepdims=True))


def l2_normalize(a, axis=-1):
    a = as_tensor(a)
    return a / sqrt(sum_(a * a, axis=axis, keepdims=True))


def mse(a, b):
    d = as_tensor(a) - as_tensor(b)
    return mean(d * d)


# -- tape view ----------------------------------------------------------------

@dataclass
class Tape:
    """Topologically ordered record of the ops reachable from one output.

    Creation order is a topological order by construction (an op's parents
    always exist before the op runs), so nodes are sorted by uid.
    """

    nodes: list

    @classmethod
    def from_output(cls, out):
        seen = set()
        nodes = []
        stack = [out]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
        nodes.sort(key=lambda t: t._uid)
        return cls(nodes)

    def replay_backward(self, out, seed_grad):
        """One reverse sweep; visits every recorded node exactly once."""
        grads = {id(out): np.asarray(seed_grad, dtype=np.float64)}
        for t in reversed(self.nodes):
            if t._vjp is None:
                continue  # leaf: keep its accumulated grad for the caller
            g = grads.pop(id(t), None)
            if g is None:
                continue
            parent_grads = t._vjp(g)
            if _FAULT_OP is not None and t._op == _FAULT_OP:
                parent_grads = tuple(
                    None if pg is None else -np.asarray(pg) for pg in parent_grads)
            for p, pg in zip(t._parents, parent_grads):
                if pg is None:
                    continue
                # numpy 0-d results come back as immutable scalars; views and
                # broadcast results must not be accumulated into in place
                pg = np.asarray(pg, dtype=np.float64)
                acc = grads.get(id(p))
                if acc is None:
                    owned = pg.base is None and pg.flags.writeable
                    grads[id(p)] = pg if owned else pg.copy()
                else:
                    acc += pg
        return grads


def grad(loss, params):
    """Reverse-mode gradients of a scalar loss w.r.t. `params`.

    Params that never touched the tape get zero gradients.
    """
    loss = as_tensor(loss)
    if loss.data.size != 1:
        raise NumericError(
            f"grad() needs a scalar loss, got shape {loss.data.shape}")
    tape = Tape.from_output(loss)
    grads = tape.replay_backward(loss, np.ones_like(loss.data))
    return {p: Tensor(grads.get(id(p), np.zeros_like(p.data))) for p in params}


# -- parameter initialization ---------------------------------------------------

def uniform_init(rng, shape, fan_in):
    """Uniform in +-1/sqrt(fan_in); the default for all trainable maps."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def zeros_init(shape):
    return Tensor(np.zeros(shape), requires_grad=True)
