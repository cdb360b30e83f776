"""Dense float64 tensors with reverse-mode autodiff recorded on a flat tape.

The graph is made of `_Node`s, not of tensors: a tracked op output's node
holds the op name, its parents' nodes (None for a constant) and the VJP; a
parameter's is a leaf; a constant has none. A VJP may close only over the
arrays and shapes its rule reads for a parent that needs a gradient, so an
op output no rule reads is freed with its Tensor while the graph lives on.
A graph is swept backward once: the sweep frees each node's VJP, with the
arrays it closed over, as soon as the rule has run, so the memory the graph
holds falls as the sweep nears the leaves. A second sweep through the same
node raises `NumericError` naming its op.

Design constraints: everything is 64-bit, every op checks its output for
NaN/Inf (non-finite values are an error state, not a silent warning), and
the primitive set is deliberately small: the 18 ops training calls --
matmul, add/sub/mul/div, exp/log/sqrt, GELU, sum/mean, concat/getitem/
reshape, `swap_last` (the last two axes swapped), `neighbour_linear` (a row
and its clamped neighbours through one linear map), `softmax`, in closed
form: exp(x - max) / sum, with the gradient t - out * sum(t), t = g * out,
and `mse`, one node for mean((a - b)^2). The logsumexp/l2-normalize
composites are built on top.

GELU is the tanh form of Hendrycks & Gimpel (2016), the one BERT and GPT-2
use: x * s with the gate s = 0.5 * (1 + tanh(u)), u = x * (k + kc * x * x),
k = sqrt(2 / pi), kc = 0.044715 k. It stays within 4.7e-4 of the erf form
on [-8, 8] and needs nothing but numpy. The gate reads x clipped to +-10:
tanh(u) is exactly +-1 from |x| = 7.19 on, so the clip moves no bit where
the plain form is finite, and it keeps x * x and u finite up to the
largest float. While recording, the forward also builds the slope
s + 2 s (1 - s) x (k + 3 kc x^2) and the rule keeps only that array, so
the VJP is one multiply. Every pass runs in place, in the operation order
of the plain expressions. The tracked forward runs its 17 passes over
blocks of `_BLOCK` entries of x flattened in C order, with block-sized
temporaries, so each block stays in cache through all of them; only the
output and the slope are as large as x. The untracked forward (9 passes)
stays on whole arrays: blocked, it read evaluation and sampling 1-9%
slower in the benchmark, though it timed as fast alone.

When the right operand of `matmul` is a 2-d weight, each of its gradients
is one gemm over the batch rows folded into one axis, not one product per
batch slice: the weight gradient is never held as a (B, k, n) stack.

Under `no_grad` a primitive runs only its numpy forward and its finite
check: its output is untracked, with no node, so it is a constant wherever
it is used later, also in a tracked graph. Recording is a per-thread flag,
so `no_grad` in one thread leaves every other thread's recording as it was.
"""

from __future__ import annotations

import itertools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_UID = itertools.count()
_FAULT_OP = None  # set via inject_backward_fault(), test instrumentation only

_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_KC = 0.044715 * _GELU_K
_GELU_CLIP = 10.0  # past |x| = 7.19 the gate is exactly 0 or 1
_BLOCK = 16384  # entries per block of the tracked GELU: 128 KiB a buffer


class NumericError(RuntimeError):
    """An operation produced non-finite values or violated its contract."""


def _check_finite(data, op):
    # a finite sum proves every entry finite; a non-finite one may be overflow
    # of finite entries (callers hold np.errstate, or numpy would warn), so
    # only then is the elementwise test run. The ufunc reduce is np.sum
    # without its Python-level dispatch, which runs per op.
    if not math.isfinite(np.add.reduce(data, axis=None)) and not np.isfinite(data).all():
        raise NumericError(f"non-finite values produced by op '{op}'")


class _Recording(threading.local):
    """Whether ops record nodes, per thread: a thread starts out recording,
    and one thread's `no_grad` neither sets nor restores another's flag."""

    enabled = True


_RECORDING = _Recording()


@contextmanager
def no_grad():
    """Disable tape recording in this thread; forward values only. numpy's
    float warnings are off inside, once for the block: each op's output is
    checked instead."""
    prev = _RECORDING.enabled
    _RECORDING.enabled = False
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _RECORDING.enabled = prev


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


class _Node:
    """One tape entry: op name, parents' nodes (None for a constant operand),
    VJP and creation counter. A leaf (a parameter) has no parents and no VJP."""

    __slots__ = ("_op", "_parents", "_vjp", "_uid", "__weakref__")

    def __init__(self, op, parents, vjp):
        self._op = op
        self._parents = parents
        self._vjp = vjp
        self._uid = next(_UID)


class Tensor:
    """N-d float64 array plus its graph node: a leaf node for a parameter,
    the op's node for a tracked op output, None for a constant."""

    __slots__ = ("data", "_node", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node("leaf", (), None) if requires_grad else None

    @property
    def requires_grad(self):
        """A parameter: the tensor has a leaf node."""
        return self._node is not None and self._node._vjp is None

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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._node and self._node._op!r})"

    # identity-based hashing: tensors are graph nodes, not values
    __hash__ = object.__hash__

    # numpy defers to the reflected operators below, so `ndarray op Tensor`
    # runs the op (and its finite check) instead of building an object array
    __array_ufunc__ = None

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

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    @property
    def mT(self):
        return swap_last(self)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _arr(x):
    """An operand's array for an untracked forward; wraps nothing."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _grad_shape(t):
    """t's shape if t needs a gradient (it has a node: a parameter or a
    tracked op output), else None; VJPs keep this, never t."""
    return t.data.shape if t._node is not None else None


def _untracked(data, op):
    """An op's output while recording is off: checked (quietly, as no_grad
    holds errstate), with no node. Float64 operands give a float64
    result, so the constructor's dtype conversion is skipped."""
    _check_finite(data, op)
    out = object.__new__(Tensor)
    out.data = np.asarray(data)
    out._node = None
    return out


@np.errstate(all="ignore")  # for the check: 0.9 us a call, 2 us as a `with`
def _from_op(data, parents, vjp, op):
    _check_finite(data, op)
    out = Tensor(data)
    nodes = tuple(p._node for p in parents)
    if any(nodes):  # a _Node is always true
        out._node = _Node(op, nodes, vjp)
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


@np.errstate(all="ignore")
def _quiet(f, *args):
    """f(*args) without numpy's float warnings: a non-finite result is the
    finite check's to report, as an error."""
    return f(*args)


@np.errstate(all="ignore")
def _checked(op, f, *args):
    """f(*args) without numpy's float warnings, refused as `op` unless finite."""
    out = f(*args)
    _check_finite(out, op)
    return out


# -- elementwise primitives ------------------------------------------------
#
# Every primitive opens with the same test: with recording off it runs only
# its numpy forward and returns `_untracked`; otherwise it wraps its operands
# and records the VJP closure through `_from_op`.

def add(a, b):
    if not _RECORDING.enabled:
        return _untracked(_arr(a) + _arr(b), "add")
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = _grad_shape(a), _grad_shape(b)
    return _from_op(
        a.data + b.data, (a, b),
        lambda g: (None if sa is None else _unbroadcast(g, sa),
                   None if sb is None else _unbroadcast(g, sb)),
        "add")


def sub(a, b):
    if not _RECORDING.enabled:
        return _untracked(_arr(a) - _arr(b), "sub")
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = _grad_shape(a), _grad_shape(b)
    return _from_op(
        a.data - b.data, (a, b),
        lambda g: (None if sa is None else _unbroadcast(g, sa),
                   None if sb is None else _unbroadcast(-g, sb)),
        "sub")


def mul(a, b):
    if not _RECORDING.enabled:
        return _untracked(_arr(a) * _arr(b), "mul")
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = _grad_shape(a), _grad_shape(b)
    x = None if sb is None else a.data  # each operand only for the other's gradient
    y = None if sa is None else b.data
    return _from_op(
        a.data * b.data, (a, b),
        lambda g: (None if sa is None else _unbroadcast(g * y, sa),
                   None if sb is None else _unbroadcast(g * x, sb)),
        "mul")


def div(a, b):
    if not _RECORDING.enabled:
        return _untracked(_arr(a) / _arr(b), "div")
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = _grad_shape(a), _grad_shape(b)
    x, y = (None if sb is None else a.data), b.data  # x only for b's gradient
    return _from_op(
        _quiet(np.divide, a.data, b.data), (a, b),
        lambda g: (None if sa is None else
                   _checked("div backward", lambda: _unbroadcast(g / y, sa)),
                   None if sb is None else
                   _checked("div backward", lambda: _unbroadcast(  # y * y underflows to 0
                       -g * x / (y * y), sb))),
        "div")


def exp(a):
    if not _RECORDING.enabled:
        return _untracked(np.exp(_arr(a)), "exp")
    a = as_tensor(a)
    out = _quiet(np.exp, a.data)
    return _from_op(out, (a,), lambda g: (g * out,), "exp")


def log(a):
    if not _RECORDING.enabled:
        return _untracked(np.log(_arr(a)), "log")
    a = as_tensor(a)
    x = a.data
    return _from_op(_quiet(np.log, x), (a,),  # 1 / x overflows at subnormal x
                    lambda g: (_checked("log backward", np.divide, g, x),), "log")


def sqrt(a):
    if not _RECORDING.enabled:
        return _untracked(np.sqrt(_arr(a)), "sqrt")
    a = as_tensor(a)
    out = _quiet(np.sqrt, a.data)
    return _from_op(out, (a,),  # infinite slope at x = 0
                    lambda g: (_checked("sqrt backward", lambda: g * 0.5 / out),), "sqrt")


def _gelu_gate(x, s, a):
    """Write x clipped to +-_GELU_CLIP into a, then the gate
    0.5 * (1 + tanh(a * (k + kc * a * a))) into s, each pass in place in the
    caller's buffers, shaped like x (a 0-d x still gets arrays, which numpy
    can write into)."""
    np.clip(x, -_GELU_CLIP, _GELU_CLIP, out=a)
    np.multiply(a, a, out=s)
    s *= _GELU_KC
    s += _GELU_K
    s *= a
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5


def gelu(a):
    """GELU in its tanh form, x * s; see the module docstring."""
    if not _RECORDING.enabled:
        x = _arr(a)
        s = np.empty_like(x)
        _gelu_gate(x, s, np.empty_like(x))
        s *= x
        return _untracked(s, "gelu")
    a = as_tensor(a)
    x = a.data.ravel()  # C order: one copy only if a is not C-contiguous
    out, slope = np.empty(x.size), np.empty(x.size)
    s, w = np.empty(min(x.size, _BLOCK)), np.empty(min(x.size, _BLOCK))
    with np.errstate(all="ignore"):  # -inf * 0 is the finite check's to report
        for i in range(0, x.size, _BLOCK):
            xb, cb = x[i:i + _BLOCK], slope[i:i + _BLOCK]
            sb, wb = s[:xb.size], w[:xb.size]
            _gelu_gate(xb, sb, cb)
            np.multiply(xb, sb, out=out[i:i + _BLOCK])
            # the slope s + (2k + 6kc c^2) * ((1 - s) s c), c the clipped x
            # that `cb` holds until it is squared: 2k + 6kc c^2 has the bits
            # of twice k + 3kc c^2 in one pass fewer, and in the tails
            # (1 - s) s is exactly 0
            np.subtract(1.0, sb, out=wb)
            wb *= sb
            wb *= cb
            cb *= cb
            cb *= 6.0 * _GELU_KC
            cb += 2.0 * _GELU_K
            cb *= wb
            cb += sb
    slope = slope.reshape(a.data.shape)
    return _from_op(out.reshape(a.data.shape), (a,), lambda g: (g * slope,), "gelu")


# -- matmul and shape ops ----------------------------------------------------

def _matmul(x, y):
    if x.ndim < 2 or y.ndim < 2:
        raise NumericError("matmul requires operands with ndim >= 2")
    return x @ y


def matmul(a, b):
    """a @ b; a 2-d `b` takes both gradients over a's folded batch rows."""
    if not _RECORDING.enabled:
        return _untracked(_matmul(_arr(a), _arr(b)), "matmul")
    a, b = as_tensor(a), as_tensor(b)
    out = _matmul(a.data, b.data)
    sa, sb, folded = _grad_shape(a), _grad_shape(b), b.data.ndim == 2
    x = None if sb is None else a.data  # each operand only for the other's gradient
    y = None if sa is None else b.data

    def vjp(g):
        if folded:  # (..., k) @ (k, n): one gemm per gradient
            g2 = g.reshape(-1, g.shape[-1])
            ga = None if sa is None else (g2 @ y.T).reshape(sa)
            gb = None if sb is None else x.reshape(-1, sb[0]).T @ g2
            return (ga, gb)
        ga = None if sa is None else _unbroadcast(g @ np.swapaxes(y, -1, -2), sa)
        gb = None if sb is None else _unbroadcast(np.swapaxes(x, -1, -2) @ g, sb)
        return (ga, gb)

    return _from_op(out, (a, b), vjp, "matmul")


def reshape(a, shape):
    if not _RECORDING.enabled:
        return _untracked(_arr(a).reshape(shape), "reshape")
    a = as_tensor(a)
    s = a.data.shape
    return _from_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(s),), "reshape")


def swap_last(a):
    if not _RECORDING.enabled:
        return _untracked(np.swapaxes(_arr(a), -1, -2), "swap_last")
    a = as_tensor(a)
    return _from_op(
        np.swapaxes(a.data, -1, -2), (a,),
        lambda g: (np.swapaxes(g, -1, -2),), "swap_last")


def _neighbour_context(x):
    """(..., L, d) -> (..., L, 3d): rows clip(i - 1), i, clip(i + 1) side by side."""
    d = x.shape[-1]
    ctx = np.empty(x.shape[:-1] + (3 * d,))
    ctx[..., d:2 * d] = x
    ctx[..., 1:, :d], ctx[..., :1, :d] = x[..., :-1, :], x[..., :1, :]
    ctx[..., :-1, 2 * d:], ctx[..., -1:, 2 * d:] = x[..., 1:, :], x[..., -1:, :]
    return ctx


def neighbour_linear(h, w, b):
    """concat([h[clip(i - 1)], h[i], h[clip(i + 1)]]) @ w + b along axis -2
    as one primitive, with the bits of that composite. The context is not
    kept for backward: w's gradient rebuilds it from h."""
    x, wd, bd = _arr(h), _arr(w), _arr(b)
    if x.ndim < 2 or bd.ndim != 1 or wd.shape != (3 * x.shape[-1],) + bd.shape:
        raise NumericError(f"neighbour_linear needs h (..., L, d), w (3d, n) and "
                           f"b (n,), got {x.shape}, {wd.shape} and {bd.shape}")
    with np.errstate(all="ignore"):  # the finite check reports an overflow
        out = _neighbour_context(x) @ wd
        out += bd
    if not _RECORDING.enabled:
        return _untracked(out, "neighbour_linear")
    h, w, b = as_tensor(h), as_tensor(w), as_tensor(b)
    d, n = wd.shape[0] // 3, wd.shape[1]
    sh, sw, sb = _grad_shape(h), _grad_shape(w), _grad_shape(b)
    wk = None if sh is None else wd  # w only for h's gradient, h only for w's
    xk = None if sw is None else x

    def vjp(g):
        g2 = g.reshape(-1, n)
        gh = None
        if sh is not None:  # summed as the composite did: centre, next, previous
            gc = (g2 @ wk.T).reshape(sh[:-1] + (3 * d,))
            prev, gh, nxt = gc[..., :d], gc[..., d:2 * d].copy(), gc[..., 2 * d:]
            # both reads of an edge row add as one term; at L = 1 row 0 is both edges
            gh[..., 1:-1, :] += nxt[..., :-2, :]
            gh[..., -1, :] += nxt[..., -2:, :].sum(axis=-2)
            gh[..., 1:-1, :] += prev[..., 2:, :]
            gh[..., 0, :] += prev[..., :2, :].sum(axis=-2)
            del gc, prev, nxt  # freed before w's gradient rebuilds the context
        gw = None if xk is None else _neighbour_context(xk).reshape(-1, 3 * d).T @ g2
        return (gh, gw, None if sb is None else _unbroadcast(g, sb))

    return _from_op(out, (h, w, b), vjp, "neighbour_linear")


def _concat(datas, axis):
    if not datas:
        raise NumericError("concat of zero tensors")
    return np.concatenate(datas, axis=axis)


def concat(tensors, axis=-1):
    if not _RECORDING.enabled:
        return _untracked(_concat([_arr(t) for t in tensors], axis), "concat")
    tensors = [as_tensor(t) for t in tensors]
    datas = [t.data for t in tensors]
    out = _concat(datas, axis)
    sizes = [d.shape[axis] for d in datas]  # read once concatenate accepted them

    def vjp(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _from_op(out, tensors, vjp, "concat")


def getitem(a, key):
    if not _RECORDING.enabled:
        return _untracked(_arr(a)[key], "getitem")
    a = as_tensor(a)
    s = a.data.shape

    def vjp(g):
        full = np.zeros(s)
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
    if not _RECORDING.enabled:
        return _untracked(np.sum(_arr(a), axis=axis, keepdims=keepdims), "sum")
    a = as_tensor(a)
    s = a.data.shape
    return _from_op(
        _quiet(np.sum, a.data, axis, None, None, keepdims), (a,),
        lambda g: (_expand_reduced(g, s, axis, keepdims).copy(),),
        "sum")


def mean(a, axis=None, keepdims=False):
    x = _arr(a)
    if x.size == 0:  # refused before numpy warns "Mean of empty slice"
        raise NumericError("op 'mean' needs a non-empty operand")
    if not _RECORDING.enabled:
        return _untracked(np.mean(x, axis=axis, keepdims=keepdims), "mean")
    a = as_tensor(a)
    out = np.mean(a.data, axis=axis, keepdims=keepdims)
    s, count = a.data.shape, a.data.size // out.size

    def vjp(g):
        return (_expand_reduced(g, s, axis, keepdims) / count,)

    return _from_op(out, (a,), vjp, "mean")


# -- softmax -------------------------------------------------------------------

def _softmax(x, axis):
    """exp(x - max) / sum in closed form; no log of the sum is added back to
    a large max, where it would round away. Only the output is checked: a
    finite x whose range overflows float64 makes x - max infinite, yet exp
    takes it to 0 and the output is right."""
    with np.errstate(all="ignore"):
        e = np.exp(x - np.max(x, axis=axis, keepdims=True))
        return e / np.sum(e, axis=axis, keepdims=True)


def softmax(a, axis=-1):
    """Softmax along `axis` as one primitive, in closed form both ways."""
    if not _RECORDING.enabled:
        return _untracked(_softmax(_arr(a), axis), "softmax")
    a = as_tensor(a)
    out = _softmax(a.data, axis)

    def vjp(g):
        t = g * out
        np.subtract(t, out * np.sum(t, axis=axis, keepdims=True), out=t)
        return (t,)

    return _from_op(out, (a,), vjp, "softmax")


# -- mean squared error ---------------------------------------------------------

def _mse(x, y):
    """d = x - y and mean(d * d). Only the output is checked: squares cannot
    cancel, so a non-finite d or d * d leaves a non-finite mean."""
    d = x - y
    if d.size == 0:
        raise NumericError("op 'mse' needs non-empty operands")
    return d, np.mean(d * d)


def mse(a, b):
    """mean((a - b)^2) over every entry of the broadcast difference, as one
    primitive; the gradient is 2 (g / n) d, built as t + t, t = d * (g / n)."""
    if not _RECORDING.enabled:
        return _untracked(_mse(_arr(a), _arr(b))[1], "mse")
    a, b = as_tensor(a), as_tensor(b)
    d, out = _mse(a.data, b.data)
    sa, sb = _grad_shape(a), _grad_shape(b)

    def vjp(g):
        t = d * (g / d.size)
        t += t
        return (None if sa is None else _unbroadcast(t, sa),
                None if sb is None else _unbroadcast(-t, sb))

    return _from_op(out, (a, b), vjp, "mse")


# -- stabilized composites -----------------------------------------------------

def logsumexp(a, axis=-1, keepdims=False):
    """log(sum(exp(x))) with the max subtracted as a constant for stability."""
    a = as_tensor(a)
    m = Tensor(np.max(a.data, axis=axis, keepdims=True))
    lse = log(sum_(exp(a - m), axis=axis, keepdims=True)) + m
    if keepdims:
        return lse
    return reshape(lse, np.squeeze(m.data, axis=axis).shape)


def l2_normalize(a, axis=-1):
    a = as_tensor(a)
    return a / sqrt(sum_(a * a, axis=axis, keepdims=True))


# -- tape view ----------------------------------------------------------------

def _spent(g):
    """The VJP of every node a backward sweep has passed: the node's own
    rule, with the arrays it closed over, is freed as the sweep moves on."""
    raise NumericError("backward through a graph that was already swept")


@dataclass
class Tape:
    """Topologically ordered record of the nodes reachable from one output.

    A node holds its op name, parents' nodes and VJP, never an op output;
    its VJP closes only over the arrays its rule reads. Constants have no
    node. Creation order is a topological order by construction (an op's
    parents always exist before the op runs), so nodes are sorted by uid.
    The record is swept once: `replay_backward` spends every node it runs.
    """

    nodes: list

    @classmethod
    def from_output(cls, out):
        seen = set()
        nodes = []
        stack = [out._node]
        while stack:
            n = stack.pop()
            if n is None or id(n) in seen:
                continue
            seen.add(id(n))
            nodes.append(n)
            stack.extend(n._parents)
        nodes.sort(key=lambda n: n._uid)
        return cls(nodes)

    def replay_backward(self, out, seed_grad):
        """The one reverse sweep of this graph; visits every recorded node
        exactly once.

        Each node's VJP is swapped for `_spent` just before it runs, so the
        rule and the arrays it closed over are freed as the sweep passes the
        node, not when the graph dies. Replaying a graph whose nodes are
        spent, or any graph through one of them, raises `NumericError`
        naming the op; a leaf (VJP None) is never spent.

        Gradients are keyed by node id (`id(t._node)`); constants have no
        node, so no entry. Each VJP reads only the arrays it closed over. A
        first gradient is kept uncopied if the VJP allocated it or it is
        C-contiguous; other views are copied, as their layout would move
        BLAS rounding. A second one allocates `acc + pg` in acc's layout and
        later ones add into it in place, so entries may be shared views.
        """
        grads = {id(out._node): np.asarray(seed_grad, dtype=np.float64)}
        summed = set()  # ids whose entry was allocated here, safe to add into
        for n in reversed(self.nodes):
            vjp = n._vjp
            if vjp is None:
                continue  # leaf: keep its accumulated grad for the caller
            g = grads.pop(id(n), None)
            if g is None:
                continue
            if vjp is _spent:
                raise NumericError(f"op '{n._op}' backward: the graph was already "
                                   "swept, which freed this node's rule")
            n._vjp = _spent  # the rule and its arrays die once `vjp` is rebound
            parent_grads = vjp(g)
            if _FAULT_OP is not None and n._op == _FAULT_OP:
                parent_grads = tuple(
                    None if pg is None else -np.asarray(pg) for pg in parent_grads)
            for p, pg in zip(n._parents, parent_grads):
                if p is None or pg is None:  # concat slices g for constants too
                    continue
                # numpy 0-d results come back as scalars; out= keeps them arrays
                pg = np.asarray(pg, dtype=np.float64)
                acc = grads.get(id(p))
                if acc is None:
                    keep = pg.base is None or pg.flags.c_contiguous
                    grads[id(p)] = pg if keep else pg.copy()
                elif id(p) in summed:
                    acc += pg
                else:
                    grads[id(p)] = np.add(acc, pg, out=np.empty_like(acc))
                    summed.add(id(p))
        return grads


def grad(loss, params):
    """Reverse-mode gradients of a scalar loss w.r.t. `params`.

    Params that never touched the tape, and tensors without requires_grad,
    get zero gradients. The tape's nodes hold only what their VJPs read,
    and the sweep frees each node's VJP as it passes it, so a loss's graph
    takes one `grad`: a second call on it raises `NumericError`. Every
    returned array is writable and owns its memory: the replay's entries
    that are views are copied here.
    """
    loss = as_tensor(loss)
    if loss.data.size != 1:
        raise NumericError(
            f"grad() needs a scalar loss, got shape {loss.data.shape}")
    tape = Tape.from_output(loss)
    grads = tape.replay_backward(loss, np.ones_like(loss.data))
    out = {}
    for p in params:
        g = grads.get(id(p._node)) if p.requires_grad else None
        g = np.zeros_like(p.data) if g is None else g
        out[p] = Tensor(g if g.base is None else g.copy())
    return out


# -- parameter initialization ---------------------------------------------------

def uniform_init(rng, shape, fan_in):
    """Uniform in +-1/sqrt(fan_in); the default for all trainable maps."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def zeros_init(shape):
    return Tensor(np.zeros(shape), requires_grad=True)
