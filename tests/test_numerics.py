"""Autodiff engine: finite-difference agreement, tape semantics, Adam."""

import contextlib
import inspect
import itertools
import math
import operator
import re
import threading
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import erf

from cfmlab.cli import _gradcheck_suite, main
from cfmlab.numerics import (
    AdamState,
    NumericError,
    Tape,
    Tensor,
    adam_step,
    as_tensor,
    check_gradients,
    concat,
    exp,
    finite_difference_gradient,
    gelu,
    getitem,
    grad,
    inject_backward_fault,
    l2_normalize,
    log,
    logsumexp,
    matmul,
    max_rel_err,
    mean,
    mse,
    neighbour_linear,
    no_grad,
    reshape,
    softmax,
    sqrt,
    sum_,
    swap_last,
    uniform_init,
)
from cfmlab.numerics import tensor
from cfmlab.numerics.tensor import add, div, mul, sub


# ---------------------------------------------------------------- grad() basics

def test_grad_square():
    x = Tensor(3.0, requires_grad=True)
    g = grad(x * x, [x])
    assert float(g[x].data) == pytest.approx(6.0, abs=1e-12)


def test_grad_constant_is_zero():
    x = Tensor(2.5, requires_grad=True)
    loss = Tensor(7.0) * Tensor(3.0)  # x never participates
    g = grad(loss, [x])
    assert np.all(g[x].data == 0.0)


def test_grad_matmul_sum_matches_fd():
    rng = np.random.default_rng(42)
    a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

    def f():
        return sum_(matmul(a, b))

    g = grad(f(), [a, b])
    for p in (a, b):
        fd = finite_difference_gradient(lambda _t: f(), p, 1e-5)
        assert max_rel_err(g[p], fd) < 1e-6


def test_grad_rejects_non_scalar_loss():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(NumericError):
        grad(x * x, [x])


def test_grad_shared_subexpression_accumulates():
    x = Tensor(2.0, requires_grad=True)
    y = x * x
    loss = y + y + x
    g = grad(loss, [x])
    assert float(g[x].data) == pytest.approx(2 * (2 * 2.0) + 1.0, abs=1e-12)


def test_no_grad_blocks_recording():
    x = Tensor(3.0, requires_grad=True)
    with no_grad():
        y = x * x
    assert y._node is None
    g = grad(y + x, [x])
    assert float(g[x].data) == pytest.approx(1.0)


def test_no_grad_is_per_thread():
    # the main thread enters first and leaves first while the worker is still
    # inside: with one process-wide flag, the main thread's exit turned
    # recording back on in the worker, whose exit then left it off for good
    w = Tensor(np.ones(2), requires_grad=True)
    entered, main_left = threading.Event(), threading.Event()
    inside, fresh = [], []

    def worker():
        with no_grad():
            entered.set()
            main_left.wait(10)
            inside.append((w * w)._node)

    t = threading.Thread(target=worker)
    with no_grad():
        t.start()
        assert entered.wait(10)
    main_left.set()
    t.join(10)
    assert not t.is_alive() and inside == [None]
    assert (w * w)._node is not None
    t = threading.Thread(target=lambda: fresh.append((w * w)._node))
    t.start()
    t.join(10)
    assert not t.is_alive() and len(fresh) == 1 and fresh[0] is not None


# ------------------------------------------------- finite_difference_gradient

def test_fd_square():
    x = Tensor(3.0)
    fd = finite_difference_gradient(lambda t: t * t, x, 1e-5)
    assert float(fd.data) == pytest.approx(6.0, abs=1e-8)


def test_fd_linear_sum_is_ones():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    fd = finite_difference_gradient(lambda t: sum_(t), x, 1e-5)
    assert np.allclose(fd.data, 1.0, atol=1e-9)


def test_fd_rejects_bad_step():
    x = Tensor(1.0)
    with pytest.raises(NumericError):
        finite_difference_gradient(lambda t: t * t, x, 0.0)


def test_fd_rejects_non_finite_evaluation():
    x = Tensor(0.0)
    with pytest.raises(NumericError, match="non-finite evaluation"):
        finite_difference_gradient(lambda t: np.inf, x, 1e-5)


def test_fd_restores_input():
    x = Tensor(np.array([1.0, 2.0]))
    before = x.data.copy()
    finite_difference_gradient(lambda t: sum_(t * t), x, 1e-5)
    assert np.array_equal(x.data, before)


# --------------------------------------------------- per-op property test

def _positive(rng, shape):
    return rng.uniform(0.5, 2.0, size=shape)


def _nonzero(rng, shape):
    return rng.uniform(0.5, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)


# Each factory takes an rng and returns (f, x0); random constants are bound
# once as default args so repeated calls of f see identical values.
OP_CASES = {
    "add": lambda r: (lambda x, c=Tensor(r.standard_normal((3, 4))): sum_(x + c), r.standard_normal((3, 4))),
    "add_broadcast": lambda r: (lambda x, c=Tensor(r.standard_normal((2, 3, 4))), w=Tensor(r.standard_normal(4)): sum_((x + c) * w), r.standard_normal((3, 4))),
    "sub": lambda r: (lambda x: sum_(x * x - x * Tensor(2.0)), r.standard_normal((3, 4))),
    "mul": lambda r: (lambda x, c=Tensor(r.standard_normal((3, 4))): sum_(x * c * x), r.standard_normal((3, 4))),
    "div": lambda r: (lambda x, c=Tensor(r.standard_normal((3, 4))): sum_(c / x), _nonzero(r, (3, 4))),
    "div_num": lambda r: (lambda x, c=Tensor(_nonzero(r, (3, 4))): sum_(x / c), r.standard_normal((3, 4))),
    "exp": lambda r: (lambda x: sum_(exp(x)), r.standard_normal((3, 4))),
    "log": lambda r: (lambda x: sum_(log(x)), _positive(r, (3, 4))),
    "sqrt": lambda r: (lambda x: sum_(sqrt(x)), _positive(r, (3, 4))),
    "gelu": lambda r: (lambda x: sum_(gelu(x)), r.standard_normal((3, 4))),
    "matmul": lambda r: (lambda x, c=Tensor(r.standard_normal((4, 2))): sum_(matmul(x, c)), r.standard_normal((3, 4))),
    "matmul_batched": lambda r: (lambda x, c=Tensor(r.standard_normal((2, 3, 4))): sum_(matmul(c, x)), r.standard_normal((4, 2))),
    "matmul_4d_weight": lambda r: (lambda x, c=Tensor(r.standard_normal((2, 3, 4, 4))): sum_(matmul(x, x[1, 2]) * c), r.standard_normal((2, 3, 4, 4))),
    "matmul_strided_input": lambda r: (lambda x, c=Tensor(r.standard_normal((2, 4, 2))): sum_(matmul(swap_last(x), x[0, :, :2]) * c), r.standard_normal((2, 3, 4))),
    "reshape": lambda r: (lambda x, c=Tensor(r.standard_normal((4, 3))): sum_(reshape(x, (4, 3)) * c), r.standard_normal((3, 4))),
    "swap_last": lambda r: (lambda x, c=Tensor(r.standard_normal((2, 4, 3))): sum_(swap_last(x) * c), r.standard_normal((2, 3, 4))),
    "neighbour_linear": lambda r: (lambda x, w=Tensor(r.standard_normal((9, 2))), b=Tensor(r.standard_normal(2)), c=Tensor(r.standard_normal((2, 5, 2))): sum_(neighbour_linear(x, w, b) * c * neighbour_linear(x, w, b)), r.standard_normal((2, 5, 3))),
    "neighbour_linear_weight": lambda r: (lambda x, h=Tensor(r.standard_normal((4, 3))), b=Tensor(r.standard_normal(2)), c=Tensor(r.standard_normal((4, 2))): sum_(gelu(neighbour_linear(h, x, b)) * c), r.standard_normal((9, 2))),
    "neighbour_linear_bias": lambda r: (lambda x, h=Tensor(r.standard_normal((1, 3))), w=Tensor(r.standard_normal((9, 2))), c=Tensor(r.standard_normal((1, 2))): sum_(gelu(neighbour_linear(h, w, x)) * c), r.standard_normal(2)),
    "concat": lambda r: (lambda x, c=Tensor(r.standard_normal((3, 8))): sum_(concat([x, x * Tensor(2.0)], axis=1) * c), r.standard_normal((3, 4))),
    "getitem": lambda r: (lambda x: sum_(x[1:, :2] * x[:2, 2:]), r.standard_normal((3, 4))),
    "getitem_repeated": lambda r: (lambda x, c=Tensor(r.standard_normal((5, 4))): sum_(x[[0, 2, 0, 2, 2]] * c), r.standard_normal((3, 4))),
    "sum_axis": lambda r: (lambda x, c=Tensor(r.standard_normal(4)): sum_(sum_(x, axis=0) * c), r.standard_normal((3, 4))),
    "sum_keepdims": lambda r: (lambda x: sum_(x * sum_(x, axis=1, keepdims=True)), r.standard_normal((3, 4))),
    "mean_axis": lambda r: (lambda x, c=Tensor(r.standard_normal(3)): sum_(mean(x, axis=1) * c), r.standard_normal((3, 4))),
    "logsumexp": lambda r: (lambda x: sum_(logsumexp(x, axis=-1)), r.standard_normal((3, 4))),
    "logsumexp_tuple_axes": lambda r: (lambda x, c=Tensor(r.standard_normal(2)): sum_(logsumexp(x, axis=(1, 2)) * c), r.standard_normal((2, 3, 4))),
    "softmax": lambda r: (lambda x, c=Tensor(r.standard_normal((3, 4))): sum_(softmax(x, axis=-1) * c), r.standard_normal((3, 4))),
    "l2_normalize": lambda r: (lambda x, c=Tensor(r.standard_normal((3, 4))): sum_(l2_normalize(x, axis=-1) * c), r.standard_normal((3, 4))),
    "mse": lambda r: (lambda x, c=Tensor(r.standard_normal((3, 4))): mse(x, c), r.standard_normal((3, 4))),
    "mse_broadcast_a": lambda r: (lambda x, c=Tensor(r.standard_normal((2, 3, 4))): mse(x, c), r.standard_normal(4)),
    "mse_broadcast_b": lambda r: (lambda x, c=Tensor(r.standard_normal((2, 3, 4))): mse(c, x), r.standard_normal((3, 1))),
}


@pytest.mark.parametrize("op_name", sorted(OP_CASES))
def test_op_gradients_match_fd_over_seeds(op_name):
    make = OP_CASES[op_name]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f, init = make(rng)
        x = Tensor(init, requires_grad=True)
        g = grad(f(x), [x])
        fd = finite_difference_gradient(f, x, 1e-6)
        err = max_rel_err(g[x], fd)
        assert err < 1e-4, f"{op_name} seed {seed}: rel err {err:.3e}"


def test_softmax_stable_at_large_inputs():
    x = Tensor(np.array([[700.0, -700.0, 0.0]]), requires_grad=True)
    s = softmax(x, axis=-1)
    assert np.all(np.isfinite(s.data))
    g = grad(sum_(s * Tensor(np.array([[1.0, 2.0, 3.0]]))), [x])
    assert np.all(np.isfinite(g[x].data))


@pytest.mark.parametrize("big", [1e15, 1e17])
def test_softmax_of_a_tie_at_a_large_value_is_exact(big):
    x = Tensor(np.array([big, big]), requires_grad=True)
    s = softmax(x)
    assert s.data.tolist() == [0.5, 0.5]
    g = grad(sum_(s * Tensor(np.array([1.0, 2.0]))), [x])[x]
    assert g.data.tolist() == [-0.25, 0.25]
    with no_grad():
        assert softmax(x).data.tolist() == [0.5, 0.5]


def test_logsumexp_tuple_axes_value():
    x = np.random.default_rng(0).standard_normal((2, 3, 4))
    out = logsumexp(Tensor(x), axis=(1, 2))
    assert out.shape == (2,)
    np.testing.assert_allclose(out.data, np.log(np.exp(x).sum(axis=(1, 2))),
                               rtol=1e-13)
    assert logsumexp(Tensor(x), axis=(0, -1), keepdims=True).shape == (1, 3, 1)


# -------------------------------------------------------- neighbour_linear
#
# `neighbour_linear` replaced the composite concat([shift(h, -1), h,
# shift(h, +1)]) @ w + b; the `test_shift_*` cases check its clamped
# neighbour rows, the shift that now happens inside it.

def _shift_rows(t, step):
    """Row i along axis -2 becomes row clip(i + step): the `shift` op that
    `neighbour_linear` absorbed, rebuilt from getitem as its reference."""
    length = t.shape[-2]
    return t[..., np.clip(np.arange(length) + step, 0, length - 1), :]


def _composite_neighbour_linear(h, w, b):
    """The five-node composite `neighbour_linear` replaced, kept as its
    bitwise reference."""
    return matmul(concat([_shift_rows(h, -1), h, _shift_rows(h, +1)], axis=-1), w) + b


def _selector_shift(x, step):
    """The dense (L, L) selector matmul that `shift` replaced; kept here as
    the bitwise reference of one context block."""
    length = x.shape[-2]
    sel = np.zeros((length, length))
    rows = np.arange(length)
    sel[rows, np.clip(rows + step, 0, length - 1)] = 1.0
    return matmul(Tensor(sel), x)


SHIFT_SHAPES = [(1, 3), (2, 3), (5, 3), (2, 1, 3), (2, 2, 3), (2, 5, 3)]


@pytest.mark.parametrize("shape", SHIFT_SHAPES)
@pytest.mark.parametrize("step", [-1, 1])
def test_shift_gradients_match_fd(step, shape):
    # with the other neighbour's weights zero, h's gradient runs through
    # the centre rows and the one clamped edge on the `step` side
    rng = np.random.default_rng(len(shape) * 10 + shape[-2])
    d = shape[-1]
    w = rng.standard_normal((3 * d, 4))
    w[(2 * d if step < 0 else 0):][:d] = 0.0  # the other neighbour's block
    w = Tensor(w)
    b = Tensor(rng.standard_normal(4))
    c = Tensor(rng.standard_normal(shape[:-1] + (4,)))
    x = Tensor(rng.standard_normal(shape), requires_grad=True)

    def f(t):
        return sum_(gelu(neighbour_linear(t, w, b)) * c)

    g = grad(f(x), [x])
    assert max_rel_err(g[x], finite_difference_gradient(f, x, 1e-6)) < 1e-8


@pytest.mark.parametrize("shape", SHIFT_SHAPES + [(3, 64, 8)])
@pytest.mark.parametrize("step", [-1, 1])
def test_shift_bitwise_equals_selector_matmul(step, shape):
    # a weight that copies neighbour `step` into the output makes the op the
    # clamped row shift, both ways
    rng = np.random.default_rng(shape[-2])
    d = shape[-1]
    w = np.zeros((3 * d, d))
    w[(step + 1) * d:(step + 2) * d] = np.eye(d)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    c = Tensor(rng.standard_normal(shape))
    fast = neighbour_linear(x, Tensor(w), Tensor(np.zeros(d)))
    ref = _selector_shift(x, step)
    assert fast.data.tobytes() == ref.data.tobytes()
    g_fast = grad(sum_(fast * c), [x])[x].data
    g_ref = grad(sum_(ref * c), [x])[x].data
    assert g_fast.tobytes() == g_ref.tobytes()


def test_shift_rejects_vectors():
    with pytest.raises(NumericError, match="neighbour_linear"):
        neighbour_linear(Tensor(np.ones(3)), Tensor(np.ones((9, 2))), Tensor(np.ones(2)))


@pytest.mark.parametrize("shape", SHIFT_SHAPES + [(3, 64, 8), (4, 16, 32)])
def test_neighbour_linear_matches_composite_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    d, n = shape[-1], 5
    h, w, b = (Tensor(rng.standard_normal(s), requires_grad=True)
               for s in (shape, (3 * d, n), (n,)))
    c = Tensor(rng.standard_normal(shape[:-1] + (n,)))
    fast, ref = neighbour_linear(h, w, b), _composite_neighbour_linear(h, w, b)
    assert fast.data.tobytes() == ref.data.tobytes()
    assert len(Tape.from_output(fast).nodes) == 4  # h, w, b and the op
    g_fast = grad(sum_(gelu(fast) * c), [h, w, b])
    g_ref = grad(sum_(gelu(ref) * c), [h, w, b])
    # h's three parts add in the composite's order when h feeds nothing else
    for p in (h, w, b):
        assert g_fast[p].data.tobytes() == g_ref[p].data.tobytes()
    with no_grad():
        assert neighbour_linear(h, w, b).data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("shape", SHIFT_SHAPES)
def test_neighbour_linear_gradients_match_fd(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[-2])
    d, n = shape[-1], 4
    params = {name: Tensor(rng.standard_normal(s), requires_grad=True)
              for name, s in (("h", shape), ("w", (3 * d, n)), ("b", (n,)))}
    c = Tensor(rng.standard_normal(shape[:-1] + (n,)))

    def f():
        return sum_(gelu(neighbour_linear(params["h"], params["w"], params["b"])) * c)

    errs = check_gradients(f, params, h=1e-6)
    assert max(errs.values()) < 1e-8, errs


def test_neighbour_linear_constant_operands_get_no_gradient():
    rng = np.random.default_rng(3)
    h = Tensor(rng.standard_normal((2, 4, 3)))
    w = Tensor(rng.standard_normal((9, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2))
    out = neighbour_linear(h, w, b)
    gh, gw, gb = out._node._vjp(np.ones(out.shape))
    assert gh is None and gb is None and gw.shape == (9, 2)
    assert grad(sum_(out), [h])[h].data.tolist() == np.zeros((2, 4, 3)).tolist()
    assert neighbour_linear(h, Tensor(w.data), b)._node is None  # nothing to track


@pytest.mark.parametrize("w_shape, b_shape", [
    ((6, 2), (2,)), ((12, 2), (2,)), ((9,), (2,)), ((9, 2), (3,)), ((9, 2), (1, 2))])
def test_neighbour_linear_rejects_mismatched_weights(w_shape, b_shape):
    h = np.ones((2, 4, 3))
    for mode in (contextlib.nullcontext, no_grad):
        with mode(), pytest.raises(NumericError, match="w \\(3d, n\\)"):
            neighbour_linear(Tensor(h, requires_grad=True), Tensor(np.ones(w_shape)),
                             Tensor(np.ones(b_shape)))


# -------------------------------------------------------------- tape semantics

BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "matmul": matmul,
}


@pytest.mark.parametrize("op", sorted(BINARY_OPS))
def test_constant_operand_gets_no_gradient_entry(op):
    rng = np.random.default_rng(1)
    w = Tensor(rng.uniform(0.5, 1.5, (3, 3)), requires_grad=True)
    c = Tensor(rng.uniform(0.5, 1.5, (3, 3)))
    assert c._node is None
    for out in (BINARY_OPS[op](c, w), BINARY_OPS[op](w, c)):
        # the VJP returns None in the constant's place
        parent_grads = out._node._vjp(np.ones(out.shape))
        assert [pg is None for pg in parent_grads] == [p is None for p in out._node._parents]
        loss = sum_(out)
        grads = Tape.from_output(loss).replay_backward(loss, np.ones(()))
        assert list(grads) == [id(w._node)]


def test_grad_without_requires_grad_is_zero():
    rng = np.random.default_rng(2)
    w = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    c = Tensor(rng.standard_normal((2, 3)))
    # concat hands every input a gradient slice, constants included
    loss = sum_(concat([c, w], axis=0) * Tensor(rng.standard_normal((4, 3))))
    loss = loss + sum_(matmul(c, w.mT))
    g = grad(loss, [c, w])
    assert np.array_equal(g[c].data, np.zeros((2, 3)))
    assert np.any(g[w].data != 0.0)


def test_grads_are_writable_and_own_their_memory():
    rng = np.random.default_rng(3)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    r = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    s = Tensor(rng.standard_normal(()), requires_grad=True)
    # add hands a and b views of one array; concat hands them split views;
    # reshape hands a and r C-contiguous views (r's is its only gradient,
    # stored uncopied by the replay); the scalar arrives as a 0-d sum
    loss = (sum_(a + b) + sum_(concat([a, b], axis=-1) * Tensor(np.ones((3, 8))))
            + sum_(reshape(a, (12,))) + sum_(reshape(r, (12,))) + s * s)
    g = grad(loss, [a, b, r, s])
    for p in (a, b, r, s):
        assert g[p].data.flags.writeable and g[p].data.base is None
    g[a].data += 1.0
    assert np.array_equal(g[b].data, np.full((3, 4), 2.0))
    assert np.array_equal(g[a].data, np.full((3, 4), 4.0))
    assert float(g[s].data) == 2.0 * float(s.data)


def test_concat_split_views_accumulate_exact_sum():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    c = rng.standard_normal((3, 12))
    g = grad(sum_(concat([x, x, x], axis=-1) * Tensor(c)), [x])[x].data
    assert g.tobytes() == ((c[:, :4] + c[:, 4:8]) + c[:, 8:]).tobytes()
    # a single split view is copied: its layout would move BLAS rounding
    out = sum_(concat([x, Tensor(np.ones((3, 1)))], axis=-1) * Tensor(c[:, :5]))
    grads = Tape.from_output(out).replay_backward(out, np.ones(()))
    assert grads[id(x._node)].flags.c_contiguous


def test_shared_gradient_views_are_not_added_into():
    rng = np.random.default_rng(5)
    z = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    c2, c3 = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    # add gives z and w views of the same array first; each then gets a
    # second term, which must not land in the other's gradient
    loss = sum_(z * Tensor(c2)) + sum_(w * Tensor(c3)) + sum_(z + w)
    g = grad(loss, [z, w])
    assert np.array_equal(g[z].data, c2 + 1.0)
    assert np.array_equal(g[w].data, c3 + 1.0)



def test_tape_replay_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(123)
        w = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
        x = Tensor(rng.standard_normal((7, 5)))
        loss = mse(gelu(matmul(x, w)), Tensor(np.ones((7, 5))))
        return grad(loss, [w])[w].data.tobytes()

    assert run() == run()


def test_a_graph_is_swept_once():
    rng = np.random.default_rng(7)
    x, c = rng.standard_normal((4, 3)), rng.standard_normal((4, 5))
    w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    p = softmax(matmul(Tensor(x), w))
    loss = sum_(p * Tensor(c))
    g = grad(loss, [w])[w].data
    # the first sweep keeps the plain expressions' bits
    s = p.data
    t = np.ones((4, 5)) * c * s
    assert g.tobytes() == (x.T @ (t - s * np.sum(t, axis=-1, keepdims=True))).tobytes()
    with pytest.raises(NumericError, match="op 'sum' backward: the graph was already swept"):
        grad(loss, [w])
    again = sum_(p)  # a fresh node over a spent one
    with pytest.raises(NumericError, match="op 'softmax' backward"):
        Tape.from_output(again).replay_backward(again, np.ones(()))


def test_sweep_frees_each_rule_as_it_passes():
    rng = np.random.default_rng(8)
    w1 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w2 = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    first = matmul(Tensor(rng.standard_normal((5, 3))), w1)
    out = gelu(matmul(gelu(first), w2))
    vjp = out._node._vjp
    cdf = weakref.ref(dict(zip(vjp.__code__.co_freevars, vjp.__closure__))["cdf"].cell_contents)
    del vjp
    real, seen = first._node._vjp, []

    def look(g):  # the last rule the sweep runs before the leaves
        seen.append(cdf() is None)
        return real(g)

    first._node._vjp = look
    assert cdf() is not None
    grad(sum_(out), [w1, w2])
    assert seen == [True]


def test_finite_check_raises_on_nan():
    with pytest.raises(NumericError):
        log(Tensor(-1.0))


def test_finite_check_raises_on_inf():
    with pytest.raises(NumericError):
        Tensor(1.0) / Tensor(0.0)


def test_getitem_repeated_indices_accumulate():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    g = grad(sum_(x[[0, 0, 1]]), [x])
    assert np.array_equal(g[x].data, [2.0, 1.0, 0.0])


def test_finite_check_allows_overflowing_sum_of_finite_values():
    y = Tensor(np.array([1e308, 1e308])) * Tensor(1.0)
    assert np.array_equal(y.data, [1e308, 1e308])
    with pytest.raises(NumericError):
        Tensor(np.array([1e308, 1e308, np.nan])) * Tensor(1.0)


@pytest.mark.parametrize("values", [[1.0, np.nan], [np.inf, 2.0], [3.0, -np.inf],
                                    [np.inf, -np.inf]])
def test_finite_check_rejects_each_non_finite_kind(values):
    # [inf, -inf] sums to nan, not to an infinity
    with pytest.raises(NumericError, match="'mul'"):
        Tensor(np.array(values)) * Tensor(1.0)


def test_finite_check_rejects_zero_dim_output():
    with pytest.raises(NumericError, match="'log'"):
        log(Tensor(0.0))
    with pytest.raises(NumericError, match="'sum'"):
        sum_(Tensor(np.array([1e308, 1e308])))


def test_untracked_finite_check_is_quiet_too():
    # untracked ops have no errstate of their own: the no_grad block holds it
    with no_grad():
        y = Tensor(np.array([1e308, 1e308])) * Tensor(1.0)
        with pytest.raises(NumericError, match="'mul'"):
            Tensor(np.array([np.inf, -np.inf])) * Tensor(1.0)
        with pytest.raises(NumericError, match="'sum'"):
            sum_(Tensor(np.array([1e308, 1e308])))
        with pytest.raises(NumericError, match="'div'"):
            Tensor(1.0) / Tensor(0.0)
    assert np.array_equal(y.data, [1e308, 1e308])


def test_matmul_rejects_vectors():
    with pytest.raises(NumericError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


@pytest.mark.parametrize("op, fn", [("sqrt", sqrt)])
def test_backward_at_a_domain_edge_raises_naming_the_op(op, fn):
    # the slope of sqrt at 0 is infinite; the forward there is finite
    x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
    y = sum_(fn(x))
    assert y.item() == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        with pytest.raises(NumericError, match=f"produced by op '{op} backward'"):
            grad(y, [x])


def _log_at_subnormal():
    x = Tensor(np.array([1e-320, 1.0]), requires_grad=True)
    return sum_(log(x)), [x]


def _div_by_tiny():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([1e-170, 1.0]), requires_grad=True)
    return sum_(a / b), [a, b]


@pytest.mark.parametrize("op, build", [("log", _log_at_subnormal), ("div", _div_by_tiny)])
def test_backward_overflow_raises_naming_the_op(op, build):
    # 1 / 1e-320 overflows, and 1e-170 ** 2 underflows to 0; the forwards
    # are finite, and the gradients used to come back as inf
    y, params = build()
    assert math.isfinite(y.item())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        with pytest.raises(NumericError, match=f"produced by op '{op} backward'"):
            grad(y, params)


def test_log_and_div_backward_keep_finite_gradients_bitwise():
    # the checked VJPs return the bits of the unchecked formulas
    rng = np.random.default_rng(31)
    x = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 2.0, (4,)), requires_grad=True)
    grads = grad(sum_(log(x) / b), [x, b])
    ones = np.ones((3, 4))
    assert grads[x].data.tobytes() == (ones / b.data / x.data).tobytes()
    assert grads[b].data.tobytes() == (-ones * np.log(x.data) / (b.data * b.data)).sum(
        axis=0).tobytes()


# ------------------------------------------------ matmul weight-gradient fold

def _per_slice_matmul_grads(a, b, g):
    """The matmul VJP before the fold, kept as the reference: one product
    per batch slice for each gradient, and the weight gradient summed from
    its stack of per-slice products."""
    ga = g @ np.swapaxes(b, -1, -2)
    ga = ga.sum(axis=tuple(range(ga.ndim - a.ndim))).reshape(a.shape)
    gb = np.swapaxes(a, -1, -2) @ g
    gb = gb.sum(axis=tuple(range(gb.ndim - b.ndim))).reshape(b.shape)
    return ga, gb


# (a's shape, b's shape, whether a is a swap_last view); a 2-d b is folded
FOLD_CASES = {
    "conv_block": ((128, 16, 192), (192, 64), False),
    "4d": ((2, 3, 5, 4), (4, 6), False),
    "strided": ((3, 7, 5), (7, 4), True),
    "2d": ((5, 4), (4, 3), False),
    "attention": ((2, 5, 4), (2, 4, 5), False),
    "2d_at_3d": ((5, 4), (2, 4, 3), False),
}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_matmul_gradients_match_the_per_slice_formula(case):
    a_shape, b_shape, strided = FOLD_CASES[case]
    rng = np.random.default_rng(len(a_shape) + sum(b_shape))
    a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
    b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
    lhs = swap_last(a) if strided else a
    out = matmul(lhs, b)
    c = rng.standard_normal(out.shape)
    g = grad(sum_(out * Tensor(c)), [a, b])
    ga, gb = _per_slice_matmul_grads(lhs.data, b.data, c)
    if strided:
        ga = np.swapaxes(ga, -1, -2)
    for got, ref in ((g[a].data, ga), (g[b].data, gb)):
        assert got.shape == ref.shape
        if len(b_shape) == 2:  # folded: the sum runs in another order
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        else:
            assert got.tobytes() == ref.tobytes()


def test_matmul_zero_row_batch_gives_zero_weight_gradient():
    a = Tensor(np.zeros((0, 4, 3)), requires_grad=True)
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    g = grad(sum_(matmul(a, w)), [a, w])
    assert g[w].shape == (3, 2) and not np.any(g[w].data)
    assert g[a].shape == (0, 4, 3)


# ------------------------------------------------- ndarray on the left of a Tensor

LEFT_ARRAY_OPS = {
    "add": (operator.add, add),
    "sub": (operator.sub, sub),
    "mul": (operator.mul, mul),
    "div": (operator.truediv, div),
    "matmul": (operator.matmul, matmul),
}


@pytest.mark.parametrize("name", sorted(LEFT_ARRAY_OPS))
def test_ndarray_on_the_left_runs_the_tensor_op(name):
    sugar, op = LEFT_ARRAY_OPS[name]
    rng = np.random.default_rng(3)
    arr = rng.uniform(0.5, 1.5, size=(2, 3, 3))
    x = Tensor(rng.uniform(0.5, 1.5, size=(3, 3)), requires_grad=True)
    out = sugar(arr, x)
    assert isinstance(out, Tensor)
    ref = op(arr, x)
    assert out.data.tobytes() == ref.data.tobytes()
    g = grad(sum_(out), [x])[x].data
    assert g.tobytes() == grad(sum_(ref), [x])[x].data.tobytes()
    assert np.any(g != 0.0)
    arr[0, 0, 0] = np.nan
    with pytest.raises(NumericError, match=f"produced by op '{name}'"):
        sugar(arr, x)


def test_fault_injection_is_detected():
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((2, 3)))

    def f():
        return sum_(gelu(matmul(x, w)))

    clean = check_gradients(f, {"w": w})
    assert clean["w"] < 1e-6
    with inject_backward_fault("matmul"):
        broken = check_gradients(f, {"w": w})
    assert broken["w"] > 1e-2


def test_fault_injection_detects_shift():
    # the neighbour shift is part of `neighbour_linear`'s one node
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((2, 4, 3)))
    w_ctx = Tensor(rng.standard_normal((9, 3)))
    b = Tensor(rng.standard_normal(3))
    c = Tensor(rng.standard_normal((2, 4, 3)))

    def f():
        return sum_(gelu(neighbour_linear(matmul(x, w), w_ctx, b)) * c)

    assert check_gradients(f, {"w": w})["w"] < 1e-6
    with inject_backward_fault("neighbour_linear"):
        assert check_gradients(f, {"w": w})["w"] > 1e-2


def test_fault_injection_detects_softmax():
    # softmax is one tape node, so a fault in its VJP is a fault of 'softmax'
    rng = np.random.default_rng(1)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((2, 4, 3)))
    c = Tensor(rng.standard_normal((2, 4, 3)))

    def f():
        return sum_(softmax(matmul(x, w)) * c)

    assert check_gradients(f, {"w": w})["w"] < 1e-6
    with inject_backward_fault("softmax"):
        assert check_gradients(f, {"w": w})["w"] > 1e-2


def test_cli_gradcheck_detects_injected_shift_fault(capsys):
    # both losses read neighbour context: the decoders and the velocity net
    assert main(["gradcheck", "--inject-fault", "neighbour_linear"]) == 3
    out = capsys.readouterr().out
    assert out.count("FAIL") == 2 and "PASS" not in out


@pytest.mark.parametrize("op", ["shift", "nosuchop", "leaf"])
def test_cli_gradcheck_refuses_a_fault_in_no_taped_op(op, capsys):
    # negating an op that no checked node carries would change nothing and pass
    assert main(["gradcheck", "--inject-fault", op]) == 2
    captured = capsys.readouterr()
    assert f"'{op}'" in captured.err and "passed" not in captured.out


def test_fault_injection_detects_mse():
    # mse is one tape node, so a fault in its VJP is a fault of 'mse'
    rng = np.random.default_rng(2)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((2, 4, 3)))
    c = Tensor(rng.standard_normal((2, 4, 3)))

    def f():
        return mse(gelu(matmul(x, w)), c)

    assert check_gradients(f, {"w": w})["w"] < 1e-6
    with inject_backward_fault("mse"):
        assert check_gradients(f, {"w": w})["w"] > 1e-2


def test_cli_gradcheck_detects_injected_mse_fault(capsys):
    assert main(["gradcheck", "--inject-fault", "mse"]) == 3
    assert "FAIL" in capsys.readouterr().out


# ------------------------------------------------------- untracked fast path

# Each case: (op name in errors, function, operand shapes). Operands are
# positive; the NaN test puts a NaN at the first and the last entry of the
# first operand, and every case keeps one of them.
PRIMITIVES = {
    "add": ("add", add, [(3, 4), (4,)]),
    "sub": ("sub", sub, [(3, 4), (3, 1)]),
    "mul": ("mul", mul, [(2, 3, 4), (3, 4)]),
    "div": ("div", div, [(3, 4), (3, 4)]),
    "exp": ("exp", exp, [(3, 4)]),
    "log": ("log", log, [(3, 4)]),
    "sqrt": ("sqrt", sqrt, [(3, 4)]),
    "gelu": ("gelu", gelu, [(3, 4)]),
    "matmul": ("matmul", matmul, [(2, 3, 4), (4, 5)]),
    "reshape": ("reshape", lambda x: reshape(x, (4, 3)), [(3, 4)]),
    "swap_last": ("swap_last", swap_last, [(2, 3, 4)]),
    "neighbour_linear": ("neighbour_linear", neighbour_linear, [(2, 5, 3), (9, 4), (4,)]),
    "neighbour_linear_2d": ("neighbour_linear", neighbour_linear, [(5, 3), (9, 4), (4,)]),
    "concat": ("concat", lambda x, y: concat([x, y, x], axis=-2), [(3, 4), (2, 4)]),
    "getitem": ("getitem", lambda x: getitem(x, [0, 2, 0]), [(3, 4)]),
    "sum": ("sum", lambda x: sum_(x, axis=1), [(3, 4)]),
    "sum_all": ("sum", sum_, [(3, 4)]),
    "mean": ("mean", lambda x: mean(x, axis=0, keepdims=True), [(3, 4)]),
    "softmax": ("softmax", softmax, [(2, 3, 4)]),
    "softmax_axis0": ("softmax", lambda x: softmax(x, axis=0), [(2, 3, 4)]),
    "mse": ("mse", mse, [(2, 3, 4), (4,)]),
}


def _operands(shapes, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.5, 1.5, size=s) for s in shapes]


@pytest.mark.parametrize("case", sorted(PRIMITIVES))
def test_untracked_output_matches_tracked_and_has_no_edges(case):
    _, fn, shapes = PRIMITIVES[case]
    arrays = _operands(shapes, len(case))
    tracked = fn(*[Tensor(a, requires_grad=True) for a in arrays])
    assert tracked._node._vjp is not None and not tracked.requires_grad
    with no_grad():
        for operands in ([Tensor(a, requires_grad=True) for a in arrays], arrays):
            fast = fn(*operands)
            assert fast.data.tobytes() == tracked.data.tobytes()
            assert fast.shape == tracked.shape and fast.data.dtype == np.float64
            assert fast._node is None and not fast.requires_grad


@pytest.mark.parametrize("case", sorted(PRIMITIVES))
def test_untracked_op_rejects_nan_naming_the_op(case):
    op, fn, shapes = PRIMITIVES[case]
    arrays = _operands(shapes, 0)
    arrays[0].flat[0] = arrays[0].flat[-1] = np.nan
    with no_grad():
        with pytest.raises(NumericError, match=f"non-finite values produced by op '{op}'"):
            fn(*[Tensor(a) for a in arrays])


def test_primitives_are_the_ops_on_the_gradcheck_tapes():
    # every primitive (an op with an untracked forward) is in the table above,
    # is called in training, and has a backward that `cfmlab gradcheck
    # --inject-fault` can break and catch
    defined = set(re.findall(r'_untracked\(.*, "(\w+)"\)', inspect.getsource(tensor)))
    taped = {t._op for _, f, _, _ in _gradcheck_suite()
             for t in Tape.from_output(f()).nodes if t._vjp is not None}
    assert {op for op, _, _ in PRIMITIVES.values()} == defined == taped


# ------------------------------------------------- what a graph node keeps

def _graph_objects_held(node):
    """The Tensors and nodes among the values a node's VJP closes over,
    looking into tuples and lists."""
    stack = [cell.cell_contents for cell in node._vjp.__closure__ or ()]
    held = []
    while stack:
        v = stack.pop()
        if isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, (Tensor, tensor._Node)):
            held.append(v)
    return held


@pytest.mark.parametrize("case", sorted(PRIMITIVES))
def test_primitive_vjp_closes_over_no_tensor_or_node(case):
    # each subset of operands needing a gradient gives the VJP another form
    _, fn, shapes = PRIMITIVES[case]
    arrays = _operands(shapes, len(case))
    for needs in itertools.product([False, True], repeat=len(arrays)):
        if any(needs):
            out = fn(*[Tensor(a, requires_grad=n) for a, n in zip(arrays, needs)])
            assert _graph_objects_held(out._node) == [], needs


@pytest.mark.parametrize("op_name", sorted(OP_CASES))
def test_op_case_vjps_close_over_no_tensor_or_node(op_name):
    f, init = OP_CASES[op_name](np.random.default_rng(0))
    nodes = Tape.from_output(f(Tensor(init, requires_grad=True))).nodes
    assert [n._op for n in nodes if n._vjp is not None and _graph_objects_held(n)] == []


def _mul_into_add(w, c):
    m = mul(w, c)
    return [m], sum_(add(m, c))


def _matmul_into_add(w, c):
    h = matmul(c, w)
    return [h], sum_(h + c)


def _scores_into_softmax(w, c):
    scores = matmul(c, w)
    scaled = scores * 0.5
    return [scores, scaled], sum_(softmax(scaled) * c)


def _gelu_into_residual(w, c):
    h = gelu(matmul(c, w))
    return [h], sum_((h + c) * c)


@pytest.mark.parametrize("build", [_mul_into_add, _matmul_into_add, _scores_into_softmax,
                                   _gelu_into_residual], ids=lambda f: f.__name__[1:])
def test_an_output_no_rule_reads_is_freed_while_its_graph_lives(build):
    rng = np.random.default_rng(8)
    w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    c = Tensor(rng.standard_normal((4, 4)))
    outputs, loss = build(w, c)
    refs = [weakref.ref(t.data) for t in outputs]
    del outputs
    assert [r() for r in refs] == [None] * len(refs)
    kept, ref_loss = build(w, c)  # the same graph with its outputs alive
    assert grad(loss, [w])[w].data.tobytes() == grad(ref_loss, [w])[w].data.tobytes()


@pytest.mark.parametrize("right_needs_grad", [True, False])
def test_matmul_keeps_its_left_operand_only_for_the_right_gradient(right_needs_grad):
    rng = np.random.default_rng(9)
    v = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    c = Tensor(rng.standard_normal((3, 4)))
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=right_needs_grad)
    left = v + c
    ref = weakref.ref(left.data)
    loss = sum_(matmul(left, w))
    del left
    assert (ref() is not None) == right_needs_grad
    g = grad(loss, [v, w])
    assert g[v].data.tobytes() == (np.ones((3, 2)) @ w.data.T).tobytes()
    if right_needs_grad:
        assert g[w].data.tobytes() == ((v.data + c.data).T @ np.ones((3, 2))).tobytes()


def _composite_softmax(a, axis=-1):
    """The softmax composite that the primitive replaced, kept as its
    reference to within 1e-14 relative."""
    return exp(as_tensor(a) - logsumexp(a, axis=axis, keepdims=True))


@pytest.mark.parametrize("shape, axis", [
    ((3, 4), -1), ((3, 4), 0), ((5,), 0), ((2, 3, 4), 1), ((2, 3, 4), (1, 2)),
    ((2, 1, 4), (1, 2)), ((2, 3, 1), -1), ((2, 16, 16), -1)])
def test_softmax_primitive_matches_composite_bitwise(shape, axis):
    rng = np.random.default_rng(sum(shape))
    x = Tensor(3.0 * rng.standard_normal(shape), requires_grad=True)
    c = Tensor(rng.standard_normal(shape))
    fast, ref = softmax(x, axis=axis), _composite_softmax(x, axis=axis)
    np.testing.assert_allclose(fast.data, ref.data, rtol=1e-14, atol=0.0)
    assert len(Tape.from_output(fast).nodes) == 2  # x and the softmax node
    g_fast = grad(sum_(fast * c), [x])[x].data
    g_ref = grad(sum_(ref * c), [x])[x].data
    # entries of t - out * sum(t) can cancel, so the gradient's tolerance is
    # relative to its largest entry
    assert np.max(np.abs(g_fast - g_ref)) <= 1e-14 * np.max(np.abs(g_ref))


def test_softmax_accepts_a_range_wider_than_float64():
    # x - max overflows to -inf here; the composite raised at 'sub', though
    # exp takes that entry to 0 and the softmax itself is exact
    x = np.array([[-1e308, 0.0, 1e308]])
    with pytest.raises(NumericError, match="'sub'"), np.errstate(over="ignore"):
        _composite_softmax(Tensor(x))
    xt = Tensor(x, requires_grad=True)
    s = softmax(xt)
    assert np.array_equal(s.data, [[0.0, 0.0, 1.0]])
    g = grad(sum_(s * Tensor(np.array([[1.0, 2.0, 3.0]]))), [xt])[xt].data
    assert np.all(np.isfinite(g))


def test_untracked_tensor_is_a_constant_in_a_tracked_graph():
    rng = np.random.default_rng(7)
    w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    k = Tensor(rng.standard_normal((2, 3, 4)))
    with no_grad():
        c = gelu(matmul(x, w)) + x
    assert c._node is None

    def loss(const):
        h = softmax(matmul(const, w) * 0.5) * k
        return sum_(h + gelu(w[0] * const))

    from_untracked = grad(loss(c), [w])[w].data
    from_array = grad(loss(c.data.copy()), [w])[w].data
    assert from_untracked.tobytes() == from_array.tobytes()
    assert np.any(from_untracked != 0.0)


# ------------------------------------------- gelu and mse against their old forms

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _old_gelu(x):
    """The gelu forward before it worked in one buffer: (output, cdf)."""
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * cdf, cdf


def _old_gelu_grad(x, g):
    """The gelu VJP before it worked in one buffer."""
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return g * (_old_gelu(x)[1] + x * pdf)


@pytest.mark.parametrize("shape, layout", [
    ((64, 128, 64), "plain"), ((3, 4), "plain"), ((), "plain"),
    ((5, 7), "transposed"), ((4, 6, 5), "broadcast_g")])
def test_gelu_matches_its_old_expression_bitwise(shape, layout):
    rng = np.random.default_rng(len(shape) + sum(shape))
    x = 3.0 * rng.standard_normal(shape)
    if layout == "transposed":  # a non-contiguous input
        x = x.T
    g = rng.standard_normal(x.shape)
    if layout == "broadcast_g":  # a read-only view with zero strides
        g = np.broadcast_to(rng.standard_normal(x.shape[-1]), x.shape)
    out = gelu(Tensor(x, requires_grad=True))
    ref = _old_gelu(x)[0]
    assert out.data.shape == ref.shape
    assert out.data.tobytes() == ref.tobytes()
    with no_grad():
        assert gelu(x).data.tobytes() == ref.tobytes()
    (gx,) = out._node._vjp(g)
    assert gx.shape == x.shape
    assert gx.tobytes() == np.asarray(_old_gelu_grad(x, g)).tobytes()


def _old_mse(a, b):
    """The mse composite before it was one primitive: sub, mul, mean."""
    d = sub(a, b)
    return mean(mul(d, d))


# name -> (a, b) factories; requires_grad operands get their gradient compared
MSE_CASES = {
    "equal_shapes": lambda r: (Tensor(r.standard_normal((6, 32, 24)), requires_grad=True),
                               Tensor(r.standard_normal((6, 32, 24)), requires_grad=True)),
    "broadcast_b": lambda r: (Tensor(r.standard_normal((2, 3, 4)), requires_grad=True),
                              Tensor(r.standard_normal(4), requires_grad=True)),
    "constant_b": lambda r: (Tensor(r.standard_normal((5, 8)), requires_grad=True),
                             Tensor(r.standard_normal((5, 8)))),
    "array_b": lambda r: (Tensor(r.standard_normal((5, 8)), requires_grad=True),
                          r.standard_normal((5, 8))),
    "scalars": lambda r: (Tensor(r.standard_normal(()), requires_grad=True),
                          Tensor(r.standard_normal(()), requires_grad=True)),
}


@pytest.mark.parametrize("case", sorted(MSE_CASES) + ["same_tensor", "shared_input"])
def test_mse_matches_the_composite_bitwise(case):
    rng = np.random.default_rng(len(case))
    if case == "same_tensor":
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        a, b = x, x
    elif case == "shared_input":  # a feeds a second consumer after the mse
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)))
    else:
        a, b = MSE_CASES[case](rng)

    def loss(fn):
        out = fn(a, b)
        return out + sum_(a * a) * 0.5 if case == "shared_input" else out

    params = [t for t in (a, b) if isinstance(t, Tensor) and t.requires_grad]
    new, old = loss(mse), loss(_old_mse)
    assert new.data.tobytes() == old.data.tobytes()
    with no_grad():
        assert mse(a, b).data.tobytes() == _old_mse(a, b).data.tobytes()
    g_new, g_old = grad(new, params), grad(old, params)
    for p in params:
        assert g_new[p].data.tobytes() == g_old[p].data.tobytes()
        assert g_new[p].shape == p.shape


def test_mse_is_one_tape_node():
    # the constant operand has no node
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    nodes = Tape.from_output(mse(a, Tensor(np.zeros(3)))).nodes
    assert [n._op for n in nodes] == ["leaf", "mse"]


@pytest.mark.parametrize("recording", [True, False])
def test_mse_of_empty_operands_raises_naming_mse(recording):
    a = Tensor(np.zeros((0, 3)), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="'mse'"):
            if recording:
                mse(a, np.zeros(3))
            else:
                with no_grad():
                    mse(a, np.zeros(3))


@pytest.mark.parametrize("recording", [True, False])
@pytest.mark.parametrize("axis", [None, 0])
def test_mean_of_empty_operand_raises_naming_mean(recording, axis):
    a = Tensor(np.zeros((0, 3)), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "Mean of empty slice" must not escape
        with pytest.raises(NumericError, match="'mean'"):
            if recording:
                mean(a, axis=axis)
            else:
                with no_grad():
                    mean(a, axis=axis)


# ------------------------------------------------------------------------ Adam

def test_adam_zero_grad_is_identity():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    before = p.data.copy()
    state = AdamState(lr=0.5)
    for _ in range(5):
        adam_step([p], {p: Tensor(np.zeros(3))}, state)
    assert np.array_equal(p.data, before)
    assert state.step == 5


def test_adam_first_step_magnitude_is_lr():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    g = np.array([2.0, -0.5, 1e-3])
    adam_step([p], {p: Tensor(g)}, AdamState(lr=1e-3))
    delta = p.data - np.array([1.0, -2.0, 3.0])
    assert np.allclose(np.abs(delta), 1e-3, rtol=1e-4)
    assert np.allclose(np.sign(delta), -np.sign(g))


def test_adam_converges_on_quadratic():
    p = Tensor(0.0, requires_grad=True)
    state = AdamState(lr=0.1)
    for _ in range(100):
        loss = (p - Tensor(5.0)) * (p - Tensor(5.0))
        adam_step([p], grad(loss, [p]), state)
    assert abs(float(p.data) - 5.0) < 0.5


def test_adam_rejects_shape_mismatch():
    p = Tensor(np.ones(3), requires_grad=True)
    state = AdamState()
    with pytest.raises(NumericError):
        adam_step([p], {p: Tensor(np.ones(4))}, state)


def test_adam_step_counter_increases():
    p = Tensor(np.ones(2), requires_grad=True)
    state = AdamState()
    for k in range(1, 4):
        adam_step([p], {p: Tensor(np.ones(2))}, state)
        assert state.step == k


def _assert_adam_rejects_before_any_update(bad_grad):
    # x's gradient is bad at entry 0; the step must leave everything as it was
    y = Tensor(np.array([2.0, -1.0, 0.5]), requires_grad=True)
    x = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    state = AdamState(lr=1e-2)
    adam_step([y, x], {y: Tensor(np.ones(3)), x: Tensor(np.zeros(2))}, state)
    snapshot = (y.data.copy(), x.data.copy(), state.step,
                {k: v.copy() for k, v in state.m.items()},
                {k: v.copy() for k, v in state.v.items()})
    g = {y: Tensor(2.0 * y.data), x: Tensor(np.array([bad_grad, 0.5]))}
    with pytest.raises(NumericError, match=r"parameter 1 of shape \(2,\)"):
        adam_step([y, x], g, state)
    assert np.array_equal(y.data, snapshot[0]) and np.array_equal(x.data, snapshot[1])
    assert state.step == snapshot[2]
    for now, before in ((state.m, snapshot[3]), (state.v, snapshot[4])):
        assert now.keys() == before.keys()
        assert all(np.array_equal(now[k], before[k]) for k in now)


def test_adam_rejects_non_finite_gradient_before_any_update():
    _assert_adam_rejects_before_any_update(np.inf)


def test_adam_rejects_a_gradient_whose_square_overflows():
    # 1e160 is finite but its square is not: v would become inf, and m / inf
    # = 0 would freeze that entry from then on without an error
    _assert_adam_rejects_before_any_update(1e160)


# ----------------------------------------------------------------------- misc

def test_uniform_init_bounds():
    rng = np.random.default_rng(9)
    w = uniform_init(rng, (100, 16), fan_in=16)
    assert w.requires_grad
    assert np.all(np.abs(w.data) <= 0.25)


def test_item_rejects_non_scalar():
    with pytest.raises(NumericError):
        Tensor(np.ones(2)).item()


def test_heap_setting_calls_mallopt_or_nothing(monkeypatch):
    import cfmlab.numerics as numerics

    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    libc = type("Libc", (), {})()
    libc.mallopt = mallopt
    monkeypatch.setattr(numerics.ctypes, "CDLL", lambda name: libc)
    numerics._keep_freed_pages()
    assert calls == [(-3, 32 << 20), (-1, 1 << 30)]  # mmap threshold, trim threshold
    monkeypatch.setattr(numerics.ctypes, "CDLL", lambda name: object())
    numerics._keep_freed_pages()  # no mallopt (not glibc): nothing set, no error
    assert len(calls) == 2
