"""Autodiff engine: finite-difference agreement, tape semantics, Adam."""

import math
import operator
import warnings

import numpy as np
import pytest
from scipy.special import erf

from cfmlab.cli import main
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
    finite_checks,
    finite_difference_gradient,
    gelu,
    getitem,
    grad,
    inject_backward_fault,
    l2_normalize,
    log,
    logsumexp,
    matmul,
    max_,
    max_rel_err,
    mean,
    mse,
    no_grad,
    reshape,
    shift,
    softmax,
    sqrt,
    sum_,
    swap_last,
    tanh,
    transpose,
    uniform_init,
)
from cfmlab.numerics.tensor import add, div, mul, neg, pow_scalar, sub


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
    assert y._vjp is None
    g = grad(y + x, [x])
    assert float(g[x].data) == pytest.approx(1.0)


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
    with pytest.raises(NumericError):
        with finite_checks(False):
            finite_difference_gradient(lambda t: log(t), x, 1e-5)


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
    "neg": lambda r: (lambda x: sum_(-x * x), r.standard_normal((3, 4))),
    "pow": lambda r: (lambda x: sum_(x ** 1.7), _positive(r, (3, 4))),
    "exp": lambda r: (lambda x: sum_(exp(x)), r.standard_normal((3, 4))),
    "log": lambda r: (lambda x: sum_(log(x)), _positive(r, (3, 4))),
    "sqrt": lambda r: (lambda x: sum_(sqrt(x)), _positive(r, (3, 4))),
    "tanh": lambda r: (lambda x: sum_(tanh(x)), r.standard_normal((3, 4))),
    "gelu": lambda r: (lambda x: sum_(gelu(x)), r.standard_normal((3, 4))),
    "matmul": lambda r: (lambda x, c=Tensor(r.standard_normal((4, 2))): sum_(matmul(x, c)), r.standard_normal((3, 4))),
    "matmul_batched": lambda r: (lambda x, c=Tensor(r.standard_normal((2, 3, 4))): sum_(matmul(c, x)), r.standard_normal((4, 2))),
    "matmul_4d_weight": lambda r: (lambda x, c=Tensor(r.standard_normal((2, 3, 4, 4))): sum_(matmul(x, x[1, 2]) * c), r.standard_normal((2, 3, 4, 4))),
    "matmul_strided_input": lambda r: (lambda x, c=Tensor(r.standard_normal((2, 4, 2))): sum_(matmul(swap_last(x), x[0, :, :2]) * c), r.standard_normal((2, 3, 4))),
    "reshape": lambda r: (lambda x, c=Tensor(r.standard_normal((4, 3))): sum_(reshape(x, (4, 3)) * c), r.standard_normal((3, 4))),
    "transpose": lambda r: (lambda x, c=Tensor(r.standard_normal((4, 3))): sum_(transpose(x, (1, 0)) * c), r.standard_normal((3, 4))),
    "transpose_negative_axes": lambda r: (lambda x, c=Tensor(r.standard_normal((2, 4, 3))): sum_(transpose(x, (0, -1, -2)) * c), r.standard_normal((2, 3, 4))),
    "swap_last": lambda r: (lambda x, c=Tensor(r.standard_normal((2, 4, 3))): sum_(swap_last(x) * c), r.standard_normal((2, 3, 4))),
    "concat": lambda r: (lambda x, c=Tensor(r.standard_normal((3, 8))): sum_(concat([x, x * Tensor(2.0)], axis=1) * c), r.standard_normal((3, 4))),
    "getitem": lambda r: (lambda x: sum_(x[1:, :2] * x[:2, 2:]), r.standard_normal((3, 4))),
    "getitem_repeated": lambda r: (lambda x, c=Tensor(r.standard_normal((5, 4))): sum_(x[[0, 2, 0, 2, 2]] * c), r.standard_normal((3, 4))),
    "sum_axis": lambda r: (lambda x, c=Tensor(r.standard_normal(4)): sum_(sum_(x, axis=0) * c), r.standard_normal((3, 4))),
    "sum_keepdims": lambda r: (lambda x: sum_(x * sum_(x, axis=1, keepdims=True)), r.standard_normal((3, 4))),
    "mean_axis": lambda r: (lambda x, c=Tensor(r.standard_normal(3)): sum_(mean(x, axis=1) * c), r.standard_normal((3, 4))),
    "max": lambda r: (lambda x: sum_(max_(x, axis=1)), r.standard_normal((3, 4))),
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


def test_transpose_rejects_bad_axes():
    with pytest.raises(np.exceptions.AxisError):
        transpose(Tensor(np.ones((2, 3))), (0, 2))


# ------------------------------------------------------------------- shift

def _selector_shift(x, step):
    """The dense (L, L) selector matmul that `shift` replaces; kept here as
    its bitwise reference."""
    length = x.shape[-2]
    sel = np.zeros((length, length))
    rows = np.arange(length)
    sel[rows, np.clip(rows + step, 0, length - 1)] = 1.0
    return matmul(Tensor(sel), x)


SHIFT_SHAPES = [(1, 3), (2, 3), (5, 3), (2, 1, 3), (2, 2, 3), (2, 5, 3)]


@pytest.mark.parametrize("shape", SHIFT_SHAPES)
@pytest.mark.parametrize("step", [-1, 1])
def test_shift_gradients_match_fd(step, shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[-2])
    c = Tensor(rng.standard_normal(shape))
    x = Tensor(rng.standard_normal(shape), requires_grad=True)

    def f(t):
        return sum_(tanh(shift(t, step)) * c)

    g = grad(f(x), [x])
    assert max_rel_err(g[x], finite_difference_gradient(f, x, 1e-6)) < 1e-8


@pytest.mark.parametrize("shape", SHIFT_SHAPES + [(3, 64, 8)])
@pytest.mark.parametrize("step", [-1, 1])
def test_shift_bitwise_equals_selector_matmul(step, shape):
    rng = np.random.default_rng(shape[-2])
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    c = Tensor(rng.standard_normal(shape))
    fast, ref = shift(x, step), _selector_shift(x, step)
    assert fast.data.tobytes() == ref.data.tobytes()
    g_fast = grad(sum_(fast * c), [x])[x].data
    g_ref = grad(sum_(ref * c), [x])[x].data
    assert g_fast.tobytes() == g_ref.tobytes()


def test_shift_rejects_vectors():
    with pytest.raises(NumericError):
        shift(Tensor(np.ones(3)), 1)


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
    for out in (sum_(BINARY_OPS[op](c, w)), sum_(BINARY_OPS[op](w, c))):
        grads = Tape.from_output(out).replay_backward(out, np.ones(()))
        assert id(w) in grads and id(c) not in grads


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
    assert grads[id(x)].flags.c_contiguous


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
        loss = mse(tanh(matmul(x, w)), Tensor(np.ones((7, 5))))
        return grad(loss, [w])[w].data.tobytes()

    assert run() == run()


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


def test_finite_checks_can_be_disabled():
    with finite_checks(False):
        y = log(Tensor(-1.0))
    assert np.isnan(y.data)


def test_matmul_rejects_vectors():
    with pytest.raises(NumericError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


@pytest.mark.parametrize("op, fn", [("sqrt", sqrt), ("pow", lambda x: pow_scalar(x, 0.5))])
def test_backward_at_a_domain_edge_raises_naming_the_op(op, fn):
    # the slope of sqrt at 0 is infinite; the forward there is finite
    x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
    y = sum_(fn(x))
    assert y.item() == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        with pytest.raises(NumericError, match=f"produced by op '{op} backward'"):
            grad(y, [x])


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
        return sum_(tanh(matmul(x, w)))

    clean = check_gradients(f, {"w": w})
    assert clean["w"] < 1e-6
    with inject_backward_fault("matmul"):
        broken = check_gradients(f, {"w": w})
    assert broken["w"] > 1e-2


def test_fault_injection_detects_shift():
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((2, 4, 3)))
    c = Tensor(rng.standard_normal((2, 4, 3)))

    def f():
        return sum_(tanh(shift(matmul(x, w), 1)) * c)

    assert check_gradients(f, {"w": w})["w"] < 1e-6
    with inject_backward_fault("shift"):
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
    assert main(["gradcheck", "--inject-fault", "shift"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_fault_injection_detects_mse():
    # mse is one tape node, so a fault in its VJP is a fault of 'mse'
    rng = np.random.default_rng(2)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((2, 4, 3)))
    c = Tensor(rng.standard_normal((2, 4, 3)))

    def f():
        return mse(tanh(matmul(x, w)), c)

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
    "neg": ("neg", neg, [(3, 4)]),
    "pow": ("pow", lambda x: pow_scalar(x, 3.0), [(3, 4)]),
    "exp": ("exp", exp, [(3, 4)]),
    "log": ("log", log, [(3, 4)]),
    "sqrt": ("sqrt", sqrt, [(3, 4)]),
    "tanh": ("tanh", tanh, [(3, 4)]),
    "gelu": ("gelu", gelu, [(3, 4)]),
    "matmul": ("matmul", matmul, [(2, 3, 4), (4, 5)]),
    "reshape": ("reshape", lambda x: reshape(x, (4, 3)), [(3, 4)]),
    "transpose": ("transpose", lambda x: transpose(x, (2, 0, 1)), [(2, 3, 4)]),
    "transpose_default": ("transpose", transpose, [(2, 3, 4)]),
    "swap_last": ("swap_last", swap_last, [(2, 3, 4)]),
    "shift_next": ("shift", lambda x: shift(x, 1), [(2, 5, 3)]),
    "shift_back_2": ("shift", lambda x: shift(x, -2), [(2, 5, 3)]),
    "concat": ("concat", lambda x, y: concat([x, y, x], axis=-2), [(3, 4), (2, 4)]),
    "getitem": ("getitem", lambda x: getitem(x, [0, 2, 0]), [(3, 4)]),
    "sum": ("sum", lambda x: sum_(x, axis=1), [(3, 4)]),
    "sum_all": ("sum", sum_, [(3, 4)]),
    "mean": ("mean", lambda x: mean(x, axis=0, keepdims=True), [(3, 4)]),
    "max": ("max", lambda x: max_(x, axis=-1), [(3, 4)]),
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
    assert tracked._vjp is not None
    with no_grad():
        for operands in ([Tensor(a, requires_grad=True) for a in arrays], arrays):
            fast = fn(*operands)
            assert fast.data.tobytes() == tracked.data.tobytes()
            assert fast.shape == tracked.shape and fast.data.dtype == np.float64
            assert fast._vjp is None and fast._parents == () and fast._op == "leaf"
            assert not fast.requires_grad


@pytest.mark.parametrize("case", sorted(PRIMITIVES))
def test_untracked_op_rejects_nan_naming_the_op(case):
    op, fn, shapes = PRIMITIVES[case]
    arrays = _operands(shapes, 0)
    arrays[0].flat[0] = arrays[0].flat[-1] = np.nan
    with no_grad():
        with pytest.raises(NumericError, match=f"non-finite values produced by op '{op}'"):
            fn(*[Tensor(a) for a in arrays])


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
    assert c._parents == ()

    def loss(const):
        h = softmax(matmul(const, w) * 0.5) * k
        return sum_(h + tanh(w[0] * const))

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
    (gx,) = out._vjp(g)
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
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    nodes = Tape.from_output(mse(a, Tensor(np.zeros(3)))).nodes
    assert [t._op for t in nodes] == ["leaf", "leaf", "mse"]


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


def test_adam_rejects_non_finite_gradient_before_any_update():
    # sqrt's backward at 0 is inf (it raises unless the finite checks are
    # off); the step must leave everything as it was
    y = Tensor(np.array([2.0, -1.0, 0.5]), requires_grad=True)
    x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
    state = AdamState(lr=1e-2)
    adam_step([y, x], {y: Tensor(np.ones(3)), x: Tensor(np.zeros(2))}, state)
    snapshot = (y.data.copy(), x.data.copy(), state.step,
                {k: v.copy() for k, v in state.m.items()},
                {k: v.copy() for k, v in state.v.items()})
    with finite_checks(False):
        g = grad(sum_(sqrt(x)) + sum_(y * y), [y, x])
    assert np.isinf(g[x].data[0]) and g[x].data[1] == 0.5
    with pytest.raises(NumericError, match=r"parameter 1 of shape \(2,\)"):
        adam_step([y, x], g, state)
    assert np.array_equal(y.data, snapshot[0]) and np.array_equal(x.data, snapshot[1])
    assert state.step == snapshot[2]
    for now, before in ((state.m, snapshot[3]), (state.v, snapshot[4])):
        assert now.keys() == before.keys()
        assert all(np.array_equal(now[k], before[k]) for k in now)


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
