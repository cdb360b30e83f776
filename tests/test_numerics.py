"""Autodiff engine: finite-difference agreement, tape semantics, Adam."""

import numpy as np
import pytest

from cfmlab.cli import main
from cfmlab.numerics import (
    AdamState,
    NumericError,
    Tape,
    Tensor,
    adam_step,
    check_gradients,
    concat,
    exp,
    finite_checks,
    finite_difference_gradient,
    gelu,
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


def test_finite_checks_can_be_disabled():
    with finite_checks(False):
        y = log(Tensor(-1.0))
    assert np.isnan(y.data)


def test_matmul_rejects_vectors():
    with pytest.raises(NumericError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


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


def test_cli_gradcheck_detects_injected_shift_fault(capsys):
    assert main(["gradcheck", "--inject-fault", "shift"]) == 3
    assert "FAIL" in capsys.readouterr().out


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


# ----------------------------------------------------------------------- misc

def test_uniform_init_bounds():
    rng = np.random.default_rng(9)
    w = uniform_init(rng, (100, 16), fan_in=16)
    assert w.requires_grad
    assert np.all(np.abs(w.data) <= 0.25)


def test_item_rejects_non_scalar():
    with pytest.raises(NumericError):
        Tensor(np.ones(2)).item()
