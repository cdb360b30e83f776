"""Velocity network, negative pairing, and the contrastive flow-matching loss."""

import itertools
import math

import numpy as np
import pytest

from cfmlab import flow
from cfmlab.flow import (
    build_condition_batch,
    cfm_loss,
    init_velocity_net,
    interpolate_batch,
    prepare_condition,
    sinusoidal_time_embedding,
    tcam_fuse,
    temporal_position_embedding,
    velocity_forward,
)
from cfmlab.numerics import (
    AdamState,
    NumericError,
    adam_step,
    Tensor,
    attention,
    finite_difference_gradient,
    grad,
    matmul,
    max_rel_err,
    mse,
)
from cfmlab.synthdata import mismatch_pairing, sample_derangement


def _small_net(seed=0, **kw):
    rng = np.random.default_rng(seed)
    args = dict(d_model=6, d_cond=6, d_audio=3, d_text=3, d_s=8, time_dim=4)
    args.update(kw)
    return init_velocity_net(rng, **args)


# ----------------------------------------------------------------- condition

def test_build_condition_identity_block_passthrough():
    rng = np.random.default_rng(0)
    net = init_velocity_net(rng, d_model=32, d_cond=32, d_audio=16, d_text=16)
    net.cond_w.data[...] = np.eye(32)
    net.cond_b.data[...] = 0.0
    audio = rng.standard_normal((5, 16))
    text = rng.standard_normal((5, 16))
    out = build_condition_batch(audio, text, net)
    assert np.array_equal(out.data, np.concatenate([audio, text], axis=1))


def test_build_condition_zero_inputs():
    net = _small_net()
    out = build_condition_batch(np.zeros((2, 4, 3)), np.zeros((2, 4, 3)), net)
    assert out.shape == (2, 4, 6)
    assert np.all(out.data == 0.0)


def test_build_condition_rejects_length_mismatch():
    net = _small_net()
    with pytest.raises(NumericError):
        build_condition_batch(np.zeros((4, 3)), np.zeros((5, 3)), net)
    with pytest.raises(NumericError):
        build_condition_batch(np.zeros((2, 4, 3)), np.zeros((3, 4, 3)), net)


def test_build_condition_gradient():
    net = _small_net(1)
    rng = np.random.default_rng(2)
    audio = Tensor(rng.standard_normal((2, 4, 3)))
    text = Tensor(rng.standard_normal((2, 4, 3)))
    target = rng.standard_normal((2, 4, 6))

    def f():
        return mse(build_condition_batch(audio, text, net), Tensor(target))

    for p in (net.cond_w, net.cond_b):
        g = grad(f(), [p])
        fd = finite_difference_gradient(lambda _t: f(), p, 1e-6)
        assert max_rel_err(g[p], fd) < 1e-6


# --------------------------------------------------------------- interpolant

def test_interpolate_endpoints():
    rng = np.random.default_rng(3)
    z0, z1 = rng.standard_normal((2, 4, 3))
    assert np.array_equal(interpolate_batch(z0, z1, 0.0), z0)
    assert np.array_equal(interpolate_batch(z0, z1, 1.0), z1)
    # per-example t: each row takes its own endpoint
    z0b, z1b = np.stack([z0, z0]), np.stack([z1, z1])
    assert np.array_equal(interpolate_batch(z0b, z1b, np.array([0.0, 1.0])),
                          np.stack([z0, z1]))


def test_interpolate_midpoint():
    z0, z1 = np.zeros(2), np.array([2.0, 4.0])
    zt = interpolate_batch(z0, z1, 0.5)
    assert np.array_equal(zt, [1.0, 2.0])
    assert np.array_equal(zt, (1 - 0.5) * z0 + 0.5 * z1)


def test_interpolate_rejects_bad_t():
    with pytest.raises(NumericError):
        interpolate_batch(np.zeros(2), np.ones(2), 1.5)
    with pytest.raises(NumericError):
        interpolate_batch(np.zeros((2, 3)), np.ones((2, 3)), np.array([0.5, -0.1]))
    with pytest.raises(NumericError, match="shape mismatch"):
        interpolate_batch(np.zeros(2), np.ones(3), 0.5)


def test_target_velocity_cases():
    # training's flow target is z1 - z0: cfm_loss is zero when the prediction
    # equals it and rejects a target of another shape
    rng = np.random.default_rng(4)
    z0, z1 = rng.standard_normal((2, 5, 3))
    assert cfm_loss(Tensor(z1 - z0), z1 - z0, None, 0.0).item() == 0.0
    assert cfm_loss(Tensor(np.zeros_like(z1)), z1 - z1, None, 0.0).item() == 0.0
    with pytest.raises(NumericError, match="shape mismatch"):
        cfm_loss(Tensor(z1 - z0), (z1 - z0)[:4], None, 0.0)


def test_target_velocity_is_interpolant_derivative():
    rng = np.random.default_rng(5)
    z0, z1 = rng.standard_normal((2, 4, 3))
    v = z1 - z0
    h = 1e-6
    for t in (0.2, 0.5, 0.9):
        fd = (interpolate_batch(z0, z1, t + h) - interpolate_batch(z0, z1, t - h)) / (2 * h)
        assert np.allclose(fd, v, atol=1e-8)


def test_negative_velocity_is_same_formula():
    # the repulsion target is the straight-path velocity toward the deranged
    # latent from the item's own noise, as training passes it to cfm_loss
    rng = np.random.default_rng(6)
    z0, z1 = rng.standard_normal((2, 4, 3, 2))
    vp = Tensor(rng.standard_normal((4, 3, 2)))
    pairing = mismatch_pairing(z1, z0, [0, 1, 2, 0], np.random.default_rng(1))
    v_neg = pairing.velocity
    assert np.array_equal(v_neg, z1[pairing.permutation] - z0)
    got = cfm_loss(vp, z1 - z0, v_neg, 0.3).item()
    expect = mse(vp, Tensor(z1 - z0)).item() - 0.3 * mse(vp, Tensor(v_neg)).item()
    assert got == pytest.approx(expect, rel=1e-14)


# ------------------------------------------------------------------- network

def test_tcam_zero_output_projection_is_query_passthrough():
    net = _small_net(7)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 5, 6))
    cond = rng.standard_normal((2, 5, 6))
    out = tcam_fuse(x, prepare_condition(net, cond), net)
    assert np.array_equal(out.data, (Tensor(x) @ net.tcam_q).data)


def _tcam_attention(net, x, prep, values):
    """TCAM's attention of x's queries over prep's keys, weighting `values`."""
    q = matmul(Tensor(x), net.tcam_q)
    return attention(q, prep.keys, Tensor(values), 1.0 / math.sqrt(net.d_s))


def test_tcam_refuses_a_condition_of_another_batch():
    net = _small_net(8)
    rng = np.random.default_rng(9)
    prep = prepare_condition(net, rng.standard_normal((3, 5, 6)))
    with pytest.raises(NumericError, match=r"attention needs .* got \(2, 5, 8\), \(3, 5, 8\)"):
        tcam_fuse(rng.standard_normal((2, 5, 6)), prep, net)


def test_tcam_single_condition_frame_attention_is_one():
    # a weight of exactly 1 gives each query the one value, unrounded
    net = _small_net(9)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, 4, 6))
    prep = prepare_condition(net, rng.standard_normal((1, 1, 6)))
    out = _tcam_attention(net, x, prep, prep.values.data)
    assert np.array_equal(out.data, np.broadcast_to(prep.values.data, out.shape))


def test_tcam_attention_rows_sum_to_one():
    # weighting values of 1, each query's output is the sum of its row
    net = _small_net(11)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 5, 6))
    prep = prepare_condition(net, rng.standard_normal((3, 7, 6)))
    rows = _tcam_attention(net, x, prep, np.ones((3, 7, 1)))
    assert rows.shape == (3, 5, 1)
    assert np.allclose(rows.data, 1.0, atol=1e-12)


def test_velocity_forward_shape_and_determinism():
    net = _small_net(13)
    rng = np.random.default_rng(14)
    zt = rng.standard_normal((1, 4, 6))
    cond = rng.standard_normal((1, 4, 6))
    a = velocity_forward(net, zt, 0.3, prepare_condition(net, cond))
    b = velocity_forward(net, zt.copy(), 0.3, prepare_condition(net, cond.copy()))
    assert a.shape == (1, 4, 6)
    assert np.array_equal(a.data, b.data)


def test_velocity_forward_batched_matches_single():
    net = _small_net(15)
    rng = np.random.default_rng(16)
    zt = rng.standard_normal((3, 4, 6))
    cond = rng.standard_normal((3, 4, 6))
    ts = np.array([0.1, 0.5, 0.9])
    batched = velocity_forward(net, zt, ts, prepare_condition(net, cond)).data
    for i in range(3):
        one = velocity_forward(net, zt[i:i + 1], ts[i],
                               prepare_condition(net, cond[i:i + 1])).data
        assert np.allclose(batched[i], one[0], atol=1e-12)


def test_velocity_forward_rejects_bad_time_and_dims():
    net = _small_net(17)
    rng = np.random.default_rng(18)
    zt = rng.standard_normal((1, 4, 6))
    cond = rng.standard_normal((1, 4, 6))
    prep = prepare_condition(net, cond)
    with pytest.raises(NumericError):
        velocity_forward(net, zt, 1.2, prep)
    with pytest.raises(NumericError):
        velocity_forward(net, rng.standard_normal((1, 4, 5)), 0.5, prep)
    for other in (cond[:, :3], np.concatenate([cond, cond[:, :1]], axis=1)):
        # one condition row per latent frame, neither fewer nor more
        with pytest.raises(NumericError, match=f"condition has {other.shape[1]} frames, "
                                               "latent has 4"):
            velocity_forward(net, zt, 0.5, prepare_condition(net, other))
    with pytest.raises(NumericError, match="condition batch 2"):
        velocity_forward(net, zt, 0.5, prepare_condition(net, np.concatenate([cond] * 2)))
    with pytest.raises(NumericError, match=r"must be \(B, L, d_G\), got shape \(4, 6\)"):
        velocity_forward(net, zt[0], 0.5, prep)


def test_velocity_forward_finite_on_wide_inputs():
    net = _small_net(19)
    rng = np.random.default_rng(20)
    zt = rng.uniform(-10, 10, size=(1, 4, 6))
    cond = rng.uniform(-10, 10, size=(1, 4, 6))
    out = velocity_forward(net, zt, 0.7, prepare_condition(net, cond))
    assert np.all(np.isfinite(out.data))


def test_velocity_forward_full_gradient_check():
    net = _small_net(21)
    rng = np.random.default_rng(22)
    zt = rng.standard_normal((2, 3, 6))
    cond = rng.standard_normal((2, 3, 6))
    ts = np.array([0.25, 0.75])
    v_hat = rng.standard_normal((2, 3, 6))

    def f():
        return mse(velocity_forward(net, zt, ts, prepare_condition(net, cond)),
                   Tensor(v_hat))

    params = net.named_tensors()
    g = grad(f(), list(params.values()))
    for name, p in params.items():
        fd = finite_difference_gradient(lambda _t: f(), p, 1e-6)
        err = max_rel_err(g[p], fd)
        assert err < 1e-3, f"{name}: rel err {err:.2e}"


def test_time_embedding_varies_output():
    net = _small_net(23)
    rng = np.random.default_rng(24)
    zt = rng.standard_normal((1, 4, 6))
    prep = prepare_condition(net, rng.standard_normal((1, 4, 6)))
    a = velocity_forward(net, zt, 0.0, prep).data
    b = velocity_forward(net, zt, 1.0, prep).data
    assert not np.allclose(a, b)


def test_position_embeddings_shapes():
    emb = temporal_position_embedding(16, 32)
    assert emb.shape == (16, 32)
    assert np.all(np.abs(emb) <= 1.0)
    t_emb = sinusoidal_time_embedding(np.array([0.0, 0.5, 1.0]), 16)
    assert t_emb.shape == (3, 16)
    assert np.allclose(t_emb[0, :8], 0.0) and np.allclose(t_emb[0, 8:], 1.0)


@pytest.mark.parametrize("dim", [2, 8, 16, 30])
def test_time_embedding_matches_uncached_formula(dim):
    t = np.array([[0.0, 0.3], [0.7, 1.0]])
    ang = t[..., None] * np.exp(np.linspace(0.0, math.log(1000.0), dim // 2))
    expected = np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
    for _ in range(2):  # the second call reads the cached table
        got = sinusoidal_time_embedding(t, dim)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert got.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        flow._time_frequencies(dim // 2)[0] = 2.0


# ----------------------------------------------------------------- negatives

def test_derangement_b2_is_swap():
    assert sample_derangement(np.random.default_rng(0), 2).tolist() == [1, 0]


def test_derangement_has_no_fixed_points():
    rng = np.random.default_rng(25)
    for n in (2, 3, 4, 5, 8):
        for _ in range(50):
            perm = sample_derangement(rng, n)
            assert not np.any(perm == np.arange(n))
            assert sorted(perm.tolist()) == list(range(n))


def test_derangement_rejects_singleton():
    with pytest.raises(NumericError):
        sample_derangement(np.random.default_rng(0), 1)


def test_derangement_uniform_over_s4():
    # four classes: every derangement is all cross-class, so the pairing
    # keeps its first draw
    all_derangements = [p for p in itertools.permutations(range(4))
                        if all(p[i] != i for i in range(4))]
    assert len(all_derangements) == 9
    rng = np.random.default_rng(26)
    z = np.zeros((4, 1, 1))
    counts = {p: 0 for p in all_derangements}
    for _ in range(1000):
        counts[tuple(mismatch_pairing(z, z, [0, 1, 2, 3], rng).permutation)] += 1
    assert all(c > 0 for c in counts.values())
    expected = 1000 / 9
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 26.12  # chi-square(8 dof) at p=0.001


def test_incongruent_batch_permute_pair():
    rng = np.random.default_rng(27)
    z1, z0 = rng.standard_normal((2, 5, 4, 3))
    neg = mismatch_pairing(z1, z0, [0, 1, 2, 0, 1], np.random.default_rng(1))
    perm = neg.permutation
    assert not np.any(perm == np.arange(5))
    assert np.array_equal(neg.velocity, z1[perm] - z0)
    # distinct items: negatives never equal positives at the same index
    assert not np.any(np.all(neg.velocity == z1 - z0, axis=(1, 2)))


def test_incongruent_batch_reproducible():
    rng = np.random.default_rng(28)
    z1, z0 = rng.standard_normal((2, 6, 4, 3))
    class_ids = [0, 0, 1, 1, 2, 2]
    a = mismatch_pairing(z1, z0, class_ids, np.random.default_rng(7))
    b = mismatch_pairing(z1, z0, class_ids, np.random.default_rng(7))
    assert np.array_equal(a.permutation, b.permutation)
    assert a.velocity.tobytes() == b.velocity.tobytes()


# --------------------------------------------------------------------- loss

def test_cfm_loss_lambda_zero_is_fm_mse():
    rng = np.random.default_rng(32)
    vp = Tensor(rng.standard_normal((4, 3, 2)))
    pos = rng.standard_normal((4, 3, 2))
    neg = rng.standard_normal((4, 3, 2))
    a = cfm_loss(vp, pos, neg, 0.0).item()
    b = mse(vp, Tensor(pos)).item()
    assert a == b  # bit-identical


def test_cfm_loss_equal_pos_neg():
    rng = np.random.default_rng(33)
    vp = Tensor(rng.standard_normal((3, 2)))
    pos = rng.standard_normal((3, 2))
    for lam in (0.05, 0.3, 0.9):
        got = cfm_loss(vp, pos, pos.copy(), lam).item()
        expect = (1.0 - lam) * mse(vp, Tensor(pos)).item()
        assert got == pytest.approx(expect, abs=1e-12)


def test_cfm_loss_worked_example():
    vp = Tensor(np.array([[0.0, 0.0]]))
    pos = np.array([[1.0, 0.0]])
    neg = np.array([[0.0, 1.0]])
    assert cfm_loss(vp, pos, neg, 0.5).item() == pytest.approx(0.25, abs=1e-15)


def test_cfm_loss_gradient():
    rng = np.random.default_rng(34)
    vp = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    pos = rng.standard_normal((3, 4))
    neg = rng.standard_normal((3, 4))

    def f():
        return cfm_loss(vp, pos, neg, 0.3)

    g = grad(f(), [vp])
    fd = finite_difference_gradient(lambda _t: f(), vp, 1e-6)
    assert max_rel_err(g[vp], fd) < 1e-6


@pytest.mark.parametrize("lam", [0.05, 0.3])
def test_cfm_loss_is_flow_matching_toward_a_pushed_target(lam):
    # the identity in cfm_loss's docstring, in value and gradient
    rng = np.random.default_rng(36)
    z0, z1 = rng.standard_normal((2, 6, 4, 3))
    perm = np.array([1, 2, 0, 4, 5, 3])
    a, b = z1 - z0, z1[perm] - z0
    k = lam / (1.0 - lam)
    c = a + k * (z1 - z1[perm])
    v = Tensor(rng.standard_normal(a.shape), requires_grad=True)
    loss = cfm_loss(v, a, b, lam)
    pushed = (1.0 - lam) * mse(v, Tensor(c))
    expect = pushed.item() - k * mse(Tensor(a), Tensor(b)).item()
    assert loss.item() == pytest.approx(expect, rel=1e-13)
    g, g_pushed = grad(loss, [v])[v].data, grad(pushed, [v])[v].data
    np.testing.assert_allclose(g, g_pushed, rtol=0.0, atol=1e-14 * np.max(np.abs(g)))


def test_cfm_minimizer_closed_form_via_descent():
    v_pos = np.array([1.0, -2.0])
    v_neg = np.array([0.5, 3.0])
    lam = 0.3
    v = Tensor(np.zeros(2), requires_grad=True)
    state = AdamState(lr=0.05)
    for _ in range(2000):
        adam_step([v], grad(cfm_loss(v, v_pos, v_neg, lam), [v]), state)
    expect = (v_pos - lam * v_neg) / (1.0 - lam)
    assert np.max(np.abs(v.data - expect)) < 1e-6


@pytest.mark.parametrize("t", [float("nan"), np.float64("nan"), np.array(float("nan")),
                               np.array([0.5, float("nan")])])
def test_nan_flow_time_is_rejected_as_out_of_range(t):
    # NaN passes `t < 0` and `t > 1`; both range checks must still catch it
    net = _small_net(21)
    rng = np.random.default_rng(22)
    zt = rng.standard_normal((2, 4, 6))
    prep = prepare_condition(net, rng.standard_normal((2, 4, 6)))
    with pytest.raises(NumericError, match=r"flow time t must lie in \[0, 1\]"):
        velocity_forward(net, zt, t, prep)
    with pytest.raises(NumericError, match=r"interpolation time t must lie in \[0, 1\]"):
        interpolate_batch(zt, zt + 1.0, t)


def test_scalar_time_row_matches_per_example_time():
    # a float t takes the cached time-embedding row; an array t builds it
    net = _small_net(23)
    rng = np.random.default_rng(24)
    zt = rng.standard_normal((1, 4, 6))
    prep = prepare_condition(net, rng.standard_normal((1, 4, 6)))
    for t in (0.0, 0.3, 0.3, 1.0):
        assert (velocity_forward(net, zt, t, prep).data.tobytes()
                == velocity_forward(net, zt, np.array([t]), prep).data.tobytes())
