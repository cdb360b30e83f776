"""Shared-space alignment: projection, fusion, cosine and InfoNCE losses."""

import numpy as np
import pytest

from cfmlab.alignment import (
    _normalized_rows,
    clip_loss,
    composite_batch,
    cosine_alignment_loss_batch,
    fused_target_batch,
    infonce_oneway,
    infonce_symmetric,
    init_projection_heads,
    project_and_normalize_batch,
    temporal_pool_batch,
)
from cfmlab.codec import PART_ORDER
from cfmlab.config import ConfigError, config_from_dict
from cfmlab.synthdata import build_dataset
from cfmlab.training import train_codec, train_generator
from cfmlab.numerics import (
    NumericError,
    Tensor,
    finite_difference_gradient,
    grad,
    max_rel_err,
)


def _unit_rows(rng, shape):
    x = rng.standard_normal(shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


# ----------------------------------------------------------- composite latent

def test_composite_concatenates_and_scales():
    rng = np.random.default_rng(0)
    parts = {p: rng.standard_normal((2, 5, 8)) for p in PART_ORDER}
    out = composite_batch(parts, scale=2.0).data
    assert out.shape == (2, 5, 32)
    stacked = np.concatenate([parts[p] for p in PART_ORDER], axis=-1)
    assert np.allclose(out, stacked / 2.0, atol=1e-15)


def test_composite_scale_one_is_concatenation():
    rng = np.random.default_rng(1)
    parts = {p: rng.standard_normal((1, 3, 8)) for p in PART_ORDER}
    out = composite_batch(parts, scale=1.0).data
    assert np.array_equal(out, np.concatenate([parts[p] for p in PART_ORDER], axis=-1))


# parts are checked where they enter (every command encodes all of
# PART_ORDER at one length), so a misuse here reaches numpy, which refuses it

def test_composite_rejects_missing_part():
    rng = np.random.default_rng(2)
    parts = {p: rng.standard_normal((1, 3, 8)) for p in ("hand", "upper")}
    with pytest.raises(KeyError, match="lower"):
        composite_batch(parts, scale=2.0)


def test_composite_rejects_length_mismatch():
    rng = np.random.default_rng(3)
    parts = {p: rng.standard_normal((1, 3, 8)) for p in ("hand", "upper", "lower")}
    parts["face"] = rng.standard_normal((1, 4, 8))
    with pytest.raises(ValueError):
        composite_batch(parts, scale=2.0)


# --------------------------------------------------------------- projection

def test_projection_identity_head_keeps_unit_input():
    rng = np.random.default_rng(4)
    raw = _unit_rows(rng, (6, 5))
    out = project_and_normalize_batch(raw, np.eye(5))
    assert np.allclose(out.data, raw, atol=1e-12)


def test_projection_rows_are_unit():
    rng = np.random.default_rng(5)
    raw = 3.0 * rng.standard_normal((7, 9))
    w = rng.standard_normal((9, 4))
    out = project_and_normalize_batch(raw, w)
    assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_projection_rejects_degenerate_row():
    with pytest.raises(NumericError):
        project_and_normalize_batch(np.zeros((3, 5)), np.eye(5))


def test_projection_scale_invariance_exact():
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 3))
    a = project_and_normalize_batch(raw, w)
    b = project_and_normalize_batch(2.0 * raw, w)  # power of two: bit-exact
    assert np.array_equal(a.data, b.data)


def test_projection_gradient_matches_fd():
    rng = np.random.default_rng(7)
    raw = Tensor(rng.standard_normal((2, 5, 6)))
    w = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    target = _unit_rows(rng, (2, 5, 4))

    def f():
        return cosine_alignment_loss_batch(target, project_and_normalize_batch(raw, w))

    g = grad(f(), [w])
    fd = finite_difference_gradient(lambda _t: f(), w, 1e-6)
    assert max_rel_err(g[w], fd) < 1e-4


# ------------------------------------------------------------------- fusion

def test_fused_target_alpha_extremes():
    rng = np.random.default_rng(8)
    t = _unit_rows(rng, (5, 4))
    a = _unit_rows(rng, (5, 4))
    assert np.allclose(fused_target_batch(t, a, 1.0).data, t, atol=1e-12)
    assert np.allclose(fused_target_batch(t, a, 0.0).data, a, atol=1e-12)


def test_fused_target_fixed_point():
    rng = np.random.default_rng(9)
    rows = _unit_rows(rng, (5, 4))
    for alpha in (0.2, 0.5, 0.9):
        assert np.allclose(fused_target_batch(rows, rows.copy(), alpha).data, rows,
                           atol=1e-12)


def test_fused_target_rejects_antipodal():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericError, match="collapsed"):
        fused_target_batch(rows, -rows, 0.5)


# -------------------------------------------------------------- cosine loss

def test_cosine_loss_identical_is_zero():
    rng = np.random.default_rng(10)
    rows = _unit_rows(rng, (6, 4))
    assert cosine_alignment_loss_batch(rows.copy(), rows).item() == pytest.approx(
        0.0, abs=1e-12)


def test_cosine_loss_antipodal_is_two():
    rng = np.random.default_rng(11)
    rows = _unit_rows(rng, (6, 4))
    assert cosine_alignment_loss_batch(-rows, rows).item() == pytest.approx(2.0, abs=1e-12)


def test_cosine_loss_orthogonal_is_one():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert cosine_alignment_loss_batch(b, a).item() == pytest.approx(1.0, abs=1e-15)


def test_cosine_loss_range_and_shape_check():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = _unit_rows(rng, (4, 3))
        b = _unit_rows(rng, (4, 3))
        v = cosine_alignment_loss_batch(a, b).item()
        assert 0.0 <= v <= 2.0


# ------------------------------------------------------------------- pooling

def test_pool_single_row_identity():
    rng = np.random.default_rng(13)
    rows = _unit_rows(rng, (1, 5))
    out = temporal_pool_batch(rows)
    assert np.allclose(out.data, rows[0], atol=1e-12)


def test_pool_constant_sequence():
    rng = np.random.default_rng(14)
    row = _unit_rows(rng, (1, 5))[0]
    out = temporal_pool_batch(np.tile(row, (2, 6, 1)))
    assert out.shape == (2, 5)
    assert np.allclose(out.data, row, atol=1e-12)


def test_pool_two_orthonormal_rows():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = temporal_pool_batch(rows)
    assert np.allclose(out.data, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-15)


def test_pool_rejects_collapsed_mean():
    rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(NumericError):
        temporal_pool_batch(rows[None])


# ------------------------------------------------------------------- InfoNCE

def test_infonce_single_pair_is_zero():
    p = np.array([[1.0, 0.0]])
    assert infonce_oneway(p, p, tau=0.5).item() == pytest.approx(0.0, abs=1e-15)


def test_infonce_identical_batch_is_log_b():
    for b in (2, 3, 7):
        p = np.tile(np.array([[0.6, 0.8]]), (b, 1))
        for tau in (0.1, 1.0, 3.0):
            got = infonce_oneway(p, p, tau).item()
            assert got == pytest.approx(np.log(b), abs=1e-12)


def test_infonce_two_orthonormal_pairs():
    p = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = infonce_oneway(p, p.copy(), tau=1.0).item()
    assert got == pytest.approx(-np.log(np.e / (np.e + 1.0)), abs=1e-12)
    assert got == pytest.approx(0.31326, abs=5e-6)


def test_infonce_permutation_equivariant():
    rng = np.random.default_rng(15)
    p = _unit_rows(rng, (6, 4))
    q = _unit_rows(rng, (6, 4))
    perm = rng.permutation(6)
    a = infonce_oneway(p, q, tau=0.3).item()
    b = infonce_oneway(p[perm], q[perm], tau=0.3).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_infonce_sharpens_to_zero_at_small_tau():
    rng = np.random.default_rng(16)
    q = _unit_rows(rng, (5, 8))
    # matched similarity 1.0; enforce off-diagonal margin >= 0.1
    sims = q @ q.T
    assert np.all(sims - np.eye(5) * sims.diagonal() <= 0.9 + 1e-9)
    assert infonce_oneway(q, q.copy(), tau=1e-3).item() < 1e-6


def test_infonce_symmetric_matches_average():
    rng = np.random.default_rng(17)
    p = _unit_rows(rng, (5, 4))
    q = _unit_rows(rng, (5, 4))
    sym = infonce_symmetric(p, q, tau=0.2).item()
    avg = 0.5 * (infonce_oneway(p, q, 0.2).item() + infonce_oneway(q, p, 0.2).item())
    assert sym == pytest.approx(avg, rel=1e-14)
    assert sym == pytest.approx(infonce_symmetric(q, p, tau=0.2).item(), rel=1e-14)


def test_infonce_stable_at_tiny_tau():
    rng = np.random.default_rng(18)
    p = _unit_rows(rng, (4, 6))
    v = infonce_oneway(p, p.copy(), tau=1e-6).item()
    assert np.isfinite(v)


# ------------------------------------------------------------------ clip/sem

def test_clip_loss_single_sample_zero():
    p = np.array([[0.6, 0.8]])
    assert clip_loss(p, p, p, tau=0.5).item() == pytest.approx(0.0, abs=1e-15)


def test_clip_loss_duplicate_modalities():
    rng = np.random.default_rng(19)
    m = _unit_rows(rng, (4, 5))
    a = _unit_rows(rng, (4, 5))
    got = clip_loss(m, a, a.copy(), tau=0.4).item()
    assert got == pytest.approx(infonce_symmetric(m, a, 0.4).item(), rel=1e-14)


def test_clip_loss_composition():
    rng = np.random.default_rng(20)
    m, a, t = (_unit_rows(rng, (5, 4)) for _ in range(3))
    got = clip_loss(m, a, t, tau=0.25).item()
    expect = 0.5 * (infonce_symmetric(m, a, 0.25).item()
                    + infonce_symmetric(m, t, 0.25).item())
    assert got == pytest.approx(expect, rel=1e-14)


def _stage2_curves(**sacm):
    """Loss curves of a tiny stage-2 run: training sums the alignment terms
    inline as lambda_cos * cos + lambda_clp * clp."""
    cfg = config_from_dict({
        "seed": 1, "sacm": sacm,
        "dataset": {"n_classes": 2, "n_clips": 12, "n_frames": 32, "n_onsets": 2,
                    "ratios": [0.75, 0.0, 0.25]},
        "codec": {"epochs": 0, "n_codes": 8}, "flow": {"epochs": 2, "batch": 4}})
    ds = build_dataset(cfg.dataset)
    codecs, stacks, _ = train_codec(cfg, ds)
    return train_generator(cfg, ds, codecs, stacks)[3].curves


def test_sem_loss_zero_weights():
    curves = _stage2_curves(lambda_cos=0.0, lambda_clp=0.0)
    assert curves["sem"] == curves["cos"] == curves["clp"] == [0.0, 0.0]


def test_sem_loss_cos_only():
    curves = _stage2_curves(lambda_cos=1.5, lambda_clp=0.0)
    assert curves["clp"] == [0.0, 0.0]
    assert all(c > 0.0 for c in curves["cos"])
    assert curves["sem"] == pytest.approx([1.5 * c for c in curves["cos"]], rel=1e-12)


def test_sem_loss_weighted_sum():
    curves = _stage2_curves(lambda_cos=1.0, lambda_clp=0.1)
    assert all(c > 0.0 for c in curves["cos"] + curves["clp"])
    expect = [c + 0.1 * k for c, k in zip(curves["cos"], curves["clp"])]
    assert curves["sem"] == pytest.approx(expect, rel=1e-12)


def test_alignment_weights_validation():
    for key, value in (("alpha", 1.5), ("tau", 0.0), ("lambda_cos", -0.1),
                       ("lambda_clp", -0.1)):
        with pytest.raises(ConfigError, match=f"sacm.{key}"):
            config_from_dict({"sacm": {key: value}})


# ----------------------------------------------------------------- gradients

def test_all_alignment_losses_match_fd_through_heads():
    rng = np.random.default_rng(24)
    b, l, d = 3, 4, 5
    heads = init_projection_heads(rng, d_text=6, d_audio=7, d_motion=8, d=d)
    raw_t = Tensor(rng.standard_normal((b, l, 6)))
    raw_a = Tensor(rng.standard_normal((b, l, 7)))
    raw_m = Tensor(rng.standard_normal((b, l, 8)))

    def f():
        zt = project_and_normalize_batch(raw_t, heads.text)
        za = project_and_normalize_batch(raw_a, heads.audio)
        zm = project_and_normalize_batch(raw_m, heads.motion)
        l_cos = cosine_alignment_loss_batch(fused_target_batch(zt, za, 0.5), zm)
        l_clp = clip_loss(temporal_pool_batch(zm), temporal_pool_batch(za),
                          temporal_pool_batch(zt), 0.1)
        return l_cos + Tensor(0.1) * l_clp

    params = {"text": heads.text, "audio": heads.audio, "motion": heads.motion}
    g = grad(f(), list(params.values()))
    for name, p in params.items():
        fd = finite_difference_gradient(lambda _t: f(), p, 1e-6)
        err = max_rel_err(g[p], fd)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"


def test_cosine_loss_fd_cross_module_oracle():
    rng = np.random.default_rng(25)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    target = _unit_rows(rng, (4, 6))

    def f():
        return cosine_alignment_loss_batch(target, _normalized_rows(x, "degenerate"))

    g = grad(f(), [x])
    fd = finite_difference_gradient(lambda _t: f(), x, 1e-6)
    assert max_rel_err(g[x], fd) < 1e-4
