import csv
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import cfmlab
from cfmlab.alignment import composite_batch, project_and_normalize_batch
from cfmlab.cli import main
from cfmlab.codec import (
    PART_JOINTS,
    PART_ORDER,
    MotionClip,
    PartLatent,
    decode_part,
    encode_part,
    init_codebook_stack,
    init_part_codec,
    rvq_dequantize,
    rvq_quantize,
    rvq_quantize_batch,
)
from cfmlab import cli, evaluate, flow, sampler, synthdata
from cfmlab.config import config_from_dict, config_hash
from cfmlab.evaluate import condition_for_clip, generate_split
from cfmlab.metrics import MetricReport, _find_peaks, beat_consistency, diversity, \
    extract_kinematic_peaks, fgd, motion_features
from cfmlab.flow import build_condition_batch, init_velocity_net, prepare_condition, \
    velocity_forward
from cfmlab.numerics import NumericError, Tensor, matmul, no_grad
from cfmlab.sampler import (
    GeneratedMotion,
    ManifoldProjection,
    OdeConfig,
    generate,
    generate_batch,
    init_manifold_projection,
    integrate_ode,
    project_to_codebook_manifold,
    quantize_regions,
    sample_batch,
    write_motion_csv,
    write_sidecar,
)
from cfmlab.synthdata import build_dataset
from cfmlab.training import (
    init_stage2,
    load_stage1_checkpoint,
    load_stage2_checkpoint,
    train_codec,
)


def _small_setup(seed=0, d_g=2, n_codes=8, depth=2, length=4):
    rng = np.random.default_rng(seed)
    net = init_velocity_net(rng, d_model=4 * d_g, d_cond=8, d_audio=3, d_text=3,
                            d_s=8, time_dim=4)
    decoders = {p: init_part_codec(rng, p, downsample=4, d_g=d_g) for p in PART_ORDER}
    stacks = {p: init_codebook_stack(rng, p, n_codes=n_codes, depth=depth, d_g=d_g)
              for p in PART_ORDER}
    cond = build_condition_batch(rng.standard_normal((length, 3)),
                                 rng.standard_normal((length, 3)), net).data
    return net, decoders, stacks, cond


def _generate(net, stacks, decoders, cond, config):
    """`generate` with an identity projection, stamped with the hash "h"."""
    return generate(net, stacks, decoders, cond, config,
                    init_manifold_projection(net.d_model), "h")


# -------------------------------------------------------------- integrate_ode

@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
@pytest.mark.parametrize("n", [1, 10])
def test_constant_field_recovers_target_exactly(scheme, n):
    rng = np.random.default_rng(7)
    z0 = rng.standard_normal((5, 3))
    v = rng.standard_normal((5, 3))
    out = integrate_ode(lambda z, t: v, z0, OdeConfig(n=n, scheme=scheme))
    assert np.max(np.abs(out - (z0 + v))) <= 1e-12


@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_zero_field_returns_z0(scheme):
    z0 = np.arange(6.0).reshape(2, 3)
    out = integrate_ode(lambda z, t: np.zeros_like(z), z0,
                        OdeConfig(n=5, scheme=scheme))
    assert np.array_equal(out, z0)


@pytest.mark.parametrize("n", [1, 2, 4, 10, 100])
def test_identity_field_euler_matches_compounding(n):
    out = integrate_ode(lambda z, t: z, np.array(1.0), OdeConfig(n=n, scheme="euler"))
    assert abs(float(out) - (1.0 + 1.0 / n) ** n) <= 1e-12


@pytest.mark.parametrize("n", [4, 8, 16, 64])
def test_identity_field_euler_error_bound(n):
    out = integrate_ode(lambda z, t: z, np.array(1.0), OdeConfig(n=n, scheme="euler"))
    assert abs(float(out) - math.e) < 3.0 / n


def test_identity_field_refinement_halves_error():
    errs = {}
    for n in [4, 8, 16, 32, 64]:
        out = integrate_ode(lambda z, t: z, np.array(1.0), OdeConfig(n=n, scheme="euler"))
        errs[n] = abs(float(out) - math.e)
    for n in [4, 8, 16, 32]:
        assert errs[2 * n] < errs[n]


def test_time_dependent_field_schemes_differ():
    # dz/dt = t has exact solution z0 + 1/2; midpoint integrates it exactly,
    # Euler with n=2 does not — distinguishing the two update rules.
    z0 = np.array(0.0)
    euler = integrate_ode(lambda z, t: np.asarray(t), z0, OdeConfig(n=2, scheme="euler"))
    mid = integrate_ode(lambda z, t: np.asarray(t), z0, OdeConfig(n=2, scheme="midpoint"))
    assert abs(float(mid) - 0.5) <= 1e-12
    assert abs(float(euler) - 0.25) <= 1e-12  # h*(t0+t1) = 0.5*(0+0.5)


def test_non_finite_state_names_the_step():
    def field(z, t):
        return np.full_like(z, np.inf) if t >= 0.5 else np.zeros_like(z)

    with pytest.raises(NumericError, match="step 3 of 4"):
        integrate_ode(field, np.zeros(2), OdeConfig(n=4, scheme="euler"))


def _prepared_field(net, cond):
    """The velocity field of `net` under the (B, L, d_O) condition `cond`,
    prepared once, as `sample_batch` integrates it."""
    with no_grad():
        prep = prepare_condition(net, cond)

    def field(z, t):
        with no_grad():
            return velocity_forward(net, Tensor(z), t, prep).data
    return field


def test_integrate_with_velocity_net_is_deterministic_and_finite():
    net, _, _, cond = _small_setup()
    z0 = np.random.default_rng(3).standard_normal((1, 4, net.d_model))
    field = _prepared_field(net, cond[None])
    a = integrate_ode(field, z0, OdeConfig(n=5, scheme="euler"))
    b = integrate_ode(field, z0, OdeConfig(n=5, scheme="euler"))
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))
    assert a.shape == z0.shape


def _solve_step_by_step(net, z0, cond, config):
    """An ODE solve written out, preparing the (B, L, d_O) condition afresh
    at every field evaluation: the reference a solve that prepares it once
    must match bit for bit."""
    def v(z, t):
        with no_grad():
            prep = prepare_condition(net, cond)
            return velocity_forward(net, Tensor(z), t, prep).data

    z, h = np.array(z0, dtype=np.float64), 1.0 / config.n
    for k in range(config.n):
        if config.scheme == "euler":
            z = z + h * v(z, k * h)
        else:
            zmid = z + 0.5 * h * v(z, k * h)
            z = z + h * v(zmid, k * h + 0.5 * h)
    return z


# the ids pytest first generated, when an unaligned condition was a second case
@pytest.mark.parametrize("scheme", ["euler", "midpoint"],
                         ids=["aligned-euler", "aligned-midpoint"])
def test_integrate_ode_prepares_condition_once_per_solve(monkeypatch, scheme):
    net, _, _, _ = _small_setup()
    rng = np.random.default_rng(4)
    for t in (net.tcam_o, net.align_w):
        t.data = rng.standard_normal(t.shape)
    z0 = rng.standard_normal((3, 6, net.d_model))
    cond = rng.standard_normal((3, 6, net.d_cond))
    config = OdeConfig(n=4, scheme=scheme)
    expected = _solve_step_by_step(net, z0, cond, config)

    projections = []

    def counted(a, b):
        if b is net.tcam_k or b is net.tcam_v:
            projections.append(b)
        return matmul(a, b)

    monkeypatch.setattr(flow, "matmul", counted)
    field = _prepared_field(net, cond)
    assert integrate_ode(field, z0, config).tobytes() == expected.tobytes()
    assert len(projections) == 2  # one key and one value projection per solve


def test_generate_batch_prepares_the_condition_once_per_solve(monkeypatch):
    net, decoders, stacks, cond = _small_setup(length=8)
    calls = []

    def counted(*args):
        calls.append(args)
        return prepare_condition(*args)

    monkeypatch.setattr(sampler, "prepare_condition", counted)
    generate_batch(net, stacks, decoders, [cond, cond],
                   [OdeConfig(n=3, scheme="midpoint", seed=s) for s in (0, 1)],
                   init_manifold_projection(net.d_model), "h")
    assert len(calls) == 1  # for all 6 field evaluations and both draws


# ----------------------------------------------------------------- projection

def test_identity_projection_is_passthrough():
    proj = init_manifold_projection(6)
    z = np.random.default_rng(0).standard_normal((4, 6))
    out = project_to_codebook_manifold(z, proj)
    assert np.array_equal(out.data, z)


def test_projection_applies_linear_map():
    w = np.random.default_rng(1).standard_normal((3, 3))
    proj = ManifoldProjection(weight=Tensor(w, requires_grad=True))
    z = np.random.default_rng(2).standard_normal((5, 3))
    out = project_to_codebook_manifold(z, proj)
    assert np.allclose(out.data, z @ w)


def test_projection_shape_mismatch_rejected():
    # widths are held to the config where models load; numpy's matmul refuses
    with pytest.raises(ValueError):
        project_to_codebook_manifold(np.zeros((2, 4)), init_manifold_projection(3))


# ------------------------------------------------------------ split regions

def _split_regions(latent, dims, scale):
    """Per-clip inverse of `composite_batch`: each part's channels, sliced
    in PART_ORDER and multiplied by the scale the composite divided by."""
    out, offset = {}, 0
    for p in PART_ORDER:
        out[p] = PartLatent(p, latent[..., offset:offset + dims[p]] * scale)
        offset += dims[p]
    return out


def _draw_per_part(widths, scale, seed=0, length=8):
    """One generate_batch draw with per-part latent widths, and the stacks
    it quantized with."""
    rng = np.random.default_rng(seed)
    net = init_velocity_net(rng, d_model=sum(widths.values()), d_cond=8, d_audio=3,
                            d_text=3, d_s=8, time_dim=4)
    decoders = {p: init_part_codec(rng, p, downsample=4, d_g=widths[p]) for p in PART_ORDER}
    stacks = {p: init_codebook_stack(rng, p, n_codes=8, depth=2, d_g=widths[p])
              for p in PART_ORDER}
    cond = rng.standard_normal((length, net.d_cond))
    motion = generate_batch(net, stacks, decoders, [cond], [OdeConfig(n=2, seed=seed)],
                            init_manifold_projection(net.d_model), "h", scale=scale)[0]
    return motion, stacks


def test_split_inverts_composite_exactly():
    rng = np.random.default_rng(5)
    parts = {p: rng.standard_normal((6, 3)) for p in PART_ORDER}
    comp = composite_batch({p: parts[p][None] for p in PART_ORDER}, scale=2.0).data[0]
    back = _split_regions(comp, {p: 3 for p in PART_ORDER}, 2.0)
    for p in PART_ORDER:
        assert np.array_equal(back[p].sequence, parts[p])


def test_split_then_composite_roundtrip():
    rng = np.random.default_rng(6)
    latent = rng.standard_normal((4, 12))
    parts = _split_regions(latent, {p: 3 for p in PART_ORDER}, 2.0)
    comp = composite_batch({p: parts[p].sequence[None] for p in PART_ORDER}, scale=2.0)
    assert np.array_equal(comp.data[0], latent)


def test_split_unit_scale_is_plain_slicing():
    # at scale 1, generate_batch quantizes each part's channel slice as is
    motion, stacks = _draw_per_part({p: 2 for p in PART_ORDER}, scale=1.0)
    for k, p in enumerate(PART_ORDER):
        _, codes = rvq_quantize_batch(motion.latent[:, 2 * k:2 * k + 2], stacks[p].stages)
        assert np.array_equal(motion.codes[p].codes, codes)


def test_split_respects_per_part_widths():
    dims = {"hand": 4, "upper": 3, "lower": 2, "face": 1}
    motion, stacks = _draw_per_part(dims, scale=2.0)
    assert motion.latent.shape == (8, 10)
    regions = _split_regions(motion.latent, dims, 2.0)
    for p in PART_ORDER:
        _, codes = rvq_quantize_batch(regions[p].sequence, stacks[p].stages)
        assert np.array_equal(motion.codes[p].codes, codes)
        assert motion.parts[p].frames.shape == (32, PART_JOINTS[p])


def test_split_dimension_mismatch_rejected():
    # loaded codecs are held to the config, so no command mixes widths; a
    # face decoder wider than its latent slice fails neighbour_linear's contract
    net, decoders, stacks, cond = _small_setup(length=8)
    decoders["face"] = init_part_codec(np.random.default_rng(1), "face", downsample=4,
                                       d_g=3)
    with pytest.raises(NumericError, match="neighbour_linear needs"):
        _generate(net, stacks, decoders, cond, OdeConfig(n=1))


def test_split_missing_part_dim_rejected():
    # the per-clip quantizer names a missing part
    rng = np.random.default_rng(7)
    parts = {p: rng.standard_normal((1, 2, 2)) for p in ("hand", "upper", "lower")}
    stacks = {p: init_codebook_stack(rng, p, n_codes=4, depth=1, d_g=2) for p in PART_ORDER}
    with pytest.raises(NumericError, match="missing part 'face'"):
        quantize_regions({p: PartLatent(p, parts[p][0]) for p in parts}, stacks)


# ----------------------------------------------------------- quantize_regions

def test_quantize_regions_matches_per_part_quantizer():
    rng = np.random.default_rng(8)
    stacks = {p: init_codebook_stack(rng, p, n_codes=8, depth=2, d_g=3)
              for p in PART_ORDER}
    parts = {p: PartLatent(p, rng.standard_normal((5, 3))) for p in PART_ORDER}
    codes = quantize_regions(parts, stacks)
    for p in PART_ORDER:
        _, expected = rvq_quantize(parts[p], stacks[p])
        assert np.array_equal(codes[p].codes, expected.codes)


def test_quantize_regions_per_part_independence():
    rng = np.random.default_rng(9)
    stacks = {p: init_codebook_stack(rng, p, n_codes=8, depth=2, d_g=3)
              for p in PART_ORDER}
    parts = {p: PartLatent(p, rng.standard_normal((5, 3))) for p in PART_ORDER}
    before = quantize_regions(parts, stacks)
    parts["hand"] = PartLatent("hand", rng.standard_normal((5, 3)))
    after = quantize_regions(parts, stacks)
    for p in ("upper", "lower", "face"):
        assert np.array_equal(before[p].codes, after[p].codes)


def test_quantize_regions_missing_stack_rejected():
    rng = np.random.default_rng(10)
    stacks = {p: init_codebook_stack(rng, p, n_codes=4, depth=1, d_g=2)
              for p in PART_ORDER if p != "face"}
    parts = {p: PartLatent(p, rng.standard_normal((2, 2))) for p in PART_ORDER}
    with pytest.raises(NumericError, match="face"):
        quantize_regions(parts, stacks)


# ------------------------------------------------------------------- generate

def test_generate_shapes_and_determinism():
    net, decoders, stacks, cond = _small_setup(length=16)
    cfg = OdeConfig(n=4, scheme="euler", seed=11)
    a = _generate(net, stacks, decoders, cond, cfg)
    b = _generate(net, stacks, decoders, cond, cfg)
    for p in PART_ORDER:
        assert a.parts[p].frames.shape == (64, PART_JOINTS[p])
        assert np.array_equal(a.parts[p].frames, b.parts[p].frames)
        assert np.array_equal(a.codes[p].codes, b.codes[p].codes)
    assert np.array_equal(a.latent, b.latent)
    assert a.config_hash == "h"


def test_generate_seed_changes_output():
    net, decoders, stacks, cond = _small_setup(length=8)
    a = _generate(net, stacks, decoders, cond, OdeConfig(n=2, seed=0))
    b = _generate(net, stacks, decoders, cond, OdeConfig(n=2, seed=1))
    assert not np.array_equal(a.latent, b.latent)


def test_generate_with_identity_projection_matches_no_projection():
    # the identity projection passes the solved latent through as it is
    net, decoders, stacks, cond = _small_setup(length=8)
    cfg = OdeConfig(n=3, seed=4)
    z0 = np.random.default_rng(cfg.seed).standard_normal((1, 8, net.d_model))
    solved = _solve_step_by_step(net, z0, cond[None], cfg)[0]
    assert np.array_equal(_generate(net, stacks, decoders, cond, cfg).latent, solved)


def test_generate_latents_decode_through_codebooks():
    net, decoders, stacks, cond = _small_setup(length=8)
    out = _generate(net, stacks, decoders, cond, OdeConfig(n=2, seed=3))
    for p in PART_ORDER:
        assert out.codes[p].codes.shape == (8, stacks[p].depth)
        assert np.all(out.codes[p].codes >= 0)
        assert np.all(out.codes[p].codes < stacks[p].stages[0].shape[0])
        assert np.all(np.isfinite(out.parts[p].frames))


# ------------------------------------------------------------------ output io

def test_csv_bytes_identical_across_runs(tmp_path):
    net, decoders, stacks, cond = _small_setup(length=8)
    cfg = OdeConfig(n=2, seed=21)
    p1 = write_motion_csv(_generate(net, stacks, decoders, cond, cfg),
                          tmp_path / "a.csv")
    p2 = write_motion_csv(_generate(net, stacks, decoders, cond, cfg),
                          tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_layout_roundtrips_values(tmp_path):
    net, decoders, stacks, cond = _small_setup(length=8)
    out = _generate(net, stacks, decoders, cond, OdeConfig(n=2, seed=5))
    path = write_motion_csv(out, tmp_path / "m.csv")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "part,frame,channel,value"
    n_rows = sum(out.parts[p].frames.size for p in PART_ORDER)
    assert len(lines) == 1 + n_rows
    part, frame, channel, value = lines[1].split(",")
    assert part == "hand" and frame == "0" and channel == "0"
    assert float(value) == out.parts["hand"].frames[0, 0]


def test_csv_bytes_match_csv_module_writer(tmp_path):
    # the row-per-call csv.writer layout the file format was defined by
    rng = np.random.default_rng(3)
    parts = {}
    for part in PART_ORDER:
        frames = rng.standard_normal((3, PART_JOINTS[part])) * 10.0 ** rng.integers(-5, 5)
        parts[part] = MotionClip(part, frames)
    parts["hand"].frames[0, :6] = [-0.0, 1e-300, 3.0, -1e-300, 1e300, 0.1]
    motion = GeneratedMotion(parts=parts, latent=np.zeros((1, 1)), codes={},
                             seed=0, config_hash="x")
    ref = tmp_path / "ref.csv"
    with ref.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["part", "frame", "channel", "value"])
        for part in PART_ORDER:
            frames = parts[part].frames
            for f in range(frames.shape[0]):
                for c in range(frames.shape[1]):
                    writer.writerow([part, f, c, repr(float(frames[f, c]))])
    out = write_motion_csv(motion, tmp_path / "m.csv")
    assert out.read_bytes() == ref.read_bytes()
    assert b"hand,0,0,-0.0\r\nhand,0,1,1e-300\r\nhand,0,2,3.0\r\n" in out.read_bytes()


# where repr changes notation (fixed <-> exponent) or meets a float extreme
CSV_EDGE_VALUES = [1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 5e-324,
                   -1e-300, 1.7976931348623157e308, -0.0]


def test_csv_bytes_match_csv_module_writer_at_every_length(tmp_path):
    # one process, a length seen again after others: a line layout made for
    # one frame count is never used for another
    rng = np.random.default_rng(5)
    for i, n_frames in enumerate((1, 3, 64, 3, 512)):
        parts = {p: MotionClip(p, rng.standard_normal((n_frames, PART_JOINTS[p]))
                               * 10.0 ** rng.integers(-8, 8, (n_frames, PART_JOINTS[p])))
                 for p in PART_ORDER}
        parts["hand"].frames.flat[:8] = CSV_EDGE_VALUES
        parts["face"].frames.flat[-8:] = CSV_EDGE_VALUES[::-1]
        motion = GeneratedMotion(parts=parts, latent=np.zeros((1, 1)), codes={},
                                 seed=0, config_hash="x")
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["part", "frame", "channel", "value"])
        writer.writerows([part, f, c, repr(v)] for part in PART_ORDER
                         for f, row in enumerate(parts[part].frames.tolist())
                         for c, v in enumerate(row))
        out = write_motion_csv(motion, tmp_path / f"m{i}.csv").read_bytes()
        assert out == ref.getvalue().encode("ascii"), n_frames
        assert out.startswith(b"part,frame,channel,value\r\nhand,0,0,1e+16\r\n"
                              b"hand,0,1,9999999999999998.0\r\nhand,0,2,0.0001\r\n"
                              b"hand,0,3,9.999999999999999e-05\r\nhand,0,4,5e-324\r\n")
        assert out.endswith(f"face,{n_frames - 1},15,1e+16\r\n".encode("ascii"))


def test_sidecar_contents(tmp_path):
    net, decoders, stacks, cond = _small_setup(length=8)
    cfg = OdeConfig(n=2, seed=9)
    out = _generate(net, stacks, decoders, cond, cfg)
    path = write_sidecar(out, tmp_path / "m.json", condition_id="clip-07")
    import json

    payload = json.loads(path.read_text())
    assert payload == {"seed": 9, "config_hash": "h",
                       "condition_id": "clip-07"}


# ------------------------------------------------------------- batched chain

def _generate_alone(net, stacks, decoders, cond, config, proj, scale, fps):
    """The per-clip chain the batched core replaced, built from the
    single-sequence helpers: a B = 1 solve that prepares the condition at
    every field evaluation, then split, quantize, dequantize and decode one
    clip at a time. The reference a batch must match bit for bit."""
    z0 = np.random.default_rng(config.seed).standard_normal(
        (1, cond.shape[0], net.d_model))
    z1 = _solve_step_by_step(net, z0, cond[None], config)[0]
    z1 = project_to_codebook_manifold(z1, proj).data
    regions = _split_regions(z1, {p: decoders[p].d_g for p in PART_ORDER}, scale)
    codes = quantize_regions(regions, stacks)
    frames = {p: decode_part(rvq_dequantize(codes[p], stacks[p]), decoders[p],
                             fps=fps).frames for p in PART_ORDER}
    return z1, codes, frames


def _split_setup(scheme, n_frames=32):
    """A 6-clip test split and an untrained model whose zero-initialised
    weights (attention output, aligned residual, projection) are randomised
    so every branch of the chain moves the result."""
    cfg = config_from_dict({
        "seed": 5, "sampler": {"scheme": scheme, "steps": 3},
        "dataset": {"n_classes": 3, "n_clips": 12, "n_frames": n_frames, "d_audio": 8,
                    "d_text": 8, "n_onsets": 3, "ratios": [0.5, 0.0, 0.5]},
        "codec": {"epochs": 0, "n_codes": 16}})
    ds = build_dataset(cfg.dataset)
    codecs, stacks, _ = train_codec(cfg, ds)
    net, heads, proj = init_stage2(cfg)
    rng = np.random.default_rng(0)
    for t in (net.tcam_o, net.align_w, net.out_b):
        t.data = 0.3 * rng.standard_normal(t.shape)
    proj.weight.data = proj.weight.data + 0.1 * rng.standard_normal(proj.weight.shape)
    return cfg, ds.splits["test"], codecs, stacks, net, heads, proj


@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_generate_split_equals_per_clip_draws_bitwise(scheme):
    cfg, clips, codecs, stacks, net, heads, proj = _split_setup(scheme)
    assert len(clips) == 6
    seeds = evaluate._clip_seeds(cfg.seed, len(clips))
    split = generate_split(cfg, clips, seeds, net, heads, stacks, codecs, proj=proj)
    assert len(set(seeds.tolist())) == len(clips)
    conds = [condition_for_clip(u.audio, u.text, net, heads) for u in clips]
    odes = [OdeConfig(n=cfg.sampler.steps, scheme=scheme, seed=int(s)) for s in seeds]
    z1s, codes_b, frames_b = sample_batch(net, stacks, codecs, conds, odes, proj=proj,
                                          scale=cfg.sacm.scale)
    for i, (cond, ode) in enumerate(zip(conds, odes)):
        alone = generate(net, stacks, codecs, cond, ode, proj=proj,
                         scale=cfg.sacm.scale, fps=cfg.dataset.fps,
                         config_hash=config_hash(cfg))
        z1, codes, frames = _generate_alone(net, stacks, codecs, cond, ode, proj,
                                            cfg.sacm.scale, cfg.dataset.fps)
        assert z1s[i].tobytes() == alone.latent.tobytes() == z1.tobytes()
        for p in PART_ORDER:
            assert (codes_b[p][i].tobytes() == alone.codes[p].codes.tobytes()
                    == codes[p].codes.tobytes())
            assert (split[p][i].tobytes() == frames_b[p][i].tobytes()
                    == alone.parts[p].frames.tobytes() == frames[p].tobytes())
        assert alone.seed == ode.seed and alone.config_hash == config_hash(cfg)


def test_condition_for_clip_is_the_batched_condition():
    _, clips, _, _, net, heads, _ = _split_setup("euler")
    u = clips[0]
    cond = condition_for_clip(u.audio, u.text, net, heads)
    with no_grad():
        expected = build_condition_batch(
            project_and_normalize_batch(u.audio, heads.audio),
            project_and_normalize_batch(u.text, heads.text), net).data
    assert type(cond) is np.ndarray
    assert cond.shape == (len(u.audio), net.d_cond)
    assert cond.tobytes() == expected.tobytes()


def test_generate_rejects_non_finite_condition():
    net, decoders, stacks, cond = _small_setup(length=8)
    cond = cond.copy()
    cond[3, 1] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        _generate(net, stacks, decoders, cond, OdeConfig(n=2))


def test_generate_split_chunks_do_not_change_draws(monkeypatch):
    # a chunk drawn with its slice of the split's seeds gives the rows the
    # whole split gives, wherever the chunks fall
    cfg, clips, codecs, stacks, net, heads, proj = _split_setup("midpoint")
    rows = len(clips[0].audio)
    seeds = evaluate._clip_seeds(cfg.seed, len(clips))
    sizes = _count_chunks(monkeypatch, evaluate)
    splits = []
    for budget, expected in ((len(clips) * rows, [6]), (4 * rows + rows // 2, [4, 2]),
                             (rows - 1, [1] * 6)):
        monkeypatch.setattr(synthdata, "_CHUNK_ROWS", budget)
        sizes.clear()
        chunks = [generate_split(cfg, chunk, seeds[start:start + len(chunk)], net, heads,
                                 stacks, codecs, proj=proj)
                  for start, chunk in clips.chunks()]
        assert sizes == expected
        splits.append({p: np.concatenate([c[p] for c in chunks]) for p in PART_ORDER})
    whole = generate_split(cfg, clips, seeds, net, heads, stacks, codecs, proj=proj)
    assert list(whole) == list(PART_ORDER)
    for chunked in splits:
        for p in PART_ORDER:
            assert whole[p].shape == chunked[p].shape == (6, 32, PART_JOINTS[p])
            assert whole[p].tobytes() == chunked[p].tobytes()


def _count_chunks(monkeypatch, module, name="sample_batch"):
    """The clip count of every call `module` makes to its sampler `name`:
    `sample_batch` for evaluation, `generate_batch` for the CLI."""
    sizes = []
    original = getattr(module, name)

    def counted(net, stacks, decoders, conds, configs, **kwargs):
        sizes.append(len(conds))
        return original(net, stacks, decoders, conds, configs, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return sizes


def test_generate_split_default_budget_takes_32_clips_of_16_rows(monkeypatch):
    cfg, clips, codecs, stacks, net, heads, proj = _split_setup("euler", n_frames=64)
    assert len(clips[0].audio) == 16
    sizes = _count_chunks(monkeypatch, evaluate)
    clips = clips[np.arange(40) % len(clips)]
    assert [(start, len(chunk)) for start, chunk in clips.chunks()] == [(0, 32), (32, 8)]
    evaluate.evaluate_run(cfg, types.SimpleNamespace(splits={"test": clips}), codecs,
                          stacks, net=net, heads=heads, proj=proj)
    assert sizes == [32, 8]


def test_evaluate_run_json_is_the_same_at_every_budget(monkeypatch):
    cfg, clips, codecs, stacks, net, heads, proj = _split_setup("midpoint")
    ds = types.SimpleNamespace(splits={"test": clips})
    sizes = _count_chunks(monkeypatch, evaluate)
    outputs = []
    for budget in (32, synthdata._CHUNK_ROWS):
        monkeypatch.setattr(synthdata, "_CHUNK_ROWS", budget)
        report, details = evaluate.evaluate_run(cfg, ds, codecs, stacks, net=net,
                                                heads=heads, proj=proj)
        outputs.append((report.to_json(), json.dumps(details, sort_keys=True, indent=2)))
    assert sizes == [4, 2, 6]
    assert outputs[0] == outputs[1]


def _reference_evaluate(cfg, clips, codecs, stacks, net, heads, proj, self_eval):
    """evaluate_run's report and details JSON from the per-clip chain the
    array tail replaced: each clip drawn alone, its features from the
    single-clip encoder pipeline, its peaks and beat consistency one clip
    at a time."""
    real = [{p: u.motion[p] for p in PART_ORDER} for u in clips]
    gen = real
    if not self_eval:
        seeds = evaluate._clip_seeds(cfg.seed, len(clips))
        gen = [generate(net, stacks, codecs, condition_for_clip(u.audio, u.text, net, heads),
                        OdeConfig(n=cfg.sampler.steps, scheme=cfg.sampler.scheme,
                                  seed=int(s)), proj=proj, scale=cfg.sacm.scale,
                        config_hash=config_hash(cfg)).parts
               for u, s in zip(clips, seeds)]
        gen = [{p: m[p].frames for p in PART_ORDER} for m in gen]

    def features(motions):
        return np.stack([(np.concatenate(
            [encode_part(MotionClip(p, m[p]), codecs[p]).sequence for p in PART_ORDER],
            axis=1) * (1.0 / cfg.sacm.scale)).mean(axis=0) for m in motions])

    f_real, f_gen = features(real), features(gen)

    def bc_alone(motion, onsets, sigma=cfg.metrics.sigma):
        speed = np.zeros(len(motion[PART_ORDER[0]]) - 1)
        for p in PART_ORDER:
            speed += np.linalg.norm(np.diff(motion[p], axis=0), axis=1)
        peaks = _find_peaks(speed, speed.mean() + 0.5 * speed.std(), 3) / cfg.dataset.fps
        if peaks.size == 0:
            return 0.0
        delta = peaks[:, None] - onsets[None, :]
        return float(np.mean(np.exp(-np.min(delta * delta, axis=1) / (2.0 * sigma * sigma))))

    bc = [bc_alone(m, np.asarray(u.onsets)) for u, m in zip(clips, gen)]
    return _report_json(cfg, clips, f_real, f_gen, bc, self_eval)


def _report_json(cfg, clips, f_real, f_gen, bc, self_eval):
    """evaluate_run's report and details JSON from a split's real and
    generated features and its per-clip beat consistency."""
    groups = {}
    for i, c in enumerate(clips.class_id.tolist()):
        groups.setdefault(c, []).append(i)
    matched = {c: fgd(f_real[idx], f_gen[idx]) for c, idx in groups.items()}
    cross = [fgd(f_real[groups[c2]], f_gen[groups[c]]) for c in groups for c2 in groups
             if c2 != c]
    report = MetricReport(fgd=fgd(f_real, f_gen), bc=float(np.mean(bc)),
                          diversity=diversity(f_gen), config_hash=config_hash(cfg),
                          n_real=len(clips), n_gen=len(clips))
    details = {"fgd_matched": float(np.mean(list(matched.values()))),
               "fgd_mismatched": float(np.mean(cross)),
               "fgd_by_class": {str(c): matched[c] for c in sorted(matched)},
               "bc_per_clip": bc, "diversity_real": diversity(f_real),
               "split": "test", "self_eval": self_eval}
    return report.to_json(), json.dumps(details, sort_keys=True, indent=2)


@pytest.mark.parametrize("self_eval", [False, True])
def test_evaluate_run_json_equals_the_per_clip_chain(monkeypatch, self_eval):
    cfg, clips, codecs, stacks, net, heads, proj = _split_setup("euler")
    ds = types.SimpleNamespace(splits={"test": clips})
    expected = _reference_evaluate(cfg, clips, codecs, stacks, net, heads, proj, self_eval)
    assert json.loads(expected[1])["bc_per_clip"][0] > 0.0
    for budget in (3 * len(clips[0].audio) // 2, synthdata._CHUNK_ROWS):
        monkeypatch.setattr(synthdata, "_CHUNK_ROWS", budget)
        report, details = evaluate.evaluate_run(cfg, ds, codecs, stacks, net=net,
                                                heads=heads, proj=proj, self_eval=self_eval)
        assert (report.to_json(), json.dumps(details, sort_keys=True, indent=2)) == expected


def test_evaluate_run_refuses_to_generate_without_a_projection():
    cfg, clips, codecs, stacks, net, heads, _ = _split_setup("euler")
    ds = types.SimpleNamespace(splits={"test": clips})
    with pytest.raises(NumericError, match="manifold projection"):
        evaluate.evaluate_run(cfg, ds, codecs, stacks, net=net, heads=heads)
    report, _ = evaluate.evaluate_run(cfg, ds, codecs, stacks, self_eval=True)
    assert report.fgd <= 1e-6


def _whole_split_evaluate(cfg, clips, codecs, stacks, net, heads, proj, self_eval):
    """evaluate_run's report and details JSON from the whole-split chain
    the chunked pass replaced: every clip drawn in one `sample_batch` call,
    then the features, kinematic peaks and beat consistency of the whole
    split at once."""
    gen = clips.motion if self_eval else generate_split(
        cfg, clips, evaluate._clip_seeds(cfg.seed, len(clips)), net, heads, stacks, codecs,
        proj=proj)
    fps = cfg.dataset.fps
    bc = beat_consistency(extract_kinematic_peaks(gen, fps), clips.onsets,
                          sigma=cfg.metrics.sigma)
    return _report_json(cfg, clips, motion_features(clips.motion, codecs, scale=cfg.sacm.scale),
                        motion_features(gen, codecs, scale=cfg.sacm.scale), bc.tolist(),
                        self_eval)


@pytest.mark.parametrize("self_eval", [False, True])
def test_evaluate_run_chunks_equal_the_whole_split_chain(monkeypatch, self_eval):
    # 6 clips in chunks of 4: the last chunk is partial
    cfg, clips, codecs, stacks, net, heads, proj = _split_setup("midpoint")
    ds = types.SimpleNamespace(splits={"test": clips})
    expected = _whole_split_evaluate(cfg, clips, codecs, stacks, net, heads, proj, self_eval)
    monkeypatch.setattr(synthdata, "_CHUNK_ROWS", 4 * len(clips[0].audio))
    sizes = _count_chunks(monkeypatch, evaluate)
    features = []
    monkeypatch.setattr(evaluate, "motion_features", lambda parts, *a, **k: features.append(
        len(parts[PART_ORDER[0]])) or motion_features(parts, *a, **k))
    report, details = evaluate.evaluate_run(cfg, ds, codecs, stacks, net=net, heads=heads,
                                            proj=proj, self_eval=self_eval)
    assert sizes == ([] if self_eval else [4, 2])
    assert features == ([4, 2] if self_eval else [4, 4, 2, 2])
    assert (report.to_json(), json.dumps(details, sort_keys=True, indent=2)) == expected


def test_velocity_forward_scalar_t_batch_equals_single_calls_bitwise():
    net, _, _, _ = _small_setup()
    for t in (net.tcam_o, net.align_w):
        t.data = np.random.default_rng(1).standard_normal(t.shape)
    rng = np.random.default_rng(2)
    z = rng.standard_normal((5, 6, net.d_model))
    cond = rng.standard_normal((5, 6, net.d_cond))
    batch = velocity_forward(net, z, 0.3, prepare_condition(net, cond)).data
    for i in range(5):
        one = velocity_forward(net, z[i:i + 1], 0.3,
                               prepare_condition(net, cond[i:i + 1])).data
        assert batch[i].tobytes() == one[0].tobytes()


def test_generate_batch_rejects_mixed_ode_configs():
    net, decoders, stacks, cond = _small_setup(length=8)
    proj = init_manifold_projection(net.d_model)
    with pytest.raises(NumericError, match="step count and scheme"):
        generate_batch(net, stacks, decoders, [cond, cond],
                       [OdeConfig(n=2), OdeConfig(n=3)], proj, "h")
    with pytest.raises(NumericError, match="step count and scheme"):
        generate_batch(net, stacks, decoders, [cond, cond],
                       [OdeConfig(n=2), OdeConfig(n=2, scheme="midpoint")], proj, "h")
    with pytest.raises(NumericError, match="at least one ODE config"):
        generate_batch(net, stacks, decoders, [], [], proj, "h")


TINY_RUN = {"seed": 2, "dataset": {"n_classes": 3, "n_clips": 20, "n_frames": 32,
                                   "n_onsets": 3, "ratios": [0.6, 0.0, 0.4]},
            "codec": {"epochs": 1, "batch": 8, "n_codes": 16},
            "flow": {"epochs": 1, "batch": 8}, "sampler": {"steps": 3}}


def test_cli_generate_count_matches_single_draws(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_RUN))
    common = ["--config", str(cfg_path), "--out", str(tmp_path)]
    ck1, ck2 = tmp_path / "codec.bin", tmp_path / "generator.bin"
    assert main(["train-codec", *common]) == 0
    assert main(["train-generator", *common, "--checkpoint", str(ck1)]) == 0
    assert main(["generate", *common, "--checkpoint", str(ck1), "--checkpoint",
                 str(ck2), "--clip-id", "1", "--count", "3"]) == 0
    capsys.readouterr()

    cfg = config_from_dict(TINY_RUN)
    codecs, stacks = load_stage1_checkpoint(ck1)
    net, heads, proj = load_stage2_checkpoint(ck2)
    u = build_dataset(cfg.dataset).splits["test"][1]
    cond = condition_for_clip(u.audio, u.text, net, heads)
    for i in range(3):
        seed = json.loads((tmp_path / f"gen_{i:03d}.json").read_text())["seed"]
        single = generate(net, stacks, codecs, cond,
                          OdeConfig(n=3, scheme=cfg.sampler.scheme, seed=seed),
                          proj=proj, scale=cfg.sacm.scale, fps=cfg.dataset.fps,
                          config_hash=config_hash(cfg))
        path = write_motion_csv(single, tmp_path / f"single_{i}.csv")
        assert path.read_bytes() == (tmp_path / f"gen_{i:03d}.csv").read_bytes()


def test_cli_generate_count_in_chunks_writes_the_same_files(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_RUN))
    common = ["--config", str(cfg_path), "--out", str(tmp_path)]
    ck1, ck2 = tmp_path / "codec.bin", tmp_path / "generator.bin"
    assert main(["train-codec", *common]) == 0
    assert main(["train-generator", *common, "--checkpoint", str(ck1)]) == 0
    sizes = _count_chunks(monkeypatch, cli, "generate_batch")
    dataset = config_from_dict(TINY_RUN).dataset
    written = []
    for budget, out in ((synthdata._CHUNK_ROWS, "whole"),
                        (dataset.n_frames // dataset.downsample, "chunked")):
        monkeypatch.setattr(synthdata, "_CHUNK_ROWS", budget)
        capsys.readouterr()
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / out),
                     "--checkpoint", str(ck1), "--checkpoint", str(ck2),
                     "--clip-id", "1", "--count", "5"]) == 0
        assert capsys.readouterr().out.count(str(tmp_path / out)) == 10
        written.append({f.name: f.read_bytes() for f in (tmp_path / out).iterdir()})
    assert sizes == [5, 1, 1, 1, 1, 1]
    assert len(written[0]) == 10 and written[0] == written[1]


# one process runs both stages and `generate --count 2`; argv: config, out dir
_CLI_RUN = """
import sys
from cfmlab.cli import main
cfg, out = sys.argv[1:]
codec, generator = f"{out}/codec.bin", f"{out}/generator.bin"
for argv in (["train-codec"], ["train-generator", "--checkpoint", codec],
             ["generate", "--checkpoint", codec, "--checkpoint", generator,
              "--count", "2"]):
    if main([*argv, "--config", cfg, "--out", out]):
        sys.exit(1)
"""


def test_cli_run_is_byte_identical_in_two_fresh_processes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_RUN))
    env = dict(os.environ, CFMLAB_THREADS="1",
               PYTHONPATH=str(Path(cfmlab.__file__).resolve().parents[1]))
    runs = []
    for name in ("a", "b"):
        proc = subprocess.run([sys.executable, "-c", _CLI_RUN, str(cfg_path),
                               str(tmp_path / name)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-500:]
        runs.append({f.name: f.read_bytes() for f in (tmp_path / name).iterdir()
                     if f.suffix in (".bin", ".csv")})
    assert sorted(runs[0]) == ["codec.bin", "gen_000.csv", "gen_001.csv", "generator.bin"]
    assert runs[0] == runs[1]
