"""Part codecs: shapes, RVQ nearest-neighbor oracles, EMA recurrence, losses."""

import numpy as np
import pytest

from cfmlab.checkpoint import load_checkpoint, save_checkpoint
from cfmlab.codec import (
    PART_JOINTS,
    PART_ORDER,
    CodebookStack,
    CodeSequence,
    MotionClip,
    PartCodecParams,
    PartLatent,
    commitment_loss,
    decode_part,
    decode_part_batch,
    ema_codebook_update,
    encode_part,
    encode_part_batch,
    init_codebook_stack,
    init_part_codec,
    rvq_dequantize,
    rvq_dequantize_batch,
    rvq_quantize,
    rvq_quantize_batch,
    straight_through,
)
from cfmlab.config import config_from_dict
from cfmlab.synthdata import build_dataset
from cfmlab.training import train_codec
from cfmlab.numerics import (
    NumericError,
    Tensor,
    finite_difference_gradient,
    grad,
    max_rel_err,
    mean,
    mse,
    sum_,
)


def _clip(rng, part="upper", t=64):
    return MotionClip(part, rng.standard_normal((t, PART_JOINTS[part])))


# ------------------------------------------------------------ encoder/decoder

def test_encode_shape_contract():
    rng = np.random.default_rng(0)
    params = init_part_codec(rng, "hand", downsample=4, d_g=8)
    latent = encode_part(_clip(rng, "hand"), params)
    assert latent.sequence.shape == (16, 8)


def test_encode_deterministic():
    rng = np.random.default_rng(1)
    params = init_part_codec(rng, "face")
    clip = _clip(rng, "face")
    a = encode_part(clip, params)
    b = encode_part(MotionClip("face", clip.frames.copy()), params)
    assert np.array_equal(a.sequence, b.sequence)


def test_encode_zero_clip_zero_final_layer():
    rng = np.random.default_rng(2)
    params = init_part_codec(rng, "lower")
    params.enc_w2.data[...] = 0.0
    params.enc_b2.data[...] = 0.0
    latent = encode_part(MotionClip("lower", np.zeros((64, 8))), params)
    assert np.all(latent.sequence == 0.0)


def test_encode_rejects_indivisible_length():
    rng = np.random.default_rng(3)
    params = init_part_codec(rng, "upper", downsample=4)
    with pytest.raises(NumericError):
        encode_part(_clip(rng, "upper", t=62), params)


def test_encode_rejects_part_mismatch():
    rng = np.random.default_rng(4)
    params = init_part_codec(rng, "upper")
    with pytest.raises(NumericError):
        encode_part(_clip(rng, "hand"), params)


def test_decode_shape_contract():
    rng = np.random.default_rng(5)
    params = init_part_codec(rng, "upper", downsample=4, d_g=8)
    clip = decode_part(PartLatent("upper", rng.standard_normal((16, 8))), params)
    assert clip.frames.shape == (64, 12)


def test_roundtrip_preserves_shape():
    rng = np.random.default_rng(6)
    for part in PART_ORDER:
        params = init_part_codec(rng, part)
        clip = _clip(rng, part)
        rec = decode_part(encode_part(clip, params), params)
        assert rec.frames.shape == clip.frames.shape


def test_batch_matches_single():
    rng = np.random.default_rng(7)
    params = init_part_codec(rng, "hand")
    frames = rng.standard_normal((3, 64, 24))
    zs = encode_part_batch(frames, params).data
    for i in range(3):
        single = encode_part(MotionClip("hand", frames[i]), params)
        assert np.allclose(zs[i], single.sequence, atol=1e-14)
    recs = decode_part_batch(zs, params).data
    for i in range(3):
        single = decode_part(PartLatent("hand", zs[i]), params)
        assert np.allclose(recs[i], single.frames, atol=1e-14)


# -------------------------------------------------------------------- RVQ

def _stack(part, books):
    return CodebookStack(
        part=part,
        stages=[np.asarray(b, dtype=np.float64) for b in books],
        ema_counts=[np.ones(len(b)) for b in books],
        ema_vectors=[np.asarray(b, dtype=np.float64).copy() for b in books],
    )


def test_rvq_two_code_example():
    stack = _stack("hand", [[[0.0, 0.0], [1.0, 1.0]]])
    latent = PartLatent("hand", [[0.9, 1.2]])
    q, codes = rvq_quantize(latent, stack)
    assert codes.codes.tolist() == [[1]]
    assert np.array_equal(q.sequence, [[1.0, 1.0]])
    residual = np.linalg.norm(latent.sequence - q.sequence, axis=-1)
    assert residual[0] == pytest.approx(np.hypot(0.1, 0.2), abs=1e-15)


def test_rvq_exact_row_gives_zero_residual():
    stack = _stack("face", [[[0.5, -0.25], [2.0, 3.0]]])
    q, codes = rvq_quantize(PartLatent("face", [[2.0, 3.0]]), stack)
    assert codes.codes.tolist() == [[1]]
    assert q.sequence.tolist() == [[2.0, 3.0]]


def test_rvq_matches_exhaustive_search():
    rng = np.random.default_rng(8)
    d, k, depth, n = 6, 16, 3, 40
    z = rng.standard_normal((n, d))
    stack = init_codebook_stack(rng, "upper", n_codes=k, depth=depth, d_g=d, init_data=z)
    _, codes = rvq_quantize_batch(z, stack.stages)
    for i in range(n):
        residual = z[i].copy()
        for s, book in enumerate(stack.stages):
            dists = [float(np.linalg.norm(residual - book[c])) for c in range(k)]
            best = int(np.argmin(dists))
            assert codes[i, s] == best
            residual = residual - book[best]


def test_rvq_residual_norms_non_increasing():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((200, 8))
    stack = init_codebook_stack(rng, "hand", n_codes=32, depth=3, d_g=8, init_data=z)
    # the residual each stage took, then the one the last stage left
    q, _, inputs = rvq_quantize_batch(z, stack.stages, return_stage_inputs=True)
    norms = np.linalg.norm(np.stack(inputs[1:] + [z - q], axis=-2), axis=-1)
    assert np.all(np.diff(norms, axis=-1) <= 1e-12)


def _old_rvq(z, stages):
    """rvq_quantize_batch before it built its scores in place, kept as the
    reference: (quantized, codes, stage inputs, scores per stage)."""
    residual = z.copy()
    quantized = np.zeros_like(z)
    codes, inputs, scores = [], [], []
    for book in stages:
        inputs.append(residual.copy())
        scores.append(np.sum(book * book, axis=1) - 2.0 * (residual @ book.T))
        idx = np.argmin(scores[-1], axis=-1)
        quantized += book[idx]
        residual -= book[idx]
        codes.append(idx)
    return quantized, np.stack(codes, -1), inputs, scores


def _tie_case(rng):
    # every code but the first scores exactly 1, so argmin must take code 1
    book = np.array([[3.0, 3.0], [1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    return np.array([[0.0, 0.5], [0.0, -2.0]]), [book, book]


RVQ_CASES = {
    "batched": lambda r: (r.standard_normal((4, 32, 8)),
                          [r.standard_normal((64, 8)) * 0.5 ** s for s in range(3)]),
    "single_vector": lambda r: (r.standard_normal(6), [r.standard_normal((16, 6))]),
    "tie": _tie_case,
}


@pytest.mark.parametrize("case", sorted(RVQ_CASES))
def test_rvq_scores_and_codes_match_the_old_expression_bitwise(case, monkeypatch):
    z, stages = RVQ_CASES[case](np.random.default_rng(len(case)))
    seen = []  # the score matrix each stage hands to argmin
    argmin = np.argmin
    monkeypatch.setattr(np, "argmin", lambda a, axis=None: seen.append(a.copy()) or argmin(a, axis=axis))
    got = rvq_quantize_batch(z, stages, return_stage_inputs=True)
    monkeypatch.undo()
    ref = _old_rvq(z, stages)
    assert got[1].dtype == np.int64
    for g, r in zip(got[:2], ref[:2]):
        assert g.shape == r.shape and g.tobytes() == r.tobytes()
    for g, r in zip(got[2], ref[2]):
        assert g.tobytes() == r.tobytes()
    assert len(seen) == len(stages)
    for g, r in zip(seen, ref[3]):
        assert g.tobytes() == r.tobytes()
    if case == "tie":  # the first of the tied codes wins
        assert got[1][0, 0] == 1


def test_rvq_rejects_empty_stack():
    with pytest.raises(NumericError):
        rvq_quantize(PartLatent("hand", np.zeros((4, 2))), CodebookStack("hand"))


def test_rvq_rejects_dim_mismatch():
    stack = _stack("hand", [np.zeros((4, 3))])
    with pytest.raises(NumericError):
        rvq_quantize(PartLatent("hand", np.zeros((4, 2))), stack)


def test_dequantize_roundtrip():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((16, 4))
    stack = init_codebook_stack(rng, "lower", n_codes=8, depth=2, d_g=4, init_data=z)
    latent = PartLatent("lower", z)
    q, codes = rvq_quantize(latent, stack)
    back = rvq_dequantize(codes, stack)
    assert np.array_equal(back.sequence, q.sequence)


def test_dequantize_single_code():
    stack = _stack("face", [[[1.5, -2.0], [0.0, 1.0]]])
    out = rvq_dequantize(CodeSequence("face", [[0]]), stack)
    assert np.array_equal(out.sequence, [[1.5, -2.0]])


def test_dequantize_explicit_sum():
    rng = np.random.default_rng(11)
    books = [rng.standard_normal((5, 3)), rng.standard_normal((5, 3))]
    codes = rng.integers(0, 5, size=(7, 2))
    out = rvq_dequantize_batch(codes, books)
    expect = books[0][codes[:, 0]] + books[1][codes[:, 1]]
    assert np.array_equal(out, expect)


def test_dequantize_rejects_out_of_range():
    stack = _stack("hand", [[[0.0, 0.0], [1.0, 1.0]]])
    with pytest.raises(NumericError):
        rvq_dequantize(CodeSequence("hand", [[2]]), stack)


# ------------------------------------------------------------------- losses

def test_commitment_zero_when_equal():
    z = np.ones((2, 4, 2))
    assert commitment_loss(z, np.ones((2, 4, 2))).item() == 0.0
    assert commitment_loss(Tensor(z), z.copy()).item() == 0.0


def test_commitment_two_element_example():
    z = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
    q = np.array([[0.0, 0.0]])
    assert commitment_loss(z, q).item() == pytest.approx(0.5, abs=1e-15)


def test_commitment_gradients():
    rng = np.random.default_rng(12)
    z = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    book = rng.standard_normal((4, 3))  # an array: the stop-gradient side

    def f():
        return commitment_loss(z, book)

    g = grad(f(), [z])
    fd = finite_difference_gradient(lambda _t: f(), z, 1e-6)
    assert max_rel_err(g[z], fd) < 1e-8


def test_commitment_rejects_shape_mismatch():
    with pytest.raises(NumericError):
        commitment_loss(Tensor(np.zeros((4, 2))), np.zeros((3, 2)))


def _stage1_curves(beta):
    """Loss curves of a tiny stage-1 run: training sums the objective inline
    as mean rec + beta * mean com over the four parts."""
    cfg = config_from_dict({
        "seed": 2, "dataset": {"n_classes": 2, "n_clips": 8, "n_frames": 32,
                               "n_onsets": 2, "ratios": [0.75, 0.0, 0.25]},
        "codec": {"epochs": 2, "batch": 4, "n_codes": 8, "beta": beta}})
    return train_codec(cfg, build_dataset(cfg.dataset))[2].curves


def test_stage1_loss_zero_at_perfect_fit():
    # a reconstruction equal to the clip and a latent equal to its code
    # leave both terms of the stage-1 objective at exactly zero
    rng = np.random.default_rng(13)
    params = init_part_codec(rng, "upper", downsample=4, d_g=4)
    frames = rng.standard_normal((2, 8, 12))
    z = encode_part_batch(frames, params)
    rec = mse(Tensor(frames.copy()), Tensor(frames))
    assert (rec + Tensor(0.25) * commitment_loss(z, z.data)).item() == 0.0


def test_stage1_loss_beta_zero_is_mse():
    curves = _stage1_curves(beta=0.0)
    assert all(c > 0.0 for c in curves["com"])
    assert curves["total"] == curves["rec"]


def test_stage1_loss_is_sum_of_terms():
    curves = _stage1_curves(beta=0.25)
    assert all(c > 0.0 for c in curves["com"])
    expect = [r + 0.25 * c for r, c in zip(curves["rec"], curves["com"])]
    assert curves["total"] == pytest.approx(expect, rel=1e-14)


def test_straight_through_end_to_end_gradient():
    rng = np.random.default_rng(15)
    params = init_part_codec(rng, "lower", downsample=4, d_g=4)
    frames = rng.standard_normal((2, 16, 8))
    z0 = encode_part_batch(frames, params).data
    stack = init_codebook_stack(rng, "lower", n_codes=8, depth=2, d_g=4,
                                init_data=z0.reshape(-1, 4))
    q0, _ = rvq_quantize_batch(z0, stack.stages)
    delta = q0 - z0  # quantization frozen as identity-plus-constant

    def f():
        z = encode_part_batch(frames, params)
        dec_in = z + Tensor(delta)
        rec = decode_part_batch(dec_in, params)
        return mse(rec, Tensor(frames)) + Tensor(0.25) * commitment_loss(
            z, z.data + delta)

    params_named = {f"p{i}": p for i, p in enumerate(params.parameters())}
    g = grad(f(), list(params_named.values()))
    for name, p in params_named.items():
        fd = finite_difference_gradient(lambda _t: f(), p, 1e-6)
        err = max_rel_err(g[p], fd)
        assert err < 1e-3, f"{name}: rel err {err:.2e}"
        assert np.all(np.isfinite(g[p].data))


# ---------------------------------------------------------------------- EMA

def test_ema_decay_one_is_identity():
    rng = np.random.default_rng(16)
    z = rng.standard_normal((20, 4))
    stack = init_codebook_stack(rng, "hand", n_codes=4, depth=1, d_g=4, init_data=z)
    before = [b.copy() for b in stack.stages]
    _, codes, inputs = rvq_quantize_batch(z, stack.stages, return_stage_inputs=True)
    ema_codebook_update(stack, codes, inputs, decay=1.0, rng=rng)
    assert np.array_equal(stack.stages[0], before[0])


def test_ema_decay_zero_gives_batch_mean():
    z = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
    stack = _stack("hand", [[[0.0, 0.0]]])  # single code takes everything
    _, codes, inputs = rvq_quantize_batch(z, stack.stages, return_stage_inputs=True)
    ema_codebook_update(stack, codes, inputs, decay=0.0, rng=np.random.default_rng(0))
    assert np.allclose(stack.stages[0][0], z.mean(axis=0), atol=1e-15)


def test_ema_two_step_matches_unrolled_recurrence():
    gamma = 0.9
    stack = _stack("upper", [[[0.0, 0.0], [4.0, 4.0]]])
    batches = [
        np.array([[0.2, 0.0], [3.8, 4.2], [0.0, -0.2]]),
        np.array([[0.1, 0.1], [4.4, 3.6], [3.9, 4.1]]),
    ]
    counts = np.ones(2)
    vectors = stack.ema_vectors[0].copy()
    for batch in batches:
        _, codes, inputs = rvq_quantize_batch(batch, stack.stages,
                                                 return_stage_inputs=True)
        # hand-unrolled recurrence on the same assignments
        n = np.bincount(codes[:, 0], minlength=2).astype(float)
        s = np.zeros((2, 2))
        for i, c in enumerate(codes[:, 0]):
            s[c] += inputs[0][i]
        counts = gamma * counts + (1 - gamma) * n
        vectors = gamma * vectors + (1 - gamma) * s
        expect = vectors / np.maximum(counts, 1e-8)[:, None]
        ema_codebook_update(stack, codes, inputs, decay=gamma, rng=np.random.default_rng(1))
        assert np.allclose(stack.stages[0], expect, atol=1e-12)
        assert np.allclose(stack.ema_counts[0], counts, atol=1e-12)


def test_ema_reseeds_dead_codes():
    rng = np.random.default_rng(17)
    z = rng.standard_normal((30, 3)) + 10.0  # far from the stale code at origin
    stack = _stack("face", [np.vstack([z[:2] + 1e-3, [[0.0, 0.0, 0.0]]])])
    stack.ema_counts[0][:] = [1.0, 1.0, 0.5]
    _, codes, inputs = rvq_quantize_batch(z, stack.stages, return_stage_inputs=True)
    assert not np.any(codes == 2)  # origin code is dead
    ema_codebook_update(stack, codes, inputs, decay=0.99, rng=rng)
    reseeded = stack.stages[0][2]
    assert any(np.allclose(reseeded, v) for v in z)
    assert stack.ema_counts[0][2] == 1.0


def _add_at_sums(codes, vecs, k):
    """The per-code sums of ema_codebook_update before it used bincount."""
    sums = np.zeros((k, vecs.shape[-1]))
    np.add.at(sums, codes, vecs)
    return sums


# name -> (codes of one stage, that stage's inputs, k)
EMA_CASES = {
    "many_rows": lambda r: (r.integers(0, 64, size=4096), r.standard_normal((4096, 8)), 64),
    "unused_codes": lambda r: (np.array([0, 3, 3, 9]), r.standard_normal((4, 3)), 16),
    "one_code": lambda r: (np.full(300, 5), r.standard_normal((300, 4)) * 1e3, 8),
    "zero_rows": lambda r: (np.zeros(0, dtype=np.int64), np.zeros((0, 4)), 8),
}


@pytest.mark.parametrize("decay", [0.0, 0.9])
@pytest.mark.parametrize("case", sorted(EMA_CASES))
def test_ema_sums_match_add_at_bitwise(case, decay):
    rng = np.random.default_rng(len(case))
    codes, vecs, k = EMA_CASES[case](rng)
    book = rng.standard_normal((k, vecs.shape[1]))
    stack = _stack("hand", [book])
    ema_before = stack.ema_vectors[0].copy()
    counts_before = stack.ema_counts[0].copy()
    # a zero threshold reseeds nothing, so the EMA rows are the recurrence
    ema_codebook_update(stack, codes[:, None], [vecs], decay=decay,
                        rng=np.random.default_rng(0), reseed_threshold=0.0)
    counts = np.bincount(codes, minlength=k).astype(np.float64)
    sums = _add_at_sums(codes, vecs, k)
    want = decay * ema_before + (1.0 - decay) * sums
    assert stack.ema_vectors[0].tobytes() == want.tobytes()
    want = decay * counts_before + (1.0 - decay) * counts
    assert stack.ema_counts[0].tobytes() == want.tobytes()


def test_ema_rejects_bad_decay():
    stack = _stack("hand", [[[0.0, 0.0]]])
    with pytest.raises(NumericError):
        ema_codebook_update(stack, np.zeros((1, 1), dtype=np.int64),
                            [np.zeros((1, 2))], decay=1.5)


# ----------------------------------------------------------------- checkpoint

def test_stack_checkpoint_names_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    z = rng.standard_normal((50, 8))
    stack = init_codebook_stack(rng, "hand", n_codes=16, depth=2, d_g=8, init_data=z)
    p = tmp_path / "stage1.bin"
    save_checkpoint(p, stack.named_tensors())
    loaded = load_checkpoint(p)
    assert set(loaded) == {"codebook/hand/0", "codebook/hand/1"}
    back = CodebookStack.from_named_tensors(loaded, "hand")
    for a, b in zip(back.stages, stack.stages):
        assert np.array_equal(a, b)


def test_codec_params_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(19)
    params = init_part_codec(rng, "face")
    p = tmp_path / "codec.bin"
    save_checkpoint(p, params.named_tensors())
    back = PartCodecParams.from_named_tensors(load_checkpoint(p), "face")
    for a, b in zip(back.parameters(), params.parameters()):
        assert np.array_equal(a.data, b.data)
