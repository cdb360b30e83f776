"""Stage-1 motion codecs: per-part window MLPs plus residual vector quantization.

Each body part (hand, upper, lower, face) gets its own encoder, decoder and
RVQ codebook stack. The encoder flattens non-overlapping windows of
`downsample` frames and maps window -> hidden -> d_g; the decoder mirrors it.
Quantization itself is pure numpy (argmin has no gradient); the training loop
routes gradients around it with `straight_through`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import CheckpointError, Weights
from .numerics import NumericError, Tensor, as_tensor, gelu, matmul, mse, \
    neighbour_linear, reshape, uniform_init, zeros_init

PART_ORDER = ("hand", "upper", "lower", "face")
PART_JOINTS = {"hand": 24, "upper": 12, "lower": 8, "face": 16}
HIDDEN = 64

__all__ = [
    "PART_ORDER",
    "PART_JOINTS",
    "MotionClip",
    "PartLatent",
    "CodeSequence",
    "CodebookStack",
    "PartCodecParams",
    "init_part_codec",
    "init_codebook_stack",
    "encode_part",
    "encode_part_batch",
    "decode_part",
    "decode_part_batch",
    "rvq_quantize",
    "rvq_quantize_batch",
    "rvq_dequantize",
    "rvq_dequantize_batch",
    "straight_through",
    "commitment_loss",
    "ema_codebook_update",
]


def _require_part(part):
    if part not in PART_ORDER:
        raise NumericError(f"unknown body part {part!r}; expected one of {PART_ORDER}")


@dataclass
class MotionClip:
    part: str
    frames: np.ndarray  # (T, J)
    fps: float = 15.0

    def __post_init__(self):
        _require_part(self.part)
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != PART_JOINTS[self.part]:
            raise NumericError(
                f"{self.part} clip must be (T, {PART_JOINTS[self.part]}), got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise NumericError(f"non-finite frames in {self.part} clip")


# stays as the type of the per-clip names perfbench wraps (perfbench/layers.py)
@dataclass
class PartLatent:
    part: str
    sequence: np.ndarray  # (L, d_g)

    def __post_init__(self):
        _require_part(self.part)
        self.sequence = np.asarray(self.sequence, dtype=np.float64)
        if self.sequence.ndim != 2:
            raise NumericError(f"latent must be (L, d_g), got {self.sequence.shape}")


@dataclass
class CodeSequence:
    part: str
    codes: np.ndarray  # (L, depth) int64

    def __post_init__(self):
        _require_part(self.part)
        self.codes = np.asarray(self.codes, dtype=np.int64)
        if self.codes.ndim != 2:
            raise NumericError(f"codes must be (L, depth), got {self.codes.shape}")


@dataclass
class CodebookStack:
    part: str
    stages: list = field(default_factory=list)       # depth x (K, d_g)
    ema_counts: list = field(default_factory=list)   # depth x (K,)
    ema_vectors: list = field(default_factory=list)  # depth x (K, d_g)
    # row 0 of every stage pinned to the zero vector: guarantees each greedy
    # stage can never make the residual worse (min_c ||r-c|| <= ||r-0||)
    null_code: bool = False

    @property
    def depth(self):
        return len(self.stages)

    def named_tensors(self):
        return {f"codebook/{self.part}/{s}": book for s, book in enumerate(self.stages)}

    @classmethod
    def from_named_tensors(cls, tensors, part):
        stages = []
        while f"codebook/{part}/{len(stages)}" in tensors:
            stages.append(np.array(tensors[f"codebook/{part}/{len(stages)}"]))
        if not stages:
            raise CheckpointError(f"no codebooks for part {part!r} in checkpoint")
        for s, book in enumerate(stages):  # stage1_from_tensors matches widths to d_g
            if book.ndim != 2 or book.shape[0] < 2:
                raise CheckpointError(f"codebook/{part}/{s}: shape {book.shape} "
                                      f"is not (K >= 2 codes, d_g)")
        return cls(
            part=part,
            stages=stages,
            ema_counts=[np.ones(b.shape[0]) for b in stages],
            ema_vectors=[b.copy() for b in stages],
            null_code=all(np.all(b[0] == 0.0) for b in stages),
        )


@dataclass
class PartCodecParams(Weights):
    _KEY = "codec/{part}/{name}"

    part: str
    enc_w1: Tensor
    enc_b1: Tensor
    enc_w2: Tensor
    enc_b2: Tensor
    dec_w1: Tensor
    dec_b1: Tensor
    dec_w2: Tensor
    dec_b2: Tensor
    # fixed (non-trained) input normalization: encode sees frames / in_scale,
    # decode multiplies its output back up. Keeps the gelu units out of
    # saturation when raw joint positions drift far from the origin.
    in_scale: float = 1.0

    @property
    def downsample(self):
        return self.enc_w1.shape[0] // PART_JOINTS[self.part]

    @property
    def d_g(self):
        return self.enc_w2.shape[1]

    def named_tensors(self):
        return {**super().named_tensors(),
                f"codec/{self.part}/in_scale": Tensor(np.float64(self.in_scale))}

    @classmethod
    def from_named_tensors(cls, tensors, part):
        params = super().from_named_tensors(tensors, part=part)
        _check_codec_shapes(part, vars(params))
        key = f"codec/{part}/in_scale"
        scale = np.asarray(cls._required(tensors, key), dtype=np.float64)
        if scale.size != 1 or not 0.0 < scale.item() < np.inf:
            raise CheckpointError(f"{key}: must be one finite number > 0, got {scale}")
        params.in_scale = scale.item()
        return params


def _check_codec_shapes(part, arrays):
    """Refuse codec weights whose shapes do not chain: window -> hidden ->
    d_g through the encoder, 3 d_g (a latent and its two neighbours) ->
    hidden -> window back."""
    def refuse(name, want):
        raise CheckpointError(
            f"codec/{part}/{name}: shape {arrays[name].shape}, expected {want}")

    for name in ("enc_w1", "enc_w2", "dec_w1"):
        if arrays[name].ndim != 2 or 0 in arrays[name].shape:
            refuse(name, "a non-empty 2-d weight")
    window, hidden = arrays["enc_w1"].shape
    if window % PART_JOINTS[part]:
        refuse("enc_w1", f"rows a multiple of the {PART_JOINTS[part]} joints")
    d_g = arrays["enc_w2"].shape[1]
    if arrays["dec_w1"].shape[0] != 3 * d_g:
        refuse("dec_w1", f"{3 * d_g} rows (3 d_g)")
    want = {"enc_b1": (hidden,), "enc_w2": (hidden, d_g), "enc_b2": (d_g,),
            "dec_w1": (3 * d_g, hidden), "dec_b1": (hidden,),
            "dec_w2": (hidden, window), "dec_b2": (window,)}
    for name, shape in want.items():
        if arrays[name].shape != shape:
            refuse(name, shape)


def init_part_codec(rng, part, downsample=4, d_g=8, hidden=HIDDEN, in_scale=1.0):
    _require_part(part)
    if not in_scale > 0.0:
        raise NumericError(f"in_scale must be positive, got {in_scale}")
    window = downsample * PART_JOINTS[part]
    # decoder consumes each window's latent with its two neighbours so
    # adjacent windows reconstruct to continuous motion at the junctions
    return PartCodecParams(
        part=part,
        enc_w1=uniform_init(rng, (window, hidden), fan_in=window),
        enc_b1=zeros_init(hidden),
        enc_w2=uniform_init(rng, (hidden, d_g), fan_in=hidden),
        enc_b2=zeros_init(d_g),
        dec_w1=uniform_init(rng, (3 * d_g, hidden), fan_in=3 * d_g),
        dec_b1=zeros_init(hidden),
        dec_w2=uniform_init(rng, (hidden, window), fan_in=hidden),
        dec_b2=zeros_init(window),
        in_scale=float(in_scale),
    )


# ------------------------------------------------------------- encode / decode

def encode_part_batch(frames, params):
    """(B, T, J) frames -> (B, L, d_g) latents through the window MLP."""
    x = as_tensor(frames)
    b, t, j = x.shape
    factor = params.downsample
    stacked = reshape(x, (b, t // factor, factor * j)) * (1.0 / params.in_scale)
    h = gelu(matmul(stacked, params.enc_w1) + params.enc_b1)
    return matmul(h, params.enc_w2) + params.enc_b2


def decode_part_batch(latent, params):
    """(B, L, d_g) latents -> (B, T, J) reconstruction. Each window's
    latent is decoded flanked by its neighbours, edges replicated, through
    one `neighbour_linear` op."""
    z = as_tensor(latent)
    b, l, _ = z.shape
    factor = params.downsample
    j = PART_JOINTS[params.part]
    h = gelu(neighbour_linear(z, params.dec_w1, params.dec_b1))
    flat = (matmul(h, params.dec_w2) + params.dec_b2) * params.in_scale
    return reshape(flat, (b, l * factor, j))


# stays only for perfbench, which wraps it on metrics (perfbench/layers.py)
def encode_part(clip, params):
    if clip.part != params.part:
        raise NumericError(f"clip part {clip.part!r} != codec part {params.part!r}")
    out = encode_part_batch(clip.frames[None], params)
    return PartLatent(clip.part, out.data[0])


# stays only for perfbench, which wraps it on sampler (perfbench/layers.py)
def decode_part(quantized, params, fps=15.0):
    if quantized.part != params.part:
        raise NumericError(f"latent part {quantized.part!r} != codec part {params.part!r}")
    out = decode_part_batch(quantized.sequence[None], params)
    return MotionClip(quantized.part, out.data[0], fps=fps)


# ---------------------------------------------------------------- quantization

# stays with rvq_quantize, its only caller
def _check_stack(stack, d):
    if stack.depth == 0:
        raise NumericError(f"empty codebook stack for part {stack.part!r}")
    for s, book in enumerate(stack.stages):
        if book.ndim != 2 or book.shape[0] == 0:
            raise NumericError(f"empty codebook at stage {s} for part {stack.part!r}")
        if book.shape[1] != d:
            raise NumericError(
                f"codebook dim {book.shape[1]} != latent dim {d} at stage {s}")


def rvq_quantize_batch(z, stages, return_stage_inputs=False):
    """Greedy residual VQ over a stack of stage codebooks.

    z: (..., d) array. Returns (quantized, codes (..., depth)[, the
    residual each stage took]).
    """
    z = np.asarray(z, dtype=np.float64)
    residual = z.copy()
    quantized = np.zeros_like(z)
    codes = np.empty(z.shape[:-1] + (len(stages),), dtype=np.int64)
    stage_inputs = []
    for s, book in enumerate(stages):
        if return_stage_inputs:
            stage_inputs.append(residual.copy())
        # argmin_k ||r - c_k||^2 = argmin_k (||c_k||^2 - 2 r.c_k), built in
        # place: ||c||^2 + (-2 r.c) is the same float as ||c||^2 - 2 r.c
        scores = residual @ book.T
        scores *= -2.0
        scores += np.sum(book * book, axis=1)
        idx = np.argmin(scores, axis=-1)
        chosen = book[idx]
        quantized += chosen
        residual -= chosen
        codes[..., s] = idx
    if return_stage_inputs:
        return quantized, codes, stage_inputs
    return quantized, codes


# stays only for sampler.quantize_regions, which perfbench wraps
def rvq_quantize(latent, stack):
    _check_stack(stack, latent.sequence.shape[1])
    q, codes = rvq_quantize_batch(latent.sequence, stack.stages)
    return PartLatent(latent.part, q), CodeSequence(latent.part, codes)


def rvq_dequantize_batch(codes, stages):
    codes = np.asarray(codes, dtype=np.int64)
    out = None
    for s, book in enumerate(stages):
        idx = codes[..., s]
        if np.any(idx < 0) or np.any(idx >= book.shape[0]):
            raise NumericError(f"code index out of range [0, {book.shape[0]}) at stage {s}")
        term = book[idx]
        out = term.copy() if out is None else out + term
    return out


# stays only for perfbench, which wraps it on sampler (perfbench/layers.py)
def rvq_dequantize(codes, stack):
    if stack.depth == 0:
        raise NumericError(f"empty codebook stack for part {stack.part!r}")
    if codes.codes.shape[1] != stack.depth:
        raise NumericError(
            f"code depth {codes.codes.shape[1]} != stack depth {stack.depth}")
    return PartLatent(codes.part, rvq_dequantize_batch(codes.codes, stack.stages))


def straight_through(latent, quantized):
    """latent + stop_gradient(quantized - latent): forward is the quantized
    value, backward treats quantization as identity."""
    if quantized.shape != latent.shape:
        raise NumericError(
            f"straight_through shape mismatch {quantized.shape} vs {latent.shape}")
    return latent + Tensor(quantized - latent.data)


def commitment_loss(latent, quantized):
    """MSE between latent and stop-gradient(quantized); pulls the encoder
    toward its selected codes without moving the codebook."""
    z = as_tensor(latent)
    if quantized.shape != z.shape:
        raise NumericError(f"commitment_loss shape mismatch {quantized.shape} vs {z.shape}")
    return mse(z, Tensor(quantized))


def ema_codebook_update(stack, codes, stage_inputs, decay, rng, reseed_threshold=1.0):
    """EMA update of every stage codebook from one batch of assignments.

    codes: (..., depth) indices from rvq_quantize_batch; stage_inputs: the
    per-stage residual inputs (same leading shape, trailing d). Dead codes
    (EMA count < reseed_threshold) are reseeded from the stage's inputs,
    drawn with `rng`.
    """
    codes = np.asarray(codes, dtype=np.int64)
    for s in range(stack.depth):
        book = stack.stages[s]
        k, d = book.shape
        idx = codes[..., s].reshape(-1)
        vecs = np.asarray(stage_inputs[s], dtype=np.float64).reshape(-1, d)
        counts = np.bincount(idx, minlength=k).astype(np.float64)
        # per column, bincount adds each bin's weights in input order, as
        # np.add.at does, at a fraction of its cost
        sums = np.stack([np.bincount(idx, weights=vecs[:, j], minlength=k)
                         for j in range(d)], axis=1)
        stack.ema_counts[s] = decay * stack.ema_counts[s] + (1.0 - decay) * counts
        stack.ema_vectors[s] = decay * stack.ema_vectors[s] + (1.0 - decay) * sums
        rows = stack.ema_vectors[s] / np.maximum(stack.ema_counts[s], 1e-8)[:, None]
        dead = np.flatnonzero(stack.ema_counts[s] < reseed_threshold)
        if stack.null_code:
            dead = dead[dead != 0]
        if dead.size:
            seeds = vecs[rng.integers(0, vecs.shape[0], size=dead.size)]
            rows[dead] = seeds
            stack.ema_vectors[s][dead] = seeds
            stack.ema_counts[s][dead] = 1.0
        if stack.null_code:
            rows[0] = 0.0
            stack.ema_vectors[s][0] = 0.0
            stack.ema_counts[s][0] = max(stack.ema_counts[s][0], 1.0)
        stack.stages[s] = rows
    return stack


def init_codebook_stack(rng, part, n_codes=64, depth=2, d_g=8, init_data=None):
    """Data-driven stack init: stage s codebook is sampled from the stage-s
    residuals of the init batch, so each stage lives at the scale it will
    quantize. Row 0 of every stage is the pinned zero (null) code. Falls
    back to small gaussian rows without data."""
    _require_part(part)
    stages = []
    if init_data is None:
        for s in range(depth):
            book = 0.1 * (0.5 ** s) * rng.standard_normal((n_codes, d_g))
            book[0] = 0.0
            stages.append(book)
    else:
        residual = np.asarray(init_data, dtype=np.float64).reshape(-1, d_g).copy()
        n = residual.shape[0]
        for s in range(depth):
            pick = rng.choice(n, size=n_codes - 1, replace=n < n_codes - 1)
            book = np.zeros((n_codes, d_g))
            book[1:] = residual[pick] + 1e-4 * rng.standard_normal((n_codes - 1, d_g))
            stages.append(book)
            scores = np.sum(book * book, axis=1) - 2.0 * (residual @ book.T)
            residual = residual - book[np.argmin(scores, axis=-1)]
    return CodebookStack(
        part=part,
        stages=stages,
        ema_counts=[np.ones(n_codes) for _ in range(depth)],
        ema_vectors=[b.copy() for b in stages],
        null_code=True,
    )
