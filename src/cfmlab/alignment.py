"""Shared embedding space for motion, audio and text.

Linear projection heads (no bias) map each modality into a common d-dim
space with row-wise L2 normalization; congruence is scored two ways: a
frame-level cosine loss against the fused audio/text target, and a
clip-level symmetric InfoNCE over temporally pooled embeddings.

Batched cores operate on Tensors of shape (B, L, d) and are differentiable;
thin wrappers expose the single-sequence dataclass API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import CheckpointError
from .codec import PART_ORDER
from .numerics import (
    NumericError,
    Tensor,
    concat,
    getitem,
    l2_normalize,
    logsumexp,
    matmul,
    mean,
    sum_,
    uniform_init,
)

MODALITIES = ("text", "audio", "motion", "fused")

__all__ = [
    "CompositeLatent",
    "ModalityEmbedding",
    "PooledEmbedding",
    "AlignmentWeights",
    "ProjectionHeads",
    "init_projection_heads",
    "composite_latent",
    "composite_batch",
    "project_and_normalize",
    "project_and_normalize_batch",
    "fused_target",
    "fused_target_batch",
    "cosine_alignment_loss",
    "cosine_alignment_loss_batch",
    "temporal_pool",
    "temporal_pool_batch",
    "infonce_oneway",
    "infonce_symmetric",
    "clip_loss",
    "sem_loss",
]


@dataclass
class CompositeLatent:
    sequence: np.ndarray  # (L, d_G)
    scale: float

    def __post_init__(self):
        self.sequence = np.asarray(self.sequence, dtype=np.float64)
        if self.sequence.ndim != 2:
            raise NumericError(f"composite latent must be (L, d_G), got {self.sequence.shape}")


@dataclass
class ModalityEmbedding:
    modality: str
    sequence: np.ndarray  # (L, d), unit rows

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise NumericError(f"unknown modality {self.modality!r}")
        self.sequence = np.asarray(self.sequence, dtype=np.float64)
        norms = np.linalg.norm(self.sequence, axis=-1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise NumericError(f"{self.modality} embedding rows must be unit norm")


@dataclass
class PooledEmbedding:
    modality: str
    vector: np.ndarray  # (d,)

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise NumericError(f"unknown modality {self.modality!r}")
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if abs(float(np.linalg.norm(self.vector)) - 1.0) > 1e-9:
            raise NumericError(f"pooled {self.modality} embedding must be unit norm")


@dataclass
class AlignmentWeights:
    alpha: float = 0.5
    tau: float = 0.1
    lambda_cos: float = 1.0
    lambda_clp: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise NumericError(f"alpha must be in [0, 1], got {self.alpha}")
        if not self.tau > 0.0:
            raise NumericError(f"tau must be positive, got {self.tau}")
        if self.lambda_cos < 0.0 or self.lambda_clp < 0.0:
            raise NumericError("loss weights must be non-negative")


@dataclass
class ProjectionHeads:
    text: Tensor    # (d_text, d)
    audio: Tensor   # (d_audio, d)
    motion: Tensor  # (d_G, d)

    def parameters(self):
        return [self.text, self.audio, self.motion]

    def named_tensors(self):
        return {
            "sacm/text/weight": self.text,
            "sacm/audio/weight": self.audio,
            "sacm/motion/weight": self.motion,
        }

    @classmethod
    def from_named_tensors(cls, tensors):
        try:
            return cls(
                text=Tensor(np.array(tensors["sacm/text/weight"]), requires_grad=True),
                audio=Tensor(np.array(tensors["sacm/audio/weight"]), requires_grad=True),
                motion=Tensor(np.array(tensors["sacm/motion/weight"]), requires_grad=True),
            )
        except KeyError as exc:
            raise CheckpointError(
                f"missing projection head in checkpoint: {exc}") from exc


def init_projection_heads(rng, d_text, d_audio, d_motion, d=16):
    return ProjectionHeads(
        text=uniform_init(rng, (d_text, d), fan_in=d_text),
        audio=uniform_init(rng, (d_audio, d), fan_in=d_audio),
        motion=uniform_init(rng, (d_motion, d), fan_in=d_motion),
    )


# -------------------------------------------------------------- composite latent

def composite_batch(parts, scale):
    """{part: (B, L, d_g) Tensor} -> (B, L, d_G) Tensor, values divided by scale."""
    if not scale > 0:
        raise NumericError(f"composite scale must be positive, got {scale}")
    missing = [p for p in PART_ORDER if p not in parts]
    if missing:
        raise NumericError(f"missing parts for composite latent: {missing}")
    seqs = [parts[p] if isinstance(parts[p], Tensor) else Tensor(parts[p])
            for p in PART_ORDER]
    lengths = {s.shape[-2] for s in seqs}
    if len(lengths) != 1:
        raise NumericError(f"part latents disagree on length: {sorted(lengths)}")
    return concat(seqs, axis=-1) * Tensor(1.0 / scale)


def composite_latent(parts, scale):
    """{part: PartLatent} -> CompositeLatent (single sequence)."""
    arrays = {name: np.asarray(pl.sequence)[None] for name, pl in parts.items()}
    out = composite_batch(arrays, scale)
    return CompositeLatent(out.data[0], scale)


# ---------------------------------------------------------------- projection

def project_and_normalize_batch(raw, weight):
    """(..., L, d_x) @ (d_x, d) then row-wise L2 normalization."""
    x = raw if isinstance(raw, Tensor) else Tensor(raw)
    z = matmul(x, weight if isinstance(weight, Tensor) else Tensor(weight))
    norms = np.linalg.norm(z.data, axis=-1)
    if np.any(norms < 1e-12):
        raise NumericError("projection produced a degenerate (near-zero) row")
    return l2_normalize(z, axis=-1)


def project_and_normalize(raw, weight, modality):
    out = project_and_normalize_batch(np.asarray(raw, dtype=np.float64), weight)
    return ModalityEmbedding(modality, out.data)


# -------------------------------------------------------------------- fusion

def fused_target_batch(text, audio, alpha):
    """Row-wise normalize(alpha * text + (1 - alpha) * audio)."""
    if not 0.0 <= alpha <= 1.0:
        raise NumericError(f"alpha must be in [0, 1], got {alpha}")
    t = text if isinstance(text, Tensor) else Tensor(text)
    a = audio if isinstance(audio, Tensor) else Tensor(audio)
    if t.shape != a.shape:
        raise NumericError(f"fused_target shape mismatch {t.shape} vs {a.shape}")
    blend = t * Tensor(alpha) + a * Tensor(1.0 - alpha)
    norms = np.linalg.norm(blend.data, axis=-1)
    if np.any(norms < 1e-12):
        raise NumericError("fused target row collapsed (antipodal inputs)")
    return l2_normalize(blend, axis=-1)


def fused_target(text, audio, alpha):
    out = fused_target_batch(text.sequence, audio.sequence, alpha)
    return ModalityEmbedding("fused", out.data)


# -------------------------------------------------------------------- losses

def cosine_alignment_loss_batch(target, motion):
    """1 - mean over batch and time of row dot products."""
    t = target if isinstance(target, Tensor) else Tensor(target)
    m = motion if isinstance(motion, Tensor) else Tensor(motion)
    if t.shape != m.shape:
        raise NumericError(f"cosine loss shape mismatch {t.shape} vs {m.shape}")
    return Tensor(1.0) - mean(sum_(t * m, axis=-1))


def cosine_alignment_loss(target, motion):
    return float(cosine_alignment_loss_batch(target.sequence, motion.sequence).item())


def temporal_pool_batch(seq):
    """(..., L, d) -> (..., d): mean over time, then re-normalize."""
    s = seq if isinstance(seq, Tensor) else Tensor(seq)
    pooled = mean(s, axis=-2)
    norms = np.linalg.norm(pooled.data, axis=-1)
    if np.any(norms < 1e-12):
        raise NumericError("temporal pool collapsed to a zero vector")
    return l2_normalize(pooled, axis=-1)


def temporal_pool(seq):
    out = temporal_pool_batch(seq.sequence[None])
    return PooledEmbedding(seq.modality, out.data[0])


def _as_pooled_batch(p):
    if isinstance(p, Tensor):
        return p
    if isinstance(p, (list, tuple)) and p and isinstance(p[0], PooledEmbedding):
        return Tensor(np.stack([e.vector for e in p]))
    return Tensor(np.asarray(p, dtype=np.float64))


def infonce_oneway(p, q, tau):
    """-(1/B) sum_b log softmax_l(p_b . q_l / tau) at l = b."""
    if not tau > 0:
        raise NumericError(f"tau must be positive, got {tau}")
    pt, qt = _as_pooled_batch(p), _as_pooled_batch(q)
    b = pt.shape[0]
    if b == 0 or qt.shape[0] != b:
        raise NumericError(f"infonce needs equal non-empty batches, got {pt.shape} vs {qt.shape}")
    scores = matmul(pt, qt.mT) * Tensor(1.0 / tau)  # (B, B)
    diag_idx = (np.arange(b), np.arange(b))
    diag = getitem(scores, diag_idx)
    return mean(logsumexp(scores, axis=-1) - diag)


def infonce_symmetric(p, q, tau):
    return (infonce_oneway(p, q, tau) + infonce_oneway(q, p, tau)) * Tensor(0.5)


def clip_loss(motion, audio, text, tau):
    """0.5 * (sym(motion, audio) + sym(motion, text)) on pooled batches."""
    return (infonce_symmetric(motion, audio, tau)
            + infonce_symmetric(motion, text, tau)) * Tensor(0.5)


def sem_loss(weights, fused, motion_seq, motion_pooled, audio_pooled, text_pooled):
    """lambda_cos * cosine loss + lambda_clp * clip loss (either may be 0)."""
    total = Tensor(0.0)
    if weights.lambda_cos != 0.0:
        total = total + Tensor(weights.lambda_cos) * cosine_alignment_loss_batch(
            fused, motion_seq)
    if weights.lambda_clp != 0.0:
        total = total + Tensor(weights.lambda_clp) * clip_loss(
            motion_pooled, audio_pooled, text_pooled, weights.tau)
    return total
