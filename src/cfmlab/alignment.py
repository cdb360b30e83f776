"""Shared embedding space for motion, audio and text.

Linear projection heads (no bias) map each modality into a common d-dim
space with row-wise L2 normalization; congruence is scored two ways: a
frame-level cosine loss against the fused audio/text target, and a
clip-level symmetric InfoNCE over temporally pooled embeddings.

The transforms and losses are batched cores: they take Tensors or arrays
of shape (..., L, d) and are differentiable. Their operands come from one
dataset batch through one set of heads, so `composite_batch` gets every
part at one length, paired operands share a shape and InfoNCE batches are
not empty; only degenerate rows are checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import Weights
from .codec import PART_ORDER
from .numerics import (
    NumericError,
    Tensor,
    as_tensor,
    concat,
    getitem,
    logsumexp,
    matmul,
    mean,
    sqrt,
    sum_,
    uniform_init,
)

__all__ = [
    "ProjectionHeads",
    "init_projection_heads",
    "composite_batch",
    "project_and_normalize_batch",
    "fused_target_batch",
    "cosine_alignment_loss_batch",
    "temporal_pool_batch",
    "infonce_oneway",
    "infonce_symmetric",
    "clip_loss",
]


@dataclass
class ProjectionHeads(Weights):
    _KEY = "sacm/{name}/weight"

    text: Tensor    # (d_text, d)
    audio: Tensor   # (d_audio, d)
    motion: Tensor  # (d_G, d)


def init_projection_heads(rng, d_text, d_audio, d_motion, d=16):
    return ProjectionHeads(
        text=uniform_init(rng, (d_text, d), fan_in=d_text),
        audio=uniform_init(rng, (d_audio, d), fan_in=d_audio),
        motion=uniform_init(rng, (d_motion, d), fan_in=d_motion),
    )


# -------------------------------------------------------------- composite latent

def composite_batch(parts, scale):
    """{part: (B, L, d_g) Tensor} -> (B, L, d_G) Tensor, values divided by scale."""
    return concat([parts[p] for p in PART_ORDER], axis=-1) * Tensor(1.0 / scale)


# ---------------------------------------------------------------- projection

def _normalized_rows(z, degenerate):
    """Rows of z over their norms; one below 1e-12 raises `degenerate`."""
    norm = sqrt(sum_(z * z, axis=-1, keepdims=True))
    if np.any(norm.data < 1e-12):
        raise NumericError(degenerate)
    return z / norm


def project_and_normalize_batch(raw, weight):
    """(..., L, d_x) @ (d_x, d) then row-wise L2 normalization."""
    return _normalized_rows(matmul(raw, weight),
                            "projection produced a degenerate (near-zero) row")


# -------------------------------------------------------------------- fusion

def fused_target_batch(text, audio, alpha):
    """Row-wise normalize(alpha * text + (1 - alpha) * audio)."""
    return _normalized_rows(as_tensor(text) * Tensor(alpha)
                            + as_tensor(audio) * Tensor(1.0 - alpha),
                            "fused target row collapsed (antipodal inputs)")


# -------------------------------------------------------------------- losses

def cosine_alignment_loss_batch(target, motion):
    """1 - mean over batch and time of row dot products."""
    return Tensor(1.0) - mean(sum_(as_tensor(target) * motion, axis=-1))


def temporal_pool_batch(seq):
    """(..., L, d) -> (..., d): mean over time, then re-normalize."""
    return _normalized_rows(mean(as_tensor(seq), axis=-2),
                            "temporal pool collapsed to a zero vector")


def infonce_oneway(p, q, tau):
    """-(1/B) sum_b log softmax_l(p_b . q_l / tau) at l = b."""
    pt, qt = as_tensor(p), as_tensor(q)
    b = pt.shape[0]
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
