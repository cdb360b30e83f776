"""Conditional velocity field and the contrastive flow-matching objective.

The generator learns v(z_t, t, cond) over composite motion latents. Training
pairs a straight-line interpolant (constant target velocity z1 - z0) with a
repulsion term against the velocity toward another sample's latent,
z1[perm] - z0, under the same condition (`synthdata.mismatch_pairing` draws
the derangement perm). The network is a single TCAM block (motion tokens query
the fused audio/text condition, one `attention` node) followed by two residual
neighbour-context MLP blocks (each step mixes with its two edge-clamped
temporal neighbours in one `neighbour_linear` op — gesture strokes live at
that scale) and a linear head; the attention output projection starts at
zero so the block is an exact residual passthrough at init.

The condition has one row per latent frame: motion frame i is conditioned
on audio-text frame i. `velocity_forward` has a condition part and a step
part. The condition part (`prepare_condition`) builds the terms that
depend only on the condition: both position embeddings, the TCAM keys and
values, and the frame-aligned residual. Every caller prepares the
condition itself and passes the result: training once per step, an ODE
solve once for all its steps. The velocity field takes batched (B, L, d_G)
latents only, and refuses a condition of another length.

Motion tokens and condition both receive parameter-free sinusoidal temporal
position embeddings before cross-attention: attention is otherwise a
set operation over frames, and beat-locked motion needs the network to know
which condition frame belongs to which motion frame.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import Weights
from .numerics import (
    NumericError,
    Tensor,
    as_tensor,
    attention,
    concat,
    gelu,
    matmul,
    mse,
    neighbour_linear,
    uniform_init,
    zeros_init,
)

__all__ = [
    "VelocityNet",
    "init_velocity_net",
    "build_condition_batch",
    "interpolate_batch",
    "sinusoidal_time_embedding",
    "temporal_position_embedding",
    "PreparedCondition",
    "prepare_condition",
    "tcam_fuse",
    "velocity_forward",
    "cfm_loss",
]


@dataclass
class VelocityNet(Weights):
    _KEY = "flow/{name}"

    p: Tensor        # (d_G,) body-structure embedding, broadcast over frames
    time_w: Tensor   # (16, d_G)
    time_b: Tensor   # (d_G,)
    cond_w: Tensor   # (d_a + d_t, d_O)
    cond_b: Tensor   # (d_O,)
    align_w: Tensor  # (d_O, d_G), zero-init: frame-aligned condition residual
    tcam_q: Tensor   # (d_G, d_s)
    tcam_k: Tensor   # (d_O, d_s)
    tcam_v: Tensor   # (d_O, d_s)
    tcam_o: Tensor   # (d_s, d_s), zero-init
    conv1_w: Tensor  # (3 * d_s, d_s) neighbour-context mixer
    conv1_b: Tensor  # (d_s,)
    conv2_w: Tensor  # (3 * d_s, d_s)
    conv2_b: Tensor  # (d_s,)
    out_w: Tensor    # (d_s, d_G)
    out_b: Tensor    # (d_G,)

    @property
    def d_model(self):
        return self.tcam_q.shape[0]

    @property
    def d_cond(self):
        return self.tcam_k.shape[0]

    @property
    def d_s(self):
        return self.tcam_q.shape[1]


def init_velocity_net(rng, d_model=32, d_cond=32, d_audio=16, d_text=16, d_s=64,
                      time_dim=16):
    return VelocityNet(
        p=uniform_init(rng, (d_model,), fan_in=d_model),
        time_w=uniform_init(rng, (time_dim, d_model), fan_in=time_dim),
        time_b=zeros_init((d_model,)),
        cond_w=uniform_init(rng, (d_audio + d_text, d_cond), fan_in=d_audio + d_text),
        cond_b=zeros_init((d_cond,)),
        align_w=zeros_init((d_cond, d_model)),
        tcam_q=uniform_init(rng, (d_model, d_s), fan_in=d_model),
        tcam_k=uniform_init(rng, (d_cond, d_s), fan_in=d_cond),
        tcam_v=uniform_init(rng, (d_cond, d_s), fan_in=d_cond),
        tcam_o=zeros_init((d_s, d_s)),
        conv1_w=uniform_init(rng, (3 * d_s, d_s), fan_in=3 * d_s),
        conv1_b=zeros_init((d_s,)),
        conv2_w=uniform_init(rng, (3 * d_s, d_s), fan_in=3 * d_s),
        conv2_b=zeros_init((d_s,)),
        out_w=uniform_init(rng, (d_s, d_model), fan_in=d_s),
        out_b=zeros_init((d_model,)),
    )


# ----------------------------------------------------------------- condition

def build_condition_batch(audio, text, net):
    """Channel-concat audio (…, L, d_a) and text (…, L, d_t), project to d_O."""
    a = as_tensor(audio)
    t = as_tensor(text)
    if a.shape[:-1] != t.shape[:-1]:
        raise NumericError(f"audio/text length mismatch: {a.shape} vs {t.shape}")
    return matmul(concat([a, t], axis=-1), net.cond_w) + net.cond_b


# --------------------------------------------------------------- interpolant

def interpolate_batch(z0, z1, t):
    """(1 - t) * z0 + t * z1 with per-example t broadcast over (L, d)."""
    z0 = np.asarray(z0, dtype=np.float64)
    z1 = np.asarray(z1, dtype=np.float64)
    if z0.shape != z1.shape:
        raise NumericError(f"interpolate_batch shape mismatch {z0.shape} vs {z1.shape}")
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails both tests
        raise NumericError("interpolation time t must lie in [0, 1]")
    tb = t.reshape(t.shape + (1,) * (z0.ndim - t.ndim))
    return (1.0 - tb) * z0 + tb * z1


# ------------------------------------------------------------------ network

@functools.cache
def _time_frequencies(half):
    """The (half,) frequencies 1..1000 of the time embedding, built once per
    size; read-only, since every caller shares the cached array."""
    freqs = np.exp(np.linspace(0.0, math.log(1000.0), half))
    freqs.flags.writeable = False
    return freqs


@functools.lru_cache(maxsize=256)
def _scalar_time_row(t, dim):
    """The (1, dim) embedding of one scalar t, read-only: an ODE solve asks
    for the same few step times in every solve."""
    row = sinusoidal_time_embedding(np.array([t]), dim)
    row.flags.writeable = False
    return row


def sinusoidal_time_embedding(t, dim=16):
    """Scalar flow time -> (…, dim) sin/cos features, frequencies 1..1000."""
    t = np.asarray(t, dtype=np.float64)
    ang = t[..., None] * _time_frequencies(dim // 2)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


def temporal_position_embedding(length, dim):
    """Standard parameter-free transformer position encoding, (length, dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = pos * freqs
    emb = np.empty((length, dim))
    emb[:, 0::2] = np.sin(ang)
    emb[:, 1::2] = np.cos(ang)
    return emb


@dataclass
class PreparedCondition:
    """The terms of `velocity_forward` that depend only on the condition, so
    one ODE solve builds them once for all its steps."""
    pe_x: Tensor      # (L, d_G) motion position embedding
    keys: Tensor      # (B, L, d_s) TCAM keys of c + pe_c
    values: Tensor    # (B, L, d_s) TCAM values of c + pe_c
    aligned: Tensor   # (B, L, d_G) c @ align_w


def prepare_condition(net, cond):
    """Condition terms of `velocity_forward` from a (B, L, d_O) condition,
    one row per latent frame."""
    c = as_tensor(cond)
    length = c.shape[-2]
    # the frame-aligned residual lets timing cues reach the matching motion
    # frame without relying on attention to discover the diagonal
    aligned = matmul(c, net.align_w)
    ct = c + Tensor(temporal_position_embedding(length, net.d_cond))
    return PreparedCondition(
        pe_x=Tensor(temporal_position_embedding(length, net.d_model)),
        keys=matmul(ct, net.tcam_k), values=matmul(ct, net.tcam_v), aligned=aligned)


def tcam_fuse(x, prep, net):
    """Cross-attention: motion tokens (B, L, d_G) query the keys and values
    of a PreparedCondition in one `attention` node, which refuses batches
    that differ; residual on the projected query path."""
    q = matmul(x, net.tcam_q)
    return q + matmul(attention(q, prep.keys, prep.values, 1.0 / math.sqrt(net.d_s)),
                      net.tcam_o)


def velocity_forward(net, zt, t, prep):
    """Predict the velocity field at interpolant zt (B, L, d_G), time t and
    the PreparedCondition `prep`, built by `prepare_condition` from B
    conditions of L frames.

    t is a scalar or a per-example (B,) array. A scalar t builds one
    time-embedding row shared by the batch, so each example's velocity is
    bit-identical to its own B = 1 call.
    """
    x = as_tensor(zt)
    if x.ndim != 3:
        raise NumericError(f"latents must be (B, L, d_G), got shape {x.shape}")
    b, l, d_model = x.shape
    if d_model != net.d_model:
        raise NumericError(f"latent dim {d_model} != network dim {net.d_model}")
    if prep.keys.shape[0] != b:
        raise NumericError(f"condition batch {prep.keys.shape[0]} != latent batch {b}")
    if prep.pe_x.shape[0] != l:
        raise NumericError(f"condition has {prep.pe_x.shape[0]} frames, latent has {l}")
    # one row for a scalar t: (B, k) @ (k, d) runs as a gemm and (1, k) @
    # (k, d) as a gemv, which round differently in the last bit. The range
    # tests are written so that NaN fails them.
    if isinstance(t, float):
        if not 0.0 <= t <= 1.0:
            raise NumericError("flow time t must lie in [0, 1]")
        temb = _scalar_time_row(t, net.time_w.shape[0])
    else:
        t_arr = np.asarray(t, dtype=np.float64)
        if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):
            raise NumericError("flow time t must lie in [0, 1]")
        t_arr = t_arr.reshape(1) if t_arr.ndim == 0 else np.broadcast_to(t_arr, (b,))
        temb = sinusoidal_time_embedding(t_arr, net.time_w.shape[0])

    temb = matmul(Tensor(temb), net.time_w) + net.time_b        # (B or 1, d_G)
    tokens = x + net.p + temb.reshape(temb.shape[0], 1, d_model) + prep.pe_x + prep.aligned
    h = tcam_fuse(tokens, prep, net)
    for w, bias in ((net.conv1_w, net.conv1_b), (net.conv2_w, net.conv2_b)):
        h = h + gelu(neighbour_linear(h, w, bias))
    return matmul(h, net.out_w) + net.out_b


# --------------------------------------------------------------------- loss

def cfm_loss(v_pred, v_pos, v_neg, lam, terms=None):
    """mean ||v_pred - v_pos||^2 - lam * mean ||v_pred - v_neg||^2.

    lam = 0 reduces to the plain flow-matching objective (identical code
    path, bit-identical result); lam >= 1 makes the objective unbounded
    below (flow.lam's config rule). The targets v_pos and v_neg are arrays.
    A `terms` dict receives the two means as they are built: "cfm_pos",
    and "cfm_neg" when lam > 0.

    With a = v_pos = z1 - z0, b = v_neg = z1[perm] - z0 and k = lam / (1 - lam),

        mse(v, a) - lam * mse(v, b) = (1 - lam) * mse(v, c) - k * mse(a, b),
        c = a + k (a - b) = a + k (z1 - z1[perm]),

    so the objective is plain flow matching toward a target pushed away
    from the negative's latent, scaled by 1 - lam; z0 cancels from the
    push. The constant k * mse(a, b) has no gradient, and it is why the
    loss can read below zero.
    """
    vp = as_tensor(v_pred)
    if v_pos.shape != vp.shape:
        raise NumericError(f"cfm_loss shape mismatch {v_pos.shape} vs {vp.shape}")
    terms = {} if terms is None else terms
    terms["cfm_pos"] = loss = mse(vp, Tensor(v_pos))
    if lam == 0.0:
        return loss
    if v_neg.shape != vp.shape:
        raise NumericError(f"cfm_loss negative shape mismatch {v_neg.shape} vs {vp.shape}")
    terms["cfm_neg"] = mse(vp, Tensor(v_neg))
    return loss - Tensor(lam) * terms["cfm_neg"]
