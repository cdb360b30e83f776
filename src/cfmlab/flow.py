"""Conditional velocity field and the contrastive flow-matching objective.

The generator learns v(z_t, t, cond) over composite motion latents. Training
pairs a straight-line interpolant (constant target velocity z1 - z0) with a
repulsion term against the velocity toward a mismatched latent, built by
deranging the batch. The network is a single TCAM block (motion tokens query
the fused audio/text condition) followed by two residual neighbour-context
MLP blocks (each step mixes with its two temporal neighbours, read by the
edge-clamped `shift` op — gesture strokes live at that scale) and a
linear head; the attention output projection starts at zero so the block
is an exact residual passthrough at init.

`velocity_forward` has a condition part and a step part. The condition
part (`prepare_condition`) builds the terms that depend only on the
condition and the latent length: both position embeddings, the TCAM keys
and values, and the frame-aligned residual. An ODE solve builds them once
and reuses them at every step; training passes a raw condition, which is
prepared inside the call, so both take one code path with the same bits.

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

from .checkpoint import CheckpointError
from .numerics import (
    NumericError,
    Tensor,
    concat,
    gelu,
    matmul,
    mse,
    shift,
    softmax,
    uniform_init,
    zeros_init,
)

__all__ = [
    "VelocityNet",
    "NegativePairing",
    "init_velocity_net",
    "build_condition_batch",
    "interpolate_batch",
    "sinusoidal_time_embedding",
    "temporal_position_embedding",
    "PreparedCondition",
    "prepare_condition",
    "tcam_fuse",
    "velocity_forward",
    "sample_derangement",
    "make_incongruent_batch",
    "cfm_loss",
]

NEGATIVE_MODES = ("permute-pair", "permute-text", "permute-audio")


@dataclass
class NegativePairing:
    permutation: np.ndarray   # derangement of batch indices
    conditions: np.ndarray    # (B, L, d_O) mismatched conditions
    latents: np.ndarray       # (B, L, d_G) mismatched data latents


@dataclass
class VelocityNet:
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

    def parameters(self):
        return [self.p, self.time_w, self.time_b, self.cond_w, self.cond_b,
                self.align_w,
                self.tcam_q, self.tcam_k, self.tcam_v, self.tcam_o,
                self.conv1_w, self.conv1_b, self.conv2_w, self.conv2_b,
                self.out_w, self.out_b]

    _FIELD_NAMES = ("p", "time_w", "time_b", "cond_w", "cond_b", "align_w",
                    "tcam_q", "tcam_k", "tcam_v", "tcam_o",
                    "conv1_w", "conv1_b", "conv2_w", "conv2_b",
                    "out_w", "out_b")

    def named_tensors(self):
        return {f"flow/{n}": t for n, t in zip(self._FIELD_NAMES, self.parameters())}

    @classmethod
    def from_named_tensors(cls, tensors):
        try:
            vals = [Tensor(np.array(tensors[f"flow/{n}"]), requires_grad=True)
                    for n in cls._FIELD_NAMES]
        except KeyError as exc:
            raise CheckpointError(f"missing flow tensor in checkpoint: {exc}") from exc
        return cls(*vals)


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
    a = audio if isinstance(audio, Tensor) else Tensor(audio)
    t = text if isinstance(text, Tensor) else Tensor(text)
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
    if np.any(t < 0.0) or np.any(t > 1.0):
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


def sinusoidal_time_embedding(t, dim=16):
    """Scalar flow time -> (…, dim) sin/cos features, frequencies 1..1000."""
    if dim % 2 != 0:
        raise NumericError("time embedding dim must be even")
    t = np.asarray(t, dtype=np.float64)
    ang = t[..., None] * _time_frequencies(dim // 2)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


def temporal_position_embedding(length, dim):
    """Standard parameter-free transformer position encoding, (length, dim)."""
    if dim % 2 != 0:
        raise NumericError("position embedding dim must be even")
    pos = np.arange(length, dtype=np.float64)[:, None]
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = pos * freqs
    emb = np.empty((length, dim))
    emb[:, 0::2] = np.sin(ang)
    emb[:, 1::2] = np.cos(ang)
    return emb


def _attention(q, k, v, out_w, d_s):
    scores = matmul(q, k.mT) * Tensor(1.0 / math.sqrt(d_s))
    attn = softmax(scores, axis=-1)
    return q + matmul(matmul(attn, v), out_w), attn


@dataclass
class PreparedCondition:
    """The terms of `velocity_forward` that depend only on the condition and
    the latent length, so one ODE solve builds them once for all its steps."""
    pe_x: Tensor      # (L, d_G) motion position embedding
    keys: Tensor      # (B, L_c, d_s) TCAM keys of c + pe_c
    values: Tensor    # (B, L_c, d_s) TCAM values of c + pe_c
    aligned: Tensor | None  # (B, L, d_G) c @ align_w when L_c == L, else None


def _as_condition(cond):
    return cond if isinstance(cond, Tensor) else Tensor(np.asarray(cond, dtype=np.float64))


def prepare_condition(net, cond, length):
    """Condition terms of `velocity_forward` for latents of `length` frames:
    cond is (L_c, d_O) or (B, L_c, d_O)."""
    c = _as_condition(cond)
    if c.ndim == 2:
        c = c.reshape(1, *c.shape)
    # frame-aligned conditions get a direct per-step residual so timing
    # cues reach the matching motion frame without relying on attention
    # to discover the diagonal; unaligned conditions use attention alone
    aligned = matmul(c, net.align_w) if c.shape[-2] == length else None
    ct = c + Tensor(temporal_position_embedding(c.shape[-2], net.d_cond))
    return PreparedCondition(
        pe_x=Tensor(temporal_position_embedding(length, net.d_model)),
        keys=matmul(ct, net.tcam_k), values=matmul(ct, net.tcam_v),
        aligned=aligned)


def tcam_fuse(x, cond, net, return_attn=False):
    """Cross-attention: motion tokens (…, L, d_G) query the condition
    (…, L_c, d_O), or the keys and values of a PreparedCondition; residual
    on the projected query path."""
    xt = x if isinstance(x, Tensor) else Tensor(x)
    if isinstance(cond, PreparedCondition):
        k, v = cond.keys, cond.values
    else:
        ct = _as_condition(cond)
        k, v = matmul(ct, net.tcam_k), matmul(ct, net.tcam_v)
    if xt.shape[:-2] != k.shape[:-2]:
        raise NumericError(f"tcam batch shape mismatch {xt.shape} vs {k.shape}")
    out, attn = _attention(matmul(xt, net.tcam_q), k, v, net.tcam_o, net.d_s)
    if return_attn:
        return out, attn
    return out


def velocity_forward(net, zt, t, cond):
    """Predict the velocity field at interpolant zt, time t, condition cond.

    Accepts (L, d_G) or batched (B, L, d_G) with a scalar t or a per-example
    t (B,). A scalar t builds one time-embedding row shared by the batch, so
    each example's velocity is bit-identical to its own B = 1 call. `cond`
    is a raw condition, prepared here, or a PreparedCondition built by
    `prepare_condition` for this latent length; both give the same bits.
    """
    x = zt if isinstance(zt, Tensor) else Tensor(np.asarray(zt, dtype=np.float64))
    single = x.ndim == 2
    if single:
        x = x.reshape(1, *x.shape)
    b, l, d_model = x.shape
    if d_model != net.d_model:
        raise NumericError(f"latent dim {d_model} != network dim {net.d_model}")
    prep = (cond if isinstance(cond, PreparedCondition)
            else prepare_condition(net, cond, l))
    if prep.keys.shape[0] != b:
        raise NumericError(f"condition batch {prep.keys.shape[0]} != latent batch {b}")
    if prep.pe_x.shape[0] != l:
        raise NumericError(
            f"condition prepared for {prep.pe_x.shape[0]} frames, latent has {l}")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise NumericError("flow time t must lie in [0, 1]")
    # one row for a scalar t: (B, k) @ (k, d) runs as a gemm and (1, k) @
    # (k, d) as a gemv, which round differently in the last bit
    t_arr = t_arr.reshape(1) if t_arr.ndim == 0 else np.broadcast_to(t_arr, (b,))

    temb = matmul(Tensor(sinusoidal_time_embedding(t_arr, net.time_w.shape[0])),
                  net.time_w) + net.time_b                       # (B or 1, d_G)
    tokens = x + net.p + temb.reshape(temb.shape[0], 1, d_model) + prep.pe_x
    if prep.aligned is not None:
        tokens = tokens + prep.aligned
    h = tcam_fuse(tokens, prep, net)
    for w, bias in ((net.conv1_w, net.conv1_b), (net.conv2_w, net.conv2_b)):
        ctx = concat([shift(h, -1), h, shift(h, +1)], axis=-1)
        h = h + gelu(matmul(ctx, w) + bias)
    out = matmul(h, net.out_w) + net.out_b
    if single:
        return out.reshape(l, d_model)
    return out


# ----------------------------------------------------------------- negatives

def sample_derangement(rng, n):
    """Uniform fixed-point-free permutation by rejection sampling."""
    if n < 2:
        raise NumericError("derangement needs batch size >= 2")
    while True:
        perm = rng.permutation(n)
        if not np.any(perm == np.arange(n)):
            return perm


def make_incongruent_batch(z1, cond, rng, mode="permute-pair", audio=None,
                           text=None, net=None, perm=None):
    """Derange the batch to build mismatched (condition, latent) negatives.

    permute-pair moves whole (audio, text) pairs with their latents;
    permute-text / permute-audio rebuild the condition with only one modality
    deranged (the mismatched latent is the deranged example's in all modes).
    Callers may pass a precomputed derangement via `perm`.
    """
    if mode not in NEGATIVE_MODES:
        raise NumericError(f"unknown negative mode {mode!r}; expected {NEGATIVE_MODES}")
    z1 = np.asarray(z1, dtype=np.float64)
    cond = np.asarray(cond.data if isinstance(cond, Tensor) else cond, dtype=np.float64)
    if perm is None:
        perm = sample_derangement(rng, z1.shape[0])
    else:
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (z1.shape[0],) or np.any(np.sort(perm) != np.arange(z1.shape[0])):
            raise NumericError("perm must be a permutation of the batch indices")
        if np.any(perm == np.arange(z1.shape[0])):
            raise NumericError("perm must have no fixed points")
    if mode == "permute-pair":
        cond_neg = cond[perm]
    else:
        if audio is None or text is None or net is None:
            raise NumericError(f"mode {mode!r} needs audio, text and net to rebuild conditions")
        audio = np.asarray(audio, dtype=np.float64)
        text = np.asarray(text, dtype=np.float64)
        if mode == "permute-text":
            cond_neg = build_condition_batch(audio, text[perm], net).data
        else:
            cond_neg = build_condition_batch(audio[perm], text, net).data
    return NegativePairing(permutation=perm, conditions=cond_neg, latents=z1[perm])


# --------------------------------------------------------------------- loss

def cfm_loss(v_pred, v_pos, v_neg, lam):
    """mean ||v_pred - v_pos||^2 - lam * mean ||v_pred - v_neg||^2.

    lam = 0 reduces to the plain flow-matching objective (identical code
    path, bit-identical result); lam >= 1 makes the objective unbounded
    below and is rejected.
    """
    if not 0.0 <= lam < 1.0:
        raise NumericError(f"contrast weight must satisfy 0 <= lam < 1, got {lam}")
    vp = v_pred if isinstance(v_pred, Tensor) else Tensor(v_pred)
    pos = v_pos.data if isinstance(v_pos, Tensor) else np.asarray(v_pos)
    if pos.shape != vp.shape:
        raise NumericError(f"cfm_loss shape mismatch {pos.shape} vs {vp.shape}")
    loss = mse(vp, Tensor(pos))
    if lam == 0.0:
        return loss
    neg = v_neg.data if isinstance(v_neg, Tensor) else np.asarray(v_neg)
    if neg.shape != vp.shape:
        raise NumericError(f"cfm_loss negative shape mismatch {neg.shape} vs {vp.shape}")
    return loss - Tensor(lam) * mse(vp, Tensor(neg))
