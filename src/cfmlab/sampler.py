"""Inference: ODE integration over holistic latents and latent-to-motion decode.

Sampling draws z0 from a seeded standard normal, integrates the learned
velocity field from t=0 to t=1 with a fixed-step explicit scheme, projects the
result toward the quantizer's input manifold, and then, per part, slices that
part's channels out of the composite and undoes its scale, quantizes them
with the part's codebook stack, and decodes the dequantized latents to
motion frames.

`integrate_ode` is a plain fixed-step stepper over a field(z, t) callable.
The condition is the same at every ODE step, so `generate_batch` builds its
terms (position embeddings, TCAM keys and values, the frame-aligned
residual) once per solve, and each field evaluation computes only the
latent side.

`sample_batch` runs the chain once for B (condition, OdeConfig) pairs, each
z0 drawn from its own config's seed, and returns arrays: z1, and per part
the codes and the (B, T, J) frames. A fixed-step solve has no per-sample
control flow and every op works row by row, so a row is bit-identical
whether it is drawn alone or in a batch. Evaluation keeps the arrays of
each chunk of clips (`evaluate.generate_split`); `generate_batch`
packages each row as a `GeneratedMotion` for the CSV writers, and
`generate` is its B = 1 call.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError
from .codec import (
    PART_JOINTS,
    PART_ORDER,
    CodeSequence,
    MotionClip,
    decode_part_batch,
    rvq_dequantize_batch,
    rvq_quantize,
    rvq_quantize_batch,
)
# unused here since sampling is batched, but perfbench's traced runs wrap
# these names on this module (perfbench/layers.py), so they must resolve
from .codec import decode_part, rvq_dequantize  # noqa: F401
from .flow import prepare_condition, velocity_forward
from .numerics import NumericError, Tensor, as_tensor, matmul, no_grad

__all__ = [
    "SCHEMES",
    "OdeConfig",
    "GeneratedMotion",
    "ManifoldProjection",
    "init_manifold_projection",
    "integrate_ode",
    "project_to_codebook_manifold",
    "quantize_regions",
    "sample_batch",
    "generate",
    "generate_batch",
    "write_motion_csv",
    "write_sidecar",
]

SCHEMES = ("euler", "midpoint")


@dataclass
class OdeConfig:
    n: int = 10
    scheme: str = "euler"
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise NumericError(f"ODE step count must be >= 1, got {self.n}")
        if self.scheme not in SCHEMES:
            raise NumericError(
                f"unknown ODE scheme {self.scheme!r}; expected one of {SCHEMES}")

    def hash(self):
        blob = json.dumps({"n": self.n, "scheme": self.scheme, "seed": self.seed},
                          sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


@dataclass
class GeneratedMotion:
    parts: dict      # part -> MotionClip
    latent: np.ndarray   # (L, d_G) holistic latent after projection
    codes: dict      # part -> CodeSequence
    seed: int
    config_hash: str

    def __post_init__(self):
        missing = [p for p in PART_ORDER if p not in self.parts]
        if missing:
            raise NumericError(f"generated motion missing parts: {missing}")
        counts = {self.parts[p].frames.shape[0] for p in PART_ORDER}
        if len(counts) != 1:
            raise NumericError(f"generated parts disagree on frame count: {sorted(counts)}")
        self.latent = np.asarray(self.latent, dtype=np.float64)

    @property
    def n_frames(self):
        return self.parts[PART_ORDER[0]].frames.shape[0]


@dataclass
class ManifoldProjection:
    weight: Tensor  # (d_G, d_G), identity at init

    def parameters(self):
        return [self.weight]

    def named_tensors(self):
        return {"proj/weight": self.weight}

    @classmethod
    def from_named_tensors(cls, tensors):
        try:
            return cls(weight=Tensor(np.array(tensors["proj/weight"]), requires_grad=True))
        except KeyError as exc:
            raise CheckpointError(
                f"missing projection tensor in checkpoint: {exc}") from exc


def init_manifold_projection(d_model=32):
    return ManifoldProjection(weight=Tensor(np.eye(d_model), requires_grad=True))


# ---------------------------------------------------------------- integration

def integrate_ode(field, z0, config):
    """Fixed-step explicit integration of dz/dt = field(z, t) from 0 to 1.

    `field` maps a state array z and a float time t to an array of z's
    shape. Straight (constant-velocity) paths are integrated exactly by
    both schemes for any step count.
    """
    z = np.array(z0, dtype=np.float64)
    h = 1.0 / config.n
    for k in range(config.n):
        t = k * h
        if config.scheme == "euler":
            z = z + h * field(z, t)
        else:
            zmid = z + 0.5 * h * field(z, t)
            z = z + h * field(zmid, t + 0.5 * h)
        if not np.all(np.isfinite(z)):
            raise NumericError(
                f"non-finite state after ODE step {k + 1} of {config.n} "
                f"({config.scheme})")
    return z


def project_to_codebook_manifold(latent, proj):
    """Linear d_G -> d_G map nudging integrated latents toward the quantizer's
    input distribution; identity-initialized, so a fresh head is a passthrough."""
    z, w = as_tensor(latent), proj.weight
    if z.shape[-1] != w.shape[0]:
        raise NumericError(f"latent dim {z.shape[-1]} != projection dim {w.shape[0]}")
    return matmul(z, w)


# ------------------------------------------------------------- decoding chain

# stays only for perfbench, which wraps it (perfbench/layers.py)
def quantize_regions(parts, stacks):
    """Quantize each region's latent against its own codebook stack."""
    out = {}
    for part in PART_ORDER:
        if part not in parts:
            raise NumericError(f"missing part {part!r} in region latents")
        if part not in stacks:
            raise NumericError(f"missing codebook stack for part {part!r}")
        _, codes = rvq_quantize(parts[part], stacks[part])
        out[part] = codes
    return out


def sample_batch(net, stacks, decoders, conds, configs, proj=None, scale=2.0):
    """The sampling chain for B (condition, OdeConfig) pairs, as arrays: z0
    from each config's seed -> one integration over (B, L, d_G) -> project
    -> per part: slice and rescale -> quantize -> dequantize -> decode.
    The B conditions are prepared once, before the first ODE step, and
    every evaluation of the velocity field reuses them. Returns z1
    (B, L, d_G) and, per part, codes (B, L, depth) and frames (B, T, J);
    row i is bit-identical to drawing pair i alone."""
    if len({(c.n, c.scheme) for c in configs}) != 1:
        raise NumericError("need at least one ODE config, all with one step count and scheme")
    seqs = np.stack([np.asarray(c, dtype=np.float64) for c in conds])
    if seqs.ndim != 3:
        raise NumericError(f"conditions must be (L, d_O), got shape {seqs.shape[1:]}")
    widths = [decoders[p].d_g for p in PART_ORDER]
    if sum(widths) != net.d_model:
        raise NumericError(f"latent dim {net.d_model} != sum of part dims {sum(widths)}")
    length = seqs.shape[1]
    z0 = np.stack([np.random.default_rng(c.seed).standard_normal((length, net.d_model))
                   for c in configs])

    codes, frames, offset = {}, {}, 0
    with no_grad():
        prep = prepare_condition(net, seqs, length)
        z1 = integrate_ode(lambda z, t: velocity_forward(net, Tensor(z), t, prep).data,
                           z0, configs[0])
        if proj is not None:
            z1 = project_to_codebook_manifold(z1, proj).data
        for part, width in zip(PART_ORDER, widths):
            stages = stacks[part].stages
            if any(book.shape[-1] != width for book in stages):
                raise NumericError(f"codebooks of part {part!r} do not match d_g {width}")
            _, codes[part] = rvq_quantize_batch(
                z1[..., offset:offset + width] * scale, stages)
            frames[part] = decode_part_batch(rvq_dequantize_batch(codes[part], stages),
                                             decoders[part]).data
            offset += width
    return z1, codes, frames


def generate_batch(net, stacks, decoders, conds, configs, proj=None, scale=2.0,
                   fps=15.0, config_hash=None):
    """`sample_batch`, packaged as one GeneratedMotion per pair."""
    z1, codes, frames = sample_batch(net, stacks, decoders, conds, configs,
                                     proj=proj, scale=scale)
    return [GeneratedMotion(
        parts={p: MotionClip(p, frames[p][i], fps=fps) for p in PART_ORDER},
        latent=z1[i], codes={p: CodeSequence(p, codes[p][i]) for p in PART_ORDER},
        seed=c.seed, config_hash=config_hash or c.hash()) for i, c in enumerate(configs)]


def generate(net, stacks, decoders, cond, config, proj=None, scale=2.0,
             fps=15.0, config_hash=None):
    """One draw: the B = 1 call of `generate_batch`. Deterministic given seed."""
    return generate_batch(net, stacks, decoders, [cond], [config], proj=proj,
                          scale=scale, fps=fps, config_hash=config_hash)[0]


# ------------------------------------------------------------------ output io

@functools.lru_cache(maxsize=4)
def _csv_template(n_frames):
    """Every line of the CSV of an `n_frames`-frame motion, with a `%r` slot
    for each value; about 0.5 MB at 512 frames."""
    lines = ["part,frame,channel,value\r\n"]
    for part in PART_ORDER:
        lines.extend(f"{part},{f},{c},%r\r\n"
                     for f in range(n_frames) for c in range(PART_JOINTS[part]))
    return "".join(lines)


def write_motion_csv(motion, path):
    """One row per (part, frame, channel), parts in fixed order; float values
    are `%r` (shortest round-trip `repr`) so identical runs produce identical
    bytes. Every line comes from one template per frame count, filled by a
    single `%`: each part's channel count is fixed, so the frame count
    fixes the layout. The lines are the ones `csv.writer` would write: no
    field needs quoting, and rows end in CRLF."""
    path = Path(path)
    values = np.concatenate([motion.parts[p].frames.ravel() for p in PART_ORDER])
    with path.open("w", newline="") as fh:
        fh.write(_csv_template(motion.n_frames) % tuple(values.tolist()))
    return path


def write_sidecar(motion, path, condition_id):
    path = Path(path)
    payload = {
        "seed": int(motion.seed),
        "config_hash": motion.config_hash,
        "condition_id": condition_id,
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path
