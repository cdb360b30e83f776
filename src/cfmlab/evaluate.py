"""Evaluation: generate motion for held-out conditions, then score FGD
(pooled and per-class matched/mismatched), beat consistency against the
planted audio onsets, and feature-space diversity.

Features come from the frozen stage-1 encoders, so generated and real clips
are compared in the same space regardless of how the generator was trained.

A split is a `synthdata.Clips` record of arrays, read as it is: its
motion arrays are the real frames, its onsets the beat targets, and its
class ids group the per-class FGD. It is generated in chunks of whole
clips of at most `_CHUNK_ROWS` latent rows, one `sample_batch` call each,
with each chunk's conditions built just before it, one
`condition_for_clip` call per clip. The chunk pays each per-op cost of the
velocity net, TCAM, RVQ and decoders once for all its clips, and its
frames go straight into one (N, T, J) array per part, which the metrics
take whole, as they take the split's real frames.
Each clip's ODE seed is drawn from the run seed by clip position, and a
batched draw equals the draw made alone, so a clip's motion depends neither
on the rest of the split nor on where the chunks fall. `cfmlab generate
--count` draws in chunks of the same budget (`clips_per_chunk`). The
conditions stay per clip while the benchmark clocks its calibration kernel
on `condition_for_clip` calls (ROADMAP item 1).
"""

from __future__ import annotations

import numpy as np

from .alignment import project_and_normalize_batch
from .config import ConfigError, config_hash
from .flow import build_condition_batch
from .metrics import (
    MetricReport,
    beat_consistency,
    diversity,
    extract_kinematic_peaks,
    fgd,
    motion_features,
)
from .numerics import NumericError, no_grad
from .sampler import OdeConfig, sample_batch

__all__ = ["clips_per_chunk", "condition_for_clip", "generate_split", "evaluate_run"]

_ODE_SEED_TAG = 4  # distinct from the stage-1/stage-2 training rng streams

# Latent rows (clips x latent frames) per sampling call. Scoring a
# 512-clip split of 16-row clips at default dims, one BLAS thread on a
# 2-vCPU Xeon, ran at 317-404 clips/s with 32 rows, 514-613 with 128 and
# 718-723 with 512. The whole split (8192 rows) bought nothing more,
# 647-652 clips/s, and held about 6 MB more at peak, since a chunk's
# arrays grow with its rows; so the budget is a fixed chunk, not a split.
_CHUNK_ROWS = 512


def _clip_seeds(seed, n):
    return np.random.default_rng([int(seed), _ODE_SEED_TAG]).integers(
        0, 2**31, size=n)


def clips_per_chunk(rows):
    """Clips of `rows` latent rows each that one sampling call takes: as
    many as fit in `_CHUNK_ROWS`, and at least one."""
    return max(1, _CHUNK_ROWS // rows)


def condition_for_clip(audio, text, net, heads):
    """Project raw per-frame features through the trained alignment heads,
    then fuse into the conditioning sequence — the same path the generator
    saw during training. Returns the (L, d_O) condition array."""
    with no_grad():
        a = project_and_normalize_batch(np.asarray(audio, dtype=np.float64),
                                        heads.audio)
        t = project_and_normalize_batch(np.asarray(text, dtype=np.float64),
                                        heads.text)
        return build_condition_batch(a, t, net).data


def generate_split(cfg, clips, net, heads, stacks, codecs, proj=None):
    """Part -> (N, T, J) frames of one generated motion per clip of `clips`
    (a `Clips` record), seeds derived from the run seed so repeated
    evaluations are bit-identical; each chunk's frames go into arrays
    allocated at the first chunk."""
    if not clips:
        raise NumericError("no clips to generate from")
    seeds = _clip_seeds(cfg.seed, len(clips))
    size = clips_per_chunk(clips.audio.shape[1])
    out = {}
    for i in range(0, len(clips), size):
        conds = [condition_for_clip(audio, text, net, heads) for audio, text
                 in zip(clips.audio[i:i + size], clips.text[i:i + size])]
        odes = [OdeConfig(n=cfg.sampler.steps, scheme=cfg.sampler.scheme, seed=int(s))
                for s in seeds[i:i + size]]
        _, _, frames = sample_batch(net, stacks, codecs, conds, odes, proj=proj,
                                    scale=cfg.sacm.scale)
        for part, chunk in frames.items():
            if part not in out:
                out[part] = np.empty((len(clips),) + chunk.shape[1:])
            out[part][i:i + len(chunk)] = chunk
    return out


def evaluate_run(cfg, dataset, codecs, stacks, net=None, heads=None,
                 proj=None, split="test", self_eval=False):
    """Score a trained run on one dataset split.

    self_eval swaps the generated set for the real clips themselves — a
    calibration mode whose FGD must come out ~0.  Returns (MetricReport,
    details) where details carries the per-class matched/mismatched FGD the
    relational checks compare.
    """
    clips = dataset.splits[split]
    groups = {}
    for i, c in enumerate(clips.class_id.tolist()):
        groups.setdefault(c, []).append(i)
    if len(clips) < 4 or min(map(len, groups.values())) < 2:  # per-class FGD needs 2
        raise ConfigError(f"dataset.ratios: {split} split has {len(clips)} clips, "
                          f"need >= 4 and >= 2 of each class to evaluate")
    if not self_eval and (net is None or heads is None):
        raise NumericError("evaluation needs a trained velocity net and alignment "
                           "heads (or self_eval)")
    scale = cfg.sacm.scale
    real_all = motion_features(clips.motion, codecs, scale=scale)
    gen = clips.motion if self_eval else generate_split(cfg, clips, net, heads, stacks,
                                                        codecs, proj=proj)
    gen_all = motion_features(gen, codecs, scale=scale)

    real_cls = {c: real_all[idx] for c, idx in groups.items()}
    gen_cls = {c: gen_all[idx] for c, idx in groups.items()}

    matched = {c: fgd(real_cls[c], gen_cls[c]) for c in groups}
    cross = []
    for c in groups:
        for c2 in groups:
            if c2 != c:
                cross.append(fgd(real_cls[c2], gen_cls[c]))
    fgd_matched = float(np.mean(list(matched.values())))
    fgd_mismatched = float(np.mean(cross)) if cross else None

    fps = cfg.dataset.fps
    bc_values = beat_consistency(extract_kinematic_peaks(gen, fps), clips.onsets,
                                 cfg.dataset.n_frames / fps, sigma=cfg.metrics.sigma)

    report = MetricReport(
        fgd=fgd(real_all, gen_all),
        bc=float(np.mean(bc_values)),
        diversity=diversity(gen_all),
        config_hash=config_hash(cfg),
        n_real=len(real_all),
        n_gen=len(gen_all),
    )
    details = {
        "fgd_matched": fgd_matched,
        "fgd_mismatched": fgd_mismatched,
        "fgd_by_class": {str(c): matched[c] for c in sorted(matched)},
        "bc_per_clip": bc_values.tolist(),
        "diversity_real": diversity(real_all),
        "split": split,
        "self_eval": bool(self_eval),
    }
    return report, details
