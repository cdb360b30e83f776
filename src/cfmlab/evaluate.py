"""Evaluation: generate motion for held-out conditions, then score FGD
(pooled and per-class matched/mismatched), beat consistency against the
planted audio onsets, and feature-space diversity.

Features come from the frozen stage-1 encoders, so generated and real clips
are compared in the same space regardless of how the generator was trained.

A split is a `synthdata.Clips` record of arrays, read as it is: its
motion arrays are the real frames, its onsets the beat targets, and its
class ids group the per-class FGD. `evaluate_run` walks it in the chunks
of `Clips.chunks` (whole clips of at most `synthdata._CHUNK_ROWS` latent
rows). Each chunk is generated in one `sample_batch` call
(`generate_split`), with its conditions built just before it, one
`condition_for_clip` call per clip. The chunk pays each per-op cost of the
velocity net, TCAM, RVQ and decoders once for all its clips. Its generated
and real frames go straight to features and kinematic peaks, so the run
holds the per-clip features and beat scores, never a generated split.
Each clip's ODE seed is drawn from the run seed by clip position, and a
batched draw equals the draw made alone, so a clip's motion depends neither
on the rest of the split nor on where the chunks fall. `cfmlab generate
--count` draws in chunks of the same budget (`synthdata.clips_per_chunk`). The
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

__all__ = ["condition_for_clip", "generate_split", "evaluate_run"]

_ODE_SEED_TAG = 4  # distinct from the stage-1/stage-2 training rng streams


def _clip_seeds(seed, n):
    return np.random.default_rng([int(seed), _ODE_SEED_TAG]).integers(
        0, 2**31, size=n)


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


def generate_split(cfg, clips, seeds, net, heads, stacks, codecs, proj=None):
    """Part -> (n, T, J) frames of one generated motion per clip of `clips`
    (a `Clips` record), in one `sample_batch` call; `seeds` are the clips'
    ODE seeds."""
    if not clips:
        raise NumericError("no clips to generate from")
    conds = [condition_for_clip(audio, text, net, heads)
             for audio, text in zip(clips.audio, clips.text)]
    odes = [OdeConfig(n=cfg.sampler.steps, scheme=cfg.sampler.scheme, seed=int(s))
            for s in seeds]
    return sample_batch(net, stacks, codecs, conds, odes, proj=proj,
                        scale=cfg.sacm.scale)[2]


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
    scale, fps = cfg.sacm.scale, cfg.dataset.fps
    # drawn from the run seed by clip position, so repeated evaluations
    # are bit-identical
    seeds = _clip_seeds(cfg.seed, len(clips))
    real_all, gen_all, bc_values = [], [], []
    for start, chunk in clips.chunks():
        real = motion_features(chunk.motion, codecs, scale=scale)
        if self_eval:
            gen, feats = chunk.motion, real
        else:
            gen = generate_split(cfg, chunk, seeds[start:start + len(chunk)], net, heads,
                                 stacks, codecs, proj=proj)
            feats = motion_features(gen, codecs, scale=scale)
        real_all.append(real)
        gen_all.append(feats)
        bc_values.append(beat_consistency(
            extract_kinematic_peaks(gen, fps), chunk.onsets, cfg.dataset.n_frames / fps,
            sigma=cfg.metrics.sigma))
    real_all, gen_all, bc_values = map(np.concatenate, (real_all, gen_all, bc_values))

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
