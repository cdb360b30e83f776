"""Evaluation metrics: Fréchet gesture distance, beat consistency, diversity.

Features for the distributional metrics live in the frozen stage-1 space:
each clip's parts are encoded, concatenated into the composite latent, and
mean-pooled over time, so real and generated motion are compared in the same
space the generator is trained to hit.

Kinematic peaks come from a small numpy peak finder with the semantics of
`scipy.signal.find_peaks(x, height=h, distance=d)`: plateau midpoints, a
height floor, then distance pruning from the highest peak down. It spares
every process that imports this module the cost of importing `scipy.signal`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .alignment import composite_batch
from .codec import PART_ORDER, encode_part_batch
# unused here since features are batched, but perfbench's traced runs wrap
# this name on this module (perfbench/layers.py), so it must resolve
from .codec import encode_part  # noqa: F401
from .numerics import NumericError, no_grad

__all__ = [
    "FeatureSet",
    "OnsetTrack",
    "MetricReport",
    "fgd",
    "extract_kinematic_peaks",
    "beat_consistency",
    "diversity",
    "motion_features",
]

PROVENANCES = ("real", "generated")


@dataclass
class FeatureSet:
    features: np.ndarray  # (N, d_f)
    provenance: str = "real"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise NumericError(f"features must be (N, d_f), got {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise NumericError("non-finite feature values")
        if self.provenance not in PROVENANCES:
            raise NumericError(f"provenance must be one of {PROVENANCES}")

    @property
    def n(self):
        return self.features.shape[0]


@dataclass
class OnsetTrack:
    times: np.ndarray  # strictly increasing, seconds
    duration: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.duration = float(self.duration)
        if self.times.ndim != 1:
            raise NumericError(f"onset times must be 1-D, got shape {self.times.shape}")
        if not self.duration > 0:
            raise NumericError(f"clip duration must be positive, got {self.duration}")
        if np.any(np.diff(self.times) <= 0):
            raise NumericError("onset times must be strictly increasing")
        if self.times.size and (self.times[0] < 0 or self.times[-1] > self.duration):
            raise NumericError("onset times must lie within [0, duration]")


@dataclass
class MetricReport:
    fgd: float
    bc: float
    diversity: float
    config_hash: str
    n_real: int
    n_gen: int

    def __post_init__(self):
        self.fgd = float(self.fgd)
        if self.fgd < -1e-8:
            raise NumericError(f"fgd {self.fgd} below numerical slack")
        self.fgd = max(self.fgd, 0.0)
        self.bc = float(self.bc)
        if not 0.0 <= self.bc <= 1.0:
            raise NumericError(f"beat consistency {self.bc} outside [0, 1]")
        self.diversity = float(self.diversity)
        if self.diversity < 0.0:
            raise NumericError(f"diversity {self.diversity} negative")

    def to_json(self):
        return json.dumps(
            {"fgd": self.fgd, "bc": self.bc, "diversity": self.diversity,
             "n_real": self.n_real, "n_gen": self.n_gen,
             "config_hash": self.config_hash},
            sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------------------ fgd

def _as_features(x, min_n=2):
    feats = x.features if isinstance(x, FeatureSet) else np.asarray(x, dtype=np.float64)
    if feats.ndim != 2:
        raise NumericError(f"features must be (N, d_f), got shape {feats.shape}")
    if feats.shape[0] < min_n:
        raise NumericError(
            f"need at least {min_n} samples for distributional metrics, got {feats.shape[0]}")
    if not np.all(np.isfinite(feats)):
        raise NumericError("non-finite feature values")
    return feats


def _psd_sqrt(mat, tol=1e-8):
    """Square root of a symmetric PSD matrix by eigendecomposition; tiny
    negative eigenvalues (> -tol) are clamped, anything below is an error."""
    vals, vecs = np.linalg.eigh(mat)
    if np.any(vals < -tol):
        raise NumericError(
            f"matrix square root failed: eigenvalue {vals.min():.3e} < -{tol:g}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def fgd(real, gen):
    """||mu_r - mu_g||^2 + Tr(S_r + S_g - 2 (S_r S_g)^{1/2}) with sample
    covariances (1/(N-1)); the cross term is computed through the symmetric
    product S_r^{1/2} S_g S_r^{1/2} so the eigendecomposition stays real."""
    a = _as_features(real)
    b = _as_features(gen)
    if a.shape[1] != b.shape[1]:
        raise NumericError(f"feature dims differ: {a.shape[1]} vs {b.shape[1]}")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.atleast_2d(np.cov(a, rowvar=False))
    cov_b = np.atleast_2d(np.cov(b, rowvar=False))
    root_a = _psd_sqrt(cov_a)
    inner = root_a @ cov_b @ root_a
    inner = 0.5 * (inner + inner.T)
    vals = np.linalg.eigvalsh(inner)
    # rank-deficient covariances put many eigenvalues at the noise floor,
    # where sqrt amplifies them to ~d * sqrt(||inner|| * eps); the slack must
    # cover that, so it is relative to the problem scale, not absolute
    scale = max(1.0, float(np.trace(cov_a) + np.trace(cov_b)))
    if np.any(vals < -1e-6 * max(1.0, float(vals.max(initial=0.0)))):
        raise NumericError(
            f"matrix square root failed: eigenvalue {vals.min():.3e} too negative")
    trace_sqrt = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))
    diff = mu_a - mu_b
    value = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * trace_sqrt)
    if value < -1e-6 * scale:
        raise NumericError(f"fgd evaluated to {value}, below numerical slack")
    return max(value, 0.0)


# ------------------------------------------------------------- kinematic peaks

def _find_peaks(x, height, distance):
    """Indices of the local maxima of 1-D `x` that reach `height` and lie at
    least ceil(`distance`) >= 1 samples apart, as `scipy.signal.find_peaks`
    returns them: a flat plateau reports its midpoint (left + right) // 2,
    and among peaks too close together the highest stays, visiting peaks in
    `np.argsort(x[peaks])` order from the end."""
    n = x.shape[0]
    if n < 3:
        return np.empty(0, dtype=np.intp)
    mid = x[1:-1]
    if (x[1:] != x[:-1]).all():
        peaks = np.flatnonzero((x[:-2] < mid) & (mid > x[2:])) + 1
    else:
        # runs of equal samples; a run is a peak when the samples on both
        # sides of it are lower
        starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
        ends = np.append(starts[1:], n) - 1
        inner = (starts > 0) & (ends < n - 1)
        starts, ends = starts[inner], ends[inner]
        up = (x[starts - 1] < x[starts]) & (x[ends + 1] < x[ends])
        peaks = (starts[up] + ends[up]) // 2
    peaks = peaks[height <= x[peaks]]
    gap = math.ceil(distance)
    if peaks.size < 2 or np.diff(peaks).min() >= gap:
        return peaks
    keep = np.ones(peaks.size, dtype=bool)
    pos = peaks.tolist()
    for j in np.argsort(x[peaks])[::-1].tolist():
        if not keep[j]:
            continue
        k = j - 1
        while k >= 0 and pos[j] - pos[k] < gap:
            keep[k] = False
            k -= 1
        k = j + 1
        while k < len(pos) and pos[k] - pos[j] < gap:
            keep[k] = False
            k += 1
    return peaks[keep]


def extract_kinematic_peaks(clips, threshold_std=0.5, min_separation=3):
    """Local maxima of the per-frame joint-speed norm summed over the parts
    of `clips` (part -> MotionClip).

    Speed index i is the transition frame i -> i+1 and is reported as time
    i / fps; peaks must clear mean + threshold_std * std and sit at least
    min_separation speed samples apart (rounded up, and at least 1).
    """
    if not min_separation >= 1:
        raise NumericError(f"min_separation must be at least 1, got {min_separation}")
    if not clips:
        raise NumericError("no motion clips to extract peaks from")
    counts = {c.frames.shape[0] for c in clips.values()}
    rates = {c.fps for c in clips.values()}
    if len(counts) != 1 or len(rates) != 1:
        raise NumericError("parts disagree on frame count or fps")
    n_frames, fps = counts.pop(), rates.pop()
    if n_frames < 3:
        raise NumericError(f"need at least 3 frames to extract peaks, got {n_frames}")
    speed = np.zeros(n_frames - 1)
    for clip in clips.values():
        speed += np.linalg.norm(np.diff(clip.frames, axis=0), axis=1)
    height = speed.mean() + threshold_std * speed.std()
    idx = _find_peaks(speed, height, min_separation)
    return OnsetTrack(times=idx / fps, duration=n_frames / fps)


# ------------------------------------------------------------ beat consistency

def beat_consistency(motion_peaks, audio_onsets, sigma=0.1):
    """Mean Gaussian affinity of each motion peak to its nearest audio onset."""
    if not sigma > 0:
        raise NumericError(f"kernel width sigma must be positive, got {sigma}")
    if audio_onsets.times.size == 0:
        raise NumericError("audio onset track is empty")
    if motion_peaks.times.size == 0:
        return 0.0
    delta = motion_peaks.times[:, None] - audio_onsets.times[None, :]
    nearest_sq = np.min(delta * delta, axis=1)
    return float(np.mean(np.exp(-nearest_sq / (2.0 * sigma * sigma))))


# ------------------------------------------------------------------- diversity

def diversity(samples):
    """Mean L2 distance over all unordered sample pairs."""
    feats = _as_features(samples)
    return float(np.mean(pdist(feats)))


# ------------------------------------------------------------ feature extractor

def motion_features(clips, codecs, scale=2.0, provenance="real"):
    """Frozen stage-1 feature space: encode each part, build the composite
    latent, mean-pool over time; one d_G row per clip, each clip a part ->
    MotionClip dict. All clips run as one batch, so they must share a frame
    count."""
    if not clips:
        raise NumericError("no clips given to motion_features")
    for parts_map in clips:
        missing = [p for p in PART_ORDER if p not in parts_map]
        if missing:
            raise NumericError(f"clip missing parts for feature extraction: {missing}")
    with no_grad():
        latents = {p: encode_part_batch(np.stack([m[p].frames for m in clips]), codecs[p])
                   for p in PART_ORDER}
        comp = composite_batch(latents, scale).data
    return FeatureSet(comp.mean(axis=1), provenance=provenance)
