"""Evaluation metrics: Fréchet gesture distance, beat consistency, diversity.

Metrics take N motions as arrays, part -> (N, T, J) frames. Features for
the distributional metrics live in the frozen stage-1 space: each motion's
parts are encoded, concatenated into the composite latent and mean-pooled
over time, so real and generated motion are compared in the same space the
generator is trained to hit.

Features, kinematic peaks and beat consistency work row by row, so
`evaluate.evaluate_run` takes them one chunk of clips at a time, and only
the per-clip features and beat scores outlive a chunk. FGD and diversity
need every feature row at once, and take the whole split's (N, d_G).

Beat consistency works on all N rows at once but for the peak search, which
runs per row since its distance pruning is sequential: a small numpy finder
with the semantics of `scipy.signal.find_peaks(x, height=h, distance=d)`.
It spares every process that imports this module importing `scipy.signal`.

Diversity's pair distances are computed here too, with the summation order
of `scipy.spatial.distance.pdist`: for each pair, the squared differences
are added over the feature axis in index order, then square-rooted, and
the distances come in condensed (i < j) order, so their mean has pdist's
bits. Importing `scipy.spatial` would load `scipy.sparse`, `scipy.linalg`,
qhull and the kd-tree, about 110 modules and 12 MB resident in every
process; a Gram-matrix form would be faster but changes the bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .alignment import composite_batch
from .codec import encode_part_batch
# unused here since features are batched, but perfbench's traced runs wrap
# this name on this module (perfbench/layers.py), so it must resolve
from .codec import encode_part  # noqa: F401
from .numerics import NumericError, no_grad

__all__ = [
    "MetricReport",
    "fgd",
    "extract_kinematic_peaks",
    "beat_consistency",
    "diversity",
    "motion_features",
]

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
    feats = np.asarray(x, dtype=np.float64)
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


def extract_kinematic_peaks(parts, fps, threshold_std=0.5, min_separation=3):
    """Local maxima of the per-frame joint-speed norm of N motions, summed
    over the parts of `parts` (part -> (N, T, J) frames).

    Speed index i is the transition frame i -> i+1 and is reported as time
    i / fps; a row's peaks must clear its mean + threshold_std * std and sit
    at least min_separation speed samples apart (rounded up, and at least
    1). Returns (times, counts): the peak times of every row, row after
    row, and each row's peak count.
    """
    if not min_separation >= 1:
        raise NumericError(f"min_separation must be at least 1, got {min_separation}")
    shapes = {np.shape(frames)[:2] for frames in parts.values()}
    if len(shapes) != 1:
        raise NumericError(f"parts disagree on clip or frame count: {sorted(shapes)}")
    (n, n_frames), = shapes
    if n_frames < 3:
        raise NumericError(f"need at least 3 frames to extract peaks, got {n_frames}")
    speed = np.zeros((n, n_frames - 1))
    for frames in parts.values():
        d = np.diff(frames, axis=1)
        d *= d  # np.linalg.norm's square and reduce, in place
        speed += np.sqrt(np.add.reduce(d, axis=2))
    heights = speed.mean(axis=1) + threshold_std * speed.std(axis=1)
    rows = [_find_peaks(x, h, min_separation) for x, h in zip(speed, heights)]
    return np.concatenate(rows) / fps, np.array([r.size for r in rows])


# ------------------------------------------------------------ beat consistency

def beat_consistency(peaks, onsets, duration, sigma=0.1):
    """Per row, the mean Gaussian affinity of each motion peak to the nearest
    of the row's audio onsets, or 0.0 without peaks. `peaks` is the (times,
    counts) pair of `extract_kinematic_peaks`; `onsets` (N, M) holds strictly
    increasing times in [0, duration]. Every affinity is computed at once,
    and the rows of one peak count are averaged together, so each row gets
    the bits it would get alone. Returns (N,)."""
    times, counts = peaks
    onsets = np.asarray(onsets, dtype=np.float64)
    if not sigma > 0:
        raise NumericError(f"kernel width sigma must be positive, got {sigma}")
    if not duration > 0:
        raise NumericError(f"clip duration must be positive, got {duration}")
    if onsets.shape[:1] != counts.shape or onsets.ndim != 2 or onsets.shape[1] == 0:
        raise NumericError(f"audio onset track is empty or not ({counts.size}, M): "
                           f"{onsets.shape}")
    if np.any(np.diff(onsets, axis=1) <= 0):
        raise NumericError("onset times must be strictly increasing")
    if np.any(onsets[:, 0] < 0) or np.any(onsets[:, -1] > duration):
        raise NumericError("onset times must lie within [0, duration]")
    delta = times[:, None] - np.repeat(onsets, counts, axis=0)
    affinity = np.exp(-np.min(delta * delta, axis=1) / (2.0 * sigma * sigma))
    out, starts = np.zeros(counts.size), np.cumsum(counts) - counts
    for k in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == k)
        out[rows] = affinity[starts[rows, None] + np.arange(k)].mean(axis=1)
    return out


# ------------------------------------------------------------------- diversity

def _pair_distances(x):
    """The L2 distances of the rows of `x` (N, d) in condensed (i < j)
    order, bit for bit as `pdist(x)`: each block of 64 rows against all
    later rows, summing one feature's squared differences at a time."""
    n = x.shape[0]
    out = np.empty(n * (n - 1) // 2)
    at = 0
    for start in range(0, n - 1, 64):
        rows = x[start:start + 64]
        acc = np.zeros((rows.shape[0], n - start - 1))
        for k in range(x.shape[1]):
            d = np.subtract.outer(rows[:, k], x[start + 1:, k])
            acc += np.multiply(d, d, out=d)
        # row start + r pairs with the later rows from column r on
        upper = acc[np.arange(acc.shape[1]) >= np.arange(rows.shape[0])[:, None]]
        out[at:at + upper.size] = np.sqrt(upper)
        at += upper.size
    return out


def diversity(samples):
    """Mean L2 distance over all unordered sample pairs."""
    feats = _as_features(samples)
    return float(np.mean(_pair_distances(feats)))


# ------------------------------------------------------------ feature extractor

def motion_features(parts, codecs, scale=2.0):
    """Frozen stage-1 feature space: encode each part of `parts` (part ->
    (N, T, J) frames), build the composite latent, mean-pool over time.
    Returns the (N, d_G) array, one row per motion."""
    with no_grad():
        latents = {p: encode_part_batch(frames, codecs[p]) for p, frames in parts.items()}
        comp = composite_batch(latents, scale).data
    return comp.mean(axis=1)
