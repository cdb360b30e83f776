"""Procedural (audio, text, motion) triples with controllable gesture classes.

Each class owns near-orthogonal text/audio anchor vectors and a motion
template: per-part sinusoidal sway plus raised-cosine velocity strokes fired
at planted onset times, with a class-specific part-amplitude signature (class
0 hand-dominant, class 1 upper-dominant, ...), so cross-part structure
carries the class identity. Audio features mark every onset with a pulse on
their last channel, which is what ties generated motion back to the beat.

A dataset is built in one batched pass (`generate_utterances`): each clip
draws its random numbers from its own seeded stream, so it is the same clip
whichever batch builds it, and the physics (sway, strokes, the leaky
integration to positions) is vectorised across a block of clips, one block
at a time, straight into the returned arrays, so the build holds the
dataset and one block's velocity buffer, not a second copy of the motion.

Clips live in one `Clips` record of arrays with a leading clip axis:
`class_id` and `seed` (N,), `audio` (N, L, d_a), `text` (N, L, d_t),
`motion` part -> (N, T, J) and `onsets` (N, M) in seconds. An int index
gives one clip, each field without its clip axis; a slice gives a `Clips`
of views into the same arrays, so the dataset's splits share the arrays
of the one batch that built them, and an empty split keeps its trailing
shapes. `Clips.chunks` walks a split in views of `clips_per_chunk` clips:
stage-2 preparation and evaluation run over it, so each holds one chunk's
intermediates, not the whole split's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .codec import PART_JOINTS, PART_ORDER
from .config import STROKE_HALF_WIDTH, DatasetConfig
from .numerics import NumericError

__all__ = [
    "SPLITS",
    "GestureClass",
    "Clips",
    "clips_per_chunk",
    "DatasetConfig",
    "Dataset",
    "make_gesture_classes",
    "generate_utterances",
    "generate_utterance",
    "build_dataset",
    "save_dataset",
    "NegativePairing",
    "sample_derangement",
    "mismatch_pairing",
]

SPLITS = ("train", "val", "test")
STROKE_AMPLITUDE = 2.0
BASE_SWAY_AMPLITUDE = 0.3
PULSE_AMPLITUDE = 1.5   # onset marker on the last audio channel
POSITION_DECAY = 0.95   # per-frame relaxation toward the rest pose

# Clips whose physics `generate_utterances` runs at once. With one BLAS
# thread on a 2-vCPU Xeon, the fastest of 7 builds of 512 clips of 64
# frames took 89, 72, 68, 63 and 62 ms with blocks of 4, 8, 16, 32 and 64
# clips, and of 160 clips of 512 frames 202, 159, 132, 124 and 127 ms,
# against at best 75 and 150 ms with one buffer for every clip. A block's
# buffer holds 32 x 512 frames x 60 joints (7.9 MB) at 512 frames.
_BLOCK_CLIPS = 32

# Latent rows (clips x latent frames) per chunk of a whole-split pass.
# Scoring a 512-clip split of 16-row clips at default dims, one BLAS thread
# on a 2-vCPU Xeon, ran at 317-404 clips/s with 32 rows, 514-613 with 128
# and 718-723 with 512. The whole split (8192 rows) bought nothing more,
# 647-652 clips/s, and held about 6 MB more at peak, since a chunk's
# arrays grow with its rows; so the budget is a fixed chunk, not a split.
_CHUNK_ROWS = 512


def clips_per_chunk(rows):
    """Clips of `rows` latent rows each that one chunk takes: as many as
    fit in `_CHUNK_ROWS`, and at least one."""
    return max(1, _CHUNK_ROWS // rows)


@dataclass
class GestureClass:
    id: int
    freqs: dict           # part -> base sway frequency (Hz)
    part_weights: dict    # part -> stroke amplitude weight
    phases: dict          # part -> (J,) per-joint phase offsets
    stroke_dirs: dict     # part -> (J,) unit stroke direction
    text_anchor: np.ndarray   # (d_t,) unit norm
    audio_anchor: np.ndarray  # (d_a,) unit norm


@dataclass
class Clips:
    class_id: np.ndarray  # (N,) int64
    seed: np.ndarray      # (N,) int64
    audio: np.ndarray     # (N, L, d_a) latent-rate features
    text: np.ndarray      # (N, L, d_t)
    motion: dict          # part -> (N, T, J) frames
    onsets: np.ndarray    # (N, M) planted onset times, seconds

    def __len__(self):
        return len(self.seed)

    def __getitem__(self, index):
        """An int gives one clip without the clip axis; a slice, views."""
        return Clips(class_id=self.class_id[index], seed=self.seed[index],
                     audio=self.audio[index], text=self.text[index],
                     motion={p: m[index] for p, m in self.motion.items()},
                     onsets=self.onsets[index])

    def chunks(self):
        """(start, view) of consecutive clips, `clips_per_chunk` at a time."""
        size = clips_per_chunk(self.audio.shape[1])
        for start in range(0, len(self), size):
            yield start, self[start:start + size]


@dataclass
class Dataset:
    config: DatasetConfig
    classes: list
    splits: dict  # split -> Clips


# -------------------------------------------------------------------- classes

def make_gesture_classes(rng, n_classes=3, d_text=16, d_audio=16):
    """Classes with orthonormal anchors (the columns of a QR factor, so
    unit norm and pairwise cosine 0) and distinct part-amplitude
    signatures."""
    qt, _ = np.linalg.qr(rng.standard_normal((d_text, n_classes)))
    qa, _ = np.linalg.qr(rng.standard_normal((d_audio, n_classes)))
    classes = []
    for c in range(n_classes):
        weights = {p: 0.4 for p in PART_ORDER}
        weights[PART_ORDER[c % len(PART_ORDER)]] = 2.0
        freqs = {p: float(rng.uniform(0.5, 1.5)) for p in PART_ORDER}
        phases = {p: rng.uniform(0.0, 2.0 * math.pi, PART_JOINTS[p])
                  for p in PART_ORDER}
        dirs = {}
        for p in PART_ORDER:
            v = rng.standard_normal(PART_JOINTS[p])
            dirs[p] = v / np.linalg.norm(v)
        classes.append(GestureClass(
            id=c, freqs=freqs, part_weights=weights, phases=phases,
            stroke_dirs=dirs, text_anchor=qt[:, c], audio_anchor=qa[:, c]))
    return classes


# ------------------------------------------------------------------ utterance

def _plant_onsets(rng, n_frames, n_onsets):
    """Jittered-grid onset frames: at least 3 apart (so peak extraction, at
    `metrics.PEAK_MIN_SEPARATION`, can recover every one) and clear of the clip ends."""
    lo, hi = STROKE_HALF_WIDTH + 1, n_frames - STROKE_HALF_WIDTH - 3
    span = hi - lo
    spacing = span / n_onsets
    jitter = min(2, max(0, int((spacing - 3.0) / 2.0)))
    frames = np.asarray(
        [int(round(lo + spacing * (i + 0.5))) + int(rng.integers(-jitter, jitter + 1))
         for i in range(n_onsets)], dtype=np.int64)
    if np.any(np.diff(frames) < 3):
        # rounding or jitter closed a gap; the floored grid keeps every gap
        # >= floor(spacing) >= 3 and stays in [lo, hi], with no more draws
        frames = np.floor(lo + spacing * (np.arange(n_onsets) + 0.5)).astype(np.int64)
    return frames


def generate_utterances(seeds, gclasses, noise, n_frames=64, fps=15.0,
                        downsample=4, n_onsets=4):
    """Deterministic (seed, class, noise) -> `Clips` of one congruent triple
    per seed.

    Clip b draws every random number from its own `default_rng(seeds[b])`, in
    a fixed order: onsets, then per part its first pose row and its noise,
    then audio noise, then text noise. So a clip does not depend on the
    batch it is built in. The physics then runs across a block of
    `_BLOCK_CLIPS` clips at a time, straight into the returned arrays.
    Strokes are planted in velocity space so the summed joint-speed apex
    lands exactly on each onset frame; audio features carry a pulse on their
    last channel at the matching latent step.
    """
    if len(seeds) != len(gclasses):
        raise NumericError(f"got {len(seeds)} seeds for {len(gclasses)} classes")
    n = len(seeds)
    bounds = np.cumsum([0] + [PART_JOINTS[p] for p in PART_ORDER])
    cols = {p: slice(bounds[i], bounds[i + 1]) for i, p in enumerate(PART_ORDER)}
    width, n_latent = bounds[-1], n_frames // downsample

    unique = list({id(g): g for g in gclasses}.values())
    index = {id(g): c for c, g in enumerate(unique)}
    cls = np.array([index[id(g)] for g in gclasses], dtype=np.intp)
    times = np.arange(n_frames - 1, dtype=np.float64) / fps
    offsets = range(-STROKE_HALF_WIDTH, STROKE_HALF_WIDTH + 1)
    bumps = [0.5 * (1.0 + math.cos(math.pi * k / STROKE_HALF_WIDTH)) for k in offsets]
    # per class, the sway velocity of every step and the velocity of every
    # stroke offset; every stroke of a class pushes along that class's
    # signature direction, so repeated beats read as the same gesture
    sway = np.empty((n_frames - 1, len(unique), width))
    strokes = np.empty((len(unique), len(bumps), width))
    for c, g in enumerate(unique):
        for part in PART_ORDER:
            j = PART_JOINTS[part]
            sway[:, c, cols[part]] = (BASE_SWAY_AMPLITUDE / math.sqrt(j)) * np.sin(
                2.0 * math.pi * g.freqs[part] * times[:, None] + g.phases[part][None, :])
            for i, bump in enumerate(bumps):
                strokes[c, i, cols[part]] = (STROKE_AMPLITUDE * g.part_weights[part]
                                             * bump * g.stroke_dirs[part])

    onsets = np.empty((n, n_onsets), dtype=np.int64)
    motion = {p: np.empty((n, n_frames, PART_JOINTS[p])) for p in PART_ORDER}
    audio = np.empty((n, n_latent, gclasses[0].audio_anchor.shape[0]))
    text = np.empty((n, n_latent, gclasses[0].text_anchor.shape[0]))
    # every block's frames are a prefix of one buffer, so no two blocks'
    # buffers are ever alive at once
    buffer = np.empty(n_frames * min(n, _BLOCK_CLIPS) * width)
    for start in range(0, n, _BLOCK_CLIPS):
        stop = min(start + _BLOCK_CLIPS, n)
        # frames[t + 1, b] holds the velocity of step t until the leaky
        # integration below turns it into a position
        frames = buffer[:n_frames * (stop - start) * width].reshape(
            n_frames, stop - start, width)
        for b in range(start, stop):
            rng = np.random.default_rng(seeds[b])
            onsets[b] = _plant_onsets(rng, n_frames, n_onsets)
            for part in PART_ORDER:
                frames[0, b - start, cols[part]] = 0.2 * rng.standard_normal(
                    PART_JOINTS[part])
                rng.standard_normal(out=motion[part][b])
            rng.standard_normal(out=audio[b])
            rng.standard_normal(out=text[b])
        np.take(sway, cls[start:stop], axis=1, out=frames[1:], mode="clip")
        # (onset, offset) order keeps the sums of overlapping strokes in the
        # order of a per-clip loop; _plant_onsets keeps every stroke in the clip
        rows = np.arange(stop - start)
        for o in range(n_onsets):
            for i, k in enumerate(offsets):
                frames[onsets[start:stop, o] + k + 1, rows] += strokes[cls[start:stop], i]
        # leaky integration: joints relax toward rest between strokes instead
        # of drifting without bound
        for t in range(1, n_frames):
            frames[t] += POSITION_DECAY * frames[t - 1]
        for part in PART_ORDER:
            block = motion[part][start:stop]
            block *= noise
            block += frames[:, :, cols[part]].transpose(1, 0, 2)

    audio *= noise
    audio += np.stack([g.audio_anchor for g in unique])[cls][:, None, :]
    text *= noise
    text += np.stack([g.text_anchor for g in unique])[cls][:, None, :]
    rows = np.arange(n)
    for o in range(n_onsets):
        audio[rows, onsets[:, o] // downsample, -1] += PULSE_AMPLITUDE
    return Clips(class_id=np.array([g.id for g in gclasses], dtype=np.int64),
                 seed=np.array(seeds, dtype=np.int64), audio=audio, text=text,
                 motion=motion, onsets=onsets / fps)


def generate_utterance(seed, gclass, noise, n_frames=64, fps=15.0,
                       downsample=4, n_onsets=4):
    """One clip of `generate_utterances`."""
    return generate_utterances([seed], [gclass], noise, n_frames=n_frames, fps=fps,
                               downsample=downsample, n_onsets=n_onsets)[0]


# -------------------------------------------------------------------- dataset

def _split_sizes(n, ratios):
    """Largest-remainder apportionment, so sizes always sum to n."""
    exact = [r * n for r in ratios]
    sizes = [int(math.floor(e)) for e in exact]
    remainders = sorted(range(3), key=lambda i: exact[i] - sizes[i], reverse=True)
    for i in range(n - sum(sizes)):
        sizes[remainders[i]] += 1
    return dict(zip(SPLITS, sizes))


def build_dataset(config):
    """Class-balanced, disjoint, seed-deterministic train/val/test splits."""
    rng = np.random.default_rng(config.seed)
    classes = make_gesture_classes(rng, config.n_classes, config.d_text,
                                   config.d_audio)
    clip_seeds = rng.integers(0, 2**32, size=config.n_clips)
    clips = generate_utterances(
        [int(seed) for seed in clip_seeds],
        [classes[i % config.n_classes] for i in range(config.n_clips)],
        config.noise, n_frames=config.n_frames, fps=config.fps,
        downsample=config.downsample, n_onsets=config.n_onsets)
    sizes = _split_sizes(config.n_clips, config.ratios)
    splits, start = {}, 0
    for split in SPLITS:
        splits[split] = clips[start:start + sizes[split]]
        start += sizes[split]
    return Dataset(config=config, classes=classes, splits=splits)


def save_dataset(dataset, out_dir):
    """Export `dataset` to `out_dir`: a JSON manifest and one tensor file for
    the classes and one per split. The export is write-only: no command
    reads it back, each rebuilds the dataset from its config."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = dataset.config
    manifest = {
        "classes": cfg.n_classes,
        "n_clips": cfg.n_clips,
        "dims": {"d_audio": cfg.d_audio, "d_text": cfg.d_text,
                 "n_frames": cfg.n_frames, "downsample": cfg.downsample,
                 "n_onsets": cfg.n_onsets, "noise": cfg.noise,
                 "ratios": list(cfg.ratios)},
        "fps": cfg.fps,
        "seed": cfg.seed,
        "split_sizes": {s: len(dataset.splits[s]) for s in SPLITS},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    class_tensors = {
        "classes/text_anchor": np.stack([c.text_anchor for c in dataset.classes]),
        "classes/audio_anchor": np.stack([c.audio_anchor for c in dataset.classes]),
        "classes/freqs": np.array(
            [[c.freqs[p] for p in PART_ORDER] for c in dataset.classes]),
        "classes/part_weights": np.array(
            [[c.part_weights[p] for p in PART_ORDER] for c in dataset.classes]),
    }
    for part in PART_ORDER:
        class_tensors[f"classes/phases/{part}"] = np.stack(
            [c.phases[part] for c in dataset.classes])
        class_tensors[f"classes/stroke_dirs/{part}"] = np.stack(
            [c.stroke_dirs[part] for c in dataset.classes])
    save_checkpoint(out_dir / "classes.bin", class_tensors)

    for split in SPLITS:
        clips = dataset.splits[split]
        tensors = {f"data/{split}/class": clips.class_id, f"data/{split}/seed": clips.seed,
                   f"data/{split}/audio": clips.audio, f"data/{split}/text": clips.text,
                   f"data/{split}/onsets": clips.onsets}
        for part in PART_ORDER:
            tensors[f"data/{split}/motion/{part}"] = clips.motion[part]
        save_checkpoint(out_dir / f"{split}.bin", tensors)  # as float64
    return out_dir


# ------------------------------------------------------------------ negatives

PAIRING_TRIES = 10  # repaired derangements drawn before taking the best


@dataclass
class NegativePairing:
    permutation: np.ndarray   # (B,) derangement of batch indices
    velocity: np.ndarray      # (B, L, d_G) repulsion target z1[permutation] - z0


def sample_derangement(rng, n):
    """Uniform fixed-point-free permutation by rejection sampling."""
    if n < 2:
        raise NumericError("derangement needs batch size >= 2")
    while True:
        perm = rng.permutation(n)
        if not np.any(perm == np.arange(n)):
            return perm


def _repaired_cross_class_derangement(rng, class_ids):
    """One attempt at an all-cross-class derangement: draw a derangement,
    then swap away same-class assignments. Each swap keeps both positions
    cross-class, which also rules out fixed points, so the result is always
    a valid derangement even when some violations remain (e.g. when one
    class holds a majority of the batch). Returns (perm, violations)."""
    n = class_ids.shape[0]
    perm = sample_derangement(rng, n)
    for _ in range(4 * n):
        bad = np.flatnonzero(class_ids[perm] == class_ids)
        if bad.size == 0:
            return perm, 0
        i = int(rng.choice(bad))
        # a valid partner j gives i a cross-class target and keeps its own
        candidates = np.flatnonzero(
            (class_ids[perm] != class_ids[i]) & (class_ids[perm[i]] != class_ids))
        candidates = candidates[candidates != i]
        if candidates.size == 0:
            break
        j = int(rng.choice(candidates))
        perm[i], perm[j] = perm[j], perm[i]
    return perm, int(np.sum(class_ids[perm] == class_ids))


def mismatch_pairing(z1, z0, class_ids, rng):
    """Class-aware negatives for contrastive flow matching. The derangement
    is resampled (with repair) until every item's partner comes from another
    class, up to PAIRING_TRIES draws, else the best seen is kept; a batch of
    one class takes a plain derangement. The repulsion target is the
    straight-path velocity toward the partner's latent, z1[perm] - z0; the
    condition stays the item's own."""
    class_ids = np.asarray(class_ids)
    if np.unique(class_ids).size == 1:
        perm = sample_derangement(rng, class_ids.shape[0])
    else:
        perm, violations = _repaired_cross_class_derangement(rng, class_ids)
        for _ in range(PAIRING_TRIES - 1):
            if violations == 0:
                break
            candidate, v = _repaired_cross_class_derangement(rng, class_ids)
            if v < violations:
                perm, violations = candidate, v
    return NegativePairing(permutation=perm, velocity=np.asarray(z1)[perm] - z0)
