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
integration to positions, audio pulses) is vectorised across clips.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .codec import PART_JOINTS, PART_ORDER, MotionClip
from .config import STROKE_HALF_WIDTH, ConfigError, DatasetConfig
from .flow import make_incongruent_batch, sample_derangement
from .numerics import NumericError

__all__ = [
    "SPLITS",
    "GestureClass",
    "SyntheticUtterance",
    "DatasetConfig",
    "Dataset",
    "make_gesture_classes",
    "generate_utterances",
    "generate_utterance",
    "build_dataset",
    "save_dataset",
    "load_dataset",
    "mismatch_pairing",
]

logger = logging.getLogger(__name__)

SPLITS = ("train", "val", "test")
STROKE_AMPLITUDE = 2.0
BASE_SWAY_AMPLITUDE = 0.3
PULSE_AMPLITUDE = 1.5   # onset marker on the last audio channel
POSITION_DECAY = 0.95   # per-frame relaxation toward the rest pose


@dataclass
class GestureClass:
    id: int
    freqs: dict           # part -> base sway frequency (Hz)
    part_weights: dict    # part -> stroke amplitude weight
    phases: dict          # part -> (J,) per-joint phase offsets
    stroke_dirs: dict     # part -> (J,) unit stroke direction
    text_anchor: np.ndarray
    audio_anchor: np.ndarray

    def __post_init__(self):
        if self.id < 0:
            raise NumericError(f"class id must be non-negative, got {self.id}")
        self.text_anchor = np.asarray(self.text_anchor, dtype=np.float64)
        self.audio_anchor = np.asarray(self.audio_anchor, dtype=np.float64)
        for anchor, name in ((self.text_anchor, "text"), (self.audio_anchor, "audio")):
            if abs(float(np.linalg.norm(anchor)) - 1.0) > 1e-9:
                raise NumericError(f"{name} anchor must be unit norm")


@dataclass
class SyntheticUtterance:
    class_id: int
    audio: np.ndarray    # (L, d_a) latent-rate features
    text: np.ndarray     # (L, d_t)
    motion: dict         # part -> MotionClip
    onsets: np.ndarray   # planted onset times, seconds
    seed: int

    def __post_init__(self):
        self.audio = np.asarray(self.audio, dtype=np.float64)
        self.text = np.asarray(self.text, dtype=np.float64)
        self.onsets = np.asarray(self.onsets, dtype=np.float64)
        missing = [p for p in PART_ORDER if p not in self.motion]
        if missing:
            raise NumericError(f"utterance missing motion parts: {missing}")
        if self.onsets.size and np.any(np.diff(self.onsets) <= 0):
            raise NumericError("planted onsets must be strictly increasing")


@dataclass
class Dataset:
    config: DatasetConfig
    classes: list
    splits: dict  # split -> list[SyntheticUtterance]


# -------------------------------------------------------------------- classes

def make_gesture_classes(rng, n_classes=3, d_text=16, d_audio=16):
    """Classes with orthonormal anchors (pairwise cosine 0 < 0.5 by
    construction) and distinct part-amplitude signatures."""
    if n_classes > min(d_text, d_audio):
        raise NumericError(
            f"cannot fit {n_classes} orthogonal anchors in dim "
            f"{min(d_text, d_audio)}")
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
    cosines = np.abs(qt.T @ qt - np.eye(n_classes))
    if cosines.size and cosines.max() >= 0.5:
        raise NumericError("class anchors insufficiently separated")
    return classes


# ------------------------------------------------------------------ utterance

def _plant_onsets(rng, n_frames, n_onsets):
    """Jittered-grid onset frames: at least 3 apart (so peak extraction with
    its default separation can recover every one) and clear of the clip ends."""
    lo, hi = STROKE_HALF_WIDTH + 1, n_frames - STROKE_HALF_WIDTH - 3
    span = hi - lo
    if n_onsets < 1 or span < 3 * n_onsets:
        raise NumericError(f"clip of {n_frames} frames too short for {n_onsets} onsets")
    spacing = span / n_onsets
    jitter = min(2, max(0, int((spacing - 3.0) / 2.0)))
    frames = np.asarray(
        [int(round(lo + spacing * (i + 0.5))) + int(rng.integers(-jitter, jitter + 1))
         for i in range(n_onsets)], dtype=np.int64)
    if np.any(np.diff(frames) < 3):
        raise NumericError("planted onsets landed too close together")
    return frames


def generate_utterances(seeds, gclasses, noise, n_frames=64, fps=15.0,
                        downsample=4, n_onsets=4):
    """Deterministic (seed, class, noise) -> one congruent triple per seed.

    Clip b draws every random number from its own `default_rng(seeds[b])`, in
    a fixed order: onsets, then per part its first pose row and its noise,
    then audio noise, then text noise. So a clip does not depend on the
    batch it is built in. The physics then runs across all clips at once.
    Strokes are planted in velocity space so the summed joint-speed apex
    lands exactly on each onset frame; audio features carry a pulse on their
    last channel at the matching latent step.
    """
    if noise < 0:
        raise NumericError(f"noise level must be non-negative, got {noise}")
    if len(seeds) != len(gclasses):
        raise NumericError(f"got {len(seeds)} seeds for {len(gclasses)} classes")
    n = len(seeds)
    if n == 0:
        return []
    bounds = np.cumsum([0] + [PART_JOINTS[p] for p in PART_ORDER])
    cols = {p: slice(bounds[i], bounds[i + 1]) for i, p in enumerate(PART_ORDER)}
    n_latent = n_frames // downsample

    onsets = np.empty((n, n_onsets), dtype=np.int64)
    # frames[:, t + 1] holds the velocity of step t until the leaky
    # integration below turns it into a position
    frames = np.empty((n, n_frames, bounds[-1]))
    motion = {p: np.empty((n, n_frames, PART_JOINTS[p])) for p in PART_ORDER}
    audio = np.empty((n, n_latent, gclasses[0].audio_anchor.shape[0]))
    text = np.empty((n, n_latent, gclasses[0].text_anchor.shape[0]))
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        onsets[b] = _plant_onsets(rng, n_frames, n_onsets)
        for part in PART_ORDER:
            frames[b, 0, cols[part]] = 0.2 * rng.standard_normal(PART_JOINTS[part])
            motion[part][b] = rng.standard_normal((n_frames, PART_JOINTS[part]))
        audio[b] = rng.standard_normal((n_latent, audio.shape[2]))
        text[b] = rng.standard_normal((n_latent, text.shape[2]))

    unique = list({id(g): g for g in gclasses}.values())
    index = {id(g): c for c, g in enumerate(unique)}
    cls = np.array([index[id(g)] for g in gclasses], dtype=np.intp)
    times = np.arange(n_frames - 1, dtype=np.float64) / fps
    offsets = range(-STROKE_HALF_WIDTH, STROKE_HALF_WIDTH + 1)
    bumps = [0.5 * (1.0 + math.cos(math.pi * k / STROKE_HALF_WIDTH)) for k in offsets]
    strokes = np.empty((len(unique), len(bumps), bounds[-1]))
    for c, g in enumerate(unique):
        mine = cls == c
        for part in PART_ORDER:
            j = PART_JOINTS[part]
            frames[mine, 1:, cols[part]] = (BASE_SWAY_AMPLITUDE / math.sqrt(j)) * np.sin(
                2.0 * math.pi * g.freqs[part] * times[:, None] + g.phases[part][None, :])
            # every stroke of a class pushes along that class's signature
            # direction, so repeated beats read as the same gesture
            for i, bump in enumerate(bumps):
                strokes[c, i, cols[part]] = (STROKE_AMPLITUDE * g.part_weights[part]
                                             * bump * g.stroke_dirs[part])
    # (onset, offset) order keeps the sums of overlapping strokes in the
    # order of a per-clip loop; _plant_onsets keeps every stroke in the clip
    rows = np.arange(n)
    for o in range(n_onsets):
        for i, k in enumerate(offsets):
            frames[rows, onsets[:, o] + k + 1] += strokes[cls, i]
    # leaky integration: joints relax toward rest between strokes instead
    # of drifting without bound
    for t in range(1, n_frames):
        frames[:, t] += POSITION_DECAY * frames[:, t - 1]
    for part in PART_ORDER:
        motion[part] *= noise
        motion[part] += frames[:, :, cols[part]]

    audio *= noise
    audio += np.stack([g.audio_anchor for g in unique])[cls][:, None, :]
    text *= noise
    text += np.stack([g.text_anchor for g in unique])[cls][:, None, :]
    for o in range(n_onsets):
        audio[rows, onsets[:, o] // downsample, -1] += PULSE_AMPLITUDE
    times_s = onsets / fps
    return [SyntheticUtterance(
        class_id=g.id, audio=audio[b], text=text[b],
        motion={p: MotionClip(p, motion[p][b], fps=fps) for p in PART_ORDER},
        onsets=times_s[b], seed=int(seeds[b])) for b, g in enumerate(gclasses)]


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


def _stack_split(split, clips, cfg):
    n_latent = cfg.n_frames // cfg.downsample

    def stack(rows, shape):  # an empty split keeps the trailing shape
        return np.stack(rows) if rows else np.zeros((0,) + shape)

    tensors = {
        f"data/{split}/class": np.array([u.class_id for u in clips], dtype=np.float64),
        f"data/{split}/seed": np.array([u.seed for u in clips], dtype=np.float64),
        f"data/{split}/audio": stack([u.audio for u in clips], (n_latent, cfg.d_audio)),
        f"data/{split}/text": stack([u.text for u in clips], (n_latent, cfg.d_text)),
        f"data/{split}/onsets": stack([u.onsets for u in clips], (cfg.n_onsets,)),
    }
    for part in PART_ORDER:
        tensors[f"data/{split}/motion/{part}"] = stack(
            [u.motion[part].frames for u in clips], (cfg.n_frames, PART_JOINTS[part]))
    return tensors


def save_dataset(dataset, out_dir):
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
        save_checkpoint(out_dir / f"{split}.bin",
                        _stack_split(split, dataset.splits[split], cfg))
    return out_dir


def load_dataset(in_dir):
    """The dataset `save_dataset` wrote to `in_dir`. Its manifest is outside
    input, so DatasetConfig checks it against the config schema."""
    in_dir = Path(in_dir)
    path = in_dir / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
        dims = manifest["dims"]
        config = DatasetConfig(  # checks types first, so raises no TypeError
            n_classes=manifest["classes"], n_clips=manifest["n_clips"],
            n_frames=dims["n_frames"], fps=manifest["fps"],
            d_audio=dims["d_audio"], d_text=dims["d_text"],
            downsample=dims["downsample"], noise=dims["noise"],
            n_onsets=dims["n_onsets"], ratios=dims["ratios"],
            seed=manifest["seed"])
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except TypeError:  # the manifest or its dims is not an object
        raise ConfigError(f"{path}: must be an object with a 'dims' object") from None

    ct = load_checkpoint(in_dir / "classes.bin")
    classes = []
    for c in range(config.n_classes):
        classes.append(GestureClass(
            id=c,
            freqs={p: float(ct["classes/freqs"][c, i])
                   for i, p in enumerate(PART_ORDER)},
            part_weights={p: float(ct["classes/part_weights"][c, i])
                          for i, p in enumerate(PART_ORDER)},
            phases={p: ct[f"classes/phases/{p}"][c] for p in PART_ORDER},
            stroke_dirs={p: ct[f"classes/stroke_dirs/{p}"][c] for p in PART_ORDER},
            text_anchor=ct["classes/text_anchor"][c],
            audio_anchor=ct["classes/audio_anchor"][c]))

    splits = {}
    for split in SPLITS:
        t = load_checkpoint(in_dir / f"{split}.bin")
        clips = []
        for i in range(t[f"data/{split}/class"].shape[0]):
            motion = {p: MotionClip(p, t[f"data/{split}/motion/{p}"][i],
                                    fps=config.fps) for p in PART_ORDER}
            clips.append(SyntheticUtterance(
                class_id=int(t[f"data/{split}/class"][i]),
                audio=t[f"data/{split}/audio"][i],
                text=t[f"data/{split}/text"][i],
                motion=motion,
                onsets=t[f"data/{split}/onsets"][i],
                seed=int(t[f"data/{split}/seed"][i])))
        splits[split] = clips
    return Dataset(config=config, classes=classes, splits=splits)


# ------------------------------------------------------------------ negatives

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


def mismatch_pairing(z1, cond, class_ids, rng, mode="permute-pair", audio=None,
                     text=None, net=None, max_tries=10):
    """Class-aware incongruent batch: resample (with repair) until every
    mismatched item comes from a different class, up to max_tries draws,
    else accept the best derangement seen; then delegate to the flow-level
    pairing, which checks `mode`."""
    class_ids = np.asarray(class_ids)
    n = class_ids.shape[0]
    if n < 2:
        raise NumericError("mismatch pairing needs batch size >= 2")
    if np.unique(class_ids).size == 1:
        logger.warning("all-same-class batch: falling back to a plain derangement")
        perm = sample_derangement(rng, n)
    else:
        perm, violations = _repaired_cross_class_derangement(rng, class_ids)
        for _ in range(max_tries - 1):
            if violations == 0:
                break
            candidate, v = _repaired_cross_class_derangement(rng, class_ids)
            if v < violations:
                perm, violations = candidate, v
    return make_incongruent_batch(z1, cond, rng, mode=mode, audio=audio,
                                  text=text, net=net, perm=perm)
