import json
import math

import numpy as np
import pytest

from cfmlab import synthdata
from cfmlab.checkpoint import load_checkpoint
from cfmlab.cli import main
from cfmlab.codec import PART_JOINTS, PART_ORDER, init_part_codec
from cfmlab.config import ConfigError, config_from_dict, load_config
from cfmlab.metrics import beat_consistency, extract_kinematic_peaks, fgd, motion_features
from cfmlab.numerics import NumericError
from cfmlab.synthdata import (
    Clips,
    DatasetConfig,
    build_dataset,
    generate_utterance,
    generate_utterances,
    make_gesture_classes,
    NegativePairing,
    mismatch_pairing,
    save_dataset,
)
from cfmlab.training import train_codec, train_generator


# --------------------------------------------------------------------- classes

def test_class_anchors_nearly_orthogonal():
    classes = make_gesture_classes(np.random.default_rng(0), 3)
    for a in classes:
        for anchor in (a.text_anchor, a.audio_anchor):
            assert abs(float(np.linalg.norm(anchor)) - 1.0) <= 1e-12
        for b in classes:
            if a.id != b.id:
                assert abs(float(a.text_anchor @ b.text_anchor)) < 0.5
                assert abs(float(a.audio_anchor @ b.audio_anchor)) < 0.5


def test_class_part_signatures_differ():
    classes = make_gesture_classes(np.random.default_rng(1), 3)
    assert classes[0].part_weights["hand"] == 2.0
    assert classes[1].part_weights["upper"] == 2.0
    assert classes[2].part_weights["lower"] == 2.0


# ------------------------------------------------------------------- utterance

def _one_class(seed=0):
    return make_gesture_classes(np.random.default_rng(seed), 1)[0]


def test_utterance_deterministic_per_seed():
    c = _one_class()
    a = generate_utterance(11, c, noise=0.05)
    b = generate_utterance(11, c, noise=0.05)
    assert np.array_equal(a.audio, b.audio)
    assert np.array_equal(a.text, b.text)
    assert np.array_equal(a.onsets, b.onsets)
    for p in PART_ORDER:
        assert np.array_equal(a.motion[p], b.motion[p])


def test_utterance_shapes():
    c = _one_class()
    u = generate_utterance(0, c, noise=0.0, n_frames=64, downsample=4)
    assert u.audio.shape == (16, 16)
    assert u.text.shape == (16, 16)
    for p in PART_ORDER:
        assert u.motion[p].shape == (64, PART_JOINTS[p])
    assert u.onsets.shape == (4,)


def _as_batch(motions):
    """Part -> (N, T, J) frames of N part -> (T, J) motions."""
    return {p: np.stack([m[p] for m in motions]) for p in PART_ORDER}


def test_noise_zero_peaks_within_two_frames_of_onsets():
    classes = make_gesture_classes(np.random.default_rng(3), 3)
    for seed in range(5):
        for c in classes:
            u = generate_utterance(seed, c, noise=0.0)
            times, _ = extract_kinematic_peaks(_as_batch([u.motion]), 15.0)
            assert times.size == u.onsets.size
            assert np.all(np.abs(times - u.onsets) <= 2.0 / 15.0 + 1e-12)


def test_noise_zero_beat_consistency_above_point_nine():
    classes = make_gesture_classes(np.random.default_rng(4), 3)
    for seed in range(5):
        u = generate_utterance(seed, classes[seed % 3], noise=0.0)
        peaks = extract_kinematic_peaks(_as_batch([u.motion]), 15.0)
        assert beat_consistency(peaks, u.onsets[None], sigma=0.1)[0] > 0.9


def test_audio_pulse_marks_onset_latent_steps():
    c = _one_class()
    u = generate_utterance(5, c, noise=0.0)
    marked = set((u.onsets * 15.0).round().astype(int) // 4)
    baseline = c.audio_anchor[-1]
    for l in range(u.audio.shape[0]):
        lifted = u.audio[l, -1] - baseline > 1.0
        assert lifted == (l in marked)


def test_noise_zero_text_is_exact_anchor():
    c = _one_class()
    u = generate_utterance(6, c, noise=0.0)
    assert np.allclose(u.text, c.text_anchor[None, :], atol=1e-15)


def test_onsets_strictly_increasing_and_separated():
    classes = make_gesture_classes(np.random.default_rng(5), 3)
    for seed in range(20):
        u = generate_utterance(seed, classes[seed % 3], noise=0.05)
        frames = (u.onsets * 15.0).round().astype(int)
        assert np.all(np.diff(frames) >= 3)


def test_every_schema_valid_clip_plants_its_onsets():
    # every (n_frames, n_onsets) the schema takes up to 160 frames, each
    # planted from several rng states: onsets 3 or more frames apart, clear
    # of the clip ends
    valid = []
    for n_frames in range(8, 161):
        n_onsets = 1
        while True:
            try:
                DatasetConfig(n_frames=n_frames, n_onsets=n_onsets, downsample=1)
            except ConfigError:
                break
            valid.append((n_frames, n_onsets))
            n_onsets += 1
    assert len(valid) == 3725
    half = synthdata.STROKE_HALF_WIDTH
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for n_frames, n_onsets in valid:
            frames = synthdata._plant_onsets(rng, n_frames, n_onsets)
            assert frames.shape == (n_onsets,), (n_frames, n_onsets)
            assert np.all(np.diff(frames) >= 3), (seed, n_frames, n_onsets, frames)
            assert half + 1 <= frames[0] and frames[-1] <= n_frames - half - 3
    # rounding alone put neighbours 2 apart here
    ds = build_dataset(DatasetConfig(n_clips=6, n_frames=40, n_onsets=6))
    assert all(np.diff(u.onsets * 15.0).min() > 2.5 for u in ds.splits["train"])


# ------------------------------------------------------ batched generation

def _reference_utterance(seed, gclass, noise, n_frames=64, fps=15.0,
                         downsample=4, n_onsets=4):
    """The per-clip loop that `generate_utterances` batches: every frame,
    stroke and part in turn."""
    rng = np.random.default_rng(seed)
    onset_frames = synthdata._plant_onsets(rng, n_frames, n_onsets)
    times = np.arange(n_frames - 1, dtype=np.float64) / fps
    half = synthdata.STROKE_HALF_WIDTH
    motion = {}
    for part in PART_ORDER:
        j = PART_JOINTS[part]
        sway = (synthdata.BASE_SWAY_AMPLITUDE / math.sqrt(j)) * np.sin(
            2.0 * math.pi * gclass.freqs[part] * times[:, None]
            + gclass.phases[part][None, :])
        vel = sway.copy()
        direction = gclass.stroke_dirs[part]
        for f in onset_frames:
            for k in range(-half, half + 1):
                if 0 <= f + k < n_frames - 1:
                    bump = 0.5 * (1.0 + math.cos(math.pi * k / half))
                    vel[f + k] += (synthdata.STROKE_AMPLITUDE * gclass.part_weights[part]
                                   * bump * direction)
        frames = np.zeros((n_frames, j))
        frames[0] = 0.2 * rng.standard_normal(j)
        for t in range(1, n_frames):
            frames[t] = synthdata.POSITION_DECAY * frames[t - 1] + vel[t - 1]
        frames += noise * rng.standard_normal((n_frames, j))
        motion[part] = frames
    n_latent = n_frames // downsample
    audio = np.tile(gclass.audio_anchor, (n_latent, 1))
    text = np.tile(gclass.text_anchor, (n_latent, 1))
    audio += noise * rng.standard_normal(audio.shape)
    text += noise * rng.standard_normal(text.shape)
    for f in onset_frames:
        audio[f // downsample, -1] += synthdata.PULSE_AMPLITUDE
    return Clips(class_id=gclass.id, seed=int(seed), audio=audio, text=text, motion=motion,
                 onsets=onset_frames / fps)


def _stack_clips(rows):
    """One Clips record of per-clip rows, each field stacked on a clip axis."""
    return Clips(class_id=np.array([u.class_id for u in rows]),
                 seed=np.array([u.seed for u in rows]),
                 audio=np.stack([u.audio for u in rows]),
                 text=np.stack([u.text for u in rows]),
                 motion={p: np.stack([u.motion[p] for u in rows]) for p in PART_ORDER},
                 onsets=np.stack([u.onsets for u in rows]))


def _assert_same_utterance(a, b):
    assert a.class_id == b.class_id and a.seed == b.seed
    for name in ("audio", "text", "onsets"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    for p in PART_ORDER:
        x, y = a.motion[p], b.motion[p]
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), p


@pytest.mark.parametrize("noise, dims", [
    (0.05, {}),
    (0.0, {}),
    (0.1, {"n_frames": 512, "n_onsets": 32}),
    (0.05, {"n_frames": 48, "fps": 30.0, "downsample": 2, "n_onsets": 3}),
])
def test_batched_utterances_match_reference_loop(noise, dims):
    classes = make_gesture_classes(np.random.default_rng(7), 3)
    seeds = [3, 2**32 - 1, 17, 0, 99, 12345]
    picked = [classes[i] for i in (0, 2, 2, 1, 0, 1)]  # classes mixed in a batch
    batch = generate_utterances(seeds, picked, noise, **dims)
    assert len(batch) == len(seeds)
    for seed, gclass, got in zip(seeds, picked, batch):
        _assert_same_utterance(got, _reference_utterance(seed, gclass, noise, **dims))


@pytest.mark.parametrize("n_frames, n_onsets", [(64, 16), (512, 128)])
def test_batched_utterances_overlapping_strokes(n_frames, n_onsets):
    # onsets 3-4 frames apart make the 7-frame strokes overlap, so their sums
    # must keep the per-clip order
    c = _one_class(1)
    u = generate_utterance(8, c, 0.0, n_frames=n_frames, n_onsets=n_onsets)
    frames = (u.onsets * 15.0).round().astype(int)
    assert np.diff(frames).min() < 2 * synthdata.STROKE_HALF_WIDTH + 1
    _assert_same_utterance(
        u, _reference_utterance(8, c, 0.0, n_frames=n_frames, n_onsets=n_onsets))


@pytest.mark.parametrize("n_frames, n_onsets", [(64, 4), (48, 12)])
def test_blocked_utterances_match_reference_loop(monkeypatch, n_frames, n_onsets):
    # 7 clips in blocks of 2: four blocks, the last one partial
    monkeypatch.setattr(synthdata, "_BLOCK_CLIPS", 2)
    classes = make_gesture_classes(np.random.default_rng(4), 3)
    seeds = [11, 2, 2**32 - 2, 40, 5, 6, 0]
    picked = [classes[i] for i in (2, 0, 1, 1, 2, 0, 2)]
    batch = generate_utterances(seeds, picked, 0.05, n_frames=n_frames, n_onsets=n_onsets)
    for seed, gclass, got in zip(seeds, picked, batch):
        _assert_same_utterance(got, _reference_utterance(
            seed, gclass, 0.05, n_frames=n_frames, n_onsets=n_onsets))


def test_single_utterance_is_its_row_of_a_batch():
    classes = make_gesture_classes(np.random.default_rng(8), 2)
    seeds, picked = [5, 6, 7], [classes[1], classes[0], classes[1]]
    batch = generate_utterances(seeds, picked, 0.05)
    for seed, gclass, got in zip(seeds, picked, batch):
        _assert_same_utterance(generate_utterance(seed, gclass, 0.05), got)


def test_batched_utterances_validate_inputs():
    c = _one_class()
    with pytest.raises(NumericError, match="2 seeds for 1 classes"):
        generate_utterances([0, 1], [c], noise=0.0)


def test_saved_dataset_matches_reference_loop(tmp_path):
    cfg = DatasetConfig(n_clips=30, seed=11)
    ds = build_dataset(cfg)
    rng = np.random.default_rng(cfg.seed)
    classes = make_gesture_classes(rng, cfg.n_classes, cfg.d_text, cfg.d_audio)
    seeds = rng.integers(0, 2**32, size=cfg.n_clips)
    clips = [_reference_utterance(int(seeds[i]), classes[i % cfg.n_classes], cfg.noise)
             for i in range(cfg.n_clips)]
    sizes = [len(ds.splits[s]) for s in synthdata.SPLITS]
    bounds = np.cumsum([0] + sizes)
    reference = synthdata.Dataset(config=cfg, classes=classes, splits={
        s: _stack_clips(clips[bounds[i]:bounds[i + 1]])
        for i, s in enumerate(synthdata.SPLITS)})
    save_dataset(ds, tmp_path / "batched")
    save_dataset(reference, tmp_path / "reference")
    for name in ("manifest.json", "classes.bin", "train.bin", "val.bin", "test.bin"):
        assert (tmp_path / "batched" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes()


# --------------------------------------------------------------------- dataset

def test_split_sizes_80_10_10():
    cfg = DatasetConfig(n_clips=100, n_classes=2, seed=0)
    ds = build_dataset(cfg)
    assert [len(ds.splits[s]) for s in ("train", "val", "test")] == [80, 10, 10]


def test_splits_disjoint_and_exhaustive():
    cfg = DatasetConfig(n_clips=60, seed=1)
    ds = build_dataset(cfg)
    seeds = [u.seed for s in ("train", "val", "test") for u in ds.splits[s]]
    assert len(seeds) == 60
    assert len(set(seeds)) == 60


def test_class_balance_within_one_per_split():
    cfg = DatasetConfig(n_clips=100, n_classes=3, seed=2)
    ds = build_dataset(cfg)
    for split in ("train", "val", "test"):
        counts = np.bincount([u.class_id for u in ds.splits[split]], minlength=3)
        assert counts.max() - counts.min() <= 1


def test_dataset_rebuild_is_identical():
    cfg = DatasetConfig(n_clips=24, seed=3)
    a, b = build_dataset(cfg), build_dataset(cfg)
    for split in ("train", "val", "test"):
        for ua, ub in zip(a.splits[split], b.splits[split]):
            assert ua.class_id == ub.class_id
            assert np.array_equal(ua.audio, ub.audio)
            for p in PART_ORDER:
                assert np.array_equal(ua.motion[p], ub.motion[p])


def test_split_row_is_row_k_of_every_field():
    ds = build_dataset(DatasetConfig(n_clips=24, seed=3))
    for split, clips in ds.splits.items():
        assert len(clips) == len(clips.class_id) > 0
        for k in (0, len(clips) - 1):
            row = clips[k]
            assert row.class_id == clips.class_id[k] and row.seed == clips.seed[k]
            for name in ("audio", "text", "onsets"):
                assert np.array_equal(getattr(row, name), getattr(clips, name)[k]), name
            assert list(row.motion) == list(PART_ORDER)
            for p in PART_ORDER:
                assert np.array_equal(row.motion[p], clips.motion[p][k]), p


def test_split_slice_shares_memory_with_its_parent():
    c = _one_class()
    batch = generate_utterances(list(range(6)), [c] * 6, 0.05)
    part = batch[2:5]
    assert isinstance(part, Clips) and len(part) == 3
    for name in ("class_id", "seed", "audio", "text", "onsets"):
        assert np.shares_memory(getattr(part, name), getattr(batch, name)), name
        assert np.array_equal(getattr(part, name), getattr(batch, name)[2:5]), name
    for p in PART_ORDER:
        assert np.shares_memory(part.motion[p], batch.motion[p]), p
    # an empty slice keeps the trailing shapes
    empty = batch[3:3]
    assert len(empty) == 0 and empty.audio.shape == (0,) + batch.audio.shape[1:]
    assert empty.motion["hand"].shape == (0, 64, PART_JOINTS["hand"])


def test_dataset_files_byte_identical(tmp_path):
    cfg = DatasetConfig(n_clips=12, seed=4)
    save_dataset(build_dataset(cfg), tmp_path / "a")
    save_dataset(build_dataset(cfg), tmp_path / "b")
    for name in ("manifest.json", "classes.bin", "train.bin", "val.bin", "test.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _assert_export_matches(out_dir, ds):
    """The files `save_dataset` wrote to `out_dir` hold `ds`, read back with
    the checkpoint reader and json: nothing in cfmlab reads the export."""
    cfg = ds.config
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert DatasetConfig(n_classes=manifest["classes"], n_clips=manifest["n_clips"],
                         fps=manifest["fps"], seed=manifest["seed"],
                         **manifest["dims"]) == cfg
    for split, clips in ds.splits.items():
        assert manifest["split_sizes"][split] == len(clips)
        t = load_checkpoint(out_dir / f"{split}.bin")
        assert t[f"data/{split}/class"].tolist() == [u.class_id for u in clips]
        assert t[f"data/{split}/seed"].tolist() == [u.seed for u in clips]
        for i, u in enumerate(clips):
            for key in ("audio", "text", "onsets"):
                assert np.array_equal(t[f"data/{split}/{key}"][i], getattr(u, key))
            for p in PART_ORDER:
                assert np.array_equal(t[f"data/{split}/motion/{p}"][i], u.motion[p])
    ct = load_checkpoint(out_dir / "classes.bin")
    for c in ds.classes:
        assert np.array_equal(ct["classes/text_anchor"][c.id], c.text_anchor)
        assert np.array_equal(ct["classes/audio_anchor"][c.id], c.audio_anchor)
        assert ct["classes/freqs"][c.id].tolist() == [c.freqs[p] for p in PART_ORDER]
        for p in PART_ORDER:
            assert np.array_equal(ct[f"classes/stroke_dirs/{p}"][c.id], c.stroke_dirs[p])


def test_make_data_with_an_empty_split_roundtrips(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"n_clips": 20, "ratios": [0.5, 0.0, 0.5]}}))
    assert main(["make-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
    tensors = load_checkpoint(tmp_path / "d" / "val.bin")
    assert tensors["data/val/audio"].shape == (0, 16, 16)
    assert tensors["data/val/motion/hand"].shape == (0, 64, PART_JOINTS["hand"])
    ds = build_dataset(load_config(cfg).dataset)
    assert len(ds.splits["val"]) == 0
    assert [len(ds.splits[s]) for s in ("train", "test")] == [10, 10]
    _assert_export_matches(tmp_path / "d", ds)


def test_dataset_save_load_roundtrip(tmp_path):
    ds = build_dataset(DatasetConfig(n_clips=12, seed=5))
    save_dataset(ds, tmp_path / "d")
    _assert_export_matches(tmp_path / "d", ds)


def test_infeasible_ratios_rejected():
    with pytest.raises(ConfigError, match="ratios"):
        DatasetConfig(ratios=(0.8, 0.3, 0.1))
    with pytest.raises(ConfigError, match="ratios"):
        DatasetConfig(ratios=(1.2, -0.1, -0.1))


def test_fewer_clips_than_classes_rejected():
    with pytest.raises(ConfigError, match="n_clips"):
        DatasetConfig(n_clips=2, n_classes=3)


def test_within_class_fgd_below_cross_class():
    classes = make_gesture_classes(np.random.default_rng(6), 2)
    group_a1 = [generate_utterance(1000 + i, classes[0], 0.1).motion for i in range(32)]
    group_a2 = [generate_utterance(2000 + i, classes[0], 0.1).motion for i in range(32)]
    group_b = [generate_utterance(3000 + i, classes[1], 0.1).motion for i in range(32)]
    codecs = {p: init_part_codec(np.random.default_rng(42), p) for p in PART_ORDER}
    fa1 = motion_features(_as_batch(group_a1), codecs)
    fa2 = motion_features(_as_batch(group_a2), codecs)
    fb = motion_features(_as_batch(group_b), codecs)
    assert fgd(fa1, fa2) < fgd(fa1, fb)


# ------------------------------------------------------------------- negatives

def _mismatch_inputs(class_ids, seed=0):
    rng = np.random.default_rng(seed)
    n = len(class_ids)
    return rng.standard_normal((2, n, 4, 6))  # z1, z0


def test_mismatch_two_items_is_a_swap():
    z1, z0 = _mismatch_inputs([0, 1])
    out = mismatch_pairing(z1, z0, [0, 1], np.random.default_rng(0))
    assert isinstance(out, NegativePairing)
    assert list(out.permutation) == [1, 0]
    assert np.array_equal(out.velocity, z1[[1, 0]] - z0)


def test_mismatch_prefers_cross_class():
    class_ids = np.array([0, 0, 1, 1, 2, 2, 3, 3] * 2)
    z1, z0 = _mismatch_inputs(class_ids, seed=1)
    rng = np.random.default_rng(2)
    cross = 0
    total = 0
    for _ in range(1000):
        out = mismatch_pairing(z1, z0, class_ids, rng)
        cross += int(np.sum(class_ids[out.permutation] != class_ids))
        total += len(class_ids)
    assert cross / total > 0.95


def test_mismatch_all_same_class_warns_and_falls_back(caplog):
    # the pairing falls back quietly at every step; training warns once a run
    class_ids = [1, 1, 1, 1]
    z1, z0 = _mismatch_inputs(class_ids, seed=3)
    with caplog.at_level("WARNING"):
        out = mismatch_pairing(z1, z0, class_ids, np.random.default_rng(4))
    assert caplog.records == []
    assert np.all(out.permutation != np.arange(4))
    cfg = config_from_dict({"dataset": {"n_classes": 1, "n_clips": 24, "n_frames": 32,
                                        "n_onsets": 3},
                            "codec": {"epochs": 0}, "flow": {"epochs": 3, "batch": 4}})
    ds = build_dataset(cfg.dataset)
    codecs, stacks, _ = train_codec(cfg, ds)
    with caplog.at_level("WARNING"):
        train_generator(cfg, ds, codecs, stacks)
    assert [r.getMessage() for r in caplog.records] == [
        "train split holds one class: contrastive negatives fall back to plain derangements"]


def test_mismatch_majority_class_still_valid_derangement():
    # five of six items share a class, so an all-cross assignment is
    # impossible; the result must still be a derangement
    class_ids = [0, 0, 0, 0, 0, 1]
    z1, z0 = _mismatch_inputs(class_ids, seed=9)
    out = mismatch_pairing(z1, z0, class_ids, np.random.default_rng(10))
    assert np.all(out.permutation != np.arange(6))
    assert sorted(out.permutation) == list(range(6))
    assert np.array_equal(out.velocity, z1[out.permutation] - z0)


def test_mismatch_singleton_batch_rejected():
    z1, z0 = _mismatch_inputs([0])
    with pytest.raises(NumericError, match=">= 2"):
        mismatch_pairing(z1, z0, [0], np.random.default_rng(5))
