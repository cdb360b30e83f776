import json
import math

import mpmath
import numpy as np
import pytest
from scipy.signal import find_peaks
from scipy.spatial.distance import pdist

from cfmlab.codec import (
    PART_JOINTS,
    PART_ORDER,
    MotionClip,
    encode_part,
    init_part_codec,
)
from cfmlab import metrics
from cfmlab.metrics import (
    PEAK_MIN_SEPARATION,
    MetricReport,
    _find_peaks,
    _pair_distances,
    _psd_sqrt,
    beat_consistency,
    diversity,
    extract_kinematic_peaks,
    fgd,
    motion_features,
)
from cfmlab.numerics import NumericError
from cfmlab.synthdata import generate_utterance, generate_utterances, make_gesture_classes


# ----------------------------------------------------------------------- types

def test_feature_validation():
    # fgd and diversity take (N, d_f) arrays and check them themselves
    ok = np.zeros((3, 2))
    assert fgd(ok, ok) == 0.0 and diversity(ok) == 0.0
    for bad, match in ((np.zeros((3, 2, 1)), r"\(N, d_f\)"),
                       (np.array([[np.nan, 0.0], [0.0, 0.0]]), "non-finite")):
        with pytest.raises(NumericError, match=match):
            fgd(bad, ok)
        with pytest.raises(NumericError, match=match):
            fgd(ok, bad)
        with pytest.raises(NumericError, match=match):
            diversity(bad)


def test_metric_report_json_roundtrip():
    rep = MetricReport(fgd=1.25, bc=0.75, diversity=3.5, config_hash="abc",
                       n_real=48, n_gen=48)
    assert json.loads(rep.to_json()) == {"fgd": 1.25, "bc": 0.75, "diversity": 3.5,
                                         "config_hash": "abc", "n_real": 48, "n_gen": 48}


# ------------------------------------------------------------------------- fgd

def test_fgd_equal_variance_unit_mean_shift_is_one():
    # two-point sets share the sample variance exactly, so only the squared
    # mean difference survives
    a = np.array([[-0.3], [0.3]])
    b = np.array([[0.7], [1.3]])
    assert abs(fgd(a, b) - 1.0) <= 1e-9


def test_fgd_variance_mismatch_case_is_one():
    # stats (0, 1) vs (0, 4): 0 + 1 + 4 - 2*sqrt(4) = 1
    d = math.sqrt(0.5)
    a = np.array([[-d], [d]])
    b = np.array([[-2 * d], [2 * d]])
    assert abs(fgd(a, b) - 1.0) <= 1e-9


def test_fgd_self_distance_is_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 5))
    assert fgd(a, a) <= 1e-8


def test_fgd_symmetry():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((16, 4))
    b = 0.5 * rng.standard_normal((12, 4)) + 0.3
    assert abs(fgd(a, b) - fgd(b, a)) <= 1e-8


def _fgd_mpmath_oracle(a, b):
    mpmath.mp.dps = 60
    n_a, d = a.shape
    n_b = b.shape[0]
    am = mpmath.matrix(a.tolist())
    bm = mpmath.matrix(b.tolist())
    mu_a = [mpmath.fsum(am[i, j] for i in range(n_a)) / n_a for j in range(d)]
    mu_b = [mpmath.fsum(bm[i, j] for i in range(n_b)) / n_b for j in range(d)]

    def cov(m, mu, n):
        out = mpmath.zeros(d, d)
        for i in range(d):
            for j in range(d):
                out[i, j] = mpmath.fsum(
                    (m[k, i] - mu[i]) * (m[k, j] - mu[j]) for k in range(n)
                ) / (n - 1)
        return out

    cov_a, cov_b = cov(am, mu_a, n_a), cov(bm, mu_b, n_b)
    root = mpmath.sqrtm(cov_a * cov_b)
    mean_term = mpmath.fsum((x - y) ** 2 for x, y in zip(mu_a, mu_b))
    trace = lambda m: mpmath.fsum(m[i, i] for i in range(d))
    return float(mean_term + trace(cov_a) + trace(cov_b)
                 - 2 * mpmath.re(trace(root)))


def test_fgd_matches_extended_precision_oracle_noncommuting():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((10, 2)) @ np.array([[1.0, 0.7], [0.0, 0.5]])
    b = rng.standard_normal((9, 2)) @ np.array([[0.4, 0.0], [1.1, 0.9]]) + 0.2
    cov_a = np.cov(a, rowvar=False)
    cov_b = np.cov(b, rowvar=False)
    assert np.max(np.abs(cov_a @ cov_b - cov_b @ cov_a)) > 1e-3
    assert abs(fgd(a, b) - _fgd_mpmath_oracle(a, b)) <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_fgd_rotation_invariance(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((14, 4))
    b = rng.standard_normal((11, 4)) * 1.3 + 0.4
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    assert abs(fgd(a @ q, b @ q) - fgd(a, b)) <= 1e-6


def test_fgd_input_validation():
    with pytest.raises(NumericError, match="at least 2"):
        fgd(np.zeros((1, 3)), np.zeros((4, 3)))
    with pytest.raises(NumericError, match="dims differ"):
        fgd(np.zeros((4, 3)), np.zeros((4, 2)))


def test_psd_sqrt_clamps_tiny_negative_eigenvalues():
    mat = np.diag([1.0, -1e-10])
    root = _psd_sqrt(mat)
    assert np.allclose(root, np.diag([1.0, 0.0]))


def test_psd_sqrt_rejects_indefinite_matrix():
    with pytest.raises(NumericError, match="eigenvalue"):
        _psd_sqrt(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n", [4, 8])
def test_fgd_scales_with_large_rank_deficient_features(n):
    # N <= d leaves the covariances singular; their zero eigenvalues come
    # out of eigh as rounding noise that grows with the matrix, which a
    # fixed absolute floor refused once the features were scaled up
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, 32))
    b = 1.3 * rng.standard_normal((n, 32)) + 0.2
    assert fgd(a * 1e4, b * 1e4) == pytest.approx(1e8 * fgd(a, b), rel=1e-6)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5))
    mat = m @ m.T
    root = _psd_sqrt(mat)
    assert np.allclose(root @ root, mat, atol=1e-10)


# -------------------------------------------------------------- kinematic peaks

FPS = 15.0


def _clip_from_speed(speed, part="hand"):
    """A one-motion batch, (1, T, J) frames of one part, whose summed speed
    sequence equals `speed` (one joint moves monotonically by the requested
    amounts)."""
    j = PART_JOINTS[part]
    frames = np.zeros((1, len(speed) + 1, j))
    frames[0, 1:, 0] = np.cumsum(speed)
    return {part: frames}


def _peak_times(parts):
    """The peak times of a one-motion batch."""
    times, counts = extract_kinematic_peaks(parts, FPS)
    assert counts.tolist() == [times.size]
    return times


def _bc(peak_times, onset_times, sigma=0.1):
    """Beat consistency of one motion's peaks against one onset track."""
    peaks = (np.asarray(peak_times, dtype=np.float64), np.array([len(peak_times)]))
    out = beat_consistency(peaks, np.asarray(onset_times, dtype=np.float64)[None],
                           sigma=sigma)
    assert out.shape == (1,)
    return out[0]


def test_constant_motion_has_no_peaks():
    clip = {"hand": np.ones((1, 12, PART_JOINTS["hand"]))}
    times, counts = extract_kinematic_peaks(clip, FPS)
    assert times.size == 0
    assert counts.tolist() == [0]


def test_single_triangular_bump_peaks_at_apex():
    speed = np.array([0, 0, 1, 2, 3, 2, 1, 0, 0], dtype=float)
    times = _peak_times(_clip_from_speed(speed))
    assert times.size == 1
    assert times[0] == pytest.approx(4 / 15.0)


def test_planted_peaks_recovered_within_one_frame():
    rng = np.random.default_rng(4)
    planted = [8, 20, 33, 47]
    speed = np.zeros(63)
    for f in planted:
        for k in range(-3, 4):
            if 0 <= f + k < 63:
                speed[f + k] += 2.0 * 0.5 * (1 + math.cos(math.pi * k / 3.0))
    speed += 0.05 * rng.random(63)
    times = _peak_times(_clip_from_speed(speed))
    assert times.size == len(planted)
    for t, f in zip(times, planted):
        assert abs(t - f / 15.0) <= 1.0 / 15.0 + 1e-12


def test_peaks_summed_across_parts():
    speed_hand = np.array([0, 0, 5, 0, 0, 0, 0, 0], dtype=float)
    speed_face = np.array([0, 0, 0, 0, 0, 5, 0, 0], dtype=float)
    clips = {**_clip_from_speed(speed_hand, "hand"),
             **_clip_from_speed(speed_face, "face")}
    assert _peak_times(clips) == pytest.approx([2 / 15.0, 5 / 15.0])


def test_min_separation_suppresses_adjacent_peaks():
    speed = np.array([0, 0, 3, 0, 4, 0, 0, 0], dtype=float)
    assert PEAK_MIN_SEPARATION == 3
    assert _peak_times(_clip_from_speed(speed)) == pytest.approx([4 / 15.0])


DISTANCES = (1, 2, 3, 4, 5, 2.5)


def _assert_finder_matches_scipy(x, height, distance):
    expected = find_peaks(x, height=height, distance=distance)[0]
    got = _find_peaks(x, height, distance)
    assert got.tolist() == expected.tolist(), (x.tolist(), height, distance)


def test_peak_finder_matches_scipy_on_random_signals():
    rng = np.random.default_rng(12)
    for case in range(1200):
        n = int(rng.integers(0, 70))
        kind = case % 4
        if kind == 0:
            x = rng.standard_normal(n)
        elif kind == 1:  # plateaus and tied heights
            x = rng.integers(0, 4, n).astype(np.float64)
        elif kind == 2:
            x = np.full(n, 0.7)
        else:  # mostly short rises into long plateaus
            x = np.repeat(rng.integers(0, 3, n).astype(np.float64), rng.integers(1, 5, n))
        floors = [-np.inf, float(x.mean() + 0.5 * x.std()) if x.size else 0.0]
        if kind == 1 and x.size:
            floors.append(float(rng.choice(x)))  # a floor equal to some peaks
        for height in floors:
            _assert_finder_matches_scipy(x, height, DISTANCES[case % len(DISTANCES)])


@pytest.mark.parametrize("distance", DISTANCES)
def test_peak_finder_matches_scipy_on_short_and_flat_signals(distance):
    for x in ([], [1.0], [1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [0.0, 1.0, 0.0],
              [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 2.0, 2.0, 2.0, 2.0, 0.0],
              [0.0, 2.0, 2.0, 3.0, 0.0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
              [3.0] * 9):
        for height in (-np.inf, 1.0, 2.5):
            _assert_finder_matches_scipy(np.asarray(x, dtype=np.float64), height, distance)


def test_peak_finder_matches_scipy_on_generated_speed():
    classes = make_gesture_classes(np.random.default_rng(13), 3)
    for seed in range(24):
        u = generate_utterance(seed, classes[seed % 3], noise=(0.0, 0.05, 0.3)[seed % 3])
        speed = np.zeros(63)
        for frames in u.motion.values():
            speed += np.linalg.norm(np.diff(frames, axis=0), axis=1)
        for height in (speed.mean() + 0.5 * speed.std(), -np.inf):
            for distance in DISTANCES:
                _assert_finder_matches_scipy(speed, height, distance)


def test_fractional_min_separation_rounds_up():
    speed = np.array([0, 3, 0, 4, 0, 0, 0, 0], dtype=float)
    assert _find_peaks(speed, speed.mean(), 2).tolist() == [1, 3]
    assert _find_peaks(speed, speed.mean(), 2.5).tolist() == [3]


# ------------------------------------------------------------ beat consistency

def test_bc_coincident_peaks_is_exactly_one():
    peaks = [0.2, 0.5, 0.8]
    assert _bc(peaks, peaks, sigma=0.1) == 1.0


def test_bc_sigma_sqrt2_offset_is_exp_minus_one():
    sigma = 0.1
    assert _bc([0.5 + sigma * math.sqrt(2.0)], [0.5], sigma=sigma) == \
        pytest.approx(math.exp(-1.0), abs=1e-12)


def test_bc_random_tracks_match_double_loop():
    rng = np.random.default_rng(5)
    peaks = np.sort(rng.uniform(0, 10, size=7))
    onsets = np.sort(rng.uniform(0, 10, size=5))
    sigma = 0.25
    expected = 0.0
    for p in peaks:
        best = min((p - a) ** 2 for a in onsets)
        expected += math.exp(-best / (2 * sigma * sigma))
    expected /= len(peaks)
    assert _bc(peaks, onsets, sigma=sigma) == pytest.approx(
        expected, abs=1e-12)


def test_bc_empty_motion_is_zero_and_empty_audio_errors():
    assert _bc([], [0.5]) == 0.0
    # an empty onset track breaks beat_consistency's contract; numpy's
    # reduction over no onsets refuses it
    with pytest.raises(ValueError, match="zero-size array"):
        _bc([0.5], [])


def test_bc_monotone_in_offset():
    values = [_bc([1.0 + off], [1.0]) for off in np.linspace(0.0, 1.0, 11)]
    assert all(x >= y - 1e-15 for x, y in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


# ------------------------------------------------- batched against per clip

def _reference_peaks(motion, fps, threshold_std=0.5, min_separation=3):
    """The per-clip peak extraction the batched one replaced, kept as the
    reference: one motion's speeds summed over its parts, its own height
    floor, then the peak search; the peak times in seconds."""
    speed = np.zeros(next(iter(motion.values())).shape[0] - 1)
    for frames in motion.values():
        speed += np.linalg.norm(np.diff(frames, axis=0), axis=1)
    height = speed.mean() + threshold_std * speed.std()
    return _find_peaks(speed, height, min_separation) / fps


def _reference_bc(peak_times, onset_times, sigma):
    """The per-clip beat consistency the batched one replaced."""
    if peak_times.size == 0:
        return 0.0
    delta = peak_times[:, None] - onset_times[None, :]
    nearest_sq = np.min(delta * delta, axis=1)
    return float(np.mean(np.exp(-nearest_sq / (2.0 * sigma * sigma))))


def _assert_batch_matches_reference(parts, onsets, sigma=0.1, **kwargs):
    """Batched peaks and BC equal the per-clip chain on every row, bit for
    bit; `kwargs` are the reference's peak settings, which must equal the
    module's PEAK_* constants. Returns the per-row peak counts and BC."""
    times, counts = extract_kinematic_peaks(parts, FPS)
    bc = beat_consistency((times, counts), onsets, sigma=sigma)
    rows = np.split(times, np.cumsum(counts)[:-1])
    for i in range(len(counts)):
        expected = _reference_peaks({p: f[i] for p, f in parts.items()}, FPS, **kwargs)
        assert rows[i].tobytes() == expected.tobytes(), i
        assert bc[i].tobytes() == np.float64(
            _reference_bc(expected, onsets[i], sigma)).tobytes(), i
    return counts, bc


def _speed_rows(speeds):
    """(N, T, 24) hand frames whose row i has the summed speeds speeds[i]."""
    speeds = np.asarray(speeds, dtype=np.float64)
    frames = np.zeros((speeds.shape[0], speeds.shape[1] + 1, PART_JOINTS["hand"]))
    frames[:, 1:, 0] = np.cumsum(speeds, axis=1)
    return {"hand": frames}


@pytest.mark.parametrize("min_separation", [3, 2.5, 1])
def test_batched_peaks_and_bc_match_the_per_clip_chain_on_edge_rows(
        min_separation, monkeypatch):
    monkeypatch.setattr(metrics, "PEAK_THRESHOLD_STD", 0.0)
    monkeypatch.setattr(metrics, "PEAK_MIN_SEPARATION", min_separation)
    rng = np.random.default_rng(14)
    speeds = [
        [0, 1, 3, 3, 3, 1, 0, 2, 2, 0, 0, 4, 4, 1, 0, 0],   # plateaus
        [1.5] * 16,                                        # flat: no peaks
        [0, 0, 0, 1, 2, 5, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0],  # a single peak
        [0, 3, 0, 4, 0, 3, 0, 4, 0, 3, 0, 4, 0, 3, 0, 0],  # close peaks to prune
        list(rng.integers(0, 3, 16)),                      # ties everywhere
        list(rng.standard_normal(16) ** 2),
    ]
    onsets = np.sort(rng.uniform(0.0, 16 / FPS, (len(speeds), 3)), axis=1)
    counts, bc = _assert_batch_matches_reference(
        _speed_rows(speeds), onsets, threshold_std=0.0, min_separation=min_separation)
    assert counts[1] == 0 and bc[1] == 0.0
    assert counts[2] == 1


def test_batched_peaks_and_bc_match_the_per_clip_chain_on_512_frame_rows():
    # 32 onsets in 512 frames: rows with more than 8 peaks take numpy's
    # pairwise sum, which a padded or differently grouped mean would change
    classes = make_gesture_classes(np.random.default_rng(15), 3)
    for noise in (0.0, 0.3):
        utts = generate_utterances(np.arange(12) + int(100 * noise), classes * 4, noise,
                                   n_frames=512, n_onsets=32)
        counts, _ = _assert_batch_matches_reference(utts.motion, utts.onsets)
        assert counts.min() > 8
        assert len(set(counts.tolist())) > (1 if noise else 0)  # several counts


# ------------------------------------------------------------------- diversity

def test_diversity_identical_samples_is_zero():
    feats = np.tile([1.0, 2.0, 3.0], (6, 1))
    assert diversity(feats) == 0.0


def test_diversity_two_samples_is_their_distance():
    a = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert diversity(a) == pytest.approx(5.0, abs=1e-12)


def test_diversity_matches_brute_force():
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((50, 8))
    total, count = 0.0, 0
    for i in range(50):
        for j in range(i + 1, 50):
            total += float(np.linalg.norm(feats[i] - feats[j]))
            count += 1
    assert diversity(feats) == pytest.approx(total / count, abs=1e-12)


def test_diversity_translation_invariant_and_scales():
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((12, 3))
    base = diversity(feats)
    assert diversity(feats + 100.0) == pytest.approx(base, abs=1e-9)
    assert diversity(feats * 4.0) == pytest.approx(4.0 * base, rel=1e-12)


def test_diversity_needs_two_samples():
    with pytest.raises(NumericError, match="at least 2"):
        diversity(np.zeros((1, 3)))


@pytest.mark.parametrize("n", [2, 3, 51, 64, 65, 512, 513])
@pytest.mark.parametrize("d", [1, 7, 32])
def test_pair_distances_are_pdists_bits(n, d):
    # the same summation order as pdist, so diversity keeps its bits; a
    # duplicate row gives a 0 distance, and a far row large ones
    rng = np.random.default_rng(n * 100 + d)
    x = rng.standard_normal((n, d)) * 3.0
    x[n // 2] = x[0]
    x[-1] += 1e8
    assert _pair_distances(x).tobytes() == pdist(x).tobytes()
    assert diversity(x) == float(np.mean(pdist(x)))


# ------------------------------------------------------------ feature extractor

def test_motion_features_match_manual_pipeline():
    # per clip: encode_part, the composite (part latents concatenated in
    # PART_ORDER, times 1 / scale) and a time mean, the single-clip pipeline
    # the batched extractor must reproduce bit for bit
    rng = np.random.default_rng(8)
    codecs = {p: init_part_codec(rng, p, downsample=4, d_g=3, in_scale=1.7)
              for p in PART_ORDER}
    clips = []
    for _ in range(6):
        clips.append({p: MotionClip(p, rng.standard_normal((16, PART_JOINTS[p])))
                      for p in PART_ORDER})
    parts = {p: np.stack([c[p].frames for c in clips]) for p in PART_ORDER}
    feats = motion_features(parts, codecs, scale=2.0)
    assert feats.shape == (6, 12)
    for row, clip in zip(feats, clips):
        latents = [encode_part(clip[p], codecs[p]).sequence for p in PART_ORDER]
        manual = (np.concatenate(latents, axis=1) * (1.0 / 2.0)).mean(axis=0)
        assert row.tobytes() == manual.tobytes()


def test_motion_features_deterministic():
    rng = np.random.default_rng(9)
    codecs = {p: init_part_codec(rng, p, downsample=4, d_g=2) for p in PART_ORDER}
    parts = {p: np.ones((2, 8, PART_JOINTS[p])) for p in PART_ORDER}
    a = motion_features(parts, codecs)
    b = motion_features(parts, codecs)
    assert a.shape == (2, 8) and np.array_equal(a, b)


def test_motion_features_missing_part_rejected():
    # no command passes fewer parts; the composite's lookup refuses it
    rng = np.random.default_rng(10)
    codecs = {p: init_part_codec(rng, p, downsample=4, d_g=2) for p in PART_ORDER}
    with pytest.raises(KeyError, match="upper"):
        motion_features({"hand": np.zeros((1, 8, 24))}, codecs)
