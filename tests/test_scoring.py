
import dataclasses
import tracemalloc

import numpy as np
import pytest

from realseal import (
    DimensionScores,
    ScenarioParams,
    SceneCapture,
    aggregate,
    audio_envelope,
    best_lag_correlation,
    fit_plane,
    flow_shift,
    generate_genuine_scene,
    generate_scene,
    generate_printed_photo_scene,
    generate_screen_replay_scene,
    motion_energy,
    score_capture,
    score_depth,
    score_motion,
    score_thermal,
)
from realseal.scoring import score_audio_sync, score_av_alignment

from oracles import best_lag_reference, flow_shift_reference, plane_rms_normal_equations

# frozen fixture values, derived with independent arithmetic:
#   center-bump 3x3: SSE = (4/9)^2 + 8*(1/18)^2 = 2/9, rms = sqrt(2/81)
CENTER_BUMP_RMS = 0.1571348402636772
#   1 - exp(-rms/0.05)
CENTER_BUMP_DEPTH_SCORE = 0.9568337701243882
#   1 - exp(-1/1.5) for a half-36/half-38 map (sigma = 1)
HALF_SPLIT_THERMAL_SCORE = 0.486582880967408
#   rho=1 at |lag|=1 with L=2: 1 * (1 - 1/3)
SHIFTED_AV_SCORE = 2.0 / 3.0
#   pearson([1,2,3],[1,2,4]) = 9/sqrt(84)
MOTION_FIXTURE_RHO = 0.9819805060619656


def _depth(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float32)


def _center_bump() -> np.ndarray:
    d = np.full((3, 3), 2.0, dtype=np.float32)
    d[1, 1] = 2.5
    return d


# ---------------------------------------------------------------------------
# plane fit + depth score
# ---------------------------------------------------------------------------

def test_fit_plane_constant_map():
    fit = fit_plane(_depth(np.full((3, 3), 2.0)))
    assert fit.a == pytest.approx(0.0, abs=1e-12)
    assert fit.b == pytest.approx(0.0, abs=1e-12)
    assert fit.c == pytest.approx(2.0, abs=1e-12)
    assert fit.rms_residual == pytest.approx(0.0, abs=1e-12)


def test_fit_plane_exact_ramp():
    # float32 storage bounds how exactly 0.1*x survives the round trip
    xs = np.arange(3, dtype=np.float64)
    d = 2.0 + 0.1 * np.tile(xs, (3, 1))
    fit = fit_plane(_depth(d))
    assert fit.a == pytest.approx(0.1, abs=1e-6)
    assert fit.b == pytest.approx(0.0, abs=1e-6)
    assert fit.rms_residual == pytest.approx(0.0, abs=1e-6)


def test_fit_plane_center_bump():
    fit = fit_plane(_center_bump())
    assert fit.c == pytest.approx(18.5 / 9.0, abs=1e-6)      # 2.0556
    assert fit.rms_residual == pytest.approx(CENTER_BUMP_RMS, abs=1e-9)


def test_fit_plane_matches_normal_equations_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        h = int(rng.integers(2, 9))
        w = int(rng.integers(2, 9))
        depths = rng.uniform(0.5, 5.0, size=(h, w)).astype(np.float32)
        mine = fit_plane(depths).rms_residual
        assert mine == pytest.approx(plane_rms_normal_equations(depths), abs=1e-9)


def test_fit_plane_needs_three_pixels():
    with pytest.raises(ValueError):
        fit_plane(_depth([[1.0, 2.0]]))


def test_score_depth_zero_iff_planar():
    assert score_depth(_depth(np.full((4, 4), 3.0))) == 0.0
    xs = np.arange(5, dtype=np.float64)
    ramp = 1.0 + 0.2 * np.tile(xs, (4, 1))
    assert score_depth(_depth(ramp)) == pytest.approx(0.0, abs=1e-6)


def test_score_depth_center_bump_fixture():
    assert score_depth(_center_bump()) == pytest.approx(CENTER_BUMP_DEPTH_SCORE, abs=1e-9)


def test_score_depth_strictly_increasing_in_residual():
    scores = []
    for bump in (0.2, 0.5, 1.0, 2.0):
        d = np.full((3, 3), 2.0, dtype=np.float32)
        d[1, 1] = 2.0 + bump
        scores.append(score_depth(d))
    assert all(a < b for a, b in zip(scores, scores[1:]))
    assert all(0.0 < s < 1.0 for s in scores)


# ---------------------------------------------------------------------------
# thermal score
# ---------------------------------------------------------------------------

def test_score_thermal_uniform_is_zero():
    assert score_thermal(np.full((4, 4), 37.0, dtype=np.float32)) == 0.0
    assert score_thermal(np.full((4, 4), 20.0, dtype=np.float32)) == 0.0


def test_score_thermal_half_split_fixture():
    t = np.full((4, 4), 36.0, dtype=np.float32)
    t[:, 2:] = 38.0
    assert score_thermal(t) == pytest.approx(HALF_SPLIT_THERMAL_SCORE, abs=1e-9)


def test_score_thermal_increasing_in_spread():
    def split(delta):
        t = np.full((4, 4), 30.0 - delta, dtype=np.float32)
        t[:, 2:] = 30.0 + delta
        return score_thermal(t)
    scores = [split(d) for d in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(scores, scores[1:]))


# ---------------------------------------------------------------------------
# audio envelope
# ---------------------------------------------------------------------------

def test_envelope_silent_track():
    samples = np.zeros(80, dtype=np.float32)
    assert np.all(audio_envelope(samples, 80, 8, 8) == 0.0)


def test_envelope_constant_amplitude():
    samples = np.full(80, 0.5, dtype=np.float32)
    env = audio_envelope(samples, 80, 8, 8)
    assert env == pytest.approx(np.full(8, 0.5), abs=1e-6)


def test_envelope_unit_sine_window():
    k = np.arange(64)
    samples = np.sin(2 * np.pi * k / 64).astype(np.float32)
    env = audio_envelope(samples, 64, 1, 1)
    expected = float(np.sqrt(np.mean(samples.astype(np.float64) ** 2)))
    assert env[0] == pytest.approx(expected, abs=1e-12)
    assert env[0] == pytest.approx(0.7071, abs=1e-4)


def test_envelope_windows_partition_oddly_divided_samples():
    samples = np.arange(10, dtype=np.float32) / 10.0
    env = audio_envelope(samples, 10, 3, 3)  # bounds 0,4,7,10
    x = samples.astype(np.float64)
    assert env == pytest.approx([
        np.sqrt(np.mean(x[0:4] ** 2)),
        np.sqrt(np.mean(x[4:7] ** 2)),
        np.sqrt(np.mean(x[7:10] ** 2)),
    ])


def test_envelope_insufficient_samples():
    samples = np.zeros(100, dtype=np.float32)
    with pytest.raises(ValueError):
        audio_envelope(samples, 8000, 8, 16)


# ---------------------------------------------------------------------------
# motion energy
# ---------------------------------------------------------------------------

def _frames(*arrays):
    return np.stack([np.asarray(a, dtype=np.uint8) for a in arrays])


def test_motion_energy_identical_frames():
    base = np.arange(16, dtype=np.uint8).reshape(4, 4)
    assert np.all(motion_energy(_frames(base, base, base)) == 0.0)


def test_motion_energy_full_swing():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.full((4, 4), 255, dtype=np.uint8)
    assert motion_energy(_frames(a, b))[0] == 1.0


def test_motion_energy_checkerboard_inversion():
    board = np.indices((4, 4)).sum(axis=0) % 2 * 255
    assert motion_energy(_frames(board, 255 - board))[0] == 1.0


def test_motion_energy_dimension_mismatch():
    # frames of different sizes do not form a stack; one 2-D frame is not a stack
    with pytest.raises(ValueError):
        motion_energy(_frames(np.zeros((4, 4)), np.zeros((4, 5))))
    with pytest.raises(ValueError):
        motion_energy(np.zeros((4, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# lag correlation
# ---------------------------------------------------------------------------

def test_best_lag_identical_series():
    x = [0, 1, 0, 1, 0, 1]
    assert best_lag_correlation(x, x, 2) == (0, pytest.approx(1.0))


def test_best_lag_delayed_periodic_ramp():
    x = np.tile(np.arange(4.0), 2)
    y = np.roll(x, 1)  # y trails x by one sample
    lag, rho = best_lag_correlation(x, y, 2)
    assert (lag, rho) == (1, pytest.approx(1.0))
    assert best_lag_reference(x, y, 2) == (lag, pytest.approx(rho))


def test_best_lag_constant_series_undefined():
    assert best_lag_correlation([3.0] * 6, [0, 1, 2, 3, 4, 5], 2) == (0, None)
    assert best_lag_correlation([0, 1, 2, 3, 4, 5], [3.0] * 6, 2) == (0, None)


def test_best_lag_matches_exhaustive_reference():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(4, 33))
        max_lag = int(rng.integers(0, min(5, n)))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        got_lag, got_rho = best_lag_correlation(x, y, max_lag)
        ref_lag, ref_rho = best_lag_reference(x, y, max_lag)
        assert got_lag == ref_lag
        assert got_rho == pytest.approx(ref_rho, abs=1e-9)


def test_best_lag_input_validation():
    with pytest.raises(ValueError):
        best_lag_correlation([1, 2, 3], [1, 2], 1)
    with pytest.raises(ValueError):
        best_lag_correlation([1, 2], [1, 2], 1)
    with pytest.raises(ValueError):
        best_lag_correlation([1, 2, 3], [1, 2, 3], 3)


# ---------------------------------------------------------------------------
# AV alignment
# ---------------------------------------------------------------------------

def test_av_alignment_equal_series():
    m = [0.1, 0.4, 0.2, 0.5, 0.3]
    assert score_av_alignment(m, m) == pytest.approx(1.0)


def test_av_alignment_flat_series_neutral():
    assert score_av_alignment([0.0] * 5, [0.0] * 5) == 0.5


def test_av_alignment_shift_by_one_fixture():
    m = np.array([1.0, 2.0, 4.0, 8.0, 9.0, 12.0, 15.0])
    e = np.concatenate([[5.0], m[:-1]])  # envelope trails motion by one frame
    assert score_av_alignment(e, m) == pytest.approx(SHIFTED_AV_SCORE, abs=1e-9)


def test_score_audio_sync_silent_and_static_is_neutral():
    base = np.full((4, 4), 100, dtype=np.uint8)
    cap = SceneCapture(
        frames=np.stack([base] * 4),
        depth_maps=np.full((4, 4, 4), 2.0, dtype=np.float32),
        thermal=np.full((4, 4), 20.0, dtype=np.float32),
        audio=np.zeros(40, dtype=np.float32),
        sample_rate=80,
        yaw_rates=np.zeros(4, dtype=np.float32),
        frame_rate=8,
        device_id="T-1",
        timestamp_unix=0,
    )
    assert score_audio_sync(cap) == 0.5


def test_score_audio_sync_genuine_scene_near_perfect():
    assert score_audio_sync(generate_genuine_scene(42)) >= 0.99


# ---------------------------------------------------------------------------
# flow shift
# ---------------------------------------------------------------------------

def _texture_16():
    rng = np.random.default_rng(5)
    return rng.integers(0, 256, size=(8, 16)).astype(np.uint8)


def test_flow_shift_identical_frames():
    base = _texture_16()
    assert np.all(flow_shift(_frames(base, base, base)) == 0)


def test_flow_shift_translated_right_two():
    base = _texture_16()
    shifted = np.roll(base, 2, axis=1)
    assert flow_shift(_frames(base, shifted))[0] == 2
    assert flow_shift_reference([base, shifted])[0] == 2


def test_flow_shift_uniform_frames_tie_to_zero():
    flat = np.full((8, 16), 7, dtype=np.uint8)
    assert np.all(flow_shift(_frames(flat, flat)) == 0)


def test_flow_shift_exact_tie_resolves_to_smallest_shift():
    # Column sums p1 = [8,3,7,8,7] and p2 = [11,7,9,8,6]. The dot product
    # p1 . roll(p2, -s) is 278 for s = 0 and for s = -2, and lower for every
    # other shift (258, 264, 275), so the tie rule picks s = 0.
    f0 = [[4, 2, 7, 6, 6], [4, 1, 0, 2, 1]]
    f1 = [[5, 5, 7, 6, 0], [6, 2, 2, 2, 6]]
    assert list(flow_shift(_frames(f0, f1))) == [0]


def test_flow_shift_matches_reference_on_random_pans():
    rng = np.random.default_rng(8)
    base = rng.integers(0, 256, size=(8, 16)).astype(np.uint8)
    offsets = [0, 1, 3, 6, 10, 12]
    frames_px = [np.roll(base, o, axis=1) for o in offsets]
    got = list(flow_shift(_frames(*frames_px)))
    assert got == flow_shift_reference(frames_px)
    assert got == [1, 2, 3, 4, 2]


LARGE = ScenarioParams(width=128, height=128, frame_count=32)


@pytest.mark.parametrize("scenario", ["genuine", "screen-replay", "printed-photo"])
def test_flow_shift_matches_reference_on_large_scenarios(scenario):
    frames = generate_scene(scenario, 11, LARGE).frames
    assert list(flow_shift(frames)) == flow_shift_reference(frames)


def _random_stack(seed, shape):
    return np.random.default_rng(seed).integers(0, 256, size=shape).astype(np.uint8)


def _constant_and_textured():
    frames = _random_stack(3, (5, 4, 8))
    frames[::2] = 9  # constant frames 0, 2 and 4 leave every correlation undefined
    return frames


@pytest.mark.parametrize("frames", [
    _random_stack(1, (6, 4, 2)),  # w = 2: shifts -1 and +1 are the same roll
    _random_stack(2, (6, 5, 9)),  # odd w
    _constant_and_textured(),
    # Column sums p1 = [4,2,7,7,5] and p2 = [14,9,16,3,8] have integer means, so
    # the reference's float correlations are exact too: s = -2 and s = +2 both
    # reach the maximum dot product 269, and the tie goes to the negative shift.
    _frames([[1, 2, 3, 4, 2], [3, 0, 4, 3, 3]], [[9, 5, 8, 2, 5], [5, 4, 8, 1, 3]]),
], ids=["w2", "odd-w", "constant-frames", "two-way-tie"])
def test_flow_shift_matches_reference_on_random_stacks(frames):
    assert list(flow_shift(frames)) == flow_shift_reference(frames)


def test_flow_shift_peak_memory_below_one_mib():
    # All 31 transitions of a 128-wide stack ranked against all 129 shifts
    # at once would hold a 31 x 129 x 128 int64 gather, ~4 MiB.
    frames = generate_scene("genuine", 1, LARGE).frames
    flow_shift(frames)
    tracemalloc.start()
    try:
        flow_shift(frames)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# motion score
# ---------------------------------------------------------------------------

def _motion_capture(offsets, imu_u, width=16, height=8, ppr=64.0):
    """Capture with frames panned by `offsets` and IMU = imu_u / ppr."""
    rng = np.random.default_rng(3)
    base = rng.integers(0, 256, size=(height, width)).astype(np.uint8)
    n = len(offsets)
    return SceneCapture(
        frames=np.stack([np.roll(base, int(o), axis=1) for o in offsets]),
        depth_maps=np.full((n, height, width), 2.0, dtype=np.float32),
        thermal=np.full((height, width), 20.0, dtype=np.float32),
        audio=np.zeros(10 * n, dtype=np.float32),
        sample_rate=80,
        yaw_rates=(np.asarray(imu_u, dtype=np.float64) / ppr).astype(np.float32),
        frame_rate=8,
        device_id="T-1",
        timestamp_unix=0,
        pixels_per_radian=ppr,
    )


def test_score_motion_perfectly_consistent():
    # flow [1,2,3]; imu midpoints reproduce it exactly
    cap = _motion_capture(offsets=[0, 1, 3, 6], imu_u=[1, 1, 3, 3])
    assert score_motion(cap) == pytest.approx(1.0)


def test_score_motion_anticorrelated_clamps_to_zero():
    cap = _motion_capture(offsets=[0, 1, 3, 6], imu_u=[-1, -1, -3, -3])
    assert score_motion(cap) == 0.0


def test_score_motion_pearson_fixture():
    # flow f = [1,2,3]; imu gives g = [1,2,4]: rho = 9/sqrt(84)
    cap = _motion_capture(offsets=[0, 1, 3, 6], imu_u=[1, 1, 3, 5])
    assert score_motion(cap) == pytest.approx(MOTION_FIXTURE_RHO, abs=1e-9)


def test_score_motion_static_camera_consistent():
    cap = _motion_capture(offsets=[0, 0, 0, 0], imu_u=[0, 0, 0, 0])
    assert score_motion(cap) == 1.0


def test_score_motion_one_sided_motion_claims():
    # IMU says motion, frames static
    cap = _motion_capture(offsets=[0, 0, 0, 0], imu_u=[2, 2, 2, 2])
    assert score_motion(cap) == 0.0
    # frames move uniformly, IMU flat at a different constant
    cap = _motion_capture(offsets=[0, 2, 4, 6], imu_u=[0, 0, 0, 0])
    assert score_motion(cap) == 0.0


def test_score_motion_at_the_pixels_per_radian_bound_stays_finite():
    # float32-extreme yaw rates at the largest pixels_per_radian a capture
    # allows: the gyro series and its sums stay finite, so numpy warns of no
    # overflow (an error in this suite) and the score is a real score
    n = 1024
    cap = _motion_capture(offsets=np.arange(n) % 5, imu_u=np.zeros(n), ppr=1e6)
    top = np.finfo(np.float32).max
    yaw = np.where(np.arange(n) % 3 == 0, top, -top).astype(np.float32)
    assert 0.0 <= score_motion(dataclasses.replace(cap, yaw_rates=yaw)) <= 1.0


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _dims(d, t, a, m):
    return DimensionScores(depth=d, thermal=t, audio_sync=a, motion=m)


def test_aggregate_identity_case():
    assert aggregate(_dims(1, 1, 1, 1)) == 1.0


def test_aggregate_veto_forces_zero():
    assert aggregate(_dims(1, 1, 1, 0)) == 0.0


def test_aggregate_above_threshold_plain_mean():
    assert aggregate(_dims(0.9, 0.8, 0.7, 0.6)) == pytest.approx(0.75, abs=1e-12)


def test_aggregate_partial_veto():
    # min = 0.1 < theta=0.2: mean * 0.5
    dims = _dims(0.9, 0.9, 0.9, 0.1)
    assert aggregate(dims) == pytest.approx((0.25 * 2.8) * 0.5, abs=1e-12)


def test_aggregate_monotone_in_each_dimension():
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = rng.uniform(0, 1, size=4)
        base = aggregate(_dims(*s))
        for i in range(4):
            bumped = s.copy()
            bumped[i] = min(1.0, bumped[i] + rng.uniform(0, 1 - bumped[i] + 1e-12))
            assert aggregate(_dims(*bumped)) >= base - 1e-12


def test_aggregate_symmetric_under_permutation_with_equal_weights():
    rng = np.random.default_rng(12)
    for _ in range(50):
        s = rng.uniform(0, 1, size=4)
        perm = rng.permutation(4)
        assert aggregate(_dims(*s)) == pytest.approx(aggregate(_dims(*s[perm])), abs=1e-12)


def test_aggregate_equal_scores_above_threshold_pass_through():
    for s in (0.2, 0.5, 0.9, 1.0):
        assert aggregate(_dims(s, s, s, s)) == pytest.approx(s, abs=1e-12)


def test_dimension_scores_range_enforced():
    with pytest.raises(ValueError):
        _dims(1.1, 0, 0, 0)
    with pytest.raises(ValueError):
        _dims(0, -0.1, 0, 0)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_score_capture_scenario_separation():
    _, genuine = score_capture(generate_genuine_scene(42))
    assert genuine >= 0.8
    dims_r, replay = score_capture(generate_screen_replay_scene(7))
    assert replay <= 0.3
    assert dims_r.depth <= 0.05 and dims_r.thermal <= 0.05
    _, printed = score_capture(generate_printed_photo_scene(7))
    assert printed <= 0.3


def test_score_capture_deterministic():
    cap = generate_genuine_scene(9)
    d1, o1 = score_capture(cap)
    d2, o2 = score_capture(cap)
    assert d1 == d2 and o1 == o2


def test_all_scores_within_unit_interval():
    for seed in (1, 2, 3):
        for gen in (generate_genuine_scene, generate_screen_replay_scene,
                    generate_printed_photo_scene):
            dims, overall = score_capture(gen(seed))
            for v in (*dims.as_dict().values(), overall):
                assert 0.0 <= v <= 1.0
