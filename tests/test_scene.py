import dataclasses

import numpy as np
import pytest

from realseal import (
    CaptureError,
    SceneCapture,
    ScenarioParams,
    generate_genuine_scene,
    generate_printed_photo_scene,
    generate_scene,
    generate_screen_replay_scene,
)
from realseal.scene import _pan
from realseal.scoring import motion_energy

from oracles import plane_rms_normal_equations

GENERATORS = [generate_genuine_scene, generate_screen_replay_scene, generate_printed_photo_scene]


# ---------------------------------------------------------------------------
# determinism and invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gen", GENERATORS)
def test_same_seed_regenerates_identical_capture(gen):
    assert gen(42) == gen(42)


@pytest.mark.parametrize("gen", GENERATORS)
def test_different_seeds_differ(gen):
    assert gen(1) != gen(2)


@pytest.mark.parametrize("gen", GENERATORS)
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_capture_invariants(gen, seed):
    cap = gen(seed)
    n = cap.frame_count
    assert n == 16 and len(cap.depth_maps) == n and len(cap.yaw_rates) == n
    assert cap.frames.shape == (n, cap.height, cap.width) and cap.frames.dtype == np.uint8
    assert cap.depth_maps.shape == cap.frames.shape and cap.depth_maps.dtype == np.float32
    # audio covers the frame span
    assert cap.audio.size * cap.frame_rate >= n * cap.sample_rate
    assert np.abs(cap.audio).max() <= 1.0
    lat, lon = cap.location
    assert abs(lat) <= 90_000_000 and abs(lon) <= 180_000_000


# ---------------------------------------------------------------------------
# genuine scene structure
# ---------------------------------------------------------------------------

def test_genuine_depth_is_nonplanar_by_oracle():
    cap = generate_genuine_scene(42)
    assert plane_rms_normal_equations(cap.depth_maps[0]) >= 0.2


def test_genuine_has_two_depth_layers_far_apart():
    cap = generate_genuine_scene(42)
    d = cap.depth_maps[0].astype(np.float64)
    near, far = d[d < d.mean()], d[d >= d.mean()]
    assert far.mean() - near.mean() >= 0.5


def test_genuine_thermal_spread():
    cap = generate_genuine_scene(42)
    assert float(np.std(cap.thermal.astype(np.float64))) >= 3.0


def test_genuine_audio_envelope_tracks_motion():
    cap = generate_genuine_scene(42)
    m = motion_energy(cap.frames)
    sr, fr = cap.sample_rate, cap.frame_rate
    x = cap.audio.astype(np.float64)
    for k in range(1, cap.frame_count):
        lo = -(-(k * sr) // fr)
        hi = -(-((k + 1) * sr) // fr)
        rms = np.sqrt(np.mean(x[lo:hi] ** 2))
        assert rms == pytest.approx(m[k - 1], abs=1e-6)


# ---------------------------------------------------------------------------
# attack scenes
# ---------------------------------------------------------------------------

def test_screen_replay_depth_planar_everywhere():
    cap = generate_screen_replay_scene(7)
    for d in cap.depth_maps:
        assert plane_rms_normal_equations(d) <= 1e-3


def test_screen_replay_thermal_uniform_at_body_heat():
    # a filmed display reads as one flat 37 C surface
    cap = generate_screen_replay_scene(7)
    t = cap.thermal.astype(np.float64)
    assert float(np.std(t)) <= 0.05
    assert t.mean() == pytest.approx(37.0, abs=0.05)


def test_printed_photo_static_frames():
    cap = generate_printed_photo_scene(7)
    assert np.all(motion_energy(cap.frames) == 0.0)
    assert np.all(cap.yaw_rates == 0.0)


def test_printed_photo_thermal_ambient_and_planar_depth():
    cap = generate_printed_photo_scene(7)
    t = cap.thermal.astype(np.float64)
    assert float(np.std(t)) <= 0.05
    assert t.mean() == pytest.approx(20.0, abs=0.05)
    assert plane_rms_normal_equations(cap.depth_maps[0]) <= 1e-3


def test_printed_photo_audio_has_energy():
    cap = generate_printed_photo_scene(7)
    assert float(np.abs(cap.audio).max()) > 0.05


def test_scenario_separation_across_seeds():
    for seed in (1, 9, 17):
        assert plane_rms_normal_equations(
            generate_genuine_scene(seed).depth_maps[0]) >= 0.2
        assert plane_rms_normal_equations(
            generate_screen_replay_scene(seed).depth_maps[0]) <= 1e-3


# ---------------------------------------------------------------------------
# dispatch + params
# ---------------------------------------------------------------------------

def test_generate_scene_dispatch():
    assert generate_scene("genuine", 3) == generate_genuine_scene(3)
    with pytest.raises(CaptureError):
        generate_scene("hologram", 3)


def test_small_params_still_valid():
    params = ScenarioParams(width=8, height=8, frame_count=4, frame_rate=8, sample_rate=800)
    for gen in GENERATORS:
        cap = gen(5, params)
        assert cap.frame_count == 4 and cap.width == 8


@pytest.mark.parametrize("kwargs", [
    dict(frame_count=3),
    dict(width=0),
    dict(width=1),
    dict(frame_rate=0),
    dict(sample_rate=0),
    dict(depth_base_m=0.0),
    dict(ambient_temp_c=-1.0),
    dict(frame_rate=True),
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(CaptureError):
        ScenarioParams(**kwargs)


@pytest.mark.parametrize("gen", GENERATORS)
def test_audio_slower_than_frames_is_refused(gen):
    # 4 Hz audio under 8 fps video leaves every other frame window empty
    with pytest.raises(CaptureError, match="sample_rate must be at least frame_rate"):
        gen(1, ScenarioParams(sample_rate=4, frame_rate=8))


@pytest.mark.parametrize("dtype", [np.uint8, np.float32])
def test_pan_matches_per_frame_roll(dtype):
    base = np.random.default_rng(4).integers(0, 256, size=(5, 7)).astype(dtype)
    offsets = np.array([0, 1, 3, 6, 7, 9, 15, 22])  # from 7 on, offsets wrap the width
    stack = _pan(base, offsets)
    assert stack.dtype == dtype and stack.flags.c_contiguous
    assert np.array_equal(stack, np.stack([np.roll(base, int(o), axis=1) for o in offsets]))


# ---------------------------------------------------------------------------
# component type validation
# ---------------------------------------------------------------------------

def _with_stacks(frames, depth_maps) -> SceneCapture:
    """A capture around the given stacks; every other sensor is valid."""
    n, h, w = np.shape(frames)
    return SceneCapture(
        frames=frames,
        depth_maps=depth_maps,
        thermal=np.full((h, w), 20.0, dtype=np.float32),
        audio=np.zeros(10 * n, dtype=np.float32),
        sample_rate=80,
        yaw_rates=np.zeros(n, dtype=np.float32),
        frame_rate=8,
        device_id="T-1",
        timestamp_unix=0,
    )


def test_luma_frame_validation():
    with pytest.raises(CaptureError):  # height 1
        _with_stacks(np.zeros((4, 1, 4), dtype=np.uint8),
                     np.full((4, 1, 4), 2.0, dtype=np.float32))
    with pytest.raises(CaptureError):  # float pixels
        _with_stacks(np.zeros((4, 4, 4), dtype=np.float32),
                     np.full((4, 4, 4), 2.0, dtype=np.float32))


def test_depth_map_validation():
    frames = np.zeros((4, 2, 2), dtype=np.uint8)
    with pytest.raises(CaptureError):
        _with_stacks(frames, np.zeros((4, 2, 2), dtype=np.float32))  # not > 0
    bad = np.full((4, 2, 2), 2.0, dtype=np.float32)
    bad[3, 1, 1] = np.inf
    with pytest.raises(CaptureError):
        _with_stacks(frames, bad)
    bad[3, 1, 1] = np.nan
    with pytest.raises(CaptureError):
        _with_stacks(frames, bad)


def test_thermal_map_validation():
    cap = generate_genuine_scene(1)
    with pytest.raises(CaptureError, match="temps must lie within"):
        dataclasses.replace(cap, thermal=np.full((2, 2), 200.0, dtype=np.float32))
    with pytest.raises(CaptureError, match="temps must lie within"):
        dataclasses.replace(cap, thermal=np.full((2, 2), -50.0, dtype=np.float32))


def test_audio_track_validation():
    cap = generate_genuine_scene(1)
    with pytest.raises(CaptureError, match="sample_rate must be a positive integer"):
        dataclasses.replace(cap, sample_rate=0)
    with pytest.raises(CaptureError, match="sample_rate must be a positive integer"):
        dataclasses.replace(cap, sample_rate=True)
    for bad in (2.0, np.nan):
        samples = cap.audio.copy()
        samples[-1] = bad
        with pytest.raises(CaptureError, match="samples must be finite and within"):
            dataclasses.replace(cap, audio=samples)


def test_yaw_rates_validation():
    cap = generate_genuine_scene(1)
    with pytest.raises(CaptureError, match="yaw_rates must be a 1-D float32 array"):
        dataclasses.replace(cap, yaw_rates=cap.yaw_rates.astype(np.float64))
    bad = cap.yaw_rates.copy()
    bad[3] = np.nan
    with pytest.raises(CaptureError, match="yaw_rates must be finite"):
        dataclasses.replace(cap, yaw_rates=bad)


def test_capture_cross_validation():
    cap = generate_genuine_scene(1)
    with pytest.raises(CaptureError):
        SceneCapture(
            frames=cap.frames,
            depth_maps=cap.depth_maps[:-1],  # one short
            thermal=cap.thermal,
            audio=cap.audio,
            sample_rate=cap.sample_rate,
            yaw_rates=cap.yaw_rates,
            frame_rate=cap.frame_rate,
            device_id=cap.device_id,
            timestamp_unix=cap.timestamp_unix,
        )
    with pytest.raises(CaptureError):
        SceneCapture(
            frames=cap.frames,
            depth_maps=cap.depth_maps,
            thermal=cap.thermal,
            audio=np.zeros(100, dtype=np.float32),  # too short
            sample_rate=cap.sample_rate,
            yaw_rates=cap.yaw_rates,
            frame_rate=cap.frame_rate,
            device_id=cap.device_id,
            timestamp_unix=cap.timestamp_unix,
        )
    with pytest.raises(CaptureError):
        SceneCapture(
            frames=cap.frames,
            depth_maps=cap.depth_maps,
            thermal=cap.thermal,
            audio=cap.audio,
            sample_rate=cap.sample_rate,
            yaw_rates=cap.yaw_rates,
            frame_rate=cap.frame_rate,
            device_id="no spaces allowed",
            timestamp_unix=cap.timestamp_unix,
        )
    with pytest.raises(CaptureError):
        SceneCapture(
            frames=cap.frames,
            depth_maps=cap.depth_maps,
            thermal=cap.thermal,
            audio=cap.audio,
            sample_rate=cap.sample_rate,
            yaw_rates=cap.yaw_rates,
            frame_rate=cap.frame_rate,
            device_id=cap.device_id,
            timestamp_unix=cap.timestamp_unix,
            location=(91_000_000, 0),
        )


@pytest.mark.parametrize("ppr", [0.0, -64.0, np.nan, np.inf, 1e300, np.nextafter(1e6, 2e6)])
def test_pixels_per_radian_out_of_range_is_refused(ppr):
    cap = generate_genuine_scene(1)
    assert dataclasses.replace(cap, pixels_per_radian=1e6).pixels_per_radian == 1e6
    with pytest.raises(CaptureError, match="pixels_per_radian"):
        dataclasses.replace(cap, pixels_per_radian=ppr)


@pytest.mark.parametrize("kwargs", [
    dict(frame_rate=True),
    dict(timestamp_unix=True),
    dict(location=(True, False)),
])
def test_capture_integers_refuse_booleans(kwargs):
    # 1 Hz audio at 1 frame/s covers the frames, so frame_rate=True passes
    # every check except the integer one
    n = 4
    base = dict(
        frames=np.zeros((n, 2, 2), dtype=np.uint8),
        depth_maps=np.full((n, 2, 2), 2.0, dtype=np.float32),
        thermal=np.full((2, 2), 20.0, dtype=np.float32),
        audio=np.zeros(n, dtype=np.float32),
        sample_rate=1,
        yaw_rates=np.zeros(n, dtype=np.float32),
        frame_rate=1,
        device_id="T-1",
        timestamp_unix=1,
        location=(1, 0),
    )
    SceneCapture(**base)
    base.update(kwargs)
    with pytest.raises(CaptureError, match="integer"):
        SceneCapture(**base)


def test_arrays_are_frozen():
    cap = generate_genuine_scene(1)
    with pytest.raises(ValueError):
        cap.frames[0][0, 0] = 1
    with pytest.raises(ValueError):
        cap.depth_maps[3, 0, 0] = 1.0
    with pytest.raises(ValueError):
        cap.thermal[0, 0] = 1.0
    with pytest.raises(ValueError):
        cap.audio[0] = 0.0
    with pytest.raises(ValueError):
        cap.yaw_rates[0] = 0.0
    for field, value in [("pixels_per_radian", 1e300), ("frames", cap.frames[:1]),
                         ("yaw_rates", cap.yaw_rates[:1]), ("device_id", "x y"),
                         ("location", (0, 0))]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cap, field, value)


@pytest.mark.parametrize("field", ["thermal", "audio", "sample_rate", "yaw_rates"])
def test_captures_differing_in_one_sensor_are_unequal(field):
    cap = generate_genuine_scene(1)
    changed = {
        "thermal": cap.thermal + np.float32(1.0),
        "audio": -cap.audio,
        "sample_rate": cap.sample_rate // 2,
        "yaw_rates": cap.yaw_rates * np.float32(2.0),
    }[field]
    other = dataclasses.replace(cap, **{field: changed})
    assert other != cap and cap != other
    assert dataclasses.replace(cap) == cap
