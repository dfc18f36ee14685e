import dataclasses
import itertools
import math
import random
import re

import numpy as np
import pytest

from realseal import (
    CaptureError,
    SceneCapture,
    ScenarioParams,
    score_capture,
    generate_genuine_scene,
    generate_printed_photo_scene,
    generate_scene,
    generate_screen_replay_scene,
)
from realseal.rng import fill_unit
from realseal.scenarios import SCENARIO_NAMES
from realseal.scene import (
    MIN_GENUINE_WIDTH,
    PIXELS_PER_RADIAN,
    SCENARIOS,
    _audio_from_envelope,
    _imu_for_shifts,
    _pan,
    _pan_shifts,
    _texture,
)
from realseal.scoring import motion_energy, window_bounds

from oracles import (
    audio_from_envelope_reference,
    imu_for_shifts_reference,
    plane_rms_normal_equations,
    texture_reference,
)

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
    assert n == 16 and len(cap.yaw_rates) == n
    assert cap.frames.shape == (n, cap.height, cap.width) and cap.frames.dtype == np.uint8
    # one depth map, at the sealed frame
    assert cap.depth_maps.shape == (1, cap.height, cap.width) and cap.depth_maps.dtype == np.float32
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


@pytest.mark.parametrize("params", [
    ScenarioParams(width=2),
    ScenarioParams(width=3),  # a shift of 2 wraps to -1
    ScenarioParams(width=MIN_GENUINE_WIDTH),
    ScenarioParams(),
    ScenarioParams(width=128, height=128, frame_count=32),
], ids=["w2", "w3", "w5", "desk", "large"])
def test_genuine_audio_is_built_from_the_motion_energy_of_every_frame(params):
    # the generator takes the energies from one pan per shift size; built
    # from the whole stack instead, the audio is the same to the bit
    if params.width < MIN_GENUINE_WIDTH:
        # too narrow for the flow search to see the pan: refused, no audio
        with pytest.raises(CaptureError, match=f"width >= {MIN_GENUINE_WIDTH}"):
            generate_genuine_scene(42, params)
        return
    cap = generate_genuine_scene(42, params)
    m = motion_energy(cap.frames)
    env = np.concatenate([[m[0]], m])
    expected = _audio_from_envelope(env, params.frame_count, params.frame_rate,
                                    params.sample_rate)
    assert np.array_equal(cap.audio, expected)


# ---------------------------------------------------------------------------
# attack scenes
# ---------------------------------------------------------------------------

def test_screen_replay_depth_planar_everywhere():
    cap = generate_screen_replay_scene(7)
    assert len(cap.depth_maps) == 1
    assert plane_rms_normal_equations(cap.depth_maps[0]) <= 1e-3


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


def test_generators_are_keyed_by_the_scenario_names_in_order():
    assert tuple(SCENARIOS) == SCENARIO_NAMES == ("genuine", "screen-replay", "printed-photo")


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
    dict(height=0),
    dict(height=1),
    dict(frame_rate=True),
    # not integers: a str, a float, a bool or None is no size or rate
    dict(width="8"),
    dict(height=8.0),
    dict(frame_count=True),
    dict(sample_rate=None),
    # frame_count * sample_rate past int64: 16 * 2**59 == 2**63
    dict(sample_rate=2**59, frame_rate=2**59),
    dict(sample_rate=2**70, frame_rate=2**70),
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(CaptureError):
        ScenarioParams(**kwargs)


def test_params_are_the_sizes_and_rates_a_capture_stores():
    # the room, body and display temperatures and the base depth are fixed
    assert [f.name for f in dataclasses.fields(ScenarioParams)] == [
        "width", "height", "frame_count", "frame_rate", "sample_rate"]


def _separation_grid() -> list[tuple[ScenarioParams, int]]:
    """Accepted params over widths 2-33, heights 2-16 and 4-16 frames, twice
    each, with a seeded frame rate, sample rate and scene seed."""
    rng = random.Random("separation-grid")
    grid = []
    for width, height, frames, _ in itertools.product(
            (2, 3, 4, 5, 6, 8, 16, 33), (2, 3, 5, 16), (4, 5, 6, 9, 16), range(2)):
        frame_rate = rng.choice((1, 8, 30))
        sample_rate = rng.choice((frame_rate, 2 * frame_rate, 8000))
        grid.append((ScenarioParams(width=width, height=height, frame_count=frames,
                                    frame_rate=frame_rate, sample_rate=sample_rate),
                     rng.getrandbits(64)))
    return grid


def test_every_accepted_params_separates_or_is_refused():
    # genuine scores >= 0.8 and each attack <= 0.3, or its generator refuses
    for params, seed in _separation_grid():
        for name, gen in SCENARIOS.items():
            try:
                capture = gen(seed, params)
            except CaptureError:
                # the one refusal on this grid: a genuine pan too narrow to show
                assert name == "genuine" and params.width < MIN_GENUINE_WIDTH, (name, params)
                continue
            _, overall = score_capture(capture)
            assert overall >= 0.8 if name == "genuine" else overall <= 0.3, (name, params)


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


@pytest.mark.parametrize("phase", range(4))
@pytest.mark.parametrize("frame_count", [4, 5, 16, 33])
@pytest.mark.parametrize("ppr", [PIXELS_PER_RADIAN, 3.0, 1e6])
def test_imu_matches_the_recurrence(phase, frame_count, ppr):
    shifts = _pan_shifts(phase, frame_count)
    assert np.array_equal(_imu_for_shifts(shifts, ppr), imu_for_shifts_reference(shifts, ppr))


@pytest.mark.parametrize("width", range(2, 10))
@pytest.mark.parametrize("height", [2, 5, 32])
def test_texture_matches_the_rolled_sum(width, height):
    for seed in (0, 1, 2**64 - 1):
        raw = fill_unit(seed, width * height).reshape(height, width)
        assert np.array_equal(_texture(seed, width, height), texture_reference(raw))


@pytest.mark.parametrize("frame_count, frame_rate, sample_rate",
                         [(16, 8, 8000), (6, 3, 1000), (5, 7, 7)])
def test_audio_carrier_matches_the_float64_route(frame_count, frame_rate, sample_rate):
    env = np.concatenate([[0.0, 1e-9, 1.0], 0.1 + 0.4 * fill_unit(3, frame_count)])[:frame_count]
    widths = np.diff(window_bounds(frame_count, frame_rate, sample_rate))
    got = _audio_from_envelope(env, frame_count, frame_rate, sample_rate)
    want = audio_from_envelope_reference(env, widths)
    # equal to the bit, the sign of zero included
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("frame_count", [0, 1, 2, 3])
def test_capture_of_fewer_than_four_frames_is_refused(frame_count):
    # the audio-sync scorer needs three transitions
    cap = generate_genuine_scene(1)
    with pytest.raises(CaptureError, match="at least 4 frames"):
        dataclasses.replace(cap, frames=cap.frames[:frame_count],
                            yaw_rates=cap.yaw_rates[:frame_count])


def _four_blank_frames(rate: int) -> SceneCapture:
    """Four 2x2 frames at `rate` fps, with one audio sample per frame."""
    return SceneCapture(
        frames=np.zeros((4, 2, 2), dtype=np.uint8),
        depth_maps=np.full((1, 2, 2), 2.0, dtype=np.float32),
        thermal=np.full((2, 2), 20.0, dtype=np.float32),
        audio=np.zeros(4, dtype=np.float32),
        sample_rate=rate,
        yaw_rates=np.zeros(4, dtype=np.float32),
        frame_rate=rate,
        device_id="T-1",
        timestamp_unix=0,
    )


def test_frame_span_bound_to_int64():
    # 4 * (2**61 - 1) is the last window bound, and int64 holds it
    _, score = score_capture(_four_blank_frames(2**61 - 1))
    assert 0.0 <= score <= 1.0
    for rate in (2**61, 2**70):
        with pytest.raises(CaptureError, match=r"below 2\*\*63"):
            _four_blank_frames(rate)


def _largest_exact_height(width: int) -> int:
    """The largest h with width * (255 * h)**2 < 2**63."""
    h = math.isqrt((2**63 - 1) // width) // 255
    assert width * (255 * h) ** 2 < 2**63 <= width * (255 * (h + 1)) ** 2
    return h


@pytest.mark.parametrize("width", [2, 7, 4096])
def test_params_past_the_flow_bound_are_refused(width):
    h = _largest_exact_height(width)
    assert ScenarioParams(width=width, height=h).height == h
    with pytest.raises(CaptureError, match=r"below 2\*\*63"):
        ScenarioParams(width=width, height=h + 1)


def test_frames_past_the_flow_bound_are_refused():
    # a broadcast view: 10.6M rows that take no memory
    h = 10_600_000
    assert h > _largest_exact_height(2)
    frames = np.broadcast_to(np.array([[255, 153]], dtype=np.uint8), (4, h, 2))
    cap = _four_blank_frames(8)
    with pytest.raises(CaptureError, match=r"below 2\*\*63"):
        dataclasses.replace(cap, frames=frames)


def _capture_of_sizes(width, height, frame_count, frame_rate, sample_rate) -> SceneCapture:
    """A capture of these sizes and rates whose arrays are broadcast views of
    one element each, so that a frame stack of millions of rows takes no memory."""
    def view(dtype, value, *shape):
        return np.broadcast_to(np.array(value, dtype=dtype), shape)

    return SceneCapture(
        frames=view(np.uint8, 0, frame_count, height, width),
        depth_maps=view(np.float32, 2.0, 1, height, width),
        thermal=view(np.float32, 20.0, 2, 2),
        audio=view(np.float32, 0.0, -(-frame_count * sample_rate // frame_rate)),
        sample_rate=sample_rate,
        yaw_rates=view(np.float32, 0.0, frame_count),
        frame_rate=frame_rate,
        device_id="T-1",
        timestamp_unix=0,
    )


def _refusal(make) -> str | None:
    try:
        make()
    except CaptureError as exc:
        return str(exc)
    return None


_H2 = _largest_exact_height(2)


# (width, height, frame_count, frame_rate, sample_rate) and the refusal, or None
@pytest.mark.parametrize("sizes, refusal", [
    ((1, 2, 4, 8, 8), "width and height must be at least 2"),
    ((2, 1, 4, 8, 8), "width and height must be at least 2"),
    ((2, 2, 4, 8, 8), None),
    ((2, 2, 3, 8, 8), "at least 4 frames"),
    ((2, _H2, 4, 8, 8), None),
    ((2, _H2 + 1, 4, 8, 8), r"below 2\*\*63"),
    ((2, 2, 4, 2**61 - 1, 2**61 - 1), None),
    ((2, 2, 4, 2**61, 2**61), r"below 2\*\*63"),
    ((2, 2, 16, 8, 4), "sample_rate must be at least frame_rate"),
], ids=["width-1", "height-1", "2x2", "3-frames", "flow-h", "flow-h+1", "span-below-2**63",
        "span-2**63", "audio-slower"])
def test_params_and_capture_apply_one_size_rule(sizes, refusal):
    # the same sizes and rates are accepted by both, or refused with one message
    by_params = _refusal(lambda: ScenarioParams(*sizes))
    assert by_params == _refusal(lambda: _capture_of_sizes(*sizes))
    if refusal is None:
        assert by_params is None
    else:
        assert by_params is not None and re.search(refusal, by_params), by_params


def test_luma_frame_validation():
    with pytest.raises(CaptureError):  # height 1
        _with_stacks(np.zeros((4, 1, 4), dtype=np.uint8),
                     np.full((1, 1, 4), 2.0, dtype=np.float32))
    with pytest.raises(CaptureError):  # float pixels
        _with_stacks(np.zeros((4, 4, 4), dtype=np.float32),
                     np.full((1, 4, 4), 2.0, dtype=np.float32))


def test_depth_map_validation():
    frames = np.zeros((4, 2, 2), dtype=np.uint8)
    one = np.full((1, 2, 2), 2.0, dtype=np.float32)
    assert _with_stacks(frames, one).depth_maps.shape == (1, 2, 2)
    with pytest.raises(CaptureError, match="one depth map"):  # one per frame
        _with_stacks(frames, np.full((4, 2, 2), 2.0, dtype=np.float32))
    with pytest.raises(CaptureError):
        _with_stacks(frames, np.zeros((1, 2, 2), dtype=np.float32))  # not > 0
    bad = np.full((1, 2, 2), 2.0, dtype=np.float32)
    bad[0, 1, 1] = np.inf
    with pytest.raises(CaptureError):
        _with_stacks(frames, bad)
    bad[0, 1, 1] = np.nan
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
            depth_maps=cap.depth_maps[:0],  # none
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
    for device_id in ("no spaces allowed", 5):
        with pytest.raises(CaptureError, match="device_id"):
            SceneCapture(
                frames=cap.frames,
                depth_maps=cap.depth_maps,
                thermal=cap.thermal,
                audio=cap.audio,
                sample_rate=cap.sample_rate,
                yaw_rates=cap.yaw_rates,
                frame_rate=cap.frame_rate,
                device_id=device_id,
                timestamp_unix=cap.timestamp_unix,
            )
    for location, match in [((91_000_000, 0), "location out of range"),
                            (5, "location must be two integers"),
                            ((1, 2, 3), "location must be two integers")]:
        with pytest.raises(CaptureError, match=match):
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
                location=location,
            )


@pytest.mark.parametrize("ppr", [0.0, -64.0, np.nan, np.inf, 1e300, np.nextafter(1e6, 2e6),
                                 "1", True])
def test_pixels_per_radian_out_of_range_is_refused(ppr):
    # a string or a bool is no number, whatever its value
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
        depth_maps=np.full((1, 2, 2), 2.0, dtype=np.float32),
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
        cap.depth_maps[0, 0, 0] = 1.0
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


# One other valid value per SceneCapture field, in field order.
_CHANGED = {
    "frames": lambda cap: cap.frames[:, :, ::-1],
    "depth_maps": lambda cap: cap.depth_maps * np.float32(2.0),
    "thermal": lambda cap: cap.thermal + np.float32(1.0),
    "audio": lambda cap: -cap.audio,
    "sample_rate": lambda cap: cap.sample_rate // 2,
    "yaw_rates": lambda cap: cap.yaw_rates * np.float32(2.0),
    "frame_rate": lambda cap: cap.frame_rate * 2,
    "device_id": lambda cap: cap.device_id + "X",
    "timestamp_unix": lambda cap: cap.timestamp_unix + 1,
    "location": lambda cap: (1, 2),
    "pixels_per_radian": lambda cap: cap.pixels_per_radian / 2,
}


@pytest.mark.parametrize("field", _CHANGED)
def test_captures_differing_in_one_sensor_are_unequal(field):
    assert list(_CHANGED) == [f.name for f in dataclasses.fields(SceneCapture)]
    # no location, so that the location case goes from None to a tuple
    cap = dataclasses.replace(generate_genuine_scene(1), location=None)
    other = dataclasses.replace(cap, **{field: _CHANGED[field](cap)})
    assert other != cap and cap != other
    assert dataclasses.replace(cap) == cap
