"""Synthetic multisensory scene captures.

Three deterministic generators produce the scenarios the scoring pipeline
must separate:

* genuine        - textured scene with real depth structure, a warm body,
                   sound locked to motion, and IMU consistent with the pan
* screen-replay  - camera films a flat display: planar depth, uniform 37 C
                   thermal signature, audio decorrelated from motion
* printed-photo  - camera films a static printout: planar depth, ambient
                   thermal, zero motion with live audio

Depth is synthesized at frame 0 only, the frame that is sealed and scored.
The physical scene is fixed: a 20 C room, a 37 C body and display, and a
2 m base depth. ScenarioParams sets only the sizes and rates.

All sensor data is synthesized from a single SplitMix64 seed, so every
generator is byte-reproducible: same seed, same capture. A generator's
scalar draws (substream seeds, pan phase, body rectangle, plane tilt and
location) are outputs 0..n-1 of its seed's stream, and its noise fields
come from the substreams.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CaptureError
from .manifest import (LAT_MICRODEG_MAX, LON_MICRODEG_MAX, _check_device_id, _check_timestamp,
                       _checked_location, _is_int)
from .rng import fill_u64, fill_unit
from .scenarios import GENUINE, PRINTED_PHOTO, SCREEN_REPLAY
from .scoring import _flow_is_exact, motion_energy, window_bounds

# Declared conversion between yaw angle and horizontal pixel shift. A power
# of two keeps synthesized IMU values exact in float32.
PIXELS_PER_RADIAN = 64.0
# 1e6 px/rad is a 1 microradian pixel (a 2 m lens with 2 um pixels). The
# bound keeps the gyro series, yaw rate * pixels_per_radian, far from
# float64 overflow even at float32-extreme yaw rates.
MAX_PIXELS_PER_RADIAN = 1e6

_DEFAULT_TIMESTAMP = 1_700_000_000

# The audio-sync scorer correlates F - 1 transitions over at least 3 points.
MIN_FRAME_COUNT = 4

# The pan moves the frames 1 or 2 pixels a step. The flow search reads a
# shift circularly within [-w//2, w//2], so it tells a shift s from s - w
# only where 2 * s < w: a genuine scene narrower than this shows no pan.
_MAX_PAN_SHIFT = 2
MIN_GENUINE_WIDTH = 2 * _MAX_PAN_SHIFT + 1

# The physical scene; the base depth is the screen's, the printout's or the far layer's.
_AMBIENT_TEMP_C = 20.0
_BODY_TEMP_C = 37.0
_SCREEN_TEMP_C = 37.0
_DEPTH_BASE_M = 2.0


def _number_within(value: object, lo: float, hi: float) -> bool:
    """True for an int or float in (lo, hi]: a bool or a str is no number, and
    a NaN fails both comparisons."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and lo < value <= hi)


def _freeze(arr: np.ndarray) -> np.ndarray:
    # No contiguous copy: a broadcast stack keeps sharing its one frame.
    arr = np.asarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SceneCapture:
    """One synchronized multisensory recording plus device identity.

    The record is frozen, so every check made at construction keeps holding.
    Every sensor is a read-only array:

    * ``frames``     - (F,H,W) uint8 luminance stack, F >= 4
    * ``depth_maps`` - (1,H,W) float32 scene distances in meters at frame 0,
                       the sealed frame
    * ``thermal``    - 2-D float32 temperatures in degrees Celsius
    * ``audio``      - 1-D float32 mono samples in [-1, 1] at ``sample_rate`` Hz
    * ``yaw_rates``  - float32 gyro yaw rate in radians/second, one per frame
    """

    frames: np.ndarray
    depth_maps: np.ndarray
    thermal: np.ndarray
    audio: np.ndarray
    sample_rate: int
    yaw_rates: np.ndarray
    frame_rate: int
    device_id: str
    timestamp_unix: int
    location: tuple[int, int] | None = None
    pixels_per_radian: float = PIXELS_PER_RADIAN

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames)
        depths = np.asarray(self.depth_maps)
        temps = np.asarray(self.thermal)
        samples = np.asarray(self.audio)
        yaw = np.asarray(self.yaw_rates)
        if frames.dtype != np.uint8:
            raise CaptureError("frame pixels must be uint8")
        if frames.ndim != 3:
            raise CaptureError("frames must be an (F,H,W) stack")
        # the sizes and rates must make the ScenarioParams they describe
        count, height, width = frames.shape
        ScenarioParams(width, height, count, self.frame_rate, self.sample_rate)
        if depths.dtype != np.float32:
            raise CaptureError("depths must be float32")
        if depths.shape != (1, *frames.shape[1:]):
            raise CaptureError("one depth map, with the frame dimensions, required")
        # min and max propagate NaN, so this also rejects NaN
        if not (depths.min() > 0.0 and np.isfinite(depths.max())):
            raise CaptureError("depths must be finite and positive")
        if temps.dtype != np.float32:
            raise CaptureError("temps must be float32")
        if temps.ndim != 2 or temps.size == 0:
            raise CaptureError("thermal map must be a non-empty 2-D array")
        lo, hi = temps.min(), temps.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise CaptureError("temps must be finite")
        if lo < -40.0 or hi > 150.0:
            raise CaptureError("temps must lie within [-40, 150] C")
        if samples.dtype != np.float32 or samples.ndim != 1:
            raise CaptureError("samples must be a 1-D float32 array")
        # min and max propagate NaN, so this also rejects NaN
        if samples.size and not (samples.min() >= -1.0 and samples.max() <= 1.0):
            raise CaptureError("samples must be finite and within [-1, 1]")
        if yaw.dtype != np.float32 or yaw.ndim != 1:
            raise CaptureError("yaw_rates must be a 1-D float32 array")
        if not np.all(np.isfinite(yaw)):
            raise CaptureError("yaw_rates must be finite")
        object.__setattr__(self, "frames", _freeze(frames))
        object.__setattr__(self, "depth_maps", _freeze(depths))
        object.__setattr__(self, "thermal", _freeze(temps))
        object.__setattr__(self, "audio", _freeze(samples))
        object.__setattr__(self, "yaw_rates", _freeze(yaw))
        if yaw.size != self.frame_count:
            raise CaptureError("IMU trace must have one entry per frame")
        # audio must cover the frame span: samples/rate >= frames/frame_rate
        if samples.size * self.frame_rate < self.frame_count * self.sample_rate:
            raise CaptureError("audio shorter than the frame span")
        _check_device_id(self.device_id, CaptureError)
        _check_timestamp(self.timestamp_unix, CaptureError)
        object.__setattr__(self, "location", _checked_location(self.location, CaptureError))
        if not _number_within(self.pixels_per_radian, 0.0, MAX_PIXELS_PER_RADIAN):
            raise CaptureError("pixels_per_radian must be a number within (0, 1e6]")
        object.__setattr__(self, "pixels_per_radian", float(self.pixels_per_radian))

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SceneCapture):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True)
class ScenarioParams:
    """Sizes and rates for the scenario generators; the defaults are desk-scale."""

    width: int = 32
    height: int = 32
    frame_count: int = 16
    frame_rate: int = 8
    sample_rate: int = 8000

    def __post_init__(self) -> None:
        if not all(map(_is_int, (self.width, self.height, self.frame_count))):
            raise CaptureError("width, height and frame_count must be integers")
        if self.width < 2 or self.height < 2:
            raise CaptureError("width and height must be at least 2")
        if not _flow_is_exact(self.height, self.width):
            raise CaptureError("frames too large: width * (255 * height)**2 must be below 2**63")
        if self.frame_count < MIN_FRAME_COUNT:
            raise CaptureError(f"a capture needs at least {MIN_FRAME_COUNT} frames")
        for name, rate in (("frame_rate", self.frame_rate), ("sample_rate", self.sample_rate)):
            if not _is_int(rate) or rate <= 0:
                raise CaptureError(f"{name} must be a positive integer")
        # window_bounds' last bound fits int64; with the check below it bounds both rates
        if self.frame_count * self.sample_rate >= 2**63:
            raise CaptureError("frame_count * sample_rate must be below 2**63")
        # every frame window [k/frame_rate, (k+1)/frame_rate) needs an audio sample
        if self.sample_rate < self.frame_rate:
            raise CaptureError("audio sample_rate must be at least frame_rate")


# ---------------------------------------------------------------------------
# Shared synthesis helpers
# ---------------------------------------------------------------------------

def _texture(seed: int, width: int, height: int) -> np.ndarray:
    """Horizontally smoothed random texture; column-correlated so per-frame
    motion energy grows with shift size."""
    raw = fill_unit(seed, width * height).reshape(height, width)
    # pad[:, 3 + j - s] == np.roll(raw, s, axis=1)[:, j], for s = 0..3
    pad = np.take(raw, np.arange(-3, width), axis=1, mode="wrap")
    sm = pad[:, 3:] + pad[:, 2:-1]
    sm += pad[:, 1:-2]
    sm += pad[:, :-3]
    sm /= 4.0
    sm *= 175.0
    sm += 40.0
    return sm.astype(np.uint8)


def _pan_shifts(phase: int, frame_count: int) -> np.ndarray:
    """Per-transition pixel shifts: 1,1,2,2,... starting at a seed phase.

    Varying (not constant) shifts give the flow and IMU series the variance
    the motion scorer needs for a defined correlation.
    """
    k = np.arange(frame_count - 1)
    return 1 + ((k + phase) // 2) % _MAX_PAN_SHIFT


def _imu_for_shifts(shifts: np.ndarray, pixels_per_radian: float) -> np.ndarray:
    """Instantaneous yaw rates whose trapezoidal average reproduces each
    per-transition pixel shift exactly: (u[k]+u[k+1])/2 * ppr == shift[k].

    u[0] = shift[0] and u[k+1] = 2*shift[k] - u[k]; with v[k] = (-1)**k * u[k]
    that is v[k+1] = v[k] + (-1)**(k+1) * 2*shift[k], a cumulative sum, exact
    in int64.
    """
    signs = 1 - 2 * (np.arange(len(shifts) + 1) & 1)
    steps = np.empty(len(shifts) + 1, dtype=np.int64)
    steps[0] = shifts[0]
    steps[1:] = 2 * signs[1:] * shifts
    u = np.cumsum(steps) * signs
    return (u / pixels_per_radian).astype(np.float32)


def _audio_from_envelope(env: np.ndarray, frame_count: int, frame_rate: int,
                         sample_rate: int) -> np.ndarray:
    """Alternating-sign carrier whose per-window RMS equals env[k] exactly.

    Rounding env to float32 first gives the same samples as rounding the
    float64 carrier: rounding commutes with the repeat and the sign flips.
    """
    samples = np.repeat(env.astype(np.float32),
                        np.diff(window_bounds(frame_count, frame_rate, sample_rate)))
    samples[1::2] *= -1.0
    return samples


def _noise(seed: int, width: int, height: int, half_range: float) -> np.ndarray:
    noise = fill_unit(seed, width * height).reshape(height, width)
    noise -= 0.5
    noise *= 2.0 * half_range
    return noise


def _body_rect(u: list[float], width: int, height: int) -> tuple[slice, slice]:
    """Near-centered rectangle covering roughly 12-30% of the grid."""
    frac_w = 0.35 + 0.20 * u[0]
    frac_h = 0.35 + 0.20 * u[1]
    cx = 0.5 + 0.12 * (u[2] - 0.5)
    cy = 0.5 + 0.12 * (u[3] - 0.5)
    bw = max(1, round(frac_w * width))
    bh = max(1, round(frac_h * height))
    x0 = min(max(0, round(cx * width - bw / 2)), width - bw)
    y0 = min(max(0, round(cy * height - bh / 2)), height - bh)
    return slice(y0, y0 + bh), slice(x0, x0 + bw)


def _tilted_plane(ua: float, ub: float, params: ScenarioParams) -> np.ndarray:
    """Gently tilted plane at the base distance (a flat screen or printout),
    its two slopes drawn from the unit draws ua and ub."""
    a = (ua - 0.5) * 0.004
    b = (ub - 0.5) * 0.004
    xs = np.arange(params.width, dtype=np.float64) - (params.width - 1) / 2.0
    ys = np.arange(params.height, dtype=np.float64) - (params.height - 1) / 2.0
    plane = _DEPTH_BASE_M + a * xs[np.newaxis, :] + b * ys[:, np.newaxis]
    return plane.astype(np.float32)


def _uniform_thermal(seed: int, level_c: float, params: ScenarioParams) -> np.ndarray:
    # +-0.02 C synthetic sensor noise: population std stays below 0.05 C.
    temps = _noise(seed, params.width, params.height, 0.02)
    temps += level_c
    return temps.astype(np.float32)


def _location(ua: float, ub: float) -> tuple[int, int]:
    lat = int(ua * (2 * LAT_MICRODEG_MAX + 1)) - LAT_MICRODEG_MAX
    lon = int(ub * (2 * LON_MICRODEG_MAX + 1)) - LON_MICRODEG_MAX
    return lat, lon


def _pan(base: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(F,H,W) stack whose frame k is np.roll(base, offsets[k], axis=1)."""
    w = base.shape[1]
    # windows[:, j] == np.roll(base, -j, axis=1), a strided view rather than a copy
    windows = sliding_window_view(np.concatenate([base, base[:, :-1]], axis=1), w, axis=1)
    return np.ascontiguousarray(windows.transpose(1, 0, 2)[-offsets % w])


def _moving_frames(tex_seed: int, phase: int, params: ScenarioParams
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panned frame stack: returns (base texture, frames, per-transition shifts)."""
    base = _texture(tex_seed, params.width, params.height)
    shifts = _pan_shifts(phase, params.frame_count)
    offsets = np.concatenate([[0], np.cumsum(shifts)])
    return base, _pan(base, offsets), shifts


def _capture(tag: str, seed: int, params: ScenarioParams, frames: np.ndarray,
             depth: np.ndarray, thermal: np.ndarray, env: np.ndarray,
             shifts: np.ndarray | None, location_units: list[float]) -> SceneCapture:
    """The capture of a generator's scene: audio from its envelope, yaw rates
    from its pan's shifts (zero when there is no pan), and its identity."""
    audio = _audio_from_envelope(env, params.frame_count, params.frame_rate, params.sample_rate)
    return SceneCapture(
        frames=frames,
        depth_maps=depth[np.newaxis],
        # the genuine map is float64: rounded here, after the audio is made, it
        # keeps the order in which a capture's arrays are allocated
        thermal=thermal.astype(np.float32, copy=False),
        audio=audio,
        sample_rate=params.sample_rate,
        yaw_rates=(np.zeros(params.frame_count, dtype=np.float32) if shifts is None
                   else _imu_for_shifts(shifts, PIXELS_PER_RADIAN)),
        frame_rate=params.frame_rate,
        device_id=f"SIM-{tag}-{seed & 0xFFFFFFFFFFFFFFFF:016X}",
        timestamp_unix=_DEFAULT_TIMESTAMP,
        location=_location(*location_units),
    )


# ---------------------------------------------------------------------------
# Scenario generators
# ---------------------------------------------------------------------------

def generate_genuine_scene(seed: int, params: ScenarioParams = ScenarioParams()) -> SceneCapture:
    """Physically coherent scene: layered depth, warm body over a thermal
    gradient, audio envelope locked to motion, IMU matching the camera pan."""
    if params.width < MIN_GENUINE_WIDTH:
        raise CaptureError(f"genuine scene needs width >= {MIN_GENUINE_WIDTH} for its pan to show")
    # draws: 0-2 substream seeds, 3-6 body rectangle, 7 pan phase, 8-9 location
    draws = fill_u64(seed, 8).tolist()
    units = fill_unit(seed, 10).tolist()
    tex_seed, depth_seed, thermal_seed = draws[:3]

    base, frames, shifts = _moving_frames(tex_seed, draws[7] & 3, params)

    rect = _body_rect(units[3:7], params.width, params.height)

    # Two depth layers exactly 1 m apart (plus +-5 cm surface noise), seen
    # unshifted at frame 0, the sealed frame.
    base_depth = _noise(depth_seed, params.width, params.height, 0.05)
    base_depth += _DEPTH_BASE_M
    base_depth[rect] -= 1.0
    depth = base_depth.astype(np.float32)

    xs = np.arange(params.width, dtype=np.float64)
    gradient = 2.0 * (xs / max(params.width - 1, 1) - 0.5)
    temps = _noise(thermal_seed, params.width, params.height, 0.1)
    temps += _AMBIENT_TEMP_C + gradient
    temps[rect] = _BODY_TEMP_C + _noise(
        thermal_seed ^ 0xA5A5A5A5, params.width, params.height, 0.2)[rect]

    # Sound follows the visuals: window k+1 carries the energy of the
    # transition into frame k+1, matching the scorer's envelope alignment.
    # Rolling both frames of a pair only permutes its pixel pairs, so a
    # transition's energy depends on its shift alone, which is 1 or 2.
    m = motion_energy(_pan(base, np.array([0, 1, 3])))[shifts - 1]
    env = np.concatenate([[m[0]], m])
    return _capture("GEN", seed, params, frames, depth, temps, env, shifts, units[8:10])


def generate_screen_replay_scene(seed: int, params: ScenarioParams = ScenarioParams()) -> SceneCapture:
    """Analog-hole attack: a panning camera films a high-definition screen.

    Depth collapses to a plane, the display is thermally uniform at screen
    temperature, and the soundtrack has nothing to do with on-screen motion.
    The camera itself really moves, so IMU and optical flow stay consistent.
    """
    # draws: 0-2 substream seeds, 3 pan phase, 4-5 plane tilt, 6-7 location
    draws = fill_u64(seed, 4).tolist()
    units = fill_unit(seed, 8).tolist()
    tex_seed, thermal_seed, audio_seed = draws[:3]

    _, frames, shifts = _moving_frames(tex_seed, draws[3] & 3, params)
    depth = _tilted_plane(*units[4:6], params)
    thermal = _uniform_thermal(thermal_seed, _SCREEN_TEMP_C, params)

    # Independent substream: envelope uncorrelated with motion energy.
    env = 0.1 + 0.4 * fill_unit(audio_seed, params.frame_count)
    return _capture("SCR", seed, params, frames, depth, thermal, env, shifts, units[6:8])


def generate_printed_photo_scene(seed: int, params: ScenarioParams = ScenarioParams()) -> SceneCapture:
    """Analog-hole attack: a static camera films a high-quality printout.

    Frames are identical (zero motion energy), depth is planar, the print
    sits at ambient temperature, the room tone keeps playing, and the IMU
    reads exactly zero.
    """
    # draws: 0-2 substream seeds, 3-4 plane tilt, 5-6 location
    draws = fill_u64(seed, 3).tolist()
    units = fill_unit(seed, 7).tolist()
    tex_seed, thermal_seed, audio_seed = draws

    stack = (params.frame_count, params.height, params.width)
    frames = np.broadcast_to(_texture(tex_seed, params.width, params.height), stack)
    depth = _tilted_plane(*units[3:5], params)
    thermal = _uniform_thermal(thermal_seed, _AMBIENT_TEMP_C, params)

    env = 0.1 + 0.4 * fill_unit(audio_seed, params.frame_count)
    return _capture("PRN", seed, params, frames, depth, thermal, env, None, units[5:7])


SCENARIOS = {
    GENUINE: generate_genuine_scene,
    SCREEN_REPLAY: generate_screen_replay_scene,
    PRINTED_PHOTO: generate_printed_photo_scene,
}


def generate_scene(scenario: str, seed: int, params: ScenarioParams = ScenarioParams()) -> SceneCapture:
    try:
        generator = SCENARIOS[scenario]
    except KeyError:
        raise CaptureError(f"unknown scenario {scenario!r}") from None
    return generator(seed, params)
