"""Synthetic multisensory scene captures.

Three deterministic generators produce the scenarios the scoring pipeline
must separate:

* genuine        - textured scene with real depth structure, a warm body,
                   sound locked to motion, and IMU consistent with the pan
* screen-replay  - camera films a flat display: planar depth, uniform 37 C
                   thermal signature, audio decorrelated from motion
* printed-photo  - camera films a static printout: planar depth, ambient
                   thermal, zero motion with live audio

All sensor data is synthesized from a single SplitMix64 seed, so every
generator is byte-reproducible: same seed, same capture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CaptureError
from .manifest import DEVICE_ID_RE, LAT_MICRODEG_MAX, LON_MICRODEG_MAX, _is_int
from .rng import Stream, fill_unit
from .scoring import motion_energy, window_bounds

# Declared conversion between yaw angle and horizontal pixel shift. A power
# of two keeps synthesized IMU values exact in float32.
PIXELS_PER_RADIAN = 64.0
# 1e6 px/rad is a 1 microradian pixel (a 2 m lens with 2 um pixels). The
# bound keeps the gyro series, yaw rate * pixels_per_radian, far from
# float64 overflow even at float32-extreme yaw rates.
MAX_PIXELS_PER_RADIAN = 1e6

_DEFAULT_TIMESTAMP = 1_700_000_000


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

    * ``frames``     - (F,H,W) uint8 luminance stack
    * ``depth_maps`` - (F,H,W) float32 scene distances in meters
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
        if frames.ndim != 3 or frames.shape[0] == 0 or min(frames.shape[1:]) < 2:
            raise CaptureError("frames must be a non-empty (F,H,W) stack with width, height >= 2")
        if depths.dtype != np.float32:
            raise CaptureError("depths must be float32")
        if depths.shape != frames.shape:
            raise CaptureError("one depth map per frame, with the frame dimensions, required")
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
        if not _is_int(self.sample_rate) or self.sample_rate <= 0:
            raise CaptureError("sample_rate must be a positive integer")
        if samples.dtype != np.float32 or samples.ndim != 1:
            raise CaptureError("samples must be a 1-D float32 array")
        if not np.abs(samples).max(initial=0.0) <= 1.0:
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
        if not _is_int(self.frame_rate) or self.frame_rate <= 0:
            raise CaptureError("frame_rate must be a positive integer")
        if yaw.size != self.frame_count:
            raise CaptureError("IMU trace must have one entry per frame")
        # every frame window [k/frame_rate, (k+1)/frame_rate) needs an audio sample
        if self.sample_rate < self.frame_rate:
            raise CaptureError("audio sample_rate must be at least frame_rate")
        # audio must cover the frame span: samples/rate >= frames/frame_rate
        if samples.size * self.frame_rate < self.frame_count * self.sample_rate:
            raise CaptureError("audio shorter than the frame span")
        if not DEVICE_ID_RE.match(self.device_id):
            raise CaptureError("device_id must be 1-64 chars of [A-Za-z0-9_-]")
        if not _is_int(self.timestamp_unix) or self.timestamp_unix < 0:
            raise CaptureError("timestamp_unix must be a non-negative integer")
        if self.location is not None:
            lat, lon = self.location
            if not (_is_int(lat) and _is_int(lon)):
                raise CaptureError("location must be integer microdegrees")
            if abs(lat) > LAT_MICRODEG_MAX or abs(lon) > LON_MICRODEG_MAX:
                raise CaptureError("location out of range")
            object.__setattr__(self, "location", (lat, lon))
        # a NaN fails both comparisons
        if not 0.0 < self.pixels_per_radian <= MAX_PIXELS_PER_RADIAN:
            raise CaptureError("pixels_per_radian must lie within (0, 1e6]")
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
        return (
            np.array_equal(self.frames, other.frames)
            and np.array_equal(self.depth_maps, other.depth_maps)
            and np.array_equal(self.thermal, other.thermal)
            and np.array_equal(self.audio, other.audio)
            and self.sample_rate == other.sample_rate
            and np.array_equal(self.yaw_rates, other.yaw_rates)
            and self.frame_rate == other.frame_rate
            and self.device_id == other.device_id
            and self.timestamp_unix == other.timestamp_unix
            and self.location == other.location
            and self.pixels_per_radian == other.pixels_per_radian
        )


@dataclass(frozen=True)
class ScenarioParams:
    """Knobs for the scenario generators; defaults keep everything desk-scale."""

    width: int = 32
    height: int = 32
    frame_count: int = 16
    frame_rate: int = 8
    sample_rate: int = 8000
    ambient_temp_c: float = 20.0
    body_temp_c: float = 37.0
    screen_temp_c: float = 37.0
    depth_base_m: float = 2.0

    def __post_init__(self) -> None:
        ints = (self.width, self.height, self.frame_count, self.frame_rate, self.sample_rate)
        if not all(_is_int(v) and v > 0 for v in ints):
            raise CaptureError("dimensions and rates must be positive integers")
        if self.width < 2 or self.height < 2:
            raise CaptureError("width and height must be at least 2")
        if self.frame_count < 4:
            raise CaptureError("frame_count must be at least 4")
        floats = (self.ambient_temp_c, self.body_temp_c, self.screen_temp_c, self.depth_base_m)
        if not all(np.isfinite(v) and v > 0 for v in floats):
            raise CaptureError("temperatures and base depth must be positive and finite")


# ---------------------------------------------------------------------------
# Shared synthesis helpers
# ---------------------------------------------------------------------------

def _texture(seed: int, width: int, height: int) -> np.ndarray:
    """Horizontally smoothed random texture; column-correlated so per-frame
    motion energy grows with shift size."""
    raw = fill_unit(seed, width * height).reshape(height, width)
    sm = (raw + np.roll(raw, 1, axis=1) + np.roll(raw, 2, axis=1) + np.roll(raw, 3, axis=1)) / 4.0
    return (40.0 + 175.0 * sm).astype(np.uint8)


def _pan_shifts(phase: int, frame_count: int) -> np.ndarray:
    """Per-transition pixel shifts: 1,1,2,2,... starting at a seed phase.

    Varying (not constant) shifts give the flow and IMU series the variance
    the motion scorer needs for a defined correlation.
    """
    k = np.arange(frame_count - 1)
    return 1 + ((k + phase) // 2) % 2


def _imu_for_shifts(shifts: np.ndarray, pixels_per_radian: float) -> np.ndarray:
    """Instantaneous yaw rates whose trapezoidal average reproduces each
    per-transition pixel shift exactly: (u[k]+u[k+1])/2 * ppr == shift[k]."""
    u = np.empty(len(shifts) + 1, dtype=np.float64)
    u[0] = shifts[0]
    for k, t in enumerate(shifts):
        u[k + 1] = 2.0 * t - u[k]
    return (u / pixels_per_radian).astype(np.float32)


def _audio_from_envelope(env: np.ndarray, frame_count: int, frame_rate: int,
                         sample_rate: int) -> np.ndarray:
    """Alternating-sign carrier whose per-window RMS equals env[k] exactly."""
    samples = np.repeat(env, np.diff(window_bounds(frame_count, frame_rate, sample_rate)))
    samples[1::2] *= -1.0
    return samples.astype(np.float32)


def _noise(seed: int, width: int, height: int, half_range: float) -> np.ndarray:
    return (fill_unit(seed, width * height).reshape(height, width) - 0.5) * (2.0 * half_range)


def _body_rect(u: tuple[float, float, float, float], width: int, height: int) -> tuple[slice, slice]:
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


def _tilted_plane(stream: Stream, params: ScenarioParams) -> np.ndarray:
    """Gently tilted plane at the base distance (a flat screen or printout)."""
    a = (stream.next_unit() - 0.5) * 0.004
    b = (stream.next_unit() - 0.5) * 0.004
    xs = np.arange(params.width, dtype=np.float64) - (params.width - 1) / 2.0
    ys = np.arange(params.height, dtype=np.float64) - (params.height - 1) / 2.0
    plane = params.depth_base_m + a * xs[np.newaxis, :] + b * ys[:, np.newaxis]
    return plane.astype(np.float32)


def _uniform_thermal(seed: int, level_c: float, params: ScenarioParams) -> np.ndarray:
    # +-0.02 C synthetic sensor noise: population std stays below 0.05 C.
    temps = level_c + _noise(seed, params.width, params.height, 0.02)
    return temps.astype(np.float32)


def _location(stream: Stream) -> tuple[int, int]:
    lat = int(stream.next_unit() * (2 * LAT_MICRODEG_MAX + 1)) - LAT_MICRODEG_MAX
    lon = int(stream.next_unit() * (2 * LON_MICRODEG_MAX + 1)) - LON_MICRODEG_MAX
    return lat, lon


def _pan(base: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(F,H,W) stack whose frame k is np.roll(base, offsets[k], axis=1)."""
    w = base.shape[1]
    # windows[:, j] == np.roll(base, -j, axis=1), a strided view rather than a copy
    windows = sliding_window_view(np.concatenate([base, base[:, :-1]], axis=1), w, axis=1)
    return np.ascontiguousarray(windows.transpose(1, 0, 2)[-offsets % w])


def _moving_frames(tex_seed: int, phase: int, params: ScenarioParams
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panned frame stack: returns (frames, offsets, per-transition shifts)."""
    base = _texture(tex_seed, params.width, params.height)
    shifts = _pan_shifts(phase, params.frame_count)
    offsets = np.concatenate([[0], np.cumsum(shifts)])
    return _pan(base, offsets), offsets, shifts


# ---------------------------------------------------------------------------
# Scenario generators
# ---------------------------------------------------------------------------

def generate_genuine_scene(seed: int, params: ScenarioParams = ScenarioParams()) -> SceneCapture:
    """Physically coherent scene: layered depth, warm body over a thermal
    gradient, audio envelope locked to motion, IMU matching the camera pan."""
    if params.depth_base_m <= 1.05:
        raise CaptureError("genuine scene needs depth_base_m > 1.05 for a distinct near layer")
    s = Stream(seed)
    tex_seed = s.derive_seed()
    depth_seed = s.derive_seed()
    thermal_seed = s.derive_seed()
    rect_u = (s.next_unit(), s.next_unit(), s.next_unit(), s.next_unit())
    phase = s.next_u64() & 3

    frames, offsets, shifts = _moving_frames(tex_seed, phase, params)

    rect = _body_rect(rect_u, params.width, params.height)

    # Two depth layers exactly 1 m apart (plus +-5 cm surface noise), panned
    # with the camera so frame 0 carries the unshifted structure.
    base_depth = params.depth_base_m + _noise(depth_seed, params.width, params.height, 0.05)
    base_depth[rect] -= 1.0
    depth_maps = _pan(base_depth.astype(np.float32), offsets)

    xs = np.arange(params.width, dtype=np.float64)
    gradient = 2.0 * (xs / max(params.width - 1, 1) - 0.5)
    temps = params.ambient_temp_c + gradient[np.newaxis, :] + _noise(
        thermal_seed, params.width, params.height, 0.1)
    temps[rect] = params.body_temp_c + _noise(
        thermal_seed ^ 0xA5A5A5A5, params.width, params.height, 0.2)[rect]

    # Sound follows the visuals: window k+1 carries the energy of the
    # transition into frame k+1, matching the scorer's envelope alignment.
    m = motion_energy(frames)
    env = np.concatenate([[m[0]], m])
    audio = _audio_from_envelope(env, params.frame_count, params.frame_rate, params.sample_rate)

    return SceneCapture(
        frames=frames,
        depth_maps=depth_maps,
        thermal=temps.astype(np.float32),
        audio=audio,
        sample_rate=params.sample_rate,
        yaw_rates=_imu_for_shifts(shifts, PIXELS_PER_RADIAN),
        frame_rate=params.frame_rate,
        device_id=f"SIM-GEN-{seed & 0xFFFFFFFFFFFFFFFF:016X}",
        timestamp_unix=_DEFAULT_TIMESTAMP,
        location=_location(s),
    )


def generate_screen_replay_scene(seed: int, params: ScenarioParams = ScenarioParams()) -> SceneCapture:
    """Analog-hole attack: a panning camera films a high-definition screen.

    Depth collapses to a plane, the display is thermally uniform at screen
    temperature, and the soundtrack has nothing to do with on-screen motion.
    The camera itself really moves, so IMU and optical flow stay consistent.
    """
    s = Stream(seed)
    tex_seed = s.derive_seed()
    thermal_seed = s.derive_seed()
    audio_seed = s.derive_seed()
    phase = s.next_u64() & 3

    frames, _offsets, shifts = _moving_frames(tex_seed, phase, params)
    stack = (params.frame_count, params.height, params.width)

    # One shared plane for every frame: a read-only broadcast view.
    depth_maps = np.broadcast_to(_tilted_plane(s, params), stack)

    thermal = _uniform_thermal(thermal_seed, params.screen_temp_c, params)

    # Independent substream: envelope uncorrelated with motion energy.
    env = 0.1 + 0.4 * fill_unit(audio_seed, params.frame_count)
    audio = _audio_from_envelope(env, params.frame_count, params.frame_rate, params.sample_rate)

    return SceneCapture(
        frames=frames,
        depth_maps=depth_maps,
        thermal=thermal,
        audio=audio,
        sample_rate=params.sample_rate,
        yaw_rates=_imu_for_shifts(shifts, PIXELS_PER_RADIAN),
        frame_rate=params.frame_rate,
        device_id=f"SIM-SCR-{seed & 0xFFFFFFFFFFFFFFFF:016X}",
        timestamp_unix=_DEFAULT_TIMESTAMP,
        location=_location(s),
    )


def generate_printed_photo_scene(seed: int, params: ScenarioParams = ScenarioParams()) -> SceneCapture:
    """Analog-hole attack: a static camera films a high-quality printout.

    Frames are identical (zero motion energy), depth is planar, the print
    sits at ambient temperature, the room tone keeps playing, and the IMU
    reads exactly zero.
    """
    s = Stream(seed)
    tex_seed = s.derive_seed()
    thermal_seed = s.derive_seed()
    audio_seed = s.derive_seed()

    stack = (params.frame_count, params.height, params.width)
    frames = np.broadcast_to(_texture(tex_seed, params.width, params.height), stack)
    depth_maps = np.broadcast_to(_tilted_plane(s, params), stack)

    thermal = _uniform_thermal(thermal_seed, params.ambient_temp_c, params)

    env = 0.1 + 0.4 * fill_unit(audio_seed, params.frame_count)
    audio = _audio_from_envelope(env, params.frame_count, params.frame_rate, params.sample_rate)

    return SceneCapture(
        frames=frames,
        depth_maps=depth_maps,
        thermal=thermal,
        audio=audio,
        sample_rate=params.sample_rate,
        yaw_rates=np.zeros(params.frame_count, dtype=np.float32),
        frame_rate=params.frame_rate,
        device_id=f"SIM-PRN-{seed & 0xFFFFFFFFFFFFFFFF:016X}",
        timestamp_unix=_DEFAULT_TIMESTAMP,
        location=_location(s),
    )


SCENARIOS = {
    "genuine": generate_genuine_scene,
    "screen-replay": generate_screen_replay_scene,
    "printed-photo": generate_printed_photo_scene,
}


def generate_scene(scenario: str, seed: int, params: ScenarioParams = ScenarioParams()) -> SceneCapture:
    try:
        generator = SCENARIOS[scenario]
    except KeyError:
        raise CaptureError(f"unknown scenario {scenario!r}") from None
    return generator(seed, params)
