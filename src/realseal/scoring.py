"""Per-dimension credibility scores and the vetoed aggregate.

Each scorer targets one staging cue:

* depth      - least-squares plane fit; flat displays leave ~zero residual
* thermal    - spatial temperature spread; screens and prints are uniform
* audio sync - lag-searched correlation between sound envelope and motion
* motion     - agreement between optical-flow shifts and gyro yaw rates

Scores live in [0, 1] with 1 = most credible. Aggregation multiplies the
mean by a veto term so one collapsed dimension cannot be averaged away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

if TYPE_CHECKING:  # scene imports this module, so no runtime import back
    from .scene import SceneCapture

_ZERO_MOTION_EPS = 1e-9

# The realseal-v1 scoring constants. Every sealed manifest names
# "realseal-v1", so these are fixed by that version, not settable.
_TAU_DEPTH_M = 0.05
_TAU_THERMAL_C = 1.5
_MAX_LAG_FRAMES = 2
_VETO_THRESHOLD = 0.2


@dataclass(frozen=True)
class DimensionScores:
    depth: float
    thermal: float
    audio_sync: float
    motion: float

    def __post_init__(self) -> None:
        for name, v in self.as_dict().items():
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} score outside [0, 1]")

    def as_dict(self) -> dict[str, float]:
        return {
            "depth": self.depth,
            "thermal": self.thermal,
            "audio_sync": self.audio_sync,
            "motion": self.motion,
        }


@dataclass(frozen=True)
class PlaneFit:
    """depth ~ a*(x - x_mean) + b*(y - y_mean) + c over grid coordinates."""

    a: float
    b: float
    c: float
    rms_residual: float


# ---------------------------------------------------------------------------
# Depth
# ---------------------------------------------------------------------------

def fit_plane(depths: np.ndarray) -> PlaneFit:
    """Least-squares plane through a 2-D depth grid.

    Centering x and y at the grid mean makes the design orthogonal on a full
    rectangle, so the normal equations decouple into three closed forms.
    """
    d = np.asarray(depths, dtype=np.float64)
    h, w = d.shape
    if w * h < 3:
        raise ValueError("plane fit needs at least 3 pixels")
    xc = np.arange(w, dtype=np.float64) - (w - 1) / 2.0
    yc = np.arange(h, dtype=np.float64) - (h - 1) / 2.0
    sxx = h * float(np.sum(xc * xc))
    syy = w * float(np.sum(yc * yc))
    a = float(d.sum(axis=0) @ xc) / sxx if sxx > 0 else 0.0
    b = float(d.sum(axis=1) @ yc) / syy if syy > 0 else 0.0
    c = float(d.mean())
    resid = d - (a * xc[np.newaxis, :] + b * yc[:, np.newaxis] + c)
    rms = math.sqrt(float(np.mean(resid * resid)))
    return PlaneFit(a=a, b=b, c=c, rms_residual=rms)


def score_depth(depths: np.ndarray) -> float:
    """1 - exp(-rms/tau): zero iff exactly planar, saturating toward 1."""
    return 1.0 - math.exp(-fit_plane(depths).rms_residual / _TAU_DEPTH_M)


# ---------------------------------------------------------------------------
# Thermal
# ---------------------------------------------------------------------------

def score_thermal(temps: np.ndarray) -> float:
    """1 - exp(-sigma/tau) over the population std of a 2-D temperature map."""
    sigma = float(np.std(np.asarray(temps, dtype=np.float64)))
    return 1.0 - math.exp(-sigma / _TAU_THERMAL_C)


# ---------------------------------------------------------------------------
# Audio / motion series
# ---------------------------------------------------------------------------

def window_bounds(frame_count: int, frame_rate: int, sample_rate: int) -> np.ndarray:
    """Sample index of each frame-window boundary: ceil(k*sr/fr), k=0..n."""
    k = np.arange(frame_count + 1, dtype=np.int64)
    return -(-(k * sample_rate) // frame_rate)


def audio_envelope(samples: np.ndarray, sample_rate: int, frame_rate: int,
                   frame_count: int) -> np.ndarray:
    """Per-frame RMS of the samples in [k/frame_rate, (k+1)/frame_rate)."""
    if sample_rate <= 0 or frame_rate <= 0 or frame_count <= 0:
        raise ValueError("sample_rate, frame_rate and frame_count must be positive")
    samples = np.asarray(samples)
    bounds = window_bounds(frame_count, frame_rate, sample_rate)
    if bounds[-1] > samples.size:
        raise ValueError("insufficient audio samples for the frame span")
    widths = np.diff(bounds)
    if np.any(widths == 0):
        raise ValueError("frame window shorter than one audio sample")
    x = samples[:bounds[-1]].astype(np.float64)
    return np.sqrt(np.add.reduceat(x * x, bounds[:-1]) / widths)


def _frame_stack(frames) -> np.ndarray:
    frames = np.asarray(frames)
    if frames.ndim != 3 or len(frames) < 2:
        raise ValueError("expected an (F,H,W) frame stack with at least 2 frames")
    return frames


def motion_energy(frames) -> np.ndarray:
    """Mean |pixel delta| / 255 for each consecutive pair of an (F,H,W) stack."""
    frames = _frame_stack(frames)
    a, b = frames[:-1], frames[1:]
    delta = np.maximum(a, b)
    delta -= np.minimum(a, b)  # |b - a| without leaving uint8
    sums = delta.sum(axis=(1, 2), dtype=np.int64)  # exact, unlike a float sum
    return sums / (frames.shape[1] * frames.shape[2]) / 255.0


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    """Pearson correlation, or None when either side has zero variance.

    Clamped to [-1, 1] (exact by Cauchy-Schwarz) so float noise cannot break
    tie resolution between lags that are mathematically tied at +-1.
    """
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        return None
    rho = float(xc @ yc) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, rho))


def _lag_preference(max_lag: int):
    # 0, -1, +1, -2, +2, ...: smallest |lag| first, negative before positive.
    yield 0
    for mag in range(1, max_lag + 1):
        yield -mag
        yield mag


def best_lag_correlation(x, y, max_lag: int) -> tuple[int, float | None]:
    """Lag in [-L, L] maximizing Pearson correlation of the overlap.

    Lag ell pairs x[i] with y[i+ell], so a positive lag means y trails x.
    Ties resolve to the smallest |lag|, negative first. Returns (0, None)
    when every overlap is degenerate (zero variance on either side).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if y.size != n:
        raise ValueError("series length mismatch")
    if n < 3:
        raise ValueError("series must have at least 3 points")
    if not 0 <= max_lag < n:
        raise ValueError("max_lag must satisfy 0 <= L < n")
    best_lag, best_rho = 0, None
    for lag in _lag_preference(max_lag):
        if lag >= 0:
            rho = _pearson(x[:n - lag], y[lag:])
        else:
            rho = _pearson(x[-lag:], y[:n + lag])
        if rho is not None and (best_rho is None or rho > best_rho):
            best_lag, best_rho = lag, rho
    return best_lag, best_rho


def score_av_alignment(envelope_tail, motion) -> float:
    """Alignment score for a (sound, motion) series pair.

    max(0, rho*) discounted by how far the best lag sits from zero; 0.5 when
    the correlation is undefined (both signals flat is not evidence either way).
    """
    lag, rho = best_lag_correlation(envelope_tail, motion, _MAX_LAG_FRAMES)
    if rho is None:
        return 0.5
    score = max(0.0, rho) * (1.0 - abs(lag) / (_MAX_LAG_FRAMES + 1))
    return min(1.0, max(0.0, score))


def score_audio_sync(capture: SceneCapture) -> float:
    env = audio_envelope(capture.audio, capture.sample_rate, capture.frame_rate,
                         capture.frame_count)
    m = motion_energy(capture.frames)
    # env[k+1] lines up with the transition into frame k+1
    return score_av_alignment(env[1:], m)


# ---------------------------------------------------------------------------
# Optical flow vs IMU
# ---------------------------------------------------------------------------

def flow_shift(frames) -> np.ndarray:
    """Signed integer horizontal shift (pixels) per transition of an (F,H,W) stack.

    Each frame collapses to its column-sum profile; the shift maximizing the
    circular normalized cross-correlation wins, searched over [-w//2, w//2]
    with ties resolved to the smallest |s|, negative first. Positive means
    content moved toward higher column indices.

    A circular shift changes neither the mean nor the variance of a profile,
    so rho ranks shifts exactly as the integer dot product p1 . roll(p2, -s)
    does. All transitions are ranked by one int64 product against the
    circulant of each next profile; being exact, it keeps exact ties exact
    (no overflow while w * (255 * h)**2 < 2**63), and a constant profile
    ties every shift and yields 0. The column sums are taken in uint32, then
    widened: 255 * h < 2**32 already follows from that bound for any w >= 2.
    """
    profiles = _frame_stack(frames).sum(axis=1, dtype=np.uint32).astype(np.int64)
    w = profiles.shape[1]
    shifts = np.fromiter(_lag_preference(w // 2), dtype=np.int64)
    nxt = profiles[1:]
    # windows[t, k] == roll(nxt[t], -k), a strided view rather than a copy
    windows = sliding_window_view(np.concatenate([nxt, nxt[:, :-1]], axis=1), w, axis=1)
    dots = np.einsum("tkw,tw->tk", windows, profiles[:-1])
    # columns in preference order, so the first maximum applies the tie rule
    return shifts[np.argmax(dots[:, shifts % w], axis=1)]


def score_motion(capture: SceneCapture) -> float:
    """Correlation between flow shifts and trapezoid-averaged gyro motion.

    Zero-variance handling: if either series is constant, the capture is
    consistent only when both read zero everywhere (static camera), scoring
    1.0; any one-sided claim of motion scores 0.0.
    """
    f = flow_shift(capture.frames).astype(np.float64)
    u = capture.yaw_rates.astype(np.float64)
    g = (u[:-1] + u[1:]) / 2.0 * capture.pixels_per_radian
    rho = _pearson(f, g)
    if rho is None:
        both_zero = (np.max(np.abs(f), initial=0.0) <= _ZERO_MOTION_EPS
                     and np.max(np.abs(g), initial=0.0) <= _ZERO_MOTION_EPS)
        return 1.0 if both_zero else 0.0
    return min(1.0, max(0.0, rho))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def aggregate(scores: DimensionScores) -> float:
    """Mean times the veto term min(1, min_score/theta)."""
    s = (scores.depth, scores.thermal, scores.audio_sync, scores.motion)
    mean = sum(0.25 * v for v in s)
    veto = min(1.0, min(s) / _VETO_THRESHOLD)
    return mean * veto


def score_capture(capture: SceneCapture) -> tuple[DimensionScores, float]:
    """Run all four scorers (depth on frame 0) and aggregate."""
    dims = DimensionScores(
        depth=score_depth(capture.depth_maps[0]),
        thermal=score_thermal(capture.thermal),
        audio_sync=score_audio_sync(capture),
        motion=score_motion(capture),
    )
    return dims, aggregate(dims)
