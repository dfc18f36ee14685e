"""Independent reference implementations used only as test oracles.

Each is deliberately written on a different route than the library code it
checks: the plane fit solves raw-coordinate normal equations instead of the
centered orthogonal closed form, lag search uses np.corrcoef and sorted
selection instead of streaming preference order, the manifest parse goes
through a general JSON decoder instead of the canonical grammar, and Ed25519
is a direct affine-arithmetic transcription of RFC 8032 rather than a
binding to a crypto library.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from realseal import ManifestError, ManifestScores, RealismManifest, canonical_encode

# ---------------------------------------------------------------------------
# SplitMix64, straight-line transcription
# ---------------------------------------------------------------------------

def splitmix64_reference(seed: int, count: int) -> list[int]:
    mask = 0xFFFFFFFFFFFFFFFF
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append(z)
    return out


# ---------------------------------------------------------------------------
# Plane fit via raw-coordinate normal equations
# ---------------------------------------------------------------------------

def plane_rms_normal_equations(depths: np.ndarray) -> float:
    """RMS residual of the least-squares plane z = a*x + b*y + c."""
    d = np.asarray(depths, dtype=np.float64)
    h, w = d.shape
    ys, xs = np.mgrid[0:h, 0:w]
    A = np.column_stack([xs.ravel().astype(np.float64),
                         ys.ravel().astype(np.float64),
                         np.ones(w * h)])
    z = d.ravel()
    coef = np.linalg.solve(A.T @ A, A.T @ z)
    resid = z - A @ coef
    return float(np.sqrt(np.mean(resid * resid)))


# ---------------------------------------------------------------------------
# Exhaustive lag correlation via np.corrcoef + sorted selection
# ---------------------------------------------------------------------------

def _corr_or_none(a: np.ndarray, b: np.ndarray):
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        return None
    rho = float(np.corrcoef(a, b)[0, 1])
    return min(1.0, max(-1.0, rho))  # Pearson is bounded; keep ties exact


def best_lag_reference(x, y, max_lag: int):
    """All lags in [-L, L]; pick max rho, then min |lag|, then negative."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    candidates = []
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            rho = _corr_or_none(x[:n - lag] if lag else x, y[lag:])
        else:
            rho = _corr_or_none(x[-lag:], y[:n + lag])
        if rho is not None:
            candidates.append((rho, lag))
    if not candidates:
        return 0, None
    best_rho = max(rho for rho, _ in candidates)
    tied = [lag for rho, lag in candidates if rho == best_rho]
    lag = min(tied, key=lambda l: (abs(l), l >= 0))
    return lag, best_rho


def flow_shift_reference(pixel_frames) -> list[int]:
    """Brute-force circular shift search over column-sum profiles."""
    profiles = [np.asarray(f, dtype=np.float64).sum(axis=0) for f in pixel_frames]
    w = profiles[0].size
    out = []
    for p1, p2 in zip(profiles, profiles[1:]):
        candidates = []
        for s in range(-(w // 2), w // 2 + 1):
            rho = _corr_or_none(p1, np.roll(p2, -s))
            if rho is not None:
                candidates.append((rho, s))
        if not candidates:
            out.append(0)
            continue
        best_rho = max(rho for rho, _ in candidates)
        tied = [s for rho, s in candidates if rho == best_rho]
        out.append(min(tied, key=lambda s: (abs(s), s >= 0)))
    return out


# ---------------------------------------------------------------------------
# Manifest parse via json.loads, records and re-encoding
# ---------------------------------------------------------------------------

def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate key")
    return obj


def _not_an_integer(text: str):
    raise ValueError(f"{text} is not an integer")


def parse_manifest_reference(data: bytes) -> RealismManifest | None:
    """The manifest whose canonical encoding is data, or None if there is none."""
    try:
        obj = json.loads(data, object_pairs_hook=_unique_keys,
                         parse_float=_not_an_integer, parse_constant=_not_an_integer)
        loc = obj.get("location")
        m = RealismManifest(
            device_id=obj["device_id"],
            timestamp_unix=obj["timestamp_unix"],
            scores=ManifestScores(**obj["scores"]),
            image_sha256=obj["image_sha256"],
            location=None if loc is None else (loc["lat_microdeg"], loc["lon_microdeg"]),
            version=obj["version"],
        )
    except (ValueError, KeyError, TypeError, AttributeError, ManifestError):
        return None
    return m if canonical_encode(m) == data else None


# ---------------------------------------------------------------------------
# Ed25519 per RFC 8032, affine Edwards arithmetic over Python ints
# ---------------------------------------------------------------------------

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493


def _inv(x: int) -> int:
    return pow(x, _P - 2, _P)


_D = -121665 * _inv(121666) % _P
_I = pow(2, (_P - 1) // 4, _P)

_BY = 4 * _inv(5) % _P


def _xrecover(y: int) -> int:
    xx = (y * y - 1) * _inv(_D * y * y + 1) % _P
    x = pow(xx, (_P + 3) // 8, _P)
    if (x * x - xx) % _P != 0:
        x = x * _I % _P
    if x % 2 != 0:
        x = _P - x
    return x


_B = (_xrecover(_BY), _BY)


def _edwards_add(p1, p2):
    x1, y1 = p1
    x2, y2 = p2
    t = _D * x1 * x2 * y1 * y2
    x3 = (x1 * y2 + x2 * y1) * _inv(1 + t) % _P
    y3 = (y1 * y2 + x1 * x2) * _inv(1 - t) % _P
    return x3, y3


def _scalarmult(point, e: int):
    result = (0, 1)
    addend = point
    while e:
        if e & 1:
            result = _edwards_add(result, addend)
        addend = _edwards_add(addend, addend)
        e >>= 1
    return result


def _encode_point(point) -> bytes:
    x, y = point
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _decode_point(data: bytes):
    v = int.from_bytes(data, "little")
    sign = v >> 255
    y = v & ((1 << 255) - 1)
    if y >= _P:
        return None
    xx = (y * y - 1) * _inv(_D * y * y + 1) % _P
    x = pow(xx, (_P + 3) // 8, _P)
    if (x * x - xx) % _P != 0:
        x = x * _I % _P
    if (x * x - xx) % _P != 0:
        return None
    if x == 0 and sign == 1:
        return None
    if x & 1 != sign:
        x = _P - x
    return x, y


def _sha512(data: bytes) -> bytes:
    return hashlib.sha512(data).digest()


def _expand_seed(seed: bytes):
    h = _sha512(seed)
    a = int.from_bytes(h[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, h[32:]


def ed25519_public_key(seed: bytes) -> bytes:
    a, _ = _expand_seed(seed)
    return _encode_point(_scalarmult(_B, a))


def ed25519_sign(seed: bytes, message: bytes) -> bytes:
    a, prefix = _expand_seed(seed)
    public = _encode_point(_scalarmult(_B, a))
    r = int.from_bytes(_sha512(prefix + message), "little") % _L
    r_enc = _encode_point(_scalarmult(_B, r))
    k = int.from_bytes(_sha512(r_enc + public + message), "little") % _L
    s = (r + k * a) % _L
    return r_enc + s.to_bytes(32, "little")


def ed25519_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    if len(signature) != 64 or len(public) != 32:
        return False
    r_point = _decode_point(signature[:32])
    a_point = _decode_point(public)
    if r_point is None or a_point is None:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    k = int.from_bytes(_sha512(signature[:32] + public + message), "little") % _L
    return _scalarmult(_B, s) == _edwards_add(r_point, _scalarmult(a_point, k))
