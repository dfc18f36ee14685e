"""Independent reference implementations used only as test oracles.

Each is deliberately written on a different route than the library code it
checks: the plane fit solves raw-coordinate normal equations instead of the
centered orthogonal closed form, motion energy sums int64 |a - b| instead
of uint16-block sums of a + b - 2 min(a, b), lag search uses np.corrcoef and sorted
selection instead of streaming preference order, the manifest parse and
encode go through a general JSON decoder and encoder instead of the
canonical grammar and the library's one template, the registry
load checks each line's fields on its own instead of checking the whole file
column by column, the capture file is packed value by value with struct
instead of from array buffers, the scene's yaw rates, texture and audio
carrier are built by the step-by-step recurrence, np.roll copies and a
float64 carrier instead of a cumulative sum, padded views and float32, and
Ed25519 is a direct affine-arithmetic transcription of RFC 8032 rather than a
binding to a crypto library.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import struct

import numpy as np

from realseal import (
    ManifestError,
    ManifestScores,
    RealismManifest,
    RegistryEntry,
    RegistryError,
)

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
# Scene synthesis, step by step
# ---------------------------------------------------------------------------

def imu_for_shifts_reference(shifts, pixels_per_radian: float) -> np.ndarray:
    """Yaw rates from the recurrence u[k+1] = 2*shift[k] - u[k], u[0] = shift[0]."""
    u = np.empty(len(shifts) + 1, dtype=np.float64)
    u[0] = shifts[0]
    for k, t in enumerate(shifts):
        u[k + 1] = 2.0 * t - u[k]
    return (u / pixels_per_radian).astype(np.float32)


def texture_reference(raw: np.ndarray) -> np.ndarray:
    """The scene texture of an (H, W) unit-noise grid: the mean of the grid
    rolled by 0..3 columns, scaled to 40 + 175 * mean, cast to uint8."""
    sm = raw + np.roll(raw, 1, axis=1)
    sm += np.roll(raw, 2, axis=1)
    sm += np.roll(raw, 3, axis=1)
    sm /= 4.0
    sm *= 175.0
    sm += 40.0
    return sm.astype(np.uint8)


def audio_from_envelope_reference(env, widths) -> np.ndarray:
    """A float64 carrier of env[k] repeated widths[k] times, every second
    sample negated, cast to float32 last."""
    samples = np.repeat(np.asarray(env, dtype=np.float64), widths)
    samples[1::2] *= -1.0
    return samples.astype(np.float32)


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


def motion_energy_reference(pixel_frames) -> np.ndarray:
    """Mean |a - b| / 255 per transition, from int64 pixel differences."""
    f = np.asarray(pixel_frames, dtype=np.int64)
    sums = np.abs(f[1:] - f[:-1]).sum(axis=(1, 2))
    return sums / (f.shape[1] * f.shape[2]) / 255.0


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
# capture.rsc, packed value by value
# ---------------------------------------------------------------------------

def capture_rsc_body(depth, thermal, audio, yaw_rates, frames) -> bytes:
    """The arrays of a capture.rsc: four float32le arrays, then uint8 frames."""
    floats = [float(v) for a in (depth, thermal, audio, yaw_rates) for v in np.ravel(a)]
    pixels = [int(v) for v in np.ravel(frames)]
    return struct.pack(f"<{len(floats)}f", *floats) + struct.pack(f"{len(pixels)}B", *pixels)


def pack_capture_rsc(meta: bytes, body: bytes) -> bytes:
    """RSC1, u32le len(meta), meta, zero bytes up to a multiple of 4, body."""
    head = b"RSC1" + struct.pack("<I", len(meta)) + meta
    return head + b"\0" * (-len(head) % 4) + body


def split_capture_rsc(data: bytes) -> tuple[bytes, bytes]:
    """The metadata and the body of a well-formed capture.rsc."""
    (n,) = struct.unpack("<I", data[4:8])
    return data[8:8 + n], data[8 + n + (-n % 4):]


# ---------------------------------------------------------------------------
# Manifest encode via json.dumps; parse via json.loads, records and re-encoding
# ---------------------------------------------------------------------------

def canonical_encode_reference(m) -> bytes:
    """MANIFEST.md's encoding of a manifest by a general JSON encoder: its
    ASCII keys sort by byte value, and json writes an int as %d does. m is a
    RealismManifest or any object with its attributes."""
    s = m.scores
    obj = {
        "algos": {"hash": "sha-256", "scoring": "realseal-v1", "sig": "ed25519"},
        "device_id": m.device_id,
        "image_sha256": m.image_sha256,
        "scores": {"audio_sync": s.audio_sync, "depth": s.depth, "motion": s.motion,
                   "overall": s.overall, "thermal": s.thermal},
        "timestamp_unix": m.timestamp_unix,
        "version": m.version,
    }
    if m.location is not None:
        obj["location"] = {"lat_microdeg": m.location[0], "lon_microdeg": m.location[1]}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


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
    return m if canonical_encode_reference(m) == data else None


def released_memoryview() -> memoryview:
    """A memoryview that is released: bytes() of it raises ValueError."""
    view = memoryview(b"released")
    view.release()
    return view


# ---------------------------------------------------------------------------
# Registry load, one line and one field at a time
# ---------------------------------------------------------------------------

# A file whose every line is an entry, a '#' comment or blank; the last may
# lack its LF. It knows nothing of repeated ids or small-order keys.
_REGISTRY_ENTRY = r"[A-Za-z0-9_-]{1,64} (?:trusted|revoked) [0-9a-f]{64}"
REGISTRY_GRAMMAR = re.compile(
    rf"(?:{_REGISTRY_ENTRY}\n|#[^\n]*\n|\n)*(?:{_REGISTRY_ENTRY}|#[^\n]*)?")


def load_registry_reference(data: bytes) -> tuple[RegistryEntry, ...]:
    """The entries of a registry file, or RegistryError with the library's text."""
    small_order = ed25519_small_order_encodings()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise RegistryError("registry file is not valid UTF-8") from None
    entries = []
    seen = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "" or line[0] == "#":
            continue
        fields = line.split(" ")
        if len(fields) != 3:
            error = "expected 'device_id status pubkey_hex'"
        elif not re.fullmatch(r"[A-Za-z0-9_\-]{1,64}", fields[0]):
            error = f"bad device id {fields[0]!r}"
        elif fields[1] not in ("trusted", "revoked"):
            error = f"bad status {fields[1]!r}"
        elif not re.fullmatch(r"[0-9a-f]{64}", fields[2]):
            error = "public key must be 64 lowercase hex chars"
        elif bytes.fromhex(fields[2]) in small_order:
            error = "public key is a small-order point"
        elif fields[0] in seen:
            error = f"duplicate device id {fields[0]!r}"
        else:
            seen.add(fields[0])
            entries.append(RegistryEntry(*fields))
            continue
        raise RegistryError(f"line {lineno}: {error}")
    return tuple(entries)


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


def ed25519_edge_signatures(seed: bytes, message: bytes) -> dict[str, bytes]:
    """Signatures of message under seed's key at edges where Ed25519 verifiers
    disagree (Chalkias, Garillot and Nikolaenko, "Taming the many EdDSAs",
    SSR 2020), by name:

    - identity-r: R the identity and S = k·a, so [S]B = R + [k]A holds
    - non-canonical-r: the same with R encoded as y = p + 1, which a decoder
      that reads y mod p takes for the identity
    - s-plus-l: a valid signature with L added to S
    - s-max: a valid signature's R with S = 2**256 - 1
    """
    a, _ = _expand_seed(seed)
    public = _encode_point(_scalarmult(_B, a))

    def under(r_enc: bytes) -> bytes:
        k = int.from_bytes(_sha512(r_enc + public + message), "little") % _L
        return r_enc + (k * a % _L).to_bytes(32, "little")

    good = ed25519_sign(seed, message)
    s = int.from_bytes(good[32:], "little")
    return {
        "identity-r": under(_encode_point((0, 1))),
        "non-canonical-r": under((_P + 1).to_bytes(32, "little")),
        "s-plus-l": good[:32] + (s + _L).to_bytes(32, "little"),
        "s-max": good[:32] + b"\xff" * 32,
    }


def _decode_point_mod_p(data: bytes):
    """The point a lenient decoder reads: y taken mod p, and the sign bit
    ignored where x = 0. None where y is on no point."""
    v = int.from_bytes(data, "little")
    y = (v & ((1 << 255) - 1)) % _P
    x = _xrecover(y)
    if (y * y - x * x - 1 - _D * x * x * y * y) % _P != 0:
        return None
    return (_P - x) % _P if v >> 255 else x, y


@functools.cache
def ed25519_small_order_encodings() -> frozenset[bytes]:
    """Every 32-byte encoding of a point P with [8]P the identity.

    [L]Q of a point Q lies in the torsion subgroup of order 8; the first such
    point of order 8 generates it. Each of its eight multiples is encoded by
    its y and, where below 2**255, y + p, with either sign bit; each candidate
    is decoded again and checked.
    """
    y = 2
    while True:
        q = _decode_point_mod_p(y.to_bytes(32, "little"))
        if q is not None:
            gen = _scalarmult(q, _L)
            if _scalarmult(gen, 4) != (0, 1):
                break
        y += 1
    encodings = set()
    for k in range(8):
        _, y = _scalarmult(gen, k)
        for v in (y, y + _P):
            for sign in (0, 1 << 255):
                if v < 1 << 255:
                    encodings.add((v | sign).to_bytes(32, "little"))
    for enc in encodings:
        point = _decode_point_mod_p(enc)
        assert point is not None and _scalarmult(point, 8) == (0, 1), enc.hex()
    return frozenset(encodings)
