"""Realism manifest record and its canonical byte encoding.

The canonical form is the exact byte string that gets hashed and signed, so
it must be reproducible everywhere: UTF-8 JSON with keys sorted ascending by
byte value, no whitespace, integers only (scores in milli-units, coordinates
in micro-degrees), and string escapes limited to \\" and \\\\. The parser is
strict: it accepts canonical bytes only, which it enforces by re-encoding
what it parsed and demanding byte equality. Full grammar: MANIFEST.md.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .errors import ManifestError, RealSealError

MANIFEST_VERSION = 1

ALGO_HASH = "sha-256"
ALGO_SIG = "ed25519"
ALGO_SCORING = "realseal-v1"
_ALGOS = {"hash": ALGO_HASH, "scoring": ALGO_SCORING, "sig": ALGO_SIG}

# \Z, not $: $ also matches before a trailing "\n".
DEVICE_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}\Z")
_SHA256_HEX_RE = re.compile(r"^[0-9a-f]{64}\Z")

LAT_MICRODEG_MAX = 90_000_000
LON_MICRODEG_MAX = 180_000_000
_TIMESTAMP_MAX = 2**63 - 1

# Length of the longest canonical manifest: a 64-char device id, timestamp
# 2**63 - 1, location (-90000000, -180000000) and every score at 1000. Longer
# input cannot be canonical, so the parser refuses it before json.loads,
# whose recursion a deeply nested body would otherwise exhaust.
MAX_MANIFEST_LEN = 428

_SCORE_KEYS = ("audio_sync", "depth", "motion", "overall", "thermal")


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# The only input types the parsers take. bytes() of any other value is no
# parse: it takes an int as a length and raises TypeError for a str or None.
BYTES_LIKE = (bytes, bytearray, memoryview)


def _require_bytes(data: object, error: type[RealSealError], what: str) -> bytes:
    """bytes(data), or error naming the type of a data that is not bytes-like."""
    if not isinstance(data, BYTES_LIKE):
        raise error(f"{what} must be bytes, bytearray or memoryview, not {type(data).__name__}")
    return bytes(data)


@dataclass(frozen=True)
class ManifestScores:
    """The five quantized scores, integer milli-units in [0, 1000]."""

    depth: int
    thermal: int
    audio_sync: int
    motion: int
    overall: int

    def __post_init__(self) -> None:
        for name in ("depth", "thermal", "audio_sync", "motion", "overall"):
            v = getattr(self, name)
            if not _is_int(v):
                raise ManifestError(f"score {name} must be an integer")
            if not 0 <= v <= 1000:
                raise ManifestError(f"score {name} out of range [0, 1000]")


@dataclass(frozen=True)
class RealismManifest:
    device_id: str
    timestamp_unix: int
    scores: ManifestScores
    image_sha256: str
    location: tuple[int, int] | None = None
    version: int = MANIFEST_VERSION

    def __post_init__(self) -> None:
        if self.version != MANIFEST_VERSION:
            raise ManifestError(f"unsupported manifest version {self.version!r}")
        if not isinstance(self.device_id, str) or not DEVICE_ID_RE.match(self.device_id):
            raise ManifestError("device_id must be 1-64 chars of [A-Za-z0-9_-]")
        if not _is_int(self.timestamp_unix) or not 0 <= self.timestamp_unix <= _TIMESTAMP_MAX:
            raise ManifestError("timestamp_unix out of range")
        if not isinstance(self.image_sha256, str) or not _SHA256_HEX_RE.match(self.image_sha256):
            raise ManifestError("image_sha256 must be 64 lowercase hex chars")
        if self.location is not None:
            if len(self.location) != 2 or not all(_is_int(v) for v in self.location):
                raise ManifestError("location must be two integers")
            lat, lon = self.location
            if abs(lat) > LAT_MICRODEG_MAX or abs(lon) > LON_MICRODEG_MAX:
                raise ManifestError("location out of range")
            object.__setattr__(self, "location", (lat, lon))


def quantize_score(score: float) -> int:
    """Clamp to [0, 1] and round half-up to integer milli-units."""
    if not math.isfinite(score):
        raise ManifestError("cannot quantize a non-finite score")
    clamped = min(1.0, max(0.0, score))
    return int(math.floor(1000.0 * clamped + 0.5))


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

def _encode_string(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def canonical_encode(m: RealismManifest) -> bytes:
    """Unique byte serialization of a valid manifest (the signing payload)."""
    if not isinstance(m, RealismManifest):
        raise ManifestError("expected a RealismManifest")
    parts = [
        '"algos":{"hash":%s,"scoring":%s,"sig":%s}' % (
            _encode_string(ALGO_HASH), _encode_string(ALGO_SCORING), _encode_string(ALGO_SIG)),
        '"device_id":%s' % _encode_string(m.device_id),
        '"image_sha256":%s' % _encode_string(m.image_sha256),
    ]
    if m.location is not None:
        parts.append('"location":{"lat_microdeg":%d,"lon_microdeg":%d}' % m.location)
    parts.append(
        '"scores":{"audio_sync":%d,"depth":%d,"motion":%d,"overall":%d,"thermal":%d}' % (
            m.scores.audio_sync, m.scores.depth, m.scores.motion,
            m.scores.overall, m.scores.thermal))
    parts.append('"timestamp_unix":%d' % m.timestamp_unix)
    parts.append('"version":%d' % m.version)
    return ("{" + ",".join(parts) + "}").encode("utf-8")


# ---------------------------------------------------------------------------
# Strict parsing
# ---------------------------------------------------------------------------

def _reject_float(_: str):
    raise ManifestError("non-integer numbers are not canonical")


def _reject_constant(_: str):
    raise ManifestError("NaN/Infinity are not canonical")


def _pairs_to_dict(pairs):
    d = dict(pairs)
    if len(d) != len(pairs):
        raise ManifestError("duplicate object keys")
    return d


def _require_int(obj: dict, key: str) -> int:
    v = obj[key]
    if not _is_int(v):
        raise ManifestError(f"{key} must be an integer")
    return v


def parse_manifest(data: bytes) -> RealismManifest:
    """Parse canonical manifest bytes; rejects anything non-canonical."""
    data = _require_bytes(data, ManifestError, "manifest")
    if len(data) > MAX_MANIFEST_LEN:
        raise ManifestError(f"malformed manifest: longer than {MAX_MANIFEST_LEN} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise ManifestError("malformed manifest: invalid UTF-8") from None
    try:
        obj = json.loads(
            text,
            parse_float=_reject_float,
            parse_constant=_reject_constant,
            object_pairs_hook=_pairs_to_dict,
        )
    except ManifestError:
        raise
    except ValueError:
        raise ManifestError("malformed manifest: invalid JSON") from None
    if not isinstance(obj, dict):
        raise ManifestError("manifest must be a JSON object")

    required = {"algos", "device_id", "image_sha256", "scores", "timestamp_unix", "version"}
    keys = set(obj)
    if not required <= keys or keys - required - {"location"}:
        raise ManifestError("manifest has missing or unknown keys")

    if obj["algos"] != _ALGOS:
        raise ManifestError("unsupported algos block")
    scores_obj = obj["scores"]
    if not isinstance(scores_obj, dict) or set(scores_obj) != set(_SCORE_KEYS):
        raise ManifestError("scores must hold exactly the five score keys")
    scores = ManifestScores(
        depth=_require_int(scores_obj, "depth"),
        thermal=_require_int(scores_obj, "thermal"),
        audio_sync=_require_int(scores_obj, "audio_sync"),
        motion=_require_int(scores_obj, "motion"),
        overall=_require_int(scores_obj, "overall"),
    )
    location = None
    if "location" in obj:
        loc = obj["location"]
        if not isinstance(loc, dict) or set(loc) != {"lat_microdeg", "lon_microdeg"}:
            raise ManifestError("location must hold lat_microdeg and lon_microdeg")
        location = (_require_int(loc, "lat_microdeg"), _require_int(loc, "lon_microdeg"))
    if not isinstance(obj["device_id"], str):
        raise ManifestError("device_id must be a string")
    if not isinstance(obj["image_sha256"], str):
        raise ManifestError("image_sha256 must be a string")

    manifest = RealismManifest(
        device_id=obj["device_id"],
        timestamp_unix=_require_int(obj, "timestamp_unix"),
        scores=scores,
        image_sha256=obj["image_sha256"],
        location=location,
        version=_require_int(obj, "version"),
    )
    if canonical_encode(manifest) != data:
        raise ManifestError("non-canonical manifest encoding")
    return manifest
