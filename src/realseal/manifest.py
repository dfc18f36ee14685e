"""Realism manifest record and its canonical byte encoding.

The canonical form is the exact byte string that gets hashed and signed, so
it must be reproducible everywhere: UTF-8 JSON with keys sorted ascending by
byte value, no whitespace, integers only (scores in milli-units, coordinates
in micro-degrees), and string escapes limited to \\" and \\\\. The parser is
strict: it accepts canonical bytes only. One grammar match captures every
field, and re-encoding the record built from them must reproduce the input
byte for byte. Full grammar: MANIFEST.md.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ManifestError, RealSealError

MANIFEST_VERSION = 1

ALGO_HASH = "sha-256"
ALGO_SIG = "ed25519"
ALGO_SCORING = "realseal-v1"

# The charsets of the string members, shared by the record checks and the
# manifest grammar. \Z, not $: $ also matches before a trailing "\n".
_DEVICE_ID = "[A-Za-z0-9_-]{1,64}"
_SHA256_HEX = "[0-9a-f]{64}"
DEVICE_ID_RE = re.compile(rf"^{_DEVICE_ID}\Z")
_SHA256_HEX_RE = re.compile(rf"^{_SHA256_HEX}\Z")

LAT_MICRODEG_MAX = 90_000_000
LON_MICRODEG_MAX = 180_000_000
_TIMESTAMP_MAX = 2**63 - 1

# Length of the longest canonical manifest: a 64-char device id, timestamp
# 2**63 - 1, location (-90000000, -180000000) and every score at 1000. Longer
# input cannot be canonical, so the parser refuses it first; the cap also
# keeps every integer it captures far below int()'s digit limit.
MAX_MANIFEST_LEN = 428


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

# Every canonical manifest matches this grammar, one capture group per field
# in key order. An integer field takes any JSON integer, so the records
# report out-of-range values and the re-encode check refuses -0.
_INT = "(-?(?:0|[1-9][0-9]*))"
_MANIFEST_GRAMMAR = re.compile((
    r'\{"algos":\{"hash":"%s","scoring":"%s","sig":"%s"\},'
    r'"device_id":"(%s)","image_sha256":"(%s)",'
    r'(?:"location":\{"lat_microdeg":%s,"lon_microdeg":%s\},)?'
    r'"scores":\{"audio_sync":%s,"depth":%s,"motion":%s,"overall":%s,"thermal":%s\},'
    r'"timestamp_unix":%s,"version":%s\}' % (
        re.escape(ALGO_HASH), re.escape(ALGO_SCORING), re.escape(ALGO_SIG),
        _DEVICE_ID, _SHA256_HEX, *[_INT] * 9)
).encode("ascii"))


def parse_manifest(data: bytes) -> RealismManifest:
    """Parse canonical manifest bytes; rejects anything non-canonical."""
    data = _require_bytes(data, ManifestError, "manifest")
    if len(data) > MAX_MANIFEST_LEN:
        raise ManifestError(f"malformed manifest: longer than {MAX_MANIFEST_LEN} bytes")
    match = _MANIFEST_GRAMMAR.fullmatch(data)
    if match is None:
        raise ManifestError("malformed manifest: non-canonical encoding")
    device_id, image_sha256, lat, lon, *ints = match.groups()
    audio_sync, depth, motion, overall, thermal, timestamp_unix, version = map(int, ints)
    manifest = RealismManifest(
        device_id=device_id.decode("ascii"),
        timestamp_unix=timestamp_unix,
        scores=ManifestScores(depth=depth, thermal=thermal, audio_sync=audio_sync,
                              motion=motion, overall=overall),
        image_sha256=image_sha256.decode("ascii"),
        location=None if lat is None else (int(lat), int(lon)),
        version=version,
    )
    if canonical_encode(manifest) != data:
        raise ManifestError("non-canonical manifest encoding")
    return manifest
