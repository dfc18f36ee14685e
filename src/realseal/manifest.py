"""Realism manifest record and its canonical byte encoding.

The canonical form is the exact byte string that gets hashed and signed, so
it must be reproducible everywhere: UTF-8 JSON with keys sorted ascending by
byte value, no whitespace, integers only (scores in milli-units, coordinates
in micro-degrees). Strings are written verbatim: MANIFEST.md allows only the
escapes \\" and \\\\, and the charsets of the string members admit neither a
double quote nor a backslash, so no escape ever occurs. The parser is
strict: it accepts canonical bytes only. Its grammar is the encoder's own
%-template, escaped, with a capture group in place of each placeholder, and
its length cap is that template filled with every field at its longest. One
grammar match captures every field; its integers take only the form %d
writes, so a match is already the encoding of its captures and only the
ranges are left to check. Full grammar: MANIFEST.md.
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

# The charsets of the string members, shared by the record checks, the
# manifest grammar and the registry's byte tables (a public key is 64
# lowercase hex chars too). \Z, not $: $ also matches before a trailing "\n".
_ID_CLASS = "[A-Za-z0-9_-]"
_HEX_CLASS = "[0-9a-f]"
_ID_MAX = 64
_DEVICE_ID = f"{_ID_CLASS}{{1,{_ID_MAX}}}"
_HEX64 = f"{_HEX_CLASS}{{64}}"
DEVICE_ID_RE = re.compile(rf"^{_DEVICE_ID}\Z")
_HEX64_RE = re.compile(rf"^{_HEX64}\Z")

LAT_MICRODEG_MAX = 90_000_000
LON_MICRODEG_MAX = 180_000_000
_TIMESTAMP_MAX = 2**63 - 1


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_device_id(value: object, error: type[Exception]) -> None:
    if not isinstance(value, str) or not DEVICE_ID_RE.match(value):
        raise error(f"device_id must be 1-{_ID_MAX} chars of {_ID_CLASS}")


def _check_version(value: object) -> None:
    if not _is_int(value) or value != MANIFEST_VERSION:
        raise ManifestError(f"unsupported manifest version {value!r}")


def _check_timestamp(value: object, error: type[RealSealError]) -> None:
    if not _is_int(value) or not 0 <= value <= _TIMESTAMP_MAX:
        raise error("timestamp_unix must be an integer within [0, 2**63 - 1]")


def _checked_location(value: object, error: type[RealSealError]) -> tuple[int, int] | None:
    """value as a (lat, lon) tuple of micro-degrees in range; None stays None."""
    if value is None:
        return None
    if not (isinstance(value, (tuple, list)) and len(value) == 2 and all(map(_is_int, value))):
        raise error("location must be two integers")
    lat, lon = value
    if abs(lat) > LAT_MICRODEG_MAX or abs(lon) > LON_MICRODEG_MAX:
        raise error("location out of range")
    return lat, lon


def _as_bytes(data: object) -> bytes | None:
    """bytes(data) for bytes, a bytearray or an open memoryview, the only inputs the
    parsers and verify() take; else None. bytes() takes an int as a length, and
    raises ValueError for a released memoryview."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        try:
            return bytes(data)
        except ValueError:
            pass
    return None


def _require_bytes(data: object, error: type[RealSealError], what: str) -> bytes:
    """bytes(data), or error naming the type of a data that is not bytes-like."""
    if (raw := _as_bytes(data)) is None:
        raise error(f"{what} must be bytes, bytearray or an open memoryview, "
                    f"not {type(data).__name__}")
    return raw


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
        _check_version(self.version)
        _check_device_id(self.device_id, ManifestError)
        _check_timestamp(self.timestamp_unix, ManifestError)
        if not isinstance(self.image_sha256, str) or not _HEX64_RE.match(self.image_sha256):
            raise ManifestError("image_sha256 must be 64 lowercase hex chars")
        object.__setattr__(self, "location", _checked_location(self.location, ManifestError))


def quantize_score(score: float) -> int:
    """Clamp to [0, 1] and round half-up to integer milli-units."""
    if not math.isfinite(score):
        raise ManifestError("cannot quantize a non-finite score")
    clamped = min(1.0, max(0.0, score))
    return int(math.floor(1000.0 * clamped + 0.5))


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

# The whole encoding in one template, keys in byte order.
_ENCODING = ('{"algos":{"hash":"%s","scoring":"%s","sig":"%s"},' % (
    ALGO_HASH, ALGO_SCORING, ALGO_SIG) + (
    '"device_id":"%s","image_sha256":"%s",%s'
    '"scores":{"audio_sync":%d,"depth":%d,"motion":%d,"overall":%d,"thermal":%d},'
    '"timestamp_unix":%d,"version":%d}'))
_LOCATION = '"location":{"lat_microdeg":%d,"lon_microdeg":%d},'

# Length of the longest canonical manifest, every field at its longest. Longer
# input cannot be canonical, so the parser refuses it first; the cap also
# keeps every integer it captures far below int()'s digit limit.
MAX_MANIFEST_LEN = len(_ENCODING % (
    "C" * _ID_MAX, "0" * 64, _LOCATION % (-LAT_MICRODEG_MAX, -LON_MICRODEG_MAX),
    *[1000] * 5, _TIMESTAMP_MAX, MANIFEST_VERSION))


def canonical_encode(m: RealismManifest) -> bytes:
    """Unique byte serialization of a valid manifest (the signing payload)."""
    if not isinstance(m, RealismManifest):
        raise ManifestError("expected a RealismManifest")
    s = m.scores
    return (_ENCODING % (
        m.device_id, m.image_sha256, "" if m.location is None else _LOCATION % m.location,
        s.audio_sync, s.depth, s.motion, s.overall, s.thermal,
        m.timestamp_unix, m.version)).encode()


# ---------------------------------------------------------------------------
# Strict parsing
# ---------------------------------------------------------------------------

def _pattern(template: str, *groups: str) -> str:
    """The regex of a %-template: its text escaped, each placeholder one of groups."""
    return re.escape(template).replace("%d", "%s") % groups


# The encoding's template with one capture group per field, in key order. An
# integer takes only the form %d writes (no -0, leading zero or plus) and the
# strings are verbatim, so a match is canonical_encode of its captures; the
# records' checks are left only the ranges.
_INT = "(0|-?[1-9][0-9]*)"
_MANIFEST_GRAMMAR = re.compile(_pattern(
    _ENCODING, f"({_DEVICE_ID})", f"({_HEX64})", f"(?:{_pattern(_LOCATION, _INT, _INT)})?",
    *[_INT] * 7).encode("ascii"))


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
    # Built without __init__, as registry._unchecked_entries: of the records'
    # checks only the range ones run, in the records' order.
    scores = object.__new__(ManifestScores)
    scores.__dict__.update(depth=depth, thermal=thermal, audio_sync=audio_sync,
                           motion=motion, overall=overall)
    scores.__post_init__()
    _check_version(version)
    _check_timestamp(timestamp_unix, ManifestError)
    manifest = object.__new__(RealismManifest)
    manifest.__dict__.update(
        device_id=device_id.decode("ascii"), timestamp_unix=timestamp_unix, scores=scores,
        image_sha256=image_sha256.decode("ascii"),
        location=None if lat is None else _checked_location((int(lat), int(lon)), ManifestError),
        version=version)
    return manifest
