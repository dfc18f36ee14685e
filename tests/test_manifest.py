import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from realseal import (
    TRUSTED,
    ManifestError,
    ManifestScores,
    RealismManifest,
    RealSealError,
    RegistryEntry,
    canonical_encode,
    keygen,
    parse_manifest,
    quantize_score,
)
from realseal.cli import main
from realseal.manifest import MAX_MANIFEST_LEN

from oracles import canonical_encode_reference, parse_manifest_reference, released_memoryview

ZERO_HASH = "0" * 64

# the worked minimal manifest and its exact canonical bytes
MINIMAL = RealismManifest(
    device_id="CAM-001",
    timestamp_unix=1700000000,
    scores=ManifestScores(depth=0, thermal=0, audio_sync=500, motion=1000, overall=0),
    image_sha256=ZERO_HASH,
)
MINIMAL_BYTES = (
    '{"algos":{"hash":"sha-256","scoring":"realseal-v1","sig":"ed25519"},'
    '"device_id":"CAM-001","image_sha256":"' + ZERO_HASH + '",'
    '"scores":{"audio_sync":500,"depth":0,"motion":1000,"overall":0,"thermal":0},'
    '"timestamp_unix":1700000000,"version":1}'
).encode()


def _random_manifest(rng: np.random.Generator) -> RealismManifest:
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-"
    device = "".join(alphabet[i] for i in rng.integers(0, 64, size=int(rng.integers(1, 65))))
    location = None
    if rng.random() < 0.5:
        location = (int(rng.integers(-90_000_000, 90_000_001)),
                    int(rng.integers(-180_000_000, 180_000_001)))
    return RealismManifest(
        device_id=device,
        timestamp_unix=int(rng.integers(0, 2**62)),
        scores=ManifestScores(*(int(v) for v in rng.integers(0, 1001, size=5))),
        image_sha256="".join("0123456789abcdef"[i] for i in rng.integers(0, 16, size=64)),
        location=location,
    )


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_quantize_endpoints():
    assert quantize_score(0.0) == 0
    assert quantize_score(1.0) == 1000


def test_quantize_rounds_half_up():
    assert quantize_score(0.0005) == 1
    assert quantize_score(0.0004999) == 0


def test_quantize_depth_fixture_value():
    assert quantize_score(0.9568337701243882) == 957


def test_quantize_clamps():
    assert quantize_score(-3.0) == 0
    assert quantize_score(7.5) == 1000


def test_quantize_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ManifestError):
            quantize_score(bad)


def test_quantize_monotone():
    rng = np.random.default_rng(4)
    values = np.sort(rng.uniform(-0.1, 1.1, size=500))
    q = [quantize_score(float(v)) for v in values]
    assert all(a <= b for a, b in zip(q, q[1:]))


def test_quantize_idempotent_on_milli_grid():
    for q in range(0, 1001):
        assert quantize_score(q / 1000.0) == q


# ---------------------------------------------------------------------------
# canonical encoding
# ---------------------------------------------------------------------------

def test_worked_minimal_manifest_bytes():
    assert canonical_encode(MINIMAL) == MINIMAL_BYTES


def test_equal_manifests_encode_identically():
    again = RealismManifest(
        device_id="CAM-001",
        timestamp_unix=1700000000,
        scores=ManifestScores(depth=0, thermal=0, audio_sync=500, motion=1000, overall=0),
        image_sha256=ZERO_HASH,
    )
    assert canonical_encode(MINIMAL) == canonical_encode(again)


def test_location_sorts_between_image_hash_and_scores():
    m = RealismManifest(
        device_id="CAM-001",
        timestamp_unix=1700000000,
        scores=MINIMAL.scores,
        image_sha256=ZERO_HASH,
        location=(12345678, -98765432),
    )
    text = canonical_encode(m).decode()
    loc = '"location":{"lat_microdeg":12345678,"lon_microdeg":-98765432}'
    assert loc in text
    assert text.index('"image_sha256"') < text.index('"location"') < text.index('"scores"')


def test_round_trip_random_manifests():
    rng = np.random.default_rng(99)
    for _ in range(100):
        m = _random_manifest(rng)
        data = canonical_encode(m)
        assert parse_manifest(data) == m
        assert canonical_encode(parse_manifest(data)) == data


def test_longest_canonical_manifest_fits_length_cap():
    longest = RealismManifest(
        device_id="x" * 64,
        timestamp_unix=2**63 - 1,
        scores=ManifestScores(depth=1000, thermal=1000, audio_sync=1000, motion=1000,
                              overall=1000),
        image_sha256="f" * 64,
        location=(-90_000_000, -180_000_000),
    )
    data = canonical_encode(longest)
    assert len(data) == MAX_MANIFEST_LEN
    assert parse_manifest(data) == longest


def test_distinct_manifests_encode_distinctly():
    rng = np.random.default_rng(100)
    manifests = [_random_manifest(rng) for _ in range(200)]
    assert len({canonical_encode(m) for m in manifests}) == len(set(manifests))


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

def test_parse_rejects_inserted_space():
    loose = MINIMAL_BYTES.replace(b'"device_id":', b'"device_id": ', 1)
    with pytest.raises(ManifestError, match="non-canonical"):
        parse_manifest(loose)


def test_parse_rejects_trailing_newline():
    with pytest.raises(ManifestError, match="non-canonical"):
        parse_manifest(MINIMAL_BYTES + b"\n")


def test_parse_rejects_reordered_keys():
    swapped = MINIMAL_BYTES.replace(
        b'"timestamp_unix":1700000000,"version":1',
        b'"version":1,"timestamp_unix":1700000000')
    with pytest.raises(ManifestError, match="non-canonical"):
        parse_manifest(swapped)


def test_parse_rejects_score_out_of_range():
    bumped = MINIMAL_BYTES.replace(b'"depth":0', b'"depth":1001')
    with pytest.raises(ManifestError, match="out of range"):
        parse_manifest(bumped)


def test_parse_rejects_float_values():
    floated = MINIMAL_BYTES.replace(b'"depth":0', b'"depth":0.0')
    with pytest.raises(ManifestError):
        parse_manifest(floated)


def test_parse_rejects_unknown_key():
    extra = MINIMAL_BYTES.replace(b'"version":1', b'"version":1,"zzz":1')
    with pytest.raises(ManifestError):
        parse_manifest(extra)


def test_parse_rejects_missing_key():
    shorter = MINIMAL_BYTES.replace(b',"version":1', b"")
    with pytest.raises(ManifestError):
        parse_manifest(shorter)


def test_parse_rejects_duplicate_keys():
    dup = MINIMAL_BYTES.replace(b'"version":1', b'"version":1,"version":1')
    with pytest.raises(ManifestError):
        parse_manifest(dup)


def test_parse_rejects_wrong_version():
    v2 = MINIMAL_BYTES.replace(b'"version":1', b'"version":2')
    with pytest.raises(ManifestError):
        parse_manifest(v2)


def test_parse_rejects_wrong_algos():
    other = MINIMAL_BYTES.replace(b'"sig":"ed25519"', b'"sig":"rsa-2048"')
    with pytest.raises(ManifestError):
        parse_manifest(other)


def test_parse_rejects_bad_syntax_and_bad_utf8():
    with pytest.raises(ManifestError, match="malformed"):
        parse_manifest(b"{not json")
    with pytest.raises(ManifestError, match="malformed"):
        parse_manifest(b"\xff\xfe" + MINIMAL_BYTES)
    with pytest.raises(ManifestError):
        parse_manifest(MINIMAL_BYTES.replace(b"1700000000", b"01700000000"))


_INTEGER_FIELDS = ("audio_sync", "depth", "motion", "overall", "thermal",
                   "timestamp_unix", "version", "lat_microdeg", "lon_microdeg")
LOCATED = canonical_encode(dataclasses.replace(MINIMAL, location=(1, -1)))


@pytest.mark.parametrize("form", [b"-0", b"00", b"01", b"+1"])
@pytest.mark.parametrize("field", _INTEGER_FIELDS)
def test_parse_refuses_a_non_canonical_integer(field, form):
    data, n = re.subn(rb'("%s":)-?[0-9]+' % field.encode(), rb"\g<1>" + form, LOCATED)
    assert n == 1
    with pytest.raises(ManifestError, match="non-canonical"):
        parse_manifest(data)


def _refusal(make):
    try:
        return make()
    except ManifestError as exc:
        return str(exc)


_SCORE_NAMES = tuple(f.name for f in dataclasses.fields(ManifestScores))
_BOUNDS = [
    *[(name, v) for name in _SCORE_NAMES for v in (-1, 0, 1000, 1001)],
    *[("timestamp_unix", v) for v in (-1, 0, 2**63 - 1, 2**63)],
    *[("location", (lat, 0)) for lat in (-90_000_001, -90_000_000, 90_000_000, 90_000_001)],
    *[("location", (0, lon)) for lon in (-180_000_001, -180_000_000, 180_000_000, 180_000_001)],
    *[("version", v) for v in (0, 1, 2)],
]


@pytest.mark.parametrize("name,value", _BOUNDS, ids=[f"{n}={v}" for n, v in _BOUNDS])
def test_parse_and_records_agree_at_the_bounds(name, value):
    scores = dict.fromkeys(_SCORE_NAMES, 500)
    fields = dict(device_id="CAM-001", timestamp_unix=1700000000, image_sha256=ZERO_HASH,
                  location=None, version=1)
    (scores if name in scores else fields)[name] = value
    # the bytes a record of these fields would encode to, in range or not
    data = canonical_encode_reference(SimpleNamespace(scores=SimpleNamespace(**scores), **fields))
    built = _refusal(lambda: RealismManifest(scores=ManifestScores(**scores), **fields))
    assert _refusal(lambda: parse_manifest(data)) == built


def test_parse_rejects_non_object():
    with pytest.raises(ManifestError):
        parse_manifest(b"[1,2,3]")


@pytest.mark.parametrize("data", [MINIMAL_BYTES.decode(), None, 5, released_memoryview()],
                         ids=["str", "None", "int", "released-memoryview"])
def test_parse_refuses_what_is_not_bytes(data):
    with pytest.raises(ManifestError, match=type(data).__name__):
        parse_manifest(data)


def test_parse_accepts_every_bytes_like_form():
    for kind in (bytearray, memoryview):
        assert parse_manifest(kind(MINIMAL_BYTES)) == MINIMAL


_SCALAR_MEMBER = re.compile(rb'"[a-z_0-9]+":(?:"[^"]*"|-?[0-9]+)')
_OBJECT_MEMBER = re.compile(rb'"[a-z_0-9]+":\{[^{}]*\}')
_NUMBER = re.compile(rb"-?[0-9]+")
_NUMBER_FORMS = (b"-0", b"0%s", b"%s.0", b"-%s", b"%s0", b"true", b"null", b"1e3")
_FLIP_BYTES = b'0123456789abcdefxyzAZ_-.,:" {}[]\\\n\x00\xff'


def _mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """data with one byte flip, inserted space, changed number or member splice."""
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    kind = int(rng.integers(6))
    numbers = list(_NUMBER.finditer(data))
    members = list(_SCALAR_MEMBER.finditer(data)) + list(_OBJECT_MEMBER.finditer(data))
    if kind == 1:  # insert a space
        i = int(rng.integers(len(data) + 1))
        return data[:i] + b" " + data[i:]
    if kind == 2 and numbers:  # reformat a number
        m, form = pick(numbers), pick(_NUMBER_FORMS)
        new = form % m.group() if b"%s" in form else form
        return data[:m.start()] + new + data[m.end():]
    if kind == 3 and numbers:  # a new integer; most stay canonical and in range
        m = pick(numbers)
        return data[:m.start()] + b"%d" % rng.integers(-1, 1002) + data[m.end():]
    if kind == 4 and members:  # delete a member and one comma beside it
        m = pick(members)
        start, end = m.span()
        if data[end:end + 1] == b",":
            end += 1
        elif data[start - 1:start] == b",":
            start -= 1
        return data[:start] + data[end:]
    if kind == 5 and members:  # splice a copy of one member in front of another
        m, at = pick(members), pick(members)
        return data[:at.start()] + m.group() + b"," + data[at.start():]
    i = int(rng.integers(len(data)))  # flip one byte
    return data[:i] + bytes([pick(_FLIP_BYTES)]) + data[i + 1:]


def _parse_or_none(data: bytes) -> RealismManifest | None:
    try:
        return parse_manifest(data)
    except ManifestError:
        return None


def test_parse_agrees_with_json_reference_on_mutations():
    rng = np.random.default_rng(7)
    accepted = 0
    for _ in range(3000):
        data = canonical_encode(_random_manifest(rng))
        for _ in range(int(rng.integers(1, 3))):
            data = _mutate(data, rng)
        got = _parse_or_none(data)
        assert got == parse_manifest_reference(data), data
        accepted += got is not None
    assert 100 < accepted < 2900


# ---------------------------------------------------------------------------
# manifest field validation
# ---------------------------------------------------------------------------

def test_scores_validation():
    with pytest.raises(ManifestError, match="out of range"):
        ManifestScores(depth=-1, thermal=0, audio_sync=0, motion=0, overall=0)
    with pytest.raises(ManifestError):
        ManifestScores(depth=0.5, thermal=0, audio_sync=0, motion=0, overall=0)


@pytest.mark.parametrize("kwargs", [
    dict(device_id=""),
    dict(device_id="has space"),
    dict(device_id="x" * 65),
    dict(timestamp_unix=-1),
    dict(image_sha256="abc"),
    dict(image_sha256="G" * 64),
    dict(location=(90_000_001, 0)),
    dict(location=(0, -180_000_001)),
    dict(version=2),
    dict(location=5),
    dict(location=(1, 2, 3)),
])
def test_manifest_validation(kwargs):
    base = dict(
        device_id="CAM-001",
        timestamp_unix=1700000000,
        scores=MINIMAL.scores,
        image_sha256=ZERO_HASH,
    )
    base.update(kwargs)
    with pytest.raises(ManifestError):
        RealismManifest(**base)


# ---------------------------------------------------------------------------
# identifiers end at the end of the string
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    pytest.param(lambda out: keygen("CAM-001\n", bytes(32)), id="keygen"),
    pytest.param(lambda out: RealismManifest(
        device_id="CAM-001\n", timestamp_unix=0, scores=MINIMAL.scores,
        image_sha256=ZERO_HASH), id="manifest-device-id"),
    pytest.param(lambda out: RealismManifest(
        device_id="CAM-001", timestamp_unix=0, scores=MINIMAL.scores,
        image_sha256=ZERO_HASH + "\n"), id="manifest-image-hash"),
    pytest.param(lambda out: RegistryEntry("CAM-001\n", TRUSTED, "aa" * 32),
                 id="registry-device-id"),
    pytest.param(lambda out: RegistryEntry("CAM-001", TRUSTED, "aa" * 32 + "\n"),
                 id="registry-public-key"),
    pytest.param(lambda out: main(["keygen", "CAM-001\n", "--seed", "00" * 32,
                                   "--out", str(out)]), id="cli-keygen"),
])
def test_identifier_with_trailing_newline_is_refused(make, tmp_path):
    try:
        refused = make(tmp_path) == 2  # the CLI's usage-error exit code
    except RealSealError:
        refused = True
    assert refused
    assert not any(tmp_path.iterdir())
