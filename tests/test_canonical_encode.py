"""canonical_encode against an encoder it shares no code with."""

import itertools
import random

import pytest

from realseal import (
    ManifestError,
    ManifestScores,
    RealismManifest,
    canonical_encode,
    parse_manifest,
)
from realseal.manifest import MAX_MANIFEST_LEN

from oracles import canonical_encode_reference

ID_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-"
HEX = "0123456789abcdef"


def _seeded_manifest(rng: random.Random) -> RealismManifest:
    location = None
    if rng.random() < 0.5:
        location = (rng.randint(-90_000_000, 90_000_000), rng.randint(-180_000_000, 180_000_000))
    return RealismManifest(
        device_id="".join(rng.choices(ID_CHARS, k=rng.randint(1, 64))),
        # every digit count from 1 to 19
        timestamp_unix=rng.randrange(2 ** rng.randint(1, 63)),
        scores=ManifestScores(*(rng.randint(0, 1000) for _ in range(5))),
        image_sha256="".join(rng.choices(HEX, k=64)),
        location=location,
    )


def _extreme_manifests():
    ids = ["_", "-", "A", "9", "_" * 64, "-" * 64, "a-_Z" * 16]
    scores = [ManifestScores(0, 0, 0, 0, 0), ManifestScores(1000, 1000, 1000, 1000, 1000)]
    locations = [None, (0, 0)] + list(itertools.product((90_000_000, -90_000_000),
                                                        (180_000_000, -180_000_000)))
    for device_id, score, timestamp, location in itertools.product(
            ids, scores, (0, 2**63 - 1), locations):
        yield RealismManifest(device_id=device_id, timestamp_unix=timestamp, scores=score,
                              image_sha256="f" * 64, location=location)


def test_encode_agrees_with_json_reference_on_seeded_manifests():
    rng = random.Random(18)
    for _ in range(2000):
        m = _seeded_manifest(rng)
        assert canonical_encode(m) == canonical_encode_reference(m), m


def test_encode_agrees_with_json_reference_at_the_extremes():
    lengths = set()
    for m in _extreme_manifests():
        data = canonical_encode(m)
        assert data == canonical_encode_reference(m), m
        assert parse_manifest(data) == m
        lengths.add(len(data))
    # the longest of them is the longest canonical manifest there is
    assert max(lengths) == MAX_MANIFEST_LEN


@pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
def test_a_version_that_is_not_an_integer_is_refused(version):
    # json writes True as true: a record holding it has no canonical encoding
    with pytest.raises(ManifestError, match="unsupported manifest version"):
        RealismManifest(device_id="CAM-001", timestamp_unix=0,
                        scores=ManifestScores(0, 0, 0, 0, 0), image_sha256="0" * 64,
                        version=version)
