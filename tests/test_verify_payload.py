"""verify() checks the signature over the manifest bytes the sidecar holds."""

import pytest

from realseal import DimensionScores, canonical_encode, seal, verify, write_sidecar
from realseal import manifest as manifest_module
from realseal import sealing


@pytest.mark.parametrize("location", [None, (-90_000_000, 180_000_000)],
                         ids=["no-location", "location"])
def test_verify_encodes_at_most_once_and_signs_over_the_sidecar_slice(
        device_pair, trusted_registry, monkeypatch, location):
    bundle = seal(b"image payload", DimensionScores(0.5, 0.25, 1.0, 0.0), 0.75,
                  device_pair, 1700000000, location)
    sidecar = write_sidecar(bundle)
    encodes, payloads = [], []
    real_verify_data = sealing.verify_data

    def counted_encode(m):
        encodes.append(m)
        return canonical_encode(m)

    def recorded_verify(public_key, data, signature):
        payloads.append(data)
        return real_verify_data(public_key, data, signature)

    monkeypatch.setattr(manifest_module, "canonical_encode", counted_encode)
    monkeypatch.setattr(sealing, "canonical_encode", counted_encode)
    monkeypatch.setattr(sealing, "verify_data", recorded_verify)
    report = verify(bundle.image_bytes, sidecar, trusted_registry)
    monkeypatch.undo()

    assert report.verdict == "authentic"
    assert encodes == []  # the grammar match is the encoding: verify re-encodes nothing
    n = int.from_bytes(sidecar[4:8], "big")
    assert payloads == [sidecar[8:8 + n]]
    assert payloads[0] == canonical_encode(report.manifest)
