"""A DeviceKeyPair holds one key: its public key is the seed's own."""

import pytest

from realseal import DeviceKeyPair, RealSealError, keygen
from realseal import sealing

import oracles

OTHER_SEED = bytes(range(1, 33))


def test_a_public_key_of_another_seed_is_refused(device_pair):
    other = oracles.ed25519_public_key(OTHER_SEED)
    for wrong in (other, b"", bytes(32), device_pair.public_key.hex()):
        with pytest.raises(RealSealError, match="public key does not match the seed"):
            DeviceKeyPair(device_pair.device_id, device_pair.secret_seed, wrong)


def test_a_public_key_in_another_bytes_form_is_kept(device_pair):
    pair = DeviceKeyPair(device_pair.device_id, device_pair.secret_seed,
                         bytearray(device_pair.public_key))
    assert pair == device_pair


def test_keygen_derives_the_seed_once(monkeypatch):
    calls = []
    real = sealing.Ed25519PrivateKey

    class Counted:
        @staticmethod
        def from_private_bytes(data):
            calls.append(bytes(data))
            return real.from_private_bytes(data)

    monkeypatch.setattr(sealing, "Ed25519PrivateKey", Counted)
    pair = keygen("CAM-001", OTHER_SEED)
    monkeypatch.undo()
    assert calls == [OTHER_SEED]
    assert pair.public_key == oracles.ed25519_public_key(OTHER_SEED)
