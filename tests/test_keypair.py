"""A DeviceKeyPair holds one key: its public key is the seed's own."""

import dataclasses

import pytest

from realseal import DeviceKeyPair, RealSealError, keygen
from realseal import sealing
from realseal.sealing import sign_data

import oracles

OTHER_SEED = bytes(range(1, 33))


def test_a_pair_is_made_from_its_seed_alone():
    for seed in (bytes(32), OTHER_SEED, bytes(range(32, 64)), b"\xff" * 32):
        assert DeviceKeyPair("CAM-001", seed).public_key == oracles.ed25519_public_key(seed)
        with pytest.raises(TypeError):
            DeviceKeyPair("CAM-001", seed, oracles.ed25519_public_key(seed))


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


@pytest.mark.parametrize("device_id", ["bad id!", "", "C" * 65, 5, None],
                         ids=["space", "empty", "65-chars", "int", "None"])
def test_a_pair_refuses_a_bad_device_id(device_pair, device_id):
    with pytest.raises(RealSealError, match="device_id must be 1-64 chars"):
        DeviceKeyPair(device_id, device_pair.secret_seed)
    with pytest.raises(RealSealError, match="device_id must be 1-64 chars"):
        dataclasses.replace(device_pair, device_id=device_id)


@pytest.mark.parametrize("seed", ["x" * 32, None, memoryview(OTHER_SEED), list(OTHER_SEED)],
                         ids=["str", "None", "memoryview", "list"])
def test_a_seed_that_is_not_bytes_is_refused(device_pair, seed):
    with pytest.raises(RealSealError, match="seed must be exactly 32 octets"):
        DeviceKeyPair(device_pair.device_id, seed)
    with pytest.raises(RealSealError, match="seed must be exactly 32 octets"):
        keygen(device_pair.device_id, seed)
    with pytest.raises(RealSealError, match="seed must be exactly 32 octets"):
        sign_data(seed, b"payload")


def test_a_bytearray_seed_is_kept_as_bytes():
    pair = keygen("CAM-001", bytearray(OTHER_SEED))
    assert type(pair.secret_seed) is bytes and pair == keygen("CAM-001", OTHER_SEED)
    assert hash(pair) == hash(keygen("CAM-001", OTHER_SEED))
    assert sign_data(bytearray(OTHER_SEED), b"m") == sign_data(OTHER_SEED, b"m")
