"""A DeviceKeyPair holds one key: its public key is the seed's own."""

import dataclasses

import pytest

from realseal import DeviceKeyPair, RealSealError, keygen
from realseal import sealing
from realseal.sealing import sign_data

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


@pytest.mark.parametrize("device_id", ["bad id!", "", "C" * 65, 5, None],
                         ids=["space", "empty", "65-chars", "int", "None"])
def test_a_pair_refuses_a_bad_device_id(device_pair, device_id):
    with pytest.raises(RealSealError, match="device_id must be 1-64 chars"):
        DeviceKeyPair(device_id, device_pair.secret_seed, device_pair.public_key)
    with pytest.raises(RealSealError, match="device_id must be 1-64 chars"):
        dataclasses.replace(device_pair, device_id=device_id)


@pytest.mark.parametrize("seed", ["x" * 32, None, memoryview(OTHER_SEED), list(OTHER_SEED)],
                         ids=["str", "None", "memoryview", "list"])
def test_a_seed_that_is_not_bytes_is_refused(device_pair, seed):
    with pytest.raises(RealSealError, match="seed must be exactly 32 octets"):
        DeviceKeyPair(device_pair.device_id, seed, device_pair.public_key)
    with pytest.raises(RealSealError, match="seed must be exactly 32 octets"):
        keygen(device_pair.device_id, seed)
    with pytest.raises(RealSealError, match="seed must be exactly 32 octets"):
        sign_data(seed, b"payload")


def test_a_bytearray_seed_is_kept_as_bytes():
    pair = keygen("CAM-001", bytearray(OTHER_SEED))
    assert type(pair.secret_seed) is bytes and pair == keygen("CAM-001", OTHER_SEED)
    assert hash(pair) == hash(keygen("CAM-001", OTHER_SEED))
    assert sign_data(bytearray(OTHER_SEED), b"m") == sign_data(OTHER_SEED, b"m")
