import sys
from pathlib import Path

# allow running the suite from a source checkout without installing
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import struct

import numpy as np
import pytest

from realseal import (
    DeviceKeyPair,
    Registry,
    RegistryEntry,
    TRUSTED,
    generate_genuine_scene,
    keygen,
    write_capture_dir,
)

FIXTURE_SEED32 = bytes(range(32))


@pytest.fixture
def device_pair() -> DeviceKeyPair:
    return keygen("CAM-001", FIXTURE_SEED32)


@pytest.fixture
def trusted_registry(device_pair) -> Registry:
    return Registry((RegistryEntry(device_pair.device_id, TRUSTED,
                                   device_pair.public_key.hex()),))


@pytest.fixture
def low_rate_capture_dir(tmp_path) -> Path:
    """A capture dir of 16 frames at 8 fps whose audio is 8 samples at 4 Hz.

    The audio covers the frame span, but every other frame window holds no
    sample.
    """
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "low-rate")
    meta = (root / "capture.json").read_text()
    assert '"frame_rate":8,' in meta and '"sample_rate":8000,' in meta
    (root / "capture.json").write_text(meta.replace('"sample_rate":8000,', '"sample_rate":4,'))
    (root / "audio.rsa").write_bytes(b"RSA1" + struct.pack("<II", 4, 8)
                                     + np.full(8, 0.25, dtype="<f4").tobytes())
    return root
