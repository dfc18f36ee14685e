import sys
from pathlib import Path

# allow running the suite from a source checkout without installing
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import itertools
import json

import numpy as np
import pytest

from realseal import (
    DeviceKeyPair,
    Registry,
    RegistryEntry,
    TRUSTED,
    generate_genuine_scene,
    keygen,
)

from oracles import capture_rsc_body, pack_capture_rsc

FIXTURE_SEED32 = bytes(range(32))


@pytest.fixture
def device_pair() -> DeviceKeyPair:
    return keygen("CAM-001", FIXTURE_SEED32)


@pytest.fixture
def trusted_registry(device_pair) -> Registry:
    return Registry((RegistryEntry(device_pair.device_id, TRUSTED,
                                   device_pair.public_key.hex()),))


@pytest.fixture
def pack_capture_dir(tmp_path):
    """Packs capture.rsc by hand, for captures that SceneCapture refuses.

    Returns make(frame_count=16, frame_rate=8, sample_rate=8000, audio=None):
    genuine scene 1 cut to its first frame_count frames, with the rates and
    audio given (its own audio when None), in a new directory under tmp_path.
    """
    cap = generate_genuine_scene(1)
    assert (cap.frame_count, cap.frame_rate, cap.sample_rate) == (16, 8, 8000)
    names = itertools.count()

    def make(frame_count=16, frame_rate=8, sample_rate=8000, audio=None) -> Path:
        audio = cap.audio if audio is None else np.asarray(audio)
        meta = {
            "device_id": cap.device_id, "frame_count": frame_count, "frame_rate": frame_rate,
            "height": cap.height, "pixels_per_radian": cap.pixels_per_radian,
            "sample_count": audio.size, "sample_rate": sample_rate,
            "thermal_height": cap.thermal.shape[0], "thermal_width": cap.thermal.shape[1],
            "timestamp_unix": cap.timestamp_unix, "width": cap.width,
        }
        body = capture_rsc_body(cap.depth_maps, cap.thermal, audio,
                                cap.yaw_rates[:frame_count], cap.frames[:frame_count])
        root = tmp_path / f"packed-{next(names)}"
        root.mkdir()
        (root / "capture.rsc").write_bytes(
            pack_capture_rsc(json.dumps(meta, separators=(",", ":")).encode(), body))
        return root

    return make


@pytest.fixture
def low_rate_capture_dir(pack_capture_dir) -> Path:
    """A capture dir of 16 frames at 8 fps whose audio is 8 samples at 4 Hz.

    The audio covers the frame span, but every other frame window holds no
    sample.
    """
    return pack_capture_dir(sample_rate=4, audio=np.full(8, 0.25))
