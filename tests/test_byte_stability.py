"""Pinned digest of everything the library writes or signs.

One SHA-256 covers, per capture: every capture-dir file (name and bytes),
the PGM image of frame 0, and the sidecar sealed over it with the CAM-001
fixture key. A refactor that changes any of those bytes changes the digest;
a deliberate format change must re-pin it and say why.
"""

import hashlib

from realseal import encode_frame_pgm, seal, write_capture_dir, write_sidecar
from realseal.scene import ScenarioParams, generate_scene
from realseal.scoring import score_capture

SCENARIOS = ("genuine", "screen-replay", "printed-photo")

CASES = [
    (ScenarioParams(), range(10)),
    (ScenarioParams(128, 128, 32), range(3)),
    # odd width, unequal audio windows: ceil(k * 1000 / 3)
    (ScenarioParams(7, 5, 6, 3, 1000), range(3)),
]

PINNED_DIGEST = "95d25c8592c185254c40e121b86a8344e58990f4bc0a1436217c3c4d4549bf20"


def _update(h, name: str, data: bytes) -> None:
    h.update(f"{name}:{len(data)}\n".encode("ascii"))
    h.update(data)


def test_sealed_bytes_match_pinned_digest(tmp_path, device_pair):
    h = hashlib.sha256()
    for params, seeds in CASES:
        for scenario in SCENARIOS:
            for seed in seeds:
                capture = generate_scene(scenario, seed, params)
                root = write_capture_dir(capture, tmp_path / f"{scenario}-{seed}-{params.width}")
                for f in sorted(root.iterdir()):
                    _update(h, f.name, f.read_bytes())
                image = encode_frame_pgm(capture.frames[0])
                _update(h, "image.pgm", image)
                dims, overall = score_capture(capture)
                bundle = seal(image, dims, overall, device_pair,
                              capture.timestamp_unix, capture.location)
                _update(h, "image.rsl", write_sidecar(bundle))
    assert h.hexdigest() == PINNED_DIGEST
