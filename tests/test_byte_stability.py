"""Pinned digests of everything the library writes or signs.

Two SHA-256 digests cover the same captures:

* the sealed digest: per capture, the PGM image of frame 0 and the sidecar
  sealed over it with the CAM-001 fixture key
* the capture-dir digest: every capture-dir file, name and bytes

A refactor that changes any of those bytes changes a digest; a deliberate
format change must re-pin the digest it changes and say why. They are two
so that a change to the capture-dir format re-pins only its own digest and
still shows the sealed bytes unchanged. The capture-dir digest was re-pinned
when a capture dir came to hold one depth map, ``depth_0000.rsd``, in place
of one per frame, and again when it came to hold one file, ``capture.rsc``,
in place of a PGM per frame and five other files: the same arrays and
metadata, laid out in one file. The sealed digest was re-pinned neither time.

A third digest covers the scores themselves: the stdout of
``realseal bench --seed 1..30 --json``, every dimension score and overall
score of 90 desk-scale captures.
"""

import hashlib

from realseal import cli, encode_frame_pgm, seal, write_capture_dir, write_sidecar
from realseal.scene import ScenarioParams, generate_scene
from realseal.scoring import score_capture

SCENARIOS = ("genuine", "screen-replay", "printed-photo")

CASES = [
    (ScenarioParams(), range(10)),
    (ScenarioParams(128, 128, 32), range(3)),
    # odd width, unequal audio windows: ceil(k * 1000 / 3)
    (ScenarioParams(7, 5, 6, 3, 1000), range(3)),
]

SEALED_DIGEST = "e52fde2d032de559abe801bcfc2ed294b274e91be20fd53ac7864f911be915c6"
CAPTURE_DIR_DIGEST = "00b5bd0b100741885dad878f288c7f2b1a2d3d4e7f14f041d726d1b1b42fc668"
BENCH_JSON_DIGEST = "4560c85025fc954f8e451453ff897c90b24c9027771d0104658650fc7fa07102"


def _captures():
    """(name, capture) for every case, scenario and seed."""
    for params, seeds in CASES:
        for scenario in SCENARIOS:
            for seed in seeds:
                yield f"{scenario}-{seed}-{params.width}", generate_scene(scenario, seed, params)


def _update(h, name: str, data: bytes) -> None:
    h.update(f"{name}:{len(data)}\n".encode("ascii"))
    h.update(data)


def test_sealed_bytes_match_pinned_digest(device_pair):
    h = hashlib.sha256()
    for _, capture in _captures():
        image = encode_frame_pgm(capture.frames[0])
        _update(h, "image.pgm", image)
        dims, overall = score_capture(capture)
        bundle = seal(image, dims, overall, device_pair,
                      capture.timestamp_unix, capture.location)
        _update(h, "image.rsl", write_sidecar(bundle))
    assert h.hexdigest() == SEALED_DIGEST


def test_capture_dir_bytes_match_pinned_digest(tmp_path):
    h = hashlib.sha256()
    for name, capture in _captures():
        root = write_capture_dir(capture, tmp_path / name)
        for f in sorted(root.iterdir()):
            _update(h, f.name, f.read_bytes())
    assert h.hexdigest() == CAPTURE_DIR_DIGEST


def test_bench_json_matches_pinned_digest(capsys):
    assert cli.main(["bench", "--seed", "1..30", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BENCH_JSON_DIGEST
