import dataclasses

import numpy as np
import pytest

from realseal import (
    CaptureError,
    ScenarioParams,
    encode_frame_pgm,
    generate_genuine_scene,
    generate_printed_photo_scene,
    generate_screen_replay_scene,
    read_capture_dir,
    write_capture_dir,
)
from realseal.capture_io import decode_frame_pgm
from realseal.scoring import score_capture


# ---------------------------------------------------------------------------
# PGM codec
# ---------------------------------------------------------------------------

def test_pgm_worked_example():
    frame = np.array([[0, 255], [128, 64]], dtype=np.uint8)
    assert encode_frame_pgm(frame) == b"P5\n2 2\n255\n" + bytes([0x00, 0xFF, 0x80, 0x40])


def test_pgm_all_zero_frame():
    frame = np.zeros((2, 2), dtype=np.uint8)
    data = encode_frame_pgm(frame)
    assert data == b"P5\n2 2\n255\n" + b"\x00" * 4
    assert len(data) == 11 + 4


def test_pgm_encode_deterministic():
    frame = (np.arange(64, dtype=np.uint8)).reshape(8, 8)
    assert encode_frame_pgm(frame) == encode_frame_pgm(frame)


def test_pgm_round_trip():
    frame = (np.arange(48) * 5 % 256).astype(np.uint8).reshape(6, 8)
    decoded = decode_frame_pgm(encode_frame_pgm(frame))
    assert decoded.dtype == np.uint8 and np.array_equal(decoded, frame)


@pytest.mark.parametrize("frame", [
    np.zeros((2, 2), dtype=np.int16),
    np.zeros((2, 2), dtype=np.float32),
    np.zeros((2, 2, 2), dtype=np.uint8),
    np.zeros(4, dtype=np.uint8),
])
def test_pgm_encode_rejects_non_2d_uint8(frame):
    with pytest.raises(CaptureError):
        encode_frame_pgm(frame)


@pytest.mark.parametrize("data", [
    b"P6\n2 2\n255\n" + b"\x00" * 12,
    b"P5\n2 2\n254\n" + b"\x00" * 4,
    b"P5\n2 2\n255\n" + b"\x00" * 3,      # short
    b"P5\n2 2\n255\n" + b"\x00" * 5,      # long
    b"P5\n2\n255\n" + b"\x00" * 2,
    b"P5",
    b"P5\n+2 2\n255\n" + b"\x00" * 4,   # sign
    b"P5\n2 02\n255\n" + b"\x00" * 4,   # leading zero
    b"P5\n0_2 2\n255\n" + b"\x00" * 4,  # underscore
])
def test_pgm_decode_rejects_corruption(data):
    with pytest.raises(CaptureError):
        decode_frame_pgm(data)


# ---------------------------------------------------------------------------
# capture directory round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gen", [
    generate_genuine_scene, generate_screen_replay_scene, generate_printed_photo_scene])
def test_round_trip_lossless(gen, tmp_path):
    cap = gen(42)
    write_capture_dir(cap, tmp_path / "cap")
    assert read_capture_dir(tmp_path / "cap") == cap


def test_capture_dir_holds_the_frames_and_five_files(tmp_path):
    cap = generate_genuine_scene(3, ScenarioParams(128, 128, 32))
    root = write_capture_dir(cap, tmp_path / "cap")
    names = {f.name for f in root.iterdir()}
    assert len(names) == cap.frame_count + 5
    assert names - {f"frame_{i:04d}.pgm" for i in range(cap.frame_count)} == {
        "capture.json", "depth_0000.rsd", "thermal.rst", "audio.rsa", "imu.rsi"}


@pytest.mark.parametrize("gen", [
    generate_genuine_scene, generate_screen_replay_scene, generate_printed_photo_scene])
def test_older_dir_with_one_depth_file_per_frame_reads(gen, tmp_path):
    # An older writer wrote frame k's depth map as depth_%04d.rsd: the genuine
    # scene's panned with the frames, an attack scene's one plane repeated.
    # The reader takes depth_0000.rsd and ignores the rest.
    cap = gen(5)
    root = write_capture_dir(cap, tmp_path / "cap")
    frames, depth = cap.frames, cap.depth_maps[0]
    header = (root / "depth_0000.rsd").read_bytes()[:12]
    for k in range(1, cap.frame_count):
        shift = 0 if gen is not generate_genuine_scene else next(
            s for s in range(cap.width)
            if np.array_equal(np.roll(frames[0], s, axis=1), frames[k]))
        (root / f"depth_{k:04d}.rsd").write_bytes(
            header + np.roll(depth, shift, axis=1).astype("<f4").tobytes())
    back = read_capture_dir(root)
    assert back == cap and back.depth_maps.shape == (1, cap.height, cap.width)
    assert score_capture(back) == score_capture(cap)


def test_write_is_byte_deterministic(tmp_path):
    cap = generate_genuine_scene(42)
    a = write_capture_dir(cap, tmp_path / "a")
    b = write_capture_dir(cap, tmp_path / "b")
    files_a = sorted(f.name for f in a.iterdir())
    files_b = sorted(f.name for f in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_rewrite_over_larger_files_matches_fresh_write(tmp_path):
    cap = generate_genuine_scene(42)
    fresh = write_capture_dir(cap, tmp_path / "fresh")
    reused = tmp_path / "reused"
    write_capture_dir(generate_genuine_scene(7, ScenarioParams(width=48, height=40)), reused)
    write_capture_dir(cap, reused)
    for f in fresh.iterdir():
        assert (reused / f.name).read_bytes() == f.read_bytes()
    assert read_capture_dir(reused) == cap


def test_non_contiguous_stacks_write_like_contiguous_ones(tmp_path):
    cap = generate_genuine_scene(42)
    flipped = dataclasses.replace(cap, frames=cap.frames[:, :, ::-1],
                                  depth_maps=cap.depth_maps[:, ::-1, :])
    assert not flipped.frames.flags.c_contiguous
    copied = dataclasses.replace(cap, frames=np.ascontiguousarray(flipped.frames),
                                 depth_maps=np.ascontiguousarray(flipped.depth_maps))
    a = write_capture_dir(flipped, tmp_path / "a")
    b = write_capture_dir(copied, tmp_path / "b")
    for f in a.iterdir():
        assert (b / f.name).read_bytes() == f.read_bytes()
    assert read_capture_dir(a) == copied


@pytest.mark.parametrize("name,edit,match", [
    ("frame_0003.pgm", lambda d: d.replace(b"\n255\n", b"\n254\n", 1), "maxval"),
    ("frame_0003.pgm", lambda d: d + b"\x00", "pixel count"),
    ("frame_0005.pgm", lambda d: d.replace(b"P5", b"P6", 1), "bad PGM magic"),
])
def test_later_stack_file_unlike_the_first_is_corrupt(tmp_path, name, edit, match):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    (root / name).write_bytes(edit((root / name).read_bytes()))
    with pytest.raises(CaptureError, match=match):
        read_capture_dir(root)


def test_truncated_depth_file_is_corrupt(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    f = root / "depth_0000.rsd"
    f.write_bytes(f.read_bytes()[:-5])
    with pytest.raises(CaptureError, match="corrupt capture"):
        read_capture_dir(root)


def test_dimension_mismatch_is_corrupt(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    # swap in a smaller but self-consistent depth grid
    import struct
    small = b"RSD1" + struct.pack("<II", 4, 4) + np.ones(16, dtype="<f4").tobytes()
    (root / "depth_0000.rsd").write_bytes(small)
    with pytest.raises(CaptureError):
        read_capture_dir(root)


def test_huge_frame_count_is_corrupt_not_an_allocation(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    meta = (root / "capture.json").read_text()
    (root / "capture.json").write_text(meta.replace('"frame_count":16', '"frame_count":10000000000'))
    with pytest.raises(CaptureError, match="missing frame_0016.pgm"):
        read_capture_dir(root)


@pytest.mark.parametrize("meta", ["{not json", '{"zz":' + "[" * 200_000 + "]" * 200_000 + "}"],
                         ids=["syntax", "nested-too-deep"])
def test_capture_json_that_is_not_valid_json_is_corrupt(tmp_path, meta):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    (root / "capture.json").write_text(meta)
    with pytest.raises(CaptureError, match="capture.json is not valid JSON"):
        read_capture_dir(root)


def test_missing_file_is_corrupt(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    (root / "audio.rsa").unlink()
    with pytest.raises(CaptureError, match="missing"):
        read_capture_dir(root)


@pytest.mark.parametrize("name", ["frame_0003.pgm", "depth_0000.rsd"])
@pytest.mark.parametrize("kind", ["directory", "dangling symlink"])
def test_stack_file_that_is_no_regular_file_is_missing(tmp_path, name, kind):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    (root / name).unlink()
    if kind == "directory":
        (root / name).mkdir()
    else:
        (root / name).symlink_to(tmp_path / "nowhere")
    with pytest.raises(CaptureError, match=f"missing {name}"):
        read_capture_dir(root)


def test_symlinks_to_stack_files_read(tmp_path):
    cap = generate_genuine_scene(1)
    root = write_capture_dir(cap, tmp_path / "cap")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    for name in ("frame_0003.pgm", "depth_0000.rsd"):
        (root / name).rename(elsewhere / name)
        (root / name).symlink_to(elsewhere / name)
    assert read_capture_dir(root) == cap


def test_audio_slower_than_frames_is_corrupt(low_rate_capture_dir):
    with pytest.raises(CaptureError, match="sample_rate must be at least frame_rate"):
        read_capture_dir(low_rate_capture_dir)


def test_bad_magic_is_corrupt(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    data = (root / "thermal.rst").read_bytes()
    (root / "thermal.rst").write_bytes(b"XXXX" + data[4:])
    with pytest.raises(CaptureError):
        read_capture_dir(root)


def test_metadata_field_tampering_detected(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    meta = (root / "capture.json").read_text()
    (root / "capture.json").write_text(meta.replace('"width":32', '"width":16'))
    with pytest.raises(CaptureError):
        read_capture_dir(root)


def test_boolean_pixels_per_radian_is_corrupt(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    meta = (root / "capture.json").read_text()
    assert '"pixels_per_radian":64.0' in meta
    (root / "capture.json").write_text(meta.replace('"pixels_per_radian":64.0',
                                                    '"pixels_per_radian":true'))
    with pytest.raises(CaptureError, match="pixels_per_radian"):
        read_capture_dir(root)


@pytest.mark.parametrize("ppr", ["1e300", "1" + "0" * 400], ids=["1e300", "10**400"])
def test_huge_pixels_per_radian_is_corrupt(tmp_path, ppr):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    meta = (root / "capture.json").read_text()
    (root / "capture.json").write_text(meta.replace('"pixels_per_radian":64.0',
                                                    f'"pixels_per_radian":{ppr}'))
    with pytest.raises(CaptureError, match="pixels_per_radian"):
        read_capture_dir(root)


def test_integer_pixels_per_radian_reads_as_float(tmp_path):
    cap = generate_genuine_scene(1)
    root = write_capture_dir(cap, tmp_path / "cap")
    meta = (root / "capture.json").read_text()
    (root / "capture.json").write_text(meta.replace('"pixels_per_radian":64.0',
                                                    '"pixels_per_radian":64'))
    back = read_capture_dir(root)
    assert type(back.pixels_per_radian) is float and back == cap
    assert (write_capture_dir(back, tmp_path / "again") / "capture.json").read_text() == meta


def test_non_finite_values_rejected(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    data = bytearray((root / "depth_0000.rsd").read_bytes())
    data[12:16] = np.array([np.nan], dtype="<f4").tobytes()
    (root / "depth_0000.rsd").write_bytes(bytes(data))
    with pytest.raises(CaptureError):
        read_capture_dir(root)


def test_missing_directory(tmp_path):
    with pytest.raises(CaptureError):
        read_capture_dir(tmp_path / "nope")
