import dataclasses
import json
import os
import struct
import threading
import tracemalloc
import warnings
from pathlib import Path

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
    score_capture,
    seal,
    write_capture_dir,
)
from realseal.rng import fill_u64

from oracles import capture_rsc_body, pack_capture_rsc, split_capture_rsc


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
    # a non-square frame: the header says width first, then height
    frame = (np.arange(48) * 5 % 256).astype(np.uint8).reshape(6, 8)
    data = encode_frame_pgm(frame)
    assert data.startswith(b"P5\n8 6\n255\n")
    assert np.array_equal(np.frombuffer(data[-48:], dtype=np.uint8).reshape(6, 8), frame)


@pytest.mark.parametrize("frame", [
    np.zeros((2, 2), dtype=np.int16),
    np.zeros((2, 2), dtype=np.float32),
    np.zeros((2, 2, 2), dtype=np.uint8),
    np.zeros(4, dtype=np.uint8),
])
def test_pgm_encode_rejects_non_2d_uint8(frame):
    with pytest.raises(CaptureError):
        encode_frame_pgm(frame)


# ---------------------------------------------------------------------------
# capture directory round trip
# ---------------------------------------------------------------------------

def _rsc(root: Path) -> Path:
    return root / "capture.rsc"


def _edit_meta(root: Path, edit) -> None:
    """Rewrite the metadata JSON text of root's capture.rsc through edit."""
    meta, body = split_capture_rsc(_rsc(root).read_bytes())
    _rsc(root).write_bytes(pack_capture_rsc(edit(meta.decode()).encode(), body))


@pytest.mark.parametrize("gen", [
    generate_genuine_scene, generate_screen_replay_scene, generate_printed_photo_scene])
def test_round_trip_lossless(gen, tmp_path):
    cap = gen(42)
    write_capture_dir(cap, tmp_path / "cap")
    assert read_capture_dir(tmp_path / "cap") == cap


@pytest.mark.parametrize("params,location", [
    (ScenarioParams(), None),
    (ScenarioParams(7, 5, 6, 3, 1000), (-33_868_820, 151_209_296)),
], ids=["desk", "odd-dims-located"])
def test_capture_file_matches_the_packed_reference(tmp_path, params, location):
    cap = dataclasses.replace(generate_genuine_scene(2, params), location=location)
    meta = {
        "device_id": cap.device_id, "frame_count": cap.frame_count,
        "frame_rate": cap.frame_rate, "height": cap.height,
        "pixels_per_radian": cap.pixels_per_radian, "sample_count": cap.audio.size,
        "sample_rate": cap.sample_rate, "thermal_height": cap.thermal.shape[0],
        "thermal_width": cap.thermal.shape[1], "timestamp_unix": cap.timestamp_unix,
        "width": cap.width,
    }
    if location is not None:
        meta["location"] = {"lat_microdeg": location[0], "lon_microdeg": location[1]}
    text = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    body = capture_rsc_body(cap.depth_maps, cap.thermal, cap.audio, cap.yaw_rates, cap.frames)
    root = write_capture_dir(cap, tmp_path / "cap")
    assert _rsc(root).read_bytes() == pack_capture_rsc(text, body)
    assert read_capture_dir(root) == cap


def test_rewrite_with_fewer_frames_leaves_one_file(tmp_path):
    short = generate_genuine_scene(3, ScenarioParams(frame_count=16))
    write_capture_dir(generate_genuine_scene(3, ScenarioParams(frame_count=20)), tmp_path / "cap")
    root = write_capture_dir(short, tmp_path / "cap")
    assert {f.name for f in root.iterdir()} == {"capture.rsc"}
    back = read_capture_dir(root)
    assert back.frame_count == 16 and back == short


def _older_per_file_dir(root):
    root.mkdir()
    for name in ("capture.json", "frame_0000.pgm", "frame_0003.pgm", "depth_0000.rsd",
                 "thermal.rst", "audio.rsa", "imu.rsi"):
        (root / name).write_bytes(b"")
    return root


def test_older_per_file_dir_no_longer_reads(tmp_path):
    root = _older_per_file_dir(tmp_path / "old")
    with pytest.raises(CaptureError, match="missing capture.rsc; .* older per-file layout"):
        read_capture_dir(root)


@pytest.mark.parametrize("name", ["frame_0003.pgm", "depth_0000.rsd"])
@pytest.mark.parametrize("kind", ["directory", "dangling symlink"])
def test_stack_file_that_is_no_regular_file_is_missing(tmp_path, name, kind):
    # an older per-file stack file that is no regular file does not trip the
    # reader: the directory is refused for its missing capture.rsc
    root = _older_per_file_dir(tmp_path / "old")
    (root / name).unlink()
    if kind == "directory":
        (root / name).mkdir()
    else:
        (root / name).symlink_to(tmp_path / "nowhere")
    with pytest.raises(CaptureError, match="missing capture.rsc; .* older per-file layout"):
        read_capture_dir(root)


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


def _pad_after_meta(data: bytes) -> int:
    meta, _ = split_capture_rsc(data)
    assert len(meta) % 4, "the fixture capture needs pad bytes"
    return 8 + len(meta)


@pytest.mark.parametrize("edit,match", [
    (lambda d: d[:6], "bad capture.rsc magic"),
    (lambda d: d[:-5], "size mismatch"),
    (lambda d: d + b"\x00", "size mismatch"),
    (lambda d: d[:_pad_after_meta(d)] + b"\x01" + d[_pad_after_meta(d) + 1:],
     "metadata is not canonical JSON"),
    (lambda d: d[:4] + struct.pack("<I", len(d)) + d[8:], "past the end of the file"),
    (lambda d: d[:4] + struct.pack("<I", 2**32 - 1) + d[8:], "past the end of the file"),
], ids=["short-header", "truncated", "trailing-byte", "pad-byte", "meta-length-past-end",
        "meta-length-max"])
def test_corrupt_capture_file_is_refused(tmp_path, edit, match):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    _rsc(root).write_bytes(edit(_rsc(root).read_bytes()))
    with pytest.raises(CaptureError, match=match):
        read_capture_dir(root)


def test_long_file_is_refused_before_its_body_is_read(tmp_path):
    # 64 MiB of sparse tail after a real capture: the metadata sizes the file,
    # so the reader refuses it without allocating the tail
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    with open(_rsc(root), "r+b") as f:
        f.truncate(os.fstat(f.fileno()).st_size + 64 * 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(CaptureError, match="size mismatch"):
            read_capture_dir(root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dimension_mismatch_is_corrupt(tmp_path):
    # metadata that sizes the thermal map 4 x 4 against the 32 x 32 on disk
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    _edit_meta(root, lambda m: m.replace('"thermal_width":32', '"thermal_width":4'))
    with pytest.raises(CaptureError, match="size mismatch"):
        read_capture_dir(root)


def test_huge_frame_count_is_corrupt_not_an_allocation(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    _edit_meta(root, lambda m: m.replace('"frame_count":16', '"frame_count":10000000000'))
    with pytest.raises(CaptureError, match="size mismatch"):
        read_capture_dir(root)


@pytest.mark.parametrize("meta,match", [
    ("{not json", "metadata is not valid JSON"),
    ('{"zz":' + "[" * 200_000 + "]" * 200_000 + "}", "metadata longer than 491 bytes"),
], ids=["syntax", "nested-too-deep"])
def test_capture_json_that_is_not_valid_json_is_corrupt(tmp_path, meta, match):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    _edit_meta(root, lambda _: meta)
    with pytest.raises(CaptureError, match=match):
        read_capture_dir(root)


@pytest.mark.parametrize("edit,match", [
    (lambda m: "[]", "must be a JSON object"),
    (lambda m: m.replace('"sample_count":16000,', ""), "wrong fields"),
    (lambda m: m.replace('"thermal_height":32,', ""), "wrong fields"),
    (lambda m: m.replace("{", '{"extra":1,', 1), "wrong fields"),
    (lambda m: m.replace('"sample_count":16000', '"sample_count":"16000"'),
     "sample_count must be an integer"),
    (lambda m: m.replace('"thermal_width":32', '"thermal_width":true'),
     "thermal_width must be an integer"),
    (lambda m: m.replace('"frame_count":16', '"frame_count":0'), "frame_count must be positive"),
    (lambda m: m.replace('"width":32', '"width":-32').replace('"height":32', '"height":-32'),
     "height must be positive"),
    (lambda m: m.replace("}", ',"location":[1,2]}'), "malformed location"),
    (lambda m: m.replace("}", ',"location":{"lat_microdeg":1.5,"lon_microdeg":2}}'),
     "location must be two integers"),
], ids=["not-an-object", "no-sample-count", "no-thermal-height", "extra-key",
        "string-count", "boolean-dim", "zero-frames", "negative-dims", "location-list",
        "float-location"])
def test_wrong_metadata_fields_are_corrupt(tmp_path, edit, match):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    _edit_meta(root, edit)
    with pytest.raises(CaptureError, match=match):
        read_capture_dir(root)


def test_missing_file_is_corrupt(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    _rsc(root).unlink()
    with pytest.raises(CaptureError, match="missing capture.rsc"):
        read_capture_dir(root)


@pytest.mark.parametrize("kind", ["directory", "dangling symlink", "symlink loop", "fifo"])
def test_capture_file_that_is_no_regular_file_is_missing(tmp_path, kind):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    _rsc(root).unlink()
    if kind == "directory":
        _rsc(root).mkdir()
    elif kind == "dangling symlink":
        _rsc(root).symlink_to(tmp_path / "nowhere")
    elif kind == "symlink loop":
        _rsc(root).symlink_to(_rsc(root))
    else:
        os.mkfifo(_rsc(root))
    errors = []

    def read():
        try:
            read_capture_dir(root)
        except CaptureError as exc:
            errors.append(str(exc))

    # a daemon thread, so that a read that blocks fails the test, not the run
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout=10)
    assert not reader.is_alive(), "read_capture_dir blocked"
    assert len(errors) == 1 and errors[0].startswith("corrupt capture: missing capture.rsc")


def test_symlink_to_capture_file_reads(tmp_path):
    cap = generate_genuine_scene(1)
    root = write_capture_dir(cap, tmp_path / "cap")
    elsewhere = tmp_path / "elsewhere.rsc"
    _rsc(root).rename(elsewhere)
    _rsc(root).symlink_to(elsewhere)
    assert read_capture_dir(root) == cap


def test_audio_slower_than_frames_is_corrupt(low_rate_capture_dir):
    with pytest.raises(CaptureError, match="sample_rate must be at least frame_rate"):
        read_capture_dir(low_rate_capture_dir)


@pytest.mark.parametrize("frame_count", [1, 2, 3])
def test_capture_of_fewer_than_four_frames_is_refused(pack_capture_dir, frame_count):
    # the audio-sync scorer needs three transitions
    with pytest.raises(CaptureError, match="at least 4 frames"):
        read_capture_dir(pack_capture_dir(frame_count=frame_count))


@pytest.mark.parametrize("rate", [2**59, 2**62, 2**70], ids=["2**59", "2**62", "2**70"])
def test_frame_span_past_int64_is_refused(pack_capture_dir, rate):
    # 16 frames at 2**59 Hz put the last window bound at 2**63, one past int64
    with pytest.raises(CaptureError, match=r"frame_count \* sample_rate must be below 2\*\*63"):
        read_capture_dir(pack_capture_dir(frame_rate=rate, sample_rate=rate))


def test_bad_magic_is_corrupt(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    data = _rsc(root).read_bytes()
    _rsc(root).write_bytes(b"RSD1" + data[4:])
    with pytest.raises(CaptureError, match="bad capture.rsc magic"):
        read_capture_dir(root)


def test_metadata_field_tampering_detected(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    _edit_meta(root, lambda m: m.replace('"width":32', '"width":16'))
    with pytest.raises(CaptureError, match="size mismatch"):
        read_capture_dir(root)


def test_boolean_pixels_per_radian_is_corrupt(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    assert b'"pixels_per_radian":64.0' in _rsc(root).read_bytes()
    _edit_meta(root, lambda m: m.replace('"pixels_per_radian":64.0', '"pixels_per_radian":true'))
    with pytest.raises(CaptureError, match="pixels_per_radian"):
        read_capture_dir(root)


@pytest.mark.parametrize("ppr,match", [
    ("1e300", "pixels_per_radian"), ("1" + "0" * 400, "metadata longer than 491 bytes"),
], ids=["1e300", "10**400"])
def test_huge_pixels_per_radian_is_corrupt(tmp_path, ppr, match):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    _edit_meta(root, lambda m: m.replace('"pixels_per_radian":64.0', f'"pixels_per_radian":{ppr}'))
    with pytest.raises(CaptureError, match=match):
        read_capture_dir(root)


def test_integer_pixels_per_radian_reads_as_float(tmp_path):
    # an integer given in memory is the float 64.0, written and read back as
    # one; on disk, "pixels_per_radian":64 is refused (the writer's-encoding test)
    cap = generate_genuine_scene(1)
    written = _rsc(write_capture_dir(cap, tmp_path / "cap")).read_bytes()
    root = write_capture_dir(dataclasses.replace(cap, pixels_per_radian=64), tmp_path / "int")
    assert _rsc(root).read_bytes() == written
    back = read_capture_dir(root)
    assert type(back.pixels_per_radian) is float and back == cap


@pytest.mark.parametrize("edit", [
    lambda m: m.replace(",", ", "),
    lambda m: json.dumps(dict(reversed(json.loads(m).items())), separators=(",", ":")),
    lambda m: m.replace("{", '{"width":32,', 1),
    lambda m: m.replace('"SIM-', '"\\u0053IM-'),
    lambda m: m.replace('"pixels_per_radian":64.0', '"pixels_per_radian":6.4e1'),
    lambda m: m.replace('"pixels_per_radian":64.0', '"pixels_per_radian":64'),
], ids=["spaces", "key-order", "repeated-key", "escape", "exponent", "integer"])
def test_metadata_that_is_not_the_writers_encoding_is_refused(tmp_path, edit):
    # each edit reads back to the same fields, so only the bytes tell it apart
    cap = dataclasses.replace(generate_genuine_scene(1), location=(-33_868_820, 151_209_296))
    root = write_capture_dir(cap, tmp_path / "cap")
    meta = split_capture_rsc(_rsc(root).read_bytes())[0].decode()
    assert json.loads(edit(meta)) == json.loads(meta) and edit(meta) != meta
    _edit_meta(root, edit)
    with pytest.raises(CaptureError, match="metadata is not canonical JSON"):
        read_capture_dir(root)


def test_longest_metadata_declaration_is_refused_before_it_is_read(tmp_path):
    # a sparse file that declares 64 MiB of metadata and holds that much
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    with open(_rsc(root), "r+b") as f:
        f.write(b"RSC1" + struct.pack("<I", 64 * 2**20))
        f.truncate(8 + 64 * 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(CaptureError, match="metadata longer than 491 bytes"):
            read_capture_dir(root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("timestamp,text,match", [
    (2**63, "9223372036854775808", "timestamp_unix must be an integer within"),
    (10**5000, "1" + "0" * 5000, "metadata longer than 491 bytes"),
], ids=["2**63", "10**5000"])
def test_timestamp_past_the_manifest_range_is_refused(tmp_path, device_pair, timestamp, text,
                                                      match):
    # the latest timestamp a manifest signs reads back and seals; a later one is
    # refused in memory and on disk
    cap = dataclasses.replace(generate_genuine_scene(1), timestamp_unix=2**63 - 1)
    root = write_capture_dir(cap, tmp_path / "cap")
    assert read_capture_dir(root) == cap
    seal(b"", *score_capture(cap), device_pair, cap.timestamp_unix)
    with pytest.raises(CaptureError, match="timestamp_unix must be an integer within"):
        dataclasses.replace(cap, timestamp_unix=timestamp)
    _edit_meta(root, lambda m: m.replace(str(2**63 - 1), text))
    with pytest.raises(CaptureError, match=match):
        read_capture_dir(root)


def test_non_finite_values_rejected(tmp_path):
    root = write_capture_dir(generate_genuine_scene(1), tmp_path / "cap")
    meta, body = split_capture_rsc(_rsc(root).read_bytes())
    nan = np.array([np.nan], dtype="<f4").tobytes()
    _rsc(root).write_bytes(pack_capture_rsc(meta, nan + body[4:]))  # depth[0, 0]
    with pytest.raises(CaptureError, match="depths must be finite"):
        read_capture_dir(root)


def test_missing_directory(tmp_path):
    with pytest.raises(CaptureError):
        read_capture_dir(tmp_path / "nope")


# ---------------------------------------------------------------------------
# seeded mutants: each one reads and scores cleanly, or is a CaptureError
# ---------------------------------------------------------------------------

_FUZZ_PARAMS = ScenarioParams(width=6, height=4, frame_count=4, frame_rate=4, sample_rate=8)
_FUZZ_FRAME_BYTES = 4 * 4 * 6
# float32 values that are non-finite, outside a sensor's range, or extreme
_FUZZ_FLOATS = np.array([np.nan, np.inf, -np.inf, 3.4e38, -3.4e38, 1e-45, 0.0, -0.0,
                         -1.5, 1.5, -41.0, 151.0], dtype="<f4")
# JSON values of the wrong type, or out of range, for some metadata field
_FUZZ_JSON = ("1", 1.5, True, None, [], {}, -1, 0, 2**64, 1e308, {"lat_microdeg": 1})


def _mutant(data: bytearray, other: bytes, kind: int, a: int, b: int) -> bytes:
    """One mutation of data, as drawn: kind picks it, a and b place and size it."""
    pos = a % len(data)
    if kind == 0:  # flip bits of one byte
        data[pos] ^= b % 255 + 1
    elif kind == 1:  # insert 1-8 bytes
        data[pos:pos] = b.to_bytes(8, "little")[:b % 8 + 1]
    elif kind == 2:  # delete 1-8 bytes
        del data[pos:pos + b % 8 + 1]
    elif kind == 3:
        del data[pos:]
    elif kind == 4:  # rewrite the metadata length: near the old one, or anything
        (n,) = struct.unpack_from("<I", data, 4)
        struct.pack_into("<I", data, 4, (n + b % 9 - 4) % 2**32 if a & 1 else b % 2**32)
    elif kind == 5:  # splice: this capture's head onto another's tail
        data[pos:] = other[b % len(other):]
    elif kind == 6:  # a float into one of the four float32 arrays
        meta, body = split_capture_rsc(bytes(data))
        at = len(data) - len(body) + 4 * (a % ((len(body) - _FUZZ_FRAME_BYTES) // 4))
        data[at:at + 4] = _FUZZ_FLOATS[b % len(_FUZZ_FLOATS)].tobytes()
    else:  # a metadata value, or a location coordinate, of the wrong type
        meta, body = split_capture_rsc(bytes(data))
        fields = json.loads(meta)
        keys = sorted(fields) + ["lat_microdeg", "lon_microdeg"]
        key = keys[a % len(keys)]
        (fields["location"] if key.endswith("microdeg") else fields)[key] = \
            _FUZZ_JSON[b % len(_FUZZ_JSON)]
        text = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
        return pack_capture_rsc(text, body)
    return bytes(data)


def test_seeded_mutants_read_and_score_or_are_refused(tmp_path):
    gens = (generate_genuine_scene, generate_screen_replay_scene, generate_printed_photo_scene)
    originals = [_rsc(write_capture_dir(gen(seed, _FUZZ_PARAMS), tmp_path / "src")).read_bytes()
                 for gen in gens for seed in (1, 2)]
    root = tmp_path / "cap"
    root.mkdir()
    count = 2000
    draws = iter(fill_u64(0xF022, 5 * count).tolist())
    read = refused = 0
    # one open file, rewritten in place for each mutant
    with open(_rsc(root), "wb", buffering=0) as f, warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning while scoring fails the test
        for _ in range(count):
            data, other, kind, a, b = (next(draws) for _ in range(5))
            mutant = _mutant(bytearray(originals[data % len(originals)]),
                             originals[other % len(originals)], kind % 8, a, b)
            os.pwrite(f.fileno(), mutant, 0)
            f.truncate(len(mutant))
            try:
                capture = read_capture_dir(root)
            except CaptureError:
                refused += 1
                continue
            score_capture(capture)
            read += 1
    # both outcomes are common, so the mutants neither all break nor all miss
    assert min(read, refused) >= count // 10, (read, refused)


# ---------------------------------------------------------------------------
# seeded header mutants: each one reads to a capture whose rewrite is the
# mutant, byte for byte, or is a CaptureError
# ---------------------------------------------------------------------------

# bytes that mean something to JSON, to a number in it, or to UTF-8
_HEADER_SNIPPETS = (b" ", b"0", b"7", b"-", b".0", b"e0", b"E+1", b'"', b",", b":", b"}",
                    b"\\u0053", b"\x00", b"\xff")


def _header_mutant(data: bytes, kind: int, a: int, b: int) -> bytes:
    """One mutation of the bytes before data's arrays, as drawn: kinds 0-2 edit
    them raw, the length and pad included; kinds 3-6 edit the metadata and
    repack it with its new length and a zero pad."""
    meta, body = split_capture_rsc(data)
    if kind < 3:
        text, pos = data[:len(data) - len(body)], a % (len(data) - len(body))
    else:
        text, pos = meta, a % len(meta)
    if kind % 4 == 0:  # flip bits of one byte
        text = text[:pos] + bytes([text[pos] ^ (b % 255 + 1)]) + text[pos + 1:]
    elif kind % 4 == 1:
        text = text[:pos] + _HEADER_SNIPPETS[b % len(_HEADER_SNIPPETS)] + text[pos:]
    elif kind % 4 == 2:  # delete 1-4 bytes
        text = text[:pos] + text[pos + b % 4 + 1:]
    else:  # a digit for another digit: a field of another value, or a size mismatch
        digits = [i for i, c in enumerate(text) if 48 <= c <= 57]
        at = digits[pos % len(digits)]
        text = text[:at] + str(b % 10).encode() + text[at + 1:]
    return text + body if kind < 3 else pack_capture_rsc(text, body)


def test_seeded_header_mutants_read_to_their_own_bytes_or_are_refused(tmp_path):
    cap = generate_genuine_scene(1)
    originals = [_rsc(write_capture_dir(c, tmp_path / "src")).read_bytes()
                 for c in (cap, dataclasses.replace(cap, location=None))]
    edits = [lambda m: m.replace('"pixels_per_radian":64.0', '"pixels_per_radian":64'),
             lambda m: m.replace(",", ", "),
             lambda m: json.dumps(dict(reversed(json.loads(m).items())), separators=(",", ":"))]
    mutants = [pack_capture_rsc(edit(meta.decode()).encode(), body)
               for meta, body in map(split_capture_rsc, originals) for edit in edits]
    mutants += [d[:_pad_after_meta(d)] + b"\x01" + d[_pad_after_meta(d) + 1:] for d in originals]
    count = 2000
    draws = iter(fill_u64(0x4EAD, 4 * count).tolist())
    for _ in range(count):
        data, kind, a, b = (next(draws) for _ in range(4))
        mutants.append(_header_mutant(originals[data % len(originals)], kind % 7, a, b))
    root = tmp_path / "cap"
    root.mkdir()
    read = refused = 0
    with open(_rsc(root), "wb", buffering=0) as f:
        for mutant in mutants:
            os.pwrite(f.fileno(), mutant, 0)
            f.truncate(len(mutant))
            try:  # any other exception fails the test
                capture = read_capture_dir(root)
            except CaptureError:
                refused += 1
                continue
            read += 1
            assert _rsc(write_capture_dir(capture, tmp_path / "again")).read_bytes() == mutant
    # both outcomes are common, so the mutants neither all break nor all miss
    assert min(read, refused) >= count // 10, (read, refused)
