"""On-disk capture format.

A capture directory holds:

* ``capture.json``    - metadata (dims, rates, identity, pixels-per-radian)
* ``frame_%04d.pgm``  - binary PGM, header ``P5\\n<w> <h>\\n255\\n`` + raw bytes
* ``depth_%04d.rsd``  - magic ``RSD1``, u32le width, u32le height, then
                        width*height float32le values row-major
* ``thermal.rst``     - same layout with magic ``RST1``
* ``audio.rsa``       - magic ``RSA1``, u32le sample_rate, u32le count, float32le
* ``imu.rsi``         - magic ``RSI1``, u32le count, float32le

Every field is fixed-width binary or canonical JSON, so write -> read is
lossless and two writes of the same capture are byte-identical.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CaptureError
from .manifest import _is_int
from .scene import SceneCapture

_MAGIC_DEPTH = b"RSD1"
_MAGIC_THERMAL = b"RST1"
_MAGIC_AUDIO = b"RSA1"
_MAGIC_IMU = b"RSI1"


# ---------------------------------------------------------------------------
# PGM codec
# ---------------------------------------------------------------------------

def encode_frame_pgm(frame: np.ndarray) -> bytes:
    """Binary (P5) PGM encoding of a 2-D uint8 frame; deterministic, used as
    the sealed payload."""
    frame = np.asarray(frame)
    if frame.dtype != np.uint8 or frame.ndim != 2:
        raise CaptureError("PGM frame must be a 2-D uint8 array")
    height, width = frame.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + frame.tobytes()


def decode_frame_pgm(data: bytes) -> np.ndarray:
    """Strict inverse of encode_frame_pgm (canonical header only): a 2-D
    uint8 array."""
    if not data.startswith(b"P5\n"):
        raise CaptureError("corrupt capture: bad PGM magic")
    rest = data[3:]
    nl = rest.find(b"\n")
    if nl < 0:
        raise CaptureError("corrupt capture: truncated PGM header")
    dims = rest[:nl].split(b" ")
    # ASCII digits with no leading zero: no sign, underscore or zero padding
    if len(dims) != 2 or not all(d.isdigit() and not d.startswith(b"0") for d in dims):
        raise CaptureError("corrupt capture: bad PGM dimensions")
    try:
        width, height = int(dims[0]), int(dims[1])
    except ValueError:  # more digits than int() converts
        raise CaptureError("corrupt capture: bad PGM dimensions") from None
    body = rest[nl + 1:]
    if not body.startswith(b"255\n"):
        raise CaptureError("corrupt capture: PGM maxval must be 255")
    pixels = body[4:]
    if len(pixels) != width * height:
        raise CaptureError("corrupt capture: PGM pixel count mismatch")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


# ---------------------------------------------------------------------------
# Fixed-width binary records
# ---------------------------------------------------------------------------

def _grid_parts(magic: bytes, arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Header and contiguous little-endian float32 payload of a grid record."""
    h, w = arr.shape
    return magic + struct.pack("<II", w, h), np.ascontiguousarray(arr, dtype="<f4")

def _decode_grid(magic: bytes, data: bytes, what: str) -> np.ndarray:
    if len(data) < 12 or data[:4] != magic:
        raise CaptureError(f"corrupt capture: bad {what} header")
    w, h = struct.unpack("<II", data[4:12])
    expected = 12 + 4 * w * h
    if w == 0 or h == 0 or len(data) != expected:
        raise CaptureError(f"corrupt capture: {what} size mismatch")
    values = np.frombuffer(data, dtype="<f4", offset=12).reshape(h, w)
    return values.astype(np.float32, copy=False)


def _encode_audio(rate: int, samples: np.ndarray) -> bytes:
    return (_MAGIC_AUDIO + struct.pack("<II", rate, samples.size)
            + samples.astype("<f4", copy=False).tobytes())

def _decode_audio(data: bytes) -> tuple[int, np.ndarray]:
    if len(data) < 12 or data[:4] != _MAGIC_AUDIO:
        raise CaptureError("corrupt capture: bad audio header")
    rate, count = struct.unpack("<II", data[4:12])
    if rate == 0 or len(data) != 12 + 4 * count:
        raise CaptureError("corrupt capture: audio size mismatch")
    return rate, np.frombuffer(data, dtype="<f4", offset=12).astype(np.float32, copy=True)


def _encode_imu(yaw_rates: np.ndarray) -> bytes:
    return (_MAGIC_IMU + struct.pack("<I", yaw_rates.size)
            + yaw_rates.astype("<f4", copy=False).tobytes())

def _decode_imu(data: bytes) -> np.ndarray:
    if len(data) < 8 or data[:4] != _MAGIC_IMU:
        raise CaptureError("corrupt capture: bad IMU header")
    (count,) = struct.unpack("<I", data[4:8])
    if len(data) != 8 + 4 * count:
        raise CaptureError("corrupt capture: IMU size mismatch")
    return np.frombuffer(data, dtype="<f4", offset=8).astype(np.float32, copy=True)


# ---------------------------------------------------------------------------
# Capture directory
# ---------------------------------------------------------------------------

_META_REQUIRED = {
    "device_id", "frame_count", "frame_rate", "height",
    "pixels_per_radian", "sample_rate", "timestamp_unix", "width",
}


def _overwrite(path: str, *parts) -> None:
    """Make the buffers in parts, back to back, the whole content of path.

    The file is rewritten in place and trimmed only when its size changes.
    Truncating it to zero first would make ext4 (auto_da_alloc) flush it to
    the device on close, so each rewrite of a capture dir would wait on I/O.
    """
    try:
        f = open(path, "r+b")
    except FileNotFoundError:
        f = open(path, "wb")
    with f:
        for part in parts:
            f.write(part)
        if f.tell() != os.fstat(f.fileno()).st_size:
            f.truncate()


def write_capture_dir(capture: SceneCapture, path: str | Path) -> Path:
    """Write a capture directory; returns its path."""
    root = os.fspath(path)
    os.makedirs(root, exist_ok=True)
    meta: dict = {
        "device_id": capture.device_id,
        "frame_count": capture.frame_count,
        "frame_rate": capture.frame_rate,
        "height": capture.height,
        "pixels_per_radian": capture.pixels_per_radian,
        "sample_rate": capture.sample_rate,
        "timestamp_unix": capture.timestamp_unix,
        "width": capture.width,
    }
    if capture.location is not None:
        meta["location"] = {
            "lat_microdeg": capture.location[0],
            "lon_microdeg": capture.location[1],
        }
    _overwrite(os.path.join(root, "capture.json"),
               (json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8"))
    for i, frame in enumerate(capture.frames):
        _overwrite(os.path.join(root, f"frame_{i:04d}.pgm"), encode_frame_pgm(frame))
    for i, depth in enumerate(capture.depth_maps):
        _overwrite(os.path.join(root, f"depth_{i:04d}.rsd"), *_grid_parts(_MAGIC_DEPTH, depth))
    _overwrite(os.path.join(root, "thermal.rst"), *_grid_parts(_MAGIC_THERMAL, capture.thermal))
    _overwrite(os.path.join(root, "audio.rsa"), _encode_audio(capture.sample_rate, capture.audio))
    _overwrite(os.path.join(root, "imu.rsi"), _encode_imu(capture.yaw_rates))
    return Path(root)


def _require_file(root: str, files: set[str], name: str) -> str:
    """Path of root/name; files is the set of names of root's regular files."""
    if name not in files:
        raise CaptureError(f"corrupt capture: missing {name}")
    return os.path.join(root, name)


def _read_bytes(root: str, files: set[str], name: str) -> bytes:
    with open(_require_file(root, files, name), "rb") as f:
        return f.read()


def _read_stack(root: str, files: set[str], pattern: str, n: int, decode) -> np.ndarray:
    """Decode files pattern.format(0..n-1) into one preallocated (n,H,W) stack.

    When file 0's array is its payload byte for byte, a later file of file
    0's length and header is read straight into its slot; any other file is
    decoded in full, which raises the precise error.
    """
    # Every file must exist before frame_count may size an allocation.
    paths = [_require_file(root, files, pattern.format(i)) for i in range(n)]
    data = _read_bytes(root, files, pattern.format(0))
    first = decode(data)
    header = data[:len(data) - first.nbytes]
    direct = data[len(header):] == first.tobytes()
    stack = np.empty((n, *first.shape), dtype=first.dtype)
    stack[0] = first
    head = bytearray(len(header))
    for i in range(1, n):
        name = pattern.format(i)
        if direct:
            body = memoryview(stack[i]).cast("B")
            with open(paths[i], "rb", buffering=0) as f:
                got = (f.readinto(head), f.readinto(body), len(f.read(1)))
            if got == (len(head), body.nbytes, 0) and head == header:
                continue
        arr = decode(_read_bytes(root, files, name))
        if arr.shape != first.shape:
            raise CaptureError(f"corrupt capture: {name} dimensions differ from {pattern.format(0)}")
        stack[i] = arr
    return stack


def read_capture_dir(path: str | Path) -> SceneCapture:
    """Read a capture directory written by write_capture_dir."""
    root = os.fspath(path)
    if not os.path.isdir(root):
        raise CaptureError(f"corrupt capture: {root} is not a directory")
    # One scan answers every existence check. DirEntry.is_file follows
    # symlinks, so a dangling link or a directory counts as missing.
    with os.scandir(root) as entries:
        files = {e.name for e in entries if e.is_file()}
    # Bad UTF-8 is a ValueError too; nesting past the recursion limit is a RecursionError.
    try:
        meta = json.loads(_read_bytes(root, files, "capture.json"))
    except (ValueError, RecursionError):
        raise CaptureError("corrupt capture: capture.json is not valid JSON") from None
    if not isinstance(meta, dict):
        raise CaptureError("corrupt capture: capture.json must hold an object")
    keys = set(meta) - {"location"}
    if keys != _META_REQUIRED:
        raise CaptureError("corrupt capture: capture.json has wrong fields")
    for key in ("frame_count", "frame_rate", "height", "sample_rate", "timestamp_unix", "width"):
        if not _is_int(meta[key]):
            raise CaptureError(f"corrupt capture: {key} must be an integer")
    if not isinstance(meta["device_id"], str):
        raise CaptureError("corrupt capture: device_id must be a string")
    ppr = meta["pixels_per_radian"]
    if not isinstance(ppr, (int, float)) or isinstance(ppr, bool):
        raise CaptureError("corrupt capture: pixels_per_radian must be a number")
    n = meta["frame_count"]
    if n <= 0:
        raise CaptureError("corrupt capture: frame_count must be positive")

    location = None
    if "location" in meta:
        loc = meta["location"]
        if (not isinstance(loc, dict) or set(loc) != {"lat_microdeg", "lon_microdeg"}
                or not all(_is_int(v) for v in loc.values())):
            raise CaptureError("corrupt capture: malformed location")
        location = (loc["lat_microdeg"], loc["lon_microdeg"])

    frames = _read_stack(root, files, "frame_{:04d}.pgm", n, decode_frame_pgm)
    depth_maps = _read_stack(root, files, "depth_{:04d}.rsd", n,
                             lambda data: _decode_grid(_MAGIC_DEPTH, data, "depth"))
    thermal = _decode_grid(_MAGIC_THERMAL, _read_bytes(root, files, "thermal.rst"), "thermal")
    sample_rate, audio = _decode_audio(_read_bytes(root, files, "audio.rsa"))
    yaw_rates = _decode_imu(_read_bytes(root, files, "imu.rsi"))

    capture = SceneCapture(
        frames=frames,
        depth_maps=depth_maps,
        thermal=thermal,
        audio=audio,
        sample_rate=sample_rate,
        yaw_rates=yaw_rates,
        frame_rate=meta["frame_rate"],
        device_id=meta["device_id"],
        timestamp_unix=meta["timestamp_unix"],
        location=location,
        pixels_per_radian=ppr,
    )
    if (capture.width, capture.height) != (meta["width"], meta["height"]):
        raise CaptureError("corrupt capture: metadata dims disagree with frames")
    if capture.sample_rate != meta["sample_rate"]:
        raise CaptureError("corrupt capture: metadata sample_rate disagrees with audio")
    return capture
