"""On-disk capture format.

A capture directory holds one file, ``capture.rsc``:

* magic ``RSC1``, then a u32le length n
* n bytes of canonical JSON metadata: dims, rates, identity,
  pixels-per-radian, ``sample_count`` and the thermal map's
  ``thermal_height`` and ``thermal_width``
* 0-3 zero bytes, so that the float arrays start 4-aligned
* float32le arrays, row-major and back to back: the depth at frame 0
  (height x width), thermal, audio (sample_count) and the IMU yaw rates
  (frame_count)
* the frames as uint8, frame_count x height x width, last

There is no trailing byte. Every size follows from the metadata, so the
reader reads the header and the metadata first and checks the file's exact
length against them before it reads the rest: a file of any other length is
refused without being read. Metadata longer than the longest canonical one
is refused before it is read. The reader checks only the sizes and the shape
of the metadata; SceneCapture checks every other field. A file reads only if
it is exactly the bytes the writer writes for the capture it holds. An
accepted file is read whole into one buffer, and every array is a read-only
view of it. Two writes of the same capture are byte-identical. Directories in
the older per-file layout (``capture.json``, ``frame_%04d.pgm``, ...) no longer read.
"""

from __future__ import annotations

import errno
import io
import json
import math
import os
import stat
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import CaptureError
from .manifest import _ID_MAX, _INT64_MAX, LAT_MICRODEG_MAX, LON_MICRODEG_MAX, _is_int
from .scene import SceneCapture

CAPTURE_FILE = "capture.rsc"
_MAGIC = b"RSC1"
_MISSING = (f"corrupt capture: missing {CAPTURE_FILE}; directories in the older "
            "per-file layout (capture.json, frame_%04d.pgm, ...) no longer read")
_SIZE_MISMATCH = f"corrupt capture: {CAPTURE_FILE} size mismatch"


def encode_frame_pgm(frame: np.ndarray) -> bytes:
    """Binary (P5) PGM encoding of a 2-D uint8 frame; deterministic, used as
    the sealed payload."""
    frame = np.asarray(frame)
    if frame.dtype != np.uint8 or frame.ndim != 2:
        raise CaptureError("PGM frame must be a 2-D uint8 array")
    height, width = frame.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + frame.tobytes()


# The metadata's scalar fields, each with its longest value, which sizes
# _MAX_META_LEN: the longest id, integers at 2**63 - 1 and a float of the
# longest repr (17 digits and a 3-digit exponent). SceneCapture checks them.
_FIELDS = {"device_id": "-" * _ID_MAX, "frame_rate": _INT64_MAX,
           "pixels_per_radian": sys.float_info.min, "sample_rate": _INT64_MAX,
           "timestamp_unix": _INT64_MAX}
# Sizes that shape the arrays, checked here before any array exists.
_DIMS = ("frame_count", "height", "width", "sample_count", "thermal_height", "thermal_width")
_LOCATION = ("lat_microdeg", "lon_microdeg")
# The float32 arrays, in file order.
_ARRAYS = ("depth_maps", "thermal", "audio", "yaw_rates")


def _encode_meta(meta: dict) -> bytes:
    """The canonical JSON of a metadata dict: sorted keys, no spaces."""
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


# The longest canonical metadata. Longer metadata cannot be canonical, so the
# reader refuses it before reading it.
_MAX_META_LEN = len(_encode_meta({
    **_FIELDS, **dict.fromkeys(_DIMS, _INT64_MAX),
    "location": dict(zip(_LOCATION, (-LAT_MICRODEG_MAX, -LON_MICRODEG_MAX)))}))


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


def _header(capture: SceneCapture) -> bytes:
    """capture.rsc up to the arrays: magic, u32le length, canonical metadata, zero pad."""
    meta = {k: getattr(capture, k) for k in _FIELDS}
    meta.update(zip(_DIMS, (*capture.frames.shape, capture.audio.size, *capture.thermal.shape)))
    if capture.location is not None:
        meta["location"] = dict(zip(_LOCATION, capture.location))
    text = _encode_meta(meta)
    return _MAGIC + struct.pack("<I", len(text)) + text + bytes(-len(text) % 4)


def write_capture_dir(capture: SceneCapture, path: str | Path) -> Path:
    """Write a capture directory; returns its path."""
    root = os.fspath(path)
    os.makedirs(root, exist_ok=True)
    _overwrite(os.path.join(root, CAPTURE_FILE), _header(capture),
               *(np.ascontiguousarray(getattr(capture, a), dtype="<f4") for a in _ARRAYS),
               np.ascontiguousarray(capture.frames))
    return Path(root)


def _open_file(path: str) -> io.FileIO:
    """path, open unbuffered for reading; a path that is no regular file is
    missing.

    O_NONBLOCK keeps the open of a FIFO from waiting for a writer.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError as exc:
        if exc.errno in (errno.ENOENT, errno.ELOOP):  # also a dangling or looping link
            raise CaptureError(_MISSING) from None
        raise
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise CaptureError(_MISSING)
    return open(fd, "rb", buffering=0)


def _read_meta(file: io.FileIO, size: int) -> tuple[dict, int]:
    """The metadata of a capture.rsc of size bytes open as file, read from its
    start, with its fields and sizes checked, and the offset of the arrays."""
    head = file.read(8)
    if len(head) < 8 or head[:4] != _MAGIC:
        raise CaptureError(f"corrupt capture: bad {CAPTURE_FILE} magic")
    (n,) = struct.unpack_from("<I", head, 4)
    start = 8 + n + -n % 4
    if start > size:
        raise CaptureError("corrupt capture: metadata runs past the end of the file")
    if n > _MAX_META_LEN:
        raise CaptureError(f"corrupt capture: metadata longer than {_MAX_META_LEN} bytes")
    text = file.read(n)
    if len(text) != n:
        raise CaptureError(_SIZE_MISMATCH)
    # Bad UTF-8 is a ValueError too; nesting past the recursion limit is a RecursionError.
    try:
        meta = json.loads(text)
    except (ValueError, RecursionError):
        raise CaptureError("corrupt capture: metadata is not valid JSON") from None
    if not isinstance(meta, dict):
        raise CaptureError("corrupt capture: metadata must be a JSON object")
    if set(meta) - {"location"} != {*_DIMS, *_FIELDS}:
        raise CaptureError("corrupt capture: metadata has wrong fields")
    for key in _DIMS:
        if not _is_int(meta[key]):
            raise CaptureError(f"corrupt capture: {key} must be an integer")
        if meta[key] <= 0:
            raise CaptureError(f"corrupt capture: {key} must be positive")
    if "location" in meta:
        loc = meta["location"]
        if not isinstance(loc, dict) or set(loc) != {*_LOCATION}:
            raise CaptureError("corrupt capture: malformed location")
    return meta, start


def read_capture_dir(path: str | Path) -> SceneCapture:
    """Read a capture directory written by write_capture_dir."""
    root = os.fspath(path)
    if not os.path.isdir(root):
        raise CaptureError(f"corrupt capture: {root} is not a directory")
    with _open_file(os.path.join(root, CAPTURE_FILE)) as file:
        size = os.fstat(file.fileno()).st_size
        meta, offset = _read_meta(file, size)
        f, h, w, samples, th, tw = (meta[k] for k in _DIMS)
        shapes = ((1, h, w), (th, tw), (samples,), (f,))
        counts = [math.prod(s) for s in shapes]
        # Python ints: a huge frame_count is a size mismatch, never an allocation.
        if size != offset + 4 * sum(counts) + f * h * w:
            raise CaptureError(_SIZE_MISMATCH)
        # Only a file of the declared size is read, whole, into the one buffer
        # every array views; a file that changed since the check is refused.
        file.seek(0)
        data = file.read()
    if len(data) != size:
        raise CaptureError(_SIZE_MISMATCH)
    floats = {}
    for name, shape, count in zip(_ARRAYS, shapes, counts):
        view = np.frombuffer(data, "<f4", count, offset).reshape(shape)
        floats[name] = view.astype(np.float32, copy=False)
        offset += 4 * count
    loc = meta.get("location")
    capture = SceneCapture(
        frames=np.frombuffer(data, np.uint8, f * h * w, offset).reshape(f, h, w),
        location=None if loc is None else tuple(map(loc.get, _LOCATION)),
        **floats, **{k: meta[k] for k in _FIELDS})
    # After SceneCapture, so that an ill-typed field is named. The header holds
    # its own length, so a file that starts with it has it as its whole header.
    if not data.startswith(_header(capture)):
        raise CaptureError("corrupt capture: metadata is not canonical JSON")
    return capture
