"""Command-line interface: realseal keygen|simulate|seal|verify|inspect|bench.

Exit codes: 0 success / authentic, 1 verification or data failure, 2 usage
error. Text output is human-oriented; only --json output is contract-stable.
No input file is read whole at any size: verify reads at most one byte past
the longest sidecar, refuses a registry over 64 MiB before reading it, and
hashes the image in chunks once the sidecar parses; a secret key file is read
up to 1,025 bytes.

simulate, seal and bench import the numpy-backed modules (capture_io, scene,
scoring) when they run, so keygen, verify and inspect never load numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import BinaryIO

from .errors import RealSealError, RegistryError
from .manifest import _check_device_id, canonical_encode
from .registry import load_registry
from .scenarios import SCENARIO_NAMES
from .sealing import (
    _MAX_SIDECAR_LEN,
    SEED_LEN,
    VERDICT_AUTHENTIC,
    _seed_of_hex,
    _verify_image_hash,
    keygen,
    load_keypair_file,
    read_sidecar,
    seal,
    write_keypair_files,
    write_sidecar,
)


# A registry line is at most 138 bytes, so this holds over 480,000 entries:
# over 7 times the benchmark's 8.6 MB, 10^5-device registry. A larger file is
# a data failure, refused before it is read, not a MemoryError.
_MAX_REGISTRY_LEN = 64 * 2**20
_HASH_CHUNK = 2**16


class UsageError(Exception):
    """Bad invocation: maps to exit code 2."""


def _uint64(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _seed_range(text: str) -> range:
    """'N' or 'A..B' (inclusive); empty ranges are a usage error. A range, not
    a list, so that no seed list is built before the first row is scored."""
    lo, sep, hi = text.partition("..")
    try:
        first = int(lo)
        last = int(hi) if sep else first
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range: {text!r}")
    if first < 0 or last < first or last >= 2**64:
        raise argparse.ArgumentTypeError(f"empty or out-of-range seed range: {text!r}")
    return range(first, last + 1)


def _open_input_file(path: str, what: str) -> BinaryIO:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} file not found: {path}")
    return p.open("rb")


def _read_sidecar_file(path: str) -> bytes:
    # One byte past the longest sidecar: a longer file is as malformed as its
    # prefix, so it is refused without being read whole.
    with _open_input_file(path, "sidecar") as f:
        return f.read(_MAX_SIDECAR_LEN + 1)


def _read_registry_file(path: str) -> bytes:
    """The registry file's bytes; a larger file than _MAX_REGISTRY_LEN is
    refused before it is read."""
    with _open_input_file(path, "registry") as f:
        if os.fstat(f.fileno()).st_size > _MAX_REGISTRY_LEN:
            raise RegistryError(f"registry file {path} is larger than {_MAX_REGISTRY_LEN} bytes")
        return f.read()


def _image_file_hash(f: BinaryIO) -> str:
    """The SHA-256 hex digest of the open image file, read in chunks, never whole."""
    digest = hashlib.sha256()
    while chunk := f.read(_HASH_CHUNK):
        digest.update(chunk)
    return digest.hexdigest()


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_keygen(args: argparse.Namespace) -> int:
    _check_device_id(args.device_id, UsageError)
    if args.seed is not None:
        seed = _seed_of_hex(args.seed, "--seed", UsageError)
    else:
        seed = os.urandom(SEED_LEN)
    pair = keygen(args.device_id, seed)
    sk, pk = write_keypair_files(pair, args.out, force=args.force)
    print(f"wrote {sk} and {pk}")
    print(f"public key: {pair.public_key.hex()}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .capture_io import write_capture_dir
    from .scene import generate_scene

    capture = generate_scene(args.scenario, args.seed)
    out = write_capture_dir(capture, args.out)
    print(f"wrote {args.scenario} capture (seed {args.seed}) to {out}")
    return 0


def _score_row(scenario: str, seed: int) -> dict:
    from .scene import generate_scene
    from .scoring import score_capture

    dims, overall = score_capture(generate_scene(scenario, seed))
    row = {"scenario": scenario, "seed": seed, "overall": round(overall, 6)}
    row.update({k: round(v, 6) for k, v in dims.as_dict().items()})
    return row


def _cmd_seal(args: argparse.Namespace) -> int:
    key_path = Path(args.key)
    if not key_path.is_file():
        raise UsageError(f"key file not found: {args.key}")
    from .capture_io import encode_frame_pgm, read_capture_dir
    from .scoring import score_capture

    pair = load_keypair_file(key_path)
    capture = read_capture_dir(args.capture_dir)
    dims, overall = score_capture(capture)
    image = encode_frame_pgm(capture.frames[0])
    bundle = seal(image, dims, overall, pair, capture.timestamp_unix, capture.location)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    image_path = out / "image.pgm"
    sidecar_path = out / "image.rsl"
    image_path.write_bytes(image)
    sidecar_path.write_bytes(write_sidecar(bundle))

    if args.json:
        print(canonical_encode(bundle.manifest).decode("utf-8"))
    else:
        print(f"sealed {image_path} (+ {sidecar_path}) as {pair.device_id}")
        for name, value in dims.as_dict().items():
            print(f"  {name:<10} {value:.4f}")
        print(f"  {'overall':<10} {overall:.4f}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # The image is opened first, so that a missing one is a usage error, but
    # hashed only once the sidecar parses.
    with _open_input_file(args.image, "image") as image:
        sidecar = _read_sidecar_file(args.sidecar)
        registry = load_registry(_read_registry_file(args.registry))
        report = _verify_image_hash(lambda: _image_file_hash(image), sidecar, registry)
    if args.json:
        manifest_obj = (json.loads(canonical_encode(report.manifest))
                        if report.manifest is not None else None)
        print(_dump_json({
            "verdict": report.verdict,
            "signature_valid": report.signature_valid,
            "image_hash_match": report.image_hash_match,
            "device_trusted": report.device_trusted,
            "manifest": manifest_obj,
        }))
    else:
        print(f"verdict: {report.verdict}")
        print(f"  signature valid:  {report.signature_valid}")
        print(f"  image hash match: {report.image_hash_match}")
        print(f"  device trusted:   {report.device_trusted}")
        if report.manifest is not None:
            print(f"  device: {report.manifest.device_id}")
    return 0 if report.verdict == VERDICT_AUTHENTIC else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    sidecar = _read_sidecar_file(args.sidecar)
    manifest, signature = read_sidecar(sidecar)
    if args.json:
        print(canonical_encode(manifest).decode("utf-8"))
        return 0
    print(f"device_id:      {manifest.device_id}")
    print(f"timestamp_unix: {manifest.timestamp_unix}")
    if manifest.location is not None:
        print(f"location:       {manifest.location[0]} {manifest.location[1]} (microdeg)")
    s = manifest.scores
    print(f"scores (milli): depth={s.depth} thermal={s.thermal} "
          f"audio_sync={s.audio_sync} motion={s.motion} overall={s.overall}")
    print(f"image_sha256:   {manifest.image_sha256}")
    print(f"signature:      {signature.hex()}")
    print("note: signature not verified; use 'realseal verify'")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = [_score_row(scenario, seed)
            for seed in args.seed for scenario in SCENARIO_NAMES]
    means = {
        scenario: round(
            sum(r["overall"] for r in rows if r["scenario"] == scenario) / len(args.seed), 6)
        for scenario in SCENARIO_NAMES
    }
    if args.json:
        print(_dump_json({"rows": rows, "means": means}))
        return 0
    header = f"{'scenario':<14} {'seed':>6} {'depth':>8} {'thermal':>8} {'avsync':>8} {'motion':>8} {'overall':>8}"
    print(header)
    for r in rows:
        print(f"{r['scenario']:<14} {r['seed']:>6} {r['depth']:>8.4f} {r['thermal']:>8.4f} "
              f"{r['audio_sync']:>8.4f} {r['motion']:>8.4f} {r['overall']:>8.4f}")
    print("means:", "  ".join(f"{k}={v:.4f}" for k, v in means.items()))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realseal",
        description="Simulate multisensory captures, score their realism, "
                    "and seal/verify images with signed score manifests.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="create a device keypair (<id>.sk / <id>.pk)")
    p.add_argument("device_id")
    p.add_argument("--seed", help="64 hex chars; omit to draw from OS entropy")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--force", action="store_true", help="overwrite existing key files")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("simulate", help="synthesize a scenario capture directory")
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIO_NAMES))
    p.add_argument("--seed", type=_uint64, default=0)
    p.add_argument("--out", required=True, help="capture directory to write")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("seal", help="score a capture and sign its frame-0 image")
    p.add_argument("capture_dir")
    p.add_argument("--key", required=True, help="secret key file (<device_id>.sk)")
    p.add_argument("--out", default=".", help="directory for image.pgm + image.rsl")
    p.add_argument("--json", action="store_true", help="emit the manifest as JSON")
    p.set_defaults(func=_cmd_seal)

    p = sub.add_parser("verify", help="verify an image against its sidecar and a registry")
    p.add_argument("image")
    p.add_argument("sidecar")
    p.add_argument("--registry", required=True, help="registry file (registry.rsr)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("inspect", help="print a sidecar's manifest without verifying")
    p.add_argument("sidecar")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("bench", help="score all scenarios over a seed range")
    p.add_argument("--seed", type=_seed_range, default=range(1, 21),
                   help="single seed N or inclusive range A..B (default 1..20)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except RealSealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
