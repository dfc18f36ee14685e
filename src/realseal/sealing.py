"""Hashing, signing, and verification of sealed bundles.

Algorithms are fixed rather than negotiated: SHA-256 binds the image bytes
into the manifest, and Ed25519 (RFC 8032) signs the canonical manifest
bytes. The signature covers the manifest only; the image is bound through
its digest field, so manifest integrity remains checkable without the image.

Trust boundary: seal() and key generation are the only operations that touch
the 32-byte secret seed; nothing here ever logs or prints it.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import ManifestError, RealSealError, SidecarError
from .manifest import (
    BYTES_LIKE,
    DEVICE_ID_RE,
    ManifestScores,
    RealismManifest,
    _require_bytes,
    canonical_encode,
    parse_manifest,
    quantize_score,
)
from .registry import TRUSTED, Registry, lookup
from .scoring import DimensionScores

_SIDECAR_MAGIC = b"RSL1"
SIGNATURE_LEN = 64
SEED_LEN = 32

VERDICT_AUTHENTIC = "authentic"
VERDICT_TAMPERED_IMAGE = "tampered_image"
VERDICT_TAMPERED_MANIFEST = "tampered_manifest"
VERDICT_UNTRUSTED_DEVICE = "untrusted_device"
VERDICT_UNKNOWN_DEVICE = "unknown_device"
VERDICT_MALFORMED = "malformed"


@dataclass(frozen=True)
class DeviceKeyPair:
    device_id: str
    secret_seed: bytes
    public_key: bytes

    def __repr__(self) -> str:  # never expose the seed in logs/tracebacks
        return f"DeviceKeyPair(device_id={self.device_id!r}, public_key={self.public_key.hex()})"


@dataclass(frozen=True)
class SealedBundle:
    image_bytes: bytes
    manifest: RealismManifest
    signature: bytes


@dataclass(frozen=True)
class VerificationReport:
    signature_valid: bool
    image_hash_match: bool
    device_trusted: bool
    manifest: RealismManifest | None
    verdict: str


_MALFORMED_REPORT = VerificationReport(
    signature_valid=False, image_hash_match=False, device_trusted=False,
    manifest=None, verdict=VERDICT_MALFORMED)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def image_hash(data: bytes) -> str:
    """SHA-256 hex digest of the image payload."""
    return hashlib.sha256(data).hexdigest()


def keygen(device_id: str, seed: bytes) -> DeviceKeyPair:
    """Deterministic Ed25519 keypair from a 32-octet seed."""
    if not DEVICE_ID_RE.match(device_id):
        raise RealSealError("device_id must be 1-64 chars of [A-Za-z0-9_-]")
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_LEN:
        raise RealSealError(f"seed must be exactly {SEED_LEN} octets")
    seed = bytes(seed)
    public = Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()
    return DeviceKeyPair(device_id=device_id, secret_seed=seed, public_key=public)


def sign_data(secret_seed: bytes, data: bytes) -> bytes:
    """Detached Ed25519 signature (64 octets, deterministic)."""
    if len(secret_seed) != SEED_LEN:
        raise RealSealError(f"seed must be exactly {SEED_LEN} octets")
    return Ed25519PrivateKey.from_private_bytes(bytes(secret_seed)).sign(data)


def verify_data(public_key: bytes, data: bytes, signature: bytes) -> bool:
    """True iff signature is a valid Ed25519 signature of data under the key."""
    try:
        Ed25519PublicKey.from_public_bytes(bytes(public_key)).verify(bytes(signature), data)
        return True
    except (InvalidSignature, ValueError):
        return False


# ---------------------------------------------------------------------------
# The seal
# ---------------------------------------------------------------------------

def seal(
    image_bytes: bytes,
    dimension_scores: DimensionScores,
    overall: float,
    identity: DeviceKeyPair,
    timestamp_unix: int,
    location: tuple[int, int] | None = None,
) -> SealedBundle:
    """Build the manifest for an image and sign its canonical bytes."""
    scores = ManifestScores(
        depth=quantize_score(dimension_scores.depth),
        thermal=quantize_score(dimension_scores.thermal),
        audio_sync=quantize_score(dimension_scores.audio_sync),
        motion=quantize_score(dimension_scores.motion),
        overall=quantize_score(overall),
    )
    manifest = RealismManifest(
        device_id=identity.device_id,
        timestamp_unix=timestamp_unix,
        scores=scores,
        image_sha256=image_hash(image_bytes),
        location=location,
    )
    signature = sign_data(identity.secret_seed, canonical_encode(manifest))
    return SealedBundle(image_bytes=bytes(image_bytes), manifest=manifest, signature=signature)


# ---------------------------------------------------------------------------
# Sidecar container (.rsl)
# ---------------------------------------------------------------------------

def write_sidecar(bundle: SealedBundle) -> bytes:
    """Serialize manifest + signature: magic, u32be length-prefixed fields."""
    manifest_bytes = canonical_encode(bundle.manifest)
    if len(bundle.signature) != SIGNATURE_LEN:
        raise SidecarError(f"signature must be {SIGNATURE_LEN} octets")
    return (
        _SIDECAR_MAGIC
        + struct.pack(">I", len(manifest_bytes))
        + manifest_bytes
        + struct.pack(">I", SIGNATURE_LEN)
        + bundle.signature
    )


def read_sidecar(data: bytes) -> tuple[RealismManifest, bytes]:
    """Parse sidecar bytes into (manifest, signature); strict, no trailing."""
    data = _require_bytes(data, SidecarError, "sidecar")
    if len(data) < 4:
        raise SidecarError("truncated sidecar")
    if data[:4] != _SIDECAR_MAGIC:
        raise SidecarError("bad magic")
    if len(data) < 8:
        raise SidecarError("truncated sidecar")
    (manifest_len,) = struct.unpack(">I", data[4:8])
    end_manifest = 8 + manifest_len
    if len(data) < end_manifest + 4:
        raise SidecarError("truncated sidecar: declared manifest length exceeds buffer")
    manifest_bytes = data[8:end_manifest]
    (sig_len,) = struct.unpack(">I", data[end_manifest:end_manifest + 4])
    if sig_len != SIGNATURE_LEN:
        raise SidecarError(f"signature length must be {SIGNATURE_LEN}")
    end_sig = end_manifest + 4 + sig_len
    if len(data) < end_sig:
        raise SidecarError("truncated sidecar: signature exceeds buffer")
    if len(data) != end_sig:
        raise SidecarError("trailing bytes after signature")
    manifest = parse_manifest(manifest_bytes)
    return manifest, data[end_manifest + 4:end_sig]


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify(image_bytes: bytes, sidecar_bytes: bytes, registry: Registry) -> VerificationReport:
    """Check a sealed bundle against the device registry.

    Never raises: every failure mode maps to a verdict, with precedence
    malformed > unknown_device > tampered_manifest > tampered_image >
    untrusted_device > authentic. An image or sidecar that is not bytes,
    bytearray or memoryview is malformed.
    """
    if not isinstance(image_bytes, BYTES_LIKE):
        return _MALFORMED_REPORT
    try:
        manifest, signature = read_sidecar(sidecar_bytes)
    except (SidecarError, ManifestError):
        return _MALFORMED_REPORT

    # bytes() of bytes is the object itself; a strided memoryview is copied,
    # since hashlib takes only contiguous buffers
    hash_match = image_hash(bytes(image_bytes)) == manifest.image_sha256
    entry = lookup(registry, manifest.device_id)
    if entry is None:
        return VerificationReport(
            signature_valid=False, image_hash_match=hash_match, device_trusted=False,
            manifest=manifest, verdict=VERDICT_UNKNOWN_DEVICE)

    signature_valid = verify_data(
        bytes.fromhex(entry.public_key_hex), canonical_encode(manifest), signature)
    trusted = entry.status == TRUSTED

    if not signature_valid:
        verdict = VERDICT_TAMPERED_MANIFEST
    elif not hash_match:
        verdict = VERDICT_TAMPERED_IMAGE
    elif not trusted:
        verdict = VERDICT_UNTRUSTED_DEVICE
    else:
        verdict = VERDICT_AUTHENTIC
    return VerificationReport(
        signature_valid=signature_valid, image_hash_match=hash_match,
        device_trusted=trusted, manifest=manifest, verdict=verdict)


# ---------------------------------------------------------------------------
# Key files: <device_id>.sk / <device_id>.pk, 64 hex chars each
# ---------------------------------------------------------------------------

def write_keypair_files(pair: DeviceKeyPair, directory: str | Path,
                        force: bool = False) -> tuple[Path, Path]:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    sk = out / f"{pair.device_id}.sk"
    pk = out / f"{pair.device_id}.pk"
    if not force:
        for f in (sk, pk):
            if f.exists():
                raise RealSealError(f"refusing to overwrite {f} (use force)")
    # Owner-only before the seed reaches the file: the mode given to os.open
    # covers a new file, and fchmod one that already exists.
    with open(os.open(sk, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600), "w",
              encoding="ascii") as f:
        os.fchmod(f.fileno(), 0o600)
        f.write(pair.secret_seed.hex() + "\n")
    pk.write_text(pair.public_key.hex() + "\n", encoding="ascii")
    return sk, pk


def load_keypair_file(path: str | Path) -> DeviceKeyPair:
    """Load a secret key file; the device id is the file stem."""
    p = Path(path)
    try:
        text = p.read_text(encoding="ascii").strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise RealSealError(f"cannot read secret key file {p}: {exc}") from None
    try:
        seed = bytes.fromhex(text)
    except ValueError:
        raise RealSealError(f"secret key file {p} is not valid hex") from None
    if len(seed) != SEED_LEN:
        raise RealSealError(f"secret key file {p} must hold 32 octets of hex")
    return keygen(p.stem, seed)
