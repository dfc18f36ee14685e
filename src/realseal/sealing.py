"""Hashing, signing, and verification of sealed bundles.

Algorithms are fixed rather than negotiated: SHA-256 binds the image bytes
into the manifest, and Ed25519 (RFC 8032) signs the canonical manifest
bytes. The signature covers the manifest only; the image is bound through
its digest field, so manifest integrity remains checkable without the image.

Trust boundary: key generation, key-file I/O and a DeviceKeyPair are the
only holders of the 32-byte secret seed. A pair is made from its device id
and seed alone: it checks both, builds its private-key object from the seed
once, takes its public key from that object, and seal() signs with that
object; neither the seed nor the key object appears in a pair's repr or
takes part in its equality, and nothing here ever logs or prints them.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import ManifestError, RealSealError, RegistryError, SidecarError
from .manifest import (
    MAX_MANIFEST_LEN,
    ManifestScores,
    RealismManifest,
    _as_bytes,
    _check_device_id,
    _require_bytes,
    canonical_encode,
    parse_manifest,
    quantize_score,
)
from .registry import _SMALL_ORDER_KEYS, TRUSTED, Registry, lookup

if TYPE_CHECKING:  # scoring imports numpy, which nothing here needs
    from collections.abc import Callable

    from .scoring import DimensionScores

_SIDECAR_MAGIC = b"RSL1"
SIGNATURE_LEN = 64
SEED_LEN = 32
# magic, manifest length, the longest manifest, signature length, signature
_MAX_SIDECAR_LEN = 8 + MAX_MANIFEST_LEN + 4 + SIGNATURE_LEN
_MAX_KEY_FILE_LEN = 1024
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

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
    public_key: bytes = field(init=False)
    # built once from secret_seed, so seal() does not re-derive it per call
    _private_key: Ed25519PrivateKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_device_id(self.device_id, RealSealError)
        key = _key_of_seed(self.secret_seed)
        object.__setattr__(self, "secret_seed", bytes(self.secret_seed))
        object.__setattr__(self, "public_key", key.public_key().public_bytes_raw())
        object.__setattr__(self, "_private_key", key)

    def __repr__(self) -> str:  # never expose the seed in logs/tracebacks
        return f"DeviceKeyPair(device_id={self.device_id!r}, public_key={self.public_key.hex()})"

    def __reduce__(self):
        # the key object does not pickle; a copy rebuilds it from the seed
        return DeviceKeyPair, (self.device_id, self.secret_seed)


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


def _seed_of_hex(text: str, what: str, error: type[Exception]) -> bytes:
    """The seed that text spells as exactly 64 hex digits, with nothing between them."""
    if len(text) != 2 * SEED_LEN or not _HEX_DIGITS.issuperset(text):
        raise error(f"{what} must be {2 * SEED_LEN} hex chars")
    return bytes.fromhex(text)


def _key_of_seed(seed: object) -> Ed25519PrivateKey:
    """The private key of a 32-octet bytes or bytearray seed."""
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_LEN:
        raise RealSealError(f"seed must be exactly {SEED_LEN} octets")
    return Ed25519PrivateKey.from_private_bytes(bytes(seed))


keygen = DeviceKeyPair  # keygen(device_id, seed): the keypair of a 32-octet seed


def sign_data(secret_seed: bytes, data: bytes) -> bytes:
    """Detached Ed25519 signature (64 octets, deterministic)."""
    return _key_of_seed(secret_seed).sign(data)


def verify_data(public_key: bytes, data: bytes, signature: bytes) -> bool:
    """True iff signature is a valid Ed25519 signature of data under the key.

    False for an argument that is not bytes-like and for a small-order key.
    """
    public_key, data, signature = map(_as_bytes, (public_key, data, signature))
    if None in (public_key, data, signature) or public_key in _SMALL_ORDER_KEYS:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
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
    quantized = {name: quantize_score(v) for name, v in dimension_scores.as_dict().items()}
    scores = ManifestScores(**quantized, overall=quantize_score(overall))
    manifest = RealismManifest(
        device_id=identity.device_id,
        timestamp_unix=timestamp_unix,
        scores=scores,
        image_sha256=image_hash(image_bytes),
        location=location,
    )
    signature = identity._private_key.sign(canonical_encode(manifest))
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


def _split_sidecar(data: bytes) -> tuple[bytes, bytes]:
    """The (manifest bytes, signature) a sidecar holds; strict, no trailing."""
    data = _require_bytes(data, "sidecar", SidecarError)
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
    return manifest_bytes, data[end_manifest + 4:]


def read_sidecar(data: bytes) -> tuple[RealismManifest, bytes]:
    """Parse sidecar bytes into (manifest, signature); strict, no trailing."""
    manifest_bytes, signature = _split_sidecar(data)
    return parse_manifest(manifest_bytes), signature


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify(image_bytes: bytes, sidecar_bytes: bytes, registry: Registry) -> VerificationReport:
    """Check a sealed bundle against the device registry.

    Never raises for any image or sidecar: every failure mode of those maps
    to a verdict, with precedence malformed > unknown_device >
    tampered_manifest > tampered_image > untrusted_device > authentic. An
    image or sidecar that is not bytes, bytearray or an open memoryview is
    malformed. A registry that is not a Registry is the caller's error and
    raises RegistryError.
    """
    # a bytes image is not copied: bytes() of bytes is the object itself
    image = _as_bytes(image_bytes)
    return _verify_image_hash(None if image is None else lambda: image_hash(image),
                              sidecar_bytes, registry)


def _verify_image_hash(image_sha256: Callable[[], str] | None, sidecar_bytes: bytes,
                       registry: Registry) -> VerificationReport:
    """verify() of an image given by a function that returns its SHA-256 hex
    digest, so that a caller can hash an image it never holds whole. It is
    called only once the sidecar parses, so a malformed sidecar costs no hash;
    None stands for an image that is not bytes-like."""
    if not isinstance(registry, Registry):
        raise RegistryError(f"registry must be Registry, not {type(registry).__name__}")
    if image_sha256 is None:
        return _MALFORMED_REPORT
    try:
        manifest_bytes, signature = _split_sidecar(sidecar_bytes)
        manifest = parse_manifest(manifest_bytes)
    except (SidecarError, ManifestError):
        return _MALFORMED_REPORT

    hash_match = image_sha256() == manifest.image_sha256
    entry = lookup(registry, manifest.device_id)
    if entry is None:
        return VerificationReport(
            signature_valid=False, image_hash_match=hash_match, device_trusted=False,
            manifest=manifest, verdict=VERDICT_UNKNOWN_DEVICE)

    # parse_manifest accepts only the canonical encoding of the manifest it
    # returns, so these bytes are the payload seal() signed
    signature_valid = verify_data(bytes.fromhex(entry.public_key_hex), manifest_bytes, signature)
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
    """Load a secret key file; the device id is the file stem.

    A key file is 64 hex chars and an LF; whitespace around the hex (not
    between its digits) is allowed, up to _MAX_KEY_FILE_LEN bytes in all.
    Only that many bytes and one more are read, so a longer file is refused
    without being read whole.
    """
    p = Path(path)
    try:
        with p.open("rb") as f:
            data = f.read(_MAX_KEY_FILE_LEN + 1)
        text = data.decode("ascii").strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise RealSealError(f"cannot read secret key file {p}: {exc}") from None
    if len(data) > _MAX_KEY_FILE_LEN:
        raise RealSealError(f"secret key file {p} is longer than {_MAX_KEY_FILE_LEN} bytes")
    return DeviceKeyPair(p.stem, _seed_of_hex(text, f"secret key file {p}", RealSealError))
