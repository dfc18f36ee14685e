import copy
import dataclasses
import os
import pickle
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from realseal import (
    TRUSTED,
    DeviceKeyPair,
    DimensionScores,
    ManifestError,
    RealismManifest,
    RealSealError,
    Registry,
    RegistryEntry,
    RegistryError,
    SidecarError,
    canonical_encode,
    image_hash,
    keygen,
    read_sidecar,
    revoke,
    seal,
    verify,
    write_sidecar,
)
from realseal import sealing
from realseal.manifest import MAX_MANIFEST_LEN, ManifestScores
from realseal.rng import fill_u64
from realseal.registry import _SMALL_ORDER_KEYS
from realseal.sealing import (
    SealedBundle,
    load_keypair_file,
    sign_data,
    verify_data,
    write_keypair_files,
)

import oracles

# RFC 8032 section 7.1 Ed25519 test vectors 1-3: (seed, public key, message, signature)
RFC8032_VECTORS = [
    ("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
     "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8"
     "821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"),
    ("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
     "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085a"
     "c1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"),
    ("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff"
     "9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"),
]

SOME_SCORES = DimensionScores(depth=0.998, thermal=0.97, audio_sync=1.0, motion=1.0)


def _bundle(device_pair):
    return seal(b"image payload", SOME_SCORES, 0.99, device_pair, 1700000000,
                location=(12345678, -98765432))


# ---------------------------------------------------------------------------
# primitives against published vectors and the RFC transcription oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed_hex,pub_hex,msg_hex,sig_hex", RFC8032_VECTORS)
def test_rfc8032_vectors(seed_hex, pub_hex, msg_hex, sig_hex):
    pair = keygen("VEC", bytes.fromhex(seed_hex))
    msg = bytes.fromhex(msg_hex)
    assert pair.public_key.hex() == pub_hex
    sig = sign_data(pair.secret_seed, msg)
    assert sig.hex() == sig_hex
    assert verify_data(pair.public_key, msg, sig)
    assert not verify_data(pair.public_key, msg + b"x", sig)


def test_signatures_agree_with_independent_rfc_transcription():
    seed = bytes(range(32))
    for msg in (b"", b"m", b"the quick brown fox"):
        pair = keygen("X-1", seed)
        assert pair.public_key == oracles.ed25519_public_key(seed)
        sig = sign_data(seed, msg)
        assert sig == oracles.ed25519_sign(seed, msg)
        assert oracles.ed25519_verify(pair.public_key, msg, sig)
        assert verify_data(pair.public_key, msg, oracles.ed25519_sign(seed, msg))


@pytest.mark.parametrize("case, accepted", [
    # Cofactorless acceptance, as RFC 8032 and the oracle; libsodium refuses
    # an identity R, so a kernel swap must decide this case first.
    ("identity-r", True),
    ("non-canonical-r", False),
    ("s-plus-l", False),
    ("s-max", False),
])
def test_verify_data_at_the_edges_agrees_with_the_rfc_oracle(case, accepted):
    seed = bytes(range(32))
    public = oracles.ed25519_public_key(seed)
    registry = Registry((RegistryEntry("EDGE-01", TRUSTED, public.hex()),))
    manifest = RealismManifest("EDGE-01", 1700000000, ManifestScores(*[1000] * 5),
                               image_hash(b"edge image"))
    payload = canonical_encode(manifest)
    signature = oracles.ed25519_edge_signatures(seed, payload)[case]
    assert oracles.ed25519_verify(public, payload, signature) is accepted
    assert verify_data(public, payload, signature) is accepted
    report = verify(b"edge image", write_sidecar(SealedBundle(b"edge image", manifest, signature)),
                    registry)
    assert report.verdict == ("authentic" if accepted else "tampered_manifest")


def test_a_small_order_key_that_a_forgery_verifies_under_is_refused():
    # R = identity, S = 0: under a key of order dividing 8 the library accepts
    # it for about one message in eight or better, so a few timestamps find one
    keys = oracles.ed25519_small_order_encodings()
    assert len(keys) == 14 and _SMALL_ORDER_KEYS == keys
    forged = (1).to_bytes(32, "little") + bytes(32)
    for key in sorted(keys):
        for timestamp in range(256):
            payload = canonical_encode(RealismManifest(
                "FORGE-01", timestamp, ManifestScores(*[1000] * 5), image_hash(b"any image")))
            try:
                Ed25519PublicKey.from_public_bytes(key).verify(forged, payload)
                break
            except InvalidSignature:
                pass
        else:
            pytest.fail(f"no forgery found under {key.hex()}")
        # verify() would call such a seal tampered_manifest; no registry holds the key
        assert verify_data(key, payload, forged) is False, key.hex()
        with pytest.raises(RegistryError, match="^public key is a small-order point$"):
            RegistryEntry("FORGE-01", TRUSTED, key.hex())


@pytest.mark.parametrize("value", ["ab" * 16, None, 5, oracles.released_memoryview()],
                         ids=["str", "None", "int", "released-memoryview"])
@pytest.mark.parametrize("position", [0, 1, 2], ids=["public_key", "data", "signature"])
def test_verify_data_refuses_what_is_not_bytes(device_pair, position, value):
    args = [device_pair.public_key, b"data", sign_data(device_pair.secret_seed, b"data")]
    assert verify_data(*args)
    args[position] = value
    assert verify_data(*args) is False


def test_verify_data_takes_no_int_key_as_a_length():
    # at 2**26, bytes(key) would allocate 64 MiB
    tracemalloc.start()
    try:
        assert verify_data(2**26, b"data", bytes(64)) is False
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sha256_published_digests():
    assert image_hash(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    assert image_hash(b"abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_bit_flip_changes_digest():
    rng = np.random.default_rng(55)
    for _ in range(20):
        data = bytes(rng.integers(0, 256, size=64, dtype=np.uint8))
        i = int(rng.integers(0, len(data)))
        mutated = bytearray(data)
        mutated[i] ^= 1 << int(rng.integers(0, 8))
        assert image_hash(bytes(mutated)) != image_hash(data)


def test_keygen_validation():
    with pytest.raises(RealSealError):
        keygen("CAM-001", bytes(31))
    with pytest.raises(RealSealError):
        keygen("bad id!", bytes(32))
    with pytest.raises(RealSealError, match="device_id"):
        keygen(5, bytes(32))
    assert keygen("CAM-001", bytes(32)) == keygen("CAM-001", bytes(32))


def test_keypair_repr_never_exposes_seed(device_pair):
    assert device_pair.secret_seed.hex() not in repr(device_pair)
    assert device_pair.secret_seed.hex() not in str(device_pair)


def test_keypair_repr_and_equality_ignore_the_key_object(device_pair):
    twin = keygen(device_pair.device_id, bytes(device_pair.secret_seed))
    assert twin._private_key is not device_pair._private_key
    assert twin == device_pair and hash(twin) == hash(device_pair)
    assert repr(twin) == repr(device_pair)
    assert "private" not in repr(device_pair).lower()
    assert keygen("CAM-001", bytes(32)) != device_pair


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
def test_keypair_copies_seal_like_the_original(device_pair, clone):
    twin = clone(device_pair)
    assert twin == device_pair
    assert _bundle(twin).signature == _bundle(device_pair).signature


def test_keypair_with_a_short_seed_is_refused(device_pair):
    with pytest.raises(RealSealError, match="32 octets"):
        DeviceKeyPair(device_pair.device_id, bytes(31))


# ---------------------------------------------------------------------------
# seal
# ---------------------------------------------------------------------------

def test_seal_signs_like_sign_data(device_pair):
    bundle = _bundle(device_pair)
    assert bundle.signature == sign_data(device_pair.secret_seed,
                                         canonical_encode(bundle.manifest))


def test_replaced_keypair_seals_under_its_new_id(device_pair):
    pair = dataclasses.replace(device_pair, device_id="CAM-002")
    bundle = _bundle(pair)
    assert bundle.manifest.device_id == "CAM-002"
    registry = Registry((RegistryEntry("CAM-002", TRUSTED, pair.public_key.hex()),))
    assert verify(bundle.image_bytes, write_sidecar(bundle), registry).verdict == "authentic"


def test_seal_then_verify_authentic(device_pair, trusted_registry):
    bundle = _bundle(device_pair)
    report = verify(bundle.image_bytes, write_sidecar(bundle), trusted_registry)
    assert report.verdict == "authentic"
    assert report.signature_valid and report.image_hash_match and report.device_trusted
    assert report.manifest == bundle.manifest


def test_seal_is_deterministic(device_pair):
    assert _bundle(device_pair).signature == _bundle(device_pair).signature


def test_seal_quantizes_scores(device_pair):
    zero = DimensionScores(depth=0.0, thermal=0.0, audio_sync=0.0, motion=0.0)
    bundle = seal(b"img", zero, 0.0, device_pair, 0)
    s = bundle.manifest.scores
    assert (s.depth, s.thermal, s.audio_sync, s.motion, s.overall) == (0, 0, 0, 0, 0)
    bundle = seal(b"img", SOME_SCORES, 0.99, device_pair, 0)
    assert bundle.manifest.scores.depth == 998
    assert bundle.manifest.scores.overall == 990
    assert bundle.manifest.image_sha256 == image_hash(b"img")


def test_score_names_line_up_across_the_seal(device_pair):
    names = [f.name for f in dataclasses.fields(DimensionScores)]
    assert [f.name for f in dataclasses.fields(ManifestScores)] == [*names, "overall"]
    dims = DimensionScores(depth=0.1, thermal=0.2, audio_sync=0.3, motion=0.4)
    scores = seal(b"img", dims, 0.5, device_pair, 0).manifest.scores
    assert dataclasses.asdict(scores) == {
        "depth": 100, "thermal": 200, "audio_sync": 300, "motion": 400, "overall": 500}


# ---------------------------------------------------------------------------
# sidecar container
# ---------------------------------------------------------------------------

def test_sidecar_round_trip(device_pair):
    bundle = _bundle(device_pair)
    data = write_sidecar(bundle)
    manifest, signature = read_sidecar(data)
    assert manifest == bundle.manifest
    assert signature == bundle.signature


def test_sidecar_bad_magic(device_pair):
    data = bytearray(write_sidecar(_bundle(device_pair)))
    data[3] = ord("2")  # RSL2
    with pytest.raises(SidecarError, match="bad magic"):
        read_sidecar(bytes(data))


def test_sidecar_truncated_length(device_pair):
    data = write_sidecar(_bundle(device_pair))
    with pytest.raises(SidecarError, match="truncated"):
        read_sidecar(data[:40])
    import struct
    huge = data[:4] + struct.pack(">I", len(data)) + data[8:]
    with pytest.raises(SidecarError, match="truncated"):
        read_sidecar(huge)


def test_sidecar_bad_signature_length(device_pair):
    bundle = _bundle(device_pair)
    with pytest.raises(SidecarError):
        write_sidecar(SealedBundle(bundle.image_bytes, bundle.manifest, b"\x00" * 63))
    data = bytearray(write_sidecar(bundle))
    sig_len_off = 8 + len(canonical_encode(bundle.manifest))
    data[sig_len_off + 3] = 63
    with pytest.raises(SidecarError, match="signature length"):
        read_sidecar(bytes(data))


def test_sidecar_trailing_bytes(device_pair):
    data = write_sidecar(_bundle(device_pair))
    with pytest.raises(SidecarError, match="trailing"):
        read_sidecar(data + b"\x00")


# ---------------------------------------------------------------------------
# verification verdicts
# ---------------------------------------------------------------------------

def test_flipped_image_byte_is_tampered_image(device_pair, trusted_registry):
    bundle = _bundle(device_pair)
    sidecar = write_sidecar(bundle)
    image = bytearray(bundle.image_bytes)
    image[3] ^= 0xFF
    report = verify(bytes(image), sidecar, trusted_registry)
    assert report.verdict == "tampered_image"
    assert report.signature_valid and not report.image_hash_match


def test_manifest_region_mutations_never_authentic(device_pair, trusted_registry):
    bundle = _bundle(device_pair)
    sidecar = write_sidecar(bundle)
    for pos in range(8, len(sidecar), 7):
        mutated = bytearray(sidecar)
        mutated[pos] ^= 0x01
        report = verify(bundle.image_bytes, bytes(mutated), trusted_registry)
        assert report.verdict != "authentic", f"byte {pos} mutation slipped through"


def test_unknown_device(device_pair):
    bundle = _bundle(device_pair)
    report = verify(bundle.image_bytes, write_sidecar(bundle), Registry())
    assert report.verdict == "unknown_device"
    assert not report.signature_valid and not report.device_trusted
    assert report.image_hash_match  # still informative


def test_revoked_device_reports_other_checks(device_pair, trusted_registry):
    bundle = _bundle(device_pair)
    report = verify(bundle.image_bytes, write_sidecar(bundle),
                    revoke(trusted_registry, device_pair.device_id))
    assert report.verdict == "untrusted_device"
    assert report.signature_valid and report.image_hash_match and not report.device_trusted


def test_malformed_sidecar_verdict(trusted_registry):
    report = verify(b"img", b"garbage", trusted_registry)
    assert report.verdict == "malformed"
    assert report.manifest is None
    assert not (report.signature_valid or report.image_hash_match or report.device_trusted)


def test_malformed_sidecar_is_refused_before_the_image_is_hashed(
        device_pair, trusted_registry, monkeypatch):
    bundle = _bundle(device_pair)
    sidecar = write_sidecar(bundle)
    hashed = []
    monkeypatch.setattr(sealing, "image_hash",
                        lambda data: hashed.append(data) or image_hash(data))
    assert verify(bundle.image_bytes, sidecar[:-1], trusted_registry).verdict == "malformed"
    assert hashed == []
    assert verify(bundle.image_bytes, sidecar, trusted_registry).verdict == "authentic"
    assert hashed == [bundle.image_bytes]


def test_nesting_bomb_sidecar_is_malformed(trusted_registry):
    import struct
    bomb = b"[" * 100_000
    sidecar = (b"RSL1" + struct.pack(">I", len(bomb)) + bomb
               + struct.pack(">I", 64) + b"\x00" * 64)
    assert verify(b"img", sidecar, trusted_registry).verdict == "malformed"


@pytest.mark.parametrize("image, sidecar", [
    (b"img", "abc"),
    (b"img", None),
    (b"img", 64),  # bytes(64) would be 64 zero bytes
    (None, "good"),
    ("image payload", "good"),
    (np.frombuffer(b"image payload", dtype=np.uint8), "good"),
    (b"img", oracles.released_memoryview()),
    (oracles.released_memoryview(), "good"),
], ids=["str-sidecar", "None-sidecar", "int-sidecar", "None-image", "str-image", "ndarray-image",
        "released-sidecar", "released-image"])
def test_inputs_that_are_not_bytes_are_malformed(device_pair, trusted_registry, image, sidecar):
    if sidecar == "good":
        sidecar = write_sidecar(_bundle(device_pair))
    report = verify(image, sidecar, trusted_registry)
    assert report.verdict == "malformed" and report.manifest is None


@pytest.mark.parametrize("registry", [None, "CAM-001 trusted", {}, []],
                         ids=["None", "str", "dict", "list"])
@pytest.mark.parametrize("sidecar", ["good", b"garbage"], ids=["good-sidecar", "bad-sidecar"])
def test_a_registry_that_is_not_a_registry_is_refused(device_pair, registry, sidecar):
    if sidecar == "good":
        sidecar = write_sidecar(_bundle(device_pair))
    message = f"^registry must be Registry, not {type(registry).__name__}$"
    with pytest.raises(RegistryError, match=message):
        verify(b"img", sidecar, registry)


def _strided(data: bytes) -> memoryview:
    """The bytes of data in a memoryview that is not contiguous."""
    return memoryview(bytes(b for b in data for _ in (0, 1)))[::2]


def test_every_bytes_like_input_verifies(device_pair, trusted_registry):
    bundle = _bundle(device_pair)
    sidecar = write_sidecar(bundle)
    for kind in (bytes, bytearray, memoryview, _strided):
        report = verify(kind(bundle.image_bytes), kind(sidecar), trusted_registry)
        assert report.verdict == "authentic"
        assert read_sidecar(kind(sidecar)) == (bundle.manifest, bundle.signature)


@pytest.mark.parametrize("data", ["RSL1", None, 5, [82, 83, 76, 49],
                                  oracles.released_memoryview()],
                         ids=["str", "None", "int", "list", "released-memoryview"])
def test_read_sidecar_refuses_what_is_not_bytes(data):
    with pytest.raises(SidecarError, match=type(data).__name__):
        read_sidecar(data)


def test_signature_invalid_beats_hash_mismatch(device_pair, trusted_registry):
    # both the manifest signature and the image hash are wrong
    bundle = _bundle(device_pair)
    other = RealismManifest(
        device_id=device_pair.device_id,
        timestamp_unix=bundle.manifest.timestamp_unix + 1,
        scores=bundle.manifest.scores,
        image_sha256=bundle.manifest.image_sha256,
        location=bundle.manifest.location,
    )
    forged = SealedBundle(b"different image", other, bundle.signature)
    report = verify(b"different image", write_sidecar(forged), trusted_registry)
    assert report.verdict == "tampered_manifest"
    assert not report.signature_valid


def test_soundness_500_random_bundles(device_pair, trusted_registry):
    rng = np.random.default_rng(42)
    for _ in range(500):
        image = bytes(rng.integers(0, 256, size=int(rng.integers(1, 200)), dtype=np.uint8))
        scores = DimensionScores(*(float(v) for v in rng.uniform(0, 1, size=4)))
        bundle = seal(image, scores, float(rng.uniform(0, 1)), device_pair,
                      int(rng.integers(0, 2**40)))
        report = verify(image, write_sidecar(bundle), trusted_registry)
        assert report.verdict == "authentic"
        assert report.signature_valid and report.image_hash_match and report.device_trusted


def _sidecar_mutant(data: bytes, other: bytes, kind: int, a: int, b: int) -> bytes:
    """One mutation of a sidecar, as drawn: kind picks it, a and b place and size it."""
    out = bytearray(data)
    pos = a % len(out)
    if kind == 0:  # insert 1-8 bytes
        out[pos:pos] = b.to_bytes(8, "little")[:b % 8 + 1]
    elif kind == 1:  # delete 1-8 bytes
        del out[pos:pos + b % 8 + 1]
    elif kind == 2:
        del out[pos:]
    elif kind in (3, 4):  # rewrite the manifest or the signature length: near the old one, or anything
        at = 4 if kind == 3 else 8 + struct.unpack_from(">I", data, 4)[0]
        (n,) = struct.unpack_from(">I", out, at)
        struct.pack_into(">I", out, at, (n + b % 9 - 4) % 2**32 if a & 1 else b % 2**32)
    elif kind == 5:  # splice: this sidecar's head onto another's tail
        out[pos:] = other[b % len(other):]
    else:  # insert or delete 1-8 bytes inside the manifest, its length kept in step
        (n,) = struct.unpack_from(">I", data, 4)
        at = 8 + a % n
        if a & 1:
            out[at:at] = b.to_bytes(8, "little")[:b % 8 + 1]
        else:
            del out[at:min(at + b % 8 + 1, 8 + n)]
        struct.pack_into(">I", out, 4, n + len(out) - len(data))
    return bytes(out)


def test_seeded_sidecar_mutants_are_refused_or_never_authentic():
    pairs = [keygen(device_id, bytes([i]) * 32)
             for i, device_id in enumerate(["CAM-001", "CAM-002", "x" * 64])]
    registry = Registry(tuple(RegistryEntry(p.device_id, TRUSTED, p.public_key.hex())
                              for p in pairs))
    ones = DimensionScores(1.0, 1.0, 1.0, 1.0)
    # the third is the longest sidecar there is
    bundles = [seal(b"image %d" % i, *fields) for i, fields in enumerate([
        (SOME_SCORES, 0.5, pairs[0], 1_700_000_000),
        (SOME_SCORES, 0.25, pairs[1], 0, (45_000_000, -73_000_000)),
        (ones, 1.0, pairs[2], 2**63 - 1, (-90_000_000, -180_000_000)),
        (ones, 0.0, pairs[0], 1, (1, 2))])]
    sidecars = [write_sidecar(bundle) for bundle in bundles]
    count = 2000
    draws = iter(fill_u64(0x51DE, 5 * count).tolist())
    refusals = set()
    for _ in range(count):
        which, other, kind, a, b = (next(draws) for _ in range(5))
        sidecar = sidecars[which % len(sidecars)]
        mutant = _sidecar_mutant(sidecar, sidecars[other % len(sidecars)], kind % 7, a, b)
        try:
            manifest, signature = read_sidecar(mutant)
        except (SidecarError, ManifestError) as exc:
            refusals.add(str(exc))
        else:  # only the canonical bytes of a sidecar read
            assert write_sidecar(SealedBundle(b"", manifest, signature)) == mutant
        report = verify(bundles[which % len(sidecars)].image_bytes, mutant, registry)
        assert (report.verdict == "authentic") == (mutant == sidecar), mutant
    # the mutants reach every check of the sidecar frame, and the manifest parser
    assert refusals >= {
        "truncated sidecar", "bad magic", "signature length must be 64",
        "truncated sidecar: declared manifest length exceeds buffer",
        "truncated sidecar: signature exceeds buffer", "trailing bytes after signature",
        "malformed manifest: non-canonical encoding",
        f"malformed manifest: longer than {MAX_MANIFEST_LEN} bytes"}, refusals


# ---------------------------------------------------------------------------
# key files
# ---------------------------------------------------------------------------

def test_keypair_files_round_trip(tmp_path, device_pair):
    sk, pk = write_keypair_files(device_pair, tmp_path)
    assert sk.read_text().strip() == device_pair.secret_seed.hex()
    assert pk.read_text().strip() == device_pair.public_key.hex()
    assert load_keypair_file(sk) == device_pair


def test_keypair_files_refuse_overwrite(tmp_path, device_pair):
    write_keypair_files(device_pair, tmp_path)
    with pytest.raises(RealSealError, match="refusing"):
        write_keypair_files(device_pair, tmp_path)
    write_keypair_files(device_pair, tmp_path, force=True)


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "over-0644"])
def test_secret_key_file_is_owner_only_before_the_seed_is_written(
        tmp_path, device_pair, monkeypatch, existing):
    sk = tmp_path / f"{device_pair.device_id}.sk"
    if existing:
        sk.write_text("ff" * 32 + "\n")
        sk.chmod(0o644)
    # (contents, mode) of the secret key file at each permission change and at the end
    seen = []

    def observed(change):
        def wrapper(*args, **kwargs):
            seen.append((sk.read_text(), stat.S_IMODE(sk.stat().st_mode)))
            return change(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(os, "chmod", observed(os.chmod))
    monkeypatch.setattr(os, "fchmod", observed(os.fchmod))
    umask = os.umask(0o022)
    try:
        write_keypair_files(device_pair, tmp_path, force=existing)
    finally:
        os.umask(umask)
    seen.append((sk.read_text(), stat.S_IMODE(sk.stat().st_mode)))
    secret = device_pair.secret_seed.hex()
    assert seen[-1] == (secret + "\n", 0o600)
    assert all(mode == 0o600 for text, mode in seen if secret in text)


def test_keypair_file_of_at_most_1024_bytes_loads(tmp_path, device_pair):
    # whitespace around the hex is allowed, up to the cap; past it the file is refused
    sk = tmp_path / f"{device_pair.device_id}.sk"
    line = device_pair.secret_seed.hex() + "\n"
    sk.write_text(line.ljust(1024))
    assert load_keypair_file(sk) == device_pair
    sk.write_text(line.ljust(1025))
    with pytest.raises(RealSealError, match="longer than 1024 bytes"):
        load_keypair_file(sk)


def test_keypair_file_bad_contents(tmp_path):
    for text in ("zz" * 32, "ab" * 16,
                 " ".join(["ab"] * 32),  # bytes.fromhex would read these 32 pairs
                 "ab" * 15 + "a b " + "ab" * 15):  # 64 characters, two of them spaces
        bad = tmp_path / "CAM-9.sk"
        bad.write_text(text + "\n")
        with pytest.raises(RealSealError, match="CAM-9.sk must be 64 hex chars$"):
            load_keypair_file(bad)
