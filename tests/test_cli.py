import json
import tracemalloc
from pathlib import Path

import pytest

from realseal import DimensionScores, keygen, parse_manifest, read_capture_dir, seal, write_sidecar
from realseal import cli
from realseal.cli import build_parser, main
from realseal.rng import fill_u64

from oracles import pack_capture_rsc, split_capture_rsc

SEED_HEX = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"


def run(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sealed_setup(tmp_path, capsys):
    """keygen + simulate + seal + registry; returns the relevant paths."""
    keys = tmp_path / "keys"
    cap = tmp_path / "cap"
    out = tmp_path / "sealed"
    code, _, _ = run(capsys, "keygen", "CAM-001", "--seed", SEED_HEX, "--out", str(keys))
    assert code == 0
    code, _, _ = run(capsys, "simulate", "--scenario", "genuine", "--seed", "42",
                     "--out", str(cap))
    assert code == 0
    code, _, _ = run(capsys, "seal", str(cap), "--key", str(keys / "CAM-001.sk"),
                     "--out", str(out))
    assert code == 0
    registry = tmp_path / "registry.rsr"
    pub = (keys / "CAM-001.pk").read_text().strip()
    registry.write_text(f"CAM-001 trusted {pub}\n")
    return {
        "keys": keys, "capture": cap, "image": out / "image.pgm",
        "sidecar": out / "image.rsl", "registry": registry,
    }


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

def test_keygen_deterministic_public_key(tmp_path, capsys):
    code, out, _ = run(capsys, "keygen", "CAM-001", "--seed", SEED_HEX,
                       "--out", str(tmp_path / "a"))
    assert code == 0
    code2, out2, _ = run(capsys, "keygen", "CAM-001", "--seed", SEED_HEX,
                         "--out", str(tmp_path / "b"))
    assert code2 == 0
    pk_a = (tmp_path / "a" / "CAM-001.pk").read_text()
    pk_b = (tmp_path / "b" / "CAM-001.pk").read_text()
    assert pk_a == pk_b
    assert pk_a.strip() in out


def test_keygen_never_prints_secret(tmp_path, capsys):
    code, out, err = run(capsys, "keygen", "CAM-001", "--seed", SEED_HEX,
                         "--out", str(tmp_path))
    assert code == 0
    assert SEED_HEX not in out and SEED_HEX not in err


def test_keygen_refuses_overwrite(tmp_path, capsys):
    run(capsys, "keygen", "CAM-001", "--seed", SEED_HEX, "--out", str(tmp_path))
    before = (tmp_path / "CAM-001.sk").read_bytes()
    code, _, err = run(capsys, "keygen", "CAM-001", "--out", str(tmp_path))
    assert code == 1
    assert "refusing" in err
    assert (tmp_path / "CAM-001.sk").read_bytes() == before
    code, _, _ = run(capsys, "keygen", "CAM-001", "--seed", SEED_HEX,
                     "--out", str(tmp_path), "--force")
    assert code == 0


def test_keygen_malformed_seed_hex_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "keygen", "CAM-001", "--seed", "zz", "--out", str(tmp_path))
    assert code == 2
    assert "hex" in err


def test_keygen_bad_device_id_is_usage_error(tmp_path, capsys):
    code, _, _ = run(capsys, "keygen", "bad id", "--out", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("args, message", [
    (["", "--seed", SEED_HEX], "device_id must be 1-64 chars of [A-Za-z0-9_-]"),
    (["CAM 1", "--seed", SEED_HEX], "device_id must be 1-64 chars of [A-Za-z0-9_-]"),
    (["C" * 65, "--seed", SEED_HEX], "device_id must be 1-64 chars of [A-Za-z0-9_-]"),
    (["CAM-001", "--seed", "g" * 64], "--seed must be 64 hex chars"),
    (["CAM-001", "--seed", SEED_HEX[:62]], "--seed must be 64 hex chars"),
    (["CAM-001", "--seed", " ".join(SEED_HEX[i:i + 2] for i in range(0, 64, 2))],
     "--seed must be 64 hex chars"),
    (["CAM-001", "--seed", SEED_HEX[:30] + "a b " + SEED_HEX[34:]], "--seed must be 64 hex chars"),
], ids=["empty-id", "id-with-space", "65-char-id", "non-hex-seed", "62-hex-seed",
        "spaced-hex-seed", "64-chars-with-spaces-seed"])
def test_keygen_usage_errors_write_no_key(tmp_path, capsys, args, message):
    code, out, err = run(capsys, "keygen", *args, "--out", str(tmp_path))
    assert (code, out, err) == (2, "", f"usage error: {message}\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_readable_capture(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", "--scenario", "genuine", "--seed", "42",
                     "--out", str(tmp_path / "cap"))
    assert code == 0
    cap = read_capture_dir(tmp_path / "cap")
    assert cap.frame_count == 16


def test_simulate_unknown_scenario_is_usage_error(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", "--scenario", "hologram",
                     "--out", str(tmp_path / "cap"))
    assert code == 2


@pytest.mark.parametrize("seed, message", [
    ("x", "not an integer: 'x'"),
    (str(2**64), "seed must fit in 64 unsigned bits"),
    ("-1", "seed must fit in 64 unsigned bits"),
    # int(text, 0) reads 0x10 as 16 and refuses a decimal with a leading zero
    ("010", "not an integer: '010'"),
], ids=["not-an-integer", "2**64", "negative", "leading-zero"])
def test_simulate_bad_seed_is_usage_error(tmp_path, capsys, seed, message):
    code, out, err = run(capsys, "simulate", "--scenario", "genuine", "--seed", seed,
                         "--out", str(tmp_path / "cap"))
    assert code == 2 and out == "" and f"argument --seed: {message}" in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_onto_an_existing_file_is_an_io_error(tmp_path, capsys):
    (tmp_path / "cap").write_bytes(b"")
    code, out, err = run(capsys, "simulate", "--scenario", "genuine",
                         "--out", str(tmp_path / "cap"))
    assert (code, out) == (1, "") and err.startswith("i/o error: ")
    assert (tmp_path / "cap").read_bytes() == b""


def test_simulate_same_seed_byte_identical(tmp_path, capsys):
    run(capsys, "simulate", "--scenario", "screen-replay", "--seed", "7",
        "--out", str(tmp_path / "a"))
    run(capsys, "simulate", "--scenario", "screen-replay", "--seed", "7",
        "--out", str(tmp_path / "b"))
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ---------------------------------------------------------------------------
# seal
# ---------------------------------------------------------------------------

def test_seal_genuine_scores_high(sealed_setup):
    manifest = parse_manifest_from_sidecar(sealed_setup["sidecar"])
    assert manifest.scores.overall >= 800
    assert manifest.device_id == "CAM-001"


def parse_manifest_from_sidecar(path: Path):
    from realseal import read_sidecar
    manifest, _sig = read_sidecar(path.read_bytes())
    return manifest


def test_seal_screen_replay_scores_low(tmp_path, capsys):
    keys = tmp_path / "keys"
    run(capsys, "keygen", "CAM-001", "--seed", SEED_HEX, "--out", str(keys))
    run(capsys, "simulate", "--scenario", "screen-replay", "--seed", "7",
        "--out", str(tmp_path / "cap"))
    code, _, _ = run(capsys, "seal", str(tmp_path / "cap"),
                     "--key", str(keys / "CAM-001.sk"), "--out", str(tmp_path / "out"))
    assert code == 0
    manifest = parse_manifest_from_sidecar(tmp_path / "out" / "image.rsl")
    assert manifest.scores.overall <= 300


def test_seal_missing_key_is_usage_error(tmp_path, capsys):
    run(capsys, "simulate", "--scenario", "genuine", "--seed", "1",
        "--out", str(tmp_path / "cap"))
    code, _, err = run(capsys, "seal", str(tmp_path / "cap"),
                       "--key", str(tmp_path / "nope.sk"), "--out", str(tmp_path))
    assert code == 2
    assert "not found" in err


def test_seal_corrupt_capture_is_data_error(tmp_path, capsys):
    keys = tmp_path / "keys"
    run(capsys, "keygen", "CAM-001", "--seed", SEED_HEX, "--out", str(keys))
    run(capsys, "simulate", "--scenario", "genuine", "--seed", "1",
        "--out", str(tmp_path / "cap"))
    (tmp_path / "cap" / "capture.rsc").write_bytes(b"RSC1junk")
    code, _, err = run(capsys, "seal", str(tmp_path / "cap"),
                       "--key", str(keys / "CAM-001.sk"), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "corrupt" in err


def test_seal_nested_capture_json_is_data_error(tmp_path, capsys):
    keys = tmp_path / "keys"
    run(capsys, "keygen", "CAM-001", "--seed", SEED_HEX, "--out", str(keys))
    run(capsys, "simulate", "--scenario", "genuine", "--seed", "1",
        "--out", str(tmp_path / "cap"))
    rsc = tmp_path / "cap" / "capture.rsc"
    meta, body = split_capture_rsc(rsc.read_bytes())
    nested = b'{"zz":' + b"[" * 200_000 + b"]" * 200_000 + b","
    rsc.write_bytes(pack_capture_rsc(meta.replace(b"{", nested, 1), body))
    code, _, err = run(capsys, "seal", str(tmp_path / "cap"),
                       "--key", str(keys / "CAM-001.sk"), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error:") and "metadata longer than 491 bytes" in err


def test_seal_audio_slower_than_frames_is_data_error(low_rate_capture_dir, tmp_path, capsys):
    keys = tmp_path / "keys"
    run(capsys, "keygen", "CAM-001", "--seed", SEED_HEX, "--out", str(keys))
    code, _, err = run(capsys, "seal", str(low_rate_capture_dir),
                       "--key", str(keys / "CAM-001.sk"), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error:") and "sample_rate" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fields, message", [
    (dict(frame_count=1), "at least 4 frames"),
    (dict(frame_count=3), "at least 4 frames"),
    (dict(frame_rate=2**62, sample_rate=2**62), "below 2**63"),
    (dict(frame_rate=2**70, sample_rate=2**70), "below 2**63"),
], ids=["1-frame", "3-frame", "rate-2**62", "rate-2**70"])
def test_seal_unscorable_capture_is_data_error(pack_capture_dir, tmp_path, capsys,
                                               fields, message):
    keys = tmp_path / "keys"
    run(capsys, "keygen", "CAM-001", "--seed", SEED_HEX, "--out", str(keys))
    code, _, err = run(capsys, "seal", str(pack_capture_dir(**fields)),
                       "--key", str(keys / "CAM-001.sk"), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_seal_json_emits_manifest(sealed_setup, tmp_path, capsys):
    code, out, _ = run(capsys, "seal", str(sealed_setup["capture"]),
                       "--key", str(sealed_setup["keys"] / "CAM-001.sk"),
                       "--out", str(tmp_path / "again"), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["device_id"] == "CAM-001"
    assert obj["scores"]["overall"] >= 800
    # stdout never carries the secret seed
    assert SEED_HEX not in out


def test_seal_text_mode_never_prints_secret(sealed_setup, tmp_path, capsys):
    code, out, err = run(capsys, "seal", str(sealed_setup["capture"]),
                         "--key", str(sealed_setup["keys"] / "CAM-001.sk"),
                         "--out", str(tmp_path / "again2"))
    assert code == 0
    secret = (sealed_setup["keys"] / "CAM-001.sk").read_text().strip()
    assert secret not in out and secret not in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_authentic_exit_zero(sealed_setup, capsys):
    code, out, _ = run(capsys, "verify", str(sealed_setup["image"]),
                       str(sealed_setup["sidecar"]), "--registry",
                       str(sealed_setup["registry"]))
    assert code == 0
    assert "authentic" in out


def test_verify_flipped_image_byte(sealed_setup, tmp_path, capsys):
    data = bytearray(sealed_setup["image"].read_bytes())
    data[30] ^= 0x01
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(bytes(data))
    code, out, _ = run(capsys, "verify", str(bad), str(sealed_setup["sidecar"]),
                       "--registry", str(sealed_setup["registry"]), "--json")
    assert code == 1
    assert json.loads(out)["verdict"] == "tampered_image"


def test_verify_revoked_device(sealed_setup, capsys):
    reg = sealed_setup["registry"]
    reg.write_text(reg.read_text().replace("trusted", "revoked"))
    code, out, _ = run(capsys, "verify", str(sealed_setup["image"]),
                       str(sealed_setup["sidecar"]), "--registry", str(reg), "--json")
    assert code == 1
    assert json.loads(out)["verdict"] == "untrusted_device"


def test_verify_json_stable_across_runs(sealed_setup, capsys):
    args = ("verify", str(sealed_setup["image"]), str(sealed_setup["sidecar"]),
            "--registry", str(sealed_setup["registry"]), "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    report = json.loads(out1)
    assert report["verdict"] == "authentic"
    assert report["manifest"]["device_id"] == "CAM-001"


def test_verify_missing_file_is_usage_error(sealed_setup, tmp_path, capsys):
    code, _, _ = run(capsys, "verify", str(tmp_path / "missing.pgm"),
                     str(sealed_setup["sidecar"]), "--registry",
                     str(sealed_setup["registry"]))
    assert code == 2


def test_verify_malformed_sidecar_never_hashes_the_image(sealed_setup, tmp_path, capsys,
                                                          monkeypatch):
    hash_file = cli._image_file_hash
    hashed = []
    monkeypatch.setattr(cli, "_image_file_hash", lambda f: hashed.append(f) or hash_file(f))
    truncated = tmp_path / "truncated.rsl"
    truncated.write_bytes(sealed_setup["sidecar"].read_bytes()[:-1])
    image = str(sealed_setup["image"])
    registry = ("--registry", str(sealed_setup["registry"]), "--json")
    code, out, _ = run(capsys, "verify", image, str(truncated), *registry)
    assert (code, json.loads(out)["verdict"], hashed) == (1, "malformed", [])
    code, out, _ = run(capsys, "verify", image, str(sealed_setup["sidecar"]), *registry)
    assert (code, json.loads(out)["verdict"], len(hashed)) == (0, "authentic", 1)


def test_verify_unknown_device(sealed_setup, tmp_path, capsys):
    other = tmp_path / "other.rsr"
    other.write_text(f"CAM-999 trusted {'ab' * 32}\n")
    code, out, _ = run(capsys, "verify", str(sealed_setup["image"]),
                       str(sealed_setup["sidecar"]), "--registry", str(other), "--json")
    assert code == 1
    assert json.loads(out)["verdict"] == "unknown_device"


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def test_inspect_shows_manifest_fields(sealed_setup, capsys):
    code, out, _ = run(capsys, "inspect", str(sealed_setup["sidecar"]))
    assert code == 0
    assert "CAM-001" in out and "overall=" in out and "image_sha256" in out


def test_inspect_json_reparses_canonically(sealed_setup, capsys):
    code, out, _ = run(capsys, "inspect", str(sealed_setup["sidecar"]), "--json")
    assert code == 0
    from realseal import canonical_encode, parse_manifest
    manifest = parse_manifest(out.strip().encode())
    assert canonical_encode(manifest) == out.strip().encode()


def test_inspect_truncated_sidecar_fails(sealed_setup, tmp_path, capsys):
    bad = tmp_path / "trunc.rsl"
    bad.write_bytes(sealed_setup["sidecar"].read_bytes()[:25])
    code, _, err = run(capsys, "inspect", str(bad))
    assert code == 1
    assert "truncated" in err


def test_longest_sidecar_reads_and_one_byte_more_is_trailing(tmp_path, capsys):
    pair = keygen("x" * 64, bytes(32))
    bundle = seal(b"image", DimensionScores(1.0, 1.0, 1.0, 1.0), 1.0, pair, 2**63 - 1,
                  (-90_000_000, -180_000_000))
    longest = tmp_path / "longest.rsl"
    longest.write_bytes(write_sidecar(bundle))
    assert longest.stat().st_size == 504
    assert run(capsys, "inspect", str(longest))[0] == 0
    longer = tmp_path / "longer.rsl"
    longer.write_bytes(longest.read_bytes() + b"\x00")
    code, _, err = run(capsys, "inspect", str(longer))
    assert code == 1 and "trailing bytes after signature" in err


@pytest.mark.parametrize("command", ["verify", "inspect"])
def test_huge_sidecar_is_refused_without_being_read(sealed_setup, tmp_path, capsys, command):
    # a real sidecar with a sparse tail to 64 MiB
    huge = tmp_path / "huge.rsl"
    huge.write_bytes(sealed_setup["sidecar"].read_bytes())
    with open(huge, "r+b") as f:
        f.truncate(64 * 2**20)
    args = ([str(sealed_setup["image"]), str(huge), "--registry", str(sealed_setup["registry"])]
            if command == "verify" else [str(huge)])
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and "Traceback" not in out + err
    assert peak < 2**20


@pytest.mark.parametrize("name,size,says", [
    # 64 MiB, not 64 GiB: the whole image is hashed, which at 64 GiB takes about
    # a minute; the chunked read holds as little at any size
    ("image", 64 * 2**20, "verdict: tampered_image"),
    ("registry", 64 * 2**30, "is larger than 67108864 bytes"),
    ("key", 64 * 2**30, "is longer than 1024 bytes"),
], ids=["image", "registry", "key"])
def test_huge_input_file_exits_1_without_being_read(sealed_setup, tmp_path, capsys, name, size,
                                                     says):
    # a real file with a sparse tail
    files = {"image": sealed_setup["image"], "registry": sealed_setup["registry"],
             "key": sealed_setup["keys"] / "CAM-001.sk"}
    huge = tmp_path / "huge" / files[name].name
    huge.parent.mkdir()
    huge.write_bytes(files[name].read_bytes())
    with open(huge, "r+b") as f:
        f.truncate(size)
    files[name] = huge
    args = (["seal", str(sealed_setup["capture"]), "--key", str(files["key"]),
             "--out", str(tmp_path / "o")] if name == "key" else
            ["verify", str(files["image"]), str(sealed_setup["sidecar"]),
             "--registry", str(files["registry"])])
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and says in out + err and "Traceback" not in out + err
    assert peak < 2**20


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_single_seed_three_rows(capsys):
    code, out, _ = run(capsys, "bench", "--seed", "5")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith(("genuine", "screen", "printed"))]
    assert len(rows) == 3


def test_bench_json_contract(capsys):
    code, out, _ = run(capsys, "bench", "--seed", "1..3", "--json")
    assert code == 0
    table = json.loads(out)
    assert len(table["rows"]) == 9
    assert set(table["means"]) == {"genuine", "screen-replay", "printed-photo"}
    code2, out2, _ = run(capsys, "bench", "--seed", "1..3", "--json")
    assert out == out2


def test_bench_empty_range_is_usage_error(capsys):
    code, _, _ = run(capsys, "bench", "--seed", "5..3")
    assert code == 2
    code, _, _ = run(capsys, "bench", "--seed", "oops")
    assert code == 2


def test_bench_seed_range_is_parsed_without_a_seed_list():
    # parsed only: no bench is run over these ranges
    parse = build_parser().parse_args
    assert parse(["bench"]).seed == range(1, 21)
    assert parse(["bench", "--seed", "7"]).seed == range(7, 8)
    assert parse(["bench", "--seed", f"0..{2**64 - 1}"]).seed == range(2**64)
    # each end is read as simulate reads its --seed
    assert parse(["bench", "--seed", "0x10"]).seed == range(16, 17)
    assert parse(["bench", "--seed", "0x10..0o22"]).seed == range(16, 19)
    for text in (f"0..{2**64}", "010", "-1..2", "1..x", "3..2"):
        with pytest.raises(SystemExit) as exc:
            parse(["bench", "--seed", text])
        assert exc.value.code == 2, text


def _byte_mutant(data: bytes, kind: int, a: int, b: int) -> bytes:
    """data with one byte flipped, 1-8 bytes inserted or deleted, or its tail cut."""
    out = bytearray(data)
    pos = a % len(out)
    if kind == 0:
        out[pos] ^= b % 255 + 1
    elif kind == 1:
        out[pos:pos] = b.to_bytes(8, "little")[:b % 8 + 1]
    elif kind == 2:
        del out[pos:pos + b % 8 + 1]
    else:
        del out[pos:]
    return bytes(out)


def test_mutated_input_files_exit_with_a_code_not_a_traceback(sealed_setup, tmp_path, capsys):
    s = sealed_setup
    registry = s["registry"].read_bytes() + f"CAM-002 revoked {'cd' * 32}\n".encode()
    sidecar_path, registry_path = tmp_path / "m.rsl", tmp_path / "m.rsr"
    registry_path.write_bytes(registry)
    capture_dir = tmp_path / "mcap"
    capture_dir.mkdir()
    image, key, out = str(s["image"]), str(s["keys"] / "CAM-001.sk"), str(tmp_path / "o")
    # (original bytes, the file its mutant replaces, the command run on that file)
    cases = [
        (s["sidecar"].read_bytes(), sidecar_path,
         ["verify", image, str(sidecar_path), "--registry", str(s["registry"])]),
        (s["sidecar"].read_bytes(), sidecar_path, ["inspect", str(sidecar_path)]),
        (registry, registry_path,
         ["verify", image, str(s["sidecar"]), "--registry", str(registry_path)]),
        ((s["capture"] / "capture.rsc").read_bytes(), capture_dir / "capture.rsc",
         ["seal", str(capture_dir), "--key", key, "--out", out]),
    ]
    draws = iter(fill_u64(0xC11, 3 * 100).tolist())
    codes = []
    for i in range(100):
        original, path, args = cases[i % len(cases)]
        kind, a, b = (next(draws) for _ in range(3))
        path.write_bytes(_byte_mutant(original, kind % 4, a, b))
        code, stdout, stderr = run(capsys, *args)
        assert code in (0, 1, 2) and "Traceback" not in stdout + stderr, (args, code, stderr)
        if i % len(cases) == 0:  # a changed sidecar never verifies
            assert code == 1, stdout
        codes.append(code)
    # mutants both pass and fail, so the drive reaches past the first check
    assert {0, 1} <= set(codes)


# ---------------------------------------------------------------------------
# global contract
# ---------------------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2
