import json
from pathlib import Path

import pytest

from realseal import parse_manifest, read_capture_dir
from realseal.cli import build_parser, main

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
    assert err.startswith("error:") and "not valid JSON" in err


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
    with pytest.raises(SystemExit) as exc:
        parse(["bench", "--seed", f"0..{2**64}"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# global contract
# ---------------------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2
