"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np

from realseal import (
    DimensionScores,
    Registry,
    RegistryEntry,
    TRUSTED,
    canonical_encode,
    fit_plane,
    generate_genuine_scene,
    keygen,
    parse_manifest,
    revoke,
    seal,
    verify,
    write_sidecar,
)
from realseal.cli import main as cli_main
from realseal.scene import ScenarioParams
from realseal.scoring import (
    best_lag_correlation,
    score_av_alignment,
    score_depth,
    score_motion,
    score_thermal,
)
from realseal.sealing import sign_data, verify_data, image_hash

import oracles
from test_manifest import MINIMAL, MINIMAL_BYTES, _random_manifest
from test_scoring import _motion_capture
from test_sealing import RFC8032_VECTORS


def _report(n: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}")


# ---------------------------------------------------------------------------
# 1. scenario separation over seeds 1..20, within 10 s
# ---------------------------------------------------------------------------

def test_criterion_1_scenario_separation(capsys):
    t0 = time.perf_counter()
    code = cli_main(["bench", "--seed", "1..20", "--json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    table = json.loads(out)

    means = table["means"]
    replay_rows = [r for r in table["rows"] if r["scenario"] == "screen-replay"]
    per_run_ok = all(r["depth"] <= 0.05 and r["thermal"] <= 0.05 for r in replay_rows)
    ok = (means["genuine"] >= 0.8 and means["screen-replay"] <= 0.3
          and means["printed-photo"] <= 0.3 and per_run_ok and elapsed <= 10.0)
    with capsys.disabled():
        _report(1, ok, f"separation means={means} runtime={elapsed:.2f}s "
                       f"(genuine>=0.8, attacks<=0.3, replay depth/thermal<=0.05, <=10s)")
    assert means["genuine"] >= 0.8
    assert means["screen-replay"] <= 0.3
    assert means["printed-photo"] <= 0.3
    assert per_run_ok
    assert elapsed <= 10.0


# ---------------------------------------------------------------------------
# 2. tamper evidence: exhaustive single-byte mutation sweeps
# ---------------------------------------------------------------------------

def test_criterion_2_tamper_evidence(capsys):
    params = ScenarioParams(width=8, height=8, frame_count=4, frame_rate=8, sample_rate=800)
    capture = generate_genuine_scene(3, params)
    pair = keygen("CAM-FIX", bytes(range(32)))
    registry = Registry((RegistryEntry("CAM-FIX", TRUSTED, pair.public_key.hex()),))

    from realseal import encode_frame_pgm
    from realseal.scoring import score_capture
    dims, overall = score_capture(capture)
    image = encode_frame_pgm(capture.frames[0])
    bundle = seal(image, dims, overall, pair, capture.timestamp_unix, capture.location)
    sidecar = write_sidecar(bundle)
    assert verify(image, sidecar, registry).verdict == "authentic"

    wrong_image_verdicts = 0
    for pos in range(len(image)):
        original = image[pos]
        mutated = bytearray(image)
        for value in range(256):
            if value == original:
                continue
            mutated[pos] = value
            if verify(bytes(mutated), sidecar, registry).verdict != "tampered_image":
                wrong_image_verdicts += 1
        mutated[pos] = original

    false_authentic = 0
    for pos in range(len(sidecar)):
        original = sidecar[pos]
        mutated = bytearray(sidecar)
        for value in range(256):
            if value == original:
                continue
            mutated[pos] = value
            if verify(image, bytes(mutated), registry).verdict == "authentic":
                false_authentic += 1
        mutated[pos] = original

    image_sweep = len(image) * 255
    sidecar_sweep = len(sidecar) * 255
    ok = wrong_image_verdicts == 0 and false_authentic == 0
    with capsys.disabled():
        _report(2, ok, f"tamper evidence: {image_sweep} image mutations all tampered_image, "
                       f"{sidecar_sweep} sidecar mutations with {false_authentic} false authentic")
    assert wrong_image_verdicts == 0
    assert false_authentic == 0


# ---------------------------------------------------------------------------
# 3. cryptographic conformance: RFC 8032 vectors + SHA-256 digests
# ---------------------------------------------------------------------------

def test_criterion_3_crypto_conformance(capsys):
    vectors_ok = True
    for seed_hex, pub_hex, msg_hex, sig_hex in RFC8032_VECTORS:
        seed, msg = bytes.fromhex(seed_hex), bytes.fromhex(msg_hex)
        pair = keygen("VEC", seed)
        sig = sign_data(seed, msg)
        vectors_ok &= pair.public_key.hex() == pub_hex
        vectors_ok &= sig.hex() == sig_hex
        vectors_ok &= verify_data(pair.public_key, msg, sig)
        # the independent RFC 8032 transcription must agree both ways
        vectors_ok &= oracles.ed25519_verify(pair.public_key, msg, sig)
        vectors_ok &= oracles.ed25519_sign(seed, msg) == sig

    sha_ok = (image_hash(b"") ==
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
              and image_hash(b"abc") ==
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    ok = vectors_ok and sha_ok
    with capsys.disabled():
        _report(3, ok, "RFC 8032 section 7.1 vectors 1-3 and SHA-256 published digests")
    assert vectors_ok
    assert sha_ok


# ---------------------------------------------------------------------------
# 4. scorer oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_scorer_oracles(capsys):
    rng = np.random.default_rng(20240501)
    worst_plane = 0.0
    for _ in range(200):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        depths = rng.uniform(0.5, 8.0, size=(h, w)).astype(np.float32)
        mine = fit_plane(depths).rms_residual
        ref = oracles.plane_rms_normal_equations(depths)
        worst_plane = max(worst_plane, abs(mine - ref))

    worst_rho = 0.0
    lag_mismatches = 0
    for _ in range(200):
        n = int(rng.integers(6, 33))
        max_lag = int(rng.integers(0, min(5, n - 2)))
        x, y = rng.normal(size=n), rng.normal(size=n)
        got_lag, got_rho = best_lag_correlation(x, y, max_lag)
        ref_lag, ref_rho = oracles.best_lag_reference(x, y, max_lag)
        lag_mismatches += got_lag != ref_lag
        worst_rho = max(worst_rho, abs(got_rho - ref_rho))

    ok = worst_plane <= 1e-9 and worst_rho <= 1e-9 and lag_mismatches == 0
    with capsys.disabled():
        _report(4, ok, f"oracle equivalence: plane rms max diff {worst_plane:.2e}, "
                       f"lag rho max diff {worst_rho:.2e}, lag mismatches {lag_mismatches}")
    assert worst_plane <= 1e-9
    assert worst_rho <= 1e-9
    assert lag_mismatches == 0


# ---------------------------------------------------------------------------
# 5. worked numeric fixtures at pinned tolerances
# ---------------------------------------------------------------------------

def test_criterion_5_worked_fixtures(capsys):
    t = np.full((4, 4), 36.0, dtype=np.float32)
    t[:, 2:] = 38.0
    thermal = score_thermal(t)

    m = np.array([1.0, 2.0, 4.0, 8.0, 9.0, 12.0, 15.0])
    avsync = score_av_alignment(np.concatenate([[5.0], m[:-1]]), m)

    motion = score_motion(_motion_capture(offsets=[0, 1, 3, 6], imu_u=[1, 1, 3, 5]))

    bump = np.full((3, 3), 2.0, dtype=np.float32)
    bump[1, 1] = 2.5
    depth = score_depth(bump)

    # each pinned value is its closed form rounded to six places
    results = [
        # sigma = 1: 1 - exp(-1/1.5)
        ("thermal half-36/half-38", thermal, 0.486583, 1e-5),
        # rho = 1 at |lag| = 1 with L = 2: 1 * (1 - 1/3) = 2/3
        ("av-sync shifted envelope", avsync, 0.666667, 1e-6),
        # pearson([1,2,3], [1,2,4]) = 9/sqrt(84)
        ("motion f=[1,2,3] g=[1,2,4]", motion, 0.981981, 1e-5),
        # best-fit plane is flat at 2 + 0.5/9; residuals 4/9 (centre) and
        # -1/18 (eight others): SSE = 16/81 + 8/324 = 2/9, rms = sqrt(2)/9,
        # 1 - exp(-rms/0.05)
        ("depth center-bump", depth, 0.956834, 1e-5),
    ]
    ok = all(abs(got - want) <= tol for _, got, want, tol in results)
    with capsys.disabled():
        for name, got, want, tol in results:
            status = "ok" if abs(got - want) <= tol else "OFF"
            print(f"  fixture {name}: got {got:.6f}, pinned {want} +-{tol} [{status}]")
        _report(5, ok, "worked numeric fixtures at pinned tolerances")
    for name, got, want, tol in results:
        assert abs(got - want) <= tol, (
            f"{name}: implementation yields {got:.7f}, pinned {want} +-{tol}")


# ---------------------------------------------------------------------------
# 6. canonical determinism over 500 random manifests
# ---------------------------------------------------------------------------

def test_criterion_6_canonical_determinism(capsys):
    rng = np.random.default_rng(6543)
    bad = 0
    for _ in range(500):
        m = _random_manifest(rng)
        data = canonical_encode(m)
        bad += parse_manifest(data) != m
        bad += canonical_encode(parse_manifest(data)) != data
    worked = canonical_encode(MINIMAL) == MINIMAL_BYTES
    ok = bad == 0 and worked
    with capsys.disabled():
        _report(6, ok, f"500 manifests round-trip both ways ({bad} failures); "
                       f"worked byte string {'reproduced' if worked else 'WRONG'}")
    assert bad == 0
    assert worked


# ---------------------------------------------------------------------------
# 7. revocation
# ---------------------------------------------------------------------------

def test_criterion_7_revocation(tmp_path, capsys):
    pair = keygen("CAM-007", bytes(range(32)))
    registry = Registry((RegistryEntry("CAM-007", TRUSTED, pair.public_key.hex()),))
    scores = DimensionScores(depth=0.9, thermal=0.9, audio_sync=0.9, motion=0.9)
    bundle = seal(b"payload", scores, 0.9, pair, 1700000000)
    sidecar = write_sidecar(bundle)

    before = verify(b"payload", sidecar, registry).verdict
    after = verify(b"payload", sidecar, revoke(registry, "CAM-007")).verdict

    image_f = tmp_path / "image.pgm"
    sidecar_f = tmp_path / "image.rsl"
    registry_f = tmp_path / "registry.rsr"
    image_f.write_bytes(b"payload")
    sidecar_f.write_bytes(sidecar)
    registry_f.write_text(f"CAM-007 revoked {pair.public_key.hex()}\n")
    cli_code = cli_main(["verify", str(image_f), str(sidecar_f),
                         "--registry", str(registry_f)])
    capsys.readouterr()

    ok = before == "authentic" and after == "untrusted_device" and cli_code == 1
    with capsys.disabled():
        _report(7, ok, f"revocation: before={before}, after={after}, cli exit={cli_code}")
    assert before == "authentic"
    assert after == "untrusted_device"
    assert cli_code == 1


# ---------------------------------------------------------------------------
# 8. end-to-end determinism through the CLI
# ---------------------------------------------------------------------------

def test_criterion_8_end_to_end_determinism(tmp_path, capsys):
    key_dir = tmp_path / "keys"
    assert cli_main(["keygen", "CAM-008", "--seed", "ab" * 32,
                     "--out", str(key_dir)]) == 0
    capsys.readouterr()

    outputs = []
    for run in ("one", "two"):
        cap_dir = tmp_path / run / "cap"
        sealed = tmp_path / run / "sealed"
        assert cli_main(["simulate", "--scenario", "genuine", "--seed", "42",
                         "--out", str(cap_dir)]) == 0
        capsys.readouterr()
        assert cli_main(["seal", str(cap_dir), "--key", str(key_dir / "CAM-008.sk"),
                         "--out", str(sealed), "--json"]) == 0
        seal_json = capsys.readouterr().out
        capture_files = {f.name: f.read_bytes() for f in sorted(cap_dir.iterdir())}
        outputs.append({
            "captures": capture_files,
            "image": (sealed / "image.pgm").read_bytes(),
            "sidecar": (sealed / "image.rsl").read_bytes(),
            "json": seal_json,
        })

    ok = outputs[0] == outputs[1]
    with capsys.disabled():
        _report(8, ok, "simulate->seal twice: capture dir, image, sidecar and "
                       "--json outputs byte-identical")
    assert outputs[0]["captures"] == outputs[1]["captures"]
    assert outputs[0]["image"] == outputs[1]["image"]
    assert outputs[0]["sidecar"] == outputs[1]["sidecar"]
    assert outputs[0]["json"] == outputs[1]["json"]
