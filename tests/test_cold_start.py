"""The consumer's cold start: what `import realseal` loads, and what it exports.

The verify side (import, load_registry, read_sidecar, verify, key files, the
verify/inspect/keygen subcommands) must not import numpy; the numpy-backed
names still resolve, on first use, to the objects their submodules define.
Each check runs in a fresh interpreter, since this one has numpy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import realseal
from realseal import TRUSTED, Registry, RegistryEntry, save_registry, seal, write_sidecar
from realseal.scoring import DimensionScores

_SRC = str(Path(realseal.__file__).resolve().parent.parent)

# Every name the package exported when its __init__ imported every module.
EXPORTS = {
    "capture_io": ("encode_frame_pgm", "read_capture_dir", "write_capture_dir"),
    "errors": ("CaptureError", "ManifestError", "RealSealError", "RegistryError",
               "SidecarError"),
    "manifest": ("ManifestScores", "RealismManifest", "canonical_encode", "parse_manifest",
                 "quantize_score"),
    "registry": ("REVOKED", "TRUSTED", "Registry", "RegistryEntry", "add_entry",
                 "load_registry", "lookup", "revoke", "save_registry"),
    "rng": (),
    "scene": ("SceneCapture", "ScenarioParams", "generate_genuine_scene",
              "generate_printed_photo_scene", "generate_scene", "generate_screen_replay_scene"),
    "scoring": ("DimensionScores", "PlaneFit", "aggregate", "audio_envelope",
                "best_lag_correlation", "fit_plane", "flow_shift", "motion_energy",
                "score_audio_sync", "score_capture", "score_depth", "score_motion",
                "score_thermal"),
    "sealing": ("DeviceKeyPair", "SealedBundle", "VerificationReport", "image_hash", "keygen",
                "read_sidecar", "seal", "verify", "write_sidecar"),
}


def _run(script: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": _SRC}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


_VERIFY_SIDE = """\
import sys

def numpy_free(step):
    assert "numpy" not in sys.modules, f"numpy imported by {step}"

import realseal
numpy_free("import realseal")
from pathlib import Path
key, registry, image, sidecar = sys.argv[1:]
reg = realseal.load_registry(Path(registry).read_bytes())
numpy_free("load_registry")
realseal.read_sidecar(Path(sidecar).read_bytes())
numpy_free("read_sidecar")
report = realseal.verify(Path(image).read_bytes(), Path(sidecar).read_bytes(), reg)
assert report.verdict == "authentic", report
numpy_free("verify")
realseal.sealing.load_keypair_file(key)
numpy_free("sealing.load_keypair_file")
from realseal import cli
code = cli.main(["verify", image, sidecar, "--registry", registry, "--json"])
assert code == 0
numpy_free("cli verify")
for argv in (["inspect", sidecar, "--json"],
             ["keygen", "CAM-002", "--seed", "ab" * 32, "--out", str(Path(key).parent)]):
    assert cli.main(argv) == 0
    numpy_free("cli " + argv[0])
"""


def test_verify_side_never_imports_numpy(tmp_path, device_pair):
    image = b"P5\n2 1\n255\n\x00\xff"
    bundle = seal(image, DimensionScores(0.9, 0.8, 0.7, 0.6), 0.75, device_pair, 1_700_000_000)
    files = {
        "CAM-001.sk": device_pair.secret_seed.hex() + "\n",
        "registry.rsr": save_registry(Registry((RegistryEntry(
            device_pair.device_id, TRUSTED, device_pair.public_key.hex()),))),
        "image.pgm": image,
        "image.rsl": write_sidecar(bundle),
    }
    for name, content in files.items():
        path = tmp_path / name
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    out = _run(_VERIFY_SIDE, *(str(tmp_path / name) for name in files))
    assert json.loads(out.splitlines()[0])["verdict"] == "authentic"
    assert (tmp_path / "CAM-002.pk").is_file()


_EXPORT_SURFACE = """\
import importlib, json, sys
import realseal
exports, attribute_first = json.loads(sys.argv[1]), sys.argv[2] == "attr"
for module, names in exports.items():
    home = importlib.import_module(f"realseal.{module}")
    assert getattr(realseal, module) is home, module
    for name in names:
        ns = {}
        if attribute_first:
            value = getattr(realseal, name)
            exec(f"from realseal import {name}", ns)
        else:
            exec(f"from realseal import {name}", ns)
            value = getattr(realseal, name)
        assert value is ns[name] is getattr(home, name), name
        assert name in dir(realseal), name
print("ok")
"""


@pytest.mark.parametrize("first", ["attr", "from"])
def test_every_old_export_is_the_same_object_on_first_use(first):
    assert _run(_EXPORT_SURFACE, json.dumps(EXPORTS), first) == "ok\n"


def test_submodules_resolve_as_attributes_in_a_fresh_interpreter():
    script = ("import realseal, sys\n"
              "assert 'realseal.scoring' not in sys.modules\n"
              "for m in ('capture_io', 'rng', 'scene', 'scoring'):\n"
              "    assert getattr(realseal, m) is sys.modules['realseal.' + m], m\n")
    _run(script)


def test_star_import_exports_the_old_names_and_submodules():
    ns = {}
    exec("from realseal import *", ns)
    del ns["__builtins__"]
    names = {name for names in EXPORTS.values() for name in names}
    assert set(ns) == names | set(EXPORTS)
    assert sorted(realseal.__all__) == sorted(ns)
    for module, names in EXPORTS.items():
        for name in names:
            assert ns[name] is getattr(getattr(realseal, module), name)


def test_unknown_name_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        realseal.no_such_name
    with pytest.raises(ImportError):
        exec("from realseal import no_such_name", {})
