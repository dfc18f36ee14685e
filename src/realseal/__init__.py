"""realseal: source-side media authentication at desk scale.

Synthesize multisensory scene captures, score how physically real they look,
seal the image plus its score manifest with a device signature, and verify
sealed bundles against a device key registry.

Importing the package loads only the modules a consumer needs to verify a
bundle (errors, manifest, registry, sealing), none of which imports numpy.
The submodules capture_io, rng, scene and scoring, and the names they export
here, import numpy; each loads on first use, through the module __getattr__.
"""

from importlib import import_module as _import_module

from .errors import (
    CaptureError,
    ManifestError,
    RealSealError,
    RegistryError,
    SidecarError,
)
from .manifest import (
    ManifestScores,
    RealismManifest,
    canonical_encode,
    parse_manifest,
    quantize_score,
)
from .registry import (
    REVOKED,
    TRUSTED,
    Registry,
    RegistryEntry,
    add_entry,
    load_registry,
    lookup,
    revoke,
    save_registry,
)
from .sealing import (
    DeviceKeyPair,
    SealedBundle,
    VerificationReport,
    image_hash,
    keygen,
    read_sidecar,
    seal,
    verify,
    write_sidecar,
)

__version__ = "1.0.0"

# Submodule -> the names it exports here, loaded on first use.
_LAZY = {
    "capture_io": ("encode_frame_pgm", "read_capture_dir", "write_capture_dir"),
    "rng": (),
    "scene": (
        "SceneCapture",
        "ScenarioParams",
        "generate_genuine_scene",
        "generate_printed_photo_scene",
        "generate_scene",
        "generate_screen_replay_scene",
    ),
    "scoring": (
        "DimensionScores",
        "PlaneFit",
        "aggregate",
        "audio_envelope",
        "best_lag_correlation",
        "fit_plane",
        "flow_shift",
        "motion_energy",
        "score_audio_sync",
        "score_capture",
        "score_depth",
        "score_motion",
        "score_thermal",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "CaptureError", "ManifestError", "RealSealError", "RegistryError", "SidecarError",
    "ManifestScores", "RealismManifest", "canonical_encode", "parse_manifest",
    "quantize_score",
    "REVOKED", "TRUSTED", "Registry", "RegistryEntry", "add_entry", "load_registry",
    "lookup", "revoke", "save_registry",
    "DeviceKeyPair", "SealedBundle", "VerificationReport", "image_hash", "keygen",
    "read_sidecar", "seal", "verify", "write_sidecar",
    "errors", "manifest", "registry", "sealing",
    *_LAZY, *_LAZY_HOME,
]


def __getattr__(name: str):
    module = _LAZY_HOME.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
