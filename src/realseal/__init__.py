"""realseal: source-side media authentication at desk scale.

Synthesize multisensory scene captures, score how physically real they look,
seal the image plus its score manifest with a device signature, and verify
sealed bundles against a device key registry.
"""

from .capture_io import encode_frame_pgm, read_capture_dir, write_capture_dir
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
from .rng import Rng64, rng_next
from .scene import (
    SceneCapture,
    ScenarioParams,
    generate_genuine_scene,
    generate_printed_photo_scene,
    generate_scene,
    generate_screen_replay_scene,
)
from .scoring import (
    DimensionScores,
    PlaneFit,
    aggregate,
    audio_envelope,
    best_lag_correlation,
    fit_plane,
    flow_shift,
    motion_energy,
    score_audio_sync,
    score_capture,
    score_depth,
    score_motion,
    score_thermal,
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
