#!/usr/bin/env python3
"""realseal benchmark: closed-loop capture->seal and fleet-verify workloads.

    python3 benchmarks/run.py --workload capture-large --seed 1 --seconds 40 --trace 0

Workloads (single process, single thread, one client, closed loop: the next
op starts when the previous one returns):

* capture-desk   generate -> write/read capture dir -> score -> encode ->
                 seal -> sidecar, at the default ScenarioParams (32x32x16);
                 not registered in BENCHMARK.json (see README.md)
* capture-large  the same loop at ScenarioParams(128, 128, 32)
* verify-fleet   verify() over a pre-sealed corpus against a registry of
                 10^5 devices, with every verdict in the mix

The benchmark drives the library the way ``realseal.cli`` does and times
the calls into each module's public functions from outside. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs half of the time
untraced and half traced and reports the per-layer metrics, which come from
spans recorded around each call, plus the tracing overhead. Every output is
checked; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md here.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "realseal" / "__init__.py").is_file():
    sys.exit(f"benchmark: no realseal sources under {SRC}")
sys.path.insert(0, str(SRC))

import cryptography  # noqa: E402
import numpy  # noqa: E402

from realseal.capture_io import encode_frame_pgm, read_capture_dir, write_capture_dir  # noqa: E402
from realseal.errors import ManifestError, SidecarError  # noqa: E402
from realseal.manifest import canonical_encode, parse_manifest  # noqa: E402
from realseal.registry import (  # noqa: E402
    REVOKED,
    TRUSTED,
    Registry,
    RegistryEntry,
    load_registry,
    lookup,
)
from realseal.scene import ScenarioParams, generate_scene  # noqa: E402
from realseal.scoring import (  # noqa: E402
    DimensionScores,
    aggregate,
    score_audio_sync,
    score_capture,
    score_depth,
    score_motion,
    score_thermal,
)
from realseal.sealing import (  # noqa: E402
    VERDICT_AUTHENTIC,
    VERDICT_MALFORMED,
    VERDICT_TAMPERED_IMAGE,
    VERDICT_TAMPERED_MANIFEST,
    VERDICT_UNKNOWN_DEVICE,
    VERDICT_UNTRUSTED_DEVICE,
    SealedBundle,
    image_hash,
    keygen,
    load_keypair_file,
    read_sidecar,
    seal,
    verify,
    verify_data,
    write_keypair_files,
    write_sidecar,
)

import realseal  # noqa: E402

if not Path(realseal.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"benchmark: imported realseal from {realseal.__file__}, not from {SRC}")

WORKLOADS = ("capture-desk", "capture-large", "verify-fleet")
CAPTURE_PARAMS = {
    "capture-desk": ScenarioParams(),
    "capture-large": ScenarioParams(width=128, height=128, frame_count=32),
}
SCENARIOS = ("genuine", "screen-replay", "printed-photo")
VERDICTS = (VERDICT_AUTHENTIC, VERDICT_TAMPERED_IMAGE, VERDICT_TAMPERED_MANIFEST,
            VERDICT_UNTRUSTED_DEVICE, VERDICT_UNKNOWN_DEVICE, VERDICT_MALFORMED)
LAYERS = ("scene", "capture_io", "scoring", "manifest", "sealing", "registry")

# Distinct captures a capture-* run cycles through (4 per scenario). Each is
# sealed once in the warm-up, which yields the reference bytes later ops
# must reproduce exactly.
CAPTURE_SPECS = 12
# README's separation on per-scenario mean overall scores.
GENUINE_MIN_OVERALL = 0.8
ATTACK_MAX_OVERALL = 0.3

FLEET_SIZE = 100_000
FLEET_SIGNERS = 256       # real keys, one per stratum of the registry
FLEET_REVOKED = 24
FLEET_PER_VERDICT = 24    # corpus entries per non-authentic verdict
FLEET_AUTHENTIC = 264     # so ~69% of the 384-entry corpus is authentic
FLEET_CONTENTS = 6        # captures scored once, then sealed under many keys

SETUP_REPEATS = 9

# A speed probe runs every PROBE_INTERVAL_S during a loop, outside the ops'
# clocks. Each op's time is scaled by the probes within PROBE_WINDOW_S of
# its start, to a machine on which the probe takes PROBE_REFERENCE_S (about
# its median on the 2-vCPU box the baseline ran on). The probe is sized to
# take that long there.
PROBE_INTERVAL_S = 0.2
PROBE_WINDOW_S = 1.0
PROBE_REFERENCE_S = 0.0025

# (span name, unit of its p50); verify-side calls take microseconds.
CALLS = (
    ("scene.generate", "ms"),
    ("capture_io.write_capture_dir", "ms"),
    ("capture_io.read_capture_dir", "ms"),
    ("capture_io.encode_frame_pgm", "ms"),
    ("scoring.score_depth", "ms"),
    ("scoring.score_thermal", "ms"),
    ("scoring.score_audio_sync", "ms"),
    ("scoring.score_motion", "ms"),
    ("scoring.aggregate", "ms"),
    ("sealing.seal", "ms"),
    ("sealing.write_sidecar", "ms"),
    ("manifest.canonical_encode", "us"),
    ("registry.load_registry", "ms"),
    ("registry.lookup", "us"),
    ("sealing.read_sidecar", "us"),
    ("manifest.parse_manifest", "us"),
    ("sealing.image_hash", "us"),
    ("sealing.verify_data", "us"),
    ("sealing.verify", "us"),
)
# The verify() parts whose spans sit side by side; parse_manifest runs
# inside read_sidecar, so it is timed on its own but not subtracted.
VERIFY_PARTS = ("sealing.read_sidecar", "sealing.image_hash", "registry.lookup",
                "manifest.canonical_encode", "sealing.verify_data")

_SCALE = {"ms": 1e3, "us": 1e6}

# A fresh interpreter: the clock starts before `import realseal` and stops
# when the program's own set-up (key load or registry load) has returned.
_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import realseal
from pathlib import Path
if sys.argv[2] == "key":
    realseal.sealing.load_keypair_file(sys.argv[3])
else:
    realseal.load_registry(Path(sys.argv[3]).read_bytes())
print(time.perf_counter() - start)
"""


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans around the benchmark's calls into realseal, kept in memory.

    A span is (op id, span id, parent span id, name, start, end, error);
    error is None, or the exception's class name, prefixed with
    ``expected:`` when the op was built to provoke it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def call(self, op: int, parent: int | None, name: str, fn: Callable, *args,
             expected: tuple = ()):
        sid = self.new_id()
        error = None
        start = time.perf_counter()
        try:
            return fn(*args)
        except expected as exc:
            error = "expected:" + type(exc).__name__
            raise
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self.spans.append((op, sid, parent, name, start, time.perf_counter(), error))

    def add_op(self, op: int, sid: int, start: float) -> None:
        self.spans.append((op, sid, None, "op", start, time.perf_counter(), None))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for op, sid, parent, name, start, end, error in self.spans:
                f.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end, "error": error}) + "\n")


# ---------------------------------------------------------------------------
# Speed probe
# ---------------------------------------------------------------------------

# On a shared host the same op runs up to ~1.6x slower while neighbours are
# busy, for seconds to minutes at a time. A speed probe is a fixed task that
# slows with it, so dividing by it keeps timings comparable between runs.
# The probe allocates no containers, so it never triggers the garbage
# collector.

class NumpyProbe:
    """Small numpy calls on a 64-element vector: interpreter and dispatch
    work, like most of a capture op and the Python side of verify()."""

    def __init__(self) -> None:
        self._v = numpy.arange(64, dtype=numpy.float64)

    def __call__(self) -> float:
        start = time.perf_counter()
        v = self._v
        for k in range(150):
            float(numpy.roll(v, k) @ v)
        return time.perf_counter() - start


# ---------------------------------------------------------------------------
# capture-desk / capture-large
# ---------------------------------------------------------------------------

class Spec(NamedTuple):
    scenario: str
    seed: int


class SealOutput(NamedTuple):
    image: bytes
    sidecar: bytes
    dims: DimensionScores
    overall: float


class CaptureWorkload:
    """Device side: simulate a capture, persist and reload it, score, seal."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.params = CAPTURE_PARAMS[name]
        rng = random.Random(f"{name}:{seed}")
        # Round-robin over scenarios, so any prefix of the cycle is balanced.
        self.inputs = [Spec(SCENARIOS[i % len(SCENARIOS)], rng.getrandbits(64))
                       for i in range(CAPTURE_SPECS)]
        pair = keygen("BENCH-CAM-001", rng.randbytes(32))
        self.key_path, _ = write_keypair_files(pair, work / "keys")
        self.capture_dir = work / "capture"
        self.setup_args = ("key", str(self.key_path))
        self.refs: list[SealOutput | None] = []
        self.bad: set[int] = set()
        self.verdicts: dict[str, int] = {}
        self.digest = ""

    def setup(self, tracer: Tracer | None = None) -> None:
        self.pair = load_keypair_file(self.key_path)
        self.registry = Registry((RegistryEntry(
            self.pair.device_id, TRUSTED, self.pair.public_key.hex()),))

    def work(self, i: int) -> SealOutput:
        spec = self.inputs[i]
        capture = generate_scene(spec.scenario, spec.seed, self.params)
        write_capture_dir(capture, self.capture_dir)
        capture = read_capture_dir(self.capture_dir)
        dims, overall = score_capture(capture)
        image = encode_frame_pgm(capture.frames[0])
        bundle = seal(image, dims, overall, self.pair, capture.timestamp_unix, capture.location)
        return SealOutput(image, write_sidecar(bundle), dims, overall)

    def work_traced(self, tr: Tracer, op: int, i: int) -> SealOutput:
        """work(), with score_capture split into its four scorers and aggregate."""
        spec = self.inputs[i]
        sid = tr.new_id()
        start = time.perf_counter()
        capture = tr.call(op, sid, "scene.generate",
                          generate_scene, spec.scenario, spec.seed, self.params)
        tr.call(op, sid, "capture_io.write_capture_dir",
                write_capture_dir, capture, self.capture_dir)
        capture = tr.call(op, sid, "capture_io.read_capture_dir", read_capture_dir, self.capture_dir)
        dims = DimensionScores(
            depth=tr.call(op, sid, "scoring.score_depth", score_depth, capture.depth_maps[0]),
            thermal=tr.call(op, sid, "scoring.score_thermal", score_thermal, capture.thermal),
            audio_sync=tr.call(op, sid, "scoring.score_audio_sync", score_audio_sync, capture),
            motion=tr.call(op, sid, "scoring.score_motion", score_motion, capture),
        )
        overall = tr.call(op, sid, "scoring.aggregate", aggregate, dims)
        image = tr.call(op, sid, "capture_io.encode_frame_pgm", encode_frame_pgm, capture.frames[0])
        bundle = tr.call(op, sid, "sealing.seal", seal, image, dims, overall, self.pair,
                         capture.timestamp_unix, capture.location)
        # write_sidecar encodes the manifest itself; this call shows that part.
        tr.call(op, sid, "manifest.canonical_encode", canonical_encode, bundle.manifest)
        sidecar = tr.call(op, sid, "sealing.write_sidecar", write_sidecar, bundle)
        tr.add_op(op, sid, start)
        with os.scandir(self.capture_dir) as entries:
            for e in entries:
                tr.count("capture_io.files_written")
                tr.count("capture_io.bytes_written", e.stat().st_size)
        return SealOutput(image, sidecar, dims, overall)

    def warm(self) -> None:
        """Seal every input once and check the references outside the loop.

        A reference fails if sealing raises or its sidecar does not verify as
        authentic; a scenario fails if its mean overall score loses README's
        separation. Ops on a failed input or scenario count as failed.
        """
        for i in range(len(self.inputs)):
            try:
                out = self.work(i)
            except Exception:
                self.refs.append(None)
                self.bad.add(i)
                continue
            verdict = verify(out.image, out.sidecar, self.registry).verdict
            self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
            if verdict != VERDICT_AUTHENTIC:
                self.bad.add(i)
            self.refs.append(out)
        for scenario in SCENARIOS:
            idx = [i for i, s in enumerate(self.inputs) if s.scenario == scenario]
            scores = [self.refs[i].overall for i in idx if self.refs[i] is not None]
            mean = statistics.fmean(scores) if scores else float("nan")
            ok = (mean >= GENUINE_MIN_OVERALL if scenario == "genuine"
                  else mean <= ATTACK_MAX_OVERALL)
            if not ok:
                self.bad.update(idx)
        self.digest = hashlib.sha256(
            b"".join(r.sidecar if r else b"-" for r in self.refs)).hexdigest()

    def check(self, i: int, out: SealOutput) -> bool:
        return i not in self.bad and out == self.refs[i]


# ---------------------------------------------------------------------------
# verify-fleet
# ---------------------------------------------------------------------------

class Entry(NamedTuple):
    image: bytes
    sidecar: bytes
    expected: str


def _malformed(sidecar: bytes, variant: int) -> bytes:
    """Four ways a sidecar breaks the .rsl layout or the manifest grammar."""
    n = int.from_bytes(sidecar[4:8], "big")
    manifest, rest = sidecar[8:8 + n], sidecar[8 + n:]
    if variant == 0:
        return sidecar[:-1]                                   # truncated signature
    if variant == 1:
        return b"RSLX" + sidecar[4:]                          # bad magic
    if variant == 2:
        return sidecar + b"\x00"                              # trailing byte
    spaced = manifest.replace(b'{"algos"', b'{ "algos"', 1)  # non-canonical JSON
    return b"RSL1" + struct.pack(">I", len(spaced)) + spaced + rest


class FleetWorkload:
    """Consumer side: verify pre-sealed bundles against a large registry.

    Real signing keys sit at seeded positions, one in each of FLEET_SIGNERS
    equal strata of the registry, so the scan depth of lookups has nearly the
    same distribution under every seed. The other entries are filler keys.
    """

    def __init__(self, seed: int, work: Path) -> None:
        rng = random.Random(f"verify-fleet:{seed}")
        stratum = FLEET_SIZE // FLEET_SIGNERS
        positions = [j * stratum + rng.randrange(stratum) for j in range(FLEET_SIGNERS)]
        pairs = [keygen(f"FLEET-{p:06d}", rng.randbytes(32)) for p in positions]
        revoked = set(rng.sample(range(FLEET_SIGNERS), FLEET_REVOKED))
        keys = {p: (pair.public_key.hex(), REVOKED if j in revoked else TRUSTED)
                for j, (p, pair) in enumerate(zip(positions, pairs))}
        # Written line by line, so the benchmark never holds the registry
        # text and peak_rss_mb is set by load_registry, not by this.
        self.registry_path = work / "registry.rsr"
        with self.registry_path.open("w", encoding="utf-8") as f:
            for i in range(FLEET_SIZE):
                pk, status = keys.get(i) or (rng.randbytes(32).hex(), TRUSTED)
                f.write(f"FLEET-{i:06d} {status} {pk}\n")
        self.setup_args = ("registry", str(self.registry_path))

        contents = []
        for c in range(FLEET_CONTENTS):
            capture = generate_scene(SCENARIOS[c % len(SCENARIOS)], rng.getrandbits(64))
            dims, overall = score_capture(capture)
            contents.append((encode_frame_pgm(capture.frames[0]), dims, overall,
                             capture.timestamp_unix, capture.location))
        trusted = [pair for j, pair in enumerate(pairs) if j not in revoked]
        untrusted = [pairs[j] for j in sorted(revoked)]
        unknown = [keygen(f"FLEET-{FLEET_SIZE + k:06d}", rng.randbytes(32))
                   for k in range(FLEET_PER_VERDICT)]

        def sealed(k: int, pair) -> tuple[bytes, SealedBundle]:
            image, dims, overall, ts, loc = contents[k % FLEET_CONTENTS]
            return image, seal(image, dims, overall, pair, ts, loc)

        corpus = []
        for k in range(FLEET_AUTHENTIC):
            image, bundle = sealed(k, trusted[k % len(trusted)])
            corpus.append(Entry(image, write_sidecar(bundle), VERDICT_AUTHENTIC))
        for k in range(FLEET_PER_VERDICT):
            image, bundle = sealed(k, rng.choice(trusted))
            flipped = bytearray(image)
            flipped[-1 - rng.randrange(64)] ^= 0x01
            corpus.append(Entry(bytes(flipped), write_sidecar(bundle), VERDICT_TAMPERED_IMAGE))

            image, bundle = sealed(k, rng.choice(trusted))
            scores = bundle.manifest.scores
            forged = dataclasses.replace(bundle.manifest, scores=dataclasses.replace(
                scores, depth=(scores.depth + 1) % 1001))
            corpus.append(Entry(image, write_sidecar(dataclasses.replace(bundle, manifest=forged)),
                                VERDICT_TAMPERED_MANIFEST))

            image, bundle = sealed(k, untrusted[k % len(untrusted)])
            corpus.append(Entry(image, write_sidecar(bundle), VERDICT_UNTRUSTED_DEVICE))

            image, bundle = sealed(k, unknown[k])
            corpus.append(Entry(image, write_sidecar(bundle), VERDICT_UNKNOWN_DEVICE))

            image, bundle = sealed(k, rng.choice(trusted))
            corpus.append(Entry(image, _malformed(write_sidecar(bundle), k % 4), VERDICT_MALFORMED))
        rng.shuffle(corpus)
        self.inputs = corpus
        self.verdicts: dict[str, int] = {}
        self.digest = ""

    def setup(self, tracer: Tracer | None = None) -> None:
        data = self.registry_path.read_bytes()
        if tracer is None:
            self.registry = load_registry(data)
        else:
            self.registry = tracer.call(-1, None, "registry.load_registry", load_registry, data)

    def work(self, i: int) -> str:
        entry = self.inputs[i]
        return verify(entry.image, entry.sidecar, self.registry).verdict

    def work_traced(self, tr: Tracer, op: int, i: int) -> str:
        """verify(), then the public calls it makes, on the same input."""
        entry = self.inputs[i]
        sid = tr.new_id()
        start = time.perf_counter()
        verdict = tr.call(op, sid, "sealing.verify",
                          verify, entry.image, entry.sidecar, self.registry).verdict
        try:
            manifest, signature = tr.call(op, sid, "sealing.read_sidecar", read_sidecar,
                                          entry.sidecar, expected=(SidecarError, ManifestError))
        except (SidecarError, ManifestError):
            pass
        else:
            n = int.from_bytes(entry.sidecar[4:8], "big")
            tr.call(op, sid, "manifest.parse_manifest", parse_manifest, entry.sidecar[8:8 + n])
            tr.call(op, sid, "sealing.image_hash", image_hash, entry.image)
            found = tr.call(op, sid, "registry.lookup", lookup, self.registry, manifest.device_id)
            tr.count("registry.lookup_hits", found is not None)
            if found is not None:
                encoded = tr.call(op, sid, "manifest.canonical_encode", canonical_encode, manifest)
                tr.call(op, sid, "sealing.verify_data", verify_data,
                        bytes.fromhex(found.public_key_hex), encoded, signature)
        tr.add_op(op, sid, start)
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        return verdict

    def warm(self) -> None:
        """One pass over the corpus; its verdicts make the output digest."""
        h = hashlib.sha256()
        for i, entry in enumerate(self.inputs):
            try:
                verdict = self.work(i)
            except Exception:
                verdict = "raised"
            h.update(entry.sidecar + verdict.encode("ascii"))
        self.digest = h.hexdigest()

    def check(self, i: int, verdict: str) -> bool:
        return verdict == self.inputs[i].expected


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class LoopStats:
    starts: list[float]
    latencies: list[float]
    failed: int
    elapsed: float        # run time of the ops, probe runs excluded
    probes: list[tuple[float, float]]   # (start, duration)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scales(self) -> list[float]:
        """Per op, reference seconds per measured second (above 1 on a
        faster machine), from the probes within PROBE_WINDOW_S of its start."""
        times = [t for t, _ in self.probes]
        values = [d for _, d in self.probes]
        out = []
        for t in self.starts:
            lo = bisect.bisect_left(times, t - PROBE_WINDOW_S)
            hi = bisect.bisect_right(times, t + PROBE_WINDOW_S)
            window = values[lo:hi] or values[max(lo - 1, 0):lo + 1]
            out.append(PROBE_REFERENCE_S / statistics.median(window))
        return out

    def ref_latencies(self) -> list[float]:
        return [lat * s for lat, s in zip(self.latencies, self.scales())]


def closed_loop(workload, seconds: float, probe: Callable[[], float],
                tracer: Tracer | None = None, first_op: int = 0) -> LoopStats:
    """Run ops back to back for `seconds`; each op is timed, then checked.

    An op fails if it raises or if its check fails; the check runs after the
    op's clock stops. The speed probe runs between ops.
    """
    n = len(workload.inputs)
    starts: list[float] = []
    latencies: list[float] = []
    probes: list[tuple[float, float]] = []
    failed = 0
    op = first_op
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start
    while True:
        t0 = time.perf_counter()
        if t0 >= deadline and latencies:
            break
        if t0 >= next_probe:
            probes.append((t0, probe()))
            next_probe = time.perf_counter() + PROBE_INTERVAL_S
            continue
        i = op % n
        try:
            out = (workload.work(i) if tracer is None
                   else workload.work_traced(tracer, op, i))
            t1 = time.perf_counter()
            ok = workload.check(i, out)
        except Exception:
            t1 = time.perf_counter()
            ok = False
        starts.append(t0)
        latencies.append(t1 - t0)
        failed += not ok
        op += 1
    probe_time = sum(d for _, d in probes)
    return LoopStats(starts, latencies, failed, time.perf_counter() - start - probe_time, probes)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1 <= q <= 99), as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def measure_setup(workload) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), *workload.setup_args],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding path, from /proc/self/mounts."""
    best, fs = "", "unknown"
    target = str(path.resolve())
    try:
        lines = Path("/proc/self/mounts").read_text(encoding="utf-8").splitlines()
    except OSError:
        return fs
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fs = mount, fields[2]
    return fs


def environment(work: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "work_fs": _fs_type(work),
        "machine": platform.machine(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(stats: LoopStats, setup: list[float]) -> tuple[dict, dict]:
    """The metrics, with loop timings in reference units, and the raw ones.

    Set-up runs in other processes, between which the probe does not track
    the machine's speed, so setup_s stays in plain seconds.
    """
    done = stats.attempted - stats.failed
    raw = {
        "ops_per_s": done / stats.elapsed,
        "latency_ms_p50": statistics.median(stats.latencies) * 1e3,
        "latency_ms_p90": percentile(stats.latencies, 90) * 1e3,
    }
    ref = stats.ref_latencies()
    # The loop's run time in reference seconds: its ops' mean scale,
    # weighted by their time, applied to the whole loop.
    ref_elapsed = stats.elapsed * sum(ref) / sum(stats.latencies)
    metrics = {
        "ops_per_s": _metric(done / ref_elapsed, "1/ref_s"),
        "latency_ms_p50": _metric(statistics.median(ref) * 1e3, "ref_ms"),
        "latency_ms_p90": _metric(percentile(ref, 90) * 1e3, "ref_ms"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return metrics, raw


def per_layer_metrics(workload, tr: Tracer, untraced: LoopStats, traced: LoopStats) -> dict:
    m: dict[str, dict] = {}
    for name, unit in CALLS:
        d = tr.durations(name)
        m[f"{name}.calls"] = _metric(len(d), "count")
        m[f"{name}.busy_s"] = _metric(sum(d), "s")
        m[f"{name}.p50_{unit}"] = _metric(statistics.median(d) * _SCALE[unit] if d else 0.0, unit)
    ops = len(tr.durations("op"))
    for name, unit in (("capture_io.bytes_written", "bytes/op"), ("capture_io.files_written", "files/op")):
        m[name] = _metric(tr.counts.get(name, 0) / ops if ops else 0.0, unit)
    lookups = len(tr.durations("registry.lookup"))
    hits = tr.counts.get("registry.lookup_hits", 0)
    m["registry.lookup_hit_ratio"] = _metric(hits / lookups if lookups else 0.0, "ratio")
    fleet = isinstance(workload, FleetWorkload)
    m["registry.entries"] = _metric(len(workload.registry.entries) if fleet else 0, "count")

    per_op: dict[int, dict[str, float]] = {}
    for op, _sid, _parent, name, start, end, _error in tr.spans:
        if name == "sealing.verify" or name in VERIFY_PARTS:
            per_op.setdefault(op, {})[name] = end - start
    unexplained = [p["sealing.verify"] - sum(p.get(n, 0.0) for n in VERIFY_PARTS)
                   for p in per_op.values() if "sealing.verify" in p]
    m["sealing.verify.unexplained_us"] = _metric(
        statistics.median(unexplained) * 1e6 if unexplained else 0.0, "us")

    for verdict in VERDICTS:
        m[f"sealing.verdict.{verdict}"] = _metric(workload.verdicts.get(verdict, 0), "count")
    errors = {layer: 0 for layer in LAYERS}
    for span in tr.spans:
        error = span[6]
        if error and not error.startswith("expected:"):
            errors[span[3].split(".")[0]] += 1
    for layer in LAYERS:
        m[f"{layer}.errors"] = _metric(errors[layer], "count")

    # Overhead: the traced unit that does the untraced op's work, against
    # the untraced op (the whole op for capture-*, the verify() span on
    # verify-fleet), in reference units. The traced loop makes one such
    # span per op, in op order.
    unit = "sealing.verify" if fleet else "op"
    base = statistics.median(untraced.ref_latencies())
    spans = [d * s for d, s in zip(tr.durations(unit), traced.scales())]
    with_tracing = statistics.median(spans) if spans else base
    m["trace.untraced_p50_ms"] = _metric(base * 1e3, "ref_ms")
    m["trace.traced_p50_ms"] = _metric(with_tracing * 1e3, "ref_ms")
    m["trace.overhead_pct"] = _metric((with_tracing / base - 1.0) * 100.0, "%")
    m["trace.spans"] = _metric(len(tr.spans), "count")
    return m


def make_workload(name: str, seed: int, work: Path):
    if name == "verify-fleet":
        return FleetWorkload(seed, work)
    return CaptureWorkload(name, seed, work)


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / f"{name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        workload = make_workload(name, seed, work)
        setup = [] if trace else measure_setup(workload)
        tracer = Tracer() if trace else None
        workload.setup(tracer)
        workload.warm()
        probe = NumpyProbe()
        raw: dict[str, float] = {}
        if trace:
            untraced = closed_loop(workload, seconds / 2, probe)
            traced = closed_loop(workload, seconds / 2, probe, tracer, first_op=untraced.attempted)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            metrics = per_layer_metrics(workload, tracer, untraced, traced)
            spans_path = WORK / "spans" / f"{name}-seed{seed}.jsonl"
            tracer.write(spans_path)
        else:
            stats = closed_loop(workload, seconds, probe)
            attempted, failed = stats.attempted, stats.failed
            metrics, raw = end_to_end_metrics(stats, setup)
        env = environment(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"realseal benchmark: workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} (closed loop, 1 client, 1 thread)")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, m in metrics.items():
        note = ""
        if key in raw:
            unit = m["unit"].replace("ref_", "")
            note = f"n={attempted}, raw {raw[key]:.6g} {unit}"
        elif key == "setup_s":
            note = f"n={len(setup)} fresh interpreters"
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']:<8} {note}")
    if raw:
        raw["probe_p50_ms"] = statistics.median(d for _, d in stats.probes) * 1e3
        print(f"  speed probe p50: {raw['probe_p50_ms']:.4f} ms "
              f"(n={len(stats.probes)}; reference {PROBE_REFERENCE_S * 1e3:g} ms)")
    print(f"  {'failed_ratio':<40} {failed / attempted:>14.6g} {'ratio':<8} ({failed}/{attempted})")
    if trace:
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    print(f"output_digest {workload.digest}")
    if raw:
        # The unscaled loop timings and the probe median, in full, so a
        # comparison can be made on raw time too (see README.md).
        print("raw " + json.dumps(raw))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
