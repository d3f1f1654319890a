"""Stage runner, correctness gate, artifact digests, span arithmetic and provenance.

Every stage runs as `python -m speechdep.cli <stage> ... --jobs 1` in a child
process of its own, so its wall time and peak RSS are that child's alone:
peak RSS comes from the child's own rusage (os.wait4), never from
RUSAGE_CHILDREN, which is a running maximum over all children. A stage passes
the gate when it exits 0 with nothing but warnings on stderr and its
artifacts parse through the package's public readers. The criterion-9
pipeline's artifact digests must also match golden.json, recorded at the seed
commit.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import platform
import struct
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
TRACER = BENCH_DIR / "tracer.py"
GOLDEN = BENCH_DIR / "golden.json"
STAGE_TIMEOUT_S = 150.0

METRICS_HEADER = ["scope", "class", "accuracy", "precision", "recall", "f1"]
PREDICTIONS_HEADER = "machine,speaker_id,crop_index,probability,label"
CURVE_HEADER = "method,M,class,f1_mean,f1_std"


class GateError(Exception):
    """A stage or one of its artifacts failed the correctness gate."""


def require_package() -> None:
    """Make the speechdep sources importable here, or exit 2 without a result."""
    if not (SRC / "speechdep" / "cli.py").is_file():
        print(f"error: no speechdep sources under {SRC}; run from the repository root", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class StageRun:
    """One timed CLI stage: wall seconds, its own peak RSS, and work done in stage units."""

    stage: str
    wall_s: float
    peak_rss_mb: float
    minor_faults: int
    work: float
    digests: dict[str, str] = field(default_factory=dict)
    spans: list | None = None
    bindings: list | None = None  # `module.attr` names the tracer rebound
    info: dict = field(default_factory=dict)


def run_cli(stage: str, args: list[str], log_dir: Path, spans_path: Path | None = None):
    """Run one CLI stage in a child; returns (wall_s, its rusage, the tracer's output or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    if spans_path is None:
        cmd = [sys.executable, "-m", "speechdep.cli", stage, *args]
    else:
        cmd = [sys.executable, str(TRACER), str(spans_path), stage, *args]
    log_dir.mkdir(parents=True, exist_ok=True)
    err_path = log_dir / f"{stage}.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    if proc.returncode != 0 or "Traceback" in stderr or "error:" in stderr:
        raise GateError(f"{stage} exited {proc.returncode}: {stderr.strip()[-400:]}")
    trace = json.loads(spans_path.read_text()) if spans_path is not None else None
    return wall, usage, trace


# ------------------------------------------------------------ artifacts

def file_digests(paths, prefix: str) -> dict[str, str]:
    return {f"{prefix}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def combined_digest(digests: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(f"{name} {digests[name]}\n".encode())
    return h.hexdigest()


def same_digests(runs: list[dict[str, str]], what: str) -> None:
    """Runs of the same code on the same inputs must produce identical bytes."""
    for other in runs[1:]:
        if other != runs[0]:
            differ = sorted(k for k in set(runs[0]) | set(other) if runs[0].get(k) != other.get(k))
            raise GateError(f"{what}: artifacts differ between identical runs: {differ[:5]}")


def _summary(out: Path) -> dict:
    try:
        return json.loads((out / "run_summary.json").read_text())["summary"]
    except (OSError, ValueError, KeyError) as exc:
        raise GateError(f"{out}: unreadable run_summary.json ({exc})") from None


def check_synth(out: Path) -> dict:
    """Manifest parses and names one WAV per speaker; returns clip count and audio seconds."""
    from speechdep.audio_io import load_manifest

    try:
        manifest = load_manifest(out / "manifest.csv")
    except (OSError, ValueError, IndexError, struct.error) as exc:
        raise GateError(f"synth: manifest does not parse ({exc})") from None
    missing = [e.path for e in manifest.entries if not (out / e.path).is_file()]
    if not manifest.entries or missing:
        raise GateError(f"synth: {len(manifest.entries)} manifest rows, missing WAVs {missing[:3]}")
    return {"clips": len(manifest.entries), "audio_s": sum(e.duration_s for e in manifest.entries)}


def check_featurize(out: Path) -> dict:
    """Both caches parse with the summary's record counts and feature shape."""
    from speechdep.features import read_feature_cache

    summary = _summary(out)
    counts = {}
    for split in ("train", "test"):
        try:
            feats = read_feature_cache(out / f"{split}.lspg", normalize=False)
        except (OSError, ValueError, IndexError, struct.error) as exc:
            raise GateError(f"featurize: {split}.lspg does not parse ({exc})") from None
        if len(feats) != summary[f"{split}_crops"] or list(feats[0].shape) != summary["feature_shape"]:
            raise GateError(f"featurize: {split}.lspg holds {len(feats)} x {feats[0].shape}, summary says otherwise")
        counts[split] = len(feats)
    return counts


def check_train(out: Path, machines: int) -> list[Path]:
    """Exactly `machines` model files, each loading through load_model."""
    from speechdep.network import load_model

    models = sorted(out.glob("model_*.sdm"))
    if len(models) != machines:
        raise GateError(f"train: {len(models)} model files, expected {machines}")
    for path in models:
        try:
            load_model(path)
        except (OSError, ValueError, IndexError, struct.error) as exc:
            raise GateError(f"train: {path.name} does not load ({exc})") from None
    return models


def _first_line(path: Path) -> str:
    try:
        with path.open() as fh:
            return fh.readline().rstrip("\r\n")
    except OSError as exc:
        raise GateError(f"{path.name}: unreadable ({exc})") from None


def check_evaluate(out: Path, predictions: int) -> None:
    if _first_line(out / "metrics.csv").split(",") != METRICS_HEADER:
        raise GateError("evaluate: metrics.csv header differs")
    if _first_line(out / "predictions.csv") != PREDICTIONS_HEADER:
        raise GateError("evaluate: predictions.csv header differs")
    with (out / "predictions.csv").open() as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != predictions:
        raise GateError(f"evaluate: predictions.csv has {rows} rows, expected {predictions}")


def check_curve(out: Path, rows: int) -> None:
    if _first_line(out / "curve.csv") != CURVE_HEADER:
        raise GateError("curve: curve.csv header differs")
    with (out / "curve.csv").open() as fh:
        found = sum(1 for _ in fh) - 1
    if found != rows:
        raise GateError(f"curve: curve.csv has {found} rows, expected {rows}")


def check_golden(digests: dict[str, str]) -> None:
    """The criterion-9 pipeline's artifacts must match golden.json byte for byte."""
    golden = json.loads(GOLDEN.read_text())["digests"]
    differ = {k: digests.get(k) for k in sorted(set(golden) | set(digests)) if golden.get(k) != digests.get(k)}
    if differ:
        raise GateError(f"criterion-9 artifacts differ from golden.json; this code gives {json.dumps(differ)}")


def golden_marker(out_dir: Path) -> Path:
    """Where a run records that this exact code passed check_golden.

    The name is a digest of the speechdep sources, the benchmark's files and
    the Python and numpy versions, so changed code is checked again.
    """
    import numpy

    key = {
        **file_digests((SRC / "speechdep").glob("*.py"), "src"),
        **file_digests([*BENCH_DIR.glob("*.py"), GOLDEN], "perfbench"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    return out_dir / f"golden-pass-{combined_digest(key)[:32]}"


def alloc_bytes_per_value(cache: Path) -> float:
    """tracemalloc peak of one normalizing read_feature_cache call, per cached value."""
    import tracemalloc

    from speechdep.features import read_feature_cache

    tracemalloc.start()
    try:
        feats = read_feature_cache(cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (len(feats) * feats[0].values.size)


# ---------------------------------------------------------------- spans

def span_totals(spans: list) -> dict[str, float]:
    """Per span name: `.s` (total), `.self_s` (minus child spans), `.calls`, counters.

    Spans come from one thread and nest, so the children of a span cover
    disjoint parts of it and their durations add up to the time they cover.
    """
    from tracer import COUNTERS

    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _, count), child in zip(spans, covered):
        totals[f"{name}.s"] += end - start
        totals[f"{name}.self_s"] += end - start - child
        totals[f"{name}.calls"] += 1
        if count is not None:
            totals[f"{name}.{COUNTERS[name][0]}"] += count
    return totals


def expected_bindings() -> set[str]:
    """Every `module.attr` name a traced function must be rebound under.

    That is where it is defined, plus each name a module-level
    `from .module import function [as name]` gives it in another module.
    """
    from tracer import TRACED

    expected = {f"speechdep.{m}.{f}" for m, fs in TRACED.items() for f in fs}
    for path in sorted((SRC / "speechdep").glob("*.py")):
        importer = "speechdep" if path.stem == "__init__" else f"speechdep.{path.stem}"
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in TRACED:
                expected.update(
                    f"{importer}.{a.asname or a.name}" for a in node.names if a.name in TRACED[node.module]
                )
    return expected


def check_span_tree(stage: StageRun, tolerance_s: float) -> float:
    """Spans must nest, every traced function must be rebound under all its names,
    and the root span must cover the stage's traced wall time.

    Returns the uncovered remainder (interpreter start-up and exit), which
    must lie within [0, tolerance_s].
    """
    spans = stage.spans
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start or (parent >= 0 and not (parent < i and spans[parent][1] <= start and end <= spans[parent][2])):
            raise GateError(f"trace of {stage.stage}: span {i} ({name}) is not nested in its parent")
    missed = sorted(expected_bindings() - set(stage.bindings))
    if missed:
        raise GateError(f"trace of {stage.stage}: traced functions not rebound under {missed[:5]}")
    root = spans[0][2] - spans[0][1]
    uncovered = stage.wall_s - root
    if not 0.0 <= uncovered <= tolerance_s:
        raise GateError(f"trace of {stage.stage}: root span {root:.3f} s vs traced wall {stage.wall_s:.3f} s")
    return uncovered


# ----------------------------------------------------------- provenance

def _blas_threads():
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    if not (ROOT / ".git").exists():  # an exported checkout; never report an enclosing repository's HEAD
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_files = sorted((SRC / "speechdep").glob("*.py"))
    return {
        "git_sha": _git_sha(),
        "src_sha256": combined_digest(file_digests(src_files, "src")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }
