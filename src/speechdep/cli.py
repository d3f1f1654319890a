"""Command-line pipeline: synth -> featurize -> train -> evaluate / curve.

Configuration is a flat, typed key=value file with section prefixes
(``train.epochs = 50``). Precedence: built-in defaults, then --config file,
then repeatable --set key=value flags, then --seed. Unknown keys are
rejected. Every command echoes its resolved configuration and a
machine-readable run summary into the output directory; reruns with the
same inputs and --jobs 1 reproduce every output byte for byte (nothing
written depends on wall-clock time).

Failures exit nonzero after printing one line to stderr of the form
``error:<category>: <message>`` with category in
{usage, config, io, data, train}.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import os
import sys
from collections import deque
from collections.abc import Sequence, Sized
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import (
    MAX_SECONDS,
    CorpusManifest,
    keep_frames,
    load_manifest,
    load_wav,
    samples,
    save_manifest,
    synth_corpus,
    trim_silence,
    write_wav,
)
from .ensemble import (
    EnsembleConfig,
    f1_vs_m_experiment,
    fuse,
    write_predictions_csv,
)
from .evaluation import (
    speaker_labels,
    confusion,
    metrics,
    prediction_set_for,
    write_metrics_csv,
)
from .features import StftConfig, featurize_raw, open_feature_cache, write_feature_cache
from .network import NetworkConfig, NetworkParams, load_model, save_model
from .sampling import crop, materialize_eval_set, materialize_training_set, plan_balanced
from .trainer import TrainConfig, TrainingDivergedError, planned_bytes, train, write_history_csv


# key -> (type, default). A section's keys are the defaulted fields of its config dataclass, each
# typed as its default is (so a float field's default is written as a float). The defaults are the
# best-performing configuration: 128 filters, pool kernel 5 / stride 4 / pad 4, 128 hidden units,
# 50 epochs, batch 80, 50 machines fused with method 1.
_SECTIONS = {"stft": StftConfig, "network": NetworkConfig, "train": TrainConfig, "ensemble": EnsembleConfig}
CONFIG_SCHEMA: dict[str, tuple[type, object]] = {
    "seed": (int, 0),
    "synth.speakers_per_class": (int, 31),
    "synth.test_speakers_per_class": (int, 10),
    "synth.duration_s": (float, 48.0),
    "synth.sample_rate": (int, 16000),
    "trim.frame_s": (float, 0.1),
    "trim.floor_db": (float, -60.0),
    "sampling.crop_s": (float, 4.0),
    "sampling.eval_cap": (int, 89),
    "curve.m_values": (str, ""),  # comma-separated; empty means 1..pool size
    "curve.n_combinations": (int, 200),
    **{
        f"{prefix}.{field.name}": (type(field.default), field.default)
        for prefix, factory in _SECTIONS.items()
        for field in dataclasses.fields(factory)
        if field.default is not dataclasses.MISSING and f"{prefix}.{field.name}" != "train.seed"  # `seed` feeds it
    },
}


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


@dataclass
class RunConfig:
    values: dict[str, object]

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls({k: default for k, (_, default) in CONFIG_SCHEMA.items()})

    def set(self, key: str, raw: str) -> None:
        if key not in CONFIG_SCHEMA:
            raise CliError("config", f"unknown configuration key {key!r}")
        kind = CONFIG_SCHEMA[key][0]
        try:
            self.values[key] = kind(raw) if kind is not str else raw.strip()
        except ValueError:
            raise CliError("config", f"{key} expects {kind.__name__}, got {raw!r}") from None

    def load_file(self, path: Path) -> None:
        if not path.is_file():
            raise CliError("io", f"config file not found: {path}")
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise CliError("config", f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, raw = stripped.partition("=")
            self.set(key.strip(), raw.strip())

    def __getitem__(self, key: str):
        return self.values[key]

    def echo_text(self) -> str:
        lines = [f"{key} = {self.values[key]}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def section(self, factory, prefix: str, **given):
        """factory(...) with each `prefix.*` value as the field its suffix names, and the given fields."""
        fields = {key.partition(".")[2]: v for key, v in self.values.items() if key.startswith(prefix + ".")}
        try:
            return factory(**{**fields, **given})
        except ValueError as exc:
            raise CliError("config", str(exc)) from None


def _resolve_config(args) -> RunConfig:
    """The run's configuration, every value of it checked before any command reads its input.

    One config_echo.cfg feeds every stage, so every command checks every key. A command checks a value
    again only against its input: curve.m_values against the pool, the network against the cache, and
    its memory plan.
    """
    cfg = RunConfig.defaults()
    if args.config:
        cfg.load_file(Path(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise CliError("usage", f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfg.set(key.strip(), raw.strip())
    if args.seed is not None:
        cfg.values["seed"] = int(args.seed)
    for key, low in (  # the int keys that no config dataclass checks
        ("seed", 0), ("ensemble.tie_seed", 0), ("sampling.eval_cap", 1), ("curve.n_combinations", 1),
        ("synth.speakers_per_class", 1), ("synth.test_speakers_per_class", 1), ("synth.sample_rate", 1),
    ):
        if cfg[key] < low:
            raise CliError("config", f"{key} must be >= {low}, got {cfg[key]}")
    for key in ("synth.duration_s", "trim.frame_s", "sampling.crop_s"):
        if not 0.0 < cfg[key] <= MAX_SECONDS:  # false for nan too
            raise CliError("config", f"{key} must lie in (0, {MAX_SECONDS:.6g}] seconds, got {cfg[key]}")
    duration_s, rate = cfg["synth.duration_s"], cfg["synth.sample_rate"]
    if rate > 0xFFFFFFFF:
        raise CliError("config", f"synth.sample_rate={rate} does not fit the 32-bit rate of a WAV header")
    if round(duration_s / 2.0 * rate) < 1:
        raise CliError("config", f"synth.duration_s={duration_s} at {rate} Hz allows clips of under 1 sample")
    if np.isnan(cfg["trim.floor_db"]):
        raise CliError("config", "trim.floor_db must be a number of dB, got nan")
    _m_values(cfg["curve.m_values"])  # curve bounds them by its pool
    for prefix, factory in _SECTIONS.items():  # the network's shape checks pass at (1, 1)
        cfg.section(factory, prefix, **({"freq_bins": 1, "time_steps": 1} if prefix == "network" else {}))
    return cfg


def _write_run_artifacts(out_dir: Path, command: str, cfg: RunConfig, summary: dict) -> None:
    (out_dir / "config_echo.cfg").write_text(cfg.echo_text())
    payload = {"command": command, "config": dict(sorted(cfg.values.items())), "summary": summary}
    (out_dir / "run_summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


_inherited = None  # a --jobs worker's (fn, inherited), taken over from the parent at fork


def _inherit(fn, inherited) -> None:
    global _inherited
    _inherited = fn, inherited


def _call_inherited(task):
    fn, inherited = _inherited
    return fn(inherited, task)


def _window(jobs: int, threads: int) -> int:
    """How many tasks _map(..., jobs, ..., threads) keeps submitted and not yet yielded."""
    return 2 * jobs if jobs > 1 else threads


def _map(fn, tasks, jobs: int, inherited, threads: int = 1):
    """Yield fn(inherited, task) for each task in order, in `jobs` forked worker processes when jobs > 1.

    A sized `tasks` gets no more processes or threads than it has tasks. At
    jobs = 1 the tasks run on `threads` threads of this process, or in line
    at threads = 1, where a task is taken only once the result before it has
    been. Either executor keeps at most _window(jobs, threads) tasks submitted
    and not yet yielded, so a lazy task stream stays bounded, and the task
    stream is only ever read on the calling thread. Only the tasks and results
    of worker processes are pickled: they are forked with `inherited` already
    in memory and share its pages copy-on-write.
    """
    if isinstance(tasks, Sized):  # no more workers than tasks
        jobs, threads = min(jobs, len(tasks)), min(threads, len(tasks))
    if jobs <= 1 and threads <= 1:
        yield from (fn(inherited, task) for task in tasks)
        return
    # imported here, so that an in-line run does not load the executors (0.6 MB with logging);
    # the package loads only the executor asked for
    from concurrent import futures

    if jobs > 1:
        import multiprocessing

        # fork keeps the malloc thresholds; the executor forks every worker before it starts its own thread
        fork = multiprocessing.get_context("fork")
        executor = futures.ProcessPoolExecutor(jobs, mp_context=fork, initializer=_inherit, initargs=(fn, inherited))
        call = _call_inherited
    else:
        executor = futures.ThreadPoolExecutor(threads)
        call = functools.partial(fn, inherited)
    window = _window(jobs, threads)
    with executor as pool:  # leaving it joins every worker, so none outlives the map
        in_flight = deque()
        for task in tasks:
            if len(in_flight) == window:
                yield in_flight.popleft().result()
            in_flight.append(pool.submit(call, task))
        while in_flight:
            yield in_flight.popleft().result()


def _check_fits_memory(plan: int, doing: str) -> None:
    """A config error unless `doing`, which needs `plan` bytes, fits in this machine's physical memory."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if plan > physical:
        raise CliError("config", f"{doing} needs {plan} bytes, more than the {physical} bytes of physical memory")


# ---------------------------------------------------------------- synth

# Clips that synth --jobs 1 renders at once, at most. Two threads took synth of
# the reference corpus from 6.2 to 4.6 s on 2 cores; no machine with more cores
# has been measured, and each clip's numpy calls take turns at the interpreter lock.
_RENDER_THREADS = 2

# Bytes that synth keeps per clip until the manifest is written, whatever the clip's length: its
# manifest entry and label, and its id in the manifest's duplicate check. tracemalloc measured
# 415 B per clip between corpora of 500 and 2,500 one-sample clips per class.
_CLIP_RECORD_BYTES = 416


def cmd_synth(cfg: RunConfig, out_dir: Path, jobs: int) -> dict:
    seed = cfg["seed"]
    duration_s, rate = cfg["synth.duration_s"], cfg["synth.sample_rate"]
    splits = [
        ("train", cfg["synth.speakers_per_class"], seed),
        ("test", cfg["synth.test_speakers_per_class"], seed + 1),
    ]
    # at --jobs 1, one clip per usable core, up to _RENDER_THREADS, renders on a thread;
    # --jobs N workers render one clip each, and a split gets no more workers than it has clips
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = min(cores, _RENDER_THREADS)
    workers = [min(jobs, 2 * per_class) for _, per_class, _ in splits]
    in_flight = _window(max(workers), threads)
    # float64 arrays of the longest clip: the noise, the signal and the squares of its level per clip
    # in flight, plus the clip being written and the next draw; and every clip's records
    clips = 2 * sum(per_class for _, per_class, _ in splits)
    plan = 8 * (3 * in_flight + 2) * samples(duration_s, rate) + _CLIP_RECORD_BYTES * clips
    doing = f"synthesizing {clips} clips, {in_flight} at once, of synth.duration_s={duration_s} at {rate} Hz"
    _check_fits_memory(plan, doing)
    wav_dir = out_dir / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)

    def write(entry, clip):
        entry.path = f"wav/{entry.speaker_id}.wav"
        write_wav(out_dir / entry.path, clip)

    def render(split_jobs):  # map(fn, draws) through _map
        return lambda fn, draws: _map(lambda f, draw: f(draw), draws, split_jobs, fn, threads)

    entries = []
    for (split, per_class, split_seed), split_jobs in zip(splits, workers):
        manifest = synth_corpus(
            per_class, duration_s, sample_rate=rate, seed=split_seed, split=split,
            on_clip=write, render=render(split_jobs),
        )
        entries += manifest.entries
    save_manifest(out_dir / "manifest.csv", CorpusManifest(entries))
    return {
        "manifest": "manifest.csv",
        "train_speakers": 2 * cfg["synth.speakers_per_class"],
        "test_speakers": 2 * cfg["synth.test_speakers_per_class"],
        "wav_files": len(entries),
    }


# ------------------------------------------------------------ featurize

def _crop_count(cfg_values: dict, entry_path: Path) -> tuple[int, int, np.ndarray]:
    """Crops available in one clip after silence trimming, its sample rate and its per-frame keep mask."""
    clip, keep = trim_silence(load_wav(entry_path), cfg_values["trim.frame_s"], cfg_values["trim.floor_db"])
    return len(crop(clip, cfg_values["sampling.crop_s"])), clip.sample_rate, keep


def _featurize_speaker(inherited, task) -> list:
    """Features for the wanted crop indices of one speaker's clip, trimmed by its keep mask."""
    cfg_values, stft_cfg = inherited
    path, speaker_id, label, keep, wanted = task
    clip = load_wav(path)
    clip.speaker_id, clip.label = speaker_id, label
    clip = keep_frames(clip, keep, cfg_values["trim.frame_s"])
    return [
        featurize_raw(c, clip.sample_rate, stft_cfg)  # the cache normalizes on read
        for c in crop(clip, cfg_values["sampling.crop_s"])
        if c.crop_index in wanted
    ]


def _featurize_split(
    entries, manifest_dir: Path, ordered_keys, keeps: dict, cfg: RunConfig, stft_cfg: StftConfig, jobs: int
):
    """Features for (speaker, crop_index) keys, returned in the given order."""
    wanted: dict[str, set[int]] = {}
    for speaker_id, crop_index in ordered_keys:
        wanted.setdefault(speaker_id, set()).add(crop_index)
    tasks = [
        (str(manifest_dir / e.path), e.speaker_id, e.label, keeps[e.speaker_id], wanted[e.speaker_id])
        for e in entries
        if e.speaker_id in wanted
    ]
    results = _map(_featurize_speaker, tasks, jobs, (cfg.values, stft_cfg))
    by_key = {(f.speaker_id, f.crop_index): f for feats in results for f in feats}
    return [by_key[key] for key in ordered_keys]


def cmd_featurize(cfg: RunConfig, manifest_path: Path, out_dir: Path, jobs: int) -> dict:
    stft_cfg = cfg.section(StftConfig, "stft")
    if not manifest_path.is_file():
        raise CliError("io", f"manifest not found: {manifest_path}")
    manifest = load_manifest(manifest_path)
    if not manifest.entries:
        raise CliError("data", f"manifest {manifest_path} lists no clips")
    manifest_dir = manifest_path.parent
    seed = cfg["seed"]

    train_entries = manifest.split_entries("train")
    test_entries = manifest.split_entries("test")
    if not train_entries:
        raise CliError("data", f"manifest {manifest_path} has no train split")

    entries = train_entries + test_entries
    paths = [manifest_dir / e.path for e in entries]
    counts, keeps = {}, {}
    first_rate = None
    for e, path, (count, rate, keep) in zip(entries, paths, _map(_crop_count, paths, jobs, cfg.values)):
        counts[e.speaker_id], keeps[e.speaker_id] = count, keep
        if first_rate is None:
            first_path, first_rate = path, rate
        elif rate != first_rate:
            raise CliError("data", f"{path} is sampled at {rate} Hz, but {first_path} at {first_rate} Hz")

    labels = {e.speaker_id: e.label for e in manifest.entries}
    train_counts = {e.speaker_id: counts[e.speaker_id] for e in train_entries}
    plan = plan_balanced(train_counts, labels, seed=seed)
    test_counts = {e.speaker_id: counts[e.speaker_id] for e in test_entries}
    orders = {
        "train": materialize_training_set(plan, train_counts, seed=seed + 1),
        "test": materialize_eval_set(test_counts, cap=cfg["sampling.eval_cap"]),
    }
    for split, split_entries in (("train", train_entries), ("test", test_entries)):
        if split_entries and not orders[split]:
            crop_s = cfg["sampling.crop_s"]
            raise CliError("data", f"the {split} split yields no whole crop of sampling.crop_s={crop_s} s")
    # the larger split's float32 features, all held until its cache is written, and per worker one crop's
    # float64 windowed frames, complex128 spectrum and two float64 magnitudes of it; a hop that rounds to
    # 0 samples is left to stft's own error
    win, hop = stft_cfg.window_samples(first_rate), max(stft_cfg.hop_samples(first_rate), 1)
    frames, held = samples(cfg["sampling.crop_s"], first_rate) // hop, max(map(len, orders.values()))
    need = frames * (4 * held * stft_cfg.freq_bins + min(jobs, len(entries)) * (8 * win + 32 * stft_cfg.freq_bins))
    _check_fits_memory(need, f"featurizing {held} crops")

    summary = {
        "plan": {
            "crops_per_speaker": plan.crops_per_speaker,
            "speakers_per_class": plan.speakers_per_class,
            "total": plan.total_samples,
        },
    }
    for split, split_entries in (("train", train_entries), ("test", test_entries)):
        if not split_entries:
            continue
        features = _featurize_split(split_entries, manifest_dir, orders[split], keeps, cfg, stft_cfg, jobs)
        write_feature_cache(out_dir / f"{split}.lspg", features)
        summary |= {f"{split}_cache": f"{split}.lspg", f"{split}_crops": len(features)}
        summary.setdefault("feature_shape", list(features[0].shape))  # the train split's
        del features  # written; free it before the next split's features are made
    return summary


# ---------------------------------------------------------------- train

def _train_group(inherited, machines) -> list[tuple[str, float]]:
    """Train a group of machines in lockstep and write their artifacts in machine order."""
    features, net_cfg, train_cfg, out_dir = inherited
    all_params, histories = train(
        features, net_cfg, train_cfg, init_seeds=[train_cfg.seed + m for m in machines]
    )
    outcomes = []
    for m, params, history in zip(machines, all_params, histories):
        model_name = f"model_{m:03d}.sdm"
        save_model(out_dir / model_name, net_cfg, params)
        write_history_csv(out_dir / f"history_{m:03d}.csv", history)
        outcomes.append((model_name, history.train_loss[-1]))
    return outcomes


def cmd_train(cfg: RunConfig, cache_path: Path, out_dir: Path, jobs: int) -> dict:
    if not cache_path.is_file():
        raise CliError("io", f"feature cache not found: {cache_path}")
    machines, train_cfg = cfg["ensemble.machines"], cfg.section(TrainConfig, "train", seed=cfg["seed"])
    features = open_feature_cache(cache_path)  # the header walk; a batch's records are read when it is trained
    freq_bins, time_steps = features.record_shape
    net_cfg = cfg.section(NetworkConfig, "network", freq_bins=freq_bins, time_steps=time_steps)
    plan = planned_bytes(net_cfg, train_cfg.batch_size, len(features), machines, min(jobs, machines))
    _check_fits_memory(plan, f"training {machines} machines of {net_cfg.n_params} parameters")
    # at most `jobs` contiguous groups, sizes differing by at most one
    groups = [g.tolist() for g in np.array_split(np.arange(machines), jobs) if g.size]
    inherited = (features, net_cfg, train_cfg, out_dir)
    outcomes = [o for group in _map(_train_group, groups, jobs, inherited) for o in group]
    return {
        "machines": machines,
        "models": [name for name, _ in outcomes],
        "final_train_loss": [loss for _, loss in outcomes],
    }


# ------------------------------------------------------------- evaluate

def _model_paths(models_dir: Path, cache_path: Path) -> list[Path]:
    """The pool's model files, once both inputs are known to exist; nothing is read yet."""
    if not cache_path.is_file():
        raise CliError("io", f"feature cache not found: {cache_path}")
    model_paths = sorted(models_dir.glob("model_*.sdm")) if models_dir.is_dir() else []
    if not model_paths:
        raise CliError("io", f"no model files (model_*.sdm) under {models_dir}")
    return model_paths


class _ModelPool(Sequence):
    """The pool's parameters, machine m read from its file each time m is indexed; none is held."""

    def __init__(self, model_paths: list[Path], net_cfg: NetworkConfig):
        self.model_paths, self.net_cfg = model_paths, net_cfg

    def __len__(self) -> int:
        return len(self.model_paths)

    def __getitem__(self, m: int) -> NetworkParams:
        path = self.model_paths[m]
        cfg, params = load_model(path)
        if cfg != self.net_cfg:
            raise CliError("data", f"model {path} disagrees with the rest of the pool")
        return params


def _pool_predictions(model_paths: list[Path], cache_path: Path, threshold: float):
    """The pool's thresholded predictions and every speaker's true label; one model and one batch held at a time."""
    features = open_feature_cache(cache_path)
    net_cfg = load_model(model_paths[0])[0]  # its params are dropped at once
    shape = (net_cfg.freq_bins, net_cfg.time_steps)
    if features.record_shape != shape:
        raise CliError("data", f"cache features {features.record_shape} do not fit model {shape}")
    truth = speaker_labels(features)
    preds = prediction_set_for(_ModelPool(model_paths, net_cfg), net_cfg, features, threshold)
    return preds, truth


def cmd_evaluate(cfg: RunConfig, models_dir: Path, cache_path: Path, out_dir: Path, jobs: int) -> dict:
    del jobs  # a handful of batched forward passes; parallelism buys nothing
    model_paths = _model_paths(models_dir, cache_path)
    ens_cfg = cfg.section(EnsembleConfig, "ensemble", machines=len(model_paths))
    preds, truth = _pool_predictions(model_paths, cache_path, ens_cfg.threshold)
    fused = fuse(preds, ens_cfg)
    report = metrics(confusion(truth, fused))
    write_predictions_csv(out_dir / "predictions.csv", preds)
    write_metrics_csv(out_dir / "metrics.csv", [], report)
    return {
        "machines": preds.machines,
        "method": ens_cfg.method,
        "accuracy": report.accuracy,
        "f1": {str(c): report.per_class[c].f1 for c in (0, 1)},
        "metrics": "metrics.csv",
        "predictions": "predictions.csv",
    }


# ---------------------------------------------------------------- curve

def _curve_task(inherited, task):
    preds, truth, n_combinations, threshold, seed = inherited
    method, m = task
    [point] = f1_vs_m_experiment(preds, truth, [m], n_combinations, method, threshold, seed)
    return method, point


def _m_values(raw: str) -> list[int]:
    """curve.m_values as sorted, distinct sizes; none for the empty default, which means every size of the pool."""
    try:
        values = sorted({int(part) for part in raw.split(",") if part.strip()})
    except ValueError:
        raise CliError("config", f"curve.m_values must be comma-separated integers, got {raw!r}") from None
    if raw and not values:
        raise CliError("config", "curve.m_values is empty")
    if values and values[0] < 1:
        raise CliError("config", f"curve.m_values entry {values[0]} is below 1")
    return values


def cmd_curve(cfg: RunConfig, models_dir: Path, cache_path: Path, out_dir: Path, jobs: int) -> dict:
    model_paths = _model_paths(models_dir, cache_path)
    m_values = _m_values(cfg["curve.m_values"]) or list(range(1, len(model_paths) + 1))
    if m_values[-1] > len(model_paths):
        raise CliError("config", f"curve.m_values entry {m_values[-1]} outside pool of {len(model_paths)}")
    n_combinations, threshold = cfg["curve.n_combinations"], cfg["ensemble.threshold"]
    preds, truth = _pool_predictions(model_paths, cache_path, threshold)

    tasks = [(method, m) for method in (1, 2, 3) for m in m_values]
    inherited = (preds, truth, n_combinations, threshold, cfg["seed"])
    points: dict[int, list] = {1: [], 2: [], 3: []}
    for method, point in _map(_curve_task, tasks, jobs, inherited):  # in task order, so each in increasing M
        points[method].append(point)

    rows = []
    for method in (1, 2, 3):
        for point in points[method]:
            for cls in (0, 1):
                rows.append(
                    (method, point.m, cls, point.f1_mean[cls], point.f1_std[cls])
                )
    with (out_dir / "curve.csv").open("w", newline="") as fh:
        fh.write("method,M,class,f1_mean,f1_std\n")
        for method, m, cls, mean, std in rows:
            fh.write(f"{method},{m},{cls},{format(mean, '.10g')},{format(std, '.10g')}\n")
    (out_dir / "curve.svg").write_text(_render_curve_svg(points, m_values))
    return {
        "pool": preds.machines,
        "m_values": m_values,
        "n_combinations": n_combinations,
        "rows": len(rows),
        "csv": "curve.csv",
        "svg": "curve.svg",
    }


_METHOD_COLORS = {1: "#1f77b4", 2: "#d62728", 3: "#2ca02c"}


def _render_curve_svg(points: dict[int, list], m_values: list[int]) -> str:
    """Two fixed panels (one per class): F1 mean lines with +-1 std bands."""
    width, height = 800, 500
    panels = {0: (60.0, 370.0), 1: (460.0, 770.0)}
    top, bottom = 60.0, 440.0
    lo_m, hi_m = min(m_values), max(m_values)

    def sx(panel, m):
        x0, x1 = panels[panel]
        if hi_m == lo_m:
            return (x0 + x1) / 2.0
        return x0 + (x1 - x0) * (m - lo_m) / (hi_m - lo_m)

    def sy(f1):
        return bottom - (bottom - top) * min(max(f1, 0.0), 1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for cls, (x0, x1) in panels.items():
        parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="40" text-anchor="middle" font-size="14">'
            f"class {cls} F1 vs ensemble size</text>"
        )
        parts.append(
            f'<line x1="{x0}" y1="{bottom}" x2="{x1}" y2="{bottom}" stroke="black"/>'
            f'<line x1="{x0}" y1="{top}" x2="{x0}" y2="{bottom}" stroke="black"/>'
        )
        for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
            y = sy(tick)
            parts.append(
                f'<line x1="{x0 - 4}" y1="{y:.1f}" x2="{x0}" y2="{y:.1f}" stroke="black"/>'
                f'<text x="{x0 - 8}" y="{y + 4:.1f}" text-anchor="end">{tick:g}</text>'
            )
        ticks = m_values if len(m_values) <= 10 else [m_values[0], m_values[len(m_values) // 2], m_values[-1]]
        for m in ticks:
            x = sx(cls, m)
            parts.append(
                f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" y2="{bottom + 4}" stroke="black"/>'
                f'<text x="{x:.1f}" y="{bottom + 18}" text-anchor="middle">{m}</text>'
            )
        for method in (1, 2, 3):
            color = _METHOD_COLORS[method]
            series = [(pt.m, pt.f1_mean[cls], pt.f1_std[cls]) for pt in points[method]]
            upper = [f"{sx(cls, m):.1f},{sy(mean + std):.1f}" for m, mean, std in series]
            lower = [f"{sx(cls, m):.1f},{sy(mean - std):.1f}" for m, mean, std in reversed(series)]
            parts.append(
                f'<polygon points="{" ".join(upper + lower)}" fill="{color}" fill-opacity="0.15" stroke="none"/>'
            )
            line = " ".join(f"{sx(cls, m):.1f},{sy(mean):.1f}" for m, mean, _ in series)
            parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    for i, method in enumerate((1, 2, 3)):
        x = 60 + i * 120
        parts.append(
            f'<line x1="{x}" y1="475" x2="{x + 24}" y2="475" stroke="{_METHOD_COLORS[method]}" stroke-width="1.5"/>'
            f'<text x="{x + 30}" y="479">method {method}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("usage", message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="speechdep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--seed", type=int, help="override the top-level seed")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes (1 = one process; synth then renders a clip per usable core, up to 2, on threads), "
            "no more than a stage has tasks or a synth split has clips, each counted in the featurize and train "
            "memory plans; every N writes the same bytes",
        )

    common(sub.add_parser("synth", help="generate a synthetic labeled corpus"))
    p = sub.add_parser("featurize", help="build the log-spectrogram feature caches")
    p.add_argument("--manifest", required=True, help="corpus manifest CSV")
    common(p)
    p = sub.add_parser("train", help="train an ensemble of networks")
    p.add_argument("--cache", required=True, help="training feature cache")
    common(p)
    for name, helptext in (
        ("evaluate", "fuse model predictions and score speakers"),
        ("curve", "F1 versus ensemble size experiment"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--models", required=True, help="directory holding model_*.sdm files")
        p.add_argument("--cache", required=True, help="evaluation feature cache")
        common(p)
    return parser


def _keep_temporaries_resident() -> None:
    """Fix glibc's malloc thresholds so numpy's per-pass temporaries are reused, not re-faulted.

    glibc maps each allocation above a threshold that starts at 128 KB and
    trims the heap top past twice the largest mapping freed so far. Network
    passes allocate and free arrays of a few MB each, so until some larger
    array happens to be freed, every pass maps or trims them again and
    page-faults them anew. Fixed thresholds keep arrays under 32 MB on a heap
    trimmed only past 64 MB of free top. One arena serves every thread, for
    each further arena would keep that much free too: synth's render threads
    otherwise took its peak from about 80 to 112 MB. Other C libraries are
    left as they are.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
        mallopt(-8, 1)  # M_ARENA_MAX


def main(argv=None) -> int:
    _keep_temporaries_resident()
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        if args.jobs < 1:
            raise CliError("usage", "--jobs must be >= 1")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "synth":
            summary = cmd_synth(cfg, out_dir, args.jobs)
        elif args.command == "featurize":
            summary = cmd_featurize(cfg, Path(args.manifest), out_dir, args.jobs)
        elif args.command == "train":
            summary = cmd_train(cfg, Path(args.cache), out_dir, args.jobs)
        elif args.command == "evaluate":
            summary = cmd_evaluate(cfg, Path(args.models), Path(args.cache), out_dir, args.jobs)
        else:
            summary = cmd_curve(cfg, Path(args.models), Path(args.cache), out_dir, args.jobs)
        _write_run_artifacts(out_dir, args.command, cfg, summary)
        return 0
    except CliError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"error:train: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
