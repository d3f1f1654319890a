"""The names, parameters and feature calls the benchmark relies on.

perfbench/tracer.py wraps every function in its TRACED table and reads the
batch or the cache path from fixed argument positions. It is parsed here, not
imported, so that this check never runs the tracer's start-up code. The
benchmark's own feature calls (the train workload's cache tiling and the
allocation probe of a cache read) run here on a small cache, imported by path.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import sys
import threading
from pathlib import Path

import numpy as np

from speechdep import audio_io, cli
from speechdep.features import LogSpectrogram, read_feature_cache, write_feature_cache

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCH / "tracer.py"


def _traced_table() -> dict[str, list[str]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_resolves():
    table = _traced_table()
    assert "network" in table and "forward_batch" in table["network"]
    for module_name, names in table.items():
        module = importlib.import_module(f"speechdep.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"speechdep.{module_name}.{name}"


def test_counted_arguments_keep_their_positions():
    from speechdep import features, network

    # (function, position, name) as the tracer's COUNTERS read them
    for fn, index, name in (
        (network.forward_batch, 1, "xs"),
        (network.backward_batch, 2, "xs"),
        (features.read_feature_cache, 0, "path"),
        (features.write_feature_cache, 0, "path"),
    ):
        assert list(inspect.signature(fn).parameters)[index] == name, fn.__name__


def test_synth_renders_every_clip_inside_synth_corpus(tmp_path, monkeypatch):
    """The tracer times synth_corpus, so at --jobs 1 the rendering must run inside that call."""
    depth, outside = [0], []
    synth_corpus, render = cli.synth_corpus, audio_io._render_clip

    def spied_synth_corpus(*args, **kwargs):
        depth[0] += 1
        try:
            return synth_corpus(*args, **kwargs)
        finally:
            depth[0] -= 1

    def spied_render(draw, *rest):
        outside.append(depth[0] == 0)
        return render(draw, *rest)

    monkeypatch.setattr(cli, "synth_corpus", spied_synth_corpus)
    monkeypatch.setattr(audio_io, "_render_clip", spied_render)
    sizes = ["synth.speakers_per_class=2", "synth.test_speakers_per_class=1", "synth.duration_s=1"]
    assert cli.main(["synth", "--out", str(tmp_path), "--jobs", "1", *(f"--set={kv}" for kv in sizes)]) == 0
    assert outside == [False] * 6


def _spy_on_traced(monkeypatch, module_names) -> list[tuple[str, bool]]:
    """Spy on every traced function of the named modules under every binding, as the tracer rebinds them.

    Returns the list each call appends its `module.function` name and whether it ran on the main thread to.
    """
    calls = []
    for module_name, names in _traced_table().items():
        if module_name not in module_names:
            continue
        for name in names:
            original = getattr(importlib.import_module(f"speechdep.{module_name}"), name)

            def spy(*args, original=original, name=f"{module_name}.{name}", **kwargs):
                calls.append((name, threading.current_thread() is threading.main_thread()))
                return original(*args, **kwargs)

            for loaded_name, module in list(sys.modules.items()):
                if loaded_name.startswith("speechdep"):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, spy)
    return calls


def _synth(out, jobs=1):
    sizes = ["synth.speakers_per_class=2", "synth.test_speakers_per_class=1", "synth.duration_s=5"]
    assert cli.main(["synth", "--out", str(out), "--jobs", str(jobs), *(f"--set={kv}" for kv in sizes)]) == 0


def test_synth_runs_every_traced_audio_io_function_on_the_main_thread(tmp_path, monkeypatch):
    """The tracer keeps one open-span stack, so the render threads must call nothing it wraps."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)  # three render threads
    calls = _spy_on_traced(monkeypatch, ["audio_io"])
    _synth(tmp_path)
    assert {name for name, _ in calls} == {"audio_io.synth_corpus", "audio_io.write_wav", "audio_io.save_manifest"}
    assert all(on_main for _, on_main in calls), calls


def test_featurize_runs_every_traced_function_it_calls_on_the_main_thread(tmp_path, monkeypatch):
    """The tracer keeps one open-span stack, so featurize at --jobs 1 must call what it wraps in line."""
    _synth(tmp_path / "corpus")
    calls = _spy_on_traced(monkeypatch, ["audio_io", "sampling", "features"])
    argv = ["featurize", "--manifest", str(tmp_path / "corpus" / "manifest.csv"), "--out", str(tmp_path / "f")]
    assert cli.main([*argv, "--jobs", "1", "--set=sampling.crop_s=1"]) == 0
    assert {name for name, _ in calls} == {
        "audio_io.load_manifest",
        "audio_io.load_wav",
        "audio_io.trim_silence",
        "sampling.crop",
        "sampling.plan_balanced",
        "sampling.materialize_training_set",
        "sampling.materialize_eval_set",
        "features.stft",
        "features.featurize_raw",
        "features.write_feature_cache",
    }
    assert all(on_main for _, on_main in calls), calls


def _bench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # workloads imports harness by name
    spec.loader.exec_module(module)
    return module


def test_benchmark_feature_calls_run_on_a_small_cache(tmp_path, monkeypatch):
    harness = _bench_module("harness", monkeypatch)
    workloads = _bench_module("workloads", monkeypatch)
    rng = np.random.default_rng(14)
    source, tiled = tmp_path / "source.lspg", tmp_path / "tiled.lspg"
    records = [LogSpectrogram(rng.normal(size=(32, 64)).astype(np.float32), f"s{i}", i, i % 2) for i in range(3)]
    write_feature_cache(source, records)
    workloads._tile_cache(source, tiled, 120)
    features = read_feature_cache(tiled, normalize=False)
    assert len(features) == 120
    for i, f in enumerate(features):
        want = records[i % 3]
        assert (f.speaker_id, f.crop_index, f.label) == (f"{want.speaker_id}r{i // 3}", want.crop_index, want.label)
        assert np.array_equal(f.values, want.values)
    assert 4.0 <= harness.alloc_bytes_per_value(tiled) < 4.5
