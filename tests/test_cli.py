import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechdep import audio_io, cli
from speechdep.audio_io import AudioClip, load_wav, write_wav
from speechdep.cli import CONFIG_SCHEMA, RunConfig, main
from speechdep.ensemble import EnsembleConfig, fuse_method1, read_predictions_csv, write_predictions_csv
from speechdep.evaluation import confusion, metrics, prediction_set_for, speaker_labels
from speechdep.features import (
    CACHE_MAGIC,
    CACHE_VERSION,
    LogSpectrogram,
    StftConfig,
    _CacheRecords,
    open_feature_cache,
    read_feature_cache,
    write_feature_cache,
)
from speechdep.network import NetworkConfig, init_params, load_model, save_model
from speechdep.trainer import TrainConfig, planned_bytes

SEED = 3
FAST = [
    "--set", "synth.speakers_per_class=3",
    "--set", "synth.test_speakers_per_class=2",
    "--set", "synth.duration_s=9",
    "--set", "train.epochs=3",
    "--set", "ensemble.machines=2",
]


def _run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    """One tiny synth -> featurize -> train pipeline shared by read-only tests."""
    root = tmp_path_factory.mktemp("pipe")
    corpus, feats, models = root / "corpus", root / "feats", root / "models"
    assert _run("synth", "--out", corpus, "--seed", SEED, *FAST) == 0
    assert _run("featurize", "--manifest", corpus / "manifest.csv", "--out", feats, "--seed", SEED, *FAST) == 0
    assert _run("train", "--cache", feats / "train.lspg", "--out", models, "--seed", SEED, *FAST) == 0
    return SimpleNamespace(root=root, corpus=corpus, feats=feats, models=models)


def test_config_defaults_match_reference_setup():
    cfg = RunConfig.defaults()
    assert cfg["network.filters"] == 128
    assert cfg["network.pool_kernel"] == 5
    assert cfg["network.pool_stride"] == 4
    assert cfg["network.hidden"] == 128
    assert cfg["train.epochs"] == 50
    assert cfg["train.batch_size"] == 80
    assert cfg["ensemble.machines"] == 50
    assert cfg["ensemble.method"] == 1


def test_config_precedence_file_then_set(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\n\ntrain.epochs = 7\nensemble.method=2\n")
    out = tmp_path / "o"
    assert _run("synth", "--config", cfg_file, *FAST, "--set", "train.epochs=9", "--out", out) == 0
    echoed = (out / "config_echo.cfg").read_text()
    assert "train.epochs = 9" in echoed  # --set beats the file
    assert "ensemble.method = 2" in echoed
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["config"]["train.epochs"] == 9


def test_unknown_config_key_rejected(tmp_path, capsys):
    code = _run("synth", "--set", "train.epoochs=7", "--out", tmp_path / "o")
    assert code == 2
    err = capsys.readouterr().err
    assert re.match(r"^error:config: .*epoochs", err)


def test_bad_config_type_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("train.epochs = many\n")
    assert _run("synth", "--config", cfg_file, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("error:config:")


def test_invalid_train_value_maps_to_config_error(pipe, tmp_path, capsys):
    code = _run(
        "train", "--cache", pipe.feats / "train.lspg", "--out", tmp_path / "o",
        "--set", "train.batch_size=0",
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:config:")


def test_usage_errors(tmp_path, capsys):
    assert _run("synth") == 2  # --out missing
    assert capsys.readouterr().err.startswith("error:usage:")
    assert _run("synth", "--out", tmp_path / "o", "--jobs", 0) == 2
    assert capsys.readouterr().err.startswith("error:usage:")


def test_synth_layout_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert _run("synth", "--out", out, "--seed", 5, *FAST) == 0
    manifest = (out_a / "manifest.csv").read_text()
    assert manifest == (out_b / "manifest.csv").read_text()
    wavs = sorted(p.name for p in (out_a / "wav").glob("*.wav"))
    assert len(wavs) == 10  # 2*3 train + 2*2 test
    for name in wavs:
        assert (out_a / "wav" / name).read_bytes() == (out_b / "wav" / name).read_bytes()
    summary = json.loads((out_a / "run_summary.json").read_text())
    assert summary["summary"]["train_speakers"] == 6
    assert summary["summary"]["test_speakers"] == 4


# recorded before synth streamed its clips: --seed 7, 2 train and 1 test speakers per class, 3 s
GOLDEN_SYNTH_SHA256 = {
    "manifest.csv": "437fbcc1ebe008ad5d7bfbad19542df7e32714ae01b2a629986a47c9d9943797",
    "wav/test000.wav": "6f84108303ede4c4b1a9271966923faf79b4a15cc5d99f6b56276b4f7db019dc",
    "wav/test001.wav": "e8169d214eb39590be7cc40fb2016c69ccf07c0896bcc128c75c8f0d49c360bd",
    "wav/train000.wav": "d49976e9b841611d1eaeaf9c106d3bb8be263956d4495677ff3cc9c74c87d8f5",
    "wav/train001.wav": "2637d54fc29e1699783a1d75d2c5dae65dd6351c6f2e6413b9d2a25504f484f5",
    "wav/train002.wav": "a62f95151eb1fcfed0fc6b47d466545859f7453465048a7098480056972415c9",
    "wav/train003.wav": "a80b845e3365bd100f29d835070d679680386ed949037e64f58437d78329ed03",
}
_GOLDEN_SYNTH = [
    "--seed", 7,
    "--set", "synth.speakers_per_class=2",
    "--set", "synth.test_speakers_per_class=1",
    "--set", "synth.duration_s=3",
]


def _synth_digests(out):
    files = [out / "manifest.csv", *sorted((out / "wav").glob("*.wav"))]
    return {path.relative_to(out).as_posix(): _sha256(path) for path in files}


@pytest.mark.parametrize("jobs", [1, 2])  # 6 clips: more than the 2 * jobs a --jobs 2 run keeps in flight
def test_synth_bytes_are_golden_at_any_jobs(tmp_path, jobs):
    assert _run("synth", "--out", tmp_path, "--jobs", jobs, *_GOLDEN_SYNTH) == 0
    assert _synth_digests(tmp_path) == GOLDEN_SYNTH_SHA256


@pytest.mark.parametrize("cores", [1, 2])
def test_synth_memory_is_about_one_clip_per_usable_core(tmp_path, monkeypatch, cores):
    """Clips are written as they are made, so memory never holds the corpus (10 clips here)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    cfg = RunConfig.defaults()
    for item in FAST[1::2]:
        cfg.set(*item.split("="))
    cfg.values["seed"] = SEED
    cli.cmd_synth(cfg, tmp_path / "warm", 1)  # first-call imports are not clip data
    tracemalloc.start()
    try:
        cli.cmd_synth(cfg, tmp_path / "out", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # float64 bytes of a synth.duration_s clip, the longest synth makes; one renders per usable core
    clip_bytes = 8 * int(round(cfg["synth.duration_s"] * cfg["synth.sample_rate"]))
    assert peak < 3 * cores * clip_bytes, peak / clip_bytes


def test_featurize_writes_caches(pipe):
    train = read_feature_cache(pipe.feats / "train.lspg")
    test = read_feature_cache(pipe.feats / "test.lspg")
    assert train[0].shape == (513, 125)
    assert all(f.shape == (513, 125) for f in test)
    summary = json.loads((pipe.feats / "run_summary.json").read_text())["summary"]
    assert summary["train_crops"] == len(train)
    assert summary["plan"]["total"] == len(train)
    assert summary["test_crops"] == len(test)


def test_featurize_errors(tmp_path, capsys):
    assert _run("featurize", "--manifest", tmp_path / "nope.csv", "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("error:io:")
    empty = tmp_path / "empty.csv"
    empty.write_text("speaker_id,path,label,split,duration_s\n")
    assert _run("featurize", "--manifest", empty, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("error:data:")


def test_train_reruns_are_bitwise_identical(pipe, tmp_path):
    again = tmp_path / "models_again"
    assert _run("train", "--cache", pipe.feats / "train.lspg", "--out", again, "--seed", SEED, *FAST) == 0
    for name in ("model_000.sdm", "model_001.sdm", "history_001.csv"):
        assert (pipe.models / name).read_bytes() == (again / name).read_bytes()
    summary = json.loads((pipe.models / "run_summary.json").read_text())["summary"]
    assert summary["models"] == ["model_000.sdm", "model_001.sdm"]


def test_train_jobs_2_writes_the_jobs_1_bytes(pipe, tmp_path):
    parallel = tmp_path / "models_jobs2"
    cache = pipe.feats / "train.lspg"
    assert _run("train", "--cache", cache, "--out", parallel, "--seed", SEED, "--jobs", 2, *FAST) == 0
    for name in ("model_000.sdm", "model_001.sdm", "history_000.csv", "history_001.csv", "run_summary.json"):
        assert (pipe.models / name).read_bytes() == (parallel / name).read_bytes(), name


def test_train_jobs_2_splits_an_odd_ensemble_into_uneven_groups(pipe, tmp_path):
    cache, three = pipe.feats / "train.lspg", ["--set", "ensemble.machines=3"]
    serial, parallel = tmp_path / "jobs1", tmp_path / "jobs2"
    assert _run("train", "--cache", cache, "--out", serial, "--seed", SEED, *FAST, *three) == 0
    assert _run("train", "--cache", cache, "--out", parallel, "--seed", SEED, "--jobs", 2, *FAST, *three) == 0
    names = [f"{kind}_{m:03d}.{ext}" for m in range(3) for kind, ext in (("model", "sdm"), ("history", "csv"))]
    for name in [*names, "run_summary.json"]:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name


def test_featurize_jobs_2_writes_the_jobs_1_bytes(pipe, tmp_path):
    argv = ["--manifest", pipe.corpus / "manifest.csv", "--out", tmp_path, "--seed", SEED, "--jobs", 2, *FAST]
    assert _run("featurize", *argv) == 0
    for name in ("train.lspg", "test.lspg", "run_summary.json"):
        assert (pipe.feats / name).read_bytes() == (tmp_path / name).read_bytes(), name


@pytest.mark.parametrize("jobs", [1, 2])
def test_featurize_trims_each_clip_once_as_trimming_each_loaded_clip_does(pipe, tmp_path, monkeypatch, jobs):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipe.corpus, corpus)
    for i, wav in enumerate(sorted((corpus / "wav").glob("*.wav"))):  # silent stretches, some of part frames
        clip = load_wav(wav)
        start = 8000 + 1500 * i
        clip.samples[start : start + 20000 + 700 * i] = 0.0
        clip.samples[-3000 - 100 * i :] = 0.0
        write_wav(wav, clip)
        assert audio_io.trim_silence(load_wav(wav), 0.07)[0].samples.size < clip.samples.size
    argv = ["--manifest", corpus / "manifest.csv", "--seed", SEED, "--jobs", jobs, *FAST, "--set", "trim.frame_s=0.07"]
    trims, trim = [], audio_io.trim_silence
    monkeypatch.setattr(cli, "trim_silence", lambda *a, **k: trims.append(1) or trim(*a, **k))
    assert _run("featurize", *argv, "--out", tmp_path / "once") == 0
    if jobs == 1:
        assert len(trims) == 10  # one trim per clip; the workers' calls are not seen at --jobs 2
    # the reference trims every loaded clip again, as featurize did before it kept each clip's mask
    monkeypatch.setattr(cli, "keep_frames", lambda clip, keep, frame_s: trim(clip, frame_s, -60.0)[0])
    assert _run("featurize", *argv, "--out", tmp_path / "again") == 0
    for name in ("train.lspg", "test.lspg", "run_summary.json"):
        assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "again" / name).read_bytes(), name


def test_curve_jobs_2_writes_the_jobs_1_bytes(pipe, tmp_path):
    serial, parallel = tmp_path / "jobs1", tmp_path / "jobs2"
    argv = ["--models", pipe.models, "--cache", pipe.feats / "test.lspg", "--set", "curve.m_values=2,1", *FAST]
    assert _run("curve", *argv, "--out", serial) == 0
    assert _run("curve", *argv, "--out", parallel, "--jobs", 2) == 0
    for name in ("curve.csv", "curve.svg", "run_summary.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name


def test_evaluate_m1_equals_library_single_machine(pipe, tmp_path):
    solo = tmp_path / "solo"
    solo.mkdir()
    (solo / "model_000.sdm").write_bytes((pipe.models / "model_000.sdm").read_bytes())
    out = tmp_path / "eval"
    assert _run("evaluate", "--models", solo, "--cache", pipe.feats / "test.lspg", "--out", out, *FAST) == 0

    features = read_feature_cache(pipe.feats / "test.lspg")
    net_cfg, params = load_model(solo / "model_000.sdm")
    preds = prediction_set_for([params], net_cfg, features)
    expected = metrics(confusion(speaker_labels(features), fuse_method1(preds)))
    summary = json.loads((out / "run_summary.json").read_text())["summary"]
    assert summary["machines"] == 1
    assert summary["accuracy"] == expected.accuracy
    assert summary["f1"]["0"] == expected.per_class[0].f1
    assert summary["f1"]["1"] == expected.per_class[1].f1

    loaded = read_predictions_csv(out / "predictions.csv")
    assert loaded.machines == 1
    assert loaded.speakers == preds.speakers
    np.testing.assert_allclose(loaded.probs, preds.probs)
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "scope,class,accuracy,precision,recall,f1"
    assert {line.split(",")[0] for line in lines[1:]} == {"pooled"}


def test_evaluate_missing_models_lists_path(pipe, tmp_path, capsys):
    missing = tmp_path / "no_models"
    assert _run("evaluate", "--models", missing, "--cache", pipe.feats / "test.lspg", "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:io:") and "no_models" in err


def test_evaluate_detects_cache_model_mismatch(pipe, tmp_path, capsys):
    bad_cache = tmp_path / "bad"
    assert _run(
        "featurize", "--manifest", pipe.corpus / "manifest.csv", "--out", bad_cache,
        "--set", "stft.n_fft=512", "--set", "stft.window_s=0.032", "--set", "stft.hop_s=0.016",
        *FAST,
    ) == 0
    code = _run("evaluate", "--models", pipe.models, "--cache", bad_cache / "test.lspg", "--out", tmp_path / "o")
    assert code == 2
    assert capsys.readouterr().err.startswith("error:data:")


def test_curve_outputs(pipe, tmp_path):
    out = tmp_path / "curve"
    assert _run(
        "curve", "--models", pipe.models, "--cache", pipe.feats / "test.lspg", "--out", out,
        "--seed", 7, "--set", "curve.n_combinations=6", *FAST,
    ) == 0
    lines = (out / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "method,M,class,f1_mean,f1_std"
    assert len(lines) == 1 + 2 * 3 * 2  # pool of 2 -> M in {1, 2}, 3 methods, 2 classes
    for line in lines[1:]:
        method, m, cls, mean, std = line.split(",")
        assert method in {"1", "2", "3"} and cls in {"0", "1"}
        assert 0.0 <= float(mean) <= 1.0
        assert float(std) >= 0.0
    svg = (out / "curve.svg").read_text()
    assert svg.startswith("<svg") and "</svg>" in svg
    assert svg.count("<polyline") == 6  # one line per method per class panel


def test_curve_respects_m_values_subset(pipe, tmp_path, capsys):
    out = tmp_path / "curve"
    assert _run(
        "curve", "--models", pipe.models, "--cache", pipe.feats / "test.lspg", "--out", out,
        "--set", "curve.m_values=1", "--set", "curve.n_combinations=3", *FAST,
    ) == 0
    lines = (out / "curve.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 1 * 3 * 2
    assert _run(
        "curve", "--models", pipe.models, "--cache", pipe.feats / "test.lspg", "--out", out,
        "--set", "curve.m_values=5", *FAST,
    ) == 2
    assert capsys.readouterr().err.startswith("error:config:")


def test_curve_takes_each_m_value_once_in_increasing_order(pipe, tmp_path):
    for name, m_values in (("repeated", "2,1,2"), ("plain", "1,2")):
        assert _run(
            "curve", "--models", pipe.models, "--cache", pipe.feats / "test.lspg", "--out", tmp_path / name,
            "--set", f"curve.m_values={m_values}", "--set", "curve.n_combinations=3", *FAST,
        ) == 0
    repeated, plain = tmp_path / "repeated", tmp_path / "plain"
    for name in ("curve.csv", "curve.svg"):
        assert (repeated / name).read_bytes() == (plain / name).read_bytes(), name
    summaries = [json.loads((out / "run_summary.json").read_text())["summary"] for out in (repeated, plain)]
    assert summaries[0] == summaries[1] and summaries[0]["m_values"] == [1, 2] and summaries[0]["rows"] == 12


def test_echoed_config_reproduces_run(pipe, tmp_path):
    echoed = pipe.models / "config_echo.cfg"
    assert echoed.is_file()
    again = tmp_path / "again"
    assert _run("train", "--cache", pipe.feats / "train.lspg", "--out", again, "--config", echoed) == 0
    assert (pipe.models / "model_000.sdm").read_bytes() == (again / "model_000.sdm").read_bytes()
    assert (pipe.models / "run_summary.json").read_text() == (again / "run_summary.json").read_text()


def test_schema_types_are_consistent():
    for key, (kind, default) in CONFIG_SCHEMA.items():
        assert kind in (int, float, str), key
        assert isinstance(default, kind), key


# The default config_echo.cfg, every key: a field added to a section's config dataclass becomes a key, so it shows here.
DEFAULT_ECHO_LINES = (
    "curve.m_values = ",
    "curve.n_combinations = 200",
    "ensemble.machines = 50",
    "ensemble.method = 1",
    "ensemble.threshold = 0.5",
    "ensemble.tie_seed = 0",
    "network.filters = 128",
    "network.hidden = 128",
    "network.pool_kernel = 5",
    "network.pool_pad = 4",
    "network.pool_stride = 4",
    "sampling.crop_s = 4.0",
    "sampling.eval_cap = 89",
    "seed = 0",
    "stft.hop_s = 0.032",
    "stft.n_fft = 1024",
    "stft.window_s = 0.064",
    "synth.duration_s = 48.0",
    "synth.sample_rate = 16000",
    "synth.speakers_per_class = 31",
    "synth.test_speakers_per_class = 10",
    "train.batch_size = 80",
    "train.epochs = 50",
    "train.eps = 1e-06",
    "train.lr_end = 0.01",
    "train.lr_start = 1.0",
    "train.rho = 0.95",
    "trim.floor_db = -60.0",
    "trim.frame_s = 0.1",
)


def test_default_config_echo_is_pinned():
    expected = "\n".join(DEFAULT_ECHO_LINES) + "\n"
    assert len(DEFAULT_ECHO_LINES) == len(CONFIG_SCHEMA) == 29
    assert RunConfig.defaults().echo_text() == expected
    resolved = cli._resolve_config(cli._build_parser().parse_args(["synth", "--out", "unused"]))
    assert resolved.echo_text() == expected


# a valid value for every key of a section that RunConfig.section builds, none of them its default
_SECTION_VALUES = {
    "stft.window_s": 0.05, "stft.hop_s": 0.02, "stft.n_fft": 512,
    "network.filters": 7, "network.pool_kernel": 3, "network.pool_stride": 2, "network.pool_pad": 5,
    "network.hidden": 9,
    "train.epochs": 3, "train.batch_size": 4, "train.lr_start": 0.9, "train.lr_end": 0.02, "train.rho": 0.8,
    "train.eps": 1e-7,
    "ensemble.machines": 6, "ensemble.method": 2, "ensemble.threshold": 0.3, "ensemble.tie_seed": 11,
}


def test_every_section_key_reaches_its_field():
    sections = {"stft": StftConfig, "network": NetworkConfig, "train": TrainConfig, "ensemble": EnsembleConfig}
    assert set(_SECTION_VALUES) == {key for key in CONFIG_SCHEMA if key.partition(".")[0] in sections}
    argv = ["synth", "--out", "unused", *(f"--set={key}={value}" for key, value in _SECTION_VALUES.items())]
    cfg = cli._resolve_config(cli._build_parser().parse_args(argv))
    given = {"network": {"freq_bins": 13, "time_steps": 17}, "train": {"seed": 19}}
    for prefix, factory in sections.items():
        built = cfg.section(factory, prefix, **given.get(prefix, {}))
        values = {key.partition(".")[2]: v for key, v in _SECTION_VALUES.items() if key.startswith(prefix + ".")}
        assert len(set(values.values())) == len(values), prefix  # distinct, so no two keys can swap fields
        for name, value in values.items():
            assert value != CONFIG_SCHEMA[f"{prefix}.{name}"][1], name
            assert getattr(built, name) == value, name
        for name, value in given.get(prefix, {}).items():
            assert getattr(built, name) == value, name


def test_map_at_jobs_1_takes_each_task_only_once_the_last_result_is_taken():
    pulled = []

    def tasks():
        for t in range(5):
            pulled.append(t)
            yield t

    results = cli._map(lambda inherited, t: inherited + t, tasks(), 1, 10)
    assert pulled == []
    for n, result in enumerate(results, start=1):
        assert result == 9 + n and len(pulled) == n


def test_map_on_threads_yields_in_task_order_and_keeps_its_window():
    main_thread, pulled, lock, running, most = threading.get_ident(), [], threading.Lock(), [0], [0]

    def tasks():
        for t in range(12):
            assert threading.get_ident() == main_thread  # the task stream is read on the calling thread only
            pulled.append(t)
            yield t

    def square(inherited, t):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        time.sleep(0.02 if t % 3 == 0 else 0.0)  # later tasks finish first
        with lock:
            running[0] -= 1
        return inherited, t * t, threading.get_ident() != main_thread

    ahead = []
    for n, result in enumerate(cli._map(square, tasks(), 1, "x", threads=3), start=1):
        assert result == ("x", (n - 1) ** 2, True)
        ahead.append(len(pulled) - n)
    assert max(ahead) == 3 and len(ahead) == 12, ahead
    assert 1 < most[0] <= 3


def test_map_at_jobs_2_keeps_at_most_4_tasks_ahead_of_its_results():
    pulled = []

    def tasks():
        for t in range(12):
            pulled.append(t)
            yield t

    ahead = []
    for n, result in enumerate(cli._map(lambda inherited, t: (inherited, t * t), tasks(), 2, "x"), start=1):
        assert result == ("x", (n - 1) ** 2)
        ahead.append(len(pulled) - n)
    assert max(ahead) == 4 and len(ahead) == 12, ahead


def test_map_starts_no_more_workers_than_it_has_tasks(monkeypatch):
    from concurrent import futures

    real, started = futures.ProcessPoolExecutor, []

    def spy(max_workers, **kwargs):
        assert max_workers <= 2  # a fork-based pool forks every worker at the first submit
        started.append(max_workers)
        return real(max_workers, **kwargs)

    def no_threads(*args, **kwargs):
        raise AssertionError("a single task needs no thread pool")

    def square(inherited, t):
        return inherited + t * t

    monkeypatch.setattr(futures, "ProcessPoolExecutor", spy)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", no_threads)
    assert list(cli._map(square, [1, 2], 4, 10)) == [11, 14]
    assert started == [2]
    assert list(cli._map(square, [3], 64, 10)) == [19]  # one task runs in line
    assert list(cli._map(square, [], 64, 10)) == []
    assert list(cli._map(square, [3], 1, 10, threads=3)) == [19]
    assert started == [2]
    assert list(cli._map(square, iter([1, 2, 3]), 2, 10)) == [11, 14, 19]  # a lazy stream keeps its jobs
    assert started == [2, 2]


# SHA-256 of the artifacts of a fixed tiny run (float64 numpy on x86-64 with
# OpenBLAS). Any change to the training or prediction arithmetic moves them;
# a change that is meant to move them must say so and record the new values.
GOLDEN_MODEL_SHA256 = "b7cdaf99d2ae5abab9be782fc1f4e92e81b5fa8435329c7b67c021c26c099c65"
GOLDEN_PREDICTIONS_SHA256 = "8032ae86993d9eda1f6462aeaf4e6199ca079c6b0af6e111eacdc61bcfcd67ca"
GOLDEN_METRICS_SHA256 = "ea831eb146c0046a2176e88d40fef861665ef584ef9e4f92568ff2114fdfc567"
GOLDEN_CURVE_SHA256 = "81aee21702133b0df426af275ba5a790927df9913dd0f95601282f48e2403008"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_model_and_predictions(pipe, tmp_path):
    models, out, curve = tmp_path / "models", tmp_path / "eval", tmp_path / "curve"
    # batch 4 over 6 crops: a full and a partial batch per epoch
    assert _run(
        "train", "--cache", pipe.feats / "train.lspg", "--out", models, "--seed", SEED,
        *FAST, "--set", "train.batch_size=4",
    ) == 0
    assert _run("evaluate", "--models", models, "--cache", pipe.feats / "test.lspg", "--out", out, *FAST) == 0
    assert _run(
        "curve", "--models", models, "--cache", pipe.feats / "test.lspg", "--out", curve,
        *FAST, "--set", "curve.m_values=1,2",
    ) == 0
    assert _sha256(models / "model_000.sdm") == GOLDEN_MODEL_SHA256
    assert _sha256(out / "predictions.csv") == GOLDEN_PREDICTIONS_SHA256
    assert _sha256(out / "metrics.csv") == GOLDEN_METRICS_SHA256
    assert _sha256(curve / "curve.csv") == GOLDEN_CURVE_SHA256


def _assert_one_error_line(code, capsys, category):
    err = capsys.readouterr().err
    assert code == 2
    lines = err.splitlines()  # one error line, so no traceback either
    assert len(lines) == 1 and lines[0].startswith(f"error:{category}: "), err
    return lines[0]


@pytest.mark.parametrize("keep", [10, 19, 30, -100])  # file header, record header, speaker id, values
def test_truncated_cache_is_a_data_error(pipe, tmp_path, capsys, keep):
    blob = (pipe.feats / "train.lspg").read_bytes()
    cut = tmp_path / "cut.lspg"
    cut.write_bytes(blob[:keep])
    code = _run("train", "--cache", cut, "--out", tmp_path / "m", *FAST)
    assert "cut off" in _assert_one_error_line(code, capsys, "data")
    code = _run("evaluate", "--models", pipe.models, "--cache", cut, "--out", tmp_path / "e", *FAST)
    assert "cut off" in _assert_one_error_line(code, capsys, "data")


@pytest.mark.parametrize("jobs", [1, 2])
def test_zero_record_cache_is_a_data_error(pipe, tmp_path, capsys, jobs):
    empty = tmp_path / "empty.lspg"
    empty.write_bytes(CACHE_MAGIC + struct.pack("<HIII", CACHE_VERSION, 513, 125, 0))
    code = _run("train", "--cache", empty, "--out", tmp_path / "m", "--jobs", jobs, *FAST)
    assert "no records" in _assert_one_error_line(code, capsys, "data")
    code = _run("evaluate", "--models", pipe.models, "--cache", empty, "--out", tmp_path / "e", *FAST)
    assert "no records" in _assert_one_error_line(code, capsys, "data")


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda row: row[:3], "expected 5 columns, got 3"),
        (lambda row: row + ["extra"], "expected 5 columns, got 6"),
        (lambda row: row[:2] + ["2"] + row[3:], "label must be 0 or 1"),
        (lambda row: row[:4] + ["long"], "duration_s is not a number"),
        (lambda row: row[:4] + ["nan"], "duration_s must be a positive finite number, got 'nan'"),
        (lambda row: row[:4] + ["inf"], "duration_s must be a positive finite number, got 'inf'"),
        (lambda row: row[:4] + ["-1"], "duration_s must be a positive finite number, got '-1'"),
        (lambda row: ["s" * 131_073] + row[1:], "field larger than field limit (131072)"),
    ],
    ids=[
        "3 columns", "6 columns", "label 2", "bad duration", "nan duration", "inf duration", "negative duration",
        "field over the csv limit",
    ],
)
def test_bad_manifest_row_is_a_data_error(pipe, tmp_path, capsys, mangle, message):
    header, *rows = (pipe.corpus / "manifest.csv").read_text().splitlines()
    rows[1] = ",".join(mangle(rows[1].split(",")))
    bad = tmp_path / "manifest.csv"
    bad.write_text("\n".join([header, *rows]) + "\n")
    code = _run("featurize", "--manifest", bad, "--out", tmp_path / "f", *FAST)
    line = _assert_one_error_line(code, capsys, "data")
    assert f"{bad}:3: {message}" in line


def test_speaker_id_too_long_for_the_cache_is_a_data_error_before_the_cache_is_made(pipe, tmp_path, capsys):
    header, *rows = (pipe.corpus / "manifest.csv").read_text().splitlines()
    rows = [r.split(",") for r in rows]
    for r in rows:
        r[1] = str(pipe.corpus / r[1])  # the manifest moves; its clips stay
    next(r for r in rows if r[3] == "train")[0] = "s" * 70_000
    bad = tmp_path / "manifest.csv"
    bad.write_text("\n".join([header, *map(",".join, rows)]) + "\n")
    code = _run("featurize", "--manifest", bad, "--out", tmp_path / "f", "--seed", SEED, *FAST)
    assert "speaker id of 70000 UTF-8 bytes exceeds the cache's 65535" in _assert_one_error_line(code, capsys, "data")
    assert not (tmp_path / "f" / "train.lspg").exists()


def _with_label(cache, record, label, out):
    """Copy of a cache with one record's label byte replaced."""
    blob = bytearray(cache.read_bytes())
    freq_bins, time_steps = struct.unpack_from("<II", blob, 6)
    pos = 4 + 14
    for _ in range(record):
        (sid_len,) = struct.unpack_from("<H", blob, pos)
        pos += 2 + sid_len + 5 + 4 * freq_bins * time_steps
    (sid_len,) = struct.unpack_from("<H", blob, pos)
    blob[pos + 2 + sid_len + 4] = label
    out.write_bytes(bytes(blob))
    return out


def test_cache_label_byte_is_a_data_error(pipe, tmp_path, capsys):
    train = _with_label(pipe.feats / "train.lspg", 1, 7, tmp_path / "train.lspg")
    count = len(read_feature_cache(pipe.feats / "train.lspg"))
    code = _run("train", "--cache", train, "--out", tmp_path / "m", *FAST)
    assert f"record 1 of {count}: label must be 0 or 1, got 7" in _assert_one_error_line(code, capsys, "data")
    test = _with_label(pipe.feats / "test.lspg", 0, 7, tmp_path / "test.lspg")
    for stage in ("evaluate", "curve"):
        code = _run(stage, "--models", pipe.models, "--cache", test, "--out", tmp_path / stage, *FAST)
        assert "record 0 of" in _assert_one_error_line(code, capsys, "data")


TINY = ["--set", "synth.speakers_per_class=1", "--set", "synth.test_speakers_per_class=1", "--set", "synth.duration_s=9"]


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """A 4-clip corpus, one train and one test speaker per class; its damaged copies are made next to it."""
    root = tmp_path_factory.mktemp("tiny")
    assert _run("synth", "--out", root / "corpus", *TINY) == 0
    return root


def _featurize_with(root, name, blob):
    """featurize over a copy of the tiny corpus whose file `name` holds blob: its exit code and stderr lines."""
    corpus = root / "damaged"
    shutil.rmtree(corpus, ignore_errors=True)
    shutil.copytree(root / "corpus", corpus)
    (corpus / name).write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = _run("featurize", "--manifest", corpus / "manifest.csv", "--out", root / "f", *TINY)
    return code, err.getvalue().splitlines()  # an exception escaping main would fail the test: no traceback


def _assert_exit_0_or_one_error_line(code, lines, case):
    one_line = len(lines) == 1 and re.match(r"error:(usage|config|io|data|train): ", lines[0])
    assert (code == 0 and not lines) or (code == 2 and one_line), (case, code, lines)


@settings(max_examples=60, deadline=None, database=None)  # writes nothing outside pytest's temp dirs
@given(
    kind=st.sampled_from(["cut", "flip", "extend"]),
    clip=st.integers(0, 3),
    where=st.integers(0, 10**6),
    value=st.integers(0, 255),
)
def test_damaged_wav_under_featurize_is_exit_0_or_one_error_line(tiny_corpus, kind, clip, where, value):
    name = (tiny_corpus / "corpus" / "manifest.csv").read_text().splitlines()[1 + clip].split(",")[1]
    blob = bytearray((tiny_corpus / "corpus" / name).read_bytes())
    if kind == "cut":  # at any byte
        blob = blob[: where % len(blob)]
    elif kind == "flip":  # a byte of the 44-byte RIFF, fmt and data headers or of the first samples
        blob[where % 64] ^= 1 + value % 255
    else:  # one more chunk, a fmt, data or unknown one, whose size field may run past the file's end
        body = bytes([value]) * (where % 48)
        blob += struct.pack("<4sI", (b"fmt ", b"data", b"LIST")[where % 3], len(body) + value % 4) + body
    code, lines = _featurize_with(tiny_corpus, name, bytes(blob))
    _assert_exit_0_or_one_error_line(code, lines, (kind, name, where, value))


@settings(max_examples=60, deadline=None, database=None)  # writes nothing outside pytest's temp dirs
@given(kind=st.sampled_from(["cut", "flip", "extend"]), where=st.integers(0, 10**6), value=st.integers(0, 255))
def test_damaged_manifest_under_featurize_is_exit_0_or_one_error_line(tiny_corpus, kind, where, value):
    blob = bytearray((tiny_corpus / "corpus" / "manifest.csv").read_bytes())
    if kind == "cut":  # at any byte
        blob = blob[: where % len(blob)]
    elif kind == "flip":  # any byte
        blob[where % len(blob)] ^= 1 + value % 255
    else:  # bytes appended, a row's worth at most
        blob += bytes([value]) * (1 + where % 64)
    code, lines = _featurize_with(tiny_corpus, "manifest.csv", bytes(blob))
    _assert_exit_0_or_one_error_line(code, lines, (kind, where, value))


def test_mixed_sample_rates_are_a_data_error(pipe, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipe.corpus, corpus)
    header, *rows = (corpus / "manifest.csv").read_text().splitlines()
    first, odd = (corpus / row.split(",")[1] for row in (rows[0], rows[2]))
    clip = load_wav(odd)
    write_wav(odd, AudioClip(clip.samples[::2], 8000, clip.speaker_id))
    for jobs in (1, 2):  # the workers count crops ahead, but the first mismatch in manifest order is named
        code = _run("featurize", "--manifest", corpus / "manifest.csv", "--out", tmp_path / "f", "--jobs", jobs, *FAST)
        line = _assert_one_error_line(code, capsys, "data")
        assert f"{odd} is sampled at 8000 Hz, but {first} at 16000 Hz" in line


@pytest.fixture(scope="module")
def small_cache(tmp_path_factory):
    """A valid 3-record 4x6 cache, a model that fits it, and where each record's label byte sits."""
    root = tmp_path_factory.mktemp("small")
    rng = np.random.default_rng(13)
    good = root / "good.lspg"
    write_feature_cache(
        good,
        [LogSpectrogram(rng.normal(size=(4, 6)).astype(np.float32), f"spk{i}", i, i % 2) for i in range(3)],
    )
    net = NetworkConfig(freq_bins=4, time_steps=6, filters=2, pool_kernel=2, pool_stride=2, hidden=3)
    (root / "models").mkdir()
    save_model(root / "models" / "model_000.sdm", net, init_params(net, 0))
    blob = good.read_bytes()
    records, pos = [], 4 + 14
    for _ in range(3):
        (sid_len,) = struct.unpack_from("<H", blob, pos)
        records.append((pos + 2, pos + 2 + sid_len + 4))  # first speaker id byte, label byte
        pos += 2 + sid_len + 5 + 4 * 24
    return SimpleNamespace(root=root, good=good, blob=blob, records=records)


_SMALL_RUN = ["--set", "ensemble.machines=1", "--set", "train.epochs=1"]


def _stages(cache, root):
    return [
        ["train", "--cache", cache, "--out", root / "m", *_SMALL_RUN],
        ["evaluate", "--models", root / "models", "--cache", cache, "--out", root / "e", *_SMALL_RUN],
    ]


def test_small_cache_runs(small_cache):
    for argv in _stages(small_cache.good, small_cache.root):
        assert _run(*argv) == 0


def test_stages_at_jobs_1_load_no_executor(small_cache, tmp_path):
    """Only _map's parallel paths import multiprocessing and concurrent.futures."""
    cache, models = small_cache.good, tmp_path / "m"
    stages = [
        ["train", "--cache", cache, "--out", models, *_SMALL_RUN],
        *([stage, "--models", models, "--cache", cache, "--out", tmp_path / stage] for stage in ("evaluate", "curve")),
    ]
    script = (
        "import sys\n"
        "from speechdep.cli import main\n"
        f"for argv in {[[str(a) for a in argv] for argv in stages]!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _mangled(blob, records, kind, where, value):
    """A copy of a valid cache that no longer parses, by one of five kinds of damage."""
    out = bytearray(blob)
    if kind == "cut":  # at any byte
        return bytes(out[: where % len(out)])
    if kind == "header":  # a magic, version or record-count byte
        out[[0, 1, 2, 3, 4, 5, 14, 15, 16, 17][where % 10]] ^= 1 + value % 255
    elif kind == "label":  # a label byte outside 0/1
        out[records[where % 3][1]] = 2 + value % 254
    elif kind == "speaker":  # a speaker id that is not UTF-8
        out[records[where % 3][0]] = 0x80 + value % 128
    else:  # trailing bytes
        out += bytes([value % 256]) * (1 + where % 16)
    return bytes(out)


@settings(max_examples=50, deadline=None, database=None)  # writes nothing outside pytest's temp dirs
@given(
    kind=st.sampled_from(["cut", "header", "label", "speaker", "tail"]),
    where=st.integers(0, 10**6),
    value=st.integers(0, 255),
)
def test_damaged_cache_is_one_data_error_line(small_cache, kind, where, value):
    bad = small_cache.root / "bad.lspg"
    bad.write_bytes(_mangled(small_cache.blob, small_cache.records, kind, where, value))
    for argv in _stages(bad, small_cache.root):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _run(*argv)  # an exception escaping main would fail the test: no traceback
        lines = err.getvalue().splitlines()
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error:data: "), (kind, argv[0], lines)
    # the streamed reader's walk is the in-memory reader's: the same damage, the same message
    assert _rejection(open_feature_cache, bad) == _rejection(read_feature_cache, bad), kind


def _rejection(read, path) -> str:
    with pytest.raises(ValueError) as raised:
        read(path)
    return str(raised.value)


@pytest.mark.parametrize(
    "body",
    [b"SDM1\x01\x00", b"SDM1" + struct.pack("<HIIIIIII", 1, 4, 6, 2, 2, 2, 2, 3)],
    ids=["header cut short", "header without payload"],
)
def test_short_model_file_is_one_data_error_line(small_cache, tmp_path, capsys, body):
    models = tmp_path / "models"
    models.mkdir()
    model = models / "model_000.sdm"
    model.write_bytes(body + struct.pack("<I", zlib.crc32(body)))  # a valid CRC
    code = _run("evaluate", "--models", models, "--cache", small_cache.good, "--out", tmp_path / "e", *_SMALL_RUN)
    assert f"{model}: " in _assert_one_error_line(code, capsys, "data")


def _damaged_model(blob, kind, where, value):
    """A copy of a valid model file cut at any byte, with one byte flipped, or with bytes appended."""
    if kind == "cut":
        return blob[: where % len(blob)]
    out = bytearray(blob)
    if kind == "flip":
        out[where % len(out)] ^= 1 + value % 255
    else:
        out += bytes([value % 256]) * (1 + where % 16)
    return bytes(out)


@settings(max_examples=50, deadline=None, database=None)  # writes nothing outside pytest's temp dirs
@given(kind=st.sampled_from(["cut", "flip", "extend"]), where=st.integers(0, 10**6), value=st.integers(0, 255))
def test_damaged_model_is_one_data_error_line(small_cache, kind, where, value):
    models = small_cache.root / "damaged_models"
    models.mkdir(exist_ok=True)
    blob = (small_cache.root / "models" / "model_000.sdm").read_bytes()
    (models / "model_000.sdm").write_bytes(_damaged_model(blob, kind, where, value))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = _run(  # an exception escaping main would fail the test: no traceback
            "evaluate", "--models", models, "--cache", small_cache.good, "--out", small_cache.root / "e", *_SMALL_RUN
        )
    lines = err.getvalue().splitlines()
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error:data: "), (kind, lines)


def _pool(models, nets):
    """model_000.sdm, model_001.sdm, ... of freshly initialized networks, one per config, seeded by position."""
    models.mkdir()
    for m, net in enumerate(nets):
        save_model(models / f"model_{m:03d}.sdm", net, init_params(net, m))
    return sorted(models.glob("model_*.sdm"))


def test_evaluate_reads_each_model_once_per_batch_and_writes_the_in_memory_pool_bytes(tmp_path, monkeypatch):
    rng = np.random.default_rng(21)
    cache = tmp_path / "test.lspg"  # 300 records: four full 64-crop prediction batches and a partial one
    write_feature_cache(
        cache,
        [
            LogSpectrogram(rng.normal(size=(4, 6)).astype(np.float32), f"spk{i % 10}", i // 10, i % 2)
            for i in range(300)
        ],
    )
    net = NetworkConfig(freq_bins=4, time_steps=6, filters=2, pool_kernel=2, pool_stride=2, hidden=3)
    paths = _pool(tmp_path / "models", [net] * 3)
    loaded = [load_model(path)[1] for path in paths]
    features = read_feature_cache(cache)
    write_predictions_csv(tmp_path / "expected.csv", prediction_set_for(loaded, net, features))

    reads = []
    load = cli.load_model
    monkeypatch.setattr(cli, "load_model", lambda path: reads.append(path.name) or load(path))
    assert _run("evaluate", "--models", tmp_path / "models", "--cache", cache, "--out", tmp_path / "e") == 0
    assert (tmp_path / "e" / "predictions.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    # the config read of model 0, then every model for each of the five batches, in pool order
    assert reads == ["model_000.sdm"] + 5 * [path.name for path in paths], reads


def _cache(path, n, shape, seed):
    """An n-record cache of random float32 records, 10 speakers with alternating labels."""
    rng = np.random.default_rng(seed)
    write_feature_cache(
        path,
        [LogSpectrogram(rng.normal(size=shape).astype(np.float32), f"spk{i % 10}", i // 10, i % 2) for i in range(n)],
    )
    return path


def test_curve_on_a_streamed_cache_writes_the_in_memory_bytes(tmp_path, monkeypatch):
    cache = _cache(tmp_path / "test.lspg", 300, (4, 6), 23)  # four full 64-crop prediction batches and a partial one
    net = NetworkConfig(freq_bins=4, time_steps=6, filters=2, pool_kernel=2, pool_stride=2, hidden=3)
    _pool(tmp_path / "models", [net] * 3)
    argv = ["curve", "--models", tmp_path / "models", "--cache", cache, "--set", "curve.n_combinations=4"]
    assert _run(*argv, "--out", tmp_path / "streamed") == 0
    monkeypatch.setattr(cli, "open_feature_cache", read_feature_cache)  # the whole cache in one block
    assert _run(*argv, "--out", tmp_path / "in_memory") == 0
    for name in ("curve.csv", "curve.svg", "run_summary.json"):
        assert (tmp_path / "streamed" / name).read_bytes() == (tmp_path / "in_memory" / name).read_bytes(), name


def test_evaluate_memory_does_not_grow_with_the_cache(tmp_path):
    """600 records peak less than 8 records' values above 300: no record is held past its batch."""
    shape = (64, 64)
    caches = {n: _cache(tmp_path / f"{n}.lspg", n, shape, n) for n in (300, 600)}
    net = NetworkConfig(freq_bins=64, time_steps=64, filters=2, pool_kernel=4, pool_stride=4, hidden=3)
    _pool(tmp_path / "models", [net] * 2)
    cfg = RunConfig.defaults()
    for out in ("warm", "300_out", "600_out"):
        (tmp_path / out).mkdir()
    cli.cmd_evaluate(cfg, tmp_path / "models", caches[300], tmp_path / "warm", 1)  # first-call imports
    peaks = {}
    for n, cache in caches.items():
        tracemalloc.start()
        try:
            cli.cmd_evaluate(cfg, tmp_path / "models", cache, tmp_path / f"{n}_out", 1)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    record_bytes = 4 * shape[0] * shape[1]
    assert peaks[600] - peaks[300] < 8 * record_bytes, (peaks, record_bytes)


@pytest.mark.parametrize("damage", ["bad magic", "cut in a record", "trailing bytes", "label 2", "cut after the walk"])
@pytest.mark.parametrize("stage", ["evaluate", "curve"])
def test_damaged_test_cache_is_one_data_error_line_before_any_prediction(
    small_cache, tmp_path, capsys, monkeypatch, stage, damage
):
    blob, (_, last_label) = small_cache.blob, small_cache.records[2]
    bad, out = tmp_path / "bad.lspg", tmp_path / "out"
    damaged, message = {
        "bad magic": (b"LSPX" + blob[4:], "not a feature cache file"),
        "cut in a record": (blob[: last_label - 2], "cut off inside record 2 of 3"),
        "trailing bytes": (blob + bytes(5), "5 trailing bytes"),
        "label 2": (blob[:last_label] + b"\x02" + blob[last_label + 1 :], "record 2 of 3: label must be 0 or 1, got 2"),
        "cut after the walk": (blob, "cut off inside record 2 of 3"),
    }[damage]
    bad.write_bytes(damaged)
    reads = []
    load = cli.load_model
    monkeypatch.setattr(cli, "load_model", lambda path: reads.append(path.name) or load(path))
    if damage == "cut after the walk":  # the file shrinks once its headers are checked; a short read is not zeros
        walk = cli.open_feature_cache

        def walk_then_cut(path):
            features = walk(path)
            os.truncate(path, len(blob) - 1)
            return features

        monkeypatch.setattr(cli, "open_feature_cache", walk_then_cut)
    code = _run(stage, "--models", small_cache.root / "models", "--cache", bad, "--out", out, *_SMALL_RUN)
    assert f"{bad}: {message}" in _assert_one_error_line(code, capsys, "data")
    # a walk's damage stops the stage before any model is read; a cut after it, before any model predicts
    # (model 0 is read once for its config, which the cache's shape is checked against)
    assert reads == (["model_000.sdm"] if damage == "cut after the walk" else [])
    assert not list(out.glob("*"))


def test_evaluate_memory_is_about_one_model_whatever_the_pool_size(tmp_path):
    """A pool of 8 peaks less than one model's parameters above a pool of 2: models are never all held."""
    rng = np.random.default_rng(22)
    cache = tmp_path / "test.lspg"  # 6 KB of features against 1 MB models
    write_feature_cache(
        cache,
        [LogSpectrogram(rng.normal(size=(8, 8)).astype(np.float32), f"spk{i % 4}", i // 4, i % 2) for i in range(24)],
    )
    net = NetworkConfig(freq_bins=8, time_steps=8, filters=64, pool_kernel=1, pool_stride=1, hidden=256)
    paths = _pool(tmp_path / "eight", [net] * 8)
    (tmp_path / "two").mkdir()
    for path in paths[:2]:
        shutil.copy(path, tmp_path / "two" / path.name)
    cfg = RunConfig.defaults()
    for out in ("warm", "two_out", "eight_out"):
        (tmp_path / out).mkdir()
    cli.cmd_evaluate(cfg, tmp_path / "two", cache, tmp_path / "warm", 1)  # first-call imports are not models
    peaks = {}
    for pool in ("two", "eight"):
        tracemalloc.start()
        try:
            cli.cmd_evaluate(cfg, tmp_path / pool, cache, tmp_path / f"{pool}_out", 1)
            peaks[pool] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    model_bytes = 8 * net.n_params
    assert peaks["eight"] - peaks["two"] < model_bytes, (peaks, model_bytes)
    assert peaks["eight"] < 3 * model_bytes, (peaks, model_bytes)  # a load's file bytes and its vector, no more


@pytest.mark.parametrize("damage", ["other hidden", "flipped byte"])
@pytest.mark.parametrize("stage", ["evaluate", "curve"])
def test_bad_second_model_is_one_data_error_line_and_writes_nothing(small_cache, tmp_path, capsys, stage, damage):
    net = NetworkConfig(freq_bins=4, time_steps=6, filters=2, pool_kernel=2, pool_stride=2, hidden=3)
    other = NetworkConfig(freq_bins=4, time_steps=6, filters=2, pool_kernel=2, pool_stride=2, hidden=5)
    models = tmp_path / "models"
    _, second = _pool(models, [net, other if damage == "other hidden" else net])
    if damage == "flipped byte":
        blob = bytearray(second.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        second.write_bytes(bytes(blob))
    out = tmp_path / "out"
    code = _run(stage, "--models", models, "--cache", small_cache.good, "--out", out, *_SMALL_RUN)
    line = _assert_one_error_line(code, capsys, "data")
    assert "model_001" in line and "model_000" not in line, line
    assert not any((out / name).exists() for name in ("predictions.csv", "metrics.csv", "curve.csv"))


@pytest.mark.parametrize("rate", [8, 1])  # an 8 Hz STFT hop and a 1 Hz trim frame round to 0 samples
def test_sample_rate_too_low_is_one_data_error_line(pipe, tmp_path, capsys, rate):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipe.corpus, corpus)
    for wav in (corpus / "wav").glob("*.wav"):
        clip = load_wav(wav)
        write_wav(wav, AudioClip(clip.samples[:: 16000 // rate], rate, clip.speaker_id))
    for jobs in (1, 2):  # under --jobs 2 the error is raised in a worker
        code = _run("featurize", "--manifest", corpus / "manifest.csv", "--out", tmp_path / "f", "--jobs", jobs, *FAST)
        assert f"at {rate} Hz" in _assert_one_error_line(code, capsys, "data")


def test_crop_shorter_than_one_sample_is_one_data_error_line(pipe, tmp_path, capsys):
    code = _run(
        "featurize", "--manifest", pipe.corpus / "manifest.csv", "--out", tmp_path / "f", *FAST,
        "--set", "sampling.crop_s=0.00001",  # 0.16 samples at 16 kHz
    )
    assert "at 16000 Hz" in _assert_one_error_line(code, capsys, "data")


def test_directory_as_wav_path_is_one_io_error_line(pipe, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipe.corpus, corpus)
    _, first, *_ = (corpus / "manifest.csv").read_text().splitlines()
    wav = corpus / first.split(",")[1]
    wav.unlink()
    wav.mkdir()
    code = _run("featurize", "--manifest", corpus / "manifest.csv", "--out", tmp_path / "f", *FAST)
    assert str(wav) in _assert_one_error_line(code, capsys, "io")


def test_train_jobs_2_reads_the_cache_once_in_the_parent(small_cache, tmp_path, monkeypatch):
    log = tmp_path / "reads.log"  # the forked workers inherit the counting wrapper
    walk = cli.open_feature_cache

    def counted(path, *args, **kwargs):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return walk(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open_feature_cache", counted)
    argv = ["--set", "ensemble.machines=4", "--set", "train.epochs=1", "--jobs", 2]
    assert _run("train", "--cache", small_cache.good, "--out", tmp_path / "m", *argv) == 0
    assert log.read_text().split() == [str(os.getpid())]
    assert len(list((tmp_path / "m").glob("model_*.sdm"))) == 4


def test_train_on_a_streamed_cache_writes_the_in_memory_bytes(tmp_path, monkeypatch):
    cache = _cache(tmp_path / "train.lspg", 300, (4, 6), 24)  # three full 80-crop batches and a partial one
    argv = [
        "train", "--cache", cache, "--set", "ensemble.machines=3", "--set", "train.epochs=2",
        "--set", "network.filters=2", "--set", "network.pool_kernel=2", "--set", "network.pool_stride=2",
        "--set", "network.hidden=3",
    ]
    for jobs in (1, 2):
        assert _run(*argv, "--jobs", jobs, "--out", tmp_path / f"streamed_{jobs}") == 0
    monkeypatch.setattr(cli, "open_feature_cache", read_feature_cache)  # the whole cache in one block
    for jobs in (1, 2):
        assert _run(*argv, "--jobs", jobs, "--out", tmp_path / f"in_memory_{jobs}") == 0
    names = sorted(path.name for path in (tmp_path / "in_memory_1").iterdir())
    assert "model_002.sdm" in names and "history_002.csv" in names and "run_summary.json" in names, names
    for jobs in (1, 2):
        for name in names:
            expected = (tmp_path / "in_memory_1" / name).read_bytes()
            for run in ("streamed", "in_memory"):
                assert (tmp_path / f"{run}_{jobs}" / name).read_bytes() == expected, (run, jobs, name)


def test_train_memory_does_not_grow_with_the_cache(tmp_path):
    """600 records peak less than 8 records' values above 300: a step holds only its own batch's records."""
    shape = (64, 64)
    caches = {n: _cache(tmp_path / f"{n}.lspg", n, shape, n) for n in (300, 600)}
    cfg = RunConfig.defaults()
    for key, value in [
        ("ensemble.machines", "1"), ("train.epochs", "1"),
        ("network.filters", "2"), ("network.pool_kernel", "4"), ("network.pool_stride", "4"), ("network.hidden", "3"),
    ]:
        cfg.set(key, value)
    for out in ("warm", "300_out", "600_out"):
        (tmp_path / out).mkdir()
    cli.cmd_train(cfg, caches[300], tmp_path / "warm", 1)  # first-call imports
    peaks = {}
    for n, cache in caches.items():
        tracemalloc.start()
        try:
            cli.cmd_train(cfg, cache, tmp_path / f"{n}_out", 1)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    record_bytes = 4 * shape[0] * shape[1]
    assert peaks[600] - peaks[300] < 8 * record_bytes, (peaks, record_bytes)


@pytest.mark.parametrize("jobs", [1, 2])
def test_train_cache_cut_after_the_walk_is_one_data_error_line(small_cache, tmp_path, capsys, monkeypatch, jobs):
    cut, out = tmp_path / "cut.lspg", tmp_path / "m"
    cut.write_bytes(small_cache.blob)
    walk = cli.open_feature_cache

    def walk_then_cut(path):  # the file shrinks once its headers are checked; a short read is not zeros
        features = walk(path)
        os.truncate(path, len(small_cache.blob) - 1)
        return features

    monkeypatch.setattr(cli, "open_feature_cache", walk_then_cut)
    argv = ["--set", "ensemble.machines=2", "--set", "train.epochs=1", "--jobs", jobs]
    code = _run("train", "--cache", cut, "--out", out, *argv)
    assert f"{cut}: cut off inside record 2 of 3" in _assert_one_error_line(code, capsys, "data")
    if jobs == 1:
        assert not list(out.glob("model_*.sdm"))


@pytest.mark.parametrize("jobs", [1, 2])
def test_network_too_big_for_memory_is_one_config_error_line_before_any_record_is_read(
    small_cache, tmp_path, capsys, monkeypatch, jobs
):
    reads = []
    monkeypatch.setattr(_CacheRecords, "__getitem__", lambda records, index: reads.append(index))
    big = ["--set", "network.filters=100000000", "--set", "network.hidden=100000000"]
    code = _run("train", "--cache", small_cache.good, "--out", tmp_path / "m", *_SMALL_RUN, *big, "--jobs", jobs)
    net = NetworkConfig(freq_bins=4, time_steps=6, filters=100_000_000, hidden=100_000_000)
    plan = planned_bytes(net, TrainConfig().batch_size, 3, 1, 1)
    assert plan > 2**50  # more than 1 PiB, whatever the box
    assert f"needs {plan} bytes" in _assert_one_error_line(code, capsys, "config")
    assert reads == [] and not list((tmp_path / "m").glob("*"))


@pytest.mark.parametrize("jobs", [1, 2])
def test_non_finite_raw_record_is_one_train_error_line(tmp_path, capsys, jobs):
    rng = np.random.default_rng(5)
    raw = [LogSpectrogram(rng.normal(size=(4, 6)).astype(np.float32), f"s{i}", i, i % 2) for i in range(8)]
    raw[3].values[1, 2] = np.nan
    cache, out = tmp_path / "nan.lspg", tmp_path / "m"
    write_feature_cache(cache, raw)
    argv = ["--seed", SEED, "--set", "ensemble.machines=2", "--set", "train.epochs=1", "--jobs", jobs]
    code = _run("train", "--cache", cache, "--out", out, *argv)
    line = _assert_one_error_line(code, capsys, "train")
    assert line.endswith(f"non-finite loss at epoch 0, batch 0, machine seed {SEED}"), line
    if jobs == 1:
        assert not list(out.glob("model_*.sdm"))


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1e308"])
@pytest.mark.parametrize("key", ["synth.duration_s", "synth.sample_rate", "synth.test_speakers_per_class"])
def test_bad_synth_value_is_one_error_line(tmp_path, capsys, monkeypatch, key, value):
    draws = []
    monkeypatch.setattr(audio_io, "_draw_clip", lambda *args: draws.append(args))
    code = _run("synth", "--out", tmp_path / "c", *FAST, "--set", f"{key}={value}")
    line = _assert_one_error_line(code, capsys, "config")
    assert key.partition(".")[2] in line, line
    assert draws == [] and not list((tmp_path / "c").glob("*"))


@pytest.mark.parametrize("jobs", [1, 2])
def test_clip_of_under_one_sample_is_one_config_error_line_before_any_file(tmp_path, capsys, jobs):
    code = _run("synth", "--out", tmp_path / "c", *FAST, "--set", "synth.duration_s=1e-9", "--jobs", jobs)
    assert "duration_s" in _assert_one_error_line(code, capsys, "config")
    assert not (tmp_path / "c" / "wav").exists()
    # the shortest clip this allows is 1 sample
    assert _run("synth", "--out", tmp_path / "d", *FAST, "--set", "synth.duration_s=0.000125", "--jobs", jobs) == 0


@pytest.mark.parametrize("rate", [2**32, 10**400])
def test_sample_rate_past_the_wav_header_is_one_config_error_line_before_any_file(tmp_path, capsys, rate):
    code = _run("synth", "--out", tmp_path / "c", *FAST, "--set", f"synth.sample_rate={rate}")
    assert "sample_rate" in _assert_one_error_line(code, capsys, "config")
    assert not (tmp_path / "c" / "wav").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_clip_too_big_for_memory_is_one_config_error_line_before_any_draw(tmp_path, capsys, monkeypatch, jobs):
    draws = []
    monkeypatch.setattr(audio_io, "_draw_clip", lambda *args: draws.append(args))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    code = _run("synth", "--out", tmp_path / "c", *FAST, "--set", "synth.duration_s=1e12", "--jobs", jobs)
    in_flight = {1: 2, 2: 4}[jobs]  # a clip per usable core up to 2 at --jobs 1, the 2 * jobs process window above
    # float64 clips: 3 per clip in flight, one written, one drawn; and 416 B of records for each of the 10 clips
    plan = round(8 * (3 * in_flight + 2) * 1e12 * 16000) + 416 * 10
    assert f"needs {plan} bytes" in _assert_one_error_line(code, capsys, "config")
    assert draws == [] and not (tmp_path / "c" / "wav").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_corpus_too_big_for_memory_is_one_config_error_line_before_any_draw(tmp_path, capsys, monkeypatch, jobs):
    draws = []
    monkeypatch.setattr(audio_io, "_draw_clip", lambda *args: draws.append(args))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    code = _run("synth", "--out", tmp_path / "c", "--set", "synth.speakers_per_class=1000000000000", "--jobs", jobs)
    in_flight = {1: 2, 2: 4}[jobs]
    clips = 2 * (10**12 + 10)  # the default 10 test speakers per class too
    plan = round(8 * (3 * in_flight + 2) * 48.0 * 16000) + 416 * clips  # 416 B of records per clip
    line = _assert_one_error_line(code, capsys, "config")
    assert f"synthesizing {clips} clips, {in_flight} at once" in line and f"needs {plan} bytes" in line
    assert draws == [] and not list((tmp_path / "c").glob("*"))


def test_synth_starts_no_more_workers_than_a_split_has_clips(tmp_path, monkeypatch):
    from concurrent import futures

    real, started = futures.ProcessPoolExecutor, []

    def spy(max_workers, **kwargs):
        assert max_workers <= 2  # a fork-based pool forks every worker at the first submit
        started.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", spy)
    assert _run("synth", "--out", tmp_path / "wide", "--jobs", 64, *TINY) == 0
    assert started == [2, 2]  # one pool per split of 2 clips
    assert _run("synth", "--out", tmp_path / "one", *TINY) == 0
    assert _synth_digests(tmp_path / "wide") == _synth_digests(tmp_path / "one")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "setting, freq_bins, frames",
    [("stft.n_fft=100000000000", 50_000_000_001, 125), ("stft.hop_s=0.0001", 513, 32_000)],  # 4 s crops at 16 kHz
)
def test_features_too_big_for_memory_are_one_config_error_line_before_any_feature(
    pipe, tmp_path, capsys, monkeypatch, jobs, setting, freq_bins, frames
):
    """The n_fft plan exceeds any box; the hop's is measured against a box of 1 GiB, as a reference corpus's
    372 such crops (24 GB) exceed an 8 GB one."""
    sysconf = os.sysconf
    fake = {"SC_PHYS_PAGES": (1 << 30) // sysconf("SC_PAGE_SIZE")}
    monkeypatch.setattr(os, "sysconf", lambda name: fake[name] if name in fake else sysconf(name))
    calls = _forbid(monkeypatch, "featurize_raw", "write_feature_cache")
    code = _run("featurize", "--manifest", pipe.corpus / "manifest.csv", "--out", tmp_path / "f", *FAST,
                "--set", setting, "--jobs", jobs)
    summary = json.loads((pipe.feats / "run_summary.json").read_text())["summary"]
    held = max(summary["train_crops"], summary["test_crops"])
    # the larger split's float32 features, and per worker one crop's float64 frames of 1024 samples,
    # complex128 spectrum and two float64 magnitudes
    plan = frames * (4 * held * freq_bins + jobs * (8 * 1024 + 32 * freq_bins))
    assert plan > 1 << 30
    assert f"featurizing {held} crops needs {plan} bytes" in _assert_one_error_line(code, capsys, "config")
    assert calls == [] and not list((tmp_path / "f").glob("*"))


@pytest.mark.parametrize("jobs, cores", [(1, 1), (1, 2), (1, 5), (2, 5)])
@pytest.mark.parametrize("affinity", [True, False])
def test_synth_renders_one_clip_per_usable_core_with_the_golden_bytes(tmp_path, monkeypatch, jobs, cores, affinity):
    log, render = tmp_path / "renders.log", audio_io._render_clip
    lock, rendering, most = threading.Lock(), [0], [0]

    def spied_render(draw):  # appends to a file, for at --jobs 2 it runs in the workers
        with lock:
            rendering[0] += 1
            most[0] = max(most[0], rendering[0])
        try:
            return render(draw)
        finally:
            with lock:
                rendering[0] -= 1
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()} {threading.get_ident()} {most[0]}\n")

    monkeypatch.setattr(audio_io, "_render_clip", spied_render)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert _run("synth", "--out", tmp_path / "c", "--jobs", jobs, *_GOLDEN_SYNTH) == 0
    assert _synth_digests(tmp_path / "c") == GOLDEN_SYNTH_SHA256
    renders = [line.split() for line in log.read_text().splitlines()]
    assert len(renders) == 6
    if jobs == 1:
        threads = {ident for _, ident, _ in renders}
        most_threads = min(cores, cli._RENDER_THREADS)
        assert len(threads) <= most_threads and max(int(most) for _, _, most in renders) <= most_threads
        assert (threading.get_ident() in map(int, threads)) == (cores == 1)  # in line at one core, else off it
    else:
        assert str(os.getpid()) not in {pid for pid, _, _ in renders}  # in the workers, one clip each
        assert {most for _, _, most in renders} == {"1"}


@pytest.mark.parametrize("jobs", [1, 2])
def test_synth_leaves_no_thread_running(tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)  # 2 threads or 2 processes
    cfg = RunConfig.defaults()
    for item in FAST[1::2]:
        cfg.set(*item.split("="))
    before = threading.active_count()
    cli.cmd_synth(cfg, tmp_path, jobs)
    assert threading.active_count() == before


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1e308"])
@pytest.mark.parametrize("key", ["trim.frame_s", "sampling.crop_s"])
def test_bad_trim_frame_or_crop_is_one_config_error_line_before_the_manifest_is_read(
    pipe, tmp_path, capsys, monkeypatch, key, value
):
    calls = _forbid(monkeypatch, "load_manifest")
    argv = ["--manifest", pipe.corpus / "manifest.csv", "--out", tmp_path / "f", "--set", f"{key}={value}"]
    assert key in _assert_one_error_line(_run("featurize", *argv), capsys, "config")
    assert calls == [] and not list((tmp_path / "f").glob("*"))


def test_negative_pool_pad_is_one_config_error_line_before_training(small_cache, tmp_path, capsys):
    argv = ["--cache", small_cache.good, "--out", tmp_path / "m", *_SMALL_RUN, "--set", "network.pool_pad=-1"]
    code = _run("train", *argv)
    assert "pool_pad" in _assert_one_error_line(code, capsys, "config")
    assert not list((tmp_path / "m").glob("*"))


@pytest.mark.parametrize("key", ["network.pool_pad", "network.hidden", "network.filters"])
def test_config_past_the_model_header_is_one_config_error_line_before_training(small_cache, tmp_path, capsys, key):
    argv = ["--cache", small_cache.good, "--out", tmp_path / "m", *_SMALL_RUN, "--set", f"{key}=4294967296"]
    code = _run("train", *argv)
    assert key.partition(".")[2] in _assert_one_error_line(code, capsys, "config")
    assert not list((tmp_path / "m").glob("*"))


def _forbid(monkeypatch, *names):
    """Replace cli functions with spies; returns the names each call was made to."""
    calls = []
    for name in names:
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    return calls


@pytest.mark.parametrize("machines", [0, -2])
@pytest.mark.parametrize("jobs", [1, 2])
def test_no_machines_is_one_config_error_line_before_the_cache_is_read(
    small_cache, tmp_path, capsys, monkeypatch, jobs, machines
):
    calls = _forbid(monkeypatch, "open_feature_cache")
    argv = ["--set", f"ensemble.machines={machines}", "--set", "train.epochs=1", "--jobs", jobs]
    code = _run("train", "--cache", small_cache.good, "--out", tmp_path / "m", *argv)
    assert "machine" in _assert_one_error_line(code, capsys, "config")
    assert calls == [] and not list((tmp_path / "m").glob("*"))


@pytest.mark.parametrize("setting", ["train.batch_size=0", "network.pool_pad=-1", "train.lr_start=nan"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_bad_train_or_network_value_is_one_config_error_line_before_the_cache_is_read(
    small_cache, tmp_path, capsys, monkeypatch, jobs, setting
):
    calls = _forbid(monkeypatch, "open_feature_cache")
    argv = [*_SMALL_RUN, "--set", setting, "--jobs", jobs]
    code = _run("train", "--cache", small_cache.good, "--out", tmp_path / "m", *argv)
    assert setting.partition("=")[0].partition(".")[2] in _assert_one_error_line(code, capsys, "config")
    assert calls == [] and not list((tmp_path / "m").glob("*"))


@pytest.mark.parametrize(
    "command, setting",
    [
        ("evaluate", "ensemble.method=4"),
        ("evaluate", "ensemble.threshold=1.5"),
        ("curve", "ensemble.threshold=1.5"),
        ("curve", "curve.m_values=2"),  # the pool holds one model
        ("curve", "curve.m_values=1,x"),
        ("curve", "curve.n_combinations=0"),
    ],
)
def test_bad_pool_config_is_one_config_error_line_before_any_model_is_read(
    small_cache, tmp_path, capsys, monkeypatch, command, setting
):
    calls = _forbid(monkeypatch, "load_model", "open_feature_cache")
    argv = ["--models", small_cache.root / "models", "--cache", small_cache.good, "--out", tmp_path / "o"]
    code = _run(command, *argv, "--set", setting)
    assert setting.partition("=")[0].partition(".")[2] in _assert_one_error_line(code, capsys, "config")
    assert calls == [] and not list((tmp_path / "o").glob("*"))


@pytest.mark.parametrize(
    "setting",
    [
        "stft.hop_s=0", "stft.hop_s=inf", "stft.window_s=nan", "stft.window_s=-0.5", "stft.window_s=1e308",
        "stft.n_fft=0", "stft.n_fft=1",
    ],
)
def test_bad_stft_value_is_one_config_error_line_before_any_clip_is_read(pipe, tmp_path, capsys, monkeypatch, setting):
    calls = _forbid(monkeypatch, "load_wav")
    code = _run("featurize", "--manifest", pipe.corpus / "manifest.csv", "--out", tmp_path / "f", "--set", setting)
    assert setting.partition("=")[0].partition(".")[2] in _assert_one_error_line(code, capsys, "config")
    assert calls == [] and not list((tmp_path / "f").glob("*"))


@pytest.mark.parametrize(
    "arg, key",
    [
        ("--set=sampling.eval_cap=0", "eval_cap"),
        ("--set=sampling.eval_cap=-1", "eval_cap"),
        ("--set=seed=-1", "seed"),
        ("--seed=-1", "seed"),
        ("--set=ensemble.tie_seed=-3", "tie_seed"),
        ("--set=trim.floor_db=nan", "floor_db"),
    ],
)
def test_out_of_range_seed_or_cap_is_one_config_error_line_before_any_clip_is_read(
    pipe, tmp_path, capsys, monkeypatch, arg, key
):
    calls = _forbid(monkeypatch, "load_wav")
    code = _run("featurize", "--manifest", pipe.corpus / "manifest.csv", "--out", tmp_path / "f", arg)
    assert key in _assert_one_error_line(code, capsys, "config")
    assert calls == [] and not list((tmp_path / "f").glob("*"))


class _FirstInputRead(Exception):
    """Raised where a command first reads its input: an exception main does not catch."""


def _first_input_read(*args, **kwargs):
    raise _FirstInputRead


def test_every_command_checks_every_key_before_it_reads_its_input(tmp_path, capsys, monkeypatch):
    """Each value of each key ends at the command's first input read or in one config error line and no file;
    every command rejects the same values, bar those that only its input or its memory plan can judge."""
    monkeypatch.setattr(audio_io, "_draw_clip", _first_input_read)
    for name in ("load_manifest", "open_feature_cache", "load_model"):
        monkeypatch.setattr(cli, name, _first_input_read)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # synth renders in line
    (tmp_path / "models").mkdir()
    for name in ("manifest.csv", "cache.lspg", "models/model_000.sdm"):
        (tmp_path / name).touch()
    cache, pool = ["--cache", tmp_path / "cache.lspg"], ["--models", tmp_path / "models"]
    inputs = {
        "synth": [], "featurize": ["--manifest", tmp_path / "manifest.csv"], "train": cache,
        "evaluate": pool + cache, "curve": pool + cache,
    }
    big = str(2**63)
    cases = list(itertools.product(CONFIG_SCHEMA, ["nan", "inf", "-inf", "1e308", "-1", "0", big, ""]))
    rejected = {command: set() for command in inputs}
    for command, argv in inputs.items():
        for n, (key, value) in enumerate(cases):
            out = tmp_path / command / str(n)
            try:
                code = _run(command, *argv, "--out", out, "--jobs", 1, "--set", f"{key}={value}")
            except _FirstInputRead:
                continue
            err = capsys.readouterr().err
            assert code == 2 and re.fullmatch("error:config: .*\n", err), (command, key, value, err)
            assert not list(out.rglob("*")), (command, key, value)
            rejected[command].add((key, value))
    every = set.intersection(*rejected.values())
    assert {command: keys - every for command, keys in rejected.items()} == {
        "synth": {("synth.speakers_per_class", big), ("synth.test_speakers_per_class", big), ("synth.duration_s", big)},
        "featurize": set(), "train": set(), "evaluate": set(), "curve": {("curve.m_values", big)},
    }
    assert ("seed", "0") not in every and ("trim.floor_db", "nan") in every and ("curve.n_combinations", "0") in every


@pytest.mark.parametrize(
    "split, setting",
    [("train", "sampling.crop_s=20"), ("train", "sampling.crop_s=1e298"), ("train", "trim.floor_db=inf"), ("test", "")],
)
def test_split_without_a_whole_crop_is_one_data_error_line_before_the_memory_plan(
    pipe, tmp_path, capsys, monkeypatch, split, setting
):
    """The corpus's clips last 4.5 to 9 s; in the test case its test clips are cut to 1 s, under one 4 s crop."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipe.corpus, corpus)
    if split == "test":
        for wav in (corpus / "wav").glob("test*.wav"):
            write_wav(wav, AudioClip(load_wav(wav).samples[:16000], 16000))
    calls = _forbid(monkeypatch, "_check_fits_memory", "featurize_raw", "write_feature_cache")
    argv = ["--manifest", corpus / "manifest.csv", "--out", tmp_path / "f", *(["--set", setting] if setting else [])]
    line = _assert_one_error_line(_run("featurize", *argv), capsys, "data")
    assert f"the {split} split" in line and "sampling.crop_s=" in line, line
    assert calls == [] and not list((tmp_path / "f").glob("*"))
