"""Paper-shape memory checks, deselected by default; run them with `pytest -m paper_scale`.

Each writes its inputs under pytest's temporary directory and runs one CLI stage on
them in a child process: `evaluate` on a 447 MB test cache and 236 MB of models, and
`train` on a 1.4 GB training cache, for about half a minute each.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from speechdep.features import LogSpectrogram, write_feature_cache
from speechdep.network import NetworkConfig, init_params, save_model

SRC = Path(__file__).resolve().parents[1] / "src"


def _peak_mb(*argv) -> float:
    """ru_maxrss of one CLI call in a child process, which must exit 0; its forked workers are in it too."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    child = subprocess.Popen([sys.executable, "-m", "speechdep.cli", *map(str, argv)], env=env)
    _, status, usage = os.wait4(child.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    # the child starts as a copy of this process, so its ru_maxrss is never below this process's RSS at the fork
    return usage.ru_maxrss / 1024


@pytest.mark.paper_scale
def test_paper_shape_evaluate_peaks_under_300_mb(tmp_path):
    """50 reference models over 1,744 test crops of 20 speakers, 513x125 each, tiled from 16 distinct records."""
    rng = np.random.default_rng(0)
    tiles = [rng.normal(-8.0, 2.0, size=(513, 125)).astype(np.float32) for _ in range(16)]
    records = [LogSpectrogram(tiles[i % 16], f"spk{i % 20:02d}", i // 20, i % 20 % 2) for i in range(1744)]
    write_feature_cache(tmp_path / "test.lspg", records)
    net = NetworkConfig(freq_bins=513, time_steps=125)
    (tmp_path / "models").mkdir()
    for m in range(50):
        save_model(tmp_path / "models" / f"model_{m:03d}.sdm", net, init_params(net, m))
    argv = ["evaluate", "--models", tmp_path / "models", "--cache", tmp_path / "test.lspg", "--out", tmp_path / "e"]
    peak_mb = _peak_mb(*argv)
    assert peak_mb < 300, peak_mb


@pytest.mark.paper_scale
def test_paper_scale_train_peaks_far_below_the_block(tmp_path):
    """1 epoch of 2 machines at --jobs 2 over 5,518 training crops, 513x125 each, tiled from 16 distinct records.

    Read into one float32 block, the cache alone would be 1.35 GiB; streamed, a step holds one batch of it.
    """
    rng = np.random.default_rng(1)
    tiles = [rng.normal(-8.0, 2.0, size=(513, 125)).astype(np.float32) for _ in range(16)]
    records = [LogSpectrogram(tiles[i % 16], f"spk{i % 62:02d}", i // 62, i % 62 % 2) for i in range(5518)]
    write_feature_cache(tmp_path / "train.lspg", records)
    argv = ["train", "--cache", tmp_path / "train.lspg", "--out", tmp_path / "m", "--jobs", 2]
    peak_mb = _peak_mb(*argv, "--set", "train.epochs=1", "--set", "ensemble.machines=2")
    assert peak_mb < 400, peak_mb
    assert len(list((tmp_path / "m").glob("model_*.sdm"))) == 2
