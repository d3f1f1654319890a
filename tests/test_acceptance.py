"""Acceptance checklist for the shipped pipeline.

Each test verifies one release criterion and prints a single pass/fail line
(shown live even under pytest's output capture). Criteria 7 and 8 share one
reference-scale training run and dominate the suite's runtime; everything
else finishes in seconds.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from speechdep.audio_io import synth_corpus, trim_silence
from speechdep.cli import main
from speechdep.ensemble import (
    PredictionSet,
    f1_vs_m_experiment,
    fuse_method1,
    fuse_method2,
    fuse_method3,
)
from speechdep.evaluation import (
    ConfusionCounts,
    confusion,
    metrics,
    prediction_set_for,
    speaker_labels,
)
from speechdep.features import StftConfig, featurize_raw, hamming_window, read_feature_cache, stft
from speechdep.network import (
    NetworkConfig,
    NetworkParams,
    backward_batch,
    forward_batch,
    init_params,
    load_model,
)
from speechdep.sampling import crop, plan_balanced
from speechdep.trainer import AdadeltaState, adadelta_step

from feature_sets import feature_set
from gradient_check import numerical_gradient

PARAM_FIELDS = ("w_conv", "b_conv", "w_hidden", "b_hidden", "w_out", "b_out")


def _report(capsys, number, description, ok, detail=""):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" :: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ----------------------------------------------------- 1: feature shape

def test_criterion_01_feature_shape(capsys):
    clips = []
    synth_corpus(1, 12.0, seed=0, on_clip=lambda entry, clip: clips.append(clip))
    clip = trim_silence(clips[0], 0.1, -60.0)[0]
    feat = feature_set([featurize_raw(crop(clip, 4.0)[0], clip.sample_rate)])[0]
    ok = feat.shape == (513, 125)
    _report(capsys, 1, "a 4 s crop at 16 kHz featurizes to 513x125", ok, f"shape={feat.shape}")


# ------------------------------------------------ 2: gradient correctness

def _random_net(seed):
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(
        freq_bins=int(rng.integers(2, 9)),
        time_steps=int(rng.integers(2, 11)),
        filters=int(rng.integers(1, 5)),
        pool_kernel=int(rng.integers(1, 5)),
        pool_stride=int(rng.integers(1, 5)),
        hidden=int(rng.integers(1, 6)),
    )
    params = init_params(cfg, seed=seed)
    params.b_conv += rng.normal(scale=0.2, size=params.b_conv.shape)
    params.b_hidden += rng.normal(scale=0.2, size=params.b_hidden.shape)
    params.b_out = float(rng.normal(scale=0.2))
    x = rng.uniform(0.0, 1.0, size=(cfg.freq_bins, cfg.time_steps))
    return cfg, params, x, int(rng.integers(0, 2))


def _kink_margin(params, x, cfg):
    """Distance of the forward pass from any ReLU kink or pooling argmax flip."""
    conv_pre = params.w_conv @ x + params.b_conv[:, None]
    hidden_pre = forward_batch(params, x[None], cfg).hidden_pre[0]
    margins = [np.min(np.abs(conv_pre)), np.min(np.abs(hidden_pre))]
    act = np.maximum(conv_pre, 0.0)
    for j in range(cfg.pooled_steps):
        lo = j * cfg.pool_stride
        window = np.asarray(list(act[:, lo : lo + cfg.pool_kernel].T))
        if lo + cfg.pool_kernel > cfg.time_steps:  # implicit zero pad competes
            window = np.vstack([window, np.zeros((1, window.shape[1]))])
        if window.shape[0] > 1:
            top2 = np.sort(window, axis=0)[-2:, :]
            margins.append(np.min(top2[1] - top2[0]))
    return min(margins)


def test_criterion_02_gradient_check(capsys):
    h = 1e-5
    instances = []
    seed = 1000
    while len(instances) < 20:
        assert seed < 1400, "could not find enough kink-free instances"
        cfg, params, x, y = _random_net(seed)
        seed += 1
        if _kink_margin(params, x, cfg) > 100 * h:
            instances.append((cfg, params, x, y))
    worst = 0.0
    for cfg, params, x, y in instances:
        analytic = backward_batch(params, forward_batch(params, x[None], cfg), x[None], [y], cfg)
        numeric = numerical_gradient(params, x, y, cfg, h=h)
        for name in PARAM_FIELDS:
            a = np.atleast_1d(np.asarray(getattr(analytic, name), dtype=float))
            n = np.atleast_1d(np.asarray(getattr(numeric, name), dtype=float))
            denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    ok = worst < 1e-4
    _report(
        capsys, 2, "analytic gradients match central differences on 20 random nets",
        ok, f"max relative error {worst:.3g} (< 1e-4)",
    )


# ------------------------------------------------------------ 3: DFT oracle

def test_criterion_03_dft_and_parseval(capsys):
    rng = np.random.default_rng(3)
    samples = rng.uniform(-1.0, 1.0, size=6000)
    cfg = StftConfig()
    win, hop, n = 1024, 512, 1024
    spec = stft(samples, 16000, cfg)

    # framing and transform recomputed from the definitions, no FFT involved
    dft_matrix = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    window = hamming_window(win)
    worst_abs = 0.0
    worst_rel = 0.0
    n_frames = samples.size // hop
    assert spec.shape == (513, n_frames)
    for t in range(n_frames):
        seg = samples[t * hop : t * hop + win]
        frame = np.zeros(n)
        frame[: seg.size] = seg * window[: seg.size]
        naive = dft_matrix @ frame
        worst_abs = max(worst_abs, float(np.max(np.abs(naive[:513] - spec[:, t]))))
        energy_freq = (
            abs(naive[0]) ** 2 + abs(naive[n // 2]) ** 2 + 2.0 * np.sum(np.abs(naive[1 : n // 2]) ** 2)
        )
        energy_time = n * np.sum(frame**2)
        worst_rel = max(worst_rel, abs(energy_freq - energy_time) / energy_time)
    ok = worst_abs < 1e-9 and worst_rel < 1e-6
    _report(
        capsys, 3, "windowed frames match a direct DFT and satisfy Parseval",
        ok, f"max abs diff {worst_abs:.3g} (< 1e-9), max Parseval rel {worst_rel:.3g} (< 1e-6)",
    )


# ------------------------------------------------------- 4: Adadelta oracle

def test_criterion_04_adadelta_first_step(capsys):
    cfg = NetworkConfig(freq_bins=3, time_steps=4, filters=2, hidden=2)
    params = init_params(cfg, seed=0)
    grads = NetworkParams(cfg, np.ones(cfg.n_params))
    new_params = NetworkParams(cfg, params.vector.copy())
    adadelta_step(new_params, grads, AdadeltaState.zeros(params), lr=1.0, rho=0.95, eps=1e-6)
    expected = -math.sqrt(1e-6) / math.sqrt(0.05 + 1e-6)
    worst = 0.0
    for name in PARAM_FIELDS:
        step = np.asarray(getattr(new_params, name)) - np.asarray(getattr(params, name))
        worst = max(worst, float(np.max(np.abs(step - expected))))
    ok = worst < 1e-12
    _report(
        capsys, 4, "first Adadelta step from zero state matches the closed form",
        ok, f"max deviation {worst:.3g} (< 1e-12)",
    )


# -------------------------------------------------- 5: planner optimality

def _topk_total(c0, c1):
    """Oracle: for each subset size take the speakers with the most crops."""
    a = sorted(c0, reverse=True)
    b = sorted(c1, reverse=True)
    return max(2 * k * min(a[k - 1], b[k - 1]) for k in range(1, min(len(a), len(b)) + 1))


def _subset_total(c0, c1):
    """Literal optimum: every equal-size pair of per-class speaker subsets."""
    best = 0
    for k in range(1, min(len(c0), len(c1)) + 1):
        for s0 in itertools.combinations(c0, k):
            for s1 in itertools.combinations(c1, k):
                best = max(best, 2 * k * min(s0 + s1))
    return best


def _canonical_corpora(max_speakers, max_count):
    """All corpora up to speaker renaming: one count multiset per class."""
    for n0 in range(1, max_speakers):
        for n1 in range(1, max_speakers - n0 + 1):
            pool = range(1, max_count + 1)
            for c0 in itertools.combinations_with_replacement(pool, n0):
                for c1 in itertools.combinations_with_replacement(pool, n1):
                    yield c0, c1


def _plan_total(c0, c1):
    counts = {f"a{i}": c for i, c in enumerate(c0)} | {f"b{i}": c for i, c in enumerate(c1)}
    labels = {s: 0 if s[0] == "a" else 1 for s in counts}
    return plan_balanced(counts, labels, seed=0).total_samples


def test_criterion_05_planner_optimality(capsys):
    checked_oracle = 0
    for c0, c1 in _canonical_corpora(5, 4):  # validates the fast oracle itself
        assert _topk_total(c0, c1) == _subset_total(c0, c1), (c0, c1)
        checked_oracle += 1
    checked = 0
    mismatch = None
    for c0, c1 in _canonical_corpora(8, 6):
        if _plan_total(c0, c1) != _topk_total(c0, c1):
            mismatch = (c0, c1)
            break
        checked += 1

    counts = {f"a{i}": 89 + i for i in range(31)} | {f"b{i}": 89 + i for i in range(31)}
    labels = {s: 0 if s[0] == "a" else 1 for s in counts}
    plan = plan_balanced(counts, labels, seed=0)
    geometry_ok = (plan.crops_per_speaker, plan.speakers_per_class, plan.total_samples) == (89, 31, 5518)

    ok = mismatch is None and geometry_ok
    _report(
        capsys, 5, "balanced sampling plan is optimal on every small corpus",
        ok,
        f"{checked} corpora (<= 8 speakers, counts <= 6) vs oracle, oracle itself vs "
        f"subset enumeration on {checked_oracle}; 31+31 speakers at >= 89 crops -> "
        f"{plan.total_samples} samples" + ("" if mismatch is None else f"; first mismatch {mismatch}"),
    )


# ------------------------------------------------------- 6: fusion oracles

class _StubRng:
    def __init__(self, value):
        self.value = value

    def integers(self, lo, hi):
        assert (lo, hi) == (0, 2)
        return self.value


def _single_speaker_pool(prob_rows):
    """One machine per row, every column a crop of speaker "spk"."""
    n = len(prob_rows[0])
    return PredictionSet.from_pool(["spk"] * n, range(n), prob_rows)


def _oracle_method1(prob_rows):
    mean_per_sample = [sum(col) / len(col) for col in zip(*prob_rows)]
    return int(sum(mean_per_sample) / len(mean_per_sample) >= 0.5)


def _oracle_majority(labels, tie_value):
    ones = sum(labels)
    zeros = len(labels) - ones
    return tie_value if ones == zeros else int(ones > zeros)


def test_criterion_06_fusion_oracles(capsys):
    grid = [i / 10 for i in range(11)]
    checked1 = 0
    for n_machines, n_samples in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
        total = n_machines * n_samples
        for flat in itertools.product(grid, repeat=total):
            rows = [list(flat[m * n_samples : (m + 1) * n_samples]) for m in range(n_machines)]
            sets = _single_speaker_pool(rows)
            assert fuse_method1(sets)["spk"] == _oracle_method1(rows), rows
            checked1 += 1
    rng = np.random.default_rng(6)
    for n_machines, n_samples in [(2, 3), (3, 2), (3, 3)]:  # grid too large to exhaust
        for _ in range(400):
            rows = (rng.integers(0, 11, size=(n_machines, n_samples)) / 10).tolist()
            sets = _single_speaker_pool(rows)
            assert fuse_method1(sets)["spk"] == _oracle_method1(rows), rows
            checked1 += 1

    checked23 = 0
    for n_machines in (1, 2, 3):
        for n_samples in (1, 2, 3):
            for flat in itertools.product((0, 1), repeat=n_machines * n_samples):
                rows = [
                    list(flat[m * n_samples : (m + 1) * n_samples]) for m in range(n_machines)
                ]
                sets = _single_speaker_pool([[0.8 if y else 0.2 for y in row] for row in rows])
                for tie_value in (0, 1):
                    pooled = [y for row in rows for y in row]
                    assert fuse_method2(sets, _StubRng(tie_value))["spk"] == _oracle_majority(pooled, tie_value)
                    votes = [_oracle_majority(row, tie_value) for row in rows]
                    assert fuse_method3(sets, _StubRng(tie_value))["spk"] == _oracle_majority(votes, tie_value)
                    checked23 += 2

    identities = 0
    for n_samples in (1, 2, 3):  # single-machine reductions
        for flat in itertools.product((0, 1), repeat=n_samples):
            ps = _single_speaker_pool([[0.8 if y else 0.2 for y in flat]])
            for tie_value in (0, 1):
                m2 = fuse_method2(ps, _StubRng(tie_value))["spk"]
                m3 = fuse_method3(ps, _StubRng(tie_value))["spk"]
                assert m2 == m3 == _oracle_majority(list(flat), tie_value)
                identities += 1

    _report(
        capsys, 6, "fusion methods match brute-force oracles on small instances",
        True,
        f"method 1 on {checked1} probability grids, methods 2/3 on {checked23} "
        f"label patterns, {identities} single-machine identities",
    )


# -------------------------------------- 7 + 8: reference-scale ensemble run

REFERENCE_ARGS = [
    "--set", "synth.speakers_per_class=31",
    "--set", "synth.test_speakers_per_class=10",
    "--set", "synth.duration_s=48",
    "--set", "ensemble.machines=10",
]


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """Full pipeline at reference scale: 31+10 speakers per class, M=10."""
    root = tmp_path_factory.mktemp("reference")
    corpus, feats, models = root / "corpus", root / "feats", root / "models"
    assert main(["synth", "--out", str(corpus), "--seed", "11", *REFERENCE_ARGS]) == 0
    assert main([
        "featurize", "--manifest", str(corpus / "manifest.csv"),
        "--out", str(feats), "--seed", "11", *REFERENCE_ARGS,
    ]) == 0
    assert main([
        "train", "--cache", str(feats / "train.lspg"),
        "--out", str(models), "--seed", "11", *REFERENCE_ARGS,
    ]) == 0
    features = read_feature_cache(feats / "test.lspg")
    loaded = [load_model(models / f"model_{m:03d}.sdm") for m in range(10)]
    preds = prediction_set_for([params for _, params in loaded], loaded[0][0], features)
    return SimpleNamespace(preds=preds, truth=speaker_labels(features))


def test_criterion_07_learnability(capsys, reference_run):
    truth, preds = reference_run.truth, reference_run.preds
    singles = [metrics(confusion(truth, fuse_method1(preds, picks=[m]))) for m in range(preds.machines)]
    ensemble = metrics(confusion(truth, fuse_method1(preds)))
    single = singles[0]
    mean_f1 = {c: float(np.mean([r.per_class[c].f1 for r in singles])) for c in (0, 1)}
    ok = (
        single.per_class[0].f1 >= 0.90
        and single.per_class[1].f1 >= 0.90
        and all(ensemble.per_class[c].f1 >= mean_f1[c] - 0.02 for c in (0, 1))
    )
    _report(
        capsys, 7, "reference-scale ensemble learns the synthetic task",
        ok,
        f"single machine F1 {single.per_class[0].f1:.3f}/{single.per_class[1].f1:.3f} (>= 0.90), "
        f"M=10 ensemble F1 {ensemble.per_class[0].f1:.3f}/{ensemble.per_class[1].f1:.3f} "
        f"vs machine means {mean_f1[0]:.3f}/{mean_f1[1]:.3f} - 0.02",
    )


def test_criterion_08_variance_reduction(capsys, reference_run):
    points = f1_vs_m_experiment(
        reference_run.preds, reference_run.truth, [1, 10], 50, method=1, threshold=0.5, seed=11
    )
    by_m = {pt.m: pt for pt in points}
    ok = all(by_m[10].f1_std[c] <= by_m[1].f1_std[c] for c in (0, 1))
    _report(
        capsys, 8, "ensemble fusion reduces F1 variance across machine subsets",
        ok,
        f"50 combinations: std at M=1 {by_m[1].f1_std[0]:.4f}/{by_m[1].f1_std[1]:.4f}, "
        f"at M=10 {by_m[10].f1_std[0]:.4f}/{by_m[10].f1_std[1]:.4f}",
    )


# --------------------------------------------------------- 9: determinism

def test_criterion_09_pipeline_determinism(capsys, tmp_path):
    small = [
        "--set", "synth.speakers_per_class=3",
        "--set", "synth.test_speakers_per_class=2",
        "--set", "synth.duration_s=9",
        "--set", "ensemble.machines=3",
        "--seed", "21",
    ]
    outputs = []
    for leg in ("a", "b"):
        corpus, feats, models, scores = (tmp_path / leg / part for part in ("c", "f", "m", "e"))
        assert main(["synth", "--out", str(corpus), *small]) == 0
        assert main(["featurize", "--manifest", str(corpus / "manifest.csv"), "--out", str(feats), *small]) == 0
        assert main(["train", "--cache", str(feats / "train.lspg"), "--out", str(models), *small]) == 0
        assert main([
            "evaluate", "--models", str(models), "--cache", str(feats / "test.lspg"),
            "--out", str(scores), *small,
        ]) == 0
        outputs.append(
            [feats / "train.lspg", feats / "test.lspg"]
            + [models / f"model_{m:03d}.sdm" for m in range(3)]
            + [scores / "metrics.csv", scores / "predictions.csv"]
        )
    same = [a.read_bytes() == b.read_bytes() for a, b in zip(*outputs)]
    _report(
        capsys, 9, "featurize -> train -> evaluate reruns are bitwise identical",
        all(same), f"{sum(same)}/{len(same)} artifacts identical (caches, 3 models, metrics, predictions)",
    )


# ------------------------------------------------------ 10: metrics sanity

def test_criterion_10_baseline_f1_arithmetic(capsys):
    report = metrics(ConfusionCounts(tp=2403, fp=6497, tn=50, fn=297))
    cls1 = report.per_class[1]
    expected_f1 = 2 * 0.27 * 0.89 / (0.27 + 0.89)
    ok = (
        abs(cls1.precision - 0.27) < 1e-12
        and abs(cls1.recall - 0.89) < 1e-12
        and abs(cls1.f1 - expected_f1) < 1e-12
        and round(cls1.f1, 2) == 0.41
    )
    _report(
        capsys, 10, "reference confusion row reproduces the published F1",
        ok, f"precision 0.27, recall 0.89 -> F1 {cls1.f1:.4f}, rounds to {round(cls1.f1, 2)}",
    )
