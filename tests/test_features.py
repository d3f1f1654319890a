import math
import tracemalloc

import numpy as np
import pytest

from speechdep.audio_io import AudioClip
from speechdep.features import (
    LogSpectrogram,
    StftConfig,
    featurize_raw,
    hamming_window,
    log_magnitude,
    minmax_normalize,
    read_feature_cache,
    stft,
    write_feature_cache,
)
from speechdep.network import NetworkConfig
from speechdep.sampling import SampleCrop, crop
from speechdep.trainer import TrainConfig, train

from feature_sets import BACKINGS, cached_set, feature_set


def _naive_dft_frame(frame, n_fft, n_bins):
    """O(n^2) windowed DFT of one frame, written from the definition."""
    windowed = np.zeros(n_fft)
    w = hamming_window(frame.size)
    windowed[: frame.size] = frame * w
    out = np.zeros(n_bins, dtype=complex)
    for k in range(n_bins):
        acc = 0.0 + 0.0j
        for i in range(n_fft):
            acc += windowed[i] * np.exp(-2j * math.pi * k * i / n_fft)
        out[k] = acc
    return out


def test_hamming_window_closed_form():
    n = 9
    w = hamming_window(n)
    assert w[0] == pytest.approx(0.08)
    assert w[-1] == pytest.approx(0.08)
    assert w[(n - 1) // 2] == pytest.approx(1.0)
    np.testing.assert_allclose(w, w[::-1], atol=1e-15)
    direct = [0.54 - 0.46 * math.cos(2 * math.pi * i / (n - 1)) for i in range(n)]
    np.testing.assert_allclose(w, direct, atol=1e-15)
    with pytest.raises(ValueError):
        hamming_window(1)


def test_stft_matches_naive_dft():
    rng = np.random.default_rng(0)
    cfg = StftConfig(window_s=0.008, hop_s=0.004, n_fft=128)  # win 64, hop 32 at 8 kHz
    rate = 8000
    samples = rng.normal(size=5 * 32 + 7)  # ragged tail exercises zero padding
    spec = stft(samples, rate, cfg)
    win, hop = cfg.geometry(rate)
    n_frames = samples.size // hop
    assert spec.shape == (cfg.n_fft // 2 + 1, n_frames)
    padded = np.zeros((n_frames - 1) * hop + win)
    padded[: samples.size] = samples
    for t in range(n_frames):
        frame = padded[t * hop : t * hop + win]
        expected = _naive_dft_frame(frame, cfg.n_fft, cfg.n_fft // 2 + 1)
        np.testing.assert_allclose(spec[:, t], expected, atol=1e-9)


def test_stft_single_frame_parseval():
    rng = np.random.default_rng(1)
    cfg = StftConfig(window_s=0.016, hop_s=0.016, n_fft=256)
    rate = 16000
    samples = rng.normal(size=256)
    spec = stft(samples, rate, cfg)[:, 0]
    windowed = samples * hamming_window(256)
    # fold the rfft half-spectrum back to the full-spectrum energy
    energy = abs(spec[0]) ** 2 + abs(spec[-1]) ** 2 + 2 * np.sum(np.abs(spec[1:-1]) ** 2)
    time_energy = 256 * np.sum(windowed**2)
    assert energy == pytest.approx(time_energy, rel=1e-6)


def test_stft_default_shape_for_4s_16khz():
    samples = np.random.default_rng(2).normal(size=4 * 16000)
    spec = stft(samples, 16000)
    assert spec.shape == (513, 125)


def test_stft_bin_center_sinusoid_peaks_at_its_row():
    cfg = StftConfig()
    rate = 16000
    k = 100
    freq = k * rate / cfg.n_fft  # exactly bin-centered
    t = np.arange(2 * rate) / rate
    spec = np.abs(stft(np.sin(2 * np.pi * freq * t), rate, cfg))
    win, hop = cfg.geometry(rate)
    full_frames = (2 * rate - win) // hop + 1
    for col in range(full_frames):
        assert int(np.argmax(spec[:, col])) == k


def test_stft_input_validation():
    with pytest.raises(ValueError):
        stft(np.zeros(100), 16000)  # shorter than one hop
    with pytest.raises(ValueError):
        stft(np.zeros((4, 4)), 16000)
    bad = StftConfig(window_s=0.1, hop_s=0.05, n_fft=1024)  # window 1600 > n_fft
    with pytest.raises(ValueError):
        stft(np.zeros(16000), 16000, bad)
    with pytest.raises(ValueError, match="at 8 Hz .* hop 0"):  # 0.032 s rounds to 0 samples
        stft(np.zeros(100), 8)


def test_log_magnitude_known_values():
    spec = np.array([[3 + 4j, 0.0]])
    out = log_magnitude(spec)
    assert out[0, 0] == pytest.approx(math.log(5 + 1e-10))
    assert out[0, 1] == pytest.approx(math.log(1e-10))


def test_minmax_normalize_range_and_constant():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 7))
    z = minmax_normalize(m)
    assert z.min() == 0.0 and z.max() == 1.0
    flat = minmax_normalize(np.full((3, 3), 2.5))
    np.testing.assert_array_equal(flat, np.zeros((3, 3)))


def test_normalization_happens_per_spectrogram():
    rng = np.random.default_rng(4)
    clip = AudioClip(rng.uniform(-0.8, 0.8, 8 * 16000), 16000, "s", 0)
    feats = list(feature_set([featurize_raw(c, clip.sample_rate) for c in crop(clip, 4.0)]))
    for f in feats:
        assert f.normalized
        assert f.values.min() == 0.0 and f.values.max() == 1.0
    raws = [featurize_raw(c, clip.sample_rate) for c in crop(clip, 4.0)]
    for f, r in zip(feats, raws):
        np.testing.assert_array_equal(f.values, minmax_normalize(r.values))


def test_feature_cache_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    clip = AudioClip(rng.uniform(-0.8, 0.8, 12 * 16000), 16000, "spk7", 1)
    crops = crop(clip, 4.0)
    raw = [featurize_raw(c, clip.sample_rate) for c in crops]
    path = tmp_path / "f.lspg"
    write_feature_cache(path, raw)

    reloaded_raw = read_feature_cache(path, normalize=False)
    for a, b in zip(raw, reloaded_raw):
        np.testing.assert_array_equal(a.values, b.values)
        assert (a.speaker_id, a.crop_index, a.label) == (b.speaker_id, b.crop_index, b.label)

    reloaded = read_feature_cache(path)
    for a, b in zip(feature_set([featurize_raw(c, clip.sample_rate) for c in crops]), reloaded):
        np.testing.assert_array_equal(a.values, b.values)
        assert b.normalized


def test_feature_cache_rejects_bad_inputs(tmp_path):
    path = tmp_path / "f.lspg"
    with pytest.raises(ValueError, match="empty"):
        write_feature_cache(path, [])
    assert not path.exists()
    good = LogSpectrogram(np.zeros((4, 4), dtype=np.float32), "s", 0, 0)
    normalized = feature_set([good])[0]
    other = LogSpectrogram(np.zeros((4, 5), dtype=np.float32), "s", 1, 0)
    long_id = LogSpectrogram(good.values, "\u00e9" * 32768, 2, 0)  # 65,536 UTF-8 bytes, one over the u16 prefix
    for records, message in (
        ([normalized], "pre-normalization"),
        ([good, normalized], "pre-normalization"),
        ([good, other], "shape"),
        ([good, long_id], "record 1: speaker id of 65536 UTF-8 bytes exceeds the cache's 65535"),
        ([good, LogSpectrogram(good.values, "s", 1, 2)], "record 1: label must be 0 or 1, got 2"),
        ([good, LogSpectrogram(good.values, "s", 1, None)], "record 1: label must be 0 or 1, got None"),
        ([good, LogSpectrogram(good.values, "s", 2**32, 0)], "record 1: crop index 4294967296 does not fit"),
        ([LogSpectrogram(good.values, "s", -1, 0)], "record 0: crop index -1 does not fit"),
    ):
        with pytest.raises(ValueError, match=message):
            write_feature_cache(path, records)
        assert not path.exists()  # every record is checked before the file is made
    write_feature_cache(path, [LogSpectrogram(good.values, "\u00e9" * 32767 + "s", 0, 0)])  # 65,535 bytes fit
    assert len(read_feature_cache(path)[0].speaker_id) == 32768
    write_feature_cache(path, [LogSpectrogram(good.values, "s", 2**32 - 1, 0)])  # the largest index fits
    assert read_feature_cache(path)[0].crop_index == 2**32 - 1


def test_feature_cache_rejects_corruption(tmp_path):
    path = tmp_path / "f.lspg"
    write_feature_cache(path, [LogSpectrogram(np.zeros((4, 4), dtype=np.float32), "s", 0, 0)])
    blob = bytearray(path.read_bytes())
    (tmp_path / "magic.lspg").write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(ValueError, match="not a feature cache"):
        read_feature_cache(tmp_path / "magic.lspg")
    (tmp_path / "trail.lspg").write_bytes(bytes(blob) + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        read_feature_cache(tmp_path / "trail.lspg")


def _odd_records():
    """Raw float32 records that stress minmax_normalize's arithmetic."""
    rng = np.random.default_rng(8)
    f32 = np.finfo(np.float32)
    records = [
        np.full((3, 5), 2.5),  # constant: maps to zeros
        np.full((3, 5), -7.25),
        rng.normal(-40.0, 15.0, size=(3, 5)),  # all negative
        rng.normal(size=(3, 5)) * 1e-3 - 1.0,
        np.array([[f32.max, -f32.max, 0.0, 1.0, -1.0]] * 3),  # hi - lo overflows float32, not float64
        np.array([[f32.tiny, -f32.tiny, f32.smallest_subnormal, 0.0, f32.eps]] * 3),
        np.array([[f32.max] * 5] * 3),
        np.full((3, 5), np.inf),  # constant even though inf - inf is NaN
    ]
    return [r.astype(np.float32) for r in records]


@BACKINGS
def test_batch_normalization_is_bitwise_minmax_normalize(tmp_path, reader):
    records = _odd_records()
    cached = cached_set([LogSpectrogram(r, "s", i, i % 2) for i, r in enumerate(records)], tmp_path, reader)
    expected = np.stack([minmax_normalize(r) for r in records])
    assert not expected[0].any()
    stacked = feature_set([LogSpectrogram(r, "s", 0, 0) for r in records])
    for features in (cached, stacked):
        assert np.array_equal(features.batch(range(len(records))), expected)
        rows = [4, 0, 2]
        buffer = np.full(3 * 15 * 2, np.nan)  # room for 2 records more than needed
        xs = features.batch(rows, buffer)
        assert np.array_equal(xs, expected[rows]) and np.shares_memory(xs, buffer)
        # the (freq, batch*time) operand forward_batch derives is the buffer's prefix itself
        operand = xs.transpose(1, 0, 2).reshape(3, len(rows) * 5)
        assert np.shares_memory(operand, buffer[: operand.size])
        assert np.isnan(buffer[operand.size :]).all()
        for f, want in zip(features, expected):
            assert f.normalized and np.array_equal(f.values, want)


@BACKINGS
def test_feature_set_keeps_the_record_contract(tmp_path, reader):
    path = tmp_path / "f.lspg"
    values = np.arange(12, dtype=np.float32).reshape(3, 4)
    raw = [LogSpectrogram(values * k, f"spk{k}", 10 + k, k % 2) for k in (1, 2, 3)]
    write_feature_cache(path, raw)
    for normalize in (True, False):
        features = reader(path, normalize=normalize)
        assert len(features) == 3 and features.record_shape == (3, 4)
        keys = [(f.speaker_id, f.crop_index, f.label) for f in features]
        assert keys == [("spk1", 11, 1), ("spk2", 12, 0), ("spk3", 13, 1)]
        last = features[-1]
        assert last.shape == (3, 4) and last.normalized == normalize
        want = minmax_normalize(raw[2].values) if normalize else raw[2].values
        assert last.values.dtype == want.dtype and np.array_equal(last.values, want)
        with pytest.raises(IndexError):
            features[3]
    subset = reader(path).take([2, 0])
    assert subset.speaker_ids == ["spk3", "spk1"]
    assert np.array_equal(subset[1].values, minmax_normalize(raw[0].values))
    net = NetworkConfig(freq_bins=4, time_steps=3, filters=1, pool_kernel=1, pool_stride=1, hidden=1)
    with pytest.raises(ValueError, match=r"feature shape \(3, 4\) does not fit model \(4, 3\)"):
        train(subset, net, TrainConfig(epochs=1))


@BACKINGS
@pytest.mark.parametrize("normalize", [True, False])
def test_feature_set_slice_is_take_of_its_rows(tmp_path, normalize, reader):
    path = tmp_path / "f.lspg"
    rng = np.random.default_rng(4)
    raw = [LogSpectrogram(rng.normal(size=(3, 4)).astype(np.float32), f"s{i}", i, i % 2) for i in range(6)]
    write_feature_cache(path, raw)
    features = reader(path, normalize=normalize)
    sliced, taken = features[1:4], features.take(range(1, 4))
    assert len(sliced) == 3 and sliced.normalized == normalize
    for got, want in zip(sliced, taken, strict=True):
        assert (got.speaker_id, got.crop_index, got.label, got.normalized) == (
            want.speaker_id, want.crop_index, want.label, want.normalized
        )
        assert got.values.dtype == want.values.dtype and np.array_equal(got.values, want.values)
    assert [f.crop_index for f in features[::-2]] == [5, 3, 1]
    assert len(features[4:1]) == 0


@pytest.mark.parametrize("normalize", [False, True])
def test_cache_read_allocates_about_one_float32_copy(tmp_path, normalize):
    path = tmp_path / "big.lspg"
    rng = np.random.default_rng(10)
    n, shape = 120, (32, 64)
    write_feature_cache(
        path, [LogSpectrogram(rng.normal(size=shape).astype(np.float32), f"s{i}", i, i % 2) for i in range(n)]
    )
    tracemalloc.start()
    try:
        features = read_feature_cache(path, normalize=normalize)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_values = n * shape[0] * shape[1]
    assert len(features) == n
    assert 4.0 <= peak / n_values < 4.5, peak / n_values


@pytest.mark.parametrize("field", ["window_s", "hop_s"])
def test_stft_config_rejects_seconds_past_max_seconds(field):
    with pytest.raises(ValueError, match=field):
        StftConfig(**{field: 1e308})


def test_stft_config_derived_sizes():
    cfg = StftConfig()
    assert cfg.geometry(16000) == (1024, 512)
    assert cfg.freq_bins == 513
