"""Log-spectrogram extraction and the on-disk feature cache.

A 4 s crop at 16 kHz with the default configuration (64 ms Hamming window,
32 ms hop, 1024 FFT points) maps to a 513 x 125 matrix: frequency rows are
the non-negative FFT bins, and the frame count is floor(len / hop) with the
tail frames zero-padded to the window length.

The cache file stores pre-normalization log-magnitudes as float32 and
normalization is applied on load, so the normalization strategy can change
without re-extraction. Layout (little-endian): magic ``LSPG``, version u16,
freq_bins u32, time_steps u32, record count u32, then per record a u16
length-prefixed UTF-8 speaker id, crop_index u32, label u8, and
freq_bins * time_steps float32 values in row-major (frequency-major) order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .sampling import SampleCrop

CACHE_MAGIC = b"LSPG"
CACHE_VERSION = 1


@dataclass
class StftConfig:
    window_s: float = 0.064
    hop_s: float = 0.032
    n_fft: int = 1024
    window_kind: str = "hamming"

    def __post_init__(self):
        if self.hop_s <= 0:
            raise ValueError(f"hop_s must be positive, got {self.hop_s}")
        if self.window_kind != "hamming":
            raise ValueError(f"unsupported window kind {self.window_kind!r}")

    def window_samples(self, sample_rate: int) -> int:
        return int(round(self.window_s * sample_rate))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.hop_s * sample_rate))

    @property
    def freq_bins(self) -> int:
        return self.n_fft // 2 + 1


@dataclass
class LogSpectrogram:
    """Frequency x time matrix of (optionally normalized) log-magnitudes."""

    values: np.ndarray
    speaker_id: str
    crop_index: int
    label: int | None = None
    normalized: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def hamming_window(n: int) -> np.ndarray:
    """w[i] = 0.54 - 0.46*cos(2*pi*i/(n-1)) for i in [0, n-1]."""
    if n < 2:
        raise ValueError(f"window length must be >= 2, got {n}")
    i = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * i / (n - 1))


def stft(samples: np.ndarray, sample_rate: int, cfg: StftConfig | None = None) -> np.ndarray:
    """Complex spectrogram of shape (n_fft/2 + 1, floor(len/hop)).

    Frame t covers samples [t*hop, t*hop + win); frames running past the end
    of the signal are zero-padded to the window length. Each frame is Hamming
    windowed, zero-padded to n_fft, and transformed; non-negative frequency
    rows are kept.
    """
    cfg = cfg or StftConfig()
    samples = np.asarray(samples, dtype=np.float64)
    win = cfg.window_samples(sample_rate)
    hop = cfg.hop_samples(sample_rate)
    if win > cfg.n_fft:
        raise ValueError(f"window of {win} samples exceeds n_fft={cfg.n_fft}")
    if samples.size < hop:
        raise ValueError(f"signal of {samples.size} samples is shorter than one hop ({hop})")
    if samples.size < win:
        raise ValueError(f"signal of {samples.size} samples is shorter than the window ({win})")

    n_frames = samples.size // hop
    total = (n_frames - 1) * hop + win
    padded = np.zeros(total)
    take = min(samples.size, total)  # hop > win leaves inter-frame gaps unread
    padded[:take] = samples[:take]
    frames = np.lib.stride_tricks.sliding_window_view(padded, win)[::hop]
    spectrum = np.fft.rfft(frames * hamming_window(win), n=cfg.n_fft, axis=1)
    return spectrum.T


def log_magnitude(spectrum: np.ndarray, epsilon: float = 1e-10) -> np.ndarray:
    """Elementwise ln(|z| + epsilon)."""
    return np.log(np.abs(spectrum) + epsilon)


def minmax_normalize(m: np.ndarray) -> np.ndarray:
    """Affine map of the whole matrix onto [0, 1]; a constant matrix maps to zeros."""
    m = np.asarray(m, dtype=np.float64)
    lo, hi = m.min(), m.max()
    if hi == lo:
        return np.zeros_like(m)
    return (m - lo) / (hi - lo)


def featurize_raw(crop: SampleCrop, sample_rate: int, cfg: StftConfig | None = None) -> LogSpectrogram:
    """Pre-normalization log-spectrogram in float32, as stored by the cache."""
    cfg = cfg or StftConfig()
    values = log_magnitude(stft(crop.samples, sample_rate, cfg)).astype(np.float32)
    return LogSpectrogram(values, crop.speaker_id, crop.crop_index, crop.label, normalized=False)


def normalize_feature(feature: LogSpectrogram) -> LogSpectrogram:
    if feature.normalized:
        return feature
    return LogSpectrogram(
        minmax_normalize(feature.values),
        feature.speaker_id,
        feature.crop_index,
        feature.label,
        normalized=True,
    )


def featurize(crop: SampleCrop, sample_rate: int, cfg: StftConfig | None = None) -> LogSpectrogram:
    """Normalized log-spectrogram of a crop (the network input)."""
    return normalize_feature(featurize_raw(crop, sample_rate, cfg))


def write_feature_cache(path, features: Sequence[LogSpectrogram]) -> None:
    """Write pre-normalization float32 features; all matrices must share one shape."""
    if not features:
        raise ValueError("refusing to write an empty feature cache")
    if any(f.normalized for f in features):
        raise ValueError("cache stores pre-normalization features only")
    freq_bins, time_steps = features[0].values.shape
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<HIII", CACHE_VERSION, freq_bins, time_steps, len(features)))
        for f in features:
            if f.values.shape != (freq_bins, time_steps):
                raise ValueError(
                    f"inconsistent feature shape {f.values.shape} vs ({freq_bins}, {time_steps})"
                )
            sid = f.speaker_id.encode("utf-8")
            fh.write(struct.pack("<H", len(sid)))
            fh.write(sid)
            fh.write(struct.pack("<IB", f.crop_index, 0 if f.label is None else int(f.label)))
            fh.write(np.ascontiguousarray(f.values, dtype="<f4").tobytes())


def read_feature_cache(path, normalize: bool = True) -> list[LogSpectrogram]:
    """Load a cache file; features are min-max normalized unless normalize=False."""
    raw = Path(path).read_bytes()
    if raw[:4] != CACHE_MAGIC:
        raise ValueError(f"{path}: not a feature cache file")
    pos = 4 + 14
    if len(raw) < pos:
        raise ValueError(f"{path}: cut off inside the file header")
    version, freq_bins, time_steps, count = struct.unpack_from("<HIII", raw, 4)
    if version != CACHE_VERSION:
        raise ValueError(f"{path}: unsupported cache version {version}")
    n_values = freq_bins * time_steps
    out = []
    for index in range(count):
        cut_off = ValueError(f"{path}: cut off inside record {index} of {count}")
        if len(raw) < pos + 2:
            raise cut_off
        (sid_len,) = struct.unpack_from("<H", raw, pos)
        pos += 2
        if len(raw) < pos + sid_len + 5 + 4 * n_values:  # id, crop index, label, values
            raise cut_off
        speaker_id = raw[pos : pos + sid_len].decode("utf-8")
        pos += sid_len
        crop_index, label = struct.unpack_from("<IB", raw, pos)
        if label not in (0, 1):
            raise ValueError(f"{path}: record {index} of {count}: label must be 0 or 1, got {label}")
        pos += 5
        values = np.frombuffer(raw, dtype="<f4", count=n_values, offset=pos).reshape(
            freq_bins, time_steps
        )
        pos += 4 * n_values
        feature = LogSpectrogram(values, speaker_id, crop_index, int(label), normalized=False)
        out.append(normalize_feature(feature) if normalize else feature)
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes")
    return out
