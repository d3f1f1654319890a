"""Log-spectrogram extraction and the on-disk feature cache.

A 4 s crop at 16 kHz with the default configuration (64 ms Hamming window,
32 ms hop, 1024 FFT points) maps to a 513 x 125 matrix: frequency rows are
the non-negative FFT bins, and the frame count is floor(len / hop) with the
tail frames zero-padded to the window length.

The cache file stores pre-normalization log-magnitudes as float32, so the
normalization strategy can change without re-extraction. open_feature_cache
holds only a cache's record headers and reads a record's values when a batch
needs them; read_feature_cache is that set's take of every row, one float32
block. Either set is a FeatureSet, which normalizes a batch at a time, each
record by its own min and max, straight into the network's input buffer.
Layout (little-endian): magic ``LSPG``, version u16, freq_bins u32,
time_steps u32, record count u32, then per record a u16 length-prefixed UTF-8
speaker id, crop_index u32, label u8, and freq_bins * time_steps float32
values in row-major (frequency-major) order.
"""

from __future__ import annotations

import os
import struct
import weakref
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .audio_io import MAX_SECONDS, samples
from .sampling import SampleCrop

CACHE_MAGIC = b"LSPG"
CACHE_VERSION = 1


@dataclass
class StftConfig:
    window_s: float = 0.064
    hop_s: float = 0.032
    n_fft: int = 1024

    def __post_init__(self):
        for name, value in (("window_s", self.window_s), ("hop_s", self.hop_s)):
            if not 0.0 < value <= MAX_SECONDS:  # false for nan too
                raise ValueError(f"{name} must lie in (0, {MAX_SECONDS:.6g}] seconds, got {value}")
        if self.n_fft < 2:  # a Hamming window of at least 2 samples must fit in it
            raise ValueError(f"n_fft must be >= 2, got {self.n_fft}")

    def window_samples(self, sample_rate: int) -> int:
        return samples(self.window_s, sample_rate)

    def hop_samples(self, sample_rate: int) -> int:
        return samples(self.hop_s, sample_rate)

    @property
    def freq_bins(self) -> int:
        return self.n_fft // 2 + 1


@dataclass
class LogSpectrogram:
    """Frequency x time matrix of log-magnitudes; normalized marks a record indexed out of a normalized FeatureSet."""

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
    if win < 1 or hop < 1:
        raise ValueError(
            f"at {sample_rate} Hz the STFT window is {win} samples and the hop {hop}; both must be at least 1"
        )
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
    return LogSpectrogram(values, crop.speaker_id, crop.crop_index, crop.label)


def write_feature_cache(path, features: Sequence[LogSpectrogram]) -> None:
    """Write pre-normalization float32 features of one shape; every record is checked before the file is made."""
    if not features:
        raise ValueError("refusing to write an empty feature cache")
    freq_bins, time_steps = features[0].values.shape
    sids = [f.speaker_id.encode("utf-8") for f in features]
    for index, (f, sid) in enumerate(zip(features, sids)):
        if f.normalized:
            raise ValueError("cache stores pre-normalization features only")
        if f.values.shape != (freq_bins, time_steps):
            raise ValueError(f"inconsistent feature shape {f.values.shape} vs ({freq_bins}, {time_steps})")
        if len(sid) > 0xFFFF:
            raise ValueError(f"record {index}: speaker id of {len(sid)} UTF-8 bytes exceeds the cache's 65535")
        if f.label not in (0, 1, None):
            raise ValueError(f"record {index}: label must be 0, 1 or None, got {f.label!r}")
        if not 0 <= f.crop_index <= 0xFFFFFFFF:
            raise ValueError(f"record {index}: crop index {f.crop_index} does not fit the cache's 32 bits")
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<HIII", CACHE_VERSION, freq_bins, time_steps, len(features)))
        for f, sid in zip(features, sids):
            fh.write(struct.pack("<H", len(sid)))
            fh.write(sid)
            fh.write(struct.pack("<IB", f.crop_index, 0 if f.label is None else int(f.label)))
            fh.write(np.ascontiguousarray(f.values, dtype="<f4").tobytes())


@dataclass(eq=False)
class FeatureSet(Sequence):
    """Records of one shape, held by a block: a (N, freq_bins, time_steps) array or a cache file's _CacheRecords.

    The set reads record i only as block[i], so it acts alike on either. Its network input is
    (float64(block[i]) - lo) / (hi - lo), minmax_normalize's arithmetic, with lo and hi the record's own min
    and max, taken as it is batched (min and max are exact in float32); a constant record maps to zeros.
    Indexing yields LogSpectrogram records: float64 normalized copies, or block[i] when normalized is False.
    A slice yields take() of its rows.
    """

    block: np.ndarray | _CacheRecords
    speaker_ids: list[str]
    crop_indices: list[int]
    labels: list[int]
    normalized: bool = True

    def __len__(self) -> int:
        return self.block.shape[0]

    def __getitem__(self, index) -> "LogSpectrogram | FeatureSet":
        if isinstance(index, slice):
            return self.take(range(len(self))[index])
        index = range(len(self))[index]
        values = self.batch([index])[0] if self.normalized else self.block[index]
        return LogSpectrogram(
            values, self.speaker_ids[index], self.crop_indices[index], self.labels[index], self.normalized
        )

    @property
    def record_shape(self) -> tuple[int, int]:
        return self.block.shape[1:]

    def take(self, rows) -> "FeatureSet":
        """The given records as a new set with its own in-memory block, filled a row at a time."""
        rows = np.asarray(rows, dtype=np.intp)
        block = np.empty((len(rows), *self.record_shape), dtype=self.block.dtype)
        for out, i in zip(block, rows):
            out[...] = self.block[i]
        return FeatureSet(
            block,
            [self.speaker_ids[i] for i in rows],
            [self.crop_indices[i] for i in rows],
            [self.labels[i] for i in rows],
            self.normalized,
        )

    def batch(self, rows, out: np.ndarray | None = None) -> np.ndarray:
        """Network input of the given records, a (len(rows), freq_bins, time_steps) float64 view.

        The records are normalized into the (freq_bins, len(rows)*time_steps)
        conv operand at the start of `out` (a flat float64 buffer, reused
        across calls) or of a new buffer, so forward_batch's transpose-reshape
        of the view is that operand itself, not a copy.
        """
        freq_bins, time_steps = self.record_shape
        size = freq_bins * len(rows) * time_steps
        buffer = np.empty(size) if out is None else out[:size]
        xs = buffer.reshape(freq_bins, len(rows), time_steps).transpose(1, 0, 2)
        for x, i in zip(xs, rows):
            values = self.block[i]
            lo, hi = float(values.min()), float(values.max())
            if hi == lo:  # also an all-inf record, whose hi - lo would be NaN
                x.fill(0.0)
            else:
                np.subtract(values, lo, out=x, dtype=np.float64)
                np.divide(x, hi - lo, out=x)
        return xs


class _CacheRecords:
    """A cache file's records, checked by one walk that skips every value; indexing reads a record's float32 values.

    The walk keeps each record's speaker id, crop index, label and values offset, and the one read-only
    descriptor it walked with, closed once the records are dropped. Every read is a pread at a record's
    offset, so the descriptor has no file position to share and forked workers read through it alike.
    """

    dtype = np.dtype("<f4")

    def __init__(self, path):
        self.path, self.speaker_ids, self.crop_indices, self.labels, self.offsets = path, [], [], [], []
        self.fd = fd = os.open(path, os.O_RDONLY)
        weakref.finalize(self, os.close, fd)
        size = os.fstat(fd).st_size
        head = os.pread(fd, 18, 0)
        if head[:4] != CACHE_MAGIC:
            raise ValueError(f"{path}: not a feature cache file")
        if len(head) < 18:
            raise ValueError(f"{path}: cut off inside the file header")
        version, freq_bins, time_steps, count = struct.unpack_from("<HIII", head, 4)
        if version != CACHE_VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        self.shape = (count, freq_bins, time_steps)
        n_bytes = 4 * freq_bins * time_steps
        pos = 18
        for index in range(count):
            if size < pos + 2:
                raise self._cut_off(index)
            (sid_len,) = struct.unpack("<H", os.pread(fd, 2, pos))
            if size < pos + 2 + sid_len + 5 + n_bytes:  # id, crop index, label, values
                raise self._cut_off(index)
            meta = os.pread(fd, sid_len + 5, pos + 2)
            pos += 2 + sid_len + 5 + n_bytes
            self.speaker_ids.append(meta[:sid_len].decode("utf-8"))
            crop_index, label = struct.unpack_from("<IB", meta, sid_len)
            if label not in (0, 1):
                raise ValueError(f"{path}: record {index} of {count}: label must be 0 or 1, got {label}")
            self.crop_indices.append(crop_index)
            self.labels.append(label)
            self.offsets.append(pos - n_bytes)
        if pos != size:
            raise ValueError(f"{path}: {size - pos} trailing bytes")
        if not count:
            raise ValueError(f"{path}: the feature cache holds no records")

    def _cut_off(self, index) -> ValueError:
        return ValueError(f"{self.path}: cut off inside record {index} of {self.shape[0]}")

    def __getitem__(self, index: int) -> np.ndarray:
        """Record index's values; a short read (the file shrank after the walk) raises."""
        values = np.empty(self.shape[1:], dtype=self.dtype)
        if os.preadv(self.fd, [values], self.offsets[index]) != values.nbytes:
            raise self._cut_off(index)
        return values


def open_feature_cache(path, normalize: bool = True) -> FeatureSet:
    """A cache's records, normalized unless normalize=False; a record's values are read when indexed or batched."""
    records = _CacheRecords(path)
    return FeatureSet(records, records.speaker_ids, records.crop_indices, records.labels, normalize)


def read_feature_cache(path, normalize: bool = True) -> FeatureSet:
    """A cache loaded into one float32 block; records read normalized unless normalize=False.

    The block is the opened cache's take of every row, so its row count is the one the header walk has
    checked against the file size.
    """
    opened = open_feature_cache(path, normalize)
    return opened.take(range(len(opened)))
