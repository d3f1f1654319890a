"""Waveform I/O, silence trimming and the synthetic labeled corpus.

Real audio enters through 16-bit PCM RIFF/WAVE files only. The synthetic
corpus generator stands in for restricted clinical data: it encodes class
identity in the fundamental-frequency band and the amplitude-modulation rate,
which keeps the two classes cleanly separable in the spectral domain.
"""

from __future__ import annotations

import csv
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

PCM_FULL_SCALE = 32768

# class 1 (depressed stand-in): low fundamental, slow modulation;
# class 0: higher fundamental, faster modulation.
_FUNDAMENTAL_HZ = {1: (80.0, 120.0), 0: (180.0, 260.0)}
_MOD_RATE_HZ = {1: (0.5, 1.5), 0: (4.0, 8.0)}
_NOISE_DB = -30.0
_N_HARMONICS = 6
_RENDER_BLOCK = 1 << 14  # samples per block of _render_clip's sample-wise formulas

# The longest span samples() takes: times any rate a WAV header holds (under 2**32 Hz) it stays finite.
MAX_SECONDS = sys.float_info.max / 2**32
MAX_SAMPLE_RATE = 0xFFFFFFFF // 2  # write_wav's highest: a 16-bit mono header's byte rate, 2 * rate, is 32 bits


class WavError(ValueError):
    """Base class for WAV decoding failures."""


class MalformedHeaderError(WavError):
    """File is not a well-formed RIFF/WAVE container."""


class UnsupportedEncodingError(WavError):
    """File is valid RIFF/WAVE but not 16-bit mono/stereo PCM."""


class EmptyPayloadError(WavError):
    """File carries a zero-length data chunk."""


@dataclass
class AudioClip:
    """Mono waveform with amplitudes in [-1, 1] and a speaker identity."""

    samples: np.ndarray
    sample_rate: int = 16000
    speaker_id: str = ""
    label: int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.size and not np.isfinite(self.samples).all():
            raise ValueError("samples contain non-finite values")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class ManifestEntry:
    speaker_id: str
    path: str
    label: int
    split: str
    duration_s: float


@dataclass
class CorpusManifest:
    """One clip per speaker; speaker ids are unique across the corpus."""

    entries: list[ManifestEntry] = field(default_factory=list)

    def __post_init__(self):
        ids = [e.speaker_id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate speaker_id in manifest")

    def split_entries(self, split: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == split]


def load_wav(path) -> AudioClip:
    """Read a 16-bit PCM RIFF/WAVE file, scaled to [-1, 1], stereo averaged.

    Raises MalformedHeaderError / UnsupportedEncodingError / EmptyPayloadError
    depending on the defect encountered.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedHeaderError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
            if len(body) < chunk_size:
                raise MalformedHeaderError(f"{path}: truncated data chunk")
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or len(fmt) < 16:
        raise MalformedHeaderError(f"{path}: missing or short fmt chunk")
    format_code, n_channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if format_code != 1:
        raise UnsupportedEncodingError(f"{path}: format code {format_code}, expected 1 (PCM)")
    if bits != 16:
        raise UnsupportedEncodingError(f"{path}: {bits}-bit samples, expected 16")
    if n_channels not in (1, 2):
        raise UnsupportedEncodingError(f"{path}: {n_channels} channels, expected mono or stereo")
    if data is None:
        raise MalformedHeaderError(f"{path}: missing data chunk")
    if len(data) == 0:
        raise EmptyPayloadError(f"{path}: zero-length data chunk")

    frames = np.frombuffer(data[: len(data) - (len(data) % (2 * n_channels))], dtype="<i2")
    if frames.size == 0:
        raise EmptyPayloadError(f"{path}: data chunk shorter than one frame")
    samples = frames.astype(np.float64) / PCM_FULL_SCALE
    if n_channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return AudioClip(samples=samples, sample_rate=sample_rate, speaker_id=path.stem)


def write_wav(path, clip: AudioClip) -> None:
    """Write a clip as 16-bit mono PCM. Quantization error is < 1/32768."""
    if clip.sample_rate > MAX_SAMPLE_RATE:
        raise ValueError(f"a sample rate of {clip.sample_rate} Hz makes a WAV byte rate, 2 * rate, past 32 bits")
    q = np.clip(np.rint(clip.samples * PCM_FULL_SCALE), -32768, 32767).astype("<i2")
    payload = q.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        clip.sample_rate,
        clip.sample_rate * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    Path(path).write_bytes(header + payload)


def samples(seconds: float, rate: int) -> int:
    """The whole samples that `seconds` spans at `rate` Hz, round(seconds * rate)."""
    if not 0.0 < seconds <= MAX_SECONDS:  # false for nan too
        raise ValueError(f"a span of seconds must lie in (0, {MAX_SECONDS:.6g}], got {seconds}")
    return round(seconds * rate)


def trim_silence(
    clip: AudioClip, frame_s: float = 0.1, energy_floor_db: float = -60.0
) -> tuple[AudioClip, np.ndarray]:
    """The clip without the frames whose RMS level (dB re full scale) is at or below the floor, and the keep mask.

    Frames are consecutive non-overlapping windows of frame_s; a trailing
    partial frame is judged on its own samples. A clip shorter than one frame
    is returned unchanged. Idempotent. keep[i] tells whether frame i was kept,
    so keep_frames(clip, keep, frame_s) trims the same samples again without
    measuring a level.
    """
    frame_len = samples(frame_s, clip.sample_rate)
    if frame_len < 1:
        raise ValueError(
            f"at {clip.sample_rate} Hz the {frame_s} s trim frame is {frame_len} samples; it must be at least 1"
        )
    n = clip.samples.size
    if n < frame_len:
        keep, trimmed = np.ones(-(-n // frame_len), dtype=bool), clip
    else:
        full = n - n % frame_len
        power = clip.samples**2
        mean_power = np.mean(power[:full].reshape(-1, frame_len), axis=1)
        if full < n:
            mean_power = np.append(mean_power, np.mean(power[full:]))
        with np.errstate(divide="ignore"):  # a silent frame's level is -inf, below any floor
            keep = 20.0 * np.log10(np.sqrt(mean_power)) > energy_floor_db
        trimmed = keep_frames(clip, keep, frame_s)
    return trimmed, keep


def keep_frames(clip: AudioClip, keep: np.ndarray, frame_s: float) -> AudioClip:
    """The clip without the frames of frame_s whose keep flag is false, framed as trim_silence frames it."""
    frame_len, n = samples(frame_s, clip.sample_rate), clip.samples.size
    keep = np.asarray(keep, dtype=bool)
    if frame_len < 1 or keep.shape != (-(-n // frame_len),):
        raise ValueError(f"{keep.size} frame flags for {n} samples in frames of {frame_len}")
    return AudioClip(clip.samples[np.repeat(keep, frame_len)[:n]], clip.sample_rate, clip.speaker_id, clip.label)


class _ClipDraw(NamedTuple):
    """Every random number one synthetic clip is made from."""

    sample_rate: int
    f0: float
    mod_rate: float
    jitter_rate: float
    jitter_phase: float
    mod_phase: float
    harmonic_phases: np.ndarray
    noise: np.ndarray  # one standard normal value per sample


def _draw_clip(rng: np.random.Generator, label: int, duration_s: float, sample_rate: int) -> _ClipDraw:
    n = samples(duration_s, sample_rate)
    return _ClipDraw(  # keyword arguments are evaluated in order, which fixes the order of the draws
        sample_rate,
        f0=rng.uniform(*_FUNDAMENTAL_HZ[label]),
        mod_rate=rng.uniform(*_MOD_RATE_HZ[label]),
        jitter_rate=rng.uniform(2.0, 6.0),
        jitter_phase=rng.uniform(0.0, 2.0 * np.pi),
        mod_phase=rng.uniform(0.0, 2.0 * np.pi),
        harmonic_phases=rng.uniform(0.0, 2.0 * np.pi, size=_N_HARMONICS),
        noise=rng.standard_normal(n),
    )


def _render_clip(draw: _ClipDraw) -> np.ndarray:
    """A clip's samples, computed from its draws into draw.noise, which is returned.

    Uses no generator, so any thread can render any clip, with the same bytes.
    Sample-wise formulas run a block at a time, so memory peaks at three
    clip-sized arrays: the noise, the signal and the squares of its level.
    Calls nothing the benchmark's tracer wraps, so it may run off the main thread.
    """
    rate, n = draw.sample_rate, draw.noise.size
    blocks = [slice(start, min(start + _RENDER_BLOCK, n)) for start in range(0, n, _RENDER_BLOCK)]
    signal = np.empty(n)
    for b in blocks:  # 1% FM jitter around the fundamental, integrated to instantaneous phase
        t = np.arange(b.start, b.stop) / rate
        signal[b] = draw.f0 * (1.0 + 0.01 * np.sin(2.0 * np.pi * draw.jitter_rate * t + draw.jitter_phase))
    np.cumsum(signal, out=signal)
    signal *= 2.0 * np.pi
    signal /= rate
    for b in blocks:
        tone = np.zeros(b.stop - b.start)
        for h in range(1, _N_HARMONICS + 1):
            tone += np.sin(h * signal[b] + draw.harmonic_phases[h - 1]) / h
        t = np.arange(b.start, b.stop) / rate
        envelope = 1.0 - 0.4 * (1.0 + np.sin(2.0 * np.pi * draw.mod_rate * t + draw.mod_phase))  # in [0.2, 1]
        signal[b] = tone * envelope
    del t, tone, envelope  # a block each, not needed past the loop

    noise = draw.noise
    noise *= float(np.sqrt(np.mean(signal**2))) * 10.0 ** (_NOISE_DB / 20.0)
    noise += signal
    noise *= 0.9 / np.max(np.abs(noise, out=signal))
    return np.clip(noise, -1.0, 1.0, out=noise)


def synth_corpus(
    n_speakers_per_class: int,
    duration_s: float,
    sample_rate: int = 16000,
    seed: int = 0,
    split: str = "train",
    *,
    on_clip: Callable[[ManifestEntry, AudioClip], None],
    render: Callable = map,
) -> CorpusManifest:
    """Generate a deterministic labeled corpus of harmonic-tone speakers.

    Per-speaker durations are drawn uniformly in [duration_s/2, duration_s] so
    crop counts differ across speakers. Class 0 speakers occupy a higher
    fundamental band than class 1 and modulate faster.

    Each clip goes to on_clip(entry, clip) in speaker order as soon as it is
    made, and is not kept. Every random draw is made here, on the calling
    thread, in one order; render(_render_clip, draws) turns them into samples,
    in order. Any map gives the same samples, for _render_clip uses no
    generator: the builtin renders each clip only once the one before it has
    been handed over, and a threaded map may render several at once.
    """
    if n_speakers_per_class < 1:
        raise ValueError("need at least one speaker per class")
    if not (np.isfinite(duration_s) and duration_s > 0.0):
        raise ValueError(f"duration_s must be a positive finite number of seconds, got {duration_s}")
    if sample_rate < 1:
        raise ValueError(f"sample_rate must be >= 1 Hz, got {sample_rate}")
    rng = np.random.default_rng(seed)
    labels = [0] * n_speakers_per_class + [1] * n_speakers_per_class
    draws = (_draw_clip(rng, label, rng.uniform(duration_s / 2.0, duration_s), sample_rate) for label in labels)
    entries = []
    rendered = render(_render_clip, draws)
    for idx, label in enumerate(labels):
        clip = AudioClip(next(rendered), sample_rate, f"{split}{idx:03d}", label)
        entries.append(ManifestEntry(clip.speaker_id, "", label, split, clip.duration_s))
        on_clip(entries[-1], clip)
        del clip  # before the next one is rendered
    return CorpusManifest(entries)


MANIFEST_HEADER = ["speaker_id", "path", "label", "split", "duration_s"]


def save_manifest(path, manifest: CorpusManifest) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for e in manifest.entries:
            writer.writerow([e.speaker_id, e.path, e.label, e.split, repr(e.duration_s)])


def load_manifest(path) -> CorpusManifest:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:  # the reader's own errors, such as a field over the csv field limit, name the line too
            header = next(reader, None)
            if header != MANIFEST_HEADER:
                raise ValueError(f"{path}: bad manifest header {header}")
            entries = []
            for row in reader:
                if not row:
                    continue
                where = f"{path}:{reader.line_num}"
                if len(row) != len(MANIFEST_HEADER):
                    raise ValueError(f"{where}: expected {len(MANIFEST_HEADER)} columns, got {len(row)}")
                speaker_id, clip_path, label, split, duration_s = row
                if label not in ("0", "1"):
                    raise ValueError(f"{where}: label must be 0 or 1, got {label!r}")
                try:
                    duration = float(duration_s)
                except ValueError:
                    raise ValueError(f"{where}: duration_s is not a number: {duration_s!r}") from None
                if not (np.isfinite(duration) and duration > 0.0):
                    raise ValueError(f"{where}: duration_s must be a positive finite number, got {duration_s!r}")
                entries.append(ManifestEntry(speaker_id, clip_path, int(label), split, duration))
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return CorpusManifest(entries)
