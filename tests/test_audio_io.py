import struct

import numpy as np
import pytest

from speechdep.audio_io import (
    MAX_SAMPLE_RATE,
    MAX_SECONDS,
    AudioClip,
    CorpusManifest,
    EmptyPayloadError,
    MalformedHeaderError,
    ManifestEntry,
    UnsupportedEncodingError,
    keep_frames,
    load_manifest,
    load_wav,
    samples,
    save_manifest,
    synth_corpus,
    trim_silence,
    write_wav,
    _draw_clip,
    _render_clip,
)


def _wav_bytes(payload: bytes, channels=1, rate=16000, bits=16, fmt=1, extra_chunks=b""):
    """Hand-packed RIFF container, independent of the reader under test."""
    block = channels * bits // 8
    fmt_chunk = struct.pack("<4sIHHIIHH", b"fmt ", 16, fmt, channels, rate, rate * block, block, bits)
    data_chunk = struct.pack("<4sI", b"data", len(payload)) + payload
    body = b"WAVE" + fmt_chunk + extra_chunks + data_chunk
    return struct.pack("<4sI", b"RIFF", len(body)) + body


def test_load_wav_known_samples(tmp_path):
    payload = struct.pack("<4h", 0, 16384, -16384, -32768)
    path = tmp_path / "known.wav"
    path.write_bytes(_wav_bytes(payload))
    clip = load_wav(path)
    assert clip.sample_rate == 16000
    np.testing.assert_allclose(clip.samples, [0.0, 0.5, -0.5, -1.0])


def test_load_wav_skips_foreign_chunks(tmp_path):
    extra = struct.pack("<4sI", b"LIST", 6) + b"junk!?"
    payload = struct.pack("<2h", 1000, -1000)
    path = tmp_path / "chunky.wav"
    path.write_bytes(_wav_bytes(payload, extra_chunks=extra))
    np.testing.assert_allclose(load_wav(path).samples, [1000 / 32768, -1000 / 32768])


def test_load_wav_stereo_averages_channels(tmp_path):
    payload = struct.pack("<4h", 16384, -16384, 8192, 8192)  # L,R interleaved
    path = tmp_path / "stereo.wav"
    path.write_bytes(_wav_bytes(payload, channels=2))
    np.testing.assert_allclose(load_wav(path).samples, [0.0, 0.25])


def test_load_wav_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFX" + b"\x00" * 40)
    with pytest.raises(MalformedHeaderError):
        load_wav(path)


def test_load_wav_rejects_truncated(tmp_path):
    path = tmp_path / "short.wav"
    path.write_bytes(b"RIFF\x04\x00\x00\x00WA")
    with pytest.raises(MalformedHeaderError):
        load_wav(path)


def test_load_wav_rejects_float_encoding(tmp_path):
    path = tmp_path / "float.wav"
    path.write_bytes(_wav_bytes(b"\x00" * 8, fmt=3))
    with pytest.raises(UnsupportedEncodingError):
        load_wav(path)


def test_load_wav_rejects_8bit(tmp_path):
    path = tmp_path / "8bit.wav"
    path.write_bytes(_wav_bytes(b"\x00" * 8, bits=8))
    with pytest.raises(UnsupportedEncodingError):
        load_wav(path)


def test_load_wav_rejects_empty_payload(tmp_path):
    path = tmp_path / "empty.wav"
    path.write_bytes(_wav_bytes(b""))
    with pytest.raises(EmptyPayloadError):
        load_wav(path)


def test_wav_round_trip_quantizes_within_half_step(tmp_path):
    rng = np.random.default_rng(3)
    clip = AudioClip(rng.uniform(-0.99, 0.99, size=4000), 8000)
    path = tmp_path / "rt.wav"
    write_wav(path, clip)
    loaded = load_wav(path)
    assert loaded.sample_rate == 8000
    np.testing.assert_allclose(loaded.samples, clip.samples, atol=0.5 / 32768)


def test_write_wav_clips_out_of_range(tmp_path):
    path = tmp_path / "hot.wav"
    write_wav(path, AudioClip(np.array([2.0, -2.0]), 16000))
    np.testing.assert_allclose(load_wav(path).samples, [32767 / 32768, -1.0])


def test_write_wav_rejects_a_rate_whose_byte_rate_passes_32_bits(tmp_path):
    path = tmp_path / "fast.wav"
    with pytest.raises(ValueError, match="byte rate"):
        write_wav(path, AudioClip(np.zeros(2), MAX_SAMPLE_RATE + 1))
    assert not path.exists()
    write_wav(path, AudioClip(np.zeros(2), MAX_SAMPLE_RATE))
    assert load_wav(path).sample_rate == MAX_SAMPLE_RATE == 2**31 - 1


def test_audio_clip_validation():
    with pytest.raises(ValueError):
        AudioClip(np.zeros((2, 2)), 16000)
    with pytest.raises(ValueError):
        AudioClip(np.zeros(4), 0)
    with pytest.raises(ValueError):
        AudioClip(np.array([0.0, np.nan]), 16000)


def test_trim_silence_drops_quiet_frames():
    rate = 16000
    tone = 0.5 * np.sin(2 * np.pi * 440 * np.arange(rate // 5) / rate)
    silence = np.zeros(rate // 5)
    clip = AudioClip(np.concatenate([tone, silence, tone]), rate, "spk", 1)
    trimmed = trim_silence(clip, frame_s=0.1)[0]
    assert trimmed.samples.size == 2 * tone.size
    assert trimmed.speaker_id == "spk" and trimmed.label == 1


def test_trim_silence_idempotent():
    rate = 16000
    rng = np.random.default_rng(4)
    parts = [rng.uniform(-0.4, 0.4, rate // 10), np.zeros(rate // 10), rng.uniform(-0.4, 0.4, rate // 4)]
    clip = AudioClip(np.concatenate(parts), rate)
    once = trim_silence(clip)[0]
    twice = trim_silence(once)[0]
    np.testing.assert_array_equal(once.samples, twice.samples)


def test_trim_silence_all_quiet_and_short_clips():
    rate = 16000
    assert trim_silence(AudioClip(np.zeros(rate), rate))[0].samples.size == 0
    short = AudioClip(np.zeros(10), rate)
    assert trim_silence(short)[0].samples.size == 10
    with pytest.raises(ValueError, match="at 3 Hz .* 0 samples"):  # 0.1 s rounds to 0 samples
        trim_silence(AudioClip(np.ones(10), 3))


def _synth(*args, **kwargs):
    """synth_corpus's manifest and every clip it hands over, in the order handed."""
    clips = []
    manifest = synth_corpus(*args, on_clip=lambda entry, clip: clips.append(clip), **kwargs)
    return manifest, clips


def _trim_silence_loop(clip, frame_s=0.1, energy_floor_db=-60.0):
    """Reference: judge and keep the frames one at a time."""
    frame_len = int(round(frame_s * clip.sample_rate))
    if clip.samples.size < frame_len:
        return clip.samples
    kept = []
    for start in range(0, clip.samples.size, frame_len):
        frame = clip.samples[start : start + frame_len]
        rms = float(np.sqrt(np.mean(frame**2)))
        if rms > 0 and 20.0 * np.log10(rms) > energy_floor_db:
            kept.append(frame)
    return np.concatenate(kept) if kept else np.empty(0)


def _trim_cases():
    rate = 1000  # 100-sample frames
    rng = np.random.default_rng(12)
    loud = rng.uniform(-0.5, 0.5, 3 * rate)
    gaps = loud.copy()
    gaps[250:520] = 0.0  # silent whole and part frames
    gaps[1700:1900] *= 1e-4  # quiet, not silent
    yield pytest.param(AudioClip(gaps, rate), id="silent runs")
    yield pytest.param(AudioClip(np.concatenate([gaps, [0.3] * 37]), rate), id="partial last frame")
    yield pytest.param(AudioClip(np.concatenate([loud, [1e-5] * 37]), rate), id="quiet partial last frame")
    at_floor = np.full(5 * 100, 1e-3)  # computes to exactly -60 dB
    at_floor[::2] *= -1.0
    yield pytest.param(AudioClip(np.concatenate([loud[:300], at_floor, loud[:150]]), rate), id="frames at the floor")
    yield pytest.param(AudioClip(np.zeros(1234), rate), id="all zero")
    yield pytest.param(AudioClip(loud[:99], rate), id="shorter than a frame")
    yield pytest.param(AudioClip(loud[:100], rate), id="one frame")
    for seed in range(40):
        r = np.random.default_rng(seed)
        levels = 10.0 ** r.uniform(-5, 0, size=int(r.integers(1, 30)))
        samples = np.concatenate([r.standard_normal(int(r.integers(1, 400))) * lv for lv in levels])
        samples[r.random(samples.size) < 0.3] = 0.0
        yield pytest.param(AudioClip(samples, rate), id=f"random {seed}")


@pytest.mark.parametrize("clip", _trim_cases())
def test_trim_silence_is_bitwise_the_frame_loop(clip):
    for floor in (-60.0, -40.0, -100.0):
        expected = _trim_silence_loop(clip, 0.1, floor)
        got = trim_silence(clip, 0.1, floor)[0].samples
        assert got.dtype == expected.dtype and np.array_equal(got, expected), floor


@pytest.mark.parametrize("clip", _trim_cases())
def test_keep_mask_trims_the_same_samples_again(clip):
    for floor in (-60.0, -40.0, -100.0):
        trimmed, keep = trim_silence(clip, 0.1, floor)
        assert keep.dtype == bool and keep.shape == (-(-clip.samples.size // 100),)  # one flag per frame
        again = keep_frames(clip, keep, 0.1)
        assert again.samples.dtype == trimmed.samples.dtype and np.array_equal(again.samples, trimmed.samples)


def test_samples_takes_spans_up_to_max_seconds_and_rejects_the_rest():
    assert samples(0.1, 16000) == 1600 and samples(0.00003, 16000) == 0  # 0.48 samples
    assert samples(MAX_SECONDS, 0xFFFFFFFF) > 0  # the widest rate a WAV header holds stays finite
    for seconds in (0.0, -1.0, float("nan"), float("inf"), np.nextafter(MAX_SECONDS, np.inf), 1e308):
        with pytest.raises(ValueError, match="span of seconds"):
            samples(seconds, 1)
    with pytest.raises(ValueError, match="span of seconds"):  # not an OverflowError
        trim_silence(AudioClip(np.ones(10), 16000), 1e308)


def test_keep_mask_must_have_one_flag_per_frame():
    clip = AudioClip(np.ones(250), 1000, "spk", 1)  # frames of 100, 100 and 50 samples
    assert keep_frames(clip, [True, False, True], 0.1).samples.size == 150
    for flags in ([True, True], [True] * 4, [[True, True, True]]):
        with pytest.raises(ValueError, match="frame flags for 250 samples in frames of 100"):
            keep_frames(clip, np.array(flags), 0.1)
    with pytest.raises(ValueError, match="1 frame flags for 10 samples in frames of 0"):  # 0.1 s at 3 Hz
        keep_frames(AudioClip(np.ones(10), 3), [True], 0.1)


def _synth_clip_formula(rng, label, duration_s, sample_rate):
    """Reference: one clip as plain whole-array formulas, drawing from rng as it goes."""
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    f0 = rng.uniform(*{1: (80.0, 120.0), 0: (180.0, 260.0)}[label])
    mod_rate = rng.uniform(*{1: (0.5, 1.5), 0: (4.0, 8.0)}[label])
    jitter_rate = rng.uniform(2.0, 6.0)
    jitter_phase = rng.uniform(0.0, 2.0 * np.pi)
    mod_phase = rng.uniform(0.0, 2.0 * np.pi)
    harmonic_phases = rng.uniform(0.0, 2.0 * np.pi, size=6)
    inst_freq = f0 * (1.0 + 0.01 * np.sin(2.0 * np.pi * jitter_rate * t + jitter_phase))
    phase = 2.0 * np.pi * np.cumsum(inst_freq) / sample_rate
    tone = np.zeros(n)
    for h in range(1, 7):
        tone += np.sin(h * phase + harmonic_phases[h - 1]) / h
    envelope = 1.0 - 0.4 * (1.0 + np.sin(2.0 * np.pi * mod_rate * t + mod_phase))
    signal = tone * envelope
    noise_rms = float(np.sqrt(np.mean(signal**2))) * 10.0 ** (-30.0 / 20.0)
    signal = signal + rng.standard_normal(n) * noise_rms
    signal *= 0.9 / np.max(np.abs(signal))
    return np.clip(signal, -1.0, 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_rendered_draws_are_bitwise_the_formula(seed):
    label = seed % 2
    # shorter than one render block, several blocks with a partial last one, and 8 kHz
    for duration_s, rate in ((0.3, 16000), (2.7183, 16000), (5.0, 8000)):
        drawn, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        samples = _render_clip(_draw_clip(drawn, label, duration_s, rate))
        assert np.array_equal(samples, _synth_clip_formula(reference, label, duration_s, rate))
        assert drawn.random() == reference.random()  # the draws left the generator in the same state


def test_synth_corpus_geometry_and_determinism():
    manifest, clips = _synth(3, duration_s=8.0, seed=5)
    assert len(clips) == 6
    assert [e.label for e in manifest.entries] == [0, 0, 0, 1, 1, 1]
    assert len({e.speaker_id for e in manifest.entries}) == 6
    for clip in clips:
        assert 4.0 - 1e-9 <= clip.duration_s <= 8.0 + 1e-9
        assert np.max(np.abs(clip.samples)) <= 1.0
    again, clips2 = _synth(3, duration_s=8.0, seed=5)
    for a, b in zip(clips, clips2):
        np.testing.assert_array_equal(a.samples, b.samples)
    _, other = _synth(3, duration_s=8.0, seed=6)
    assert not np.array_equal(clips[0].samples, other[0].samples)


def test_synth_corpus_classes_occupy_their_bands():
    # class 1 fundamental sits in 80-120 Hz, class 0 in 180-260 Hz
    manifest, clips = _synth(4, duration_s=6.0, seed=9)
    for entry, clip in zip(manifest.entries, clips):
        n = clip.sample_rate  # one-second window, 1 Hz bins
        spectrum = np.abs(np.fft.rfft(clip.samples[:n]))
        spectrum[:40] = 0.0  # ignore DC and drift
        peak_hz = float(np.argmax(spectrum))
        if entry.label == 1:
            assert 70 <= peak_hz <= 130, peak_hz
        else:
            assert 170 <= peak_hz <= 270, peak_hz


def test_manifest_round_trip(tmp_path):
    manifest = CorpusManifest(
        [
            ManifestEntry("train000", "wav/train000.wav", 0, "train", 7.5),
            ManifestEntry("test000", "wav/test000.wav", 1, "test", 4.25),
        ]
    )
    path = tmp_path / "manifest.csv"
    save_manifest(path, manifest)
    loaded = load_manifest(path)
    assert loaded.entries == manifest.entries
    assert [e.speaker_id for e in loaded.split_entries("test")] == ["test000"]


def test_manifest_rejects_duplicates_and_bad_header(tmp_path):
    with pytest.raises(ValueError):
        CorpusManifest(
            [
                ManifestEntry("a", "x.wav", 0, "train", 1.0),
                ManifestEntry("a", "y.wav", 1, "train", 1.0),
            ]
        )
    path = tmp_path / "bad.csv"
    path.write_text("speaker,file\n")
    with pytest.raises(ValueError):
        load_manifest(path)
