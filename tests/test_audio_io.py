import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

import encore
from encore import audio_io, metrics
from encore.audio_io import _PCM_SCALE, WavReader, read_wav, write_wav


def test_float32_round_trip(tmp_path):
    samples = np.linspace(-0.5, 0.5, 1000).astype(np.float32).astype(np.float64)
    path = tmp_path / "x.wav"
    write_wav(path, samples)
    back = read_wav(path)
    assert np.array_equal(back, samples)


def test_int16_scaling(tmp_path):
    path = tmp_path / "i16.wav"
    wavfile.write(path, 44100, np.array([0, 16384, -32768], dtype=np.int16))
    back = read_wav(path)
    assert back == pytest.approx([0.0, 0.5, -1.0])


def test_stereo_averaged_to_mono(tmp_path):
    path = tmp_path / "st.wav"
    left = np.full(500, 0.2, dtype=np.float32)
    right = np.full(500, 0.6, dtype=np.float32)
    wavfile.write(path, 44100, np.stack([left, right], axis=1))
    back = read_wav(path)
    assert back.shape == (500,)
    assert back == pytest.approx(0.4)


def test_resamples_to_target_rate(tmp_path):
    rate = 22050
    t = np.arange(rate * 2) / rate
    tone = (0.4 * np.sin(2 * np.pi * 440.0 * t)).astype(np.float32)
    path = tmp_path / "lo.wav"
    wavfile.write(path, rate, tone)
    back = read_wav(path)
    assert abs(back.shape[0] - 2 * tone.shape[0]) <= 2
    spec = np.abs(np.fft.rfft(back))
    freqs = np.fft.rfftfreq(back.shape[0], 1.0 / 44100.0)
    assert abs(freqs[np.argmax(spec)] - 440.0) < 2.0


def test_empty_stream_rejected(tmp_path):
    path = tmp_path / "empty.wav"
    wavfile.write(path, 44100, np.zeros(0, dtype=np.float32))
    with pytest.raises(ValueError, match="empty"):
        read_wav(path)


def test_unsupported_format_rejected(tmp_path):
    path = tmp_path / "u8.wav"
    wavfile.write(path, 44100, np.full(100, 128, dtype=np.uint8))
    with pytest.raises(ValueError, match="unsupported"):
        read_wav(path)


# ---------------------------------------------------------------------------
# the RIFF codec against scipy's wavfile, the oracle it replaces


def _scipy_read(path):
    """read_wav as it was on scipy: wavfile.read, PCM scaling, channel
    mean, polyphase resampling."""
    from scipy.signal import resample_poly

    rate, data = wavfile.read(path)
    scale = {np.dtype(np.int16): 2.0**15, np.dtype(np.int32): 2.0**31}.get(data.dtype)
    samples = data.astype(np.float64) / scale if scale else data.astype(np.float64)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if rate != 44100:
        g = math.gcd(44100, rate)
        samples = resample_poly(samples, 44100 // g, rate // g)
    return samples


def _riff(fmt_body: bytes, data: bytes, before_data: bytes = b"") -> bytes:
    """A RIFF/WAVE file: fmt chunk, optional extra chunks, data chunk."""
    pad = b"\x00" * (len(fmt_body) % 2)
    body = (
        b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body + pad
        + before_data + b"data" + struct.pack("<I", len(data)) + data
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _fmt(tag, channels, rate, bits):
    block = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)


def _extensible(subformat, channels, rate, bits):
    """A WAVE_FORMAT_EXTENSIBLE fmt body: cbSize 22, valid bits, channel
    mask, and the subformat's KSDATAFORMAT GUID."""
    guid = struct.pack("<I", subformat) + bytes.fromhex("00001000800000aa00389b71")
    return _fmt(0xFFFE, channels, rate, bits) + struct.pack("<HHI", 22, bits, 0) + guid


@pytest.mark.parametrize("n", [0, 1, 2, 1000, 44101])
def test_write_bytes_match_scipy(tmp_path, n):
    samples = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
    write_wav(ours, samples)
    wavfile.write(theirs, 44100, samples.astype(np.float32))
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("rate", [22050, 44100, 48000])
@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float32, np.float64])
def test_read_matches_scipy(tmp_path, dtype, channels, rate):
    rng = np.random.default_rng(channels * rate)
    if np.dtype(dtype).kind == "f":
        data = rng.uniform(-1.0, 1.0, (999, channels)).astype(dtype)
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, (999, channels), endpoint=True, dtype=dtype)
    path = tmp_path / "x.wav"
    wavfile.write(path, rate, data[:, 0] if channels == 1 else data)
    assert np.array_equal(read_wav(path), _scipy_read(path))


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize(
    "subformat, bits",
    [(None, 24), (1, 24), (1, 16), (3, 32)],
    ids=["pcm24", "extensible-pcm24", "extensible-pcm16", "extensible-float32"],
)
def test_read_matches_scipy_handmade(tmp_path, channels, subformat, bits):
    rng = np.random.default_rng(7)
    if subformat is None:
        fmt_body = _fmt(1, channels, 48000, bits)
    else:
        fmt_body = _extensible(subformat, channels, 48000, bits)
    if subformat == 3:
        data = rng.uniform(-1.0, 1.0, 150 * channels).astype("<f4").tobytes()
    else:
        data = rng.integers(0, 256, 600 * channels, dtype=np.uint8).tobytes()
    path = tmp_path / "x.wav"
    path.write_bytes(_riff(fmt_body, data))
    assert np.array_equal(read_wav(path), _scipy_read(path))


def test_odd_chunk_before_data_is_skipped(tmp_path):
    data = np.arange(-50, 50, dtype="<i2").tobytes()
    listing = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # odd size, pad byte
    path = tmp_path / "list.wav"
    path.write_bytes(_riff(_fmt(1, 1, 44100, 16), data, listing))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns about the LIST chunk
        expected = _scipy_read(path)
    assert np.array_equal(read_wav(path), expected)
    assert np.array_equal(expected, np.arange(-50, 50) / 2.0**15)


# ---------------------------------------------------------------------------
# hostile headers


def _int16_stereo(path):
    """100 frames of 16-bit stereo, 44-byte header."""
    frames = np.random.default_rng(2).integers(-30000, 30000, (100, 2), dtype=np.int16)
    wavfile.write(path, 44100, frames)
    return path


def _patched(path, offset, fmt, value):
    buf = bytearray(path.read_bytes())
    struct.pack_into(fmt, buf, offset, value)
    path.write_bytes(bytes(buf))
    return path


@pytest.mark.parametrize(
    "offset, fmt, value, message",
    [
        (22, "<H", 0, "zero channels"),
        (24, "<I", 0, "zero sample rate"),
        (32, "<H", 3, "block align"),
        (34, "<H", 8, "unsupported"),
        (24, "<I", 10**6, "unsupported"),
        (0, "4s", b"RIFX", "unsupported"),
        (0, "4s", b"RF64", "unsupported"),
        (8, "4s", b"AVI ", "RIFF/WAVE"),
        (12, "4s", b"junk", "no fmt chunk"),
        (16, "<I", 12, "fmt chunk too short"),
        (36, "4s", b"junk", "no data chunk"),
    ],
)
def test_malformed_header_rejected(tmp_path, offset, fmt, value, message):
    path = _patched(_int16_stereo(tmp_path / "x.wav"), offset, fmt, value)
    with pytest.raises(ValueError, match=message) as info:
        read_wav(path)
    assert str(path) in str(info.value)


def test_truncated_data_reads_whole_frames(tmp_path):
    path = _int16_stereo(tmp_path / "x.wav")
    full = read_wav(path)
    path.write_bytes(path.read_bytes()[: 44 + 4 * 37 + 3])  # 37 frames and a partial one
    assert np.array_equal(read_wav(path), full[:37])


def test_data_size_past_end_of_file(tmp_path):
    path = _patched(_int16_stereo(tmp_path / "x.wav"), 40, "<I", 0xFFFFFFFF)
    assert read_wav(path).shape == (100,)


def test_non_finite_samples_rejected(tmp_path):
    path = tmp_path / "nan.wav"
    write_wav(path, np.array([0.0, np.nan, 0.5]))
    with pytest.raises(ValueError, match="non-finite"):
        read_wav(path)


def test_over_four_hours_refused_in_bounded_memory(tmp_path):
    """14401 frames at 1 Hz is past the 4 h limit; resampled, it would be
    635M samples (5 GB).  Read in a child capped at 2 GB of address space."""
    path = tmp_path / "long.wav"
    path.write_bytes(_riff(_fmt(3, 1, 1, 32), bytes(4 * 14401)))
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from encore.audio_io import read_wav\n"
        "try:\n"
        "    read_wav(sys.argv[1])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(encore.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "input limit" in done.stdout and str(path) in done.stdout


@pytest.mark.parametrize("rate, frames", [(1, 14400), (383_993, 200)])
def test_unbounded_resampling_refused(tmp_path, monkeypatch, rate, frames):
    """Exactly 4 h at 1 Hz passes the input limit but would resample to
    635M samples; 383993 Hz shares no factor with 44100, so its filter
    would have about 10^7 taps.  Both are refused before scipy is reached."""
    path = tmp_path / f"r{rate}.wav"
    path.write_bytes(_riff(_fmt(3, 1, rate, 32), bytes(4 * frames)))
    monkeypatch.setitem(sys.modules, "scipy.signal", None)  # importing it fails
    with pytest.raises(ValueError, match="unsupported sample rate") as info:
        read_wav(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "rate",
    [8000, 11025, 12000, 16000, 22050, 24000, 32000, 44100, 48000, 64000, 88200, 96000,
     176400, 192000, 352800, 384000],
)
def test_standard_rates_resampled(tmp_path, rate):
    """Every slice is bit-identical to the same samples of one resample_poly
    call over the whole file: for files shorter than the filter's reach (1
    and 50 frames), of 10 ms, and several scan slices long.  The slices take
    the first and last sample, 7 samples (fewer than the filter reaches),
    and spans that straddle a scan slice's edges."""
    g = math.gcd(44100, rate)
    up, down = 44100 // g, rate // g
    scan = audio_io.CHUNK
    rng = np.random.default_rng(rate)
    for frames in (1, 50, rate // 100, 3 * scan * down // up + 1234):
        path = tmp_path / f"{frames}.wav"
        wavfile.write(path, rate, rng.uniform(-1.0, 1.0, (frames, 2)).astype(np.float32))
        whole = _scipy_read(path)
        reader = WavReader(path)
        n = len(whole)
        assert len(reader) == n
        assert np.array_equal(read_wav(path), whole)
        for lo, hi in [(0, 1), (n - 1, n), (n // 2, n // 2 + 7), (scan - 3, scan + 4),
                       (2 * scan - 900, 3 * scan + 900)]:
            assert np.array_equal(reader[lo:hi], whole[lo:hi]), (frames, lo, hi)
    assert abs(len(WavReader(tmp_path / f"{rate // 100}.wav")) - 441) <= 1  # 10 ms


@pytest.fixture(scope="module")
def seed_wavs(tmp_path_factory):
    """Two small WAVs whose 400 data bytes stay under about 200 s of audio
    at any rate a mutation can produce, down to 1 Hz."""
    tmp = tmp_path_factory.mktemp("seeds")
    write_wav(tmp / "f.wav", np.linspace(-0.9, 0.9, 100))
    stereo = np.random.default_rng(4).integers(-30000, 30000, (100, 2), dtype=np.int16)
    wavfile.write(tmp / "i.wav", 44100, stereo)
    return tmp, [(tmp / "f.wav").read_bytes(), (tmp / "i.wav").read_bytes()]


@settings(max_examples=300, deadline=None)
@given(
    which=st.integers(0, 1),
    cut=st.none() | st.integers(0, 500),
    edits=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)), max_size=4),
)
def test_hostile_bytes_read_or_value_error(seed_wavs, which, cut, edits):
    tmp, seeds = seed_wavs
    buf = bytearray(seeds[which][:cut])
    for offset, value in edits:
        if offset < len(buf):
            buf[offset] = value
    path = tmp / "mutated.wav"
    path.write_bytes(bytes(buf))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow in a channel mean
            samples = read_wav(path)
    except ValueError:
        return
    assert samples.ndim == 1 and samples.dtype == np.float64
    assert np.isfinite(samples).all()


# ---------------------------------------------------------------------------
# WavReader: the same samples, a slice at a time


def _formats():
    """(name, file bytes) for every layout the codec reads, one param each."""
    rng = np.random.default_rng(11)
    n = 1000

    def pcm(bits, channels):
        if bits == 24:
            return rng.integers(0, 256, 3 * n * channels, dtype=np.uint8).tobytes()
        info = np.iinfo(np.int16 if bits == 16 else np.int32)
        data = rng.integers(info.min, info.max, n * channels, endpoint=True)
        return data.astype("<i2" if bits == 16 else "<i4").tobytes()

    def flt(bits, channels):
        return rng.uniform(-1.0, 1.0, n * channels).astype(f"<f{bits // 8}").tobytes()

    listing = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"
    layouts = [
        ("pcm16", _riff(_fmt(1, 1, 44100, 16), pcm(16, 1))),
        ("pcm24", _riff(_fmt(1, 1, 44100, 24), pcm(24, 1))),
        ("pcm32", _riff(_fmt(1, 1, 44100, 32), pcm(32, 1))),
        ("float32", _riff(_fmt(3, 1, 44100, 32), flt(32, 1))),
        ("float64", _riff(_fmt(3, 1, 44100, 64), flt(64, 1))),
        ("pcm16-3ch", _riff(_fmt(1, 3, 44100, 16), pcm(16, 3))),
        ("float64-2ch", _riff(_fmt(3, 2, 44100, 64), flt(64, 2))),
        ("extensible-pcm24-2ch", _riff(_extensible(1, 2, 44100, 24), pcm(24, 2))),
        ("extensible-float32", _riff(_extensible(3, 1, 44100, 32), flt(32, 1))),
        ("odd-chunk", _riff(_fmt(1, 1, 44100, 16), pcm(16, 1), listing)),
        ("truncated", _riff(_fmt(1, 2, 44100, 16), pcm(16, 2))),
        ("48khz-2ch", _riff(_fmt(1, 2, 48000, 16), pcm(16, 2))),
    ]
    return [pytest.param(name, raw, id=name) for name, raw in layouts]


@pytest.mark.parametrize("name, raw", _formats())
def test_reader_slices_match_read_wav(tmp_path, monkeypatch, name, raw):
    monkeypatch.setattr(audio_io, "CHUNK", 97)  # decoded in many pieces
    _assert_slices_match(tmp_path, name, raw)


def test_pieces_of_one_frame_below_the_channel_count(tmp_path, monkeypatch):
    """A CHUNK below the channel count decodes a frame at a time."""
    monkeypatch.setattr(audio_io, "CHUNK", 2)
    name, raw = next(p.values for p in _formats() if p.id == "pcm16-3ch")
    reads, real = [], audio_io._read_exact

    def read_exact(fh, n, path):
        reads.append(n)
        return real(fh, n, path)

    monkeypatch.setattr(audio_io, "_read_exact", read_exact)
    _assert_slices_match(tmp_path, name, raw)
    assert 3 * 2 in reads and set(reads) <= {3 * 2, 8}  # one frame, or a chunk header


def _assert_slices_match(tmp_path, name, raw):
    path = tmp_path / f"{name}.wav"
    path.write_bytes(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns about the LIST chunk
        full = _scipy_read(path)
    if name == "truncated":  # 7 bytes short: one whole 4-byte frame and part of another
        path.write_bytes(raw[:-7])
        full = full[:-2]
    assert np.array_equal(read_wav(path), full)
    reader = WavReader(path)
    n = len(full)
    assert len(reader) == n
    for lo, hi in [(0, n), (0, 1), (3, 17), (500, 999), (n - 5, n + 10), (n + 3, n + 9), (7, 3)]:
        part = reader[lo:hi]
        assert part.dtype == np.float64
        assert np.array_equal(part, full[lo:hi]), (lo, hi)


def test_reader_refuses_a_step(tmp_path):
    path = tmp_path / "x.wav"
    write_wav(path, np.zeros(10))
    with pytest.raises(ValueError, match="step"):
        WavReader(path)[::2]


@pytest.mark.parametrize("where", [0, 4096, 3 * 4096 + 99])
def test_nan_anywhere_refused_on_first_read(tmp_path, monkeypatch, where):
    """3 x 4096 + 100 samples: the last 100 lie past the last full chroma
    frame, so no STFT frame holds them; the walk over the file still reads
    them, and its read refuses the NaN. Opening reads the header alone."""
    monkeypatch.setattr(audio_io, "CHUNK", 1000)
    monkeypatch.setattr(metrics, "CHUNK", 1000)  # a walk of several blocks
    samples = np.zeros(3 * 4096 + 100)
    samples[where] = np.nan
    path = tmp_path / "nan.wav"
    write_wav(path, samples)
    reader = WavReader(path)
    assert len(reader) == len(samples)
    for read in (metrics.chromagram, metrics._onset_envelope, lambda r: read_wav(r.path)):
        with pytest.raises(ValueError, match="non-finite") as info:
            read(reader)
        assert str(path) in str(info.value)


@pytest.mark.parametrize("channels", range(1, 10))
@pytest.mark.parametrize("tag, bits", list(audio_io._DTYPES))
def test_channel_average_keeps_the_bits_of_mean(tmp_path, tag, bits, channels):
    """2 to 7 channels are added column by column and divided: the bits of
    numpy's mean over the channels, signed zeros included, for every format
    read. From 8 channels numpy sums pairwise, and the reader takes mean."""
    rng = np.random.default_rng(100 * bits + channels)
    n = 4000
    if tag == 1:
        ints = rng.integers(-(2 ** (bits - 1)), 2 ** (bits - 1), (n, channels))
        ints[:5] = 0
        if bits == 24:  # the low 3 bytes of each int32, as the file holds them
            raw = ints.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
            decoded = ints * 256 / 2.0**31
        else:
            raw = ints.astype(f"<i{bits // 8}").tobytes()
            decoded = ints / _PCM_SCALE[bits]
    else:
        values = rng.standard_normal((n, channels)) * 10.0 ** rng.integers(-6, 2, (n, channels))
        if channels > 1:  # a mono file has no mean, so it keeps a -0.0
            values[:5] = -0.0  # every channel -0.0
            values[5:10, 0] = -0.0  # -0.0 beside +0.0
            values[5:10, 1:] = 0.0
        raw = values.astype(f"<f{bits // 8}").tobytes()
        decoded = values.astype(f"<f{bits // 8}").astype(np.float64)
    path = tmp_path / "x.wav"
    path.write_bytes(_riff(_fmt(tag, channels, 44100, bits), raw))
    assert read_wav(path).tobytes() == decoded.mean(axis=1).tobytes()


def test_overflowing_channel_mean_refused(tmp_path):
    """Two finite float64 channels whose mean overflows to inf: refused by
    the first read, as the walk makes it and as read_wav does."""
    path = tmp_path / "big.wav"
    path.write_bytes(_riff(_fmt(3, 2, 44100, 64), np.full(20, 1.7e308).astype("<f8").tobytes()))
    reader = WavReader(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for read in (metrics.chromagram, lambda r: read_wav(r.path)):
            with pytest.raises(ValueError, match="non-finite") as info:
                read(reader)
            assert str(path) in str(info.value)


def test_file_truncated_after_open(tmp_path):
    path = tmp_path / "x.wav"
    write_wav(path, np.linspace(-0.5, 0.5, 5000))
    reader = WavReader(path)
    path.write_bytes(path.read_bytes()[:2000])
    assert np.array_equal(reader[:10], np.linspace(-0.5, 0.5, 5000)[:10].astype(np.float32))
    with pytest.raises(ValueError, match="ended") as info:
        reader[4000:4100]
    assert str(path) in str(info.value)


def test_huge_fmt_size_fails_without_allocating(tmp_path):
    """A 60-byte file whose fmt chunk claims 0xFFFFFFF0 bytes: the walk
    reads a few bytes of it and seeks past the end of the file."""
    raw = bytearray(_riff(_fmt(1, 1, 44100, 16), bytes(16)))
    struct.pack_into("<I", raw, 16, 0xFFFFFFF0)
    path = tmp_path / "huge.wav"
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="no data chunk") as info:
            WavReader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(path) in str(info.value)
    assert peak < 1 << 20
