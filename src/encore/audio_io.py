"""WAV ingestion and emission.

ANALYSIS_RATE is the one audio rate: the synthesizer renders at it, WAV
files are written at it, and the metrics assume it.  Readers normalize
everything to mono float64 at that rate.  Multi-channel input is
averaged, integer PCM is scaled to [-1, 1), and other rates are resampled
with a polyphase filter (scipy, imported only when a file needs it).
A WavReader decodes and resamples a slice of a file at a time, so no
file is held whole at any rate; read_wav decodes all of it.  CHUNK samples
bound what any audio stage holds at once, from synth to the metrics.
write_wav_blocks writes a 32-bit float file block by block, and write_wav
writes one array through it.

The codec is a small RIFF/WAVE parser over numpy.  It reads little-endian
RIFF files holding 16-, 24- or 32-bit integer PCM or 32- or 64-bit IEEE
float, with any channel count, in a plain or WAVE_FORMAT_EXTENSIBLE fmt
chunk.  Other chunks are skipped.  RIFX (big-endian), RF64, 8-bit and
64-bit integer files, and rates above 384 kHz, are refused as
unsupported, as are rates below 8 kHz and rates whose reduced ratio to
44.1 kHz has a term above 1280; every standard rate passes.  A truncated
data chunk yields the whole frames present.
Every file read is untrusted: a malformed header, a non-finite sample or
more than notes.MAX_SECONDS of audio raises a ValueError naming the file.
Buffers are sized from the bytes the file holds, never from a header's
length fields, and resampled output stays within the 4 h limit.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .notes import MAX_SECONDS

ANALYSIS_RATE = 44100
CHUNK = 1 << 16  # synth renders chunks of 2**15 to 2**17 samples equally fast
# Highest input rate read; the resampling filter grows with the rate.
_MAX_RATE = 384_000
# Resampling bounds: below 8 kHz a tiny file grows toward the 4 h limit, and
# the filter has about 20 x max(up, down) taps (384 kHz is 147/1280).
_MIN_RATE, _MAX_RATIO_TERM = 8_000, 1280

_CHUNK_HEAD = struct.Struct("<4sI")
_FMT = struct.Struct("<HHIIHH")  # tag, channels, rate, byte rate, block align, bits
# RIFF header, 18-byte fmt chunk with cbSize, fact chunk, data chunk header
_HEADER = struct.Struct("<4sI4s" "4sIHHIIHHH" "4sII" "4sI")
_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_DTYPES = {
    (_PCM, 16): "<i2",
    (_PCM, 24): "<i4",  # 3 bytes per sample, placed in the top of an int32
    (_PCM, 32): "<i4",
    (_FLOAT, 32): "<f4",
    (_FLOAT, 64): "<f8",
}
_PCM_SCALE = {16: 2.0**15, 24: 2.0**31, 32: 2.0**31}
# Bytes of a fmt chunk read, whatever size it claims: WAVE_FORMAT_EXTENSIBLE
# needs 40
_FMT_READ = 64


def _read_fmt(body: bytes, path) -> tuple[int, int, int, int]:
    """(format tag, channels, rate, bits) from a fmt chunk body."""
    if len(body) < _FMT.size:
        raise ValueError(f"{path}: fmt chunk too short ({len(body)} bytes)")
    tag, channels, rate, _, block_align, bits = _FMT.unpack_from(body)
    if tag == _EXTENSIBLE:
        # cbSize, valid bits, channel mask, then the subformat GUID
        if len(body) < 40 or struct.unpack_from("<H", body, 16)[0] < 22:
            raise ValueError(f"{path}: WAVE_FORMAT_EXTENSIBLE fmt chunk too short")
        if body[26:40] == _GUID_TAIL:
            tag = struct.unpack_from("<H", body, 24)[0]
    if channels == 0:
        raise ValueError(f"{path}: zero channels")
    if rate == 0:
        raise ValueError(f"{path}: zero sample rate")
    if (tag, bits) not in _DTYPES or rate > _MAX_RATE:
        raise ValueError(
            f"{path}: unsupported sample format (tag {tag:#06x}, {bits} bits, {rate} Hz)"
        )
    if block_align != channels * bits // 8:
        raise ValueError(
            f"{path}: block align {block_align} does not match {channels} x {bits} bits"
        )
    return tag, channels, rate, bits


def _read_exact(fh, n: int, path) -> bytes:
    data = fh.read(n)
    if len(data) < n:
        raise ValueError(f"{path}: file ended {n - len(data)} bytes early (truncated while read?)")
    return data


def _find_chunks(fh, path) -> tuple[tuple[int, int, int, int], int, int]:
    """The parsed fmt chunk, and the offset and size of the data chunk's
    bytes, cut to what the file holds.  Chunk headers are walked with seeks,
    and no more than _FMT_READ bytes of a fmt chunk are read."""
    file_size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[8:12] != b"WAVE" or head[:4] not in (b"RIFF", b"RIFX", b"RF64"):
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    if head[:4] != b"RIFF":
        raise ValueError(f"{path}: unsupported container {head[:4].decode()}")
    fmt = None
    pos = 12
    while pos + _CHUNK_HEAD.size <= file_size:
        fh.seek(pos)
        chunk_id, size = _CHUNK_HEAD.unpack(_read_exact(fh, _CHUNK_HEAD.size, path))
        pos += _CHUNK_HEAD.size
        if chunk_id == b"data":
            if fmt is None:
                raise ValueError(f"{path}: no fmt chunk before data")
            return fmt, pos, min(size, file_size - pos)
        if chunk_id == b"fmt ":
            fmt = _read_fmt(fh.read(min(size, _FMT_READ)), path)
        pos += size + (size & 1)  # odd-sized chunks carry a pad byte
    raise ValueError(f"{path}: no data chunk")


class WavReader:
    """A WAV file as mono float64 samples at ANALYSIS_RATE, decoded a slice
    at a time.

    ``len(reader)`` is the sample count, and ``reader[lo:hi]`` decodes
    the frames those samples need alone, with the operations a whole-file
    decode applies: view, float64, PCM scale, channel mean and, at another
    rate, the polyphase resample.  Opening checks the header and every
    sample, CHUNK samples at a time, so a non-finite sample is refused up
    front.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = path
        with open(path, "rb") as fh:
            fmt, self._offset, nbytes = _find_chunks(fh, path)
        self._tag, self._channels, rate, self._bits = fmt
        self._frame_bytes = self._channels * self._bits // 8
        frames = nbytes // self._frame_bytes
        if frames == 0:
            raise ValueError(f"{path}: empty audio stream")
        if frames > MAX_SECONDS * rate:
            raise ValueError(
                f"{path}: {frames / rate:.6g} s exceeds the {MAX_SECONDS:g} s input limit"
            )
        g = math.gcd(ANALYSIS_RATE, rate)
        self._up, self._down = up, down = ANALYSIS_RATE // g, rate // g
        if rate < _MIN_RATE or max(up, down) > _MAX_RATIO_TERM:
            raise ValueError(f"{path}: unsupported sample rate {rate} Hz (ratio {up}/{down})")
        self._frames = frames
        if up != down:  # resample_poly's own filter, designed once for every slice
            from scipy.signal import firwin

            self._filter = firwin(20 * max(up, down) + 1, 1 / max(up, down), window=("kaiser", 5.0))
        # the resampled output is checked: finite input can overflow in the filter
        for at in range(0, len(self), CHUNK):
            if not np.isfinite(self[at : at + CHUNK]).all():
                raise ValueError(f"{path}: non-finite samples")

    def __len__(self) -> int:
        return -(-self._frames * self._up // self._down)  # resample_poly's length

    def __getitem__(self, key: slice) -> np.ndarray:
        lo, hi, step = key.indices(len(self))
        if step != 1:
            raise ValueError(f"{self.path}: a WAV reader slices without a step")
        up, down = self._up, self._down
        if up == down:
            return self._decode(lo, max(lo, hi))
        from scipy.signal import resample_poly

        # the input frames the filter reaches on either side, from a start on a
        # multiple of down, which keeps a whole-file resample's output phase
        reach = len(self._filter) // 2 // up + 2
        first = max(0, lo * down // up - reach) // down * down
        stop = min(self._frames, -(-hi * down // up) + reach)
        at = first // down * up
        x = resample_poly(self._decode(first, stop), up, down, window=self._filter)
        return x[lo - at : max(lo, hi) - at]

    def _decode(self, lo: int, hi: int) -> np.ndarray:
        """Frames lo..hi-1 as mono float64, decoded CHUNK // channels frames (one
        at least) at a time: a piece's float64 samples stay within CHUNK."""
        out = np.empty(hi - lo)
        step = max(1, CHUNK // self._channels)
        with open(self.path, "rb") as fh:
            fh.seek(self._offset + lo * self._frame_bytes)
            for at in range(lo, hi, step):
                size = min(step, hi - at) * self._frame_bytes
                raw = np.frombuffer(_read_exact(fh, size, self.path), np.uint8)
                if self._bits == 24:
                    wide = np.zeros((raw.shape[0] // 3, 4), np.uint8)
                    wide[:, 1:] = raw.reshape(-1, 3)
                    raw = wide.ravel()
                samples = raw.view(_DTYPES[self._tag, self._bits]).astype(np.float64)
                if self._tag == _PCM:
                    samples /= _PCM_SCALE[self._bits]
                if self._channels >= 8:  # mean sums 8 or more columns pairwise
                    samples = samples.reshape(-1, self._channels).mean(axis=1)
                elif self._channels > 1:  # mean's bits: the columns added in order
                    frames = samples.reshape(-1, self._channels)
                    samples = frames[:, 0] + frames[:, 1]
                    for c in range(2, self._channels):
                        samples += frames[:, c]
                    samples /= self._channels
                    samples += 0.0  # mean's sum starts at +0.0, so no -0.0 is left
                out[at - lo : at - lo + len(samples)] = samples
        return out


def read_wav(path: str | os.PathLike) -> np.ndarray:
    """Read a WAV file as mono float64 at ANALYSIS_RATE."""
    return WavReader(path)[:]


def write_wav_blocks(path: str | os.PathLike, samples: int, blocks) -> None:
    """Write ``samples`` mono samples, given as an iterable of 1-D blocks, as
    a 32-bit float WAV file at ANALYSIS_RATE.

    The layout is RIFF, an 18-byte fmt chunk (IEEE float, cbSize 0), a
    fact chunk holding the frame count, then data.  The header is written
    first, so the blocks are written as they come.  They go to a temporary
    name next to ``path`` that is renamed to it once every sample is in, so
    a failure part way leaves no WAV.
    """
    if _HEADER.size - 8 + 4 * samples > 0xFFFFFFFF:
        raise ValueError(f"{path}: {samples} samples do not fit a RIFF file")
    header = _HEADER.pack(
        b"RIFF", _HEADER.size - 8 + 4 * samples, b"WAVE",
        b"fmt ", 18, _FLOAT, 1, ANALYSIS_RATE, 4 * ANALYSIS_RATE, 4, 32, 0,
        b"fact", 4, samples,
        b"data", 4 * samples,
    )
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            written = 0
            for block in blocks:
                data = np.ascontiguousarray(block, dtype="<f4")
                if data.ndim != 1:
                    raise ValueError(f"{path}: expected mono samples, got shape {data.shape}")
                written += len(data)
                fh.write(data.data)
        if written != samples:
            raise ValueError(f"{path}: got {written} samples where the header says {samples}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_wav(path: str | os.PathLike, samples: np.ndarray) -> None:
    """Write mono samples as a 32-bit float WAV file at ANALYSIS_RATE."""
    write_wav_blocks(path, len(samples), [samples])
