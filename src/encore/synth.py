"""Minimal additive synthesizer.

Renders a NoteSequence to audio as summed harmonic sine partials with a
linear attack/release envelope.  The point is not musical quality: the
output has a predictable spectrum (partial k of a note sits at exactly
k times its equal-tempered fundamental), which makes rendered audio a
usable ground truth for the chroma and tempo metrics.

Audio is made in chunks of audio_io.CHUNK samples.  render and
render_clicks join a rendering's chunks into one array; write_rendering
streams them to a WAV file, holding a few chunks whatever the length,
with the same bytes.
"""

from __future__ import annotations

import os
from collections.abc import Iterator

import numpy as np

from ._kernels import NoteRenderer
from .audio_io import ANALYSIS_RATE, CHUNK, write_wav_blocks
from .notes import MAX_SECONDS, NoteSequence
from .seeds import Rng

# Notes shorter than this are rendered at this length so they remain
# audible; the envelope is shrunk proportionally to fit short notes.
MIN_NOTE_SECONDS = 0.001

# The voice: harmonic partials per note, linear attack and release in
# seconds, and the amplitude of a velocity-127 note.
PARTIALS = 4
ATTACK = 0.01
RELEASE = 0.05
GAIN = 0.5

_CLICK_SECONDS = 0.01
_CLICK_SEED = 0x5EED


def _pitch_hz(pitch: int) -> float:
    return 440.0 * 2.0 ** ((pitch - 69) / 12.0)


def _gain(peak: float) -> float:
    """The factor applied to every sample: a mix that would clip is rescaled
    to a 0.9 peak, any other is left as it is (times 1.0, exactly)."""
    return 0.9 / peak if peak > 1.0 else 1.0


def _chunks(total: int, fill) -> Iterator[np.ndarray]:
    """Zeroed chunks covering samples [0, total), each passed to
    ``fill(chunk, lo)`` before it is yielded."""
    for lo in range(0, total, CHUNK):
        chunk = np.zeros(min(CHUNK, total - lo))
        fill(chunk, lo)
        yield chunk


def _whole(chunks: Iterator[np.ndarray]) -> np.ndarray:
    out = np.concatenate([np.zeros(0), *chunks])
    out *= _gain(float(np.max(np.abs(out))) if out.size else 0.0)
    return out


def note_chunks(seq: NoteSequence) -> Iterator[np.ndarray]:
    """The unscaled float64 samples of ``seq`` at ANALYSIS_RATE, in chunks of
    CHUNK samples (the last may be shorter), made as they are iterated; see
    render."""
    sr = float(ANALYSIS_RATE)
    durs = np.array(
        [max(n.end - n.start, MIN_NOTE_SECONDS) for n in seq.notes], dtype=np.float64
    )
    starts = np.array([n.start for n in seq.notes], dtype=np.float64)
    tail = float(np.max(starts + durs)) if len(seq.notes) else 0.0
    total = int(np.ceil(max(seq.total_duration, tail) * sr))
    freqs = np.array([_pitch_hz(n.pitch) for n in seq.notes], dtype=np.float64)
    amps = np.array([n.velocity / 127.0 * GAIN for n in seq.notes], dtype=np.float64)
    notes = NoteRenderer(starts, durs, freqs, amps, PARTIALS, ATTACK, RELEASE, sr)
    return _chunks(total, notes.render)


def render(seq: NoteSequence) -> np.ndarray:
    """Render ``seq`` to a mono float64 buffer at ANALYSIS_RATE.

    Each note becomes PARTIALS harmonic sines with amplitudes 1/k
    (partials at or above Nyquist are dropped), shaped by a linear
    ATTACK/RELEASE envelope and weighted by velocity/127 times GAIN.
    Notes mix additively.  If the mix would clip, the whole buffer is
    rescaled to a 0.9 peak; otherwise samples are returned untouched, so
    rendering is linear in the notes.  The buffer holds 8 bytes per
    sample, so a long piece is better streamed to a file with
    ``write_rendering(path, note_chunks(seq))``, which writes the same
    samples and holds a few chunks.
    """
    return _whole(note_chunks(seq))


def click_chunks(bpm: float, duration: float) -> Iterator[np.ndarray]:
    """A click track at ANALYSIS_RATE, chunk by chunk: one short noise burst
    per beat.  ``duration`` is in seconds, at most ``notes.MAX_SECONDS``;
    both arguments are checked here, before any chunk is made."""
    if not 30.0 <= bpm <= 300.0:
        raise ValueError(f"bpm must be in [30, 300], got {bpm}")
    if not 0 < duration <= MAX_SECONDS:
        raise ValueError(f"duration must be in (0, {MAX_SECONDS:g}] s, got {duration}")
    sr = float(ANALYSIS_RATE)
    total = int(np.ceil(duration * sr))
    burst_len = int(_CLICK_SECONDS * sr)
    # one fixed burst reused for every click keeps the output deterministic
    rng = Rng(_CLICK_SEED)
    burst = np.array([rng.uniform(-1.0, 1.0) for _ in range(burst_len)])
    burst *= np.linspace(1.0, 0.0, burst_len)  # decaying click
    period = 60.0 / bpm

    def add_bursts(out, lo):
        hi = lo + out.shape[0]
        k = max(0, int((lo - burst_len) / (period * sr)))  # no earlier burst reaches lo
        while (i0 := int(round(k * period * sr))) < hi:
            i1 = min(i0 + burst_len, hi)
            if i1 > lo:
                out[max(i0, lo) - lo : i1 - lo] += burst[max(i0, lo) - i0 : i1 - i0]
            k += 1

    return _chunks(total, add_bursts)


def render_clicks(bpm: float, duration: float) -> np.ndarray:
    """Render a click track at ANALYSIS_RATE: one short noise burst per beat.

    ``duration`` is in seconds, at most ``notes.MAX_SECONDS``.
    """
    return _whole(click_chunks(bpm, duration))


def write_rendering(path: str | os.PathLike, chunks: Iterator[np.ndarray]) -> int:
    """Write unscaled ``chunks`` as a float32 WAV at ``path``, scaled as
    render scales them, and return the sample count.

    The peak scaling needs the whole file's peak, so the unscaled chunks
    go to an unlinked temporary file in ``path``'s directory (8 bytes per
    sample) while the peak is found, and are read back, scaled and written
    one chunk at a time.  The WAV appears only once it is complete.
    """
    import tempfile  # kept off the start-up path

    with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))) as spill:
        peak, samples = 0.0, 0
        for chunk in chunks:
            peak = max(peak, float(np.max(np.abs(chunk))))
            samples += len(chunk)
            spill.write(chunk.data)
        spill.seek(0)
        write_wav_blocks(path, samples, _scaled(spill, samples, _gain(peak)))
    return samples


def _scaled(spill, samples: int, gain: float):
    """The spilled samples times gain, as float32 blocks of CHUNK samples;
    a short spill gives fewer samples, which the WAV writer refuses."""
    for _ in range(0, samples, CHUNK):
        x = np.fromfile(spill, count=CHUNK)
        x *= gain
        yield x.astype("<f4")
