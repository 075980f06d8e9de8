"""Minimal additive synthesizer.

Renders a NoteSequence to audio as summed harmonic sine partials with a
linear attack/release envelope.  The point is not musical quality: the
output has a predictable spectrum (partial k of a note sits at exactly
k times its equal-tempered fundamental), which makes rendered audio a
usable ground truth for the chroma and tempo metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import render_notes
from .notes import NoteSequence

# Notes shorter than this are rendered at this length so they remain
# audible; the envelope is shrunk proportionally to fit short notes.
MIN_NOTE_SECONDS = 0.001

# Longest buffer render() allocates: 4 h at 44.1 kHz is about 5 GB of
# float64.  A crafted MIDI can put a note billions of seconds out.
MAX_RENDER_SECONDS = 4 * 3600.0

_CLICK_SECONDS = 0.01
_CLICK_SEED = 0x5EED


class RenderTooLongError(ValueError):
    """The sequence would render to more than MAX_RENDER_SECONDS of audio."""


@dataclass(frozen=True)
class SynthConfig:
    sample_rate: int = 44100
    partials: int = 4
    attack: float = 0.01
    release: float = 0.05
    gain: float = 0.5

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.partials < 1:
            raise ValueError(f"partials must be >= 1, got {self.partials}")
        if self.attack < 0 or self.release < 0:
            raise ValueError("attack and release must be non-negative")
        if not 0.0 <= self.gain <= 1.0:
            raise ValueError(f"gain must be in [0, 1], got {self.gain}")


def _pitch_hz(pitch: int) -> float:
    return 440.0 * 2.0 ** ((pitch - 69) / 12.0)


def render(seq: NoteSequence, cfg: SynthConfig = SynthConfig()) -> np.ndarray:
    """Render ``seq`` to a mono float64 buffer at ``cfg.sample_rate``.

    Each note becomes ``cfg.partials`` harmonic sines with amplitudes 1/k
    (partials at or above Nyquist are dropped), shaped by a linear
    attack/release envelope and weighted by velocity/127 times
    ``cfg.gain``.  Notes mix additively.  If the mix would clip, the
    whole buffer is rescaled to a 0.9 peak; otherwise samples are
    returned untouched, so rendering is linear in the notes.

    Raises RenderTooLongError, before allocating, if the buffer would be
    longer than ``MAX_RENDER_SECONDS``.
    """
    sr = float(cfg.sample_rate)
    durs = np.array(
        [max(n.end - n.start, MIN_NOTE_SECONDS) for n in seq.notes], dtype=np.float64
    )
    starts = np.array([n.start for n in seq.notes], dtype=np.float64)
    tail = float(np.max(starts + durs)) if len(seq.notes) else 0.0
    seconds = max(seq.total_duration, tail)
    if seconds > MAX_RENDER_SECONDS:
        raise RenderTooLongError(
            f"{seq.source_id!r}: {seconds:.6g} s of audio exceeds"
            f" the {MAX_RENDER_SECONDS:g} s render limit"
        )
    total = int(np.ceil(seconds * sr))
    out = np.zeros(total, dtype=np.float64)
    if len(seq.notes):
        freqs = np.array([_pitch_hz(n.pitch) for n in seq.notes], dtype=np.float64)
        amps = np.array(
            [n.velocity / 127.0 * cfg.gain for n in seq.notes], dtype=np.float64
        )
        render_notes(
            starts, durs, freqs, amps, cfg.partials, cfg.attack, cfg.release, sr, out
        )
    peak = float(np.max(np.abs(out))) if total else 0.0
    if peak > 1.0:
        out *= 0.9 / peak
    return out


def render_clicks(
    bpm: float, duration: float, sample_rate: int = 44100
) -> np.ndarray:
    """Render a click track: one short noise burst per beat at 60/bpm."""
    if not 30.0 <= bpm <= 300.0:
        raise ValueError(f"bpm must be in [30, 300], got {bpm}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    sr = float(sample_rate)
    out = np.zeros(int(np.ceil(duration * sr)), dtype=np.float64)
    burst_len = int(_CLICK_SECONDS * sr)
    # one fixed burst reused for every click keeps the output deterministic
    rng = np.random.default_rng(_CLICK_SEED)
    burst = rng.uniform(-1.0, 1.0, burst_len)
    burst *= np.linspace(1.0, 0.0, burst_len)  # decaying click
    period = 60.0 / bpm
    beat = 0
    while True:
        i0 = int(round(beat * period * sr))
        if i0 >= out.shape[0]:
            break
        i1 = min(i0 + burst_len, out.shape[0])
        out[i0:i1] += burst[: i1 - i0]
        beat += 1
    peak = float(np.max(np.abs(out)))
    if peak > 1.0:
        out *= 0.9 / peak
    return out
