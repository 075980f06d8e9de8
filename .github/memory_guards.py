"""Peak-RSS guards: each row builds an input, runs one encore command on it
and fails if the command exits non-zero or its peak RSS passes the row's
limit.

    python3 .github/memory_guards.py

Commands run as ``python -m encore.cli`` on this checkout's ``src/``, each
started by ``pipebench/spawner.py``'s small helper process. The helper reads
the one child's peak with ``os.wait4``, so a row's reading is its command's
own: not that of the process that built the input, nor an earlier row's.
One line per row is printed; the exit code is 1 if any row failed.
"""

from __future__ import annotations

import os
import struct
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "pipebench")]

from encore.notes import Note, NoteSequence  # noqa: E402
from encore.smf import write_midi  # noqa: E402
from encore.synth import click_chunks, write_rendering  # noqa: E402
from spawner import Spawner  # noqa: E402

TIMEOUT = 600.0


def _self_pair(d: Path) -> None:
    (d / "pairs.csv").write_text("pair_id,output,reference\np,in.wav,in.wav\n")


def clicks(d: Path, seconds: float) -> None:
    """The 120 BPM click track ``synth --clicks`` renders, paired with itself."""
    write_rendering(d / "in.wav", click_chunks(120.0, seconds))
    _self_pair(d)


def pcm16(d: Path, rate: int, channels: int, frames: int,
          tone: Callable[[np.ndarray], np.ndarray]) -> None:
    """A 16-bit PCM WAV of ``tone`` at each frame's time, repeated over
    ``channels`` and written 10 s at a time, paired with itself."""
    size = 2 * channels * frames
    with open(d / "in.wav", "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + size) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate,
                                       2 * channels * rate, 2 * channels, 16))
        fh.write(b"data" + struct.pack("<I", size))
        for at in range(0, frames, 10 * rate):
            t = np.arange(at, min(frames, at + 10 * rate)) / rate
            fh.write(np.repeat(np.round(tone(t)).astype("<i2"), channels).tobytes())
    _self_pair(d)


def click_1khz(t: np.ndarray) -> np.ndarray:
    """A 10 ms burst of 1 kHz every 0.5 s."""
    return 16000 * (np.mod(t, 0.5) < 0.01) * np.sin(2 * np.pi * 1000 * t)


def tone_440(t: np.ndarray) -> np.ndarray:
    return 8000 * np.sin(2 * np.pi * 440 * t)


def beat_grid(d: Path, seconds: int) -> None:
    """A score of ``seconds`` with 8 onsets a second, each held 1.5 s."""
    notes = [Note(start=k / 8, pitch=36 + 7 * k % 61, end=k / 8 + 1.5, velocity=90)
             for k in range(8 * seconds - 12)]
    seq = NoteSequence(notes=notes, total_duration=float(seconds))
    (d / "in.mid").write_bytes(write_midi(seq))


class Guard(NamedTuple):
    name: str
    build: Callable[[Path], None]
    argv: tuple[str, ...]
    limit_mb: float


EVALUATE = ("evaluate", "--pairs", "pairs.csv", "--strict", "--out", "results.csv", "--metrics")

GUARDS = (
    # on long pairs the DTW's step bytes (one per cell) take over; the n x m
    # distance matrix is never held
    Guard("evaluate chroma,tempo, 2-min self-pair", partial(clicks, seconds=120),
          EVALUATE + ("chroma,tempo",), 64),
    Guard("evaluate chroma,tempo, 10-min self-pair", partial(clicks, seconds=600),
          EVALUATE + ("chroma,tempo",), 300),
    # resampled to 44.1 kHz a slice at a time
    Guard("evaluate tempo, 10-min 48 kHz stereo",
          partial(pcm16, rate=48000, channels=2, frames=600 * 48000, tone=click_1khz),
          EVALUATE + ("tempo",), 150),
    # a 52 MB file, decoded a few hundred KB at a time whatever its width
    Guard("evaluate chroma, 32,767 channels",
          partial(pcm16, rate=44100, channels=32767, frames=793, tone=tone_440),
          EVALUATE + ("chroma",), 100),
    Guard("synth, 20-min score", partial(beat_grid, seconds=1200),
          ("synth", "in.mid", "--strict", "--out", "."), 100),
    # 28,788 notes: a note costs what the tuple of its fields costs, and no
    # symbolic command maps OpenSSL; this read 44-45 MB when a note was a
    # dataclass, and 38 MB before the MIDI reader and writer held less per event
    Guard("augment --mode speed, 60-min score", partial(beat_grid, seconds=3600),
          ("augment", "in.mid", "--mode", "speed", "--strict", "--out", "speed"), 41.5),
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    failed = 0
    for guard in GUARDS:
        with tempfile.TemporaryDirectory(prefix="memory-guard-") as tmp:
            d = Path(tmp)
            guard.build(d)
            with Spawner(env, tmp) as spawner:
                child = spawner.run([sys.executable, "-m", "encore.cli", *guard.argv],
                                    d / "log", TIMEOUT)
            verdict = (f", FAILED with exit {child.code}" if child.code
                       else ", OVER THE LIMIT" if child.rss_mb > guard.limit_mb else "")
            print(f"{guard.name}: peak {child.rss_mb:.1f} MB (limit {guard.limit_mb:g} MB){verdict}",
                  flush=True)
            if child.code:
                print((d / "log").read_text(errors="replace")[-2000:], flush=True)
            failed += bool(verdict)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
