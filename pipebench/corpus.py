"""Seeded synthetic corpus: beat-grid piano scores, a dataset registry,
speed/mistake-corrupted performances and Gaussian embedding sets.

Everything is built in-process from one seed with encore's own writers
(``write_midi``, ``stretch``, ``corrupt``, ``write_embeddings``), so the
benchmark downloads nothing. Note times are whole ticks of write_midi's
default grid (480 ppq at 120 BPM, 960 ticks per second), which parse back
to exactly ``tick / 960`` seconds; the output checks can therefore count
the generated notes per window without any rounding slack.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from encore.audio_io import write_wav
from encore.augment import SPEED_TIERS, MistakeConfig, corrupt, stretch
from encore.metrics import EmbeddingSet, write_embeddings
from encore.notes import Note, NoteSequence
from encore.smf import write_midi

TICKS_PER_SECOND = 960
WINDOW_SECONDS = 10
# every tempo here gives a whole number of ticks per sixteenth
BPM_CHOICES = (120, 144, 150, 160)
NOTES_PER_SECOND = 8.0
HOLD_SECONDS = (0.5, 1.0, 2.0, 4.0)
# the closing note ends every score exactly at its nominal length; its
# pitch is kept out of the generated ranges so it never collides
_CLOSING_PITCH = 24
EMBEDDING_DIM = 16
EMBEDDING_ROWS = 256


@dataclass(frozen=True)
class Score:
    """A generated score with what the output checks need to know about it."""

    name: str
    seconds: int
    bpm: int
    start_ticks: tuple[int, ...]
    seq: NoteSequence

    def starts_per_window(self) -> list[int]:
        """Generated note onsets per 10 s window (the tokenizer's default)."""
        counts = [0] * -(-self.seconds // WINDOW_SECONDS)
        for tick in self.start_ticks:
            counts[tick // (WINDOW_SECONDS * TICKS_PER_SECOND)] += 1
        return counts


def make_score(rng: np.random.Generator, seconds: int, name: str) -> Score:
    """A piano score at about NOTES_PER_SECOND whatever the tempo.

    Every onset sits on a beat, so the tempo is unambiguous to the tempo
    estimator: a bass note and a chord held up to four seconds (notes cross
    window edges), sized to the density target, plus a melody note of one
    to four sixteenths.
    """
    bpm = int(rng.choice(BPM_CHOICES))
    beat = 60 * TICKS_PER_SECOND // bpm
    step = beat // 4
    total = seconds * TICKS_PER_SECOND
    per_beat = NOTES_PER_SECOND * 60.0 / bpm
    busy_until = {}
    notes = []

    def place(tick, low, high, length, velocity):
        for _ in range(4):
            pitch = int(rng.integers(low, high))
            if busy_until.get(pitch, -1) <= tick:
                end = min(tick + length, total)
                busy_until[pitch] = end
                notes.append((tick, pitch, end, velocity))
                return

    for k in range(total // beat - 1):
        tick = k * beat
        accent = 20 if k % 4 == 0 else 0
        # hold lengths are drawn in seconds, so the rendering cost per
        # second of audio does not depend on the tempo
        held = beat * max(1, round(float(rng.choice(HOLD_SECONDS)) * bpm / 60))
        size = int(per_beat) + (rng.random() < per_beat % 1)
        place(tick, 36, 55, held, 80 + accent + int(rng.integers(0, 10)))
        for _ in range(size - 2):
            place(tick, 55, 84, held, 70 + accent + int(rng.integers(0, 10)))
        place(tick, 84, 100, step * int(rng.integers(1, 5)), 50 + int(rng.integers(0, 20)))
    notes.append((max(total - beat, 0), _CLOSING_PITCH, total, 60))
    seq = NoteSequence(
        [Note(start=a / TICKS_PER_SECOND, pitch=p, end=b / TICKS_PER_SECOND, velocity=v)
         for a, p, b, v in notes],
        source_id=name,
    )
    return Score(name, seconds, bpm, tuple(a for a, _, _, _ in notes), seq)


def write_scores(rng, lengths, directory: Path, prefix: str) -> list[Score]:
    directory.mkdir(parents=True, exist_ok=True)
    scores = []
    for i, seconds in enumerate(lengths):
        score = make_score(rng, seconds, f"{prefix}{i:03d}")
        (directory / f"{score.name}.mid").write_bytes(write_midi(score.seq))
        scores.append(score)
    return scores


def _ratio(rng, tier) -> float:
    low, high = tier.ratio_range
    # stay off the shared tier boundaries so keyword lookup is unambiguous
    return float(rng.uniform(low + 0.01, high - 0.01))


def write_registry(rng, scores: list[Score], root: Path) -> Path:
    """Split ``scores`` over a stage-0 synthesis dataset, a stage-2
    performance dataset with per-window alignment sidecars, and a stage-3
    dataset; returns the registry path. Target audio files only have to
    exist, so each is a one-sample placeholder."""
    layout = (
        ("synth0", 0, "score", "synth_audio"),
        ("perf2", 2, "performance", "perf_audio"),
        ("mistake3", 3, "score", "synth_audio"),
    )
    (root / "targets").mkdir(parents=True, exist_ok=True)
    (root / "meta").mkdir(parents=True, exist_ok=True)
    rows = []
    for d, (name, stage, input_kind, target_kind) in enumerate(layout):
        lines = []
        for score in scores[d :: len(layout)]:
            audio = f"targets/{score.name}.wav"
            write_wav(root / audio, np.zeros(1))
            pair = {"midi": f"scores/{score.name}.mid", "audio": audio}
            if target_kind == "perf_audio":
                ratio = _ratio(rng, SPEED_TIERS[int(rng.integers(len(SPEED_TIERS)))])
                windows = -(-score.seconds // WINDOW_SECONDS)
                meta = {
                    "title": f"Study {score.name}",
                    "composer": "Generated",
                    "alignment": [
                        [k * WINDOW_SECONDS, k * WINDOW_SECONDS * ratio,
                         (k + 1) * WINDOW_SECONDS * ratio]
                        for k in range(windows)
                    ],
                }
                pair["metadata"] = f"meta/{score.name}.json"
                (root / pair["metadata"]).write_text(json.dumps(meta))
            lines.append(json.dumps(pair))
        (root / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
        rows.append({
            "name": name, "stage": stage, "input_kind": input_kind,
            "target_kind": target_kind, "instrumentation": "piano",
            "root": ".", "pair_index": f"{name}.jsonl",
        })
    path = root / "registry.json"
    path.write_text(json.dumps({"datasets": rows}, indent=1))
    return path


@dataclass(frozen=True)
class EvalSet:
    """MIDI inputs for ``synth`` plus the pair CSVs ``evaluate`` reads.
    The audio pairs name ``synth/<midi stem>.wav``, relative to wherever
    ``pairs_csv`` is copied next to synth's output directory."""

    midi: list[Path]
    pairs_csv: Path
    embedding_csv: Path
    rows: tuple[tuple[str, str], ...]  # (output, reference) WAV names per pair

    @property
    def pairs(self) -> int:
        return len(self.rows)

    def distinct_wavs(self) -> int:
        return len({name for row in self.rows for name in row})

    def useful_reads(self) -> int:
        """Reads a pair needs: one per distinct WAV in it."""
        return sum(len(set(row)) for row in self.rows)


def _mirrored_tiers(rng, count: int) -> list:
    """Speed tiers for ``count`` pairs, drawn as slow/fast mirror images
    (tier i with tier 5 - i), so the total stretched length, and with it
    the work per run, barely depends on the seed."""
    last = len(SPEED_TIERS) - 1
    order = []
    for i in rng.permutation(len(SPEED_TIERS) // 2):
        mirror = [int(i), last - int(i)]
        order += mirror[:: 1 if rng.random() < 0.5 else -1]
    if count % 2 or count > len(order):
        raise ValueError(f"need an even number of pairs up to {len(order)}, got {count}")
    return [SPEED_TIERS[i] for i in order[:count]]


def write_eval_set(rng, scores: list[Score], identity: Score, root: Path) -> EvalSet:
    """Reference = the score; output = corrupt(stretch(score, r)) with r
    drawn from a speed tier (see ``_mirrored_tiers``). ``identity`` forms
    the identity pair (output = reference); it should outlast every
    stretched output so that it alone sets the peak memory. Half the rows
    carry score_bpm. Fréchet compares one Gaussian embedding set per side,
    plus the reference set against itself."""
    midi_dir = root / "midi"
    midi_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    midi = []
    for i, (score, tier) in enumerate(zip(scores, _mirrored_tiers(rng, len(scores)))):
        ref = f"ref_{score.name}"
        out = f"out_{score.name}"
        ratio = _ratio(rng, tier)
        performed, _ = corrupt(
            stretch(score.seq, ratio), MistakeConfig(seed=int(rng.integers(2**32)))
        )
        (midi_dir / f"{ref}.mid").write_bytes(write_midi(score.seq))
        (midi_dir / f"{out}.mid").write_bytes(write_midi(performed))
        midi += [midi_dir / f"{ref}.mid", midi_dir / f"{out}.mid"]
        bpm = score.bpm if i % 2 == 0 else ""
        rows.append([score.name, f"synth/{out}.wav", f"synth/{ref}.wav", repr(ratio), bpm])
    ref = f"ref_{identity.name}"
    (midi_dir / f"{ref}.mid").write_bytes(write_midi(identity.seq))
    midi.append(midi_dir / f"{ref}.mid")
    rows.append(["identity", f"synth/{ref}.wav", f"synth/{ref}.wav", "1.0", identity.bpm])
    pairs_csv = root / "pairs.csv"
    _write_csv(pairs_csv, rows)

    emb_dir = root / "embeddings"
    emb_dir.mkdir(parents=True, exist_ok=True)
    shift = rng.normal(0.0, 0.5, EMBEDDING_DIM)
    for side, mean in (("output", shift), ("reference", np.zeros(EMBEDDING_DIM))):
        vectors = rng.normal(mean, 1.0, (EMBEDDING_ROWS, EMBEDDING_DIM))
        write_embeddings(emb_dir / f"{side}.emb", EmbeddingSet(vectors))
    embedding_csv = emb_dir / "pairs.csv"
    _write_csv(embedding_csv, [
        ["sets", "output.emb", "reference.emb", "1.0", ""],
        ["identity", "reference.emb", "reference.emb", "1.0", ""],
    ])
    return EvalSet(midi, pairs_csv, embedding_csv,
                   tuple((Path(r[1]).name, Path(r[2]).name) for r in rows))


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_id", "output", "reference", "ratio", "score_bpm"])
        writer.writerows(rows)
