"""Output checks that hold on any seed.

Each check is one attempted item; a failed one counts against
``ok_ratio`` and makes the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from encore.audio_io import ANALYSIS_RATE, read_wav
from encore.smf import parse_midi
from encore.synth import MIN_NOTE_SECONDS
from encore.tokenizer import TokenStream, decode

from corpus import TICKS_PER_SECOND, WINDOW_SECONDS

# records when and how a command ran, not what it made
_RUN_RECORD = "run_record.json"


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every output file under ``root`` but the run record."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != _RUN_RECORD
    }


def same_tree(checks: Checks, a: Path, b: Path, what: str) -> None:
    checks.expect(tree_digest(a) == tree_digest(b), f"{what}: {b} differs from {a}")


def _decode_file(checks: Checks, path: Path, what: str):
    try:
        return decode(TokenStream.from_bytes(path.read_bytes()), strict=True)
    except (OSError, ValueError) as exc:
        checks.expect(False, f"{what}: {path.name} does not decode: {exc}")
        return None


def tokenize(checks: Checks, out: Path, scores) -> None:
    """Window count = ceil(duration / 10); every .tok decodes strictly; each
    window decodes to as many notes as the generator started in it."""
    rows = {Path(r["file"]).stem: r for r in json.loads((out / "index.json").read_text())}
    for score in scores:
        row = rows.get(score.name, {})
        windows = math.ceil(score.seconds / WINDOW_SECONDS)
        if not checks.expect(
            row.get("status") == "ok" and row.get("windows") == windows,
            f"tokenize {score.name}: {row} (expected {windows} windows)",
        ):
            continue
        for k, expected in enumerate(score.starts_per_window()):
            window = _decode_file(checks, out / f"{score.name}_w{k:04d}.tok", "tokenize")
            if window is not None:
                checks.expect(
                    len(window.notes) == expected,
                    f"tokenize {score.name} window {k}: {len(window.notes)} notes, "
                    f"generated {expected}",
                )


def mistakes(checks: Checks, out: Path, scores) -> None:
    """notes out = notes in + mistouch - ghost - block_removed."""
    rows = {Path(r["file"]).stem: r for r in json.loads((out / "report.json").read_text())}
    for score in scores:
        row = rows.get(score.name, {})
        if not checks.expect(row.get("status") == "ok", f"mistakes {score.name}: {row}"):
            continue
        got = len(parse_midi((out / f"{score.name}_mistakes.mid").read_bytes()))
        want = len(score.seq) + row["mistouch"] - row["ghost"] - row["block_removed"]
        checks.expect(got == want, f"mistakes {score.name}: {got} notes, report implies {want}")


def speed(checks: Checks, out: Path, scores) -> None:
    """Output duration = ratio x input duration to within one MIDI tick."""
    rows = {Path(r["file"]).stem: r for r in json.loads((out / "report.json").read_text())}
    for score in scores:
        row = rows.get(score.name, {})
        if not checks.expect(row.get("status") == "ok", f"speed {score.name}: {row}"):
            continue
        got = parse_midi((out / f"{score.name}_speed.mid").read_bytes()).total_duration
        want = row["ratio"] * score.seconds
        checks.expect(
            abs(got - want) <= 1.0 / TICKS_PER_SECOND,
            f"speed {score.name}: duration {got}, ratio {row['ratio']} implies {want}",
        )


def manifest(checks: Checks, out: Path, scores) -> None:
    """One record per window; every token file exists and decodes; the
    sidecar's record count matches the line count."""
    lines = (out / "merged.jsonl").read_text().splitlines()
    meta = json.loads((out / "merged.meta.json").read_text())
    windows = sum(math.ceil(s.seconds / WINDOW_SECONDS) for s in scores)
    checks.expect(
        meta.get("record_count") == len(lines) == windows,
        f"manifest: meta {meta.get('record_count')}, {len(lines)} lines, {windows} windows",
    )
    for line in lines:
        _decode_file(checks, out / json.loads(line)["token_file"], "manifest")


def synth(checks: Checks, out: Path, midi_paths) -> dict[str, int]:
    """WAV length = ceil(max(duration, tail) * 44100); samples finite, |x| <= 1.
    Returns the sample count of every WAV by file name."""
    lengths = {}
    for midi in midi_paths:
        seq = parse_midi(midi.read_bytes())
        tail = max((n.start + max(n.end - n.start, MIN_NOTE_SECONDS) for n in seq.notes),
                   default=0.0)
        want = math.ceil(max(seq.total_duration, tail) * ANALYSIS_RATE)
        audio = read_wav(out / f"{midi.stem}.wav")
        lengths[f"{midi.stem}.wav"] = audio.shape[0]
        checks.expect(
            audio.shape[0] == want and bool(np.isfinite(audio).all())
            and float(np.abs(audio).max()) <= 1.0,
            f"synth {midi.stem}: {audio.shape[0]} samples (want {want}), "
            f"peak {np.abs(audio).max()}",
        )
    return lengths


def _results(path: Path) -> dict[tuple[str, str], float]:
    with open(path, newline="") as fh:
        return {(r["pair_id"], r["metric"]): float(r["value"]) for r in csv.DictReader(fh)}


def evaluate(checks: Checks, audio_csv: Path, frechet_csv: Path, eval_set) -> None:
    """One finite value per pair and metric; the identity pair scores
    chroma >= 0.999, tempo deviation <= 0.05 and Fréchet <= 1e-6."""
    audio = _results(audio_csv)
    frechet = _results(frechet_csv)
    checks.expect(
        len(audio) == 2 * eval_set.pairs and len(frechet) == 2,
        f"evaluate: {len(audio)} audio rows for {eval_set.pairs} pairs, "
        f"{len(frechet)} Frechet rows",
    )
    for (pair, metric), value in {**audio, **frechet}.items():
        checks.expect(math.isfinite(value), f"evaluate {pair} {metric}: {value}")
    checks.expect(audio.get(("identity", "chroma"), 0.0) >= 0.999,
                  f"evaluate identity chroma {audio.get(('identity', 'chroma'))}")
    checks.expect(audio.get(("identity", "tempo"), 1.0) <= 0.05,
                  f"evaluate identity tempo {audio.get(('identity', 'tempo'))}")
    checks.expect(frechet.get(("identity", "frechet"), 1.0) <= 1e-6,
                  f"evaluate identity frechet {frechet.get(('identity', 'frechet'))}")
