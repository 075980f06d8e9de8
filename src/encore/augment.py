"""Speed and mistake augmentation of note sequences.

Speed tiers carry the prompt keyword table; mistake corruption follows the
per-note pipeline mistouch -> asynchrony -> substitution -> ghost, then
removes one short time block per five-second span. Every draw comes from
``seeds.Rng``, numpy's PCG64 stream in pure Python, so no numpy is loaded.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import ClassVar

from .notes import Note, NoteSequence
from .seeds import Rng


@dataclass(frozen=True)
class SpeedTier:
    """A named duration-ratio range (> 1 plays slower) with prompt keywords."""

    name: str
    ratio_range: tuple[float, float]
    keywords: tuple[str, ...]


# ordered slowest to fastest; adjacent ranges share their boundary
SPEED_TIERS = (
    SpeedTier(
        "VerySlow",
        (1.8, 2.2),
        ("Twice as slow as", "Significantly slower", "About half the speed of"),
    ),
    SpeedTier("Slow", (1.5, 1.8), ("Considerably slower", "Moving slower")),
    SpeedTier(
        "SlightlySlow",
        (1.2, 1.5),
        (
            "A bit slower than score",
            "Just under the score’s pace",
            "Slightly behind the intended pace",
        ),
    ),
    SpeedTier(
        "Neutral",
        (0.8, 1.2),
        ("At the original speed", "In line with the score’s tempo"),
    ),
    SpeedTier(
        "SlightlyFast",
        (0.6, 0.8),
        ("A bit faster", "Just above the score’s speed", "Slightly faster than score"),
    ),
    SpeedTier("Fast", (0.4, 0.6), ("Notably faster", "Well beyond the original tempo")),
)

TIER_BY_NAME = {tier.name: tier for tier in SPEED_TIERS}
# the envelope the tiers span, 0.4..2.2
RATIO_FLOOR = min(tier.ratio_range[0] for tier in SPEED_TIERS)
RATIO_CEILING = max(tier.ratio_range[1] for tier in SPEED_TIERS)


def stretch(seq: NoteSequence, ratio: float) -> NoteSequence:
    """Scale every note time and the total duration by `ratio`.

    Pitches, velocities and programs are untouched. A known reference tempo
    scales by 1/ratio so the stretched sequence stays self-consistent.
    """
    if not 0 < ratio < math.inf:  # NaN fails too
        raise ValueError(f"ratio must be a positive finite number, got {ratio}")
    notes = [Note(n.start * ratio, n.pitch, n.end * ratio, n.velocity, n.program, n.is_drum)
             for n in seq.notes]
    bpm = None if seq.reference_bpm is None else seq.reference_bpm / ratio
    return replace(seq, notes=notes, total_duration=seq.total_duration * ratio, reference_bpm=bpm)


def draw_tier(rng_seed: int) -> SpeedTier:
    """A speed tier drawn uniformly from SPEED_TIERS."""
    return SPEED_TIERS[Rng(rng_seed).integers(len(SPEED_TIERS))]


def sample_speed_augmentation(
    seq: NoteSequence, tier: SpeedTier, rng_seed: int
) -> tuple[NoteSequence, float, str]:
    """Stretch by a ratio drawn from the tier; also pick one of its keywords."""
    rng = Rng(rng_seed)
    low, high = tier.ratio_range
    ratio = rng.uniform(low, high)
    keyword = tier.keywords[rng.integers(len(tier.keywords))]
    return stretch(seq, ratio), ratio, keyword


@dataclass(frozen=True)
class MistakeConfig:
    """Per-run mistake probabilities and seed; the shapes of the mistakes
    are class constants."""

    p_mistouch: float = 0.05
    p_async: float = 0.2
    p_subst: float = 0.05
    p_ghost: float = 0.05
    seed: int = 0
    async_shift: ClassVar[tuple[float, float]] = (-0.7, 0.7)
    mistouch_onset_delay: ClassVar[tuple[float, float]] = (0.02, 0.1)
    mistouch_duration: ClassVar[tuple[float, float]] = (0.1, 0.3)
    mistouch_velocity_scale: ClassVar[float] = 0.8
    block_period: ClassVar[float] = 5.0
    block_length: ClassVar[tuple[float, float]] = (0.2, 0.5)

    def __post_init__(self):
        for name in ("p_mistouch", "p_async", "p_subst", "p_ghost"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


@dataclass
class MistakeReport:
    """Per-type mistake counts plus the sampled removal intervals."""

    mistouch: int = 0
    asynchrony: int = 0
    substitution: int = 0
    ghost: int = 0
    block_removed: int = 0
    removed_intervals: list[tuple[float, float]] = field(default_factory=list)


def _neighbor_pitch(pitch: int, direction: int) -> int:
    candidate = pitch + direction
    return candidate if 0 <= candidate <= 127 else pitch - direction


def _drop_blocks(notes: list[Note], intervals: list[tuple[float, float]]) -> list[Note]:
    """The notes whose start lies in no interval [t_start, t_end), in one pass:
    a start is covered iff the intervals starting at or before it reach past it."""
    intervals = sorted(intervals)
    starts = [t_start for t_start, _ in intervals]
    reach = list(accumulate((t_end for _, t_end in intervals), max))
    return [n for n in notes
            if (i := bisect_right(starts, n.start)) == 0 or reach[i - 1] <= n.start]


def corrupt(
    seq: NoteSequence, cfg: MistakeConfig = MistakeConfig()
) -> tuple[NoteSequence, MistakeReport]:
    """Apply seeded mistake augmentation to a whole sequence.

    Per note, in input order: maybe insert a mistouch neighbor, maybe shift
    the note (clamped to start >= 0, end >= start), maybe substitute the
    pitch by a semitone, maybe ghost it away. Inserted notes are not
    themselves corrupted. Afterwards one removal interval is sampled per
    block_period span of the original duration and every note whose current
    start falls inside it is dropped.
    """
    rng = Rng(cfg.seed)
    report = MistakeReport()
    kept = []
    for note in seq.notes:
        if rng.random() < cfg.p_mistouch:
            direction = 1 if rng.random() < 0.5 else -1
            pitch = _neighbor_pitch(note.pitch, direction)
            velocity = min(max(round(cfg.mistouch_velocity_scale * note.velocity), 1), 127)
            start = note.start + rng.uniform(*cfg.mistouch_onset_delay)
            end = start + rng.uniform(*cfg.mistouch_duration)
            kept.append(Note(start, pitch, end, velocity, note.program, note.is_drum))
            report.mistouch += 1
        current = note
        if rng.random() < cfg.p_async:
            shift = rng.uniform(*cfg.async_shift)
            start = max(current.start + shift, 0.0)
            end = max(current.end + shift, start)
            current = Note(start, current.pitch, end, current.velocity, current.program,
                           current.is_drum)
            report.asynchrony += 1
        if rng.random() < cfg.p_subst:
            direction = 1 if rng.random() < 0.5 else -1
            current = Note(current.start, _neighbor_pitch(current.pitch, direction),
                           current.end, current.velocity, current.program, current.is_drum)
            report.substitution += 1
        if rng.random() < cfg.p_ghost:
            report.ghost += 1
            continue
        kept.append(current)

    blocks = math.floor(seq.total_duration / cfg.block_period)
    for k in range(blocks + 1):
        t_start = k * cfg.block_period + rng.uniform(0.0, cfg.block_period)
        t_end = t_start + rng.uniform(*cfg.block_length)
        report.removed_intervals.append((t_start, t_end))
    survivors = _drop_blocks(kept, report.removed_intervals)
    report.block_removed = len(kept) - len(survivors)

    max_end = max((n.end for n in survivors), default=0.0)
    return replace(seq, notes=survivors, total_duration=max(seq.total_duration, max_end)), report
