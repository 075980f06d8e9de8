"""In-memory note-event model: notes, sequences, and fixed-length windows.

A `Note` is a validated tuple: parsing, windowing and augmentation build
tens of thousands of them per score, so each is checked once in `__new__`
and costs no more than the tuple of its fields, which it also equals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

# Longest sequence a NoteSequence may hold: 4 h.  A crafted MIDI can put a
# note billions of seconds out, and segment, corrupt and render cost time
# and memory in proportion to length.
MAX_SECONDS = 4 * 3600.0
# Length of every window `segment` cuts, the span one token stream covers.
WINDOW_SECONDS = 10.0


class SequenceTooLongError(ValueError):
    """A sequence runs longer than MAX_SECONDS."""


# the fields; a NamedTuple may not define __new__, so Note's checks, and its
# defaults, live in a subclass
class _NoteFields(NamedTuple):
    start: float
    pitch: int
    end: float
    velocity: int
    program: int
    is_drum: bool


class Note(_NoteFields):
    """A single timed note event, times in seconds (negative only window-locally).

    Every way of making one, positional, keyword, `_make` or `_replace`,
    goes through `__new__`, which refuses a pitch, velocity or program
    outside 0..127 and an end that is not at or after the start (NaN times
    included). Build changed notes with `Note(...)` or `_replace`:
    `dataclasses.replace` does not apply to a tuple.
    """

    __slots__ = ()

    def __new__(cls, start, pitch, end, velocity=100, program=0, is_drum=False):
        if not 0 <= pitch <= 127:
            raise ValueError(f"pitch {pitch} outside 0..127")
        if not 0 <= velocity <= 127:
            raise ValueError(f"velocity {velocity} outside 0..127")
        if not 0 <= program <= 127:
            raise ValueError(f"program {program} outside 0..127")
        if not start <= end:
            raise ValueError(f"end {end} before start {start}")
        return tuple.__new__(cls, (start, pitch, end, velocity, program, is_drum))

    @classmethod
    def _make(cls, iterable):
        fields = tuple(iterable)
        if len(fields) != 6:
            raise TypeError(f"Expected 6 arguments, got {len(fields)}")
        return cls(*fields)

    @property
    def duration(self) -> float:
        return self.end - self.start


# (start, pitch, program, end, velocity): the canonical note order
_ORDER = itemgetter(0, 1, 4, 2, 3)


def _rebase(note: Note, offset: float, end: float) -> Note:
    return Note(note.start - offset, note.pitch, end, note.velocity, note.program, note.is_drum)


@dataclass(frozen=True)
class NoteSequence:
    """An ordered set of notes with a total duration.

    Notes are canonicalized on construction: sorted by (start, pitch) with a
    stable full-field tiebreak. Instances are immutable; transforms build new
    sequences with `dataclasses.replace`, so every sequence, parsed or
    derived, passes the same checks. Equality ignores `reference_bpm`.
    Raises SequenceTooLongError, naming the source, past MAX_SECONDS.
    """

    notes: tuple[Note, ...] = ()
    total_duration: float | None = None
    source_id: str = ""
    reference_bpm: float | None = field(default=None, compare=False)

    def __post_init__(self):
        ordered = tuple(sorted(self.notes, key=_ORDER))
        if ordered and ordered[0].start < 0:
            raise ValueError(f"negative start time {ordered[0].start}")
        max_end = max((n.end for n in ordered), default=0.0)
        total_duration = self.total_duration
        if total_duration is None:
            total_duration = max_end
        elif total_duration < max_end:
            raise ValueError(
                f"total_duration {total_duration} shorter than last note end {max_end}"
            )
        if not total_duration <= MAX_SECONDS:  # NaN fails too
            raise SequenceTooLongError(
                f"{self.source_id!r}: {total_duration:.6g} s exceeds"
                f" the {MAX_SECONDS:g} s input limit"
            )
        object.__setattr__(self, "notes", ordered)
        object.__setattr__(self, "total_duration", float(total_duration))

    def __len__(self) -> int:
        return len(self.notes)

    def __iter__(self):
        return iter(self.notes)

    def __repr__(self) -> str:
        return (
            f"NoteSequence({len(self.notes)} notes, {self.total_duration:.3f}s,"
            f" source={self.source_id!r})"
        )


@dataclass(frozen=True)
class Window:
    """A fixed-length slice of a sequence with times re-based to its start.

    `notes` hold events starting inside the window (ends truncated at the
    window boundary); `sustained` holds notes already sounding when the
    window begins, keeping their true re-based start (< 0) and end.
    """

    offset: float
    length: float
    notes: tuple[Note, ...] = ()
    sustained: tuple[Note, ...] = ()

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError(f"window length must be positive, got {self.length}")
        for n in self.notes:
            if not 0 <= n.start < self.length:
                raise ValueError(f"window note starts outside [0, {self.length}): {n}")
        for n in self.sustained:
            if not (n.start < 0 < n.end):
                raise ValueError(f"sustained note does not cross window start: {n}")


def segment(seq: NoteSequence) -> list[Window]:
    """Cut a sequence into WINDOW_SECONDS windows covering [0, total_duration).

    A note crossing a window's end boundary is truncated there and re-appears
    in the sustained list of every later window it still sounds through.
    One pass over the sorted notes: k * WINDOW_SECONDS is exact for every
    window index up to MAX_SECONDS, so each note's window is its start
    floor-divided by the window length and the windows tile with no gaps.
    """
    if seq.total_duration <= 0 and not seq.notes:
        return []
    # a zero-duration sequence of zero-length notes still gets one window,
    # and a zero-length note at a tiled total_duration gets the window there
    last_start = seq.notes[-1].start if seq.notes else 0.0
    count = max(1, math.ceil(seq.total_duration / WINDOW_SECONDS),
                int(last_start // WINDOW_SECONDS) + 1)
    inside: list[list[Note]] = [[] for _ in range(count)]
    sustained: list[list[Note]] = [[] for _ in range(count)]
    for note in seq.notes:
        k = int(note.start // WINDOW_SECONDS)
        off = k * WINDOW_SECONDS
        inside[k].append(_rebase(note, off, min(note.end - off, WINDOW_SECONDS)))
        k += 1
        while k < count and note.end > k * WINDOW_SECONDS:
            off = k * WINDOW_SECONDS
            sustained[k].append(_rebase(note, off, note.end - off))
            k += 1
    return [
        Window(k * WINDOW_SECONDS, WINDOW_SECONDS, tuple(inside[k]), tuple(sustained[k]))
        for k in range(count)
    ]
