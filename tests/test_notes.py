"""Note model and windowing tests."""

import copy
import dataclasses
import math
import pickle
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from encore.augment import MistakeConfig, corrupt, stretch
from encore.notes import (
    MAX_SECONDS,
    WINDOW_SECONDS,
    Note,
    NoteSequence,
    SequenceTooLongError,
    Window,
    _rebase,
    segment,
)


def test_note_defaults():
    n = Note(start=1.0, pitch=60, end=2.0)
    assert n.velocity == 100
    assert n.program == 0
    assert n.is_drum is False
    assert n.duration == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(start=0.0, pitch=128, end=1.0),
        dict(start=0.0, pitch=-1, end=1.0),
        dict(start=0.0, pitch=60, end=1.0, velocity=128),
        dict(start=0.0, pitch=60, end=1.0, velocity=-1),
        dict(start=0.0, pitch=60, end=1.0, program=128),
        dict(start=2.0, pitch=60, end=1.0),
    ],
)
def test_note_validation(kwargs):
    with pytest.raises(ValueError):
        Note(**kwargs)
    with pytest.raises(ValueError):
        Note(*kwargs.values())


def test_note_is_a_slotted_tuple():
    fields = (0.5, 60, 1.25, 90, 33, True)
    note = Note(*fields)
    assert note == Note(start=0.5, pitch=60, end=1.25, velocity=90, program=33, is_drum=True)
    assert note == fields and hash(note) == hash(fields)
    assert not hasattr(note, "__dict__")
    assert repr(note) == (
        "Note(start=0.5, pitch=60, end=1.25, velocity=90, program=33, is_drum=True)"
    )
    with pytest.raises(AttributeError):
        note.start = 0.0
    moved = note._replace(start=0.0)
    assert type(moved) is Note and moved == (0.0, 60, 1.25, 90, 33, True)
    assert type(Note._make(fields)) is Note and Note._make(fields) == note
    for short_or_long in (fields[:3], fields + (0,)):
        with pytest.raises(TypeError, match="Expected 6 arguments"):
            Note._make(short_or_long)


# each out of range in one field, or times out of order, beside valid fields
_BAD_NOTES = {
    "pitch 200": (0.0, 200, 1.0, 100, 0, False),
    "pitch -5": (0.0, -5, 1.0, 100, 0, False),
    "velocity 128": (0.0, 60, 1.0, 128, 0, False),
    "velocity -1": (0.0, 60, 1.0, -1, 0, False),
    "program 128": (0.0, 60, 1.0, 100, 128, False),
    "end before start": (2.0, 60, 1.0, 100, 0, False),
    "end NaN": (0.0, 60, math.nan, 100, 0, False),
}


def _makers(fields):
    """Every way but the constructor (test_note_validation) that a note is
    built from another's fields. The transforms are handed a note that
    skipped its checks, so each must check what it builds."""
    named = dict(zip(Note._fields, fields))
    seq = NoteSequence([tuple.__new__(Note, fields)], total_duration=5.0)
    substitute = MistakeConfig(p_mistouch=0.0, p_async=0.0, p_subst=1.0, p_ghost=0.0)
    return {
        "_make": lambda: Note._make(fields),
        "_replace": lambda: Note(0.0, 60, 1.0)._replace(**named),
        "segment": lambda: segment(seq),
        "stretch": lambda: stretch(seq, 1.5),
        "corrupt": lambda: corrupt(seq, substitute),
    }


@pytest.mark.parametrize(
    "maker", ["_make", "_replace", "segment", "stretch", "corrupt"]
)
@pytest.mark.parametrize("fields", _BAD_NOTES.values(), ids=_BAD_NOTES)
def test_every_maker_refuses_a_bad_note(maker, fields):
    with pytest.raises(ValueError, match="outside 0..127|before start"):
        _makers(fields)[maker]()


def test_nan_times_are_refused():
    for start, end in ((math.nan, math.nan), (0.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="before start"):
            Note(start, 60, end)
    for notes in ([], [Note(0.0, 60, 1.0)]):
        with pytest.raises(SequenceTooLongError):
            NoteSequence(notes, total_duration=math.nan)


def test_negative_start_is_window_local_only():
    # a sustained note keeps its true re-based start before the window
    held = Note(start=-0.5, pitch=60, end=1.0)
    assert Window(offset=10.0, length=10.0, sustained=(held,)).sustained == (held,)
    with pytest.raises(ValueError, match="negative start"):
        NoteSequence([held])


@pytest.mark.parametrize("length", [0.0, -1.0])
def test_window_length_must_be_positive(length):
    with pytest.raises(ValueError):
        Window(offset=0.0, length=length)


def test_note_zero_duration_allowed():
    assert Note(start=1.0, pitch=60, end=1.0).duration == 0.0


def test_sequence_sorts_notes():
    a = Note(start=2.0, pitch=60, end=3.0)
    b = Note(start=1.0, pitch=72, end=2.0)
    c = Note(start=1.0, pitch=60, end=2.0)
    seq = NoteSequence([a, b, c])
    assert seq.notes == (c, b, a)
    assert seq.total_duration == 3.0
    assert len(seq) == 3
    assert list(seq) == [c, b, a]


def test_sequence_duration_floor():
    note = Note(start=0.0, pitch=60, end=4.0)
    assert NoteSequence([note], total_duration=5.0).total_duration == 5.0
    with pytest.raises(ValueError):
        NoteSequence([note], total_duration=3.0)


def test_sequence_empty():
    seq = NoteSequence()
    assert seq.notes == ()
    assert seq.total_duration == 0.0
    assert seq.reference_bpm is None


def test_sequence_immutable():
    seq = NoteSequence([Note(start=0.0, pitch=60, end=1.0)])
    with pytest.raises(AttributeError):
        seq.total_duration = 9.0


def test_replace_keeps_identity():
    seq = NoteSequence(
        [Note(start=0.0, pitch=60, end=1.0)], source_id="x.mid", reference_bpm=96.0
    )
    out = dataclasses.replace(seq, notes=[Note(start=0.0, pitch=61, end=1.0)])
    assert out.source_id == "x.mid"
    assert out.reference_bpm == 96.0
    assert out.notes[0].pitch == 61
    assert out.total_duration == 1.0


def test_equality_ignores_reference_bpm():
    notes = [Note(start=0.0, pitch=60, end=1.0)]
    assert NoteSequence(notes, reference_bpm=96.0) == NoteSequence(notes)
    assert NoteSequence(notes, source_id="a") != NoteSequence(notes, source_id="b")


def test_pickle_and_deepcopy_round_trip():
    seq = NoteSequence(
        [Note(start=0.5, pitch=60, end=1.0), Note(start=0.0, pitch=64, end=2.0, program=33)],
        total_duration=3.0,
        source_id="x.mid",
        reference_bpm=96.0,
    )
    for out in (pickle.loads(pickle.dumps(seq)), copy.deepcopy(seq)):
        assert out == seq
        assert out.reference_bpm == 96.0


def test_overlong_sequence_rejected():
    # 4.5e9 s, the crafted MIDI's note: segment would need 450M windows
    with pytest.raises(SequenceTooLongError, match="far.mid.*input limit"):
        NoteSequence([Note(4.5e9, 60, 4.5e9)], source_id="far.mid")
    with pytest.raises(SequenceTooLongError, match="empty.mid"):
        NoteSequence([], total_duration=MAX_SECONDS + 1.0, source_id="empty.mid")
    two_hours = NoteSequence([Note(0.0, 60, 1.0)], total_duration=7200.0, source_id="long.mid")
    with pytest.raises(SequenceTooLongError, match="long.mid"):
        stretch(two_hours, 2.2)


def test_window_validates_note_bounds():
    with pytest.raises(ValueError):
        Window(offset=0.0, length=10.0, notes=(Note(start=10.0, pitch=60, end=10.0),))
    with pytest.raises(ValueError):
        Window(offset=0.0, length=10.0, sustained=(Note(start=1.0, pitch=60, end=2.0),))


def test_segment_boundary_note():
    seq = NoteSequence(
        [Note(start=9.5, pitch=60, end=10.5)], total_duration=10.5
    )
    windows = segment(seq)
    assert len(windows) == 2
    (first,) = windows[0].notes
    assert (first.start, first.end) == (9.5, 10.0)
    assert windows[0].sustained == ()
    assert windows[1].notes == ()
    (cont,) = windows[1].sustained
    assert (cont.start, cont.end) == (-0.5, 0.5)


def test_segment_count():
    seq = NoteSequence([Note(start=0.0, pitch=60, end=1.0)], total_duration=25.0)
    windows = segment(seq)
    assert [w.offset for w in windows] == [0.0, 10.0, 20.0]


def test_segment_empty_sequence():
    assert segment(NoteSequence()) == []


def _note_key(note):
    return (note.start, note.pitch, note.end, note.velocity, note.program, note.is_drum)


def _reconstruct(windows):
    """Invert segment() using the sustained continuations.

    Each continuation entry extends at most one truncated note, so two equal
    notes where only one crosses the boundary resolve correctly.
    """
    remaining = [list(w.sustained) for w in windows]
    out = []
    for k, w in enumerate(windows):
        for n in w.notes:
            abs_start = w.offset + n.start
            abs_end = w.offset + n.end
            if n.end == w.length and k + 1 < len(windows):
                nxt = windows[k + 1]
                for i, s in enumerate(remaining[k + 1]):
                    same = (s.pitch, s.velocity, s.program, s.is_drum) == (
                        n.pitch,
                        n.velocity,
                        n.program,
                        n.is_drum,
                    )
                    if same and nxt.offset + s.start == abs_start:
                        abs_end = nxt.offset + s.end
                        del remaining[k + 1][i]
                        break
            out.append(
                Note(abs_start, n.pitch, abs_end, n.velocity, n.program, n.is_drum)
            )
    return out


def _dyadic_fixture():
    # 50 notes on a 1/64 s grid so all window arithmetic is exact in floats
    import numpy as np

    rng = np.random.default_rng(7)
    notes = []
    for _ in range(50):
        start = int(rng.integers(0, 28 * 64)) / 64
        dur = int(rng.integers(0, 6 * 64)) / 64
        notes.append(
            Note(
                start=start,
                pitch=int(rng.integers(0, 128)),
                end=start + dur,
                velocity=int(rng.integers(1, 128)),
                program=int(rng.integers(0, 8)),
                is_drum=bool(rng.integers(0, 2)),
            )
        )
    return NoteSequence(notes)


def test_segment_reconstruction_fixture():
    seq = _dyadic_fixture()
    windows = segment(seq)
    rebuilt = _reconstruct(windows)
    assert Counter(map(_note_key, rebuilt)) == Counter(map(_note_key, seq.notes))


@given(
    st.lists(
        st.tuples(
            st.integers(0, 30 * 64),
            st.integers(0, 12 * 64),
            st.integers(0, 127),
            st.integers(1, 127),
        ),
        max_size=40,
    )
)
def test_segment_reconstruction_property(items):
    notes = [
        Note(start=s / 64, pitch=p, end=(s + d) / 64, velocity=v)
        for s, d, p, v in items
    ]
    seq = NoteSequence(notes)
    windows = segment(seq)
    rebuilt = _reconstruct(windows)
    assert Counter(map(_note_key, rebuilt)) == Counter(map(_note_key, seq.notes))
    if seq.total_duration > 0:
        expected = math.ceil(seq.total_duration / 10.0)
        if notes and max(n.start for n in notes) >= expected * 10.0:
            expected += 1  # zero-length note exactly at the covered span's end
        assert len(windows) == expected


def test_segment_keeps_zero_length_note_at_exact_end():
    # the shape a terminal note-on/note-off pair on the last tick produces
    seq = NoteSequence([Note(start=30.0, pitch=64, end=30.0)])
    windows = segment(seq)
    assert len(windows) == 4
    assert windows[-1].offset == 30.0
    assert windows[-1].notes == (Note(start=0.0, pitch=64, end=0.0),)
    rebuilt = _reconstruct(windows)
    assert Counter(map(_note_key, rebuilt)) == Counter(map(_note_key, seq.notes))


def _segment_nested(seq):
    """The nested loop segment() replaced, kept as its oracle: each window
    rescans every earlier note."""
    window_length = WINDOW_SECONDS
    if seq.total_duration <= 0 and not seq.notes:
        return []
    count = max(1, math.ceil(seq.total_duration / window_length))
    # a zero-length note exactly at a tiled total_duration gets one more window
    last_start = seq.notes[-1].start if seq.notes else -1.0
    if last_start >= count * window_length:
        count += 1
    windows = []
    for k in range(count):
        off = k * window_length
        end = off + window_length
        inside = []
        sustained = []
        for note in seq.notes:
            if note.start >= end:
                break
            if note.start >= off:
                inside.append(_rebase(note, off, min(note.end - off, window_length)))
            elif note.end > off:
                sustained.append(_rebase(note, off, note.end - off))
        windows.append(Window(off, window_length, tuple(inside), tuple(sustained)))
    return windows


# times on, one ulp either side of, and between window boundaries
_boundary_times = st.builds(
    lambda k, step: max(0.0, math.nextafter(10.0 * k, step * math.inf) if step else 10.0 * k),
    st.integers(0, 8),
    st.sampled_from([-1, 0, 1]),
)
_times = _boundary_times | st.floats(0.0, 80.0)


@given(
    st.lists(
        st.tuples(_times, _times | st.just(0.0), st.integers(0, 127)), max_size=30
    ),
    st.none() | st.floats(0.0, 20.0) | st.sampled_from([10.0, 20.0]),
)
def test_segment_matches_nested_loop(items, pad):
    notes = [Note(start=s, pitch=p, end=s + d) for s, d, p in items]
    seq = NoteSequence(notes)
    if pad is not None:
        seq = NoteSequence(notes, total_duration=seq.total_duration + pad)
    assert segment(seq) == _segment_nested(seq)
