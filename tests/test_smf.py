"""SMF parser and writer tests.

Fixtures are assembled byte by byte with local helpers, independent of the
writer under test, so parse expectations are hand-computed oracles.
"""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import encore
from encore.notes import Note, NoteSequence, SequenceTooLongError
from encore.smf import (
    MidiParseError,
    UnsupportedFormatError,
    parse_midi,
    write_midi,
)


def vlq(value):
    out = bytearray([value & 0x7F])
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def track(events, end_of_track=True):
    body = b"".join(vlq(delta) + bytes(msg) for delta, msg in events)
    if end_of_track:
        body += b"\x00\xff\x2f\x00"
    return b"MTrk" + len(body).to_bytes(4, "big") + body


def smf(tracks, fmt=None, division=480, declared=None):
    if fmt is None:
        fmt = 0 if len(tracks) == 1 else 1
    if declared is None:
        declared = len(tracks)
    head = (
        b"MThd"
        + (6).to_bytes(4, "big")
        + fmt.to_bytes(2, "big")
        + declared.to_bytes(2, "big")
        + division.to_bytes(2, "big")
    )
    return head + b"".join(tracks)


TEMPO_120 = [0xFF, 0x51, 0x03, 0x07, 0xA1, 0x20]  # 500000 us per quarter


def test_single_note():
    data = smf([track([
        (0, TEMPO_120),
        (0, [0x90, 60, 100]),
        (480, [0x80, 60, 0]),
    ])])
    seq = parse_midi(data)
    assert seq.notes == (Note(start=0.0, pitch=60, end=0.5, velocity=100),)
    assert seq.total_duration == 0.5
    assert seq.reference_bpm == 120.0


def test_empty_track():
    seq = parse_midi(smf([track([])]))
    assert seq.notes == ()
    assert seq.total_duration == 0.0
    assert seq.reference_bpm is None


def test_tempo_change_oracle():
    # ppq 480; tempo 500000 to tick 960, 250000 to 1920, 1000000 after.
    # Hand-computed seconds: t(240)=0.25 t(720)=0.75 t(960)=1.0 t(1440)=1.25
    # t(1920)=1.5 t(2400)=2.5
    data = smf([track([
        (0, TEMPO_120),
        (240, [0x90, 60, 90]),
        (480, [0x80, 60, 0]),
        (240, [0xFF, 0x51, 0x03, 0x03, 0xD0, 0x90]),  # 250000 at tick 960
        (0, [0x90, 62, 90]),
        (480, [0x80, 62, 0]),
        (480, [0xFF, 0x51, 0x03, 0x0F, 0x42, 0x40]),  # 1000000 at tick 1920
        (0, [0x90, 64, 90]),
        (480, [0x80, 64, 0]),
    ])])
    seq = parse_midi(data)
    spans = [(n.pitch, n.start, n.end) for n in seq.notes]
    assert spans == [(60, 0.25, 0.75), (62, 1.0, 1.25), (64, 1.5, 2.5)]


def test_format1_tempo_oracle():
    # ppq 96; the tempo map lives in the second track: 500000 (default) to
    # tick 96, 600000 to 192, then 300000 and 750000 both at tick 192, of
    # which the later one rules. Pitch 60 sounds across two changes, 62
    # starts at the tick of the double change, 64 is never released and
    # closes at the longest track's end, tick 500.
    notes = track([
        (0, [0x90, 60, 90]),
        (192, [0x90, 62, 90]),
        (108, [0x80, 60, 0]),
        (50, [0x90, 64, 90]),
        (50, [0x80, 62, 0]),
        (20, [0xB0, 7, 100]),
    ])
    tempos = track([
        (96, [0xFF, 0x51, 0x03, *(600_000).to_bytes(3, "big")]),
        (96, [0xFF, 0x51, 0x03, *(300_000).to_bytes(3, "big")]),
        (0, [0xFF, 0x51, 0x03, *(750_000).to_bytes(3, "big")]),
        (308, [0xB0, 7, 100]),
    ])
    segments = [(0, 500_000), (96, 600_000), (192, 750_000)]

    def seconds(tick):
        us = Fraction(0)
        ends = [begin for begin, _ in segments[1:]] + [math.inf]
        for (begin, tempo), end in zip(segments, ends):
            us += max(0, min(tick, end) - begin) * tempo
        return float(us / (96 * 1_000_000))

    seq = parse_midi(smf([notes, tempos], division=96))
    assert [(n.pitch, n.start, n.end) for n in seq.notes] == [
        (60, seconds(0), seconds(300)),
        (62, seconds(192), seconds(400)),
        (64, seconds(350), seconds(500)),
    ]
    assert seq.total_duration == seconds(500)
    assert seq.reference_bpm == 100.0


def test_parse_peak_memory():
    """On a 20-min score of 9600 notes the reader's transient memory stays
    within a small multiple of what the returned sequence holds."""
    rng = random.Random(0)
    notes = []
    for k in range(9600):
        start = k / 8 + rng.random() / 10
        notes.append(Note(start, rng.randint(21, 108), start + rng.uniform(0.05, 1.5),
                          rng.randint(1, 127)))
    data = write_midi(NoteSequence(notes, total_duration=1202.0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        seq = parse_midi(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(seq) == 9600
    assert peak - base <= 2.5 * (retained - base)


def test_default_tempo_when_absent():
    data = smf([track([(0, [0x90, 60, 80]), (960, [0x80, 60, 0])])])
    seq = parse_midi(data)
    assert seq.notes[0].end == 1.0
    assert seq.reference_bpm is None


def test_running_status():
    data = smf([track([
        (0, [0x90, 60, 100]),
        (120, [62, 100]),          # running status note on
        (120, [60, 0]),            # running status, velocity 0 acts as off
        (120, [62, 0]),
    ])])
    seq = parse_midi(data)
    assert [(n.pitch, n.start, n.end) for n in seq.notes] == [
        (60, 0.0, 0.25),
        (62, 0.125, 0.375),
    ]


def test_same_pitch_overlap_truncates():
    data = smf([track([
        (0, [0x90, 60, 100]),
        (480, [0x90, 60, 90]),
        (480, [0x80, 60, 0]),
        (0, [0x80, 60, 0]),
    ])])
    seq = parse_midi(data)
    assert [(n.start, n.end, n.velocity) for n in seq.notes] == [
        (0.0, 0.5, 100),
        (0.5, 1.0, 90),
    ]


def test_dangling_note_closed_at_track_end():
    data = smf([track([
        (0, [0x90, 60, 100]),
        (480, [0x90, 62, 100]),
        (480, [0x80, 62, 0]),
    ])])
    seq = parse_midi(data)
    assert [(n.pitch, n.end) for n in seq.notes] == [(60, 1.0), (62, 1.0)]


def test_program_and_drum_channel():
    data = smf([track([
        (0, [0xC0, 25]),
        (0, [0x90, 60, 100]),
        (0, [0x99, 36, 110]),
        (240, [0x80, 60, 0]),
        (0, [0x89, 36, 0]),
    ])])
    seq = parse_midi(data)
    melodic = next(n for n in seq.notes if not n.is_drum)
    drum = next(n for n in seq.notes if n.is_drum)
    assert melodic.program == 25
    assert drum.pitch == 36
    assert drum.program == 0


def test_format1_merges_tracks():
    conductor = track([(0, TEMPO_120)])
    melody = track([(0, [0x90, 60, 100]), (480, [0x80, 60, 0])])
    seq = parse_midi(smf([conductor, melody]))
    assert seq.notes == (Note(start=0.0, pitch=60, end=0.5, velocity=100),)
    assert seq.reference_bpm == 120.0


def test_alien_chunk_skipped():
    alien = b"XFIH" + (4).to_bytes(4, "big") + b"\x00\x01\x02\x03"
    body = track([(0, [0x90, 60, 100]), (480, [0x80, 60, 0])])
    head = (
        b"MThd" + (6).to_bytes(4, "big")
        + (0).to_bytes(2, "big") + (1).to_bytes(2, "big") + (480).to_bytes(2, "big")
    )
    seq = parse_midi(head + alien + body)
    assert len(seq) == 1


def test_ignored_messages():
    data = smf([track([
        (0, [0xB0, 64, 127]),      # sustain pedal CC, ignored
        (0, [0xE0, 0x00, 0x40]),   # pitch bend, ignored
        (0, [0xF0, 0x02, 0x01, 0xF7]),  # sysex, skipped
        (0, [0x90, 60, 100]),
        (480, [0xA0, 60, 50]),     # poly aftertouch, ignored
        (0, [0xD0, 30]),           # channel aftertouch, ignored
        (0, [0x80, 60, 0]),
    ])])
    seq = parse_midi(data)
    assert [(n.pitch, n.end) for n in seq.notes] == [(60, 0.5)]


def test_deterministic():
    data = smf([track([(0, TEMPO_120), (0, [0x90, 60, 100]), (480, [0x80, 60, 0])])])
    assert parse_midi(data) == parse_midi(data)


def test_bad_magic():
    with pytest.raises(MidiParseError) as err:
        parse_midi(b"RIFF" + bytes(20))
    assert err.value.offset == 0


def test_short_file():
    with pytest.raises(MidiParseError):
        parse_midi(b"MThd")


def test_format2_unsupported():
    data = smf([track([])], fmt=2)
    with pytest.raises(UnsupportedFormatError):
        parse_midi(data)


def test_smpte_division_unsupported():
    data = smf([track([])], division=0xE250)
    with pytest.raises(UnsupportedFormatError):
        parse_midi(data)


def test_zero_division_rejected():
    with pytest.raises(MidiParseError):
        parse_midi(smf([track([])], division=0))


def test_truncated_track_chunk():
    data = smf([track([(0, [0x90, 60, 100]), (480, [0x80, 60, 0])])])
    with pytest.raises(MidiParseError):
        parse_midi(data[:-3])


def test_event_runs_past_chunk():
    bad = b"MTrk" + (2).to_bytes(4, "big") + b"\x00\x90"
    with pytest.raises(MidiParseError):
        parse_midi(smf([bad]))


def test_missing_declared_track():
    data = smf([track([])], fmt=1, declared=2)
    with pytest.raises(MidiParseError):
        parse_midi(data)


def test_zero_tempo_rejected():
    data = smf([track([
        (0, [0xFF, 0x51, 0x03, 0x00, 0x00, 0x00]),
        (0, [0x90, 60, 64]),
        (480, [0x80, 60, 0]),
    ])], division=96)
    with pytest.raises(MidiParseError, match="zero tempo") as err:
        parse_midi(data)
    assert err.value.offset == 26  # the tempo's first byte


def test_data_byte_without_running_status():
    bad = track([(0, [60, 100])])
    with pytest.raises(MidiParseError):
        parse_midi(smf([bad]))


def test_status_in_data_position():
    # a data byte has 7 bits: a pitch, velocity or program of 128 and up is
    # a status byte in a data position
    for message in ([0x90, 60, 0x90], [0x90, 0x80, 100], [0x90, 60, 0xFF], [0xC0, 0x80]):
        with pytest.raises(MidiParseError, match="expected data byte"):
            parse_midi(smf([track([(0, message), (480, [0x80, 60, 0])])]))


def test_error_offset_reported():
    data = smf([track([(0, [0x90, 60, 100]), (480, [0x80, 60, 0])])])
    cut = data[:-6]
    try:
        parse_midi(cut)
    except MidiParseError as err:
        assert err.offset is not None
        assert str(err.offset) in str(err)
    else:
        pytest.fail("expected MidiParseError")


_CUT = "track data ends mid-event"
# what a format-1 file gives when its first track's body is cut to each
# length, chunk length set to match: a note count for a clean parse, else
# (message, offset); the body starts at byte 22
_TRUNCATIONS = [
    1, (_CUT, 23), (_CUT, 24), (_CUT, 25), (_CUT, 26), (_CUT, 26), (_CUT, 26), 1,
    (_CUT, 30), (_CUT, 31), 1, (_CUT, 33), (_CUT, 34), (_CUT, 35), 2, (_CUT, 37),
    (_CUT, 38), 3, (_CUT, 40), (_CUT, 41), (_CUT, 42), (_CUT, 42), (_CUT, 42), 3,
    (_CUT, 46), (_CUT, 47), (_CUT, 48), (_CUT, 49), 3, (_CUT, 51), (_CUT, 52), 3,
    (_CUT, 54), (_CUT, 55), (_CUT, 56), 3,
]


def test_every_truncation_keeps_its_message_and_offset():
    first = track([
        (0, TEMPO_120),
        (0, [0xC0, 5]),
        (0, [0x90, 60, 100]),
        (0, [64, 90]),  # running status
        (10, [0xF0, 0x03, 0x7E, 0x01, 0xF7]),  # a sysex ends running status
        (470, [0x80, 60, 0]),
        (0, [64, 0]),
    ])
    second = track([(0, [0x91, 72, 80]), (480, [0x81, 72, 0])])
    body = first[8:]
    outcomes = []
    for cut in range(len(body) + 1):
        chunk = b"MTrk" + cut.to_bytes(4, "big") + body[:cut]
        try:
            outcomes.append(len(parse_midi(smf([chunk, second])).notes))
        except MidiParseError as err:
            outcomes.append((str(err).removesuffix(f" (byte {err.offset})"), err.offset))
    assert outcomes == _TRUNCATIONS


TICK = 500_000 / 480_000_000  # seconds per tick at 120 bpm, ppq 480


def tick_sec(tick):
    return tick * 500_000 / 480_000_000


def test_write_round_trip_exact_on_grid():
    notes = [
        Note(start=tick_sec(0), pitch=60, end=tick_sec(480), velocity=100),
        Note(start=tick_sec(480), pitch=60, end=tick_sec(480), velocity=90),
        Note(start=tick_sec(240), pitch=72, end=tick_sec(960), velocity=64, program=40),
        Note(start=tick_sec(0), pitch=36, end=tick_sec(120), velocity=120, is_drum=True),
    ]
    seq = NoteSequence(notes)
    out = parse_midi(write_midi(seq))
    assert out.notes == seq.notes


def test_write_round_trip_within_one_tick():
    notes = [
        Note(start=0.1234, pitch=55, end=0.9876, velocity=33),
        Note(start=1.5551, pitch=57, end=2.0003, velocity=101, program=5),
    ]
    out = parse_midi(write_midi(NoteSequence(notes)))
    assert [(n.pitch, n.velocity, n.program) for n in out.notes] == [
        (55, 33, 0),
        (57, 101, 5),
    ]
    for got, want in zip(out.notes, notes):
        assert abs(got.start - want.start) <= TICK
        assert abs(got.end - want.end) <= TICK


def test_write_rejects_velocity_zero():
    seq = NoteSequence([Note(start=0.0, pitch=60, end=1.0, velocity=0)])
    with pytest.raises(ValueError):
        write_midi(seq)


def test_write_rejects_too_many_programs():
    notes = [
        Note(start=float(i), pitch=60, end=i + 0.5, program=i) for i in range(16)
    ]
    with pytest.raises(ValueError):
        write_midi(NoteSequence(notes))


def test_write_parse_preserves_reference_tempo():
    seq = NoteSequence([Note(start=0.0, pitch=60, end=1.0)])
    out = parse_midi(write_midi(seq))
    assert out.reference_bpm == 120.0


@st.composite
def grid_sequences(draw):
    notes = []
    pitches = draw(st.lists(st.integers(0, 127), min_size=1, max_size=6, unique=True))
    drum_program = draw(st.integers(0, 127))
    for pitch in pitches:
        bounds = draw(
            st.lists(st.integers(0, 4000), min_size=2, max_size=6, unique=True)
        )
        bounds.sort()
        drum = draw(st.booleans())
        program = drum_program if drum else draw(st.integers(0, 127))
        velocity = draw(st.integers(1, 127))
        for a, b in zip(bounds[::2], bounds[1::2]):
            notes.append(
                Note(
                    start=tick_sec(a),
                    pitch=pitch,
                    end=tick_sec(b),
                    velocity=velocity,
                    program=program,
                    is_drum=drum,
                )
            )
    return NoteSequence(notes)


@given(grid_sequences())
def test_round_trip_property(seq):
    assert parse_midi(write_midi(seq)).notes == seq.notes


# a writer output with tempo, program changes, a drum channel, chords and
# overlapping notes: the bytes the mutations below start from
_FUZZ_SEED = write_midi(
    NoteSequence(
        [
            Note(
                start=0.25 * k,
                pitch=36 + (7 * k) % 60,
                end=0.25 * k + 0.1 + 0.05 * (k % 7),
                velocity=1 + (11 * k) % 127,
                program=(0, 33, 0)[k % 3],
                is_drum=k % 5 == 0,
            )
            for k in range(40)
        ]
    )
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["set", "insert", "delete"]),
            st.integers(0, len(_FUZZ_SEED)),
            st.integers(0, 255),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_mutated_bytes_parse_or_raise_typed_error(edits):
    buf = bytearray(_FUZZ_SEED)
    for kind, pos, value in edits:
        if kind == "insert":
            buf.insert(pos, value)
        elif pos < len(buf):
            if kind == "set":
                buf[pos] = value
            else:
                del buf[pos]
    try:
        seq = parse_midi(bytes(buf), source_id="fuzz.mid")
    except (MidiParseError, SequenceTooLongError):
        return
    assert isinstance(seq, NoteSequence)


def test_symbolic_modules_import_without_numpy():
    """The package imports no module of its own, so a MIDI-only caller
    (corpus writers, memory probes) does not load numpy."""
    code = "import sys, encore.notes, encore.smf, encore.seeds; print('numpy' in sys.modules)"
    src = str(Path(encore.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
