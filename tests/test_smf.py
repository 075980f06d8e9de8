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
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import encore
from encore.notes import Note, NoteSequence, SequenceTooLongError
from encore.smf import (
    DEFAULT_TEMPO_US,
    PPQ,
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


def test_meta_and_sysex_end_running_status():
    for message in ([0xFF, 0x01, 0x01, 0x41], [0xF0, 0x01, 0xF7]):  # a text meta, a sysex
        bad = track([(0, [0x90, 60, 100]), (0, message), (480, [60, 0])])
        with pytest.raises(MidiParseError, match="data byte with no running status") as err:
            parse_midi(smf([bad]))
        assert err.value.offset == 22 + 4 + 1 + len(message) + 2  # the data byte


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
    for pitch in pitches:
        bounds = draw(
            st.lists(st.integers(0, 4000), min_size=2, max_size=6, unique=True)
        )
        bounds.sort()
        drum = draw(st.booleans())
        program = draw(st.integers(0, 127))
        velocity = draw(st.integers(1, 127))
        for a, b in zip(bounds[::2], bounds[1::2]):
            notes.append(
                Note(
                    start=tick_sec(a),
                    pitch=pitch,
                    end=tick_sec(b),
                    velocity=velocity,
                    # a drum program per note: the drum channel changes
                    # program between onsets, on one tick too
                    program=draw(st.integers(0, 127)) if drum else program,
                    is_drum=drum,
                )
            )
    return NoteSequence(notes)


@given(grid_sequences())
def test_round_trip_property(seq):
    assert parse_midi(write_midi(seq)).notes == seq.notes


def test_drum_programs_sharing_an_onset():
    # each drum program change goes just before its own onset, so two drums
    # of different programs starting on one tick keep their programs, and a
    # drum ending on that tick closes first
    seq = NoteSequence([
        Note(0.0, 40, 0.5, velocity=90, program=3, is_drum=True),
        Note(0.5, 36, 1.0, velocity=100, program=0, is_drum=True),
        Note(0.5, 38, 1.0, velocity=100, program=8, is_drum=True),
    ])
    data = write_midi(seq)
    assert [(n.pitch, n.program) for n in parse_midi(data).notes] == [(40, 3), (36, 0), (38, 8)]
    # tick 480: off 40, program 0, on 36, program 8, on 38
    assert data.endswith(bytes([
        0x83, 0x60, 0x89, 40, 0, 0, 0xC9, 0, 0, 0x99, 36, 100, 0, 0xC9, 8, 0, 0x99, 38, 100,
        0x83, 0x60, 0x89, 36, 0, 0, 0x89, 38, 0, 0, 0xFF, 0x2F, 0,
    ]))


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


# The reader and writer as they were before each became one inline loop
# (the reader with a closure per varlen, data byte and skipped payload, the
# writer with one bytes object per event), kept as the oracles of the
# rewrite. The writer oracle puts every program change at the program rank.

_O_OFF, _O_ON, _O_PROGRAM, _O_TEMPO = 0, 1, 2, 3


def _oracle_parse_track(data, start, limit, index, events):
    view = memoryview(data)[:limit]
    pos = start

    def varlen():
        nonlocal pos
        value = 0
        for _ in range(4):
            byte = view[pos]
            pos += 1
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        raise MidiParseError("variable-length quantity exceeds 4 bytes", pos)

    def data_byte():
        nonlocal pos
        byte = view[pos]
        pos += 1
        if byte & 0x80:
            raise MidiParseError(f"expected data byte, found status 0x{byte:02X}", pos - 1)
        return byte

    def take(count):
        nonlocal pos
        if pos + count > limit:
            raise IndexError
        pos += count
        return view[pos - count : pos]

    tick = 0
    running = None
    try:
        while pos < limit:
            tick += varlen()
            first = view[pos]
            pos += 1
            if first < 0x80:
                if running is None:
                    raise MidiParseError("data byte with no running status", pos - 1)
                status = running
                data_a = first
            else:
                status = first
                data_a = None

            if status == 0xFF:
                running = None
                meta_type = view[pos]
                pos += 1
                payload = take(varlen())
                if meta_type == 0x51:
                    if len(payload) != 3:
                        raise MidiParseError(f"tempo event with length {len(payload)}", pos)
                    tempo = int.from_bytes(payload, "big")
                    if tempo == 0:
                        raise MidiParseError("zero tempo", pos - 3)
                    events.append((tick, index, _O_TEMPO, tempo, 0, 0))
                elif meta_type == 0x2F:
                    break
            elif status in (0xF0, 0xF7):
                running = None
                take(varlen())
            elif status >= 0xF0:
                raise MidiParseError(f"unsupported system message 0x{status:02X}", pos - 1)
            else:
                running = status
                kind = status & 0xF0
                channel = status & 0x0F
                a = data_byte() if data_a is None else data_a
                b = data_byte() if kind not in (0xC0, 0xD0) else 0
                if kind == 0x90 and b > 0:
                    events.append((tick, index, _O_ON, a, b, channel))
                elif kind == 0x80 or kind == 0x90:
                    events.append((tick, index, _O_OFF, a, 0, channel))
                elif kind == 0xC0:
                    events.append((tick, index, _O_PROGRAM, a, 0, channel))
    except IndexError:
        raise MidiParseError("track data ends mid-event", pos) from None
    return tick


def _oracle_parse_midi(data):
    if len(data) < 14 or data[0:4] != b"MThd":
        raise MidiParseError("missing MThd header", 0)
    header_len = int.from_bytes(data[4:8], "big")
    if header_len < 6:
        raise MidiParseError(f"header chunk length {header_len} < 6", 4)
    if 8 + header_len > len(data):
        raise MidiParseError("truncated header chunk", 8)
    fmt = int.from_bytes(data[8:10], "big")
    n_tracks = int.from_bytes(data[10:12], "big")
    division = int.from_bytes(data[12:14], "big")
    if fmt not in (0, 1):
        raise UnsupportedFormatError(f"SMF format {fmt} is not supported", 8)
    if fmt == 0 and n_tracks != 1:
        raise MidiParseError(f"format 0 file declares {n_tracks} tracks", 10)
    if division & 0x8000:
        raise UnsupportedFormatError("SMPTE time division is not supported", 12)
    if division == 0:
        raise MidiParseError("zero ticks-per-quarter division", 12)

    pos = 8 + header_len
    spans = []
    while pos < len(data) and len(spans) < n_tracks:
        if pos + 8 > len(data):
            raise MidiParseError("truncated chunk header", pos)
        chunk_type = data[pos : pos + 4]
        chunk_len = int.from_bytes(data[pos + 4 : pos + 8], "big")
        body = pos + 8
        if body + chunk_len > len(data):
            raise MidiParseError("truncated track chunk", pos)
        if chunk_type == b"MTrk":
            spans.append((body, body + chunk_len))
        pos = body + chunk_len
    if len(spans) != n_tracks:
        raise MidiParseError(f"header declares {n_tracks} tracks, found {len(spans)}", pos)

    events = []
    end_tick = 0
    for index, (body, limit) in enumerate(spans):
        end_tick = max(end_tick, _oracle_parse_track(data, body, limit, index, events))
    events.sort(key=itemgetter(0, 1))

    segment_tick, segment_us, tempo = 0, 0, DEFAULT_TEMPO_US
    denominator = division * 1_000_000
    reference_bpm = None
    programs = [0] * 16
    open_notes = {}
    notes = []
    for tick, _, kind, a, b, channel in events:
        if kind == _O_TEMPO:
            segment_us += (tick - segment_tick) * tempo
            segment_tick, tempo = tick, a
            if reference_bpm is None:
                reference_bpm = 60_000_000 / a
        elif kind == _O_PROGRAM:
            programs[channel] = a
        else:
            seconds = (segment_us + (tick - segment_tick) * tempo) / denominator
            held = open_notes.pop((channel, a), None)
            if held is not None:
                start, velocity, program = held
                notes.append(Note(start, a, seconds, velocity, program, channel == 9))
            if kind == _O_ON:
                open_notes[channel, a] = (seconds, b, programs[channel])
    seconds = (segment_us + (end_tick - segment_tick) * tempo) / denominator
    for (channel, pitch), (start, velocity, program) in open_notes.items():
        notes.append(Note(start, pitch, seconds, velocity, program, channel == 9))
    return NoteSequence(notes, reference_bpm=reference_bpm)


def _oracle_varlen(value):
    if not 0 <= value <= 0x0FFF_FFFF:
        raise ValueError(f"delta {value} outside variable-length range")
    out = bytearray([value & 0x7F])
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    out.reverse()
    return bytes(out)


def _oracle_write_midi(seq):
    melodic = [c for c in range(16) if c != 9]
    channel_for = {}
    drum_program = None
    events = [(0, 0, bytes([0xFF, 0x51, 0x03]) + DEFAULT_TEMPO_US.to_bytes(3, "big"))]
    for note in seq.notes:
        if note.velocity == 0:
            raise ValueError("velocity-0 note cannot be written as a note on")
        start = round(note.start * PPQ * 1_000_000 / DEFAULT_TEMPO_US)
        end = round(note.end * PPQ * 1_000_000 / DEFAULT_TEMPO_US)
        if note.is_drum:
            channel = 9
            if note.program != drum_program:
                drum_program = note.program
                events.append((start, 1, bytes([0xC0 | channel, note.program])))
        else:
            channel = channel_for.get(note.program)
            if channel is None:
                if len(channel_for) >= len(melodic):
                    raise ValueError("more than 15 distinct melodic programs")
                channel = melodic[len(channel_for)]
                channel_for[note.program] = channel
                events.append((0, 1, bytes([0xC0 | channel, note.program])))
        off_rank = 4 if end == start else 2
        events.append((start, 3, bytes([0x90 | channel, note.pitch, note.velocity])))
        events.append((end, off_rank, bytes([0x80 | channel, note.pitch, 0])))

    events.sort(key=itemgetter(0, 1))
    body = bytearray()
    tick = 0
    for event_tick, _, message in events:
        body += _oracle_varlen(event_tick - tick)
        body += message
        tick = event_tick
    body += b"\x00\xff\x2f\x00"

    header = b"MThd" + (6).to_bytes(4, "big")
    header += (0).to_bytes(2, "big") + (1).to_bytes(2, "big") + PPQ.to_bytes(2, "big")
    return header + b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


def _drum_programs_alone(seq):
    """Whether each drum program change shares its tick with nothing but its
    own onset: elsewhere the oracle's program rank puts it before the offs,
    the other onsets and (at tick 0) the melodic program changes that the
    writer now puts first."""
    def tick(t):
        return round(t * PPQ * 1_000_000 / DEFAULT_TEMPO_US)

    events = Counter()
    for note in seq.notes:
        events[tick(note.start)] += 1
        events[tick(note.end)] += 1
    melodic = any(not note.is_drum for note in seq.notes)
    drum_program = None
    for note in seq.notes:
        if note.is_drum and note.program != drum_program:
            drum_program = note.program
            at = tick(note.start)
            if events[at] > 1 or (at == 0 and melodic):
                return False
    return True


@given(grid_sequences())
def test_writer_matches_oracle(seq):
    assume(_drum_programs_alone(seq))
    assert write_midi(seq) == _oracle_write_midi(seq)


def test_writer_matches_oracle_off_grid():
    # a delta of every varlen length, and ticks that round either way
    rng = random.Random(5)
    notes = []
    start = 0.0
    for k in range(200):
        # gaps of 4-byte (2300 s), 3-byte (20 s) and shorter deltas
        start += 2300.0 if k % 100 == 50 else 20.0 if k % 10 == 5 else rng.random() * 0.3
        notes.append(Note(start, rng.randint(0, 127), start + rng.random() * 3,
                          rng.randint(1, 127), program=k % 4, is_drum=k % 9 == 0))
    seq = NoteSequence(notes)
    assert write_midi(seq) == _oracle_write_midi(seq)


def _outcome(parse, data):
    try:
        seq = parse(data)
    except (MidiParseError, SequenceTooLongError) as err:
        return type(err), str(err), getattr(err, "offset", None)
    return seq.notes, seq.total_duration, seq.reference_bpm


def _with_track(body):
    return smf([b"MTrk" + len(body).to_bytes(4, "big") + body])


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["set", "insert", "delete"]),
        st.integers(0, len(_FUZZ_SEED)),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=8,
)


def _edited(edits):
    buf = bytearray(_FUZZ_SEED)
    for kind, pos, value in edits:
        if kind == "insert":
            buf.insert(pos, value)
        elif pos < len(buf):
            if kind == "set":
                buf[pos] = value
            else:
                del buf[pos]
    return bytes(buf)


def _truncated(cut, fix_length):
    # the file cut at `cut`; with fix_length the chunk length is set to what
    # is left, so the track reader, not the chunk check, meets the cut
    data = _FUZZ_SEED[:cut]
    if fix_length and cut >= 22:
        data = data[:18] + (cut - 22).to_bytes(4, "big") + data[22:]
    return data


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        _EDITS.map(_edited),
        st.builds(_truncated, st.integers(0, len(_FUZZ_SEED)), st.booleans()),
        st.binary(max_size=64),
        st.binary(max_size=64).map(_with_track),
    )
)
def test_reader_matches_oracle(data):
    assert _outcome(parse_midi, data) == _outcome(_oracle_parse_midi, data)


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
