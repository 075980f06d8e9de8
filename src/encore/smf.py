"""Standard MIDI File (format 0 and 1) reading and writing.

Tick arithmetic stays in exact integers until the final division into
seconds, so long files with many tempo changes accumulate no drift.
"""

from __future__ import annotations

from operator import itemgetter

from .notes import Note, NoteSequence

DEFAULT_TEMPO_US = 500_000  # microseconds per quarter note, per the SMF standard
PPQ = 480  # ticks per quarter note in written files

_DRUM_CHANNEL = 9

_EV_OFF, _EV_ON, _EV_PROGRAM, _EV_TEMPO = 0, 1, 2, 3

# writer byte order for events sharing a tick, after the tempo that opens
# the track: melodic program changes (all at tick 0) first, then offs, so a
# note ending where its successor begins closes before the new onset; a drum
# program change takes its onset's rank and so stays just before it; a
# zero-length note keeps its own off after its on
_RANK_PROGRAM = 1
_RANK_OFF = 2
_RANK_ON = 3
_RANK_ZERO_LEN_OFF = 4


class MidiParseError(ValueError):
    """Malformed SMF data; `offset` is the failing position in the buffer."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedFormatError(MidiParseError):
    """Well-formed SMF the reader does not handle (format 2, SMPTE division)."""


def _parse_track(data: bytes, start: int, limit: int, events: list) -> int:
    """Append one MTrk payload's channel events and tempo changes to events.

    Each event is a (tick, kind, data_a, data_b, channel) tuple in stream
    order; a tempo change is an _EV_TEMPO event with microseconds per
    quarter in data_a. Returns the track's end tick. The track is read
    by index from a view that ends at the chunk, so a read past the chunk
    raises IndexError, reported as an event cut off at the failing read.
    Every field is read inline; a delta below 0x80 takes no loop.
    """
    view = memoryview(data)[:limit]
    append = events.append
    pos = start
    tick = 0
    running = 0  # no running status: a status byte is never 0
    try:
        while pos < limit:
            byte = view[pos]
            pos += 1
            if byte < 0x80:
                tick += byte
            else:
                delta = byte & 0x7F
                for _ in range(3):
                    byte = view[pos]
                    pos += 1
                    delta = delta << 7 | byte & 0x7F
                    if byte < 0x80:
                        break
                else:
                    raise MidiParseError("variable-length quantity exceeds 4 bytes", pos)
                tick += delta

            status = view[pos]
            pos += 1
            if status < 0x80:
                if not running:
                    raise MidiParseError("data byte with no running status", pos - 1)
                a = status
                status = running
            elif status < 0xF0:
                running = status
                a = view[pos]
                pos += 1
                if a > 0x7F:
                    raise MidiParseError(f"expected data byte, found status 0x{a:02X}", pos - 1)
            else:
                # meta and sysex: a length, then that many bytes to skip
                if status == 0xFF:
                    meta_type = view[pos]
                    pos += 1
                elif status == 0xF0 or status == 0xF7:
                    meta_type = -1
                else:
                    raise MidiParseError(f"unsupported system message 0x{status:02X}", pos - 1)
                running = 0
                length = 0
                for _ in range(4):
                    byte = view[pos]
                    pos += 1
                    length = length << 7 | byte & 0x7F
                    if byte < 0x80:
                        break
                else:
                    raise MidiParseError("variable-length quantity exceeds 4 bytes", pos)
                if pos + length > limit:
                    raise IndexError
                pos += length
                if meta_type == 0x51:
                    if length != 3:
                        raise MidiParseError(f"tempo event with length {length}", pos)
                    tempo = view[pos - 3] << 16 | view[pos - 2] << 8 | view[pos - 1]
                    if tempo == 0:
                        raise MidiParseError("zero tempo", pos - 3)
                    append((tick, _EV_TEMPO, tempo, 0, 0))
                elif meta_type == 0x2F:
                    break
                continue

            kind = status & 0xF0
            if kind == 0xC0:
                append((tick, _EV_PROGRAM, a, 0, status & 0x0F))
            elif kind != 0xD0:
                b = view[pos]
                pos += 1
                if b > 0x7F:
                    raise MidiParseError(f"expected data byte, found status 0x{b:02X}", pos - 1)
                if kind == 0x90 and b:
                    append((tick, _EV_ON, a, b, status & 0x0F))
                elif kind == 0x80 or kind == 0x90:
                    append((tick, _EV_OFF, a, 0, status & 0x0F))
            # control change, aftertouch, and pitch bend are ignored
    except IndexError:
        raise MidiParseError("track data ends mid-event", pos) from None
    return tick


def parse_midi(data: bytes, source_id: str = "") -> NoteSequence:
    """Parse an SMF byte buffer (format 0 or 1) into a NoteSequence.

    Overlapping same-pitch notes on one channel truncate the earlier note at
    the later onset. Channel 10 notes are flagged is_drum. The sequence's
    reference_bpm comes from the first tempo event, or None without one.
    """
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
        raise MidiParseError(
            f"header declares {n_tracks} tracks, found {len(spans)}", pos
        )

    # merge by (tick, track), stream order within a track, which is the
    # authoritative order for events sharing a tick: the tracks are read one
    # after another, so a stable sort by tick alone gives that order
    events = []
    end_tick = 0
    for body, limit in spans:
        end_tick = max(end_tick, _parse_track(data, body, limit, events))
    events.sort(key=itemgetter(0))

    # the tempo in force began at segment_tick, segment_us (exact integer
    # tick-microseconds) in; changes sharing a tick add 0, so the last wins
    segment_tick, segment_us, tempo = 0, 0, DEFAULT_TEMPO_US
    denominator = division * 1_000_000
    reference_bpm = None
    programs = [0] * 16
    # sounding notes by channel << 7 | pitch
    open_notes: dict[int, tuple[float, int, int]] = {}
    pop_open = open_notes.pop
    notes = []
    add_note = notes.append
    for tick, kind, a, b, channel in events:
        if kind <= _EV_ON:
            seconds = (segment_us + (tick - segment_tick) * tempo) / denominator
            key = channel << 7 | a
            held = pop_open(key, None)
            if held is not None:
                start, velocity, program = held
                add_note(Note(start, a, seconds, velocity, program, channel == _DRUM_CHANNEL))
            if kind == _EV_ON:
                open_notes[key] = (seconds, b, programs[channel])
        elif kind == _EV_PROGRAM:
            programs[channel] = a
        else:
            segment_us += (tick - segment_tick) * tempo
            segment_tick, tempo = tick, a
            if reference_bpm is None:
                reference_bpm = 60_000_000 / a
    del events  # before NoteSequence sorts the notes
    seconds = (segment_us + (end_tick - segment_tick) * tempo) / denominator
    for key, (start, velocity, program) in open_notes.items():
        add_note(Note(start, key & 0x7F, seconds, velocity, program, key >> 7 == _DRUM_CHANNEL))
    return NoteSequence(notes, source_id=source_id, reference_bpm=reference_bpm)


def _encode_varlen(value: int) -> bytes:
    if not 0 <= value <= 0x0FFF_FFFF:
        raise ValueError(f"delta {value} outside variable-length range")
    out = bytearray([value & 0x7F])
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    out.reverse()
    return bytes(out)


def write_midi(seq: NoteSequence) -> bytes:
    """Serialize a NoteSequence as a single-track format 0 SMF at
    DEFAULT_TEMPO_US (120 BPM, so 960 ticks per second).

    Times quantize to the PPQ tick grid (round to nearest). Each program
    gets its own channel, drums channel 10; more than 15 distinct melodic
    programs is an error, as is a velocity-0 note (it would read back as a
    note off). A drum program change goes just before the drum onset that
    needs it, so drums of different programs may start on one tick.
    """
    melodic = [c for c in range(16) if c != _DRUM_CHANNEL]
    channel_for: dict[int, int] = {}
    drum_program: int | None = None
    # (tick << 3 | rank, status, data1, data2), so one integer sorts by
    # (tick, rank); a program change has no data2 (-1)
    events: list[tuple[int, int, int, int]] = []
    add = events.append
    for start, pitch, end, velocity, program, is_drum in seq.notes:
        if velocity == 0:
            raise ValueError("velocity-0 note cannot be written as a note on")
        start = round(start * PPQ * 1_000_000 / DEFAULT_TEMPO_US)
        end = round(end * PPQ * 1_000_000 / DEFAULT_TEMPO_US)
        if is_drum:
            channel = _DRUM_CHANNEL
            if program != drum_program:
                drum_program = program
                add((start << 3 | _RANK_ON, 0xC0 | channel, program, -1))
        else:
            channel = channel_for.get(program)
            if channel is None:
                if len(channel_for) >= len(melodic):
                    raise ValueError("more than 15 distinct melodic programs")
                channel = melodic[len(channel_for)]
                channel_for[program] = channel
                add((_RANK_PROGRAM, 0xC0 | channel, program, -1))
        add((start << 3 | _RANK_ON, 0x90 | channel, pitch, velocity))
        off_rank = _RANK_ZERO_LEN_OFF if end == start else _RANK_OFF
        add((end << 3 | off_rank, 0x80 | channel, pitch, 0))

    events.sort(key=itemgetter(0))  # stable: one tick and rank keep note order
    body = bytearray(b"\x00\xff\x51\x03" + DEFAULT_TEMPO_US.to_bytes(3, "big"))
    put = body.append
    tick = 0
    for key, status, data1, data2 in events:
        delta = (key >> 3) - tick
        tick += delta
        if delta < 0x80:
            put(delta)
        else:
            body += _encode_varlen(delta)
        put(status)
        put(data1)
        if data2 >= 0:
            put(data2)
    body += b"\x00\xff\x2f\x00"

    header = b"MThd" + (6).to_bytes(4, "big")
    header += (0).to_bytes(2, "big") + (1).to_bytes(2, "big") + PPQ.to_bytes(2, "big")
    return header + b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)
