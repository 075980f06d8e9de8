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

# writer byte order for events sharing a tick: tempo and program changes
# first, then offs, so a note ending where its successor begins closes before
# the new onset; a zero-length note keeps its own off after its on
_RANK_TEMPO = 0
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


def _parse_track(data: bytes, start: int, limit: int, index: int, events: list) -> int:
    """Append one MTrk payload's channel events and tempo changes to events.

    Each event is a (tick, index, kind, data_a, data_b, channel) tuple in
    stream order; a tempo change is an _EV_TEMPO event with microseconds
    per quarter in data_a. Returns the track's end tick. The track is read
    by index from a view that ends at the chunk, so a read past the chunk
    raises IndexError, reported as an event cut off at the failing read.
    """
    view = memoryview(data)[:limit]
    pos = start

    def varlen() -> int:
        nonlocal pos
        value = 0
        for _ in range(4):
            byte = view[pos]
            pos += 1
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        raise MidiParseError("variable-length quantity exceeds 4 bytes", pos)

    def data_byte() -> int:
        nonlocal pos
        byte = view[pos]
        pos += 1
        if byte & 0x80:
            raise MidiParseError(f"expected data byte, found status 0x{byte:02X}", pos - 1)
        return byte

    def take(count: int) -> memoryview:
        nonlocal pos
        if pos + count > limit:
            raise IndexError
        pos += count
        return view[pos - count : pos]

    tick = 0
    running: int | None = None
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
                    events.append((tick, index, _EV_TEMPO, tempo, 0, 0))
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
                    events.append((tick, index, _EV_ON, a, b, channel))
                elif kind == 0x80 or kind == 0x90:
                    events.append((tick, index, _EV_OFF, a, 0, channel))
                elif kind == 0xC0:
                    events.append((tick, index, _EV_PROGRAM, a, 0, channel))
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

    # merge by (tick, track); the stable sort keeps each track's stream order,
    # which is the authoritative order for events sharing a tick
    events = []
    end_tick = 0
    for index, (body, limit) in enumerate(spans):
        end_tick = max(end_tick, _parse_track(data, body, limit, index, events))
    events.sort(key=itemgetter(0, 1))  # (tick, track)

    # the tempo in force began at segment_tick, segment_us (exact integer
    # tick-microseconds) in; changes sharing a tick add 0, so the last wins
    segment_tick, segment_us, tempo = 0, 0, DEFAULT_TEMPO_US
    denominator = division * 1_000_000
    reference_bpm = None
    programs = [0] * 16
    open_notes: dict[tuple[int, int], tuple[float, int, int]] = {}
    notes = []
    for tick, _, kind, a, b, channel in events:
        if kind == _EV_TEMPO:
            segment_us += (tick - segment_tick) * tempo
            segment_tick, tempo = tick, a
            if reference_bpm is None:
                reference_bpm = 60_000_000 / a
        elif kind == _EV_PROGRAM:
            programs[channel] = a
        else:
            seconds = (segment_us + (tick - segment_tick) * tempo) / denominator
            held = open_notes.pop((channel, a), None)
            if held is not None:
                start, velocity, program = held
                notes.append(Note(start, a, seconds, velocity, program, channel == _DRUM_CHANNEL))
            if kind == _EV_ON:
                open_notes[channel, a] = (seconds, b, programs[channel])
    del events  # before NoteSequence sorts the notes
    seconds = (segment_us + (end_tick - segment_tick) * tempo) / denominator
    for (channel, pitch), (start, velocity, program) in open_notes.items():
        notes.append(Note(start, pitch, seconds, velocity, program, channel == _DRUM_CHANNEL))
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
    note off).
    """
    melodic = [c for c in range(16) if c != _DRUM_CHANNEL]
    channel_for: dict[int, int] = {}
    drum_program: int | None = None
    events = [(0, _RANK_TEMPO, bytes([0xFF, 0x51, 0x03]) + DEFAULT_TEMPO_US.to_bytes(3, "big"))]
    for note in seq.notes:
        if note.velocity == 0:
            raise ValueError("velocity-0 note cannot be written as a note on")
        start = round(note.start * PPQ * 1_000_000 / DEFAULT_TEMPO_US)
        end = round(note.end * PPQ * 1_000_000 / DEFAULT_TEMPO_US)
        if note.is_drum:
            channel = _DRUM_CHANNEL
            if note.program != drum_program:
                drum_program = note.program
                events.append(
                    (start, _RANK_PROGRAM, bytes([0xC0 | channel, note.program]))
                )
        else:
            channel = channel_for.get(note.program)
            if channel is None:
                if len(channel_for) >= len(melodic):
                    raise ValueError("more than 15 distinct melodic programs")
                channel = melodic[len(channel_for)]
                channel_for[note.program] = channel
                events.append((0, _RANK_PROGRAM, bytes([0xC0 | channel, note.program])))
        off_rank = _RANK_ZERO_LEN_OFF if end == start else _RANK_OFF
        events.append((start, _RANK_ON, bytes([0x90 | channel, note.pitch, note.velocity])))
        events.append((end, off_rank, bytes([0x80 | channel, note.pitch, 0])))

    events.sort(key=itemgetter(0, 1))  # (tick, rank)
    body = bytearray()
    tick = 0
    for event_tick, _, message in events:
        body += _encode_varlen(event_tick - tick)
        body += message
        tick = event_tick
    body += b"\x00\xff\x2f\x00"

    header = b"MThd" + (6).to_bytes(4, "big")
    header += (0).to_bytes(2, "big") + (1).to_bytes(2, "big") + PPQ.to_bytes(2, "big")
    return header + b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)
