"""MIDI-Like token encoding of note windows.

The vocabulary is 772 IDs: 128 instrument, 128 note, 2 on/off, 512 time,
one end-tie marker, one EOS. Instrument and on/off tokens are state-change
encoded; time tokens are absolute within the window. A stream opens with a
tie section naming the notes already sounding at the window start.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .notes import Note, Window

# Token-ID layout: 128 instrument IDs (the program numbers), 128 note IDs,
# Off and On, 512 time steps, the end-tie marker and EOS.
TIME_STEPS = 512
NOTE_OFFSET = 128
ONOFF_OFFSET = NOTE_OFFSET + 128
OFF_ID, ON_ID = ONOFF_OFFSET, ONOFF_OFFSET + 1
TIME_OFFSET = ONOFF_OFFSET + 2
END_TIE_ID = TIME_OFFSET + TIME_STEPS
EOS_ID = END_TIE_ID + 1
VOCAB_SIZE = EOS_ID + 1  # 772

_MAGIC = b"ENTK"
_VERSION = 1
_HEADER = struct.Struct("<4sHHII")  # magic, version, vocab size, window ms, reserved

DECODE_VELOCITY = 100  # velocity is not tokenized; decoded notes all get this


class DecodeError(ValueError):
    pass


def describe(token: int) -> tuple[str, int]:
    """Classify a token ID as (kind, value)."""
    if 0 <= token < NOTE_OFFSET:
        return "instrument", token
    if NOTE_OFFSET <= token < ONOFF_OFFSET:
        return "note", token - NOTE_OFFSET
    if ONOFF_OFFSET <= token < TIME_OFFSET:
        return "onoff", token - ONOFF_OFFSET
    if TIME_OFFSET <= token < END_TIE_ID:
        return "time", token - TIME_OFFSET
    if token == END_TIE_ID:
        return "end_tie", 0
    if token == EOS_ID:
        return "eos", 0
    raise DecodeError(f"token {token} outside vocabulary")


def time_resolution(window_length: float) -> float:
    """Seconds per time step: the window length divided over 512 steps."""
    return window_length / TIME_STEPS


@dataclass(frozen=True)
class TokenStream:
    """One window's token IDs plus the window length they quantize against."""

    tokens: tuple[int, ...]
    window_length: float

    def __len__(self) -> int:
        return len(self.tokens)

    def to_bytes(self) -> bytes:
        """Header (magic, version, vocab size, window ms) + u16 LE token body."""
        window_ms = round(self.window_length * 1000)
        header = _HEADER.pack(_MAGIC, _VERSION, VOCAB_SIZE, window_ms, 0)
        return header + struct.pack(f"<{len(self.tokens)}H", *self.tokens)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TokenStream":
        if len(data) < _HEADER.size:
            raise DecodeError("token buffer shorter than header")
        magic, version, vocab_size, window_ms, _ = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise DecodeError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise DecodeError(f"unsupported token format version {version}")
        if window_ms == 0:
            raise DecodeError("zero-length window")
        if vocab_size != VOCAB_SIZE:
            raise DecodeError(f"vocabulary size {vocab_size} not supported")
        body = data[_HEADER.size :]
        if len(body) % 2:
            raise DecodeError("token body has odd byte length")
        tokens = struct.unpack(f"<{len(body) // 2}H", body)
        if any(t >= vocab_size for t in tokens):
            raise DecodeError("token ID outside declared vocabulary")
        return cls(tokens=tokens, window_length=window_ms / 1000)


def encode(window: Window) -> TokenStream:
    """Tokenize a window.

    Events sharing a quantized time sort Off before On, then by program and
    pitch. A note whose end quantizes past the last step carries no Off; the
    decoder closes it at the window end. A note quantized to zero length is
    stretched to one step so its Off stays after its On.
    """
    res = time_resolution(window.length)
    tokens = []
    program = None
    onoff = None

    for note in sorted(window.sustained, key=itemgetter(4, 1)):  # program, pitch
        if note.program != program:
            tokens.append(note.program)
            program = note.program
        tokens.append(NOTE_OFFSET + note.pitch)
    tokens.append(END_TIE_ID)

    events = []
    for note in window.notes:
        q_start = min(round(note.start / res), TIME_STEPS - 1)
        q_end = max(round(note.end / res), q_start + 1)
        events.append((q_start, 1, note.program, note.pitch))
        if q_end < TIME_STEPS:
            events.append((q_end, 0, note.program, note.pitch))
    for note in window.sustained:
        q_end = max(round(note.end / res), 1)
        if q_end < TIME_STEPS:
            events.append((q_end, 0, note.program, note.pitch))
    events.sort()

    time = None
    for q_time, is_on, note_program, pitch in events:
        if q_time != time:
            tokens.append(TIME_OFFSET + q_time)
            time = q_time
        if note_program != program:
            tokens.append(note_program)
            program = note_program
        if is_on != onoff:
            tokens.append(ONOFF_OFFSET + is_on)
            onoff = is_on
        tokens.append(NOTE_OFFSET + pitch)
    tokens.append(EOS_ID)
    return TokenStream(tokens=tuple(tokens), window_length=window.length)


def decode(
    stream: TokenStream, strict: bool = True, warnings: list | None = None
) -> Window:
    """Rebuild a window from tokens; times land on the quantization grid.

    Offs match the oldest open note of the same program and pitch, so nested
    same-pitch overlaps decode with their ends exchanged (the stream cannot
    distinguish them). Tie-section notes get a start one step before zero.
    With strict=False, recoverable problems are skipped and described in the
    `warnings` list when one is passed. A window length that is not
    positive raises DecodeError whatever `strict` says.
    """
    if not stream.window_length > 0:
        raise DecodeError(f"window length must be positive, got {stream.window_length}")
    res = time_resolution(stream.window_length)

    def problem(message: str):
        if strict:
            raise DecodeError(message)
        if warnings is not None:
            warnings.append(message)

    program = None
    time = None
    onoff = None
    in_tie = True
    # one queue of open starts per (program, pitch); tie-section starts (-res)
    # enter before any onset, so an Off closes a sustained note first
    open_notes: dict[tuple[int, int], deque] = {}
    notes = []
    sustained = []

    def close(key, end):
        start = open_notes[key].popleft()
        if start < 0 and end <= 0:
            problem("sustained note closed at the window start")
            end = res / 2
        (sustained if start < 0 else notes).append(
            Note(
                start=start,
                pitch=key[1],
                end=max(end, start),
                velocity=DECODE_VELOCITY,
                program=key[0],
            )
        )

    tokens = stream.tokens
    end = tokens.index(EOS_ID) if EOS_ID in tokens else len(tokens)
    for position, token in enumerate(tokens[:end]):
        kind, value = describe(token)
        if kind == "end_tie":
            if not in_tie:
                problem(f"second end-tie marker at token {position}")
            in_tie = False
        elif kind == "instrument":
            program = value
        elif kind == "time":
            if in_tie:
                problem(f"time token inside tie section at token {position}")
                continue
            new_time = value * res
            if time is not None and new_time < time:
                problem(f"time decreases at token {position}")
            time = new_time
        elif kind == "onoff":
            if in_tie:
                problem(f"on/off token inside tie section at token {position}")
                continue
            onoff = value
        else:  # note
            if program is None:
                problem(f"note before any instrument token at token {position}")
            key = (program or 0, value)  # leniently, such a note is program 0's
            if in_tie:
                open_notes.setdefault(key, deque()).append(-res)
            else:
                if time is None:
                    problem(f"note before any time token at token {position}")
                    continue
                if onoff is None:
                    problem(f"note before any on/off token at token {position}")
                    continue
                if onoff == 1:
                    open_notes.setdefault(key, deque()).append(time)
                elif open_notes.get(key):
                    close(key, time)
                else:
                    problem(f"off for a silent note at token {position}")
    if end + 1 < len(tokens):
        describe(tokens[end + 1])  # an ID outside the vocabulary raises here too
        problem(f"token {end + 1} follows EOS")
    if in_tie:
        problem("stream has no end-tie marker")
    if end == len(tokens):
        problem("stream does not end with EOS")

    for key, queue in open_notes.items():
        while queue:
            close(key, stream.window_length)

    order = itemgetter(0, 1, 4, 2)  # start, pitch, program, end
    return Window(
        offset=0.0,
        length=stream.window_length,
        notes=tuple(sorted(notes, key=order)),
        sustained=tuple(sorted(sustained, key=order)),
    )
