"""Tokenizer tests: hand-encoded oracles, round trips, binary format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encore.notes import Note, Window
from encore.tokenizer import (
    DECODE_VELOCITY,
    END_TIE_ID,
    EOS_ID,
    NOTE_OFFSET,
    OFF_ID,
    ON_ID,
    ONOFF_OFFSET,
    TIME_OFFSET,
    TIME_STEPS,
    VOCAB_SIZE,
    DecodeError,
    TokenStream,
    decode,
    describe,
    encode,
    time_resolution,
)

RES = time_resolution(10.0)  # 10/512 s, exactly representable


def test_vocabulary_layout():
    assert VOCAB_SIZE == 772 == 128 + 128 + 2 + 512 + 1 + 1
    assert (NOTE_OFFSET, ONOFF_OFFSET) == (128, 256)
    assert (TIME_OFFSET, END_TIE_ID, EOS_ID) == (258, 770, 771)
    assert OFF_ID == 256 and ON_ID == 257


@pytest.mark.parametrize(
    "token,expected",
    [
        (0, ("instrument", 0)),
        (127, ("instrument", 127)),
        (128, ("note", 0)),
        (255, ("note", 127)),
        (256, ("onoff", 0)),
        (257, ("onoff", 1)),
        (258, ("time", 0)),
        (769, ("time", 511)),
        (770, ("end_tie", 0)),
        (771, ("eos", 0)),
    ],
)
def test_describe(token, expected):
    assert describe(token) == expected


@pytest.mark.parametrize("token", [-1, 772, 100000])
def test_describe_out_of_range(token):
    with pytest.raises(DecodeError):
        describe(token)


def test_encode_empty_window():
    stream = encode(Window(offset=0.0, length=10.0))
    assert stream.tokens == (END_TIE_ID, EOS_ID)


def test_encode_single_note_oracle():
    # hand-encoded: EndTie, Time(0), Instrument(0), On, Note(60),
    # Time(51), Off, Note(60), EOS with q(1.0) = round(1.0 / (10/512)) = 51
    win = Window(offset=0.0, length=10.0, notes=(Note(start=0.0, pitch=60, end=1.0),))
    stream = encode(win)
    assert stream.tokens == (770, 258, 0, 257, 188, 258 + 51, 256, 188, 771)


def test_state_change_encoding():
    win = Window(
        offset=0.0,
        length=10.0,
        notes=(
            Note(start=0.0, pitch=60, end=1.0),
            Note(start=0.0, pitch=64, end=1.0),
        ),
    )
    tokens = encode(win).tokens
    assert tokens == (770, 258, 0, 257, 188, 192, 258 + 51, 256, 188, 192, 771)


def test_off_before_on_at_equal_time():
    win = Window(
        offset=0.0,
        length=10.0,
        notes=(
            Note(start=0.0, pitch=60, end=1.0),
            Note(start=1.0, pitch=60, end=2.0),
        ),
    )
    tokens = encode(win).tokens
    t51 = 258 + 51
    assert tokens == (770, 258, 0, 257, 188, t51, 256, 188, 257, 188, 258 + 102, 256, 188, 771)


def test_tie_section():
    held = Note(start=-0.5, pitch=60, end=2.0, program=5)
    win = Window(offset=10.0, length=10.0, sustained=(held,))
    stream = encode(win)
    assert stream.tokens[:3] == (5, 188, 770)
    out = decode(stream)
    (got,) = out.sustained
    assert (got.program, got.pitch) == (5, 60)
    assert got.start == -RES
    assert got.end == pytest.approx(2.0, abs=RES)


def test_tie_note_held_through_window():
    held = Note(start=-1.0, pitch=50, end=12.5)
    win = Window(offset=10.0, length=10.0, sustained=(held,))
    stream = encode(win)
    assert len(stream.tokens) == 4  # instrument, note, end tie, eos: no off event
    (got,) = decode(stream).sustained
    assert got.end == 10.0


def test_unclosed_on_ends_at_window_edge():
    tokens = (END_TIE_ID, TIME_OFFSET + 511, 0, ON_ID, 188, EOS_ID)
    win = decode(TokenStream(tokens=tokens, window_length=10.0))
    (got,) = win.notes
    assert got.start == 511 * RES
    assert got.end == 10.0


def test_decode_empty():
    win = decode(TokenStream(tokens=(END_TIE_ID, EOS_ID), window_length=10.0))
    assert win.notes == () and win.sustained == ()


def test_zero_length_note_gets_one_step():
    win = Window(offset=0.0, length=10.0, notes=(Note(start=2.0, pitch=60, end=2.0),))
    (got,) = decode(encode(win)).notes
    assert got.end - got.start == pytest.approx(RES)


def test_velocity_not_tokenized():
    win = Window(
        offset=0.0, length=10.0, notes=(Note(start=0.0, pitch=60, end=1.0, velocity=33),)
    )
    (got,) = decode(encode(win)).notes
    assert got.velocity == DECODE_VELOCITY


@pytest.mark.parametrize("velocity", [128, -1])
def test_decode_builds_checked_notes(monkeypatch, velocity):
    win = Window(offset=0.0, length=10.0, notes=(Note(start=0.0, pitch=60, end=1.0),))
    stream = encode(win)
    monkeypatch.setattr("encore.tokenizer.DECODE_VELOCITY", velocity)
    with pytest.raises(ValueError, match="velocity"):
        decode(stream)


def test_encode_order_insensitive():
    a = Note(start=1.0, pitch=60, end=3.0)
    b = Note(start=0.5, pitch=72, end=2.0, program=9)
    fwd = encode(Window(offset=0.0, length=10.0, notes=(a, b)))
    rev = encode(Window(offset=0.0, length=10.0, notes=(b, a)))
    assert fwd == rev


def test_strict_decode_errors():
    cases = [
        ((END_TIE_ID, 258, 0, OFF_ID, 188, EOS_ID), "off for a silent note at token 4"),
        ((END_TIE_ID, EOS_ID, 258), "token 2 follows EOS"),
        ((END_TIE_ID,), "stream does not end with EOS"),
        ((EOS_ID,), "stream has no end-tie marker"),
        ((END_TIE_ID, 0, 258 + 51, ON_ID, 188, 258, EOS_ID), "time decreases at token 5"),
        ((END_TIE_ID, 258, 0, 188, EOS_ID), "note before any on/off token at token 3"),
        ((END_TIE_ID, 0, ON_ID, 188, EOS_ID), "note before any time token at token 3"),
        ((258, END_TIE_ID, EOS_ID), "time token inside tie section at token 0"),
        ((ON_ID, END_TIE_ID, EOS_ID), "on/off token inside tie section at token 0"),
        ((END_TIE_ID, 258, ON_ID, 188, EOS_ID), "note before any instrument token at token 3"),
        ((END_TIE_ID, END_TIE_ID, EOS_ID), "second end-tie marker at token 1"),
        ((0, 188, END_TIE_ID, 258, OFF_ID, 188, EOS_ID),
         "sustained note closed at the window start"),
        # several problems: the first one in stream order is raised
        ((258, ON_ID, 188, EOS_ID, 5), "time token inside tie section at token 0"),
        ((EOS_ID, 0, 5), "token 1 follows EOS"),
    ]
    for tokens, message in cases:
        with pytest.raises(DecodeError, match=f"^{message}$"):
            decode(TokenStream(tokens=tokens, window_length=10.0))


@pytest.mark.parametrize("strict", [True, False])
def test_out_of_vocabulary_after_eos_raises(strict):
    """An ID past the vocabulary raises even in lenient mode, also after EOS,
    where it would otherwise be reported as following EOS."""
    stream = TokenStream(tokens=(END_TIE_ID, EOS_ID, VOCAB_SIZE, 0), window_length=10.0)
    with pytest.raises(DecodeError, match=f"^token {VOCAB_SIZE} outside vocabulary$"):
        decode(stream, strict=strict, warnings=[])


def test_lenient_decode_collects_warnings():
    tokens = (END_TIE_ID, 258, 0, OFF_ID, 188, EOS_ID)
    warnings = []
    win = decode(
        TokenStream(tokens=tokens, window_length=10.0), strict=False, warnings=warnings
    )
    assert win.notes == ()
    assert warnings == ["off for a silent note at token 4"]


@pytest.mark.parametrize("tokens, expected, notes, sustained", [
    (
        (258 + 5, ON_ID, 188, END_TIE_ID, 0, 189, 258 + 10, 190, END_TIE_ID, 258 + 5,
         OFF_ID, 191, ON_ID, 192, 258 + 20, OFF_ID, 188),
        ["time token inside tie section at token 0",
         "on/off token inside tie section at token 1",
         "note before any instrument token at token 2",
         "note before any time token at token 5",
         "note before any on/off token at token 7",
         "second end-tie marker at token 8",
         "time decreases at token 9",
         "off for a silent note at token 11",
         "stream does not end with EOS"],
        [Note(start=5 * RES, pitch=64, end=10.0, velocity=DECODE_VELOCITY)],
        [Note(start=-RES, pitch=60, end=20 * RES, velocity=DECODE_VELOCITY)],
    ),
    (   # a note before any instrument token decodes as program 0, each time
        (188, END_TIE_ID, 258, OFF_ID, 188, ON_ID, 190, EOS_ID, 5, 6),
        ["note before any instrument token at token 0",
         "note before any instrument token at token 4",
         "sustained note closed at the window start",
         "note before any instrument token at token 6",
         "token 8 follows EOS"],
        [Note(start=0.0, pitch=62, end=10.0, velocity=DECODE_VELOCITY)],
        [Note(start=-RES, pitch=60, end=RES / 2, velocity=DECODE_VELOCITY)],
    ),
    ((EOS_ID, 0, 5), ["token 1 follows EOS", "stream has no end-tie marker"], [], []),
], ids=["every check", "no instrument", "only EOS"])
def test_lenient_decode_reports_every_problem_in_order(tokens, expected, notes, sustained):
    warnings = []
    win = decode(TokenStream(tokens=tokens, window_length=10.0), strict=False,
                 warnings=warnings)
    assert warnings == expected
    assert win.notes == tuple(notes) and win.sustained == tuple(sustained)


def test_binary_round_trip():
    win = Window(
        offset=0.0,
        length=10.0,
        notes=(Note(start=0.25, pitch=60, end=1.5), Note(start=3.0, pitch=72, end=4.0)),
    )
    stream = encode(win)
    data = stream.to_bytes()
    assert data[:4] == b"ENTK"
    assert len(data) == 16 + 2 * len(stream.tokens)
    back = TokenStream.from_bytes(data)
    assert back == stream


def test_binary_format_errors():
    stream = encode(Window(offset=0.0, length=10.0))
    data = stream.to_bytes()
    with pytest.raises(DecodeError):
        TokenStream.from_bytes(b"NOPE" + data[4:])
    with pytest.raises(DecodeError):
        TokenStream.from_bytes(data[:10])
    with pytest.raises(DecodeError):
        TokenStream.from_bytes(data + b"\x00")
    bad_token = (9999).to_bytes(2, "little")
    with pytest.raises(DecodeError):
        TokenStream.from_bytes(data + bad_token)


def test_zero_length_window_is_decode_error():
    data = TokenStream(tokens=(END_TIE_ID, EOS_ID), window_length=0.0).to_bytes()
    with pytest.raises(DecodeError):
        TokenStream.from_bytes(data)
    with pytest.raises(DecodeError):
        decode(TokenStream(tokens=(END_TIE_ID, EOS_ID), window_length=0.0), strict=False)


# arbitrary bytes, or in-vocabulary tokens in arbitrary order
_token_bodies = st.binary(max_size=80) | st.lists(
    st.integers(0, VOCAB_SIZE - 1), max_size=40
).map(lambda tokens: np.asarray(tokens, dtype="<u2").tobytes())


# valid header values are drawn twice as often, so most examples reach decode
@given(
    magic=st.sampled_from([b"ENTK", b"ENTK", b"ENTX"]),
    version=st.sampled_from([1, 1, 2]),
    vocab_size=st.sampled_from([VOCAB_SIZE, VOCAB_SIZE, 771]),
    window_ms=st.sampled_from([0, 1, 10_000, 2**32 - 1]) | st.integers(0, 2**32 - 1),
    reserved=st.integers(0, 2**32 - 1),
    body=_token_bodies,
    cut=st.sampled_from([None, None, 0, 15]),  # None keeps the whole header
)
@settings(max_examples=300)
def test_untrusted_bytes_raise_only_decode_error(
    magic, version, vocab_size, window_ms, reserved, body, cut
):
    header = struct.pack("<4sHHII", magic, version, vocab_size, window_ms, reserved)
    data = header + body if cut is None else header[:cut]
    try:
        decode(TokenStream.from_bytes(data), strict=False)
    except DecodeError:
        pass


@st.composite
def grid_windows(draw):
    voices = draw(
        st.lists(
            st.tuples(st.integers(0, 127), st.integers(0, 127)),
            max_size=5,
            unique=True,
        )
    )
    notes = []
    for pitch, program in voices:
        bounds = draw(
            st.lists(st.integers(0, TIME_STEPS), min_size=2, max_size=8, unique=True)
        )
        bounds.sort()
        for a, b in zip(bounds[::2], bounds[1::2]):
            notes.append(
                Note(start=a * RES, pitch=pitch, end=b * RES, velocity=100, program=program)
            )
    return Window(offset=0.0, length=10.0, notes=tuple(notes))


def _canon(notes):
    return tuple(sorted(notes, key=lambda n: (n.start, n.pitch, n.program, n.end)))


@given(grid_windows())
def test_grid_round_trip_exact(win):
    out = decode(encode(win))
    assert out.notes == _canon(win.notes)


@given(grid_windows())
@settings(max_examples=50)
def test_emitted_ids_conform(win):
    stream = encode(win)
    assert all(0 <= t < VOCAB_SIZE for t in stream.tokens)
    assert stream.tokens[-1] == EOS_ID
    assert END_TIE_ID in stream.tokens
    times = [t - TIME_OFFSET for t in stream.tokens if describe(t)[0] == "time"]
    assert times == sorted(times)


@st.composite
def offgrid_windows(draw):
    # one note per pitch: same-pitch nesting cannot survive any decoder since
    # the stream does not say which off belongs to which on
    pitches = draw(st.lists(st.integers(0, 127), min_size=1, max_size=30, unique=True))
    notes = []
    for pitch in pitches:
        start = draw(st.floats(0.0, 9.9375, allow_nan=False, width=32))
        dur = draw(st.floats(float(RES), 2.0, allow_nan=False, width=32))
        notes.append(Note(start=float(start), pitch=pitch, end=float(start + dur)))
    return Window(offset=0.0, length=10.0, notes=tuple(notes))


@given(offgrid_windows())
@settings(max_examples=50)
def test_offgrid_round_trip_tolerance(win):
    out = decode(encode(win))
    got = sorted((n.pitch, n.start, n.end) for n in out.notes)
    want = sorted((n.pitch, n.start, min(n.end, 10.0)) for n in win.notes)
    assert len(got) == len(want)
    for (gp, gs, ge), (wp, ws, we) in zip(got, want):
        assert gp == wp
        assert abs(gs - ws) <= RES
        assert abs(ge - we) <= RES


def _random_window(rng, count):
    notes = []
    for _ in range(count):
        start = float(rng.uniform(0.0, 10.0 - 1e-6))
        dur = float(rng.uniform(0.1, 1.5))
        notes.append(
            Note(start=start, pitch=int(rng.integers(21, 109)), end=start + dur)
        )
    return Window(offset=0.0, length=10.0, notes=tuple(notes))


def test_token_count_envelope():
    # the 300-token floor assumes moderately dense windows; with state-change
    # encoding it is reached from roughly 65 notes per window upward
    import numpy as np

    rng = np.random.default_rng(11)
    for count in (30, 60, 100, 200, 300, 400):
        for _ in range(5):
            n_tokens = len(encode(_random_window(rng, count)))
            assert n_tokens <= 2000
            if count >= 100:
                assert n_tokens >= 300
