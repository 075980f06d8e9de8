"""Golden bytes: the .tok and MIDI formats, pinned byte for byte.

The hex literals are the outputs of the encoder and writer as released;
any change to either format shows up here rather than only in a
downstream consumer.
"""

from encore.notes import Note, NoteSequence, segment
from encore.smf import write_midi
from encore.tokenizer import encode

TOKENS_HEX = (
    "454e544b0100040310270000000000000000b0002100b7000203680100000101bc009c01"
    "0001b000cf010101c000d0010001c0001c0221000101c30042020001c3000303"
)
MIDI_HEX = (
    "4d546864000000060000000101e04d54726b0000003700ff510307a12000c00000c12900"
    "903c5a8170c9000099246e7889240078803c0000914046008140008360904340883880"
    "430000ff2f00"
)


def test_token_bytes():
    # window [10, 20): notes sustained from before it on programs 0 and 33
    # (the second still sounding at its end), one truncated at its end, one
    # zero-length, one with its own velocity and program
    seq = NoteSequence(
        [
            Note(8.0, 48, 13.0),
            Note(9.0, 55, 25.0, program=33),
            Note(12.0, 60, 21.0),
            Note(14.0, 64, 14.0),
            Note(15.5, 67, 16.25, velocity=80, program=33),
        ],
        total_duration=30.0,
    )
    window = segment(seq)[1]
    assert len(window.sustained) == 2 and window.notes[0].end == 10.0
    assert encode(window).to_bytes().hex() == TOKENS_HEX


def test_midi_bytes():
    # two melodic programs, a drum, and a zero-length note
    seq = NoteSequence(
        [
            Note(0.0, 60, 0.5, velocity=90),
            Note(0.5, 64, 0.5, velocity=70, program=41),
            Note(0.25, 36, 0.375, velocity=110, is_drum=True),
            Note(1.0, 67, 2.125, velocity=64),
        ]
    )
    assert write_midi(seq).hex() == MIDI_HEX
