import numpy as np
import pytest

from encore.augment import stretch
from encore.notes import Note, NoteSequence
from encore.synth import (
    MAX_RENDER_SECONDS,
    RenderTooLongError,
    SynthConfig,
    render,
    render_clicks,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sample_rate": 0},
        {"partials": 0},
        {"attack": -0.01},
        {"release": -1.0},
        {"gain": 1.5},
        {"gain": -0.1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SynthConfig(**kwargs)


def test_empty_sequence_renders_silence():
    buf = render(NoteSequence([], total_duration=2.0))
    assert buf.shape == (88200,)
    assert not buf.any()


def test_single_note_peak_at_fundamental():
    seq = NoteSequence([Note(0.0, 69, 2.0)], total_duration=2.0)
    buf = render(seq, SynthConfig(partials=1))
    spec = np.abs(np.fft.rfft(buf))
    freqs = np.fft.rfftfreq(buf.shape[0], 1.0 / 44100.0)
    assert abs(freqs[np.argmax(spec)] - 440.0) < 1.0


def test_partial_amplitudes_fall_as_one_over_k():
    seq = NoteSequence([Note(0.0, 57, 2.0, velocity=127)], total_duration=2.0)
    buf = render(seq, SynthConfig(gain=1.0))
    spec = np.abs(np.fft.rfft(buf))
    freqs = np.fft.rfftfreq(buf.shape[0], 1.0 / 44100.0)
    f0 = 220.0
    peaks = []
    for k in range(1, 5):
        band = (freqs > k * f0 - 5) & (freqs < k * f0 + 5)
        peaks.append(spec[band].max())
    for k in range(1, 4):
        assert peaks[k] == pytest.approx(peaks[0] / (k + 1), rel=0.05)


def test_render_deterministic():
    rng = np.random.default_rng(3)
    notes = [
        Note(float(s), int(p), float(s) + float(d))
        for s, p, d in zip(
            rng.uniform(0, 4, 30), rng.integers(30, 100, 30), rng.uniform(0.05, 1, 30)
        )
    ]
    seq = NoteSequence(notes, total_duration=5.5)
    assert np.array_equal(render(seq), render(seq))


def test_rendering_is_additive_per_note():
    notes = [Note(0.1, 60, 1.0), Note(0.4, 64, 1.3), Note(0.7, 67, 2.0)]
    seq = NoteSequence(notes, total_duration=2.5)
    cfg = SynthConfig(gain=0.1)  # low gain: no note and no mix clips
    mixed = render(seq, cfg)
    summed = np.zeros_like(mixed)
    for note in notes:
        summed += render(NoteSequence([note], total_duration=2.5), cfg)
    assert np.array_equal(mixed, summed)


def test_clipping_normalizes_to_nine_tenths():
    notes = [Note(0.0, 60 + i, 1.0, velocity=127) for i in range(8)]
    seq = NoteSequence(notes, total_duration=1.0)
    buf = render(seq, SynthConfig(gain=1.0))
    assert np.abs(buf).max() == pytest.approx(0.9, abs=1e-12)


def test_stretch_doubles_sample_length():
    seq = NoteSequence([Note(0.0, 60, 1.0), Note(1.0, 62, 3.2)], total_duration=3.2)
    cfg = SynthConfig()
    short = render(seq, cfg)
    long = render(stretch(seq, 2.0), cfg)
    envelope_samples = int((cfg.attack + cfg.release) * cfg.sample_rate)
    assert abs(long.shape[0] - 2 * short.shape[0]) <= envelope_samples


def test_zero_length_note_still_sounds():
    seq = NoteSequence([Note(0.0, 60, 0.0)], total_duration=0.0)
    buf = render(seq)
    assert buf.shape[0] == int(np.ceil(0.001 * 44100))
    assert buf.any()


def test_overlong_sequence_rejected_before_allocating():
    # 4.5e9 s would be a 1.6 PB buffer
    far = NoteSequence([Note(4.5e9, 60, 4.5e9)], source_id="far.mid")
    with pytest.raises(RenderTooLongError, match="far.mid"):
        render(far)
    with pytest.raises(RenderTooLongError):
        render(NoteSequence([], total_duration=MAX_RENDER_SECONDS + 1.0))


def test_click_count_and_spacing():
    buf = render_clicks(120.0, 10.0)
    assert buf.shape == (441000,)
    starts = [int(round(k * 0.5 * 44100)) for k in range(20)]
    for i0 in starts:
        assert buf[i0 : i0 + 441].any()
    # silence right before every later click
    for i0 in starts[1:]:
        assert not buf[i0 - 100 : i0 - 1].any()
    assert not buf[starts[-1] + 441 + 1000 :].any()


def test_click_count_sixty_bpm():
    buf = render_clicks(60.0, 10.0)
    onsets = np.flatnonzero((buf != 0) & (np.roll(buf, 1) == 0))
    # one onset per beat (the burst itself may contain internal zeros,
    # so count gaps of at least a tenth of a beat)
    gaps = np.diff(onsets)
    beats = 1 + int((gaps > 4410).sum())
    assert beats == 10


@pytest.mark.parametrize("bpm", [29.9, 300.1, 0.0])
def test_click_bpm_range(bpm):
    with pytest.raises(ValueError):
        render_clicks(bpm, 10.0)


def test_click_duration_validation():
    with pytest.raises(ValueError):
        render_clicks(120.0, 0.0)


def test_clicks_deterministic():
    assert np.array_equal(render_clicks(97.0, 6.0), render_clicks(97.0, 6.0))
