"""Speed tier, stretch, and mistake corruption tests."""

import dataclasses
import math
from dataclasses import replace as dc_replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encore import augment
from encore.augment import (
    MistakeConfig,
    SPEED_TIERS,
    TIER_BY_NAME,
    corrupt,
    draw_tier,
    sample_speed_augmentation,
    stretch,
)
from encore.notes import Note, NoteSequence


def test_tier_table_verbatim():
    rows = {t.name: (t.ratio_range, t.keywords) for t in SPEED_TIERS}
    assert rows == {
        "VerySlow": (
            (1.8, 2.2),
            ("Twice as slow as", "Significantly slower", "About half the speed of"),
        ),
        "Slow": ((1.5, 1.8), ("Considerably slower", "Moving slower")),
        "SlightlySlow": (
            (1.2, 1.5),
            (
                "A bit slower than score",
                "Just under the score’s pace",
                "Slightly behind the intended pace",
            ),
        ),
        "Neutral": (
            (0.8, 1.2),
            ("At the original speed", "In line with the score’s tempo"),
        ),
        "SlightlyFast": (
            (0.6, 0.8),
            ("A bit faster", "Just above the score’s speed", "Slightly faster than score"),
        ),
        "Fast": ((0.4, 0.6), ("Notably faster", "Well beyond the original tempo")),
    }


def test_tiers_disjoint_and_cover():
    spans = sorted(t.ratio_range for t in SPEED_TIERS)
    assert spans[0][0] == 0.4
    assert spans[-1][1] == 2.2
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert hi == lo
    assert TIER_BY_NAME["Neutral"].ratio_range == (0.8, 1.2)


def _simple_seq():
    return NoteSequence(
        [Note(start=1.0, pitch=60, end=2.0, velocity=88, program=3)],
        total_duration=10.0,
        source_id="s",
        reference_bpm=120.0,
    )


def test_stretch_identity():
    seq = _simple_seq()
    assert stretch(seq, 1.0) == seq


def test_stretch_linearity():
    out = stretch(_simple_seq(), 2.0)
    assert (out.notes[0].start, out.notes[0].end) == (2.0, 4.0)
    assert out.notes[0].pitch == 60
    assert out.notes[0].velocity == 88
    assert out.notes[0].program == 3
    assert out.total_duration == 20.0
    assert out.reference_bpm == 60.0


def test_stretch_paper_ratio():
    assert stretch(_simple_seq(), 1.7).total_duration == pytest.approx(17.0)


def test_stretch_rejects_nonpositive():
    with pytest.raises(ValueError):
        stretch(_simple_seq(), 0.0)
    with pytest.raises(ValueError):
        stretch(_simple_seq(), -1.2)


@pytest.mark.parametrize("ratio", [math.nan, math.inf])
def test_stretch_rejects_non_finite(ratio):
    # NaN passes a `ratio <= 0` check and the 4 h bound, and an empty
    # sequence stretched by inf has a NaN duration (0 * inf)
    for seq in (_simple_seq(), NoteSequence()):
        with pytest.raises(ValueError, match="positive finite"):
            stretch(seq, ratio)


@given(st.floats(0.25, 4.0), st.floats(0.25, 4.0))
def test_stretch_composes(a, b):
    seq = _simple_seq()
    once = stretch(seq, a * b)
    twice = stretch(stretch(seq, a), b)
    for x, y in zip(once.notes, twice.notes):
        assert math.isclose(x.start, y.start, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(x.end, y.end, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(once.total_duration, twice.total_duration, rel_tol=1e-9)


def test_sample_speed_augmentation():
    seq = _simple_seq()
    for tier in SPEED_TIERS:
        for seed in range(50):
            out, ratio, keyword = sample_speed_augmentation(seq, tier, seed)
            low, high = tier.ratio_range
            assert low <= ratio < high
            assert keyword in tier.keywords
            assert out.total_duration == pytest.approx(10.0 * ratio)
    again = sample_speed_augmentation(seq, SPEED_TIERS[0], 7)
    assert again == sample_speed_augmentation(seq, SPEED_TIERS[0], 7)


def test_draw_tier_keeps_its_bits():
    """augment's random tier is one PCG64 integer draw: these are frozen."""
    assert [draw_tier(seed).name for seed in range(8)] == [
        "Fast", "SlightlySlow", "Fast", "SlightlyFast",
        "SlightlyFast", "SlightlyFast", "SlightlySlow", "Fast",
    ]
    assert {draw_tier(seed) for seed in range(60)} == set(SPEED_TIERS)


def test_mistake_config_validation():
    with pytest.raises(ValueError):
        MistakeConfig(p_ghost=1.5)
    # a run sets the probabilities and the seed; the shapes are class constants
    with pytest.raises(TypeError):
        MistakeConfig(block_period=1.0)
    assert [f.name for f in dataclasses.fields(MistakeConfig)] == [
        "p_mistouch", "p_async", "p_subst", "p_ghost", "seed"
    ]


def _fixture(n, duration=None, rng_seed=3):
    rng = np.random.default_rng(rng_seed)
    if duration is None:
        duration = max(n * 0.05, 1.0)
    notes = []
    for i in range(n):
        start = float(rng.uniform(0.0, duration - 0.5))
        notes.append(
            Note(
                start=start,
                pitch=int(rng.integers(21, 109)),
                end=start + float(rng.uniform(0.05, 0.5)),
                velocity=int(rng.integers(20, 120)),
                program=int(rng.integers(0, 8)),
            )
        )
    return NoteSequence(notes, total_duration=duration)


def test_blocks_only_when_probabilities_zero():
    seq = _fixture(200, duration=12.3)
    cfg = MistakeConfig(p_mistouch=0, p_async=0, p_subst=0, p_ghost=0, seed=5)
    out, report = corrupt(seq, cfg)
    assert len(report.removed_intervals) == math.floor(12.3 / 5.0) + 1
    for k, (t0, t1) in enumerate(report.removed_intervals):
        assert 5.0 * k <= t0 < 5.0 * (k + 1)
        assert 0.2 <= t1 - t0 < 0.5
    # survivors are untouched originals; removed notes all started in a block
    original = set(seq.notes)
    removed = original - set(out.notes)
    assert set(out.notes) <= original
    assert len(out) + report.block_removed == len(seq)
    for note in removed:
        assert any(t0 <= note.start < t1 for t0, t1 in report.removed_intervals)
    for note in out.notes:
        assert not any(t0 <= note.start < t1 for t0, t1 in report.removed_intervals)


def test_block_spares_sounding_through_notes():
    # a long note starting at 0 survives every removal interval that begins
    # later, no matter how much of it the interval covers
    long_note = Note(start=0.0, pitch=40, end=9.9)
    seq = NoteSequence([long_note], total_duration=9.9)
    cfg = MistakeConfig(p_mistouch=0, p_async=0, p_subst=0, p_ghost=0, seed=11)
    out, report = corrupt(seq, cfg)
    intervals_after_zero = [t0 > 0.0 for t0, _ in report.removed_intervals]
    if all(intervals_after_zero):
        assert out.notes == (long_note,)


def test_ghost_everything():
    seq = _fixture(40, duration=4.0)
    cfg = MistakeConfig(p_mistouch=0, p_async=0, p_subst=0, p_ghost=1, seed=2)
    out, report = corrupt(seq, cfg)
    assert out.notes == ()
    assert report.ghost == 40
    assert out.total_duration == 4.0


def test_mistouch_details():
    seq = NoteSequence(
        [Note(start=2.0, pitch=60, end=3.0, velocity=100, program=7)],
        total_duration=4.0,
    )
    cfg = MistakeConfig(p_mistouch=1, p_async=0, p_subst=0, p_ghost=0, seed=1)
    out, report = corrupt(seq, cfg)
    assert report.mistouch == 1
    inserted = next(n for n in out.notes if n.pitch != 60)
    source = next(n for n in out.notes if n.pitch == 60)
    assert source == seq.notes[0]
    assert inserted.pitch in (59, 61)
    assert inserted.velocity == 80
    assert 2.02 <= inserted.start <= 2.1
    assert 0.1 <= inserted.end - inserted.start <= 0.3
    assert inserted.program == 7


def test_mistouch_velocity_clamps_to_one():
    seq = NoteSequence([Note(start=0.0, pitch=60, end=1.0, velocity=0)], total_duration=1.0)
    cfg = MistakeConfig(p_mistouch=1, p_async=0, p_subst=0, p_ghost=0, seed=0)
    out, _ = corrupt(seq, cfg)
    inserted = next(n for n in out.notes if n.pitch != 60)
    assert inserted.velocity == 1


def test_substitution_preserves_everything_else():
    seq = _fixture(100, duration=6.0)
    cfg = MistakeConfig(p_mistouch=0, p_async=0, p_subst=1, p_ghost=0, seed=9)
    out, report = corrupt(seq, cfg)
    assert report.substitution == 100
    kept = [n for n in out.notes]
    assert len(kept) <= 100  # block removal may drop some
    survivors_by_time = {(n.start, n.end, n.velocity, n.program) for n in kept}
    originals_by_time = {(n.start, n.end, n.velocity, n.program) for n in seq.notes}
    assert survivors_by_time <= originals_by_time
    original_at = {(n.start, n.end): n.pitch for n in seq.notes}
    for n in kept:
        assert abs(n.pitch - original_at[(n.start, n.end)]) == 1


def test_substitution_flips_at_range_edge():
    assert augment._neighbor_pitch(127, 1) == 126
    assert augment._neighbor_pitch(0, -1) == 1
    for pitch, expected in ((127, 126), (0, 1)):
        seq = NoteSequence([Note(start=0.0, pitch=pitch, end=0.4)], total_duration=0.4)
        substituted = 0
        for seed in range(30):
            cfg = MistakeConfig(p_mistouch=0, p_async=0, p_subst=1, p_ghost=0, seed=seed)
            out, _ = corrupt(seq, cfg)
            assert [n.pitch for n in out.notes] in ([], [expected])
            substituted += len(out.notes)
        assert substituted > 0


def test_asynchrony_clamps():
    notes = [Note(start=0.05 * i, pitch=30 + i, end=0.05 * i + 0.2) for i in range(40)]
    seq = NoteSequence(notes, total_duration=2.5)
    cfg = MistakeConfig(p_mistouch=0, p_async=1, p_subst=0, p_ghost=0, seed=4)
    out, report = corrupt(seq, cfg)
    assert report.asynchrony == 40
    for n in out.notes:
        assert n.start >= 0.0
        assert n.end >= n.start


def test_corrupt_deterministic():
    seq = _fixture(500, duration=30.0)
    cfg = MistakeConfig(seed=123)
    first = corrupt(seq, cfg)
    second = corrupt(seq, cfg)
    assert first[0] == second[0]
    assert first[1] == second[1]
    different = corrupt(seq, dc_replace(cfg, seed=124))
    assert different[0] != first[0]


def test_monte_carlo_rates():
    seq = _fixture(10_000, duration=600.0)
    out, report = corrupt(seq, MistakeConfig(seed=42))
    n = len(seq)
    assert 0.04 <= report.mistouch / n <= 0.06
    assert 0.18 <= report.asynchrony / n <= 0.22
    assert 0.04 <= report.substitution / n <= 0.06
    assert 0.04 <= report.ghost / n <= 0.06
    assert len(report.removed_intervals) == math.floor(600.0 / 5.0) + 1


def test_program_never_changes():
    seq = _fixture(300, duration=20.0)
    out, _ = corrupt(seq, MistakeConfig(seed=8))
    assert {n.program for n in out.notes} <= {n.program for n in seq.notes}



def _drop_blocks_by_loop(notes, intervals):
    """The block removal as it was: each interval in turn filters the survivors
    (O(blocks x notes)); kept as the oracle of the one-pass _drop_blocks."""
    survivors = notes
    for t_start, t_end in intervals:
        survivors = [n for n in survivors if not t_start <= n.start < t_end]
    return survivors


@st.composite
def _corrupt_cases(draw):
    duration = draw(st.floats(0.5, 60.0))
    notes = [
        Note(start=start, pitch=pitch, end=start + length)
        for start, pitch, length in draw(st.lists(
            st.tuples(st.floats(0.0, duration), st.integers(0, 127), st.floats(0.0, 2.0)),
            max_size=60,
        ))
    ]
    p = st.sampled_from([0.0, 0.3, 1.0])
    low = draw(st.floats(0.0, 12.0))
    cfg = MistakeConfig(
        p_mistouch=draw(p), p_async=draw(p), p_subst=draw(p), p_ghost=draw(p),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    shapes = {
        "block_period": draw(st.floats(0.25, 10.0)),
        # lengths above the period make neighbouring intervals overlap
        "block_length": (low, low + draw(st.floats(0.01, 12.0))),
    }
    seq = NoteSequence(notes, total_duration=max([duration, *(n.end for n in notes)]))
    return seq, cfg, shapes


@settings(max_examples=200, deadline=None)
@given(_corrupt_cases())
def test_one_pass_block_removal_matches_loop(case):
    seq, cfg, shapes = case
    with mock.patch.multiple(MistakeConfig, **shapes):
        new = corrupt(seq, cfg)
        with mock.patch.object(augment, "_drop_blocks", _drop_blocks_by_loop):
            old = corrupt(seq, cfg)
    assert new == old


_quarter = st.integers(0, 40).map(lambda q: q / 4)


@given(
    st.lists(_quarter, max_size=30),
    st.lists(st.tuples(_quarter, st.integers(1, 12).map(lambda q: q / 4)), max_size=8),
)
def test_drop_blocks_matches_loop_on_a_grid(starts, intervals):
    """Starts and interval ends on one grid, so starts meet interval edges;
    intervals unsorted and overlapping."""
    notes = [Note(start=t, pitch=60, end=t) for t in starts]
    intervals = [(t0, t0 + length) for t0, length in intervals]
    assert augment._drop_blocks(notes, intervals) == _drop_blocks_by_loop(notes, intervals)
