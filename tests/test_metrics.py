import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from encore import _kernels as kernels, metrics
from encore.audio_io import CHUNK, WavReader, read_wav, write_wav
from encore.augment import stretch
from encore.metrics import (
    ChromaMatrix,
    EmbeddingSet,
    MetricError,
    chroma_similarity,
    chromagram,
    deviation_from_expected,
    dtw_from_costs,
    frechet_distance,
    read_embeddings,
    tempo_deviation,
    tempo_estimate,
    write_embeddings,
)
from encore.notes import Note, NoteSequence
from encore.synth import render, render_clicks

# pitch-class indices with C = 0
PC_C, PC_E, PC_G, PC_A = 0, 4, 7, 9


def _tone(freqs, seconds=2.0, rate=44100, amp=0.3):
    t = np.arange(int(seconds * rate)) / rate
    return sum(amp * np.sin(2 * np.pi * f * t) for f in freqs)


# ---------------------------------------------------------------------------
# chromagram


def test_chroma_matrix_validation():
    with pytest.raises(ValueError, match="T x 12"):
        ChromaMatrix(np.ones((4, 7)))
    with pytest.raises(ValueError, match="non-negative"):
        ChromaMatrix(np.full((2, 12), -0.1))
    with pytest.raises(ValueError, match="unit-norm"):
        ChromaMatrix(np.full((2, 12), 0.5))
    with pytest.raises(ValueError, match="no frames"):
        ChromaMatrix(np.empty((0, 12)))


def test_sine_concentrates_on_pitch_class_a():
    cg = chromagram(_tone([440.0]))
    sounding = cg.frames[cg.frames.any(axis=1)]
    assert len(sounding) > 30
    assert (sounding.argmax(axis=1) == PC_A).all()


def test_silence_gives_zero_frames():
    cg = chromagram(np.zeros(44100))
    assert not cg.frames.any()
    assert cg.is_silent


def test_triad_mass_on_its_three_classes():
    cg = chromagram(_tone([261.63, 329.63, 392.00]))
    mass = cg.frames[:, [PC_C, PC_E, PC_G]].sum()
    assert mass / cg.frames.sum() > 0.9


def test_empty_buffer_rejected():
    with pytest.raises(ValueError, match="empty"):
        chromagram(np.array([]))
    with pytest.raises(ValueError, match="mono"):
        chromagram(np.zeros((100, 2)))


def test_transposition_rotates_dominant_class():
    # the long C dominates; the short E only adds off-class texture
    notes = [Note(0.0, 60, 3.0), Note(3.0, 64, 3.5)]
    seq = NoteSequence(notes, total_duration=3.5)
    base = chromagram(render(seq)).frames.sum(axis=0).argmax()
    assert base == PC_C
    for k in (1, 5, 6):
        moved = NoteSequence(
            [Note(n.start, n.pitch + k, n.end) for n in notes], total_duration=3.5
        )
        dom = chromagram(render(moved)).frames.sum(axis=0).argmax()
        assert dom == (base + k) % 12


# ---------------------------------------------------------------------------
# STFT blocks against one-shot oracles

# frames per block of each STFT (16 chroma, 32 tempo), and a frame count on
# a block edge of both that comes after full blocks of each
_B = {w: max(1, CHUNK // w) for w in (metrics.CHROMA_WINDOW, metrics._TEMPO_WINDOW)}
_EDGE = 2 * math.lcm(*_B.values())


def _frame_signal(x, window, hop):
    """Every STFT frame of the whole buffer, zero-padded to one window."""
    if x.shape[0] < window:
        x = np.pad(x, (0, window - x.shape[0]))
    n_frames = 1 + (x.shape[0] - window) // hop
    return np.lib.stride_tricks.sliding_window_view(x, window)[::hop][:n_frames]


def _chroma_oracle(x):
    """chromagram's frames from one STFT of the whole buffer."""
    frames = _frame_signal(x, metrics.CHROMA_WINDOW, metrics.CHROMA_HOP)
    spec = np.abs(np.fft.rfft(frames * metrics._CHROMA_HANN, axis=1)) ** 2
    freqs = np.fft.rfftfreq(metrics.CHROMA_WINDOW, 1.0 / 44100)
    keep = (freqs >= 27.5) & (freqs <= 8000.0)
    pitch = np.round(69.0 + 12.0 * np.log2(freqs[keep] / 440.0)).astype(np.int64)
    pitch_class = pitch % 12
    order = np.argsort(pitch_class, kind="stable")
    spec = spec[:, keep][:, order]
    starts = np.searchsorted(pitch_class[order], np.arange(12))
    chroma = np.add.reduceat(spec, starts, axis=1)
    norms = np.linalg.norm(chroma, axis=1)
    sounding = norms > 0.0
    chroma[sounding] /= norms[sounding, None]
    return np.round(chroma * 2.0**24) / 2.0**24


def _onset_oracle(x):
    """The onset envelope from one STFT of the whole buffer."""
    frames = _frame_signal(x, metrics._TEMPO_WINDOW, metrics._TEMPO_HOP)
    spec = np.abs(np.fft.rfft(frames * metrics._TEMPO_HANN, axis=1))
    return np.maximum(spec[1:] - spec[:-1], 0.0).sum(axis=1)


def _noise(n, seed):
    """Amplitude-modulated noise with a silent stretch, so some frames
    are zero and the rest vary in level."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * rng.random(n)
    x[n // 3 : n // 3 + 9000] = 0.0
    return x


def _assert_blocks_match(x):
    assert np.array_equal(chromagram(x).frames, _chroma_oracle(x))
    assert np.array_equal(metrics._onset_envelope(x), _onset_oracle(x))


@pytest.mark.parametrize("hop, window", [
    (metrics.CHROMA_HOP, metrics.CHROMA_WINDOW),
    (metrics._TEMPO_HOP, metrics._TEMPO_WINDOW),
])
@pytest.mark.parametrize("n_frames", [
    _EDGE - 1, _EDGE, _EDGE + 1, _EDGE + 2, 2 * _EDGE, 2 * _EDGE + 1, 2 * _EDGE + 2,
    # also block edges, after several full blocks (256 = 4 x 64)
    255, 256, 257, 258, 512, 513, 514,
])
def test_blocks_match_one_shot_stft(hop, window, n_frames):
    # every count straddles a block edge of this STFT; one frame past an
    # edge is a block of one frame, which the envelope differences alone
    # against the frame carried from the block before
    assert _EDGE % _B[window] == 0 and 256 % _B[window] == 0
    for extra in (0, hop - 1):
        _assert_blocks_match(_noise(window + (n_frames - 1) * hop + extra, n_frames))


@pytest.mark.parametrize("n", [1, 100, metrics._TEMPO_WINDOW - 1, metrics.CHROMA_WINDOW - 1])
def test_blocks_match_one_shot_stft_on_padded_buffer(n):
    _assert_blocks_match(_noise(n, n))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3 * _EDGE * metrics.CHROMA_HOP), seed=st.integers(0, 2**32 - 1))
def test_blocks_match_one_shot_stft_at_any_length(n, seed):
    _assert_blocks_match(_noise(n, seed))


@pytest.mark.parametrize("kernel", [chromagram, tempo_estimate])
def test_stft_working_memory_is_flat_in_length(kernel):
    peaks = []
    for minutes in (1, 3):
        x = _noise(minutes * 60 * 44100, minutes)
        tracemalloc.start()
        try:
            kernel(x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 32e6
    assert abs(peaks[1] - peaks[0]) < 4e6


# ---------------------------------------------------------------------------
# features streamed from a WavReader


_W, _H = metrics.CHROMA_WINDOW, metrics.CHROMA_HOP


@pytest.mark.parametrize("n", [
    1, 100, metrics._TEMPO_WINDOW - 1, _W - 1, _W, _W + 1, _W + (_EDGE - 1) * _H,
    _W + _EDGE * _H + 7, 3 * _EDGE * _H + 5, 5 * 44100 + 3 * _H + 11,
])
def test_reader_features_match_array(tmp_path, n):
    path = tmp_path / "x.wav"
    write_wav(path, _noise(n, n))
    x = read_wav(path)
    reader = WavReader(path)
    assert np.array_equal(chromagram(reader).frames, _chroma_oracle(x))
    assert np.array_equal(metrics._onset_envelope(reader), _onset_oracle(x))
    if n >= 5 * 44100:
        assert tempo_estimate(reader) == tempo_estimate(x)


@pytest.mark.parametrize("channels", [1, 4])
def test_no_decode_holds_more_than_a_chunk(tmp_path, monkeypatch, channels):
    """Opening a 44.1 kHz file of several blocks, its chromagram and its
    tempo each decode at most CHUNK samples a call."""
    clicks = render_clicks(120.0, 8.0)
    assert len(clicks) > 5 * CHUNK
    path = tmp_path / "x.wav"
    wavfile.write(path, 44100, np.repeat(clicks[:, None], channels, axis=1).astype(np.float32))
    spans, decode = [], WavReader._decode  # hi - lo of each call, a list per stage

    def spy(self, lo, hi):
        spans[-1].append(hi - lo)
        return decode(self, lo, hi)

    monkeypatch.setattr(WavReader, "_decode", spy)
    spans.append([])
    reader = WavReader(path)
    for feature in (chromagram, tempo_estimate):
        spans.append([])
        feature(reader)
    assert all(spans) and max(map(max, spans)) <= CHUNK, [max(s) for s in spans]


@pytest.mark.parametrize("chunk", [
    1, 1000,  # below both windows: one frame a block
    2048, 3000,  # on and off the tempo window's grid, below the chroma window
    4096, 4097, 3 * 4096, 5 * 2048 + 1,  # on and off both grids
    CHUNK, 1000 * 4096,  # the default, and one block for every input below
])
def test_features_keep_their_bits_whatever_the_block_sizes(monkeypatch, chunk):
    """CHUNK // window frames a block, one at least, for any CHUNK: inputs
    shorter than a window, and lengths on and off the hop grid."""
    monkeypatch.setattr(metrics, "CHUNK", chunk)
    for n in (1, 100, metrics._TEMPO_WINDOW - 1, _W - 1, _W, _W + 5 * _H + 7,
              3 * _EDGE * _H + 11, 3 * _EDGE * _H + _W):
        x = _noise(n, n)
        assert np.array_equal(chromagram(x).frames, _chroma_oracle(x))
        assert np.array_equal(metrics._onset_envelope(x), _onset_oracle(x))


def test_self_pair_matches_two_equal_buffers():
    """A pair of one object computes one chromagram, and its distances are
    bit-identical to those of two equal buffers."""
    buf = render(_demo_sequence())
    one, two = chroma_similarity(buf, buf), chroma_similarity(buf, buf.copy())
    assert (one.mean_cosine, one.dtw_cost, one.path) == (two.mean_cosine, two.dtw_cost, two.path)
    a = chromagram(buf).frames
    assert np.array_equal(_strip_distance(a, a), _strip_distance(a, a.copy()))


# ---------------------------------------------------------------------------
# exact distance cells: every way of computing a cell gives the same bits


def _cosine_distance_matrix(a, b):
    """The matrix oracle: |a_i - b_j|^2 / 2 from one matrix product, with
    silence matching silence (0) and mismatching sound (1)."""
    dist = a @ b.T
    dist *= -2.0
    dist += np.einsum("ij,ij->i", a, a)[:, None]
    dist += np.einsum("ij,ij->i", b, b)[None, :]
    dist *= 0.5
    za, zb = ~a.any(axis=1), ~b.any(axis=1)
    dist[np.ix_(za, zb)] = 0.0
    dist[np.ix_(za, ~zb)] = 1.0
    dist[np.ix_(~za, zb)] = 1.0
    return dist


_distance = _cosine_distance_matrix


def _strip_distance(a, b):
    """_ChromaCosts's cells as a matrix, from its strips; its cells one by
    one must agree."""
    costs = metrics._ChromaCosts(a, b)
    n, m = costs.shape
    out = np.full((n, m), np.nan)
    for d0 in range(0, n + m - 1, kernels._STRIP):
        d1 = min(d0 + kernels._STRIP, n + m - 1)
        lo, strip = costs.diagonals(d0, d1)
        for d in range(d0, d1):
            i = np.arange(max(0, d - m + 1), min(n, d + 1))
            out[i, d - i] = strip[d - d0, i - lo]
    i, j = np.indices((n, m)).reshape(2, -1)
    assert np.array_equal(costs.at(i, j).reshape(n, m), out)
    assert costs.size == n * m
    return out


def _per_diagonal_distance(a, b):
    """|a_i - b_j|^2 / 2 cell by cell, one anti-diagonal at a time, with the
    silence conventions."""
    n, m = len(a), len(b)
    silent_a, silent_b = ~a.any(axis=1), ~b.any(axis=1)
    out = np.empty((n, m))
    for d in range(n + m - 1):
        i = np.arange(max(0, d - m + 1), min(n, d + 1))
        j = d - i
        cells = ((a[i] - b[j]) ** 2).sum(axis=1) / 2.0
        cells[silent_a[i] != silent_b[j]] = 1.0
        out[i, j] = cells
    return out


def _assert_exact_cells(a, b, tiles):
    whole = _distance(a, b)
    n, m = whole.shape
    for rows, cols in [(1, 1), *tiles]:
        assert np.array_equal(np.vstack([_distance(a[i : i + rows], b) for i in range(0, n, rows)]),
                              whole)
        assert np.array_equal(np.hstack([_distance(a, b[j : j + cols]) for j in range(0, m, cols)]),
                              whole)
    assert np.array_equal(_per_diagonal_distance(a, b), whole)
    assert np.array_equal(_strip_distance(a, b), whole)
    assert (whole >= 0.0).all()
    for x in (a, b):
        self_distance = _distance(x, x)
        assert np.array_equal(self_distance, _distance(x, x.copy()))
        assert not self_distance.diagonal().any()


def _grid_frames(rng, n, silent):
    """n unit or all-zero frames, as ChromaMatrix stores them."""
    x = rng.random((n, 12)) ** 4
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x[rng.random(n) < silent] = 0.0
    return ChromaMatrix(x).frames


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 70), m=st.integers(1, 70), rows=st.integers(2, 70),
    cols=st.integers(2, 70), silent=st.sampled_from([0.0, 0.2, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_distance_cells_are_exact(n, m, rows, cols, silent, seed):
    rng = np.random.default_rng(seed)
    _assert_exact_cells(_grid_frames(rng, n, silent), _grid_frames(rng, m, silent),
                        [(rows, cols)])


def test_distance_cells_are_exact_on_renders():
    seq = _demo_sequence()
    a = chromagram(render(seq)).frames
    b = chromagram(render(stretch(seq, 1.3))).frames
    _assert_exact_cells(a, b, [(7, 5), (64, 100), (150, 33)])


# ---------------------------------------------------------------------------
# DTW


def _all_path_costs(cost):
    """Total cost of every monotone path, by exhaustive recursion."""
    n, m = cost.shape
    totals = []

    def walk(i, j, acc):
        acc = acc + cost[i, j]  # left-fold order matches the DP fill
        if i == n - 1 and j == m - 1:
            totals.append(acc)
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return totals


def test_dtw_matches_brute_force_exactly():
    rng = np.random.default_rng(123)
    for _ in range(250):
        n, m = rng.integers(1, 7, size=2)
        cost = rng.random((n, m))
        total, path = dtw_from_costs(cost)
        assert total == min(_all_path_costs(cost))
        # the reported path realizes the reported cost
        acc = 0.0
        for i, j in path:
            acc += cost[i, j]
        assert acc == total


def test_dtw_path_shape_is_monotone():
    rng = np.random.default_rng(9)
    cost = rng.random((8, 5))
    _, path = dtw_from_costs(cost)
    assert path[0] == (0, 0)
    assert path[-1] == (7, 4)
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}


def test_dtw_input_validation():
    with pytest.raises(ValueError):
        dtw_from_costs(np.empty((0, 3)))
    with pytest.raises(ValueError):
        dtw_from_costs(np.zeros(5))
    with pytest.raises(ValueError):
        dtw_from_costs(np.zeros((3, 3)), band=-1)


def _align(a, b):
    """Accumulated cosine distance and path of two chromagrams."""
    return dtw_from_costs(metrics._ChromaCosts(a.frames, b.frames))


def _one_hot_frames(classes):
    frames = np.zeros((len(classes), 12))
    frames[np.arange(len(classes)), classes] = 1.0
    return frames


def test_dtw_self_alignment_is_diagonal():
    cg = ChromaMatrix(_one_hot_frames([0, 4, 7, 2, 9, 11, 0, 3]))
    cost, path = _align(cg, cg)
    assert cost == 0.0
    assert path == [(i, i) for i in range(8)]


def test_dtw_self_alignment_with_float_noise():
    # rounded unit norms make self-distance a few ulps, never negative
    rng = np.random.default_rng(1)
    frames = rng.random((20, 12))
    frames /= np.linalg.norm(frames, axis=1, keepdims=True)
    cg = ChromaMatrix(frames)
    cost, path = _align(cg, cg)
    assert 0.0 <= cost <= 1e-12
    assert path == [(i, i) for i in range(20)]


def test_dtw_absorbs_frame_duplication():
    frames = _one_hot_frames([0, 4, 7, 2, 9, 11, 0, 3, 5, 1])
    doubled = np.repeat(frames, 2, axis=0)
    cost, _ = _align(ChromaMatrix(frames), ChromaMatrix(doubled))
    assert cost == 0.0


def test_band_zero_restricts_to_diagonal():
    rng = np.random.default_rng(3)
    cost = rng.random((6, 6))
    total, path = dtw_from_costs(cost, band=0)
    assert path == [(i, i) for i in range(6)]
    assert total == pytest.approx(cost.diagonal().sum())


def test_band_too_narrow_raises():
    with pytest.raises(MetricError, match="band"):
        dtw_from_costs(np.ones((2, 3)), band=0)


def test_wide_band_matches_unbanded():
    rng = np.random.default_rng(4)
    cost = rng.random((12, 9))
    assert dtw_from_costs(cost, band=12) == dtw_from_costs(cost)


def test_silence_conventions_in_alignment():
    a = np.zeros((4, 12))
    a[1, 0] = 1.0
    b = np.zeros((4, 12))
    b[1, 0] = 1.0
    cost, _ = _align(ChromaMatrix(a), ChromaMatrix(b))
    assert cost == 0.0  # silence aligns with silence for free


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([1, 63, 64, 65, 131]), m=st.sampled_from([1, 63, 64, 65, 131]),
    silent=st.sampled_from([(0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (0.3, 0.3), (1.0, 0.2),
                            (1.0, 1.0)]),
    band=st.sampled_from([None, 0, 1, 3]), seed=st.integers(0, 2**32 - 1),
)
def test_strip_fill_matches_matrix_route(n, m, silent, band, seed):
    """The fill over _ChromaCosts's strips gives the matrix route's total,
    steps and path, strip edges and silent frames included."""
    rng = np.random.default_rng(seed)
    a, b = _grid_frames(rng, n, silent[0]), _grid_frames(rng, m, silent[1])
    costs, matrix = metrics._ChromaCosts(a, b), _cosine_distance_matrix(a, b)
    total, steps = kernels.dtw_fill(costs, band)
    want_total, want_steps = kernels.dtw_fill(matrix, band)
    assert np.float64(total).tobytes() == np.float64(want_total).tobytes()
    assert np.array_equal(steps, want_steps)
    if np.isfinite(want_total):
        assert dtw_from_costs(costs, band) == dtw_from_costs(matrix, band)
    else:
        with pytest.raises(MetricError):
            dtw_from_costs(costs, band)


@pytest.mark.parametrize("band", [None, 40])
def test_chroma_similarity_matches_matrix_route(band):
    """Every field equals the result computed from the whole distance
    matrix, on renders with silent frames at their ends."""
    seq = _demo_sequence(duration=10.0)
    for out_audio, ref_audio in [(render(seq), render(stretch(seq, 1.3))),
                                 (render(stretch(seq, 0.8)), render(seq))]:
        dist = _cosine_distance_matrix(chromagram(out_audio).frames, chromagram(ref_audio).frames)
        cost, path = dtw_from_costs(dist, band)
        idx = np.asarray(path)
        mean_cosine = float(np.mean(1.0 - dist[idx[:, 0], idx[:, 1]]))
        weight = metrics.DEFAULT_PENALTY_WEIGHT
        assert chroma_similarity(out_audio, ref_audio, band) == metrics.ChromaSimilarityResult(
            mean_cosine, cost, weight, mean_cosine - weight * cost, path)


# ---------------------------------------------------------------------------
# chroma similarity


def _demo_sequence(duration=8.0):
    pitches = [60, 64, 67, 72, 67, 64, 60, 55]
    notes = [Note(i * 1.0, p, i * 1.0 + 0.9) for i, p in enumerate(pitches)]
    return NoteSequence(notes, total_duration=duration)


def test_self_similarity_near_one():
    buf = render(_demo_sequence())
    res = chroma_similarity(buf, buf)
    assert res.mean_cosine >= 0.999
    assert res.dtw_cost == pytest.approx(0.0, abs=1e-9)
    assert res.score >= 0.999
    assert res.penalty_weight == 1e-3
    assert res.score == res.mean_cosine - 1e-3 * res.dtw_cost


def test_all_silent_raises():
    silence = np.zeros(44100)
    tone = _tone([440.0])
    with pytest.raises(MetricError, match="silent"):
        chroma_similarity(silence, silence)
    with pytest.raises(MetricError, match="silent"):
        chroma_similarity(silence, tone)
    with pytest.raises(MetricError, match="silent"):
        chroma_similarity(tone, silence)


def test_score_invariant_to_gain():
    buf = render(_demo_sequence())
    base = chroma_similarity(buf, buf).score
    quiet = chroma_similarity(0.25 * buf, buf).score
    assert quiet == pytest.approx(base, abs=1e-6)


def test_stretch_mostly_absorbed():
    seq = _demo_sequence()
    a = render(seq)
    b = render(stretch(seq, 1.5))
    assert chroma_similarity(a, b).score >= 0.9


def test_tritone_transposition_tanks_score():
    seq = _demo_sequence()
    moved = NoteSequence(
        [Note(n.start, n.pitch + 6, n.end) for n in seq.notes],
        total_duration=seq.total_duration,
    )
    identity = chroma_similarity(render(seq), render(seq)).score
    transposed = chroma_similarity(render(moved), render(seq)).score
    assert transposed < identity - 0.3


# ---------------------------------------------------------------------------
# tempo


@pytest.mark.parametrize("bpm", [60.0, 90.0, 120.0, 180.0])
def test_click_tempo_recovered(bpm):
    est = tempo_estimate(render_clicks(bpm, 12.0))
    assert abs(est - bpm) <= 2.0


def test_halved_clicks_report_an_octave_member():
    est = tempo_estimate(render_clicks(60.0, 12.0))
    assert min(abs(est - 60.0), abs(est - 120.0)) <= 2.0


def test_tempo_requires_five_seconds():
    with pytest.raises(ValueError, match="5 s"):
        tempo_estimate(np.zeros(44100))


def test_tempo_needs_periodicity():
    with pytest.raises(MetricError, match="periodicity"):
        tempo_estimate(np.zeros(44100 * 6))
    with pytest.raises(MetricError, match="periodicity"):
        tempo_estimate(np.ones(44100 * 6) * 0.3)


def test_deviation_formula():
    assert deviation_from_expected(60.0, 120.0, 2.0) == 0.0
    # a forced half-tempo estimate deviates by exactly one half
    expected = 120.0 / 1.5
    assert deviation_from_expected(0.5 * expected, 120.0, 1.5) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="prompt_ratio"):
        deviation_from_expected(100.0, 120.0, 0.3)
    with pytest.raises(ValueError, match="prompt_ratio"):
        deviation_from_expected(100.0, 120.0, 2.3)
    for score_bpm in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="score_bpm"):
            deviation_from_expected(100.0, score_bpm, 1.0)


def test_tempo_deviation_against_score():
    score = NoteSequence(
        [Note(i * 0.5, 69, i * 0.5 + 0.4) for i in range(24)],
        total_duration=12.0,
        reference_bpm=120.0,
    )
    audio = render_clicks(120.0, 12.0)
    assert tempo_deviation(audio, score, 1.0) <= 0.05


def test_tempo_deviation_needs_reference():
    score = NoteSequence([Note(0.0, 60, 1.0)], total_duration=12.0)
    with pytest.raises(MetricError, match="tempo reference"):
        tempo_deviation(np.zeros(44100 * 6), score, 1.0)


# ---------------------------------------------------------------------------
# Fréchet distance


def test_embedding_set_validation():
    with pytest.raises(ValueError, match="N x D"):
        EmbeddingSet(np.zeros(5))
    with pytest.raises(ValueError, match="N >= 2"):
        EmbeddingSet(np.zeros((1, 4)))
    with pytest.raises(ValueError, match="finite"):
        EmbeddingSet(np.array([[0.0, np.nan], [1.0, 2.0]]))


def test_identical_sets_have_zero_distance():
    rng = np.random.default_rng(6)
    v = rng.normal(size=(64, 16))
    assert frechet_distance(EmbeddingSet(v), EmbeddingSet(v.copy())) <= 1e-6


def test_constant_sets_reduce_to_mean_term():
    a = EmbeddingSet(np.zeros((3, 1)))
    b = EmbeddingSet(np.full((3, 1), 3.0))
    assert frechet_distance(a, b) == pytest.approx(9.0, abs=1e-12)


def test_one_dimensional_gaussian_closed_form():
    rng = np.random.default_rng(7)
    a = EmbeddingSet(rng.normal(0.0, 1.0, size=(100_000, 1)))
    b = EmbeddingSet(rng.normal(1.0, 2.0, size=(100_000, 1)))
    # (mu1-mu2)^2 + (s1-s2)^2 = 1 + 1
    assert frechet_distance(a, b) == pytest.approx(2.0, rel=0.05)


def test_symmetry_and_nonnegativity():
    rng = np.random.default_rng(8)
    for _ in range(25):
        a = EmbeddingSet(rng.normal(size=(40, 12)) * rng.uniform(0.5, 2))
        b = EmbeddingSet(rng.normal(rng.uniform(-1, 1), 1.0, size=(40, 12)))
        d_ab = frechet_distance(a, b)
        d_ba = frechet_distance(b, a)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(d_ba, abs=1e-8)


def test_dimension_mismatch():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="dimension"):
        frechet_distance(
            EmbeddingSet(rng.normal(size=(4, 3))), EmbeddingSet(rng.normal(size=(4, 5)))
        )


def test_embedding_file_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    vectors = rng.normal(size=(17, 6)).astype(np.float32).astype(np.float64)
    path = tmp_path / "emb.bin"
    write_embeddings(path, EmbeddingSet(vectors, label="ref"))
    back = read_embeddings(path)
    assert back.label == str(path)
    assert np.array_equal(back.vectors, vectors)


def test_embedding_file_errors(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XY")
    with pytest.raises(ValueError, match="truncated"):
        read_embeddings(path)
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(ValueError, match="magic"):
        read_embeddings(path)
    import struct

    path.write_bytes(struct.pack("<4sII", b"ENEB", 4, 3) + b"\x00" * 10)
    with pytest.raises(ValueError, match="body bytes"):
        read_embeddings(path)


@pytest.mark.parametrize("window", ["_CHROMA_HANN", "_TEMPO_HANN"])
def test_hann_windows_match_scipy(window):
    from scipy.signal.windows import hann

    w = getattr(metrics, window)
    assert np.array_equal(w, hann(len(w), sym=False))
