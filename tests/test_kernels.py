"""The kernels against straightforward reference loops kept here as oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from encore import _kernels as kernels
from encore.metrics import MetricError, dtw_from_costs
from encore.synth import MIN_NOTE_SECONDS

_TWO_PI = 2.0 * math.pi


def _dtw_fill_scalar(cost):
    n, m = cost.shape
    acc = np.empty((n, m), dtype=np.float64)
    acc[0, 0] = cost[0, 0]
    for j in range(1, m):
        acc[0, j] = acc[0, j - 1] + cost[0, j]
    for i in range(1, n):
        acc[i, 0] = acc[i - 1, 0] + cost[i, 0]
        for j in range(1, m):
            best = acc[i - 1, j - 1]
            if acc[i - 1, j] < best:
                best = acc[i - 1, j]
            if acc[i, j - 1] < best:
                best = acc[i, j - 1]
            acc[i, j] = cost[i, j] + best
    return acc


def _dtw_backtrack_comparing(acc):
    # walks back over the accumulated cost, comparing the three
    # predecessors in the tie order diagonal, (i-1, j), (i, j-1)
    i, j = acc.shape[0] - 1, acc.shape[1] - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag = acc[i - 1, j - 1]
            up = acc[i - 1, j]
            left = acc[i, j - 1]
            if diag <= up and diag <= left:
                i -= 1
                j -= 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    return path[::-1]


def _banded_copy(cost, band):
    # a copy of the cost with cells outside the Sakoe-Chiba band set to +inf
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    n, m = cost.shape
    rows = np.arange(n, dtype=np.float64)
    center = rows * (m - 1) / (n - 1) if n > 1 else np.zeros(n)
    cols = np.arange(m, dtype=np.float64)
    outside = np.abs(cols[None, :] - center[:, None]) > band
    cost = cost.copy()
    cost[outside] = np.inf
    return cost


def _dtw_oracle(cost, band=None):
    if band is not None:
        cost = _banded_copy(cost, band)
    acc = _dtw_fill_scalar(cost)
    total = float(acc[-1, -1])
    if not np.isfinite(total):
        raise MetricError(f"no monotone path (band {band})")
    return total, _dtw_backtrack_comparing(acc)


def _render_notes_per_sample(starts, durs, freqs, amps, n_partials, attack, release, sr, out):
    # one sin call per sample and partial, envelope on every sample
    total = out.shape[0]
    for n in range(starts.shape[0]):
        s = starts[n]
        dur = durs[n]
        a = attack
        r = release
        if a + r > dur:
            fit = dur / (a + r)
            a *= fit
            r *= fit
        i0 = max(0, int(round(s * sr)))
        i1 = min(total, int(round((s + dur) * sr)))
        if i1 <= i0:
            continue
        t = np.arange(i0, i1, dtype=np.float64) / sr - s
        env = np.ones_like(t)
        if a > 0.0:
            np.minimum(env, t / a, out=env)
        if r > 0.0:
            np.minimum(env, (dur - t) / r, out=env)
        np.clip(env, 0.0, 1.0, out=env)
        x = np.zeros_like(t)
        for k in range(1, n_partials + 1):
            fk = k * freqs[n]
            if fk >= sr / 2.0:
                break
            x += np.sin(_TWO_PI * fk * t) / k
        out[i0:i1] += amps[n] * env * x


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (6, 6), (23, 17), (40, 64)])
def test_dtw_fill_paths_bit_identical(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    cost = rng.random(shape)
    total, path = kernels.dtw(cost)
    acc = _dtw_fill_scalar(cost)
    assert total == acc[-1, -1]
    assert path == _dtw_backtrack_comparing(acc)


def test_dtw_fill_propagates_inf():
    cost = np.array([[0.0, np.inf, 1.0], [1.0, 2.0, np.inf], [np.inf, 1.0, 0.5]])
    total, path = kernels.dtw(cost)
    assert total == _dtw_fill_scalar(cost)[-1, -1] == 2.5
    assert path == [(0, 0), (1, 1), (2, 2)]
    assert kernels.dtw(np.array([[0.0, np.inf], [np.inf, np.inf]])) == (np.inf, None)


def test_backtrack_prefers_diagonal_on_ties():
    assert kernels.dtw(np.zeros((3, 3))) == (0.0, [(0, 0), (1, 1), (2, 2)])


def test_backtrack_prefers_vertical_over_horizontal():
    # the accumulated cost is [[3, 2], [2, 2]]: at (1,1) the diagonal
    # predecessor holds 3 and both others 2, so the (1,0) step wins the tie
    cost = np.array([[3.0, -1.0], [-1.0, 0.0]])
    assert kernels.dtw(cost) == (2.0, [(0, 0), (0, 1), (1, 1)])


def test_backtrack_single_cell():
    assert kernels.dtw(np.full((1, 1), 0.25)) == (0.25, [(0, 0)])


def test_backtrack_path_cost_matches_fill():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n, m = rng.integers(1, 12, size=2)
        cost = rng.random((n, m))
        total, path = kernels.dtw(cost)
        path = np.asarray(path)
        assert path[0].tolist() == [0, 0] and path[-1].tolist() == [n - 1, m - 1]
        moves = {tuple(move) for move in np.diff(path, axis=0)}
        assert moves <= {(1, 0), (0, 1), (1, 1)}
        # the fill adds each cell's cost to the best predecessor, so summing
        # along the path in the same order reproduces the total exactly
        along = 0.0
        for i, j in path:
            along = cost[i, j] + along
        assert along == total


_costs = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
    elements=st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, np.inf]),  # ties and masked cells
        st.floats(0.0, 2.0),
    ),
)


@settings(max_examples=300, deadline=None)
@given(cost=_costs, band=st.integers(-1, 15).map(lambda b: None if b == 15 else b),
       size=st.one_of(st.none(), st.integers(1, 9)))
def test_dtw_from_costs_matches_oracles(cost, band, size):
    """Also with a few diagonals between checkpoints, so the path crosses
    many blocks."""
    with pytest.MonkeyPatch.context() as patch:
        if size is not None:
            patch.setattr(kernels, "_block", lambda n, m: size)
        try:
            expected = _dtw_oracle(cost, band)
        except (MetricError, ValueError) as exc:
            with pytest.raises(type(exc)):
                dtw_from_costs(cost, band)
            return
        total, path = dtw_from_costs(cost, band)
    assert np.float64(total).tobytes() == np.float64(expected[0]).tobytes()
    assert path == expected[1]


# ---------------------------------------------------------------------------
# DTW across checkpoint blocks: the walk back refills each block's window of
# rows from its checkpoint, and must compare the first pass's values
# wherever the path goes.


@pytest.fixture
def block(monkeypatch):
    """Sets the diagonals between checkpoints, whatever the shape."""
    return lambda size: monkeypatch.setattr(kernels, "_block", lambda n, m: size)


def _assert_matches_oracle(cost, band=None):
    acc = _dtw_fill_scalar(cost if band is None else _banded_copy(cost, band))
    total, path = kernels.dtw(cost, band)
    assert np.float64(total).tobytes() == np.float64(acc[-1, -1]).tobytes()
    assert path == (_dtw_backtrack_comparing(acc) if np.isfinite(acc[-1, -1]) else None)
    return path


@pytest.mark.parametrize("shape", [(1, 700), (700, 1), (400, 300), (90, 700), (700, 90)])
def test_dtw_spans_many_blocks(shape):
    n, m = shape
    assert (n + m - 1) // kernels._block(n, m) >= 5
    rng = np.random.default_rng(n * m)
    _assert_matches_oracle(rng.random(shape))
    _assert_matches_oracle(np.round(rng.random(shape) * 4) / 4)  # ties everywhere


@pytest.mark.parametrize("size", [2, 3, 4])
def test_diagonal_step_across_a_block_edge(block, size):
    """A cheap main diagonal: the path takes only diagonal steps, so it
    leaves each block from its first diagonal for the one before the last
    of the block below, and enters that block off its last diagonal."""
    block(size)
    cost = 1.0 - np.eye(20)
    path = _assert_matches_oracle(cost)
    assert path == [(i, i) for i in range(20)]
    crossings = [(i + j, k + l) for (i, j), (k, l) in zip(path, path[1:])
                 if (i + j) // size != (k + l) // size]
    assert any(d1 % size == 0 and d0 % size == size - 2 for d0, d1 in crossings), crossings


@pytest.mark.parametrize("size", [1, 2, 5])
def test_thin_and_all_tie_matrices(block, size):
    block(size)
    rng = np.random.default_rng(size)
    for shape in ((1, 1), (1, 40), (40, 1), (9, 9), (7, 19), (19, 7)):
        assert len(_assert_matches_oracle(np.zeros(shape))) == max(shape)
        if 1 in shape:
            _assert_matches_oracle(rng.random(shape))


def test_band_leaves_whole_blocks_at_inf(block):
    """A narrow band on a wide matrix leaves most of every block's window,
    and whole blocks of some rows, at +inf; a wall of +inf costs leaves
    rows below the path infinite for many blocks."""
    block(4)
    rng = np.random.default_rng(9)
    cost = rng.random((12, 60))
    for band in (1, 3, 6):
        _assert_matches_oracle(cost, band)
    walled = rng.random((40, 40))
    walled[10:, :30] = np.inf
    path = _assert_matches_oracle(walled)
    assert all(i < 10 or j >= 30 for i, j in path)
    _assert_matches_oracle(walled, 20)
    assert kernels.dtw(walled, 2) == (np.inf, None)


def _random_note_arrays(rng, n):
    starts = rng.uniform(0.0, 2.0, n)
    durs = rng.uniform(0.01, 1.0, n)
    freqs = 440.0 * 2.0 ** ((rng.integers(40, 90, n) - 69) / 12.0)
    amps = rng.uniform(0.05, 0.3, n)
    return starts, durs, freqs, amps


def test_render_paths_agree():
    rng = np.random.default_rng(5)
    starts, durs, freqs, amps = _random_note_arrays(rng, 12)
    expected = np.zeros(3 * 44100)
    out = np.zeros_like(expected)
    args = (starts, durs, freqs, amps, 4, 0.01, 0.05, 44100.0)
    _render_notes_per_sample(*args, expected)
    kernels.NoteRenderer(*args).render(out)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)


_notes = st.lists(
    st.tuples(
        st.floats(0.0, 2.0),  # start, s
        st.one_of(  # duration, s
            st.just(MIN_NOTE_SECONDS),
            st.floats(MIN_NOTE_SECONDS, 0.1),  # at or under attack + release
            st.floats(MIN_NOTE_SECONDS, 1.5),
        ),
        st.integers(0, 127),  # pitch
        st.floats(0.0, 1.0),  # amplitude
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(
    notes=_notes,
    n_partials=st.integers(1, 32),
    attack=st.one_of(st.just(0.0), st.floats(1e-6, 0.1)),
    release=st.one_of(st.just(0.0), st.floats(1e-6, 0.1)),
    sample_rate=st.sampled_from([8000.0, 22050.0, 44100.0]),
    seconds=st.floats(0.01, 2.5),  # buffer length; notes may run past it
)
def test_render_matches_per_sample_oracle(
    notes, n_partials, attack, release, sample_rate, seconds
):
    starts, durs, pitches, amps = (
        np.array(column, dtype=np.float64) for column in zip(*notes)
    )
    # high pitches at low rates put upper partials, or the fundamental,
    # at or above Nyquist
    freqs = 440.0 * 2.0 ** ((pitches - 69) / 12.0)
    args = (starts, durs, freqs, amps, n_partials, attack, release, sample_rate)
    expected = np.zeros(int(seconds * sample_rate))
    out = np.zeros_like(expected)
    _render_notes_per_sample(*args, expected)
    kernels.NoteRenderer(*args).render(out)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    notes=st.lists(
        st.tuples(
            st.floats(0.0, 2.5),  # start, s
            st.one_of(st.just(MIN_NOTE_SECONDS), st.floats(MIN_NOTE_SECONDS, 2.0)),
            st.integers(0, 127),  # pitch
            st.floats(0.0, 1.0),  # amplitude
        ),
        max_size=12,
    ),
    in_order=st.booleans(),
    n_partials=st.integers(1, 8),
    seconds=st.floats(0.0, 3.0),
    # from pieces of a 256-sample anchor row up to many rows: a window that
    # holds one row of a longer note must not change its bits
    chunk=st.one_of(st.integers(64, 600), st.sampled_from([1024, 4097, 1 << 16])),
)
def test_windowed_render_is_bit_identical_to_whole(notes, in_order, n_partials, seconds,
                                                   chunk):
    if in_order:  # as NoteSequence keeps them
        notes = sorted(notes, key=lambda note: note[0])
    starts, durs, pitches, amps = (
        np.array([note[i] for note in notes], dtype=np.float64) for i in range(4)
    )
    freqs = 440.0 * 2.0 ** ((pitches - 69) / 12.0)
    args = (starts, durs, freqs, amps, n_partials, 0.01, 0.05, 44100.0)
    whole = np.zeros(int(seconds * 44100))
    kernels.NoteRenderer(*args).render(whole)
    renderer = kernels.NoteRenderer(*args)
    windows = []
    for lo in range(0, whole.shape[0], chunk):
        windows.append(np.zeros(min(chunk, whole.shape[0] - lo)))
        renderer.render(windows[-1], lo)
    assert np.array_equal(np.concatenate([np.zeros(0), *windows]), whole)


def test_render_drops_partials_above_nyquist():
    out = np.zeros(44100)
    # pitch 127 fundamental ~12.5 kHz: partials 2..4 alias, must be dropped
    kernels.NoteRenderer(
        np.array([0.0]),
        np.array([1.0]),
        np.array([440.0 * 2.0 ** ((127 - 69) / 12.0)]),
        np.array([0.5]),
        4,
        0.01,
        0.05,
        44100.0,
    ).render(out)
    spec = np.abs(np.fft.rfft(out))
    freqs = np.fft.rfftfreq(out.shape[0], 1.0 / 44100.0)
    main = freqs[np.argmax(spec)]
    assert abs(main - 12543.85) < 2.0
    # everything above the fundamental stays at noise level
    above = spec[freqs > 13000.0]
    assert above.max() < 0.01 * spec.max()
