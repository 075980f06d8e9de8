"""The kernels against straightforward reference loops kept here as oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encore import _kernels as kernels
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
    assert np.array_equal(kernels.dtw_fill(cost), _dtw_fill_scalar(cost))


def test_dtw_fill_propagates_inf():
    cost = np.array([[0.0, np.inf, 1.0], [1.0, 2.0, np.inf], [np.inf, 1.0, 0.5]])
    acc = kernels.dtw_fill(cost)
    assert np.isinf(acc[0, 1]) and np.isinf(acc[0, 2])
    assert np.isfinite(acc[2, 2])
    assert np.array_equal(acc, _dtw_fill_scalar(cost))


def test_backtrack_prefers_diagonal_on_ties():
    acc = np.zeros((3, 3))
    path = np.asarray(kernels.dtw_backtrack(acc))
    assert path.tolist() == [[0, 0], [1, 1], [2, 2]]


def test_backtrack_prefers_vertical_over_horizontal():
    # at (1,1): diagonal 3, up 2, left 2 -> the (1,0) step wins the tie
    acc = np.array([[3.0, 2.0], [2.0, 5.0]])
    path = np.asarray(kernels.dtw_backtrack(acc))
    assert path.tolist() == [[0, 0], [0, 1], [1, 1]]


def test_backtrack_single_cell():
    path = np.asarray(kernels.dtw_backtrack(np.zeros((1, 1))))
    assert path.tolist() == [[0, 0]]


def test_backtrack_path_cost_matches_fill():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n, m = rng.integers(1, 12, size=2)
        cost = rng.random((n, m))
        acc = kernels.dtw_fill(cost)
        path = np.asarray(kernels.dtw_backtrack(acc))
        assert path[0].tolist() == [0, 0] and path[-1].tolist() == [n - 1, m - 1]
        steps = {tuple(step) for step in np.diff(path, axis=0)}
        assert steps <= {(1, 0), (0, 1), (1, 1)}
        # the fill adds each cell's cost to the best predecessor, so summing
        # along the path in the same order reproduces the total exactly
        total = 0.0
        for i, j in path:
            total = cost[i, j] + total
        assert total == acc[-1, -1]


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
    kernels.render_notes(*args, out)
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
    kernels.render_notes(*args, out)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)


def test_render_drops_partials_above_nyquist():
    out = np.zeros(44100)
    # pitch 127 fundamental ~12.5 kHz: partials 2..4 alias, must be dropped
    kernels.render_notes(
        np.array([0.0]),
        np.array([1.0]),
        np.array([440.0 * 2.0 ** ((127 - 69) / 12.0)]),
        np.array([0.5]),
        4,
        0.01,
        0.05,
        44100.0,
        out,
    )
    spec = np.abs(np.fft.rfft(out))
    freqs = np.fft.rfftfreq(out.shape[0], 1.0 / 44100.0)
    main = freqs[np.argmax(spec)]
    assert abs(main - 12543.85) < 2.0
    # everything above the fundamental stays at noise level
    above = spec[freqs > 13000.0]
    assert above.max() < 0.01 * spec.max()
