"""Numerical kernels: DTW fill and backtrack, additive note rendering.

Each kernel has exactly one implementation, in numpy.  ``dtw_fill`` does
the same adds and mins as the textbook scalar recurrence, so its total is
bit-identical to it; beyond the cost it needs one byte per cell.
``render_notes`` evaluates a note's phase with angle-addition tables
instead of a ``sin`` call per sample and partial; it agrees with
per-sample ``np.sin`` evaluation to within 1e-9 for notes in the first
minutes of a piece.  The tests keep the scalar DTW loop, the comparing
backtrack and the per-sample render loop as the oracles.
"""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# DTW with step set {(1,0), (0,1), (1,1)}.
#
# Every cell on anti-diagonal d = i + j depends only on diagonals d-1 and
# d-2, so a diagonal is filled in one shot and only those two are kept, each
# as an (n+2)-long buffer with cell (i, d-i) at index i+1.  Entries off the
# matrix stay +inf, so the first row and column need no case of their own.
# A diagonal's cells are a stride-(m-1) slice of the flattened cost.  Cells
# farther than `band` from the stretched diagonal count as +inf.  The fill
# returns the total and one step per cell, chosen with the tie order: 0 for
# the diagonal, else 1 from (i-1, j), else 2 from (i, j-1).  The backtrack
# only follows the steps.


def dtw_fill(cost, band=None):
    n, m = cost.shape
    flat = cost.ravel()
    steps = np.zeros((n, m), dtype=np.uint8)
    older, old = np.full((2, n + 2), np.inf)  # diagonals d-2 and d-1
    old[1] = flat[0]
    best, offset = np.empty((2, min(n, m)))
    pick = np.empty(min(n, m), dtype=bool)
    step = np.empty(min(n, m), dtype=np.uint8)
    rows = np.arange(n, dtype=np.float64)
    center = rows * (m - 1) / (n - 1) if n > 1 else np.zeros(n)
    for d in range(1, n + m - 1):
        lo, hi = max(0, d - m + 1), min(n - 1, d)
        k = hi - lo + 1
        cells = slice(lo * (m - 1) + d, hi * (m - 1) + d + 1, max(m - 1, 1))
        b, p, s = best[:k], pick[:k], step[:k]
        up, left = old[lo : hi + 1], old[lo + 1 : hi + 2]
        np.less_equal(up, left, out=p)
        np.subtract(2, p, out=s, casting="unsafe")  # 1 on a tie with left
        np.minimum(up, left, out=b)
        np.less_equal(older[lo : hi + 1], b, out=p)
        np.copyto(s, 0, where=p)  # the diagonal wins every tie
        np.minimum(older[lo : hi + 1], b, out=b)
        np.add(flat[cells], b, out=b)
        if band is not None:
            o = np.subtract(d, rows[lo : hi + 1], out=offset[:k])  # the columns
            np.abs(np.subtract(o, center[lo : hi + 1], out=o), out=o)
            np.copyto(b, np.inf, where=np.greater(o, band, out=p))
        steps.ravel()[cells] = s
        older[lo + 1 : hi + 2] = b  # diagonal d-2's buffer takes diagonal d
        older, old = old, older
    return float(old[n]), steps


def dtw_backtrack(steps):
    i, j = steps.shape[0] - 1, steps.shape[1] - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        step = int(steps[i, j])
        i, j = i - (step != 2), j - (step != 1)
        path.append((i, j))
    return path[::-1]


# ---------------------------------------------------------------------------
# Additive synthesis.
#
# Each note contributes sum_k sin(2*pi*k*f0*t)/k over partials whose
# frequency stays below Nyquist, shaped by a linear attack/release
# envelope env(t) = clip(min(t/attack, (dur - t)/release), 0, 1) and
# scaled by the per-note amplitude.  t is measured from note start.
#
# A sin call per sample and partial would dominate the cost, so the phase
# is split at an anchor every _BLOCK samples: with t = t_b + n/sr,
#
#   sin(w_k t) = sin(w_k t_b) cos(w_k n/sr) + cos(w_k t_b) sin(w_k n/sr),
#
# and the sum over partials is one matrix product of a per-anchor table
# [sin(w_k t_b)/k, cos(w_k t_b)/k] with a per-note table
# [cos(w_k n/sr); sin(w_k n/sr)].  That is 2 sin/cos per partial and
# anchor plus 2 * _BLOCK per partial and note.  Each anchor's t_b is
# computed as i/sr - s, the same as a per-sample evaluation, and the offset
# n/sr stays below one block, so the error does not grow with note length.
# It does grow with the note's start time, as for per-sample evaluation:
# both round i/sr to the ulp of the absolute time, so for dense notes up
# to 4 kHz the two differ by about 4e-10 two minutes in and 3e-9 at ten.
# The envelope is exactly 1 between the attack and release edges, so it is
# only evaluated on the edges.

_BLOCK = 256


def _envelope(t, attack, release, dur):
    env = np.ones_like(t)
    if attack > 0.0:
        np.minimum(env, t / attack, out=env)
    if release > 0.0:
        np.minimum(env, (dur - t) / release, out=env)
    return np.clip(env, 0.0, 1.0, out=env)


def render_notes(starts, durs, freqs, amps, n_partials, attack, release, sr, out):
    total = out.shape[0]
    ks = np.arange(1, n_partials + 1, dtype=np.float64)
    steps = np.arange(_BLOCK, dtype=np.float64) / sr
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
        fk = ks * freqs[n]
        w = _TWO_PI * fk[fk < sr / 2.0]
        if i1 <= i0 or w.size == 0:
            continue
        length = i1 - i0
        phase = np.multiply.outer(np.arange(i0, i1, _BLOCK, dtype=np.float64) / sr - s, w)
        weight = amps[n] / ks[: w.size]
        per_anchor = np.hstack((np.sin(phase) * weight, np.cos(phase) * weight))
        offset = np.multiply.outer(w, steps[:length])
        per_step = np.vstack((np.cos(offset), np.sin(offset)))
        x = (per_anchor @ per_step).ravel()[:length]
        # Samples in [head, tail) lie on the envelope's plateau; one sample of
        # slack on each side absorbs the rounding of t.  Overlapping edges
        # merge into one range.
        head = i0 if a == 0.0 else math.ceil((s + a) * sr) + 1
        tail = i1 if r == 0.0 else math.floor((s + dur - r) * sr) - 1
        head = min(max(head, i0), i1)
        tail = min(max(tail, i0), i1)
        edges = ((i0, i1),) if head >= tail else ((i0, head), (tail, i1))
        for j0, j1 in edges:
            t = np.arange(j0, j1, dtype=np.float64) / sr - s
            x[j0 - i0 : j1 - i0] *= _envelope(t, a, r, dur)
        out[i0:i1] += x
