"""Numerical kernels: DTW fill and backtrack, additive note rendering.

Each kernel has exactly one implementation, in numpy.  ``dtw_fill`` does
the same adds and mins as the textbook scalar recurrence, so its result is
bit-identical to it.  ``render_notes`` evaluates a note's phase with
angle-addition tables instead of a ``sin`` call per sample and partial;
it agrees with per-sample ``np.sin`` evaluation to within 1e-9 for notes in
the first minutes of a piece.  The tests keep the scalar DTW loop and the
per-sample render loop as the oracles.
"""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# DTW: accumulated-cost fill and path backtrack.
#
# Step set {(1,0), (0,1), (1,1)}; ties during backtracking prefer the
# diagonal, then (1,0), then (0,1).  Cells may hold +inf (band masking);
# min() propagates them correctly.


def dtw_fill(cost):
    # Vectorized along anti-diagonals: every cell on diagonal d = i + j
    # depends only on diagonals d-1 and d-2, so each can be filled in one
    # shot.  Same adds and mins as the scalar recurrence, hence bit-identical.
    n, m = cost.shape
    acc = np.full((n, m), np.inf, dtype=np.float64)
    # cumsum accumulates left to right, matching the scalar recurrence's adds
    acc[0, :] = np.cumsum(cost[0, :], dtype=np.float64)
    acc[:, 0] = np.cumsum(cost[:, 0], dtype=np.float64)
    for d in range(2, n + m - 1):
        lo = max(1, d - m + 1)
        hi = min(n - 1, d - 1)
        if lo > hi:
            continue
        i = np.arange(lo, hi + 1)
        j = d - i
        best = np.minimum(acc[i - 1, j - 1], acc[i - 1, j])
        np.minimum(best, acc[i, j - 1], out=best)
        acc[i, j] = cost[i, j] + best
    return acc


def dtw_backtrack(acc):
    n, m = acc.shape
    path = np.empty((n + m - 1, 2), dtype=np.int64)
    k = path.shape[0]
    i = n - 1
    j = m - 1
    k -= 1
    path[k, 0] = i
    path[k, 1] = j
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
        k -= 1
        path[k, 0] = i
        path[k, 1] = j
    return path[k:]


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
