"""Numerical kernels: DTW with its path, additive note rendering.

Each kernel has exactly one implementation, in numpy.  ``dtw`` does the
same adds and mins as the textbook scalar recurrence, so its total and
path are bit-identical to it; it takes its costs a strip of anti-diagonals
at a time and keeps nothing per cell: it checkpoints the two live
anti-diagonals every block of them, and recomputes one block's window of
cells at a time as it walks the path back.
``NoteRenderer`` evaluates a note's phase with angle-addition tables
instead of a ``sin`` call per sample and partial; it agrees with
per-sample ``np.sin`` evaluation to within 1e-9 for notes in the first
minutes of a piece.  It renders a window of samples at a time, and the
samples are the same bits whatever the windows.  The tests keep the
scalar DTW loop, the comparing backtrack and the per-sample render loop
as the oracles.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# DTW with step set {(1,0), (0,1), (1,1)}.
#
# Every cell on anti-diagonal d = i + j depends only on diagonals d-1 and
# d-2, so a diagonal is filled in one shot.  Diagonal d lives in row d % h
# of an h-row array with cell (i, d-i) at column i - r0 + 1, where r0 is
# the first row filled; entries off the matrix stay +inf, so the first row
# and column need no case of their own.  The costs come at most _STRIP
# diagonals at a time from ``cost.diagonals(d0, lo, out)``, which fills
# out[d - d0, i - lo] with the cost of cell (i, d-i) for the diagonals and
# rows out spans; a plain matrix is gathered into the same form.  Cells
# farther than `band` from the stretched diagonal count as +inf.
#
# The first pass fills every diagonal into two rows and copies both at the
# start of each block of B diagonals (``_block``) as a checkpoint.  The walk
# back takes the blocks from last to first.  It enters a block at a path
# cell (i, e - i) and fills diagonals d0..e of rows i - (e - d0) - 1 .. i
# from the block's checkpoint into an array of their own, with +inf below
# those rows: a path falls at most one row per diagonal, and a wrong value
# climbs at most one row per diagonal from the bottom of the window, so
# every value the path compares is the first pass's, made by the same
# operations.  Each step compares the three predecessors in the tie order:
# the diagonal, else (i-1, j), else (i, j-1).  The checkpoints take about
# 16 n m / B bytes, a block's window 8 B^2, and the walk back fills at most
# (n + m) B cells.

_STRIP = 32


def _block(n, m):
    """Diagonals between checkpoints: the multiple of _STRIP nearest
    (n m)^(1/3), which about balances the checkpoints against a window."""
    return _STRIP * max(1, round((n * m) ** (1.0 / 3.0) / _STRIP))


def _matrix_diagonals(cost):
    """``diagonals`` of an n x m matrix, whose cell (i, d-i) is flat[i*(m-1) + d]."""
    flat, step = cost.ravel(), cost.shape[1] - 1

    def diagonals(d0, lo, out):
        k, rows = out.shape
        index = np.arange(lo, lo + rows) * step + np.arange(d0, d0 + k)[:, None]
        np.take(flat, index, out=out, mode="clip")

    return diagonals


def dtw(cost, band=None):
    """The total and the path, from (0, 0) to (n-1, m-1), of the cheapest
    monotone alignment; the path is None when no finite one exists."""
    n, m = cost.shape
    diagonals = cost.diagonals if hasattr(cost, "diagonals") else _matrix_diagonals(cost)
    last, block = n + m - 1, _block(n, m)
    best = np.empty(n)
    costs = np.empty(_STRIP * min(n, m + _STRIP))
    if band is not None:
        rows = np.arange(n, dtype=np.float64)
        center = rows * (m - 1) / (n - 1) if n > 1 else np.zeros(n)

    def sweep(acc, start, stop, r0, r1):
        """Fill diagonals start..stop-1 over rows r0..r1 into acc, whose rows
        (start - 2) % h and (start - 1) % h hold the two diagonals before."""
        h = acc.shape[0]
        for d in range(start, stop):
            if d == start or d % _STRIP == 0:
                s0, s1 = d, min(stop, d - d % _STRIP + _STRIP)
                s_lo = max(r0, s0 - m + 1)
                strip = costs[: (s1 - s0) * (min(r1, s1 - 1) - s_lo + 1)].reshape(s1 - s0, -1)
                diagonals(s0, s_lo, strip)
            lo, hi = max(r0, d - m + 1), min(r1, d)
            c, k = lo - r0, hi - lo + 1
            old = acc[(d - 1) % h]
            b = np.minimum(old[c : c + k], old[c + 1 : c + k + 1], out=best[:k])
            np.minimum(acc[(d - 2) % h, c : c + k], b, out=b)
            new = acc[d % h, c + 1 : c + k + 1]
            np.add(b, strip[d - s0, lo - s_lo : hi - s_lo + 1], out=new)
            if band is not None:
                new[np.abs(d - rows[lo : hi + 1] - center[lo : hi + 1]) > band] = np.inf

    acc = np.full((2, n + 1), np.inf)
    diagonals(0, 0, acc[0, 1:2].reshape(1, 1))
    checkpoints = []  # per block: the index of its first row, and both diagonals before it
    for d0 in range(0, last, block):
        d = max(1, d0)
        a, b = max(0, d - m + 1), min(n - 1, d) + 2
        checkpoints.append((a, acc[[(d - 2) % 2, (d - 1) % 2], a:b]))
        sweep(acc, d, min(d0 + block, last), 0, n - 1)
    total = float(acc[(last - 1) % 2, n])
    if not np.isfinite(total):
        return total, None

    costs = np.empty(_STRIP * min(n, block + 1))
    i, j = n - 1, m - 1
    path = [(i, j)]
    while i + j > 0:
        end = i + j
        a, held = checkpoints[end // block]
        del checkpoints[end // block :]
        d = max(1, end // block * block)
        r0 = max(0, i - (end - d) - 1)
        h = end - d + 3
        acc = np.full((h, i - r0 + 2), np.inf)
        lo, hi = max(r0 + 1, a), min(i + 2, a + held.shape[1])
        acc[[(d - 2) % h, (d - 1) % h], lo - r0 : hi - r0] = held[:, lo - a : hi - a]
        sweep(acc, d, end + 1, r0, i)
        while i + j >= d and i + j > 0:
            older, old, c = acc[(i + j - 2) % h], acc[(i + j - 1) % h], i - r0
            diag, up, left = older[c], old[c], old[c + 1]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
            path.append((i, j))
    return total, path[::-1]


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
#
# A window renders only the anchor rows of each note that overlap it and
# the envelope samples inside it.  Every sample is computed by the same
# operations whatever the window: elementwise ones on the same values, and
# a gemm row, which BLAS computes alike in any product of two or more rows.

_BLOCK = 256


def _envelope(t, attack, release, dur):
    env = np.ones_like(t)
    if attack > 0.0:
        np.minimum(env, t / attack, out=env)
    if release > 0.0:
        np.minimum(env, (dur - t) / release, out=env)
    return np.clip(env, 0.0, 1.0, out=env)


class NoteRenderer:
    """The mix of a piece's notes, added window by window into caller buffers.

    ``render(out, lo)`` adds every note's samples in [lo, lo + len(out))
    into ``out``.  Windows must come in increasing order, as a file is
    written; a note's samples are the same bits whatever the windows.
    Notes are added in note order, so each sample sums its notes in the
    same order as a whole-buffer render.  A pointer over the notes sorted
    by start and a list of the notes still sounding pick the notes of a
    window, and each pitch's per-offset table is made once.
    """

    def __init__(self, starts, durs, freqs, amps, n_partials, attack, release, sr):
        self._notes = list(zip(starts.tolist(), durs.tolist(), freqs.tolist(), amps.tolist()))
        self._first = np.maximum(0, np.rint(starts * sr)).astype(np.int64).tolist()
        self._end = np.rint((starts + durs) * sr).astype(np.int64).tolist()
        self._order = np.argsort(self._first, kind="stable").tolist()
        self._next = 0  # into _order: the first note not yet started
        self._live: list[int] = []  # started notes, in note order
        self._ks = np.arange(1, n_partials + 1, dtype=np.float64)
        self._steps = np.arange(_BLOCK, dtype=np.float64) / sr
        self._tables: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._attack, self._release, self._sr = attack, release, sr

    def _table(self, freq):
        """The angular frequencies of a pitch's partials below Nyquist and
        its per-offset table [cos(w_k n/sr); sin(w_k n/sr)], n < _BLOCK."""
        table = self._tables.get(freq)
        if table is None:
            fk = self._ks * freq
            w = _TWO_PI * fk[fk < self._sr / 2.0]
            offset = np.multiply.outer(w, self._steps)
            table = self._tables[freq] = (w, np.vstack((np.cos(offset), np.sin(offset))))
        return table

    def render(self, out, lo=0):
        hi = lo + out.shape[0]
        self._live = [n for n in self._live if self._end[n] > lo]
        while self._next < len(self._order) and self._first[self._order[self._next]] < hi:
            bisect.insort(self._live, self._order[self._next])
            self._next += 1
        for n in self._live:
            self._add(n, out, lo, hi)

    def _add(self, n, out, lo, hi):
        s, dur, freq, amp = self._notes[n]
        sr = self._sr
        a, r = self._attack, self._release
        if a + r > dur:
            fit = dur / (a + r)
            a *= fit
            r *= fit
        i0, i1 = self._first[n], self._end[n]
        j0, j1 = max(i0, lo), min(i1, hi)
        if j1 <= j0:
            return
        w, table = self._table(freq)
        if w.size == 0:
            return
        length = i1 - i0
        # Anchor rows r0..r1-1 of the note's grid cover [j0, j1).  numpy sends
        # a one-row product to gemv, whose sums round unlike gemm's rows, so
        # a note of several rows never computes one alone.
        r0, r1 = (j0 - i0) // _BLOCK, (j1 - i0 - 1) // _BLOCK + 1
        if r1 - r0 == 1 and length > _BLOCK:
            r0, r1 = (r0, r1 + 1) if r1 * _BLOCK < length else (r0 - 1, r1)
        anchors = np.arange(i0 + r0 * _BLOCK, i0 + r1 * _BLOCK, _BLOCK, dtype=np.float64)
        phase = np.multiply.outer(anchors / sr - s, w)
        weight = amp / self._ks[: w.size]
        per_anchor = np.hstack((np.sin(phase) * weight, np.cos(phase) * weight))
        per_step = table if length >= _BLOCK else np.ascontiguousarray(table[:, :length])
        skip = i0 + r0 * _BLOCK
        x = (per_anchor @ per_step).ravel()[j0 - skip : j1 - skip]
        # Samples in [head, tail) lie on the envelope's plateau; one sample of
        # slack on each side absorbs the rounding of t.  Overlapping edges
        # merge into one range.
        head = i0 if a == 0.0 else math.ceil((s + a) * sr) + 1
        tail = i1 if r == 0.0 else math.floor((s + dur - r) * sr) - 1
        head = min(max(head, i0), i1)
        tail = min(max(tail, i0), i1)
        edges = ((i0, i1),) if head >= tail else ((i0, head), (tail, i1))
        for e0, e1 in edges:
            e0, e1 = max(e0, j0), min(e1, j1)
            if e0 < e1:
                t = np.arange(e0, e1, dtype=np.float64) / sr - s
                x[e0 - j0 : e1 - j0] *= _envelope(t, a, r, dur)
        out[j0 - lo : j1 - lo] += x

