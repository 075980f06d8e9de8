"""Objective metrics: chroma similarity over DTW, tempo deviation, and
Fréchet distance between embedding sets.

The audio functions take a mono numpy buffer at audio_io.ANALYSIS_RATE or
an audio_io.WavReader, and are pure; file handling lives in audio_io and
the CLI. Both STFT features come from one walk (``_walk``) that reads the
samples once, a block at a time: ``chromagram(audio, onset=True)`` returns
the chromagram and the onset envelope that ``tempo_estimate`` takes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._kernels import _STRIP, dtw
from .audio_io import ANALYSIS_RATE, CHUNK, WavReader
from .augment import RATIO_CEILING, RATIO_FLOOR
from .notes import NoteSequence

CHROMA_WINDOW = 4096
CHROMA_HOP = 2048
DEFAULT_PENALTY_WEIGHT = 1e-3

TEMPO_MIN_BPM = 40.0
TEMPO_MAX_BPM = 220.0
# octave-resolution target band; a sub-70 estimate is doubled when the
# doubled lag scores within 10% of the winning autocorrelation peak
_PREFERRED_LOW = 70.0
_TEMPO_WINDOW = 2048
_TEMPO_HOP = 512


def _periodic_hann(n: int) -> np.ndarray:
    """scipy.signal.windows.hann(n, sym=False), bit for bit: the same
    operations as scipy's general_cosine, 0.5 + 0.5 cos over n points of
    [-pi, pi)."""
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


_CHROMA_HANN = _periodic_hann(CHROMA_WINDOW)
_TEMPO_HANN = _periodic_hann(_TEMPO_WINDOW)


def _chroma_fold() -> tuple[np.ndarray, np.ndarray]:
    """chromagram's bins sorted stably by pitch class, and where each class C..B starts."""
    freqs = np.arange(CHROMA_WINDOW // 2 + 1) * (ANALYSIS_RATE / CHROMA_WINDOW)  # no numpy.fft
    bins = np.flatnonzero((freqs >= 27.5) & (freqs <= 8000.0))
    classes = np.round(69.0 + 12.0 * np.log2(freqs[bins] / 440.0)).astype(np.int64) % 12
    order = np.argsort(classes, kind="stable")
    return bins[order], np.searchsorted(classes[order], np.arange(12))


_CHROMA_BINS, _CHROMA_STARTS = _chroma_fold()

EMBEDDING_MAGIC = b"ENEB"
_EMBEDDING_HEADER = struct.Struct("<4sII")  # magic, D, N
# frechet_distance holds D x D covariances and their eigendecompositions:
# two sets of 2148 vectors at D = 2048 take about 300 MB peak RSS and 3.5 s on
# the CLI's one BLAS thread (2-CPU Xeon); --workers spreads many pairs over the
# CPUs. A header's D is untrusted: 10**6 would ask for terabytes
MAX_EMBEDDING_DIM = 2048


class MetricError(ValueError):
    """A metric is undefined or not computable for the given inputs."""


# ---------------------------------------------------------------------------
# chroma


@dataclass(frozen=True)
class ChromaMatrix:
    """T x 12 pitch-class energy frames; row 0 of a frame is class C.

    Every frame is either L2-normalized or all-zero (silence), and is
    stored rounded to multiples of 2**-24 (its norm moves by about 1e-7 at most).
    ``label`` names the file the frames come from, if any.
    """

    frames: np.ndarray
    label: str = ""

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != 12:
            raise ValueError(f"frames must be T x 12, got {frames.shape}")
        if frames.shape[0] == 0:
            raise ValueError("chromagram has no frames")
        if np.any(frames < 0.0):
            raise ValueError("chroma energies must be non-negative")
        norms = np.linalg.norm(frames, axis=1)
        bad = ~((norms == 0.0) | (np.abs(norms - 1.0) <= 1e-6))
        if np.any(bad):
            raise ValueError("frames must be unit-norm or all-zero")
        object.__setattr__(self, "frames", np.round(frames * 2.0**24) / 2.0**24)

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def is_silent(self) -> bool:
        return not self.frames.any()


def _signal(audio):
    """A WavReader as it is, anything else as a mono float64 array: both
    give float64 samples when sliced."""
    if isinstance(audio, WavReader):
        return audio
    x = np.asarray(audio, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"audio must be mono, got shape {x.shape}")
    return x


def _label(x) -> str:
    """The path a WavReader reads, or "" for a buffer."""
    return str(x.path) if isinstance(x, WavReader) else ""


def _named(x, message: str) -> str:
    """message, after the path of the file x reads, if any."""
    label = x.label if isinstance(x, ChromaMatrix) else _label(x)
    return f"{label}: {message}" if label else message


def _n_frames(n: int, window: int, hop: int) -> int:
    """STFT frames of n samples, zero-padded to one window when shorter."""
    return 1 + (max(n, window) - window) // hop


def _walk(x, chroma: bool, onset: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The chroma STFT's unnormalized rows and the onset envelope of x, each
    if asked for, from one pass over x.

    The pass reads x[lo:lo + block] once per block, where a block is the
    hops of one full batch of the first STFT asked for, chroma's if both,
    straight into a stream buffer (a WavReader decodes into it) that keeps
    only the tail the next frame of either STFT overlaps. Each STFT takes
    the frames the stream holds in batches of CHUNK // window (one at
    least): a batch is copied into the windowed buffer, scaled by the
    window in place, and transformed into the complex buffer. The two
    STFTs share those three buffers, and a batch's energies or flux terms
    go to the windowed buffer once it is transformed. Every row is summed in the same order as from one STFT of
    the whole buffer. A short x is zero-padded to a window. Every sample
    is read, also past the last frame, so a WavReader checks the whole file.
    """
    n = len(x)
    feeds = []  # per STFT: [hann, hop, frames, next frame, frames a batch, sink]
    if chroma:
        frames = _n_frames(n, CHROMA_WINDOW, CHROMA_HOP)
        feeds.append([_CHROMA_HANN, CHROMA_HOP, frames, 0,
                      min(frames, max(1, CHUNK // CHROMA_WINDOW)), None])
    if onset:
        frames = _n_frames(n, _TEMPO_WINDOW, _TEMPO_HOP)
        feeds.append([_TEMPO_HANN, _TEMPO_HOP, frames, 0,
                      min(frames, max(1, CHUNK // _TEMPO_WINDOW)), None])
    windowed = np.empty(max(f[0].shape[0] * f[4] for f in feeds))
    spectrum = np.empty(max((f[0].shape[0] // 2 + 1) * f[4] for f in feeds), dtype=complex)
    rows = flux = None
    if chroma:
        frames, per = feeds[0][2], feeds[0][4]
        rows = np.empty((frames, 12))
        kept = np.empty((per, len(_CHROMA_BINS)), dtype=complex)

        def fold(spec: np.ndarray, first: int) -> None:
            k = spec.shape[0]
            # the kept third of the bins, gathered before their magnitudes are taken
            np.take(spec, _CHROMA_BINS, axis=1, out=kept[:k], mode="clip")
            e = np.abs(kept[:k], out=windowed[: kept[:k].size].reshape(k, -1))
            e *= e
            np.add.reduceat(e, _CHROMA_STARTS, axis=1, out=rows[first : first + k])

        feeds[0][5] = fold
    if onset:
        frames, per = feeds[-1][2], feeds[-1][4]
        bins = _TEMPO_WINDOW // 2 + 1
        flux = np.empty(frames - 1)
        # row 0 holds the frame before the batch, so each neighbour pair is differenced once
        magnitude = np.empty((per + 1, bins))

        def difference(spec: np.ndarray, first: int) -> None:
            k = spec.shape[0]
            np.abs(spec, out=magnitude[1 : k + 1])
            skip = int(first == 0)  # frame 0 has no frame before it
            r = np.subtract(magnitude[1 + skip : k + 1], magnitude[skip:k],
                            out=windowed[: (k - skip) * bins].reshape(k - skip, bins))
            np.maximum(r, 0.0, out=r)
            r.sum(axis=1, out=flux[first - 1 + skip : first + k - 1])
            magnitude[0] = magnitude[k]

        feeds[-1][5] = difference
    block = feeds[0][1] * max(1, CHUNK // feeds[0][0].shape[0])
    stream = np.empty(min(n, block) + max(f[0].shape[0] for f in feeds) - 1)
    start = held = 0  # the sample stream[0] holds, and how many it holds
    for lo in range(0, n, block):
        got = min(block, n - lo)
        if isinstance(x, WavReader):
            x.read_into(stream[held : held + got], lo)
        else:
            stream[held : held + got] = x[lo : lo + got]
        held += got
        if lo + block >= n:  # the last block: a short x is zero-padded
            stream[held:] = 0.0
            held = stream.shape[0]
        for feed in feeds:
            hann, hop, frames, first, per, sink = feed
            window, bins = hann.shape[0], hann.shape[0] // 2 + 1
            while first < frames:
                k = min(per, frames - first, (start + held - first * hop - window) // hop + 1)
                if k <= 0:
                    break
                # the k frames from stream[first * hop - start], as one strided view
                view = np.ndarray((k, window), buffer=stream, offset=(first * hop - start) * 8,
                                  strides=(hop * 8, 8))
                w = windowed[: k * window].reshape(k, window)
                w[...] = view
                w *= hann
                sink(np.fft.rfft(w, axis=1, out=spectrum[: k * bins].reshape(k, bins)), first)
                first += k
            feed[3] = first
        keep = min((f[3] * f[1] for f in feeds if f[3] < f[2]), default=start + held)
        stream[: start + held - keep] = stream[keep - start : held]
        held, start = start + held - keep, keep
    return rows, flux


def chromagram(audio: np.ndarray | WavReader, *, onset: bool = False):
    """Fold STFT bin energies into 12 pitch classes.

    Window 4096, hop 2048, Hann. Bins between 27.5 Hz and 8 kHz are
    assigned to the nearest equal-tempered pitch (A4 = 440 Hz) and their
    energies (squared magnitudes, which keep window leakage out of the
    neighboring semitones) summed by pitch class; frames are then
    L2-normalized (silent frames stay zero). With ``onset``, the result is
    (ChromaMatrix, onset envelope), both from one pass over the samples,
    and the envelope is what ``tempo_estimate`` takes: audio shorter than
    it needs is refused before a sample is read.
    """
    x = _signal(audio)
    if len(x) == 0:
        raise ValueError("audio buffer is empty")
    if onset:
        _check_tempo_length(x)
    chroma, flux = _walk(x, chroma=True, onset=onset)
    norms = np.linalg.norm(chroma, axis=1)
    sounding = norms > 0.0
    chroma[sounding] /= norms[sounding, None]
    matrix = ChromaMatrix(chroma, label=_label(x))
    return (matrix, flux) if onset else matrix


class _ChromaCosts:
    """DTW costs |a_i - b_j|^2 / 2 of two ChromaMatrix frame arrays (within
    2.1e-7 of 1 - a_i . b_j), a strip of anti-diagonals at a time for
    ``dtw`` or cell by cell (``at``). A cell is one dot product of the
    frames extended to 16 columns, [a, s|a|^2/2, s, s, 1-s] . [-b, s',
    s'|b|^2/2, 1-s', s'] with s = 1 for sound and 0 for silence: silence
    matches silence (0) and mismatches sound (1). Every product is a
    multiple of 2**-49 and no partial sum reaches 16, so every cell is exact
    whatever BLAS kernel or order sums it. A strip comes from stacked
    products of _STRIP rows of a with the b frames their cells reach, a
    group of tiles of about CHUNK products at a time."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.shape, self.size = (len(a), len(b)), len(a) * len(b)
        sa, sb = a.any(axis=1) * 1.0, b.any(axis=1) * 1.0
        ha, hb = sa * np.einsum("ij,ij->i", a, a) / 2.0, sb * np.einsum("ij,ij->i", b, b) / 2.0
        # b's frame j is row j + 2*_STRIP - 2 of self._b; the zero rows around b
        # and after a keep every tile in range. self._frames[s] holds rows s.. of b
        zero = np.zeros((_STRIP - 1, 16))
        self._a = np.vstack((np.column_stack((a, ha, sa, sa, 1.0 - sa)), zero))
        self._b = np.vstack((zero, zero, np.column_stack((-b, sb, hb, 1.0 - sb, sb)), zero))
        self._frames = np.lib.stride_tricks.sliding_window_view(self._b, 2 * _STRIP - 1, axis=0)

    def diagonals(self, d0: int, lo: int, out: np.ndarray) -> None:
        """out[d - d0, i - lo] = the cost of cell (i, d - i), for the k <= _STRIP
        diagonals and the rows out spans, each a cell of the matrix or at most
        _STRIP - 1 columns off either end of its row."""
        k, rows = out.shape
        width = _STRIP + k - 1
        # tile t holds rows lo + t*_STRIP + u of a against the width frames of b
        # from d0 - lo - (t+1)*_STRIP + 1 on: diagonal d0 + k meets row u at
        # column k + _STRIP - 1 - u, flat index _STRIP - 1 + u*(width - 1) + k
        first = d0 - lo + _STRIP - 1  # tile 0's first row of self._b
        group = max(1, CHUNK // (_STRIP * width))
        for t0 in range(0, -(-rows // _STRIP), group):
            t1 = min(t0 + group, -(-rows // _STRIP))
            grid = (self._a[lo + t0 * _STRIP : lo + t1 * _STRIP].reshape(t1 - t0, _STRIP, 16)
                    @ self._frames[first - (t1 - 1) * _STRIP : first - t0 * _STRIP + 1 : _STRIP,
                                   :, :width][::-1])
            skew = grid.reshape(t1 - t0, -1)[:, _STRIP - 1 : _STRIP - 1 + _STRIP * (width - 1)]
            skew = skew.reshape(t1 - t0, _STRIP, width - 1)[:, :, :k]
            out[:, t0 * _STRIP : t1 * _STRIP] = skew.transpose(2, 0, 1).reshape(k, -1)[
                :, : rows - t0 * _STRIP]

    def at(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The costs of cells (i[k], j[k])."""
        return np.einsum("ij,ij->i", self._a[i], self._b[j + 2 * _STRIP - 2])


def dtw_from_costs(
    cost: np.ndarray | _ChromaCosts, band: int | None = None
) -> tuple[float, list[tuple[int, int]]]:
    """Minimal accumulated cost and path over a pairwise cost matrix or a
    ``_ChromaCosts``.

    Classic DTW with step set {(1,0), (0,1), (1,1)}; ties break toward the
    diagonal, then (1,0), then (0,1). ``band`` is an optional Sakoe-Chiba
    radius in frames around the stretched diagonal.
    """
    cost = cost if isinstance(cost, _ChromaCosts) else np.ascontiguousarray(cost, dtype=np.float64)
    if len(cost.shape) != 2 or cost.shape[0] == 0 or cost.shape[1] == 0:
        raise ValueError(f"cost must be a non-empty 2-D matrix, got {cost.shape}")
    if band is not None and band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    total, path = dtw(cost, band)
    if path is None:
        raise MetricError(f"no monotone path through the cost matrix (band {band} too narrow?)")
    return total, path


@dataclass(frozen=True)
class ChromaSimilarityResult:
    mean_cosine: float
    dtw_cost: float
    penalty_weight: float
    score: float
    path: list[tuple[int, int]]


def chroma_similarity(
    out_audio: np.ndarray | WavReader | ChromaMatrix,
    ref_audio: np.ndarray | WavReader | ChromaMatrix,
    band: int | None = None,
) -> ChromaSimilarityResult:
    """Mean cosine similarity along the DTW path, minus a cost penalty.

    score = mean_cosine - DEFAULT_PENALTY_WEIGHT * dtw_cost. Either input
    may be audio or its chromagram. Raises MetricError, naming the file if
    there is one, when either input is entirely silent (similarity
    undefined). A pair of the same object is computed once. The DTW holds
    checkpoints of its anti-diagonals, one block's window of them and a
    strip of distances; mean_cosine recomputes the path's cells CHUNK at a
    time.
    """
    def matrix(audio):
        return audio if isinstance(audio, ChromaMatrix) else chromagram(audio)

    ca = matrix(out_audio)
    cb = ca if ref_audio is out_audio else matrix(ref_audio)
    for c in (ca, cb):
        if c.is_silent:
            raise MetricError(_named(c, "chroma similarity undefined for all-silent audio"))
    costs = _ChromaCosts(ca.frames, cb.frames)
    cost, path = dtw_from_costs(costs, band=band)
    cosines = np.empty(len(path))
    for at in range(0, len(path), CHUNK):
        i, j = np.array(path[at : at + CHUNK]).T
        np.subtract(1.0, costs.at(i, j), out=cosines[at : at + CHUNK])
    mean_cosine = float(np.mean(cosines))
    return ChromaSimilarityResult(
        mean_cosine=mean_cosine,
        dtw_cost=cost,
        penalty_weight=DEFAULT_PENALTY_WEIGHT,
        score=mean_cosine - DEFAULT_PENALTY_WEIGHT * cost,
        path=path,
    )


# ---------------------------------------------------------------------------
# tempo


def _onset_envelope(x: np.ndarray | WavReader) -> np.ndarray:
    """Half-wave-rectified flux from each tempo frame to the next, at
    ANALYSIS_RATE / _TEMPO_HOP rows a second."""
    return _walk(x, chroma=False, onset=True)[1]


def _check_tempo_length(x) -> None:
    if len(x) < 5 * ANALYSIS_RATE:
        raise ValueError(_named(x, "tempo estimation needs at least 5 s of audio"))


def _autocorrelate(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    size = 2 ** int(np.ceil(np.log2(2 * n)))  # pad against circular wrap
    spec = np.fft.rfft(x, size)
    return np.fft.irfft((spec * np.conj(spec)).real)[:n]


def _parabolic_lag(acf: np.ndarray, lag: int) -> float:
    if lag <= 0 or lag >= acf.shape[0] - 1:
        return float(lag)
    y0, y1, y2 = acf[lag - 1], acf[lag], acf[lag + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0.0:  # not a proper maximum; keep the integer lag
        return float(lag)
    delta = 0.5 * (y0 - y2) / denom
    return lag + float(np.clip(delta, -0.5, 0.5))


def tempo_estimate(audio: np.ndarray | WavReader, *, envelope: np.ndarray | None = None) -> float:
    """Tempo in BPM from spectral-flux autocorrelation.

    The onset envelope is the half-wave-rectified frame-to-frame spectral
    flux; its autocorrelation is scanned for the strongest lag in the
    40-220 BPM band, refined by parabolic interpolation. A winner below
    70 BPM may be a subharmonic (the lag at 2x or 3x the true period can
    align better with the frame grid), so small integer divisors of its
    lag are tried and the fastest one scoring within 10% of the peak wins.
    ``envelope``, if given, is audio's onset envelope from
    ``chromagram(audio, onset=True)``, which is then not computed again.
    Errors about a WavReader's audio name its file.
    """
    x = _signal(audio)
    _check_tempo_length(x)
    fps = ANALYSIS_RATE / _TEMPO_HOP
    flux = _onset_envelope(x) if envelope is None else envelope
    flux = flux - flux.mean()
    if not np.any(flux):
        raise MetricError(_named(x, "no detectable periodicity: flat onset envelope"))
    acf = _autocorrelate(flux)
    lag_min = max(1, int(np.floor(fps * 60.0 / TEMPO_MAX_BPM)))
    lag_max = min(acf.shape[0] - 2, int(np.ceil(fps * 60.0 / TEMPO_MIN_BPM)))
    if lag_min > lag_max:
        raise MetricError(_named(x, "envelope too short for the tempo search band"))
    band = acf[lag_min : lag_max + 1]
    peak_lag = lag_min + int(np.argmax(band))
    peak_val = acf[peak_lag]
    if peak_val <= 0.0:
        raise MetricError(_named(x, "no detectable periodicity: flat onset envelope"))
    best = _parabolic_lag(acf, peak_lag)
    bpm = 60.0 * fps / best
    if bpm < _PREFERRED_LOW:
        # below 70 BPM best exceeds 73.8 frames (fps 44100/512), so the windows
        # of its divided lags lie over 6 frames apart and never overlap: the first
        # divisor, largest first, to score within 10% of the peak has the smallest lag
        for divisor in (4, 3, 2):
            center = int(round(best / divisor))
            # one frame of slack either side of the divided lag
            cands = [k for k in (center - 1, center, center + 1) if lag_min <= k <= lag_max]
            cand = max(cands, key=lambda k: acf[k], default=None)
            if cand is not None and acf[cand] >= 0.9 * peak_val:
                bpm = 60.0 * fps / _parabolic_lag(acf, cand)
                break
    return float(bpm)


def check_expected(score_bpm: float | None, prompt_ratio: float) -> None:
    """Refuse a prompt ratio outside the augmentation range, or a score
    tempo that is not positive and finite; None stands for a score tempo
    still to be estimated."""
    if not RATIO_FLOOR <= prompt_ratio <= RATIO_CEILING:
        raise ValueError(f"prompt_ratio {prompt_ratio} outside [{RATIO_FLOOR}, {RATIO_CEILING}]")
    if score_bpm is not None and not 0 < score_bpm < math.inf:
        raise ValueError(f"score_bpm must be positive and finite, got {score_bpm}")


def deviation_from_expected(
    estimated_bpm: float, score_bpm: float, prompt_ratio: float
) -> float:
    """|estimated - expected| / expected with expected = score / ratio."""
    check_expected(score_bpm, prompt_ratio)
    expected = score_bpm / prompt_ratio
    return abs(estimated_bpm - expected) / expected


def tempo_deviation(out_audio: np.ndarray, score: NoteSequence, prompt_ratio: float) -> float:
    """Relative tempo error of audio against the prompt-adjusted score."""
    if score.reference_bpm is None:
        raise MetricError(f"score {score.source_id!r} carries no tempo reference")
    estimated = tempo_estimate(out_audio)
    return deviation_from_expected(estimated, score.reference_bpm, prompt_ratio)


# ---------------------------------------------------------------------------
# Fréchet distance on embedding sets


@dataclass(frozen=True)
class EmbeddingSet:
    vectors: np.ndarray
    label: str = ""

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or 0 in vectors.shape:
            raise ValueError(f"vectors must be N x D, got shape {vectors.shape}")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("embedding vectors must be finite")
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def frechet_distance(a: EmbeddingSet, b: EmbeddingSet) -> float:
    """Fréchet distance between Gaussians fitted to two embedding sets.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^{1/2}), the matrix
    square root taken via eigendecomposition of S_a^{1/2} S_b S_a^{1/2}
    (symmetric, same spectrum as S_a S_b). Eigenvalues below -1e-8 are a
    numerical failure; small negatives are clipped to zero.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if min(len(a.vectors), len(b.vectors)) < 2:
        raise ValueError("need N >= 2 vectors to fit a covariance")
    mu_a = a.vectors.mean(axis=0)
    mu_b = b.vectors.mean(axis=0)
    cov_a = np.atleast_2d(np.cov(a.vectors, rowvar=False))
    cov_b = np.atleast_2d(np.cov(b.vectors, rowvar=False))
    ew_a, ev_a = np.linalg.eigh(cov_a)
    if ew_a.min() < -1e-8:
        raise MetricError(f"covariance of {a.label!r} is not positive semidefinite")
    sqrt_a = (ev_a * np.sqrt(np.clip(ew_a, 0.0, None))) @ ev_a.T
    inner = sqrt_a @ cov_b @ sqrt_a
    inner = (inner + inner.T) / 2.0
    ew = np.linalg.eigvalsh(inner)
    if ew.min() < -1e-8:
        raise MetricError("covariance product has a significantly negative eigenvalue")
    trace_sqrt = float(np.sqrt(np.clip(ew, 0.0, None)).sum())
    diff = mu_a - mu_b
    dist = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * trace_sqrt)
    if dist < -1e-6:
        raise MetricError(f"negative distance {dist}: numerical failure")
    return max(dist, 0.0)


def write_embeddings(path, embeddings: EmbeddingSet) -> None:
    """Serialize an embedding set: header (magic, D, N), then row-major f32."""
    n, d = embeddings.vectors.shape
    payload = _EMBEDDING_HEADER.pack(EMBEDDING_MAGIC, d, n)
    payload += np.ascontiguousarray(embeddings.vectors, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(payload)


def read_embeddings(path) -> EmbeddingSet:
    """Read a file written by ``write_embeddings``. A dimension above
    ``MAX_EMBEDDING_DIM`` is refused before the body is read. The set's
    label is the path."""
    with open(path, "rb") as fh:
        header = fh.read(_EMBEDDING_HEADER.size)
        if len(header) < _EMBEDDING_HEADER.size:
            raise ValueError(f"{path}: truncated embedding header")
        magic, d, n = _EMBEDDING_HEADER.unpack(header)
        if magic != EMBEDDING_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if d > MAX_EMBEDDING_DIM:
            raise ValueError(f"{path}: dimension {d} exceeds {MAX_EMBEDDING_DIM}")
        body = fh.read()
    if len(body) != 4 * n * d:
        raise ValueError(f"{path}: expected {4 * n * d} body bytes, got {len(body)}")
    vectors = np.frombuffer(body, dtype="<f4").reshape(n, d).astype(np.float64)
    return EmbeddingSet(vectors, label=str(path))
