"""WAV ingestion and emission.

ANALYSIS_RATE is the one audio rate: the synthesizer renders at it, WAV
files are written at it, and the metrics assume it.  Readers normalize
everything to mono float64 at that rate.  Multi-channel input is
averaged, integer PCM is scaled to [-1, 1), and other rates are resampled
with a polyphase filter.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.io import wavfile
from scipy.signal import resample_poly

ANALYSIS_RATE = 44100

_PCM_SCALE = {
    np.dtype(np.int16): 2.0**15,
    np.dtype(np.int32): 2.0**31,  # scipy widens 24-bit PCM to int32
}


def read_wav(path: str | os.PathLike) -> np.ndarray:
    """Read a WAV file as mono float64 at ANALYSIS_RATE."""
    rate, data = wavfile.read(path)
    if data.size == 0:
        raise ValueError(f"{path}: empty audio stream")
    if data.dtype in _PCM_SCALE:
        samples = data.astype(np.float64) / _PCM_SCALE[data.dtype]
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"{path}: unsupported sample format {data.dtype}")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if rate != ANALYSIS_RATE:
        g = math.gcd(ANALYSIS_RATE, int(rate))
        samples = resample_poly(samples, ANALYSIS_RATE // g, rate // g)
    return samples


def write_wav(path: str | os.PathLike, samples: np.ndarray) -> None:
    """Write mono samples as a 32-bit float WAV file at ANALYSIS_RATE."""
    wavfile.write(path, ANALYSIS_RATE, np.asarray(samples, dtype=np.float32))
