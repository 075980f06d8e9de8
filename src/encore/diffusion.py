"""Reference math for the trainer: VP schedule, v-objective, guidance.

Pure functions only; no sampler or network lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_CFG_SCALE = 7.0


@dataclass(frozen=True)
class VpSchedulePoint:
    """One point of the variance-preserving schedule: alpha^2 + sigma^2 = 1."""

    t: float
    alpha: float
    sigma: float


def vp_schedule(t: float) -> VpSchedulePoint:
    """Cosine VP parameterization: alpha = cos(t*pi/2), sigma = sin(t*pi/2)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    angle = t * math.pi / 2
    return VpSchedulePoint(t=float(t), alpha=math.cos(angle), sigma=math.sin(angle))


def _as_pair(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def noise_latent(z, eps, p: VpSchedulePoint) -> np.ndarray:
    """Forward noising: z_t = alpha*z + sigma*eps."""
    z, eps = _as_pair(z, eps)
    return p.alpha * z + p.sigma * eps


def v_target(z, eps, p: VpSchedulePoint) -> np.ndarray:
    """Velocity objective: v = alpha*eps - sigma*z."""
    z, eps = _as_pair(z, eps)
    return p.alpha * eps - p.sigma * z


def latent_from_v(z_t, v, p: VpSchedulePoint) -> np.ndarray:
    """Invert the v-parameterization for the clean latent: z = alpha*z_t - sigma*v."""
    z_t, v = _as_pair(z_t, v)
    return p.alpha * z_t - p.sigma * v


def noise_from_v(z_t, v, p: VpSchedulePoint) -> np.ndarray:
    """Invert the v-parameterization for the noise: eps = sigma*z_t + alpha*v."""
    z_t, v = _as_pair(z_t, v)
    return p.sigma * z_t + p.alpha * v


def cfg_combine(cond, uncond, scale: float) -> np.ndarray:
    """Classifier-free guidance: uncond + scale * (cond - uncond).

    Evaluated as (1 - scale)*uncond + scale*cond so the scale-0 and scale-1
    fixed points hold exactly in floating point.
    """
    cond, uncond = _as_pair(cond, uncond)
    return (1.0 - scale) * uncond + scale * cond
