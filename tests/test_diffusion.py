"""VP schedule, v-objective, and guidance tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from encore.diffusion import (
    DEFAULT_CFG_SCALE,
    cfg_combine,
    latent_from_v,
    noise_from_v,
    noise_latent,
    v_target,
    vp_schedule,
)


def test_schedule_endpoints():
    start = vp_schedule(0.0)
    assert (start.alpha, start.sigma) == (1.0, 0.0)
    end = vp_schedule(1.0)
    assert end.alpha == pytest.approx(0.0, abs=1e-15)
    assert end.sigma == 1.0


def test_schedule_midpoint():
    mid = vp_schedule(0.5)
    assert mid.alpha == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert mid.sigma == pytest.approx(math.sqrt(2) / 2, abs=1e-15)


def test_schedule_variance_preserving_and_monotone():
    grid = np.linspace(0.0, 1.0, 10_001)
    points = [vp_schedule(float(t)) for t in grid]
    for p in points:
        assert abs(p.alpha**2 + p.sigma**2 - 1.0) <= 1e-12
    alphas = [p.alpha for p in points]
    sigmas = [p.sigma for p in points]
    assert all(a >= b for a, b in zip(alphas, alphas[1:]))
    assert all(a <= b for a, b in zip(sigmas, sigmas[1:]))


def test_schedule_domain():
    with pytest.raises(ValueError):
        vp_schedule(-0.01)
    with pytest.raises(ValueError):
        vp_schedule(1.01)


def test_v_target_endpoints():
    z = np.array([1.0, -2.0, 3.0])
    eps = np.array([0.5, 0.5, -0.5])
    assert np.array_equal(v_target(z, eps, vp_schedule(0.0)), eps)
    np.testing.assert_allclose(v_target(z, eps, vp_schedule(1.0)), -z, atol=1e-15)


def test_v_target_matches_noising_algebra():
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = float(rng.uniform(0.0, 1.0))
        p = vp_schedule(t)
        z = rng.normal(size=32)
        eps = rng.normal(size=32)
        v = v_target(z, eps, p)
        z_t = noise_latent(z, eps, p)
        np.testing.assert_allclose(latent_from_v(z_t, v, p), z, atol=1e-9)
        np.testing.assert_allclose(noise_from_v(z_t, v, p), eps, atol=1e-9)


@given(st.floats(0.0, 1.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_v_target_linear(t, a, b):
    p = vp_schedule(t)
    rng = np.random.default_rng(7)
    z1, z2 = rng.normal(size=(2, 8))
    e1, e2 = rng.normal(size=(2, 8))
    combined = v_target(a * z1 + b * z2, a * e1 + b * e2, p)
    separate = a * v_target(z1, e1, p) + b * v_target(z2, e2, p)
    np.testing.assert_allclose(combined, separate, atol=1e-9)


def test_shape_mismatch():
    p = vp_schedule(0.3)
    with pytest.raises(ValueError):
        v_target(np.zeros(3), np.zeros(4), p)
    with pytest.raises(ValueError):
        cfg_combine(np.zeros((2, 3)), np.zeros(6), 1.0)


def test_cfg_fixed_points():
    rng = np.random.default_rng(1)
    cond = rng.normal(size=16)
    uncond = rng.normal(size=16)
    assert np.array_equal(cfg_combine(cond, uncond, 1.0), cond)
    assert np.array_equal(cfg_combine(cond, uncond, 0.0), uncond)
    np.testing.assert_allclose(
        cfg_combine(cond, cond, DEFAULT_CFG_SCALE), cond, atol=1e-12
    )


def test_cfg_formula():
    cond = np.array([2.0, 4.0])
    uncond = np.array([1.0, 1.0])
    np.testing.assert_allclose(cfg_combine(cond, uncond, 7.0), [8.0, 22.0])
