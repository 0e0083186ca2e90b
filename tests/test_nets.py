"""Convex hull containment and hull coefficients."""

import math

import numpy as np
import pytest

from compresslearn import ValidationError, nets
from compresslearn.nets import hull_contains_ball, solve_hull_coefficients


def test_hull_contains_ball_on_cross_polytope():
    # conv(+-e_i) contains the l2 ball of radius 1/sqrt(2) in d=2
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    ok, cert = hull_contains_ball(pts, 1.0 / math.sqrt(2.0) - 1e-9)
    assert ok and cert is None
    ok2, cert2 = hull_contains_ball(pts, 0.9)
    assert not ok2
    # the certificate direction really is a violation of the support test
    assert (cert2 @ pts.T).max() < 0.9


def test_hull_contains_ball_fails_for_one_sided_cloud():
    rng = np.random.default_rng(2)
    pts = np.abs(rng.standard_normal((100, 3)))  # positive orthant only
    ok, _ = hull_contains_ball(pts, 0.05)
    assert not ok


def test_hull_contains_ball_rejects_high_dim():
    with pytest.raises(ValidationError):
        hull_contains_ball(np.zeros((4, 9)), 0.1)


def test_solve_hull_coefficients_recovers_combination():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((40, 3))
    theta_true = rng.uniform(-1.0, 1.0, size=40) * 0.5
    target = theta_true @ pts
    theta = solve_hull_coefficients(pts, target)
    assert theta is not None
    assert np.max(np.abs(theta)) <= 1.0 + 1e-9
    np.testing.assert_allclose(theta @ pts, target, atol=1e-7)


def test_solve_hull_coefficients_returns_none_when_unreachable():
    pts = np.array([[1.0, 0.0], [0.9, 0.1]])
    target = np.array([0.0, 5.0])
    assert solve_hull_coefficients(pts, target) is None


def test_gaussian_cloud_hull_contains_small_ball():
    rng = np.random.default_rng(4)
    d = 3
    m = math.ceil(40.0 * d * (1.0 + math.log(d)))
    pts = rng.standard_normal((m, d)) / math.sqrt(2.0)
    pts = pts[np.linalg.norm(pts, axis=1) <= 4.0 * math.sqrt(d)]
    ok, cert = hull_contains_ball(pts, 1.0 / 20.0)
    assert ok and cert is None


def test_solve_hull_coefficients_returns_zeros_for_a_zero_target():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    theta = solve_hull_coefficients(pts, np.zeros(2))
    assert theta.tolist() == [0.0, 0.0, 0.0]


def test_solve_hull_coefficients_bounds_a_least_squares_solution_above_one(
        monkeypatch):
    # the minimum-norm solution 1.05 * [1, 0.1] / 1.01 is above 1 in its
    # first entry; solutions inside the unit box exist
    pts = np.array([[1.0], [0.1]])
    target = np.array([1.05])
    theta0 = np.linalg.lstsq(pts.T, target, rcond=None)[0]
    assert np.max(np.abs(theta0)) > 1.0
    # without bisection the box-bounded solve is the answer
    for iters in (0, nets._BISECT_ITERS):
        monkeypatch.setattr(nets, "_BISECT_ITERS", iters)
        theta = solve_hull_coefficients(pts, target)
        assert np.max(np.abs(theta)) <= 1.0
        np.testing.assert_allclose(theta @ pts, target, atol=1e-8)
