"""Metric, point, and grid sanity checks."""
import math

import numpy as np
import pytest

from translocal.errors import BudgetExceededError, SpaceMismatchError
from translocal.spaces import (BETA, Ball, circle, circle_dist, distance,
                               interval, sample_grid, torus, word)


def test_circle_point_wraps():
    assert circle(1.25).coords[0] == pytest.approx(0.25)
    assert circle(-0.1).coords[0] == pytest.approx(0.9)


def test_circle_dist_shortest_arc():
    assert circle_dist(0.1, 0.9) == pytest.approx(0.2)
    assert circle_dist(0.0, 0.5) == pytest.approx(0.5)


def test_interval_rejects_outside():
    with pytest.raises(ValueError):
        interval(1.5)


def test_metric_axioms_random_points():
    rng = np.random.default_rng(7)
    pts = [circle(v) for v in rng.random(24)]
    for a in pts[:8]:
        assert distance(a, a) == 0.0
    for a, b, c in zip(pts, pts[8:], pts[16:]):
        dab = distance(a, b)
        assert dab == pytest.approx(distance(b, a))
        assert dab <= distance(a, c) + distance(c, b) + 1e-12


def test_torus_distance_is_sup_of_coords():
    d = distance(torus(0.1, 0.2), torus(0.2, 0.9))
    assert d == pytest.approx(0.3)


def test_symbolic_distance_decays_at_first_disagreement():
    a = word([1, 0, 1, 1])
    b = word([1, 0, 0, 1])
    assert distance(a, b) == pytest.approx(BETA ** -2)
    assert distance(a, a) == 0.0


def test_space_mismatch_raises():
    with pytest.raises(SpaceMismatchError):
        distance(circle(0.1), interval(0.1))


def test_ball_membership_closed_vs_open():
    ball_closed = Ball(circle(0.5), 0.125)
    ball_open = Ball(circle(0.5), 0.125, closed=False)
    boundary = circle(0.625)
    assert ball_closed.contains(boundary)
    assert not ball_open.contains(boundary)


def test_sample_grid_circle_arc_is_sorted_and_inside():
    ball = Ball(circle(0.5), 0.1)
    grid = sample_grid(ball, 0.01)
    assert grid.sorted_1d
    xs = grid.coords[:, 0]
    assert np.all(np.diff(xs) > 0)
    for x in xs[::7]:
        assert ball.contains(circle(float(x)))


def test_sample_grid_respects_cap():
    ball = Ball(circle(0.5), 0.4)
    with pytest.raises(BudgetExceededError):
        sample_grid(ball, 1e-6, cap=1000)


def test_torus_grid_is_mesh():
    ball = Ball(torus(0.5, 0.5), 0.05)
    grid = sample_grid(ball, 0.01)
    assert grid.coords.shape[1] == 2
    assert len(grid) > 50
