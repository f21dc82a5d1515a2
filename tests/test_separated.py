"""Separated-set counting kernels and their cross-checks."""
import math

import numpy as np
import pytest

from translocal import separated
from translocal.maps import get_system, iterate_system
from translocal.separated import (SeparationQuery, bowen_distance,
                                  exact_variation, pairwise_count,
                                  separated_count, symbolic_word_count,
                                  variation_count)
from translocal.spaces import Ball, circle, disk, sample_grid, word


def test_bowen_distance_expands_with_n():
    sys = get_system("tripling")
    a, b = circle(0.2), circle(0.2 + 1e-4)
    for n in (1, 3, 5):
        assert bowen_distance(sys, a, b, n) == pytest.approx(
            1e-4 * 3.0 ** (n - 1), rel=1e-6)


def test_bowen_distance_on_disk_is_planar():
    # two points either side of angle 0 at radius 0.5 are 0.01 apart in the
    # plane, not 2*pi - 0.02 apart in (radius, angle) coordinates
    a, b = disk(0.5, 0.01), disk(0.5, 2.0 * math.pi - 0.01)
    d = bowen_distance(get_system("disk"), a, b, 1)
    assert d == pytest.approx(2.0 * 0.5 * math.sin(0.01), rel=1e-9)


def test_exact_variation_full_circle_powers():
    sys = get_system("tripling")
    for n in (2, 4, 6):
        assert exact_variation(sys, 0.0, 1.0, n) == pytest.approx(
            3.0 ** (n - 1), rel=1e-9)


def test_exact_variation_partial_interval():
    sys = get_system("tripling")
    # [0, 1/3] maps onto the circle once per remaining iterate
    assert exact_variation(sys, 0.0, 1.0 / 3.0, 3) == pytest.approx(
        3.0, rel=1e-9)


def test_variation_count_matches_closed_form():
    sys = get_system("tripling")
    xs = np.linspace(0.0, 1.0, 20000, endpoint=False).reshape(-1, 1)
    for n, eps in ((4, 0.05), (5, 0.02)):
        count, _, share = variation_count(sys, xs, n, eps)
        expect = int(3.0 ** (n - 1) / eps)
        assert abs(count - expect) <= 1
        assert share < 0.02


def test_scan_agrees_with_pairwise_on_fine_grids():
    rng = np.random.default_rng(5)
    for sys_id in ("tripling", "g3branch"):
        sys = get_system(sys_id)
        c = float(rng.random())
        ball = Ball(circle(c), 0.02)
        grid = sample_grid(ball, 2e-6)
        for n, eps in ((3, 0.05), (4, 0.1)):
            fast, _, _ = variation_count(sys, grid.coords, n, eps)
            slow, _ = pairwise_count(
                sys, grid.coords[:: max(len(grid) // 1500, 1)], n, eps)
            assert abs(fast - slow) <= max(1, 0.05 * slow)


def test_strict_count_not_above_nonstrict():
    sys = get_system("tripling")
    xs = np.linspace(0.2, 0.4, 5000).reshape(-1, 1)
    strict, _, _ = variation_count(sys, xs, 4, 0.05, strict=True)
    loose, _, _ = variation_count(sys, xs, 4, 0.05, strict=False)
    assert strict <= loose


def test_separated_count_dispatch_symbolic():
    sys = get_system("fullshift:2")
    words = [word([(k >> i) & 1 for i in range(6)]) for k in range(64)]
    q = SeparationQuery(sys, words, n=3, eps=0.9)
    res = separated_count(q)
    assert res.method == "exact-symbolic"
    # eps just below 1: separation needs a disagreement inside the first
    # n symbols, so the count is the number of distinct length-3 prefixes
    assert res.count == 8


def test_symbolic_word_count_full_shift():
    assert symbolic_word_count("fullshift:2", 8) == 256
    assert symbolic_word_count("fullshift:3", 4) == 81


def test_resolution_warning_on_coarse_grid():
    sys = get_system("tripling")
    grid = sample_grid(Ball(circle(0.5), 0.1), 0.01)
    res = separated_count(SeparationQuery(sys, grid, n=6, eps=0.01))
    assert res.warning is not None and "resolution" in res.warning


def test_query_validation():
    sys = get_system("tripling")
    grid = sample_grid(Ball(circle(0.5), 0.1), 0.01)
    with pytest.raises(ValueError):
        SeparationQuery(sys, grid, n=0, eps=0.1)
    with pytest.raises(ValueError):
        SeparationQuery(sys, grid, n=3, eps=0.0)


def test_wraparound_detection():
    sys = get_system("tripling")
    full = np.linspace(0.0, 1.0, 1000, endpoint=False).reshape(-1, 1)
    arc = np.linspace(0.2, 0.4, 1000).reshape(-1, 1)
    assert separated._covers_circle(sys, full)
    assert not separated._covers_circle(sys, arc)


def test_nested_iterate_variation_matches_flat_iterate():
    tripling = get_system("tripling")
    nested = iterate_system(iterate_system(tripling, 2), 3)
    flat = iterate_system(tripling, 6)
    for lo, hi in ((0.0, 1.0), (0.1, 0.35), (0.6, 0.61)):
        for n in (1, 2, 3):
            assert exact_variation(nested, lo, hi, n) \
                == exact_variation(flat, lo, hi, n)
