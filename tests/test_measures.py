"""Reference measures, ball masses, and local decay rates."""
import dataclasses
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import translocal
from translocal import measures, separated
from translocal.entropy import DEFAULT_SCHEDULE, Schedule
from translocal.maps import (ZERO_POTENTIAL, birkhoff_sum, catalogue_ids,
                             get_potential, get_system, iterate_system)
from translocal.measures import (_halton, ball_measure, bowen_ball_measure,
                                 brin_katok, certified_invariant, get_measure,
                                 local_pressure, qmc_ball_measure,
                                 translocal_local_pressure)
from translocal.spaces import Ball, circle, torus, word

LOG3 = math.log(3.0)


def test_lebesgue_circle_ball_mass():
    mu = get_measure("lebesgue-circle")
    assert ball_measure(mu, Ball(circle(0.3), 0.1)) == pytest.approx(0.2)
    assert ball_measure(mu, Ball(circle(0.3), 0.7)) == 1.0


def test_lebesgue_torus_ball_mass():
    mu = get_measure("lebesgue-torus")
    assert ball_measure(mu, Ball(torus(0.5, 0.5), 0.1)) == pytest.approx(0.04)


def test_bernoulli_cylinder_mass():
    mu = get_measure("bernoulli:0.5,0.5")
    w = word([1, 0, 1, 1, 0, 0, 1, 0])
    # radius e^-3 pins ceil(3) symbols
    mass = ball_measure(mu, Ball(w, math.exp(-3.0)))
    assert mass == pytest.approx(0.5 ** 3)


def test_dirac_ball_membership():
    mu = get_measure("dirac:circle:0.25")
    assert ball_measure(mu, Ball(circle(0.3), 0.1)) == 1.0
    assert ball_measure(mu, Ball(circle(0.6), 0.1)) == 0.0


def test_qmc_agrees_with_closed_form():
    mu = get_measure("lebesgue-circle")
    frac, stderr = qmc_ball_measure(mu, Ball(circle(0.4), 0.1))
    assert frac == pytest.approx(0.2, abs=max(4 * stderr, 0.004))


def test_qmc_ball_measure_pinned_value():
    # the value scipy's qmc.Halton(d=1, scramble=False) points gave
    mu = get_measure("lebesgue-circle")
    assert repr(qmc_ball_measure(mu, Ball(circle(0.4), 0.1))) \
        == "(0.20001220703125, 0.0031250715233000458)"


def test_halton_columns_are_radical_inverses():
    pts = _halton(5, 2)
    assert pts[:, 0].tolist() == [0.0, 1 / 2, 1 / 4, 3 / 4, 1 / 8]
    assert pts[:, 1].tolist() == pytest.approx(
        [0.0, 1 / 3, 2 / 3, 1 / 9, 4 / 9], abs=1e-15)


@pytest.mark.parametrize("d", [0, 7])
def test_halton_rejects_dimensions_outside_its_prime_table(d):
    with pytest.raises(ValueError):
        _halton(4, d)


def test_cli_import_loads_no_scipy():
    code = ("import sys, translocal.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    src = Path(translocal.__file__).resolve().parent.parent
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env=dict(os.environ, PYTHONPATH=str(src)))


def test_invariance_certificates():
    leb = get_measure("lebesgue-circle")
    assert certified_invariant(get_system("tripling"), leb)
    assert certified_invariant(get_system("g3branch"), leb)
    assert not certified_invariant(get_system("sqrtmap"), leb)
    assert certified_invariant(get_system("fullshift:2"),
                               get_measure("bernoulli:0.5,0.5"))
    assert certified_invariant(get_system("tripling"),
                               get_measure("dirac:circle:0"))
    assert not certified_invariant(get_system("tripling"),
                                   get_measure("dirac:circle:0.3"))


def test_nested_iterate_keeps_lebesgue_invariance():
    nested = iterate_system(iterate_system(get_system("tripling"), 2), 3)
    assert certified_invariant(nested, get_measure("lebesgue-circle"))
    sqrt2 = iterate_system(get_system("sqrtmap"), 2)
    assert not certified_invariant(sqrt2, get_measure("lebesgue-circle"))


def test_lebesgue_invariance_of_whitelisted_maps():
    # pushforward check: mass of f^{-1}[a, b] equals b - a
    rng = np.random.default_rng(19)
    xs = rng.random(200_000).reshape(-1, 1)
    catalogue = [get_system(sys_id) for sys_id in catalogue_ids()
                 if "<" not in sys_id]
    flagged = [sys for sys in catalogue if sys.lebesgue_circle_invariant]
    assert {sys.name for sys in flagged} >= {"tripling", "g3branch"}
    for sys_id in ("sqrtmap", "pomeau-manneville", "staircase"):
        assert not get_system(sys_id).lebesgue_circle_invariant
    for sys in flagged:
        ys = sys.step_many(xs)[:, 0]
        for a, b in ((0.1, 0.35), (0.6, 0.9)):
            frac = float(((ys >= a) & (ys < b)).mean())
            assert frac == pytest.approx(b - a, abs=0.01)


def test_bowen_ball_measure_tripling_exact():
    sys = get_system("tripling")
    mu = get_measure("lebesgue-circle")
    n, eps = 8, 0.01
    mass = bowen_ball_measure(sys, mu, circle(0.3), n, eps)
    assert mass == pytest.approx(2 * eps * 3.0 ** -(n - 1), rel=1e-5)


def _ref_one_sided_extent(sys, x, n, eps, sign):
    """The sequential bisection: one Bowen-distance probe per halving."""
    c = x.coords[0]
    lo, hi = 0.0, eps

    def dist(t):
        return separated.bowen_distance(sys, x, circle((c + sign * t) % 1.0),
                                        n)

    if dist(hi) < eps:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dist(mid) < eps:
            lo = mid
        else:
            hi = mid
    return lo


@functools.lru_cache(maxsize=None)
def _ref_bowen_ball_measure(sys, mu, x, n, eps):
    if n == 1:
        return ball_measure(mu, Ball(x, eps, closed=False))
    left = _ref_one_sided_extent(sys, x, n, eps, -1.0)
    right = _ref_one_sided_extent(sys, x, n, eps, +1.0)
    return min(left + right, 1.0)


def _ref_local_pressure(sys, mu, pot, x, sched=DEFAULT_SCHEDULE):
    eps = sched.epsilons[-1]
    series = [(n, birkhoff_sum(pot, sys, x, n)
               - math.log(_ref_bowen_ball_measure(sys, mu, x, n, eps)))
              for n in sched.n_values]
    ests = measures._rate_pair(series, eps)
    return measures._pair(ests, x, pot.kind, None)


@pytest.mark.parametrize("sys_id", ["tripling", "g3branch", "identity",
                                    "iterate:tripling:2",
                                    "iterate:g3branch:2"])
def test_bowen_ball_measure_equals_the_sequential_bisection(sys_id):
    # eps = 0.6 exceeds every circle distance: the early return at t = eps
    sys, mu = get_system(sys_id), get_measure("lebesgue-circle")
    x = circle(0.123456789)
    for eps in (0.01, 0.05, 0.2, 0.6):
        for n in range(1, 15):
            assert bowen_ball_measure(sys, mu, x, n, eps) \
                == _ref_bowen_ball_measure(sys, mu, x, n, eps), (eps, n)


@pytest.mark.parametrize("sys_id", ["tripling", "g3branch"])
def test_local_pressure_equals_the_sequential_bisection(sys_id):
    sys, mu = get_system(sys_id), get_measure("lebesgue-circle")
    x = circle(0.71)
    assert brin_katok(sys, mu, x) \
        == _ref_local_pressure(sys, mu, ZERO_POTENTIAL, x)
    pot = get_potential("geometric:1")
    assert local_pressure(sys, mu, pot, x) \
        == _ref_local_pressure(sys, mu, pot, x)


def test_brin_katok_steps_each_bisection_round_once():
    # at the last eps only: x's orbit, the probes at t = eps, and ten rounds
    # of six levels
    base = get_system("tripling")
    calls = []

    def step_many(coords):
        calls.append(len(coords))
        return base.step_many(coords)

    sys = dataclasses.replace(base, step_many=step_many)
    brin_katok(sys, get_measure("lebesgue-circle"), circle(0.3))
    sched = DEFAULT_SCHEDULE
    assert 0 < len(calls) <= 12 * (max(sched.n_values) - 1)


def test_bowen_ball_measure_bernoulli_cylinder():
    sys = get_system("fullshift:2")
    mu = get_measure("bernoulli:0.5,0.5")
    w = word([0] * 40)
    n, eps = 6, 0.5
    # pinned depth is (n - 1) + ceil(ln(1/eps)) symbols
    depth = (n - 1) + math.ceil(math.log(1 / eps))
    assert bowen_ball_measure(sys, mu, w, n, eps) == pytest.approx(
        0.5 ** depth)


def test_brin_katok_tripling():
    sys = get_system("tripling")
    mu = get_measure("lebesgue-circle")
    up, lo = brin_katok(sys, mu, circle(0.3))
    assert up.value == pytest.approx(LOG3, rel=0.02)
    assert lo.value == pytest.approx(LOG3, rel=0.02)


def test_local_pressure_adds_constant_potential():
    sys = get_system("tripling")
    mu = get_measure("lebesgue-circle")
    pot = get_potential("constant:0.4")
    up0, _ = local_pressure(sys, mu, ZERO_POTENTIAL, circle(0.3))
    up, _ = local_pressure(sys, mu, pot, circle(0.3))
    assert up.value - up0.value == pytest.approx(0.4, abs=0.02)


def test_translocal_local_pressure_matches_arc_length():
    sys = get_system("tripling")
    mu = get_measure("lebesgue-circle")
    up, lo = translocal_local_pressure(sys, mu, ZERO_POTENTIAL,
                                       circle(0.3), 0.7)
    assert up.value == pytest.approx(0.7, abs=0.02)
    assert lo.value == pytest.approx(0.7, abs=0.02)


def test_uncertified_pair_rejected():
    sys = get_system("sqrtmap")
    mu = get_measure("lebesgue-circle")
    with pytest.raises(ValueError):
        brin_katok(sys, mu, circle(0.3))
