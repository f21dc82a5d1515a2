"""Reference measures, ball masses, and local decay rates."""
import dataclasses
import functools
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import translocal
from translocal import measures
from translocal.entropy import DEFAULT_SCHEDULE
from translocal.maps import (ZERO_POTENTIAL, birkhoff_sum, catalogue_ids,
                             full_branch_slopes, get_potential, get_system,
                             iterate_system)
from translocal.measures import (ball_measure, bowen_ball_measure,
                                 brin_katok, certified_invariant, get_measure,
                                 local_pressure, translocal_local_pressure)
from translocal.spaces import Ball, circle, interval, torus, word

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


def test_cli_import_loads_no_scipy():
    code = ("import sys, translocal.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    src = Path(translocal.__file__).resolve().parent.parent
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env=dict(os.environ, PYTHONPATH=str(src)))


# Calls whose paths make no array call, each checked in one fresh process
# right after it runs: none of them may load numpy.
NUMPY_FREE_CALLS = (
    "import translocal.cli",
    "entropy.translocal_entropy(get_system('tripling'), circle(0.3), 0.5)",
    "entropy.yz_entropy_function(get_system('staircase'), interval(0.3))",
    "entropy.restricted_entropy(get_system('iterate:tripling:2'), "
    "Ball(circle(0.0), 0.5))",
    "measures.brin_katok(get_system('tripling'), leb, circle(0.3))",
    "measures.local_pressure(get_system('tripling'), leb, "
    "get_potential('geometric:1'), circle(0.3))",
    "symbolic.kraft_entropy([1, 2])",
    "symbolic.coded_language_count("
    "symbolic.get_family('codedshift:linear:1,0'), 12)",
    "pressure.critical_exponent(get_system('g3branch'), "
    "pressure.whole_circle(), get_potential('zero'), r=0.05)",
)


def _numpy_loaded_after(calls) -> list:
    """For each call, run in order in one fresh interpreter, whether numpy
    was loaded once it returned."""
    code = "\n".join([
        "import sys",
        "import translocal.cli",
        "from translocal import entropy, measures, pressure, symbolic",
        "from translocal.maps import get_potential, get_system",
        "from translocal.spaces import Ball, circle, interval",
        "leb = measures.get_measure('lebesgue-circle')",
        "for call in sys.argv[1:]:",
        "    exec(call)",
        "    print('numpy' in sys.modules)",
    ])
    src = Path(translocal.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code, *calls], check=True,
                         timeout=60, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    return [line == "True" for line in out.stdout.split()]


def test_scalar_paths_load_no_numpy():
    loaded = _numpy_loaded_after(NUMPY_FREE_CALLS)
    assert dict(zip(NUMPY_FREE_CALLS, loaded)) \
        == dict.fromkeys(NUMPY_FREE_CALLS, False)


def test_a_torus_map_loads_numpy():
    assert _numpy_loaded_after(["get_system('cat')"]) == [True]


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
    flagged = [sys for sys in catalogue if full_branch_slopes(sys)]
    assert {sys.name for sys in flagged} >= {"tripling", "g3branch"}
    for sys_id in ("sqrtmap", "pomeau-manneville", "staircase"):
        assert full_branch_slopes(get_system(sys_id)) is None
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


# (lo, slope) of each full affine branch, in exact arithmetic, and the power
# of each system.  The float orbits of g3branch and identity are exact, as
# their slopes and branch ends are dyadic; on a uniform slope the ball does
# not depend on the orbit.
EXACT_BRANCHES = {"tripling": ((F(0), 3), (F(1, 3), 3), (F(2, 3), 3)),
                  "g3branch": ((F(0), 2), (F(1, 2), 4), (F(3, 4), 4)),
                  "identity": ((F(0), 1),)}
EXACT_CASES = {"tripling": ("tripling", 1), "g3branch": ("g3branch", 1),
               "identity": ("identity", 1),
               "iterate:tripling:2": ("tripling", 2),
               "iterate:g3branch:2": ("g3branch", 2)}
EXACT_X = 0.123456789


def _exact_step(root, y):
    lo, slope = [b for b in EXACT_BRANCHES[root] if b[0] <= y][-1]
    return slope * (y - lo) % 1


def _exact_orbit(sys_id, y, n):
    """[f^j y for j < n] in exact arithmetic."""
    root, power = EXACT_CASES[sys_id]
    out = [y]
    for _ in range((n - 1) * power):
        out.append(_exact_step(root, out[-1]))
    return out[::power]


@functools.lru_cache(maxsize=None)
def _exact_bowen_mass(sys_id, n, eps):
    """Arc length of the Bowen ball around EXACT_X, each side by an 80-step
    sequential bisection for the largest t with d_n(x, x +- t) < eps, in
    exact arithmetic."""
    x, eps = F(EXACT_X), F(eps)
    ref = _exact_orbit(sys_id, x, n)

    def below(t):
        for a, b in zip(ref, _exact_orbit(sys_id, (x + t) % 1, n)):
            d = abs(a - b)
            if min(d, 1 - d) >= eps:
                return False
        return True

    total = F(0)
    for sign in (-1, 1):
        lo, hi = F(0), eps
        if below(sign * eps):
            lo = eps
        else:
            for _ in range(80):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if below(sign * mid) else (lo, mid)
        total += lo
    return float(total)


def _exact_local_pressure(sys_id, pot, sched=DEFAULT_SCHEDULE):
    eps = sched.epsilons[-1]
    sys, x = get_system(sys_id), circle(EXACT_X)
    series = [(n, birkhoff_sum(pot, sys, x, n)
               - math.log(_exact_bowen_mass(sys_id, n, eps)))
              for n in sched.n_values]
    return measures._rate_pair(series, eps)


@pytest.mark.parametrize("sys_id", list(EXACT_CASES))
def test_bowen_ball_measure_equals_the_sequential_bisection(sys_id):
    sys, mu = get_system(sys_id), get_measure("lebesgue-circle")
    for eps in (0.01, 0.05):
        for n in range(1, 15):
            assert bowen_ball_measure(sys, mu, circle(EXACT_X), n, eps) \
                == pytest.approx(_exact_bowen_mass(sys_id, n, eps),
                                 rel=1e-9, abs=0), (eps, n)


@pytest.mark.parametrize("sys_id", list(EXACT_CASES))
def test_local_pressure_equals_the_sequential_bisection(sys_id):
    sys, mu = get_system(sys_id), get_measure("lebesgue-circle")
    x = circle(EXACT_X)
    for pot in (ZERO_POTENTIAL, get_potential("geometric:1")):
        got = [est.value for est in local_pressure(sys, mu, pot, x)]
        want = [est.value for est in _exact_local_pressure(sys_id, pot)]
        assert got == pytest.approx(want, abs=1e-9, rel=0)
    assert brin_katok(sys, mu, x) == local_pressure(sys, mu, ZERO_POTENTIAL,
                                                    x)


@pytest.mark.parametrize("sys_id,eps", [("tripling", 0.26),
                                        ("g3branch", 0.21),
                                        ("iterate:tripling:2", 0.2)])
def test_bowen_ball_with_several_arcs_is_refused(sys_id, eps):
    # above eps = 1/(s + 1) a Bowen ball can be a union of arcs
    sys, mu = get_system(sys_id), get_measure("lebesgue-circle")
    with pytest.raises(ValueError, match=r"1/\(s \+ 1\)"):
        bowen_ball_measure(sys, mu, circle(0.6962), 3, eps)


@pytest.mark.parametrize("sys_id", ["tripling", "g3branch",
                                    "iterate:tripling:2"])
def test_bowen_ball_from_half_the_circle_on_is_the_circle(sys_id):
    sys, mu = get_system(sys_id), get_measure("lebesgue-circle")
    for eps in (0.5, 0.6):
        for n in range(2, 8):
            assert bowen_ball_measure(sys, mu, circle(0.6962), n, eps) == 1.0


def test_brin_katok_steps_the_orbit_of_x_only():
    # the pullback steps x's orbit once; no other point is stepped
    base = get_system("tripling")
    calls = []

    def step(c):
        calls.append(c)
        return base.step(c)

    sys = dataclasses.replace(base)
    object.__setattr__(sys, "step", step)
    brin_katok(sys, get_measure("lebesgue-circle"), circle(0.3))
    assert len(calls) == max(DEFAULT_SCHEDULE.n_values) - 1


def test_bowen_ball_measure_bernoulli_cylinder():
    sys = get_system("fullshift:2")
    mu = get_measure("bernoulli:0.5,0.5")
    w = word([0] * 40)
    n, eps = 6, 0.5
    # pinned depth is (n - 1) + ceil(ln(1/eps)) symbols
    depth = (n - 1) + math.ceil(math.log(1 / eps))
    assert bowen_ball_measure(sys, mu, w, n, eps) == pytest.approx(
        0.5 ** depth)


# (radius, symbols pinned by the closed ball, by the open ball) under the
# default base beta = e: a radius of exactly e^-m pins m symbols when closed
# and m + 1 when open, a radius strictly between e^-m and e^-(m-1) pins m
PINNED = [(1.0, 0, 1), (1.5, 0, 0), (math.e ** -1, 1, 2), (0.5, 1, 1),
          (math.e ** -3, 3, 4), (1.7 * math.e ** -3, 3, 3),
          (math.e ** -5, 5, 6), (0.9 * math.e ** -5, 6, 6),
          (math.e ** -20, 12, 12)]


@pytest.mark.parametrize("radius,closed_pins,open_pins", PINNED)
def test_bernoulli_masses_are_the_pinned_weights(radius, closed_pins,
                                                 open_pins):
    p = (0.2, 0.3, 0.5)
    sys, mu = get_system("fullshift:3"), get_measure("bernoulli:0.2,0.3,0.5")
    symbols = [2, 0, 1, 1, 2, 0, 0, 2, 1, 0, 2, 1]
    x = word(symbols)

    def weights(m):
        return math.prod(p[s] for s in symbols[:m])

    assert ball_measure(mu, Ball(x, radius)) == weights(closed_pins)
    assert ball_measure(mu, Ball(x, radius, closed=False)) \
        == weights(open_pins)
    # the Bowen ball of radius eps pins n - 1 more symbols than the open ball
    for n in (1, 2, 5, 9):
        assert bowen_ball_measure(sys, mu, x, n, radius) \
            == weights(min(n - 1 + open_pins, len(symbols)))


def _ref_toral_bowen_measure(sys, n, eps):
    """The box volume from every eigenvalue of `np.linalg.eigvals`."""
    vol = 1.0
    for lam in np.linalg.eigvals(np.asarray(sys.matrix, dtype=float)):
        mod = abs(lam)
        factor = mod ** (n - 1) if mod > 1.0 else 1.0
        vol *= min(2.0 * eps / factor, 1.0)
    return float(vol)


@pytest.mark.parametrize("sys_id", ["cat", "toral:2,0;0,3", "iterate:cat:2"])
def test_toral_bowen_measure_equals_the_eigvals_volume(sys_id):
    sys, mu = get_system(sys_id), get_measure("lebesgue-torus")
    x = torus(0.1, 0.2)
    for eps in (0.01, 0.05, 0.3, 0.6):
        for n in range(2, 12):
            assert repr(bowen_ball_measure(sys, mu, x, n, eps)) \
                == repr(_ref_toral_bowen_measure(sys, n, eps)), (eps, n)


@pytest.mark.parametrize("sys_id,measure_id,x", [
    ("pomeau-manneville", "lebesgue-circle", interval(0.3)),
    ("cat", "lebesgue-circle", torus(0.1, 0.2)),
    ("tripling", "lebesgue-torus", circle(0.3))])
def test_bowen_ball_measure_without_a_backend_is_rejected(sys_id, measure_id,
                                                          x):
    with pytest.raises(ValueError):
        bowen_ball_measure(get_system(sys_id), get_measure(measure_id), x, 3,
                           0.01)


# one case per Bowen-mass backend: the Dirac mass at the fixed point 1/2,
# a Bernoulli cylinder capped by the word's length, a Lebesgue arc and a
# toral box
BACKEND_CASES = [
    ("tripling", "dirac:circle:0.5", circle(0.5001)),
    ("fullshift:3", "bernoulli:0.2,0.3,0.5", word([2, 0, 1, 1, 0, 2, 2, 1])),
    ("g3branch", "lebesgue-circle", circle(0.3141)),
    ("cat", "lebesgue-torus", torus(0.1, 0.2))]


@pytest.mark.parametrize("sys_id,measure_id,x", BACKEND_CASES)
def test_bowen_mass_window_is_the_per_n_masses(monkeypatch, sys_id,
                                               measure_id, x):
    sys, mu = get_system(sys_id), get_measure(measure_id)
    ns = tuple(range(1, 15))
    for eps in (0.01, 0.05):
        want = [bowen_ball_measure(sys, mu, x, n, eps) for n in ns]
        assert len(set(want)) > 1, want
        with monkeypatch.context() as m:
            # the window picks its backend once and never goes per n
            m.setattr(measures, "bowen_ball_measure", None)
            got = measures._bowen_masses(sys, mu, x, ns, eps)
        assert [repr(v) for v in got] == [repr(v) for v in want]


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
