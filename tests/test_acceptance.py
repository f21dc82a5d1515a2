"""End-to-end accuracy gates against independently computed closed forms.

Each test pins one headline quantity of the library to its analytic value
with an explicit tolerance.  These are the checks a release must pass.
"""
import math

import numpy as np
import pytest

from translocal import entropy, maps, measures, pressure, symbolic
from translocal.entropy import (Schedule, translocal_entropy,
                                restricted_entropy, yz_entropy_function)
from translocal.maps import ZERO_POTENTIAL, get_potential, get_system
from translocal.measures import brin_katok, get_measure
from translocal.pressure import (cover_weight, critical_exponent,
                                 ma_wen_audit, whole_circle)
from translocal.spaces import (Ball, Metric, circle, distance, interval,
                               torus, word)
from translocal.symbolic import get_family, kraft_entropy

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)

# frozen Lebesgue-typical base point for the non-uniform 3-branch map;
# chosen once so the finite-orbit Lyapunov average is close to its
# almost-everywhere limit (3/2) log 2
TYPICAL_Z = 0.455118552


def rel_err(value, expect):
    return abs(value - expect) / abs(expect)


def test_uniform_tripling_translocal_profile():
    sys = get_system("tripling")
    rng = np.random.default_rng(101)
    zs = [circle(float(v)) for v in rng.random(5)]
    for omega in (0.0, 0.25, 0.5, 0.75):
        expect = (1.0 - omega / LOG3) * LOG3
        for z in zs:
            up, lo = translocal_entropy(sys, z, omega)
            assert rel_err(up.value, expect) <= 0.10
            assert rel_err(lo.value, expect) <= 0.10


def test_nonuniform_map_translocal_depends_on_lyapunov():
    sys = get_system("g3branch")
    omega = 0.6
    cases = (
        (circle(2.0 / 3.0), math.log(4.0)),        # period-1 orbit, slope 4
        (circle(TYPICAL_Z), 1.5 * LOG2),            # typical exponent
    )
    for z, lam in cases:
        expect = (1.0 - omega / lam) * LOG3
        up, lo = translocal_entropy(sys, z, omega)
        assert rel_err(up.value, expect) <= 0.12
        assert rel_err(lo.value, expect) <= 0.12


def test_neutral_fixed_point_has_zero_translocal_entropy():
    sys = get_system("pomeau-manneville")
    up, lo = translocal_entropy(sys, interval(0.0), 0.5)
    assert abs(up.value) <= 0.05
    assert abs(lo.value) <= 0.05


def test_infinite_derivative_fixed_point_keeps_full_entropy():
    sys = get_system("sqrtmap")
    sched = Schedule(tuple(range(24, 41)), (0.05, 0.02, 0.01))
    up, lo = translocal_entropy(sys, interval(0.0), 1.0, sched)
    assert rel_err(up.value, LOG2) <= 0.10
    assert rel_err(lo.value, LOG2) <= 0.10


def test_hyperbolic_torus_translocal_spectrum_sum():
    sys = get_system("toral:2,1;1,1")
    z = torus(0.31, 0.47)
    top = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    for omega, expect in ((0.3, top - 0.3), (1.2, 0.0)):
        up, lo = translocal_entropy(sys, z, omega)
        if expect > 0:
            assert rel_err(up.value, expect) <= 0.15
            assert rel_err(lo.value, expect) <= 0.15
        else:
            assert abs(up.value) <= 0.15
            assert abs(lo.value) <= 0.15


def test_staircase_local_entropy_steps_by_level():
    sys = get_system("staircase")
    cases = ((interval(0.7), math.log(3.0)), (interval(0.3), math.log(5.0)))
    for x, expect in cases:
        est = yz_entropy_function(sys, x)
        assert rel_err(est.value, expect) <= 0.10


def test_local_measure_decay_rates():
    sys = get_system("tripling")
    mu = get_measure("lebesgue-circle")
    rng = np.random.default_rng(202)
    for v in rng.random(20):
        up, lo = brin_katok(sys, mu, circle(float(v)))
        assert rel_err(up.value, LOG3) <= 0.05
        assert rel_err(lo.value, LOG3) <= 0.05

    shift = get_system("fullshift:2")
    coin = get_measure("bernoulli:0.5,0.5")
    for row in rng.integers(0, 2, size=(20, 64)):
        up, lo = brin_katok(shift, coin, word(row.tolist()))
        assert rel_err(up.value, LOG2) <= 0.05
        assert rel_err(lo.value, LOG2) <= 0.05


@pytest.mark.parametrize("r", [2, 3])
def test_brin_katok_on_tripling_iterates(r):
    # the Bowen ball of f^r shrinks by 3^r a step, below the float spacing
    # of x within a few steps
    sys = get_system(f"iterate:tripling:{r}")
    mu = get_measure("lebesgue-circle")
    rng = np.random.default_rng(2024)
    for v in [0.123456, 0.3141592, 0.7071067] + rng.random(10).tolist():
        up, lo = brin_katok(sys, mu, circle(v))
        assert abs(up.value - r * LOG3) <= 0.05, v
        assert abs(lo.value - r * LOG3) <= 0.05, v


def test_pressure_exponent_of_the_full_circle():
    sys = get_system("tripling")
    crit = critical_exponent(sys, whole_circle(), ZERO_POTENTIAL, r=0.05)
    lo, hi = crit.bracket
    assert hi - lo <= 0.1
    assert lo - 1e-9 <= LOG3 <= hi + 1e-9

    pot = get_potential("geometric:1.0")
    crit = critical_exponent(sys, whole_circle(), pot, r=0.05,
                             s_grid=(-0.6, -0.3, 0.0, 0.3, 0.6))
    assert abs(crit.value) <= 0.05


# (system, branch slopes) of the full-branch affine circle maps
AFFINE_SLOPES = [("tripling", (3.0, 3.0, 3.0)), ("g3branch", (2.0, 4.0, 4.0))]


@pytest.mark.parametrize("sys_id, slopes", AFFINE_SLOPES)
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_pressure_exponent_is_bowens_formula(sys_id, slopes, t):
    # Bowen balls: P(-t log|f'|) = log sum_i s_i^-t; metric balls of
    # radius exp(-omega n): omega + log sum_i s_i^(-1-t)
    sys, pot = get_system(sys_id), get_potential(f"geometric:{t}")
    grid = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
    crit = critical_exponent(sys, whole_circle(), pot, r=0.05, s_grid=grid)
    want = math.log(math.fsum(s ** -t for s in slopes))
    assert crit.value == pytest.approx(want, rel=1e-9, abs=1e-15)
    omega = 0.6
    crit = critical_exponent(sys, whole_circle(), pot, omega=omega,
                             s_grid=grid, variant="translocal-upper")
    want = omega + math.log(math.fsum(s ** (-1.0 - t) for s in slopes))
    assert crit.value == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("pot_id, want", [
    ("zero", 2.0 * LOG3),
    ("geometric:0.5", 2.0 * math.log(2.0 ** -0.5 + 2.0 * 4.0 ** -0.5))])
def test_iterate_pressure_is_bowens_formula(pot_id, want):
    # g^2 of g3branch is a table of its own, 9 affine branches onto the
    # circle, so its whole-circle pressure is Bowen's formula for g, doubled
    crit = critical_exponent(get_system("iterate:g3branch:2"), whole_circle(),
                             get_potential(pot_id), r=0.05,
                             s_grid=(-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
    assert abs(crit.value - want) <= 1e-9


def test_translocal_pressure_exponent_tracks_omega():
    sys = get_system("tripling")
    crit = critical_exponent(sys, whole_circle(), ZERO_POTENTIAL, omega=0.7,
                             variant="translocal-upper")
    assert abs(crit.value - 0.7) <= 0.05


def test_pressure_audits_close_in_both_directions():
    sys = get_system("tripling")
    mu = get_measure("lebesgue-circle")
    for pot_id in ("zero", "constant:0.4"):
        rep = ma_wen_audit(sys, mu, get_potential(pot_id), whole_circle(),
                           tol=0.1)
        assert rep.passed
    rep = ma_wen_audit(sys, mu, ZERO_POTENTIAL, whole_circle(), omega=0.7,
                       tol=0.1)
    assert rep.passed


def test_kraft_roots_and_coded_entropy_gaps():
    sol = kraft_entropy([1, 2])
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(sol.h - math.log(golden)) <= 1e-9

    for fid in ("codedshift:linear:1,0", "codedshift:linear:3,2",
                "codedshift:geometric:1", "codedshift:geometric:2",
                "codedshift:factorial"):
        h = kraft_entropy(get_family(fid)).h
        assert 0.0 < h < LOG2


class TestStructuralProperties:
    def test_upper_bound_dominates_lower_bound(self):
        for sys_id, z in (("tripling", circle(0.3)),
                          ("g3branch", circle(0.71)),
                          ("pomeau-manneville", interval(0.3))):
            sys = get_system(sys_id)
            up, lo = translocal_entropy(sys, z, 0.4)
            assert lo.value <= up.value + 1e-9

    def test_entropy_decreases_with_omega(self):
        sys = get_system("tripling")
        values = [translocal_entropy(sys, circle(0.3), w)[0].value
                  for w in (0.2, 0.5, 0.8, 1.1)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 0.02

    def test_second_iterate_doubles_entropy(self):
        sys2 = get_system("iterate:tripling:2")
        est = restricted_entropy(sys2, Ball(circle(0.0), 0.5))
        assert rel_err(est.value, 2.0 * LOG3) <= 0.10

    def test_product_system_entropy_is_additive(self):
        sys = get_system("toral:2,0;0,3")
        omega = 0.3
        expect = (LOG2 - omega) + (LOG3 - omega)
        up, lo = translocal_entropy(sys, torus(0.27, 0.63), omega)
        assert rel_err(up.value, expect) <= 0.15
        assert rel_err(lo.value, expect) <= 0.15

    def test_cover_weights_monotone_in_depth_and_radius(self):
        sys = get_system("tripling")
        region = whole_circle()
        above = [cover_weight(sys, region, ZERO_POTENTIAL, LOG3 + 0.4,
                              0.05, N).value for N in (3, 5, 7)]
        assert above[0] > above[1] > above[2]
        below = [cover_weight(sys, region, ZERO_POTENTIAL, LOG3 - 0.4,
                              0.05, N).value for N in (3, 5, 7)]
        assert below[0] < below[1] < below[2]
        small = cover_weight(sys, region, ZERO_POTENTIAL, 1.0, 0.02, 4).value
        large = cover_weight(sys, region, ZERO_POTENTIAL, 1.0, 0.08, 4).value
        assert small >= large

    def test_metric_axioms_on_every_space(self):
        rng = np.random.default_rng(404)
        samples = {
            "circle": [circle(float(v)) for v in rng.random(9)],
            "torus": [torus(*map(float, row)) for row in rng.random((9, 2))],
            "interval": [interval(float(v)) for v in rng.random(9)],
            "symbolic": [word(row.tolist())
                         for row in rng.integers(0, 2, size=(9, 12))],
        }
        for space, pts in samples.items():
            m = Metric(pts[0].space)
            for a, b, c in zip(pts[:3], pts[3:6], pts[6:9]):
                assert distance(a, a, m) == 0.0
                dab = distance(a, b, m)
                assert dab == pytest.approx(distance(b, a, m))
                assert dab <= distance(a, c, m) + distance(c, b, m) + 1e-12
