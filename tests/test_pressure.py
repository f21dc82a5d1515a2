"""Cover weights, critical exponents, and the two-sided audit."""
import math

import pytest

from translocal.errors import UnbracketedError
from translocal.maps import ZERO_POTENTIAL, get_potential, get_system
from translocal.measures import get_measure
from translocal.pressure import (Region, cover_weight, critical_exponent,
                                 ma_wen_audit, translocal_cover_weight,
                                 whole_circle)
from translocal.spaces import Ball, circle

LOG3 = math.log(3.0)
CLI_S_GRID = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)


def test_cover_weight_decreases_in_n_above_pressure():
    sys = get_system("tripling")
    region = whole_circle()
    ws = [cover_weight(sys, region, ZERO_POTENTIAL, LOG3 + 0.3, 0.05, N).value
          for N in (3, 5, 7)]
    assert ws[0] > ws[1] > ws[2]


def test_cover_weight_increases_in_n_below_pressure():
    sys = get_system("tripling")
    region = whole_circle()
    ws = [cover_weight(sys, region, ZERO_POTENTIAL, LOG3 - 0.3, 0.05, N).value
          for N in (3, 5, 7)]
    assert ws[0] < ws[1] < ws[2]


def test_cover_weight_monotone_in_radius():
    sys = get_system("tripling")
    region = whole_circle()
    small = cover_weight(sys, region, ZERO_POTENTIAL, 1.0, 0.02, 4).value
    large = cover_weight(sys, region, ZERO_POTENTIAL, 1.0, 0.08, 4).value
    assert small >= large


def test_cover_weight_monotone_in_region():
    sys = get_system("tripling")
    half = Region(balls=(Ball(circle(0.25), 0.25),))
    w_half = cover_weight(sys, half, ZERO_POTENTIAL, 1.0, 0.05, 5).value
    w_full = cover_weight(sys, whole_circle(), ZERO_POTENTIAL, 1.0, 0.05,
                          5).value
    assert w_half <= w_full * (1 + 1e-9)


def test_critical_exponent_brackets_topological_entropy():
    sys = get_system("tripling")
    crit = critical_exponent(sys, whole_circle(), ZERO_POTENTIAL, r=0.05)
    lo, hi = crit.bracket
    assert hi - lo <= 0.1
    assert lo - 0.05 <= LOG3 <= hi + 0.05


def test_critical_exponent_pinned_values():
    # exact values on the `translocal run` pressure grid; a change to the
    # cover search that moves them moves every reported pressure
    sys = get_system("tripling")
    crit = critical_exponent(sys, whole_circle(), ZERO_POTENTIAL, r=0.05,
                             s_grid=CLI_S_GRID)
    assert crit.value == 1.1015625
    assert crit.bracket == (1.09375, 1.109375)
    crit = critical_exponent(sys, whole_circle(), ZERO_POTENTIAL, omega=0.6,
                             s_grid=CLI_S_GRID, variant="translocal-upper")
    assert crit.value == 0.6015625


@pytest.mark.parametrize("s, r, family, value", [
    (-0.5, 0.1, "uniform-n", 997.522573355638),
    (1.1, 0.02, "refined", 8.241330880845185),
])
def test_each_cover_family_decides_some_weight(s, r, family, value):
    w = cover_weight(get_system("tripling"), whole_circle(), ZERO_POTENTIAL,
                     s, r, 4)
    assert w.family == family
    assert w.value == value


def test_geometric_potential_zeroes_the_exponent():
    sys = get_system("tripling")
    pot = get_potential("geometric:1.0")
    crit = critical_exponent(sys, whole_circle(), pot, r=0.05,
                             s_grid=(-0.6, -0.3, 0.0, 0.3, 0.6))
    assert abs(crit.value) <= 0.05


def test_translocal_exponent_tracks_omega():
    sys = get_system("tripling")
    crit = critical_exponent(sys, whole_circle(), ZERO_POTENTIAL, omega=0.7,
                             variant="translocal-upper")
    assert crit.value == pytest.approx(0.7, abs=0.05)


def test_unbracketed_grid_raises():
    sys = get_system("tripling")
    with pytest.raises(UnbracketedError):
        critical_exponent(sys, whole_circle(), ZERO_POTENTIAL, r=0.05,
                          s_grid=(4.0, 5.0, 6.0))


def test_translocal_cover_weight_requires_positive_omega():
    sys = get_system("tripling")
    with pytest.raises(ValueError):
        translocal_cover_weight(sys, whole_circle(), ZERO_POTENTIAL, 1.0,
                                0.0, 4)


def test_audit_consistency_zero_potential():
    sys = get_system("tripling")
    mu = get_measure("lebesgue-circle")
    rep = ma_wen_audit(sys, mu, ZERO_POTENTIAL, whole_circle())
    assert rep.passed
    assert rep.min_lower - rep.tol <= rep.pressure <= rep.max_upper + rep.tol
