"""Catalogue map definitions, derivatives, iterates, and branch data."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from translocal import maps
from translocal.maps import (Potential, canonical_growth, evaluate,
                             get_potential, get_system, iterate_system,
                             log_derivative_sum, monotone_branches, orbit,
                             toral_eigen_data)
from translocal.spaces import circle, interval, torus, word

LOG3 = math.log(3.0)


def test_tripling_step():
    sys = get_system("tripling")
    assert evaluate(sys, circle(0.1)).coords[0] == pytest.approx(0.3)
    assert evaluate(sys, circle(0.5)).coords[0] == pytest.approx(0.5)


def test_g3branch_three_branch_formulas():
    sys = get_system("g3branch")
    assert evaluate(sys, circle(0.2)).coords[0] == pytest.approx(0.4)
    assert evaluate(sys, circle(0.6)).coords[0] == pytest.approx(0.4)
    assert evaluate(sys, circle(0.8)).coords[0] == pytest.approx(0.2)


def test_pomeau_manneville_neutral_fixed_point():
    sys = get_system("pomeau-manneville")
    # x/(1-x) below 1/2, slope 1 at the origin
    assert evaluate(sys, interval(0.25)).coords[0] == pytest.approx(1.0 / 3.0)
    assert evaluate(sys, interval(0.0)).coords[0] == 0.0
    assert sys.log_slope_many(np.asarray([0.0]))[0] == pytest.approx(0.0)


def test_pomeau_manneville_is_quiet_at_the_right_endpoint():
    sys = get_system("pomeau-manneville")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(sys, interval(1.0)).coords[0] == 1.0
        assert log_derivative_sum(sys, interval(1.0), 3) \
            == pytest.approx(3 * math.log(2.0))


def test_sqrtmap_left_branch():
    sys = get_system("sqrtmap")
    assert evaluate(sys, interval(0.125)).coords[0] == pytest.approx(0.5)
    assert evaluate(sys, interval(0.75)).coords[0] == pytest.approx(0.5)


def test_staircase_bands_are_invariant():
    sys = get_system("staircase")
    rng = np.random.default_rng(11)
    for level in (1, 2, 3):
        lo, hi = 2.0 ** -level, 2.0 ** (1 - level)
        xs = lo + (hi - lo) * rng.random(50)
        ys = sys.step_many(xs.reshape(-1, 1))[:, 0]
        assert np.all(ys >= lo - 1e-12)
        assert np.all(ys <= hi + 1e-12)


def test_cat_map_step():
    sys = get_system("cat")
    out = evaluate(sys, torus(0.3, 0.4))
    assert out.coords[0] == pytest.approx((2 * 0.3 + 0.4) % 1.0)
    assert out.coords[1] == pytest.approx((0.3 + 0.4) % 1.0)


def test_cat_eigenvalues():
    sys = get_system("toral:2,1;1,1")
    eigs = toral_eigen_data(sys)
    golden_sq = (3.0 + math.sqrt(5.0)) / 2.0
    assert eigs[0][0] == pytest.approx(golden_sq)
    assert eigs[1][0] == pytest.approx(1.0 / golden_sq)


def test_shift_drops_first_symbol():
    sys = get_system("fullshift:2")
    assert evaluate(sys, word([1, 0, 1])).word == (0, 1)


def test_iterate_matches_composition():
    sys2 = get_system("iterate:tripling:2")
    assert evaluate(sys2, circle(0.1)).coords[0] == pytest.approx(0.9)
    assert sys2.h_top == pytest.approx(2 * LOG3)


def test_iterate_ids_of_parameterised_systems():
    cat2 = get_system("iterate:toral:2,1;1,1:2")
    assert cat2.matrix == ((5, 3), (3, 2))
    assert cat2.power == 2
    with pytest.raises(ValueError, match="iterate shifts by composing"):
        get_system("iterate:fullshift:2:2")


def test_log_derivative_sum_uniform_expansion():
    sys = get_system("tripling")
    assert log_derivative_sum(sys, circle(0.1234), 6) == pytest.approx(6 * LOG3)


def test_orbit_length_and_start():
    sys = get_system("tripling")
    pts = orbit(sys, circle(0.1), 4)
    assert len(pts) == 4
    assert pts[0].coords[0] == pytest.approx(0.1)
    assert pts[2].coords[0] == pytest.approx(0.9)


def test_unknown_system_raises():
    with pytest.raises(KeyError):
        get_system("nosuchmap")
    with pytest.raises(KeyError):
        get_system("disk")


def test_fullshift_needs_two_symbols():
    with pytest.raises(ValueError):
        get_system("fullshift:1")


def test_monotone_branches_tripling():
    sys = get_system("tripling")
    branches = monotone_branches(sys, 0.0, 1.0)
    assert len(branches) == 3
    for b in branches:
        assert b.canonical == ("unit",)
        assert b.fn(b.lo) == pytest.approx(0.0, abs=1e-12)
        assert b.fn(b.hi) == pytest.approx(1.0, abs=1e-12)
    assert canonical_growth(sys, ("unit",), 2) == pytest.approx(9.0)


def test_canonical_growth_rejects_domains_outside_the_table():
    staircase = get_system("staircase")
    assert canonical_growth(staircase, ("band", 2), 1) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        canonical_growth(staircase, ("unit",), 2)
    with pytest.raises(ValueError):
        canonical_growth(get_system("tripling"), ("band", 2), 1)


def test_geometric_potential_values():
    sys = get_system("tripling")
    pot = get_potential("geometric:0.5")
    vals = pot.values(sys, np.asarray([[0.1], [0.4]]))
    assert np.allclose(vals, -0.5 * LOG3)


def test_birkhoff_sum_constant():
    sys = get_system("tripling")
    pot = Potential("constant", c=0.4)
    assert maps.birkhoff_sum(pot, sys, circle(0.1), 5) == pytest.approx(2.0)


def test_birkhoff_sums_step_one_orbit():
    base = get_system("g3branch")
    calls = []

    def step_many(coords):
        calls.append(len(coords))
        return base.step_many(coords)

    sys = dataclasses.replace(base, step_many=step_many)
    pot = get_potential("geometric:0.7")
    n_values = (1, 3, 8, 9, 14)
    sums = maps.birkhoff_sums(pot, sys, circle(0.3141), n_values)
    assert len(calls) == max(n_values) - 1
    assert sums == [maps.birkhoff_sum(pot, base, circle(0.3141), n)
                    for n in n_values]
