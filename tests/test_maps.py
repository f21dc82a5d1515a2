"""Catalogue map definitions, derivatives, iterates, and branch data."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from translocal import maps, spaces
from translocal.errors import SingularOrbitError
from translocal.maps import (Potential, canonical_growth, evaluate,
                             get_potential, get_system, iterate_system,
                             log_derivative_sum, monotone_branches, orbit)
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
    eigs = sys.spectrum
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


def test_iterates_of_full_branch_maps_are_composed_tables():
    # k^r affine branches, slopes multiplied; too many are refused up front
    g2 = get_system("iterate:g3branch:2")
    assert g2.base is None and len(g2.branches) == 9
    assert sorted({br.slope for br in g2.branches}) == [4.0, 8.0, 16.0]
    assert get_system("iterate:pomeau-manneville:2").branches == ()
    with pytest.raises(ValueError, match="19683 composed branches"):
        get_system("iterate:tripling:9")


def test_stepped_iterate_log_slopes_take_flat_and_column_points():
    # log|(f^2)'| at each point, whether the points come flat or as (N, 1)
    sys, base = get_system("iterate:pomeau-manneville:2"), \
        get_system("pomeau-manneville")
    xs = np.asarray([0.1, 0.2, 0.3])
    want = base.log_slope_many(xs) + base.log_slope_many(
        base.step_many(xs.reshape(-1, 1)))
    assert sys.log_slope_many(xs).tolist() == want.tolist()
    assert sys.log_slope_many(xs.reshape(-1, 1)).tolist() == want.tolist()


def test_iterate_ids_of_parameterised_systems():
    cat2 = get_system("iterate:toral:2,1;1,1:2")
    assert cat2.matrix == ((5, 3), (3, 2))
    assert cat2.base is None
    with pytest.raises(ValueError, match="iterate shifts by composing"):
        get_system("iterate:fullshift:2:2")


def test_torus_iterate_is_the_map_of_the_matrix_power():
    # iterate:cat:2 holds A^2 alone: no base map is stepped twice
    cat2, direct = get_system("iterate:cat:2"), get_system("toral:5,3;3,2")
    assert cat2.base is None and cat2.matrix == direct.matrix
    assert cat2.spectrum == direct.spectrum
    assert cat2.h_top == direct.h_top
    assert [v.tolist() for v in cat2.expanding] \
        == [v.tolist() for v in direct.expanding]
    pts = np.random.default_rng(3).random((64, 2))
    assert cat2.step_many(pts).tobytes() == direct.step_many(pts).tobytes()
    # A^r in exact integers (the cat map's are Fibonacci numbers, F(77)
    # here), refused where a float step would round its entries
    assert get_system("iterate:cat:38").matrix[0][0] == 5527939700884757
    with pytest.raises(ValueError, match="beyond 2"):
        get_system("iterate:cat:39")


def test_log_derivative_sum_uniform_expansion():
    sys = get_system("tripling")
    assert log_derivative_sum(sys, circle(0.1234), 6) == pytest.approx(6 * LOG3)


ORBIT_SYSTEMS = ["tripling", "g3branch", "pomeau-manneville", "sqrtmap",
                 "staircase"]


@pytest.mark.parametrize("sys_id", ORBIT_SYSTEMS)
def test_whole_orbit_log_slopes_are_the_per_point_ones(sys_id):
    # log_derivative_sums makes one log-slope call over the whole orbit;
    # it must give the bits of one call per orbit point
    sys = get_system(sys_id)
    rng = np.random.default_rng(29)
    for x0 in rng.random(20):
        pts = maps.orbit_coords(sys, [x0], 200)[0]
        whole = np.asarray(sys.log_slope_many(pts), dtype=float)
        single = np.asarray([sys.log_slope_many(np.asarray([c]))[0]
                             for c in pts[:, 0]], dtype=float)
        assert whole.tobytes() == single.tobytes()


def _kinks(sys):
    """The branch ends of `sys`'s table where the one-sided |slopes|
    differ, read pairwise off neighbouring branches (the last and first
    meet at 0 on the circle)."""
    def one_sided(br, end):
        if br.slope is not None:
            return abs(br.slope)
        with np.errstate(divide="ignore"):
            return math.exp(float(br.log_slope(end)))

    table = sys.branches
    pairs = list(zip(table, table[1:]))
    if sys.space == "circle":
        pairs.append((table[-1], table[0]))
    return [right.lo for left, right in pairs
            if one_sided(left, left.hi) != one_sided(right, right.lo)]


def _per_step_log_derivative_sums(sys, x, n):
    """One `evaluate` and one log-slope call per orbit point, raising at
    the first orbit point within 1e-12 of a kink."""
    near = spaces.circle_dist if sys.space == "circle" \
        else lambda a, b: abs(a - b)
    kinks = _kinks(sys)
    sums, total, cur = [], 0.0, x
    for _ in range(n):
        c = cur.coords[0]
        for b in kinks:
            if near(c, b) < 1e-12:
                raise SingularOrbitError(
                    f"orbit of {x.coords} hits branch endpoint {b}")
        total += float(sys.log_slope_many(np.asarray([c]))[0])
        sums.append(total)
        cur = evaluate(sys, cur)
    return sums


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularOrbitError as exc:
        return str(exc)


@pytest.mark.parametrize("sys_id", ORBIT_SYSTEMS + ["iterate:tripling:2",
                                                    "identity"])
def test_log_derivative_sums_match_the_per_step_walk(sys_id):
    sys = get_system(sys_id)
    make = circle if sys.space == "circle" else interval
    rng = np.random.default_rng(31)
    for x0 in list(rng.random(6)) + [0.0, 0.5, 0.455118552]:
        x = make(float(x0))
        assert _outcome(maps.log_derivative_sums, sys, x, 120) \
            == _outcome(_per_step_log_derivative_sums, sys, x, 120)


def test_dyadic_g3branch_orbit_is_singular():
    # the float orbit of this point reaches the kink at 1/2 (then dies at 0)
    with pytest.raises(SingularOrbitError,
                       match="hits branch endpoint 0.5"):
        maps.log_derivative_sums(get_system("g3branch"),
                                 circle(0.455118552), 200)


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

    def step(c):
        calls.append(c)
        return base.step(c)

    sys = dataclasses.replace(base)
    object.__setattr__(sys, "step", step)
    pot = get_potential("geometric:0.7")
    n_values = (1, 3, 8, 9, 14)
    sums = maps.birkhoff_sums(pot, sys, circle(0.3141), n_values)
    assert len(calls) == max(n_values) - 1
    assert sums == [maps.birkhoff_sum(pot, base, circle(0.3141), n)
                    for n in n_values]


@pytest.mark.parametrize("sys_id", ["tripling", "g3branch",
                                    "pomeau-manneville"])
def test_scalar_birkhoff_sums_match_the_array_path(sys_id):
    # a table map's sums step and price its orbit one float at a time;
    # each term is within 1 ulp of the array path's, and each sum of n
    # terms within n ulps (of the sum of their magnitudes) of np.sum over
    # the array path's terms
    sys = get_system(sys_id)
    make = circle if sys.space == "circle" else interval
    pot = get_potential("geometric:0.7")
    n_values = (1, 5, 14, 40)
    rng = np.random.default_rng(37)
    for x0 in rng.random(8):
        x = make(float(x0))
        orb = maps.point_orbit(sys, x.coords[0], max(n_values))
        scalar = [pot.value(sys, c) for c in orb]
        array = pot.values(sys, np.asarray(orb)[:, None])
        for a, b in zip(scalar, array):
            assert abs(a - b) <= math.ulp(b)
        sums = maps.birkhoff_sums(pot, sys, x, n_values)
        assert sums == [math.fsum(scalar[:n]) for n in n_values]
        for n, got in zip(n_values, sums):
            bound = n * math.ulp(math.fsum(np.abs(array[:n])))
            assert abs(got - float(np.sum(array[:n]))) <= bound


def test_scalar_birkhoff_sums_at_the_sqrtmap_origin_are_infinite():
    # log|f'| is +inf at the fixed point 0 of sqrtmap: each sum is an
    # infinity of the potential's sign, with no error and no warning
    sys = get_system("sqrtmap")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        up = maps.birkhoff_sums(get_potential("geometric:-1"), sys,
                                interval(0.0), (1, 4))
        down = maps.birkhoff_sums(get_potential("geometric:1"), sys,
                                  interval(0.0), (1, 4))
    assert up == [math.inf, math.inf]
    assert down == [-math.inf, -math.inf]


@pytest.mark.parametrize("sys_id", ["pomeau-manneville", "sqrtmap"])
def test_curved_end_log_slopes_are_the_log_slope_rule_at_the_ends(sys_id):
    # the ends are stored as floats, so that building the catalogue loads
    # no numpy; they are the bits of the numpy rule there
    for br in get_system(sys_id).branches:
        if br.slope is None:
            assert br.end_log_slopes == (float(br.log_slope(br.lo)),
                                         float(br.log_slope(br.hi)))
