"""Cover weights, critical exponents, and the two-sided audit."""
import functools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translocal import pressure
from translocal.errors import UnbracketedError
from translocal.maps import (ZERO_POTENTIAL, System, get_potential,
                            get_system)
from translocal.measures import get_measure
from translocal.pressure import (Region, cover_weight, critical_exponent,
                                 ma_wen_audit, translocal_cover_weight,
                                 whole_circle)
from translocal.spaces import CIRCLE, Ball, circle, interval

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
    # values on the `translocal run` pressure grid: the whole-circle levels
    # are Bowen's formula, so the secant of the grid bracket is the root,
    # log 3 (Bowen balls) and omega (metric balls), to a few ulp
    sys = get_system("tripling")
    crit = critical_exponent(sys, whole_circle(), ZERO_POTENTIAL, r=0.05,
                             s_grid=CLI_S_GRID)
    assert crit.value == pytest.approx(LOG3, rel=4e-16)
    assert crit.bracket == (crit.value, crit.value)
    crit = critical_exponent(sys, whole_circle(), ZERO_POTENTIAL, omega=0.6,
                             s_grid=CLI_S_GRID, variant="translocal-upper")
    assert crit.value == pytest.approx(0.6, rel=4e-16)
    assert crit.bracket == (crit.value, crit.value)


def test_critical_exponent_bisects_quadrature_tables():
    # sub-arcs are priced by quadrature; on g3branch its trend is not
    # affine in s, so the secant point misses and the bracket is bisected
    # down to `tol` as before the closed form
    crit = critical_exponent(get_system("g3branch"), TWO_BALLS,
                             ZERO_POTENTIAL, r=0.05, s_grid=CLI_S_GRID)
    assert crit.value == 1.1015625
    assert crit.bracket == (1.09375, 1.109375)


# value pins of the uniform-n cover weight; the ids name the family, the
# only one the search prices
@pytest.mark.parametrize("sys_id, s, r, N, value", [
    pytest.param("tripling", -0.5, 0.1, 4, 997.522573355638,
                 id="tripling--0.5-0.1-4-uniform-n-997.522573355638"),
    pytest.param("tripling", 1.1, 0.02, 4, 8.241330880845176,
                 id="tripling-1.1-0.02-4-uniform-n-8.241330880845176"),
])
def test_each_cover_family_decides_some_weight(sys_id, s, r, N, value):
    w = cover_weight(get_system(sys_id), whole_circle(), ZERO_POTENTIAL,
                     s, r, N)
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


def test_critical_exponent_rejects_repeated_n():
    sys = get_system("tripling")
    with pytest.raises(ValueError):
        critical_exponent(sys, whole_circle(), ZERO_POTENTIAL, r=0.05,
                          n_window=(6, 6, 6, 6, 7))


def test_critical_exponent_refuses_unknown_variants():
    sys = get_system("tripling")
    for variant in ("translocal-lower", "bowen"):
        with pytest.raises(ValueError, match="unknown variant"):
            critical_exponent(sys, whole_circle(), ZERO_POTENTIAL, r=0.05,
                              omega=0.7, variant=variant)


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


# -- reference: one midpoint-grid quadrature per (segment, level) -----------

def _ref_segment_data(sys, pot, a, b, n):
    k = 4096
    xs = (np.linspace(a, b, k, endpoint=False) + (b - a) / (2 * k))
    if sys.space == CIRCLE:
        xs = xs % 1.0
    cur = xs.reshape(-1, 1)
    lam = np.zeros(k)
    phi = np.zeros(k)
    for j in range(n):
        phi += pot.values(sys, cur)
        if j + 1 < n and sys.log_slope_many is not None:
            lam += sys.log_slope_many(cur)
        cur = sys.step_many(cur)
    return xs, lam, phi


def _ref_segment_weight(sys, pot, a, b, n, s, ext):
    xs, lam, phi = _ref_segment_data(sys, pot, a, b, n)
    counts = (b - a) / xs.shape[0] / ext(lam, n)
    if float(counts.sum()) <= 1.0:
        return math.exp(-s * n + float(phi[xs.shape[0] // 2]))
    return float(np.sum(counts * np.exp(-s * n + phi)))


def _ref_cheapest_cover(level_weight, N):
    """(value, n_values) of the cheapest uniform-n cover, whose weight at
    level n is level_weight(n)."""
    best = None
    for n in range(N, N + 5):
        weight = level_weight(n)
        if best is None or weight < best[0] * (1.0 - pressure._TIE):
            best = (weight, (n,))
    return best


# -- reference: exact lap enumeration of a full-branch affine circle map ----

# each branch as (lo, slope): x -> slope * (x - lo), onto [0, 1]
EXACT_BRANCHES = {
    "tripling": ((Fraction(0), 3), (Fraction(1, 3), 3), (Fraction(2, 3), 3)),
    "g3branch": ((Fraction(0), 2), (Fraction(1, 2), 4), (Fraction(3, 4), 4)),
}


def _branch_weight(pot, slope):
    """exp of the potential on a branch: 1, or 1/slope for geometric:1."""
    if pot.t == 0.0 and pot.c == 0.0:
        return Fraction(1)
    assert pot.c == 0.0 and pot.t == 1.0
    return Fraction(1, slope)


def _exact_point_weight(sys_id, pot, x, n):
    """exp(phi_n(x)) along the exact orbit of x."""
    table = EXACT_BRANCHES[sys_id]
    weight = Fraction(1)
    for _ in range(n):
        lo, slope = max(br for br in table if br[0] <= x)
        weight *= _branch_weight(pot, slope)
        x = slope * (x - lo)
    return weight


@functools.lru_cache(maxsize=None)
def _exact_circle_mass(sys_id, pot, n, extent):
    """exp(log-mass) of the whole circle at level n, summed over the laps of
    f^n: a lap of length L whose first n - 1 slopes multiply to D needs
    L / min(2r / D, 1) Bowen balls (L / min(2 exp(-omega n), 1) metric
    balls) and carries the product of its n branch weights.  A circle that
    needs at most one ball gets one, at the middle quadrature cell."""
    laps = [(Fraction(1), Fraction(1), Fraction(1))]    # (length, D, weight)
    for j in range(n):
        laps = [(length / slope,
                 d * slope if j < n - 1 else d,
                 weight * _branch_weight(pot, slope))
                for length, d, weight in laps
                for _, slope in EXACT_BRANCHES[sys_id]]
    if isinstance(extent, pressure._BowenExtent):
        ext = [min(2 * Fraction(extent.r) / d, 1) for _, d, _ in laps]
    else:
        ext = [min(Fraction(2.0 * math.exp(-extent.omega * n)), 1)] * len(laps)
    counts = [length / e for (length, _, _), e in zip(laps, ext)]
    if sum(counts) <= 1:
        middle = Fraction(2 * (4096 // 2) + 1, 2 * 4096)
        return _exact_point_weight(sys_id, pot, middle, n)
    return sum(c * weight for c, (_, _, weight) in zip(counts, laps))


def _exact_circle_weight(sys_id, pot, n, s, extent):
    return float(_exact_circle_mass(sys_id, pot, n, extent)) * math.exp(-s * n)


TWO_BALLS = Region(balls=(Ball(circle(0.2), 0.05), Ball(circle(0.7), 0.1)))


@pytest.mark.parametrize("sys_id", ["tripling", "g3branch"])
@pytest.mark.parametrize("pot_id", ["zero", "geometric:1.0"])
@pytest.mark.parametrize("region", [whole_circle(), TWO_BALLS],
                         ids=["whole", "two-balls"])
def test_level_table_matches_per_level_quadrature(sys_id, pot_id, region):
    # the whole circle is checked against exact lap enumeration, the
    # sub-arcs against one literal quadrature per level
    sys, pot = get_system(sys_id), get_potential(pot_id)
    for s in (-0.5, 1.1):
        for r, omega in ((0.02, None), (None, 0.6)):
            if r is None:
                got = translocal_cover_weight(sys, region, pot, s, omega, 3)
                ext = pressure._metric_extent(omega)
            else:
                got = cover_weight(sys, region, pot, s, r, 3)
                ext = pressure._bowen_extent(r)
            if region == TWO_BALLS:
                segments = [pressure._interval_of(b, region.space)
                            for b in region.balls]
                value, n_values = _ref_cheapest_cover(
                    lambda n: sum(_ref_segment_weight(sys, pot, a, b, n, s,
                                                      ext)
                                  for a, b in segments), 3)
            else:
                value, n_values = _ref_cheapest_cover(
                    lambda n: _exact_circle_weight(sys_id, pot, n, s, ext), 3)
            assert got.value == pytest.approx(value, rel=1e-12)
            assert got.n_values == n_values


# (system, potential, segment) of the weight property: circle maps on the
# whole circle and on a chunk, interval maps on [0, 1]
WEIGHT_CASES = [
    (sys_id, pot_id, segment)
    for sys_id in ("tripling", "g3branch")
    for pot_id in ("zero", "geometric:1.0")
    for segment in ((0.0, 1.0), (0.3, 0.425))
] + [(sys_id, pot_id, (0.0, 1.0))
     for sys_id in ("sqrtmap", "pomeau-manneville")
     for pot_id in ("zero", "geometric:1.0")]
EXTENTS = {"bowen": pressure._bowen_extent(0.02),
           "metric": pressure._metric_extent(0.6)}


@functools.lru_cache(maxsize=None)
def _levels_of(case, ext_id):
    sys_id, pot_id, (a, b) = case
    return pressure._segment_levels(get_system(sys_id),
                                    get_potential(pot_id), a, b, range(1, 9),
                                    EXTENTS[ext_id])


@pytest.mark.parametrize("case", WEIGHT_CASES,
                         ids=["-".join(map(str, c)) for c in WEIGHT_CASES])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(ext_id=st.sampled_from(sorted(EXTENTS)), n=st.integers(1, 8),
       s=st.floats(-2.0, 3.0))
def test_level_weight_is_the_literal_quadrature(case, ext_id, n, s):
    # the whole circle under tripling and g3branch is checked against exact
    # lap enumeration (its 4096-node grid aliases on g3branch's slopes 2
    # and 4), every other case against the literal quadrature
    sys_id, pot_id, (a, b) = case
    if sys_id in EXACT_BRANCHES and (a, b) == (0.0, 1.0):
        want = _exact_circle_weight(sys_id, get_potential(pot_id), n, s,
                                    EXTENTS[ext_id])
    else:
        want = _ref_segment_weight(get_system(sys_id), get_potential(pot_id),
                                   a, b, n, s, EXTENTS[ext_id])
    # sqrtmap orbits reach its infinite-derivative point 0 from level 7:
    # the Bowen cover needs infinitely many balls there, and the literal
    # sum reads inf, or NaN (inf * 0) under a geometric potential
    assert _levels_of(case, ext_id)[n].weight(s) \
        == pytest.approx(want, rel=1e-12, nan_ok=True)


def test_level_weights_need_no_numpy(monkeypatch):
    table = pressure._cover_table(get_system("g3branch"), TWO_BALLS,
                                  get_potential("geometric:1.0"), range(3, 8),
                                  pressure._bowen_extent(0.02))
    want = pressure._best_level(table, 3, 1.1)

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy used: np.{name}")

    # numpy is imported inside the functions that use it, so any use of
    # it here would reach this stand-in
    monkeypatch.setitem(sys.modules, "numpy", NoNumpy())
    assert pressure._best_level(table, 3, 1.1) == want


def test_undefined_levels_lose_to_defined_ones():
    # a NaN level (inf * 0 at a point of infinite derivative) first in the
    # window must not become the cover's weight
    undefined = pressure._Level(3, math.nan, 0.0)
    levels = {n: pressure._Level(n, 0.0) for n in (4, 5, 6, 7)}
    levels[3] = undefined
    assert pressure._best_level([levels], 3, 0.0) == (1.0, 4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cover_weight_undefined_at_every_level_names_the_point():
    # sqrtmap's grid orbits reach its infinite-derivative fixed point 0 by
    # level 7: there the Bowen count is inf and exp(-log|f'|) is 0
    region = Region(balls=(Ball(interval(0.5), 0.5),))
    pot = get_potential("geometric:1.0")
    with pytest.raises(ValueError, match=r"every level 7\.\.11.* x = 0\.0,"):
        cover_weight(get_system("sqrtmap"), region, pot, 1.0, 0.02, 7)
    assert math.isfinite(cover_weight(get_system("sqrtmap"), region, pot,
                                      1.0, 0.02, 3).value)


def test_level_centres_stay_on_the_grid():
    # the running sum of these counts ends at 2.4999999999999996, their
    # pairwise total is 2.5000000000000004: the weight is the total
    counts = np.array([
        0.14295578697529446, 0.29765276657538514, 0.3398790417452698,
        0.10505345350573604, 0.018102048530516238, 0.5192942973347022,
        0.4300422501098301, 0.06508334684935553, 0.4461305104333231,
        0.13580649794058763])
    level = pressure._level(1.0, 1.0 / counts, np.zeros(counts.size), 3)
    assert level.weight(0.0) == pytest.approx(float(counts.sum()), rel=1e-15)


def test_critical_exponent_steps_each_segment_once():
    # one orbit pass per sub-arc ball, max(n_window) + 4 steps long at
    # most; the whole circle's levels are closed forms and step no orbit
    base = get_system("tripling")
    calls = []

    def step_many(coords):
        calls.append(len(coords))
        return base.step_many(coords)

    sys = System(base.name, base.space, branches=base.branches)
    object.__setattr__(sys, "step_many", step_many)
    n_window = (3, 4, 5, 6, 7, 8)
    critical_exponent(sys, TWO_BALLS, ZERO_POTENTIAL, r=0.05,
                      n_window=n_window)
    assert 0 < len(calls) <= 2 * (max(n_window) + 4)
    calls.clear()
    critical_exponent(sys, whole_circle(), ZERO_POTENTIAL, r=0.05,
                      n_window=n_window)
    assert calls == []


@pytest.mark.parametrize("sys_id", ["tripling", "g3branch"])
@pytest.mark.parametrize("region", [whole_circle(), TWO_BALLS],
                         ids=["whole", "two-balls"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(radii=st.lists(st.floats(0.005, 0.2), min_size=2, max_size=2),
       s=st.floats(-1.0, 2.0), N=st.integers(1, 8))
def test_cover_weight_is_non_increasing_in_the_radius(sys_id, region, radii,
                                                      s, N):
    # larger Bowen balls need no more of them, at every level; the level
    # choice keeps a later level only when cheaper by _TIE
    sys = get_system(sys_id)
    small, large = (cover_weight(sys, region, ZERO_POTENTIAL, s, r, N).value
                    for r in sorted(radii))
    assert small >= large * (1.0 - pressure._TIE)


def test_audit_samples_every_ball():
    pts = pressure._region_samples(TWO_BALLS, 12)
    xs = [p.coords[0] for p in pts]
    assert len(xs) == 24
    assert all(0.14 < x < 0.26 for x in xs[:12])
    assert all(0.59 < x < 0.81 for x in xs[12:])
