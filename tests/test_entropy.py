"""Growth-rate regression and the entropy estimators."""
import math

import numpy as np
import pytest

from translocal import separated
from translocal import entropy
from translocal.errors import HorizonExceededError, SingularOrbitError
from translocal.entropy import (DEFAULT_SCHEDULE, RateEstimate, Schedule,
                                cell_log_count, cell_log_counts, growth_rate,
                                growth_rates, lyapunov_exponent,
                                restricted_entropy, toral_translocal,
                                translocal_entropy, yz_entropy_function)
from translocal.maps import (System, get_system, iterate_system,
                            log_derivative_sum)
from translocal.spaces import (CIRCLE, TORUS, Ball, circle, interval, torus,
                              word)

LOG3 = math.log(3.0)


def test_growth_rate_recovers_exact_slope():
    data = [(n, 0.7 * n + 2.0) for n in range(4, 15)]
    est = growth_rate(data, "limsup")
    assert est.value == pytest.approx(0.7, abs=1e-9)
    assert growth_rate(data, "liminf").value == pytest.approx(0.7, abs=1e-9)


def test_growth_rate_limsup_above_liminf_on_oscillation():
    rng = np.random.default_rng(3)
    data = [(n, 0.5 * n + 0.3 * rng.standard_normal()) for n in range(4, 20)]
    up = growth_rate(data, "limsup").value
    lo = growth_rate(data, "liminf").value
    assert up >= lo


def test_growth_rate_clamps_negative_slopes():
    data = [(n, -0.2 * n) for n in range(4, 12)]
    assert growth_rate(data, "limsup", clamp=True).value == 0.0


def test_growth_rates_pair_the_single_mode_fits():
    rng = np.random.default_rng(5)
    data = [(n, 0.5 * n + 0.3 * rng.standard_normal()) for n in range(4, 20)]
    for clamp in (False, True):
        pair = growth_rates(data, clamp=clamp, eps=0.01)
        assert repr(pair) == repr(tuple(
            growth_rate(data, mode, clamp=clamp, eps=0.01)
            for mode in ("limsup", "liminf")))


def test_growth_rate_rejects_an_unknown_mode():
    with pytest.raises(ValueError):
        growth_rate([(n, 0.5 * n) for n in range(4, 9)], "sup")


def test_growth_rate_rejects_repeated_n():
    data = [(n, 0.5 * n) for n in (6, 6, 6, 6, 7)]
    with pytest.raises(ValueError):
        growth_rate(data, "limsup")


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule((5, 4, 3), (0.05,), 1000)
    with pytest.raises(ValueError):
        Schedule((4, 5, 6), (0.01, 0.05), 1000)


@pytest.mark.parametrize("n_values", [(6, 6, 6, 6, 7), (0, 1, 2)])
def test_schedule_rejects_repeated_or_nonpositive_n(n_values):
    with pytest.raises(ValueError):
        Schedule(n_values, (0.05,), 1000)


def test_restricted_entropy_tripling_whole_circle():
    sys = get_system("tripling")
    est = restricted_entropy(sys, Ball(circle(0.0), 0.5))
    assert est.value == pytest.approx(LOG3, rel=0.02)


def test_translocal_tripling_linear_in_omega():
    sys = get_system("tripling")
    for omega in (0.3, 0.6):
        up, lo = translocal_entropy(sys, circle(0.37), omega)
        expect = LOG3 - omega
        assert up.value == pytest.approx(expect, rel=0.05)
        assert lo.value == pytest.approx(expect, rel=0.05)


def test_translocal_sandwich_and_omega_monotonicity():
    sys = get_system("g3branch")
    values = []
    for omega in (0.2, 0.5, 0.8):
        up, lo = translocal_entropy(sys, circle(2.0 / 3.0), omega)
        assert lo.value <= up.value + 1e-9
        values.append(up.value)
    assert values[0] >= values[1] - 0.02
    assert values[1] >= values[2] - 0.02


def test_yz_function_bounded_by_topological_entropy():
    sys = get_system("tripling")
    est = yz_entropy_function(sys, circle(0.2))
    assert est.value <= LOG3 * 1.05
    assert est.value == pytest.approx(LOG3, rel=0.05)


def test_lyapunov_tripling_constant():
    sys = get_system("tripling")
    up, lo = lyapunov_exponent(sys, circle(0.123), 60)
    assert up == pytest.approx(LOG3, abs=1e-9)
    assert lo == pytest.approx(LOG3, abs=1e-9)


def test_lyapunov_is_the_tail_of_running_averages():
    sys = get_system("g3branch")
    x = circle(0.3141)
    averages = [log_derivative_sum(sys, x, k) / k for k in range(1, 31)]
    tail = averages[14:]
    assert lyapunov_exponent(sys, x, 30) == (max(tail), min(tail))


@pytest.mark.parametrize("x", [0.5, 0.25, 0.125])
def test_staircase_lyapunov_raises_at_a_band_edge(x):
    # 2^-m is a fixed point where band m + 1 (slope 2m + 3) meets band m
    # (slope 2m + 1): f has no derivative there, as g3branch has none at 1/2
    with pytest.raises(SingularOrbitError,
                       match=f"hits branch endpoint {x}"):
        lyapunov_exponent(get_system("staircase"), interval(x), 50)


def test_toral_translocal_closed_form():
    eigs = get_system("cat").spectrum
    top = math.log(eigs[0][0])
    assert toral_translocal(eigs, 0.0) == pytest.approx(top)
    assert toral_translocal(eigs, 0.3) == pytest.approx(top - 0.3)
    assert toral_translocal(eigs, 2.0) == 0.0


def test_translocal_rejects_negative_omega():
    sys = get_system("tripling")
    with pytest.raises(ValueError):
        translocal_entropy(sys, circle(0.1), -0.2)


def test_symbolic_cell_is_exact_beyond_the_budget():
    # 2^14 words of 14 symbols, counted without enumerating them: n = 10 and
    # eps = 0.01 separate words that differ within 9 + log(100) symbols.  A
    # schedule's budget is read by no estimator.
    sys = get_system("fullshift:2")
    ball = Ball(word([0] * 24), 1.0)
    assert cell_log_count(sys, ball, 10, 0.01) == math.log(2 ** 14)
    sched = Schedule((6, 7, 8, 9), (0.05,), budget=64)
    est = restricted_entropy(sys, ball, sched)
    assert est.warning is None
    assert est.value == pytest.approx(math.log(2))


def test_toral_cell_is_exact_beyond_the_budget():
    # about 350,000 separated points along the unstable direction, counted
    # in closed form without samples
    sys = get_system("cat")
    ball = Ball(torus(0.1, 0.2), 0.3)
    stretch = ((1 + math.sqrt(5)) / 2) ** 2
    assert cell_log_count(sys, ball, 10, 0.01) == pytest.approx(
        math.log(2 * 0.3 * stretch ** 9 / 0.01), rel=0.01)


def test_nested_iterate_whole_circle_entropy():
    nested = iterate_system(iterate_system(get_system("tripling"), 2), 3)
    est = restricted_entropy(nested, Ball(circle(0.5), 0.5))
    assert est.value == pytest.approx(6 * LOG3, rel=0.10)


def test_1d_cell_without_branch_table_is_rejected():
    tableless = System("tripling", CIRCLE)
    with pytest.raises(ValueError):
        cell_log_count(tableless, Ball(circle(0.3), 0.1), 5, 0.01)


def test_cell_without_an_exact_count_is_rejected():
    # a torus map with no integer matrix has no closed-form cell
    matrixless = System(get_system("cat").name, TORUS)
    with pytest.raises(ValueError):
        cell_log_counts(matrixless, Ball(torus(0.1, 0.2), 0.1), 5, (0.01,))


def test_a_count_beyond_the_float_range_is_refused():
    # 2^1018 < 2^1024: the variation is a float, the count at eps = 0.01
    # is not, and HorizonExceededError names the system and n
    pm = get_system("pomeau-manneville")
    assert cell_log_counts(pm, Ball(interval(0.5), 0.5), 1017, (0.01,))
    with pytest.raises(HorizonExceededError,
                       match="'pomeau-manneville' at n = 1019 "):
        cell_log_counts(pm, Ball(interval(0.5), 0.5), 1019, (0.01,))
    # 3^642 / 0.01 passes 2^1024 (the whole circle's points, omega = 0)
    with pytest.raises(HorizonExceededError, match="'tripling' at n = 643 "):
        translocal_entropy(get_system("tripling"), circle(0.3), 0.0,
                           Schedule(tuple(range(630, 660))))
    # a toral count: |A^733 v| / 0.01 is a float, |A^734 v| / 0.01 is not,
    # and from n = 739 |A^(n-1) v| itself passes the float range
    cat, ball = get_system("cat"), Ball(torus(0.1, 0.2), 0.5)
    assert cell_log_counts(cat, ball, 733, (0.01,))
    for n in (734, 739):
        with pytest.raises(HorizonExceededError,
                           match=f"'toral:2,1;1,1' at n = {n} "):
            cell_log_counts(cat, ball, n, (0.01,))
    with pytest.raises(HorizonExceededError, match="at n = 734 "):
        translocal_entropy(cat, torus(0.1, 0.2), 0.0,
                           Schedule(tuple(range(730, 745))))


# whole circle, inside, split across 0 on either side, interval, an
# iterate, toral and full-shift cells
ALL_EPS_CASES = [("tripling", circle(0.3), 0.5),
                 ("tripling", circle(0.3), 0.1),
                 ("tripling", circle(0.02), 0.05),
                 ("tripling", circle(0.97), 0.05),
                 ("pomeau-manneville", interval(0.1), 0.2),
                 ("iterate:tripling:2", circle(0.6), 0.04),
                 ("cat", torus(0.1, 0.2), 0.3),
                 ("fullshift:2", word([0, 1, 1] * 8), 0.2)]


@pytest.mark.parametrize("sys_id,center,radius", ALL_EPS_CASES)
def test_all_eps_cell_equals_the_per_eps_cells(sys_id, center, radius):
    sys, ball = get_system(sys_id), Ball(center, radius)
    epsilons = (0.2, 0.05, 0.02, 0.013, 0.01, 0.001)
    for n in (1, 4, 9):
        got = cell_log_counts(sys, ball, n, epsilons)
        want = [cell_log_count(sys, ball, n, eps) for eps in epsilons]
        assert repr(got) == repr(want)


@pytest.mark.parametrize("epsilons", [(0.05,), (0.05, 0.02, 0.01),
                                      (0.1, 0.05, 0.03, 0.02, 0.01, 0.005)])
def test_translocal_pushes_each_cell_forward_once(monkeypatch, epsilons):
    # at most two pushforwards per n (a ball split across 0), for any eps count
    calls = []
    exact_variation = separated.exact_variation

    def counted(*args):
        calls.append(args)
        return exact_variation(*args)

    monkeypatch.setattr(separated, "exact_variation", counted)
    sched = Schedule(DEFAULT_SCHEDULE.n_values, epsilons)
    for z in (0.37, 0.001):
        calls.clear()
        translocal_entropy(get_system("tripling"), circle(z), 0.3, sched)
        assert 0 < len(calls) <= 2 * len(sched.n_values)


# ---------------------------------------------------------------------------
# Fitting: each curve once, at the reported eps only, against a reference
# that fits every eps and each mode on its own
# ---------------------------------------------------------------------------

def _ref_lstsq_slope(window):
    """Least-squares slope of (n, y) pairs, and the RMS residual."""
    k = len(window)
    n_bar = sum(n for n, _ in window) / k
    y_bar = sum(y for _, y in window) / k
    sxx = sum((n - n_bar) ** 2 for n, _ in window)
    slope = sum((n - n_bar) * (y - y_bar) for n, y in window) / sxx
    sse = sum((y_bar + slope * (n - n_bar) - y) ** 2 for n, y in window)
    return slope, math.sqrt(sse / k)


def _ref_growth_rate(log_counts, mode, clamp, eps):
    pts = sorted((int(n), float(v)) for n, v in log_counts)
    if len(pts) < 3:
        raise ValueError("growth_rate needs at least 3 data points")
    tail = pts[-max(3, (len(pts) + 1) // 2):]
    best = None
    for width in range(max(3, len(tail) - 1), len(tail) + 1):
        for lo in range(0, len(tail) - width + 1):
            window = tail[lo:lo + width]
            slope, resid = _ref_lstsq_slope(window)
            if best is None or (mode == "limsup" and slope > best[0]) \
                    or (mode == "liminf" and slope < best[0]):
                best = (slope, resid, (window[0][0], window[-1][0]))
    value, resid, win = best
    if clamp:
        value = max(value, 0.0)
    return RateEstimate(value, win, eps, resid, mode)


def _ref_curves(sys, ball_for_n, sched):
    curves = [[] for _ in sched.epsilons]
    for n in sched.n_values:
        ball = ball_for_n(n)
        if ball is None:
            continue
        for curve, logc in zip(curves, cell_log_counts(sys, ball, n,
                                                       sched.epsilons)):
            curve.append((n, logc))
    return curves


def _ref_trend(per_eps):
    final = per_eps[-1]
    trend = final.value - per_eps[-2].value if len(per_eps) > 1 else None
    return RateEstimate(final.value, final.n_window, final.eps,
                        final.residual, final.kind, trend, final.warning)


def _ref_restricted(sys, region, sched):
    return _ref_trend([_ref_growth_rate(c, "limsup", False, eps) for c, eps
                       in zip(_ref_curves(sys, lambda n: region, sched),
                              sched.epsilons)])


def _ref_yz(sys, x, deltas, sched):
    per_eps = [None] * len(sched.epsilons)
    for delta in deltas:
        curves = _ref_curves(sys, lambda n: Ball(x, delta), sched)
        for i, (c, eps) in enumerate(zip(curves, sched.epsilons)):
            est = _ref_growth_rate(c, "limsup", False, eps)
            if per_eps[i] is None or est.value < per_eps[i].value:
                per_eps[i] = est
    return _ref_trend(per_eps)


def _ref_translocal(sys, z, omega, sched):
    def ball_for_n(n):
        r = math.exp(-omega * n)
        return None if r < 1e-13 else Ball(z, r)

    pairs = list(zip(_ref_curves(sys, ball_for_n, sched), sched.epsilons))
    return tuple(_ref_trend([_ref_growth_rate(c, mode, True, eps)
                             for c, eps in pairs])
                 for mode in ("limsup", "liminf"))


FIT_POINTS = {"tripling": circle(0.37), "g3branch": circle(2.0 / 3.0),
              "pomeau-manneville": interval(0.3), "staircase": interval(0.7),
              "cat": torus(0.1, 0.2), "fullshift:2": word([0, 1, 1] * 8)}
FIT_EPSILONS = [(0.02,), (0.05, 0.01), (0.05, 0.02, 0.01),
                (0.1, 0.05, 0.03, 0.02, 0.01, 0.005)]


@pytest.mark.parametrize("epsilons", FIT_EPSILONS)
@pytest.mark.parametrize("sys_id", sorted(FIT_POINTS))
def test_estimators_equal_the_per_eps_per_mode_fits(sys_id, epsilons):
    sys, x = get_system(sys_id), FIT_POINTS[sys_id]
    sched = Schedule((4, 5, 6, 7, 8, 9, 10, 11), epsilons)
    for omega in (0.0, 0.3, 1.0):
        assert repr(translocal_entropy(sys, x, omega, sched)) \
            == repr(_ref_translocal(sys, x, omega, sched))
    deltas = (0.2, 0.05)
    assert repr(yz_entropy_function(sys, x, deltas, sched)) \
        == repr(_ref_yz(sys, x, deltas, sched))
    region = Ball(x, 0.25)
    assert repr(restricted_entropy(sys, region, sched)) \
        == repr(_ref_restricted(sys, region, sched))


ONE_BALL_CASES = [("tripling", circle(0.37), 0.1),
                  ("g3branch", circle(2.0 / 3.0), 0.04),
                  ("staircase", interval(0.7), 0.1),
                  ("iterate:tripling:2", circle(0.6), 0.04),
                  ("cat", torus(0.1, 0.2), 0.3),
                  ("fullshift:2", word([0, 1, 1] * 8), 0.2)]


@pytest.mark.parametrize("sys_id,x,radius", ONE_BALL_CASES)
def test_restricted_entropy_is_the_one_ball_yz_case(sys_id, x, radius):
    sys = get_system(sys_id)
    assert repr(restricted_entropy(sys, Ball(x, radius))) \
        == repr(yz_entropy_function(sys, x, (radius,)))


def test_an_open_symbolic_region_stays_open():
    # at radius e^-3 the open ball pins one symbol more than the closed
    # one, and the two curves fit to different records
    sys, x = get_system("fullshift:2"), word([0, 1, 1] * 8)
    sched = DEFAULT_SCHEDULE
    region = Ball(x, math.exp(-3.0), closed=False)
    got = restricted_entropy(sys, region, sched)
    assert repr(got) == repr(_ref_restricted(sys, region, sched))
    assert got != restricted_entropy(sys, Ball(x, math.exp(-3.0)), sched)


@pytest.mark.parametrize("epsilons", FIT_EPSILONS)
def test_translocal_fits_each_reported_curve_once(monkeypatch, epsilons):
    # 9 n-values leave a 5-point tail: windows 4, 4 and 5 wide, fitted once
    # for both bounds, for the last eps and the one before it
    fits = []
    window_slope = entropy._window_slope

    def counted(window, ys):
        fits.append(window)
        return window_slope(window, ys)

    monkeypatch.setattr(entropy, "_window_slope", counted)
    sched = Schedule(DEFAULT_SCHEDULE.n_values, epsilons)
    translocal_entropy(get_system("tripling"), circle(0.37), 0.3, sched)
    assert len(fits) == 3 * min(len(epsilons), 2)


# ---------------------------------------------------------------------------
# One pass per schedule: one walk per fixed ball, one design per n-tuple,
# one eigendecomposition per toral curve
# ---------------------------------------------------------------------------

# (system, centre, radius, interval pieces of the ball)
FIXED_BALLS = [("staircase", interval(0.3), 0.02, 1),
               ("g3branch", circle(0.5), 0.1, 1),
               ("g3branch", circle(0.02), 0.05, 2),
               ("iterate:tripling:2", circle(0.97), 0.05, 2),
               ("tripling", circle(0.3), 0.5, 1)]


@pytest.mark.parametrize("n_values", [(4, 5, 6), tuple(range(6, 15)),
                                      tuple(range(10, 41))])
@pytest.mark.parametrize("sys_id,center,radius,pieces", FIXED_BALLS)
def test_fixed_balls_walk_once_per_piece(monkeypatch, sys_id, center,
                                         radius, pieces, n_values):
    # an iterate's walk recurses into its base system; only the calls the
    # estimators make are counted
    calls = []
    exact_variations = separated.exact_variations
    sys, sched = get_system(sys_id), Schedule(n_values)

    def counted(walked, lo, hi, ns):
        if walked is sys:
            calls.append(tuple(ns))
        return exact_variations(walked, lo, hi, ns)

    monkeypatch.setattr(separated, "exact_variations", counted)
    restricted_entropy(sys, Ball(center, radius), sched)
    assert calls == [n_values] * pieces
    calls.clear()
    # a ladder of three neighbourhoods, each the same ball
    yz_entropy_function(sys, center, (radius,) * 3, sched)
    assert calls == [n_values] * pieces * 3


@pytest.mark.parametrize("data", [[(n, 0.5 * n) for n in (6, 6, 7, 8)],
                                  [(6, 3.0), (7, 3.5)]])
def test_a_bad_curve_raises_on_every_call(data):
    # the window design is cached per n-tuple, its errors are not
    for _ in range(3):
        with pytest.raises(ValueError):
            growth_rates(data)
    assert entropy._tail_windows.cache_info().maxsize is not None


def test_window_design_is_cached_per_n_tuple():
    entropy._tail_windows.cache_clear()
    for omega in (0.0, 0.5, 1.0):
        translocal_entropy(get_system("tripling"), circle(0.37), omega)
    info = entropy._tail_windows.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


@pytest.mark.parametrize("sys_id,eigs", [
    pytest.param("cat", [], id="cat"),
    pytest.param("toral:2,0;0,3", [], id="toral:2,0;0,3"),
    pytest.param("toral:2,1,0;1,1,0;0,0,3", ["eig"],
                 id="toral:2,1,0;1,1,0;0,0,3")])
def test_toral_curve_takes_one_eigendecomposition(monkeypatch, sys_id, eigs):
    # a 2-torus takes its eigen data in closed form, a larger one from one
    # eig when it is built; no curve or call takes another
    calls = []
    for name in ("eig", "eigvals"):
        def counted(a, fn=getattr(np.linalg, name), name=name):
            calls.append(name)
            return fn(a)

        monkeypatch.setattr(np.linalg, name, counted)
    sys, z = get_system(sys_id), torus(0.1, 0.2)
    assert calls == eigs
    translocal_entropy(sys, z, 0.3)
    restricted_entropy(sys, Ball(z, 0.3))
    lyapunov_exponent(sys, z, 10)
    assert calls == eigs
