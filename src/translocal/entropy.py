"""Entropy estimators: restricted entropy on compact sets, the local entropy
function with small closed neighbourhoods, upper/lower translocal entropy on
balls shrinking like exp(-omega*n), Lyapunov exponents and the closed-form
toral value.

Every limsup/liminf is replaced by a finite surrogate: closed-form
least-squares slopes of log separated counts over windows in the tail of the
n-schedule (upper = max window slope, lower = min), with the eps-ladder
handled by reporting the smallest-eps value together with the first-difference
trend.  One walk over the tail windows fits each window once and keeps both
extremes; the windows' n-deviations and spreads are built once per n-tuple,
and only the two kept windows get a residual.  Only the reported eps (the
last one and the one before it) are counted and fitted.  Each estimator is
one pass over its schedule: a fixed 1D ball is pushed forward by one branch
walk to the largest n, a shrinking 1D cell is priced from its centre and
radius directly, a toral cell reads the expanding directions its system
derived when it was built, and every cell is counted for every reported
eps at once, since a cell's image variation does not depend on eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import mul, sub
from typing import NamedTuple

from . import separated
from .maps import System, log_derivative_sums
from .separated import separation_prefix_length
from .spaces import (CIRCLE, INTERVAL, SYMBOLIC, TORUS, Ball, Metric, Point,
                     pinned_symbols)

DEFAULT_DELTAS = (0.04, 0.02, 0.01)


@dataclass(frozen=True)
class Schedule:
    """Finite surrogate for the simultaneous limits n -> inf, eps -> 0.

    Every cell is counted in closed form, so no estimator reads `budget`.
    It remains only so that a Schedule built positionally from three
    fields, as the benchmark pass runner builds it, still constructs.
    """

    n_values: tuple = (6, 7, 8, 9, 10, 11, 12, 13, 14)
    epsilons: tuple = (0.05, 0.02, 0.01)
    budget: int = 5_000_000

    def __post_init__(self):
        ns = self.n_values
        if any(n < 1 for n in ns) or any(a >= b for a, b in zip(ns, ns[1:])):
            raise ValueError("n_values must be strictly ascending and >= 1")
        if list(self.epsilons) != sorted(self.epsilons, reverse=True):
            raise ValueError("epsilons must be descending")
        if self.budget <= 0:
            raise ValueError("budget must be positive")


DEFAULT_SCHEDULE = Schedule()


@dataclass(frozen=True)
class RateEstimate:
    """A growth-rate value with the window metadata that produced it."""

    value: float
    n_window: tuple
    eps: float | None
    residual: float
    kind: str                      # "limsup" | "liminf"
    eps_trend: float | None = None
    warning: str | None = None


def growth_rate(log_counts, mode: str = "limsup", clamp: bool = False,
                eps: float | None = None) -> RateEstimate:
    """Slope surrogate for limsup/liminf (1/n) log S over the tail window."""
    if mode not in ("limsup", "liminf"):
        raise ValueError(f"mode must be 'limsup' or 'liminf', not {mode!r}")
    upper, lower = growth_rates(log_counts, clamp, eps)
    return upper if mode == "limsup" else lower


def growth_rates(log_counts, clamp: bool = False, eps: float | None = None
                 ) -> tuple[RateEstimate, RateEstimate]:
    """(limsup, liminf) slope surrogates from one walk over the tail
    windows: each window is fitted once, and the first window with the
    largest (smallest) slope gives the upper (lower) estimate."""
    pts = sorted((int(n), float(v)) for n, v in log_counts)
    ys = [v for _, v in pts]
    # n-tuples are built from lists: CPython resizes a tuple grown from an
    # iterator and keeps it on its free list when freed, so a pass of short
    # calls would pile them up and raise peak RSS
    upper, lower = _extreme_fits(tuple([n for n, _ in pts]), ys)
    return (_rate(upper, ys, "limsup", clamp, eps),
            _rate(lower, ys, "liminf", clamp, eps))


def _extreme_fits(ns: tuple, ys) -> tuple:
    """(upper, lower) (slope, mean, window) fits: the first tail window
    with the largest and with the smallest slope of ys against ns."""
    upper = lower = None
    for window in _tail_windows(ns):
        slope, y_bar = _window_slope(window, ys)
        if upper is None or slope > upper[0]:
            upper = (slope, y_bar, window)
        if lower is None or slope < lower[0]:
            lower = (slope, y_bar, window)
    return upper, lower


def _rate(fit, ys, mode: str, clamp: bool, eps, eps_trend=None
          ) -> RateEstimate:
    """The estimate of one kept fit; only here is a residual computed."""
    slope, y_bar, window = fit
    return RateEstimate(_value(fit, clamp), window.span, eps,
                        _window_residual(window, ys, slope, y_bar), mode,
                        eps_trend)


def _value(fit, clamp: bool) -> float:
    return max(fit[0], 0.0) if clamp else fit[0]


def _require_distinct(n_values) -> None:
    """Reject a window with a repeated n or with a single n: its n-spread is
    0, so it has no least-squares slope."""
    if len(n_values) < 2 or len(set(n_values)) != len(n_values):
        raise ValueError(
            f"window {tuple(n_values)} needs two or more distinct n")


class _Window(NamedTuple):
    """The n-side of one least-squares window: points start..stop - 1 of a
    curve, their deviations n - n_bar, and sxx = sum of their squares."""

    start: int
    stop: int
    devs: tuple
    sxx: float
    span: tuple                    # (first n, last n)


def _window(ns: tuple, start: int, stop: int) -> _Window:
    """The window over ns[start:stop], whose n are distinct."""
    part = ns[start:stop]
    n_bar = sum(part) / len(part)
    devs = tuple(n - n_bar for n in part)
    return _Window(start, stop, devs, sum(d ** 2 for d in devs),
                  (part[0], part[-1]))


@lru_cache(maxsize=64)
def _tail_windows(ns: tuple) -> tuple:
    """The windows `growth_rates` fits over a curve with these ascending n:
    every run of the last max(3, ceil(k/2)) points that leaves out at most
    one of them (and is at least 3 wide), narrowest first.  Built once per
    n-tuple; a tuple with fewer than 3 or repeated n raises on every call,
    since exceptions are not cached."""
    if len(ns) < 3:
        raise ValueError("growth_rate needs at least 3 data points")
    _require_distinct(ns)
    tail = max(3, (len(ns) + 1) // 2)
    first = len(ns) - tail
    return tuple(_window(ns, first + lo, first + lo + width)
                 for width in range(max(3, tail - 1), tail + 1)
                 for lo in range(0, tail - width + 1))


def _window_slope(window: _Window, ys) -> tuple[float, float]:
    """(least-squares slope, mean) of ys[start:stop] against the window's
    n: sum((n - n_bar)(y - y_bar)) / sxx."""
    part = ys[window.start:window.stop]
    y_bar = sum(part) / len(part)
    return (sum(map(mul, window.devs, map(sub, part, repeat(y_bar))))
            / window.sxx, y_bar)


def _window_residual(window: _Window, ys, slope: float, y_bar: float
                     ) -> float:
    """RMS residual of ys[start:stop] about the fitted line."""
    part = ys[window.start:window.stop]
    sse = sum([(y_bar + slope * d - y) ** 2
               for d, y in zip(window.devs, part)])
    return math.sqrt(sse / len(part))


# ---------------------------------------------------------------------------
# Separation curves (each cell counted for every reported eps at once)
# ---------------------------------------------------------------------------

def cell_log_count(sys: System, ball: Ball, n: int, eps: float) -> float:
    """log of the (n, eps)-separated count inside `ball`:
    `cell_log_counts` for the one eps."""
    return cell_log_counts(sys, ball, n, (eps,))[0]


def cell_log_counts(sys: System, ball: Ball, n: int, epsilons) -> list[float]:
    """[log of the (n, eps)-separated count inside `ball`] for each eps of
    `epsilons`: the one-n case of `_ball_rows`.

    1D, toral and symbolic cells are counted exactly; any other system has
    no exact count and raises ValueError.
    """
    return _ball_rows(sys, ball, (n,), epsilons)[0]


def _ball_rows(sys: System, ball: Ball, n_values, epsilons) -> list[list]:
    """[[log count for each eps] for each n of `n_values`] inside one fixed
    ball; the parts of the cells that depend on neither eps nor n are built
    once."""
    space = sys.space
    if space in (CIRCLE, INTERVAL):
        pieces, whole = _pieces_1d(space, ball.center.coords[0], ball.radius)
        per_piece = [separated.exact_variations(sys, lo, hi, n_values)
                     for lo, hi in pieces]
        return [_log_counts_1d(sum(tvs), whole, epsilons)
                for tvs in zip(*per_piece)]
    if space == TORUS and sys.matrix is not None:
        return _toral_rows(sys, [(n, ball.radius) for n in n_values],
                           epsilons)
    if space == SYMBOLIC:
        m = Metric(SYMBOLIC, alphabet=sys.alphabet or 2)
        m_fixed = pinned_symbols(ball, m)
        return [_symbolic_row(n, m, m_fixed, epsilons) for n in n_values]
    raise ValueError(f"system {sys.name!r} has no exact cell count")


def _pieces_1d(space: str, c: float, radius: float):
    """The pieces of the 1D ball of centre c and `radius` that the branch
    walk pushes forward, in summation order, and whether the ball is the
    whole circle."""
    if space == CIRCLE:
        radius = min(radius, 0.5)
        if radius >= 0.5 - 1e-15:
            return ((0.0, 1.0),), True
        lo, hi = c - radius, c + radius
        if lo < 0.0:
            return ((0.0, hi), (lo + 1.0, 1.0)), False
        if hi > 1.0:
            return ((lo, 1.0), (0.0, hi - 1.0)), False
        return ((lo, hi),), False
    return ((max(c - radius, 0.0), min(c + radius, 1.0)),), False


def _log_counts_1d(tv: float, whole: bool, epsilons) -> list[float]:
    """Exact 1D counts from the image variation of the ball: a whole
    circle's points lie on a cycle of circumference tv."""
    tv *= 1.0 - 1e-12
    if whole:
        return [math.log(max(int(tv / eps), 1)) for eps in epsilons]
    return [math.log(int(tv / eps) + 1) for eps in epsilons]


def _toral_rows(sys: System, cells, epsilons) -> list[list]:
    """Product of the greedy counts along the expanding eigendirections, for
    each (n, radius) of `cells`.

    A linear map sends the segment z + t*v (|t| <= r) onto a segment along
    A^(n-1) v, so its sup-norm image variation is exactly
    2r * |A^(n-1) v|_inf and the count along it needs no samples.
    Contracting directions stop contributing separated points once the ball
    outruns eps.
    """
    import numpy as np
    a = np.asarray(sys.matrix, dtype=float)
    rows = []
    for n, radius in cells:
        radius = min(radius, 0.5)
        power = np.linalg.matrix_power(a, n - 1)
        tvs = [2 * radius * float(np.abs(power @ vec).max()) * (1.0 - 1e-12)
               for vec in sys.expanding]
        row = []
        for eps in epsilons:
            log_total = 0.0
            for tv in tvs:
                log_total += math.log(int(tv / eps) + 1)
            row.append(log_total)
        rows.append(row)
    return rows


def _symbolic_row(n: int, m: Metric, m_fixed: int, epsilons) -> list[float]:
    """k^(free prefix symbols): words are (n, eps)-separated iff they differ
    within their first `plen` symbols, and the ball pins the first `m_fixed`
    of them to the centre's.  This is the distinct-prefix count of the word
    grid at resolution beta^-plen, whose words have max(plen, 1) symbols."""
    return [math.log(m.alphabet ** max(
                separation_prefix_length(n, eps, m.beta) - m_fixed, 0))
            for eps in epsilons]


def _columns(rows, epsilons) -> list[tuple]:
    """Per-eps log-count columns of per-n rows."""
    return list(zip(*rows)) or [() for _ in epsilons]


def _reported(sched: Schedule) -> tuple:
    """The eps an estimate reads: the last (smallest) one, whose value it
    reports, and the one before it, for the eps trend."""
    return tuple(sched.epsilons[-2:])


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def restricted_entropy(sys: System, region: Ball,
                       sched: Schedule = DEFAULT_SCHEDULE) -> RateEstimate:
    """Growth rate of separated counts inside a fixed compact ball."""
    epsilons = _reported(sched)
    ns = tuple([int(n) for n in sched.n_values])
    columns = _columns(_ball_rows(sys, region, ns, epsilons), epsilons)
    return _with_eps_trend([(_extreme_fits(ns, ys)[0], ys, eps)
                            for ys, eps in zip(columns, epsilons)],
                           "limsup", False)


def _with_eps_trend(per_eps, mode: str, clamp: bool) -> RateEstimate:
    """The estimate of the last (fit, ys, eps) of `per_eps`, with the
    difference of its value from the one before it (if any) as the eps
    trend."""
    fit, ys, eps = per_eps[-1]
    trend = None
    if len(per_eps) > 1:
        trend = _value(fit, clamp) - _value(per_eps[-2][0], clamp)
    return _rate(fit, ys, mode, clamp, eps, trend)


def yz_entropy_function(sys: System, x: Point,
                        deltas=DEFAULT_DELTAS,
                        sched: Schedule = DEFAULT_SCHEDULE) -> RateEstimate:
    """Local entropy at x: infimum over shrinking closed neighbourhoods of
    the restricted growth rate, with eps -> 0 taken last."""
    if list(deltas) != sorted(deltas, reverse=True):
        raise ValueError("delta ladder must be descending")
    epsilons = _reported(sched)
    ns = tuple([int(n) for n in sched.n_values])
    per_eps = [None] * len(epsilons)
    for delta in deltas:
        rows = _ball_rows(sys, Ball(x, delta), ns, epsilons)
        for i, ys in enumerate(_columns(rows, epsilons)):
            fit = _extreme_fits(ns, ys)[0]
            if per_eps[i] is None or fit[0] < per_eps[i][0][0]:
                per_eps[i] = (fit, ys, epsilons[i])
    return _with_eps_trend(per_eps, "limsup", False)


def translocal_entropy(sys: System, z: Point, omega: float,
                       sched: Schedule = DEFAULT_SCHEDULE
                       ) -> tuple[RateEstimate, RateEstimate]:
    """Upper/lower growth rates on closed balls of radius exp(-omega*n),
    clamped at zero; each curve is fitted once for both.

    A radius below 1e-13 (below representable sample resolution) drops its
    n.  A 1D cell is priced from the centre and radius directly."""
    if omega < 0:
        raise ValueError("omega must be >= 0")
    cells = [(n, r) for n in sched.n_values
             if (r := math.exp(-omega * n)) >= 1e-13]
    epsilons = _reported(sched)
    space = sys.space
    if space in (CIRCLE, INTERVAL):
        c = z.coords[0]
        rows = []
        for n, r in cells:
            pieces, whole = _pieces_1d(space, c, r)
            tv = 0
            for lo, hi in pieces:
                tv += separated.exact_variation(sys, lo, hi, n)
            rows.append(_log_counts_1d(tv, whole, epsilons))
    elif space == TORUS and sys.matrix is not None:
        rows = _toral_rows(sys, cells, epsilons)
    else:
        rows = [cell_log_counts(sys, Ball(z, r), n, epsilons)
                for n, r in cells]
    ns = tuple([int(n) for n, _ in cells])
    columns = _columns(rows, epsilons)
    upper, lower = zip(*(_extreme_fits(ns, ys) for ys in columns))
    return (_with_eps_trend(list(zip(upper, columns, epsilons)), "limsup",
                            True),
            _with_eps_trend(list(zip(lower, columns, epsilons)), "liminf",
                            True))


def lyapunov_exponent(sys: System, x: Point, n: int) -> tuple[float, float]:
    """Upper/lower surrogates of (1/k) log|Df^k(x)| over the tail window."""
    if sys.matrix is not None:
        top = math.log(sys.spectrum[0][0])
        return top, top
    averages = [total / k for k, total in
                enumerate(log_derivative_sums(sys, x, n), start=1)]
    tail = averages[max(len(averages) // 2, 1) - 1:]
    return max(tail), min(tail)


def toral_translocal(eigs, omega: float) -> float:
    """sum over eigenvalues with log-modulus >= omega of (log|lam| - omega)."""
    total = 0.0
    for modulus, mult in eigs:
        lm = math.log(modulus)
        if lm >= omega:
            total += mult * (lm - omega)
    return total

