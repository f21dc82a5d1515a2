"""Entropy estimators: restricted entropy on compact sets, the local entropy
function with small closed neighbourhoods, upper/lower translocal entropy on
balls shrinking like exp(-omega*n), Lyapunov exponents and the closed-form
toral value.

Every limsup/liminf is replaced by a finite surrogate: closed-form
least-squares slopes of log separated counts over windows in the tail of the
n-schedule (upper = max window slope, lower = min), with the eps-ladder
handled by reporting the smallest-eps value together with the first-difference
trend.  One walk over the tail windows fits each window once and keeps both
extremes, and only the reported eps (the last one and the one before it) are
counted and fitted.  The estimators walk the n-schedule on the outside: each
(ball, n) cell is built once and counted for every reported eps, since a 1D
or toral cell's image variation does not depend on eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import separated
from .maps import System, log_derivative_sums, toral_eigen_data
from .separated import separation_prefix_length
from .spaces import (CIRCLE, INTERVAL, SYMBOLIC, TORUS, Ball, Metric, Point,
                     pinned_symbols, sample_grid)

DEFAULT_DELTAS = (0.04, 0.02, 0.01)


@dataclass(frozen=True)
class Schedule:
    """Finite surrogate for the simultaneous limits n -> inf, eps -> 0."""

    n_values: tuple = (6, 7, 8, 9, 10, 11, 12, 13, 14)
    epsilons: tuple = (0.05, 0.02, 0.01)
    budget: int = 5_000_000        # points of a sampled (disk) cell grid

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
    if len(pts) < 3:
        raise ValueError("growth_rate needs at least 3 data points")
    _require_distinct([n for n, _ in pts])
    tail = pts[-max(3, (len(pts) + 1) // 2):]
    upper = lower = None
    for width in range(max(3, len(tail) - 1), len(tail) + 1):
        for lo in range(0, len(tail) - width + 1):
            window = tail[lo:lo + width]
            slope, resid = _lstsq_slope(window)
            fit = (slope, resid, (window[0][0], window[-1][0]))
            if upper is None or slope > upper[0]:
                upper = fit
            if lower is None or slope < lower[0]:
                lower = fit
    return (_estimate(upper, "limsup", clamp, eps),
            _estimate(lower, "liminf", clamp, eps))


def _estimate(fit, mode, clamp, eps) -> RateEstimate:
    value, resid, win = fit
    if clamp:
        value = max(value, 0.0)
    return RateEstimate(value, win, eps, resid, mode)


def _require_distinct(n_values) -> None:
    """Reject a window with a repeated n or with a single n: its n-spread is
    0, so it has no least-squares slope."""
    if len(n_values) < 2 or len(set(n_values)) != len(n_values):
        raise ValueError(
            f"window {tuple(n_values)} needs two or more distinct n")


def _lstsq_slope(window):
    """Least-squares slope of (n, y) pairs with distinct n, and the RMS
    residual of the fitted line."""
    k = len(window)
    n_bar = sum(n for n, _ in window) / k
    y_bar = sum(y for _, y in window) / k
    sxx = sum((n - n_bar) ** 2 for n, _ in window)
    slope = sum((n - n_bar) * (y - y_bar) for n, y in window) / sxx
    sse = sum((y_bar + slope * (n - n_bar) - y) ** 2 for n, y in window)
    return slope, math.sqrt(sse / k)


# ---------------------------------------------------------------------------
# Separation curves (one cell per (ball, n), counted for every eps)
# ---------------------------------------------------------------------------

def cell_log_count(sys: System, ball: Ball, n: int, eps: float,
                   budget: int) -> tuple[float, bool]:
    """log of the (n, eps)-separated count inside `ball`, and whether the
    cell was capped: `cell_log_counts` for the one eps."""
    return cell_log_counts(sys, ball, n, (eps,), budget)[0]


def cell_log_counts(sys: System, ball: Ball, n: int, epsilons,
                    budget: int) -> list[tuple[float, bool]]:
    """[(log of the (n, eps)-separated count inside `ball`, capped)] for
    each eps of `epsilons`; the eps-free part of the cell is built once.

    1D, toral and symbolic cells are counted exactly and never capped; only
    the sampled grid of any other system (the disk) is bounded by `budget`.
    """
    space = sys.space
    if space in (CIRCLE, INTERVAL):
        return _cell_1d(sys, ball, n, epsilons)
    if space == TORUS and sys.matrix is not None:
        return _cell_toral(sys, ball, n, epsilons)
    if space == SYMBOLIC:
        return _cell_symbolic(sys, ball, n, epsilons)
    return [_cell_generic(sys, ball, n, eps, budget) for eps in epsilons]


def _cell_1d(sys: System, ball: Ball, n: int,
             epsilons) -> list[tuple[float, bool]]:
    # exact count from the branch pushforward; never capped
    radius = min(ball.radius, 0.5) if sys.space == CIRCLE else ball.radius
    c = ball.center.coords[0]
    wrap = False
    if sys.space == CIRCLE:
        if radius >= 0.5 - 1e-15:
            tv = separated.exact_variation(sys, 0.0, 1.0, n)
            wrap = True
        else:
            lo, hi = c - radius, c + radius
            if lo < 0.0:
                tv = separated.exact_variation(sys, 0.0, hi, n) \
                    + separated.exact_variation(sys, lo + 1.0, 1.0, n)
            elif hi > 1.0:
                tv = separated.exact_variation(sys, lo, 1.0, n) \
                    + separated.exact_variation(sys, 0.0, hi - 1.0, n)
            else:
                tv = separated.exact_variation(sys, lo, hi, n)
    else:
        tv = separated.exact_variation(sys, max(c - radius, 0.0),
                                       min(c + radius, 1.0), n)
    tv *= 1.0 - 1e-12
    return [(math.log(max(int(tv / eps), 1) if wrap else int(tv / eps) + 1),
             False) for eps in epsilons]


def _real_eigenbasis(matrix):
    """(modulus, sup-normalized real direction) pairs, expanding first."""
    a = np.asarray(matrix, dtype=float)
    vals, vecs = np.linalg.eig(a)
    out = []
    used = set()
    for i, lam in enumerate(vals):
        if i in used:
            continue
        if abs(lam.imag) > 1e-12:
            j = int(np.argmin(np.abs(vals - lam.conjugate())))
            used.add(j)
            for v in (vecs[:, i].real, vecs[:, i].imag):
                nrm = np.abs(v).max()
                if nrm > 1e-12:
                    out.append((abs(lam), v / nrm))
        else:
            v = vecs[:, i].real
            out.append((abs(lam), v / np.abs(v).max()))
    out.sort(key=lambda t: -t[0])
    return out


def _cell_toral(sys: System, ball: Ball, n: int,
                epsilons) -> list[tuple[float, bool]]:
    """Product of the greedy counts along the expanding eigendirections.

    A linear map sends the segment z + t*v (|t| <= r) onto a segment along
    A^(n-1) v, so its sup-norm image variation is exactly
    2r * |A^(n-1) v|_inf and the count along it needs no samples.
    Contracting directions stop contributing separated points once the ball
    outruns eps.
    """
    radius = min(ball.radius, 0.5)
    power = np.linalg.matrix_power(np.asarray(sys.matrix, dtype=float), n - 1)
    tvs = [2 * radius * float(np.abs(power @ vec).max()) * (1.0 - 1e-12)
           for modulus, vec in _real_eigenbasis(sys.matrix)
           if modulus > 1.0 + 1e-12]
    out = []
    for eps in epsilons:
        log_total = 0.0
        for tv in tvs:
            log_total += math.log(int(tv / eps) + 1)
        out.append((log_total, False))
    return out


def _cell_symbolic(sys: System, ball: Ball, n: int,
                   epsilons) -> list[tuple[float, bool]]:
    """k^(free prefix symbols): words are (n, eps)-separated iff they differ
    within their first `plen` symbols, and the ball pins the first `m_fixed`
    of them to the centre's.  This is the distinct-prefix count of the word
    grid at resolution beta^-plen, whose words have max(plen, 1) symbols."""
    m = Metric(SYMBOLIC, alphabet=sys.alphabet or 2)
    m_fixed = pinned_symbols(ball, m)
    out = []
    for eps in epsilons:
        free = max(separation_prefix_length(n, eps, m.beta) - m_fixed, 0)
        out.append((math.log(m.alphabet ** free), False))
    return out


def _cell_generic(sys: System, ball: Ball, n: int, eps: float,
                  budget: int) -> tuple[float, bool]:
    cap = min(budget, 3000)
    maxsum = (sys.max_log_slope or 0.0) * (n - 1)
    ideal = eps * math.exp(-maxsum)
    d = len(ball.center.coords)
    extent = 2 * ball.radius
    capped = False
    res = ideal
    if (extent / res) ** d > cap:
        res = extent / cap ** (1.0 / d)
        capped = True
    res = min(res, ball.radius)
    grid = sample_grid(ball, res, cap=4 * cap)
    count, _ = separated.pairwise_count(sys, grid.coords, n, eps)
    return math.log(count), capped


def _separation_curves(sys: System, ball_for_n, sched: Schedule):
    """One ([(n, log count, capped)], eps) pair per reported eps (see
    `_reported`), with an n-dependent ball; each (ball, n) cell is built
    once for all of them."""
    epsilons = _reported(sched)
    curves = [[] for _ in epsilons]
    for n in sched.n_values:
        ball = ball_for_n(n)
        if ball is None:
            continue
        cells = cell_log_counts(sys, ball, n, epsilons, sched.budget)
        for curve, (logc, capped) in zip(curves, cells):
            curve.append((n, logc, capped))
    return list(zip(curves, epsilons))


def _reported(sched: Schedule) -> tuple:
    """The eps an estimate reads: the last (smallest) one, whose value it
    reports, and the one before it, for the eps trend."""
    return tuple(sched.epsilons[-2:])


def _rates_from_curve(curve, clamp, eps):
    """(upper, lower) rates of one curve; capped cells are left out while
    three or more uncapped cells remain."""
    usable = [(n, v) for n, v, capped in curve if not capped]
    warning = None
    if len(usable) < 3:
        usable = [(n, v) for n, v, _ in curve]
        warning = "fewer than 3 uncapped cells; capped counts included"
    rates = growth_rates(usable, clamp=clamp, eps=eps)
    if warning:
        rates = tuple(RateEstimate(est.value, est.n_window, est.eps,
                                   est.residual, est.kind, est.eps_trend,
                                   warning) for est in rates)
    return rates


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def restricted_entropy(sys: System, region: Ball,
                       sched: Schedule = DEFAULT_SCHEDULE) -> RateEstimate:
    """Growth rate of separated counts inside a fixed compact ball."""
    curves = _separation_curves(sys, lambda n: region, sched)
    return _with_eps_trend([_rates_from_curve(curve, False, eps)[0]
                            for curve, eps in curves])


def _with_eps_trend(per_eps):
    """The last estimate of `per_eps`, with its difference from the one
    before it (if any) as the eps trend."""
    final = per_eps[-1]
    trend = None
    if len(per_eps) > 1:
        trend = final.value - per_eps[-2].value
    return RateEstimate(final.value, final.n_window, final.eps, final.residual,
                        final.kind, trend, final.warning)


def yz_entropy_function(sys: System, x: Point,
                        deltas=DEFAULT_DELTAS,
                        sched: Schedule = DEFAULT_SCHEDULE) -> RateEstimate:
    """Local entropy at x: infimum over shrinking closed neighbourhoods of
    the restricted growth rate, with eps -> 0 taken last."""
    if list(deltas) != sorted(deltas, reverse=True):
        raise ValueError("delta ladder must be descending")
    per_eps = [None] * len(_reported(sched))
    for delta in deltas:
        ball = Ball(x, delta)
        curves = _separation_curves(sys, lambda n: ball, sched)
        for i, (curve, eps) in enumerate(curves):
            est = _rates_from_curve(curve, False, eps)[0]
            if per_eps[i] is None or est.value < per_eps[i].value:
                per_eps[i] = est
    return _with_eps_trend(per_eps)


def translocal_entropy(sys: System, z: Point, omega: float,
                       sched: Schedule = DEFAULT_SCHEDULE
                       ) -> tuple[RateEstimate, RateEstimate]:
    """Upper/lower growth rates on closed balls of radius exp(-omega*n),
    clamped at zero; each curve is fitted once for both."""
    if omega < 0:
        raise ValueError("omega must be >= 0")

    def ball_for_n(n):
        r = math.exp(-omega * n)
        if r < 1e-13:
            return None     # below representable sample resolution
        return Ball(z, r)

    rates = [_rates_from_curve(curve, True, eps)
             for curve, eps in _separation_curves(sys, ball_for_n, sched)]
    return (_with_eps_trend([upper for upper, _ in rates]),
            _with_eps_trend([lower for _, lower in rates]))


def lyapunov_exponent(sys: System, x: Point, n: int) -> tuple[float, float]:
    """Upper/lower surrogates of (1/k) log|Df^k(x)| over the tail window."""
    if sys.matrix is not None:
        top = math.log(toral_eigen_data(sys)[0][0])
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

