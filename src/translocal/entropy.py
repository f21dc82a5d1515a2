"""Entropy estimators: restricted entropy on compact sets, the local entropy
function with small closed neighbourhoods, upper/lower translocal entropy on
balls shrinking like exp(-omega*n), Lyapunov exponents and the closed-form
toral value.

Every limsup/liminf is replaced by a finite surrogate: least-squares slopes
of log separated counts over windows in the tail of the n-schedule (upper =
max window slope, lower = min), with the eps-ladder handled by reporting the
smallest-eps value together with the first-difference trend.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import separated
from .errors import BudgetExceededError
from .maps import System, log_derivative_sums, toral_eigen_data
from .separated import separation_prefix_length
from .spaces import (CIRCLE, INTERVAL, SYMBOLIC, TORUS, Ball, Metric, Point,
                     sample_grid, symbolic_grid)

DEFAULT_DELTAS = (0.04, 0.02, 0.01)


@dataclass(frozen=True)
class Schedule:
    """Finite surrogate for the simultaneous limits n -> inf, eps -> 0."""

    n_values: tuple = (6, 7, 8, 9, 10, 11, 12, 13, 14)
    epsilons: tuple = (0.05, 0.02, 0.01)
    budget: int = 5_000_000

    def __post_init__(self):
        if list(self.n_values) != sorted(self.n_values):
            raise ValueError("n_values must be ascending")
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
    pts = sorted((int(n), float(v)) for n, v in log_counts)
    if len(pts) < 3:
        raise ValueError("growth_rate needs at least 3 data points")
    tail = pts[-max(3, (len(pts) + 1) // 2):]
    best = None
    for width in range(max(3, len(tail) - 1), len(tail) + 1):
        for lo in range(0, len(tail) - width + 1):
            window = tail[lo:lo + width]
            slope, resid = _lstsq_slope(window)
            if best is None or (mode == "limsup" and slope > best[0]) \
                    or (mode == "liminf" and slope < best[0]):
                best = (slope, resid, (window[0][0], window[-1][0]))
    value, resid, win = best
    if clamp:
        value = max(value, 0.0)
    return RateEstimate(value, win, eps, resid, mode)


def _lstsq_slope(window):
    ns = np.array([n for n, _ in window], dtype=float)
    ys = np.array([v for _, v in window])
    a = np.stack([ns, np.ones_like(ns)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(a, ys, rcond=None)
    resid = float(np.sqrt(np.mean((a @ coef - ys) ** 2)))
    return float(coef[0]), resid


# ---------------------------------------------------------------------------
# Separation curves (one cell per (n, eps))
# ---------------------------------------------------------------------------

def cell_log_count(sys: System, ball: Ball, n: int, eps: float,
                   budget: int) -> tuple[float, bool]:
    """log of the greedy separated count inside `ball`; flags capped cells."""
    space = sys.space
    if space in (CIRCLE, INTERVAL):
        return _cell_1d(sys, ball, n, eps, budget)
    if space == TORUS and sys.matrix is not None:
        return _cell_toral(sys, ball, n, eps, budget)
    if space == SYMBOLIC:
        return _cell_symbolic(sys, ball, n, eps, budget)
    return _cell_generic(sys, ball, n, eps, budget)


def _probe_max_logsum(sys: System, ball: Ball, n: int) -> float:
    if sys.log_slope_many is None:
        return (sys.max_log_slope or 0.0) * max(n - 1, 0)
    c = ball.center.coords[0]
    fracs = np.array([-1, -0.7, -0.45, -0.25, -0.12, -0.05, -0.02, -0.005,
                      0.0, 0.005, 0.02, 0.05, 0.12, 0.25, 0.45, 0.7, 1.0])
    probes = c + fracs * ball.radius
    if sys.space == CIRCLE:
        probes = probes % 1.0
    else:
        probes = np.clip(probes, 0.0, 1.0)
    for b in sys.breakpoints:
        near = np.abs(probes - b) < 1e-12
        probes[near] += 1e-9
    total = np.zeros_like(probes)
    cur = probes.reshape(-1, 1)
    for _ in range(max(n - 1, 0)):
        total += sys.log_slope_many(cur)
        cur = sys.step_many(cur)
    total = total[np.isfinite(total)]
    return max(float(total.max(initial=0.0)), 0.0)


def _cell_1d(sys: System, ball: Ball, n: int, eps: float,
             budget: int) -> tuple[float, bool]:
    radius = min(ball.radius, 0.5) if sys.space == CIRCLE else ball.radius
    c = ball.center.coords[0]
    try:
        return _cell_1d_exact(sys, c, radius, n, eps)
    except KeyError:
        pass
    # sampled fallback for maps without a branch decomposition
    maxsum = _probe_max_logsum(sys, Ball(ball.center, radius), n)
    ideal = min(0.25 * eps, 0.1) * math.exp(-maxsum)
    res = min(max(ideal, 2 * radius / (0.9 * budget)), radius)
    grid = sample_grid(Ball(ball.center, radius), res, cap=budget + 16)
    count, _, share = separated.variation_count(sys, grid.coords, n, eps)
    return math.log(count), share > 0.02


def _cell_1d_exact(sys: System, c: float, radius: float, n: int,
                   eps: float) -> tuple[float, bool]:
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
    count = max(int(tv / eps), 1) if wrap else int(tv / eps) + 1
    return math.log(count), False


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


def _cell_toral(sys: System, ball: Ball, n: int, eps: float,
                budget: int) -> tuple[float, bool]:
    # Sample along expanding eigendirections only; contracting directions
    # stop contributing separated points once the ball outruns eps.
    radius = min(ball.radius, 0.5)
    z = np.asarray(ball.center.coords, dtype=float)
    dirs = [(m, v) for m, v in _real_eigenbasis(sys.matrix) if m > 1.0 + 1e-12]
    if not dirs:
        return 0.0, False
    per_dir = max(budget // len(dirs), 16)
    log_total = 0.0
    capped = False
    for modulus, vec in dirs:
        spacing = min(0.25 * eps, 0.1) * modulus ** (-(n - 1))
        npts = min(int(2 * radius / spacing) + 1, per_dir)
        if npts <= 1:
            continue
        ts = np.linspace(-radius, radius, npts)
        coords = (z[None, :] + ts[:, None] * vec[None, :]) % 1.0
        count, _, share = separated.variation_count(sys, coords, n, eps,
                                                    wraparound=False)
        capped = capped or share > 0.02
        log_total += math.log(count)
    return log_total, capped


def _cell_symbolic(sys: System, ball: Ball, n: int, eps: float,
                   budget: int) -> tuple[float, bool]:
    m = Metric(SYMBOLIC, alphabet=sys.alphabet or 2)
    plen = separation_prefix_length(n, eps, m.beta)
    res = m.beta ** (-plen)
    try:
        grid = symbolic_grid(Ball(ball.center, min(ball.radius, 1.0)), res, m,
                             cap=budget)
        capped = False
    except BudgetExceededError:
        grid = symbolic_grid(Ball(ball.center, min(ball.radius, 1.0)),
                             m.beta ** (-int(math.log(budget) / math.log(m.alphabet))),
                             m, cap=budget * 2)
        capped = True
    q = separated.SeparationQuery(sys, grid, n, eps, metric=m)
    return math.log(separated.separated_count(q).count), capped


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


def separation_curve(sys: System, ball_for_n, n_values, eps: float,
                     budget: int):
    """[(n, log count, capped)] with an n-dependent ball."""
    out = []
    for n in n_values:
        ball = ball_for_n(n)
        if ball is None:
            continue
        logc, capped = cell_log_count(sys, ball, n, eps, budget)
        out.append((n, logc, capped))
    return out


def _rate_from_curve(curve, mode, clamp, eps):
    usable = [(n, v) for n, v, capped in curve if not capped]
    warning = None
    if len(usable) < 3:
        usable = [(n, v) for n, v, _ in curve]
        warning = "fewer than 3 uncapped cells; capped counts included"
    est = growth_rate(usable, mode=mode, clamp=clamp, eps=eps)
    if warning:
        est = RateEstimate(est.value, est.n_window, est.eps, est.residual,
                           est.kind, est.eps_trend, warning)
    return est


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def restricted_entropy(sys: System, region: Ball,
                       sched: Schedule = DEFAULT_SCHEDULE) -> RateEstimate:
    """Growth rate of separated counts inside a fixed compact ball."""
    per_eps = []
    for eps in sched.epsilons:
        curve = separation_curve(sys, lambda n: region, sched.n_values, eps,
                                 sched.budget)
        per_eps.append(_rate_from_curve(curve, "limsup", False, eps))
    return _with_eps_trend(per_eps)


def _with_eps_trend(per_eps):
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
    per_eps = []
    for eps in sched.epsilons:
        best = None
        for delta in deltas:
            curve = separation_curve(sys, lambda n: Ball(x, delta),
                                     sched.n_values, eps, sched.budget)
            est = _rate_from_curve(curve, "limsup", False, eps)
            if best is None or est.value < best.value:
                best = est
        per_eps.append(best)
    return _with_eps_trend(per_eps)


def translocal_entropy(sys: System, z: Point, omega: float,
                       sched: Schedule = DEFAULT_SCHEDULE
                       ) -> tuple[RateEstimate, RateEstimate]:
    """Upper/lower growth rates on closed balls of radius exp(-omega*n),
    clamped at zero."""
    if omega < 0:
        raise ValueError("omega must be >= 0")

    def ball_for_n(n):
        r = math.exp(-omega * n)
        if r < 1e-13:
            return None     # below representable sample resolution
        return Ball(z, r)

    uppers, lowers = [], []
    for eps in sched.epsilons:
        curve = separation_curve(sys, ball_for_n, sched.n_values, eps,
                                 sched.budget)
        uppers.append(_rate_from_curve(curve, "limsup", True, eps))
        lowers.append(_rate_from_curve(curve, "liminf", True, eps))
    return _with_eps_trend(uppers), _with_eps_trend(lowers)


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

