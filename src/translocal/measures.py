"""Invariant-measure backends: ball and Bowen-ball measures, local entropy
rates from measure decay, and local/translocal pressure estimates.

Closed forms are used wherever they exist (interval lengths, cylinder
masses, Dirac membership, one-sided bisection for expanding 1D maps); a
deterministic quasi-Monte-Carlo fallback covers the rest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from . import separated, spaces
from .entropy import DEFAULT_SCHEDULE, RateEstimate, Schedule, growth_rate
from .errors import SpaceMismatchError
from .maps import (Potential, System, ZERO_POTENTIAL, birkhoff_sum, evaluate,
                   orbit_coords)
from .spaces import (CIRCLE, SYMBOLIC, TORUS, Ball, Metric, Point,
                     distance)

_QMC_POINTS = 1 << 14


@dataclass(frozen=True)
class Measure:
    """Probability measure descriptor addressable by string id."""

    variant: str                   # lebesgue-circle | lebesgue-torus |
    #                                bernoulli | dirac
    p: tuple = ()
    atom: Point | None = None

    @property
    def space(self) -> str:
        if self.variant == "lebesgue-circle":
            return CIRCLE
        if self.variant == "lebesgue-torus":
            return TORUS
        if self.variant == "bernoulli":
            return SYMBOLIC
        if self.variant == "dirac":
            return self.atom.space
        raise ValueError(f"unknown measure variant {self.variant!r}")


def get_measure(spec_id: str) -> Measure:
    if spec_id in ("lebesgue-circle", "lebesgue-torus"):
        return Measure(spec_id)
    if spec_id.startswith("bernoulli:"):
        p = tuple(float(v) for v in spec_id.split(":", 1)[1].split(","))
        if abs(sum(p) - 1.0) > 1e-9 or any(v < 0 for v in p):
            raise ValueError(f"bernoulli weights must be a distribution: {p}")
        return Measure("bernoulli", p=p)
    if spec_id.startswith("dirac:"):
        _, space, rest = spec_id.split(":", 2)
        if space == "circle":
            atom = spaces.circle(float(rest))
        elif space == "interval":
            atom = spaces.interval(float(rest))
        elif space == "torus":
            atom = spaces.torus(*(float(v) for v in rest.split(",")))
        elif space == "word":
            atom = spaces.word(rest.split(","))
        else:
            raise KeyError(f"unknown dirac space {space!r}")
        return Measure("dirac", atom=atom)
    raise KeyError(f"unknown measure id {spec_id!r}")


def measure_ids() -> list[str]:
    return ["lebesgue-circle", "lebesgue-torus", "bernoulli:<p,...>",
            "dirac:<space>:<point>"]


# ---------------------------------------------------------------------------
# Invariance certificates
# ---------------------------------------------------------------------------

_LEBESGUE_CIRCLE_SYSTEMS = ("tripling", "g3branch", "identity")


def certified_invariant(sys: System, mu: Measure) -> bool:
    """Whitelist of (system, measure) pairs verified by the preimage-length
    test (see the measure test suite)."""
    base = sys.name.split("^")[0]
    if mu.variant == "lebesgue-circle":
        return base in _LEBESGUE_CIRCLE_SYSTEMS
    if mu.variant == "lebesgue-torus":
        return sys.matrix is not None
    if mu.variant == "bernoulli":
        return sys.space == SYMBOLIC and sys.alphabet == len(mu.p)
    if mu.variant == "dirac":
        if mu.atom.space != sys.space:
            return False
        m = separated.default_metric(sys)
        return distance(evaluate(sys, mu.atom), mu.atom, m) < 1e-9
    return False


def _require_invariant(sys: System, mu: Measure) -> None:
    if not certified_invariant(sys, mu):
        raise ValueError(
            f"measure {mu.variant!r} is not certified invariant for "
            f"system {sys.name!r}")


# ---------------------------------------------------------------------------
# Ball measures
# ---------------------------------------------------------------------------

def _pinned_symbols(radius: float, beta: float, closed: bool) -> int:
    # closed ball: words within distance radius, i.e. beta^-m <= radius
    if radius >= 1.0:
        return 0
    m = math.ceil(math.log(1.0 / radius) / math.log(beta) - 1e-12)
    if not closed and beta ** (-m) >= radius:
        m += 1
    return m


def ball_measure(mu: Measure, ball: Ball, metric: Metric | None = None) -> float:
    """Exact measure of a metric ball where a closed form exists."""
    if ball.center.space != mu.space:
        raise SpaceMismatchError(
            f"ball in {ball.center.space!r}, measure on {mu.space!r}")
    if mu.variant == "lebesgue-circle":
        return min(2.0 * ball.radius, 1.0)
    if mu.variant == "lebesgue-torus":
        side = min(2.0 * ball.radius, 1.0)
        return side ** len(ball.center.coords)
    if mu.variant == "bernoulli":
        beta = (metric or Metric(SYMBOLIC, alphabet=len(mu.p))).beta
        m = _pinned_symbols(ball.radius, beta, ball.closed)
        m = min(m, len(ball.center.word))
        mass = 1.0
        for i in range(m):
            mass *= mu.p[ball.center.word[i]]
        return mass
    if mu.variant == "dirac":
        m = metric or Metric(mu.space, alphabet=2)
        return 1.0 if ball.contains(mu.atom, m) else 0.0
    raise ValueError(f"unknown measure variant {mu.variant!r}")


def qmc_ball_measure(mu: Measure, ball: Ball, metric: Metric | None = None,
                     n_points: int = _QMC_POINTS) -> tuple[float, float]:
    """Low-discrepancy estimate of a ball's measure with a standard error.

    Deterministic (unscrambled Halton) so repeated runs agree exactly.
    Supported for the Lebesgue variants; exists mainly to cross-check the
    closed forms and to handle non-standard metrics.
    """
    if mu.variant not in ("lebesgue-circle", "lebesgue-torus"):
        raise ValueError("quasi-Monte-Carlo backend needs a Lebesgue variant")
    d = len(ball.center.coords)
    m = metric or Metric(mu.space)
    sampler = qmc.Halton(d=d, scramble=False)
    pts = sampler.random(n_points)
    space = mu.space
    hits = np.fromiter(
        (ball.contains(Point(space, tuple(row)), m) for row in pts),
        dtype=float, count=n_points)
    frac = float(hits.mean())
    stderr = float(hits.std() / math.sqrt(n_points))
    return frac, stderr


# ---------------------------------------------------------------------------
# Bowen-ball measures
# ---------------------------------------------------------------------------

def bowen_ball_measure(sys: System, mu: Measure, x: Point, n: int,
                       eps: float) -> float:
    """Measure of {y : d(f^j x, f^j y) < eps for all j < n}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return ball_measure(mu, Ball(x, eps, closed=False))
    if mu.variant == "dirac":
        m = separated.default_metric(sys)
        return 1.0 if separated.bowen_distance(sys, x, mu.atom, n, m) < eps \
            else 0.0
    if mu.variant == "bernoulli":
        beta = Metric(SYMBOLIC, alphabet=len(mu.p)).beta
        m = _pinned_symbols(eps, beta, closed=False)
        depth = min((n - 1) + m, len(x.word))
        mass = 1.0
        for i in range(depth):
            mass *= mu.p[x.word[i]]
        return mass
    if mu.variant == "lebesgue-circle" and sys.space == CIRCLE:
        left = _one_sided_extent(sys, x, n, eps, -1.0)
        right = _one_sided_extent(sys, x, n, eps, +1.0)
        return min(left + right, 1.0)
    if mu.variant == "lebesgue-torus" and sys.matrix is not None:
        return _toral_bowen_measure(sys, x, n, eps)
    return _sampled_bowen_measure(sys, mu, x, n, eps)


def _one_sided_extent(sys: System, x: Point, n: int, eps: float,
                      sign: float) -> float:
    """Largest t with Bowen distance between x and x + sign*t below eps.

    Valid for expanding maps, where the distance grows monotonically in t
    until it exceeds eps.
    """
    c = x.coords[0]
    lo, hi = 0.0, eps
    point = spaces.circle if sys.space == CIRCLE else spaces.interval

    def dist(t):
        y = (c + sign * t) % 1.0 if sys.space == CIRCLE \
            else min(max(c + sign * t, 0.0), 1.0)
        return separated.bowen_distance(sys, x, point(y), n)

    if dist(hi) < eps:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dist(mid) < eps:
            lo = mid
        else:
            hi = mid
    return lo


def _toral_bowen_measure(sys: System, x: Point, n: int, eps: float) -> float:
    # box volume shrinking by the expanding spectrum; exact for diagonalizable
    # integer matrices with the sup metric up to eigenbasis distortion
    a = np.asarray(sys.matrix, dtype=float)
    vals = np.linalg.eigvals(a)
    vol = 1.0
    for lam in vals:
        mod = abs(lam)
        factor = mod ** (n - 1) if mod > 1.0 else 1.0
        vol *= min(2.0 * eps / factor, 1.0)
    return vol


def _sampled_bowen_measure(sys: System, mu: Measure, x: Point, n: int,
                           eps: float) -> float:
    if mu.variant not in ("lebesgue-circle", "lebesgue-torus"):
        raise ValueError(
            f"no Bowen-ball backend for measure {mu.variant!r} on "
            f"system {sys.name!r}")
    d = len(x.coords)
    sampler = qmc.Halton(d=d, scramble=False)
    pts = sampler.random(_QMC_POINTS)
    orbits = separated._embed(sys.space, orbit_coords(sys, pts, n))
    ref = separated._embed(sys.space,
                           orbit_coords(sys, np.asarray([x.coords]), n))[0]
    dist = separated._bowen_many(sys.space, orbits, ref)
    return float((dist < eps).mean())


# ---------------------------------------------------------------------------
# Local rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalPressureEstimate:
    value: float
    kind: str                      # "upper" | "lower"
    point: Point
    potential: str
    omega: float | None
    n_window: tuple
    eps: float | None
    residual: float
    warning: str | None = None


def _pair(ests, point, pot_id, omega):
    out = []
    for est, kind in zip(ests, ("upper", "lower")):
        out.append(LocalPressureEstimate(
            est.value, kind, point, pot_id, omega, est.n_window, est.eps,
            est.residual, est.warning))
    return tuple(out)


def _rate_pair(series_for_eps, epsilons):
    uppers, lowers = [], []
    for eps in epsilons:
        data = series_for_eps(eps)
        if any(not math.isfinite(v) for _, v in data):
            inf_est = RateEstimate(math.inf, (0, 0), eps, 0.0, "limsup",
                                   warning="zero-measure ball")
            uppers.append(inf_est)
            lowers.append(inf_est)
            continue
        uppers.append(growth_rate(data, "limsup", eps=eps))
        lowers.append(growth_rate(data, "liminf", eps=eps))
    return uppers[-1], lowers[-1]


def local_pressure(sys: System, mu: Measure, pot: Potential, x: Point,
                   sched: Schedule = DEFAULT_SCHEDULE
                   ) -> tuple[LocalPressureEstimate, LocalPressureEstimate]:
    """Rates of Birkhoff sums minus log Bowen-ball measure."""
    _require_invariant(sys, mu)

    def series(eps):
        out = []
        for n in sched.n_values:
            v = bowen_ball_measure(sys, mu, x, n, eps)
            phi = birkhoff_sum(pot, sys, x, n)
            out.append((n, math.inf if v == 0.0 else phi - math.log(v)))
        return out

    up, lo = _rate_pair(series, sched.epsilons)
    return _pair((up, lo), x, pot.kind, None)


def brin_katok(sys: System, mu: Measure, x: Point,
               sched: Schedule = DEFAULT_SCHEDULE
               ) -> tuple[LocalPressureEstimate, LocalPressureEstimate]:
    """Decay rate of Bowen-ball measure; the zero-potential pressure."""
    return local_pressure(sys, mu, ZERO_POTENTIAL, x, sched)


def translocal_local_pressure(sys: System, mu: Measure, pot: Potential,
                              x: Point, omega: float,
                              sched: Schedule = DEFAULT_SCHEDULE
                              ) -> tuple[LocalPressureEstimate,
                                         LocalPressureEstimate]:
    """Same functional with plain metric balls of radius exp(-omega*n)."""
    _require_invariant(sys, mu)
    if omega < 0:
        raise ValueError("omega must be >= 0")

    def series(_eps):
        out = []
        for n in sched.n_values:
            ball = Ball(x, math.exp(-omega * n))
            v = ball_measure(mu, ball)
            phi = birkhoff_sum(pot, sys, x, n)
            out.append((n, math.inf if v == 0.0 else phi - math.log(v)))
        return out

    up, lo = _rate_pair(series, sched.epsilons)
    return _pair((up, lo), x, pot.kind, omega)
