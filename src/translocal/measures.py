"""Invariant-measure backends: ball and Bowen-ball measures, local entropy
rates from measure decay, and local/translocal pressure estimates.

Closed forms are used wherever they exist (interval lengths, cylinder
masses, Dirac membership, the expanding spectrum of a toral map); Lebesgue
Bowen balls of circle maps are measured by bisecting each side, with every
bisection of an n-window advancing in lockstep, one orbit pass per round.
Any other (system, measure) pair has no Bowen-ball backend and raises
ValueError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import separated, spaces
from .entropy import DEFAULT_SCHEDULE, RateEstimate, Schedule, growth_rates
from .errors import SpaceMismatchError
from .maps import (Potential, System, ZERO_POTENTIAL, birkhoff_sums, evaluate,
                   orbit_coords, toral_eigen_data)
from .spaces import (CIRCLE, SYMBOLIC, TORUS, Ball, Metric, Point, distance,
                     pinned_symbols)

_BISECTION_STEPS = 60            # halvings of [0, eps] per Bowen-ball side
_TREE_DEPTH = 6                  # of them decided per orbit pass


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

def certified_invariant(sys: System, mu: Measure) -> bool:
    """(system, measure) pairs known to be invariant; the systems flagged
    `lebesgue_circle_invariant` are checked by the preimage-length test (see
    the measure test suite)."""
    if mu.variant == "lebesgue-circle":
        return sys.lebesgue_circle_invariant
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
        m = pinned_symbols(ball, metric or Metric(SYMBOLIC,
                                                  alphabet=len(mu.p)))
        mass = 1.0
        for i in range(m):
            mass *= mu.p[ball.center.word[i]]
        return mass
    if mu.variant == "dirac":
        m = metric or Metric(mu.space, alphabet=2)
        return 1.0 if ball.contains(mu.atom, m) else 0.0
    raise ValueError(f"unknown measure variant {mu.variant!r}")


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
        m = pinned_symbols(Ball(x, eps, closed=False),
                           Metric(SYMBOLIC, alphabet=len(mu.p)))
        depth = min((n - 1) + m, len(x.word))
        mass = 1.0
        for i in range(depth):
            mass *= mu.p[x.word[i]]
        return mass
    if mu.variant == "lebesgue-circle" and sys.space == CIRCLE:
        return min(_bowen_extents(sys, x, (n,), eps)[0], 1.0)
    if mu.variant == "lebesgue-torus" and sys.matrix is not None:
        return _toral_bowen_measure(sys, n, eps)
    raise ValueError(
        f"no Bowen-ball backend for measure {mu.variant!r} on "
        f"system {sys.name!r}")


def _bowen_masses(sys: System, mu: Measure, x: Point, n_values,
                  eps: float) -> list[float]:
    """`bowen_ball_measure` for each n of a window; the Lebesgue masses on
    the circle come from one `_bowen_extents` call."""
    if mu.variant != "lebesgue-circle" or sys.space != CIRCLE:
        return [bowen_ball_measure(sys, mu, x, n, eps) for n in n_values]
    long = [n for n in n_values if n > 1]
    extents = iter(_bowen_extents(sys, x, long, eps) if long else ())
    return [min(next(extents), 1.0) if n > 1
            else bowen_ball_measure(sys, mu, x, n, eps) for n in n_values]


def _bowen_extents(sys: System, x: Point, n_values,
                   eps: float) -> list[float]:
    """Arc length of the Bowen ball {y : d(f^j x, f^j y) < eps, j < n}
    around a circle point x, for each n of `n_values`, not capped at 1.

    Circle systems only.  Each side is bisected for the largest t with
    d_n(x, x +- t) < eps, which assumes that distance grows monotonically in
    t until it passes eps (true for expanding maps); a side whose distance at
    t = eps is already below eps has extent eps.  The 2*len(n_values)
    bisections run in lockstep: each round evaluates the next `_TREE_DEPTH`
    levels of every bisection's midpoint tree in one orbit pass of length
    max(n), then walks each tree along its own verdicts.  Midpoints and
    verdicts are those of a sequential 60-step bisection, so the extents
    equal its result bit for bit.
    """
    c = x.coords[0]
    n_values = np.asarray(n_values)
    n_max = int(n_values.max())
    ref = orbit_coords(sys, np.asarray([x.coords]), n_max)[0, :, 0]
    sign = np.repeat([-1.0, 1.0], len(n_values))[:, None]
    last = np.tile(n_values, 2)[:, None, None] - 1
    rows = np.arange(sign.shape[0])

    def below(t):
        # d_n(x, x + sign*t) < eps per entry of t (rows, w).  The second
        # reduction is that of spaces.circle: a tiny negative sum gives 1.0.
        y = (c + sign * t) % 1.0 % 1.0
        orb = orbit_coords(sys, y.reshape(-1, 1), n_max).reshape(
            *t.shape, n_max)
        diff = np.abs(ref - orb) % 1.0
        run = np.maximum.accumulate(np.minimum(diff, 1.0 - diff), axis=-1)
        return np.take_along_axis(run, last, axis=-1)[..., 0] < eps

    hi = np.full(len(rows), float(eps))
    lo = np.zeros(len(rows))
    at_eps = below(hi[:, None])[:, 0]
    for _ in range(_BISECTION_STEPS // _TREE_DEPTH):
        los, his, mids = lo[:, None], hi[:, None], []
        for _ in range(_TREE_DEPTH):
            mid = 0.5 * (los + his)
            mids.append(mid)
            # children 2i (verdict false: hi = mid) and 2i+1 (lo = mid)
            los = np.stack([los, mid], axis=-1).reshape(len(rows), -1)
            his = np.stack([mid, his], axis=-1).reshape(len(rows), -1)
        t = np.concatenate(mids, axis=1)
        ok = below(t)
        node = np.zeros(len(rows), dtype=int)
        for level in range(_TREE_DEPTH):
            at = (rows, (1 << level) - 1 + node)
            lo = np.where(ok[at], t[at], lo)
            hi = np.where(ok[at], hi, t[at])
            node = 2 * node + ok[at]
    side = np.where(at_eps, float(eps), lo)
    return (side[:len(n_values)] + side[len(n_values):]).tolist()


def _toral_bowen_measure(sys: System, n: int, eps: float) -> float:
    # box volume shrinking by the expanding spectrum; exact for diagonalizable
    # integer matrices with the sup metric up to eigenbasis distortion
    vol = 1.0
    for mod, mult in toral_eigen_data(sys):
        factor = mod ** (n - 1) if mod > 1.0 else 1.0
        for _ in range(mult):
            vol *= min(2.0 * eps / factor, 1.0)
    return vol


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


def _rate_pair(data, eps):
    """(upper, lower) rates of one (n, value) series at `eps`, from one
    walk over its windows."""
    if any(not math.isfinite(v) for _, v in data):
        inf_est = RateEstimate(math.inf, (0, 0), eps, 0.0, "limsup",
                               warning="zero-measure ball")
        return inf_est, inf_est
    return growth_rates(data, eps=eps)


def local_pressure(sys: System, mu: Measure, pot: Potential, x: Point,
                   sched: Schedule = DEFAULT_SCHEDULE
                   ) -> tuple[LocalPressureEstimate, LocalPressureEstimate]:
    """Rates of Birkhoff sums minus log Bowen-ball measure."""
    _require_invariant(sys, mu)

    # the estimate is reported at the schedule's last (smallest) eps
    eps = sched.epsilons[-1]
    masses = _bowen_masses(sys, mu, x, sched.n_values, eps)
    series = [(n, math.inf if v == 0.0 else phi - math.log(v))
              for n, phi, v in zip(sched.n_values,
                                   birkhoff_sums(pot, sys, x, sched.n_values),
                                   masses)]
    return _pair(_rate_pair(series, eps), x, pot.kind, None)


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

    # the series does not depend on eps: one fit, reported at the last eps
    series = []
    for n, phi in zip(sched.n_values, birkhoff_sums(pot, sys, x,
                                                    sched.n_values)):
        v = ball_measure(mu, Ball(x, math.exp(-omega * n)))
        series.append((n, math.inf if v == 0.0 else phi - math.log(v)))

    return _pair(_rate_pair(series, sched.epsilons[-1]), x, pot.kind, omega)
