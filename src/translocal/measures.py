"""Invariant-measure backends: ball and Bowen-ball measures, local entropy
rates from measure decay, and local/translocal pressure estimates.

Closed forms are used wherever they exist (interval lengths, cylinder
masses, Dirac membership, the expanding spectrum of a toral map); a
Lebesgue Bowen ball of a circle map is eps pulled back exactly through the
affine branches along the orbit.  Any other (system, measure) pair has no
Bowen-ball backend and raises ValueError.
"""
from __future__ import annotations

import math
from bisect import bisect_right

from . import separated, spaces
from .entropy import DEFAULT_SCHEDULE, RateEstimate, Schedule, growth_rates
from .errors import SpaceMismatchError
from .maps import (Potential, System, ZERO_POTENTIAL, birkhoff_sums,
                   evaluate, full_branch_slopes, point_orbit)
from .spaces import (CIRCLE, SYMBOLIC, TORUS, Ball, Point, Record, distance,
                     init_field, radius_pins)


class Measure(Record):
    """Probability measure descriptor addressable by string id; its
    `variant` is lebesgue-circle, lebesgue-torus, bernoulli or dirac."""

    __slots__ = _fields = ("variant", "p", "atom")

    def __init__(self, variant: str, p: tuple = (),
                 atom: Point | None = None):
        init_field(self, "variant", variant)
        init_field(self, "p", p)
        init_field(self, "atom", atom)

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
    """(system, measure) pairs known to be invariant.  A circle map whose
    branches are all affine onto the circle preserves Lebesgue measure (see
    `maps.full_branch_slopes`; the measure test suite checks preimage
    lengths)."""
    if mu.variant == "lebesgue-circle":
        return full_branch_slopes(sys) is not None
    if mu.variant == "lebesgue-torus":
        return sys.matrix is not None
    if mu.variant == "bernoulli":
        return sys.space == SYMBOLIC and sys.alphabet == len(mu.p)
    if mu.variant == "dirac":
        if mu.atom.space != sys.space:
            return False
        return distance(evaluate(sys, mu.atom), mu.atom) < 1e-9
    return False


def _require_invariant(sys: System, mu: Measure) -> None:
    if not certified_invariant(sys, mu):
        raise ValueError(
            f"measure {mu.variant!r} is not certified invariant for "
            f"system {sys.name!r}")


# ---------------------------------------------------------------------------
# Ball measures
# ---------------------------------------------------------------------------

def ball_measure(mu: Measure, ball: Ball) -> float:
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
        m = radius_pins(ball)
        return _cylinder_masses(mu, ball.center.word, m)[m]
    if mu.variant == "dirac":
        return 1.0 if ball.contains(mu.atom) else 0.0
    raise ValueError(f"unknown measure variant {mu.variant!r}")


def _cylinder_masses(mu: Measure, wrd: tuple, depth: int) -> list[float]:
    """[Bernoulli mass of the cylinder of wrd's first k symbols for
    k = 0 .. depth], each the product in word order.  A word shorter than
    depth does not fix those cylinders and is refused."""
    if len(wrd) < depth:
        raise ValueError(f"word of {len(wrd)} symbols is too short: its "
                         f"balls pin {depth} symbols")
    masses = [1.0]
    for symbol in wrd[:depth]:
        masses.append(masses[-1] * mu.p[symbol])
    return masses


# ---------------------------------------------------------------------------
# Bowen-ball measures
# ---------------------------------------------------------------------------

def bowen_ball_measure(sys: System, mu: Measure, x: Point, n: int,
                       eps: float) -> float:
    """Measure of {y : d(f^j x, f^j y) < eps for all j < n}: the one-n case
    of `_bowen_masses`."""
    return _bowen_masses(sys, mu, x, (n,), eps)[0]


def _bowen_masses(sys: System, mu: Measure, x: Point, n_values,
                  eps: float) -> list[float]:
    """[Bowen-ball measure at x for each n of a window].  At n = 1 the ball
    is the open eps-ball; for larger n the backend of (sys, mu) is chosen
    once for the window: Dirac membership, a Bernoulli cylinder, a
    Lebesgue arc pulled back along x's orbit, or a toral box."""
    ns = tuple(n_values)
    if min(ns) < 1:
        raise ValueError("n must be >= 1")
    longer = [n for n in ns if n > 1]
    masses = iter(_bowen_backend(sys, mu, x, longer, eps) if longer else ())
    return [ball_measure(mu, Ball(x, eps, closed=False)) if n == 1
            else next(masses) for n in ns]


def _bowen_backend(sys: System, mu: Measure, x: Point, ns: list,
                   eps: float) -> list[float]:
    """[Bowen-ball measure at x for each n >= 2 of `ns`]."""
    if mu.variant == "dirac":
        return [1.0 if separated.bowen_distance(sys, x, mu.atom, n) < eps
                else 0.0 for n in ns]
    if mu.variant == "bernoulli":
        # the Bowen ball pins n - 1 more symbols than the open ball
        pins = radius_pins(Ball(x, eps, closed=False))
        masses = _cylinder_masses(mu, x.word, max(ns) - 1 + pins)
        return [masses[n - 1 + pins] for n in ns]
    if mu.variant == "lebesgue-circle" and sys.space == CIRCLE:
        return _arc_masses(sys, x, ns, eps)
    if mu.variant == "lebesgue-torus" and sys.matrix is not None:
        return [_toral_bowen_measure(sys, n, eps) for n in ns]
    raise ValueError(
        f"no Bowen-ball backend for measure {mu.variant!r} on "
        f"system {sys.name!r}")


def _arc_masses(sys: System, x: Point, ns: list, eps: float) -> list[float]:
    """[Lebesgue measure of the Bowen ball at x on the circle for each n of
    `ns`].

    The ball is an arc, measured from one orbit of x.  Every
    Lebesgue-invariant circle map f has full affine branches of positive
    slope (an iterate's composed table too), so f(c + t) - f(c) on the
    lift is increasing and piecewise linear in t.  Each side's extent
    starts at eps at time n - 1 and is pulled back exactly through f's
    branches along x's orbit, capped at eps after every step.  Above
    eps = 1/(s + 1), s the largest slope of f, a ball can have several arcs
    and eps is refused; from eps = 0.5 on, the ball is the circle up to a
    null set.
    """
    if eps >= 0.5:
        return [1.0] * len(ns)
    table = sys.branches
    bound = 1.0 / (max(full_branch_slopes(sys)) + 1.0)
    if eps > bound:
        raise ValueError(f"eps {eps} exceeds 1/(s + 1) = {bound:.6g} on "
                         f"{sys.name!r}: its Bowen balls may have several "
                         f"arcs")
    orb = point_orbit(sys, x.coords[0], max(ns))
    at = [bisect_right(sys.cuts, c) for c in orb]

    def pull(k, e, side):
        # the t >= 0 with |f(c + side*t) - f(c)| = e, c = orb[k]; each
        # branch maps onto the circle and e <= eps < 1/2, so t crosses at
        # most one branch end
        br = table[at[k]]
        room = br.hi - orb[k] if side > 0 else orb[k] - br.lo
        if e <= room * br.slope:
            return e / br.slope
        nxt = table[(at[k] + side) % len(table)]
        return room + (e - room * br.slope) / nxt.slope

    masses = []
    for n in ns:
        total = 0.0
        for side in (-1, 1):
            e = eps
            for k in range(n - 2, -1, -1):
                e = min(pull(k, e, side), eps)
            total += e
        masses.append(total)
    return masses


def _toral_bowen_measure(sys: System, n: int, eps: float) -> float:
    # box volume shrinking by the expanding spectrum; exact for diagonalizable
    # integer matrices with the sup metric up to eigenbasis distortion
    vol = 1.0
    for mod, mult in sys.spectrum:
        factor = mod ** (n - 1) if mod > 1.0 else 1.0
        for _ in range(mult):
            vol *= min(2.0 * eps / factor, 1.0)
    return vol


# ---------------------------------------------------------------------------
# Local rates
# ---------------------------------------------------------------------------

def _local_rates(sys: System, pot: Potential, x: Point, ns, masses,
                 eps: float) -> tuple[RateEstimate, RateEstimate]:
    """(limsup, liminf) rates of S_n phi(x) - log mass_n over the n of `ns`,
    reported at `eps`; a zero mass makes both infinite."""
    series = [(n, math.inf if v == 0.0 else phi - math.log(v))
              for n, phi, v in zip(ns, birkhoff_sums(pot, sys, x, ns),
                                   masses)]
    return _rate_pair(series, eps)


def _rate_pair(data, eps) -> tuple[RateEstimate, RateEstimate]:
    """(limsup, liminf) rates of one (n, value) series at `eps`, from one
    walk over its windows."""
    if any(not math.isfinite(v) for _, v in data):
        return tuple(RateEstimate(math.inf, (0, 0), eps, 0.0, kind,
                                  warning="zero-measure ball")
                     for kind in ("limsup", "liminf"))
    return growth_rates(data, eps=eps)


def local_pressure(sys: System, mu: Measure, pot: Potential, x: Point,
                   sched: Schedule = DEFAULT_SCHEDULE
                   ) -> tuple[RateEstimate, RateEstimate]:
    """(limsup, liminf) rates of Birkhoff sums minus log Bowen-ball
    measure."""
    _require_invariant(sys, mu)
    # the estimate is reported at the schedule's last (smallest) eps
    eps = sched.epsilons[-1]
    ns = sched.n_values
    return _local_rates(sys, pot, x, ns, _bowen_masses(sys, mu, x, ns, eps),
                        eps)


def brin_katok(sys: System, mu: Measure, x: Point,
               sched: Schedule = DEFAULT_SCHEDULE
               ) -> tuple[RateEstimate, RateEstimate]:
    """Decay rate of Bowen-ball measure; the zero-potential pressure."""
    return local_pressure(sys, mu, ZERO_POTENTIAL, x, sched)


def translocal_local_pressure(sys: System, mu: Measure, pot: Potential,
                              x: Point, omega: float,
                              sched: Schedule = DEFAULT_SCHEDULE
                              ) -> tuple[RateEstimate, RateEstimate]:
    """Same functional with plain metric balls of radius exp(-omega*n)."""
    _require_invariant(sys, mu)
    if omega < 0:
        raise ValueError("omega must be >= 0")
    # the series does not depend on eps: one fit, reported at the last eps
    ns = sched.n_values
    # the smallest ball first: a word too short for it is refused with the
    # most symbols any ball of the window pins
    masses = [ball_measure(mu, Ball(x, math.exp(-omega * n)))
              for n in reversed(ns)][::-1]
    return _local_rates(sys, pot, x, ns, masses, sched.epsilons[-1])
