"""Cover-based pressure: weighted Bowen-ball cover sums, critical-exponent
extraction, the shrinking-metric-ball variant, and the two-sided audit
against sampled local pressures.

Minimizing over all covers is intractable; weights are minimized over the
uniform-n covers on the levels N..N+4, each covering the whole region with
balls of one level n.  Cover pressure is an infimum over covers, so a weight
from this one family bounds it from above.  Transition detection uses the
sign of the log-weight trend across the N-window.

Every weight is read off a level table: per ball and for every level n the
call can use, the s-free log-mass log sum over cells of count * exp(phi),
where count is the cell's share of balls and phi its potential sum over
steps j < n.  An (s, N) weight is then exp(-s*n + log-mass) per ball, one
scalar exp with no array work.  `critical_exponent` builds the table once
for its whole N-window and s-search; `cover_weight` builds one for N..N+4.

Bowen's formula writes the table down for the whole circle under a
full-branch affine map (every branch affine onto [0, 1], slopes s_i) and a
zero, constant or geometric potential, with per-branch weights
w_i = exp(phi_i).  Every level-n cylinder is mapped onto the circle, so the
Bowen level is (n - 1) log sum w_i + log sum w_i/s_i - log 2r, exact for
r <= 0.5 where no ball is clamped to the circle, and the metric level is
n log sum w_i/s_i - log(2 exp(-omega n)) while that extent is below 1.  No
orbit is stepped.  The log-weight trend is then affine in s with slope -1,
so the secant point of the s-grid bracket, which `critical_exponent` tries
first, is the exponent: log sum s_i^-t for geometric:t under Bowen balls,
omega + log sum s_i^(-1-t) under metric balls.

Everything else is priced by quadrature: sub-arcs, iterates, the
staircase, the non-affine maps, table potentials, r > 0.5, and the low
levels where one ball covers the circle or a metric extent is 1.  Per ball,
one orbit pass over a midpoint grid of its interval records every such
level; the log-derivative sums over j < n - 1 that size the balls are
prefixes of the next level's, as are the potential sums.  Where such a
trend is not affine in s, the secant point misses and the bracket is
bisected down to `_S_TOL`.

Choices between equal covers do not hang on rounding: a later level wins
only when cheaper by more than `_TIE` relative, and a log-weight trend
counts as growing only above `_TIE`.  A level whose weight is undefined (an
orbit through a point of infinite derivative, inf * 0) loses to every
defined one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from . import measures, spaces
from .entropy import (DEFAULT_SCHEDULE, Schedule, _require_distinct,
                      _window, _window_slope, growth_rate)
from .errors import UnbracketedError
from .maps import Potential, System, full_branch_slopes
from .spaces import CIRCLE, INTERVAL, Ball, Point

_QUAD_POINTS = 4096
_LEVELS = 5            # cover levels N .. N+4
_TIE = 1e-9            # relative margin that breaks a tie between covers
_S_TOL = 0.02          # width to which a critical exponent is bisected

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Region:
    """Finite union of balls."""

    balls: tuple = ()

    def __post_init__(self):
        if not self.balls:
            raise ValueError("empty region")

    @property
    def space(self) -> str:
        return self.balls[0].center.space


def whole_circle() -> Region:
    return Region(balls=(Ball(spaces.circle(0.0), 0.5),))


@dataclass(frozen=True)
class CoverWeight:
    value: float
    s: float
    r: float | None                # Bowen-ball radius; None for translocal
    omega: float | None
    N: int
    potential: str
    n_values: tuple


@dataclass(frozen=True)
class CriticalExponent:
    value: float
    bracket: tuple
    variant: str                   # bowen-ball | translocal-upper | translocal-lower
    n_window: tuple


# ---------------------------------------------------------------------------
# Level tables over 1D intervals
# ---------------------------------------------------------------------------

def _interval_of(ball: Ball, space: str) -> tuple[float, float]:
    c = ball.center.coords[0]
    r = ball.radius
    if space == CIRCLE and r >= 0.5:
        return 0.0, 1.0
    if space == CIRCLE:
        return c - r, c + r          # evaluated mod 1 downstream
    return max(c - r, 0.0), min(c + r, 1.0)


class _Level(NamedTuple):
    """s-free uniform-n cover data of one segment at one level n;
    `singular` is the first orbit point of infinite log|f'| that the
    level's quadrature met, if any."""

    n: int
    log_mass: float                # log sum over cells of count * exp(phi)
    singular: float | None = None

    def weight(self, s: float) -> float:
        return math.exp(-s * self.n + self.log_mass)


def _level(spacing: float, ext: np.ndarray, phi: np.ndarray, n: int,
           singular: float | None = None) -> _Level:
    """Each sample cell needs spacing/extent balls, where the extent is the
    spatial footprint of one cover ball around that cell; a segment that
    needs at most one ball gets one, centred at its middle cell."""
    import numpy as np
    counts = spacing / ext
    if float(counts.sum()) <= 1.0:
        return _Level(n, float(phi[phi.shape[0] // 2]), singular)
    top = float(phi.max())
    if math.isfinite(top):
        log_mass = top + math.log(float(np.sum(counts * np.exp(phi - top))))
    else:
        log_mass = top             # the sum is inf (top = inf) or 0 (-inf)
    return _Level(n, log_mass, singular)


def _log_sum_exp(values: list) -> float:
    top = max(values)
    return top + math.log(math.fsum(math.exp(v - top) for v in values))


def _branch_potential(pot: Potential, slopes: tuple) -> list | None:
    """The potential on each affine branch, where it is constant there."""
    if pot.kind == "zero":
        return [0.0] * len(slopes)
    if pot.kind == "constant":
        return [pot.c] * len(slopes)
    if pot.kind == "geometric":
        return [-pot.t * math.log(s) for s in slopes]
    return None


def _closed_levels(sys: System, pot: Potential, a: float, b: float,
                   levels: range, extent) -> dict[int, _Level]:
    """Cover data of the whole circle under a full-branch affine map, by
    Bowen's formula, at the top run of `levels` where it holds (the closed
    form fails only at low levels: one ball covers, or an extent is 1)."""
    slopes = full_branch_slopes(sys)
    phis = None if slopes is None else _branch_potential(pot, slopes)
    if (a, b) != (0.0, 1.0) or phis is None:
        return {}
    log_w = _log_sum_exp(phis)
    log_w_per_s = _log_sum_exp([p - math.log(s)
                                for p, s in zip(phis, slopes)])
    table = {}
    for n in reversed(levels):
        log_mass = extent.closed_log_mass(n, len(slopes), log_w, log_w_per_s)
        if log_mass is None:
            break
        table[n] = _Level(n, log_mass)
    return table


def _segment_levels(sys: System, pot: Potential, a: float, b: float,
                    levels: range, extent) -> dict[int, _Level]:
    """Cover data of [a, b] at every level in `levels`: the closed form
    where it holds, and one quadrature orbit pass for the levels below."""
    table = _closed_levels(sys, pot, a, b, levels, extent)
    rest = range(levels.start, min(table, default=levels.stop))
    if rest:
        table.update(_quadrature_levels(sys, pot, a, b, rest, extent))
    return table


def _quadrature_levels(sys: System, pot: Potential, a: float, b: float,
                       levels: range, extent) -> dict[int, _Level]:
    """Cover data of [a, b] at every level in `levels`, from one orbit pass
    over a midpoint grid.

    Level n sums the potential over steps j < n and the log-derivative over
    j < n - 1, each in step order, so level n's sums are the running sums
    after n (and n - 1) steps.
    """
    import numpy as np
    k = _QUAD_POINTS
    xs = (np.linspace(a, b, k, endpoint=False) + (b - a) / (2 * k))
    if sys.space == CIRCLE:
        xs = xs % 1.0
    spacing = (b - a) / k
    cur = xs.reshape(-1, 1)
    lam = np.zeros(k)
    phi = np.zeros(k)
    singular = None
    table = {}
    for n in range(1, levels.stop):
        phi += pot.values(sys, cur)
        if n >= levels.start:
            table[n] = _level(spacing, extent(lam, n), phi, n, singular)
        if n + 1 < levels.stop:
            if sys.log_slope_many is not None:
                log_slopes = sys.log_slope_many(cur)
                if singular is None and np.isinf(log_slopes).any():
                    singular = float(cur[np.isinf(log_slopes).argmax(), 0])
                lam += log_slopes
            cur = sys.step_many(cur)
    return table


class _BowenExtent(NamedTuple):
    """Footprint 2r * exp(-lam) of a Bowen ball, at most the whole space."""

    r: float

    def __call__(self, lam: np.ndarray, n: int) -> np.ndarray:
        import numpy as np
        return np.minimum(2.0 * self.r * np.exp(-lam), 1.0)

    def closed_log_mass(self, n: int, k: int, log_w: float,
                        log_w_per_s: float) -> float | None:
        """(n - 1) log sum w_i + log sum w_i/s_i - log 2r over k branches;
        None where a ball reaches the whole circle (r > 0.5) or one ball
        covers it (k^(n-1) <= 2r)."""
        if self.r > 0.5 or k ** (n - 1) <= 2.0 * self.r:
            return None
        return (n - 1) * log_w + log_w_per_s - math.log(2.0 * self.r)


class _MetricExtent(NamedTuple):
    """Footprint 2 exp(-omega * n) of a metric ball, at most the whole
    space."""

    omega: float

    def __call__(self, lam: np.ndarray, n: int) -> np.ndarray:
        import numpy as np
        return np.full_like(lam, min(2.0 * math.exp(-self.omega * n), 1.0))

    def closed_log_mass(self, n: int, k: int, log_w: float,
                        log_w_per_s: float) -> float | None:
        """n log sum w_i/s_i - log(2 exp(-omega * n)); None where the
        extent is the whole circle."""
        if 2.0 * math.exp(-self.omega * n) >= 1.0:
            return None
        return n * log_w_per_s - (math.log(2.0) - self.omega * n)


def _bowen_extent(r: float) -> _BowenExtent:
    if r <= 0:
        raise ValueError("radius must be positive")
    return _BowenExtent(r)


def _metric_extent(omega: float) -> _MetricExtent:
    if omega <= 0:
        raise ValueError("omega must be positive")
    return _MetricExtent(omega)


def _cover_table(sys: System, region: Region, pot: Potential, levels: range,
                 extent) -> list:
    """Per ball, the levels of its segment."""
    if levels.start < 1:
        raise ValueError("N must be >= 1")
    if region.space not in (CIRCLE, INTERVAL):
        raise ValueError(
            f"cover construction implemented for 1D regions, got "
            f"{region.space!r}")
    return [_segment_levels(sys, pot, *_interval_of(ball, region.space),
                            levels, extent)
            for ball in region.balls]


# ---------------------------------------------------------------------------
# Cover weights
# ---------------------------------------------------------------------------

def _best_level(table: list, N: int, s: float) -> tuple[float, int]:
    """(weight, n) of the cheapest single level n in N..N+4 covering every
    segment; a later level must be cheaper by `_TIE`, and a level whose
    weight is undefined (NaN) loses to every other."""
    best = None
    for n in range(N, N + _LEVELS):
        weight = 0.0
        for levels in table:
            weight += levels[n].weight(s)
        if math.isnan(weight):
            continue
        if best is None or weight < best[0] * (1.0 - _TIE):
            best = (weight, n)
    if best is None:
        at = next(levels[N].singular for levels in table
                  if math.isnan(levels[N].log_mass))
        raise ValueError(
            f"cover weight undefined at every level {N}..{N + _LEVELS - 1}: "
            f"a grid orbit reaches x = {at}, where log|f'| is infinite")
    return best


def _cover_weight(sys: System, region: Region, pot: Potential, s: float,
                  N: int, extent, r: float | None,
                  omega: float | None) -> CoverWeight:
    table = _cover_table(sys, region, pot, range(N, N + _LEVELS), extent)
    weight, n = _best_level(table, N, s)
    return CoverWeight(weight, s, r, omega, N, pot.kind, (n,))


def cover_weight(sys: System, region: Region, pot: Potential, s: float,
                 r: float, N: int) -> CoverWeight:
    """Weighted Bowen-ball cover sum, minimized over the uniform-n covers
    on levels N..N+4: the whole region covered at one level n."""
    return _cover_weight(sys, region, pot, s, N, _bowen_extent(r), r, None)


def translocal_cover_weight(sys: System, region: Region, pot: Potential,
                            s: float, omega: float, N: int) -> CoverWeight:
    """Cover sum with metric balls of radius exp(-omega * n), minimized
    as in `cover_weight`."""
    return _cover_weight(sys, region, pot, s, N, _metric_extent(omega),
                         None, omega)


# ---------------------------------------------------------------------------
# Critical exponent
# ---------------------------------------------------------------------------

def _log_weight_trend(weights, variant: str) -> float:
    """Trend of log weight against N over (N, weight) pairs."""
    data = [(N, math.log(max(w, 1e-300))) for N, w in weights]
    if variant == "translocal-upper":
        return growth_rate(data, "limsup").value
    if variant == "translocal-lower":
        return growth_rate(data, "liminf").value
    ns = tuple([N for N, _ in data])
    return _window_slope(_window(ns, 0, len(ns)), [y for _, y in data])[0]


def critical_exponent(sys: System, region: Region, pot: Potential,
                      r: float | None = None, omega: float | None = None,
                      n_window: tuple = (3, 4, 5, 6, 7, 8),
                      s_grid: tuple = (0.0, 0.4, 0.8, 1.2, 1.6, 2.0),
                      variant: str = "bowen-ball") -> CriticalExponent:
    """Zero of the log-weight trend across N in s; a trend at or below
    `_TIE` counts as not growing.

    The secant point of the s-grid bracket is tried first: it is the root,
    with bracket (root, root), when its trend is within `_TIE` of 0, as on
    closed-form tables, whose trend is affine in s.  Otherwise the bracket
    is bisected down to `_S_TOL`.  One level table, for levels
    min(n_window) .. max(n_window) + 4, serves every weight of the
    search."""
    if variant == "bowen-ball" and r is None:
        raise ValueError("bowen-ball variant needs a radius r")
    if variant.startswith("translocal") and omega is None:
        raise ValueError("translocal variants need omega")
    _require_distinct(n_window)
    extent = (_bowen_extent(r) if variant == "bowen-ball"
              else _metric_extent(omega))
    table = _cover_table(sys, region, pot,
                         range(min(n_window), max(n_window) + _LEVELS),
                         extent)

    def trend(s: float) -> float:
        return _log_weight_trend(
            [(N, _best_level(table, N, s)[0]) for N in n_window], variant)

    grid = sorted(s_grid)
    trends = {grid[0]: trend(grid[0])}
    for lo, hi in zip(grid, grid[1:]):
        trends[hi] = trend(hi)      # up to the first bracket only
        if trends[lo] > _TIE and trends[hi] <= _TIE:
            break
    else:
        raise UnbracketedError(
            "no sign change of the cover-weight trend in the s-grid", trends)
    root = lo + trends[lo] * (hi - lo) / (trends[lo] - trends[hi])
    if abs(trend(root)) <= _TIE:
        return CriticalExponent(root, (root, root), variant,
                                (n_window[0], n_window[-1]))
    while hi - lo > _S_TOL:
        mid = 0.5 * (lo + hi)
        if trend(mid) > _TIE:
            lo = mid
        else:
            hi = mid
    return CriticalExponent(0.5 * (lo + hi), (lo, hi), variant,
                            (n_window[0], n_window[-1]))


# ---------------------------------------------------------------------------
# Two-sided audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    passed: bool
    pressure: float
    bracket: tuple
    sampled_upper: tuple
    sampled_lower: tuple
    tol: float
    variant: str
    details: dict = field(default_factory=dict)

    @property
    def max_upper(self) -> float:
        return max(self.sampled_upper)

    @property
    def min_lower(self) -> float:
        return min(self.sampled_lower)


def _region_samples(region: Region, count: int):
    """`count` evenly spaced points across each ball of the region."""
    import numpy as np
    pts = []
    for ball in region.balls:
        space = ball.center.space
        c = ball.center.coords[0]
        offs = np.linspace(-ball.radius, ball.radius, count)
        for o in offs:
            x = (c + o) % 1.0 if space == CIRCLE \
                else min(max(c + o, 0.0), 1.0)
            pts.append(Point(space, (x,)))
    if not pts:
        raise ValueError("empty region sample")
    return pts


def ma_wen_audit(sys: System, mu: measures.Measure, pot: Potential,
                 region: Region, omega: float | None = None,
                 sample_count: int = 12, tol: float = 0.1,
                 sched: Schedule = DEFAULT_SCHEDULE,
                 r: float = 0.05) -> AuditReport:
    """Check the two-sided relation between the cover pressure of a region
    and local pressures sampled at its points."""
    pts = _region_samples(region, sample_count)
    uppers, lowers = [], []
    for p in pts:
        if omega is None:
            up, lo = measures.local_pressure(sys, mu, pot, p, sched)
        else:
            up, lo = measures.translocal_local_pressure(sys, mu, pot, p,
                                                        omega, sched)
        uppers.append(up.value)
        lowers.append(lo.value)
    base = max(max(uppers), 0.1)
    import numpy as np
    s_grid = tuple(np.linspace(min(min(lowers) - 0.5, 0.0),
                               base + 0.6, 9))
    if omega is None:
        crit = critical_exponent(sys, region, pot, r=r, s_grid=s_grid)
    else:
        crit = critical_exponent(sys, region, pot, omega=omega,
                                 s_grid=s_grid, variant="translocal-upper")
    p_val = crit.value
    ok = (p_val <= max(uppers) + tol) and (p_val >= min(lowers) - tol)
    return AuditReport(ok, p_val, crit.bracket, tuple(uppers), tuple(lowers),
                       tol, crit.variant,
                       details={"points": len(pts), "omega": omega})
