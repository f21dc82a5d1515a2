"""Cover-based pressure: weighted Bowen-ball cover sums, critical-exponent
extraction, the shrinking-metric-ball variant, and the two-sided audit
against sampled local pressures.

Minimizing over all covers is intractable; weights are minimized over two
structured families on the levels N..N+4 and the cheaper value is reported:
uniform-n covers the whole region at one level, refined splits each ball
into eight chunks and covers each at its own level.  Neither family contains
the other: a chunk is charged at least one whole ball and integrated on its
own grid.  Transition detection uses the sign of the log-weight trend across
the N-window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import measures, spaces
from .entropy import DEFAULT_SCHEDULE, Schedule, _lstsq_slope, growth_rate
from .errors import UnbracketedError
from .maps import Potential, System
from .spaces import CIRCLE, INTERVAL, Ball, Point

_QUAD_POINTS = 4096
_LEVELS = 5            # cover levels N .. N+4
_CHUNKS = 8            # refined-family chunks per ball


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
    family: str
    count: float
    n_values: tuple
    sample_centers: tuple = ()


@dataclass(frozen=True)
class CriticalExponent:
    value: float
    bracket: tuple
    variant: str                   # bowen-ball | translocal-upper | translocal-lower
    n_window: tuple


# ---------------------------------------------------------------------------
# Quadrature over 1D intervals
# ---------------------------------------------------------------------------

def _interval_of(ball: Ball, space: str) -> tuple[float, float]:
    c = ball.center.coords[0]
    r = ball.radius
    if space == CIRCLE and r >= 0.5:
        return 0.0, 1.0
    if space == CIRCLE:
        return c - r, c + r          # evaluated mod 1 downstream
    return max(c - r, 0.0), min(c + r, 1.0)


def _segment_data(sys: System, pot: Potential, a: float, b: float, n: int):
    """Midpoint grid with accumulated log-derivative and potential sums."""
    k = _QUAD_POINTS
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


def _segment_weight(sys: System, pot: Potential, a: float, b: float, n: int,
                    s: float, ext_of_lam) -> tuple[float, float, np.ndarray]:
    """(weight, ball count, center samples) for a uniform-n cover of [a, b].

    Each sample cell needs spacing/extent balls, where the extent is the
    spatial footprint of one cover ball around that cell.
    """
    xs, lam, phi = _segment_data(sys, pot, a, b, n)
    spacing = (b - a) / xs.shape[0]
    ext = ext_of_lam(lam, n)
    counts = spacing / ext
    total = float(counts.sum())
    if total <= 1.0:
        mid = xs.shape[0] // 2
        return math.exp(-s * n + float(phi[mid])), 1.0, xs[mid:mid + 1]
    weight = float(np.sum(counts * np.exp(-s * n + phi)))
    cum = np.cumsum(counts)
    marks = np.arange(0.5, min(total, 64.0), 1.0)
    centers = xs[np.searchsorted(cum, marks)]
    return weight, total, centers


def _bowen_extent(r: float):
    def ext(lam, n):
        return np.minimum(2.0 * r * np.exp(-lam), 1.0)
    return ext


def _metric_extent(omega: float):
    def ext(lam, n):
        return np.full_like(lam, min(2.0 * math.exp(-omega * n), 1.0))
    return ext


# ---------------------------------------------------------------------------
# Cover weights
# ---------------------------------------------------------------------------

def _best_level(sys: System, pot: Potential, segments, N: int, s: float,
                ext_of_lam) -> tuple[float, float, list, int]:
    """(weight, count, centers, n) of the cheapest single level n in N..N+4
    covering every segment; ties go to the lowest level."""
    best = None
    for n in range(N, N + _LEVELS):
        weight, count, centers = 0.0, 0.0, []
        for a, b in segments:
            w, c, cen = _segment_weight(sys, pot, a, b, n, s, ext_of_lam)
            weight += w
            count += c
            centers.extend(cen.tolist())
        if best is None or weight < best[0]:
            best = (weight, count, centers, n)
    return best


def _region_weight(sys: System, region: Region, pot: Potential, s: float,
                   N: int, ext_of_lam) -> tuple[str, float, float, tuple, tuple]:
    """(family, weight, count, centers, levels) of the cheaper cover family;
    ties go to uniform-n."""
    if region.space not in (CIRCLE, INTERVAL):
        raise ValueError(
            f"cover construction implemented for 1D regions, got "
            f"{region.space!r}")
    segments = [_interval_of(ball, region.space) for ball in region.balls]
    w, c, centers, n = _best_level(sys, pot, segments, N, s, ext_of_lam)
    uniform = ("uniform-n", w, c, tuple(centers[:64]), (n,))
    weight, count, centers, ns = 0.0, 0.0, [], set()
    for a, b in segments:
        edges = np.linspace(a, b, _CHUNKS + 1)
        ball_w, ball_c = 0.0, 0.0
        for lo, hi in zip(edges, edges[1:]):
            w, c, cen, n = _best_level(sys, pot, [(lo, hi)], N, s, ext_of_lam)
            ball_w += w
            ball_c += c
            centers.extend(cen[:8])
            ns.add(n)
        weight += ball_w
        count += ball_c
    if weight < uniform[1]:
        return ("refined", weight, count, tuple(centers[:64]),
                tuple(sorted(ns)))
    return uniform


def _cover_weight(sys: System, region: Region, pot: Potential, s: float,
                  N: int, ext_of_lam, r: float | None,
                  omega: float | None) -> CoverWeight:
    if N < 1:
        raise ValueError("N must be >= 1")
    family, w, c, centers, ns = _region_weight(sys, region, pot, s, N,
                                               ext_of_lam)
    return CoverWeight(w, s, r, omega, N, pot.kind, family, c, ns, centers)


def cover_weight(sys: System, region: Region, pot: Potential, s: float,
                 r: float, N: int) -> CoverWeight:
    """Weighted Bowen-ball cover sum, minimized over the two cover families
    on levels N..N+4: uniform-n (one level for the whole region) and
    refined (eight chunks per ball, each at its own level)."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return _cover_weight(sys, region, pot, s, N, _bowen_extent(r), r, None)


def translocal_cover_weight(sys: System, region: Region, pot: Potential,
                            s: float, omega: float, N: int) -> CoverWeight:
    """Cover sum with metric balls of radius exp(-omega * n_j), minimized
    as in `cover_weight`."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return _cover_weight(sys, region, pot, s, N, _metric_extent(omega),
                         None, omega)


# ---------------------------------------------------------------------------
# Critical exponent
# ---------------------------------------------------------------------------

def _log_weight_trend(weights, variant: str) -> float:
    data = [(w.N, math.log(max(w.value, 1e-300))) for w in weights]
    if variant == "translocal-upper":
        return growth_rate(data, "limsup").value
    if variant == "translocal-lower":
        return growth_rate(data, "liminf").value
    return _lstsq_slope(data)[0]


def critical_exponent(sys: System, region: Region, pot: Potential,
                      r: float | None = None, omega: float | None = None,
                      n_window: tuple = (3, 4, 5, 6, 7, 8),
                      s_grid: tuple = (0.0, 0.4, 0.8, 1.2, 1.6, 2.0),
                      variant: str = "bowen-ball",
                      tol: float = 0.02) -> CriticalExponent:
    """Bisection on s of the sign of the log-weight trend across N."""
    if variant == "bowen-ball" and r is None:
        raise ValueError("bowen-ball variant needs a radius r")
    if variant.startswith("translocal") and omega is None:
        raise ValueError("translocal variants need omega")

    def trend(s: float) -> float:
        ws = []
        for N in n_window:
            if variant == "bowen-ball":
                ws.append(cover_weight(sys, region, pot, s, r, N))
            else:
                ws.append(translocal_cover_weight(sys, region, pot, s,
                                                  omega, N))
        return _log_weight_trend(ws, variant)

    trends = {s: trend(s) for s in s_grid}
    bracket = None
    grid = sorted(s_grid)
    for lo, hi in zip(grid, grid[1:]):
        if trends[lo] > 0.0 and trends[hi] <= 0.0:
            bracket = [lo, hi]
            break
    if bracket is None:
        raise UnbracketedError(
            "no sign change of the cover-weight trend in the s-grid", trends)
    lo, hi = bracket
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if trend(mid) > 0.0:
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
    return pts[:max(count, 1)]


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
