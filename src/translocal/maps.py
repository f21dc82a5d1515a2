"""Catalogue of dynamical systems behind one uniform evaluation interface.

Every system evaluates vectorized on coordinate arrays of shape (N, d); 1D
systems additionally expose log|f'| pointwise, toral systems their integer
matrix.  Each 1D catalogue map carries its full monotone branch table, built
once with the catalogue; an iterate made by `iterate_system` records its base
system and power instead.  Branch endpoints are left-closed: the endpoint
belongs to the branch starting there.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable

import numpy as np

from .errors import (HorizonExceededError, SingularOrbitError,
                     SpaceMismatchError)
from .spaces import CIRCLE, INTERVAL, SYMBOLIC, TORUS, Point

DEFAULT_HORIZON = 100_000
STAIRCASE_LEVEL_CAP = 12


@dataclass(frozen=True)
class System:
    """A catalogue dynamical system.

    `step_many` maps an (N, d) coordinate array one iterate forward (already
    reduced into the phase space).  `log_slope_many`, present for 1D systems
    with a derivative rule, returns log|f'| at each coordinate.
    `branches` is the full monotone branch table of a 1D map, sorted by `lo`
    (see `Branch`); exact image variation pushes intervals through it, and
    `domains` holds the canonical domains its branches map onto, and
    `uniform_slope` is s when every branch is affine with |slope| s (else
    None).  An iterate f^r has no table of its own: `base` is f and
    `power` is r.
    `lebesgue_circle_invariant` marks circle maps that preserve Lebesgue
    measure (every branch is affine onto the whole circle).
    """

    name: str
    space: str
    dim: int
    step_many: Callable[[np.ndarray], np.ndarray] | None = None
    log_slope_many: Callable[[np.ndarray], np.ndarray] | None = None
    breakpoints: tuple = ()
    matrix: tuple | None = None
    h_top: float | None = None
    alphabet: int | None = None
    horizon: int = DEFAULT_HORIZON
    max_log_slope: float | None = None
    branches: tuple = ()
    base: System | None = None
    power: int = 1
    lebesgue_circle_invariant: bool = False
    domains: frozenset = field(init=False, repr=False, compare=False)
    uniform_slope: float | None = field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        object.__setattr__(self, "domains",
                           frozenset(br.canonical for br in self.branches))
        slopes = {None if br.slope is None else abs(br.slope)
                  for br in self.branches}
        object.__setattr__(self, "uniform_slope",
                           slopes.pop() if len(slopes) == 1 else None)


def evaluate(sys: System, x: Point) -> Point:
    """One application of the map, reduced into the phase space."""
    if x.space != sys.space:
        raise SpaceMismatchError(f"point in {x.space!r}, system on {sys.space!r}")
    if sys.space == SYMBOLIC:
        if len(x.word) < 1:
            raise HorizonExceededError("cannot shift an empty word")
        return Point(SYMBOLIC, word=x.word[1:])
    out = sys.step_many(np.asarray([x.coords], dtype=float))[0]
    return Point(sys.space, tuple(float(v) for v in out))


def orbit(sys: System, x: Point, n: int) -> list[Point]:
    """[x, f(x), ..., f^(n-1)(x)]; n must be >= 1 and within the horizon."""
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    if n > sys.horizon:
        raise HorizonExceededError(f"orbit length {n} exceeds horizon {sys.horizon}")
    pts = [x]
    for _ in range(n - 1):
        pts.append(evaluate(sys, pts[-1]))
    return pts


def orbit_coords(sys: System, coords: np.ndarray, n: int) -> np.ndarray:
    """Stacked orbit segments: result[:, j] = f^j(coords), shape (N, n, d)."""
    if n > sys.horizon:
        raise HorizonExceededError(f"orbit length {n} exceeds horizon {sys.horizon}")
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    out = np.empty((coords.shape[0], n, coords.shape[1]))
    cur = coords
    for j in range(n):
        out[:, j] = cur
        if j + 1 < n:
            cur = sys.step_many(cur)
    return out


def log_derivative_sum(sys: System, x: Point, n: int) -> float:
    """Chain-rule sum log|Df^n(x)| = sum_{j<n} log|f'(f^j x)|."""
    sums = log_derivative_sums(sys, x, n)
    return sums[-1] if sums else 0.0


def log_derivative_sums(sys: System, x: Point, n: int) -> list[float]:
    """[log|Df^k(x)| for k = 1..n]: one orbit, one log-slope call over it,
    and the running sum in orbit order."""
    if sys.log_slope_many is None:
        raise ValueError(f"system {sys.name!r} has no derivative rule")
    if x.space != sys.space:
        raise SpaceMismatchError(f"point in {x.space!r}, system on {sys.space!r}")
    pts = orbit_coords(sys, x.coords, n)[0]
    near = np.abs(pts - np.asarray(sys.breakpoints, dtype=float)) < 1e-12
    # row-major order: the first orbit point first
    for _, i in zip(*np.nonzero(near)):
        b = sys.breakpoints[i]
        if not _differentiable_at(sys, b):
            raise SingularOrbitError(
                f"orbit of {x.coords} hits branch endpoint {b}")
    sums = []
    total = 0.0
    for v in sys.log_slope_many(pts).tolist():
        total += v
        sums.append(total)
    return sums


def _differentiable_at(sys: System, b: float) -> bool:
    # Probe one-sided slopes; endpoints with matching slopes are fine.
    h = 1e-9
    left = sys.log_slope_many(np.asarray([(b - h) % 1.0 if sys.space == CIRCLE
                                          else max(b - h, 0.0)]))[0]
    right = sys.log_slope_many(np.asarray([b]))[0]
    return bool(np.isfinite(left) and np.isfinite(right)
                and abs(left - right) < 1e-6)


def toral_eigen_data(sys: System) -> list[tuple[float, int]]:
    """Eigenvalue moduli with algebraic multiplicities, descending."""
    if sys.matrix is None:
        raise ValueError(f"system {sys.name!r} is not toral")
    a = np.asarray(sys.matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("toral matrix must be square")
    if not np.allclose(a, np.round(a)):
        raise ValueError("toral matrix must have integer entries")
    moduli = sorted(np.abs(np.linalg.eigvals(a)), reverse=True)
    grouped: list[tuple[float, int]] = []
    for m in moduli:
        if grouped and abs(grouped[-1][0] - m) < 1e-9:
            grouped[-1] = (grouped[-1][0], grouped[-1][1] + 1)
        else:
            grouped.append((float(m), 1))
    return grouped


# ---------------------------------------------------------------------------
# Catalogue maps
# ---------------------------------------------------------------------------

def _tripling_step(x):
    return (3.0 * x) % 1.0


def _g_step(x):
    y = np.where(x < 0.5, 2.0 * x, np.where(x < 0.75, 4.0 * x - 2.0, 4.0 * x - 3.0))
    return y % 1.0


def _g_log_slope(x):
    return np.where(x < 0.5, math.log(2.0), math.log(4.0))


def _pm_step(x):
    x = x[..., 0] if x.ndim > 1 else x
    # both branches are evaluated; the guards change only the discarded one
    y = np.where(x < 0.5, x / np.maximum(1.0 - x, 0.5), 2.0 * x - 1.0)
    return np.clip(y, 0.0, 1.0)


def _pm_log_slope(x):
    return np.where(x < 0.5, -2.0 * np.log1p(-np.minimum(x, 0.5)),
                    math.log(2.0))


def _sqrt_step(x):
    y = np.where(x < 0.5, np.sqrt(2.0 * x), 2.0 * x - 1.0)
    return np.clip(y, 0.0, 1.0)


def _sqrt_log_slope(x):
    with np.errstate(divide="ignore"):
        return np.where(x < 0.5, -0.5 * np.log(2.0 * x), math.log(2.0))


def _staircase_level(x):
    # x in (2^-n, 2^(1-n)] has level n; exact powers of two sit at the top
    # of their own interval.
    with np.errstate(divide="ignore"):
        return np.floor(-np.log2(np.maximum(x, 1e-300))).astype(int) + 1


def _staircase_step(x):
    flat = x[..., 0] if x.ndim > 1 else x
    n = _staircase_level(flat)
    frozen = (n > STAIRCASE_LEVEL_CAP) | (flat <= 0.0)
    n = np.clip(n, 1, STAIRCASE_LEVEL_CAP)
    base = np.power(2.0, -n.astype(float))
    laps = 2 * n + 1
    t = np.clip((flat - base) / base, 0.0, 1.0)
    s = t * laps
    j = np.clip(np.ceil(s) - 1, 0, laps - 1).astype(int)
    frac = s - j
    y = np.where(j % 2 == 0, frac, 1.0 - frac)
    out = base * (1.0 + y)
    return np.where(frozen, flat, out)


def _staircase_log_slope(x):
    n = np.clip(_staircase_level(np.maximum(x, 1e-300)), 1, STAIRCASE_LEVEL_CAP)
    return np.log(2.0 * n + 1.0)


def _wrap_1d(fn):
    def step(c):
        return fn(c[:, 0]).reshape(-1, 1)
    return step


def _slope_1d(fn):
    def slope(c):
        c = np.asarray(c, dtype=float)
        return fn(c[..., 0] if c.ndim > 1 else c)
    return slope


def _toral_step(matrix):
    a = np.asarray(matrix, dtype=float)

    def step(c):
        return (c @ a.T) % 1.0

    return step


# ---------------------------------------------------------------------------
# Monotone branch tables (1D maps)
#
# Every 1D catalogue map is a union of continuous monotone branches, each
# mapping its domain interval onto a canonical interval ("unit" = [0, 1],
# ("band", m) = [2^-m, 2^(1-m)] for the staircase, "frozen" for its frozen
# tail).  This supports exact image-variation computations with no sampling.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """One monotone branch: `fn` maps [lo, hi] onto the canonical domain;
    `slope` is fn's constant derivative when fn is affine, else None."""

    lo: float
    hi: float
    fn: Callable[[float], float]
    canonical: tuple
    slope: float | None = None


_UNIT = ("unit",)


def _affine(lo, hi, slope, intercept, canonical=_UNIT):
    """The affine branch x -> slope * x + intercept on [lo, hi]."""
    return Branch(lo, hi, lambda x: slope * x + intercept, canonical, slope)


def _staircase_lap_fn(base, laps, j):
    def fn(x):
        s = (x - base) / base * laps - j
        y = s if j % 2 == 0 else 1.0 - s
        return base * (1.0 + y)
    return fn


def _staircase_branches() -> tuple:
    floor_cut = 2.0 ** (-STAIRCASE_LEVEL_CAP)
    out = [Branch(0.0, floor_cut, lambda x: x, ("frozen",), 1.0)]
    for m in range(1, STAIRCASE_LEVEL_CAP + 1):
        base = 2.0 ** (-m)
        laps = 2 * m + 1
        width = base / laps
        for j in range(laps):
            out.append(Branch(base + j * width, base + (j + 1) * width,
                              _staircase_lap_fn(base, laps, j), ("band", m),
                              float(laps if j % 2 == 0 else -laps)))
    out.sort(key=lambda br: br.lo)
    return tuple(out)


def _catalogue() -> dict[str, System]:
    log3 = math.log(3.0)
    systems = {
        "tripling": System(
            name="tripling", space=CIRCLE, dim=1,
            step_many=_wrap_1d(_tripling_step),
            log_slope_many=_slope_1d(lambda x: np.full_like(x, log3)),
            breakpoints=(0.0, 1 / 3, 2 / 3),
            h_top=log3, max_log_slope=log3,
            branches=(_affine(0.0, 1 / 3, 3.0, 0.0),
                      _affine(1 / 3, 2 / 3, 3.0, -1.0),
                      _affine(2 / 3, 1.0, 3.0, -2.0)),
            lebesgue_circle_invariant=True,
        ),
        "g3branch": System(
            name="g3branch", space=CIRCLE, dim=1,
            step_many=_wrap_1d(_g_step),
            log_slope_many=_slope_1d(_g_log_slope),
            breakpoints=(0.0, 0.5, 0.75),
            h_top=log3, max_log_slope=math.log(4.0),
            branches=(_affine(0.0, 0.5, 2.0, 0.0),
                      _affine(0.5, 0.75, 4.0, -2.0),
                      _affine(0.75, 1.0, 4.0, -3.0)),
            lebesgue_circle_invariant=True,
        ),
        "pomeau-manneville": System(
            name="pomeau-manneville", space=INTERVAL, dim=1,
            step_many=_wrap_1d(_pm_step),
            log_slope_many=_slope_1d(_pm_log_slope),
            breakpoints=(0.5,),
            h_top=math.log(2.0), max_log_slope=math.log(4.0),
            branches=(Branch(0.0, 0.5, lambda x: x / (1.0 - x), _UNIT),
                      _affine(0.5, 1.0, 2.0, -1.0)),
        ),
        "sqrtmap": System(
            name="sqrtmap", space=INTERVAL, dim=1,
            step_many=_wrap_1d(_sqrt_step),
            log_slope_many=_slope_1d(_sqrt_log_slope),
            breakpoints=(0.5,),
            h_top=math.log(2.0), max_log_slope=None,
            branches=(Branch(0.0, 0.5, lambda x: math.sqrt(2.0 * x), _UNIT),
                      _affine(0.5, 1.0, 2.0, -1.0)),
        ),
        "staircase": System(
            name="staircase", space=INTERVAL, dim=1,
            step_many=_wrap_1d(_staircase_step),
            log_slope_many=_slope_1d(_staircase_log_slope),
            breakpoints=(),
            h_top=None, max_log_slope=math.log(2 * STAIRCASE_LEVEL_CAP + 1),
            branches=_staircase_branches(),
        ),
        "identity": System(
            name="identity", space=CIRCLE, dim=1,
            step_many=_wrap_1d(lambda x: x),
            log_slope_many=_slope_1d(lambda x: np.zeros_like(x)),
            h_top=0.0, max_log_slope=0.0,
            branches=(Branch(0.0, 1.0, lambda x: x, _UNIT, 1.0),),
            lebesgue_circle_invariant=True,
        ),
    }
    return systems


_CATALOGUE = _catalogue()

CAT_MATRIX = ((2, 1), (1, 1))


def get_system(spec_id: str) -> System:
    """Resolve a string identifier into a System.

    Parameterized ids: toral:<matrix>, fullshift:<k>, iterate:<id>:<R>.
    The matrix literal is rows separated by ';' with ',' separated entries,
    e.g. "toral:2,1;1,1" for the cat map.
    """
    if spec_id in _CATALOGUE:
        return _CATALOGUE[spec_id]
    if spec_id == "cat":
        return get_system("toral:2,1;1,1")
    if spec_id.startswith("toral:"):
        rows = tuple(tuple(int(v) for v in row.split(","))
                     for row in spec_id[len("toral:"):].split(";"))
        d = len(rows)
        if any(len(r) != d for r in rows):
            raise ValueError(f"non-square toral matrix in {spec_id!r}")
        toral = System(name=spec_id, space=TORUS, dim=d,
                       step_many=_toral_step(rows), matrix=rows)
        top = float(sum(math.log(m) * mult
                        for m, mult in toral_eigen_data(toral) if m > 1.0))
        return replace(toral, h_top=top)
    if spec_id.startswith("fullshift:"):
        k = int(spec_id.split(":", 1)[1])
        if k < 2:
            raise ValueError("full shift needs at least 2 symbols")
        return System(name=spec_id, space=SYMBOLIC, dim=1,
                      alphabet=k, h_top=math.log(k))
    if spec_id.startswith("iterate:"):
        base_id, r = spec_id[len("iterate:"):].rsplit(":", 1)
        return iterate_system(get_system(base_id), int(r))
    raise KeyError(f"unknown system id {spec_id!r}")


def iterate_system(sys: System, r: int) -> System:
    """The map f^r, sharing f's phase space; it records f as `base` and r
    as `power` and keeps f's Lebesgue invariance."""
    if r < 1:
        raise ValueError("iterate count must be >= 1")
    if sys.space == SYMBOLIC:
        raise ValueError("iterate shifts by composing evaluate calls instead")

    def step(c):
        for _ in range(r):
            c = sys.step_many(c)
        return c

    log_slope = None
    if sys.log_slope_many is not None:
        def log_slope(c):  # noqa: F811 - deliberate rebind
            c = np.atleast_2d(np.asarray(c, dtype=float))
            total = np.zeros(c.shape[0])
            cur = c
            for _ in range(r):
                total += sys.log_slope_many(cur)
                cur = sys.step_many(cur)
            return total

    matrix = None
    if sys.matrix is not None:
        matrix = tuple(tuple(int(v) for v in row) for row in
                       np.linalg.matrix_power(np.asarray(sys.matrix, dtype=int), r))
    return System(
        name=f"{sys.name}^{r}", space=sys.space, dim=sys.dim,
        step_many=step, log_slope_many=log_slope,
        breakpoints=sys.breakpoints, matrix=matrix,
        h_top=None if sys.h_top is None else r * sys.h_top,
        alphabet=sys.alphabet, horizon=sys.horizon,
        max_log_slope=None if sys.max_log_slope is None else r * sys.max_log_slope,
        base=sys, power=r,
        lebesgue_circle_invariant=sys.lebesgue_circle_invariant,
    )


def root_system(sys: System) -> tuple[System, int]:
    """(g, r) with `sys` = g^r and g no iterate; nested iterates multiply."""
    r = 1
    while sys.base is not None:
        sys, r = sys.base, r * sys.power
    return sys, r


def catalogue_ids() -> list[str]:
    return sorted(_CATALOGUE) + ["toral:<matrix>", "fullshift:<k>",
                                 "iterate:<id>:<r>"]


# ---------------------------------------------------------------------------
# Branch queries
# ---------------------------------------------------------------------------

_BRANCH_LO = attrgetter("lo")
_BRANCH_HI = attrgetter("hi")


def monotone_branches(sys: System, lo: float, hi: float) -> tuple:
    """The branches of `sys`'s table that intersect (lo, hi)."""
    table = sys.branches
    if not table:
        raise ValueError(f"system {sys.name!r} has no monotone branch table")
    return table[bisect_right(table, lo, key=_BRANCH_HI):
                 bisect_left(table, hi, key=_BRANCH_LO)]


def branch_index(sys: System, c: float) -> int:
    """Index in `sys`'s table of the branch that holds c."""
    return bisect_right(sys.branches, c, key=_BRANCH_LO) - 1


def full_branch_slopes(sys: System) -> tuple | None:
    """|slope| of each branch when `sys` is a root circle map whose every
    branch is affine onto the unit domain, else None."""
    if sys.space != CIRCLE or sys.base is not None or not sys.branches:
        return None
    if any(br.slope is None or br.canonical != _UNIT for br in sys.branches):
        return None
    return tuple(abs(br.slope) for br in sys.branches)


def canonical_growth(sys: System, canonical: tuple, k: int) -> float:
    """Image variation of f^k over a canonical domain of `sys`'s table."""
    if k < 0:
        raise ValueError("negative iterate count")
    if canonical not in sys.domains:
        raise ValueError(
            f"system {sys.name!r} has no branch onto {canonical!r}")
    kind = canonical[0]
    if kind == "frozen":
        return 2.0 ** (-STAIRCASE_LEVEL_CAP)
    if kind == "band":
        m = canonical[1]
        return (2 * m + 1) ** k * 2.0 ** (-m)
    # "unit" branches come only in full-branch tables, each covering [0, 1]
    return float(len(sys.branches)) ** k


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """Continuous potential: zero, constant(c), geometric(t) = -t*log|f'|,
    or a lookup table on a 1D grid (linearly interpolated)."""

    kind: str = "zero"
    c: float = 0.0
    t: float = 1.0
    table_x: tuple = ()
    table_y: tuple = ()

    def values(self, sys: System, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        flat = coords[..., 0] if coords.ndim > 1 else coords
        if self.kind == "zero":
            return np.zeros_like(flat)
        if self.kind == "constant":
            return np.full_like(flat, self.c)
        if self.kind == "geometric":
            if sys.log_slope_many is None:
                raise ValueError("geometric potential needs a derivative rule")
            return -self.t * sys.log_slope_many(coords)
        if self.kind == "table":
            return np.interp(flat, self.table_x, self.table_y)
        raise ValueError(f"unknown potential kind {self.kind!r}")


ZERO_POTENTIAL = Potential("zero")


def get_potential(spec_id: str) -> Potential:
    if spec_id in ("zero", "0"):
        return ZERO_POTENTIAL
    if spec_id.startswith("constant:"):
        return Potential("constant", c=float(spec_id.split(":", 1)[1]))
    if spec_id.startswith("geometric:"):
        return Potential("geometric", t=float(spec_id.split(":", 1)[1]))
    raise KeyError(f"unknown potential id {spec_id!r}")


def birkhoff_sum(pot: Potential, sys: System, x: Point, n: int) -> float:
    """sum_{m<n} phi(f^m x)."""
    return birkhoff_sums(pot, sys, x, (n,))[0]


def birkhoff_sums(pot: Potential, sys: System, x: Point,
                  n_values) -> list[float]:
    """[sum_{m<n} phi(f^m x) for n in n_values], from one orbit of length
    max(n_values).  Each sum is np.sum over its own prefix of the orbit's
    potential values, so it equals the sum over an orbit of length n bit
    for bit; a running cumsum would round differently, as np.sum adds
    pairwise."""
    if pot.kind == "zero":
        return [0.0 for _ in n_values]
    if pot.kind == "constant":
        return [pot.c * n for n in n_values]
    if sys.space == SYMBOLIC:
        raise ValueError("non-constant potentials unsupported on shift spaces")
    orb = orbit_coords(sys, np.asarray([x.coords]), max(n_values))[0]
    phi = pot.values(sys, orb)
    return [float(np.sum(phi[:n])) for n in n_values]
