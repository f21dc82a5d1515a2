"""Catalogue of dynamical systems behind one uniform evaluation interface.

Every system evaluates vectorized on coordinate arrays of shape (N, d).  A
1D map is its monotone branch table (see `Branch`) and nothing else: its
steps, log|f'|, kinks, `h_top` and `max_log_slope` are read off the table.
Building the catalogue and every scalar path of a 1D map (the step, orbits,
derivative and Birkhoff sums) use floats only; numpy is imported inside the
functions that build or read arrays, so a process that takes only scalar
paths never loads it.
Branch ends are left-closed: an end belongs to the branch starting there.
An iterate of a map whose branches are all affine and increasing onto the
circle is a composed table of its own, and an iterate of a torus map is
the map of the matrix power; any other iterate, whose table would need
inverse branches to compose, steps through its base system.
A torus map's spectrum is derived once, when it is built, from one
eigendecomposition.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable

from .errors import (HorizonExceededError, SingularOrbitError,
                     SpaceMismatchError)
from .spaces import CIRCLE, INTERVAL, SYMBOLIC, TORUS, Point

# the longest orbit any path steps
HORIZON = 100_000
STAIRCASE_LEVEL_CAP = 12
# a composed iterate table holds k^r branches; larger ones are refused
MAX_ITERATE_BRANCHES = 10_000

if TYPE_CHECKING:
    import numpy as np


def _derived(default=None):
    return field(init=False, repr=False, compare=False, default=default)


@dataclass(frozen=True)
class System:
    """A catalogue dynamical system, given by its `branches` (1D, sorted by
    `lo`), its integer `matrix` (torus), its `alphabet` (full shift), or the
    `base` f and `power` r of a 1D iterate f^r with no table of its own.

    The rest is derived.  `step_many` maps an (N, d) coordinate array one
    iterate forward, reduced into the phase space, `step` one 1D coordinate;
    `log_slope_many` gives log|f'|.  Of a table: `cuts` are the branch
    starts after the first; `log_slopes` is log|slope| per affine branch
    (None where curved); `singular_ends` flags each branch's (lo, hi) ends
    that are kinks, where the one-sided |slopes| differ; `uniform_slope` is
    s when every branch is affine with |slope| s; `h_top` is log k when all
    k branches map onto the unit domain; `max_log_slope` is None where
    log|f'| is unbounded.  Of a matrix: `spectrum` is its eigenvalue
    moduli with algebraic multiplicities, descending, and `expanding` the
    sup-normalised real directions of its eigenvalues of modulus above 1
    (a complex pair gives its real and imaginary parts), largest first.
    """

    name: str
    space: str
    dim: int
    matrix: tuple | None = None
    alphabet: int | None = None
    branches: tuple = ()
    base: System | None = None
    power: int = 1
    step: Callable | None = _derived()
    step_many: Callable | None = _derived()
    log_slope_many: Callable | None = _derived()
    cuts: tuple = _derived(())
    log_slopes: tuple = _derived(())
    singular_ends: tuple = _derived(())
    domains: frozenset = _derived(frozenset())
    uniform_slope: float | None = _derived()
    h_top: float | None = _derived()
    max_log_slope: float | None = _derived()
    spectrum: tuple = _derived(())
    expanding: tuple = _derived(())

    def __post_init__(self):
        rules = {"h_top": math.log(self.alphabet)} if self.alphabet else {}
        if self.branches:
            rules = _table_rules(self.branches, self.space)
        elif self.base is not None:
            rules = _iterate_rules(self.base, self.power)
        elif self.matrix is not None:
            rules = _torus_rules(self.matrix)
        for name, value in rules.items():
            object.__setattr__(self, name, value)


def evaluate(sys: System, x: Point) -> Point:
    """One application of the map, reduced into the phase space."""
    if x.space != sys.space:
        raise SpaceMismatchError(f"point in {x.space!r}, system on {sys.space!r}")
    if sys.space == SYMBOLIC:
        if len(x.word) < 1:
            raise HorizonExceededError("cannot shift an empty word")
        return Point(SYMBOLIC, word=x.word[1:])
    if sys.step is not None:
        return Point(sys.space, (sys.step(x.coords[0]),))
    import numpy as np
    out = sys.step_many(np.asarray([x.coords], dtype=float))[0]
    return Point(sys.space, tuple(float(v) for v in out))


def orbit(sys: System, x: Point, n: int) -> list[Point]:
    """[x, f(x), ..., f^(n-1)(x)]; n must be >= 1 and within the horizon."""
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    if n > HORIZON:
        raise HorizonExceededError(f"orbit length {n} exceeds horizon {HORIZON}")
    pts = [x]
    for _ in range(n - 1):
        pts.append(evaluate(sys, pts[-1]))
    return pts


def orbit_coords(sys: System, coords: np.ndarray, n: int) -> np.ndarray:
    """Stacked orbit segments: result[:, j] = f^j(coords), shape (N, n, d)."""
    if n > HORIZON:
        raise HorizonExceededError(f"orbit length {n} exceeds horizon {HORIZON}")
    import numpy as np
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    out = np.empty((coords.shape[0], n, coords.shape[1]))
    cur = coords
    for j in range(n):
        out[:, j] = cur
        if j + 1 < n:
            cur = sys.step_many(cur)
    return out


def point_orbit(sys: System, c: float, n: int) -> list[float]:
    """[c, f(c), ..., f^(n-1)(c)] for one 1D coordinate, by the scalar step."""
    if n > HORIZON:
        raise HorizonExceededError(f"orbit length {n} exceeds horizon {HORIZON}")
    step, out = sys.step, [c]
    for _ in range(n - 1):
        out.append(step(out[-1]))
    return out


def log_derivative_sum(sys: System, x: Point, n: int) -> float:
    """Chain-rule sum log|Df^n(x)| = sum_{j<n} log|f'(f^j x)|."""
    sums = log_derivative_sums(sys, x, n)
    return sums[-1] if sums else 0.0


def log_derivative_sums(sys: System, x: Point, n: int) -> list[float]:
    """[log|Df^k(x)| for k = 1..n]: one walk of x's orbit through the branch
    table, each point's log-slope read off the branch that holds it, and the
    running sum in orbit order.  An orbit point within 1e-12 of a kink of
    that branch raises SingularOrbitError."""
    if not sys.branches and sys.base is None:
        raise ValueError(f"system {sys.name!r} has no derivative rule")
    if x.space != sys.space:
        raise SpaceMismatchError(f"point in {x.space!r}, system on {sys.space!r}")
    if not sys.branches:
        # f^r: every r-th sum of f's, each f^r-step's r terms added in turn
        r = sys.power
        return log_derivative_sums(sys.base, x, r * n)[r - 1::r]
    if n > HORIZON:
        raise HorizonExceededError(f"orbit length {n} exceeds horizon {HORIZON}")
    table, cuts, logs, kinks = (sys.branches, sys.cuts, sys.log_slopes,
                                sys.singular_ends)
    step = sys.step
    sums = []
    total = 0.0
    c = x.coords[0]
    for _ in range(n):
        i = bisect_right(cuts, c)
        br = table[i]
        end = (br.lo if kinks[i][0] and c - br.lo < 1e-12 else
               br.hi if kinks[i][1] and br.hi - c < 1e-12 else None)
        if end is not None:
            raise SingularOrbitError(
                f"orbit of {x.coords} hits branch endpoint {end}")
        v = logs[i]
        total += v if v is not None else float(br.log_slope(c))
        sums.append(total)
        c = step(c)
    return sums


def _torus_rules(matrix) -> dict:
    """The step, `spectrum`, `expanding` directions and `h_top` of the torus
    map of an integer matrix, from one eigendecomposition."""
    import numpy as np
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("toral matrix must be square")
    if not np.allclose(a, np.round(a)):
        raise ValueError("toral matrix must have integer entries")
    vals, vecs = np.linalg.eig(a)
    spectrum: list[tuple[float, int]] = []
    for m in sorted(np.abs(vals), reverse=True):
        if spectrum and abs(spectrum[-1][0] - m) < 1e-9:
            spectrum[-1] = (spectrum[-1][0], spectrum[-1][1] + 1)
        else:
            spectrum.append((float(m), 1))
    directions = []
    for lam, vec in zip(vals, vecs.T):
        # a complex pair's real and imaginary parts span its plane once
        if lam.imag >= -1e-12:
            parts = (vec.real, vec.imag) if lam.imag > 1e-12 else (vec.real,)
            directions += [(abs(lam), v / np.abs(v).max()) for v in parts
                           if np.abs(v).max() > 1e-12]
    directions.sort(key=lambda t: -t[0])
    expanding = tuple(v for m, v in directions if m > 1.0 + 1e-12)
    for v in expanding:
        v.flags.writeable = False          # shared by every caller
    return {"step_many": lambda c: (c @ a.T) % 1.0,
            "spectrum": tuple(spectrum),
            "expanding": expanding,
            "h_top": float(sum(math.log(m) * mult for m, mult in spectrum
                               if m > 1.0))}


# ---------------------------------------------------------------------------
# Monotone branch tables (1D maps)
#
# Every 1D catalogue map is a union of continuous monotone branches, each
# mapping its domain interval onto a canonical interval ("unit" = [0, 1],
# ("band", m) = [2^-m, 2^(1-m)] for the staircase, "frozen" for its frozen
# tail).  The table is the map: stepping, derivatives and exact
# image-variation computations all read it, with no sampling.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """One monotone branch: `fn` maps [lo, hi] onto the canonical domain,
    on a float or elementwise on an array.  `slope` is fn's constant
    derivative when fn is affine; a curved branch has slope None, gives
    log|fn'| as `log_slope`, monotone on [lo, hi], and its one-sided values
    at (lo, hi) as `end_log_slopes`."""

    lo: float
    hi: float
    fn: Callable
    canonical: tuple
    slope: float | None = None
    log_slope: Callable | None = None
    end_log_slopes: tuple = ()


_UNIT = ("unit",)


def _table_rules(table: tuple, space: str) -> dict:
    """Everything a 1D map's attributes derive from its branch table."""
    cuts = tuple(br.lo for br in table[1:])
    fns = [br.fn for br in table]
    wraps = space == CIRCLE

    def step(c):
        y = fns[bisect_right(cuts, c)](c)
        return y % 1.0 if wraps else min(max(y, 0.0), 1.0)

    def per_branch(rules, x):
        # rules[i] applied to the points of x that branch i holds
        import numpy as np
        at = np.searchsorted(cuts, x, side="right")
        out = np.empty_like(x)
        for i in np.flatnonzero(np.bincount(at.ravel(), minlength=len(fns))):
            held = at == i
            out[held] = rules[i](x[held])
        return out

    def step_many(coords):
        import numpy as np
        y = per_branch(fns, coords[:, 0])
        return (y % 1.0 if wraps else np.clip(y, 0.0, 1.0)).reshape(-1, 1)

    logs = tuple(None if br.slope is None else math.log(abs(br.slope))
                 for br in table)
    log_rules = [br.log_slope if v is None else (lambda x, v=v: v)
                 for br, v in zip(table, logs)]

    def log_slope_many(coords):
        import numpy as np
        c = np.asarray(coords, dtype=float)
        return per_branch(log_rules, c[..., 0] if c.ndim > 1 else c)

    # one-sided log|slope| at each branch's (lo, hi) ends
    ends = [(v, v) if v is not None else br.end_log_slopes
            for br, v in zip(table, logs)]
    # kink[i]: branch i's lo end, which is branch i - 1's hi end (on the
    # circle, branch 0's lo end is the last branch's hi end)
    kink = [(i > 0 or wraps) and ends[i - 1][1] != ends[i][0]
            for i in range(len(table))]
    top = max(v for pair in ends for v in pair)
    slopes = {None if br.slope is None else abs(br.slope) for br in table}
    return {
        "step": step, "step_many": step_many,
        "log_slope_many": log_slope_many, "cuts": cuts, "log_slopes": logs,
        "singular_ends": tuple(zip(kink, kink[1:] + kink[:1])),
        "domains": frozenset(br.canonical for br in table),
        "uniform_slope": slopes.pop() if len(slopes) == 1 else None,
        "h_top": (math.log(len(table))
                  if all(br.canonical == _UNIT for br in table) else None),
        "max_log_slope": top if math.isfinite(top) else None,
    }


def _iterate_rules(base: System, r: int) -> dict:
    """The rules of f^r stepped through f, for a 1D f whose table does not
    compose."""
    def log_slope_many(c):
        import numpy as np
        c = np.asarray(c, dtype=float).reshape(-1, 1)
        total = np.zeros(c.shape[0])
        for _ in range(r):
            total += base.log_slope_many(c)
            c = base.step_many(c)
        return total

    return {"step": _repeat(base.step, r),
            "step_many": _repeat(base.step_many, r),
            "log_slope_many": log_slope_many,
            "h_top": None if base.h_top is None else r * base.h_top,
            "max_log_slope": (None if base.max_log_slope is None
                              else r * base.max_log_slope)}


def _repeat(f, r):
    def f_r(c):
        for _ in range(r):
            c = f(c)
        return c
    return f_r


def _affine(lo, hi, slope, intercept, canonical=_UNIT):
    """The affine branch x -> slope * x + intercept on [lo, hi]."""
    return Branch(lo, hi, lambda x: slope * x + intercept, canonical, slope)


def _sqrt(y):
    # math.sqrt keeps a float a float; both roots are correctly rounded
    if isinstance(y, float):
        return math.sqrt(y)
    import numpy as np
    return np.sqrt(y)


# The curved log-slopes take numpy's log on floats and arrays alike: its
# log and log1p round differently from math's on some inputs, and an orbit
# must read the same bits one point at a time as in one array.  At the
# branch ends both agree, so `end_log_slopes` are plain floats.

def _pomeau_manneville_log_slope(x):
    import numpy as np
    return -2.0 * np.log1p(-x)


def _sqrtmap_log_slope(x):
    import numpy as np
    with np.errstate(divide="ignore"):
        return -0.5 * np.log(2.0 * x)


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
    systems = (
        System("tripling", CIRCLE, 1,
               branches=(_affine(0.0, 1 / 3, 3.0, 0.0),
                         _affine(1 / 3, 2 / 3, 3.0, -1.0),
                         _affine(2 / 3, 1.0, 3.0, -2.0))),
        System("g3branch", CIRCLE, 1,
               branches=(_affine(0.0, 0.5, 2.0, 0.0),
                         _affine(0.5, 0.75, 4.0, -2.0),
                         _affine(0.75, 1.0, 4.0, -3.0))),
        System("pomeau-manneville", INTERVAL, 1,
               branches=(Branch(0.0, 0.5, lambda x: x / (1.0 - x), _UNIT,
                                log_slope=_pomeau_manneville_log_slope,
                                end_log_slopes=(0.0, 2.0 * math.log(2.0))),
                         _affine(0.5, 1.0, 2.0, -1.0))),
        System("sqrtmap", INTERVAL, 1,
               branches=(Branch(0.0, 0.5, lambda x: _sqrt(2.0 * x), _UNIT,
                                log_slope=_sqrtmap_log_slope,
                                end_log_slopes=(math.inf, 0.0)),
                         _affine(0.5, 1.0, 2.0, -1.0))),
        System("staircase", INTERVAL, 1, branches=_staircase_branches()),
        System("identity", CIRCLE, 1,
               branches=(Branch(0.0, 1.0, lambda x: x, _UNIT, 1.0),)),
    )
    return {sys.name: sys for sys in systems}


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
        return System(name=spec_id, space=TORUS, dim=d, matrix=rows)
    if spec_id.startswith("fullshift:"):
        k = int(spec_id.split(":", 1)[1])
        if k < 2:
            raise ValueError("full shift needs at least 2 symbols")
        return System(name=spec_id, space=SYMBOLIC, dim=1, alphabet=k)
    if spec_id.startswith("iterate:"):
        base_id, r = spec_id[len("iterate:"):].rsplit(":", 1)
        return iterate_system(get_system(base_id), int(r))
    raise KeyError(f"unknown system id {spec_id!r}")


def iterate_system(sys: System, r: int) -> System:
    """The map f^r, sharing f's phase space.  When every branch of f is
    affine and increasing onto the circle, f^r is the composed table of its
    k^r branches, and a torus map's f^r is the map of its matrix power;
    otherwise it records f as `base` and r as `power`."""
    if r < 1:
        raise ValueError("iterate count must be >= 1")
    if sys.space == SYMBOLIC:
        raise ValueError("iterate shifts by composing evaluate calls instead")
    name = f"{sys.name}^{r}"
    if full_branch_slopes(sys) is not None \
            and all(br.slope > 0 for br in sys.branches):
        size = len(sys.branches) ** r
        if size > MAX_ITERATE_BRANCHES:
            raise ValueError(f"{name} would have {size} composed branches")
        table = sys.branches
        for _ in range(r - 1):
            table = _compose(sys.branches, table)
        return System(name, sys.space, sys.dim, branches=table)
    if sys.matrix is not None:
        import numpy as np
        # in exact integers; the float step holds entries up to 2^53 exactly
        power = np.linalg.matrix_power(np.asarray(sys.matrix, dtype=object), r)
        if np.abs(power).max() > 2 ** 53:
            raise ValueError(f"{name} has matrix entries beyond 2^53")
        return System(name, sys.space, sys.dim, matrix=tuple(
            tuple(int(v) for v in row) for row in power))
    return System(name, sys.space, sys.dim, base=sys, power=r)


def _compose(first: tuple, then: tuple) -> tuple:
    """The table of `then` applied after `first`, for a circle map.  Each
    branch a of `first` is affine and increasing onto the unit domain, so
    it maps about [a.lo + b.lo / a.slope, a.lo + b.hi / a.slope] onto b's
    domain; there the composed branch runs a's fn, then b's, with slope
    a.slope * b.slope."""
    out = []
    for a in first:
        los = [a.lo] + [_first_landing(a, b.lo) for b in then[1:]]
        for lo, hi, b in zip(los, los[1:] + [a.hi], then):
            out.append(Branch(lo, hi, lambda x, f=a.fn, g=b.fn: g(f(x)),
                              _UNIT, a.slope * b.slope))
    return tuple(out)


def _first_landing(a: Branch, y: float) -> float:
    """The least float x that branch a steps to y or beyond, as the rounded
    step does: a composed table then splits exactly where one step after
    another looks its branches up."""
    x = a.lo + y / a.slope
    while a.fn(x) % 1.0 < y:
        x = math.nextafter(x, math.inf)
    while a.fn(below := math.nextafter(x, -math.inf)) % 1.0 >= y:
        x = below
    return x


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


def full_branch_slopes(sys: System) -> tuple | None:
    """|slope| of each branch when `sys` is a circle map whose every branch
    is affine onto the unit domain, else None.  Such a map preserves
    Lebesgue measure: its branches partition the circle, so the sum of
    1/|slope| is 1."""
    if sys.space != CIRCLE or not sys.branches or any(
            br.slope is None or br.canonical != _UNIT for br in sys.branches):
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
    """Continuous potential: zero, constant(c) or geometric(t) = -t*log|f'|."""

    kind: str = "zero"
    c: float = 0.0
    t: float = 1.0

    def values(self, sys: System, coords: np.ndarray) -> np.ndarray:
        import numpy as np
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
        raise ValueError(f"unknown potential kind {self.kind!r}")

    def value(self, sys: System, c: float) -> float:
        """The potential at one coordinate of a 1D map with a branch table,
        as a float: log|f'| is read off the branch that holds c."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.c
        if self.kind == "geometric":
            i = bisect_right(sys.cuts, c)
            v = sys.log_slopes[i]
            return -self.t * (v if v is not None
                              else float(sys.branches[i].log_slope(c)))
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
    max(n_values).  Each sum is taken over its own prefix of the orbit's
    potential values, so it equals the sum over an orbit of length n bit
    for bit.  A table map's orbit is stepped and priced one float at a
    time and each prefix summed by the correctly rounded `math.fsum`; any
    other map's orbit is an array, each prefix summed pairwise by
    `np.sum`.  A running sum would round differently from either."""
    if pot.kind == "zero":
        return [0.0 for _ in n_values]
    if pot.kind == "constant":
        return [pot.c * n for n in n_values]
    if sys.space == SYMBOLIC:
        raise ValueError("non-constant potentials unsupported on shift spaces")
    n = max(n_values)
    if sys.branches:
        phi = [pot.value(sys, c) for c in point_orbit(sys, x.coords[0], n)]
        return [math.fsum(phi[:n]) for n in n_values]
    import numpy as np
    orb = (np.asarray(point_orbit(sys, x.coords[0], n))[:, None]
           if sys.step is not None
           else orbit_coords(sys, np.asarray([x.coords]), n)[0])
    phi = pot.values(sys, orb)
    return [float(np.sum(phi[:n])) for n in n_values]
