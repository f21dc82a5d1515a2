"""Catalogue of dynamical systems behind one uniform evaluation interface.

Every system evaluates vectorized on coordinate arrays of shape (N, d).  A
1D map is its monotone branch table (see `Branch`) and nothing else: its
steps, log|f'|, kinks, `h_top` and `max_log_slope` are read off the table.
Each catalogue map is built on its first request.
Building the catalogue and every scalar path of a 1D map (the step, orbits,
derivative and Birkhoff sums) use floats only; numpy is imported inside the
functions that build or read arrays, so a process that takes only scalar
paths never loads it.
Branch ends are left-closed: an end belongs to the branch starting there.
An iterate of a map whose branches are all affine and increasing onto the
circle is a composed table of its own, and an iterate of a torus map is
the map of the matrix power; any other iterate, whose table would need
inverse branches to compose, steps through its base system.
A torus map's spectrum and expanding directions are derived once, when it
is built: in closed form from the trace and determinant of a 2x2 matrix,
from one numpy eigendecomposition of a larger one.  Matrix powers are taken
in exact integers, so a 2-torus is built, iterated and counted without
numpy; only its array step loads it.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cache
from operator import attrgetter
from typing import TYPE_CHECKING, Callable

from .errors import (HorizonExceededError, SingularOrbitError,
                     SpaceMismatchError)
from .spaces import (CIRCLE, INTERVAL, SYMBOLIC, TORUS, Point, Record,
                     init_field)

# the longest orbit any path steps
HORIZON = 100_000
STAIRCASE_LEVEL_CAP = 12
# a composed iterate table holds k^r branches; larger ones are refused
MAX_ITERATE_BRANCHES = 10_000

if TYPE_CHECKING:
    import numpy as np


# a System's derived attributes, each with its value where no rule sets it
_DERIVED = {"step": None, "step_many": None, "log_slope_many": None,
            "cuts": (), "log_slopes": (), "singular_ends": (),
            "uniform_slope": None, "h_top": None, "max_log_slope": None,
            "spectrum": (), "expanding": ()}


class System(Record):
    """A catalogue dynamical system, given by its `branches` (1D, sorted by
    `lo`), its integer `matrix` (torus), its `alphabet` (full shift), or the
    `base` f and `power` r of a 1D iterate f^r with no table of its own.

    The rest is derived, set once when it is built, and left out of its
    repr, equality and hash.  `step_many` maps an (N, d) coordinate array one
    iterate forward, reduced into the phase space, `step` one 1D coordinate;
    `log_slope_many` gives log|f'|.  Of a table: `cuts` are the branch
    starts after the first; `log_slopes` is log|slope| per affine branch
    (None where curved); `singular_ends` flags each branch's (lo, hi) ends
    that are kinks, where the one-sided |slopes| differ; `uniform_slope` is
    s when every branch is affine with |slope| s; `h_top` is log k when all
    k branches map onto [0, 1]; `max_log_slope` is None where
    log|f'| is unbounded.  Of a matrix: `spectrum` is its eigenvalue
    moduli with algebraic multiplicities, descending, and `expanding` the
    sup-normalised real directions of its eigenvalues of modulus above 1
    (a complex pair gives its real and imaginary parts), largest first,
    each a tuple of floats.
    """

    _fields = ("name", "space", "matrix", "alphabet", "branches", "base",
               "power")
    __slots__ = _fields + tuple(_DERIVED)

    def __init__(self, name: str, space: str, matrix: tuple | None = None,
                 alphabet: int | None = None, branches: tuple = (),
                 base: System | None = None, power: int = 1):
        init_field(self, "name", name)
        init_field(self, "space", space)
        init_field(self, "matrix", matrix)
        init_field(self, "alphabet", alphabet)
        init_field(self, "branches", branches)
        init_field(self, "base", base)
        init_field(self, "power", power)
        rules = {"h_top": math.log(alphabet)} if alphabet else {}
        if branches:
            rules = _table_rules(branches, space)
        elif base is not None:
            rules = _iterate_rules(base, power)
        elif matrix is not None:
            rules = _torus_rules(matrix)
        for attr, default in _DERIVED.items():
            init_field(self, attr, rules.get(attr, default))

    @property
    def dim(self) -> int:
        """The phase space's dimension: the matrix size of a torus map."""
        return 1 if self.matrix is None else len(self.matrix)


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
    map of an integer matrix: in closed form for a 2x2 matrix, from one
    eigendecomposition for a larger one."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("toral matrix must be square")
    if any(v != round(v) for row in matrix for v in row):
        raise ValueError("toral matrix must have integer entries")
    eigen = (_eigen_2x2(*matrix[0], *matrix[1]) if len(matrix) == 2
             else _eigen_lapack(matrix))
    spectrum: list[tuple[float, int]] = []
    for m in sorted((m for m, _ in eigen), reverse=True):
        if spectrum and abs(spectrum[-1][0] - m) < 1e-9:
            spectrum[-1] = (spectrum[-1][0], spectrum[-1][1] + 1)
        else:
            spectrum.append((m, 1))
    directions = sorted(((m, v) for m, parts in eigen for v in parts),
                        key=lambda t: -t[0])

    def step_many(coords):
        import numpy as np
        return (coords @ np.asarray(matrix, dtype=float).T) % 1.0

    return {"step_many": step_many,
            "spectrum": tuple(spectrum),
            "expanding": tuple(v for m, v in directions if m > 1.0 + 1e-12),
            "h_top": float(sum(math.log(m) * mult for m, mult in spectrum
                               if m > 1.0))}


# Each eigen-data rule gives one (|lam|, real directions) pair per eigenvalue
# lam, with multiplicity.  A real lam's direction is its eigenvector; of a
# complex pair, the member of positive imaginary part gives the real and
# imaginary parts of its eigenvector, whose first component of largest
# modulus is made real (LAPACK's convention), and the other member none.
# Every direction is divided by its largest modulus.

def _eigen_2x2(a, b, c, d) -> list[tuple[float, tuple]]:
    """The eigen data of [[a, b], [c, d]], from its trace and determinant."""
    tr, det = a + d, a * d - b * c
    disc = tr * tr - 4 * det
    if disc < 0:
        # b != 0; lam = (tr + i*beta) / 2 has eigenvector (b, lam - a), whose
        # squared moduli are b^2 and -bc
        beta = math.sqrt(-disc)
        if b * b >= -b * c:
            re, im = (b * b, b * (d - a) / 2), (0.0, b * beta / 2)
        else:
            re, im = (b * (d - a) / 2, -b * c), (-b * beta / 2, 0.0)
        mod = math.sqrt(det)
        return [(mod, (_unit(re), _unit(im))), (mod, ())]
    if disc == 0:
        lam = tr / 2
        if b == c == 0:
            return [(abs(lam), ((1.0, 0.0),)), (abs(lam), ((0.0, 1.0),))]
        v = _unit((b, lam - a) if b else (lam - d, c))
        return [(abs(lam), (v,)), (abs(lam), (v,))]
    root = math.sqrt(disc)
    sign = 1 if tr >= 0 else -1
    big = (tr + sign * root) / 2
    out = []
    for s, lam in ((sign, big), (-sign, det / big)):
        # (b, lam - a) and (lam - d, c) are both eigenvectors; lam - a =
        # (d - a + s*root) / 2 is free of cancellation when s*(d - a) >= 0
        v = ((b, (d - a + s * root) / 2) if s * (d - a) >= 0
             else ((a - d + s * root) / 2, c))
        out.append((abs(lam), (_unit(v),)))
    return out


def _eigen_lapack(matrix) -> list[tuple[float, tuple]]:
    """The eigen data of a square integer matrix, from `np.linalg.eig`."""
    import numpy as np
    vals, vecs = np.linalg.eig(np.asarray(matrix, dtype=float))
    out = []
    for lam, vec in zip(vals, vecs.T):
        parts = ((vec.real, vec.imag) if lam.imag > 1e-12 else
                 (vec.real,) if lam.imag >= -1e-12 else ())
        out.append((float(abs(lam)),
                    tuple(_unit([float(x) for x in v]) for v in parts
                          if np.abs(v).max() > 1e-12)))
    return out


def _unit(v) -> tuple:
    """v divided by its largest modulus."""
    top = max(map(abs, v))
    return tuple(x / top for x in v)


def int_matmul(a, b) -> tuple:
    """The product of two integer matrices, in exact integers."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


# ---------------------------------------------------------------------------
# Monotone branch tables (1D maps)
#
# Every 1D catalogue map is a union of continuous monotone branches, each
# mapping its domain interval onto an image interval: [0, 1] for a full
# branch, [2^-m, 2^(1-m)] for a lap of the staircase's band m, and
# [0, 2^-12] for its frozen floor.  The table is the map: stepping,
# derivatives and exact image-variation computations all read it, with no
# sampling.
# ---------------------------------------------------------------------------

class Branch(Record):
    """One monotone branch: `fn` maps [lo, hi] onto the interval `image`,
    on a float or elementwise on an array.  `slope` is fn's constant
    derivative when fn is affine; a curved branch has slope None, gives
    log|fn'| as `log_slope`, monotone on [lo, hi], and its one-sided values
    at (lo, hi) as `end_log_slopes`."""

    __slots__ = _fields = ("lo", "hi", "fn", "image", "slope", "log_slope",
                           "end_log_slopes")

    def __init__(self, lo: float, hi: float, fn: Callable, image: tuple,
                 slope: float | None = None,
                 log_slope: Callable | None = None,
                 end_log_slopes: tuple = ()):
        init_field(self, "lo", lo)
        init_field(self, "hi", hi)
        init_field(self, "fn", fn)
        init_field(self, "image", image)
        init_field(self, "slope", slope)
        init_field(self, "log_slope", log_slope)
        init_field(self, "end_log_slopes", end_log_slopes)


_UNIT = (0.0, 1.0)


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
        "uniform_slope": slopes.pop() if len(slopes) == 1 else None,
        "h_top": (math.log(len(table))
                  if all(br.image == _UNIT for br in table) else None),
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


def _affine(lo, hi, slope, intercept):
    """The full affine branch x -> slope * x + intercept on [lo, hi]."""
    return Branch(lo, hi, lambda x: slope * x + intercept, _UNIT, slope)


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
    out = [Branch(0.0, floor_cut, lambda x: x, (0.0, floor_cut), 1.0)]
    for m in range(1, STAIRCASE_LEVEL_CAP + 1):
        base = 2.0 ** (-m)
        laps = 2 * m + 1
        width = base / laps
        for j in range(laps):
            out.append(Branch(base + j * width, base + (j + 1) * width,
                              _staircase_lap_fn(base, laps, j),
                              (base, 2.0 * base),
                              float(laps if j % 2 == 0 else -laps)))
    out.sort(key=lambda br: br.lo)
    return tuple(out)


# the catalogue maps, each built on its first request
_CATALOGUE = {
    "tripling": lambda: System(
        "tripling", CIRCLE, branches=(_affine(0.0, 1 / 3, 3.0, 0.0),
                                      _affine(1 / 3, 2 / 3, 3.0, -1.0),
                                      _affine(2 / 3, 1.0, 3.0, -2.0))),
    "g3branch": lambda: System(
        "g3branch", CIRCLE, branches=(_affine(0.0, 0.5, 2.0, 0.0),
                                      _affine(0.5, 0.75, 4.0, -2.0),
                                      _affine(0.75, 1.0, 4.0, -3.0))),
    "pomeau-manneville": lambda: System(
        "pomeau-manneville", INTERVAL,
        branches=(Branch(0.0, 0.5, lambda x: x / (1.0 - x), _UNIT,
                         log_slope=_pomeau_manneville_log_slope,
                         end_log_slopes=(0.0, 2.0 * math.log(2.0))),
                  _affine(0.5, 1.0, 2.0, -1.0))),
    "sqrtmap": lambda: System(
        "sqrtmap", INTERVAL,
        branches=(Branch(0.0, 0.5, lambda x: _sqrt(2.0 * x), _UNIT,
                         log_slope=_sqrtmap_log_slope,
                         end_log_slopes=(math.inf, 0.0)),
                  _affine(0.5, 1.0, 2.0, -1.0))),
    "staircase": lambda: System("staircase", INTERVAL,
                                branches=_staircase_branches()),
    "identity": lambda: System(
        "identity", CIRCLE,
        branches=(Branch(0.0, 1.0, lambda x: x, _UNIT, 1.0),)),
}


@cache
def _catalogued(name: str) -> System:
    return _CATALOGUE[name]()


def get_system(spec_id: str) -> System:
    """Resolve a string identifier into a System.

    Parameterized ids: toral:<matrix>, fullshift:<k>, iterate:<id>:<R>.
    The matrix literal is rows separated by ';' with ',' separated entries,
    e.g. "toral:2,1;1,1" for the cat map.
    """
    if spec_id in _CATALOGUE:
        return _catalogued(spec_id)
    if spec_id == "cat":
        return get_system("toral:2,1;1,1")
    if spec_id.startswith("toral:"):
        rows = tuple(tuple(int(v) for v in row.split(","))
                     for row in spec_id[len("toral:"):].split(";"))
        return System(name=spec_id, space=TORUS, matrix=rows)
    if spec_id.startswith("fullshift:"):
        k = int(spec_id.split(":", 1)[1])
        if k < 2:
            raise ValueError("full shift needs at least 2 symbols")
        return System(name=spec_id, space=SYMBOLIC, alphabet=k)
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
        return System(name, sys.space, branches=table)
    if sys.matrix is not None:
        # A^r by repeated squaring, in exact integers; the float step holds
        # entries up to 2^53 exactly
        power, square = None, sys.matrix
        while r:
            if r & 1:
                power = square if power is None else int_matmul(power, square)
            r >>= 1
            if r:
                square = int_matmul(square, square)
        if max(abs(v) for row in power for v in row) > 2 ** 53:
            raise ValueError(f"{name} has matrix entries beyond 2^53")
        return System(name, sys.space, matrix=power)
    return System(name, sys.space, base=sys, power=r)


def _compose(first: tuple, then: tuple) -> tuple:
    """The table of `then` applied after `first`, for a circle map.  Each
    branch a of `first` is affine and increasing onto [0, 1], so
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
    is affine onto [0, 1], else None.  Such a map preserves
    Lebesgue measure: its branches partition the circle, so the sum of
    1/|slope| is 1."""
    if sys.space != CIRCLE or not sys.branches or any(
            br.slope is None or br.image != _UNIT for br in sys.branches):
        return None
    return tuple(abs(br.slope) for br in sys.branches)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

class Potential(Record):
    """The continuous potential c - t*log|f'|: zero, constant (t = 0) or
    geometric (c = 0), read as c or -t*log|f'| (0 - x would drop a -0.0)."""

    __slots__ = _fields = ("c", "t")

    def __init__(self, c: float = 0.0, t: float = 0.0):
        init_field(self, "c", c)
        init_field(self, "t", t)

    def values(self, sys: System, coords: np.ndarray) -> np.ndarray:
        import numpy as np
        coords = np.asarray(coords, dtype=float)
        if self.t == 0.0:
            return np.full_like(coords[..., 0] if coords.ndim > 1 else coords,
                                self.c)
        if sys.log_slope_many is None:
            raise ValueError("geometric potential needs a derivative rule")
        v = sys.log_slope_many(coords)
        return -self.t * v if self.c == 0.0 else self.c - self.t * v

    def value(self, sys: System, c: float) -> float:
        """The potential at one coordinate of a 1D map with a branch table,
        as a float: log|f'| is read off the branch that holds c."""
        if self.t == 0.0:
            return self.c
        i = bisect_right(sys.cuts, c)
        v = sys.log_slopes[i]
        if v is None:
            v = float(sys.branches[i].log_slope(c))
        return -self.t * v if self.c == 0.0 else self.c - self.t * v


ZERO_POTENTIAL = Potential()


def get_potential(spec_id: str) -> Potential:
    if spec_id in ("zero", "0"):
        return ZERO_POTENTIAL
    if spec_id.startswith("constant:"):
        return Potential(c=float(spec_id.split(":", 1)[1]))
    if spec_id.startswith("geometric:"):
        return Potential(t=float(spec_id.split(":", 1)[1]))
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
    if pot.t == 0.0:
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
