"""Bowen metrics and maximal (n, eps)-separated-set counting.

The entropy estimators count every cell in closed form.  From this module
they use `exact_variations`, the image variation of a 1D interval pushed
forward through the map's monotone branch table, for every n of a schedule
from one walk, and `separation_prefix_length` for shifts.  The sample-based
counts are the references those closed forms are checked against:

* a pairwise greedy scan (deterministic sample order, admit a point iff its
  Bowen distance to every admitted point exceeds eps);
* a variation scan for large sorted 1D (circle or interval) samples.  For
  the expanding catalogue maps with eps below the folding scale, the Bowen
  distance of two nearby sample points equals the accumulated variation of
  the time-(n-1) image along the sample order, so the greedy walk reduces
  to threshold crossings of one cumulative sum (cross-checked against the
  pairwise path on shared small cases).

Symbolic samples are counted exactly via distinct-prefix counting.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import spaces
from .errors import HorizonExceededError, SpaceMismatchError
from .maps import System, monotone_branches, orbit_coords
from .spaces import (BETA, CIRCLE, INTERVAL, SYMBOLIC, TORUS, Grid, Point,
                     Record, init_field)

_PAIRWISE_LIMIT = 4000
_BLOCK = 1 << 17

if TYPE_CHECKING:
    import numpy as np


class SeparationQuery(Record):
    __slots__ = _fields = ("system", "sample", "n", "eps", "strict")

    def __init__(self, system: System, sample, n: int, eps: float,
                 strict: bool = True):
        # `sample` is a Grid or a list of Points
        if n < 1:
            raise ValueError("n must be >= 1")
        if eps <= 0:
            raise ValueError("eps must be positive")
        init_field(self, "system", system)
        init_field(self, "sample", sample)
        init_field(self, "n", n)
        init_field(self, "eps", eps)
        init_field(self, "strict", strict)


class SeparationResult(Record):
    __slots__ = _fields = ("count", "method", "orbit_evals", "warning")

    def __init__(self, count: int, method: str, orbit_evals: int,
                 warning: str | None = None):
        init_field(self, "count", count)
        init_field(self, "method", method)
        init_field(self, "orbit_evals", orbit_evals)
        init_field(self, "warning", warning)


def bowen_distance(sys: System, a: Point, b: Point, n: int) -> float:
    """max_{0 <= j < n} d(f^j a, f^j b) in the metric of the system's space."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if sys.space == SYMBOLIC:
        return _symbolic_bowen(a.word, b.word, n)
    import numpy as np
    oa = orbit_coords(sys, np.asarray([a.coords]), n)
    ob = orbit_coords(sys, np.asarray([b.coords]), n)
    return float(_bowen_many(sys.space, oa, ob[0])[0])


def separated_count(q: SeparationQuery) -> SeparationResult:
    """Greedy lower bound on the maximal (n, eps)-separated cardinality."""
    if q.system.space == SYMBOLIC:
        words = q.sample.words if isinstance(q.sample, Grid) else [
            p.word for p in q.sample]
        if not words:
            raise ValueError("empty sample set")
        plen = separation_prefix_length(q.n, q.eps, q.strict)
        return SeparationResult(len({w[:plen] for w in words}),
                                "exact-symbolic", 0)

    coords = _sample_coords(q.sample, q.system)
    if coords.shape[0] == 0:
        raise ValueError("empty sample set")
    warning = _resolution_warning(q)
    sorted_1d = isinstance(q.sample, Grid) and q.sample.sorted_1d
    if sorted_1d and coords.shape[0] > _PAIRWISE_LIMIT:
        count, evals, _ = variation_count(q.system, coords, q.n, q.eps,
                                          strict=q.strict)
        return SeparationResult(count, "greedy-scan", evals, warning)
    count, evals = pairwise_count(q.system, coords, q.n, q.eps,
                                  strict=q.strict)
    return SeparationResult(count, "greedy", evals, warning)


def symbolic_word_count(shift_id: str, n: int) -> int:
    """Exact number of admissible words of length n for a shift space."""
    if n < 0:
        raise ValueError("word length must be >= 0")
    if shift_id.startswith("fullshift:"):
        k = int(shift_id.split(":", 1)[1])
        return k ** n
    if shift_id.startswith("codedshift:"):
        from . import symbolic as _symbolic
        fam = _symbolic.get_family(shift_id)
        return _symbolic.coded_language_count(fam, n)
    raise KeyError(f"no exact language enumeration for {shift_id!r}")


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def _sample_coords(sample, sys: System) -> np.ndarray:
    import numpy as np
    if isinstance(sample, Grid):
        return np.atleast_2d(sample.coords)
    coords = []
    for p in sample:
        if p.space != sys.space:
            raise SpaceMismatchError(
                f"sample point in {p.space!r}, system on {sys.space!r}")
        coords.append(p.coords)
    return np.asarray(coords, dtype=float).reshape(len(coords), -1)


def _resolution_warning(q: SeparationQuery) -> str | None:
    if not isinstance(q.sample, Grid) or q.system.max_log_slope is None:
        return None
    safe = q.eps * math.exp(-q.system.max_log_slope * (q.n - 1))
    if q.sample.resolution > safe * (1 + 1e-9):
        return (f"sample resolution {q.sample.resolution:.3g} coarser than "
                f"eps * expansion bound {safe:.3g}; count may saturate")
    return None


def _bowen_many(space: str, orbits: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Bowen distance of each orbit row (N, n, d) to a reference orbit (n, d)."""
    import numpy as np
    diff = np.abs(orbits - ref[None, :, :])
    if space in (CIRCLE, TORUS):
        diff = diff % 1.0
        diff = np.minimum(diff, 1.0 - diff)
        return diff.max(axis=(1, 2))
    if space == INTERVAL:
        return diff.max(axis=(1, 2))
    raise SpaceMismatchError(f"no numeric Bowen kernel for {space!r}")


def pairwise_count(sys: System, coords: np.ndarray, n: int, eps: float,
                   strict: bool = True) -> tuple[int, int]:
    """Reference greedy: candidate vs. every admitted point."""
    import numpy as np
    orbits = orbit_coords(sys, coords, n)
    evals = coords.shape[0] * n
    admitted = np.empty((0, n, orbits.shape[2]))
    for row in orbits:
        if admitted.shape[0]:
            d = _bowen_many(sys.space, admitted, row)
            ok = (d > eps).all() if strict else (d >= eps).all()
            if not ok:
                continue
        admitted = np.concatenate([admitted, row[None]], axis=0)
    return admitted.shape[0], evals


def variation_count(sys: System, coords: np.ndarray, n: int, eps: float,
                    strict: bool = True) -> tuple[int, int, float]:
    """Variation-scan greedy for sorted circle or interval samples, plus the
    share of image variation near the folding scale (large share means the
    sample undersamples the image and the count is unreliable).

    For expanding maps the Bowen distance of nearby ordered points is the
    accumulated time-(n-1) image variation, so the greedy walk is a sequence
    of threshold crossings of its cumulative sum.  Image folds can only
    overcount by one point per fold, a vanishing fraction at the default
    resolutions.
    """
    import numpy as np
    coords = np.atleast_2d(coords)
    total = coords.shape[0]
    if total == 1:
        return 1, n, 0.0
    wraparound = _covers_circle(sys, coords)
    final = _final_images(sys, coords, n)
    gaps = np.abs(np.diff(final, axis=0))
    if sys.space == CIRCLE:
        gaps = gaps % 1.0
        gaps = np.minimum(gaps, 1.0 - gaps)
    steps = gaps.max(axis=1)
    tv = float(steps.sum())
    # refinement check: if the half-resolution subsample sees less
    # variation, the sample has not resolved the image yet
    half = np.abs(np.diff(final[::2], axis=0))
    if sys.space == CIRCLE:
        half = half % 1.0
        half = np.minimum(half, 1.0 - half)
    tv_half = float(half.max(axis=1).sum())
    share = max(0.0, 1.0 - tv_half / tv) if tv > 0 else 0.0
    if wraparound:
        close = np.abs(final[-1] - final[0]) % 1.0
        tv += float(np.minimum(close, 1.0 - close).max())
    if strict:
        tv *= 1.0 - 1e-12
    if wraparound:
        # points on a cycle of circumference tv, all gaps above eps
        count = max(int(tv / eps), 1)
    else:
        count = int(tv / eps) + 1
    return count, total * n, share


def _final_images(sys: System, coords: np.ndarray, n: int) -> np.ndarray:
    """f^(n-1) of every sample point, computed in blocks."""
    import numpy as np
    out = np.empty_like(coords)
    for lo in range(0, coords.shape[0], _BLOCK):
        cur = coords[lo:lo + _BLOCK]
        for _ in range(n - 1):
            cur = sys.step_many(cur)
        out[lo:lo + _BLOCK] = cur
    return out


def _covers_circle(sys: System, coords: np.ndarray) -> bool:
    if sys.space != CIRCLE or coords.shape[0] < 2:
        return False
    span = coords.shape[0] * _min_gap(coords)
    return span >= 1.0 - 2 * _min_gap(coords)


def _min_gap(coords: np.ndarray) -> float:
    a, b = float(coords[0, 0]), float(coords[1, 0])
    return spaces.circle_dist(a, b)


# ---------------------------------------------------------------------------
# Exact image variation via branch pushforward (1D maps)
# ---------------------------------------------------------------------------

def exact_variation(sys: System, lo: float, hi: float, n: int) -> float:
    """Total variation of f^(n-1) over [lo, hi], counted with multiplicity:
    the one-n case of `exact_variations`."""
    return exact_variations(sys, lo, hi, (n,))[0]


def exact_variations(sys: System, lo: float, hi: float, n_values) -> list:
    """[total variation of f^(n-1) over [lo, hi]] for each n of `n_values`,
    counted with multiplicity, from one branch walk to max(n_values).

    An iterate with no table of its own is computed through its base
    system.  On a table whose branches are all affine with |slope| s,
    |(f^(n-1))'| = s^(n-1) everywhere, so the variation is
    (hi - lo) * s^(n-1) in closed form.
    Any other table is walked: the image of [lo, hi] under f^k is held as
    fragments (a, b) with multiplicities, and each step pushes every
    fragment through the branches it meets.  A branch covered in full (an
    affine one up to 1e-12 of its width) gives its image interval; any
    other piece gives its image clamped to the branch's image interval, so
    rounding cannot carry a sliver across a band edge into a faster band.
    Equal fragments
    merge, so a walk holds a few fragments and its cost is linear in
    max(n_values).  The value for n is the sum of multiplicity * (b - a)
    after n - 1 steps: each value is the one a walk to that n alone gives,
    bit for bit.  A value beyond the float range raises
    HorizonExceededError.
    """
    ns = tuple(n_values)
    if ns and min(ns) < 1:
        raise ValueError("n must be >= 1")
    if not hi > lo:
        raise ValueError("empty interval")
    if sys.base is not None:
        # iterate g^r: the (n-1)-th image equals the r*(n-1)-th image of g
        return exact_variations(sys.base, lo, hi,
                                [sys.power * (n - 1) + 1 for n in ns])
    if not sys.branches:
        raise ValueError(f"system {sys.name!r} has no monotone branch table")
    if sys.uniform_slope is not None:
        s = sys.uniform_slope
        try:
            return [(hi - lo) * s ** (n - 1) for n in ns]
        except OverflowError:
            # raised at the first n whose s^(n-1) overflows
            return [_finite(sys, n, lambda: (hi - lo) * s ** (n - 1))
                    for n in ns]
    values = {}
    frags = {(float(lo), float(hi)): 1}
    for n in range(1, max(ns, default=1) + 1):
        if n > 1:
            nxt = {}
            for (a, b), mult in frags.items():
                for br in monotone_branches(sys, a, b):
                    s, e = max(a, br.lo), min(b, br.hi)
                    if e <= s:
                        continue
                    # float images land a few ULPs off affine lap ends; a
                    # curved branch is full only at its exact ends, as its
                    # slope may be unbounded there
                    tol = 0.0 if br.slope is None else 1e-12 * (br.hi - br.lo)
                    if s <= br.lo + tol and e >= br.hi - tol:
                        piece = br.image
                    else:
                        fa, fb = br.fn(s), br.fn(e)
                        if fb < fa:
                            fa, fb = fb, fa
                        piece = (max(fa, br.image[0]), min(fb, br.image[1]))
                        if piece[1] <= piece[0]:
                            continue
                    nxt[piece] = nxt.get(piece, 0) + mult
            frags = nxt
        if n in ns:
            values[n] = _finite(sys, n, lambda: sum(
                m * (b - a) for (a, b), m in frags.items()))
    return [values[n] for n in ns]


def _finite(sys: System, n: int, variation) -> float:
    """variation(), refused where it or a term of it passes the float range."""
    try:
        value = variation()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise HorizonExceededError(f"the image variation of {sys.name!r} at "
                                   f"n = {n} passes the float range")
    return value


# ---------------------------------------------------------------------------
# Symbolic counting
# ---------------------------------------------------------------------------

def _symbolic_bowen(u: tuple, v: tuple, n: int) -> float:
    p0 = spaces.first_difference(u, v)
    return 0.0 if p0 is None else BETA ** (-max(p0 - (n - 1), 0))


def separation_prefix_length(n: int, eps: float, strict: bool = True) -> int:
    """Words are (n, eps)-separated iff they differ within this many symbols."""
    # separated iff first difference p0 satisfies BETA^(n-1-p0) > eps
    bound = (n - 1) + math.log(1.0 / eps) / math.log(BETA)
    if strict:
        last = math.ceil(bound - 1e-12) - 1
    else:
        last = math.floor(bound + 1e-12)
    return max(last + 1, 0)
