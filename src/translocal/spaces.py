"""Phase spaces: points, their one metric each, balls and deterministic
sampling grids.

Supported spaces: the circle R/Z, the d-torus (sup metric, so balls are
coordinate boxes), the unit interval, and one-sided symbol sequences with
the metric d(u, v) = BETA^(-m), m the first index where u and v disagree.

The estimators count every cell in closed form and build no grid.  The
deterministic grids (the same request always yields the same point list)
are the sample sets of the reference counts in `translocal.separated`.

`Record` is the immutable slotted base of every record of the library.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import BudgetExceededError, SpaceMismatchError

CIRCLE = "circle"
TORUS = "torus"
INTERVAL = "interval"
SYMBOLIC = "symbolic"

_EPS = 1e-9

if TYPE_CHECKING:
    import numpy as np


# the default cap on the points of a sample grid
POINT_BUDGET = 5_000_000
# the decay base of the symbolic metric
BETA = math.e

# how a record's __init__ sets its fields, past the refusal below
init_field = object.__setattr__


class Record:
    """An immutable record kept in `__slots__`.  Its `_fields`, in the
    order its `__init__` takes them, give its repr, equality, hash and
    pickled form; each subclass's `__init__` sets every slot once with
    `init_field`."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Point(Record):
    """A point of one of the supported phase spaces.

    Numeric spaces use `coords`; symbolic points carry a finite word (their
    declared horizon is the word length).
    """

    __slots__ = _fields = ("space", "coords", "word")

    def __init__(self, space: str, coords: tuple = (), word: tuple = ()):
        init_field(self, "space", space)
        init_field(self, "coords", coords)
        init_field(self, "word", word)


def circle(x: float) -> Point:
    return Point(CIRCLE, (x % 1.0,))


def torus(*xs: float) -> Point:
    return Point(TORUS, tuple(x % 1.0 for x in xs))


def interval(x: float) -> Point:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"interval coordinate {x} outside [0, 1]")
    return Point(INTERVAL, (x,))


def word(symbols) -> Point:
    return Point(SYMBOLIC, word=tuple(int(s) for s in symbols))


def circle_dist(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def first_difference(u: tuple, v: tuple) -> int | None:
    """The first index where words u and v differ, or None where they are
    equal.  Words that agree up to the shorter one's end differ there: any
    disagreement beyond it is unobservable."""
    horizon = min(len(u), len(v))
    for i in range(horizon):
        if u[i] != v[i]:
            return i
    return None if len(u) == len(v) else horizon


def distance(a: Point, b: Point) -> float:
    """d(a, b) in the metric of their space; both must share it."""
    space = a.space
    if b.space != space:
        raise SpaceMismatchError(f"space mismatch: {space!r}, {b.space!r}")
    if space == CIRCLE:
        return circle_dist(a.coords[0], b.coords[0])
    if space == TORUS:
        if len(a.coords) != len(b.coords):
            raise SpaceMismatchError("torus points of different dimension")
        return max(circle_dist(x, y) for x, y in zip(a.coords, b.coords))
    if space == INTERVAL:
        return abs(a.coords[0] - b.coords[0])
    if space == SYMBOLIC:
        p0 = first_difference(a.word, b.word)
        return 0.0 if p0 is None else BETA ** (-p0)
    raise SpaceMismatchError(f"unknown space {space!r}")


class Ball(Record):
    __slots__ = _fields = ("center", "radius", "closed")

    def __init__(self, center: Point, radius: float, closed: bool = True):
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        init_field(self, "center", center)
        init_field(self, "radius", radius)
        init_field(self, "closed", closed)

    def contains(self, p: Point) -> bool:
        d = distance(self.center, p)
        return d <= self.radius if self.closed else d < self.radius


class Grid(Record):
    """Deterministic finite surrogate for a ball.

    `coords` is an (N, d) float array for numeric spaces; `words` a list of
    symbol tuples for symbolic spaces.
    """

    __slots__ = _fields = ("ball", "resolution", "coords", "words",
                           "sorted_1d")

    def __init__(self, ball: Ball, resolution: float,
                 coords: np.ndarray | None = None, words: tuple = (),
                 sorted_1d: bool = False):
        init_field(self, "ball", ball)
        init_field(self, "resolution", resolution)
        init_field(self, "coords", coords)
        init_field(self, "words", words)
        init_field(self, "sorted_1d", sorted_1d)

    def __len__(self) -> int:
        if self.coords is not None:
            return self.coords.shape[0]
        return len(self.words)


def _axis_offsets(radius: float, resolution: float) -> np.ndarray:
    import numpy as np
    k = int(math.floor(radius / resolution + _EPS))
    return np.arange(-k, k + 1) * resolution


def sample_grid(ball: Ball, resolution: float,
                cap: int = POINT_BUDGET) -> Grid:
    """Uniform deterministic grid covering `ball` at the given resolution.

    Every grid point lies in the ball and every ball point is within
    `resolution` of some grid point.  A symbolic ball's words are over two
    symbols.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if resolution > ball.radius + _EPS:
        raise ValueError(
            f"resolution {resolution} exceeds ball radius {ball.radius}"
        )
    space = ball.center.space

    if space in (CIRCLE, INTERVAL):
        c = ball.center.coords[0]
        offs = _axis_offsets(min(ball.radius, 0.5 if space == CIRCLE else 1.0),
                             resolution)
        _check_budget(len(offs), cap)
        xs = c + offs
        if space == CIRCLE:
            xs = xs % 1.0
        else:
            xs = xs[(xs >= 0.0) & (xs <= 1.0)]
        return Grid(ball, resolution, coords=xs.reshape(-1, 1), sorted_1d=True)

    if space == TORUS:
        d = len(ball.center.coords)
        offs = _axis_offsets(min(ball.radius, 0.5), resolution)
        _check_budget(len(offs) ** d, cap)
        import numpy as np
        axes = [(ball.center.coords[i] + offs) % 1.0 for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
        return Grid(ball, resolution, coords=coords)

    if space == SYMBOLIC:
        return symbolic_grid(ball, resolution, 2, cap)

    raise SpaceMismatchError(f"unknown space {space!r}")


def radius_pins(ball: Ball) -> int:
    """How many leading symbols a symbolic ball's radius fixes, however long
    its centre word.  The open unit ball pins one: words that differ at
    index 0 are at distance exactly 1."""
    if ball.radius > 1.0:
        return 0
    m_fixed = math.ceil(math.log(1.0 / ball.radius) / math.log(BETA) - _EPS)
    if not ball.closed and BETA ** (-m_fixed) >= ball.radius:
        m_fixed += 1
    return m_fixed


def pinned_symbols(ball: Ball) -> int:
    """How many leading symbols of the centre every word of a symbolic ball
    shares: the radius's pins, at most the centre word's length."""
    return min(radius_pins(ball), len(ball.center.word))


def symbolic_grid(ball: Ball, resolution: float, k: int,
                  cap: int = POINT_BUDGET) -> Grid:
    """Word grid over k symbols for a symbolic ball, in lexicographic order."""
    from itertools import product
    # Words of length L resolve distances down to `resolution`; the first
    # `m_fixed` symbols are pinned by the ball's radius.
    length = max(1, math.ceil(math.log(1.0 / resolution) / math.log(BETA) - _EPS))
    m_fixed = pinned_symbols(ball)
    free = max(0, length - m_fixed)
    _check_budget(k ** free, cap)
    prefix = ball.center.word[:m_fixed]
    return Grid(ball, resolution, words=tuple(
        prefix + tail for tail in product(range(k), repeat=free)))


def _check_budget(needed: int, cap: int) -> None:
    if needed > cap:
        raise BudgetExceededError(needed, cap)
