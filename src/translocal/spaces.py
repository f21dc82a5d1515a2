"""Phase spaces: points, metrics, balls and deterministic sampling grids.

Supported spaces: the circle R/Z, the d-torus (sup metric, so balls are
coordinate boxes), the unit interval, and one-sided symbol sequences over a
finite alphabet with the metric d(u, v) = beta^(-m), m the first index where
u and v disagree.

The estimators count every cell in closed form and build no grid.  The
deterministic grids (the same request always yields the same point list)
are the sample sets of the reference counts in `translocal.separated`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Point:
    """A point of one of the supported phase spaces.

    Numeric spaces use `coords`; symbolic points carry a finite word (their
    declared horizon is the word length).
    """

    space: str
    coords: tuple = ()
    word: tuple = ()


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


@dataclass(frozen=True)
class Metric:
    """Metric choice for one space variant.

    For symbolic spaces `beta` is the decay base (> 1) and `alphabet` the
    number of symbols (needed when enumerating grid words).
    """

    space: str
    beta: float = math.e
    alphabet: int = 2


def _check_same_space(a: Point, b: Point, m: Metric) -> None:
    if a.space != b.space or a.space != m.space:
        raise SpaceMismatchError(
            f"space mismatch: {a.space!r}, {b.space!r}, metric {m.space!r}"
        )


def circle_dist(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def distance(a: Point, b: Point, m: Metric) -> float:
    """d(a, b) under the metric spec; operands must share the metric's space."""
    _check_same_space(a, b, m)
    if m.space == CIRCLE:
        return circle_dist(a.coords[0], b.coords[0])
    if m.space == TORUS:
        if len(a.coords) != len(b.coords):
            raise SpaceMismatchError("torus points of different dimension")
        return max(circle_dist(x, y) for x, y in zip(a.coords, b.coords))
    if m.space == INTERVAL:
        return abs(a.coords[0] - b.coords[0])
    if m.space == SYMBOLIC:
        horizon = min(len(a.word), len(b.word))
        for i in range(horizon):
            if a.word[i] != b.word[i]:
                return m.beta ** (-i)
        if len(a.word) == len(b.word):
            return 0.0
        # Disagreement is unobservable within the shared horizon.
        return m.beta ** (-horizon)
    raise SpaceMismatchError(f"unknown space {m.space!r}")


@dataclass(frozen=True)
class Ball:
    center: Point
    radius: float
    closed: bool = True

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def contains(self, p: Point, m: Metric) -> bool:
        d = distance(self.center, p, m)
        return d <= self.radius if self.closed else d < self.radius


@dataclass(frozen=True)
class Grid:
    """Deterministic finite surrogate for a ball.

    `coords` is an (N, d) float array for numeric spaces; `words` a list of
    symbol tuples for symbolic spaces.
    """

    ball: Ball
    resolution: float
    coords: np.ndarray | None = None
    words: tuple = ()
    sorted_1d: bool = False

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
    `resolution` of some grid point.
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
        m = Metric(SYMBOLIC)
        return symbolic_grid(ball, resolution, m, cap)

    raise SpaceMismatchError(f"unknown space {space!r}")


def pinned_symbols(ball: Ball, metric: Metric) -> int:
    """How many leading symbols of the centre every word of a symbolic ball
    shares, as fixed by the ball's radius.  The open unit ball pins one:
    words that differ at index 0 are at distance exactly 1."""
    if ball.radius > 1.0:
        return 0
    beta = metric.beta
    m_fixed = math.ceil(math.log(1.0 / ball.radius) / math.log(beta) - _EPS)
    if not ball.closed and beta ** (-m_fixed) >= ball.radius:
        m_fixed += 1
    return min(m_fixed, len(ball.center.word))


def symbolic_grid(ball: Ball, resolution: float, metric: Metric,
                  cap: int = POINT_BUDGET) -> Grid:
    """Word grid for a symbolic ball, honouring the metric's beta/alphabet."""
    beta, k = metric.beta, metric.alphabet
    # Words of length L resolve distances down to `resolution`; the first
    # `m_fixed` symbols are pinned by the ball's radius.
    length = max(1, math.ceil(math.log(1.0 / resolution) / math.log(beta) - _EPS))
    m_fixed = pinned_symbols(ball, metric)
    free = max(0, length - m_fixed)
    _check_budget(k ** free, cap)
    prefix = ball.center.word[:m_fixed]
    words = []
    for idx in range(k ** free):
        tail = []
        v = idx
        for _ in range(free):
            tail.append(v % k)
            v //= k
        words.append(prefix + tuple(reversed(tail)))
    return Grid(ball, resolution, words=tuple(words))


def _check_budget(needed: int, cap: int) -> None:
    if needed > cap:
        raise BudgetExceededError(needed, cap)
