"""Coded shift spaces: code-word families over {0,1,2}, exact language
counting via a determinized position automaton on int bitmasks, entropy
from the Kraft equation, and the three special sequences u, v, w used in
the examples.

Code word k has the form  2 0^g(k) w_k 0^g(k) 2  where w_k enumerates the
nonempty binary words by length and g is the gap rule.  The factorial gap
rule produces astronomically long words and is exposed through length
arithmetic only; word-level computation substitutes the linear rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (BudgetExceededError, HorizonExceededError,
                     NoPositiveRootError)
from .spaces import Point, word

_UVW_CAP = 1_000_000
_MAX_POSITIONS = 200_000


def binary_word(k: int) -> tuple:
    """k-th element (1-based) of 0, 1, 00, 01, 10, 11, 000, ..."""
    if k < 1:
        raise ValueError("enumeration starts at 1")
    length = 1
    span = 2
    idx = k - 1
    while idx >= span:
        idx -= span
        length += 1
        span *= 2
    return tuple((idx >> (length - 1 - i)) & 1 for i in range(length))


@dataclass(frozen=True)
class CodeWordFamily:
    """Gap rule + enumeration horizon for the code words C_k."""

    kind: str                      # factorial | linear | geometric | words
    a: int = 1
    b: int = 0
    c: int = 1
    explicit: tuple = ()
    max_words: int = 64

    def gap(self, k: int) -> int:
        if self.kind == "factorial":
            return math.factorial(10 + k)
        if self.kind == "linear":
            return self.a * k + self.b
        if self.kind == "geometric":
            return self.c * 2 ** k
        raise ValueError(f"gap rule undefined for kind {self.kind!r}")

    def length(self, k: int) -> int:
        if self.kind == "words":
            return len(self.explicit[k - 1])
        return 2 * self.gap(k) + len(binary_word(k)) + 2

    def word_count(self) -> int:
        if self.kind == "words":
            return len(self.explicit)
        return self.max_words

    def code_word(self, k: int) -> tuple:
        if self.kind == "words":
            return self.explicit[k - 1]
        if self.kind == "factorial":
            raise BudgetExceededError(self.length(k), _MAX_POSITIONS)
        g = self.gap(k)
        return (2,) + (0,) * g + binary_word(k) + (0,) * g + (2,)

    @property
    def alphabet(self) -> int:
        if self.kind == "words":
            return max(max(w) for w in self.explicit) + 1
        return 3


def get_family(spec_id: str) -> CodeWordFamily:
    if not spec_id.startswith("codedshift:"):
        raise KeyError(f"not a coded-shift id: {spec_id!r}")
    rest = spec_id[len("codedshift:"):]
    if rest == "factorial":
        return CodeWordFamily("factorial")
    if rest.startswith("linear:"):
        a, b = (int(v) for v in rest.split(":", 1)[1].split(","))
        return CodeWordFamily("linear", a=a, b=b)
    if rest.startswith("geometric:"):
        return CodeWordFamily("geometric", c=int(rest.split(":", 1)[1]))
    if rest.startswith("words:"):
        words = tuple(tuple(int(s) for s in wstr)
                      for wstr in rest.split(":", 1)[1].split(","))
        if not words or any(not w for w in words):
            raise ValueError(f"empty code word in {spec_id!r}")
        return CodeWordFamily("words", explicit=words)
    raise KeyError(f"unknown coded-shift family {rest!r}")


# ---------------------------------------------------------------------------
# Kraft equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KraftSolution:
    h: float
    residual: float
    truncation_index: int
    tail_bound: float


def _family_lengths(source, cap: int = 2000):
    if isinstance(source, CodeWordFamily):
        out = []
        k = 1
        while True:
            out.append(source.length(k))
            # keep enough terms that the truncated sum brackets the root
            # even when individual lengths are astronomically long
            if (out[-1] > cap and k >= 30) or k >= 2000:
                break
            k += 1
        return out
    return [int(v) for v in source]


def kraft_entropy(source, tol: float = 1e-10,
                  alphabet: int | None = None) -> KraftSolution:
    """Unique positive root of sum_k exp(-h * L_k) = 1.

    `source` is a list of lengths or a CodeWordFamily.  The sum is strictly
    decreasing in h, so bisection converges; truncated tails are bounded by
    a geometric series in the final length increment.
    """
    lengths = sorted(_family_lengths(source))
    if not lengths or min(lengths) < 1:
        raise ValueError("lengths must be positive integers")
    k = alphabet if alphabet is not None else (
        3 if isinstance(source, CodeWordFamily)
        and source.kind != "words" else 2)
    hi = math.log(max(k, 2))
    increments = [b - a for a, b in zip(lengths, lengths[1:]) if b > a]
    d = min(increments) if increments else 1

    def tail(h: float) -> float:
        q = math.exp(-h * d) if h * d < 700 else 0.0
        if q >= 1.0:
            return math.inf
        head = math.exp(-h * lengths[-1]) if h * lengths[-1] < 700 else 0.0
        return head * q / (1.0 - q)

    def f(h: float) -> float:
        # lengths can exceed float range; those terms vanish
        return math.fsum(math.exp(-h * L) if h * L < 700 else 0.0
                         for L in lengths) - 1.0

    lo = 1e-12
    if f(hi) + tail(hi) >= 0.0:
        # root at or beyond log(alphabet); widen until bracketed
        hi *= 2
        if f(hi) + tail(hi) >= 0.0:
            raise NoPositiveRootError(
                "Kraft sum stays above 1 on the search bracket")
    if f(lo) <= 0.0:
        raise NoPositiveRootError(
            "Kraft sum never exceeds 1; need at least two lengths")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        val = f(mid)
        if abs(val) <= tol * 0.1 and hi - lo <= tol:
            break
        if val > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-18 * max(hi, 1.0):
            break
    h = 0.5 * (lo + hi)
    return KraftSolution(h, f(h), len(lengths), tail(h))


# ---------------------------------------------------------------------------
# Language counting
# ---------------------------------------------------------------------------

def _position_table(fam: CodeWordFamily):
    """The code words, after checking from their lengths alone that they fit
    the position budget (a geometric gap makes words of about 2^65
    symbols)."""
    total = sum(fam.length(k) for k in range(1, fam.word_count() + 1))
    if total > _MAX_POSITIONS:
        raise BudgetExceededError(total, _MAX_POSITIONS)
    return [fam.code_word(k) for k in range(1, fam.word_count() + 1)]


@lru_cache(maxsize=16)
def _automaton(fam: CodeWordFamily):
    """Start state and transition of the determinized automaton over in-word
    positions of the code words, built once per family (an over-budget
    family raises on every call, since exceptions are not cached).

    The code words are laid end to end, so position p of the concatenation
    is bit p of a Python int, and a state is the int whose set bits are the
    live positions.  `letters[a]` marks the positions holding symbol a,
    `firsts` and `lasts` the first and last position of each word.  Reading
    a keeps the live positions holding a; each moves to the next bit, and a
    word's last position moves to the first position of every word.  The
    start state has every position live; 0 is the dead state.
    """
    words = _position_table(fam)
    letters: dict[int, int] = {}
    firsts = lasts = 0
    p = 0
    for w in words:
        firsts |= 1 << p
        for symbol in w:
            letters[symbol] = letters.get(symbol, 0) | (1 << p)
            p += 1
        lasts |= 1 << (p - 1)
    not_lasts = ~lasts

    def step(state: int, symbol: int) -> int:
        hit = state & letters.get(symbol, 0)
        return ((hit & not_lasts) << 1) | (firsts if hit & lasts else 0)

    return (1 << p) - 1, step


@lru_cache(maxsize=16)
def _walk(fam: CodeWordFamily) -> list:
    """The walk of `coded_language_count` so far, in a one-slot list: the
    count of admissible words of every length walked, and the live states
    after the longest, each with the number of words reaching it.  Calls
    extend it from its last layer; the slot is replaced whole, so a call
    never reads half an update."""
    start, _ = _automaton(fam)
    return [((1,), {start: 1})]


def coded_language_count(fam: CodeWordFamily, n: int) -> int:
    """Number of admissible words of length n: subwords of free
    concatenations of the code words, counted on a determinized automaton
    over in-word positions.  The walk is kept per family, so a call
    returns a stored count or walks on from the longest length so far."""
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n == 0:
        return 1
    slot = _walk(fam)
    counts, layer = slot[0]
    if n < len(counts):
        return counts[n]
    _, step = _automaton(fam)
    symbols = range(fam.alphabet)
    counts = list(counts)
    while len(counts) <= n:
        nxt: dict[int, int] = {}
        for state, mult in layer.items():
            for symbol in symbols:
                after = step(state, symbol)
                if after:
                    nxt[after] = nxt.get(after, 0) + mult
        layer = nxt
        counts.append(sum(layer.values()))
    slot[0] = (tuple(counts), layer)
    return counts[n]


def language_membership(fam: CodeWordFamily, wrd) -> bool:
    """Whether a word appears in some free concatenation of code words."""
    state, step = _automaton(fam)
    for symbol in wrd:
        state = step(state, symbol)
        if not state:
            return False
    return True


# ---------------------------------------------------------------------------
# The sequences u, v, w
# ---------------------------------------------------------------------------

def make_uvw(horizon: int) -> tuple[Point, Point, Point]:
    """The three sequences with factorial block structure.

    w is constant 0.  v consists of blocks of length j! - (j-1)! (j >= 2)
    preceded by a single leading 1, filled with 1s for odd j and 0s for even
    j.  u alternates all-1 blocks (even j, and an initial 1^{2!}) with
    prefixes of v (odd j), so u shadows v on ever longer stretches.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > _UVW_CAP:
        raise HorizonExceededError(
            f"horizon {horizon} beyond sequence cap {_UVW_CAP}")
    v: list[int] = [1]
    j = 2
    while len(v) < horizon:
        block = math.factorial(j) - math.factorial(j - 1)
        v.extend([1 if j % 2 == 1 else 0] * block)
        j += 1
    v = v[:horizon]

    u: list[int] = [1, 1]          # 1^{2!}
    j = 3
    while len(u) < horizon:
        block = math.factorial(j) - math.factorial(j - 1)
        if j % 2 == 1:
            u.extend(v[:block])
        else:
            u.extend([1] * block)
        j += 1
    u = u[:horizon]

    w = [0] * horizon
    return word(u), word(v), word(w)
