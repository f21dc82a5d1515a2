"""Coded shift spaces: code-word families over {0,1,2}, exact language
counting via a determinized position automaton on int bitmasks, and
entropy from the Kraft equation.

The automaton is determinized lazily and kept per family: each bitmask
state met gets an integer id and a row of successor ids the first time
it is stepped, so a family's language counts step each state once.

Code word k has the form  2 0^g(k) w_k 0^g(k) 2  where w_k enumerates the
nonempty binary words by length and g is the gap rule.  The factorial gap
rule produces astronomically long words and is exposed through length
arithmetic only; word-level computation substitutes the linear rule.
"""
from __future__ import annotations

import math
import threading
from functools import lru_cache

from .errors import BudgetExceededError, NoPositiveRootError
from .spaces import Record, init_field

_MAX_POSITIONS = 200_000
# the code words of a gap-rule family that its language automaton holds
_MAX_WORDS = 64


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


class CodeWordFamily(Record):
    """Gap rule for the code words C_k, or the explicit words; its `kind`
    is factorial, linear, geometric or words."""

    __slots__ = _fields = ("kind", "a", "b", "c", "explicit")

    def __init__(self, kind: str, a: int = 1, b: int = 0, c: int = 1,
                 explicit: tuple = ()):
        init_field(self, "kind", kind)
        init_field(self, "a", a)
        init_field(self, "b", b)
        init_field(self, "c", c)
        init_field(self, "explicit", explicit)

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
        return _MAX_WORDS

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

class KraftSolution(Record):
    __slots__ = _fields = ("h", "residual", "truncation_index", "tail_bound")

    def __init__(self, h: float, residual: float, truncation_index: int,
                 tail_bound: float):
        init_field(self, "h", h)
        init_field(self, "residual", residual)
        init_field(self, "truncation_index", truncation_index)
        init_field(self, "tail_bound", tail_bound)


# exp(-x) is 0.0 in float for x beyond about 745
_EXP_FLOOR = 745.0
_MAX_STEPS = 100


def _kraft_source(source):
    """A growing gap-rule family as it is, or the sorted code-word lengths
    of an explicit word family or a list of lengths."""
    if isinstance(source, CodeWordFamily):
        if source.kind != "words":
            if (source.kind == "linear" and source.a < 1
                    or source.kind == "geometric" and source.c < 1):
                # 2^m words of length m + 2 + 2g for every m
                raise ValueError(f"{source.kind} gap rule must grow to give "
                                 "a finite Kraft sum")
            if source.length(1) < 1:
                raise ValueError("lengths must be positive integers")
            return source
        source = [source.length(k) for k in range(1, source.word_count() + 1)]
    lengths = tuple(sorted(int(v) for v in source))
    if not lengths or lengths[0] < 1:
        raise ValueError("lengths must be positive integers")
    return lengths


def _kraft_sum(source, h: float) -> tuple[float, float, int]:
    """(S, S', K): the Kraft sum S = sum_k exp(-h L_k), its h-derivative
    S' = -sum_k L_k exp(-h L_k), and the number K of code words summed.

    Under a linear gap rule the 2^m words whose middle word has m symbols
    (k = 2^m - 1, ..., 2^(m+1) - 2) have lengths first + 2a j, j < 2^m, so
    each such block is a geometric series in q = exp(-2a h), summed in
    closed form.  Other families and length lists sum their words one by
    one.  A family stops at its first word with h L beyond the float floor
    of exp: lengths grow, so every later term is 0.0 in float.
    """
    if isinstance(source, CodeWordFamily) and source.kind == "linear":
        a, b = source.a, source.b
        d = 2 * a * h
        q, one_minus_q = math.exp(-d), -math.expm1(-d)
        total = slope = 0.0
        m = 1
        while True:
            n = 1 << m
            first = 2 * (a * (n - 1) + b) + m + 2
            if h * first > _EXP_FLOOR:
                return total, slope, n - 2
            lead = math.exp(-h * first)
            g0 = -math.expm1(-d * n) / one_minus_q    # sum_j q^j
            # sum_j j q^j
            g1 = (g0 - n * math.exp(-d * (n - 1))) * q / one_minus_q
            total += lead * g0
            slope -= lead * (first * g0 + 2 * a * g1)
            m += 1
    if isinstance(source, CodeWordFamily):
        lengths = []
        while h * (length := source.length(len(lengths) + 1)) <= _EXP_FLOOR:
            lengths.append(length)
    else:
        lengths = source
    terms = [math.exp(-h * length) for length in lengths]
    return (math.fsum(terms),
            -math.fsum(length * t for length, t in zip(lengths, terms)),
            len(lengths))


def kraft_entropy(source) -> KraftSolution:
    """Unique positive root h of S(h) = sum_k exp(-h L_k) = 1.

    `source` is a list of code-word lengths or a CodeWordFamily.  S and S'
    come from `_kraft_sum`: closed geometric blocks for a linear gap rule,
    the few terms above the float floor for the others.  S - 1 is summed
    apart, with the first term of a list as expm1(-h L_1), so that it
    keeps its digits where h L_1 is below the float resolution of 1.  The
    root solves log S = 0 by Newton's method, with log S = log1p(S - 1).
    log S is convex and decreasing in h, and nearly linear away from the
    root, so a step from the right of the root lands left of it, and from
    the left the iterates rise monotonically to it.
    The search starts at h = 1 / min L with no upper limit; a list of K
    lengths has its root above (K - 1) / sum L.  A step outside the bracket
    found so far, or one that does not halve the step before it, is
    replaced: h doubles while no point right of the root is known, and
    otherwise the bracket is bisected, at its geometric mean once its left
    end is positive, so that a root like the 2.25e-98 of [1, 10**100] is
    reached in a few dozen steps.  It stops when a step moves h by at most
    8 ulp.

    `residual` is S(h) - 1 and `truncation_index` the number of words
    summed.  `tail_bound` bounds the rest of the sum: 0.0 for a finite
    list, where nothing is left out.
    """
    source = _kraft_source(source)
    finite = isinstance(source, tuple)
    if finite and len(source) < 2:
        raise NoPositiveRootError(
            "Kraft sum never exceeds 1; need at least two lengths")
    first = source[0] if finite else source.length(1)
    # exp(-x) >= 1 - x, so S >= 1 up to (K - 1) / sum L for K listed words
    lo = (len(source) - 1) / sum(source) if finite else 0.0
    hi = math.inf
    h = 1.0 / first
    moved = math.inf
    for _ in range(_MAX_STEPS):
        s, ds, count = _kraft_sum(source, h)
        excess = (math.fsum([math.expm1(-h * first)]
                            + [math.exp(-h * length) for length in source[1:]])
                  if finite else s - 1.0)
        if excess > 0.0:
            lo = h
        elif excess < 0.0:
            hi = h
        else:
            break
        # Newton on log S; S = 0.0 (every term below the float floor) has none
        step = h - math.log1p(excess) * s / ds if s else lo
        if abs(step - h) <= 8.0 * math.ulp(h):
            break
        if not (lo < step < hi and abs(step - h) < 0.5 * moved):
            step = (2.0 * h if hi == math.inf
                    else lo * math.sqrt(hi / lo) if lo else 0.5 * hi)
        moved = abs(step - h)
        h = step
    else:
        raise NoPositiveRootError(
            f"Kraft root not resolved in {_MAX_STEPS} steps")
    tail = 0.0
    if not finite:
        # later lengths start past the float floor and grow by >= 2
        tail = math.exp(-h * source.length(count + 1)) / -math.expm1(-2 * h)
    return KraftSolution(h, excess, count, tail)


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


def _mask(digits) -> int:
    """The int whose bit p is set where digits[p] is the digit 1."""
    return int(digits[::-1], 2)


@lru_cache(maxsize=16)
def _automaton(fam: CodeWordFamily):
    """Start state and transition of the determinized automaton over in-word
    positions of the code words, built once per family (an over-budget
    family raises on every call, since exceptions are not cached).

    The code words are laid end to end, so position p of the concatenation
    is bit p of a Python int, and a state is the int whose set bits are the
    live positions.  Reading a keeps the live positions holding a; each
    moves to the next bit, and a word's last position moves to the first
    position of every word.  `inner[a]` marks the positions holding a that
    end no word, `last[a]` those that do, and `firsts` the first position
    of each word, so a step ANDs no negative int.  The start state has
    every position live; 0 is the dead state.  Each mask is read in one
    pass from a string of binary digits, one per position, so symbols are
    bytes (below 256).
    """
    words = _position_table(fam)
    flat = b"".join(map(bytes, words))      # the symbol at each position
    size = len(flat)
    end_digits = bytearray(b"0" * size)
    end = -1
    for w in words:
        end += len(w)
        end_digits[end] = ord("1")
    ends = _mask(end_digits)
    firsts = ((ends << 1) | 1) & ((1 << size) - 1)
    inner: dict[int, int] = {}
    last: dict[int, int] = {}
    for a in set(flat):
        held = _mask(flat.translate(bytes(b"01"[b == a] for b in range(256))))
        inner[a], last[a] = held & ~ends, held & ends

    def step(state: int, symbol: int) -> int:
        moved = (state & inner.get(symbol, 0)) << 1
        return moved | firsts if state & last.get(symbol, 0) else moved

    return (1 << size) - 1, step


class _Walk:
    """The walk of `coded_language_count` for one family, kept between calls
    on a lazily determinized automaton with integer state ids.

    Each live state met gets an id, its index in `states`; `ids` maps the
    state back to it, and the dead state 0 gets none.  `rows[i]` holds the
    ids of the live successors of state i, one entry per symbol that keeps
    it alive, from the first time state i is stepped.  So each distinct
    state costs one big-int step per symbol, once per family, and every
    later visit costs small-int dict additions.  `counts` holds the count
    of admissible words of every length walked, and `layer` the states
    after the longest, as {id: number of words reaching it}.  Both are
    replaced whole once a call's walk is done, so a call never reads half
    an update, and the walk is extended under a lock, so that two threads
    never give one state two ids.
    """

    def __init__(self, start: int, step, alphabet: int):
        self.step = step
        self.symbols = range(alphabet)
        self.ids = {start: 0}
        self.states = [start]
        self.rows: dict[int, tuple] = {}
        self.counts = (1,)
        self.layer = {0: 1}
        self.lock = threading.Lock()

    def row(self, sid: int) -> tuple:
        """The successor ids of state `sid`, stepping it on first use."""
        row = self.rows.get(sid)
        if row is not None:
            return row
        state = self.states[sid]
        out = []
        for symbol in self.symbols:
            after = self.step(state, symbol)
            if after:
                aid = self.ids.get(after)
                if aid is None:
                    aid = len(self.states)
                    self.states.append(after)
                    self.ids[after] = aid
                out.append(aid)
        self.rows[sid] = row = tuple(out)
        return row

    def count(self, n: int) -> int:
        """The count at length n, walking on from the longest length so
        far if it is not stored."""
        if n < len(self.counts):
            return self.counts[n]
        with self.lock:
            counts = list(self.counts)
            layer = self.layer
            while len(counts) <= n:
                nxt: dict[int, int] = {}
                for sid, mult in layer.items():
                    for aid in self.row(sid):
                        nxt[aid] = nxt.get(aid, 0) + mult
                layer = nxt
                counts.append(sum(layer.values()))
            self.counts, self.layer = tuple(counts), layer
        return counts[n]


@lru_cache(maxsize=16)
def _walk(fam: CodeWordFamily) -> _Walk:
    """The kept walk of `coded_language_count` for a family: its memoised
    state ids and successor rows, the counts so far and the last layer.
    `_walk.cache_clear()` forgets all of it."""
    start, step = _automaton(fam)
    return _Walk(start, step, fam.alphabet)


def coded_language_count(fam: CodeWordFamily, n: int) -> int:
    """Number of admissible words of length n: subwords of free
    concatenations of the code words, counted on a determinized automaton
    over in-word positions.  The walk is kept per family and each
    automaton state is stepped once per family (see `_Walk`), so a call
    returns a stored count or walks on from the longest length so far
    along memoised successor rows."""
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n == 0:
        return 1
    return _walk(fam).count(n)


def language_membership(fam: CodeWordFamily, wrd) -> bool:
    """Whether a word appears in some free concatenation of code words."""
    state, step = _automaton(fam)
    for symbol in wrd:
        state = step(state, symbol)
        if not state:
            return False
    return True
