"""Coded shifts and Kraft roots."""
import collections
import itertools
import math
import random

import numpy as np
import pytest

from translocal import symbolic
from translocal.errors import BudgetExceededError, NoPositiveRootError
from translocal.separated import symbolic_word_count
from translocal.symbolic import (binary_word, coded_language_count,
                                 get_family, kraft_entropy,
                                 language_membership)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_binary_word_enumeration():
    assert [binary_word(k) for k in range(1, 7)] == [
        (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_kraft_golden_ratio():
    sol = kraft_entropy([1, 2])
    assert abs(sol.h - math.log(GOLDEN)) < 1e-9
    assert abs(sol.residual) < 1e-9
    assert sol.h == pytest.approx(math.log(GOLDEN), rel=1e-12)


def test_kraft_two_unit_lengths():
    sol = kraft_entropy([1, 1])
    assert sol.h == pytest.approx(math.log(2.0), abs=1e-9)


def test_kraft_monotone_under_extra_words():
    rng = np.random.default_rng(23)
    for _ in range(8):
        lengths = sorted(int(v) for v in rng.integers(2, 12, size=5))
        base = kraft_entropy(lengths).h
        more = kraft_entropy(lengths + [int(rng.integers(2, 12))]).h
        assert more > base


@pytest.mark.parametrize("big", [10 ** 6, 10 ** 100], ids=["1e6", "1e100"])
def test_kraft_resolves_roots_below_float_resolution(big):
    # exp(-h) rounds to 1.0 below h = 1e-16, and the root of [1, 10**100]
    # is about 2.25e-98: at it, 1 - exp(-h) = exp(-h * big)
    sol = kraft_entropy([1, big])
    assert 0.0 < sol.h < 1e-4
    assert -math.expm1(-sol.h) == pytest.approx(math.exp(-sol.h * big),
                                                rel=1e-12, abs=0.0)


def test_kraft_needs_positive_root():
    with pytest.raises(NoPositiveRootError):
        kraft_entropy([50])


@pytest.mark.parametrize("count", [4, 9])
def test_kraft_equal_unit_lengths(count):
    # the root log(count) lies beyond any bracket tied to a small alphabet
    sol = kraft_entropy([1] * count)
    assert sol.h == pytest.approx(math.log(count), rel=1e-14)
    assert sol.tail_bound == 0.0


def test_kraft_explicit_words_are_a_finite_list():
    sol = kraft_entropy(get_family("codedshift:words:0,01"))
    assert sol.h == pytest.approx(math.log(GOLDEN), rel=1e-14)
    assert sol.truncation_index == 2
    assert sol.tail_bound == 0.0


@pytest.mark.parametrize("fid", ["codedshift:linear:0,3",
                                 "codedshift:geometric:0"])
def test_kraft_refuses_gap_rules_that_do_not_grow(fid):
    with pytest.raises(ValueError):
        kraft_entropy(get_family(fid))


@pytest.mark.parametrize("a,b", [(1, 0), (3, 2), (2, 1)])
@pytest.mark.parametrize("h", [0.05, 0.2, 0.5, 1.5])
def test_kraft_block_sum_is_the_explicit_sum(a, b, h):
    fam = get_family(f"codedshift:linear:{a},{b}")
    total, slope, count = symbolic._kraft_sum(fam, h)
    lengths = [fam.length(k) for k in range(1, count + 1)]
    assert total == pytest.approx(
        math.fsum(math.exp(-h * L) for L in lengths), rel=1e-13)
    assert slope == pytest.approx(
        -math.fsum(L * math.exp(-h * L) for L in lengths), rel=1e-13)
    # the words left out are below the float floor of exp
    assert math.exp(-h * fam.length(count + 1)) == 0.0


def _fsum_bisection(lengths, tol=1e-10):
    """Bisection over a math.fsum of explicit lengths to an absolute
    tolerance: a reference independent of the closed blocks and of the
    Newton step.  Its bracket widens until the sum drops below 1."""
    def f(h):
        return math.fsum(math.exp(-h * L) if h * L < 700 else 0.0
                         for L in lengths) - 1.0

    lo, hi = 1e-12, math.log(3.0)
    while f(hi) >= 0.0:
        lo, hi = hi, 2.0 * hi
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
    return 0.5 * (lo + hi)


def _explicit_lengths(fam, cap=2000):
    """The family's first lengths: at least 30 words, then words up to the
    first one longer than `cap`, at most 2000 words."""
    out = []
    k = 1
    while True:
        out.append(fam.length(k))
        if (out[-1] > cap and k >= 30) or k >= 2000:
            return out
        k += 1


@pytest.mark.parametrize("fid", [
    "codedshift:linear:1,0", "codedshift:linear:3,2",
    "codedshift:linear:2,1", "codedshift:geometric:1",
    "codedshift:geometric:2", "codedshift:factorial"])
def test_kraft_root_matches_fsum_bisection(fid):
    fam = get_family(fid)
    expected = _fsum_bisection(_explicit_lengths(fam))
    assert kraft_entropy(fam).h == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("source", [
    "codedshift:linear:1,0", "codedshift:linear:3,2",
    "codedshift:geometric:1", "codedshift:geometric:2",
    "codedshift:factorial", "codedshift:words:0,01",
    (1, 2), (2, 3, 5), (1,) * 9, (3, 50, 50, 50)])
def test_kraft_root_takes_few_sum_evaluations(source, monkeypatch):
    calls = []
    block_sum = symbolic._kraft_sum

    def counted(src, h):
        calls.append(h)
        return block_sum(src, h)

    monkeypatch.setattr(symbolic, "_kraft_sum", counted)
    if isinstance(source, str):
        source = get_family(source)
    kraft_entropy(source)
    # bisecting to float precision takes about 60
    assert 1 <= len(calls) <= 40


def test_coded_count_free_binary_words():
    fam = get_family("codedshift:words:0,1")
    for n in (1, 4, 8):
        assert coded_language_count(fam, n) == 2 ** n


def test_coded_count_golden_mean_like():
    # words {0, 01}: counts follow the Fibonacci recursion
    fam = get_family("codedshift:words:0,01")
    counts = [coded_language_count(fam, n) for n in range(1, 7)]
    assert counts == [2, 3, 5, 8, 13, 21]
    rate = math.log(counts[-1] / counts[-2])
    assert rate == pytest.approx(math.log(GOLDEN), abs=0.02)


# Counts of the gap rule g(k) = k for n = 8..25, as the frozenset automaton
# over (word, position) pairs gave them.
LINEAR_1_0_COUNTS = (109, 136, 167, 200, 238, 283, 337, 400, 474, 561, 668,
                     796, 952, 1139, 1367, 1646, 1986, 2401)


def test_coded_count_pinned_values():
    fam = get_family("codedshift:linear:1,0")
    assert tuple(coded_language_count(fam, n) for n in range(8, 26)) \
        == LINEAR_1_0_COUNTS


def test_kept_walk_steps_each_state_once_per_symbol(monkeypatch):
    fam = get_family("codedshift:linear:1,0")
    start, step = symbolic._automaton(fam)
    stepped = collections.Counter()

    def counted(state, symbol):
        stepped[state, symbol] += 1
        return step(state, symbol)

    monkeypatch.setattr(symbolic, "_automaton", lambda _: (start, counted))
    symbolic._walk.cache_clear()
    try:
        walked = [coded_language_count(fam, n) for n in range(26)]
        assert tuple(walked[8:]) == LINEAR_1_0_COUNTS
        first = sum(stepped.values())
        ns = list(range(26))
        random.Random(3).shuffle(ns)
        assert [coded_language_count(fam, n) for n in ns] \
            == [walked[n] for n in ns]
        assert sum(stepped.values()) == first
        # walking on past 25 reuses the rows of the states already met
        ns = list(range(40))
        random.Random(4).shuffle(ns)
        for n in ns:
            coded_language_count(fam, n)
        assert max(stepped.values()) == 1
    finally:
        symbolic._walk.cache_clear()


def _bitwise_automaton(fam):
    """The automaton's masks with one bit OR-ed in per position."""
    inner, last, firsts, p = {}, {}, 0, 0
    for w in symbolic._position_table(fam):
        firsts |= 1 << p
        for symbol in w[:-1]:
            inner[symbol] = inner.get(symbol, 0) | (1 << p)
            p += 1
        last[w[-1]] = last.get(w[-1], 0) | (1 << p)
        p += 1

    def step(state, symbol):
        moved = (state & inner.get(symbol, 0)) << 1
        return moved | firsts if state & last.get(symbol, 0) else moved

    return (1 << p) - 1, step


@pytest.mark.parametrize("fid", ["codedshift:linear:1,0",
                                 "codedshift:linear:3,2",
                                 "codedshift:words:0,10,120,2"])
def test_automaton_masks_are_the_bitwise_ones(fid):
    fam = get_family(fid)
    (start, step), (want_start, want_step) = (symbolic._automaton(fam),
                                              _bitwise_automaton(fam))
    assert start == want_start
    rng = random.Random(5)
    state = start
    for _ in range(400):
        symbol = rng.randrange(fam.alphabet)
        after = step(state, symbol)
        assert after == want_step(state, symbol)
        state = after or start


def test_coded_count_is_not_bounded_by_the_recursion_limit():
    # "0" and "1" as code words make the full 2-shift
    fam = get_family("codedshift:words:0,1")
    assert coded_language_count(fam, 600) == 2 ** 600


def test_oversized_code_words_are_refused_before_they_are_built():
    # geometric gaps make code words of about 2^65 symbols
    fam = get_family("codedshift:geometric:1")
    with pytest.raises(BudgetExceededError):
        coded_language_count(fam, 3)
    with pytest.raises(BudgetExceededError):
        language_membership(fam, (2,))
    with pytest.raises(BudgetExceededError):
        symbolic_word_count("codedshift:geometric:1", 3)


def test_memoised_automaton_refuses_on_every_call():
    fam = get_family("codedshift:geometric:1")
    for _ in range(3):
        with pytest.raises(BudgetExceededError):
            language_membership(fam, (2,))


def test_kept_walk_refuses_on_every_call():
    fam = get_family("codedshift:geometric:1")
    for n in (3, 3, 1):
        with pytest.raises(BudgetExceededError):
            coded_language_count(fam, n)


def test_coded_count_matches_kraft_rate():
    fam = get_family("codedshift:linear:1,0")
    counts = [(n, math.log(coded_language_count(fam, n)))
              for n in range(8, 26)]
    slopes = [(b - a) / 4 for (_, a), (_, b) in zip(counts, counts[4:])]
    rate = slopes[-1]
    h = kraft_entropy(fam).h
    assert rate == pytest.approx(h, rel=0.10, abs=0.02)


def test_factorial_family_is_length_only():
    fam = get_family("codedshift:factorial")
    with pytest.raises(BudgetExceededError):
        fam.code_word(1)
    sol = kraft_entropy(fam)
    assert 0.0 < sol.h < math.log(2.0)
    assert sol.tail_bound < 1e-6


def test_all_gap_families_below_full_shift_entropy():
    for fid in ("codedshift:linear:1,0", "codedshift:linear:2,1",
                "codedshift:geometric:1", "codedshift:factorial"):
        h = kraft_entropy(get_family(fid)).h
        assert 0.0 < h < math.log(2.0)


def test_marker_symbols_glue_at_word_boundaries():
    fam = get_family("codedshift:linear:1,0")
    # "22" only occurs across a boundary between consecutive code words
    assert language_membership(fam, (2, 2))
    w1 = fam.code_word(1)
    assert language_membership(fam, w1 + w1)
    assert not language_membership(fam, (1, 2, 1))


def test_membership_agrees_with_language_count():
    fam = get_family("codedshift:linear:1,0")
    for n in (1, 3, 5):
        members = sum(language_membership(fam, w)
                      for w in itertools.product(range(3), repeat=n))
        assert members == coded_language_count(fam, n)
