"""Coded shifts, Kraft roots, and the special sequences."""
import itertools
import math

import numpy as np
import pytest

from translocal.errors import BudgetExceededError, NoPositiveRootError
from translocal.symbolic import (binary_word, coded_language_count,
                                 get_family, kraft_entropy,
                                 language_membership, make_uvw)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_binary_word_enumeration():
    assert [binary_word(k) for k in range(1, 7)] == [
        (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_kraft_golden_ratio():
    sol = kraft_entropy([1, 2])
    assert abs(sol.h - math.log(GOLDEN)) < 1e-9
    assert abs(sol.residual) < 1e-9


def test_kraft_two_unit_lengths():
    sol = kraft_entropy([1, 1])
    assert sol.h == pytest.approx(math.log(2.0), abs=1e-9)


def test_kraft_monotone_under_extra_words():
    rng = np.random.default_rng(23)
    for _ in range(8):
        lengths = sorted(int(v) for v in rng.integers(2, 12, size=5))
        base = kraft_entropy(lengths, alphabet=4).h
        more = kraft_entropy(lengths + [int(rng.integers(2, 12))],
                             alphabet=4).h
        assert more > base


def test_kraft_needs_positive_root():
    with pytest.raises(NoPositiveRootError):
        kraft_entropy([50])


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


def test_uvw_prefixes():
    u, v, w = make_uvw(16)
    assert w.word == (0,) * 16
    assert v.word[:8] == (1, 0, 1, 1, 1, 1, 0, 0)
    assert u.word[:8] == (1, 1, 1, 0, 1, 1, 1, 1)


def test_uvw_u_shadows_v_on_odd_blocks():
    u, v, _ = make_uvw(2000)
    # block for j = 5 copies a prefix of v
    start = math.factorial(4)
    length = math.factorial(5) - math.factorial(4)
    assert u.word[start:start + length] == v.word[:length]
