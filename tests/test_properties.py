"""Hypothesis properties of the exact branch pushforward and of coded-shift
language counts."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translocal.maps import catalogue_ids, get_system
from translocal.separated import exact_variation
from translocal.spaces import CIRCLE, INTERVAL
from translocal.symbolic import (coded_language_count, get_family,
                                 language_membership)

# Branch counts of the full-branch maps, and the staircase's level cap,
# written out here rather than read from the branch tables.
FULL_BRANCH_DEGREE = {"tripling": 3, "g3branch": 3, "pomeau-manneville": 2,
                      "sqrtmap": 2, "identity": 1}
STAIRCASE_LEVELS = 12

ONE_D_IDS = sorted(sys_id for sys_id in catalogue_ids() if "<" not in sys_id
                   and get_system(sys_id).space in (CIRCLE, INTERVAL))
CASES = [(sys_id, 1) for sys_id in ONE_D_IDS] \
    + [(sys_id, 2) for sys_id in ONE_D_IDS]

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


def _system(sys_id, power):
    return get_system(sys_id if power == 1 else f"iterate:{sys_id}:{power}")


def test_every_1d_map_has_a_closed_form_here():
    assert set(ONE_D_IDS) == set(FULL_BRANCH_DEGREE) | {"staircase"}


@pytest.mark.parametrize("sys_id,power", CASES)
@PROPERTY
@given(lo=st.floats(0.0, 0.98), width=st.floats(0.01, 1.0),
       split=st.floats(0.01, 0.99), n=st.integers(1, 7))
def test_exact_variation_is_additive_over_a_split(sys_id, power, lo, width,
                                                  split, n):
    sys = _system(sys_id, power)
    hi = min(lo + width, 1.0)
    mid = lo + split * (hi - lo)
    whole = exact_variation(sys, lo, hi, n)
    parts = exact_variation(sys, lo, mid, n) + exact_variation(sys, mid, hi, n)
    assert parts == pytest.approx(whole, rel=1e-12)


@pytest.mark.parametrize("sys_id,power",
                         [case for case in CASES if case[0] != "staircase"])
@PROPERTY
@given(n=st.integers(1, 9))
def test_full_branch_variation_is_a_degree_power(sys_id, power, n):
    sys = _system(sys_id, power)
    expected = FULL_BRANCH_DEGREE[sys_id] ** (power * (n - 1))
    assert exact_variation(sys, 0.0, 1.0, n) == pytest.approx(expected,
                                                              rel=1e-12)


@pytest.mark.parametrize("power", [1, 2])
@PROPERTY
@given(n=st.integers(1, 9))
def test_staircase_variation_sums_its_bands(power, n):
    k = power * (n - 1)
    expected = 2.0 ** -STAIRCASE_LEVELS + math.fsum(
        (2 * m + 1) ** k * 2.0 ** -m for m in range(1, STAIRCASE_LEVELS + 1))
    assert exact_variation(_system("staircase", power), 0.0, 1.0, n) \
        == pytest.approx(expected, rel=1e-12)


@PROPERTY
@given(words=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=4),
                      min_size=1, max_size=4),
       n=st.integers(0, 5))
def test_coded_count_counts_member_words(words, n):
    fam = get_family("codedshift:words:"
                     + ",".join("".join(map(str, w)) for w in words))
    members = sum(language_membership(fam, w)
                  for w in itertools.product(range(fam.alphabet), repeat=n))
    assert coded_language_count(fam, n) == members
