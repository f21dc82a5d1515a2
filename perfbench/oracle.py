"""Closed-form oracle for the benchmark tasks.

Every task of `workloads.py` names an oracle entry; `expected` turns it into
the value the task must reproduce and the tolerance it must meet.  The
oracle uses the standard library only: it imports neither `translocal` nor
its tests, and does not reuse `cli.expected_for`.

Errors are measured as `abs(value - expected) / max(abs(expected), 0.05)`,
the denominator the CLI uses.  A tolerance comes from the matching gate in
`tests/test_acceptance.py`; an absolute gate `abs(value - expected) <= a` is
converted to that relative scale.  Where no gate exists the tolerance is
0.10.
"""
from __future__ import annotations

import math
from functools import lru_cache

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
DEFAULT_TOL = 0.10
REL_FLOOR = 0.05

# Branch slopes of the full-branch affine circle maps.  For such a map the
# pressure of -t*log|f'| is log(sum over branches of slope^-t).
BRANCH_SLOPES = {"tripling": (3.0, 3.0, 3.0), "g3branch": (2.0, 4.0, 4.0)}

# Almost-everywhere Lyapunov exponents (Lebesgue measure is invariant).
LYAPUNOV = {"tripling": LOG3, "g3branch": 1.5 * LOG2}

# Code words per coded-shift family, as the library's families default to.
CODE_WORDS = 64

G3_LYAPUNOV_DEFECT = (
    "float orbit of the typical point hits the branch endpoint 0.5 and "
    "collapses onto 0; raises SingularOrbitError")


def rel_error(value: float, expected: float) -> float:
    return abs(value - expected) / max(abs(expected), REL_FLOOR)


def _abs_tol(a: float, expected: float) -> float:
    return a / max(abs(expected), REL_FLOOR)


def _result(value, tol, provenance, known_defect=None):
    return {"expected": value, "tol": tol, "provenance": provenance,
            "known_defect": known_defect}


def expected(entry) -> dict:
    """{expected, tol, provenance, known_defect} for one oracle entry."""
    kind, params = entry[0], entry[1:]
    return _ORACLES[kind](*params)


def _translocal_tripling(omega):
    return _result(max(0.0, 1.0 - omega / LOG3) * LOG3, 0.10,
                   "max(0, 1 - omega/log 3) log 3")


def _translocal_g3branch(omega, lyap):
    lam = {"log4": math.log(4.0), "1.5log2": 1.5 * LOG2}[lyap]
    return _result(max(0.0, 1.0 - omega / lam) * LOG3, 0.12,
                   f"(1 - omega/{lyap}) log 3")


def _neutral_fixed_point():
    return _result(0.0, _abs_tol(0.05, 0.0), "0 at the neutral fixed point")


def _infinite_derivative_fixed_point():
    return _result(LOG2, 0.10, "log 2 at the infinite-derivative point")


def _staircase_level(x):
    # x in (2^-L, 2^(1-L)] has level L
    level = 1
    while x <= 2.0 ** -level:
        level += 1
    return _result(math.log(2.0 * level + 1.0), 0.10,
                   f"log(2L+1) on level L={level}")


def _h_top(sys_id):
    values = {"iterate:tripling:2": 2.0 * LOG3, "fullshift:2": LOG2}
    return _result(values[sys_id], 0.10, f"topological entropy of {sys_id}")


def _pressure(sys_id, pot_id):
    t = 0.0 if pot_id == "zero" else float(pot_id.split(":", 1)[1])
    value = math.log(sum(s ** -t for s in BRANCH_SLOPES[sys_id]))
    # tripling is gated in the acceptance suite: its bracket must contain
    # the closed form with width <= 0.1, and the geometric exponent must be
    # within 0.05
    tol = _abs_tol(0.05, value) if sys_id == "tripling" else DEFAULT_TOL
    return _result(value, tol, "log sum_branches slope^-t")


def _translocal_pressure_exponent(omega):
    return _result(omega, _abs_tol(0.05, omega),
                   "translocal cover exponent equals omega")


def _brin_katok_lebesgue():
    return _result(LOG3, 0.05, "Bowen-interval length decay log 3")


def _brin_katok_coin():
    return _result(LOG2, 0.05, "fair-coin cylinder decay log 2")


def _local_pressure_geometric(t):
    return _result((1.0 - t) * LOG3, DEFAULT_TOL, "(1 - t) log 3")


def _translocal_local_pressure(omega, c):
    return _result(omega + c, DEFAULT_TOL, "omega + c for arc-length balls")


def _lyapunov(sys_id):
    defect = G3_LYAPUNOV_DEFECT if sys_id == "g3branch" else None
    return _result(LYAPUNOV[sys_id], DEFAULT_TOL,
                   f"a.e. Lyapunov exponent of {sys_id}", defect)


def _kraft_golden():
    value = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    return _result(value, _abs_tol(1e-9, value), "log of the golden ratio")


def _kraft_family(fid):
    return _result(_kraft_root(fid), DEFAULT_TOL,
                   "root of sum_k exp(-h L_k) = 1, summed independently")


def _coded_count(fid, n):
    return _result(float(coded_window_count(fid, n)), DEFAULT_TOL,
                   "distinct length-n windows of code-word concatenations")


def _translocal_toral(matrix, omega):
    (a, b), (c, d) = matrix
    tr, det = a + d, a * d - b * c
    disc = tr * tr - 4 * det
    if disc >= 0:
        moduli = (abs(tr + math.sqrt(disc)) / 2, abs(tr - math.sqrt(disc)) / 2)
    else:
        moduli = (math.sqrt(abs(det)),) * 2
    value = sum(max(0.0, math.log(m) - omega) for m in moduli if m > 0)
    return _result(value, 0.15, "sum over eigenvalues (log|lam| - omega)+")


_ORACLES = {
    "translocal-tripling": _translocal_tripling,
    "translocal-g3branch": _translocal_g3branch,
    "neutral-fixed-point": _neutral_fixed_point,
    "infinite-derivative-fixed-point": _infinite_derivative_fixed_point,
    "staircase-level": _staircase_level,
    "h-top": _h_top,
    "pressure": _pressure,
    "translocal-pressure-exponent": _translocal_pressure_exponent,
    "brin-katok-lebesgue": _brin_katok_lebesgue,
    "brin-katok-coin": _brin_katok_coin,
    "local-pressure-geometric": _local_pressure_geometric,
    "translocal-local-pressure": _translocal_local_pressure,
    "lyapunov": _lyapunov,
    "kraft-golden": _kraft_golden,
    "kraft-family": _kraft_family,
    "coded-count": _coded_count,
    "translocal-toral": _translocal_toral,
}


# ---------------------------------------------------------------------------
# Coded shifts: code word k is 2 0^g(k) w_k 0^g(k) 2, w_k the k-th nonempty
# binary word in length-then-lexicographic order.
# ---------------------------------------------------------------------------

def _gap(fid: str, k: int) -> int:
    rule = fid[len("codedshift:"):]
    if rule == "factorial":
        return math.factorial(10 + k)
    name, arg = rule.split(":", 1)
    if name == "linear":
        a, b = (int(v) for v in arg.split(","))
        return a * k + b
    if name == "geometric":
        return int(arg) * 2 ** k
    raise KeyError(f"unknown coded-shift family {fid!r}")


def _binary_word(k: int) -> str:
    length = (k + 1).bit_length() - 1
    return format(k + 1 - (1 << length), f"0{length}b")


def _code_length(fid: str, k: int) -> int:
    return 2 * _gap(fid, k) + len(_binary_word(k)) + 2


def _kraft_root(fid: str) -> float:
    def excess(h):
        total, k = 0.0, 1
        while True:
            length = _code_length(fid, k)
            term = math.exp(-h * length) if h * length < 745 else 0.0
            total += term
            # lengths grow at least linearly, so the tail after a term
            # below 1e-18 is negligible
            if term < 1e-18 or k >= 100_000:
                return total - 1.0
            k += 1

    lo, hi = 0.0, LOG3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def _code_words(fid: str) -> tuple:
    return tuple("2" + "0" * _gap(fid, k) + _binary_word(k)
                 + "0" * _gap(fid, k) + "2" for k in range(1, CODE_WORDS + 1))


@lru_cache(maxsize=None)
def _boundary_prefixes(fid: str, m: int) -> frozenset:
    """Length-m prefixes of concatenations that start at a word boundary."""
    if m == 0:
        return frozenset({""})
    out = set()
    for w in _code_words(fid):
        if len(w) >= m:
            out.add(w[:m])
        else:
            out.update(w + rest for rest in _boundary_prefixes(fid, m - len(w)))
    return frozenset(out)


@lru_cache(maxsize=None)
def coded_window_count(fid: str, n: int) -> int:
    """Number of length-n windows of free concatenations of the code words.

    A window starts inside some code word, runs to its end and continues
    with a boundary prefix of the remaining length.
    """
    if n == 0:
        return 1
    suffixes = {w[i:] for w in _code_words(fid) for i in range(len(w))}
    windows = set()
    for s in suffixes:
        if len(s) >= n:
            windows.add(s[:n])
        else:
            windows.update(s + rest
                           for rest in _boundary_prefixes(fid, n - len(s)))
    return len(windows)
