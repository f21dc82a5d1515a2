"""Hypothesis properties of the exact branch pushforward, of its one walk
over an n-set, and of its uniform-slope closed form, of the closed-form
toral and full-shift cells, of
cell counts along an eps ladder, of the closed-form window slope, of
coded-shift language counts, of the kept coded-language walk, of
Bowen-ball masses, and of the branch table as the one definition of a 1D
map (its steps, composed iterates and derived attributes)."""
import bisect
import decimal
import functools
import itertools
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translocal import symbolic
from translocal.entropy import (_window, _window_residual, _window_slope,
                                cell_log_count, cell_log_counts)
from translocal.maps import catalogue_ids, full_branch_slopes, get_system
from translocal.measures import bowen_ball_measure, get_measure
from translocal.separated import (exact_variation, exact_variations,
                                  separation_prefix_length)
from translocal.spaces import (BETA, CIRCLE, INTERVAL, Ball,
                               circle, interval, symbolic_grid, torus, word)
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


def _affine_branches(ends, slope):
    # the branches x -> slope * x - i on [ends[i], ends[i + 1]], onto [0, 1]
    return [(a, b, lambda x, i=i: slope * x - i, (ends[0], ends[-1]))
            for i, (a, b) in enumerate(zip(ends, ends[1:]))]


def _staircase_lap(base, laps, j):
    def fn(x):
        s = (x - base) * laps / base - j
        return base * (1 + (s if j % 2 == 0 else 1 - s))
    return fn


def _decimal_table(sys_id):
    """(lo, hi, fn, image) for each branch of a 1D catalogue map, written
    out in decimals in the current context."""
    zero, half, one = Decimal(0), Decimal("0.5"), Decimal(1)
    unit = (zero, one)
    if sys_id == "tripling":
        return _affine_branches([zero, one / 3, 2 * one / 3, one], 3)
    if sys_id == "identity":
        return _affine_branches([zero, one], 1)
    if sys_id == "g3branch":
        three_quarters = Decimal("0.75")
        return [(zero, half, lambda x: 2 * x, unit),
                (half, three_quarters, lambda x: 4 * x - 2, unit),
                (three_quarters, one, lambda x: 4 * x - 3, unit)]
    right = (half, one, lambda x: 2 * x - 1, unit)
    if sys_id == "pomeau-manneville":
        return [(zero, half, lambda x: x / (1 - x), unit), right]
    if sys_id == "sqrtmap":
        return [(zero, half, lambda x: (2 * x).sqrt(), unit), right]
    assert sys_id == "staircase"
    floor = one / 2 ** STAIRCASE_LEVELS
    table = [(zero, floor, lambda x: x, (zero, floor))]
    for m in range(1, STAIRCASE_LEVELS + 1):
        base, laps = one / 2 ** m, 2 * m + 1
        ends = [base + base * j / laps for j in range(laps + 1)]
        table += [(ends[j], ends[j + 1], _staircase_lap(base, laps, j),
                   (base, 2 * base)) for j in range(laps)]
    return table


def _exact_variation(sys_id, lo, hi, n):
    """The variation of f^(n-1) over [lo, hi] from a branch walk in
    50-digit decimals: a branch met in full gives its image interval, any
    other piece the image of its ends, with no tolerance; equal pieces
    merge.  An iterate id walks its base map r * (n - 1) steps."""
    steps = n - 1
    if sys_id.startswith("iterate:"):
        sys_id, r = sys_id[len("iterate:"):].rsplit(":", 1)
        steps *= int(r)
    with decimal.localcontext(prec=50):
        table = _decimal_table(sys_id)
        frags = {(Decimal(lo), Decimal(hi)): 1}
        for _ in range(steps):
            nxt = {}
            for (a, b), mult in frags.items():
                for blo, bhi, fn, image in table:
                    s, e = max(a, blo), min(b, bhi)
                    if e <= s:
                        continue
                    piece = (image if (s, e) == (blo, bhi)
                             else tuple(sorted((fn(s), fn(e)))))
                    nxt[piece] = nxt.get(piece, 0) + mult
            frags = nxt
        return float(sum(m * (b - a) for (a, b), m in frags.items()))


@pytest.mark.parametrize("sys_id", ["tripling", "identity",
                                    "iterate:tripling:2"])
@PROPERTY
@given(lo=st.floats(0.0, 0.98), width=st.floats(0.01, 1.0),
       n=st.integers(1, 12))
def test_uniform_slope_variation_is_the_walk(sys_id, lo, width, n):
    sys = get_system(sys_id)
    hi = min(lo + width, 1.0)
    assert (sys.base or sys).uniform_slope is not None
    assert exact_variation(sys, lo, hi, n) \
        == pytest.approx(_exact_variation(sys_id, lo, hi, n), rel=1e-12)


@pytest.mark.parametrize("sys_id", ["g3branch", "pomeau-manneville",
                                    "sqrtmap", "staircase"])
@PROPERTY
@given(lo=st.floats(0.0, 0.98), width=st.floats(0.01, 1.0),
       n=st.integers(1, 9))
def test_mixed_slope_tables_keep_the_walk(sys_id, lo, width, n):
    sys = get_system(sys_id)
    hi = min(lo + width, 1.0)
    assert sys.uniform_slope is None
    assert exact_variation(sys, lo, hi, n) \
        == pytest.approx(_exact_variation(sys_id, lo, hi, n), rel=1e-12)


@pytest.mark.parametrize("n", [6, 9])
def test_a_curved_branch_is_full_only_at_its_ends(n):
    # [2^-1022, 1/2] misses the sqrt branch's start by far less than 1e-12
    # of its width, but sqrt(2x) blows that gap up to about 1e-9 in five
    # steps
    lo = 2.0 ** -1022
    assert exact_variation(get_system("sqrtmap"), lo, 1.0, n) \
        == pytest.approx(_exact_variation("sqrtmap", lo, 1.0, n), rel=1e-12)


@pytest.mark.parametrize("sys_id", ["staircase", "pomeau-manneville",
                                    "sqrtmap", "g3branch",
                                    "iterate:g3branch:2"])
@PROPERTY
@given(lo=st.floats(0.0, 0.98), width=st.floats(0.01, 1.0),
       ns=st.sets(st.integers(1, 9), min_size=1, max_size=9))
def test_one_walk_gives_every_n_bit_for_bit(sys_id, lo, width, ns):
    # each n's value is read off the fragments at its own last step, so
    # the one walk over the n-set repeats each n's own walk exactly
    sys = get_system(sys_id)
    hi = min(lo + width, 1.0)
    n_values = sorted(ns)
    assert repr(exact_variations(sys, lo, hi, n_values)) \
        == repr([exact_variation(sys, lo, hi, n) for n in n_values])


def test_uniform_slope_is_derived_from_the_branch_slopes():
    assert get_system("tripling").uniform_slope == 3.0
    assert get_system("identity").uniform_slope == 1.0
    # an iterate of a full-branch map is a composed table of its own
    assert get_system("iterate:tripling:2").uniform_slope == 9.0
    # a lazy iterate has no table; tori and shifts have none at all
    for sys_id in ("iterate:sqrtmap:2", "cat", "fullshift:2"):
        assert get_system(sys_id).uniform_slope is None


@pytest.mark.parametrize("sys_id", ONE_D_IDS)
def test_branch_slopes_are_the_branch_derivatives(sys_id):
    for br in get_system(sys_id).branches:
        if br.slope is None:
            continue
        a, b = br.lo + 0.25 * (br.hi - br.lo), br.lo + 0.75 * (br.hi - br.lo)
        assert (br.fn(b) - br.fn(a)) / (b - a) \
            == pytest.approx(br.slope, rel=1e-9)


# one centre per system, in its own space
LADDER_CENTERS = {"tripling": lambda u, v: circle(u),
                  "g3branch": lambda u, v: circle(u),
                  "pomeau-manneville": lambda u, v: interval(u),
                  "staircase": lambda u, v: interval(u),
                  "iterate:tripling:2": lambda u, v: circle(u),
                  "cat": torus,
                  "fullshift:2": lambda u, v: word(
                      [int(u * 2 ** k) % 2 for k in range(1, 25)])}


@pytest.mark.parametrize("sys_id", sorted(LADDER_CENTERS))
@PROPERTY
@given(u=st.floats(0.0, 1.0, exclude_max=True),
       v=st.floats(0.0, 1.0, exclude_max=True),
       radius=st.floats(1e-4, 0.6), n=st.integers(1, 9),
       epsilons=st.lists(st.floats(1e-3, 0.5), min_size=2, max_size=6,
                         unique=True))
def test_cell_counts_do_not_increase_as_eps_grows(sys_id, u, v, radius, n,
                                                  epsilons):
    ladder = sorted(epsilons, reverse=True)
    ball = Ball(LADDER_CENTERS[sys_id](u, v), radius)
    logs = cell_log_counts(get_system(sys_id), ball, n, ladder)
    # a descending ladder: each eps is smaller than the one before it
    assert logs == sorted(logs)


def _real_eigenbasis(matrix):
    """(modulus, sup-normalized real direction) pairs from `np.linalg.eig`,
    expanding first; a complex pair gives its real and imaginary parts."""
    vals, vecs = np.linalg.eig(np.asarray(matrix, dtype=float))
    out = []
    used = set()
    for i, lam in enumerate(vals):
        if i in used:
            continue
        if abs(lam.imag) > 1e-12:
            used.add(int(np.argmin(np.abs(vals - lam.conjugate()))))
            for v in (vecs[:, i].real, vecs[:, i].imag):
                if np.abs(v).max() > 1e-12:
                    out.append((abs(lam), v / np.abs(v).max()))
        else:
            v = vecs[:, i].real
            out.append((abs(lam), v / np.abs(v).max()))
    out.sort(key=lambda t: -t[0])
    return out


# 2x2 matrices whose eigen data is taken in closed form: hyperbolic,
# diagonal, repeated, defective, with a negative eigenvalue, and complex
CLOSED_FORM_MATRICES = ["2,1;1,1", "2,0;0,3", "5,3;3,2", "2,0;0,2", "2,1;0,2",
                        "0,1;1,-1", "1,-1;1,1", "2,-3;3,2"]


@pytest.mark.parametrize("matrix", CLOSED_FORM_MATRICES)
def test_closed_form_eigen_data_is_the_eig_reference(matrix):
    sys = get_system(f"toral:{matrix}")
    want = _real_eigenbasis(sys.matrix)
    moduli = [m for m, mult in sys.spectrum for _ in range(mult)]
    assert moduli == pytest.approx([m for m, _ in want], rel=1e-12, abs=1e-12)
    assert sys.h_top == pytest.approx(
        sum(math.log(m) for m, _ in want if m > 1.0), rel=1e-12, abs=1e-12)
    expanding = [v for m, v in want if m > 1.0 + 1e-12]
    assert len(sys.expanding) == len(expanding)
    for got, ref in zip(sys.expanding, expanding):
        assert all(isinstance(x, float) for x in got)
        # the same direction, up to sign
        sign = 1.0 if np.dot(got, ref) >= 0 else -1.0
        assert np.abs(sign * np.asarray(got) - ref).max() <= 1e-12, (got, ref)


def test_a_larger_torus_keeps_its_eig_spectrum():
    # d >= 3 keeps the one eigendecomposition: the spectrum is its merged
    # moduli as they come, h_top log 3 + 2 log(golden ratio)
    sys = get_system("toral:2,1,0;1,1,0;0,0,3")
    moduli = sorted(np.abs(np.linalg.eigvals(np.asarray(sys.matrix, float))),
                    reverse=True)
    assert sys.spectrum == tuple((float(m), 1) for m in moduli)
    assert sys.h_top == math.log(moduli[0]) + math.log(moduli[1])
    assert sys.h_top == pytest.approx(math.log(3.0) + math.log(
        (3.0 + math.sqrt(5.0)) / 2.0), rel=1e-12)
    assert len(sys.expanding) == 2


def _matrix_power_log_counts(sys, radius, n, epsilons):
    """The toral cell as it was counted from a float matrix power."""
    power = np.linalg.matrix_power(np.asarray(sys.matrix, dtype=float), n - 1)
    tvs = [2 * min(radius, 0.5) * float(np.abs(power @ np.asarray(vec)).max())
           * (1.0 - 1e-12) for vec in sys.expanding]
    return [sum(math.log(int(tv / eps) + 1) for tv in tvs)
            for eps in epsilons]


@pytest.mark.parametrize("sys_id", ["cat", "toral:2,0;0,3", "iterate:cat:2",
                                    "toral:2,1,0;1,1,0;0,0,3"])
def test_toral_cells_are_the_float_matrix_power_counts(sys_id):
    # exact integer powers give the counts of the float matrix power while
    # its entries are exact floats
    sys, epsilons = get_system(sys_id), (0.05, 0.02, 0.01)
    for radius in (1e-3, 0.05, 0.3, 0.75):
        ball = Ball(torus(*[0.1] * sys.dim), radius)
        for n in range(1, 13):
            assert cell_log_counts(sys, ball, n, epsilons) \
                == _matrix_power_log_counts(sys, radius, n, epsilons)


def _line_scan_log_count(sys, ball, n, eps):
    """The sampled toral cell the closed form replaced: a uniform line scan
    along each expanding direction, fine enough that every image gap is
    below eps/4, counted from the wrapped sup-norm gap sum."""
    radius = min(ball.radius, 0.5)
    z = np.asarray(ball.center.coords, dtype=float)
    total = 0.0
    for modulus, vec in _real_eigenbasis(sys.matrix):
        if modulus <= 1.0 + 1e-12:
            continue
        spacing = min(0.25 * eps, 0.1) * modulus ** (-(n - 1))
        npts = int(2 * radius / spacing) + 1
        if npts <= 1:
            continue
        ts = np.linspace(-radius, radius, npts)
        images = (z[None, :] + ts[:, None] * vec[None, :]) % 1.0
        for _ in range(n - 1):
            images = sys.step_many(images)
        gaps = np.abs(np.diff(images, axis=0)) % 1.0
        tv = float(np.minimum(gaps, 1.0 - gaps).max(axis=1).sum())
        tv *= 1.0 - 1e-12
        total += math.log(int(tv / eps) + 1)
    return total


# the largest n keeps each scan below about 10^6 points
@pytest.mark.parametrize("sys_id,n_max", [("cat", 7), ("toral:2,0;0,3", 7),
                                          ("iterate:cat:2", 4)])
@PROPERTY
@given(x=st.floats(0.0, 1.0, exclude_max=True),
       y=st.floats(0.0, 1.0, exclude_max=True),
       radius=st.floats(1e-3, 0.75), eps=st.floats(0.01, 0.1),
       n=st.integers(1, 7))
def test_toral_cell_equals_the_line_scan(sys_id, n_max, x, y, radius, eps, n):
    sys = get_system(sys_id)
    n = min(n, n_max)
    ball = Ball(torus(x, y), radius)
    assert cell_log_count(sys, ball, n, eps) \
        == _line_scan_log_count(sys, ball, n, eps)


@pytest.mark.parametrize("k", [2, 3])
@PROPERTY
@given(data=st.data(), closed=st.booleans(), n=st.integers(1, 6),
       eps=st.floats(0.05, 0.9),
       radius=st.one_of(st.floats(1e-3, 1.5),
                        st.sampled_from([1.0, math.e ** -1, math.e ** -2])))
def test_fullshift_cell_counts_the_grid_prefixes(k, data, closed, n, eps,
                                                 radius):
    center = word(data.draw(st.lists(st.integers(0, k - 1), max_size=6)))
    ball = Ball(center, radius, closed)
    logc = cell_log_count(get_system(f"fullshift:{k}"), ball, n, eps)
    plen = separation_prefix_length(n, eps)
    grid = symbolic_grid(ball, BETA ** (-plen), k)
    assert logc == math.log(len({w[:plen] for w in grid.words}))


@PROPERTY
@given(data=st.data(),
       ns=st.lists(st.integers(1, 1000), min_size=3, max_size=17,
                   unique=True))
def test_window_slope_is_the_least_squares_fit(data, ns):
    ys = data.draw(st.lists(st.floats(-100.0, 100.0), min_size=len(ns),
                            max_size=len(ns)))
    window = _window(tuple(ns), 0, len(ns))
    slope, y_bar = _window_slope(window, ys)
    resid = _window_residual(window, ys, slope, y_bar)
    a = np.stack([np.asarray(ns, dtype=float), np.ones(len(ns))], axis=1)
    coef = np.linalg.lstsq(a, np.asarray(ys), rcond=None)[0]
    want = float(np.sqrt(np.mean((a @ coef - np.asarray(ys)) ** 2)))
    assert slope == pytest.approx(float(coef[0]), abs=1e-12)
    assert resid == pytest.approx(want, abs=1e-12)


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


@functools.lru_cache(maxsize=None)
def _fresh_count(fid, n):
    """The count of a walk from the start state, as if nothing were kept."""
    start, step = symbolic._automaton(get_family(fid))
    layer = {start: 1}
    for _ in range(n):
        nxt = {}
        for state, mult in layer.items():
            for symbol in range(3):
                after = step(state, symbol)
                if after:
                    nxt[after] = nxt.get(after, 0) + mult
        layer = nxt
    return sum(layer.values())


@pytest.mark.parametrize("fid", ["codedshift:linear:1,0",
                                 "codedshift:linear:3,2"])
@PROPERTY
@given(ns=st.lists(st.integers(0, 30), min_size=1, max_size=8))
def test_coded_count_walks_on_as_if_from_scratch(fid, ns):
    # the kept walk starts empty, then serves the lengths in any order,
    # decreasing orders included
    symbolic._walk.cache_clear()
    fam = get_family(fid)
    assert [coded_language_count(fam, n) for n in ns] \
        == [_fresh_count(fid, n) for n in ns]


@pytest.mark.parametrize("fid", ["codedshift:linear:1,0",
                                 "codedshift:linear:3,2"])
@pytest.mark.parametrize("n", [40, 60])
def test_long_coded_counts_are_the_walk_from_scratch(fid, n):
    assert coded_language_count(get_family(fid), n) == _fresh_count(fid, n)


# uniform-slope circle maps and their largest slope, written out
UNIFORM_SLOPE = {"tripling": 3, "identity": 1, "iterate:tripling:2": 9,
                 "iterate:tripling:3": 27, "iterate:iterate:tripling:2:3": 729}


@pytest.mark.parametrize("sys_id", list(UNIFORM_SLOPE))
@PROPERTY
@given(x=st.floats(0.0, 1.0, exclude_max=True), n=st.integers(1, 14),
       scale=st.floats(0.001, 1.0))
def test_tripling_bowen_ball_mass_is_the_pulled_back_arc(sys_id, x, n, scale):
    # below eps = 1/(s + 1) the ball is the arc of half-width eps * s^-(n-1)
    s = UNIFORM_SLOPE[sys_id]
    eps = scale / (s + 1)
    mass = bowen_ball_measure(get_system(sys_id),
                              get_measure("lebesgue-circle"), circle(x), n,
                              eps)
    assert mass == pytest.approx(2.0 * eps * float(s) ** -(n - 1), rel=1e-9,
                                 abs=0)


# The table is the map: its steps, slopes and flags are read off it.
LOG2, LOG3, LOG4 = math.log(2.0), math.log(3.0), math.log(4.0)
COMPOSED = {"iterate:tripling:2": ("tripling", 2),
            "iterate:g3branch:2": ("g3branch", 2),
            "iterate:iterate:tripling:2:3": ("tripling", 6)}
TABLE_IDS = ONE_D_IDS + list(COMPOSED)
# (h_top, Lebesgue-invariant, uniform_slope, max_log_slope), written out;
# the catalogue's are the values each map once declared by hand
DECLARED = {
    "tripling": (LOG3, True, 3.0, LOG3),
    "g3branch": (LOG3, True, None, LOG4),
    "pomeau-manneville": (LOG2, False, None, LOG4),
    "sqrtmap": (LOG2, False, None, None),
    "staircase": (None, False, None, math.log(25.0)),
    "identity": (0.0, True, 1.0, 0.0),
    "iterate:tripling:2": (2 * LOG3, True, 9.0, 2 * LOG3),
    "iterate:g3branch:2": (2 * LOG3, True, None, 2 * LOG4),
    "iterate:iterate:tripling:2:3": (3 * (2 * LOG3), True, 729.0,
                                     3 * (2 * LOG3)),
}


def _step_points(sys):
    """2,000 random points, every branch end and its float neighbours, all
    inside the phase space."""
    ends = {e for br in sys.branches for e in (br.lo, br.hi)}
    near = {math.nextafter(e, d) for e in ends for d in (-1.0, 2.0)}
    xs = np.random.default_rng(41).random(2000).tolist() + sorted(ends | near)
    top = 1.0 if sys.space == INTERVAL else math.nextafter(1.0, 0.0)
    return np.asarray([x for x in xs if 0.0 <= x <= top])


@pytest.mark.parametrize("sys_id", TABLE_IDS)
def test_scalar_vector_and_branch_steps_agree_bit_for_bit(sys_id):
    sys = get_system(sys_id)
    xs = _step_points(sys)
    scalar = np.asarray([sys.step(x) for x in xs.tolist()])
    vector = sys.step_many(xs.reshape(-1, 1))[:, 0]
    held = [sys.branches[bisect.bisect_right(sys.cuts, x)].fn(x)
            for x in xs.tolist()]
    by_fn = np.asarray(held) % 1.0 if sys.space == CIRCLE \
        else np.clip(held, 0.0, 1.0)
    assert scalar.tobytes() == vector.tobytes()
    assert scalar.tobytes() == by_fn.tobytes()


@pytest.mark.parametrize("sys_id", list(COMPOSED))
def test_composed_iterate_step_is_r_root_steps(sys_id):
    root_id, r = COMPOSED[sys_id]
    sys, root = get_system(sys_id), get_system(root_id)
    assert len(sys.branches) == len(root.branches) ** r
    xs = _step_points(sys).tolist()
    walked = xs
    for _ in range(r):
        walked = [root.step(x) for x in walked]
    assert [sys.step(x) for x in xs] == walked
    assert np.asarray(walked).tobytes() \
        == sys.step_many(np.asarray(xs).reshape(-1, 1))[:, 0].tobytes()


@pytest.mark.parametrize("sys_id", TABLE_IDS)
def test_table_derived_attributes_are_the_declared_ones(sys_id):
    sys = get_system(sys_id)
    assert (sys.h_top, full_branch_slopes(sys) is not None,
            sys.uniform_slope, sys.max_log_slope) == DECLARED[sys_id]
