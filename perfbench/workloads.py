"""Workload definitions: seeded lists of estimator tasks.

A task is one call into the library entry point that a `translocal run`
experiment kind dispatches to, with that kind's defaults.  This module is
plain data and the standard library only: it never imports `translocal`, so
the parent process (which checks results) and the pass process (which
resolves the arguments and makes the calls) build the same list from the
same seed.

Argument specs are tagged lists that `passrun.Resolver` turns into library
objects: ["system", id], ["point", space, x...], ["word", [symbols]],
["ball", point, radius], ["measure", id], ["potential", id],
["schedule", n_min, n_max], ["region", "whole_circle"], ["family", id].
Every task also carries an `oracle` entry that `oracle.expected` turns into
the closed form and tolerance it is checked against.
"""
from __future__ import annotations

import random

# Frozen Lebesgue-typical base point of the non-uniform 3-branch map
# (slopes 2, 4, 4); its finite-orbit Lyapunov average is close to (3/2) log 2.
TYPICAL_Z = 0.455118552

# `translocal run` defaults of the kinds used below.
CLI_PRESSURE_RADIUS = 0.05
CLI_PRESSURE_S_GRID = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
CLI_RESTRICTED_RADIUS = 0.5
CLI_LYAPUNOV_STEPS = 200

TRIPLING_OMEGAS = (0.0, 0.25, 0.5, 0.75, 1.0)

WORKLOADS = {
    "entropy-exact": {
        "why": ("1D translocal, yz and restricted entropy: exact branch "
                "pushforward and growth-rate regression, hundreds of "
                "millisecond-scale tasks"),
        "layers": "separated.exact_variation and entropy regression do nearly "
                  "all the work; pressure, measures and spaces do none",
    },
    "cover-pressure": {
        "why": ("critical_exponent on the whole circle: cover quadrature and "
                "bulk map stepping on 4096-node grids, seconds per task"),
        "layers": "pressure and bulk maps stepping; where quadrature reuse "
                  "and exact orbits act; the g3branch rows show today's "
                  "float-orbit collapse in max_rel_error",
    },
    "orbit-local": {
        "why": ("per-point Brin-Katok, local pressure, Lyapunov, Kraft and "
                "coded-language calls: maps used one point at a time"),
        "layers": "measures bisection (bowen_distance per probe), O(n^2) "
                  "lyapunov_exponent and symbolic; holds the g3branch "
                  "Lyapunov row that raises today",
    },
    "sampled-grid": {
        "why": ("toral translocal entropy and full-shift restricted entropy: "
                "eigendirection line scans through variation_count, the "
                "symbolic prefix grid, the largest RSS"),
        "layers": "separated.variation_count on the toral line scans of "
                  "entropy._cell_toral (its own linspace, not "
                  "spaces.sample_grid), spaces.symbolic_grid and "
                  "separated.separated_count for the full shift; "
                  "spaces.sample_grid runs on no workload",
    },
}

# Which end-to-end metric each layer's counters should move, on which
# workload (the wrapped functions and counters are listed in tracer.py).
# Recorded before measuring; the traced run prints it beside the counters.
LAYER_TABLE = {
    "maps": "wall_s on cover-pressure (about 4096 points per step call) and "
            "sampled-grid (blocks of 2^17 points); task_p50_ms on "
            "orbit-local (1 point per call)",
    "separated": "wall_s on entropy-exact, sampled-grid and orbit-local",
    "entropy": "task_p50_ms on entropy-exact; wall_s and ok_frac on "
               "orbit-local",
    "measures": "wall_s on orbit-local",
    "pressure": "wall_s and task_tail_ms on cover-pressure; max_rel_error "
                "there for exact-orbit fixes",
    "symbolic": "wall_s on orbit-local",
    "spaces": "peak_rss_mb and wall_s on sampled-grid",
}

# Sizes chosen so one untraced pass takes a few seconds on a 2-core box
# (cover-pressure: one pass of its five tasks, about 45 s).
TRIPLING_POINTS = 160          # x 5 omegas
STAIRCASE_LEVELS = (1, 2, 3, 4, 5)
BK_TRIPLING_POINTS = 2
BK_SHIFT_WORDS = 6
TLP_ROWS = 3
CODED_COUNT_LENGTHS = tuple(range(8, 26))
# Toral translocal schedules end at n = 12 (cat) and n = 9 (toral:2,0;0,3);
# at n = 14 the two tasks take about 8 s and 25 s.  At these sizes the three
# sampled-grid tasks take about 2.3 s (cat), 1.4 s (full shift) and 0.6 s
# (toral), far enough apart that the median task is always the full shift.
CAT_N_MAX = 12
TORAL_N_MAX = 9
CODED_FAMILIES = ("codedshift:linear:1,0", "codedshift:linear:3,2",
                  "codedshift:geometric:1", "codedshift:geometric:2",
                  "codedshift:factorial")


def _task(tid, fn, args, kwargs=None, oracle=None):
    return {"id": tid, "fn": fn, "args": args, "kwargs": kwargs or {},
            "oracle": oracle}


def _circle(x):
    return ["point", "circle", x]


def _interval(x):
    return ["point", "interval", x]


def _torus(x, y):
    return ["point", "torus", x, y]


def _entropy_exact(rng):
    tasks = []
    for i in range(TRIPLING_POINTS):
        x = rng.random()
        for w in TRIPLING_OMEGAS:
            tasks.append(_task(
                f"translocal/tripling/{i}/{w}", "entropy.translocal_entropy",
                [["system", "tripling"], _circle(x), w],
                oracle=["translocal-tripling", w]))
    for label, z, lyap in (("fixed-2/3", 2.0 / 3.0, "log4"),
                           ("typical", TYPICAL_Z, "1.5log2")):
        tasks.append(_task(
            f"translocal/g3branch/{label}", "entropy.translocal_entropy",
            [["system", "g3branch"], _circle(z), 0.6],
            oracle=["translocal-g3branch", 0.6, lyap]))
    tasks.append(_task(
        "translocal/pomeau-manneville/0", "entropy.translocal_entropy",
        [["system", "pomeau-manneville"], _interval(0.0), 0.5],
        oracle=["neutral-fixed-point"]))
    tasks.append(_task(
        "translocal/sqrtmap/0", "entropy.translocal_entropy",
        [["system", "sqrtmap"], _interval(0.0), 1.0,
         ["schedule", 24, 40]],
        oracle=["infinite-derivative-fixed-point"]))
    for level in STAIRCASE_LEVELS:
        # interior of the level band (2^-L, 2^(1-L)], at least the smallest
        # yz neighbourhood radius (0.01) away from its ends
        lo, hi = 2.0 ** -level + 0.0105, 2.0 ** (1 - level) - 0.0105
        x = lo + (hi - lo) * rng.random()
        tasks.append(_task(
            f"yz/staircase/level{level}", "entropy.yz_entropy_function",
            [["system", "staircase"], _interval(x)],
            oracle=["staircase-level", x]))
    tasks.append(_task(
        "restricted/iterate:tripling:2/circle", "entropy.restricted_entropy",
        [["system", "iterate:tripling:2"], ["ball", _circle(0.0), 0.5]],
        oracle=["h-top", "iterate:tripling:2"]))
    return tasks


def _cover_pressure(rng):
    t = round(rng.uniform(0.2, 0.8), 3)
    omega = round(rng.uniform(0.3, 0.9), 3)
    region = ["region", "whole_circle"]
    bowen = {"r": CLI_PRESSURE_RADIUS, "s_grid": list(CLI_PRESSURE_S_GRID)}
    rows = (
        ("tripling", "zero", bowen, ["pressure", "tripling", "zero"]),
        ("tripling", f"geometric:{t}", bowen,
         ["pressure", "tripling", f"geometric:{t}"]),
        ("tripling", "zero",
         {"omega": omega, "s_grid": list(CLI_PRESSURE_S_GRID),
          "variant": "translocal-upper"},
         ["translocal-pressure-exponent", omega]),
        ("g3branch", "zero", bowen, ["pressure", "g3branch", "zero"]),
        ("g3branch", "geometric:0.5", bowen,
         ["pressure", "g3branch", "geometric:0.5"]),
    )
    tasks = []
    for sys_id, pot_id, kwargs, oracle in rows:
        variant = kwargs.get("variant", "bowen-ball")
        tasks.append(_task(
            f"pressure/{sys_id}/{pot_id}/{variant}",
            "pressure.critical_exponent",
            [["system", sys_id], region, ["potential", pot_id]],
            kwargs, oracle))
    return tasks


def _orbit_local(rng):
    tasks = []
    for i in range(BK_TRIPLING_POINTS):
        tasks.append(_task(
            f"brin-katok/tripling/{i}", "measures.brin_katok",
            [["system", "tripling"], ["measure", "lebesgue-circle"],
             _circle(rng.random())],
            oracle=["brin-katok-lebesgue"]))
    tasks.append(_task(
        "local-pressure/tripling/geometric:1", "measures.local_pressure",
        [["system", "tripling"], ["measure", "lebesgue-circle"],
         ["potential", "geometric:1"], _circle(rng.random())],
        oracle=["local-pressure-geometric", 1.0]))
    for i in range(TLP_ROWS):
        omega = round(rng.uniform(0.3, 1.0), 3)
        c = round(rng.uniform(0.0, 0.5), 3)
        tasks.append(_task(
            f"translocal-pressure/tripling/{i}",
            "measures.translocal_local_pressure",
            [["system", "tripling"], ["measure", "lebesgue-circle"],
             ["potential", f"constant:{c}"], _circle(rng.random()), omega],
            oracle=["translocal-local-pressure", omega, c]))
    tasks.append(_task(
        "lyapunov/tripling", "entropy.lyapunov_exponent",
        [["system", "tripling"], _circle(rng.random()), 400],
        oracle=["lyapunov", "tripling"]))
    tasks.append(_task(
        "lyapunov/g3branch/typical", "entropy.lyapunov_exponent",
        [["system", "g3branch"], _circle(TYPICAL_Z), CLI_LYAPUNOV_STEPS],
        oracle=["lyapunov", "g3branch"]))
    for i in range(BK_SHIFT_WORDS):
        symbols = [rng.randrange(2) for _ in range(64)]
        tasks.append(_task(
            f"brin-katok/fullshift:2/{i}", "measures.brin_katok",
            [["system", "fullshift:2"], ["measure", "bernoulli:0.5,0.5"],
             ["word", symbols]],
            oracle=["brin-katok-coin"]))
    tasks.append(_task("kraft/lengths:1,2", "symbolic.kraft_entropy",
                       [[1, 2]], oracle=["kraft-golden"]))
    for fid in CODED_FAMILIES:
        tasks.append(_task(f"kraft/{fid}", "symbolic.kraft_entropy",
                           [["family", fid]], oracle=["kraft-family", fid]))
    for n in CODED_COUNT_LENGTHS:
        tasks.append(_task(
            f"coded-count/linear:1,0/{n}", "symbolic.coded_language_count",
            [["family", "codedshift:linear:1,0"], n],
            oracle=["coded-count", "codedshift:linear:1,0", n]))
    return tasks


def _sampled_grid(rng):
    return [
        _task("translocal/cat", "entropy.translocal_entropy",
              [["system", "cat"], _torus(rng.random(), rng.random()), 0.3,
               ["schedule", 6, CAT_N_MAX]],
              oracle=["translocal-toral", [[2, 1], [1, 1]], 0.3]),
        _task("translocal/toral:2,0;0,3", "entropy.translocal_entropy",
              [["system", "toral:2,0;0,3"],
               _torus(rng.random(), rng.random()), 0.3,
               ["schedule", 6, TORAL_N_MAX]],
              oracle=["translocal-toral", [[2, 0], [0, 3]], 0.3]),
        _task("restricted/fullshift:2", "entropy.restricted_entropy",
              [["system", "fullshift:2"],
               ["ball", ["word", [rng.randrange(2) for _ in range(20)]],
                CLI_RESTRICTED_RADIUS]],
              oracle=["h-top", "fullshift:2"]),
    ]


_TASK_LISTS = {
    "entropy-exact": _entropy_exact,
    "cover-pressure": _cover_pressure,
    "orbit-local": _orbit_local,
    "sampled-grid": _sampled_grid,
}


def build_tasks(workload: str, seed: int) -> list[dict]:
    """The workload's task list; the same (workload, seed) gives the same list."""
    if workload not in _TASK_LISTS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choose from {', '.join(_TASK_LISTS)}")
    return _TASK_LISTS[workload](random.Random(f"{workload}/{seed}"))
