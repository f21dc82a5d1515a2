"""Tracing done from outside the library.

`Tracer.install` rebinds each wrapped public function in every `translocal.*`
module namespace that holds the same object (modules import names with
`from .maps import orbit_coords, ...`, so patching the defining module alone
would miss those calls), and counts `step_many` on every system the library
resolves.  Spans are kept in memory as parallel arrays with parent links,
written out at the end, and self times are computed from them.

Nothing here changes what the library computes: the wrappers only time and
count, and the pass runner checks that traced and untraced task values are
bit-identical.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# Wrapped public functions, per layer (the package's modules).  `cli` only
# parses and dispatches, and `errors` does no work.
WRAPPED = {
    "maps": ("orbit_coords", "log_derivative_sum", "birkhoff_sum",
             "monotone_branches", "evaluate"),
    "separated": ("exact_variation", "variation_count", "bowen_distance",
                  "separated_count", "symbolic_word_count"),
    "entropy": ("cell_log_count", "growth_rate", "translocal_entropy",
                "yz_entropy_function", "restricted_entropy",
                "lyapunov_exponent"),
    "measures": ("bowen_ball_measure", "local_pressure", "brin_katok",
                 "translocal_local_pressure"),
    "pressure": ("critical_exponent", "cover_weight",
                 "translocal_cover_weight"),
    "symbolic": ("kraft_entropy", "coded_language_count"),
    "spaces": ("sample_grid", "symbolic_grid"),
}

# Layer counters: name -> (unit, better).
COUNTERS = {
    "maps.step_calls": ("count", "lower"),
    "maps.point_steps": ("count", "lower"),
    "maps.step_s": ("s", "lower"),
    "maps.points_per_step_call": ("point/call", "higher"),
    "separated.sample_points": ("count", "lower"),
    "entropy.cells_exact": ("count", "higher"),
    "entropy.cells_sampled": ("count", "lower"),
    "entropy.cells_symbolic": ("count", "lower"),
    "entropy.warnings": ("count", "lower"),
    "measures.bisection_probes": ("count", "lower"),
    "pressure.cover_evals": ("count", "lower"),
    "pressure.point_steps": ("count", "lower"),
    "spaces.grid_points": ("count", "lower"),
}

# Counters that only exist when a given wrapped function or hook exists.
_STEP_COUNTERS = ("maps.step_calls", "maps.point_steps", "maps.step_s",
                  "maps.points_per_step_call", "pressure.point_steps")
_COUNTER_SOURCES = {
    "separated.sample_points": ("separated.variation_count",
                                "separated.separated_count",
                                "separated.bowen_distance"),
    "entropy.cells_exact": ("entropy.cell_log_count",),
    "entropy.cells_sampled": ("entropy.cell_log_count",),
    "entropy.cells_symbolic": ("entropy.cell_log_count",),
    "measures.bisection_probes": ("measures.bowen_ball_measure",
                                  "separated.bowen_distance"),
    "pressure.cover_evals": ("pressure.cover_weight",
                             "pressure.translocal_cover_weight"),
    "spaces.grid_points": ("spaces.sample_grid", "spaces.symbolic_grid"),
}


def wrapped_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run reports."""
    out = []
    for qname in wrapped_names():
        out.append((f"{qname}.calls", "count", "lower"))
        out.append((f"{qname}.self_s", "s", "lower"))
    out.extend((name, unit, better) for name, (unit, better)
               in COUNTERS.items())
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.stack: list[int] = []
        self.module_depth: dict[str, int] = {}   # open spans per layer
        self.in_ball_measure = 0     # open measures.bowen_ball_measure spans
        self.counts = {name: 0.0 for name in COUNTERS}
        self.absent: set[str] = set()
        self.hook_errors = 0
        self._in_step = False
        self._stepped: set[int] = set()

    # -- installation ------------------------------------------------------

    def install(self, systems=()) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "translocal"
                                         or name.startswith("translocal."))]
        hooks = self._hooks()
        for qname in wrapped_names():
            mod_name, fn_name = qname.split(".")
            original = getattr(sys.modules.get(f"translocal.{mod_name}"),
                               fn_name, None)
            if original is None:
                self.absent.add(qname)
                continue
            self._rebind(modules, original,
                         self._wrap(qname, original, hooks.get(qname)))
        maps = sys.modules.get("translocal.maps")
        get_system = getattr(maps, "get_system", None)
        if get_system is None:
            self.absent.update(_STEP_COUNTERS)
        else:
            self._rebind(modules, get_system, self._resolving(get_system))
        for system in systems:
            self._count_steps(system)
        for counter, sources in _COUNTER_SOURCES.items():
            if any(src in self.absent for src in sources):
                self.absent.add(counter)

    @staticmethod
    def _rebind(modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def _resolving(self, get_system):
        def resolved(*args, **kwargs):
            system = get_system(*args, **kwargs)
            self._count_steps(system)
            return system
        return functools.update_wrapper(resolved, get_system)

    def _count_steps(self, system) -> None:
        step = getattr(system, "step_many", None)
        if step is None or id(step) in self._stepped:
            return
        tracer = self

        def step_many(coords):
            # a composed system (iterate:f:r) steps through its base map;
            # only the outermost call is the resolved system's step
            if tracer._in_step:
                return step(coords)
            tracer._in_step = True
            t0 = time.perf_counter()
            try:
                out = step(coords)
            finally:
                dt = time.perf_counter() - t0
                tracer._in_step = False
            points = len(coords)
            counts = tracer.counts
            counts["maps.step_calls"] += 1
            counts["maps.point_steps"] += points
            counts["maps.step_s"] += dt
            if tracer.module_depth.get("pressure", 0):
                counts["pressure.point_steps"] += points
            return out

        try:
            object.__setattr__(system, "step_many", step_many)
        except (AttributeError, TypeError):
            self.absent.update(_STEP_COUNTERS)
            return
        self._stepped.add(id(step_many))

    def _hooks(self) -> dict:
        counts = self.counts

        def variation_count(args, kwargs, out):
            coords = args[1] if len(args) > 1 else kwargs["coords"]
            counts["separated.sample_points"] += len(coords)

        def separated_count(args, kwargs, out):
            query = args[0] if args else kwargs["q"]
            counts["separated.sample_points"] += len(query.sample)

        def bowen_distance(args, kwargs, out):
            counts["separated.sample_points"] += 2
            if self.in_ball_measure:
                counts["measures.bisection_probes"] += 1

        def cover(args, kwargs, out):
            counts["pressure.cover_evals"] += 1

        def grid(args, kwargs, out):
            counts["spaces.grid_points"] += len(out)

        return {
            "separated.variation_count": variation_count,
            "separated.separated_count": separated_count,
            "separated.bowen_distance": bowen_distance,
            "pressure.cover_weight": cover,
            "pressure.translocal_cover_weight": cover,
            "spaces.sample_grid": grid,
            "spaces.symbolic_grid": grid,
        }

    def _wrap(self, qname: str, fn, hook):
        idx = len(self.names)
        self.names.append(qname)
        module = qname.split(".")[0]
        self.module_depth.setdefault(module, 0)
        names, parents = self.span_name, self.span_parent
        t0s, t1s = self.span_t0, self.span_t1
        stack, module_depth = self.stack, self.module_depth
        ball_measure = int(qname == "measures.bowen_ball_measure")
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(t0s)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            t1s.append(0.0)
            stack.append(sid)
            module_depth[module] += 1
            self.in_ball_measure += ball_measure
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[sid] = clock()
                stack.pop()
                module_depth[module] -= 1
                self.in_ball_measure -= ball_measure
            if hook is not None:
                try:
                    hook(args, kwargs, out)
                except Exception:
                    # a changed signature must not break the traced call
                    self.hook_errors += 1
            return out

        return functools.update_wrapper(wrapper, fn)

    # -- results -----------------------------------------------------------

    def summary(self, warnings: int) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        n = len(self.span_t0)
        dur = [self.span_t1[i] - self.span_t0[i] for i in range(n)]
        child = [0.0] * n
        parents, span_names = self.span_parent, self.span_name
        cell_idx = (self.names.index("entropy.cell_log_count")
                    if "entropy.cell_log_count" in self.names else -1)
        cell_children: dict[int, set] = {}
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
                if span_names[p] == cell_idx:
                    cell_children.setdefault(p, set()).add(
                        self.names[span_names[i]])
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[span_names[i]] += 1
            self_s[span_names[i]] += dur[i] - child[i]

        metrics = {}
        for idx, qname in enumerate(self.names):
            metrics[f"{qname}.calls"] = calls[idx]
            metrics[f"{qname}.self_s"] = self_s[idx]
        counts = dict(self.counts)
        if cell_idx >= 0:
            for i in range(n):
                if span_names[i] == cell_idx:
                    path = _cell_path(cell_children.get(i, set()))
                    if path is not None:
                        counts[f"entropy.cells_{path}"] += 1
        counts["entropy.warnings"] = warnings
        steps = counts["maps.step_calls"]
        counts["maps.points_per_step_call"] = (
            counts["maps.point_steps"] / steps if steps else 0.0)
        for name, value in counts.items():
            if name not in self.absent:
                metrics[name] = value
        return {"metrics": metrics, "absent": sorted(self.absent),
                "spans": n, "hook_errors": self.hook_errors}

    def write_spans(self, path: str) -> None:
        """Spans as TSV: id, parent id, name, start and end (perf_counter s)."""
        lines = ["id\tparent\tname\tt0\tt1"]
        names = self.names
        for i in range(len(self.span_t0)):
            lines.append(f"{i}\t{self.span_parent[i]}\t"
                         f"{names[self.span_name[i]]}\t"
                         f"{self.span_t0[i]!r}\t{self.span_t1[i]!r}")
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("\n".join(lines))
            fh.write("\n")


def _cell_path(children: set) -> str | None:
    """Counting path of one cell_log_count span, from its child spans."""
    if "spaces.symbolic_grid" in children:
        return "symbolic"
    if "separated.exact_variation" in children:
        return "exact"
    if children & {"separated.variation_count", "spaces.sample_grid",
                   "separated.separated_count"}:
        return "sampled"
    return None
