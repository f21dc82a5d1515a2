"""One pass over a workload's tasks, in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --mode MODE

MODE is `untraced` (timed pass), `traced` (timed pass with the tracer
installed) or `setup` (set-up only).  The library is imported from the
`src` directory next to this one.  The last stdout line is one JSON object:
the monotonic time at which set-up finished, and for a pass the wall time,
peak RSS and, per task, its values or error and its wall time.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import workloads  # noqa: E402  (benchmark module next to this file)

LAYERS = ("spaces", "maps", "separated", "entropy", "measures", "pressure",
          "symbolic")


class Resolver:
    """Turns workload argument specs into library objects, once per id."""

    def __init__(self, lib):
        self.lib = lib
        self.cache = {}
        self.systems = []

    def __call__(self, spec):
        if not isinstance(spec, list):
            return spec
        if not spec or not isinstance(spec[0], str):
            return tuple(spec)
        key = json.dumps(spec)
        if key not in self.cache:
            self.cache[key] = self._build(spec[0], spec[1:])
        return self.cache[key]

    def _build(self, tag, rest):
        lib = self.lib
        if tag == "system":
            system = lib["maps"].get_system(rest[0])
            self.systems.append(system)
            return system
        if tag == "point":
            space, coords = rest[0], rest[1:]
            return getattr(lib["spaces"], space)(*coords)
        if tag == "word":
            return lib["spaces"].word(rest[0])
        if tag == "ball":
            return lib["spaces"].Ball(self(rest[0]), rest[1])
        if tag == "measure":
            return lib["measures"].get_measure(rest[0])
        if tag == "potential":
            return lib["maps"].get_potential(rest[0])
        if tag == "schedule":
            # `translocal run` [schedule] section with only n_min/n_max set
            base = lib["entropy"].DEFAULT_SCHEDULE
            return lib["entropy"].Schedule(
                tuple(range(rest[0], rest[1] + 1)), base.epsilons,
                base.budget)
        if tag == "region":
            return getattr(lib["pressure"], rest[0])()
        if tag == "family":
            return lib["symbolic"].get_family(rest[0])
        raise KeyError(f"unknown argument tag {tag!r}")


def values(out) -> list:
    """Every value of one call's result: both the upper and the lower
    estimate of a tuple result (`translocal run` prints only the first)."""
    items = out if isinstance(out, tuple) else (out,)
    result = []
    for item in items:
        for attr in ("value", "h"):
            if hasattr(item, attr):
                item = getattr(item, attr)
                break
        if isinstance(item, int) and not isinstance(item, bool):
            result.append(item)
        else:
            result.append(float(item))
    return result


def count_warnings(out) -> int:
    items = out if isinstance(out, tuple) else (out,)
    return sum(getattr(item, "warning", None) is not None for item in items)


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:200]}"


def prepare(workload: str, seed: int):
    """Set-up: imports, resolved arguments and the seeded task list."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "translocal", "__init__.py")):
        raise SystemExit(f"no translocal package under {src}")
    sys.path.insert(0, src)
    lib ={name: importlib.import_module(f"translocal.{name}")
           for name in LAYERS}
    resolve = Resolver(lib)
    prepared = []
    for task in workloads.build_tasks(workload, seed):
        try:
            args = [resolve(a) for a in task["args"]]
            kwargs = {k: resolve(v) for k, v in task["kwargs"].items()}
            prepared.append((task, args, kwargs, None))
        except Exception as exc:
            # an argument the library no longer resolves fails this task only
            prepared.append((task, None, None, _error(exc)))
    return prepared, resolve.systems


def run_tasks(prepared):
    rows, warnings = [], 0
    t_pass = time.perf_counter()
    for task, args, kwargs, error in prepared:
        value = None
        t0 = time.perf_counter()
        if error is None:
            mod_name, fn_name = task["fn"].split(".")
            try:
                fn = getattr(sys.modules[f"translocal.{mod_name}"], fn_name)
                out = fn(*args, **kwargs)
                value = values(out)
                warnings += count_warnings(out)
            except Exception as exc:
                # a task that raises fails, the pass goes on
                error = _error(exc)
        rows.append([task["id"], value, error, time.perf_counter() - t0])
    return rows, time.perf_counter() - t_pass, warnings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("untraced", "traced", "setup"),
                    required=True)
    ap.add_argument("--spans", default="",
                    help="write the traced pass's spans to this .tsv.gz")
    args = ap.parse_args(argv)

    prepared, systems = prepare(args.workload, args.seed)
    result = {"setup_done": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(systems)
        rows, wall, warnings = run_tasks(prepared)
        result.update(wall_s=wall, tasks=rows, warnings=warnings,
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["trace"] = tracer.summary(warnings)
            if args.spans:
                tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
