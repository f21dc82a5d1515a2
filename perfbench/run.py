"""translocal benchmark: one workload, timed in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.
Passes run one after another, each in a new interpreter with no warm-up on
its own inputs, as long as the next one is expected to end within S seconds
(at least one pass).  Every task value is checked against the closed forms
of `oracle.py`.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics, `trace.overhead_frac`,
and whether traced and untraced task values are bit-identical; spans go to
`.perfbench/` in the checkout.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when that line is
printed; a pass that cannot run (for example, no `src/translocal`) exits 2
without it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle      # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

HARD_LIMIT_S = 170.0     # the whole run, set-ups included
MIN_SETUPS = 5           # set-up samples per run, for a median
TAIL_BEYOND = 10         # samples beyond the reported tail percentile
# Relative errors at or below this are float rounding (the tolerances are
# 5-15%); max_rel_error reports them as this value, so that it is never 0
# and does not swing by orders of magnitude between seeds.
ERROR_RESOLUTION = 1e-6

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"), ("max_rel_error", "ratio"), ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class PassRunner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.setup_s: list[float] = []
        self.pass_s: list[float] = []    # spawn to exit, per timed pass

    def run(self, mode: str, spans: str = "") -> dict:
        cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode]
        if spans:
            cmd += ["--spans", spans]
        remaining = self.deadline - _monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before the pass started")
        spawned = _monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} pass exceeded the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited with {proc.returncode}:\n"
                             f"{proc.stderr.strip()[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} pass printed no result")
        result = json.loads(lines[-1])
        self.setup_s.append(result["setup_done"] - spawned)
        if mode != "setup":
            self.pass_s.append(_monotonic() - spawned)
        return result

    def fits(self, start: float, seconds: float, per_round: int = 1) -> bool:
        """Whether another round of `per_round` passes, each as long as the
        median pass so far, ends within `seconds` of `start`.  The first
        round always runs."""
        if not self.pass_s:
            return True
        expected = per_round * statistics.median(self.pass_s)
        return _monotonic() - start + expected <= seconds


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def _task_times(passes: list[dict]):
    """Median and tail per-task times (ms), with how they were taken.

    A task's time in a run is the median of its times over the run's
    passes; the median and the tail are then taken over tasks, so the
    sample count is the workload's task count, whatever the number of
    passes.
    """
    per_task = [statistics.median(p["tasks"][i][3] * 1e3 for p in passes)
                for i in range(len(passes[0]["tasks"]))]
    tail, pct = _tail(per_task)
    count = (f"of {len(per_task)} tasks, each the median of its "
             f"{len(passes)} passes")
    return (statistics.median(per_task), tail,
            f"p50 {count}", f"p{pct:.1f} {count}")


def check(tasks: list[dict], passes: list[dict]) -> dict:
    """Compare every pass's task values with the oracle and with each other."""
    expect = {t["id"]: oracle.expected(t["oracle"]) for t in tasks}
    attempted = failed = 0
    failures: dict[str, str] = {}      # task id -> report line, first pass
    max_rel, worst = 0.0, ""
    reference = [(row[0], row[1], row[2]) for row in passes[0]["tasks"]]
    identical = True
    for p in passes:
        rows = p["tasks"]
        identical &= [(r[0], r[1], r[2]) for r in rows] == reference
        for tid, values, error, _ in rows:
            attempted += 1
            exp = expect[tid]
            ok = error is None
            # every value of a tuple result (upper and lower estimate)
            # meets the same closed form and tolerance
            for value in values if ok else ():
                rel = oracle.rel_error(value, exp["expected"])
                ok &= rel <= exp["tol"]
                if math.isfinite(rel) and rel > max_rel:
                    max_rel, worst = rel, tid
            if not ok:
                failed += 1
                failures.setdefault(tid, _failure_line(tid, values, error, exp))
    unexpected = [tid for tid in failures
                  if expect[tid]["known_defect"] is None]
    return {"attempted": attempted, "failed": failed, "max_rel": max_rel,
            "worst": worst, "unexpected": unexpected, "identical": identical,
            "failures": list(failures.values())}


def _failure_line(tid, values, error, exp) -> str:
    got = error if error is not None else repr(values)
    note = f" (known defect: {exp['known_defect']})" \
        if exp["known_defect"] else ""
    return (f"  FAILED {tid}: got {got}, expected {exp['expected']!r} "
            f"+-{exp['tol']:.3g} rel [{exp['provenance']}]{note}")


def end_to_end(runner: PassRunner, seconds: float) -> dict:
    start = _monotonic()
    passes = []
    while runner.fits(start, seconds):
        passes.append(runner.run("untraced"))
    while len(runner.setup_s) < MIN_SETUPS:
        runner.run("setup")
    tasks = workloads.build_tasks(runner.workload, runner.seed)
    verdict = check(tasks, passes)
    p50, tail, p50_note, tail_note = _task_times(passes)
    attempted = verdict["attempted"]
    metrics = {
        "setup_s": statistics.median(runner.setup_s),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "task_p50_ms": p50,
        "task_tail_ms": tail,
        "max_rel_error": max(verdict["max_rel"], ERROR_RESOLUTION),
        "ok_frac": (attempted - verdict["failed"]) / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(runner.setup_s)} fresh processes",
        "wall_s": f"median of {len(passes)} passes of {len(tasks)} tasks",
        "task_p50_ms": p50_note,
        "task_tail_ms": tail_note,
        "max_rel_error": f"worst task {verdict['worst']} at "
                         f"{verdict['max_rel']:.3g}, floor {ERROR_RESOLUTION:g}",
        "ok_frac": f"failed_frac = {verdict['failed']}/{attempted} = "
                   f"{verdict['failed'] / attempted:.4g}",
        "peak_rss_mb": "median over passes",
    }
    print(f"workload {runner.workload} seed {runner.seed}: "
          f"{len(passes)} passes, tasks identical across passes: "
          f"{verdict['identical']}")
    print(f"  why: {workloads.WORKLOADS[runner.workload]['why']}")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {metrics[name]:>14.6g} {unit:<6} {notes[name]}")
    for line in verdict["failures"]:
        print(line)
    return {
        "correct": not verdict["unexpected"] and verdict["identical"],
        "attempted": attempted, "failed": verdict["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END},
    }


def per_layer(runner: PassRunner, seconds: float) -> dict:
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    start = _monotonic()
    untraced, traced = [], []
    while runner.fits(start, seconds, per_round=2):
        untraced.append(runner.run("untraced"))
        spans = os.path.join(out_dir, f"spans-{runner.workload}-"
                                      f"{len(traced)}.tsv.gz")
        traced.append(runner.run("traced", spans))
    tasks = workloads.build_tasks(runner.workload, runner.seed)
    verdict = check(tasks, untraced + traced)
    wall_u = statistics.median(p["wall_s"] for p in untraced)
    wall_t = statistics.median(p["wall_s"] for p in traced)
    summaries = [p["trace"] for p in traced]
    absent = set(summaries[0]["absent"])
    metrics = {}
    units = {}
    for name, unit, _ in tracer.layer_metrics():
        units[name] = unit
        if name == "trace.overhead_frac":
            metrics[name] = wall_t / wall_u - 1.0
        elif all(name in s["metrics"] for s in summaries):
            metrics[name] = statistics.median(s["metrics"][name]
                                              for s in summaries)
    print(f"workload {runner.workload} seed {runner.seed} traced: "
          f"{len(traced)} traced and {len(untraced)} untraced passes, "
          f"{summaries[0]['spans']} spans per pass, traced values "
          f"bit-identical to untraced: {verdict['identical']}")
    print(f"  wall_s untraced {wall_u:.4f} s, traced {wall_t:.4f} s")
    print(f"  layers: {workloads.WORKLOADS[runner.workload]['layers']}")
    for layer in (*workloads.LAYER_TABLE, "trace"):
        if layer in workloads.LAYER_TABLE:
            print(f"  [{layer}] should move: "
                  f"{workloads.LAYER_TABLE[layer]}")
        for name, unit, _ in tracer.layer_metrics():
            if name.split(".")[0] != layer:
                continue
            value = f"{metrics[name]:>14.6g}" if name in metrics \
                else f"{'absent':>14}"
            print(f"    {name:<46} {value} {unit}")
    if absent:
        print(f"  absent at this commit: {', '.join(sorted(absent))}")
    if any(s["hook_errors"] for s in summaries):
        print(f"  counter hook errors: "
              f"{max(s['hook_errors'] for s in summaries)}")
    for line in verdict["failures"]:
        print(line)
    return {
        "correct": not verdict["unexpected"] and verdict["identical"],
        "attempted": verdict["attempted"], "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="translocal benchmark (see BENCHMARK.json)")
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    runner = PassRunner(args.workload, args.seed,
                        _monotonic() + HARD_LIMIT_S)
    try:
        if args.trace:
            result = per_layer(runner, args.seconds)
        else:
            result = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
