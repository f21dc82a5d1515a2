"""Batch experiment runner.

Configs are flat INI files with an [experiment] section (and an optional
[schedule] section); runs emit a deterministic CSV, a JSON summary, and an
exit status: 0 all registered comparisons pass, 1 numeric failure, 2 config
error.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys

from . import entropy, maps, measures, pressure, symbolic, spaces
from .entropy import DEFAULT_SCHEDULE, Schedule
from .errors import (BudgetExceededError, HorizonExceededError,
                     NoPositiveRootError, SingularOrbitError,
                     SpaceMismatchError, UnbracketedError)

_NUMERIC_ERRORS = (BudgetExceededError, HorizonExceededError,
                   NoPositiveRootError, SingularOrbitError, UnbracketedError)

CSV_COLUMNS = ("experiment", "system", "point", "n_min", "n_max", "epsilon",
               "omega", "s", "potential", "value", "residual", "expected",
               "rel_error", "provenance", "warning")

KINDS = ("restricted-entropy", "yz-function", "translocal", "lyapunov",
         "brin-katok", "local-pressure", "translocal-pressure", "pressure",
         "kraft", "audit")


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def parse_point(sys_obj, text: str) -> spaces.Point:
    text = text.strip()
    if ":" in text:
        tag, rest = text.split(":", 1)
        if tag == "circle":
            return spaces.circle(float(rest))
        if tag == "interval":
            return spaces.interval(float(rest))
        if tag == "torus":
            return spaces.torus(*(float(v) for v in rest.split("/")))
        if tag == "word":
            return spaces.word(rest)
        raise ConfigError(f"unknown point tag {tag!r}")
    if sys_obj.space == spaces.TORUS:
        return spaces.torus(*(float(v) for v in text.split("/")))
    if sys_obj.space == spaces.INTERVAL:
        return spaces.interval(float(text))
    if sys_obj.space == spaces.SYMBOLIC:
        return spaces.word(text)
    return spaces.circle(float(text))


def parse_schedule(cfg) -> Schedule:
    if "schedule" not in cfg:
        return DEFAULT_SCHEDULE
    sec = cfg["schedule"]
    base = DEFAULT_SCHEDULE
    n_min = sec.getint("n_min", base.n_values[0])
    n_max = sec.getint("n_max", base.n_values[-1])
    eps = tuple(float(v) for v in
                sec.get("epsilons", "0.05,0.02,0.01").split(","))
    return Schedule(tuple(range(n_min, n_max + 1)), eps)


def load_config(path: str):
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if "experiment" not in cfg:
        raise ConfigError("missing [experiment] section")
    exp = cfg["experiment"]
    kind = exp.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    return cfg


# ---------------------------------------------------------------------------
# Expected-value registry (closed forms computed independently)
# ---------------------------------------------------------------------------

def default_s_grid(sys_obj, pot) -> tuple:
    """The s-grid of a `pressure` run that sets none: -0.5..2.0 in steps of
    0.5, and one point 0.5 past a bound on the pressure where that bound
    reaches 2.0, so that the root is bracketed.  The bound is h_top + c
    under `zero` or `constant:c`, and h_top - t * max_log_slope under
    `geometric:t` with t < 0, where the potential is at most
    -t * max_log_slope."""
    grid = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
    if sys_obj.h_top is None:
        return grid
    if pot.kind in ("zero", "constant"):
        top = sys_obj.h_top + pot.c
    elif (pot.kind == "geometric" and pot.t < 0.0
          and sys_obj.max_log_slope is not None):
        top = sys_obj.h_top - pot.t * sys_obj.max_log_slope
    else:
        return grid
    return grid + (top + 0.5,) if top >= grid[-1] else grid


def expected_translocal(sys_obj, point, omega):
    name = sys_obj.name
    if sys_obj.uniform_slope is not None:
        # |(f^n)'| = s^n everywhere on a one-slope map (iterates included)
        return (max(0.0, math.log(sys_obj.uniform_slope) - omega),
                "closed form (log s - omega)+ of a one-slope map", 0.10)
    if name == "pomeau-manneville" and abs(point.coords[0]) < 1e-12:
        return 0.0, "closed form 0 at the neutral fixed point", None
    if name == "sqrtmap" and abs(point.coords[0]) < 1e-12:
        return math.log(2.0), "closed form log 2 at the origin", 0.10
    if sys_obj.matrix is not None:
        return (entropy.toral_translocal(sys_obj.spectrum, omega),
                "spectral closed form sum(log|eig| - omega)+", 0.15)
    return None


def expected_for(kind, sys_obj, point, omega, pot, extra):
    if kind == "translocal":
        return expected_translocal(sys_obj, point, omega)
    if kind == "restricted-entropy" and sys_obj.h_top is not None \
            and extra.get("whole", False):
        return sys_obj.h_top, "catalogue topological entropy", 0.10
    if kind == "brin-katok":
        mu = extra.get("measure")
        if mu == "lebesgue-circle" and sys_obj.uniform_slope is not None:
            return (math.log(sys_obj.uniform_slope),
                    "exact Bowen-interval length decay", 0.05)
        if sys_obj.alphabet == 2 and mu == "bernoulli:0.5,0.5":
            return math.log(2.0), "fair-coin cylinder mass decay", 0.05
    slopes = maps.full_branch_slopes(sys_obj)
    if kind == "translocal-pressure" and slopes is not None \
            and extra.get("measure") == "lebesgue-circle":
        # a metric ball's Lebesgue mass does not depend on the map
        if pot.kind in ("zero", "constant"):
            return omega + pot.c, "arc-length ball measure closed form", 0.10
    if kind == "yz-function" and sys_obj.name == "staircase":
        # the steepest branch reaching x; at an edge 2^-m, band m + 1's
        x = point.coords[0]
        return (math.log(max(abs(br.slope) for br in sys_obj.branches
                             if br.lo - 1e-12 <= x <= br.hi + 1e-12)),
                "per-band slope count closed form", 0.10)
    if kind == "pressure" and slopes is not None:
        if pot.kind == "zero":
            return (math.log(len(slopes)), "full-branch lap count log k",
                    0.10)
        if pot.kind == "geometric":
            return (math.log(math.fsum(s ** -pot.t for s in slopes)),
                    "Bowen's formula log sum_i s_i^-t", 0.10)
    return None


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def _rel_error(value: float, expected: float) -> float:
    """|value - expected| relative to |expected|, or to 0.05 near 0."""
    return abs(value - expected) / max(abs(expected), 0.05)


def _row(**kw):
    row = {c: "" for c in CSV_COLUMNS}
    row.update(kw)
    return row


def run_experiment(cfg):
    exp = cfg["experiment"]
    kind = exp["kind"]
    sched = parse_schedule(cfg)
    rows = []
    failures = 0

    if kind == "kraft":
        lengths = [int(v) for v in exp.get("lengths", "").split(",")
                   if v.strip()] or None
        fam_id = exp.get("family", "")
        source = symbolic.get_family(fam_id) if fam_id else lengths
        if source is None:
            raise ConfigError("kraft experiment needs lengths or family")
        sol = symbolic.kraft_entropy(source)
        expected, prov, tol = None, "", None
        if lengths == [1, 2]:
            expected = math.log((1.0 + math.sqrt(5.0)) / 2.0)
            prov = "quadratic root of x + x^2 = 1"
            tol = 1e-9
        elif lengths and not fam_id and len(set(lengths)) == 1:
            expected = math.log(len(lengths)) / lengths[0]
            prov = "n equal lengths L: log(n) / L"
            tol = 1e-9
        rel = "" if expected is None else _rel_error(sol.h, expected)
        if tol is not None and rel != "" and rel > tol:
            failures += 1
        rows.append(_row(experiment=kind, system=fam_id or str(lengths),
                         value=sol.h, residual=sol.residual,
                         expected="" if expected is None else expected,
                         rel_error=rel, provenance=prov))
        return rows, failures

    sys_obj = maps.get_system(exp["system"])
    points = [parse_point(sys_obj, p)
              for p in exp.get("points", exp.get("point", "")).split(";")
              if p.strip()]
    for p in points:
        if p.space != sys_obj.space:
            raise SpaceMismatchError(
                f"point in {p.space!r}, system {sys_obj.name!r} on "
                f"{sys_obj.space!r}")
    omegas = [float(v) for v in exp.get("omega", "").split(",") if v.strip()]
    pot = maps.get_potential(exp.get("potential", "zero"))
    pot_id = exp.get("potential", "zero")
    measure_id = exp.get("measure", "")
    mu = measures.get_measure(measure_id) if measure_id else None
    extra = {"measure": measure_id,
             "whole": exp.getboolean("whole_space", fallback=False)}
    n_min, n_max = sched.n_values[0], sched.n_values[-1]
    eps_final = sched.epsilons[-1]

    def emit(point_label, omega, s, value, residual, exp_triplet,
             warning=None):
        nonlocal failures
        expected, prov, tol = ("", "", None)
        rel = ""
        if exp_triplet is not None:
            expected, prov, tol = exp_triplet
            rel = _rel_error(value, expected)
            if tol is not None and rel > tol:
                failures += 1
        rows.append(_row(experiment=kind, system=sys_obj.name,
                         point=point_label, n_min=n_min, n_max=n_max,
                         epsilon=eps_final, omega="" if omega is None else omega,
                         s="" if s is None else s, potential=pot_id,
                         value=value, residual=residual, expected=expected,
                         rel_error=rel, provenance=prov,
                         warning=warning or ""))

    def label(p):
        if p.word:
            return "".join(str(s) for s in p.word[:16])
        return "/".join(f"{c:.6g}" for c in p.coords)

    if kind == "translocal":
        for p in points:
            for w in omegas or [0.5]:
                up, _ = entropy.translocal_entropy(sys_obj, p, w, sched)
                emit(label(p), w, None, up.value, up.residual,
                     expected_for(kind, sys_obj, p, w, pot, extra),
                     up.warning)
    elif kind == "restricted-entropy":
        radius = exp.getfloat("radius", fallback=0.5)
        for p in points:
            est = entropy.restricted_entropy(
                sys_obj, spaces.Ball(p, radius), sched)
            emit(label(p), None, None, est.value, est.residual,
                 expected_for(kind, sys_obj, p, None, pot, extra),
                 est.warning)
    elif kind == "yz-function":
        for p in points:
            est = entropy.yz_entropy_function(sys_obj, p, sched=sched)
            emit(label(p), None, None, est.value, est.residual,
                 expected_for(kind, sys_obj, p, None, pot, extra),
                 est.warning)
    elif kind == "lyapunov":
        horizon = exp.getint("steps", fallback=200)
        for p in points:
            up, lo = entropy.lyapunov_exponent(sys_obj, p, horizon)
            emit(label(p), None, None, up, abs(up - lo), None)
    elif kind in ("brin-katok", "local-pressure"):
        if mu is None:
            raise ConfigError(f"{kind} needs a measure id")
        for p in points:
            if kind == "brin-katok":
                up, _ = measures.brin_katok(sys_obj, mu, p, sched)
            else:
                up, _ = measures.local_pressure(sys_obj, mu, pot, p, sched)
            emit(label(p), None, None, up.value, up.residual,
                 expected_for(kind, sys_obj, p, None, pot, extra),
                 up.warning)
    elif kind == "translocal-pressure":
        if mu is None:
            raise ConfigError("translocal-pressure needs a measure id")
        for p in points:
            for w in omegas or [0.7]:
                up, _ = measures.translocal_local_pressure(
                    sys_obj, mu, pot, p, w, sched)
                emit(label(p), w, None, up.value, up.residual,
                     expected_for(kind, sys_obj, p, w, pot, extra),
                     up.warning)
    elif kind == "pressure":
        region = pressure.whole_circle()
        r = exp.getfloat("radius", fallback=0.05)
        grid = (tuple(float(v) for v in exp["s_grid"].split(","))
                if "s_grid" in exp else default_s_grid(sys_obj, pot))
        crit = pressure.critical_exponent(sys_obj, region, pot, r=r,
                                          s_grid=grid)
        emit("whole-space", None, crit.value, crit.value,
             crit.bracket[1] - crit.bracket[0],
             expected_for(kind, sys_obj, None, None, pot, extra))
    elif kind == "audit":
        if mu is None:
            raise ConfigError("audit needs a measure id")
        w = omegas[0] if omegas else None
        rep = pressure.ma_wen_audit(sys_obj, mu, pot, pressure.whole_circle(),
                                    omega=w, sched=sched)
        if not rep.passed:
            failures += 1
        rows.append(_row(experiment=kind, system=sys_obj.name,
                         point="whole-space", omega="" if w is None else w,
                         potential=pot_id, value=rep.pressure,
                         residual=rep.bracket[1] - rep.bracket[0],
                         expected=f"[{rep.min_lower:.4f},{rep.max_upper:.4f}]",
                         rel_error="" if rep.passed else "fail",
                         provenance="two-sided sampled local pressure bound"))
    else:
        raise ConfigError(f"unhandled experiment kind {kind!r}")
    return rows, failures


def write_reports(rows, failures, csv_path, json_path):
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    summary = {
        "rows": len(rows),
        "failures": failures,
        "passed": failures == 0,
        "max_rel_error": max(
            (r["rel_error"] for r in rows
             if isinstance(r["rel_error"], float)), default=None),
    }
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        rows, failures = run_experiment(cfg)
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    exp = cfg["experiment"]
    summary = write_reports(rows, failures,
                            args.csv or exp.get("out_csv", ""),
                            args.json or exp.get("out_json", ""))
    for row in rows:
        val = row["value"]
        print(f"{row['experiment']} {row['system']} point={row['point']} "
              f"omega={row['omega']} value={val} expected={row['expected']}")
    print(json.dumps(summary, sort_keys=True))
    return 0 if failures == 0 else 1


def cmd_list(_args) -> int:
    print("systems:")
    for sid in maps.catalogue_ids():
        print(f"  {sid}")
    print("measures:")
    for mid in measures.measure_ids():
        print(f"  {mid}")
    print("potentials:")
    for pid in ("zero", "constant:<c>", "geometric:<t>"):
        print(f"  {pid}")
    print("coded-shift families:")
    for fid in ("codedshift:linear:<a,b>", "codedshift:geometric:<c>",
                "codedshift:factorial", "codedshift:words:<w,...>"):
        print(f"  {fid}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="translocal",
        description="entropy and pressure estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    # `audit` is another name for `run`
    for command, text in (("run", "run an experiment config"),
                          ("audit", "run an audit config")):
        p_run = sub.add_parser(command, help=text)
        p_run.add_argument("config")
        p_run.add_argument("--csv", default="")
        p_run.add_argument("--json", default="")
        p_run.set_defaults(fn=cmd_run)
    sub.add_parser("list", help="list catalogue ids").set_defaults(fn=cmd_list)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
