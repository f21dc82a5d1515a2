"""What the benchmark under `perfbench/` needs of the library: every function
its tracer wraps by name exists, and every workload's arguments resolve.

A wrapped name that the library no longer defines does not fail a traced
run; the tracer marks it absent and the run's result silently lacks that
name's per-layer metrics.  These checks fail instead."""
import importlib
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import passrun  # noqa: E402  (benchmark modules, found on the path above)
import tracer  # noqa: E402

WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("qname", tracer.wrapped_names())
def test_every_wrapped_name_is_a_library_callable(qname):
    mod_name, fn_name = qname.split(".")
    module = importlib.import_module(f"translocal.{mod_name}")
    assert callable(getattr(module, fn_name, None)), qname


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_task_resolves(workload):
    prepared, _ = passrun.prepare(workload, 1)
    assert prepared
    errors = [(task["id"], error) for task, _, _, error in prepared
              if error is not None]
    assert errors == []
