"""Committed benchmark records: every root `BENCH_*.json` parses, names a
claim on a metric and workload that `BENCHMARK.json` declares, and gives
the parent and change medians of every end-to-end metric on that
workload."""
import json
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_backs_its_claim(path):
    record = json.loads(path.read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = record["claim"]
    metrics = [m["name"] for m in bench["end_to_end"]]
    assert claim["metric"] in metrics
    assert claim["workload"] in [w["name"] for w in bench["workloads"]]
    runs = record["end_to_end"][claim["workload"]]
    assert runs
    for label, run in runs.items():
        for name in metrics:
            for side in ("parent", "change"):
                median = run[name][side]["median"]
                assert isinstance(median, (int, float)) \
                    and math.isfinite(median), (label, name, side)
