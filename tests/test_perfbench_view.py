"""The library surface the benchmark's traced pass reads, and one tiny traced run.

`perfbench/traced.py` wraps faasim calls by name and reads sizes and rows
from what they return; a rename or a changed return type would only show
when the benchmark runs. Its files are imported and run here, not modified.
"""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from faasim import jsontext
from faasim import simcore as sim
from faasim import workloads as wl
from trace_reference import poisson_trace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def traced():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        patch.setattr(sys, "dont_write_bytecode", True)  # leave no cache files beside the benchmark
        yield importlib.import_module("traced")


def test_every_layer_call_resolves(traced):
    for module, owner, attribute, _ in traced.LAYER_CALLS:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        assert callable(getattr(target, attribute, None)), (module, owner, attribute)


def test_counted_results_have_a_length(traced, default_catalog, tmp_path):
    spec = default_catalog.compute_service("serverless")
    trace = wl.InvocationTrace([0.0, 1.0, 2.0], [1.0, 1000.0, 0.5], [0.125, 0.125, 0.25])
    result = sim.simulate(trace, sim.PlatformConfig(spec))
    assert (len(result.invocations), len(result.rejected)) == (2, 1)
    path = tmp_path / "trace.json"
    path.write_text(jsontext.dumps(trace.to_json_list()), encoding="utf-8")
    counts = traced._sim_counts(result, path)
    assert (counts["simcore.invocations"], counts["simcore.rejected"], counts["workloads.billing_keys"]) == (2, 1, 3)
    assert len(wl.parallelism_profile(wl.gen_cholesky_dag(3)).levels) == 7  # 3T - 2 levels


def test_trace_entries_carry_duration_and_memory(traced, default_catalog, tmp_path):
    trace = poisson_trace(4, 1.0, 0.25, memory_gb=0.5, seed=3)
    assert [(e.duration_s, e.memory_gb) for e in trace.entries] == [(0.25, 0.5)] * 4
    path = tmp_path / "trace.json"
    path.write_text(jsontext.dumps(trace.to_json_list()), encoding="utf-8")
    tracer = traced.Tracer("view")
    traced._billing_probe(tracer, sim, wl, path, default_catalog.compute_service("serverless"))
    assert [span["name"] for span in tracer.spans] == ["simcore.billing"]


def test_tiny_traced_run_reports_a_number_for_every_metric():
    """A span is timed only where faasim calls a `traced.LAYER_CALLS` function through its module attribute; a
    call that bypasses it (`place_greedy` scoring without `placement.evaluate`) leaves that metric null."""
    # -B: no cache files beside the benchmark, as in the fixture above
    proc = subprocess.run([sys.executable, "-B", "perfbench/run.py", "--workload", "sim-uniform", "--seed", "1",
                           "--seconds", "1", "--trace", "1", "--tiny"], cwd=PERFBENCH.parent, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout[-2000:]
    assert [name for name, metric in result["metrics"].items()
            if type(metric["value"]) not in (int, float) or not math.isfinite(metric["value"])] == []
