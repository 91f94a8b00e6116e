"""The benchmark's span tracer wraps program functions by name. A rename
in the program must fail here instead of leaving the benchmark to report
zero calls for the function it can no longer find."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ltreflect

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    assert Path(ltreflect.__file__).resolve().is_relative_to(ROOT / "src")
    tracer = load_tracer()
    traced = tracer.Tracer()
    with traced.installed():
        pass
    assert traced.missing == []
    assert traced.names == list(tracer.TARGETS)


def test_bench_selftest_passes():
    """The harness reads program internals (`kr_batch_loss`'s arguments,
    `project_if_conflict`'s result tuple, run artifacts); its self-test runs
    every workload at a tiny size and fails when any of that breaks."""
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_record_compares_like_with_like(path):
    """A BENCH_<n>.json holds parent and change runs of every workload that
    made the same artifacts and traced every target."""
    record = json.loads(path.read_text())
    for workload in WORKLOADS:
        parent, change = record["parent"][workload], record["change"][workload]
        assert parent["workload"] == change["workload"] == workload
        assert parent["digest"] == change["digest"], workload
        assert parent["missing_targets"] == change["missing_targets"] == [], workload
