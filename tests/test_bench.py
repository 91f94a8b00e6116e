"""The benchmark's span tracer wraps program functions by name. A rename
in the program must fail here instead of leaving the benchmark to report
zero calls for the function it can no longer find."""

import importlib.util
from pathlib import Path

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
