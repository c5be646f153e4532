"""The benchmark's tracer wraps package functions by name; a rename must
fail here, not first in a traced benchmark run."""

import importlib.util
from pathlib import Path


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracer()._ncergo_targets()
    assert targets
    missing = [(name, getattr(owner, "__name__", owner), attr)
               for name, owner, attr in targets if not hasattr(owner, attr)]
    assert not missing
