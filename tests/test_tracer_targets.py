"""The benchmark's tracer wraps package functions by name; a rename must
fail here, not first in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import scipy.linalg

from ncergo import Element, TracedAlgebra, UnitaryConjugation


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


def test_tracer_counts_the_schur_calls_of_a_conjugation():
    """``_schur_basis`` imports scipy.linalg when it runs and calls
    ``scipy.linalg.schur`` through the module, so the tracer, installed
    after ``import ncergo``, counts one call per block larger than 1x1."""
    algebra = TracedAlgebra(((2, 1.0), (1, 0.5), (3, 2.0), (3, 1.0)))
    rng = np.random.default_rng(33)
    u = Element(algebra, [np.linalg.qr(rng.standard_normal((d, d)))[0]
                          for d in algebra.dims])
    schur = scipy.linalg.schur
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        tracer.active = True
        UnitaryConjugation(u).cesaro_average(algebra.identity(), 3)
    finally:
        tracer.uninstall()
    assert tracer.calls["lapack.schur"] == 3
    assert scipy.linalg.schur is schur
