"""Start-up runs on numpy alone: scipy.linalg is imported on the first
Schur basis of a unitary conjugation, its one use.  Each check runs in a
fresh interpreter, because this test process has loaded scipy already
(``conftest.py`` imports it)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncergo
from ncergo import Element, TracedAlgebra, UnitaryConjugation

PATH = os.pathsep.join([str(Path(ncergo.__file__).resolve().parents[1]),
                        str(Path(__file__).resolve().parent)])


def run_fresh(code: str) -> str:
    """Standard output of ``python -c code`` with the package and the
    tests on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PATH, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("module", ["ncergo", "ncergo.cli"])
def test_import_loads_no_scipy(module):
    out = run_fresh(f"import sys, {module}\n"
                    "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert out.strip() == "[]"


def test_commands_without_a_conjugation_load_no_scipy_linalg(tmp_path):
    algebra = {"blocks": [{"dim": 2, "weight": 1.0}]}
    p = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    q = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    (tmp_path / "x.json").write_text(json.dumps(
        {"algebra": algebra, "blocks": [[[3.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}))
    (tmp_path / "map.json").write_text(json.dumps(
        {"algebra": algebra, "operator": {"kind": "pinching", "projections": [[p], [q]]}}))
    trace = tmp_path / "trace"
    commands = [
        ["remark32", "--n", "12", "--out-dir", str(trace)],
        ["certify", "--trace-dir", str(trace), "--epsilon", "0.03125", "--mode", "au",
         "--limit", str(trace / "limit.json"), "--out-dir", str(tmp_path / "cert")],
        ["mu", "--input", str(tmp_path / "x.json"), "--out-dir", str(tmp_path / "mu")],
        ["ds-check", str(tmp_path / "map.json")],
    ]
    out = run_fresh(
        "import contextlib, io, json, sys\n"
        "from ncergo.cli import main\n"
        "runs = []\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    runs.append([argv[0], code, 'scipy.linalg' in sys.modules])\n"
        "print(json.dumps(runs))")
    assert json.loads(out) == [[argv[0], 0, False] for argv in commands]


def conjugation_case():
    """A unitary with 1x1, 2x2 and two 3x3 blocks and an element, from a
    fixed numpy generator, so a fresh interpreter rebuilds the same bits."""
    rng = np.random.default_rng(33)
    algebra = TracedAlgebra(((2, 1.0), (3, 0.5), (1, 2.0), (3, 2.0)))

    def block(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u = Element(algebra, [np.linalg.qr(block(d))[0] for d in algebra.dims])
    x = Element(algebra, [block(d) for d in algebra.dims])
    return UnitaryConjugation(u), x


def test_cesaro_average_loads_scipy_linalg_and_keeps_its_bits():
    conjugation, x = conjugation_case()
    expected = conjugation.cesaro_average(x, 7).vec().tobytes().hex()
    out = run_fresh(
        "import sys\n"
        "from test_startup import conjugation_case\n"
        "conjugation, x = conjugation_case()\n"
        "print('scipy.linalg' in sys.modules)\n"
        "print(conjugation.cesaro_average(x, 7).vec().tobytes().hex())\n"
        "print('scipy.linalg' in sys.modules)")
    assert out.split() == ["False", expected, "True"]
