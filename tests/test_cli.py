import collections
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import ncergo
from ncergo import BlockExpectation, ConvexCombination, Element, \
    TracedAlgebra, UnitaryConjugation, serialize
from ncergo.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_REFUTED, main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def diag_element_spec(values):
    a = TracedAlgebra(((len(values), 1.0),))
    x = Element(a, [np.diag(values).astype(complex)], selfadjoint=True)
    return serialize.element_to_dict(x)


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


# -- mu -----------------------------------------------------------------------

def test_mu_command(tmp_path):
    inp = write_json(tmp_path / "x.json", diag_element_spec([3.0, 1.0]))
    out = tmp_path / "out"
    assert main(["mu", "--input", inp, "--out-dir", str(out)]) == EXIT_OK
    rows = [l for l in (out / "mu.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "t,value"
    assert rows[1:] == ["0.0,3.0", "1.0,1.0", "2.0,0.0"]
    norms = json.loads((out / "norms.json").read_text())
    assert norms["sup_norm"] == pytest.approx(3.0)
    assert norms["l1_norm"] == pytest.approx(4.0)
    assert norms["k_functional_at_1"] == pytest.approx(3.0)


def test_mu_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["mu", "--input", str(bad), "--out-dir", str(out)]) \
        == EXIT_INPUT


def test_mu_missing_file(tmp_path):
    assert main(["mu", "--input", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_INPUT


# an integer literal that JSON parses exactly and no float can hold
HUGE = 10 ** 400


@pytest.mark.parametrize("field", ["entry", "weight"])
def test_mu_overflowing_number_is_input_error(tmp_path, capsys, field):
    spec = {"algebra": {"blocks": [{"dim": 2, "weight": 1.0}]},
            "blocks": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}
    if field == "entry":
        spec["blocks"][0][0] = [HUGE, 0]
    else:
        spec["algebra"]["blocks"][0]["weight"] = HUGE
    inp = write_json(tmp_path / "x.json", spec)
    assert main(["mu", "--input", inp, "--out-dir", str(tmp_path / "out")]) \
        == EXIT_INPUT
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("place", ["unitary", "combination weight",
                                   "algebra weight"])
def test_ds_check_unreadable_number_is_input_error(tmp_path, capsys, place):
    unitary = {"kind": "unitary_conjugation", "unitary": [[[1.0, 0.0]]]}
    algebra = {"blocks": [{"dim": 1, "weight": 1.0}]}
    operator = unitary
    if place == "unitary":
        unitary["unitary"][0][0] = [0, HUGE]
    elif place == "combination weight":
        operator = {"kind": "convex_combination",
                    "terms": [{"weight": HUGE, "op": unitary}]}
    else:
        algebra["blocks"][0]["weight"] = "heavy"
    cfg = write_json(tmp_path / "map.json",
                     {"algebra": algebra, "operator": operator})
    assert main(["ds-check", cfg]) == EXIT_INPUT
    assert "input error:" in capsys.readouterr().err


# -- ds-check -----------------------------------------------------------------

def test_ds_check_pinching(tmp_path, capsys):
    algebra = {"blocks": [{"dim": 2, "weight": 1.0}]}
    p = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    q = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    cfg = write_json(tmp_path / "map.json", {
        "algebra": algebra,
        "operator": {"kind": "pinching", "projections": [[p], [q]]}})
    assert main(["ds-check", cfg]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["one_norm_bound"] == pytest.approx(1.0)
    assert payload["sup_norm_bound"] == pytest.approx(1.0)
    assert payload["method"] == "exact-positive"


def test_ds_check_doubled_identity(tmp_path, capsys):
    algebra = {"blocks": [{"dim": 1, "weight": 1.0}]}
    cfg = write_json(tmp_path / "map.json", {
        "algebra": algebra,
        "operator": {"kind": "explicit_matrix",
                     "matrix": [[2.0, 0.0]], "dim": 1}})
    assert main(["ds-check", cfg]) == EXIT_REFUTED
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_ds"] is False


def test_ds_check_transpose_sampled(tmp_path, capsys):
    algebra = {"blocks": [{"dim": 2, "weight": 1.0}]}
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    matrix = [[float(v), 0.0] for v in swap.reshape(-1)]
    cfg = write_json(tmp_path / "map.json", {
        "algebra": algebra,
        "operator": {"kind": "explicit_matrix", "matrix": matrix, "dim": 4}})
    assert main(["ds-check", cfg, "--trials", "200"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "sampled"
    assert payload["positivity"] is True


def test_ds_check_explicit_map_with_coupling_below_tolerance(tmp_path, capsys):
    """The identity on 1x1 blocks of weights 1 and 1000 with an entry
    0.9e-12 between them, which the constructor accepts, is certified: it
    is completely positive, decided on its Choi matrix."""
    cfg = write_json(tmp_path / "map.json", {
        "algebra": {"blocks": [{"dim": 1, "weight": 1.0},
                               {"dim": 1, "weight": 1000.0}]},
        "operator": {"kind": "explicit_matrix", "dim": 2, "matrix": [
            [1.0, 0.0], [0.0, 0.0], [0.9e-12, 0.0], [1.0, 0.0]]}})
    assert main(["ds-check", cfg]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_ds"] is True
    assert payload["method"] == "exact-cp"


def test_main_calls_share_no_argument_state(tmp_path, capsys):
    """One parser serves every in-process call; no option, seed or default
    of one call reaches the next."""
    algebra = {"blocks": [{"dim": 2, "weight": 1.0}]}
    p = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    q = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    cfg = write_json(tmp_path / "map.json", {
        "algebra": algebra,
        "operator": {"kind": "pinching", "projections": [[p], [q]]}})
    first = tmp_path / "first.json"
    assert main(["--seed", "7", "ds-check", cfg, "--trials", "5",
                 "--out", str(first)]) == EXIT_OK
    written = first.read_bytes()
    assert json.loads(written)["manifest"]["seed"] == 7
    capsys.readouterr()
    inp = write_json(tmp_path / "x.json", diag_element_spec([3.0, 1.0]))
    assert main(["mu", "--input", inp, "--out-dir", str(tmp_path / "mu")]) == EXIT_OK
    norms = json.loads((tmp_path / "mu" / "norms.json").read_text())
    assert norms["manifest"]["seed"] == 0
    assert main(["ds-check", cfg]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["manifest"]["seed"] == 0
    assert first.read_bytes() == written


def test_main_looks_up_the_handler_per_call(tmp_path, monkeypatch):
    """``main`` runs the handler bound in ``ncergo.cli`` at call time, also
    one rebound after the cached parser was built."""
    from ncergo import cli
    cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_mu",
                        lambda args: seen.append(args.input) or EXIT_REFUTED)
    assert main(["mu", "--input", "x.json",
                 "--out-dir", str(tmp_path)]) == EXIT_REFUTED
    assert seen == ["x.json"]


# -- average ------------------------------------------------------------------

def test_average_bundled_conjugation(tmp_path):
    out = tmp_path / "run1"
    assert main(["average", "--bundled", "conjugation-d2-sector",
                 "--out-dir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_err_inf"] <= 1e-3
    assert summary["limit_submajorized_by_input"] is True
    # rerun with the same seed: byte-identical outputs
    out2 = tmp_path / "run2"
    assert main(["average", "--bundled", "conjugation-d2-sector",
                 "--out-dir", str(out2)]) == EXIT_OK
    assert read_tree(out) == read_tree(out2)


def test_average_seed_before_or_after_the_subcommand(tmp_path):
    """A global --seed reaches ``average`` as the subcommand's own does; the
    subcommand's wins when both are given, and the config's seed applies
    when neither is."""
    runs = {"global": ["--seed", "5", "average"],
            "local": ["average", "--seed", "5"],
            "both": ["--seed", "9", "average", "--seed", "5"],
            "none": ["average"]}
    for name, head in runs.items():
        assert main(head + ["--bundled", "conjugation-d2-sector",
                            "--out-dir", str(tmp_path / name)]) == EXIT_OK
    assert read_tree(tmp_path / "global") == read_tree(tmp_path / "local")
    assert read_tree(tmp_path / "both") == read_tree(tmp_path / "local")
    seeds = {name: json.loads((tmp_path / name / "manifest.json").read_text())["seed"]
             for name in runs}
    assert seeds == {"global": 5, "local": 5, "both": 5, "none": 2026}


def test_average_bundled_besicovitch(tmp_path):
    out = tmp_path / "run"
    assert main(["average", "--bundled", "besicovitch-theta",
                 "--out-dir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["worst_gap"] <= summary["quad_tol"]


def test_average_non_commuting_family(tmp_path):
    algebra = {"blocks": [{"dim": 2, "weight": 1.0}]}
    u1 = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]
    h = 1.0 / np.sqrt(2.0)
    u2 = [[h, 0.0], [h, 0.0], [h, 0.0], [-h, 0.0]]
    cfg = write_json(tmp_path / "cfg.json", {
        "algebra": algebra,
        "element": {"random": {"scale": 1.0, "selfadjoint": True}},
        "operators": [{"kind": "unitary_conjugation", "unitary": [u1]},
                      {"kind": "unitary_conjugation", "unitary": [u2]}],
        "net": {"indices": [[1, 1], [2, 2]]},
        "seed": 7})
    assert main(["average", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == EXIT_INPUT


def test_average_config_without_closed_form(tmp_path):
    """A convex combination of a diagonal conjugation and a block
    expectation, which has no closed form, beside a block expectation: the
    run certifies, and trace.csv is the in-process trace's CSV."""
    algebra = TracedAlgebra(((3, 1.0), (1, 0.5)))
    u = Element(algebra, [np.diag(np.exp(1j * np.array([0.0, 2.0, -1.0]))),
                          np.eye(1)])
    expectation = BlockExpectation(algebra, [[[0, 1], [2]], [[0]]])
    family = [ConvexCombination([(0.5, UnitaryConjugation(u)), (0.5, expectation)]),
              expectation]
    x = algebra.random_element(np.random.default_rng(5))
    cfg = {"algebra": serialize.algebra_to_dict(algebra),
           "element": {"explicit": serialize.element_to_dict(x)["blocks"]},
           "operators": [serialize.superop_to_dict(op) for op in family],
           "net": {"indices": [[4 ** k, 2 ** k] for k in range(8)]},
           "seed": 3}
    out = tmp_path / "out"
    assert main(["average", "--config", write_json(tmp_path / "cfg.json", cfg),
                 "--out-dir", str(out)]) == EXIT_OK
    ops = [serialize.superop_from_dict(o, algebra) for o in cfg["operators"]]
    net = ncergo.SectorNet(2, tuple(tuple(n) for n in cfg["net"]["indices"]))
    x = serialize.element_from_dict({"blocks": cfg["element"]["explicit"]}, algebra)
    trace = ncergo.net_average_trace(ops, x, net, seed=3)
    assert trace.metadata["coordinates"] == ("dense-prefix", "closed-form")
    lines = (out / "trace.csv").read_text().splitlines(keepends=True)
    assert "".join(l for l in lines if not l.startswith("# ")) == trace.to_csv()


def test_average_unknown_fixture(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"fixture": "no-such-thing"})
    assert main(["average", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == EXIT_INPUT


# -- certify and remark32 -----------------------------------------------------

def test_remark32_then_certify(tmp_path):
    trace_dir = tmp_path / "trace"
    assert main(["remark32", "--n", "10", "--out-dir", str(trace_dir)]) \
        == EXIT_OK
    assert len(list(trace_dir.glob("element_*.json"))) == 10
    out = tmp_path / "cert"
    code = main(["certify", "--trace-dir", str(trace_dir),
                 "--epsilon", str(2.0 ** -5), "--mode", "au",
                 "--limit", str(trace_dir / "limit.json"),
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "certificate.json").read_text())
    assert payload["verdict"] == "certified"
    assert payload["trace_deficiency"] <= 2.0 ** -5 + 1e-12


def test_certify_reads_each_file_once(tmp_path, monkeypatch):
    """Every input file is read once, and the manifest hashes the element
    files' bytes in name order."""
    trace_dir = tmp_path / "trace"
    assert main(["remark32", "--n", "4", "--out-dir", str(trace_dir)]) == EXIT_OK
    files = sorted(trace_dir.glob("element_*.json"))
    expected = hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
    reads, read_bytes = collections.Counter(), Path.read_bytes

    def counting(path):
        reads[path.name] += 1
        return read_bytes(path)
    monkeypatch.setattr(Path, "read_bytes", counting)
    out = tmp_path / "cert"
    assert main(["certify", "--trace-dir", str(trace_dir), "--epsilon",
                 str(2.0 ** -5), "--mode", "au", "--limit",
                 str(trace_dir / "limit.json"), "--out-dir", str(out)]) == EXIT_OK
    assert reads == {name: 1 for name in [p.name for p in files] + ["limit.json"]}
    manifest = json.loads((out / "certificate.json").read_text())["manifest"]
    assert manifest["config_sha256_16"] == expected[:16]


def test_certify_reads_every_element_on_the_first_files_algebra(
        tmp_path, monkeypatch):
    """Every trace element shares the first file's algebra object; the
    certificate's bytes are those of a trace read file by file, each on its
    own algebra; a file naming another algebra still exits 2."""
    trace_dir = tmp_path / "trace"
    assert main(["remark32", "--n", "8", "--out-dir", str(trace_dir)]) == EXIT_OK
    argv = ["certify", "--trace-dir", str(trace_dir), "--epsilon",
            str(2.0 ** -5), "--cauchy", "--out-dir"]
    traces, cauchy = [], ncergo.cli.certify_cauchy

    def spy(trace, *args, **kwargs):
        traces.append(trace)
        return cauchy(trace, *args, **kwargs)
    monkeypatch.setattr(ncergo.cli, "certify_cauchy", spy)
    assert main(argv + [str(tmp_path / "shared")]) == EXIT_OK
    first = traces[0].elements[0].algebra
    assert all(x.algebra is first for x in traces[0].elements)
    read = serialize.element_from_dict
    with monkeypatch.context() as m:
        m.setattr(serialize, "element_from_dict", lambda d, algebra=None: read(d))
        assert main(argv + [str(tmp_path / "own")]) == EXIT_OK
    assert len({id(x.algebra) for x in traces[1].elements}) == 8
    assert read_tree(tmp_path / "shared") == read_tree(tmp_path / "own")
    spec = json.loads((trace_dir / "element_005.json").read_text())
    spec["algebra"]["blocks"][0]["weight"] = 1.0
    write_json(trace_dir / "element_005.json", spec)
    assert main(argv + [str(tmp_path / "mismatch")]) == EXIT_INPUT


def test_certify_alternating_refuted(tmp_path):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    for n in range(6):
        spec = diag_element_spec([(-1.0) ** n, (-1.0) ** n])
        write_json(trace_dir / f"element_{n:03d}.json", spec)
    code = main(["certify", "--trace-dir", str(trace_dir),
                 "--epsilon", "0.5", "--mode", "bau",
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_REFUTED


def test_certify_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["certify", "--trace-dir", str(empty), "--epsilon", "0.1",
                 "--out-dir", str(tmp_path / "out")]) == EXIT_INPUT


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certify_overflowing_difference_is_input_error(tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    for n, v in enumerate((1e308, -1e308)):
        write_json(trace_dir / f"element_{n:03d}.json",
                   diag_element_spec([v, v]))
    code = main(["certify", "--trace-dir", str(trace_dir),
                 "--epsilon", "0.5", "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_INPUT
    assert "non-finite matrix entries" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["inf", "1e400", "nan"])
def test_certify_refuses_a_non_finite_epsilon(tmp_path, capsys, epsilon):
    trace_dir, out = tmp_path / "trace", tmp_path / "out"
    assert main(["remark32", "--n", "4", "--out-dir", str(trace_dir)]) == EXIT_OK
    assert main(["certify", "--trace-dir", str(trace_dir), "--epsilon", epsilon,
                 "--cauchy", "--out-dir", str(out)]) == EXIT_INPUT
    assert "input error: epsilon must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [1e200, 1e-200])
def test_mu_norms_of_extreme_magnitudes(tmp_path, value):
    """The norms of [[1e200]] and [[1e-200]] are the entry itself: the
    p-norm neither overflows nor underflows short of the float range."""
    spec = {"algebra": {"blocks": [{"dim": 1, "weight": 1.0}]},
            "blocks": [[[value, 0.0]]]}
    inp, out = write_json(tmp_path / "x.json", spec), tmp_path / "out"
    assert main(["mu", "--input", inp, "--out-dir", str(out)]) == EXIT_OK
    norms = json.loads((out / "norms.json").read_text())
    assert norms["l2_norm"] == norms["l1_norm"] == norms["sup_norm"] == value


def test_non_finite_report_is_a_numeric_failure(tmp_path):
    """``mu`` on [[1e308]] at weight 4, whose l1 norm 4e308 is past the
    float range: JSON has no inf, so the run exits 3 and writes no
    norms.json."""
    src = str(Path(ncergo.__file__).resolve().parents[1])
    spec = {"algebra": {"blocks": [{"dim": 1, "weight": 4.0}]},
            "blocks": [[[1e308, 0.0]]]}
    inp, out = write_json(tmp_path / "x.json", spec), tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "ncergo.cli", "mu", "--input", inp,
                          "--out-dir", str(out)], env=env, capture_output=True,
                         timeout=120)
    assert run.returncode == EXIT_NUMERIC, run.stderr
    assert b"numeric failure: report is not JSON" in run.stderr
    assert not (out / "norms.json").exists()


def test_certify_cauchy_flag(tmp_path):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    for n in range(1, 15):
        v = 1.0 - 2.0 ** (-n)
        write_json(trace_dir / f"element_{n:03d}.json",
                   diag_element_spec([v, v]))
    out = tmp_path / "out"
    code = main(["certify", "--trace-dir", str(trace_dir),
                 "--epsilon", "0.5", "--cauchy", "--out-dir", str(out)])
    assert code == EXIT_OK
    lines = (out / "tails.csv").read_text().splitlines()
    assert any(l == "index,bound" for l in lines)


def test_certify_cauchy_independent_of_blas_threads(tmp_path):
    trace_dir = tmp_path / "trace"
    assert main(["remark32", "--n", "16", "--out-dir", str(trace_dir)]) \
        == EXIT_OK
    src = str(Path(ncergo.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "ncergo.cli", "certify",
             "--trace-dir", str(trace_dir), "--epsilon", str(2.0 ** -5),
             "--cauchy", "--out-dir", str(out)],
            env=env, capture_output=True, timeout=120)
        assert run.returncode == EXIT_OK, run.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("certificate.json", "tails.csv")])
    assert outputs[0] == outputs[1]


def test_average_conjugation_independent_of_blas_threads(tmp_path):
    src = str(Path(ncergo.__file__).resolve().parents[1])
    names = ("manifest.json", "trace.csv", "certificate_cauchy.json",
             "tails_cauchy.csv", "certificate_witness.json",
             "tails_witness.csv", "summary.json")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "ncergo.cli", "average", "--bundled",
             "conjugation-d2-sector", "--seed", "2026", "--out-dir", str(out)],
            env=env, capture_output=True, timeout=120)
        assert run.returncode == EXIT_OK, run.stderr
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


# -- malformed input ------------------------------------------------------------

def test_ds_check_conjugator_whose_adjoint_is_further_from_unitary(tmp_path, capsys):
    """u = sqrtm(1 + D) H passes the unitarity check (max |uu* - 1| =
    7.5e-9) and u* would not (max |u*u - 1| = 1.5e-8): the map is read, its
    bounds are ||uu*|| = ||u*u|| = 1 + 1.5e-8, and it is refuted."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    u = scipy.linalg.sqrtm(np.eye(2) + 0.75e-8 * np.ones((2, 2))) @ h
    cfg = write_json(tmp_path / "map.json", {
        "algebra": {"blocks": [{"dim": 2, "weight": 1.0}]},
        "operator": {"kind": "unitary_conjugation",
                     "unitary": [[[z.real, z.imag] for z in u.ravel()]]}})
    assert main(["ds-check", cfg]) == EXIT_REFUTED
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "exact-positive"
    assert payload["one_norm_bound"] == pytest.approx(1.0 + 1.5e-8, abs=1e-12)
    assert payload["is_ds"] is False


IN, OUT = "<input>", "<out>"
AVERAGE = ["average", "--config", IN, "--out-dir", OUT]
TWO_BLOCKS = {"blocks": [{"dim": 2, "weight": 1.0}, {"dim": 1, "weight": 0.5}]}
DROP = object()  # a key that average_config leaves out


def average_config(**changes):
    """A small explicit ``average`` config that certifies (exit 0): a convex
    combination and a block expectation on two blocks, over a diagonal net."""
    flip = {"kind": "unitary_conjugation",
            "unitary": [[[1, 0], [0, 0], [0, 0], [-1, 0]], [[1, 0]]]}
    cfg = {"algebra": TWO_BLOCKS,
           "element": {"random": {"scale": 1.0, "selfadjoint": True}},
           "operators": [
               {"kind": "convex_combination", "terms": [
                   {"weight": 0.5, "op": {"kind": "block_expectation",
                                          "partition": [[[0], [1]], [[0]]]}},
                   {"weight": 0.5, "op": flip}]},
               {"kind": "block_expectation", "partition": [[[0, 1]], [[0]]]}],
           "net": {"indices": [[1, 1], [16, 16], [256, 256], [4096, 4096]],
                   "sector_constant": 1.0},
           "epsilon": 0.25, "seed": 3}
    cfg.update(changes)
    return {k: v for k, v in cfg.items() if v is not DROP}


# argv (IN and OUT stand for the input and output paths), the input (a JSON
# value, raw bytes, or None for a directory) and the field the message names
MALFORMED = {
    "ds-check on {}": (["ds-check", IN], {}, "algebra"),
    "ds-check without operator": (["ds-check", IN], {"algebra": TWO_BLOCKS},
                                  "operator"),
    "empty net indices": (AVERAGE, average_config(net={"indices": []}),
                          "net.indices"),
    "no operators": (AVERAGE, average_config(operators=DROP), "operators"),
    "empty operators": (AVERAGE, average_config(operators=[]), "operator"),
    "empty operators and net indices": (
        AVERAGE, average_config(operators=[], net={"indices": []}), "net.indices"),
    "config is a list": (AVERAGE, [average_config()], "in.json"),
    "epsilon is a string": (AVERAGE, average_config(epsilon="x"), "epsilon"),
    "sector constant is a string": (
        AVERAGE, average_config(net={"indices": [[1, 1], [2, 2]],
                                     "sector_constant": "a"}),
        "net.sector_constant"),
    "seed is a string": (AVERAGE, average_config(seed="s"), "seed"),
    "fixture seed is a string": (
        AVERAGE, {"fixture": "conjugation-d2-sector", "seed": "s"}, "seed"),
    "no element": (AVERAGE, average_config(element=DROP), "element"),
    "element neither explicit nor random": (AVERAGE, average_config(element={}),
                                            "element.random"),
    "scale is a string": (
        AVERAGE, average_config(element={"random": {"scale": "big"}}),
        "element.random.scale"),
    "selfadjoint is a number": (
        AVERAGE, average_config(element={"random": {"selfadjoint": 1}}),
        "element.random.selfadjoint"),
    "not UTF-8": (AVERAGE, b'{"seed": "\xff\xfe"}', "in.json"),
    "directory as input": (["mu", "--input", IN, "--out-dir", OUT], None,
                           "in.json"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_exits_2_naming_the_field(tmp_path, capsys, case):
    argv, content, field = MALFORMED[case]
    path = tmp_path / "in.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        write_json(path, content)
    argv = [{IN: str(path), OUT: str(tmp_path / "out")}.get(a, a) for a in argv]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and field in err, err


def one_block(dim):
    return {"blocks": [{"dim": dim, "weight": 1.0}]}


EXPECTATION = {"kind": "block_expectation", "partition": [[[0]]]}
# argv and input of configs whose block dim numpy cannot index
HUGE_DIMS = {
    "average of a random element": (AVERAGE, {
        "algebra": one_block(HUGE), "element": {"random": {}},
        "operators": [], "net": {"indices": [[]]}}),
    "ds-check of a block expectation": (["ds-check", IN], {
        "algebra": one_block(HUGE), "operator": EXPECTATION}),
    "ds-check at dim 2**33": (["ds-check", IN], {
        "algebra": one_block(2 ** 33), "operator": EXPECTATION}),
}


@pytest.mark.parametrize("case", list(HUGE_DIMS))
def test_block_dim_beyond_numpy_is_input_error(tmp_path, capsys, case):
    argv, content = HUGE_DIMS[case]
    path = write_json(tmp_path / "in.json", content)
    argv = [{IN: path, OUT: str(tmp_path / "out")}.get(a, a) for a in argv]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "block dim" in err, err


def power_map(exponent):
    return {"algebra": one_block(1), "operator": {
        "kind": "power", "exponent": exponent, "base": EXPECTATION}}


# argv, input and JSON path of a bool or a string where a number belongs
NOT_A_NUMBER = {
    "dim true": (["ds-check", IN], {"algebra": {"blocks": [
        {"dim": True, "weight": 1.0}]}, "operator": EXPECTATION}, "algebra.blocks"),
    "weight string": (["ds-check", IN], {"algebra": {"blocks": [
        {"dim": 1, "weight": "1.0"}]}, "operator": EXPECTATION}, "algebra.blocks"),
    "weight true": (["ds-check", IN], {"algebra": {"blocks": [
        {"dim": 1, "weight": True}]}, "operator": EXPECTATION}, "algebra.blocks"),
    "exponent true": (["ds-check", IN], power_map(True), "operator.exponent"),
    "net index true": (AVERAGE, average_config(net={"indices": [[True, True]]}),
                       "net.indices"),
}


@pytest.mark.parametrize("case", list(NOT_A_NUMBER))
def test_bool_or_string_number_exits_2_naming_its_path(tmp_path, capsys, case):
    """A JSON ``true`` or string is not read as a number: each exits 2, and
    the message names its path."""
    argv, content, field = NOT_A_NUMBER[case]
    path = write_json(tmp_path / "in.json", content)
    argv = [{IN: path, OUT: str(tmp_path / "out")}.get(a, a) for a in argv]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {field}:"), err
    assert main(["ds-check", write_json(tmp_path / "ok.json", power_map(1))]) \
        == EXIT_OK
    with pytest.raises(ncergo.InvalidInputError, match="net index"):
        ncergo.SectorNet(1, ((True,),))


def non_finite_input(place, value):
    """(argv, input, the path the message names) for a 2x2 block with one
    entry set to `value`, read at `place`."""
    block = [[1, 0], [value, 0], [0, 0], [1, 0]]
    if place == "blocks":
        return (["mu", "--input", IN, "--out-dir", OUT],
                {"algebra": one_block(2), "blocks": [block]}, place)
    if place == "element.explicit":
        return AVERAGE, average_config(algebra=one_block(2), operators=[],
                                       element={"explicit": [block]}), place
    operator = {"unitary": {"kind": "unitary_conjugation", "unitary": [block]},
                "projections": {"kind": "pinching", "projections": [[block]]},
                "matrix": {"kind": "explicit_matrix", "matrix": block * 4,
                           "dim": 4}}[place]
    return (["ds-check", IN], {"algebra": one_block(2), "operator": operator},
            f"operator.{place}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("place", ["blocks", "element.explicit", "unitary",
                                   "projections", "matrix"])
def test_non_finite_entry_is_input_error_naming_its_path(tmp_path, capsys,
                                                         place, value):
    argv, content, field = non_finite_input(place, value)
    path = write_json(tmp_path / "in.json", content)
    argv = [{IN: path, OUT: str(tmp_path / "out")}.get(a, a) for a in argv]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {field}: non-finite"), err


def test_valid_average_config_certifies(tmp_path):
    """The base of the malformed cases above is itself valid."""
    cfg = write_json(tmp_path / "cfg.json", average_config())
    assert main(["average", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == EXIT_OK


def test_average_bundled_name_must_be_shipped(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["average", "--bundled", "../configs/conjugation-d2-sector",
              "--out-dir", str(tmp_path)])
    assert exit_info.value.code == EXIT_INPUT
    assert "'besicovitch-theta', 'conjugation-d2-sector'" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_ds_check_needs_a_positivity_sample(tmp_path, capsys, trials):
    """A(x) = x_12 E_11 is not positive; with no sample nothing refutes
    positivity, and the bounds ||A(1)|| = 0 of a positive map would pass."""
    matrix = [[0.0, 0.0]] * 16
    matrix[1] = [1.0, 0.0]
    cfg = write_json(tmp_path / "map.json", {
        "algebra": {"blocks": [{"dim": 2, "weight": 1.0}]},
        "operator": {"kind": "explicit_matrix", "matrix": matrix, "dim": 4}})
    assert main(["ds-check", cfg, "--trials", trials]) == EXIT_INPUT
    assert "trials" in capsys.readouterr().err


def test_certify_nan_epsilon_is_input_error(tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    assert main(["remark32", "--n", "6", "--out-dir", str(trace_dir)]) == EXIT_OK
    assert main(["certify", "--trace-dir", str(trace_dir), "--epsilon", "nan",
                 "--limit", str(trace_dir / "limit.json"),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_INPUT
    assert "epsilon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_certify_limit_on_another_algebra_is_input_error(tmp_path, capsys):
    """The limit file's own algebra is read: a limit whose weights differ
    from the trace's is refused, not certified under the trace's."""
    trace_dir = tmp_path / "trace"
    assert main(["remark32", "--n", "6", "--out-dir", str(trace_dir)]) == EXIT_OK
    limit = json.loads((trace_dir / "limit.json").read_text())
    for block in limit["algebra"]["blocks"]:
        block["weight"] = 1.0
    argv = ["certify", "--trace-dir", str(trace_dir), "--epsilon",
            str(2.0 ** -5), "--mode", "au", "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["--limit", write_json(tmp_path / "limit.json", limit)]) \
        == EXIT_INPUT
    assert "algebra" in capsys.readouterr().err
    assert main(argv + ["--limit", str(trace_dir / "limit.json")]) == EXIT_OK


# -- fuzzing: main() on mutated valid inputs -------------------------------------
#
# Each example applies one to three mutations to a valid input, in the style
# of mutation-based fuzzing (Zeller et al., The Fuzzing Book): drop a key or
# list entry, swap a value's type, empty a list or object, nest a value
# wrongly, or put in NaN, an infinity, an integer beyond the float range or a
# non-ASCII string.  Whatever comes out, main() must return an exit code.

# keys that size the work: a large value there is a valid request for that
# much work, not malformed input, so no mutation makes one large
SIZE_KEYS = {"dim", "indices", "exponent"}
SWAPS = ["x", 0, -1, 1.5, True, None, [], {}, [1, 2], {"k": 1}]
SPECIALS = [math.nan, math.inf, -math.inf, "\u00e9t\u00e9 \u2713 \u975e"]


def _paths(value, prefix=()):
    """The path of every node of a JSON value, the root's first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, valid):
    root = [copy.deepcopy(valid)]  # a parent for the top-level value
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(root[0]))))
        parent, key = root, 0
        for k in path:
            parent, key = parent[key], k
        value = parent[key]
        mutation = draw(st.sampled_from(["drop", "swap", "empty", "nest", "special"]))
        if mutation == "drop" and path:
            del parent[key]
        elif mutation == "swap":  # a copy, so no later mutation edits SWAPS
            parent[key] = copy.deepcopy(draw(st.sampled_from(
                [s for s in SWAPS if type(s) is not type(value)])))
        elif mutation == "empty":
            parent[key] = {} if isinstance(value, dict) else []
        elif mutation == "nest":
            parent[key] = draw(st.sampled_from([[value], {"value": value}]))
        else:  # "special", or "drop" of the root
            small = SIZE_KEYS.isdisjoint(k for k in path if isinstance(k, str))
            parent[key] = draw(st.sampled_from(SPECIALS + [10 ** 400] * small))
    return root[0]


def _valid_inputs(root):
    """The valid inputs the property mutates, and the argv of each command:
    (argv, {file name: valid JSON value})."""
    assert main(["remark32", "--n", "4", "--out-dir", str(root / "trace")]) == EXIT_OK
    trace = {f"trace/{p.name}": json.loads(p.read_text())
             for p in sorted((root / "trace").glob("*.json"))}
    a = TracedAlgebra(((2, 1.0), (1, 0.5)))
    x = a.random_element(np.random.default_rng(1))
    projections = [[[[1, 0], [0, 0], [0, 0], [0, 0]], [[1, 0]]],
                   [[[0, 0], [0, 0], [0, 0], [1, 0]], [[0, 0]]]]
    matrix = [[0.5 * (i % 6 == 0), 0.0] for i in range(25)]  # 0.5 * identity
    ds_map = {"algebra": TWO_BLOCKS, "operator": {
        "kind": "composition", "factors": [
            {"kind": "pinching", "projections": projections},
            {"kind": "power", "exponent": 2, "base": {
                "kind": "explicit_matrix", "matrix": matrix, "dim": 5}}]}}
    out = str(root / "out")
    return {
        "mu": (["mu", "--input", "x.json", "--out-dir", out],
               {"x.json": serialize.element_to_dict(x)}),
        "ds-check": (["ds-check", "map.json", "--trials", "5"],
                     {"map.json": ds_map}),
        "average": (["average", "--config", "cfg.json", "--out-dir", out],
                    {"cfg.json": average_config()}),
        "certify": (["certify", "--trace-dir", "trace", "--epsilon",
                     str(2.0 ** -5), "--mode", "au", "--limit",
                     "trace/limit.json", "--out-dir", out], trace),
    }


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, _valid_inputs(root)


@pytest.mark.parametrize("command", ["mu", "ds-check", "average", "certify"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_main_returns_an_exit_code_on_mutated_input(fuzz_inputs, command, data):
    root, inputs = fuzz_inputs
    argv, files = inputs[command]
    target = data.draw(st.sampled_from(sorted(files)), label="file")
    for name, value in files.items():
        if name == target:
            value = data.draw(mutated(value), label="input")
        (root / name).write_text(json.dumps(value))
    argv = [str(root / a) if a in files or a == "trace" else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_REFUTED, EXIT_INPUT, EXIT_NUMERIC)
