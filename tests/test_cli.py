import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
