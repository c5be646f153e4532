"""Batch experiment runner.

Subcommands: mu, ds-check, average, certify, remark32.  Exit codes form a
pipeline contract: 0 pass, 1 refuted, 2 input error, 3 numeric failure.
All randomness flows from the single --seed through named streams (see
:mod:`ncergo.rng`), and every output embeds the config hash and seed so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from importlib.resources import files
from pathlib import Path

from . import fixtures, serialize
from .certify import (FiniteTrace, certify_cauchy, extract_limit,
                      remark32_model, witness_convergence)
from .config import SCENARIO_ERR_TOL, SCENARIO_QUAD_TOL
from .ergodic import besicovitch_average, net_average_trace
from .errors import (InvalidInputError, NcergoError, NoLimitError,
                     NumericFailureError)
from .singular import k_functional, lp_norm, mu, submajorizes
from .superops import verify_ds

EXIT_OK, EXIT_REFUTED, EXIT_INPUT, EXIT_NUMERIC = 0, 1, 2, 3


def _manifest(config: bytes, seed: int) -> dict:
    return {"config_sha256_16": hashlib.sha256(config).hexdigest()[:16],
            "seed": seed, "tool": "ncergo", "semifinite_emulation":
            "finite total trace; horizon-limited judgments"}


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _certificate_json(cert, manifest: dict) -> str:
    """A certificate's JSON with the run manifest added, as written to disk."""
    return serialize.dumps({**json.loads(cert.to_json()), "manifest": manifest}) + "\n"


def _csv_with_header(body: str, manifest: dict) -> str:
    head = "".join(f"# {k}={v}\n" for k, v in sorted(manifest.items()))
    return head + body


def cmd_mu(args) -> int:
    cfg, raw = serialize.read_json(args.input)
    x = serialize.element_from_dict(cfg)
    manifest = _manifest(raw, args.seed)
    out = Path(args.out_dir)
    _write(out / "mu.csv", _csv_with_header(mu(x).to_csv(), manifest))
    norms = {"manifest": manifest,
             "sup_norm": lp_norm(x, float("inf")),
             "l1_norm": lp_norm(x, 1.0),
             "l2_norm": lp_norm(x, 2.0),
             "k_functional_at_1": k_functional(x, 1.0)}
    _write(out / "norms.json", serialize.dumps(norms) + "\n")
    return EXIT_OK


def cmd_ds_check(args) -> int:
    cfg, raw = serialize.read_json(args.map)
    op = serialize.ds_check_from_dict(cfg)
    cert = verify_ds(op, trials=args.trials, seed=args.seed)
    text = _certificate_json(cert, _manifest(raw, args.seed))
    if args.out:
        _write(Path(args.out), text)
    sys.stdout.write(text)
    return EXIT_OK if cert.is_ds() else EXIT_REFUTED


def _run_conjugation_scenario(seed: int, out: Path, manifest: dict) -> int:
    algebra, ops, x, net, oracle = fixtures.conjugation_d2_fixture(seed)
    trace = net_average_trace(ops, x, net, seed=seed)
    _write(out / "trace.csv",
           _csv_with_header(trace.to_csv(reference=oracle), manifest))
    ftrace = FiniteTrace(tuple(trace.outputs))
    cauchy = certify_cauchy(ftrace, epsilon=0.05, mode="bau")
    limit, _ = extract_limit(ftrace)
    witness = witness_convergence(ftrace, limit, epsilon=0.05, mode="bau")
    for name, cert in (("cauchy", cauchy), ("witness", witness)):
        _write(out / f"certificate_{name}.json", _certificate_json(cert, manifest))
        _write(out / f"tails_{name}.csv",
               _csv_with_header(cert.tail_csv(), manifest))
    err = (trace.outputs[-1] - oracle).sup_norm()
    summary = {"manifest": manifest, "final_err_inf": err,
               "limit_submajorized_by_input": submajorizes(x, limit)}
    _write(out / "summary.json", serialize.dumps(summary) + "\n")
    ok = cauchy.certified and witness.certified and err <= SCENARIO_ERR_TOL
    return EXIT_OK if ok else EXIT_REFUTED


def _run_besicovitch_scenario(seed: int, out: Path, manifest: dict) -> int:
    algebra, beta, flow, x, closed = fixtures.besicovitch_theta_fixture(seed=seed)
    rows = ["t,gap_to_closed_form\n"]
    worst = 0.0
    for t in (1.0, 10.0, 100.0):
        avg = besicovitch_average(beta, flow, x, t)
        gap = (avg - closed(t)).sup_norm()
        worst = max(worst, gap)
        rows.append(f"{t!r},{gap!r}\n")
    _write(out / "besicovitch.csv", _csv_with_header("".join(rows), manifest))
    summary = {"manifest": manifest, "quad_tol": SCENARIO_QUAD_TOL, "worst_gap": worst}
    _write(out / "summary.json", serialize.dumps(summary) + "\n")
    return EXIT_OK if worst <= SCENARIO_QUAD_TOL else EXIT_REFUTED


def _run_explicit_average(run: tuple, seed: int, out: Path, manifest: dict) -> int:
    x, ops, net, epsilon = run
    trace = net_average_trace(ops, x, net, seed=seed)
    _write(out / "trace.csv", _csv_with_header(trace.to_csv(), manifest))
    ftrace = FiniteTrace(tuple(trace.outputs))
    cert = certify_cauchy(ftrace, epsilon=epsilon, mode="bau")
    _write(out / "certificate_cauchy.json", _certificate_json(cert, manifest))
    return EXIT_OK if cert.certified else EXIT_REFUTED


def cmd_average(args) -> int:
    cfg, raw = serialize.read_json(
        args.config or files("ncergo.configs") / f"{args.bundled}.json")
    seed, fixture, run = serialize.average_from_dict(cfg, args.seed)
    out = Path(args.out_dir)
    manifest = _manifest(raw, seed)
    _write(out / "manifest.json", serialize.dumps(manifest) + "\n")
    if fixture is None:
        return _run_explicit_average(run, seed, out, manifest)
    if fixture == "conjugation-d2-sector":
        return _run_conjugation_scenario(seed, out, manifest)
    if fixture == "besicovitch-theta":
        return _run_besicovitch_scenario(seed, out, manifest)
    raise InvalidInputError(f"fixture: unknown scenario {fixture!r}")


def cmd_certify(args) -> int:
    if not math.isfinite(args.epsilon):
        raise InvalidInputError(f"epsilon must be finite, got {args.epsilon!r}")
    trace_dir = Path(args.trace_dir)
    paths = sorted(trace_dir.glob("*.json"))
    paths = [p for p in paths if p.name != "limit.json"]
    if not paths:
        raise InvalidInputError(f"no element files in {trace_dir}")
    read = [serialize.read_json(p) for p in paths]  # each file once
    manifest = _manifest(b"".join(raw for _, raw in read), args.seed)
    first = serialize.element_from_dict(read[0][0])  # the rest on its algebra
    trace = FiniteTrace((first, *(serialize.element_from_dict(cfg, first.algebra)
                                  for cfg, _ in read[1:])))
    try:
        if args.limit:
            limit = serialize.element_from_dict(serialize.read_json(args.limit)[0],
                                                trace.algebra)
            cert = witness_convergence(trace, limit, args.epsilon, args.mode)
        elif args.cauchy:
            cert = certify_cauchy(trace, args.epsilon, args.mode)
        else:
            limit, _ = extract_limit(trace)
            cert = witness_convergence(trace, limit, args.epsilon, args.mode)
    except NoLimitError as exc:
        sys.stderr.write(f"no-limit: {exc}\n")
        return EXIT_REFUTED
    out = Path(args.out_dir)
    _write(out / "certificate.json", _certificate_json(cert, manifest))
    _write(out / "tails.csv", _csv_with_header(cert.tail_csv(), manifest))
    return EXIT_OK if cert.certified else EXIT_REFUTED


def cmd_remark32(args) -> int:
    _, trace, limit = remark32_model(args.n)
    out = Path(args.out_dir)
    manifest = _manifest(str(args.n).encode(), args.seed)
    names = [f"element_{i:03d}" for i in range(len(trace))] + ["limit"]
    for name, x in zip(names, (*trace.elements, limit)):
        payload = {**serialize.element_to_dict(x), "manifest": manifest}
        _write(out / f"{name}.json", serialize.dumps(payload) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ncergo",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed feeding all named random streams "
                             "(default 0; average: the config's seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mu", help="singular-value function and norms report")
    p.add_argument("--input", required=True, help="element JSON")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("ds-check", help="contraction certificate for a map")
    p.add_argument("map", help="JSON with algebra and operator")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--out", default=None)

    p = sub.add_parser("average", help="run an averaging scenario end to end")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="scenario config JSON")
    group.add_argument("--bundled", help="name of a bundled scenario config",
                       choices=sorted(p.name[:-5] for p in files("ncergo.configs")
                                      .iterdir() if p.name.endswith(".json")))
    p.add_argument("--out-dir", required=True)
    # SUPPRESS keeps an absent subcommand --seed from overwriting a global one
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    p = sub.add_parser("certify", help="witness certification of a trace dir")
    p.add_argument("--trace-dir", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--mode", choices=["au", "bau"], default="bau")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--limit", default=None, help="explicit limit element JSON")
    group.add_argument("--cauchy", action="store_true",
                       help="certify the Cauchy property instead of convergence")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("remark32", help="emit the counterexample model trace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and kept for the process:
    parsing leaves it unchanged, and each call gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed is None and args.command != "average":
        args.seed = 0
    # looked up per call, so that a rebound handler is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except InvalidInputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except NumericFailureError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except NcergoError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
