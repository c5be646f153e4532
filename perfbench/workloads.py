"""The three workloads: seeded inputs, the jobs that run on them, and the
reference check of every job.

A job's `call` is the only part that is timed: it goes through ncergo's
public API, or through `ncergo.cli.main(argv)` in-process.  Its inputs are
plain numpy arrays or files written during set-up, so every call builds
its own `Element`s and operators and no job can reuse another job's
cached state.  `check` compares the outputs with `refs`, and `digest`
hashes them (no timings) for the determinism checks.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

import ncergo as nc
from ncergo import cli

import refs

EPS_REMARK32 = 2.0 ** -5
EPS_CESARO = 0.05
TAIL_TOL = 1e-3


@dataclass
class Job:
    """One closed-loop request.  `check(out)` returns a list of problems
    (empty when the output matches its reference); `known_defect(out)`
    counts the outputs that hit the registered verify_ds defect.  A check
    computes its references itself, when it first runs: outside the timed
    set-up and the timed loop."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], List[str]]
    digest: Callable[[object], str]
    known_defect: Callable[[object], int] = lambda out: 0
    size: int = 0  # remark32 block count, 0 for other jobs


# -- helpers ------------------------------------------------------------------

def hash_parts(obj, h=None) -> str:
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, nc.Element):
        for b in obj.data:
            h.update(np.ascontiguousarray(b).tobytes())
    elif isinstance(obj, np.ndarray):
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(str(k).encode())
            hash_parts(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            hash_parts(v, h)
    elif isinstance(obj, nc.StepFunction):
        hash_parts([obj.edges, obj.values], h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


def dir_digest(rc: int, out: Path) -> str:
    h = hashlib.sha256(str(rc).encode())
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def run_cli(argv) -> int:
    """ncergo.cli.main in-process, with its stdout and stderr captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def random_unitary(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gaussian(rng, d, scale=1.0):
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)


def element_json(blocks, layout) -> dict:
    return {"algebra": {"blocks": [{"dim": d, "weight": w} for d, w in layout]},
            "blocks": [[[float(z.real), float(z.imag)] for z in b.reshape(-1)]
                       for b in blocks]}


def blocks_from_json(payload: dict):
    out = []
    for spec, pairs in zip(payload["algebra"]["blocks"], payload["blocks"]):
        flat = np.array([complex(re, im) for re, im in pairs])
        out.append(flat.reshape(spec["dim"], spec["dim"]))
    return out


def check_cert_file(out: Path, rc: int, problems: List[str]):
    path = out / "certificate.json"
    if not path.exists():
        problems.append(f"exit {rc} without certificate.json")
        return None
    return json.loads(path.read_text())


def verdict_of(bounds) -> str:
    """The finite-horizon verdict rule, applied to reported bounds."""
    if not bounds:
        return "certified"
    ok = bounds[-1] <= TAIL_TOL and bounds[-1] <= bounds[0] + 1e-12
    return "certified" if ok else "refuted-at-horizon"


# -- rearrange ----------------------------------------------------------------

# the block layouts of the test suite's property loops, plus one large
# single block and one LAPACK-bound multi-block layout
LAYOUTS = [
    ((2, 1.0),),
    ((3, 1.0),),
    ((4, 0.5),),
    ((6, 1.0),),
    ((2, 0.5), (3, 2.0)),
    ((1, 0.25), (2, 1.0), (4, 0.75)),
    ((2, 1.0), (2, 1.0), (3, 0.5), (1, 3.0)),
    ((5, 0.1), (1, 2.0)),
    ((16, 1.0),),
    ((8, 1.0), (8, 0.5), (4, 2.0)),
]

# maps c * x12 * E11 on M_2, whose sup->sup and trace->trace norms are c;
# verify_ds reports sampled lower bounds as bounds when a map is not
# positive, so c slightly above 1 is certified (the registered defect,
# for c in DEFECT_RANGE only)
KNOWN_NORMS = (0.5, 0.9, 1.0, 1.05, 1.1, 1.5, 2.0)
DEFECT_RANGE = (1.0, 1.15)

K_POINTS = 4       # s values per element
CLIP_LEVELS = 6    # extra clip levels tried against each optimal one


def _structural_map(alg, spec):
    """w0 Ad(u) + w1 Pinch o BlockExp + w2 Ad(u)^2: every structured node."""
    u = nc.UnitaryConjugation(nc.Element(alg, spec["u"]))
    p = nc.Element(alg, spec["p"], selfadjoint=True, positive=True, projection=True)
    q = nc.Element(alg, [np.eye(d) - b for d, b in zip(alg.dims, spec["p"])],
                   selfadjoint=True, positive=True, projection=True)
    pinch_of_exp = nc.Composition([nc.Pinching([p, q]),
                                   nc.BlockExpectation(alg, spec["partition"])])
    w = spec["w"]
    return nc.ConvexCombination([(w[0], u), (w[1], pinch_of_exp), (w[2], nc.Power(u, 2))])


def _structural_map_ref(xb, spec):
    """The same map in numpy."""
    out = []
    for k, b in enumerate(xb):
        u, p = spec["u"][k], spec["p"][k]
        q = np.eye(b.shape[0]) - p
        mask = np.zeros(b.shape)
        for g in spec["partition"][k]:
            mask[np.ix_(g, g)] = 1.0
        e = mask * b
        uu = u @ u
        out.append(spec["w"][0] * (u @ b @ u.conj().T)
                   + spec["w"][1] * (p @ e @ p + q @ e @ q)
                   + spec["w"][2] * (uu @ b @ uu.conj().T))
    return out


def _rearrange_job(layout, rng, index: int) -> Job:
    dims = [d for d, _ in layout]
    weights = [w for _, w in layout]
    xb = [gaussian(rng, d) for d in dims]
    yb = [gaussian(rng, d, scale=0.7) for d in dims]
    total = sum(d * w for d, w in layout)
    s_values = sorted(float(s) for s in rng.uniform(0.05, 1.0, K_POINTS) * total)
    spec = {"u": [random_unitary(rng, d) for d in dims],
            "p": [], "partition": [], "w": list(rng.dirichlet([1.0, 1.0, 1.0]))}
    for d in dims:
        basis = random_unitary(rng, d)[:, :int(rng.integers(0, d + 1))]
        spec["p"].append(basis @ basis.conj().T)
        perm = [int(i) for i in rng.permutation(d)]
        cut = int(rng.integers(1, d + 1))
        spec["partition"].append([g for g in (perm[:cut], perm[cut:]) if g])
    e_basis = [random_unitary(rng, d)[:, :int(rng.integers(1, d + 1))] for d in dims]
    level_q = np.linspace(0.1, 0.9, CLIP_LEVELS)

    def call():
        alg = nc.TracedAlgebra(layout)
        x, y = nc.Element(alg, xb), nc.Element(alg, yb)
        f = nc.mu(x)
        out = {"mu": f, "lp": [nc.lp_norm(x, p) for p in (1, 2, 3)],
               "k": [], "clip": [], "costs": []}
        sv = np.sort(np.concatenate(x.singular_values()))
        for s in s_values:
            out["k"].append(nc.k_functional(x, s))
            opt = f(s)
            yy, zz = nc.clip_decompose(x, opt)
            out["clip"].append((yy, zz))
            costs = []
            for level in [opt] + [float(np.quantile(sv, q)) for q in level_q]:
                ya, za = nc.clip_decompose(x, level)
                costs.append(nc.lp_norm(ya, 1) + s * za.sup_norm())
            out["costs"].append(costs)
        out["sub_xy"] = nc.submajorizes(x, y)
        out["sub_yx"] = nc.submajorizes(y, x)
        out["metric"] = nc.measure_metric(x, y)
        op = _structural_map(alg, spec)
        cert = nc.verify_ds(op, seed=index)
        out["ds"] = (cert.one_norm_bound, cert.sup_norm_bound, cert.method, cert.is_ds())
        out["audit"] = nc.audit_submajorization(op, x, certificate=cert)
        e = nc.algebra.projection_from_ranges(alg, e_basis)
        out["e"] = e
        out["f"] = nc.enlarge_projection(x, e)
        return out

    def check(out):
        problems = []
        st_x, st_y = refs.steps(xb, weights), refs.steps(yb, weights)
        if not refs.step_matches(out["mu"], st_x):
            problems.append("mu differs from sorted per-block SVDs")
        for p, v in zip((1, 2, 3), out["lp"]):
            if not refs.close(v, refs.lp(st_x, p)):
                problems.append(f"lp_norm p={p}")
        for s, k, (yy, zz), costs in zip(s_values, out["k"], out["clip"], out["costs"]):
            kref = refs.running_integral(st_x, s)
            tol = 1e-9 * max(1.0, kref)
            if abs(k - kref) > tol:
                problems.append(f"k_functional at s={s}")
            if any(np.abs(a + b - c).max() > 1e-9 for a, b, c in zip(yy.data, zz.data, xb)):
                problems.append("clip parts do not sum to x")
            cost = refs.lp(refs.steps(yy.data, weights), 1) + s * refs.sup(zz.data)
            if abs(cost - kref) > tol:
                problems.append(f"clip at mu_s is not optimal at s={s}")
            if abs(costs[0] - kref) > tol or min(costs) < kref - tol:
                problems.append(f"clip costs contradict K at s={s}")
        if out["sub_xy"] != refs.dominates(st_x, st_y):
            problems.append("submajorizes(x, y)")
        if out["sub_yx"] != refs.dominates(st_y, st_x):
            problems.append("submajorizes(y, x)")
        diff = refs.steps([a - b for a, b in zip(xb, yb)], weights)
        if not refs.close(out["metric"], refs.measure_metric(diff)):
            problems.append("measure_metric")
        c1, cinf, method, is_ds = out["ds"]
        if not (is_ds and method == "exact-positive"
                and refs.close(c1, 1.0) and refs.close(cinf, 1.0)):
            problems.append(f"structural map certificate {out['ds']}")
        if out["audit"] != refs.dominates(st_x, refs.steps(_structural_map_ref(xb, spec), weights)):
            problems.append("audit_submajorization")
        e, f = [b for b in out["e"].data], [b for b in out["f"].data]
        if not refs.is_projection(f):
            problems.append("enlarged witness is not a projection")
        if refs.deficiency(f, weights) > 2.0 * refs.deficiency(e, weights) + 1e-9:
            problems.append("enlarged deficiency above twice the input")
        exe = refs.sup([p @ b @ p for p, b in zip(e, xb)])
        xf = refs.sup([b @ q for b, q in zip(xb, f)])
        if xf > exe + 1e-9 * max(1.0, refs.sup(xb)):
            problems.append("||x f|| above ||e x e||")
        return problems

    return Job("rearrange/" + "+".join(f"{d}" for d in dims), call, check, hash_parts)


def _known_norm_job() -> Job:
    """verify_ds on every map of KNOWN_NORMS, as one job, so that these
    small element-free certifications do not set the workload's median.
    The sampling seeds are fixed, so the job's cost and the count of the
    registered defect are the same for every benchmark seed."""
    matrices = []
    for c in KNOWN_NORMS:
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[0, 1] = c  # row-major vec: x12 is entry 1, the E11 entry is 0
        matrices.append(matrix)

    def call():
        alg = nc.TracedAlgebra(((2, 1.0),))
        out = []
        for i, matrix in enumerate(matrices):
            cert = nc.verify_ds(nc.ExplicitMatrix(alg, matrix), seed=i)
            out.append((cert.one_norm_bound, cert.sup_norm_bound, cert.method, cert.is_ds()))
        return out

    def registered(c):
        return DEFECT_RANGE[0] < c < DEFECT_RANGE[1]

    def check(out):
        return [f"c={c}: verify_ds says is_ds={res[3]}" for c, res in zip(KNOWN_NORMS, out)
                if res[3] != (c <= 1.0) and not registered(c)]

    def known_defect(out):
        return sum(1 for c, res in zip(KNOWN_NORMS, out) if registered(c) and res[3])

    return Job("known-norm", call, check, hash_parts, known_defect)


def build_rearrange(seed: int, work: Path, plan) -> List[Job]:
    rng = refs.named_stream(seed, "perfbench/rearrange")
    # ten elements of each small single-block layout, eight of the 8+8+4
    # layout, two of every other one, and the known-norm job (59 jobs a
    # round): sorted by cost, the small single-block elements fill the
    # first 68%, so the median falls well inside them, and the 8+8+4 ones
    # span 85-98%, around the 90th percentile.  Put at an edge of a group,
    # a percentile follows the noisy tail of that group's latencies.
    def copies(lay):
        if len(lay) == 1 and lay[0][0] <= 6:
            return 10
        return 8 if len(lay) == 3 and lay[0][0] == 8 else 2

    layouts = [lay for lay in LAYOUTS for _ in range(copies(lay))]
    jobs = [_rearrange_job(layout, rng, i) for i, layout in enumerate(layouts)]
    jobs.append(_known_norm_job())
    return jobs


# -- witness ------------------------------------------------------------------

REMARK32_SIZES = (6, 8, 10, 12, 14, 16, 20, 24)
CESARO_LAYOUT = ((10, 1.0), (6, 0.5))
CESARO_KS = tuple(2 ** j for j in range(14))


def _remark32_dir(n: int, work: Path):
    """Write the trace with the CLI; `_remark32_file_problems` checks it."""
    d = work / f"remark32-{n}"
    return d, run_cli(["remark32", "--n", str(n), "--out-dir", str(d)])


def _remark32_file_problems(n: int, d: Path, rc: int) -> List[str]:
    """The trace was written, and its partial n has trace norm n."""
    if rc != 0:
        return [f"remark32 exit {rc}"]
    problems = []
    weights = [2.0 ** -k for k in range(1, n + 1)]
    for i in range(n):
        blocks = blocks_from_json(json.loads((d / f"element_{i:03d}.json").read_text()))
        norm = sum(w * abs(b[0, 0]) for w, b in zip(weights, blocks))
        if norm != i + 1:
            problems.append(f"remark32 partial {i + 1} has trace norm {norm}")
    return problems


def _remark32_jobs(n: int, written, work: Path, seed: int) -> List[Job]:
    d, _ = written
    jobs = []
    m = int(round(-math.log2(EPS_REMARK32)))
    file_problems = functools.cache(lambda: _remark32_file_problems(n, *written))
    for variant in ("au-limit", "bau", "cauchy"):
        out = work / "out" / f"remark32-{n}-{variant}"
        argv = ["--seed", str(seed), "certify", "--trace-dir", str(d),
                "--epsilon", repr(EPS_REMARK32), "--out-dir", str(out)]
        argv += {"au-limit": ["--mode", "au", "--limit", str(d / "limit.json")],
                 "bau": ["--mode", "bau"], "cauchy": ["--cauchy"]}[variant]

        def call(argv=argv, out=out):
            return run_cli(argv), out

        def check(res, variant=variant):
            rc, out = res
            problems = list(file_problems())
            if variant == "bau" and refs.remark32_modulus_fails(n):
                if rc != 1:
                    problems.append(f"no-limit trace exit {rc}, expected 1")
                return problems
            cert = check_cert_file(out, rc, problems)
            if cert is None:
                return problems
            bounds = [b for _, b in cert["tail_bounds"]]
            expected = refs.remark32_bounds(n, m, variant == "cauchy")
            if bounds != expected:
                problems.append(f"tail bounds {bounds} != {expected}")
            if not refs.close(cert["trace_deficiency"], refs.remark32_deficiency(n, m)):
                problems.append(f"deficiency {cert['trace_deficiency']}")
            verdict = verdict_of(expected)
            if cert["verdict"] != verdict or rc != (0 if verdict == "certified" else 1):
                problems.append(f"verdict {cert['verdict']} exit {rc}")
            return problems

        jobs.append(Job(f"witness/remark32-{n}/{variant}", call, check,
                        lambda res: dir_digest(*res), size=n))
    return jobs


def _cesaro_dir(rng, work: Path, tag: str) -> Path:
    """A trace of exact Cesàro averages of one diagonal-unitary conjugation
    on a few-block algebra, with its exact limit, written as element JSON."""
    d = work / f"cesaro-{tag}"
    d.mkdir(parents=True, exist_ok=True)
    # a fixed multiset of phases in seed order keeps the spectral structure
    # (and so the search cost) the same for every seed
    phases = [[2.0 * np.pi * rng.permutation(np.arange(dim) % 5) / 5.0
               for dim, _ in CESARO_LAYOUT]]
    xb = [gaussian(rng, dim, scale=0.05) for dim, _ in CESARO_LAYOUT]
    for i, k in enumerate(CESARO_KS):
        blocks = refs.conjugation_average(xb, phases, (k,))
        (d / f"element_{i:03d}.json").write_text(json.dumps(element_json(blocks, CESARO_LAYOUT)))
    limit = []
    for k, xk in enumerate(xb):
        ph = phases[0][k]
        limit.append(np.where(np.abs(ph[:, None] - ph[None, :]) < 1e-12, xk, 0.0))
    (d / "limit.json").write_text(json.dumps(element_json(limit, CESARO_LAYOUT)))
    return d


class _CesaroReference:
    """What the Cesàro-directory checks compare with, read back from the
    written files (they are what the program reads)."""

    def __init__(self, d: Path):
        self.elements = [blocks_from_json(json.loads((d / f"element_{i:03d}.json").read_text()))
                         for i in range(len(CESARO_KS))]
        self.limit = blocks_from_json(json.loads((d / "limit.json").read_text()))
        n = len(self.elements)
        self.pair = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                self.pair[a, b] = self.sup_diff(self.elements[b], self.elements[a])
        weights = [w for _, w in CESARO_LAYOUT]
        self.no_limit = refs.modulus_at_tail(refs.cauchy_moduli(self.elements, weights), n) > 1e-3

    @staticmethod
    def sup_diff(a, b):
        return refs.sup([p - q for p, q in zip(a, b)])


def _cesaro_jobs(d: Path, work: Path, seed: int, tag: str, variants) -> List[Job]:
    """CLI certify jobs for `variants`, then the library upgrade job."""
    reference = functools.cache(lambda: _CesaroReference(d))
    n = len(CESARO_KS)
    jobs = []
    for variant in variants:
        out = work / "out" / f"cesaro-{tag}-{variant}"
        argv = ["--seed", str(seed), "certify", "--trace-dir", str(d),
                "--epsilon", repr(EPS_CESARO), "--out-dir", str(out)]
        argv += {"au-limit": ["--mode", "au", "--limit", str(d / "limit.json")],
                 "bau": ["--mode", "bau"], "cauchy": ["--cauchy"]}[variant]

        def call(argv=argv, out=out):
            return run_cli(argv), out

        def check(res, variant=variant):
            rc, out = res
            ref = reference()
            problems = []
            if variant == "bau" and ref.no_limit:
                return [] if rc == 1 else [f"no-limit trace exit {rc}, expected 1"]
            cert = check_cert_file(out, rc, problems)
            if cert is None:
                return problems
            bounds = [b for _, b in cert["tail_bounds"]]
            if variant == "cauchy":
                caps = [ref.pair[j:, j:].max() for j in range(n - 1)]
            else:
                target = ref.limit if variant == "au-limit" else ref.elements[-1]
                caps = [ref.sup_diff(target, x) for x in ref.elements]
            if len(bounds) != len(caps) or any(b > c + 1e-9 for b, c in zip(bounds, caps)):
                problems.append("a tail bound exceeds the sup norm of its difference")
            if cert["trace_deficiency"] > EPS_CESARO + 1e-12:
                problems.append("deficiency above epsilon")
            verdict = verdict_of(bounds)
            if cert["verdict"] != verdict or rc != (0 if verdict == "certified" else 1):
                problems.append(f"verdict {cert['verdict']} exit {rc}")
            return problems

        jobs.append(Job(f"witness/cesaro-{tag}/{variant}", call, check,
                        lambda res: dir_digest(*res)))

    def call_upgrade():
        files = sorted(p for p in d.glob("element_*.json"))
        trace = nc.FiniteTrace(tuple(nc.serialize.element_from_dict(json.loads(p.read_text()))
                                     for p in files))
        bilateral = nc.certify_cauchy(trace, EPS_CESARO, mode="bau")
        return bilateral, nc.bilateral_to_onesided(trace, bilateral)

    def check_upgrade(res):
        bilateral, onesided = res
        ref = reference()
        problems = []
        caps = [ref.sup_diff(ref.elements[i + 1], ref.elements[i]) for i in range(n - 1)]
        bounds = [b for _, b in onesided.tail_bounds]
        if onesided.mode != "au" or any(b > c + 1e-9 for b, c in zip(bounds, caps)):
            problems.append("one-sided bound exceeds the sup norm of its difference")
        if onesided.trace_deficiency > 2.0 * bilateral.trace_deficiency + 1e-9:
            problems.append("upgraded deficiency above twice the bilateral one")
        if not refs.is_projection(onesided.projection.data):
            problems.append("upgraded witness is not a projection")
        return problems

    def digest_upgrade(res):
        return hash_parts([(c.projection, c.tail_bounds, c.trace_deficiency, c.verdict)
                           for c in res])

    jobs.append(Job(f"witness/cesaro-{tag}/upgrade", call_upgrade, check_upgrade,
                    digest_upgrade))
    return jobs


def build_witness(seed: int, work: Path, plan) -> List[Job]:
    rng = refs.named_stream(seed, "perfbench/witness")
    jobs = []
    for n in REMARK32_SIZES:
        jobs += _remark32_jobs(n, _remark32_dir(n, work), work, seed)
    # 36 jobs a round.  Two Cesàro directories get every variant; four more
    # only the upgrade job, whose cost (about 130 ms) is the round's median,
    # so that the median falls well inside a group of equal-cost jobs
    # rather than in a gap between two remark32 sizes; the 90th percentile
    # falls on remark32-20/bau.
    for tag in "abcdef":
        variants = ("au-limit", "bau", "cauchy") if tag in "ab" else ()
        jobs += _cesaro_jobs(_cesaro_dir(rng, work, tag), work, seed, tag, variants)
    return jobs


# -- averaging ----------------------------------------------------------------

CONJ_THETA = np.pi / 6.0
CONJ_KS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 10000)


def _conjugation_fixture_outcome(cli_seed: int):
    """Reference for `average --bundled conjugation-d2-sector`: the exact
    Cesàro averages at every net index, the error to the limit at the last
    one, and the Cauchy modulus at the tail that decides whether the
    scenario finds a limit at all."""
    group_a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    group_b = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    phases = [[CONJ_THETA * group_a], [CONJ_THETA * group_b]]
    rng = refs.named_stream(cli_seed, "fixtures/conjugation-d2/element")
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x = [0.1 * (m + m.conj().T)]
    trace = [refs.conjugation_average(x, phases, (k, k)) for k in CONJ_KS]
    same = (group_a[:, None] == group_a[None, :]) & (group_b[:, None] == group_b[None, :])
    err = refs.sup([trace[-1][0] - np.where(same, x[0], 0.0)])
    modulus = refs.modulus_at_tail(refs.cauchy_moduli(trace, [1.0]), len(trace))
    return err, modulus


def _cli_conjugation_job(cli_seed: int, err: float, modulus: float, work: Path) -> Job:
    """`err, modulus`: the scenario's reference outcome, from the plan."""
    out = work / "out" / f"conjugation-{cli_seed}"
    argv = ["average", "--bundled", "conjugation-d2-sector",
            "--seed", str(cli_seed), "--out-dir", str(out)]

    def call():
        return run_cli(argv), out

    def check(res):
        rc, out = res
        if modulus > 1e-3:
            # no limit: the scenario stops in extract_limit, which the CLI
            # reports as a numeric failure (3); refuted (1) is also accepted
            return [] if rc in (1, 3) else [f"no-limit scenario exit {rc}"]
        problems = []
        summary = json.loads((out / "summary.json").read_text())
        if not refs.close(summary["final_err_inf"], err, rel=1e-6, abs_=1e-12):
            problems.append(f"final error {summary['final_err_inf']} != {err}")
        if rc != (0 if err <= 1e-3 else 1):
            problems.append(f"exit {rc} with final error {err}")
        return problems

    path = "nolimit" if modulus > 1e-3 else "limit"
    return Job(f"averaging/cli-conjugation-{path}", call, check, lambda res: dir_digest(*res))


def _cli_besicovitch_job(cli_seed: int, work: Path) -> Job:
    out = work / "out" / f"besicovitch-{cli_seed}"
    argv = ["average", "--bundled", "besicovitch-theta",
            "--seed", str(cli_seed), "--out-dir", str(out)]

    def call():
        return run_cli(argv), out

    def check(res):
        rc, out = res
        summary = json.loads((out / "summary.json").read_text())
        ok = rc == 0 and summary["worst_gap"] <= summary["quad_tol"]
        return [] if ok else [f"exit {rc}, worst gap {summary['worst_gap']}"]

    return Job("averaging/cli-besicovitch", call, check, lambda res: dir_digest(*res))


def _family(kind: str, layout, rng, count: int):
    """Raw data for a commuting family: per operator and block, the phases
    of a diagonal unitary, or the 0/1 labels of a diagonal pinching."""
    if kind == "unitary":
        return [[rng.uniform(0.0, 2.0 * np.pi, d) for d, _ in layout] for _ in range(count)]
    return [[rng.integers(0, 2, size=d) for d, _ in layout] for _ in range(count)]


def _masks(labels):
    return [(g[:, None] == g[None, :]).astype(float) for g in labels]


def _family_ops(kind: str, alg, fam):
    if kind == "unitary":
        return [nc.UnitaryConjugation(nc.Element(alg, [np.diag(np.exp(1j * ph)) for ph in phases]))
                for phases in fam]
    return [nc.Pinching([nc.Element(alg, [np.diag((g == part).astype(complex)) for g in labels],
                                    selfadjoint=True, positive=True, projection=True)
                         for part in (0, 1)])
            for labels in fam]


def _family_ref(kind, xb, fam, n):
    if kind == "unitary":
        return refs.conjugation_average(xb, fam, n)
    return refs.pinching_average(xb, [_masks(labels) for labels in fam], n)


def _net_job(kind: str, layout, ks, rng, mode: str) -> Job:
    xb = [gaussian(rng, d) for d, _ in layout]
    fam = _family(kind, layout, rng, 2)
    indices = tuple((k, k) for k in ks)

    def call():
        alg = nc.TracedAlgebra(layout)
        ops = _family_ops(kind, alg, fam)
        net = nc.SectorNet(2, indices, sector_constant=1.0)
        return nc.net_average_trace(ops, nc.Element(alg, xb), net)

    def check(trace):
        problems = []
        if trace.metadata["mode"] != mode:
            problems.append(f"route {trace.metadata['mode']}, expected {mode}")
        scale = max(1.0, refs.sup(xb))
        for n, y in zip(indices, trace.outputs):
            ref = _family_ref(kind, xb, fam, n)
            if max(np.abs(a - b).max() for a, b in zip(y.data, ref)) > 1e-9 * scale:
                problems.append(f"average at {n} differs from the exact multiplier")
                break
        return problems

    def digest(trace):
        return hash_parts([trace.outputs, trace.sup_norms, trace.one_norms])

    return Job(f"averaging/net-{kind}-{mode}-{'x'.join(str(d) for d, _ in layout)}",
               call, check, digest)


def _box_job(kind: str, layout, n, rng) -> Job:
    xb = [gaussian(rng, d) for d, _ in layout]
    fam = _family(kind, layout, rng, len(n))

    def call():
        alg = nc.TracedAlgebra(layout)
        return nc.box_average(_family_ops(kind, alg, fam), nc.Element(alg, xb), n)

    def check(y):
        ref = _family_ref(kind, xb, fam, n)
        err = max(np.abs(a - b).max() for a, b in zip(y.data, ref))
        return [] if err <= 1e-9 * max(1.0, refs.sup(xb)) else [f"box average error {err}"]

    shape = "x".join(str(d) for d, _ in layout)
    return Job(f"averaging/box-{kind}-{shape}", call, check, hash_parts)


def _flow_job(kind: str, layout, t: float, rng) -> Job:
    # frequencies, weights and the norms of x and of x - E(x) are fixed, so
    # the quadrature depth, and so the cost, is the same for every seed
    terms = [(0.6, 0.7), (0.4j, -1.3)]
    gen = [rng.permutation(np.linspace(-1.0, 1.0, d)) for d, _ in layout]
    labels = [rng.permutation(np.arange(d) % 2) for d, _ in layout]
    xb = [gaussian(rng, d) for d, _ in layout]
    inner = [b * m for b, m in zip(xb, _masks(labels))]
    outer = [b - e for b, e in zip(xb, inner)]
    xb = [e / refs.sup(inner) + 0.5 * o / refs.sup(outer) for e, o in zip(inner, outer)]

    def call():
        alg = nc.TracedAlgebra(layout)
        beta = nc.BesicovitchFunction(nc.TrigPolynomial(tuple(terms)))
        if kind == "unitary":
            flow = nc.UnitaryFlow(nc.Element(alg, [np.diag(h).astype(complex) for h in gen],
                                             selfadjoint=True))
        else:
            flow = nc.InterpolationFlow(_family_ops("pinching", alg, [labels])[0])
        return nc.besicovitch_average(beta, flow, nc.Element(alg, xb), t)

    def check(y):
        if kind == "unitary":
            ref = refs.unitary_flow_average(xb, gen, terms, t)
        else:
            ref = refs.interpolation_flow_average(xb, _masks(labels), terms, t)
        err = max(np.abs(a - b).max() for a, b in zip(y.data, ref))
        return [] if err <= 1e-6 * max(1.0, refs.sup(xb)) else [f"flow average error {err}"]

    return Job(f"averaging/besicovitch-{kind}-t{t:g}", call, check, hash_parts)


def _conjugation_seeds(rng, limit: int, no_limit: int):
    """CLI seeds for the conjugation scenario, with their reference outcomes
    (seed, err, modulus), stratified by whether the trace has a limit at the
    tail (about a third of seeds do not), so each run has the same mix of
    the two paths whatever the benchmark seed."""
    found = {True: [], False: []}
    while len(found[True]) < limit or len(found[False]) < no_limit:
        s = int(rng.integers(0, 2 ** 31))
        err, modulus = _conjugation_fixture_outcome(s)
        if abs(modulus - 1e-3) < 1e-5:
            continue  # too close to the tolerance to predict the outcome
        found[modulus <= 1e-3].append((s, err, modulus))
    return found[True][:limit] + found[False][:no_limit]


def plan_averaging(seed: int) -> dict:
    return {"conjugation": _conjugation_seeds(
        refs.named_stream(seed, "perfbench/averaging/conjugation"), 1, 1)}


def build_averaging(seed: int, work: Path, plan: dict) -> List[Job]:
    # 24 jobs a round.  Sorted by cost: ten light library jobs; five of
    # about equal cost for every seed (three unitary flows at t = 4, the
    # 16x16 box average and the 8x6x4 prefix average), where the median
    # falls; six middle jobs; the interpolation flow, where the 90th
    # percentile falls; the two conjugation scenarios on top.  (The 8x6x4
    # prefix average is BLAS-bound, and its scaled time spreads most over
    # runs: taken to k = 1024 it set the 90th percentile, at a spread of
    # 0.13 over ten seeds.)
    rng = refs.named_stream(seed, "perfbench/averaging")
    small = ((6, 1.0), (4, 0.5))
    big = ((12, 1.0), (12, 1.0))
    jobs = [_box_job("unitary", small, (37, 23), rng),
            _box_job("unitary", ((3, 1.0), (3, 1.0), (2, 0.5)), (64, 16), rng),
            _box_job("unitary", ((2, 1.0), (2, 2.0)), (16, 16, 16), rng),
            _box_job("pinching", ((4, 1.0), (4, 0.5)), (50, 10), rng),
            _box_job("pinching", ((6, 1.0),), (20, 40), rng),
            _box_job("pinching", ((3, 1.0), (5, 0.5)), (30, 30), rng),
            _net_job("unitary", small, (1, 2, 4, 8, 16, 32, 64, 128, 256), rng, "matrix-prefix"),
            _net_job("unitary", ((3, 1.0), (3, 0.5)), (1, 4, 16, 64), rng, "matrix-prefix"),
            _net_job("pinching", ((5, 1.0), (3, 2.0)), (1, 3, 9, 27, 81), rng, "matrix-prefix"),
            _net_job("pinching", ((6, 1.0), (2, 1.0)), (1, 3, 9, 27, 81, 243), rng, "matrix-prefix")]
    jobs += [_flow_job("unitary", ((3, 1.0), (2, 0.5)), 4.0, rng) for _ in range(3)]
    jobs += [_flow_job("unitary", ((3, 1.0), (2, 0.5)), 8.0, rng) for _ in range(3)]
    jobs += [_net_job("unitary", big, (1, 4, 16, 64, 256), rng, "factorized-per-index"),
             _net_job("pinching", big, (1, 4, 16, 64, 256), rng, "factorized-per-index"),
             _net_job("unitary", ((8, 1.0), (6, 0.5), (4, 2.0)), (1, 4, 16, 64, 256), rng,
                      "matrix-prefix"),
             _box_job("unitary", ((16, 1.0),), (300, 200), rng)]
    jobs.append(_cli_besicovitch_job(int(rng.integers(0, 2 ** 31)), work))
    jobs.append(_flow_job("interpolation", ((4, 1.0),), 8.0, rng))
    jobs += [_cli_conjugation_job(s, err, modulus, work) for s, err, modulus in plan["conjugation"]]
    return jobs


# plan(seed): the choices of inputs that take a reference computation to
# make; run once, outside the timed set-up.  build(seed, work, plan): the
# inputs and jobs; timed as set-up.
PLANS = {"rearrange": lambda seed: None, "witness": lambda seed: None,
         "averaging": plan_averaging}
BUILDERS = {"rearrange": build_rearrange, "witness": build_witness,
            "averaging": build_averaging}
