"""Acceptance gate: the ten project-level criteria.

Each test prints one PASS/FAIL line (visible in the live pytest output)
and enforces its runtime budget.  Every suite builds a deterministic
textual report from a fixed seed; criterion 10 reruns the generators and
checks the reports are byte-identical.
"""

import hashlib
import itertools
import time

import numpy as np
import pytest

from conftest import BLOCK_CONFIGS, make_algebra, random_projection, \
    random_unitary_element
from ncergo import BlockExpectation, Composition, ConvexCombination, \
    Element, Pinching, Power, TracedAlgebra, UnitaryConjugation, \
    audit_submajorization, besicovitch_average, box_average, certify_cauchy, \
    clip_decompose, enlarge_projection, extract_limit, fava_decompose, \
    fava_support_trace, k_functional, lp_norm, mu, mu_at, remark32_model, \
    submajorizes, trace_deficiency, verify_ds, witness_convergence
from ncergo.algebra import projection_from_ranges
from ncergo.certify import FiniteTrace
from ncergo.ergodic import net_average_trace
from ncergo.fixtures import besicovitch_theta_fixture, \
    conjugation_d2_fixture, unitary_flow_fixture
from ncergo.rng import stream

SEED = 0x5EED_2026

_digests = {}


@pytest.fixture
def announce(capsys):
    def _announce(key, name, ok, elapsed, budget):
        with capsys.disabled():
            verdict = "PASS" if ok and elapsed <= budget else "FAIL"
            print(f"\n[acceptance {key}] {name}: {verdict} "
                  f"({elapsed:.2f}s / budget {budget:.0f}s)")
        assert ok
        assert elapsed <= budget
    return _announce


def _record(key, report):
    _digests[key] = hashlib.sha256(report.encode()).hexdigest()


def _fmt(x):
    return repr(float(x))


# -- criterion 1: mu oracle equivalence ---------------------------------------

def mu_oracle_report(seed):
    rng = stream(seed, "acceptance/mu-oracle")
    ok = True
    lines = []
    for i in range(200):
        a = make_algebra(BLOCK_CONFIGS[i % len(BLOCK_CONFIGS)])
        x = a.random_element(rng)
        # independent oracle: sorted singular values with weighted widths
        pairs = []
        for idx, (svals, (_, w)) in enumerate(zip(x.singular_values(),
                                                  a.blocks)):
            pairs.extend((float(v), idx, w) for v in svals)
        pairs.sort(key=lambda p: (-p[0], p[1]))
        cum = np.cumsum([w for _, _, w in pairs])

        def oracle(t):
            j = int(np.searchsorted(cum, t, side="right"))
            return pairs[j][0] if j < len(pairs) else 0.0

        grid = np.concatenate([rng.uniform(0.0, a.total_trace * 1.1, 9),
                               [0.0], cum[:-1]])
        worst = max(abs(mu_at(x, t) - oracle(t)) for t in grid)
        ok = ok and worst <= 1e-9
        norms = [lp_norm(x, p) for p in (1.0, 2.0, 3.0)]  # one spectrum; see test_singular
        lines.append(f"{i},{_fmt(worst)}," + ",".join(map(_fmt, norms)))
    return ok, "\n".join(lines)


def test_criterion_01_mu_oracle(announce):
    t0 = time.perf_counter()
    ok, report = mu_oracle_report(SEED)
    _record("01", report)
    announce("01", "mu oracle equivalence, 200 elements", ok,
             time.perf_counter() - t0, 10.0)


# -- criterion 2: contraction images sit below the input ----------------------

def _structural_op(rng, a, depth=0):
    kinds = 6 if depth == 0 else 3
    kind = int(rng.integers(0, kinds))
    if kind == 0:
        return UnitaryConjugation(random_unitary_element(rng, a))
    if kind == 1:
        bases_a, bases_b = [], []
        for d in a.dims:
            q = np.linalg.qr(rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)))[0]
            k = int(rng.integers(1, d + 1)) if d > 1 else 1
            bases_a.append(q[:, :k])
            bases_b.append(q[:, k:])
        p = projection_from_ranges(a, bases_a)
        q = projection_from_ranges(a, bases_b)
        return Pinching([p, q])
    if kind == 2:
        partition = []
        for d in a.dims:
            cut = int(rng.integers(1, d + 1))
            groups = [list(range(cut))]
            if cut < d:
                groups.append(list(range(cut, d)))
            partition.append(groups)
        return BlockExpectation(a, partition)
    if kind == 3:
        w = rng.uniform(0.1, 0.5, 2)
        return ConvexCombination([(w[0], _structural_op(rng, a, 1)),
                                  (w[1], _structural_op(rng, a, 1))])
    if kind == 4:
        return Composition([_structural_op(rng, a, 1),
                            _structural_op(rng, a, 1)])
    return Power(_structural_op(rng, a, 1), int(rng.integers(0, 7)))


def submajorization_report(seed):
    rng = stream(seed, "acceptance/submajorization")
    ok = True
    lines = []
    for i in range(500):
        a = make_algebra(BLOCK_CONFIGS[i % len(BLOCK_CONFIGS)])
        op = _structural_op(rng, a)
        cert = verify_ds(op)
        x = a.random_element(rng)
        good = cert.is_ds() and audit_submajorization(op, x, certificate=cert)
        ok = ok and good
        lines.append(f"{i},{type(op).__name__},{int(good)}")
    return ok, "\n".join(lines)


def test_criterion_02_submajorization(announce):
    t0 = time.perf_counter()
    ok, report = submajorization_report(SEED)
    _record("02", report)
    announce("02", "500 contraction images submajorized", ok,
             time.perf_counter() - t0, 30.0)


# -- criterion 3: projection enlargement bounds -------------------------------

def enlargement_report(seed):
    rng = stream(seed, "acceptance/enlargement")
    ok = True
    lines = []
    for i in range(500):
        a = make_algebra(BLOCK_CONFIGS[i % len(BLOCK_CONFIGS)])
        x = a.random_element(rng)
        e = random_projection(rng, a)
        exe = (e @ x @ e).sup_norm()
        f = enlarge_projection(x, e)  # postconditions asserted internally
        d_e, d_f = trace_deficiency(e), trace_deficiency(f)
        good = d_f <= 2.0 * d_e + 1e-9 and \
            (x @ f).sup_norm() <= exe + 1e-9 * max(1.0, x.sup_norm())
        ok = ok and good
        lines.append(f"{i},{_fmt(d_e)},{_fmt(d_f)},{int(good)}")
    return ok, "\n".join(lines)


def test_criterion_03_enlargement(announce):
    t0 = time.perf_counter()
    ok, report = enlargement_report(SEED)
    _record("03", report)
    announce("03", "500 projection enlargements within bounds", ok,
             time.perf_counter() - t0, 30.0)


# -- criterion 4: spectral splitting ------------------------------------------

def splitting_report(seed):
    rng = stream(seed, "acceptance/splitting")
    ok = True
    lines = []
    deltas = (0.05, 0.3, 1.0, 3.0)
    for i in range(200):
        a = make_algebra(BLOCK_CONFIGS[i % len(BLOCK_CONFIGS)])
        x = a.random_element(rng, selfadjoint=True)
        for delta in deltas:
            y, z = fava_decompose(x, delta)
            support = sum(
                w * int(np.count_nonzero(np.abs(np.linalg.eigvalsh(b)) > delta))
                for b, (_, w) in zip(x.data, a.blocks))
            good = (x - y - z).sup_norm() <= 1e-12 \
                and z.sup_norm() <= delta + 1e-12 \
                and abs(fava_support_trace(x, delta) - support) == 0.0
            ok = ok and good
            lines.append(f"{i},{_fmt(delta)},{_fmt(support)},{int(good)}")
    return ok, "\n".join(lines)


def test_criterion_04_splitting(announce):
    t0 = time.perf_counter()
    ok, report = splitting_report(SEED)
    _record("04", report)
    announce("04", "200 spectral splittings exact", ok,
             time.perf_counter() - t0, 10.0)


# -- criterion 5: K-functional clip optimality --------------------------------

def k_functional_report(seed):
    rng = stream(seed, "acceptance/k-functional")
    ok = True
    lines = []
    for i in range(100):
        a = make_algebra(BLOCK_CONFIGS[i % len(BLOCK_CONFIGS)])
        x = a.random_element(rng)
        for s in rng.uniform(0.05, a.total_trace, 3):
            k = k_functional(x, s)
            m = mu_at(x, s)
            y, z = clip_decompose(x, m)
            opt = lp_norm(y, 1) + s * z.sup_norm()
            good = abs(k - opt) <= 1e-9
            for level in rng.uniform(0.0, x.sup_norm() * 1.5, 100):
                y2, z2 = clip_decompose(x, level)
                good = good and k <= lp_norm(y2, 1) + s * z2.sup_norm() + 1e-9
            ok = ok and good
            lines.append(f"{i},{_fmt(s)},{_fmt(k)},{int(good)}")
    return ok, "\n".join(lines)


def test_criterion_05_k_functional(announce):
    t0 = time.perf_counter()
    ok, report = k_functional_report(SEED)
    _record("05", report)
    announce("05", "K-functional clip optimality, 100 elements", ok,
             time.perf_counter() - t0, 10.0)


# -- criterion 6: factorized box averages vs brute force ----------------------

def _commuting_family(a):
    d0 = a.dims[0]
    def diag_pinching(mask):
        p = Element(a, [np.diag(mask).astype(complex)], selfadjoint=True,
                    positive=True, projection=True)
        q = Element(a, [np.diag(1.0 - mask).astype(complex)],
                    selfadjoint=True, positive=True, projection=True)
        return Pinching([p, q])
    half = np.array([1.0] * (d0 // 2) + [0.0] * (d0 - d0 // 2))
    alt = np.array([float(i % 2) for i in range(d0)])
    u = Element(a, [np.diag(np.exp(1j * np.pi / 4
                                   * np.arange(d0))).astype(complex)])
    return [diag_pinching(half), diag_pinching(alt), UnitaryConjugation(u)]


def box_factorization_report(seed):
    rng = stream(seed, "acceptance/box-factorization")
    a = TracedAlgebra(((4, 1.0),))
    family = _commuting_family(a)
    ok = True
    lines = []
    # seeded sample of exponent boxes with product at most 4096, plus the
    # extreme corners, for d in {1, 2, 3}
    samples = [(4096,), (64, 64), (1, 4096), (16, 16, 16), (0, 5), (7, 0, 3)]
    while len(samples) < 40:
        d = int(rng.integers(1, 4))
        n = tuple(int(rng.integers(0, 17)) for _ in range(d))
        prod = 1
        for k in n:
            prod *= max(k, 1)
        if prod <= 4096:
            samples.append(n)
    def brute_sum(ops, x, n):
        # plain nested mixed-power sum over the whole box
        if not n:
            return x
        total = a.zero()
        y = x
        for _ in range(max(n[0], 1)):
            total = total + brute_sum(ops[1:], y, n[1:])
            y = ops[0].apply(y)
        return total

    for i, n in enumerate(samples):
        ops = family[:len(n)]
        x = a.random_element(rng)
        fast = box_average(ops, x, n)
        norm = 1
        for k in n:
            norm *= max(k, 1)
        gap = (fast - brute_sum(ops, x, n).scaled(1.0 / norm)).sup_norm()
        good = gap <= 1e-10
        ok = ok and good
        lines.append(f"{i},{n},{_fmt(gap)},{int(good)}")
    return ok, "\n".join(lines)


def test_criterion_06_box_factorization(announce):
    t0 = time.perf_counter()
    ok, report = box_factorization_report(SEED)
    _record("06", report)
    announce("06", "box average equals brute-force sum", ok,
             time.perf_counter() - t0, 60.0)


# -- criterion 7: two-parameter conjugation scenario --------------------------

def conjugation_scenario_report(seed):
    algebra, ops, x, net, oracle = conjugation_d2_fixture()
    trace = net_average_trace(ops, x, net, seed=seed)
    errs = {n[0]: (out - oracle).sup_norm()
            for n, out in zip(net.indices, trace.outputs)}
    final_ok = errs[10000] <= 1e-3
    ratio_ok = all(errs[2 * k] <= 0.6 * errs[k]
                   for k in errs if k >= 64 and 2 * k in errs)
    ftrace = FiniteTrace(tuple(trace.outputs))
    cauchy = certify_cauchy(ftrace, 0.05, mode="bau")
    limit, _ = extract_limit(ftrace)
    witness = witness_convergence(ftrace, limit, 0.05, mode="bau")
    submaj_ok = submajorizes(x, limit)
    ok = final_ok and ratio_ok and cauchy.certified and witness.certified \
        and submaj_ok
    report = trace.to_csv(reference=oracle) + cauchy.to_json() \
        + witness.to_json()
    return ok, report


def test_criterion_07_conjugation_scenario(announce):
    t0 = time.perf_counter()
    ok, report = conjugation_scenario_report(SEED)
    _record("07", report)
    announce("07", "two-parameter conjugation scenario certified", ok,
             time.perf_counter() - t0, 120.0)


# -- criterion 8: weighted flow averages ---------------------------------------

def besicovitch_report(seed):
    ok = True
    lines = []
    algebra, beta, flow, x, closed = besicovitch_theta_fixture()
    for t in (1.0, 10.0, 100.0):
        avg = besicovitch_average(beta, flow, x, t)
        gap = (avg - closed(t)).sup_norm()
        ok = ok and gap <= 1e-10
        lines.append(f"theta,{_fmt(t)},{_fmt(gap)}")

    algebra2, beta2, flow2, x2 = unitary_flow_fixture()
    t = 7.3
    avg = besicovitch_average(beta2, flow2, x2, t)
    # independent reference: fixed-resolution composite Simpson over apply
    m = 4096
    nodes = np.linspace(0.0, t, 2 * m + 1)
    vals = np.array([complex(beta2(s)) * flow2.apply(s, x2).vec()
                     for s in nodes])
    h = t / (2 * m)
    ref = (h / 3.0) * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum(axis=0)
                       + 2.0 * vals[2:-1:2].sum(axis=0)) / t
    gap = (avg - Element.from_vec(algebra2, ref)).sup_norm()
    ok = ok and gap <= 1e-10
    lines.append(f"unitary,{_fmt(t)},{_fmt(gap)}")
    return ok, "\n".join(lines)


def test_criterion_08_besicovitch(announce):
    t0 = time.perf_counter()
    ok, report = besicovitch_report(SEED)
    _record("08", report)
    announce("08", "weighted flow averages vs closed form and quadrature", ok,
             time.perf_counter() - t0, 60.0)


# -- criterion 9: blowing-up counterexample model -----------------------------

def counterexample_report(seed):
    algebra, trace, f = remark32_model(30)
    ok = all(lp_norm(fn, 1) == float(n)
             for n, fn in enumerate(trace.elements, start=1))
    ok = ok and lp_norm(f, 1) == 30.0
    lines = [f"norms,{int(ok)}"]
    for m in range(1, 11):
        cert = witness_convergence(trace, f, 2.0 ** (-m), mode="au")
        zero_tail = all(b == 0.0 for idx, b in cert.tail_bounds
                        if idx + 1 >= m)
        good = cert.certified and zero_tail \
            and cert.trace_deficiency <= 2.0 ** (-m) + 1e-12
        ok = ok and good
        lines.append(f"{m},{_fmt(cert.trace_deficiency)},{int(good)}")
    return ok, "\n".join(lines)


def test_criterion_09_counterexample(announce):
    t0 = time.perf_counter()
    ok, report = counterexample_report(SEED)
    _record("09", report)
    announce("09", "norm blowup with certified convergence", ok,
             time.perf_counter() - t0, 5.0)


# -- criterion 10: determinism ------------------------------------------------

GENERATORS = {
    "01": mu_oracle_report,
    "02": submajorization_report,
    "03": enlargement_report,
    "04": splitting_report,
    "05": k_functional_report,
    "06": box_factorization_report,
    "07": conjugation_scenario_report,
    "08": besicovitch_report,
    "09": counterexample_report,
}


def test_criterion_10_determinism(announce):
    t0 = time.perf_counter()
    ok = True
    for key, gen in GENERATORS.items():
        _, report = gen(SEED)
        digest = hashlib.sha256(report.encode()).hexdigest()
        if key not in _digests:  # running this test in isolation
            _, report2 = gen(SEED)
            _digests[key] = hashlib.sha256(report2.encode()).hexdigest()
        ok = ok and digest == _digests[key]
    announce("10", "byte-identical reports on rerun", ok,
             time.perf_counter() - t0, 120.0)
