import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import SEED, LAYOUTS, grouped_examples, \
    random_layout_element, random_projection, random_unitary_element, \
    reference_projection_blocks, same_bits, scaled_trace, spectrum_elements, \
    spectrum_examples, split_stacks, tail_weight
from ncergo import certify
from ncergo import Element, TracedAlgebra, UnitaryConjugation, \
    bilateral_to_onesided, certify_cauchy, enlarge_projection, \
    extract_limit, lp_norm, measure_metric, projection_meet, \
    remark32_model, spectral_projection_below, submajorizes, \
    trace_deficiency, witness_convergence
from ncergo.algebra import _MeetBuilder, complement_sums, meet_stacks, \
    stacked_singular_values
from ncergo.certify import FiniteTrace, WitnessCertificate, \
    _compressed_bounds, _levels, _search_witness, _term_spectra, _term_stacks
from ncergo.config import BUDGET_SLACK, RANK_REL, TAIL_TOL
from ncergo.ergodic import SectorNet, net_average_trace
from ncergo.errors import InvalidInputError, NoLimitError, PostconditionError
from ncergo.fixtures import conjugation_d2_fixture
from ncergo.rng import stream
from ncergo.singular import enlargements


_CONJUGATION_CACHE = {}


def compressed_bound(d, e, mode):
    """The bound of one difference against one projection, both elements."""
    return _compressed_bounds(_term_stacks([d]), e.stacks, mode)[0]


def conjugation_trace():
    if "trace" not in _CONJUGATION_CACHE:
        algebra, ops, x, net, oracle = conjugation_d2_fixture()
        trace = net_average_trace(ops, x, net)
        _CONJUGATION_CACHE["trace"] = (x, FiniteTrace(tuple(trace.outputs)),
                                       oracle)
    return _CONJUGATION_CACHE["trace"]


# -- certificate container ----------------------------------------------------

def test_certificate_validation():
    a = TracedAlgebra(((2, 1.0),))
    e = a.identity()
    with pytest.raises(InvalidInputError):
        WitnessCertificate("sideways", 0.1, e, 0.0, ((0, 0.0),),
                           "certified", 1)
    with pytest.raises(InvalidInputError):
        WitnessCertificate("au", 0.1, e, 0.2, ((0, 0.0),), "certified", 1)
    with pytest.raises(InvalidInputError):
        WitnessCertificate("au", 0.1, e, 0.0, ((0, -1.0),), "certified", 1)
    cert = WitnessCertificate("au", 0.1, e, 0.0, ((0, 0.5), (1, 0.25)),
                              "certified", 2)
    assert cert.certified
    payload = json.loads(cert.to_json())
    assert payload["tail_bounds"] == [[0, 0.5], [1, 0.25]]
    lines = cert.tail_csv().strip().splitlines()
    assert lines[0] == "index,bound"
    assert lines[1] == "0,0.5"


def test_certificate_refuses_a_non_projection():
    a = TracedAlgebra(((2, 1.0), (1, 0.5)))
    half = Element(a, [0.5 * np.eye(2), np.ones((1, 1))], selfadjoint=True)
    nilpotent = Element(a, [np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones((1, 1))])
    for e in (half, nilpotent, a.identity().scaled(-1.0)):
        with pytest.raises(InvalidInputError, match="flag fails verification"):
            WitnessCertificate("au", 0.1, e, 0.0, ((0, 0.0),), "certified", 1)
    # an unflagged projection is accepted, and carries its checked flags
    unflagged = Element(a, [np.diag([1.0, 0.0]), np.ones((1, 1))])
    cert = WitnessCertificate("au", 0.6, unflagged, 0.5, ((0, 0.0),),
                              "certified", 1)
    assert cert.projection.projection is True


def test_finite_trace_validation():
    a = TracedAlgebra(((2, 1.0),))
    b = TracedAlgebra(((3, 1.0),))
    with pytest.raises(InvalidInputError):
        FiniteTrace(())
    with pytest.raises(InvalidInputError):
        FiniteTrace((a.identity(), b.identity()))
    assert len(FiniteTrace((a.identity(),))) == 1


# -- witness search -----------------------------------------------------------

def test_witness_reciprocal_trace():
    """The terms 1/n run until the last bound is within ``TAIL_TOL``."""
    a = TracedAlgebra(((3, 1.0),))
    horizon = math.ceil(1.0 / TAIL_TOL)
    terms = tuple(a.identity().scaled(1.0 / n) for n in range(1, horizon + 1))
    cert = witness_convergence(FiniteTrace(terms), a.zero(), 0.5, mode="au")
    assert cert.certified
    assert (cert.projection - a.identity()).sup_norm() < 1e-10
    assert cert.trace_deficiency == pytest.approx(0.0)
    for n, (idx, bound) in enumerate(cert.tail_bounds, start=1):
        assert bound == pytest.approx(1.0 / n)


def test_witness_alternating_trace_refuted():
    a = TracedAlgebra(((2, 1.0),))
    terms = tuple(a.identity().scaled((-1.0) ** n) for n in range(8))
    cert = witness_convergence(FiniteTrace(terms), a.zero(), 0.5)
    assert cert.verdict == "refuted-at-horizon"
    assert min(b for _, b in cert.tail_bounds) >= 0.5


def test_witness_degenerate_budget():
    a = TracedAlgebra(((2, 1.0),))
    terms = (a.identity(),)
    cert = witness_convergence(FiniteTrace(terms), a.zero(), 10.0)
    assert cert.certified
    assert cert.projection.sup_norm() == 0.0
    assert "degenerate" in cert.notes
    with pytest.raises(InvalidInputError):
        witness_convergence(FiniteTrace(terms), a.zero(), 0.0)


@pytest.mark.parametrize("epsilon", [math.nan, -0.5])
def test_budget_that_is_not_positive_is_refused(epsilon):
    """NaN fails every comparison, so a test written as epsilon <= 0 lets
    it through to a certified verdict."""
    a = TracedAlgebra(((2, 1.0),))
    trace = FiniteTrace(tuple(a.identity().scaled(1.0 / n) for n in range(1, 5)))
    with pytest.raises(InvalidInputError, match="epsilon"):
        witness_convergence(trace, a.zero(), epsilon)
    with pytest.raises(InvalidInputError, match="epsilon"):
        certify_cauchy(trace, epsilon)


def test_infinite_budget_is_the_degenerate_zero_witness():
    a = TracedAlgebra(((2, 1.0),))
    trace = FiniteTrace(tuple(a.identity().scaled(1.0 / n) for n in range(1, 5)))
    for cert in (witness_convergence(trace, a.zero(), math.inf),
                 certify_cauchy(trace, math.inf)):
        assert cert.certified and "degenerate" in cert.notes
        assert cert.projection.sup_norm() == 0.0


def test_witness_au_bounds_dominate_bau():
    x, trace, oracle = conjugation_trace()
    cert = witness_convergence(trace, oracle, 0.05, mode="au")
    e = cert.projection
    for (idx, bound), term in zip(cert.tail_bounds, trace.elements):
        d = oracle - term
        assert (e @ d @ e).sup_norm() <= bound + 1e-9


def test_remark32_model_norms():
    algebra, trace, f = remark32_model(30)
    for n, fn in enumerate(trace.elements, start=1):
        assert lp_norm(fn, 1) == pytest.approx(float(n))
    assert lp_norm(f, 1) == pytest.approx(30.0)
    with pytest.raises(InvalidInputError):
        remark32_model(0)


def test_remark32_witness_zero_tails():
    algebra, trace, f = remark32_model(12)
    for m in (2, 5, 8):
        cert = witness_convergence(trace, f, 2.0 ** (-m), mode="au")
        assert cert.certified
        assert cert.trace_deficiency <= 2.0 ** (-m) + 1e-12
        for idx, bound in cert.tail_bounds:
            if idx + 1 >= m:
                assert bound == 0.0


# -- Cauchy certification -----------------------------------------------------

def test_cauchy_constant_trace():
    a = TracedAlgebra(((2, 1.0),))
    rng = stream(SEED, "test/certify/constant")
    x = a.random_element(rng)
    cert = certify_cauchy(FiniteTrace((x, x, x)), 0.1)
    assert cert.certified
    assert all(b == 0.0 for _, b in cert.tail_bounds)
    assert (cert.projection - a.identity()).sup_norm() < 1e-10


def test_cauchy_outlier_refuted():
    a = TracedAlgebra(((2, 1.0),))
    terms = [a.identity().scaled(1.0 / n) for n in range(1, 8)]
    terms.append(a.identity().scaled(50.0))
    cert = certify_cauchy(FiniteTrace(tuple(terms)), 0.5)
    assert cert.verdict == "refuted-at-horizon"


def test_cauchy_conjugation_trace():
    x, trace, oracle = conjugation_trace()
    cert = certify_cauchy(trace, 0.05, mode="bau")
    assert cert.certified
    bounds = [b for _, b in cert.tail_bounds]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


def test_cauchy_single_element():
    a = TracedAlgebra(((2, 1.0),))
    cert = certify_cauchy(FiniteTrace((a.identity(),)), 0.1)
    assert cert.certified and cert.horizon == 1


# -- bilateral to one-sided upgrade -------------------------------------------

def test_upgrade_zero_differences():
    a = TracedAlgebra(((2, 1.0),))
    x = a.random_element(stream(SEED, "test/certify/upgrade-zero"))
    trace = FiniteTrace((x, x, x))
    bau = certify_cauchy(trace, 0.1, mode="bau")
    au = bilateral_to_onesided(trace, bau)
    assert au.mode == "au"
    assert all(b == 0.0 for _, b in au.tail_bounds)
    assert au.trace_deficiency <= 2.0 * bau.trace_deficiency + 1e-9


def test_upgrade_conjugation_trace():
    x, trace, oracle = conjugation_trace()
    bau = certify_cauchy(trace, 0.05, mode="bau")
    au = bilateral_to_onesided(trace, bau)
    assert au.epsilon == pytest.approx(2.0 * bau.epsilon)
    assert au.trace_deficiency <= 2.0 * bau.trace_deficiency + 1e-9
    e = bau.projection
    for (idx, bound), (i, j) in zip(au.tail_bounds,
                                    zip(range(len(trace) - 1),
                                        range(1, len(trace)))):
        d = trace.elements[j] - trace.elements[i]
        assert bound <= (e @ d @ e).sup_norm() + 1e-9


def test_upgrade_requires_bilateral_input():
    a = TracedAlgebra(((2, 1.0),))
    trace = FiniteTrace((a.identity(),))
    au = certify_cauchy(trace, 0.1, mode="au")
    with pytest.raises(InvalidInputError):
        bilateral_to_onesided(trace, au)


# -- limit extraction ---------------------------------------------------------

def test_extract_limit_constant():
    a = TracedAlgebra(((2, 1.0),))
    x = a.random_element(stream(SEED, "test/certify/limit-const"))
    limit, moduli = extract_limit(FiniteTrace((x, x, x)))
    assert (limit - x).sup_norm() == 0.0
    assert all(m == 0.0 for m in moduli)


def test_extract_limit_geometric():
    a = TracedAlgebra(((2, 1.0),))
    x = a.random_element(stream(SEED, "test/certify/limit-geom"))
    terms = tuple(x.scaled(1.0 - 2.0 ** (-n)) for n in range(1, 18))
    limit, moduli = extract_limit(FiniteTrace(terms))
    assert (limit - terms[-1]).sup_norm() == 0.0
    assert moduli[-1] <= 2.0 ** (-16) * x.sup_norm()


def test_extract_limit_alternating_fails():
    a = TracedAlgebra(((2, 1.0),))
    terms = tuple(a.identity().scaled((-1.0) ** n) for n in range(8))
    with pytest.raises(NoLimitError):
        extract_limit(FiniteTrace(terms))


def pair_table_moduli(elements):
    """extract_limit's moduli from one measure_metric call per pair."""
    n = len(elements)
    pair = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            pair[a, b] = measure_metric(elements[a], elements[b])
    return [float(pair[j:, j:].max()) for j in range(n - 1)]


@pytest.mark.parametrize("n", [13, 24])  # the first n with a limit, and more
def test_extract_limit_remark32_moduli_equal_pair_table(n):
    _, trace, _ = remark32_model(n)
    assert extract_limit(trace)[1] == pair_table_moduli(trace.elements)


@spectrum_examples
@example(layout=((5, 0.1), (1, 0.3), (1, 2.0)), seed=1, zero_block=None)
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_extract_limit_moduli_equal_pair_table(layout, seed, zero_block):
    # both paths sort and sum alike, so even non-dyadic weights agree
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/certify/extract-rows")
    # a random head, then a constant tail so that a limit is found
    xs = spectrum_elements(rng, a, zero_block) \
        + [random_layout_element(rng, a)] * 3
    assert extract_limit(FiniteTrace(tuple(xs)))[1] == pair_table_moduli(xs)


def test_extract_limit_makes_no_element_and_one_svd_per_group_row(
        monkeypatch):
    _, remark32, _ = remark32_model(40)
    a = TracedAlgebra(((2, 1.0), (1, 0.5), (2, 0.25), (1, 2.0), (3, 1.0)))
    rng = stream(SEED, "test/certify/extract-count")
    x, y = random_layout_element(rng, a), random_layout_element(rng, a)
    mixed = FiniteTrace(tuple(x + y.scaled(2.0 ** -k) for k in range(20, 26)))
    elements, svds = [], []
    init, svd = Element.__init__, np.linalg.svd

    def counted_init(self, *args, **kwargs):
        elements.append(1)
        init(self, *args, **kwargs)

    def counted_svd(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)
    monkeypatch.setattr(Element, "__init__", counted_init)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    counts = []
    for trace in (remark32, mixed):
        elements.clear()
        svds.clear()
        extract_limit(trace)
        assert elements == []
        assert len(svds) <= (len(trace) - 1) * len(trace.algebra.groups)
        counts.append(len(svds))
    # real 1x1 blocks (remark32) take their modulus; complex 1x1 blocks
    # are factorized too: every group, every row
    assert counts == [0, 5 * 3]


@pytest.mark.parametrize("mode", ["au", "bau"])
def test_remark32_past_the_lapack_range_factorizes_nothing(monkeypatch, mode):
    """remark32_model(12) scaled by 2^470, whose values lie past 2^459,
    where LAPACK rescales a block: the witness search takes each real 1x1
    modulus itself, with no np.linalg.svd call, and finds the unscaled
    run's witness, so the deficiency is equal and the bounds are 2^470
    times the unscaled ones, bit for bit."""
    _, trace, limit = remark32_model(12)
    scaled = FiniteTrace(tuple(x.scaled(2.0 ** 470) for x in trace.elements))
    svds = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    want = witness_convergence(trace, limit, 2.0 ** -5, mode)
    got = witness_convergence(scaled, limit.scaled(2.0 ** 470), 2.0 ** -5, mode)
    assert svds == []
    assert got.trace_deficiency == want.trace_deficiency
    assert all(same_bits(g, w) for g, w in zip(got.projection.stacks, want.projection.stacks))
    assert same_bits([b for _, b in got.tail_bounds],
                     np.ldexp([b for _, b in want.tail_bounds], 470))


# -- flat-spectrum readers against the scalar loops ----------------------------

def tail_weight_reference(d, level):
    cut = level + RANK_REL * max(d.sup_norm(), 1.0)
    total = 0.0
    for s, w in zip(d.singular_values(), d.algebra.weights):
        total += w * int(np.count_nonzero(s > cut))
    return total


def distinct_levels_reference(d):
    svals = np.concatenate(d.singular_values())
    levels = sorted({round(float(s), 14) for s in svals if s > 0},
                    reverse=True)
    levels.append(0.0)
    return levels


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_tail_weight_and_levels_equal_scalar_loops(layout, seed, zero_block):
    # LAYOUTS weights are dyadic, so the reference's per-block sum and the
    # running sum in rearrangement order are both exact
    a = TracedAlgebra(layout)
    for d in spectrum_elements(stream(seed, "test/certify/flat"), a,
                               zero_block):
        levels = _levels(d.flat_spectrum()[0])
        assert levels == distinct_levels_reference(d)
        slack = RANK_REL * max(d.sup_norm(), 1.0)
        svals = d.flat_spectrum()[0].tolist()
        probes = levels + svals + [s - slack for s in svals] + [-1.0]
        for level in probes:
            assert tail_weight(d, level) == tail_weight_reference(d, level)
        assert tail_weight(d, probes).tolist() \
            == [tail_weight_reference(d, lv) for lv in probes]


def test_tail_weight_cut_equal_to_a_singular_value():
    level = 0.25
    cut = level + RANK_REL  # the sup norm is below 1
    a = TracedAlgebra(((1, 0.5), (1, 0.25), (1, 2.0), (1, 1.0)))
    d = Element(a, [np.array([[v]]) for v in (cut, 0.5, cut, 0.1)])
    assert cut in d.flat_spectrum()[0]
    assert tail_weight(d, level) == tail_weight_reference(d, level) == 0.25


def test_tail_weight_non_dyadic_within_one_ulp_of_block_order():
    # the running sum adds weights in descending-value order, the loop in
    # block order; with non-dyadic weights the two differ in the last bit
    a = TracedAlgebra(((1, 0.1), (1, 0.2), (1, 0.3)))
    diffs = set()
    for values in itertools.permutations((0.4, 0.3, 0.2)):
        d = Element(a, [np.array([[v]]) for v in values])
        for level in (0.5, 0.35, 0.25, 0.1, 0.0):
            got, want = tail_weight(d, level), tail_weight_reference(d, level)
            assert abs(got - want) <= np.spacing(want)
            diffs.add(got != want)
    assert diffs == {False, True}


# -- end-to-end pipeline ------------------------------------------------------

def test_pipeline_average_to_certified_limit():
    """Average along the net, certify Cauchy, extract the limit, certify
    convergence to it, and confirm the limit sits below the input."""
    x, trace, oracle = conjugation_trace()
    cauchy = certify_cauchy(trace, 0.05, mode="bau")
    assert cauchy.certified
    limit, moduli = extract_limit(trace)
    witness = witness_convergence(trace, limit, 0.05, mode="bau")
    assert witness.certified
    assert submajorizes(x, limit)
    upgraded = bilateral_to_onesided(trace, cauchy)
    assert upgraded.certified


# -- grouped (stacked) search steps against the per-block loop -----------------

@grouped_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_grouped_meet_equals_per_block(layout, seed, zero_block):
    """The grouped meet (a mask on 1x1 groups) equals the mask rule on one
    ``eigh`` per block bit for bit, and the QR route it replaced up to
    rounding."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/certify/grouped-meet")
    projections = [random_projection(rng, a, min_rank=1) for _ in range(3)]
    if zero_block is not None:
        projections.append(a.zero())
    builder = _MeetBuilder([p.stacks for p in projections])
    sums = [None] * len(a.dims)
    for g, stack in zip(a.groups, builder._sums):
        for i, s in zip(g, stack):
            sums[i] = s
    blocks, bases = [], []
    for s in sums:
        w, v = np.linalg.eigh((s + s.conj().T) / 2)
        keep = w < 1e-7 * len(projections)
        blocks.append((v * keep) @ v.conj().T)
        bases.append(v[:, keep])
    meet = split_stacks(a, builder.meet())
    for got, want in zip(meet, blocks):
        assert np.array_equal(got, want)
    for got, old in zip(meet, reference_projection_blocks(a, bases, sliced=True)):
        assert np.abs(got - old).max(initial=0.0) <= 1e-12
    pair = projections[-2:]  # with the zero element, if there is one
    for got, want in zip(projection_meet(*pair).stacks,
                         _MeetBuilder([p.stacks for p in pair]).meet()):
        assert np.array_equal(got, want)


@grouped_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_grouped_bounds_equal_per_term(layout, seed, zero_block):
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/certify/grouped-bounds")
    terms = [random_layout_element(rng, a, zero_block) for _ in range(4)]
    terms.append(a.zero())
    for e in (random_projection(rng, a), a.identity(), a.zero()):
        for mode in ("au", "bau"):
            assert _compressed_bounds(_term_stacks(terms), e.stacks, mode) \
                == [compressed_bound(d, e, mode) for d in terms]


@grouped_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_cauchy_pair_rows_equal_per_pair(layout, seed, zero_block):
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/certify/grouped-cauchy")
    xs = [random_layout_element(rng, a, zero_block) for _ in range(4)]
    for mode in ("au", "bau"):
        cert = certify_cauchy(FiniteTrace(tuple(xs)),
                              0.3 * a.total_trace, mode)
        pair = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                pair[i, j] = compressed_bound(xs[j] - xs[i],
                                               cert.projection, mode)
        assert [b for _, b in cert.tail_bounds] \
            == [float(pair[j:, j:].max()) for j in range(3)]


def test_witness_search_reports_iteration_cap(monkeypatch):
    algebra, trace, f = remark32_model(12)
    differences = [f - x for x in trace.elements]
    *_, cap_hit = _search_witness(algebra, _term_stacks(differences), 2.0 ** -5,
                                  "au", max_iter=1)
    assert cap_hit
    *_, cap_hit = _search_witness(algebra, _term_stacks(differences), 2.0 ** -5, "au")
    assert not cap_hit
    cert = witness_convergence(trace, f, 2.0 ** -5, mode="au")
    assert "iteration_cap_hit" not in cert.notes
    capped = lambda *args: _search_witness(*args, max_iter=1)
    monkeypatch.setattr(certify, "_search_witness", capped)
    cert = witness_convergence(trace, f, 2.0 ** -5, mode="au")
    assert json.loads(cert.to_json())["notes"]["iteration_cap_hit"] is True
    cauchy = certify_cauchy(trace, 2.0 ** -5, mode="bau")
    assert cauchy.notes["iteration_cap_hit"] is True


def test_bad_mode_is_refused_before_the_search(monkeypatch):
    """Both certificate searches check ``mode`` before any spectral cut (a
    mask of the search's stacks); the degenerate paths, which run no search,
    leave it to the certificate."""
    algebra, trace, f = remark32_model(6)
    cuts = [0]

    def counting(*args, _cut=certify.masked_stacks):
        cuts[0] += 1
        return _cut(*args)
    monkeypatch.setattr(certify, "masked_stacks", counting)
    for search in (lambda: certify_cauchy(trace, 2.0 ** -5, mode="sideways"),
                   lambda: witness_convergence(trace, f, 2.0 ** -5, mode="sideways"),
                   lambda: certify_cauchy(trace, 10.0, mode="sideways"),
                   lambda: witness_convergence(trace, f, 10.0, mode="sideways")):
        with pytest.raises(InvalidInputError, match="mode"):
            search()
    assert cuts[0] == 0


# -- the stack search against the element route it replaced -------------------

def element_search(algebra, stacks, epsilon, mode, max_iter=600):
    """The greedy witness search as it ran on elements: one unflagged element
    per difference, its spectrum computed alone, levels by ``np.unique``, one
    ``spectral_projection_below`` element per cut and one element per trial
    meet.  The oracle of ``_search_witness``, which holds all of them as
    group stacks."""
    if mode not in ("au", "bau"):
        raise InvalidInputError("mode must be 'au' or 'bau'")
    differences = [Element._from_stacks(algebra, [s[t] for s in stacks])
                   for t in range(len(stacks[0]))]
    levels = []
    cursor = []
    for n, d in enumerate(differences):
        values, _, cumulative = d.flat_spectrum()
        distinct = np.unique(values[values > 0])[::-1].tolist()
        levels.append([*dict.fromkeys(round(v, 14) for v in distinct), 0.0])
        cut = np.asarray(levels[n]) + RANK_REL * max(d.sup_norm(), 1.0)
        weights = cumulative[np.searchsorted(-values, -cut)]
        cursor.append(max(int((weights <= epsilon * 2.0 ** (-(n + 1))).sum()) - 1, 0))

    def meet(projections, sums):
        return Element._from_stacks(algebra, meet_stacks(sums, len(projections)),
                                    True, True, True)

    def worst_open_term():
        order = sorted(range(len(differences)), key=lambda n: -bounds[n])
        return next((n for n in order if not stuck[n] and bounds[n] > 0), None)

    projections = [spectral_projection_below(differences[n], levels[n][k])
                   for n, k in enumerate(cursor)]
    sums = complement_sums([p.stacks for p in projections])
    e = meet(projections, sums)
    if trace_deficiency(e) > epsilon + BUDGET_SLACK:
        raise PostconditionError("initial witness exceeds the trace budget")
    bounds = _compressed_bounds(stacks, e.stacks, mode)
    stuck = [k + 1 >= len(lvs) for k, lvs in zip(cursor, levels)]
    cap_hit = False
    for _ in range(max_iter):
        target = worst_open_term()
        if target is None:
            break
        candidate = spectral_projection_below(differences[target],
                                              levels[target][cursor[target] + 1])
        trial_sums = [s + (old - new) for s, old, new in
                      zip(sums, projections[target].stacks, candidate.stacks)]
        e_trial = meet(projections, trial_sums)
        if trace_deficiency(e_trial) <= epsilon + BUDGET_SLACK:
            sums, projections[target] = trial_sums, candidate
            cursor[target] += 1
            e = e_trial
            bounds = _compressed_bounds(stacks, e.stacks, mode)
            if cursor[target] + 1 >= len(levels[target]):
                stuck[target] = True
        else:
            stuck[target] = True
    else:
        cap_hit = worst_open_term() is not None
    return e, trace_deficiency(e), bounds, cap_hit


def search_outcome(search, *args, **kwargs):
    """A search's result, or the message of the postcondition it raised."""
    try:
        return search(*args, **kwargs)
    except PostconditionError as exc:
        return str(exc)


def assert_same_search(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert all(same_bits(g, w) for g, w in zip(got[0].stacks, want[0].stacks))
    assert (got[0].selfadjoint, got[0].positive, got[0].projection) == (True,) * 3
    assert got[1:] == want[1:]  # deficiency, bounds and cap_hit, floats exactly


@spectrum_examples
@example(layout=((1, 0.5), (1, 1.0), (1, 2.0), (1, 0.25)), seed=5, zero_block=2)
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_stack_search_equals_the_element_route(layout, seed, zero_block):
    """``witness_convergence`` and ``certify_cauchy`` in both modes, and
    ``_search_witness`` on their differences capped at one iteration and on
    a near-tied term alone, equal the element route bit for bit: projection
    stacks, deficiency, bounds and cap_hit (the certificates by their JSON).
    The traces hold zero, tied, near-tied and projection terms; the budgets
    run from the smallest block weight times 2^-40 (direct searches only) to
    just under tau(1), the degenerate edge."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/certify/stack-search")
    x, tied, p, zero = spectrum_elements(rng, a, zero_block)
    # norm below 1 and distinct singular values 0.6 cut slacks apart: each
    # cut's slack, floored at 1, takes in exactly the next value above its level
    steps = 0.5 + 0.6 * RANK_REL * np.arange(sum(a.dims))
    near = Element(a, [np.diag(v) for v in np.split(steps, np.cumsum(a.dims)[:-1])])
    trace = FiniteTrace((x, tied, p, zero, near, tied))
    stacks = _term_stacks(trace.elements)
    searches = [([f - xs for f, xs in zip(p.stacks, stacks)], 1),
                ([xs[1:] - xs[:-1] for xs in stacks], 1), ([s[None] for s in near.stacks], 600)]
    total = a.total_trace
    for epsilon in (min(a.weights) * 2.0 ** -40, 0.3 * total, np.nextafter(total, 0.0)):
        for mode in ("au", "bau"):
            for terms, cap in searches:
                assert_same_search(
                    search_outcome(_search_witness, a, terms, epsilon, mode, max_iter=cap),
                    search_outcome(element_search, a, terms, epsilon, mode, max_iter=cap))
            if epsilon < min(a.weights):  # no cut fits; the searches above show it
                continue
            certificates = []
            for search in (_search_witness, element_search):
                with mock.patch.object(certify, "_search_witness", search):
                    certificates.append([
                        search_outcome(witness_convergence, trace, p, epsilon, mode),
                        search_outcome(certify_cauchy, trace, epsilon, mode)])
            for got, want in zip(*certificates):
                if isinstance(want, str):
                    assert got == want
                else:
                    assert_same_certificate(got, want)


def test_the_search_builds_one_element_whatever_its_iterations(monkeypatch):
    """``_search_witness`` freezes one element per call, the projection it
    returns, at every iteration count; the element route froze one per
    difference, cut and trial meet.  Its results equal that route's."""
    frozen, trials = [], []
    freeze, with_swap = Element._freeze, _MeetBuilder.with_swap

    def counted_freeze(self, *args, **kwargs):
        frozen.append(self)
        return freeze(self, *args, **kwargs)

    def counted_swap(self, *args):
        trials.append(1)
        return with_swap(self, *args)
    monkeypatch.setattr(Element, "_freeze", counted_freeze)
    monkeypatch.setattr(_MeetBuilder, "with_swap", counted_swap)
    algebra, trace, f = remark32_model(24)
    cesaro = few_block_cesaro_trace()
    cases = [(algebra, [a - xs for a, xs in zip(f.stacks, _term_stacks(trace.elements))]),
             (cesaro.algebra, [xs[1:] - xs[:-1] for xs in _term_stacks(cesaro.elements)])]
    iterations = set()
    for (a, stacks), mode, max_iter in itertools.product(cases, ("au", "bau"), (0, 1, 600)):
        trials.clear()
        frozen.clear()
        got = _search_witness(a, stacks, 2.0 ** -5, mode, max_iter)
        assert frozen == [got[0]]
        iterations.add(len(trials))
        frozen.clear()
        assert_same_search(got, element_search(a, stacks, 2.0 ** -5, mode, max_iter))
        assert len(frozen) > len(stacks[0])
    assert {0, 1} < iterations and max(iterations) > 10


# -- the trust boundary: one flag check per emitted witness -------------------

def projection_checks(monkeypatch):
    """A list that gains every element whose flags are verified with the
    projection flag set, from now on."""
    checked = []
    verify = Element._verify_flags

    def counting(self):
        if self.projection:
            checked.append(self)
        verify(self)
    monkeypatch.setattr(Element, "_verify_flags", counting)
    return checked


def through_checking_constructor(monkeypatch):
    """Route every trusted build through the public, checking constructor,
    which takes the blocks of the trusted build's group stacks and its flags."""
    monkeypatch.setattr(Element, "_from_stacks", classmethod(
        lambda cls, algebra, stacks, selfadjoint=None, positive=None,
        projection=None: cls(algebra, split_stacks(algebra, stacks),
                             selfadjoint=selfadjoint, positive=positive,
                             projection=projection)))


def few_block_cesaro_trace():
    a = TracedAlgebra(((2, 1.0), (1, 0.5), (3, 0.25)))
    rng = stream(SEED, "test/certify/few-block-cesaro")
    op = UnitaryConjugation(random_unitary_element(rng, a))
    x = a.random_element(rng, selfadjoint=True)
    net = SectorNet(1, tuple((k,) for k in (1, 2, 4, 8, 16, 32, 64)))
    return FiniteTrace(tuple(net_average_trace([op], x, net).outputs))


def assert_same_certificate(got, want):
    assert got.to_json() == want.to_json()
    assert all(np.array_equal(g, w) for g, w
               in zip(got.projection.data, want.projection.data))


def test_cauchy_checks_only_the_emitted_witness(monkeypatch):
    algebra, trace, f = remark32_model(24)
    checked = projection_checks(monkeypatch)
    cert = certify_cauchy(trace, 2.0 ** -5, mode="bau")
    assert len(checked) == 1
    assert np.array_equal(checked[0].data, cert.projection.data)
    through_checking_constructor(monkeypatch)
    assert_same_certificate(cert, certify_cauchy(trace, 2.0 ** -5, mode="bau"))
    assert len(checked) > 2  # the trusted path saved real checks


def test_upgrade_checks_only_the_emitted_witness(monkeypatch):
    trace = few_block_cesaro_trace()
    bau = certify_cauchy(trace, 0.6, mode="bau")
    checked = projection_checks(monkeypatch)
    au = bilateral_to_onesided(trace, bau)
    assert len(checked) == 1
    # the enlargements cut: a meet of two proper projections per index
    assert au.trace_deficiency > bau.trace_deficiency > 0.0
    through_checking_constructor(monkeypatch)
    assert_same_certificate(au, bilateral_to_onesided(
        trace, certify_cauchy(trace, 0.6, mode="bau")))
    assert len(checked) > 2


@spectrum_examples
@example(layout=((1, 0.5), (1, 1.0), (1, 2.0), (1, 0.25)), seed=5, zero_block=2)
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_checking_constructor_accepts_every_masked_projection(
        layout, seed, zero_block):
    """Every output of the mask rule, built trusted, passes the public
    constructor with all three flags: spectral cuts at random levels and at
    levels equal to a singular value, meets (also after swaps),
    ``projection_meet`` and ``enlarge_projection`` of each element and each
    of its cuts, on 1x1 (complex), multi-member and singleton groups, zero
    blocks, ties and zero elements."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/certify/trusted-masked")
    cuts, enlarged = [], []
    for x in spectrum_elements(rng, a, zero_block):
        values = x.flat_spectrum()[0]
        top = max(x.sup_norm(), 1e-3)
        levels = [*values[::max(1, len(values) // 4)], 0.0,
                  *rng.uniform(0.0, 1.5 * top, size=3)]
        own = [spectral_projection_below(x, float(v)) for v in levels]
        cuts += own
        enlarged += [enlarge_projection(x, e) for e in own]
    builder = _MeetBuilder([p.stacks for p in cuts[:3]])
    meets = [builder.meet()]
    for n, p in enumerate(cuts[3:9]):
        meet, sums = builder.with_swap(n % 3, p.stacks)
        builder.commit(n % 3, p.stacks, sums)
        meets.append(meet)
    outputs = cuts + [Element._from_stacks(a, m, True, True, True) for m in meets]
    outputs += [projection_meet(p, q) for p, q in zip(cuts[::3], cuts[1::3])]
    outputs += enlarged
    for e in outputs:
        assert (e.selfadjoint, e.positive, e.projection) == (True, True, True)
        checked = Element(a, e.data, selfadjoint=True, positive=True,
                          projection=True)
        assert all(np.array_equal(c, b) for c, b in zip(checked.data, e.data))


def test_mask_searches_make_no_qr_and_no_vectors_on_1x1_blocks(monkeypatch):
    """On remark32's 1x1 blocks the witness search cuts and meets by masks,
    with no QR, ``eigh`` or SVD with vectors; on a few-large-block layout,
    where it needs vectors, it still makes no QR."""
    calls = []
    for name in ("qr", "eigh", "svd"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            if _name != "svd" or kwargs.get("compute_uv", True):
                calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    _, trace, limit = remark32_model(24)
    cert = witness_convergence(trace, limit, 2.0 ** -10, mode="au")
    assert cert.certified and calls == []
    a = TracedAlgebra(((10, 1.0), (6, 0.5)))
    rng = stream(SEED, "test/certify/no-qr")
    x, y = a.random_element(rng), a.random_element(rng)
    cauchy = FiniteTrace(tuple(x + y.scaled(2.0 ** -k) for k in range(8)))
    cert = certify_cauchy(cauchy, 0.5, mode="bau")
    assert cert.trace_deficiency > 0.0
    assert "qr" not in calls and "svd" in calls and "eigh" in calls


# -- the batched routes against the per-index rule -----------------------------

def per_index_enlargement(x, e):
    """The enlargement of x against e as it reads on elements: the meet of
    e with the spectral projection of |x e| at ||e x e||."""
    xe = x @ e
    return projection_meet(e, spectral_projection_below(xe, (e @ xe).sup_norm()))


def mixed_1x1_trace(rng):
    """A trace on 1x1 blocks whose differences mix real and complex terms,
    with values in and out of the range where LAPACK rescales."""
    a = TracedAlgebra(((1, 0.5), (1, 1.0), (1, 2.0)))
    values = [[1.0, -2.0, 0.0], [1.0, 2.0 + 1e-3j, 1e-200], [0.5, 2.0 + 1e-3j, 1e-200],
              [0.5, 1j, 3e200], [0.5, 1j, 3e200]]
    values.append(list(rng.standard_normal(3)))
    return a, [Element(a, [np.array([[v]], dtype=complex) for v in row]) for row in values]


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_batched_upgrade_equals_per_index_rule(layout, seed, zero_block):
    """``bilateral_to_onesided`` and ``enlargements`` over all indices equal
    the per-index rule bit for bit: each projection, bound and deficiency,
    and ``enlarge_projection`` of each difference.  The trace has a zero
    difference, ties within and across blocks, and a zero element."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/certify/batched-upgrade")
    x, tied, p, zero = spectrum_elements(rng, a, zero_block)
    trace = FiniteTrace((x, x, tied, p, zero, x.scaled(0.5)))
    diffs = [trace.elements[i + 1] - trace.elements[i] for i in range(len(trace) - 1)]
    for e in (random_projection(rng, a), a.identity(), p,
              certify_cauchy(trace, 0.3 * a.total_trace, mode="bau").projection):
        e = e.as_projection()
        fs = [per_index_enlargement(d, e) for d in diffs]
        stacks, delta, xf, deficiency = enlargements(
            a, [xs[1:] - xs[:-1] for xs in _term_stacks(trace.elements)],
            [d.sup_norm() for d in diffs], e)
        for t, (d, f) in enumerate(zip(diffs, fs)):
            assert all(same_bits(s[t], b) for s, b in zip(stacks, f.stacks))
            assert all(same_bits(b, c) for b, c in zip(enlarge_projection(d, e).stacks,
                                                       f.stacks))
            assert float(xf[t]) == compressed_bound(d, f, "au")
            assert float(deficiency[t]) == trace_deficiency(f)
            assert float(delta[t]) == (e @ (d @ e)).sup_norm()
        bau = WitnessCertificate("bau", a.total_trace, e, trace_deficiency(e), (),
                                 "certified", len(trace))
        au = bilateral_to_onesided(trace, bau)
        assert [b for _, b in au.tail_bounds] \
            == [compressed_bound(d, f, "au") for d, f in zip(diffs, fs)]
        assert au.trace_deficiency == max([0.0] + [trace_deficiency(f) for f in fs])
        assert all(same_bits(b, c) for b, c in zip(au.projection.stacks, fs[-1].stacks))


def test_batched_upgrade_on_mixed_real_and_complex_1x1_terms():
    a, elements = mixed_1x1_trace(stream(SEED, "test/certify/mixed-upgrade"))
    trace = FiniteTrace(tuple(elements))
    diffs = [trace.elements[i + 1] - trace.elements[i] for i in range(len(trace) - 1)]
    e = Element(a, [np.eye(1), np.eye(1), np.zeros((1, 1))], True, True, True)
    fs = [per_index_enlargement(d, e) for d in diffs]
    au = bilateral_to_onesided(trace, WitnessCertificate(
        "bau", 3.0, e, trace_deficiency(e), (), "certified", len(trace)))
    assert [b for _, b in au.tail_bounds] \
        == [compressed_bound(d, f, "au") for d, f in zip(diffs, fs)]
    assert all(same_bits(b, c) for b, c in zip(au.projection.stacks, fs[-1].stacks))


def test_upgrade_of_a_one_element_trace_keeps_the_witness():
    a = TracedAlgebra(((2, 1.0), (1, 0.5)))
    trace = FiniteTrace((a.random_element(stream(SEED, "test/certify/one-upgrade")),))
    au = bilateral_to_onesided(trace, certify_cauchy(trace, 0.1, mode="bau"))
    assert au.tail_bounds == () and au.trace_deficiency == 0.0 and au.certified
    assert all(np.array_equal(b, c) for b, c in zip(au.projection.stacks,
                                                    a.identity().stacks))


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_prefilled_spectra_equal_lazy_ones(layout, seed, zero_block):
    """The spectra the witness search reads, computed over all terms at
    once, equal what each term's element computes lazily alone, bit for
    bit: the singular values per group, the right singular vectors where a
    group has blocks larger than 1x1 and each row of the flat spectrum;
    zero, tied and projection terms, and on 1x1 groups the per-term rule
    for real and complex terms."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/certify/prefilled-spectra")
    terms = spectrum_elements(rng, a, zero_block)
    # 1x1 blocks of one term real, of another complex
    terms.append(Element(a, [b.real for b in terms[0].data]))
    cases = [(a, terms), mixed_1x1_trace(rng)]
    for algebra, elements in cases:
        stacks = _term_stacks(elements)
        svals, vh, flat = _term_spectra(algebra, stacks)
        assert [v is None for v in vh] == [xs.shape[-1] == 1 for xs in stacks]
        for t, x in enumerate(elements):
            lazy = Element(algebra, x.data)
            assert all(same_bits(s[t], w) for s, w in zip(svals,
                                                          lazy.stack_singular_values()))
            assert all(same_bits(f[t], w) for f, w in zip(flat, lazy.flat_spectrum()))
            assert all(same_bits(v[t], usv[2]) for v, usv in zip(vh, lazy.stack_svds())
                       if v is not None)
        for xs in stacks:  # the 1x1 rule decides each term alone
            assert all(same_bits(stacked_singular_values(xs)[t], stacked_singular_values(x))
                       for t, x in enumerate(xs))


def test_upgrade_factorizations_do_not_grow_with_the_trace(monkeypatch):
    """``bilateral_to_onesided`` factorizes each stage once per group over
    all indices: its count of SVD and ``eigh`` calls is the same for every
    trace length."""
    calls = []
    for name in ("svd", "eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    full = few_block_cesaro_trace()
    counts = []
    for n in (3, 5, 7):
        trace = FiniteTrace(full.elements[:n])
        bau = certify_cauchy(trace, 0.6, mode="bau")
        calls.clear()
        bilateral_to_onesided(trace, bau)
        counts.append(sorted(calls))
    assert counts[0] == counts[1] == counts[2]
    assert "svd" in counts[0] and "eigh" in counts[0]


@pytest.mark.parametrize("k", [-60, -30, 0, 20, 30, 40, 60])
def test_certifier_postconditions_scale(k):
    """Every compressed-bound postcondition takes the slack
    BOUND_SLACK * max(||term||, 1) of ``enlargements``, since a computed
    bound carries rounding of order u ||term|| at any scale: on benign
    traces scaled by 2^k none of the certifiers raises PostconditionError."""
    rng = stream(SEED, f"test/certify/scaled-{k}")
    for _ in range(6):
        trace, limit = scaled_trace(rng, k)
        for mode in ("au", "bau"):
            witness_convergence(trace, limit, 0.3, mode)
            certify_cauchy(trace, 0.3, mode)
        bilateral_to_onesided(trace, certify_cauchy(trace, 0.3, "bau"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_upgrade_of_an_overflowing_trace_is_input_error():
    """The upgrade forms its differences under the certifiers' one overflow
    rule: a difference past the float range is refused as input, with no
    RuntimeWarning."""
    a = TracedAlgebra(((2, 1.0),))
    trace = FiniteTrace(tuple(Element(a, [np.diag([v, v])], selfadjoint=True)
                              for v in (1e308, -1e308)))
    bau = WitnessCertificate("bau", 0.5, a.identity(), 0.0, (), "certified", 2)
    with pytest.raises(InvalidInputError, match="non-finite matrix entries"):
        bilateral_to_onesided(trace, bau)
