import collections
import inspect
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from conftest import MANY_BLOCKS, SEED, assembled, random_block_expectation, \
    random_pinching, random_unitary, random_unitary_element
from ncergo import BesicovitchFunction, ConvexCombination, Element, \
    InterpolationFlow, Power, SectorNet, TracedAlgebra, TrigPolynomial, \
    UnitaryConjugation, UnitaryFlow, besicovitch_average, box_average, \
    cesaro_limit_oracle, net_average_trace, sector_check, \
    submajorizes
from ncergo.config import COMMUTE_TOL, PHASE_TOL
from ncergo.ergodic import _structural_bound, validate_family
from ncergo.errors import InvalidInputError, NumericFailureError
from ncergo.fixtures import besicovitch_theta_fixture, conjugation_d2_fixture, \
    unitary_flow_fixture
from ncergo.rng import stream
from ncergo.superops import BlockExpectation, Composition, ExplicitMatrix, Pinching, \
    _dense_bound, check_selfadjointness


def commuting_pinchings(algebra):
    """Two pinchings by diagonal coordinate projections (always commute)."""
    def coord_pinching(groups):
        projections = []
        for group in groups:
            data = []
            for d in algebra.dims:
                diag = np.zeros(d)
                diag[[i for i in group if i < d]] = 1.0
                data.append(np.diag(diag).astype(complex))
            projections.append(Element(algebra, data, selfadjoint=True,
                                       positive=True, projection=True))
        return Pinching(projections)
    d0 = algebra.dims[0]
    half = list(range(d0 // 2))
    rest = list(range(d0 // 2, max(d for d in algebra.dims)))
    evens = list(range(0, max(algebra.dims), 2))
    odds = list(range(1, max(algebra.dims), 2))
    return [coord_pinching([half, rest]), coord_pinching([evens, odds])]


def brute_force_box(ops, x, n):
    """Direct mixed-power sum with no factorization tricks."""
    ranges = [range(max(k, 1)) for k in n]
    acc = x.algebra.zero()
    for ks in itertools.product(*ranges):
        y = x
        for op, k in zip(ops, ks):
            for _ in range(k):
                y = op.apply(y)
        acc = acc + y
    norm = 1
    for k in n:
        norm *= max(k, 1)
    return acc.scaled(1.0 / norm)


# -- nets and sectors ---------------------------------------------------------

def test_sector_net_validation():
    with pytest.raises(InvalidInputError):
        SectorNet(2, ())
    with pytest.raises(InvalidInputError):
        SectorNet(2, ((1,),))
    with pytest.raises(InvalidInputError):
        SectorNet(1, ((-1,),))
    with pytest.raises(InvalidInputError):
        SectorNet(1, ((2,), (1,)))  # decreasing
    with pytest.raises(InvalidInputError):
        SectorNet(2, ((1, 2), (2, 4)), sector_constant=1.5)
    net = SectorNet(2, ((1, 1), (2, 2)), sector_constant=1.0)
    assert len(net) == 2


def test_sector_check_examples():
    diag = SectorNet(2, tuple((k, k) for k in range(1, 11)))
    assert sector_check(diag, 1.0)
    ratio = SectorNet(2, tuple((2 * k, 3 * k) for k in range(1, 11)))
    assert sector_check(ratio, 1.5)
    assert not sector_check(ratio, 1.4)
    parabola = SectorNet(2, tuple((k, k * k) for k in range(1, 21)))
    assert not sector_check(parabola, 10.0)
    with pytest.raises(InvalidInputError):
        sector_check(diag, 0.0)


def test_sector_check_reads_zero_coordinates_as_sides_of_one():
    """The engine averages a zero coordinate over one power, so (5, 0) is a
    5 x 1 box, outside the unit sector; a zero divisor is no escape."""
    with pytest.raises(InvalidInputError):
        SectorNet(2, ((5, 0),), sector_constant=1.0)
    with pytest.raises(InvalidInputError):
        SectorNet(2, ((10 ** 6, 0),), sector_constant=1.0)
    assert not sector_check(SectorNet(2, ((0, 0), (5, 0))), 4.9)
    net = SectorNet(2, ((0, 0), (1, 0), (1, 1)), sector_constant=1.0)
    assert sector_check(net, 1.0)


def test_non_integer_net_index_is_refused():
    for index in ((1.5, 2), (1, 2.9), (2.0, 2)):
        with pytest.raises(InvalidInputError, match="net index"):
            SectorNet(2, (index,))
    net = SectorNet(2, ((np.int64(1), 2),))
    assert net.indices == ((1, 2),) and type(net.indices[0][0]) is int


# -- box averages -------------------------------------------------------------

def test_box_average_identity_family():
    a = TracedAlgebra(((2, 1.0),))
    x = a.random_element(stream(SEED, "test/ergodic/box-id"))
    ops = [UnitaryConjugation(a.identity()), UnitaryConjugation(a.identity())]
    y = box_average(ops, x, (5, 7))
    assert (y - x).sup_norm() < 1e-12


def test_box_average_matches_brute_force():
    a = TracedAlgebra(((4, 1.0),))
    ops = commuting_pinchings(a)
    x = a.random_element(stream(SEED, "test/ergodic/box-brute"))
    for n in ((3, 4), (1, 6), (0, 5), (4, 0), (2, 2)):
        fast = box_average(ops, x, n)
        slow = brute_force_box(ops, x, n)
        assert (fast - slow).sup_norm() <= 1e-10


def test_box_average_alternating_closed_form():
    a = TracedAlgebra(((2, 1.0),))
    u = Element(a, [np.diag([1.0, -1.0]).astype(complex)])
    op = UnitaryConjugation(u)
    x = Element(a, [np.array([[0.0, 1.0], [1.0, 0.0]])], selfadjoint=True)
    for n in range(1, 12):
        avg = box_average([op], x, (n,))
        expected = x.scaled(1.0 / n) if n % 2 == 1 else a.zero()
        assert (avg - expected).sup_norm() < 1e-12


def test_box_average_rejects_bad_family():
    rng = stream(SEED, "test/ergodic/box-reject")
    a = TracedAlgebra(((2, 1.0),))
    u1 = Element(a, [np.diag([1.0, -1.0]).astype(complex)])
    u2 = random_unitary_element(rng, a)
    x = a.random_element(rng)
    with pytest.raises(InvalidInputError):
        box_average([UnitaryConjugation(u1), UnitaryConjugation(u2)],
                    x, (2, 2))
    with pytest.raises(InvalidInputError):
        box_average([UnitaryConjugation(u1)], x, (2, 2))
    with pytest.raises(InvalidInputError):
        box_average([UnitaryConjugation(u1)], x, (-1,))


def test_box_average_refuses_a_non_integer_bound():
    a = TracedAlgebra(((2, 1.0),))
    op = UnitaryConjugation(Element(a, [np.diag([1.0, -1.0]).astype(complex)]))
    x = a.random_element(stream(SEED, "test/ergodic/box-float"))
    with pytest.raises(InvalidInputError, match="exponent bound"):
        box_average([op], x, (2.7,))
    same = box_average([op], x, (np.int64(3),))
    assert (same - box_average([op], x, (3,))).sup_norm() == 0.0


def test_mixed_algebras_are_input_errors():
    """Maps and elements on different algebras, trace weights alone
    included, are refused with ``InvalidInputError`` by the family
    validation, both averaging routes, the four leaf maps' ``apply``, both
    flows and their weighted averages, before any product or reshape, also
    where the vectorized dimensions agree, and so are composite maps built
    from children on different algebras; an equal algebra built twice is
    not mixed."""
    m2 = TracedAlgebra(((2, 1.0),))
    rng = stream(SEED, "test/ergodic/mixed-algebras")
    op = UnitaryConjugation(m2.identity())
    net = SectorNet(1, ((2,), (3,)))
    beta = BesicovitchFunction(TrigPolynomial(((1.0, 0.5),)))
    flows = [UnitaryFlow(Element(m2, [np.diag([0.0, 1.0])], selfadjoint=True)),
             InterpolationFlow(_coordinate_pinching(m2))]
    leaves = [op, _coordinate_pinching(m2), BlockExpectation(m2, [[[0], [1]]]),
              ExplicitMatrix(m2, np.eye(4))]
    for other in (TracedAlgebra(((3, 1.0),)), TracedAlgebra(((2, 2.0),)),
                  TracedAlgebra(((2, 1.0), (1, 1.0))), TracedAlgebra(((1, 1.0),) * 4)):
        with pytest.raises(InvalidInputError, match="different algebras"):
            validate_family([op, UnitaryConjugation(other.identity())])
        y = other.random_element(rng)
        with pytest.raises(InvalidInputError, match="different algebras"):
            box_average([op], y, (2,))
        with pytest.raises(InvalidInputError, match="different algebras"):
            net_average_trace([op], y, net)
        for leaf in leaves:
            with pytest.raises(InvalidInputError, match="different algebras"):
                leaf.apply(y)
        for flow in flows:
            with pytest.raises(InvalidInputError, match="different algebras"):
                flow.apply(0.5, y)
            with pytest.raises(InvalidInputError, match="different algebras"):
                besicovitch_average(beta, flow, y, 2.0)
        mixed = [op, UnitaryConjugation(other.identity())]
        with pytest.raises(InvalidInputError, match="different algebras"):
            Composition(mixed)
        with pytest.raises(InvalidInputError, match="different algebras"):
            ConvexCombination([(0.5, a) for a in mixed])
    twin = TracedAlgebra(((2, 1.0),))
    y = twin.random_element(rng)
    validate_family([op, UnitaryConjugation(twin.identity())])
    assert (box_average([op], y, (2,)) - y).sup_norm() == 0.0
    for combined in (Composition([op, UnitaryConjugation(twin.identity())]),
                     ConvexCombination([(0.5, op), (0.5, UnitaryConjugation(twin.identity()))])):
        assert (combined.apply(y) - y).sup_norm() < 1e-15
    for flow in flows:
        assert np.isfinite(flow.apply(0.5, y).vec()).all()
        assert np.isfinite(besicovitch_average(beta, flow, y, 2.0).vec()).all()


# closed-form averages: 1x1, mixed and many-block layouts
CLOSED_FORM_LAYOUTS = (((1, 1.0),), ((2, 1.0), (1, 0.5), (3, 2.0)), MANY_BLOCKS)
CLOSED_FORM_KINDS = ("unitary", "repeated", "minus-one", "identity",
                     "pinching", "expectation")


def rotated_conjugation(rng, algebra, eigenvalues):
    """Conjugation by q diag(lambda) q* per block, q a random unitary and
    each lambda drawn from ``eigenvalues``."""
    data = []
    for d in algebra.dims:
        q = random_unitary(rng, d)
        data.append((q * rng.choice(eigenvalues, size=d)) @ q.conj().T)
    return UnitaryConjugation(Element(algebra, data))


def closed_form_operator(kind, algebra, rng):
    if kind == "unitary":
        return UnitaryConjugation(random_unitary_element(rng, algebra))
    if kind == "repeated":
        return rotated_conjugation(rng, algebra, [1.0, np.exp(1j * np.pi / 3)])
    if kind == "minus-one":  # phase differences of +-pi and repeated -1
        return rotated_conjugation(rng, algebra, [1.0, -1.0])
    if kind == "identity":
        return UnitaryConjugation(algebra.identity())
    if kind == "pinching":
        return random_pinching(rng, algebra, parts=3)
    return random_block_expectation(rng, algebra)


def power_sum_average(op, x, m):
    """(1/m) sum_{k<m} op^k(x) by repeated ``apply``, summed blockwise."""
    acc = [b.copy() for b in x.data]
    z = x
    for _ in range(1, m):
        z = op.apply(z)
        for a, b in zip(acc, z.data):
            a += b
    return Element(x.algebra, [a / m for a in acc])


@settings(max_examples=25, deadline=None, derandomize=True)
@example(layout=MANY_BLOCKS, kind="minus-one", m=4096, seed=1, selfadjoint=True)
@example(layout=MANY_BLOCKS, kind="pinching", m=4096, seed=2, selfadjoint=False)
@example(layout=CLOSED_FORM_LAYOUTS[1], kind="repeated", m=97, seed=3,
         selfadjoint=False)
@example(layout=CLOSED_FORM_LAYOUTS[0], kind="expectation", m=3, seed=4,
         selfadjoint=True)
@given(layout=st.sampled_from(CLOSED_FORM_LAYOUTS),
       kind=st.sampled_from(CLOSED_FORM_KINDS),
       m=st.sampled_from((1, 2, 3, 97, 4096)), seed=st.integers(0, 2 ** 16),
       selfadjoint=st.booleans())
def test_closed_form_average_matches_power_sum(layout, kind, m, seed, selfadjoint):
    algebra = TracedAlgebra(layout)
    rng = stream(seed, "test/ergodic/closed-form")
    op = closed_form_operator(kind, algebra, rng)
    x = algebra.random_element(rng, selfadjoint=selfadjoint)
    y = box_average([op], x, (m,))
    assert y.selfadjoint is (True if selfadjoint else None)
    if m == 1:
        for k in (0, 1):
            same = box_average([op], x, (k,))
            assert all(np.array_equal(a, b) for a, b in zip(same.data, x.data))
        return
    assert op.cesaro_average(x, m) is not None
    gap = (y - power_sum_average(op, x, m)).sup_norm()
    assert gap <= 1e-10 * max(1.0, x.sup_norm())


def test_closed_form_across_the_branch_cut():
    """Eigenvalues -1 + 1e-17i and -1 - 1e-17i have angles pi and -pi: their
    phase difference must count as about 0, not 2 pi."""
    a = TracedAlgebra(((3, 1.0),))
    op = UnitaryConjugation(Element(a, [np.diag([-1 + 1e-17j, -1 - 1e-17j, 1.0])]))
    x = a.random_element(stream(SEED, "test/ergodic/branch-cut"))
    for m in (97, 1000):
        gap = (box_average([op], x, (m,))
               - power_sum_average(op, x, m)).sup_norm()
        assert gap <= 1e-10 * max(1.0, x.sup_norm())


def counted_applies(monkeypatch):
    """Count the stack actions, ``_act``, of the three closed-form operator
    classes: one per ``apply``, and one per ``verify_ds`` bound."""
    calls = [0]
    for cls in (UnitaryConjugation, Pinching, BlockExpectation):
        def counting(self, stacks, _act=cls._act):
            calls[0] += 1
            return _act(self, stacks)
        monkeypatch.setattr(cls, "_act", counting)
    return calls


def test_closed_form_guards_keep_the_power_sum(monkeypatch):
    """A conjugator whose Schur factor is off diagonal or off the unit
    circle by more than CLOSED_FORM_TOL (but unitary to UNITARY_TOL), and
    a pinching whose projections are idempotent only to PINCHING_TOL, have
    no closed form.  On the 2x2 algebra they take the dense prefix; the
    sheared conjugator above the 256 size cut sums its powers.  A
    conjugator with |lambda| = 1 + 2e-9 has sup bound 1 + 4e-9, above
    DS_SLACK, so both public averages refuse it."""
    a = TracedAlgebra(((2, 1.0),))
    x = a.random_element(stream(SEED, "test/ergodic/guards"))
    sheared = np.diag([1.0, 1j])
    sheared[0, 1] = 1e-9
    p = np.diag([1.0 + 1e-10, 0.0])
    too_long = UnitaryConjugation(Element(a, [np.diag([1.0 + 2e-9, 1j])]))
    assert too_long.cesaro_average(x, 5) is None
    with pytest.raises(InvalidInputError):
        box_average([too_long], x, (5,))
    with pytest.raises(InvalidInputError):
        net_average_trace([too_long], x, SectorNet(1, ((5,),)))
    ops = [UnitaryConjugation(Element(a, [sheared])),
           UnitaryConjugation(Element(a, [np.diag([1.0 + 2e-10, 1j])])),
           Pinching([Element(a, [p]), Element(a, [np.eye(2) - p])])]
    for op in ops:
        assert op.cesaro_average(x, 5) is None
        trace = net_average_trace([op], x, SectorNet(1, ((5,),)))
        assert "dense-prefix" in trace.metadata["coordinates"]
        y = box_average([op], x, (5,))
        assert (y - power_sum_average(op, x, 5)).sup_norm() <= 1e-15

    large = TracedAlgebra(((12, 1.0), (12, 1.0)))  # vec_dim 288 > 256
    x = large.random_element(stream(SEED, "test/ergodic/guards-large"))
    blocks = []
    for d in large.dims:
        b = np.diag(np.exp(1j * np.linspace(0.0, 3.0, d)))
        b[0, 1] = 1e-9
        blocks.append(b)
    op = UnitaryConjugation(Element(large, blocks))
    assert op.cesaro_average(x, 5) is None
    calls = counted_applies(monkeypatch)
    y = box_average([op], x, (5,))
    assert calls[0] == 2 + 4  # A(1) and A*(1) in validation, then 4 powers
    assert (y - power_sum_average(op, x, 5)).sup_norm() <= 1e-15 * x.sup_norm()


def commuting_closed_form_families(algebra, rng):
    """Two commuting maps of each closed-form class, non-diagonal: both
    conjugators and all pinching projections share one basis per block."""
    bases = [random_unitary(rng, d) for d in algebra.dims]

    def conjugation():
        return UnitaryConjugation(Element(algebra, [
            (q * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, q.shape[0]))) @ q.conj().T
            for q in bases]))

    def pinching(split):
        cuts = [(q[:, :split], q[:, split:]) for q in bases]
        return Pinching([Element(algebra, [c[k] @ c[k].conj().T for c in cuts],
                                 selfadjoint=True, positive=True, projection=True)
                         for k in (0, 1)])

    expectation = BlockExpectation(algebra, [[[0, 1], [2]]] * 2)
    coarse = BlockExpectation(algebra, [[[0, 1, 2]]] * 2)
    return [[conjugation(), conjugation()], [pinching(1), pinching(2)],
            [expectation, coarse]]


def test_box_average_apply_count_does_not_grow_with_n(monkeypatch):
    algebra = TracedAlgebra(((3, 1.0), (3, 0.5)))
    rng = stream(SEED, "test/ergodic/apply-count")
    families = commuting_closed_form_families(algebra, rng)
    x = algebra.random_element(rng, selfadjoint=True)
    calls = counted_applies(monkeypatch)
    for ops in families:
        counts = []
        for n in ((10, 10), (10 ** 6, 10 ** 6)):
            calls[0] = 0
            box_average(ops, x, n)
            counts.append(calls[0])
        assert counts[0] == counts[1]


def test_box_average_at_n_10_to_12_matches_kernel():
    """A two-block rotated-basis conjugation with distinct eigenvalues,
    against the geometric-series kernel (1 - z^n) / (n (1 - z))."""
    algebra = TracedAlgebra(((3, 1.0), (2, 0.5)))
    rng = stream(SEED, "test/ergodic/n-10-12")
    thetas = [np.array([0.4, 2.1, -1.3]), np.array([3.0, -0.2])]
    qs = [random_unitary(rng, d) for d in algebra.dims]
    u = Element(algebra, [(q * np.exp(1j * t)) @ q.conj().T
                          for q, t in zip(qs, thetas)])
    x = algebra.random_element(rng)
    n = 10 ** 12
    t0 = time.perf_counter()
    y = box_average([UnitaryConjugation(u)], x, (n,))
    assert time.perf_counter() - t0 < 0.5
    for q, t, xb, yb in zip(qs, thetas, x.data, y.data):
        z = np.exp(1j * (t[:, None] - t[None, :]))
        off = ~np.eye(len(t), dtype=bool)
        kernel = np.ones_like(z)
        kernel[off] = (1.0 - np.exp(1j * n * (t[:, None] - t[None, :]))[off]) \
            / (n * (1.0 - z[off]))
        expected = q @ ((q.conj().T @ xb @ q) * kernel) @ q.conj().T
        assert np.abs(yb - expected).max() <= 1e-12


def test_validate_family_commutativity():
    rng = stream(SEED, "test/ergodic/validate")
    a = TracedAlgebra(((3, 1.0),))
    u1 = random_unitary_element(rng, a)
    u2 = random_unitary_element(rng, a)
    with pytest.raises(InvalidInputError, match="dense bound"):
        validate_family([UnitaryConjugation(u1), UnitaryConjugation(u2)])
    certs, labels = validate_family([UnitaryConjugation(u1), UnitaryConjugation(u1)])
    assert all(c.is_ds() for c in certs)
    assert labels == ("structural",)


def test_validate_family_pauli_pair_is_structural():
    """Ad X and Ad Z commute though X and Z anticommute: XZ = -ZX, so the
    structural rule takes the phase lambda = -1."""
    a = TracedAlgebra(((2, 1.0),))
    x = Element(a, [np.array([[0, 1], [1, 0]], dtype=complex)])
    z = Element(a, [np.diag([1.0, -1.0]).astype(complex)])
    ops = [UnitaryConjugation(x), UnitaryConjugation(z)]
    assert _structural_bound(ops[0].sandwiches(), ops[1].sandwiches()) == 0.0
    _, labels = validate_family(ops)
    assert labels == ("structural",)


def test_dense_rule_refuses_a_single_corner_entry():
    """Two explicit matrices whose commutator is zero but in one entry, at
    the corner of the last block: no structural verdict, and the dense
    bound refuses even a 1e-6 gap."""
    a = TracedAlgebra(((3, 1.0), (1, 0.5), (2, 1.0)))
    n = a.vec_dim
    diag = np.arange(1.0, n + 1.0)
    shear = np.eye(n, dtype=complex)
    shear[n - 1, n - 2] = 1e-6
    ops = [ExplicitMatrix(a, np.diag(diag)), ExplicitMatrix(a, shear)]
    c = [x @ y - y @ x for x, y in zip(ops[0].to_matrix(), ops[1].to_matrix())]
    full = assembled(a, c)
    assert np.count_nonzero(full) == 1 and full[n - 1, n - 2] != 0
    assert _structural_bound(ops[0].sandwiches(), ops[1].sandwiches()) == math.inf
    bound = _dense_bound(a, c)
    assert bound == pytest.approx(1e-6 * math.sqrt(sum(a.dims)), rel=1e-12)
    assert bound > COMMUTE_TOL


RULE_LAYOUTS = (((1, 1.0),), ((3, 1.0), (1, 0.5), (2, 1.0)), MANY_BLOCKS)


def rule_pair(kinds, commuting, algebra, rng):
    """Two maps of the given kinds ("conjugation", "pinching",
    "expectation"), built in one unitary basis per block when
    ``commuting`` (block expectations then diagonal), in independent ones
    otherwise."""
    shared = [random_unitary(rng, d) for d in algebra.dims]

    def make(kind):
        bases = shared if commuting else [random_unitary(rng, d) for d in algebra.dims]
        if kind == "expectation":
            return random_block_expectation(rng, algebra)
        if kind == "conjugation":
            return UnitaryConjugation(Element(algebra, [
                (q * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, len(q)))) @ q.conj().T
                for q in bases]))
        labels = [rng.integers(0, 2, size=len(q)) for q in bases]
        return Pinching([Element(algebra, [q[:, lab == k] @ q[:, lab == k].conj().T
                                           for q, lab in zip(bases, labels)],
                                 selfadjoint=True, positive=True, projection=True)
                         for k in (0, 1)])

    if commuting and "expectation" in kinds:
        shared = [np.eye(d, dtype=complex) for d in algebra.dims]
    return [make(k) for k in kinds]


def commutator_lower_bound(a, b, rng):
    """The largest ||(AB - BA)x||_inf / ||x||_inf over the top right
    singular vector of the dense commutator and a few random x: a lower
    bound on the commutator norm."""
    ma, mb = assembled(a.algebra, a.to_matrix()), assembled(a.algebra, b.to_matrix())
    c = ma @ mb - mb @ ma
    xs = [np.linalg.svd(c)[2][0].conj()]
    xs += [a.algebra.random_element(rng).vec() for _ in range(3)]
    return max(Element.from_vec(a.algebra, c @ v).sup_norm()
               / Element.from_vec(a.algebra, v).sup_norm() for v in xs)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(layout=RULE_LAYOUTS[2], kinds=("conjugation", "pinching"),
         commuting=False, seed=0)
@example(layout=RULE_LAYOUTS[1], kinds=("expectation", "conjugation"),
         commuting=True, seed=1)
@given(layout=st.sampled_from(RULE_LAYOUTS),
       kinds=st.tuples(*[st.sampled_from(("conjugation", "pinching", "expectation"))] * 2),
       commuting=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_structural_and_dense_rules_agree(layout, kinds, commuting, seed):
    """On random commuting and non-commuting pairs the structural and dense
    rules give one verdict, and each structural bound is at least the
    commutator norm seen through the dense matrices (up to rounding)."""
    algebra = TracedAlgebra(layout)
    rng = stream(seed, "test/ergodic/commutator-rules")
    a, b = rule_pair(kinds, commuting, algebra, rng)
    structural = _structural_bound(a.sandwiches(), b.sandwiches())
    dense = _dense_bound(algebra, [x @ y - y @ x for x, y in
                                   zip(a.to_matrix(), b.to_matrix())])
    assert (structural <= COMMUTE_TOL) == (dense <= COMMUTE_TOL)
    if commuting:
        assert structural <= COMMUTE_TOL
    assert structural >= commutator_lower_bound(a, b, rng) - 1e-12


def test_structural_validation_draws_and_applies_nothing(monkeypatch):
    """Validating the conjugation fixture's family and a pinching with a
    block expectation draws no random element and applies each map only
    for ``verify_ds``'s A(1) and A*(1)."""
    calls = counted_applies(monkeypatch)
    draws = [0]

    def drawing(self, *args, _draw=TracedAlgebra.random_element, **kwargs):
        draws[0] += 1
        return _draw(self, *args, **kwargs)

    mixed = TracedAlgebra(((3, 1.0), (1, 0.5), (2, 1.0)))
    rng = stream(SEED, "test/ergodic/validation-cost")
    families = [conjugation_d2_fixture()[1],
                [_coordinate_pinching(mixed), random_block_expectation(rng, mixed)]]
    monkeypatch.setattr(TracedAlgebra, "random_element", drawing)
    for ops in families:
        calls[0] = 0
        _, labels = validate_family(ops)
        assert labels == ("structural",)
        assert calls[0] == 2 * len(ops)
    assert draws[0] == 0


def test_interpolation_flow_decides_idempotency_per_block():
    """On 100 blocks of dimension 4, ``InterpolationFlow`` checks E o E = E
    on one (100, 16, 16) stack, not on the 1600 x 1600 matrix of the whole
    algebra (78 MiB of arrays)."""
    a = TracedAlgebra(((4, 1.0),) * 100)
    expectation = BlockExpectation(a, [[[0, 1], [2, 3]]] * 100)
    tracemalloc.start()
    try:
        flow = InterpolationFlow(expectation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flow.expectation is expectation
    assert peak < 8 * 2 ** 20


def test_structural_bound_memory_is_one_term_of_products():
    """Two diagonal block expectations on M_32 (32 rank-one factors each):
    the structural rule forms the products of one factor of the first map
    at a time, not every pair at once (about 97 MiB of arrays here)."""
    a = TracedAlgebra(((32, 1.0),))
    ops = [BlockExpectation(a, [[[i] for i in range(32)]]) for _ in range(2)]
    tracemalloc.start()
    try:
        _, labels = validate_family(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels == ("structural",)
    assert peak < 16 * 2 ** 20


# -- traces along nets --------------------------------------------------------

def test_net_average_identity_family_constant():
    a = TracedAlgebra(((2, 1.0),))
    x = a.random_element(stream(SEED, "test/ergodic/net-id"))
    ops = [UnitaryConjugation(a.identity())]
    net = SectorNet(1, tuple((k,) for k in (1, 2, 4, 8)))
    trace = net_average_trace(ops, x, net)
    for out in trace.outputs:
        assert (out - x).sup_norm() < 1e-12


def diagonal_conjugations(algebra, phases):
    """Conjugations by diagonal unitaries; phases[i][b] holds operator i's
    eigenvalue angles on block b (diagonal families always commute)."""
    return [UnitaryConjugation(Element(algebra, [np.diag(np.exp(1j * t))
                                                 for t in per_block]))
            for per_block in phases]


def test_net_average_two_routes_agree():
    rng = stream(SEED, "test/ergodic/net-routes")

    def conjugations(algebra, count):
        return diagonal_conjugations(algebra, [
            [rng.uniform(0.0, 2.0 * np.pi, d) for d in algebra.dims]
            for _ in range(count)])

    square = TracedAlgebra(((4, 1.0),))
    mixed = TracedAlgebra(((3, 0.5), (1, 2.0), (2, 1.0)))
    large = TracedAlgebra(((12, 1.0), (12, 1.0)))  # vec_dim 288 > 256
    cases = [
        # the original diagonal net, pinchings
        (square, commuting_pinchings(square),
         tuple((k, k) for k in (1, 2, 3, 5, 8, 13))),
        # d = 1, zero coordinate, repeated index, steps not powers of two
        (mixed, conjugations(mixed, 1),
         ((0,), (1,), (3,), (3,), (10,), (21,), (50,))),
        # multi-block with a 1x1 block; one coordinate's step is 0
        (mixed, conjugations(mixed, 2),
         ((0, 0), (0, 3), (1, 3), (6, 3), (6, 3), (7, 11), (19, 11))),
        (mixed, commuting_pinchings(mixed),
         ((0, 2), (5, 2), (5, 9), (13, 9), (13, 27))),
        # d = 3: two pinchings and a conjugation, which all commute
        (mixed, commuting_pinchings(mixed) + conjugations(mixed, 1),
         ((0, 1, 0), (2, 1, 3), (2, 5, 3), (9, 5, 6), (9, 5, 17))),
        # above the size cut: the factorized route
        (large, conjugations(large, 2), ((0, 1), (1, 1), (2, 3), (4, 4))),
    ]
    for algebra, ops, indices in cases:
        x = algebra.random_element(rng)
        net = SectorNet(len(ops), indices)
        trace = net_average_trace(ops, x, net)
        assert trace.metadata["mode"] == ("matrix-prefix" if algebra.vec_dim <= 256
                                          else "factorized-per-index")
        for out, n in zip(trace.outputs, net.indices):
            assert (out - box_average(ops, x, n)).sup_norm() <= 1e-10


def test_net_average_large_index_closed_form():
    # two blocks, a repeated eigenvalue in each conjugator, indices to 10^9
    algebra = TracedAlgebra(((3, 1.0), (2, 0.5)))
    phases = [[np.array([0.3, 0.3, 1.1]), np.array([2.0, 0.3])],
              [np.array([0.0, 1.7, 0.0]), np.array([-0.4, -0.4])]]
    ops = diagonal_conjugations(algebra, phases)
    x = algebra.random_element(stream(SEED, "test/ergodic/net-large"))
    ks = (1, 7, 1000, 123457, 10 ** 6, 10 ** 8 + 3, 10 ** 9)
    net = SectorNet(2, tuple((k // 2 + 1, k) for k in ks))
    t0 = time.perf_counter()
    trace = net_average_trace(ops, x, net)
    assert time.perf_counter() - t0 < 1.0

    def kernel(theta, n):
        # (1 - z^n) / (n (1 - z)) for z = e^{i theta}, and 1 where z = 1
        z = np.exp(1j * theta)
        same = np.isclose(theta, 0.0)
        safe = np.where(same, 0.5, 1.0 - z)
        return np.where(same, 1.0, (1.0 - np.exp(1j * n * theta)) / (n * safe))

    scale = max(1.0, x.sup_norm())
    for n, out in zip(net.indices, trace.outputs):
        for b, (xb, yb) in enumerate(zip(x.data, out.data)):
            expected = xb.copy()
            for per_block, k in zip(phases, n):
                t = per_block[b]
                expected = expected * kernel(t[:, None] - t[None, :], k)
            assert np.abs(yb - expected).max() <= 1e-6 * scale


def test_net_average_converges_to_oracle():
    rng = stream(SEED, "test/ergodic/net-oracle")
    a = TracedAlgebra(((4, 1.0),))
    u = Element(a, [np.diag(np.exp(1j * np.pi / 3 * np.array([0, 0, 1, 2])))])
    ops = [UnitaryConjugation(u)]
    x = a.random_element(rng, selfadjoint=True)
    net = SectorNet(1, tuple((k,) for k in (6, 60, 600)))
    trace = net_average_trace(ops, x, net)
    oracle = cesaro_limit_oracle(ops, x)
    errs = [(out - oracle).sup_norm() for out in trace.outputs]
    # multiples of the phase period average out exactly
    assert errs[-1] < 1e-12
    assert submajorizes(x, trace.outputs[-1])


def geometric_kernel(z, zn, n):
    """(1 - z^n) / (n (1 - z)) entrywise from z and z^n, and 1 where z = 1."""
    same = z == 1.0
    return np.where(same, 1.0, (1.0 - zn) / (n * np.where(same, 1.0, 1.0 - z)))


def test_net_average_fixture_matches_exact_kernel():
    """The ``conjugation_d2_fixture`` trace, entrywise against the kernels
    of its diagonal phases, built without ncergo's Schur code.  The phases
    are multiples of pi/6, so z^n = e^{i pi s / 6} with s = n (a - b) mod 12
    reduced in integers, and the reference rounds only O(eps).  The bound,
    a few ulp of |x|, is below the k * eps that summing or doubling the
    powers to k = 10^4 accumulates (about 2e-14 here)."""
    _, ops, x, net, _ = conjugation_d2_fixture()
    trace = net_average_trace(ops, x, net)
    assert trace.metadata["coordinates"] == ("closed-form", "closed-form")
    steps = []
    for op in ops:
        u = op.u.data[0]
        s = np.rint(np.angle(np.diag(u)) / (np.pi / 6)).astype(int)
        assert np.abs(u - np.diag(np.exp(1j * np.pi / 6 * s))).max() <= 1e-15
        steps.append(s[:, None] - s[None, :])
    scale = max(1.0, x.sup_norm())
    for n, out in zip(net.indices, trace.outputs):
        expected = x.data[0]
        for s, k in zip(steps, n):
            z = np.exp(1j * np.pi / 6 * (s % 12))
            zn = np.exp(1j * np.pi / 6 * (k * s % 12))
            expected = expected * geometric_kernel(z, zn, k)
        assert np.abs(out.data[0] - expected).max() <= 1e-15 * scale


def dense_matrix(op):
    """The dense matrix of a closed-form map on row-major vec(x), block by
    block: kron(u, conj(u)) for a conjugation, sum_p kron(p, conj(p)) for a
    pinching (p = p*), diag(vec(mask)) for a block expectation."""
    if isinstance(op, UnitaryConjugation):
        blocks = [np.kron(u, u.conj()) for u in op.u.data]
    elif isinstance(op, Pinching):
        blocks = [sum(np.kron(p, p.conj()) for p in ps)
                  for ps in zip(*(p.data for p in op.projections))]
    else:
        blocks = []
        for groups, d in zip(op.partition, op.algebra.dims):
            mask = np.zeros((d, d))
            for g in groups:
                mask[np.ix_(g, g)] = 1.0
            blocks.append(np.diag(mask.ravel()))
    return scipy.linalg.block_diag(*blocks)


def test_net_average_matches_dense_power_sums():
    """Rotated conjugations (one with repeated eigenvalues), a non-diagonal
    pinching and a block expectation, each along a net to k = 4096, against
    running sums of powers of dense matrices built here."""
    algebra = TracedAlgebra(CLOSED_FORM_LAYOUTS[1])
    rng = stream(SEED, "test/ergodic/net-dense-powers")
    ks = (0, 1, 2, 3, 3, 97, 1000, 4096)
    for op in (UnitaryConjugation(random_unitary_element(rng, algebra)),
               rotated_conjugation(rng, algebra, [1.0, -1.0, 1j]),
               random_pinching(rng, algebra, parts=3),
               random_block_expectation(rng, algebra)):
        x = algebra.random_element(rng)
        trace = net_average_trace([op], x, SectorNet(1, tuple((k,) for k in ks)))
        assert trace.metadata["coordinates"] == ("closed-form",)
        a = dense_matrix(op)
        acc, z, count = np.zeros(algebra.vec_dim, dtype=complex), x.vec(), 0
        for k, out in zip(ks, trace.outputs):
            m = max(k, 1)
            for _ in range(count, m):
                acc, z = acc + z, a @ z
            count = m
            gap = np.abs(out.vec() - acc / m).max()
            assert gap <= 1e-10 * max(1.0, x.sup_norm())


def counted_matrix_builds(monkeypatch):
    """Count dense matrix builds (``_build_matrix``) per map, of every
    operator class that builds one (an explicit matrix is its own)."""
    builds = collections.Counter()
    for cls in (UnitaryConjugation, Pinching, BlockExpectation,
                ConvexCombination, Composition, Power):
        def counting(self, _build=cls._build_matrix):
            builds[self] += 1
            return _build(self)
        monkeypatch.setattr(cls, "_build_matrix", counting)
    return builds


def multiplier_family(algebra, rng):
    """Four commuting maps that multiply entries by fixed weights: a
    diagonal conjugation and a block expectation, which have closed forms,
    and a convex combination and a power, which have none."""
    conjugations = diagonal_conjugations(algebra, [
        [rng.uniform(0.0, 2.0 * np.pi, d) for d in algebra.dims] for _ in range(3)])
    return [conjugations[0],
            ConvexCombination([(0.5, conjugations[1]),
                               (0.5, _coordinate_pinching(algebra))]),
            random_block_expectation(rng, algebra),
            Power(conjugations[2], 2)]


def test_net_average_mixed_closed_form_and_fallback(monkeypatch):
    """Coordinates without a closed form share a net with closed-form ones,
    on both sides of the 256 size cut, with zero coordinates and a repeated
    index: each falls back on its own, from its first index above 1, to
    a dense prefix (its matrix built once) or to summed powers."""
    builds = counted_matrix_builds(monkeypatch)
    rng = stream(SEED, "test/ergodic/net-mixed")
    indices = ((0, 0, 0, 0), (2, 0, 1, 0), (2, 3, 1, 0), (2, 3, 1, 0),
               (5, 3, 4, 2), (5, 4, 4, 3))
    for layout, fallback in ((((3, 1.0), (1, 0.5), (2, 1.0)), "dense-prefix"),
                             (((12, 1.0), (12, 1.0)), "power-sum")):
        algebra = TracedAlgebra(layout)
        ops = multiplier_family(algebra, rng)
        x = algebra.random_element(rng, selfadjoint=fallback == "dense-prefix")
        builds.clear()
        for count, routes in ((4, ("closed-form", fallback, "closed-form",
                                   "closed-form")),
                              (6, ("closed-form", fallback, "closed-form",
                                   fallback))):
            trace = net_average_trace(ops, x, SectorNet(4, indices[:count]))
            assert trace.metadata["coordinates"] == routes
            # ``to_matrix`` is cached: across validation and both nets, each
            # map's matrix is built at most once, a dense prefix's exactly
            assert max(builds.values(), default=0) <= 1
            assert all(builds[op] == 1 for op, route in zip(ops, routes)
                       if route == "dense-prefix")
        assert trace.metadata["mode"] == ("matrix-prefix" if algebra.vec_dim <= 256
                                          else "factorized-per-index")
        scale = max(1.0, x.sup_norm())
        for n, out in zip(indices, trace.outputs):
            assert (out - box_average(ops, x, n)).sup_norm() <= 1e-10 * scale
            assert (out - brute_force_box(ops, x, n)).sup_norm() <= 1e-10 * scale


ENGINE_LAYOUTS = (((1, 1.0),), ((3, 1.0), (1, 0.5), (2, 1.0)),
                  ((12, 1.0), (12, 1.0)))


@settings(max_examples=30, deadline=None, derandomize=True)
@example(layout=ENGINE_LAYOUTS[1], family="multiplier", n=(3, 64, 0, 5), seed=0)
@example(layout=ENGINE_LAYOUTS[2], family="multiplier", n=(1, 5, 2, 0), seed=1)
@example(layout=ENGINE_LAYOUTS[0], family="closed-form", n=(0, 1, 64), seed=2)
@given(layout=st.sampled_from(ENGINE_LAYOUTS),
       family=st.sampled_from(("closed-form", "multiplier")),
       n=st.lists(st.sampled_from((0, 1, 2, 5, 64)), min_size=4, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_box_average_is_the_net_engine_at_one_index(layout, family, n, seed):
    """``box_average`` at n and a one-index ``net_average_trace`` at n give
    the same blocks, bit for bit, on every route."""
    algebra = TracedAlgebra(layout)
    rng = stream(seed, "test/ergodic/one-engine")
    ops = multiplier_family(algebra, rng)
    if family == "closed-form":  # the members with closed forms
        ops = [ops[0], _coordinate_pinching(algebra), ops[2]]
    n = tuple(n[:len(ops)])
    x = algebra.random_element(rng)
    box = box_average(ops, x, n)
    net = net_average_trace(ops, x, SectorNet(len(ops), (n,)))
    assert all(np.array_equal(a, b) for a, b in zip(box.data, net.outputs[0].data))


def test_leaf_matrix_build_is_counted_once(monkeypatch):
    """Each leaf builds its dense matrix through ``_build_matrix``, once, so
    ``counted_matrix_builds`` sees it and a zero count above means none."""
    builds = counted_matrix_builds(monkeypatch)
    algebra = TracedAlgebra(((3, 1.0), (1, 0.5), (3, 2.0)))
    rng = stream(SEED, "test/ergodic/leaf-builds")
    for op in (rotated_conjugation(rng, algebra, [1.0, -1.0, 1j]),
               random_pinching(rng, algebra, parts=3),
               random_block_expectation(rng, algebra)):
        builds.clear()
        assert op.to_matrix() is op.to_matrix()
        assert builds == {op: 1}


def test_closed_form_net_builds_no_matrix(monkeypatch):
    """Nets of conjugations, pinchings and block expectations, rotated or
    diagonal, to k = 10^6, average every coordinate in closed form and
    build no dense matrix."""
    builds = counted_matrix_builds(monkeypatch)
    algebra = TracedAlgebra(((3, 1.0), (3, 0.5)))
    rng = stream(SEED, "test/ergodic/net-no-matrix")
    families = commuting_closed_form_families(algebra, rng)
    conjugation, _, expectation, _ = multiplier_family(algebra, rng)
    families.append([conjugation, expectation, _coordinate_pinching(algebra)])
    x = algebra.random_element(rng, selfadjoint=True)
    for ops in families:
        d = len(ops)
        net = SectorNet(d, ((0,) * d, (1,) * d, (4,) * d, (64,) * d,
                            (10 ** 6,) * d))
        trace = net_average_trace(ops, x, net)
        assert trace.metadata["coordinates"] == ("closed-form",) * d
    assert not builds


def test_net_average_to_10_12_matches_kernel():
    """Two commuting rotated-basis conjugations on two blocks, along a net
    to k = 10^12 in both coordinates, against the product of their
    geometric-series kernels in the basis they were built in."""
    algebra = TracedAlgebra(((3, 1.0), (2, 0.5)))
    rng = stream(SEED, "test/ergodic/net-10-12")
    qs = [random_unitary(rng, d) for d in algebra.dims]
    thetas = [[np.array([0.4, 2.1, -1.3]), np.array([3.0, -0.2])],
              [np.array([-2.5, 0.9, 1.6]), np.array([1.2, 0.7])]]
    ops = [UnitaryConjugation(Element(algebra, [
        (q * np.exp(1j * t)) @ q.conj().T for q, t in zip(qs, per_block)]))
        for per_block in thetas]
    x = algebra.random_element(rng)
    net = SectorNet(2, ((1, 1), (7, 3), (1000, 999), (10 ** 6, 10 ** 6),
                        (10 ** 9 + 7, 10 ** 9), (10 ** 12, 10 ** 12)))
    t0 = time.perf_counter()
    trace = net_average_trace(ops, x, net)
    assert time.perf_counter() - t0 < 0.5
    assert trace.metadata["coordinates"] == ("closed-form", "closed-form")
    scale = max(1.0, x.sup_norm())
    for n, out in zip(net.indices, trace.outputs):
        for b, (q, xb, yb) in enumerate(zip(qs, x.data, out.data)):
            y = q.conj().T @ xb @ q
            for per_block, k in zip(thetas, n):
                phi = per_block[b][:, None] - per_block[b][None, :]
                y = y * geometric_kernel(np.exp(1j * phi), np.exp(1j * k * phi), k)
            assert np.abs(yb - q @ y @ q.conj().T).max() <= 1e-12 * scale


def test_average_trace_csv():
    a = TracedAlgebra(((2, 1.0),))
    x = a.random_element(stream(SEED, "test/ergodic/csv"))
    ops = [UnitaryConjugation(a.identity())]
    net = SectorNet(1, ((1,), (2,)))
    trace = net_average_trace(ops, x, net)
    lines = trace.to_csv(reference=x).strip().splitlines()
    assert lines[0] == "alpha,n_1,err_inf,err_p,tau_deficiency"
    assert len(lines) == 3


def test_cesaro_limit_oracle_examples():
    a = TracedAlgebra(((2, 1.0),))
    x = a.random_element(stream(SEED, "test/ergodic/oracle"))
    assert (cesaro_limit_oracle([UnitaryConjugation(a.identity())], x)
            - x).sup_norm() < 1e-12
    u = Element(a, [np.diag([1.0, -1.0]).astype(complex)])
    y = cesaro_limit_oracle([UnitaryConjugation(u)], x)
    expected = np.diag(np.diag(x.data[0]))
    assert np.abs(y.data[0] - expected).max() < 1e-12


def test_cesaro_limit_oracle_order_independent():
    a = TracedAlgebra(((4, 1.0),))
    d1 = np.exp(1j * np.pi / 2 * np.array([0, 0, 1, 1]))
    d2 = np.exp(1j * np.pi / 2 * np.array([0, 1, 0, 1]))
    ops = [UnitaryConjugation(Element(a, [np.diag(d1)])),
           UnitaryConjugation(Element(a, [np.diag(d2)]))]
    x = a.random_element(stream(SEED, "test/ergodic/oracle-order"))
    ab = cesaro_limit_oracle(ops, x)
    ba = cesaro_limit_oracle(list(reversed(ops)), x)
    assert (ab - ba).sup_norm() < 1e-12


def reference_limit_oracle(ops, x):
    """The oracle's former clustering route, kept as a reference: per block
    a Schur factorization of the conjugator, its eigenvalues sorted by
    angle and chained into clusters within PHASE_TOL (the first and last
    cluster merged across the branch cut), then sum_c p_c x p_c."""
    out = x
    for op in ops:
        data = []
        for ub, xb in zip(op.u.data, out.data):
            t, q = scipy.linalg.schur(ub, output="complex")
            phases = np.diag(t)
            clusters = []
            for j in np.argsort(np.angle(phases), kind="stable"):
                if clusters and abs(phases[j] - phases[clusters[-1][-1]]) <= PHASE_TOL:
                    clusters[-1].append(j)
                else:
                    clusters.append([j])
            if len(clusters) > 1 and \
                    abs(phases[clusters[0][0]] - phases[clusters[-1][-1]]) <= PHASE_TOL:
                clusters[0].extend(clusters.pop())
            y = np.zeros_like(xb)
            for cluster in clusters:
                p = q[:, cluster] @ q[:, cluster].conj().T
                y = y + p @ xb @ p
            data.append(y)
        out = Element(x.algebra, data)
    return out


# eigenvalue pools: repeated phases, -1, and a pair across the branch cut
LIMIT_POOLS = ((1.0, np.exp(1j * np.pi / 3)), (1.0, -1.0),
               (-1 + 1e-17j, -1 - 1e-17j, 1j))


def commuting_conjugations(rng, algebra, pool, count, rotated):
    """``count`` conjugations by v diag(lambda) v*, one v per block shared
    by the family (the identity unless ``rotated``), lambda drawn from
    ``pool``."""
    bases = [random_unitary(rng, d) if rotated else np.eye(d)
             for d in algebra.dims]
    return [UnitaryConjugation(Element(algebra, [
        (v * rng.choice(pool, size=v.shape[0])) @ v.conj().T for v in bases]))
        for _ in range(count)]


@settings(max_examples=30, deadline=None, derandomize=True)
@example(layout=MANY_BLOCKS, pool=2, count=2, rotated=False, seed=1)
@example(layout=CLOSED_FORM_LAYOUTS[1], pool=1, count=2, rotated=True, seed=2)
@example(layout=CLOSED_FORM_LAYOUTS[0], pool=2, count=1, rotated=False, seed=3)
@given(layout=st.sampled_from(CLOSED_FORM_LAYOUTS),
       pool=st.integers(0, len(LIMIT_POOLS) - 1), count=st.integers(1, 2),
       rotated=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_cesaro_limit_oracle_equals_clustering_reference(layout, pool, count,
                                                         rotated, seed):
    algebra = TracedAlgebra(layout)
    rng = stream(seed, "test/ergodic/limit-reference")
    ops = commuting_conjugations(rng, algebra, LIMIT_POOLS[pool], count, rotated)
    x = algebra.random_element(rng)
    gap = (cesaro_limit_oracle(ops, x) - reference_limit_oracle(ops, x)).sup_norm()
    assert gap <= 1e-12 * max(1.0, x.sup_norm())


def test_cesaro_limit_of_a_defective_conjugator():
    """A conjugator unitary only to 1e-10 (sheared and off the circle) has
    no closed-form average, but its limit still equals the reference."""
    a = TracedAlgebra(((3, 1.0), (1, 0.5)))
    rng = stream(SEED, "test/ergodic/limit-defective")
    t = np.diag([1.0 + 1e-10, 1.0, -1.0]).astype(complex)
    t[0, 1] = 1e-10
    v = random_unitary(rng, 3)
    op = UnitaryConjugation(Element(a, [v @ t @ v.conj().T, np.array([[1j]])]))
    x = a.random_element(rng)
    assert op.cesaro_average(x, 5) is None
    gap = (cesaro_limit_oracle([op], x) - reference_limit_oracle([op], x)).sup_norm()
    assert gap <= 1e-12 * max(1.0, x.sup_norm())


def test_cesaro_average_over_whole_periods_is_the_limit():
    """With phases that are multiples of 2 pi / p, the average over k p
    steps is the limit."""
    algebra = TracedAlgebra(((2, 1.0), (1, 0.5), (3, 2.0)))
    rng = stream(SEED, "test/ergodic/limit-periods")
    p = 6
    pool = np.exp(2j * np.pi * np.arange(p) / p)
    for rotated in (False, True):
        op, = commuting_conjugations(rng, algebra, pool, 1, rotated)
        x = algebra.random_element(rng)
        limit = op.cesaro_limit(x)
        for k in (1, 2, 50):
            gap = (op.cesaro_average(x, k * p) - limit).sup_norm()
            assert gap <= 1e-12 * max(1.0, x.sup_norm())


def test_average_and_limit_share_one_schur_basis(monkeypatch):
    """``box_average`` then ``cesaro_limit_oracle`` on one fresh conjugation
    factorizes each block of size d > 1 once; 1x1 blocks need none."""
    algebra = TracedAlgebra(((2, 1.0), (1, 0.5), (3, 2.0), (3, 1.0)))
    rng = stream(SEED, "test/ergodic/limit-schur-count")
    op = UnitaryConjugation(random_unitary_element(rng, algebra))
    x = algebra.random_element(rng)
    calls = [0]

    def counting(*args, _schur=scipy.linalg.schur, **kwargs):
        calls[0] += 1
        return _schur(*args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "schur", counting)
    box_average([op], x, (5,))
    cesaro_limit_oracle([op], x)
    assert calls[0] == 3


# -- weighted flows -----------------------------------------------------------

def test_besicovitch_constant_weight_identity_flow():
    a = TracedAlgebra(((2, 1.0),))
    x = a.random_element(stream(SEED, "test/ergodic/bes-const"))
    beta = BesicovitchFunction(TrigPolynomial(((1.0, 0.0),)))
    flow = UnitaryFlow(a.zero())
    avg = besicovitch_average(beta, flow, x, 3.0)
    assert (avg - x).sup_norm() < 1e-14


def test_besicovitch_closed_form():
    algebra, beta, flow, x, closed = besicovitch_theta_fixture()
    for t in (1.0, 10.0, 100.0):
        avg = besicovitch_average(beta, flow, x, t)
        assert (avg - closed(t)).sup_norm() <= 1e-14


def test_besicovitch_failure_paths():
    a = TracedAlgebra(((2, 1.0),))
    x = a.random_element(stream(SEED, "test/ergodic/bes-fail"))
    beta = BesicovitchFunction(TrigPolynomial(((1.0, 3.0),)))
    flow = UnitaryFlow(a.zero())
    with pytest.raises(InvalidInputError):
        besicovitch_average(beta, flow, x, 0.0)


def test_non_finite_times_and_frequencies_are_input_errors():
    a = TracedAlgebra(((2, 1.0),))
    x = a.random_element(stream(SEED, "test/ergodic/bes-non-finite"))
    beta = BesicovitchFunction(TrigPolynomial(((1.0, 3.0),)))
    flow = UnitaryFlow(a.zero())
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="finite"):
            besicovitch_average(beta, flow, x, t)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError, match="frequencies must be finite"):
            besicovitch_average(
                BesicovitchFunction(TrigPolynomial(((1.0, 0.0), (0.5, theta)))),
                flow, x, 1.0)


def test_unitary_flow_semigroup_law():
    algebra, _, flow, x = unitary_flow_fixture()
    y = flow.apply(0.7, flow.apply(1.1, x))
    z = flow.apply(1.8, x)
    assert (y - z).sup_norm() < 1e-10
    assert (flow.apply(0.0, x) - x).sup_norm() < 1e-12


def test_interpolation_flow():
    a = TracedAlgebra(((2, 1.0),))
    p = Element(a, [np.diag([1.0, 0.0])], selfadjoint=True, positive=True,
                projection=True)
    q = Element(a, [np.diag([0.0, 1.0])], selfadjoint=True, positive=True,
                projection=True)
    flow = InterpolationFlow(Pinching([p, q]))
    x = a.random_element(stream(SEED, "test/ergodic/interp"))
    y = flow.apply(0.5, x)
    assert (y - flow.apply(0.25, flow.apply(0.25, x))).sup_norm() < 1e-9
    # a non-idempotent map is rejected as the interpolation target
    u = Element(a, [np.diag([1.0, 1.0j])])
    with pytest.raises(InvalidInputError):
        InterpolationFlow(UnitaryConjugation(u))


def test_interpolation_flow_decides_idempotency_on_the_matrix():
    """E^2 = E is read from E's matrix: a block expectation and a pinching
    composed with itself are accepted, and their flows keep the semigroup
    law; a convex combination of a pinching and a conjugation, positive
    but not idempotent, is refused."""
    rng = stream(SEED, "test/ergodic/interp-matrix")
    a = TracedAlgebra(((2, 1.0), (1, 0.5), (3, 2.0), (2, 0.25)))
    p = random_pinching(rng, a)
    x = a.random_element(rng)
    for e in (random_block_expectation(rng, a), Composition([p, p])):
        flow = InterpolationFlow(e)
        law = flow.apply(1.5, x) - flow.apply(0.5, flow.apply(1.0, x))
        assert law.sup_norm() <= 1e-12 * max(1.0, x.sup_norm())
    mixed = ConvexCombination(
        [(0.5, p), (0.5, UnitaryConjugation(random_unitary_element(rng, a)))])
    assert mixed.structurally_positive()
    with pytest.raises(InvalidInputError, match="idempotent"):
        InterpolationFlow(mixed)


def test_unitary_flow_refuses_a_non_unitary_eigenbasis(monkeypatch):
    """The flow's one law check: an eigenbasis v with v*v - 1 above
    ``UNITARY_TOL`` is a numeric failure."""
    gen = Element(TracedAlgebra(((2, 1.0),)), [np.diag([0.0, 1.0])], selfadjoint=True)

    def skewed(h, _eigh=np.linalg.eigh):
        w, v = _eigh(h)
        return w, v * (1.0 + 1e-6)
    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(NumericFailureError, match="eigenbasis"):
        UnitaryFlow(gen)


def test_flow_laws_and_selfadjointness_draw_no_random_element(monkeypatch):
    """The semigroup law, an expectation's idempotency and selfadjointness
    preservation are decided without a random draw: with
    ``random_element`` raising, both flows are built and applied, and
    ``check_selfadjointness``, which takes the map alone, decides the
    transpose and a left multiplication."""
    a = TracedAlgebra(((2, 1.0), (1, 0.5), (2, 0.25)))
    rng = stream(SEED, "test/ergodic/no-draw")
    gen = a.random_element(rng, selfadjoint=True)
    x = a.random_element(rng)

    def refuse(*args, **kwargs):
        raise AssertionError("random_element called")
    monkeypatch.setattr(TracedAlgebra, "random_element", refuse)
    for flow in (UnitaryFlow(gen), InterpolationFlow(_coordinate_pinching(a))):
        assert np.isfinite(flow.apply(0.5, x).vec()).all()
    m2 = TracedAlgebra(((2, 1.0),))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert check_selfadjointness(ExplicitMatrix(m2, np.eye(4)[[0, 2, 1, 3]]))
    assert not check_selfadjointness(ExplicitMatrix(m2, np.kron(swap, np.eye(2))))
    assert list(inspect.signature(check_selfadjointness).parameters) == ["op"]


# flows on a 1x1 layout and on a multi-block layout with a repeated dim
FLOW_LAYOUTS = (((1, 1.0),), ((2, 1.0), (1, 0.5), (2, 0.25), (3, 2.0)))


def _coordinate_pinching(algebra):
    """The pinching by the even and odd coordinate projections."""
    def projection(parity):
        return Element(algebra, [np.diag((np.arange(d) % 2 == parity)
                                         .astype(complex)) for d in algebra.dims],
                       selfadjoint=True, positive=True, projection=True)
    return Pinching([projection(0), projection(1)])


def _flows(algebra):
    rng = stream(SEED, "test/ergodic/orbit-generator")
    gen = algebra.random_element(rng, selfadjoint=True)
    return [UnitaryFlow(gen), InterpolationFlow(_coordinate_pinching(algebra))]


FLOWS = {layout: _flows(TracedAlgebra(layout)) for layout in FLOW_LAYOUTS}


def reference_apply(flow, s, x):
    """T_s(x) from the flow's defining formula, through ``Element``
    arithmetic."""
    if isinstance(flow, InterpolationFlow):
        decay = math.exp(-s)
        return x.scaled(decay) + flow.expectation.apply(x).scaled(1.0 - decay)
    data = [None] * len(x.algebra.dims)
    for g, (ws, vs), xs in zip(x.algebra.groups, flow._eig, x.stacks):
        for i, w, v, xb in zip(g, ws, vs, xs):
            u = (v * np.exp(1j * s * w)) @ v.conj().T
            data[i] = u @ xb @ u.conj().T
    return Element(x.algebra, data, selfadjoint=x.selfadjoint)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(layout=FLOW_LAYOUTS[1], kind=1, seed=0, selfadjoint=True,
         times=list(np.linspace(0.0, 8.0, 129)))  # np.exp differs on some
@example(layout=FLOW_LAYOUTS[1], kind=0, seed=1, selfadjoint=False,
         times=list(np.linspace(0.0, 8.0, 129)))
@given(layout=st.sampled_from(FLOW_LAYOUTS), kind=st.sampled_from((0, 1)),
       seed=st.integers(0, 2 ** 16), selfadjoint=st.booleans(),
       times=st.lists(st.sampled_from((0.0, 0.25, 1.0, 3.7))
                      | st.floats(0.0, 20.0), min_size=1, max_size=7))
def test_orbit_rows_equal_apply(layout, kind, seed, selfadjoint, times):
    """Each flow's ``apply`` equals the reference bit for bit along an
    orbit: s = 0 and repeated times included."""
    flow = FLOWS[layout][kind]
    x = flow.algebra.random_element(stream(seed, "test/ergodic/orbit"),
                                    selfadjoint=selfadjoint)
    for s in times:
        assert np.array_equal(flow.apply(s, x).vec(),
                              reference_apply(flow, s, x).vec())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(layout=st.sampled_from(FLOW_LAYOUTS), kind=st.sampled_from((0, 1)),
       seed=st.integers(0, 2 ** 16),
       t=st.sampled_from((1e-3, 7.0, 1e3)) | st.floats(1e-3, 1e3))
def test_besicovitch_average_scales_by_powers_of_two(layout, kind, seed, t):
    """The average of 2^k x is 2^k times the average of x, bit for bit,
    for every k in [-60, 60]."""
    flow = FLOWS[layout][kind]
    x = flow.algebra.random_element(stream(seed, "test/ergodic/scale"))
    beta = BesicovitchFunction(TrigPolynomial(((1.0, 0.0), (0.5, 1.3))))
    base = besicovitch_average(beta, flow, x, t).vec()
    for k in range(-60, 61):
        scaled = besicovitch_average(beta, flow, x.scaled(2.0 ** k), t).vec()
        assert np.array_equal(scaled, base * 2.0 ** k), k


def brute_exp_mean(z):
    """(e^z - 1)/z, 1 at z = 0, entry by entry from the real and imaginary
    parts, e^z - 1 = expm1(Re z) cos(Im z) - 2 sin^2(Im z / 2) + i e^{Re z} sin(Im z)."""
    if z == 0:
        return 1.0
    re = math.expm1(z.real) * math.cos(z.imag) - 2.0 * math.sin(z.imag / 2) ** 2
    return complex(re, math.exp(z.real) * math.sin(z.imag)) / z


@pytest.mark.parametrize("t", (1e-3, 7.3, 1e3))
def test_besicovitch_average_matches_a_per_entry_kernel(t):
    """Both flows' closed forms against kernels built entry by entry: the
    unitary flow's in the generator's known eigenbasis q, with repeated
    eigenvalues and a frequency theta = w_b - w_a of the flow's own
    eigenvalues (its g(0) entries), on 1x1, mixed and many-block layouts;
    the empty weight averages to 0."""
    rng = stream(SEED, "test/ergodic/besicovitch-kernel")
    for layout in CLOSED_FORM_LAYOUTS:
        algebra = TracedAlgebra(layout)
        ws = [rng.choice([-1.0, 0.5, 2.0], size=d) for d in algebra.dims]
        for w in ws:
            w[1:2] = w[0]  # a repeated eigenvalue in every block larger than 1x1
        qs = [random_unitary(rng, d) for d in algebra.dims]
        gen = Element(algebra, [(q * w) @ q.conj().T for q, w in zip(qs, ws)])
        unitary = UnitaryFlow(gen)
        pinching = InterpolationFlow(_coordinate_pinching(algebra))
        x = algebra.random_element(rng)
        # the eigenvalues of the last block, the last of its group
        j = next(j for j, g in enumerate(algebra.groups) if len(algebra.dims) - 1 in g)
        w_eig = unitary._eig[j][0][-1]
        terms = ((0.6, 0.7), (0.4j, -1.3), (0.25 - 0.5j, w_eig[-1] - w_eig[0]),
                 (0.3, 0.0))
        beta = BesicovitchFunction(TrigPolynomial(terms))
        scale = max(1.0, x.sup_norm())

        expected = []
        for q, w, xb in zip(qs, ws, x.data):
            y = q.conj().T @ xb @ q
            k = np.array([[sum(c * brute_exp_mean(1j * (th + w[a] - w[b]) * t)
                               for c, th in terms)
                           for b in range(len(w))] for a in range(len(w))])
            expected.append(q @ (y * k) @ q.conj().T)
        got = besicovitch_average(beta, unitary, x, t)
        assert (got - Element(algebra, expected)).sup_norm() <= 1e-10 * scale

        a = sum(c * brute_exp_mean(1j * th * t) for c, th in terms)
        b = sum(c * brute_exp_mean(complex(-t, th * t)) for c, th in terms)
        expected = [xb * np.where(np.equal.outer(np.arange(len(xb)) % 2,
                                                 np.arange(len(xb)) % 2), a, b)
                    for xb in x.data]
        got = besicovitch_average(beta, pinching, x, t)
        assert (got - Element(algebra, expected)).sup_norm() <= 1e-10 * scale

        empty = BesicovitchFunction(TrigPolynomial(()))
        for flow in (unitary, pinching):
            assert not besicovitch_average(empty, flow, x, t).vec().any()


def test_flow_outputs_must_be_finite():
    a = TracedAlgebra(((2, 1.0),))
    with pytest.raises(InvalidInputError):  # a non-finite x is never built
        Element(a, [np.array([[np.inf, 0.0], [0.0, 1.0]])])
    beta = BesicovitchFunction(TrigPolynomial(((1.0, 0.0),)))
    # rotations e^{isY}: at s = pi/8 one diagonal entry of T_s(x) is
    # sqrt(2) times the entries of x
    unitary = UnitaryFlow(Element(a, [np.array([[0.0, -1j], [1j, 0.0]])]))
    x = a.random_element(stream(SEED, "test/ergodic/finite"))
    for flow in (unitary, InterpolationFlow(_coordinate_pinching(a))):
        with pytest.raises(InvalidInputError, match="non-finite"):
            flow.apply(np.nan, x)
    huge = Element(a, [1.5e308 * np.array([[1.0, 1.0], [1.0, -1.0]])])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(unitary.apply(0.0, huge).vec()).all()
        with pytest.raises(InvalidInputError, match="non-finite"):
            unitary.apply(0.4, huge)
    # the average of the rotated huge x is finite, 1.5e308 times that of the
    # unit-scale x: no node T_s(x) is formed
    unit = besicovitch_average(beta, unitary, huge.scaled(1 / 1.5e308), 2.0)
    avg = besicovitch_average(beta, unitary, huge, 2.0)
    assert np.abs(avg.vec() / 1.5e308 - unit.vec()).max() <= 1e-15
