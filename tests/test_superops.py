import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from conftest import LAYOUTS, MANY_BLOCKS, SEED, BLOCK_CONFIGS, assembled, \
    assert_group_stacks, column_matrix, make_algebra, random_block_expectation, \
    random_pinching, random_projection, spectrum_examples, random_unitary_element
from ncergo import BlockExpectation, Composition, ConvexCombination, DSCertificate, \
    Element, ExplicitMatrix, Pinching, Power, TracedAlgebra, UnitaryConjugation, \
    audit_submajorization, check_positivity, fava_decompose, lp_norm, \
    preserves_fava, submajorizes, verify_ds
from ncergo.config import COUPLING_TOL, DS_SLACK, SELFADJOINT_TOL
from ncergo.errors import InvalidInputError
from ncergo.rng import stream
from ncergo.superops import check_selfadjointness


def two_block_pinching(algebra):
    """Pinching by a diagonal split of every block."""
    dims = algebra.dims
    tops, bottoms = [], []
    for d in dims:
        k = d // 2
        tops.append(np.diag([1.0] * k + [0.0] * (d - k)).astype(complex))
        bottoms.append(np.diag([0.0] * k + [1.0] * (d - k)).astype(complex))
    p = Element(algebra, tops, selfadjoint=True, positive=True, projection=True)
    q = Element(algebra, bottoms, selfadjoint=True, positive=True,
                projection=True)
    return Pinching([p, q])


def transpose_map(algebra):
    """x -> x^T as an explicit matrix (positive but not a conjugation)."""
    d = algebra.vec_dim
    m = np.zeros((d, d))
    offset = 0
    for dim in algebra.dims:
        for i in range(dim):
            for j in range(dim):
                m[offset + i * dim + j, offset + j * dim + i] = 1.0
        offset += dim * dim
    return ExplicitMatrix(algebra, m)


# -- apply --------------------------------------------------------------------

def test_unitary_conjugation_identity():
    a = TracedAlgebra(((3, 1.0),))
    op = UnitaryConjugation(a.identity())
    x = a.random_element(stream(SEED, "test/superops/conj-id"))
    assert (op.apply(x) - x).sup_norm() < 1e-12


def test_unitary_conjugation_rejects_non_unitary():
    a = TracedAlgebra(((2, 1.0),))
    with pytest.raises(InvalidInputError):
        UnitaryConjugation(a.identity().scaled(2.0))


def test_pinching_kills_off_diagonal():
    a = TracedAlgebra(((2, 1.0),))
    p = Element(a, [np.diag([1.0, 0.0])], selfadjoint=True, positive=True,
                projection=True)
    q = Element(a, [np.diag([0.0, 1.0])], selfadjoint=True, positive=True,
                projection=True)
    op = Pinching([p, q])
    x = Element(a, [np.array([[1.0, 2.0], [3.0, 4.0]])])
    y = op.apply(x)
    assert np.abs(y.data[0] - np.diag([1.0, 4.0])).max() < 1e-12


def test_pinching_validation():
    a = TracedAlgebra(((2, 1.0),))
    p = Element(a, [np.diag([1.0, 0.0])], selfadjoint=True, positive=True,
                projection=True)
    with pytest.raises(InvalidInputError):
        Pinching([p])  # does not sum to 1
    with pytest.raises(InvalidInputError):
        Pinching([p, p, p])
    # an oblique pair: p + q = 1 and pq = qp = 0, but p x p + q x q is no
    # sandwich a x a*, and its image of diag(1, -1) is [[1, 2], [0, -1]]
    oblique = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError, match="selfadjoint flag"):
        Pinching([Element(a, [oblique]), Element(a, [np.eye(2) - oblique])])
    unflagged = Pinching([Element(a, [np.diag([1.0, 0.0])]), Element(a, [np.diag([0.0, 1.0])])])
    assert all(r.selfadjoint for r in unflagged.projections)


def test_block_expectation_masks_groups():
    a = TracedAlgebra(((3, 1.0),))
    op = BlockExpectation(a, [[[0, 1], [2]]])
    x = Element(a, [np.arange(9.0).reshape(3, 3)])
    y = op.apply(x)
    expected = x.data[0].copy()
    expected[0, 2] = expected[1, 2] = 0.0
    expected[2, 0] = expected[2, 1] = 0.0
    assert np.abs(y.data[0] - expected).max() < 1e-12
    with pytest.raises(InvalidInputError):
        BlockExpectation(a, [[[0, 1]]])  # index 2 missing


def test_block_expectation_refuses_a_non_integer_index():
    a = TracedAlgebra(((3, 1.0),))
    with pytest.raises(InvalidInputError, match="partition index"):
        BlockExpectation(a, [[[0, 1.9], [2]]])
    op = BlockExpectation(a, [[[np.int64(0), 1], [2]]])
    assert op.partition == (((0, 1), (2,)),)


def test_convex_combination_linearity():
    rng = stream(SEED, "test/superops/convex")
    a = make_algebra(BLOCK_CONFIGS[4])
    ops = [UnitaryConjugation(random_unitary_element(rng, a)),
           two_block_pinching(a)]
    comb = ConvexCombination([(0.3, ops[0]), (0.6, ops[1])])
    x = a.random_element(rng)
    direct = ops[0].apply(x).scaled(0.3) + ops[1].apply(x).scaled(0.6)
    assert (comb.apply(x) - direct).sup_norm() < 1e-10
    y = a.random_element(rng)
    lin = comb.apply(x.scaled(2.0) + y) - comb.apply(x).scaled(2.0) \
        - comb.apply(y)
    assert lin.sup_norm() < 1e-10


def test_convex_combination_weight_validation():
    a = TracedAlgebra(((2, 1.0),))
    op = UnitaryConjugation(a.identity())
    with pytest.raises(InvalidInputError):
        ConvexCombination([(-0.1, op)])
    with pytest.raises(InvalidInputError):
        ConvexCombination([(0.7, op), (0.7, op)])


def test_composition_order():
    a = TracedAlgebra(((2, 1.0),))
    u = Element(a, [np.diag([1.0, -1.0]).astype(complex)])
    conj = UnitaryConjugation(u)
    pinch = two_block_pinching(a)
    comp = Composition([conj, pinch])  # pinch first, conjugation last
    x = a.random_element(stream(SEED, "test/superops/composition"))
    assert (comp.apply(x) - conj.apply(pinch.apply(x))).sup_norm() < 1e-12


def test_power_matches_repeated_application():
    rng = stream(SEED, "test/superops/power")
    a = TracedAlgebra(((3, 1.0),))
    base = UnitaryConjugation(random_unitary_element(rng, a))
    x = a.random_element(rng)
    for k in (0, 1, 3, 7):
        y = x
        for _ in range(k):
            y = base.apply(y)
        assert (Power(base, k).apply(x) - y).sup_norm() < 1e-10
    with pytest.raises(InvalidInputError):
        Power(base, -1)


def test_power_refuses_a_non_integer_exponent():
    a = TracedAlgebra(((2, 1.0),))
    base = UnitaryConjugation(a.identity())
    for exponent in (2.5, 2.0):
        with pytest.raises(InvalidInputError, match="exponent"):
            Power(base, exponent)
    assert Power(base, np.int64(3)).exponent == 3


def test_explicit_matrix_rejects_block_coupling():
    a = TracedAlgebra(((1, 1.0), (1, 1.0)))
    with pytest.raises(InvalidInputError):
        ExplicitMatrix(a, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_explicit_matrix_entries_between_blocks_do_not_act():
    """Entries between blocks below ``COUPLING_TOL`` are accepted and
    ignored: ``apply`` equals, bit for bit, the map with them zeroed, and
    ``matrix`` keeps them as given."""
    rng = stream(SEED, "test/superops/coupling-ignored")
    for layout in (((1, 1.0), (1, 1000.0)), BLOCK_CONFIGS[6], MANY_BLOCKS):
        a = TracedAlgebra(layout)
        clean = scipy.linalg.block_diag(*[rng.standard_normal((d * d, d * d))
                                          for d in a.dims])
        inside = scipy.linalg.block_diag(*[np.ones((d * d, d * d)) for d in a.dims])
        noisy = clean + np.where(inside > 0, 0.0, 0.9 * COUPLING_TOL
                                 * rng.uniform(-1.0, 1.0, clean.shape))
        op = ExplicitMatrix(a, noisy)
        x = a.random_element(rng)
        got, want = op.apply(x), ExplicitMatrix(a, clean).apply(x)
        assert all(np.array_equal(p, q) for p, q in zip(got.stacks, want.stacks))
        assert np.array_equal(op.matrix, noisy)


def test_explicit_adjoint_per_block_equals_the_transposed_matrix_route():
    """``ExplicitMatrix.adjoint`` conjugate-transposes each block's matrix:
    its matrices, its action and its ``matrix`` equal, bit for bit, those of
    the map built from the conjugate transpose of the whole matrix, entries
    between blocks below ``COUPLING_TOL`` included; so does the adjoint's
    adjoint with the map itself."""
    rng = stream(SEED, "test/superops/explicit-adjoint")
    for layout in (((1, 1.0), (1, 1000.0)), BLOCK_CONFIGS[6], MANY_BLOCKS):
        a = TracedAlgebra(layout)
        inside = scipy.linalg.block_diag(*[np.ones((d * d, d * d)) for d in a.dims])
        m = np.where(inside > 0, rng.standard_normal(inside.shape)
                     + 1j * rng.standard_normal(inside.shape),
                     0.9 * COUPLING_TOL * rng.uniform(-1.0, 1.0, inside.shape))
        op = ExplicitMatrix(a, m)
        x = a.random_element(rng)
        for got, want in ((op.adjoint(), ExplicitMatrix(a, m.conj().T)),
                          (op.adjoint().adjoint(), op)):
            for g, w in zip(got.to_matrix(), want.to_matrix()):
                assert g.flags.c_contiguous and g.tobytes() == w.tobytes()
            assert all(g.tobytes() == w.tobytes() for g, w
                       in zip(got.apply(x).stacks, want.apply(x).stacks))
            assert np.array_equal(got.matrix, want.matrix)


def test_verify_ds_certifies_an_explicit_map_its_constructor_accepts():
    """The identity on 1x1 blocks of weights 1 and 1000 with an entry
    0.9e-12 between them: its adjoint, the conjugate transpose, keeps that
    entry below ``COUPLING_TOL`` (scaled by the weight ratio it would be
    9e-10 and refused), and the map is certified."""
    a = TracedAlgebra(((1, 1.0), (1, 1000.0)))
    m = np.eye(2)
    m[1, 0] = 0.9e-12
    op = ExplicitMatrix(a, m)
    assert np.array_equal(op.adjoint().matrix, m.T)
    cert = verify_ds(op)
    assert cert.positivity and cert.is_ds()
    assert cert.one_norm_bound == cert.sup_norm_bound == 1.0


@pytest.mark.parametrize("layout", [((1, 1.0),), ((2, 1.0), (1, 0.5), (3, 2.0)),
                                    MANY_BLOCKS])
def test_leaf_matrix_is_its_closed_formula(layout):
    """The one sandwich rule, sum_k kron(a_k, b_k^T) per block, equals the
    leaves' own formulas exactly: kron(u, conj(u)), sum_p kron(p, p^T) and
    diag(vec(mask))."""
    a = TracedAlgebra(layout)
    rng = stream(SEED, "test/superops/leaf-formulas")
    u = random_unitary_element(rng, a)
    pinching = random_pinching(rng, a, parts=3)
    expectation = random_block_expectation(rng, a)
    masks = []
    for groups, d in zip(expectation.partition, a.dims):
        mask = np.zeros((d, d))
        for g in groups:
            mask[np.ix_(g, g)] = 1.0
        masks.append(mask)
    formulas = (
        (UnitaryConjugation(u),
         scipy.linalg.block_diag(*[np.kron(b, b.conj()) for b in u.data])),
        (pinching, scipy.linalg.block_diag(*[
            sum(np.kron(pb, pb.T) for pb in blocks)
            for blocks in zip(*(p.data for p in pinching.projections))])),
        (expectation,
         np.diag(np.concatenate([m.ravel() for m in masks])).astype(complex)))
    for op, formula in formulas:
        matrix = assembled(a, op.to_matrix())
        assert matrix.dtype == formula.dtype
        assert np.array_equal(matrix, formula)


def test_pinching_sums_to_one_absolutely():
    """The sum check is max |sum p - 1| <= PINCHING_TOL, with no relative
    slack: a diagonal entry off by 5e-6 is refused."""
    a = TracedAlgebra(((2, 1.0),))
    p = Element(a, [np.diag([1.0 + 5e-6, 0.0])])
    q = Element(a, [np.diag([0.0, 1.0])])
    with pytest.raises(InvalidInputError, match="sum to 1"):
        Pinching([p, q])


def test_pinching_projections_share_one_algebra():
    a, b = TracedAlgebra(((2, 1.0),)), TracedAlgebra(((2, 2.0),))
    p = Element(a, [np.diag([1.0, 0.0])])
    q = Element(b, [np.diag([0.0, 1.0])])
    with pytest.raises(InvalidInputError, match="one algebra"):
        Pinching([p, q])


def test_explicit_matrix_refuses_non_finite_entries():
    a = TracedAlgebra(((1, 1.0),))
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="non-finite"):
            ExplicitMatrix(a, np.array([[value]]))


# -- adjoints -----------------------------------------------------------------

@pytest.mark.parametrize("layout", [((1, 1.0),), ((2, 1.0), (1, 0.5), (3, 2.0)),
                                    MANY_BLOCKS])
def test_closed_form_matrix_equals_column_build(layout):
    """kron(u, conj(u)), sum_p kron(p, p^T) and diag(vec(mask)) per block
    against the apply-per-basis-element build, ``column_matrix``, each one
    ``(k, d^2, d^2)`` stack per group."""
    a = TracedAlgebra(layout)
    rng = stream(SEED, "test/superops/to-matrix")
    for op in (UnitaryConjugation(random_unitary_element(rng, a)),
               random_pinching(rng, a, parts=3), random_block_expectation(rng, a)):
        closed = op.to_matrix()
        columns = column_matrix(op)
        assert_group_stacks(a, closed)
        assert_group_stacks(a, columns)
        closed_full, columns_full = assembled(a, closed), assembled(a, columns)
        assert closed_full.shape == columns_full.shape == (a.vec_dim, a.vec_dim)
        assert closed_full.dtype == columns_full.dtype
        assert np.abs(closed_full - columns_full).max() <= 1e-15
        assert op.to_matrix() is closed


def test_adjoint_pairing_identity():
    rng = stream(SEED, "test/superops/adjoint")
    a = TracedAlgebra(((2, 0.5), (3, 2.0)))
    ops = [UnitaryConjugation(random_unitary_element(rng, a)),
           two_block_pinching(a),
           BlockExpectation(a, [[[0], [1]], [[0, 1], [2]]]),
           transpose_map(a)]
    ops.append(ConvexCombination([(0.4, ops[0]), (0.5, ops[1])]))
    ops.append(Composition([ops[0], ops[1]]))
    for op in ops:
        adj = op.adjoint()
        for _ in range(5):
            x = a.random_element(rng)
            y = a.random_element(rng)
            lhs = (op.apply(x).adjoint() @ y).tau()
            rhs = (x.adjoint() @ adj.apply(y)).tau()
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_adjoint_of_conjugation_is_reverse_conjugation():
    rng = stream(SEED, "test/superops/adjoint-conj")
    a = TracedAlgebra(((3, 1.0),))
    u = random_unitary_element(rng, a)
    op = UnitaryConjugation(u)
    x = a.random_element(rng)
    roundtrip = op.adjoint().apply(op.apply(x))
    assert (roundtrip - x).sup_norm() < 1e-10


def test_adjoint_of_an_accepted_conjugator_is_not_checked_again():
    """u = sqrtm(1 + D) H has max |uu* - 1| = 7.5e-9, within UNITARY_TOL,
    but max |u*u - 1| = 1.5e-8.  The adjoint holds u* unchecked, and
    verify_ds computes c_1 = ||u*u|| = 1 + 1.5e-8 from it: not a
    contraction, and not an input error."""
    a = TracedAlgebra(((2, 1.0),))
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    u = scipy.linalg.sqrtm(np.eye(2) + 0.75e-8 * np.ones((2, 2))) @ h
    op = UnitaryConjugation(Element(a, [u]))
    adj = op.adjoint()
    assert np.array_equal(adj.u.data[0], u.conj().T)
    cert = verify_ds(op)
    assert cert.method == "exact-positive"
    assert cert.one_norm_bound == pytest.approx(1.0 + 1.5e-8, abs=1e-12)
    assert cert.sup_norm_bound == pytest.approx(1.0 + 1.5e-8, abs=1e-12)
    assert not cert.is_ds()


# -- certification ------------------------------------------------------------

def test_verify_ds_conjugation_and_pinching():
    rng = stream(SEED, "test/superops/verify-ds")
    a = make_algebra(BLOCK_CONFIGS[4])
    for op in (UnitaryConjugation(random_unitary_element(rng, a)),
               two_block_pinching(a)):
        cert = verify_ds(op)
        assert cert.method == "exact-positive"
        assert cert.one_norm_bound == pytest.approx(1.0)
        assert cert.sup_norm_bound == pytest.approx(1.0)
        assert cert.is_ds()


def test_verify_ds_rejects_doubled_identity():
    a = TracedAlgebra(((2, 1.0),))
    op = ExplicitMatrix(a, 2.0 * np.eye(a.vec_dim))
    cert = verify_ds(op)
    assert cert.sup_norm_bound == pytest.approx(2.0)
    assert not cert.is_ds()


def test_verify_ds_transpose_map():
    a = TracedAlgebra(((2, 1.0),))
    cert = verify_ds(transpose_map(a), trials=200)
    assert cert.positivity
    assert cert.method == "sampled"
    assert cert.is_ds()


@pytest.mark.parametrize("trials", [0, -1, 2.5])
def test_verify_ds_needs_a_positivity_sample(trials):
    """With no sample, the sampled positivity check has nothing to refute:
    A(x) = x_12 E_11, which is not positive, would be reported positive,
    with the bounds ||A(1)|| = 0 of a positive map.  ``check_positivity``
    itself refuses such a count, and one that is not an integer."""
    a = TracedAlgebra(((2, 1.0),))
    matrix = np.zeros((4, 4))
    matrix[0, 1] = 1.0
    for check in (verify_ds, check_positivity):
        with pytest.raises(InvalidInputError, match="trials"):
            check(ExplicitMatrix(a, matrix), trials=trials)


def test_check_positivity():
    rng = stream(SEED, "test/superops/positivity")
    a = TracedAlgebra(((2, 1.0),))
    assert check_positivity(UnitaryConjugation(random_unitary_element(rng, a)))
    assert check_positivity(two_block_pinching(a))
    assert check_positivity(transpose_map(a))
    # left multiplication by a non-scalar unitary is not positive
    v = np.array([[0.0, 1.0], [1.0, 0.0]])
    left = ExplicitMatrix(a, np.kron(v, np.eye(2)))
    assert not check_positivity(left)
    assert not check_selfadjointness(left)


def partial_transpose(d, d1):
    """The d^2 x d^2 matrix, on row-major vec, of the transpose of the second
    factor of M_d = M_d1 (x) M_(d/d1): the identity for d1 = d, the full
    transpose for d1 = 1."""
    d2 = d // d1
    m = np.zeros((d * d, d * d))
    for i1, i2, j1, j2 in itertools.product(range(d1), range(d2), range(d1), range(d2)):
        m[(i1 * d2 + j2) * d + j1 * d2 + i2, (i1 * d2 + i2) * d + j1 * d2 + j2] = 1.0
    return m


def choi_blocks(op):
    """Brute force: each block's Choi matrix sum_ij E_ij (x) A(E_ij), built
    from ``apply`` on the block's matrix units."""
    a, blocks = op.algebra, []
    for b, d in enumerate(a.dims):
        choi = np.zeros((d, d, d, d), dtype=complex)
        for i, j in itertools.product(range(d), repeat=2):
            data = [np.zeros((e, e)) for e in a.dims]
            data[b][i, j] = 1.0
            choi[i, :, j, :] = op.apply(Element(a, data)).data[b]
        blocks.append(choi.reshape(d * d, d * d))
    return blocks


def choi_hermitian(op):
    """Each brute-force Choi matrix is Hermitian to 1e-9 relative to its
    largest entry."""
    return all(np.abs(c - c.conj().T).max() <= 1e-9 * max(1.0, np.abs(c).max())
               for c in choi_blocks(op))


def choi_psd(op):
    """Each brute-force Choi matrix is Hermitian and its eigenvalues are at
    least -1e-9 relative to max(1, the largest)."""
    if not choi_hermitian(op):
        return False
    eigenvalues = [np.linalg.eigvalsh(c) for c in choi_blocks(op)]
    return all(w.min() >= -1e-9 * max(1.0, np.abs(w).max()) for w in eigenvalues)


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_selfadjointness_is_choi_hermiticity(layout, seed, zero_block):
    """``check_selfadjointness`` agrees with the brute-force Choi test on
    random explicit maps, the transpose, partial transposes, the sums
    x -> sum_k c_k a_k x a_k* (matrix sum_k c_k a_k (x) conj(a_k)) with
    real and with complex c_k, and trees of them with structural maps.
    Every layout gets a 4x4 block, where M_2 (x) M_2 has a partial
    transpose that is neither the identity nor the transpose; block
    ``zero_block`` of every explicit map is zero."""
    a = TracedAlgebra(tuple(layout) + ((4, 0.5),))
    rng = stream(seed, "test/superops/choi")

    def explicit(blocks):
        blocks = [np.asarray(m, dtype=complex) for m in blocks]
        if zero_block is not None:
            blocks[zero_block % len(blocks)] *= 0.0
        return ExplicitMatrix(a, scipy.linalg.block_diag(*blocks))

    def rand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def sandwich_sum(d, coefficients):
        return sum(c * np.kron(ak, ak.conj()) for c, ak in
                   zip(coefficients, rand(len(coefficients), d, d)))

    partial = [partial_transpose(d, int(rng.choice([f for f in range(1, d + 1)
                                                    if d % f == 0])))
               for d in a.dims[:-1]] + [partial_transpose(4, 2)]
    preserving = [
        explicit([partial_transpose(d, 1) for d in a.dims]),
        explicit(partial),
        explicit([sandwich_sum(d, rng.uniform(-1.0, 1.0, 3)) for d in a.dims]),
    ]
    others = [
        explicit([rand(d * d, d * d) / (d * d) for d in a.dims]),
        explicit([sandwich_sum(d, rand(3)) for d in a.dims]),
    ]
    trees = [Composition([preserving[1], UnitaryConjugation(random_unitary_element(rng, a))]),
             ConvexCombination([(0.5, others[0]), (0.5, random_pinching(rng, a))]),
             Power(preserving[2], 2)]
    assert all(check_selfadjointness(op) for op in preserving)
    assert not any(check_selfadjointness(op) for op in others)
    for op in preserving + others + trees:
        assert check_selfadjointness(op) == choi_hermitian(op)


def counterexample(c):
    """A(x) = c x_12 E_11 on M_2: sup->sup and trace->trace norm c, not positive."""
    matrix = np.zeros((4, 4))
    matrix[0, 1] = c  # row-major vec: x12 is entry 1, the E11 entry is 0
    return ExplicitMatrix(TracedAlgebra(((2, 1.0),)), matrix)


@pytest.mark.parametrize("c", [1.0, 1.05, 1.1])
def test_verify_ds_bounds_the_counterexample_from_above(c):
    """Both bounds are proven upper bounds, at least c (x = E_12 attains
    it in both norms), and only c = 1 is certified.  Sampled norm ratios,
    lower bounds, stay within DS_SLACK of 1 at c = 1.05 and 1.1."""
    cert = verify_ds(counterexample(c))
    assert cert.method == "proven-upper"
    assert not cert.positivity and not cert.selfadjointness
    assert cert.sup_norm_bound >= c and cert.one_norm_bound >= c
    assert cert.sup_norm_bound == pytest.approx(c, rel=1e-9)
    assert cert.is_ds() == (c == 1.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(layout=st.sampled_from((((1, 1.0),), MANY_BLOCKS, BLOCK_CONFIGS[5])),
       seed=st.integers(0, 2 ** 16), kind=st.sampled_from(("conjugation", "pinching")),
       delta=st.floats(1e-8, 1.0), phase=st.sampled_from((1.0, -1.0, 1j)))
def test_a_scaled_norm_one_map_is_never_certified(layout, seed, kind, delta, phase):
    """A conjugation or pinching (norm one) fed back as its explicit matrix
    and scaled by (1 + delta) times a phase is never certified, whichever
    rule bounds it: "exact-cp" for phase 1, the Haagerup bound otherwise."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/superops/scaled")
    op = (UnitaryConjugation(random_unitary_element(rng, a)) if kind == "conjugation"
          else random_pinching(rng, a, parts=3))
    scaled = ExplicitMatrix(a, (1.0 + delta) * phase * assembled(a, op.to_matrix()))
    cert = verify_ds(scaled, trials=5)
    assert cert.method == ("exact-cp" if phase == 1.0 else "proven-upper")
    assert not cert.is_ds()
    assert min(cert.one_norm_bound, cert.sup_norm_bound) >= (1.0 + delta) * (1.0 - 1e-12)


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_proven_upper_bounds_dominate_sampled_ratios(layout, seed, zero_block):
    """On random complex explicit maps, neither positive nor Hermitian
    unless zero, the proven bounds are at least ||A(x)||_inf / ||x||_inf
    and ||A(x)||_1 / ||x||_1 on random x, and on x = the top right singular
    vector of each block's matrix, read back as a block."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/superops/proven-upper")
    blocks = [rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
              for d in a.dims]
    if zero_block is not None:
        blocks[zero_block % len(blocks)] *= 0.0
    op = ExplicitMatrix(a, scipy.linalg.block_diag(*blocks))
    cert = verify_ds(op)
    assert cert.method == ("exact-cp" if len(a.dims) == 1 and zero_block is not None
                           else "proven-upper")
    xs = [a.random_element(rng) for _ in range(10)]
    for b, (m, d) in enumerate(zip(blocks, a.dims)):
        data = [np.zeros((e, e)) for e in a.dims]
        data[b] = np.linalg.svd(m)[2][0].conj().reshape(d, d)
        xs.append(Element(a, data))
    for x in xs:
        y = op.apply(x)
        assert y.sup_norm() <= cert.sup_norm_bound * x.sup_norm()
        assert lp_norm(y, 1) <= cert.one_norm_bound * lp_norm(x, 1)


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_certificate_labels_agree_with_a_brute_force_choi(layout, seed, zero_block):
    """On random explicit maps, the transpose, partial transposes,
    conjugations and pinchings (as themselves and as their explicit
    matrices; block ``zero_block`` of the random map is zero), the label
    follows the brute-force Choi matrices:
    "exact-positive" for a structural map, else "exact-cp" where each is
    PSD, "proven-upper" and not positive where one is not Hermitian, and
    for a Hermitian map that is not CP the samples decide.  A 4x4 block is
    added, where M_2 (x) M_2 has a partial transpose that is not positive."""
    a = TracedAlgebra(tuple(layout) + ((4, 0.5),))
    rng = stream(seed, "test/superops/choi-labels")

    def explicit(blocks):
        return ExplicitMatrix(a, scipy.linalg.block_diag(*blocks))

    random_blocks = [rng.standard_normal((d * d, d * d)) / (d * d) for d in a.dims]
    if zero_block is not None:
        random_blocks[zero_block % len(random_blocks)] *= 0.0
    conjugation = UnitaryConjugation(random_unitary_element(rng, a))
    pinching = random_pinching(rng, a, parts=3)
    ops = [explicit(random_blocks),
           transpose_map(a),
           explicit([partial_transpose(d, 1) for d in a.dims[:-1]] + [partial_transpose(4, 2)]),
           explicit([partial_transpose(d, d) for d in a.dims]),
           conjugation, pinching,
           ExplicitMatrix(a, assembled(a, conjugation.to_matrix())),
           ExplicitMatrix(a, assembled(a, pinching.to_matrix()))]
    methods = []
    for op in ops:
        cert = verify_ds(op, trials=20)
        methods.append(cert.method)
        assert cert.selfadjointness == choi_hermitian(op)
        assert cert.positivity == (cert.method != "proven-upper")
        assert check_positivity(op, trials=20) == cert.positivity
        if op.structurally_positive():
            assert cert.method == "exact-positive"
        elif choi_psd(op):
            assert cert.method == "exact-cp"
        elif not cert.selfadjointness:
            assert cert.method == "proven-upper"
        else:
            assert cert.method in ("sampled", "proven-upper")
    assert methods[1] == "sampled"  # the transpose is positive, not CP
    assert methods[2] == "proven-upper"  # with a partial transpose of M_2 (x) M_2
    assert methods[3] == "exact-cp" and methods[4:6] == ["exact-positive"] * 2


def test_certificate_json_stable():
    a = TracedAlgebra(((2, 1.0),))
    op = two_block_pinching(a)
    assert verify_ds(op).to_json() == verify_ds(op).to_json()


# -- submajorization auditing -------------------------------------------------

def test_audit_submajorization_zero():
    a = TracedAlgebra(((2, 1.0),))
    assert audit_submajorization(two_block_pinching(a), a.zero())


def test_audit_submajorization_pinching():
    rng = stream(SEED, "test/superops/audit")
    a = make_algebra(BLOCK_CONFIGS[4])
    op = two_block_pinching(a)
    cert = verify_ds(op)
    for _ in range(20):
        x = a.random_element(rng)
        assert audit_submajorization(op, x, certificate=cert)


def test_audit_submajorization_rejects_non_ds():
    a = TracedAlgebra(((2, 1.0),))
    op = ExplicitMatrix(a, 2.0 * np.eye(a.vec_dim))
    with pytest.raises(InvalidInputError):
        audit_submajorization(op, a.identity())


def test_exact_positive_norm_bounds_dominate_samples():
    rng = stream(SEED, "test/superops/norm-bounds")
    a = TracedAlgebra(((2, 0.5), (3, 2.0)))
    ops = [UnitaryConjugation(random_unitary_element(rng, a)),
           two_block_pinching(a),
           BlockExpectation(a, [[[0], [1]], [[0, 2], [1]]])]
    for op in ops:
        cert = verify_ds(op)
        for _ in range(10):
            x = a.random_element(rng)
            assert op.apply(x).sup_norm() <= \
                cert.sup_norm_bound * x.sup_norm() + 1e-9
            assert lp_norm(op.apply(x), 1) <= \
                cert.one_norm_bound * lp_norm(x, 1) + 1e-9



# -- operator trees -----------------------------------------------------------

TREE_LEAVES = st.sampled_from(("conjugation", "pinching", "expectation", "explicit"))


def tree_shapes(depth):
    """Leaf names, ("convex" | "composition", [children]) and ("power",
    [child], exponent) nodes, with leaves at most ``depth`` levels down."""
    if depth == 0:
        return TREE_LEAVES
    child = tree_shapes(depth - 1)
    return st.one_of(
        TREE_LEAVES,
        st.tuples(st.sampled_from(("convex", "composition")),
                  st.lists(child, min_size=1, max_size=2)),
        st.tuples(st.just("power"), st.lists(child, min_size=1, max_size=1),
                  st.integers(0, 3)))


def build_tree(shape, rng, a):
    if shape == "conjugation":
        return UnitaryConjugation(random_unitary_element(rng, a))
    if shape == "pinching":
        return random_pinching(rng, a)
    if shape == "expectation":
        return random_block_expectation(rng, a)
    if shape == "explicit":
        blocks = [rng.standard_normal((d * d, d * d)) / (d * d) for d in a.dims]
        return ExplicitMatrix(a, scipy.linalg.block_diag(*blocks))
    if shape[0] == "power":
        return Power(build_tree(shape[1][0], rng, a), shape[2])
    children = [build_tree(c, rng, a) for c in shape[1]]
    if shape[0] == "composition":
        return Composition(children)
    weights = rng.dirichlet(np.ones(len(children))) * rng.uniform(0.5, 1.0)
    return ConvexCombination(list(zip(weights, children)))


def has_explicit_leaf(shape):
    if isinstance(shape, str):
        return shape == "explicit"
    return any(has_explicit_leaf(c) for c in shape[1])


@example(layout=MANY_BLOCKS, seed=1,
         shape=("convex", [("power", [("composition", ["pinching", "expectation"])], 3),
                           ("power", ["conjugation"], 2)]))
@example(layout=BLOCK_CONFIGS[5], seed=2,
         shape=("composition", [("power", ["explicit"], 0), "conjugation"]))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(layout=st.sampled_from((((1, 1.0),), BLOCK_CONFIGS[5], MANY_BLOCKS)),
       shape=tree_shapes(3), seed=st.integers(0, 2 ** 16))
def test_operator_trees_positive_exactly_without_explicit_leaves(layout, shape, seed):
    """On trees of conjugations, pinchings, block expectations and explicit
    matrices, structural positivity is the absence of an explicit leaf, and
    it alone gives the "exact-positive" certificate and preserved adjoints;
    a tree with an explicit leaf is certified from its matrix.  The dense
    matrix composed from the children's, one ``(k, d^2, d^2)`` stack per
    group, is the apply-per-basis-element build."""
    rng = stream(seed, "test/superops/trees")
    a = TracedAlgebra(layout)
    op = build_tree(shape, rng, a)
    assert_group_stacks(a, op.to_matrix())
    matrix = assembled(a, op.to_matrix())
    assert np.abs(matrix - assembled(a, column_matrix(op))).max() \
        <= 1e-12 * max(1.0, np.abs(matrix).max())
    positive = not has_explicit_leaf(shape)
    assert op.structurally_positive() == positive
    cert = verify_ds(op, trials=10)
    if not positive:
        assert cert.method in ("exact-cp", "sampled", "proven-upper")
        assert cert.positivity == (cert.method != "proven-upper")
        return
    assert cert.method == "exact-positive"
    assert cert.one_norm_bound <= 1.0 + DS_SLACK
    assert cert.sup_norm_bound <= 1.0 + DS_SLACK
    assert check_selfadjointness(op)
    y = op.apply(a.random_element(rng, selfadjoint=True))
    assert (y - y.adjoint()).sup_norm() <= SELFADJOINT_TOL * max(1.0, y.sup_norm())


def element_per_node_apply(op, x):
    """The tree ``apply`` as it was before stack actions: one element per
    node, a convex combination summed from zero, a composition applied
    right to left and a power repeated, each leaf by its own ``apply``."""
    if isinstance(op, ConvexCombination):
        out = x.algebra.zero()
        for w, child in op.terms:
            out = out + element_per_node_apply(child, x).scaled(w)
        return out
    if isinstance(op, Composition):
        for child in reversed(op.factors):
            x = element_per_node_apply(child, x)
        return x
    if isinstance(op, Power):
        for _ in range(op.exponent):
            x = element_per_node_apply(op.base, x)
        return x
    return op.apply(x)


@example(layout=MANY_BLOCKS, seed=1,
         shape=("convex", [("power", [("composition", ["pinching", "expectation"])], 3),
                           ("power", ["conjugation"], 0)]))
@example(layout=BLOCK_CONFIGS[5], seed=2,
         shape=("composition", [("power", ["explicit"], 0), "conjugation"]))
@example(layout=BLOCK_CONFIGS[5], seed=3, shape=("power", ["pinching"], 0))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(layout=st.sampled_from((((1, 1.0),), BLOCK_CONFIGS[5], MANY_BLOCKS)),
       shape=tree_shapes(3), seed=st.integers(0, 2 ** 16))
def test_tree_apply_is_the_element_per_node_route(layout, shape, seed):
    """A tree's ``apply``, one element over its stack action, equals the
    element-per-node route bit for bit, with the same flags on inputs
    flagged in every way (``Power(., 0)`` keeps all three); a structural
    tree's certificate is the one that route gives, ``to_json`` included."""
    rng = stream(seed, "test/superops/stack-action")
    a = TracedAlgebra(layout)
    op = build_tree(shape, rng, a)
    h = a.random_element(rng, selfadjoint=True)
    inputs = [a.random_element(rng), h, Element(a, h.data, selfadjoint=False),
              random_projection(rng, a), a.identity()]
    for x in inputs:
        new, old = op.apply(x), element_per_node_apply(op, x)
        assert all(np.array_equal(p, q) for p, q in zip(new.stacks, old.stacks))
        assert (new.selfadjoint, new.positive, new.projection) \
            == (old.selfadjoint, old.positive, old.projection)
    if op.structurally_positive():
        one = a.identity()
        old = DSCertificate(element_per_node_apply(op.adjoint(), one).sup_norm(),
                            element_per_node_apply(op, one).sup_norm(),
                            True, True, "exact-positive")
        assert verify_ds(op).to_json() == old.to_json()


# -- spectral splitting through a map -----------------------------------------

def test_preserves_fava_identity_reduces_to_decomposition():
    rng = stream(SEED, "test/superops/fava-id")
    a = TracedAlgebra(((3, 1.0),))
    x = a.random_element(rng, selfadjoint=True)
    op = UnitaryConjugation(a.identity())
    y, z = preserves_fava(op, x, 0.5)
    y0, z0 = fava_decompose(x, 0.5)
    assert (y - y0).sup_norm() < 1e-12
    assert (z - z0).sup_norm() < 1e-12


def test_preserves_fava_pinching_example():
    a = TracedAlgebra(((2, 1.0),))
    x = Element(a, [np.diag([3.0, 0.1])], selfadjoint=True)
    y, z = preserves_fava(two_block_pinching(a), x, 0.5)
    assert z.sup_norm() <= 0.5 + 1e-12
    assert ((y + z) - x).sup_norm() < 1e-10


def test_preserves_fava_refuses_a_sampled_sup_bound():
    """A(x) = 1.1 (x12 + x21)/2 E11 on M_2 is Hermitian but not positive,
    with sup norm 1.1 at x = [[0, 1], [1, 0]]: its samples refute
    positivity, its bound is the proven 1.1, and ``preserves_fava``
    refuses it as non-positive."""
    a = TracedAlgebra(((2, 1.0),))
    m = np.zeros((4, 4))
    m[0, 1] = m[0, 2] = 0.55
    op = ExplicitMatrix(a, m)
    cert = verify_ds(op)
    assert not cert.positivity and cert.method == "proven-upper"
    assert cert.sup_norm_bound >= 1.1
    x = Element(a, [np.array([[0.0, 1.0], [1.0, 0.0]])], selfadjoint=True)
    assert op.apply(x).sup_norm() == pytest.approx(1.1)
    with pytest.raises(InvalidInputError, match="non-positive"):
        preserves_fava(op, x, 1.0)
    with pytest.raises(InvalidInputError, match="non-positive"):
        preserves_fava(op, x, 1.0, certificate=cert)


def test_preserves_fava_random_suite():
    rng = stream(SEED, "test/superops/fava-random")
    a = make_algebra(BLOCK_CONFIGS[5])
    ops = [UnitaryConjugation(random_unitary_element(rng, a)),
           two_block_pinching(a)]
    for op in ops:
        cert = verify_ds(op)
        for _ in range(10):
            x = a.random_element(rng, selfadjoint=True)
            delta = float(rng.uniform(0.1, 1.0))
            y, z = preserves_fava(op, x, delta, certificate=cert)
            assert z.sup_norm() <= delta + 1e-9
            assert ((y + z) - op.apply(x)).sup_norm() < 1e-9
