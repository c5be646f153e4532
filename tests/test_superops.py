import numpy as np
import pytest

from conftest import MANY_BLOCKS, SEED, BLOCK_CONFIGS, make_algebra, \
    random_block_expectation, random_pinching, random_projection, \
    random_unitary_element
from ncergo import BlockExpectation, Composition, ConvexCombination, Element, \
    ExplicitMatrix, Pinching, Power, TracedAlgebra, UnitaryConjugation, \
    audit_submajorization, check_positivity, fava_decompose, lp_norm, \
    preserves_fava, submajorizes, verify_ds
from ncergo.errors import InvalidInputError
from ncergo.rng import stream
from ncergo.superops import SuperOperator, check_selfadjointness


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


def test_explicit_matrix_rejects_block_coupling():
    a = TracedAlgebra(((1, 1.0), (1, 1.0)))
    with pytest.raises(InvalidInputError):
        ExplicitMatrix(a, np.array([[0.0, 1.0], [1.0, 0.0]]))


# -- adjoints -----------------------------------------------------------------

@pytest.mark.parametrize("layout", [((1, 1.0),), ((2, 1.0), (1, 0.5), (3, 2.0)),
                                    MANY_BLOCKS])
def test_closed_form_matrix_equals_column_build(layout):
    """kron(u, conj(u)), sum_p kron(p, p^T) and diag(vec(mask)) per block
    against the base class's apply-per-basis-element build."""
    a = TracedAlgebra(layout)
    rng = stream(SEED, "test/superops/to-matrix")
    for op in (UnitaryConjugation(random_unitary_element(rng, a)),
               random_pinching(rng, a, parts=3), random_block_expectation(rng, a)):
        closed = op.to_matrix()
        columns = SuperOperator._build_matrix(op)
        assert closed.shape == columns.shape == (a.vec_dim, a.vec_dim)
        assert closed.dtype == columns.dtype
        assert np.abs(closed - columns).max() <= 1e-15
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
