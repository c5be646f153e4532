from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import SEED, BLOCK_CONFIGS, LAYOUTS, assembled, \
    grouped_examples, group_stacks, make_algebra, random_block_expectation, \
    random_layout_element, random_pinching, random_projection, \
    random_unitary, random_unitary_element, reference_projection_blocks, \
    same_bits, spectrum_elements, spectrum_examples, tail_weight
from ncergo import ConvexCombination, Element, ExplicitMatrix, \
    InterpolationFlow, TracedAlgebra, UnitaryConjugation, UnitaryFlow, \
    box_average, check_positivity, clip_decompose, enlarge_projection, \
    fava_decompose, k_functional, lp_norm, mu, projection_meet, \
    spectral_projection_below, trace_deficiency
from ncergo.algebra import masked_stacks, projection_from_ranges, \
    range_bases, stack_svds, stacked_singular_values
from ncergo.errors import InvalidInputError
from ncergo.rng import stream


def test_algebra_validation():
    with pytest.raises(InvalidInputError):
        TracedAlgebra(())
    with pytest.raises(InvalidInputError):
        TracedAlgebra(((0, 1.0),))
    with pytest.raises(InvalidInputError):
        TracedAlgebra(((2, 0.0),))
    with pytest.raises(InvalidInputError):
        TracedAlgebra(((2, -1.0),))


class _FailingIndex:
    """A type whose ``__index__`` exists but refuses, as a bad input may."""

    def __index__(self):
        raise TypeError("not an index")


def test_algebra_refuses_a_non_integer_dim():
    for dim in (2.5, 2.0, "2", True, _FailingIndex()):
        with pytest.raises(InvalidInputError, match="block dim"):
            TracedAlgebra(((dim, 1.0),))
    assert TracedAlgebra(((np.int64(2), 1.0),)).dims == (2,)


def test_total_trace_and_vec_dim():
    a = TracedAlgebra(((2, 0.5), (3, 2.0)))
    assert a.total_trace == 0.5 * 2 + 2.0 * 3
    assert a.vec_dim == 4 + 9
    assert a.dims == (2, 3)
    assert a.weights == (0.5, 2.0)


def test_identity_and_zero():
    a = TracedAlgebra(((3, 1.0), (2, 0.25)))
    one = a.identity()
    assert one.projection
    assert one.tau() == pytest.approx(3.0 + 0.5)
    assert a.zero().tau() == 0.0
    assert a.zero().sup_norm() == 0.0


def test_element_shape_and_finiteness_checks():
    a = TracedAlgebra(((2, 1.0),))
    with pytest.raises(InvalidInputError):
        Element(a, [np.eye(3)])
    with pytest.raises(InvalidInputError):
        Element(a, [np.eye(2), np.eye(2)])
    with pytest.raises(InvalidInputError):
        Element(a, [np.array([[np.nan, 0], [0, 1]])])


def test_flag_verification():
    a = TracedAlgebra(((2, 1.0),))
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        Element(a, [m], selfadjoint=True)
    with pytest.raises(InvalidInputError):
        Element(a, [np.diag([1.0, -1.0])], positive=True)
    with pytest.raises(InvalidInputError):
        Element(a, [np.diag([1.0, 0.5])], projection=True)
    e = Element(a, [np.diag([1.0, 0.0])], selfadjoint=True, positive=True,
                projection=True)
    assert e.projection


def test_flag_verification_fails_closed_near_overflow():
    """The Hermitian part is halved before it is added, so it cannot
    overflow into NaN eigenvalues, and a NaN gap or an element whose norm
    overflows refuses its flags instead of passing them."""
    a = TracedAlgebra(((2, 1.0),))
    big = np.finfo(float).max
    refused = [
        ([np.diag([-1.7e308, -1.7e308])], "positive flag fails"),
        ([np.array([[1e308, 1.5e308], [1.5e308, 1e308]])], "norm overflows"),
        ([np.array([[big, big], [-big, big]])], "norm overflows"),
    ]
    for data, message in refused:
        with pytest.raises(InvalidInputError, match=message):
            Element(a, data, selfadjoint=True, positive=True)
    with pytest.raises(InvalidInputError, match="positive flag fails"):
        Element(TracedAlgebra(((1, 1.0),)), [np.array([[-big]])], positive=True)
    x = Element(a, [np.diag([big, 1.7e308])], selfadjoint=True, positive=True)
    assert x.sup_norm() == big


def test_immutability():
    a = TracedAlgebra(((2, 1.0),))
    x = a.identity()
    with pytest.raises(AttributeError):
        x.data = None
    with pytest.raises(ValueError):
        x.data[0][0, 0] = 5.0


def test_spectrum_cache_is_read_only():
    rng = stream(SEED, "test/algebra/spectrum-cache")
    x = make_algebra(BLOCK_CONFIGS[5]).random_element(rng)
    before = [s.copy() for s in x.singular_values()]
    svals, svds = x.singular_values(), x.stack_svds()
    for s in svals:
        with pytest.raises(ValueError):
            s[0] = -1.0
    for usv in svds:
        for arr in usv:
            with pytest.raises(ValueError):
                arr[0] = 0.0
    svals[0] = np.zeros(1)
    svals.clear()
    assert len(x.stack_svds()) == len(x.stacks)
    assert all(np.array_equal(s, b)
               for s, b in zip(x.singular_values(), before))
    flat = [a.copy() for a in x.flat_spectrum()]
    for arr in (*x.flat_spectrum(), x.algebra.value_weights, mu(x).edges,
                mu(x).values):
        with pytest.raises(ValueError):
            arr[0] = -1.0
    assert all(np.array_equal(a, b) for a, b in zip(x.flat_spectrum(), flat))


def test_cached_norms_equal_uncached():
    rng = stream(SEED, "test/algebra/cached-norms")
    for config in BLOCK_CONFIGS:
        a = make_algebra(config)
        x = a.random_element(rng)
        x.singular_values()
        cached = [x.sup_norm()] + [lp_norm(x, p) for p in (1.0, 2.0, 3.0)]
        fresh = Element(a, x.data)
        assert cached == [fresh.sup_norm()] \
            + [lp_norm(fresh, p) for p in (1.0, 2.0, 3.0)]
        assert x.sup_norm() == max(abs(b[0, 0]) if b.shape[0] == 1
                                   else np.linalg.norm(b, 2) for b in x.data)


def test_spectrum_computed_once_and_not_for_unflagged(monkeypatch):
    calls = []
    for name in ("svd", "norm", "eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rng = stream(SEED, "test/algebra/no-norm")
    a = make_algebra(BLOCK_CONFIGS[6])
    x = a.random_element(rng)
    y = Element(a, x.data)
    _ = x + y, x - y, x @ y, x.scaled(2.0), -x
    assert calls == []
    for _ in range(3):
        x.sup_norm()
        x.singular_values()
        lp_norm(x, 1.0)
    assert calls == ["svd"] * len(a.groups)  # one stacked call per group
    assert len(a.groups) == 3


def test_spectrum_readers_share_one_svd_per_group(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append("svd")
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    a = make_algebra(BLOCK_CONFIGS[6])
    x = a.random_element(stream(SEED, "test/algebra/one-svd"))
    for _ in range(2):
        mu(x)
        lp_norm(x, 2.0)
        k_functional(x, 1.0)
        tail_weight(x, 0.5)
    assert calls == ["svd"] * len(a.groups)


def test_arithmetic():
    a = TracedAlgebra(((2, 1.0),))
    rng = stream(SEED, "test/algebra/arithmetic")
    x = a.random_element(rng)
    y = a.random_element(rng)
    assert ((x + y) - y - x).sup_norm() < 1e-12
    assert ((x @ y).data[0] == x.data[0] @ y.data[0]).all()
    assert (x.scaled(2.0) - x - x).sup_norm() < 1e-12
    assert ((-x) + x).sup_norm() == 0.0
    assert (x.adjoint().adjoint() - x).sup_norm() == 0.0


def test_tau_selfadjoint_is_real():
    a = TracedAlgebra(((3, 0.5),))
    rng = stream(SEED, "test/algebra/tau")
    x = a.random_element(rng, selfadjoint=True)
    t = x.tau()
    assert isinstance(t, float)
    assert t == pytest.approx(0.5 * np.trace(x.data[0]).real)
    y = a.random_element(rng)
    assert isinstance(y.tau(), complex)


def test_vec_round_trip():
    rng = stream(SEED, "test/algebra/vec")
    for config in BLOCK_CONFIGS:
        a = make_algebra(config)
        x = a.random_element(rng)
        y = Element.from_vec(a, x.vec())
        assert (x - y).sup_norm() == 0.0


def test_random_element_is_deterministic():
    a = TracedAlgebra(((3, 1.0),))
    x = a.random_element(stream(SEED, "test/algebra/det"))
    y = a.random_element(stream(SEED, "test/algebra/det"))
    assert (x - y).sup_norm() == 0.0


def test_projection_from_ranges_is_exact_idempotent():
    rng = stream(SEED, "test/algebra/proj")
    for config in BLOCK_CONFIGS:
        a = make_algebra(config)
        for _ in range(5):
            e = random_projection(rng, a)
            gap = max(np.abs(b @ b - b).max(initial=0.0) for b in e.data)
            assert gap <= 1e-10
            assert e.projection


def test_projection_meet_known_subspaces():
    a = TracedAlgebra(((3, 1.0),))
    span_xy = projection_from_ranges(a, [np.eye(3)[:, :2].astype(complex)])
    span_yz = projection_from_ranges(a, [np.eye(3)[:, 1:].astype(complex)])
    m = projection_meet(span_xy, span_yz)
    expected = np.diag([0.0, 1.0, 0.0])
    assert np.abs(m.data[0] - expected).max() < 1e-10


def test_projection_meet_disjoint_ranges():
    a = TracedAlgebra(((2, 1.0),))
    p = projection_from_ranges(a, [np.array([[1.0], [0.0]], dtype=complex)])
    q = projection_from_ranges(a, [np.array([[0.0], [1.0]], dtype=complex)])
    m = projection_meet(p, q)
    assert m.sup_norm() < 1e-12


def test_projection_meet_refuses_a_non_projection(monkeypatch):
    """An input not flagged a projection is verified, as by
    ``enlarge_projection``, and a selfadjoint non-projection is refused;
    flagged inputs are taken as they are."""
    a = TracedAlgebra(((3, 1.0), (1, 2.0)))
    x = a.random_element(stream(SEED, "test/algebra/meet-refuses"),
                         selfadjoint=True)
    for e, f in ((x, a.identity()), (a.identity(), x)):
        with pytest.raises(InvalidInputError, match="flag fails verification"):
            projection_meet(e, f)
    with pytest.raises(InvalidInputError, match="flag fails verification"):
        enlarge_projection(x, x)
    p = Element(a, a.identity().data)  # a projection not flagged as one
    assert projection_meet(p, a.identity()).projection is True
    checked = []
    verify = Element._verify_flags
    monkeypatch.setattr(Element, "_verify_flags",
                        lambda self: checked.append(self) or verify(self))
    projection_meet(a.identity(), a.zero())
    assert checked == []


def _planted_ranges(rng, d, common):
    """Orthonormal bases (C, A, B) in one d-dimensional block: ``common``
    columns C, and extra columns A and B with dim C + dim A + dim B <= d,
    B turned towards A by a random angle in [pi/8, 3pi/8], so that ran[C|A]
    and ran[C|B] meet in ran C at angles bounded away from zero."""
    extra_a = int(rng.integers(0, d - common + 1))
    extra_b = int(rng.integers(0, d - common - extra_a + 1))
    u = random_unitary(rng, d)
    c, b = u[:, :common], u[:, common + extra_a:common + extra_a + extra_b].copy()
    a_ = u[:, common:common + extra_a]
    k = min(extra_a, extra_b)
    phi = rng.uniform(np.pi / 8, 3 * np.pi / 8)
    b[:, :k] = np.cos(phi) * b[:, :k] + np.sin(phi) * a_[:, :k]
    return c, a_, b


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_projection_meet_recovers_a_planted_common_range(layout, seed,
                                                         zero_block):
    """proj[C|A] ^ proj[C|B] = proj C within 1e-12 for a common range C
    planted in every block (none in block ``zero_block``), e ^ 1 = e and
    e ^ 0 = 0; each meet makes one ``eigh`` per group of blocks larger
    than 1x1 and none on 1x1 groups."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/algebra/planted-meet")
    planted = []
    for i, d in enumerate(a.dims):
        common = 0 if zero_block is not None and i == zero_block % len(a.dims) \
            else int(rng.integers(0, d + 1))
        planted.append(_planted_ranges(rng, d, common))
    c = [c_ for c_, _, _ in planted]
    e = projection_from_ranges(a, [np.hstack([c_, a_]) for c_, a_, _ in planted])
    f = projection_from_ranges(a, [np.hstack([c_, b]) for c_, _, b in planted])
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        meets = [projection_meet(e, f), projection_meet(e, a.identity()),
                 projection_meet(e, a.zero())]
    assert eigh.call_count == 3 * sum(a.dims[g[0]] > 1 for g in a.groups)
    for got, want in zip(meets[0].data, reference_projection_blocks(a, c)):
        assert np.abs(got - want).max() <= 1e-12
    for got, want in zip(meets[1].data, e.data):
        assert np.abs(got - want).max() <= 1e-12
    assert meets[2].sup_norm() == 0.0


def test_complement_and_deficiency():
    a = TracedAlgebra(((2, 0.5), (3, 2.0)))
    e = projection_from_ranges(
        a, [np.array([[1.0], [0.0]], dtype=complex),
            np.eye(3)[:, :2].astype(complex)])
    # one dim dropped at weight 0.5, one at weight 2.0
    assert trace_deficiency(e) == pytest.approx(0.5 + 2.0)
    assert trace_deficiency(a.identity()) == 0.0


def test_range_bases_match_rank():
    rng = stream(SEED, "test/algebra/range-bases")
    a = TracedAlgebra(((4, 1.0),))
    e = random_projection(rng, a, min_rank=1)
    bases = range_bases(e)
    rank = round(e.tau().real if isinstance(e.tau(), complex) else e.tau())
    assert bases[0].shape[1] == rank


# -- grouped (stacked) factorizations against the per-block loop ---------------

def test_groups_partition_blocks_by_dim():
    a = TracedAlgebra(((2, 1.0), (1, 0.5), (2, 0.25), (3, 1.0), (1, 2.0)))
    assert a.groups == ((0, 2), (1, 4), (3,))
    assert make_algebra(BLOCK_CONFIGS[6]).groups == ((0, 1), (2,), (3,))


def test_spectrum_readers_take_exact_real_1x1_moduli():
    """A real 1x1 term's singular value is its modulus at every magnitude,
    also past 2^-459 and 2^459, where LAPACK rescales; complex 1x1 terms and
    larger blocks are LAPACK's.  ``stack_svds`` of a real 1x1 group has the
    same values, reproduces the blocks, and is LAPACK's SVD bit for bit
    wherever LAPACK does not rescale."""
    rng = stream(SEED, "test/algebra/modulus")
    fi, lo = np.finfo(float), 2.0 ** -459
    mags = np.concatenate([
        10.0 ** rng.uniform(-300, 300, 4000) * rng.uniform(1, 10, 4000),
        [0.0, fi.smallest_subnormal, 2.0 ** -460, 2.0 ** 460, fi.max]])
    v = mags * rng.choice([-1.0, 1.0], mags.size)
    assert (mags < lo).any() and (mags > 1.0 / lo).any()
    unscaled = (mags == 0) | ((mags >= lo) & (mags <= 1.0 / lo))
    complex_1x1 = (v + 1j * rng.standard_normal(v.size)).reshape(-1, 1, 1)
    for real in ((v + 0j).reshape(-1, 1, 1), (v + 0j).reshape(-1, 5, 1, 1)):
        s = stacked_singular_values(real)
        assert same_bits(s, np.abs(real.real[..., 0]))
        u, s_uv, vh = stack_svds([real])[0]
        assert same_bits(s_uv, s)
        assert np.array_equal((u * s_uv[..., None, :]) @ vh, real)
        keep = unscaled.reshape(real.shape[:-2])
        assert all(same_bits(got[keep], want[keep])
                   for got, want in zip((u, s_uv, vh), np.linalg.svd(real)))
        # a complex term beside a real one: each term keeps its own rule
        mixed = np.stack([real, complex_1x1.reshape(real.shape)])
        assert same_bits(stacked_singular_values(mixed),
                         np.stack([s, np.linalg.svd(mixed[1], compute_uv=False)]))
    for stack in (complex_1x1, rng.standard_normal((5, 3, 2, 2)) + 0j):
        assert same_bits(stacked_singular_values(stack),
                         np.linalg.svd(stack, compute_uv=False))
        assert all(same_bits(got, want) for got, want
                   in zip(stack_svds([stack])[0], np.linalg.svd(stack)))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_spectrum_readers_refuse_non_finite_entries(value):
    """Both spectrum readers refuse inf and NaN themselves, on every route:
    a real 1x1 term, a complex 1x1 term and blocks larger than 1x1."""
    square = np.eye(2, dtype=complex)
    square[0, 1] = value
    for stack in (np.array([[[1.0]], [[value]]], dtype=complex),
                  np.array([[[1j]], [[value]]]), square[None], square[None, None]):
        with pytest.raises(InvalidInputError):
            stacked_singular_values(stack)
        with pytest.raises(InvalidInputError):
            stack_svds([np.eye(1, dtype=complex)[None], stack])


@grouped_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_grouped_spectrum_equals_per_block(layout, seed, zero_block):
    a = TracedAlgebra(layout)
    x = random_layout_element(stream(seed, "test/algebra/grouped-svd"), a,
                              zero_block)
    for s, b in zip(x.singular_values(), x.data):
        assert np.array_equal(s, np.linalg.svd(b, compute_uv=False))
    for g, usv in zip(a.groups, x.stack_svds()):
        for j, i in enumerate(g):
            assert all(np.array_equal(got[j], want)
                       for got, want in zip(usv, np.linalg.svd(x.data[i])))


def one_record_cases(a, rng, zero_block):
    """``(element, the blocks it was built from, its per-block SVDs or
    None)`` for every constructor path: None stands for LAPACK's SVDs of
    the blocks, ``clip_decompose`` keeps its clipped factors of x's."""
    x = random_layout_element(rng, a, zero_block)
    y = random_projection(rng, a)
    c = complex(rng.standard_normal(), rng.standard_normal())
    level = float(rng.uniform(0.0, 2.0))
    v = rng.standard_normal(a.vec_dim) + 1j * rng.standard_normal(a.vec_dim)
    ends = np.cumsum([d * d for d in a.dims])
    xsvd = [np.linalg.svd(b) for b in x.data]
    clipped = [[(u, np.maximum(s - level, 0.0), vh) for u, s, vh in xsvd],
               [(u, np.minimum(s, level), vh) for u, s, vh in xsvd]]
    unitaries = [random_unitary(rng, d) for d in a.dims]
    keeps = [rng.random(d) < 0.5 for d in a.dims]
    parts = [(None if a.dims[g[0]] == 1 else np.array([unitaries[i] for i in g]),
              np.array([keeps[i] for i in g])) for g in a.groups]
    masks = [k[:, None].astype(complex) if d == 1 else (u * k) @ u.conj().T
             for u, k, d in zip(unitaries, keeps, a.dims)]
    given = [b.copy() for b in y.data]
    cases = [
        (Element(a, x.data), x.data, None),
        (Element._from_stacks(a, group_stacks(a, given), selfadjoint=True,
                              positive=True, projection=True), given, None),
        (x + y, [p + q for p, q in zip(x.data, y.data)], None),
        (x - y, [p - q for p, q in zip(x.data, y.data)], None),
        (x @ y, [p @ q for p, q in zip(x.data, y.data)], None),
        (-x, [-p for p in x.data], None),
        (x.scaled(c), [c * p for p in x.data], None),
        (x.adjoint(), [p.conj().T for p in x.data], None),
        (Element.from_vec(a, v), [r.reshape(d, d) for r, d in
                                  zip(np.split(v, ends[:-1]), a.dims)], None),
        (Element._from_stacks(a, masked_stacks(parts), True, True, True), masks, None)]
    for e, usv in zip(clip_decompose(x, level), clipped):
        cases.append((e, [(u * s) @ vh for u, s, vh in usv], usv))
    return cases


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_every_element_is_one_record_of_group_stacks(layout, seed, zero_block):
    """Each block of ``data`` is the block the element was built from, bit
    for bit, as a read-only view of its group's stack, and the per-block
    spectra equal the per-block LAPACK calls.  An element held as its SVD
    builds its stacks on the first read, ``(u * s) @ vh`` per group, once."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/algebra/one-record")
    for e, blocks, svds in one_record_cases(a, rng, zero_block):
        if svds is not None:
            assert e._stacks is None
            first = e.stacks
            assert e.stacks is first
            for stack, (u, s, vh) in zip(first, e.stack_svds()):
                assert np.array_equal(stack, (u * s[..., None, :]) @ vh)
                assert not stack.flags.writeable
        assert len(e.data) == len(blocks)
        for b, want in zip(e.data, blocks):
            assert b.shape == want.shape and np.array_equal(b, want)
            assert not b.flags.writeable
        for g, stack in zip(a.groups, e.stacks):
            assert all(np.shares_memory(e.data[i], stack) for i in g)
        svals = [np.linalg.svd(b, compute_uv=False) for b in blocks]
        if svds is None:
            svds = [np.linalg.svd(b) for b in blocks]
        else:
            svals = [s for _, s, _ in svds]
        assert all(np.array_equal(got, want)
                   for got, want in zip(e.singular_values(), svals))
        for g, usv in zip(a.groups, e.stack_svds()):
            for j, i in enumerate(g):
                assert all(np.array_equal(p[j], q) for p, q in zip(usv, svds[i]))


# enough blocks, with weights that round, that numpy's pairwise sum and
# the per-block sequential sum part ways
LONG_LAYOUT = tuple((1 + k % 3, 0.1 + k / 7.0) for k in range(40))


@spectrum_examples
@example(layout=LONG_LAYOUT, seed=11, zero_block=4)
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_trace_deficiency_is_the_per_block_sum_bit_for_bit(layout, seed,
                                                           zero_block):
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/algebra/trace-deficiency")
    xs = spectrum_elements(rng, a, zero_block)
    es = xs + [a.identity(), random_projection(rng, a),
               spectral_projection_below(xs[0], float(rng.uniform(0.0, 2.0)))]
    for e in es:
        want = float(sum(w * (d - np.trace(b).real)
                         for b, (d, w) in zip(e.data, a.blocks)))
        assert repr(trace_deficiency(e)) == repr(want)


@grouped_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_grouped_projection_equals_per_block(layout, seed, zero_block):
    """Bases share a shape per dim, so stacks are real; the block at
    ``zero_block`` repeats a column, so some stacks mask a column out.
    The sliced reference is the rule before masks, equal up to rounding."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/algebra/grouped-projection")
    cols = {d: int(rng.integers(0, d + 1)) for d in set(a.dims)}
    bases = []
    for i, d in enumerate(a.dims):
        k = cols[d]
        basis = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        if zero_block is not None and i == zero_block % len(a.dims) and k >= 2:
            basis[:, -1] = 2.0 * basis[:, 0]
        bases.append(basis)
    e = projection_from_ranges(a, bases)
    for got, want in zip(e.data, reference_projection_blocks(a, bases)):
        assert np.array_equal(got, want)
    for got, old in zip(e.data, reference_projection_blocks(a, bases, sliced=True)):
        assert np.abs(got - old).max(initial=0.0) <= 1e-12


def test_projection_stack_with_some_rank_deficient_bases():
    a = TracedAlgebra(((3, 1.0), (3, 1.0), (3, 1.0), (3, 1.0)))
    rng = stream(SEED, "test/algebra/rank-deficient-stack")
    bases = [rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
             for _ in a.dims]
    bases[1][:, 1] = bases[1][:, 0]
    bases[2][:, 1] = 0.0
    e = projection_from_ranges(a, bases)
    for got, want in zip(e.data, reference_projection_blocks(a, bases)):
        assert np.array_equal(got, want)
    ranks = [round(np.trace(b).real) for b in e.data]
    assert ranks == [2, 1, 1, 2]
    with pytest.raises(InvalidInputError):
        projection_from_ranges(a, bases[:3])


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_checking_constructor_accepts_every_projection_from_ranges(
        layout, seed, zero_block):
    """``projection_from_ranges`` builds its output trusted; the public
    constructor must accept it with the same flags, for empty, full-rank,
    rank-deficient (block ``zero_block``) and nearly parallel bases (the
    last column ``tilt`` away from the first, on both sides of the rank
    cut)."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/algebra/trusted-projection")
    ranks = [int(rng.integers(0, d + 1)) for d in a.dims]
    raw = [rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
           for d, k in zip(a.dims, ranks)]
    for tilt in (1.0, 1e-3, 1e-8, 1e-10, 1e-12, 1e-15):
        bases = [b.copy() for b in raw]
        for i, basis in enumerate(bases):
            if basis.shape[1] >= 2:
                basis[:, -1] = basis[:, 0] + tilt * basis[:, -1]
                if zero_block is not None and i == zero_block % len(a.dims):
                    basis[:, -1] = 2.0 * basis[:, 0]
        e = projection_from_ranges(a, bases)
        assert (e.selfadjoint, e.positive, e.projection) == (True, True, True)
        checked = Element(a, e.data, selfadjoint=True, positive=True,
                          projection=True)
        assert all(np.array_equal(c, b) for c, b in zip(checked.data, e.data))


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_checking_constructor_accepts_every_flag_set_by_construction(
        layout, seed, zero_block):
    """Inside the package a flag is carried by construction, unchecked: for
    flagged inputs, every element an operation builds with a flag passes
    the public constructor with its flags.  The operations: ``+``, ``-``,
    negation, ``scaled`` and ``adjoint``; the four leaves' ``apply``,
    ``cesaro_average`` and ``cesaro_limit``; both flows' ``apply``; the
    dense prefix; ``fava_decompose``; and ``check_positivity``'s
    symmetrized image, which it does not return, so every trusted build is
    recorded and checked.  A CP explicit map is decided on its Choi matrix
    with no sample; its negation, Hermitian and not CP, is sampled."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/algebra/flags-by-construction")
    x = random_layout_element(rng, a, zero_block)
    h = Element(a, [(b + b.conj().T) / 2 for b in x.data], selfadjoint=True)
    pos = Element(a, [b.conj().T @ b for b in x.data], selfadjoint=True,
                  positive=True)
    p = random_projection(rng, a)
    conj = UnitaryConjugation(random_unitary_element(rng, a))
    expectation = random_block_expectation(rng, a)
    explicit = ExplicitMatrix(a, assembled(a, expectation.to_matrix()))
    built, build = [], Element._from_stacks.__func__

    def recording(cls, *args, **flags):
        built.append(build(cls, *args, **flags))
        return built[-1]
    with mock.patch.object(Element, "_from_stacks", classmethod(recording)):
        flagged = [h + pos, h - p, -pos, h.scaled(-2.5), pos.adjoint(),
                   p.adjoint(), *fava_decompose(h, 0.5), conj.cesaro_limit(h),
                   UnitaryFlow(h).apply(0.3, pos),
                   InterpolationFlow(expectation).apply(0.3, h),
                   box_average([ConvexCombination([(0.5, conj),
                                                   (0.5, expectation)])], h, [5])]
        for op in (conj, random_pinching(rng, a), expectation):
            flagged += [op.apply(h), op.cesaro_average(h, 7)]
        explicit.apply(h)  # a matrix's image carries no flag
        explicit.cesaro_average(h, 7)
        assert check_positivity(explicit, trials=2)
        count = len(built)
        negated = ExplicitMatrix(a, -assembled(a, expectation.to_matrix()))
        assert not check_positivity(negated, trials=2)
    assert all(e.selfadjoint for e in flagged if e is not None)
    assert p.adjoint().projection and pos.adjoint().positive
    assert any(e.selfadjoint for e in built[count:])  # the symmetrized image
    for e in built:
        if e.selfadjoint or e.positive or e.projection:
            checked = Element(a, e.data, selfadjoint=e.selfadjoint,
                              positive=e.positive, projection=e.projection)
            assert all(np.array_equal(c, b) for c, b in zip(checked.data, e.data))


def test_trusted_constructor_keeps_the_cheap_checks():
    """The trusted constructor takes one stack per group (here the groups
    are blocks (0, 2) of dim 2 and block 1 of dim 1) and runs the count,
    shape and finiteness checks on them; it sets its flags unchecked."""
    a = TracedAlgebra(((2, 1.0), (1, 0.5), (2, 0.25)))
    eyes = np.array([np.eye(2), np.eye(2)])
    flags = dict(selfadjoint=True, positive=True, projection=True)
    with pytest.raises(InvalidInputError, match="block count"):
        Element._from_stacks(a, [eyes], **flags)
    with pytest.raises(InvalidInputError, match="block shape"):
        Element._from_stacks(a, [np.eye(2)[None], np.ones((1, 1, 1))], **flags)
    with pytest.raises(InvalidInputError, match="block shape"):
        Element._from_stacks(a, [eyes, np.eye(2)[None]], **flags)
    with pytest.raises(InvalidInputError, match="block shape"):
        Element._from_stacks(a, [eyes, np.ones((1, 1))], **flags)
    with pytest.raises(InvalidInputError, match="non-finite"):
        Element._from_stacks(a, [eyes, np.full((1, 1, 1), np.inf)], **flags)
    stacks = [eyes.astype(complex), np.ones((1, 1, 1), dtype=complex)]
    x = Element._from_stacks(a, stacks, **flags)
    assert (x.selfadjoint, x.positive, x.projection) == (True, True, True)
    assert all(b is c for b, c in zip(x.stacks, stacks))  # held as given
    assert not any(b.flags.writeable for b in x.stacks + x.data)
    assert Element._from_stacks(a, [2.0 * eyes, stacks[1]], **flags).projection


def test_public_constructor_runs_the_same_checks_on_its_stacks():
    a = TracedAlgebra(((2, 1.0), (1, 0.5), (2, 0.25)))
    blocks = [np.eye(2), np.ones((1, 1)), np.eye(2)]
    with pytest.raises(InvalidInputError, match="block count"):
        Element(a, blocks[:2])
    with pytest.raises(InvalidInputError, match="block shape"):
        Element(a, [np.eye(2), np.eye(2), np.eye(2)])
    with pytest.raises(InvalidInputError, match="block shape"):
        Element(a, [np.eye(2), np.ones((1, 1)), np.eye(3)])  # does not stack
    with pytest.raises(InvalidInputError, match="non-finite"):
        Element(a, [np.eye(2), np.full((1, 1), np.nan), np.eye(2)])
    x = Element(a, blocks)
    assert not any(np.shares_memory(b, c) for b in x.stacks for c in blocks)
    assert all(np.array_equal(b, c) for b, c in zip(x.data, blocks))


def test_identity_and_zero_are_built_once_per_algebra():
    a = TracedAlgebra(((3, 1.0), (1, 0.25)))
    assert a.identity() is a.identity() and a.zero() is a.zero()
    for x, diag in ((a.identity(), 1.0), (a.zero(), 0.0)):
        assert (x.selfadjoint, x.positive, x.projection) == (True, True, True)
        assert all(np.array_equal(b, diag * np.eye(d))
                   for b, d in zip(x.data, a.dims))
        Element(a, x.data, selfadjoint=True, positive=True, projection=True)


def reference_sup_norm(x):
    """Block by block, the largest singular value, 1x1 blocks included."""
    return max(float(s[0]) for s in x.singular_values())


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_grouped_sup_norm_equals_per_block_loop(layout, seed, zero_block):
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/algebra/grouped-sup-norm")
    xs = spectrum_elements(rng, a, zero_block)
    # complex entries over many magnitudes, where LAPACK's value of a 1x1
    # block and its modulus can differ
    scales = 10.0 ** rng.uniform(-6, 6, len(a.dims))
    xs.append(Element(a, [s * b for s, b in zip(scales, xs[0].data)]))
    for x in xs:
        assert x.sup_norm() == reference_sup_norm(x)
        assert isinstance(x.sup_norm(), float)


def test_dims_and_weights_are_cached_tuples():
    layout = ((2, 0.5), (1, 2.0), (2, 1.0))
    a, b = TracedAlgebra(layout), TracedAlgebra(layout)
    assert a.dims == (2, 1, 2) and a.weights == (0.5, 2.0, 1.0)
    assert type(a.dims) is tuple and type(a.weights) is tuple
    assert a.dims is a.dims and a.weights is a.weights
    # cached values are not fields: equality and hashing see blocks only
    assert a == b and hash(a) == hash(b)
    assert a != TracedAlgebra(((2, 0.5), (1, 2.0), (2, 2.0)))
    assert {a: 1}[b] == 1


def test_trace_weights_refuse_bools_and_strings():
    """A weight is read as a number, as a dim is read as an integer: a bool
    or a string, which ``float`` would read, is an input error; ints and
    numpy floats are taken as floats."""
    for weight in (True, False, np.True_, "0.5", b"0.5"):
        with pytest.raises(InvalidInputError, match="block weights"):
            TracedAlgebra(((2, weight),))
        with pytest.raises(InvalidInputError, match="block weights"):
            TracedAlgebra(((1, 1.0), (2, weight)))
    a = TracedAlgebra(((2, 1), (1, np.float64(0.5)), (1, np.float32(0.25)),
                       (3, np.int64(2))))
    assert a.blocks == ((2, 1.0), (1, 0.5), (1, 0.25), (3, 2.0))
    assert all(type(w) is float for w in a.weights)


def test_retagging_shares_the_stacks_and_the_spectrum(monkeypatch):
    """``as_selfadjoint`` and ``as_projection`` re-tag without a copy or a
    factorization: the re-tagged element holds its source's frozen stacks
    and spectrum caches, whose singular values the source keeps too."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append("svd")
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    a = TracedAlgebra(((3, 1.0), (3, 0.5), (1, 2.0)))
    rng = stream(SEED, "test/algebra/retag-shares")
    x = Element(a, a.random_element(rng, selfadjoint=True).data)
    x.flat_spectrum()
    calls.clear()
    y = x.as_selfadjoint()
    assert calls == [] and y.selfadjoint is True and x.selfadjoint is None
    assert y.positive is None and y.projection is None
    assert all(b is c for b, c in zip(y.stacks, x.stacks))
    assert y.stack_singular_values() is x.stack_singular_values()
    assert y.flat_spectrum() is x.flat_spectrum()
    p = Element(a, random_projection(rng, a).data)
    q = p.as_projection()  # the spectrum is computed once, on the source
    p.as_projection()
    assert calls == ["svd"]  # the 3x3 group; a real 1x1 block takes its modulus
    assert (q.selfadjoint, q.positive, q.projection) == (True, True, True)
    assert q.stack_singular_values() is p.stack_singular_values()
    with pytest.raises(InvalidInputError, match="flag fails verification"):
        x.as_projection()
    # an element held as its SVD shares it and builds its stacks from it
    top, _ = clip_decompose(x, 0.5 * x.sup_norm())
    checked = top.as_selfadjoint()
    assert checked.stack_svds() is top.stack_svds()
    assert all(np.array_equal(b, c) for b, c in zip(checked.stacks, top.stacks))
