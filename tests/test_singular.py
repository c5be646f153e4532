import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import SEED, BLOCK_CONFIGS, LAYOUTS, abs_element, \
    make_algebra, random_projection, spectrum_elements, spectrum_examples
from ncergo import Element, TracedAlgebra, clip_decompose, \
    enlarge_projection, fava_decompose, fava_support_trace, k_functional, \
    lp_norm, measure_metric, mu, mu_at, spectral_projection_below, \
    submajorizes, trace_deficiency
from ncergo.config import SUBMAJOR_SLACK
from ncergo.errors import InvalidInputError
from ncergo.rng import stream
from ncergo.stepfn import integral_dominates


def diag_element(values, weight=1.0):
    a = TracedAlgebra(((len(values), weight),))
    return Element(a, [np.diag(values).astype(complex)], selfadjoint=True)


def mu_spectral_oracle(x, t):
    """mu_t from its other definition: the least level whose strict
    excess set has weight at most t."""
    pairs = []
    for s, (_, w) in zip(x.singular_values(), x.algebra.blocks):
        pairs.extend((float(v), w) for v in s)
    best = None
    for level in [v for v, _ in pairs] + [0.0]:
        above = sum(w for v, w in pairs if v > level)
        if above <= t:
            best = level if best is None else min(best, level)
    return best


# -- mu -----------------------------------------------------------------------

def test_mu_identity_block():
    a = TracedAlgebra(((3, 1.0),))
    f = mu(a.identity())
    assert np.allclose(f.edges, [0.0, 3.0])
    assert np.allclose(f.values, [1.0])


def test_mu_diag_example():
    f = mu(diag_element([3.0, 1.0]))
    assert np.allclose(f.edges, [0.0, 1.0, 2.0])
    assert np.allclose(f.values, [3.0, 1.0])


def test_mu_weighted_blocks():
    a = TracedAlgebra(((1, 0.5), (1, 2.0)))
    x = Element(a, [np.array([[5.0]]), np.array([[2.0]])], selfadjoint=True)
    f = mu(x)
    assert np.allclose(f.edges, [0.0, 0.5, 2.5])
    assert np.allclose(f.values, [5.0, 2.0])


def test_mu_at_right_continuity_and_support():
    x = diag_element([3.0, 1.0])
    assert mu_at(x, 0.0) == 3.0
    assert mu_at(x, 1.0) == 1.0  # value from the right of the breakpoint
    assert mu_at(x, 2.0) == 0.0
    assert mu_at(x, 100.0) == 0.0
    with pytest.raises(InvalidInputError):
        mu_at(x, -1.0)


def test_mu_against_spectral_oracle():
    rng = stream(SEED, "test/singular/mu-oracle")
    for config in BLOCK_CONFIGS:
        a = make_algebra(config)
        for _ in range(5):
            x = a.random_element(rng)
            grid = np.concatenate([rng.uniform(0.0, a.total_trace * 1.2, 7),
                                   [0.0, a.total_trace]])
            for t in grid:
                assert abs(mu_at(x, t) - mu_spectral_oracle(x, t)) <= 1e-9


def test_mu_invariances():
    rng = stream(SEED, "test/singular/mu-invariances")
    for config in BLOCK_CONFIGS[:5]:
        a = make_algebra(config)
        x = a.random_element(rng)
        f = mu(x)
        assert np.all(np.diff(f.values) <= 0)
        g = mu(x.adjoint())
        assert np.allclose(f.edges, g.edges) and np.allclose(f.values, g.values)
        h = mu(abs_element(x))
        assert np.allclose(f.edges, h.edges)
        assert np.allclose(f.values, h.values, atol=1e-10)
        c = -2.5
        s = mu(x.scaled(c))
        assert np.allclose(s.values, abs(c) * f.values)


def test_mu_subadditivity():
    rng = stream(SEED, "test/singular/subadditivity")
    a = make_algebra(BLOCK_CONFIGS[5])
    for _ in range(25):
        x = a.random_element(rng)
        y = a.random_element(rng)
        t, s = rng.uniform(0.0, a.total_trace / 2, 2)
        lhs = mu_at(x + y, t + s)
        assert lhs <= mu_at(x, t) + mu_at(y, s) + 1e-9


# -- norms and the K-functional -----------------------------------------------

def test_lp_norm_examples():
    a = TracedAlgebra(((4, 1.0),))
    one = a.identity()
    for p in (1.0, 2.0, 3.0):
        assert lp_norm(one, p) == pytest.approx(4.0 ** (1.0 / p))
    x = diag_element([3.0, 4.0])
    assert lp_norm(x, 1) == pytest.approx(7.0)
    assert lp_norm(x, 2) == pytest.approx(5.0)
    assert lp_norm(x, np.inf) == pytest.approx(4.0)
    with pytest.raises(InvalidInputError):
        lp_norm(x, 0.5)


def test_lp_norm_two_routes_random():
    # the implementation itself raises if the integral and trace routes
    # disagree, so a clean pass is the assertion
    rng = stream(SEED, "test/singular/lp-two-routes")
    for config in BLOCK_CONFIGS:
        a = make_algebra(config)
        x = a.random_element(rng)
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(x, p) >= 0.0


def test_k_functional_examples():
    a = TracedAlgebra(((3, 1.0),))
    assert k_functional(a.identity(), 2.0) == pytest.approx(2.0)
    x = diag_element([3.0, 1.0])
    assert k_functional(x, 1.5) == pytest.approx(3.5)
    with pytest.raises(InvalidInputError):
        k_functional(x, 0.0)


def test_k_functional_clip_optimality():
    rng = stream(SEED, "test/singular/k-clip")
    for config in BLOCK_CONFIGS[:6]:
        a = make_algebra(config)
        x = a.random_element(rng)
        for s in rng.uniform(0.05, a.total_trace, 4):
            k = k_functional(x, s)
            m = mu_at(x, s)
            y, z = clip_decompose(x, m)
            assert abs(k - (lp_norm(y, 1) + s * z.sup_norm())) <= 1e-9
            for level in rng.uniform(0.0, x.sup_norm() * 1.2, 10):
                y2, z2 = clip_decompose(x, level)
                assert k <= lp_norm(y2, 1) + s * z2.sup_norm() + 1e-9


def test_clip_decompose_reassembles():
    rng = stream(SEED, "test/singular/clip")
    a = make_algebra(BLOCK_CONFIGS[4])
    x = a.random_element(rng)
    for level in (0.0, 0.3, 5.0):
        y, z = clip_decompose(x, level)
        assert (x - y - z).sup_norm() < 1e-12
        assert z.sup_norm() <= level + 1e-12
    with pytest.raises(InvalidInputError):
        clip_decompose(x, -1.0)


def test_clip_decompose_hands_known_spectrum():
    rng = stream(SEED, "test/singular/clip-spectrum")
    for config in BLOCK_CONFIGS:
        a = make_algebra(config)
        x = a.random_element(rng, scale=3.0)
        top = x.sup_norm()
        tol = 1e-12 * max(1.0, top)
        for level in (0.0, mu_at(x, 0.5), 0.5 * top, 2.0 * top):
            for part in clip_decompose(x, level):
                for s, b in zip(part.singular_values(), part.data):
                    fresh_s = np.linalg.svd(b, compute_uv=False)
                    assert np.abs(s - fresh_s).max() <= tol
                fresh = Element(a, part.data)
                assert abs(part.sup_norm() - fresh.sup_norm()) <= tol
                for p in (1.0, 2.0, 3.0):
                    assert abs(lp_norm(part, p) - lp_norm(fresh, p)) \
                        <= tol * max(1.0, a.total_trace)


# -- submajorization and the measure metric -----------------------------------

def test_submajorizes_examples():
    x = diag_element([2.0, 0.0])
    y = diag_element([1.0, 1.0])
    assert submajorizes(x, y)
    assert not submajorizes(y, x)
    assert submajorizes(x, x)


def test_submajorizes_scaling_monotone():
    rng = stream(SEED, "test/singular/submaj-scaling")
    a = make_algebra(BLOCK_CONFIGS[5])
    for _ in range(10):
        x = a.random_element(rng)
        c = rng.uniform(0.0, 1.0)
        assert submajorizes(x, x.scaled(c))


def test_submajorizes_across_algebras():
    x = diag_element([2.0, 0.0])
    a = TracedAlgebra(((1, 2.0),))
    y = Element(a, [np.array([[1.0]])], selfadjoint=True)
    # F_y(s) = min(s, 2) <= F_x(s) everywhere
    assert submajorizes(x, y)


def test_measure_metric_examples():
    a = TracedAlgebra(((2, 1.0),))
    rng = stream(SEED, "test/singular/metric")
    x = a.random_element(rng)
    assert measure_metric(x, x) == 0.0
    d = measure_metric(diag_element([3.0, 1.0]),
                       TracedAlgebra(((2, 1.0),)).zero())
    assert d == pytest.approx(1.0)
    small = Element(a, [0.2 * np.eye(2, dtype=complex)], selfadjoint=True)
    assert measure_metric(small, a.zero()) == pytest.approx(0.2)


def test_measure_metric_is_a_metric_sample():
    rng = stream(SEED, "test/singular/metric-axioms")
    a = make_algebra(BLOCK_CONFIGS[4])
    for _ in range(10):
        x, y, z = (a.random_element(rng) for _ in range(3))
        dxy = measure_metric(x, y)
        assert dxy == pytest.approx(measure_metric(y, x))
        assert dxy <= measure_metric(x, z) + measure_metric(z, y) + 1e-9


def test_spectral_projection_below():
    x = diag_element([3.0, 1.0, 0.5])
    e = spectral_projection_below(x, 1.0)
    assert np.abs(e.data[0] - np.diag([0.0, 1.0, 1.0])).max() < 1e-10
    full = spectral_projection_below(x, 5.0)
    assert (full - x.algebra.identity()).sup_norm() < 1e-10


# -- projection enlargement ---------------------------------------------------

def test_enlarge_projection_identity():
    rng = stream(SEED, "test/singular/enlarge-id")
    a = make_algebra(BLOCK_CONFIGS[4])
    x = a.random_element(rng)
    f = enlarge_projection(x, a.identity())
    assert trace_deficiency(f) <= 1e-9
    assert (x @ f).sup_norm() <= x.sup_norm() + 1e-9


def test_enlarge_projection_nilpotent_example():
    a = TracedAlgebra(((2, 1.0),))
    x = Element(a, [np.array([[0.0, 2.0], [0.0, 0.0]])])
    e = Element(a, [np.diag([1.0, 0.0])], selfadjoint=True, positive=True,
                projection=True)
    # x e = 0, so the enlargement keeps e and kills x entirely
    f = enlarge_projection(x, e)
    assert (f - e).sup_norm() < 1e-9
    assert (x @ f).sup_norm() < 1e-9


def test_enlarge_projection_random_postconditions():
    rng = stream(SEED, "test/singular/enlarge-random")
    for config in BLOCK_CONFIGS:
        a = make_algebra(config)
        for _ in range(12):
            x = a.random_element(rng)
            e = random_projection(rng, a)
            exe = (e @ x @ e).sup_norm()
            f = enlarge_projection(x, e)
            assert trace_deficiency(f) <= 2.0 * trace_deficiency(e) + 1e-9
            assert (x @ f).sup_norm() <= exe + 1e-9 * max(1.0, x.sup_norm())


# -- spectral splitting -------------------------------------------------------

def test_fava_decompose_examples():
    x = diag_element([3.0, 0.1])
    y, z = fava_decompose(x, 0.5)
    assert np.abs(y.data[0] - np.diag([3.0, 0.0])).max() < 1e-12
    assert np.abs(z.data[0] - np.diag([0.0, 0.1])).max() < 1e-12
    y, z = fava_decompose(x, 5.0)
    assert y.sup_norm() == 0.0 and (z - x).sup_norm() == 0.0
    zero = x.algebra.zero()
    y, z = fava_decompose(zero, 0.5)
    assert y.sup_norm() == 0.0 and z.sup_norm() == 0.0
    with pytest.raises(InvalidInputError):
        fava_decompose(x, 0.0)


def test_fava_decompose_random():
    rng = stream(SEED, "test/singular/fava")
    for config in BLOCK_CONFIGS:
        a = make_algebra(config)
        x = a.random_element(rng, selfadjoint=True)
        for delta in (0.1, 0.5, 2.0):
            y, z = fava_decompose(x, delta)
            assert (x - y - z).sup_norm() < 1e-12
            assert z.sup_norm() <= delta + 1e-12
            expected = sum(w * int(np.count_nonzero(
                np.abs(np.linalg.eigvalsh(b)) > delta))
                for b, (_, w) in zip(x.data, a.blocks))
            assert fava_support_trace(x, delta) == pytest.approx(expected)


# -- flat-spectrum readers against the scalar loops ----------------------------
#
# The references sort and merge one value at a time and add the widths
# of a merged run before the running sum, where the package takes the
# running sum of every width.  LAYOUTS weights are dyadic, so all of
# these sums are exact and the two must agree bit for bit.

def mu_reference(x):
    """(edges, values) of the rearrangement by a sort and merge loop."""
    entries = []
    for idx, (svals, (_, weight)) in enumerate(
            zip(x.singular_values(), x.algebra.blocks)):
        for s in svals:
            entries.append((float(s), idx, weight))
    entries.sort(key=lambda e: (-e[0], e[1]))
    out_vals, out_widths = [], []
    for value, _, width in entries:
        if value <= 0.0:
            continue
        if out_vals and value == out_vals[-1]:
            out_widths[-1] += width
        else:
            out_vals.append(value)
            out_widths.append(width)
    return np.concatenate([[0.0], np.cumsum(out_widths)]), np.array(out_vals)


def measure_metric_reference(x, y):
    edges, values = mu_reference(x - y)
    best = edges[-1]
    for lo, hi, v in zip(edges[:-1], edges[1:], values):
        candidate = max(lo, v)
        if candidate < hi:
            best = min(best, candidate)
    return float(best)


def running_integral_reference(f, s):
    upper = np.minimum(f.edges[1:], s)
    lengths = np.clip(upper - f.edges[:-1], 0.0, None)
    return float(np.dot(lengths, f.values)) if f.values.size else 0.0


def integral_dominates_reference(big, small, slack):
    points = np.unique(np.concatenate([big.edges, small.edges]))
    points = np.append(points, max(big.support_end, small.support_end) + 1.0)
    return all(running_integral_reference(small, s)
               <= running_integral_reference(big, s) + slack for s in points)


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_flat_spectrum_readers_equal_scalar_loops(layout, seed, zero_block):
    a = TracedAlgebra(layout)
    xs = spectrum_elements(stream(seed, "test/singular/flat"), a, zero_block)
    xs.append(xs[0].scaled(0.5))
    for x in xs:
        edges, values = mu_reference(x)
        assert np.array_equal(mu(x).edges, edges)
        assert np.array_equal(mu(x).values, values)
    for x in xs:
        for y in xs:
            assert measure_metric(x, y) == measure_metric_reference(x, y)
            assert integral_dominates(mu(x), mu(y), SUBMAJOR_SLACK) \
                == integral_dominates_reference(mu(x), mu(y), SUBMAJOR_SLACK)
