import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SEED, BLOCK_CONFIGS, LAYOUTS, abs_element, \
    make_algebra, random_projection, spectrum_elements, spectrum_examples
from ncergo import ConvexCombination, Element, SectorNet, TracedAlgebra, \
    UnitaryConjugation, besicovitch_average, clip_decompose, \
    enlarge_projection, fava_decompose, fava_support_trace, k_functional, \
    lp_norm, measure_metric, mu, mu_at, sector_check, \
    spectral_projection_below, submajorizes, trace_deficiency
from ncergo.config import SUBMAJOR_SLACK
from ncergo.errors import InvalidInputError
from ncergo.rng import stream
from ncergo.stepfn import StepFunction, integral_dominates


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
    """lp_norm against a plain-numpy reference, (sum_i w_i sum s_i^p)^(1/p)
    over one ``np.linalg.svd`` per block, within 1e-13 relative: the two
    differ only in summation order and the power-of-two scaling."""
    rng = stream(SEED, "test/singular/lp-two-routes")
    for config in BLOCK_CONFIGS:
        a = make_algebra(config)
        x = a.random_element(rng)
        svals = [np.linalg.svd(b, compute_uv=False) for b in x.data]
        for p in (1.0, 2.0, 3.0):
            want = sum(w * np.sum(s ** p)
                       for s, w in zip(svals, a.weights)) ** (1.0 / p)
            assert abs(lp_norm(x, p) - want) <= 1e-13 * want


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


def test_clip_parts_read_their_spectrum_without_building_stacks():
    rng = stream(SEED, "test/singular/clip-lazy")
    for config in BLOCK_CONFIGS:
        x = make_algebra(config).random_element(rng)
        y, z = clip_decompose(x, mu_at(x, 0.5))
        for part in (y, z):
            # each part holds x's cached, read-only factors; only s is new
            for (u, s, vh), (xu, xs, xvh) in zip(part._svd, x.stack_svds()):
                assert u is xu and vh is xvh and s is not xs
                assert not (u.flags.writeable or s.flags.writeable
                            or vh.flags.writeable)
            lp_norm(part, 1)
            part.sup_norm()
            mu_at(part, 0.5)
            part.flat_spectrum()
            part.stack_svds()
            assert part._stacks is None
        assert y.stacks is y._stacks is not None  # a read builds them


def test_clip_of_an_overflowing_norm_is_refused_before_any_product():
    a = TracedAlgebra(((2, 1.0),))
    x = Element(a, [np.full((2, 2), 1.5e308)])
    assert x.sup_norm() == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="overflows"):
            clip_decompose(x, 1.0)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fava_decompose_near_the_float_range():
    """The Hermitian part halves before it adds, so a spectrum near the top
    of the float range still splits as y + z = x with ||z|| <= delta."""
    x = diag_element([1.2e308, -1.2e308])
    y, z = fava_decompose(x, 1.0)
    assert z.sup_norm() <= 1.0
    assert all(np.array_equal(p + q, b) for p, q, b in zip(y.stacks, z.stacks, x.stacks))


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


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_mu_at_is_the_step_function_bit_for_bit(layout, seed, zero_block):
    """mu_at reads the flat spectrum and mu(x)(t) the merged step function;
    they agree bit for bit at every breakpoint of both, at each piece's
    midpoint, at the support end, past it and at tau(1)."""
    a = TracedAlgebra(layout)
    for x in spectrum_elements(stream(seed, "test/singular/mu-at"), a, zero_block):
        f = mu(x)
        cumulative = x.flat_spectrum()[2]
        points = [*f.edges, *cumulative, *(f.edges[:-1] + f.edges[1:]) / 2,
                  *(cumulative[:-1] + cumulative[1:]) / 2, f.support_end,
                  f.support_end + 1.0, a.total_trace, np.inf]
        for t in map(float, points):
            got, want = mu_at(x, t), f(t)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), t


def _magnitude_elements(rng, algebra):
    """Complex elements whose blocks span twelve decades, where LAPACK's
    singular value of a 1x1 block and its modulus by ``hypot`` can differ
    in the last bit."""
    return [Element(algebra, [10.0 ** rng.uniform(-6, 6)
                              * (rng.standard_normal((d, d))
                                 + 1j * rng.standard_normal((d, d)))
                              for d in algebra.dims]) for _ in range(8)]


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_every_sup_norm_is_the_top_of_one_spectrum(layout, seed, zero_block):
    """mu_at(x, 0), sup_norm and the inf-norm are one number, bit for bit,
    on complex 1x1 blocks, zero blocks and the zero element too."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/singular/sup-norm-top")
    for x in spectrum_elements(rng, a, zero_block) + _magnitude_elements(rng, a):
        top = mu_at(x, 0.0)
        assert np.float64(x.sup_norm()).tobytes() == np.float64(top).tobytes()
        assert np.float64(lp_norm(x, np.inf)).tobytes() == np.float64(top).tobytes()


@spectrum_examples
@given(layout=LAYOUTS, seed=st.integers(0, 2 ** 16),
       zero_block=st.none() | st.integers(0, 5))
def test_lp_norm_scales_by_powers_of_two(layout, seed, zero_block):
    """lp_norm(2^k x) == 2^k lp_norm(x) bit for bit for k in [-60, 60]
    (both ends and three draws): the singular values scale exactly, and
    the norm divides out their top power of two."""
    a = TracedAlgebra(layout)
    rng = stream(seed, "test/singular/lp-scale")
    xs = spectrum_elements(rng, a, zero_block) + _magnitude_elements(rng, a)[:2]
    for k in (-60, 60, *rng.integers(-60, 61, 3).tolist()):
        for x in xs:
            y = x.scaled(2.0 ** k)
            for p in (1.0, 2.0, 3.0, np.inf):
                assert lp_norm(y, p) == np.ldexp(lp_norm(x, p), k), (p, k)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(weights=st.lists(st.sampled_from((0.25, 0.5, 1.0, 2.0)), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16), k=st.sampled_from((-900, -600, -470, 470, 600, 900)),
       j=st.integers(-10, 10))
def test_mu_at_scales_by_powers_of_two_on_real_1x1_layouts(weights, seed, k, j):
    """On a diagonal algebra mu is the classical decreasing rearrangement:
    mu_at(2^k x, 2^j t) == 2^k mu_at(x, t) bit for bit, with every weight
    scaled by 2^j, also where 2^k x lies past 2^-459 or 2^459, the range
    outside which LAPACK rescales a block."""
    rng = stream(seed, "test/singular/mu-at-scale")
    values = np.ldexp(rng.uniform(-1.0, 1.0, len(weights)),
                      rng.integers(-60, 61, len(weights)))
    values[rng.integers(len(weights))] = 0.0
    x = Element(TracedAlgebra(tuple((1, w) for w in weights)),
                [np.array([[v]]) for v in values])
    y = Element(TracedAlgebra(tuple((1, np.ldexp(w, j)) for w in weights)),
                [np.array([[np.ldexp(v, k)]]) for v in values])
    cumulative = x.flat_spectrum()[2]
    for t in [*cumulative, *(cumulative[:-1] + cumulative[1:]) / 2, cumulative[-1] + 1.0]:
        got, want = mu_at(y, np.ldexp(t, j)), np.ldexp(mu_at(x, t), k)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), t


def test_lp_norm_and_mu_at_build_no_step_function(monkeypatch):
    built = []

    def counting(self, _post_init=StepFunction.__post_init__):
        built.append(self)
        _post_init(self)

    monkeypatch.setattr(StepFunction, "__post_init__", counting)
    x = make_algebra(BLOCK_CONFIGS[6]).random_element(
        stream(SEED, "test/singular/no-step-function"))
    for p in (1, 2, 3):
        lp_norm(x, p)
    for t in (0.0, 1.5, x.algebra.total_trace, 100.0):
        mu_at(x, t)
    assert not built
    mu(x)
    assert len(built) == 1  # the counter sees a build


def _nan_argument_calls():
    x = diag_element([3.0, 1.0])
    nan = float("nan")
    net = SectorNet(1, ((1,), (2,)))
    identity = UnitaryConjugation(x.algebra.identity())
    return {
        "mu_at": lambda: mu_at(x, nan),
        "StepFunction.__call__": lambda: mu(x)(nan),
        "StepFunction.integral": lambda: mu(x).integral(nan),
        "StepFunction.integral-array": lambda: mu(x).integral([1.0, nan]),
        "k_functional": lambda: k_functional(x, nan),
        "lp_norm": lambda: lp_norm(x, nan),
        "clip_decompose": lambda: clip_decompose(x, nan),
        "fava_decompose": lambda: fava_decompose(x, nan),
        "fava_support_trace": lambda: fava_support_trace(x, nan),
        "spectral_projection_below": lambda: spectral_projection_below(x, nan),
        "sector_check": lambda: sector_check(net, nan),
        "besicovitch_average": lambda: besicovitch_average(None, None, x, nan),
        "ConvexCombination": lambda: ConvexCombination([(nan, identity)]),
    }


@pytest.mark.parametrize("name", sorted(_nan_argument_calls()))
def test_nan_argument_is_refused(name):
    with pytest.raises(InvalidInputError):
        _nan_argument_calls()[name]()
