"""Multiparameter Cesàro averages, sector nets, and weighted semigroup flows.

The box average of a commuting family of positive contractions over a
multi-index n is the normalized sum of all mixed powers with exponents
below n.  It factors into one-dimensional averages: coordinate i averages
the previous coordinate's output over its first m_i = max(n_i, 1) powers,
and m_i = 1 (a zero coordinate too) leaves it unchanged.  One engine,
``_BoxAverager``, computes it for ``box_average`` at one index and for
``net_average_trace`` at every index of a monotone net.  Each coordinate
takes one of three routes:

- "closed-form": unitary conjugations, pinchings and block expectations
  (``SuperOperator.cesaro_average``: a Hadamard kernel in the conjugator's
  cached Schur basis, x/m + (1 - 1/m) P(x) for the idempotents).  O(d^3)
  whatever m_i is, with O(eps) rounding, except about m_i * eps between
  numerically repeated conjugator eigenvalues.
- "dense-prefix": a map without one, on algebras of vectorized dimension
  up to 256.  Its matrix A is built once (cached on the map), and the
  prefix sum S(k) = sum_{j<k} A^j is advanced from the previous index by
  binary doubling: O(log k) dense products per index, error about k * eps.
- "power-sum": a map without one, on larger algebras.  It sums its
  powers, O(m_i) applications per index, error about m_i * eps.

A coordinate leaves the closed form at its first m_i > 1 where its map
has none, and keeps the fallback from then on.  Conjugation families also
have a closed-form limit, the pinching onto the joint eigenvalue-equality
spaces.
"""

from __future__ import annotations

import cmath
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import Element, TracedAlgebra, _adj, _integer, check_vecs
from .config import COMMUTE_TOL, IDEMPOTENT_TOL, QUAD_TOL, SEMIGROUP_TOL
from .errors import InvalidInputError, NumericFailureError
from .rng import stream
from .superops import DSCertificate, SuperOperator, UnitaryConjugation, verify_ds


# -- index nets ---------------------------------------------------------------

@dataclass(frozen=True)
class SectorNet:
    """A monotone cofinal sequence of multi-indices standing in for a net.

    When `sector_constant` is set, the coordinate ratios are validated
    against it at construction.
    """

    dimension: int
    indices: tuple  # tuple of d-tuples of nonnegative ints
    sector_constant: Optional[float] = None

    def __post_init__(self):
        idx = tuple(tuple(_integer(k, "net index") for k in n)
                    for n in self.indices)
        if not idx:
            raise InvalidInputError("net needs at least one index")
        for n in idx:
            if len(n) != self.dimension:
                raise InvalidInputError("index arity mismatch")
            if any(k < 0 for k in n):
                raise InvalidInputError("indices must be nonnegative")
        for prev, cur in zip(idx, idx[1:]):
            if any(c < p for p, c in zip(prev, cur)):
                raise InvalidInputError("coordinates must be nondecreasing")
        object.__setattr__(self, "indices", idx)
        if self.sector_constant is not None:
            if not sector_check(self, self.sector_constant):
                raise InvalidInputError(
                    f"net leaves the sector with constant {self.sector_constant}")

    def __len__(self):
        return len(self.indices)


def sector_check(net: SectorNet, c0: float) -> bool:
    """True iff at every index the box sides m_i = max(n_i, 1), the powers
    the engine averages over, have a largest-to-smallest ratio of at most
    c0.  A zero coordinate is a side of 1: (10**6, 0) needs c0 >= 10**6."""
    if not (c0 > 0):
        raise InvalidInputError("sector constant must be > 0")
    sides = [[max(k, 1) for k in n] for n in net.indices]
    return all(max(m, default=1) / min(m, default=1) <= c0 for m in sides)


# -- family validation --------------------------------------------------------

_MATRIX_ROUTE_MAX_DIM = 256


def validate_family(ops: Sequence[SuperOperator], seed: int = 0
                    ) -> Tuple[List[DSCertificate], Tuple[str, ...]]:
    """Check a family is made of commuting positive contractions.

    Contraction and positivity come from ``verify_ds`` certificates.  Each
    pair (i, j), i < j, commutes when a bound on the norm of its
    commutator, sup ||(AB - BA)x||_inf / ||x||_inf, is at most
    ``COMMUTE_TOL``; the first rule that decides gives the pair's label:

    - "structural": conjugations, pinchings and block expectations (the
      last as the pinching by its group indicators) are sums of sandwiches
      x -> a x b (``SuperOperator.sandwiches``), and the rule of
      ``_structural_bound`` is exact for two conjugations, sufficient
      otherwise.  Where it does not prove the bound it gives no verdict,
      and the next rule decides.
    - "dense": up to vec_dim 256, ||C||_F sqrt(sum_b d_b) for the matrix C
      of AB - BA, from the cached ``to_matrix``.
    - "sampled": above it, the gap on the same ten random elements,
      drawn from ``seed``; a lower bound only.

    Returns the certificates and the labels, in (i, j) order.
    """
    if not ops:
        raise InvalidInputError("empty operator family")
    algebra = ops[0].algebra
    certs = [verify_ds(op, seed=seed) for op in ops]
    for op, cert in zip(ops, certs):
        if not cert.is_ds() or not cert.positivity:
            raise InvalidInputError("family member is not a positive contraction")
    labels, sampled = [], []
    for i, j in itertools.combinations(range(len(ops)), 2):
        if _structural_bound(ops[i].sandwiches(), ops[j].sandwiches()) <= COMMUTE_TOL:
            labels.append("structural")
        elif algebra.vec_dim <= _MATRIX_ROUTE_MAX_DIM:
            bound = _dense_bound(ops[i], ops[j])
            if bound > COMMUTE_TOL:
                raise InvalidInputError(
                    f"family does not commute (dense bound {bound:.3e})")
            labels.append("dense")
        else:
            labels.append("sampled")
            sampled.append((ops[i], ops[j]))
    if sampled:
        rng = stream(seed, "ergodic/commutativity")
        for _ in range(10):
            y = algebra.random_element(rng)
            for a, b in sampled:
                gap = (a.apply(b.apply(y)) - b.apply(a.apply(y))).sup_norm()
                if gap > COMMUTE_TOL * max(1.0, y.sup_norm()):
                    raise InvalidInputError(
                        f"family does not commute (sampled gap {gap:.3e})")
    return certs, tuple(labels)


def _dense_bound(a: SuperOperator, b: SuperOperator) -> float:
    """||C||_F sqrt(sum_b d_b) for the matrix C of AB - BA: a bound on the
    commutator norm, as ||y||_inf <= ||vec y||_2 and ||vec x||_2 <=
    sqrt(sum_b d_b) ||x||_inf."""
    ma, mb = a.to_matrix(), b.to_matrix()
    return float(np.linalg.norm(ma @ mb - mb @ ma)) * math.sqrt(sum(a.algebra.dims))


def _structural_bound(s: Optional[tuple], t: Optional[tuple]) -> float:
    """A bound on the commutator norm of the maps with sandwich factors s
    and t, inf where either has none.  Term by term, with
    a c = lam c a + e and d b = conj(lam) b d + f for any unimodular lam,

        (a c) x (d b) - (c a) x (b d) = lam c a x f + conj(lam) e x b d + e x f,

    so each term's norm is at most ||x|| (||ca|| ||f|| + ||e|| ||bd|| +
    ||e|| ||f||), with Frobenius norms for operator norms; lam is the phase
    of <ca, ac>.  The sum is bounded block by block, one term of s at a time."""
    if s is None or t is None:
        return math.inf
    bound = 0.0
    for (a_all, b_all), (c, d) in zip(s, t):
        total = np.zeros(c.shape[1])
        for a, b in zip(a_all, b_all):
            ac, ca, db, bd = a @ c, c @ a, d @ b, b @ d
            inner = np.sum(ca.conj() * ac, axis=(-2, -1), keepdims=True)
            lam = np.divide(inner, np.abs(inner), out=np.ones_like(inner),
                            where=inner != 0)
            e = np.linalg.norm(ac - lam * ca, axis=(-2, -1))
            f = np.linalg.norm(db - lam.conj() * bd, axis=(-2, -1))
            total += (np.linalg.norm(ca, axis=(-2, -1)) * f
                      + e * np.linalg.norm(bd, axis=(-2, -1)) + e * f).sum(axis=0)
        bound = max(bound, total.max())
    return bound


class _BoxAverager:
    """The box average at an index, one coordinate at a time, by the routes
    of the module docstring.  It keeps each coordinate's route and dense
    prefix ``(k, S(k), A^k)``, so that calls at nondecreasing indices
    advance the prefix instead of restarting it."""

    def __init__(self, ops: Sequence[SuperOperator], algebra: TracedAlgebra):
        self.ops = ops
        self.algebra = algebra
        self.dense = algebra.vec_dim <= _MATRIX_ROUTE_MAX_DIM
        self.routes = ["closed-form"] * len(ops)
        self.prefixes: List[Optional[tuple]] = [None] * len(ops)

    def __call__(self, x: Element, n: Sequence[int]) -> Element:
        for i, (op, m) in enumerate(zip(self.ops, n)):
            if m <= 1:
                continue
            avg = op.cesaro_average(x, m) if self.routes[i] == "closed-form" else None
            x = avg if avg is not None else self._fallback(i, x, m)
        return x

    def _fallback(self, i: int, x: Element, m: int) -> Element:
        """Coordinate i's average of x over m powers of a map without a
        closed form.  The dense prefix advances by S(a + b) = S(a) + A^a S(b)
        over chunks S(2^j), A^(2^j) doubled from A."""
        op = self.ops[i]
        if not self.dense:
            self.routes[i] = "power-sum"
            acc = z = x
            for _ in range(1, m):
                z = op.apply(z)
                acc = acc + z
            return acc.scaled(1.0 / m)
        self.routes[i] = "dense-prefix"
        a = op.to_matrix()
        eye = np.eye(len(a), dtype=complex)
        count, s, p = self.prefixes[i] or (0, np.zeros_like(eye), eye)
        step, cs, cp = m - count, eye, a
        while step:
            if step & 1:
                s, p = s + p @ cs, p @ cp
            step >>= 1
            if step:
                cs, cp = cs + cp @ cs, cp @ cp
        self.prefixes[i] = (m, s, p)
        # positive maps preserve adjoints
        sa = x.selfadjoint and op.structurally_positive()
        return Element.from_vec(self.algebra, (s @ x.vec()) / m,
                                selfadjoint=True if sa else None)


def box_average(ops: Sequence[SuperOperator], x: Element, n: Sequence[int],
                seed: int = 0) -> Element:
    """Normalized mixed-power sum over the box below n, after
    ``validate_family``, by the engine and routes of the module docstring.
    A zero coordinate contributes only the zeroth power and a factor 1."""
    if len(ops) != len(n):
        raise InvalidInputError("one exponent bound per operator required")
    n = [_integer(k, "exponent bound") for k in n]
    if any(k < 0 for k in n):
        raise InvalidInputError("exponent bounds must be nonnegative")
    validate_family(ops, seed=seed)
    return _BoxAverager(ops, x.algebra)(x, n)


@dataclass
class AverageTrace:
    """Per-index outputs of an averaging run along a net."""

    net: SectorNet
    outputs: List[Element]
    sup_norms: List[float]
    one_norms: List[float]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.outputs) != len(self.net):
            raise InvalidInputError("one output per net index required")

    def to_csv(self, reference: Optional[Element] = None) -> str:
        """Per index, the sup- and 1-norm errors against ``reference``."""
        from .singular import lp_norm
        buf = io.StringIO()
        d = self.net.dimension
        cols = ",".join(f"n_{i + 1}" for i in range(d))
        buf.write(f"alpha,{cols},err_inf,err_p,tau_deficiency\n")
        for i, (n, out) in enumerate(zip(self.net.indices, self.outputs)):
            if reference is not None:
                diff = out - reference
                err_inf, err_p = diff.sup_norm(), lp_norm(diff, 1.0)
            else:
                err_inf = err_p = float("nan")
            ns = ",".join(str(k) for k in n)
            buf.write(f"{i},{ns},{err_inf!r},{err_p!r},0.0\n")
        return buf.getvalue()


def net_average_trace(ops: Sequence[SuperOperator], x: Element, net: SectorNet,
                      seed: int = 0) -> AverageTrace:
    """The box average at every net index, after ``validate_family``, by
    one engine that carries each coordinate's route and dense prefix from
    index to index (module docstring).  ``metadata["mode"]`` is
    "matrix-prefix" up to the size cut and "factorized-per-index" above
    it; ``metadata["coordinates"]`` names the route each coordinate ran,
    "closed-form" also for a coordinate that never passes 1.  The rigor of
    the validation is recorded too: ``metadata["commutativity"]`` holds
    ``validate_family``'s label per pair and ``metadata["contraction"]``
    each map's ``DSCertificate.method``.
    """
    if len(ops) != net.dimension:
        raise InvalidInputError("one operator per net dimension required")
    certs, commutativity = validate_family(ops, seed=seed)
    engine = _BoxAverager(ops, x.algebra)
    outputs = [engine(x, n) for n in net.indices]

    from .singular import lp_norm
    sup_norms = [y.sup_norm() for y in outputs]
    one_norms = [lp_norm(y, 1) for y in outputs]
    meta = {
        "mode": "matrix-prefix" if engine.dense else "factorized-per-index",
        "coordinates": tuple(engine.routes),
        "commutativity": commutativity,
        "contraction": tuple(c.method for c in certs),
        "net_model": "monotone cofinal index sequence (finite stand-in for a net)",
        "seed": seed,
    }
    return AverageTrace(net, outputs, sup_norms, one_norms, meta)


def cesaro_limit_oracle(ops: Sequence[SuperOperator], x: Element) -> Element:
    """Limit for commuting unitary-conjugation families.

    Each conjugator contributes the pinching onto its eigenspaces
    (``UnitaryConjugation.cesaro_limit``, the limit kernel in the cached
    Schur basis); the joint limit is the successive application of these
    pinchings (order-independent for a commuting family).  It reads the
    same cached Schur basis as the closed-form averages of ``box_average``
    and ``net_average_trace``, so it is no independent check of them; the
    tests check those against kernels and dense power sums built without
    ncergo's Schur code, and the benchmark against the plain-numpy
    references of ``perfbench/refs.py``.
    """
    for op in ops:
        if not isinstance(op, UnitaryConjugation):
            raise InvalidInputError("oracle supports unitary conjugations only")
    for op in ops:
        x = op.cesaro_limit(x)
    return x


# -- Besicovitch weights and semigroup flows ----------------------------------

@dataclass(frozen=True)
class TrigPolynomial:
    """Finite sum of unimodular exponentials sum_j w_j e^{i theta_j s}."""

    terms: tuple  # tuple of (complex coefficient, real frequency)

    def __post_init__(self):
        terms = tuple((complex(w), float(th)) for w, th in self.terms)
        object.__setattr__(self, "terms", terms)

    def __call__(self, s: float) -> complex:
        return sum(w * cmath.exp(1j * th * s) for w, th in self.terms)

    def sup_bound(self) -> float:
        return sum(abs(w) for w, _ in self.terms)


@dataclass(frozen=True)
class BesicovitchFunction:
    """A bounded weight function with a trigonometric approximant.

    The callable value is polynomial(s) + residual(s).
    """

    polynomial: TrigPolynomial
    residual: Optional[Callable[[float], complex]] = None

    def __post_init__(self):
        if not np.isfinite(self.polynomial.sup_bound()):
            raise InvalidInputError("sup norm must be finite")

    def __call__(self, s: float) -> complex:
        v = self.polynomial(s)
        if self.residual is not None:
            v = v + self.residual(s)
        return v


class Semigroup:
    """Base for the two built-in strongly continuous positive flows.

    A flow implements ``_orbit``, the unchecked rows vec(T_s(x)) for an
    array of times.  ``orbit`` checks them and ``apply`` is its one-node
    case; each flow binds ``apply`` in its own class body, so that
    per-class instrumentation sees it.
    """

    algebra: TracedAlgebra

    def _orbit(self, times: np.ndarray, x: Element) -> np.ndarray:
        raise NotImplementedError

    def orbit(self, times: Sequence[float], x: Element) -> np.ndarray:
        """The ``(len(times), vec_dim)`` array of vec(T_s(x)), one row per time.

        Each row passes the checks ``Element``'s constructor runs on T_s(x):
        finite entries and, when x is flagged selfadjoint, a verified flag.
        """
        rows = self._orbit(np.asarray(times, dtype=float), x)
        check_vecs(x.algebra, rows, selfadjoint=x.selfadjoint)
        return rows

    def apply(self, s: float, x: Element) -> Element:
        """T_s(x), flagged selfadjoint when x is."""
        row = self._orbit(np.array([s], dtype=float), x)[0]
        return Element.from_vec(x.algebra, row, selfadjoint=x.selfadjoint)

    def _check_law(self):
        rng = stream(0, "ergodic/semigroup-law")
        for _ in range(5):
            x = self.algebra.random_element(rng)
            s, t = rng.uniform(0.0, 2.0, size=2)
            gap = (self.apply(s, self.apply(t, x))
                   - self.apply(s + t, x)).sup_norm()
            if gap > SEMIGROUP_TOL * max(1.0, x.sup_norm()):
                raise NumericFailureError(f"semigroup law violated: gap {gap:.3e}")


class UnitaryFlow(Semigroup):
    """T_s(x) = e^{i s H} x e^{-i s H} for a selfadjoint generator H."""

    def __init__(self, generator: Element):
        generator = generator.as_selfadjoint()
        self.algebra = generator.algebra
        self.generator = generator
        self._eig = [np.linalg.eigh((b + b.conj().T) / 2) for b in generator.data]
        self._check_law()

    def _orbit(self, times: np.ndarray, x: Element) -> np.ndarray:
        rows = []
        for (w, v), xb in zip(self._eig, x.data):
            # one (nodes, d, d) stack u_s = (v e^{i s w}) v^H per block
            u = (v * np.exp(1j * times[:, None] * w)[:, None, :]) @ v.conj().T
            rows.append((u @ xb @ _adj(u)).reshape(len(times), -1))
        return np.concatenate(rows, axis=1)

    apply = Semigroup.apply


class InterpolationFlow(Semigroup):
    """T_s(x) = e^{-s} x + (1 - e^{-s}) E(x) for an idempotent expectation E."""

    def __init__(self, expectation: SuperOperator):
        self.algebra = expectation.algebra
        rng = stream(0, "ergodic/idempotency")
        y = self.algebra.random_element(rng)
        gap = (expectation.apply(expectation.apply(y))
               - expectation.apply(y)).sup_norm()
        if gap > IDEMPOTENT_TOL * max(1.0, y.sup_norm()):
            raise InvalidInputError("expectation must be idempotent")
        if not expectation.structurally_positive():
            raise InvalidInputError("expectation must be structurally positive")
        self.expectation = expectation
        self._check_law()

    def _orbit(self, times: np.ndarray, x: Element) -> np.ndarray:
        # math.exp per node: np.exp may differ from it in the last bit
        decay = np.array([math.exp(-s) for s in times])[:, None]
        return decay * x.vec() + (1.0 - decay) * self.expectation.apply(x).vec()

    apply = Semigroup.apply


def _simpson(values: np.ndarray, h: float):
    """Composite Simpson sum with node spacing h over the first axis (odd length)."""
    return (h / 3.0) * (values[0] + values[-1]
                        + 4.0 * values[1:-1:2].sum(axis=0)
                        + 2.0 * values[2:-1:2].sum(axis=0))


def besicovitch_average(beta: BesicovitchFunction, flow: Semigroup, x: Element,
                        t: float, quad_tol: float = QUAD_TOL,
                        max_depth: int = 16) -> Element:
    """The weighted time average (1/t) * integral of beta(s) T_s(x) over [0, t].

    Composite Simpson with interval doubling until two successive
    refinements agree within quad_tol in the sup norm; flow evaluations
    use exact matrix exponentials of the generator.  Each level evaluates
    the flow in one batched ``flow.orbit`` call, at its new odd nodes
    only: the even nodes of a level are the previous level's nodes, bit
    for bit, so their weighted values are reused.  The weight beta is
    called once per node.
    """
    if not (t > 0):
        raise InvalidInputError("t must be > 0")

    def integrand(times: np.ndarray) -> np.ndarray:
        weights = np.array([complex(beta(s)) for s in times])
        return weights[:, None] * flow.orbit(times, x)

    # resolve the fastest oscillation before trusting refinement agreement
    freq = max((abs(th) for _, th in beta.polynomial.terms), default=0.0)
    if isinstance(flow, UnitaryFlow):
        freq += 2.0 * flow.generator.sup_norm()
    elif isinstance(flow, InterpolationFlow):
        freq += 1.0

    m = max(4, int(math.ceil(t * (freq + 1.0) / math.pi)))
    values = integrand(np.linspace(0.0, t, 2 * m + 1))
    prev = _simpson(values, t / (2 * m))
    gap = math.inf
    for _ in range(max_depth):
        m *= 2
        finer = np.empty((2 * m + 1, values.shape[1]), dtype=complex)
        finer[0::2] = values
        finer[1::2] = integrand(np.linspace(0.0, t, 2 * m + 1)[1::2])
        values = finer
        cur = _simpson(values, t / (2 * m))
        gap = Element.from_vec(x.algebra, (cur - prev) / t).sup_norm()
        if gap < quad_tol:
            return Element.from_vec(x.algebra, cur / t)
        prev = cur
    raise NumericFailureError(
        f"quadrature did not reach tol {quad_tol} within depth {max_depth} "
        f"(last gap {gap:.3e}, {2 * m + 1} nodes)")
