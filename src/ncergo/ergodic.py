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
  prefix sum S(k) = sum_{j<k} A^j, a stack per group, is advanced by
  binary doubling: O(log k) products per index, error about k * eps.
- "power-sum": a map without one, on larger algebras.  It sums its
  powers, O(m_i) applications per index, error about m_i * eps.

A coordinate leaves the closed form at its first m_i > 1 where its map
has none, and keeps the fallback from then on.  Conjugation families also
have a closed-form limit, the pinching onto the joint eigenvalue-equality
spaces.

The weighted time averages of the two flows, ``besicovitch_average``, are
closed forms too.  The weight is a trigonometric polynomial, so the
average is a sum of exponential means g(z) = expm1(z)/z: a Hadamard kernel
in the unitary flow's cached eigenbasis, two scalars on E(x) and x - E(x)
for the interpolation flow.  O(d^3) whatever t is, with O(eps) rounding
and no tolerance.  Both Hadamard kernels, the conjugations' and this
flow's, are ``superops.hadamard_in_basis`` on one stacked basis per group.
"""

from __future__ import annotations

import cmath
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (Element, TracedAlgebra, _adj, _integer, check_algebra,
                      vec_action)
from .config import COMMUTE_TOL, IDEMPOTENT_TOL, UNITARY_TOL
from .errors import InvalidInputError, NumericFailureError
from .rng import stream
from .singular import lp_norm
from .superops import (DSCertificate, SuperOperator, UnitaryConjugation,
                       _dense_bound, hadamard_in_basis, verify_ds)


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
      of AB - BA, from the cached ``to_matrix`` (``superops._dense_bound``).
    - "sampled": above it, the gap on the same ten random elements,
      drawn from ``seed``; a lower bound only.

    Returns the certificates and the labels, in (i, j) order.
    """
    if not ops:
        raise InvalidInputError("empty operator family")
    algebra = ops[0].algebra
    certs = [verify_ds(op, seed=seed) for op in ops]
    for op, cert in zip(ops, certs):
        check_algebra(algebra, op.algebra)
        if not cert.is_ds() or not cert.positivity:
            raise InvalidInputError("family member is not a positive contraction")
    labels, sampled = [], []
    for i, j in itertools.combinations(range(len(ops)), 2):
        if _structural_bound(ops[i].sandwiches(), ops[j].sandwiches()) <= COMMUTE_TOL:
            labels.append("structural")
        elif algebra.vec_dim <= _MATRIX_ROUTE_MAX_DIM:
            bound = _dense_bound(algebra, [a @ b - b @ a for a, b in
                                           zip(ops[i].to_matrix(), ops[j].to_matrix())])
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
    prefix ``(k, [(S(k), A^k) per group])``, so that calls at nondecreasing
    indices advance the prefix instead of restarting it."""

    def __init__(self, ops: Sequence[SuperOperator], algebra: TracedAlgebra):
        check_algebra(ops[0].algebra, algebra)  # the algebra of the averaged x
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
        count, prefix = self.prefixes[i] or (0, [None] * len(x.stacks))
        for g, a in enumerate(op.to_matrix()):
            step, cs, cp = m - count, np.zeros_like(a) + np.eye(a.shape[-1]), a
            s, p = prefix[g] or (np.zeros_like(a), cs)
            while step:
                if step & 1:
                    s, p = s + p @ cs, p @ cp
                step >>= 1
                if step:
                    cs, cp = cs + cp @ cs, cp @ cp
            prefix[g] = (s, p)
        self.prefixes[i] = (m, prefix)
        # positive maps preserve adjoints
        sa = x.selfadjoint and op.structurally_positive()
        return Element._from_stacks(
            self.algebra, [b / m for b in vec_action([s for s, _ in prefix], x.stacks)],
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
        if not all(math.isfinite(th) for _, th in terms):
            raise InvalidInputError("frequencies must be finite")
        object.__setattr__(self, "terms", terms)

    def __call__(self, s: float) -> complex:
        return sum(w * cmath.exp(1j * th * s) for w, th in self.terms)

    def sup_bound(self) -> float:
        return sum(abs(w) for w, _ in self.terms)


@dataclass(frozen=True)
class BesicovitchFunction:
    """A bounded weight function: the trigonometric polynomial it holds."""

    polynomial: TrigPolynomial

    def __post_init__(self):
        if not np.isfinite(self.polynomial.sup_bound()):
            raise InvalidInputError("sup norm must be finite")

    def __call__(self, s: float) -> complex:
        return self.polynomial(s)


def _exp_mean(z):
    """g(z) = expm1(z)/z entrywise, with g(0) = 1: the mean of e^{zs/t}
    over s in [0, t]."""
    safe = np.where(z == 0, 1.0, z)
    return np.where(z == 0, 1.0, np.expm1(safe) / safe)


# Each flow binds ``apply(s, x)``, T_s(x), in its own class body, where
# per-class instrumentation sees it, and ``besicovitch_average``'s closed form.
class UnitaryFlow:
    """T_s(x) = e^{i s H} x e^{-i s H} for a selfadjoint generator H."""

    def __init__(self, generator: Element):
        generator = generator.as_selfadjoint()
        self.algebra = generator.algebra
        self._eig = [  # per group, the stacked eigenbasis (w, v)
            np.linalg.eigh(b / 2 + _adj(b) / 2) for b in generator.stacks]
        # u_s u_t = u_{s+t} for u_s = v e^{isw} v* wherever v*v = 1
        if max(np.abs(_adj(v) @ v - np.eye(w.shape[-1])).max()
               for w, v in self._eig) > UNITARY_TOL:
            raise NumericFailureError("generator eigenbasis is not unitary")

    def apply(self, s: float, x: Element) -> Element:
        """T_s(x) = u_s x u_s* with u_s = (v e^{i s w}) v* per block, flagged
        selfadjoint when x is."""
        check_algebra(self.algebra, x.algebra)
        stacks = []
        for (w, v), b in zip(self._eig, x.stacks):
            u = (v * np.exp(1j * s * w)[..., None, :]) @ _adj(v)
            stacks.append(u @ b @ _adj(u))
        return Element._from_stacks(x.algebra, stacks, selfadjoint=x.selfadjoint)

    def _average(self, terms: tuple, t: float, x: Element) -> Element:
        """With y = v* x v per block, T_s(x) = v (y_ab e^{is(w_a - w_b)}) v*,
        so the average is v (y o K) v* with the Hadamard kernel
        K_ab = sum_j c_j g(i (theta_j + w_a - w_b) t)."""
        return hadamard_in_basis(
            [(v, w[..., :, None] - w[..., None, :]) for w, v in self._eig], x,
            lambda gaps: sum(c * _exp_mean(1j * ((th + gaps) * t)) for c, th in terms))


class InterpolationFlow:
    """T_s(x) = e^{-s} x + (1 - e^{-s}) E(x) for an idempotent expectation E."""

    def __init__(self, expectation: SuperOperator):
        self.algebra = expectation.algebra
        if not expectation.structurally_positive():
            raise InvalidInputError("expectation must be structurally positive")
        # T_s T_t - T_{s+t} = (1 - e^{-s})(1 - e^{-t})(E^2 - E)
        gap = [e @ e - e for e in expectation.to_matrix()]
        if _dense_bound(self.algebra, gap) > IDEMPOTENT_TOL:
            raise InvalidInputError("expectation must be idempotent")
        self.expectation = expectation

    def apply(self, s: float, x: Element) -> Element:
        """T_s(x), flagged selfadjoint when x is."""
        check_algebra(self.algebra, x.algebra)
        decay = math.exp(-s)
        return Element._from_stacks(x.algebra, [
            decay * b + (1.0 - decay) * e
            for b, e in zip(x.stacks, self.expectation.apply(x).stacks)],
            selfadjoint=x.selfadjoint)

    def _average(self, terms: tuple, t: float, x: Element) -> Element:
        """T_s(x) = E(x) + e^{-s} (x - E(x)), so the average is
        a E(x) + b (x - E(x)) with a = sum_j c_j g(i theta_j t) and
        b = sum_j c_j g((i theta_j - 1) t)."""
        a = sum(c * _exp_mean(1j * (th * t)) for c, th in terms)
        b = sum(c * _exp_mean((1j * th - 1.0) * t) for c, th in terms)
        ex = self.expectation.apply(x)
        return Element._from_stacks(
            x.algebra, [a * e + b * (y - e) for y, e in zip(x.stacks, ex.stacks)])


def besicovitch_average(beta: BesicovitchFunction, flow: UnitaryFlow | InterpolationFlow,
                        x: Element, t: float) -> Element:
    """The weighted time average (1/t) * integral of beta(s) T_s(x) over [0, t].

    For beta = sum_j c_j e^{i theta_j s} it is a sum of the exponential
    means g(z) = expm1(z)/z, g(0) = 1, which each flow's ``_average``
    takes in closed form: exact up to rounding, with no tolerance, so the
    average of 2^k x is 2^k times that of x, bit for bit, short of
    overflow and underflow.
    """
    if not (0 < t < math.inf):
        raise InvalidInputError("t must be finite and > 0")
    check_algebra(flow.algebra, x.algebra)
    return flow._average(beta.polynomial.terms, t, x)
