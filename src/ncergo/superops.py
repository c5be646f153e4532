"""Structured linear maps on a traced algebra and their contraction audits.

Maps are represented as node trees (unitary conjugation, pinching,
block-diagonal conditional expectation, convex combination, composition,
power, explicit matrix) so that positivity and the trace/sup contraction
bounds are exactly analyzable wherever the structure allows it, and only
sampled where it does not.  A map's dense matrix, ``to_matrix()``, is one
``(k, d^2, d^2)`` stack per group, and its laws are decided block by block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .algebra import (Element, TracedAlgebra, _adj, _finite, _integer, block_matrices,
                      check_algebra, stacked_singular_values, vec_action)
from .config import (CLOSED_FORM_TOL, DS_SLACK, PHASE_TOL,
                     PINCHING_TOL, POSITIVITY_TOL, SELFADJOINT_TOL, UNITARY_TOL,
                     WEIGHT_SUM_SLACK)
from .errors import InvalidInputError
from .rng import stream
from .singular import fava_decompose, lp_norm, submajorizes


class SuperOperator:
    """Base class: a linear map on the algebra, applied blockwise."""

    _factors: Optional[tuple] = None  # set by the maps held as sandwiches

    def __init__(self, algebra: TracedAlgebra):
        self.algebra = algebra
        self._matrix_cache: Optional[tuple] = None

    def apply(self, x: Element) -> Element:
        raise NotImplementedError

    def adjoint(self) -> "SuperOperator":
        """Adjoint with respect to the weighted trace pairing."""
        raise NotImplementedError

    def sandwiches(self) -> Optional[tuple]:
        """Per group of ``algebra.groups``, stacks ``(a, b)`` of shape (terms,
        blocks, d, d) with A(x) = sum_k a_k x b_k and b_k = a_k* on each
        block; None for a map not held as such a sum."""
        return self._factors

    def structurally_positive(self) -> bool:
        """True when positivity holds by construction: the map, or every
        leaf of its tree, has sandwich factors, a completely positive form
        (Choi, LAA 10 (1975)).  A positive map also preserves adjoints (a
        selfadjoint x is x+ - x-), and its contraction constants are exactly
        ||A(1)||_inf and ||A*(1)||_inf: no other structural fact is needed."""
        return self.sandwiches() is not None

    def __call__(self, x: Element) -> Element:
        return self.apply(x)

    def to_matrix(self) -> tuple:
        """The dense action, cached: per entry of ``algebra.groups``, one
        ``(k, d^2, d^2)`` stack of each block's matrix on its row-major vec."""
        if self._matrix_cache is None:
            self._matrix_cache = tuple(self._build_matrix())
        return self._matrix_cache

    def _build_matrix(self) -> list:
        """The dense matrix column by column: ``apply`` on each basis element."""
        return block_matrices(self.algebra, np.column_stack([
            self.apply(Element.from_vec(self.algebra, v)).vec()
            for v in np.eye(self.algebra.vec_dim, dtype=complex)]))

    def cesaro_average(self, x: Element, m: int) -> Optional[Element]:
        """The average (1/m) sum_{k<m} A^k(x) in closed form, or None where
        the map has none and the powers must be summed."""
        return None


class _Sandwiched(SuperOperator):
    """A leaf held as its sandwich factors, ``_factors``, built once."""

    def _build_matrix(self) -> list:
        # row-major vec(a x b) = kron(a, b^T) vec(x), batched over a group's blocks
        return [sum((ak[:, :, None, :, None] * bk.swapaxes(-1, -2)[:, None, :, None, :])
                    .reshape(len(ak), ak.shape[-1] ** 2, -1) for ak, bk in zip(a, b))
                for a, b in self._factors]


class UnitaryConjugation(_Sandwiched):
    """x -> u x u* for a unitary u."""

    def __init__(self, u: Element):
        if max(np.abs(b @ _adj(b) - np.eye(b.shape[-1])).max()
               for b in u.stacks) > UNITARY_TOL:
            raise InvalidInputError("conjugator is not unitary")
        self._hold(u)

    def _hold(self, u: Element):
        super().__init__(u.algebra)
        self._factors = tuple((a[None], _adj(a)[None]) for a in u.stacks)
        self.u = u
        self._schur_cache: Optional[tuple] = None

    def apply(self, x: Element) -> Element:
        check_algebra(self.algebra, x.algebra)
        return Element._from_stacks(
            x.algebra, [a @ b @ _adj(a) for a, b in zip(self.u.stacks, x.stacks)],
            selfadjoint=x.selfadjoint)

    def _schur_basis(self) -> tuple:
        """``(basis, defect)``, cached.  ``basis`` holds per group of
        equal-dimension blocks ``(q, phi)``: the stacked complex Schur
        bases q of u and the phase differences phi[a, b] = theta_a - theta_b
        of its eigenvalues, wrapped into [-pi, pi].  ``defect`` is the
        largest distance of a Schur factor from diagonal and unimodular."""
        if self._schur_cache is None:
            basis, defect = [], 0.0
            for u in self.u.stacks:
                if u.shape[-1] == 1:
                    t, q = u, np.ones_like(u)
                else:
                    t, q = map(np.stack, zip(*[scipy.linalg.schur(b, output="complex")
                                               for b in u]))
                lam = np.diagonal(t, axis1=-2, axis2=-1)
                defect = max(defect, np.abs(np.triu(t, 1)).max(),
                             np.abs(np.abs(lam) - 1.0).max())
                theta = np.angle(lam)
                phi = theta[:, :, None] - theta[:, None, :]
                phi -= 2.0 * np.pi * np.round(phi / (2.0 * np.pi))
                basis.append((q, phi))
            self._schur_cache = (tuple(basis), defect)
        return self._schur_cache

    def cesaro_average(self, x: Element, m: int) -> Optional[Element]:
        """The Hadamard kernel K[a, b] = e^{i(m-1)phi/2} sin(m phi/2) /
        (m sin(phi/2)), and 1 where sin(phi/2) = 0, in u's Schur basis; None
        when the basis's defect exceeds ``CLOSED_FORM_TOL``.  O(d^3) per
        block whatever m is, with O(eps) rounding, except for numerically
        repeated eigenvalues, whose computed phi is about eps instead of 0:
        there the phase error is about m * eps."""
        if self._schur_basis()[1] > CLOSED_FORM_TOL:
            return None

        def kernel(phi):
            half = np.sin(phi / 2.0)
            return np.divide(np.exp(0.5j * (m - 1) * phi) * np.sin(0.5 * m * phi),
                             m * half, out=np.ones(phi.shape, dtype=complex),
                             where=half != 0)
        return hadamard_in_basis(self._schur_basis()[0], x, kernel, hermitian=True)

    def cesaro_limit(self, x: Element) -> Element:
        """The m -> infinity limit of ``cesaro_average``: the pinching onto
        u's eigenspaces, the kernel 1{|lambda_a - lambda_b| <= PHASE_TOL}
        with |lambda_a - lambda_b| = |2 sin(phi/2)| for unimodular lambda.
        Equality is pairwise: unlike a chained clustering, it keeps apart
        the ends of a chain of eigenvalues whose steps are within
        ``PHASE_TOL`` but whose span is not.  Uses the basis whatever its
        defect."""
        return hadamard_in_basis(
            self._schur_basis()[0], x,
            lambda phi: np.abs(2.0 * np.sin(phi / 2.0)) <= PHASE_TOL, hermitian=True)

    def adjoint(self) -> "UnitaryConjugation":
        """x -> u* x u, without the constructor's check on u*: u* is as close
        to unitary as u in norm, ||u*u - 1||_2 = ||uu* - 1||_2 (uu* and u*u
        share their eigenvalues), though not entry by entry.  Nothing assumes
        either is 1: ``verify_ds`` computes c_1 = ||u*u||_inf."""
        op = UnitaryConjugation.__new__(UnitaryConjugation)
        op._hold(self.u.adjoint())
        return op


class Pinching(_Sandwiched):
    """x -> sum_i p_i x p_i for an orthogonal partition of unity."""

    def __init__(self, projections: Sequence[Element]):
        if not projections:
            raise InvalidInputError("pinching needs at least one projection")
        super().__init__(projections[0].algebra)
        if any(p.algebra != self.algebra for p in projections):
            raise InvalidInputError("pinching projections must share one algebra")
        stacks = [np.stack(terms) for terms in zip(*(p.stacks for p in projections))]
        self._factors = tuple((s, s) for s in stacks)
        if max(np.abs(s.sum(axis=0) - np.eye(s.shape[-1])).max()
               for s in stacks) > PINCHING_TOL:
            raise InvalidInputError("pinching projections must sum to 1")
        defect = 0.0  # the largest entry of p_i p_j - delta_ij p_i
        for s in stacks:  # row by row: k^2 products at once would take k x memory
            for i, p in enumerate(s):
                row = p @ s  # p_i p_j for every j
                cross = stacked_singular_values(row[i + 1:])[..., 0]
                if cross.max(initial=0.0) > PINCHING_TOL:
                    raise InvalidInputError("pinching projections must be orthogonal")
                row[i] -= p
                defect = max(defect, np.abs(row).max())
        self._idempotent = defect <= CLOSED_FORM_TOL
        self.projections = tuple(projections)

    def apply(self, x: Element) -> Element:
        check_algebra(self.algebra, x.algebra)
        return Element._from_stacks(x.algebra, [
            sum(p @ b @ p for p in s) for (s, _), b in zip(self._factors, x.stacks)],
            selfadjoint=x.selfadjoint)

    def cesaro_average(self, x: Element, m: int) -> Optional[Element]:
        """x/m + (1 - 1/m) P(x), when p_i p_j = delta_ij p_i holds entrywise
        to ``CLOSED_FORM_TOL`` (so that P is idempotent)."""
        return _idempotent_average(self, x, m) if self._idempotent else None

    def adjoint(self) -> "Pinching":
        return self


class BlockExpectation(_Sandwiched):
    """Conditional expectation onto a block-diagonal subalgebra.

    `partition` gives, per algebra block, a list of index groups; entries
    coupling different groups are zeroed.  Equivalent to the pinching by
    the group indicator projections, which are its sandwich factors.
    """

    def __init__(self, algebra: TracedAlgebra, partition: Sequence[Sequence[Sequence[int]]]):
        super().__init__(algebra)
        if len(partition) != len(algebra.blocks):
            raise InvalidInputError("partition must cover every block")
        self.partition = tuple(tuple(tuple(_integer(i, "partition index") for i in g)
                                     for g in groups) for groups in partition)
        masks = []  # per block, 1.0 where both indices lie in one group
        for groups, d in zip(self.partition, algebra.dims):
            if sorted(i for g in groups for i in g) != list(range(d)):
                raise InvalidInputError("groups must partition the block indices")
            masks.append(np.zeros((d, d)))
            for g in groups:
                masks[-1][np.ix_(g, g)] = 1.0
        self._masks = [np.array([masks[i] for i in g]) for g in algebra.groups]

    @cached_property
    def _factors(self) -> tuple:
        """The group indicator projections, built on first use: their
        (terms, blocks, d, d) stacks outweigh the masks terms-fold."""
        factors = []
        for g in self.algebra.groups:
            d = self.algebra.dims[g[0]]
            a = np.zeros((max(len(self.partition[i]) for i in g), len(g), d, d),
                         dtype=complex)
            for j, i in enumerate(g):
                for k, idx in enumerate(self.partition[i]):
                    a[k, j, list(idx), list(idx)] = 1.0
            factors.append((a, a))
        return tuple(factors)

    def apply(self, x: Element) -> Element:
        check_algebra(self.algebra, x.algebra)
        return Element._from_stacks(
            x.algebra, [m * b for m, b in zip(self._masks, x.stacks)],
            selfadjoint=x.selfadjoint)

    def cesaro_average(self, x: Element, m: int) -> Element:
        """x/m + (1 - 1/m) E(x): E is idempotent exactly (0/1 masks)."""
        return _idempotent_average(self, x, m)

    def adjoint(self) -> "BlockExpectation":
        return self


class ConvexCombination(SuperOperator):
    """Sub-convex combination sum w_i A_i with w_i >= 0, sum <= 1."""

    def __init__(self, terms: Sequence[Tuple[float, SuperOperator]]):
        if not terms:
            raise InvalidInputError("combination needs at least one term")
        super().__init__(terms[0][1].algebra)
        for _, op in terms:
            check_algebra(self.algebra, op.algebra)
        weights = [float(w) for w, _ in terms]
        if not all(w >= 0 for w in weights):
            raise InvalidInputError("combination weights must be nonnegative")
        if not (sum(weights) <= 1.0 + WEIGHT_SUM_SLACK):
            raise InvalidInputError("combination weights must sum to at most 1")
        self.terms = tuple((w, op) for w, op in zip(weights, (op for _, op in terms)))

    def apply(self, x: Element) -> Element:
        out = x.algebra.zero()
        for w, op in self.terms:
            out = out + op.apply(x).scaled(w)
        return out

    def _build_matrix(self) -> list:
        return [sum(w * m for (w, _), m in zip(self.terms, stacks))
                for stacks in zip(*(op.to_matrix() for _, op in self.terms))]

    def adjoint(self) -> "ConvexCombination":
        return ConvexCombination([(w, op.adjoint()) for w, op in self.terms])

    def structurally_positive(self) -> bool:
        return all(op.structurally_positive() for _, op in self.terms)


class Composition(SuperOperator):
    """Left-to-right composition: the first factor is applied last."""

    def __init__(self, factors: Sequence[SuperOperator]):
        if not factors:
            raise InvalidInputError("composition needs at least one factor")
        super().__init__(factors[0].algebra)
        for op in factors:
            check_algebra(self.algebra, op.algebra)
        self.factors = tuple(factors)

    def apply(self, x: Element) -> Element:
        for op in reversed(self.factors):
            x = op.apply(x)
        return x

    def _build_matrix(self) -> list:
        # the first factor is applied last, so its matrices are leftmost
        return [reduce(np.matmul, stacks)
                for stacks in zip(*(op.to_matrix() for op in self.factors))]

    def adjoint(self) -> "Composition":
        return Composition([op.adjoint() for op in reversed(self.factors)])

    def structurally_positive(self) -> bool:
        return all(op.structurally_positive() for op in self.factors)


class Power(SuperOperator):
    """Repeated application of a base map."""

    def __init__(self, base: SuperOperator, exponent: int):
        exponent = _integer(exponent, "exponent")
        if exponent < 0:
            raise InvalidInputError("exponent must be >= 0")
        super().__init__(base.algebra)
        self.base = base
        self.exponent = exponent

    def apply(self, x: Element) -> Element:
        for _ in range(self.exponent):
            x = self.base.apply(x)
        return x

    def _build_matrix(self) -> list:
        return [np.linalg.matrix_power(m, self.exponent) for m in self.base.to_matrix()]

    def adjoint(self) -> "Power":
        return Power(self.base.adjoint(), self.exponent)

    def structurally_positive(self) -> bool:
        return self.base.structurally_positive()


class ExplicitMatrix(SuperOperator):
    """A map given by its dense action on vectorized elements.

    Only its diagonal blocks, ``algebra.block_matrices``, act, and an entry
    between blocks above ``COUPLING_TOL`` is refused.
    """

    def __init__(self, algebra: TracedAlgebra, matrix: np.ndarray):
        super().__init__(algebra)
        d = algebra.vec_dim
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (d, d):
            raise InvalidInputError(f"matrix must be {d} x {d}")
        self.matrix = _finite(matrix)
        self._matrix_cache = tuple(block_matrices(algebra, matrix))

    def apply(self, x: Element) -> Element:
        check_algebra(self.algebra, x.algebra)
        return Element._from_stacks(self.algebra, vec_action(self.to_matrix(), x.stacks))

    def adjoint(self) -> "ExplicitMatrix":  # the trace weights cancel in a block
        return ExplicitMatrix(self.algebra, self.matrix.conj().T)


def _idempotent_average(op: SuperOperator, x: Element, m: int) -> Element:
    """(1/m) sum_{k<m} P^k(x) = x/m + (1 - 1/m) P(x) for an idempotent P."""
    px = op.apply(x)
    return Element._from_stacks(
        x.algebra, [b / m + (1.0 - 1.0 / m) * pb for b, pb in zip(x.stacks, px.stacks)],
        selfadjoint=True if x.selfadjoint else None)


def hadamard_in_basis(basis: Sequence[tuple], x: Element, kernel,
                      hermitian: bool = False) -> Element:
    """q ((q* x q) o kernel(diff)) q* per group of ``basis``, the stacks
    ``(q, diff)`` of a unitary basis and its eigenvalue differences; a
    ``hermitian`` kernel keeps x's selfadjoint flag."""
    return Element._from_stacks(
        x.algebra, [q @ ((_adj(q) @ b @ q) * kernel(diff)) @ _adj(q)
                    for (q, diff), b in zip(basis, x.stacks)],
        selfadjoint=True if hermitian and x.selfadjoint else None)


# -- certification ------------------------------------------------------------

@dataclass(frozen=True)
class DSCertificate:
    """Audited contraction data for a map: the computational content of
    declaring it a trace- and sup-norm contraction."""

    one_norm_bound: float
    sup_norm_bound: float
    positivity: bool
    selfadjointness: bool
    method: str  # "exact-positive" or "sampled"

    def is_ds(self) -> bool:
        return (self.one_norm_bound <= 1.0 + DS_SLACK
                and self.sup_norm_bound <= 1.0 + DS_SLACK)

    def to_json(self) -> str:
        return json.dumps({
            "one_norm_bound": self.one_norm_bound,
            "sup_norm_bound": self.sup_norm_bound,
            "positivity": self.positivity,
            "selfadjointness": self.selfadjointness,
            "method": self.method,
            "is_ds": self.is_ds(),
        }, sort_keys=True, indent=2)


def check_positivity(op: SuperOperator, trials: int = 50, seed: int = 0) -> bool:
    """Positivity check: exact for structural trees, sampled otherwise.

    The sampled route draws random x and tests the spectrum of A(x* x)
    against -POSITIVITY_TOL relative to its norm.  Either route needs trials >= 1.
    """
    trials = _integer(trials, "trials")
    if trials < 1:  # no sample can refute positivity
        raise InvalidInputError(f"trials must be >= 1, got {trials!r}")
    if op.structurally_positive():
        return True
    rng = stream(seed, "superops/positivity")
    for _ in range(trials):
        x = op.algebra.random_element(rng)
        y = op.apply(x.adjoint() @ x)
        ysa = Element._from_stacks(y.algebra, [(b + _adj(b)) / 2 for b in y.stacks],
                                   selfadjoint=True)
        if (ysa - y).sup_norm() > POSITIVITY_TOL * max(1.0, y.sup_norm()):
            return False
        lo = min(np.linalg.eigvalsh(b).min() for b in ysa.stacks)
        if lo < -POSITIVITY_TOL * max(1.0, ysa.sup_norm()):
            return False
    return True


def check_selfadjointness(op: SuperOperator) -> bool:
    """Whether A maps selfadjoint elements to selfadjoint ones, exactly: a
    structurally positive map does, and another iff M = T conj(M) T for each
    block's matrix M and the transpose T of the block, that is iff its Choi
    matrix is Hermitian (Choi, LAA 10 (1975))."""
    if op.structurally_positive():  # positive maps preserve adjoints
        return True
    a, m = op.algebra, op.to_matrix()
    # M[(i, j), (k, l)] - conj(M[(j, i), (l, k)]) on the (blocks, d, d, d, d) view
    gap = [s - s.reshape((len(s),) + (a.dims[g[0]],) * 4).transpose(
        0, 2, 1, 4, 3).reshape(s.shape).conj() for s, g in zip(m, a.groups)]
    return (_dense_bound(a, gap)
            <= SELFADJOINT_TOL * max(1.0, _dense_bound(a, m)))


def _dense_bound(algebra: TracedAlgebra, c: Sequence[np.ndarray]) -> float:
    """||C||_F sqrt(sum_b d_b) >= sup ||C vec x||_inf / ||x||_inf for C held as
    ``to_matrix``, as ||y||_inf <= ||vec y||_2 and ||vec x||_2 <= sqrt(sum_b d_b)
    ||x||_inf: the one rule that decides a law of a map on its matrix."""
    return float(np.hypot.reduce([np.linalg.norm(s) for s in c])
                 * np.sqrt(sum(algebra.dims)))


def verify_ds(op: SuperOperator, trials: int = 50, seed: int = 0) -> DSCertificate:
    """Certify the trace- and sup-norm bounds of a map.

    Structurally positive maps get exact bounds via unitality / trace
    duality: c_inf = ||A(1)||_inf and c_1 = ||adj(A)(1)||_inf, with method
    "exact-positive".  Maps with sampled positivity use the same formulas
    but are marked "sampled"; maps that fail the positivity samples report
    the largest sampled norm ratios, which are lower bounds only.
    """
    positive = check_positivity(op, trials=trials, seed=seed)
    selfadj = check_selfadjointness(op)
    one = op.algebra.identity()
    if positive:
        c_inf = op.apply(one).sup_norm()
        c_1 = op.adjoint().apply(one).sup_norm()
        method = "exact-positive" if op.structurally_positive() else "sampled"
        return DSCertificate(c_1, c_inf, positive, selfadj, method)

    rng = stream(seed, "superops/norm-ratios")
    c_1 = c_inf = 0.0
    for _ in range(trials):
        x = op.algebra.random_element(rng)
        y = op.apply(x)
        c_inf = max(c_inf, y.sup_norm() / max(x.sup_norm(), 1e-300))
        c_1 = max(c_1, lp_norm(y, 1) / max(lp_norm(x, 1), 1e-300))
    return DSCertificate(c_1, c_inf, positive, selfadj, "sampled")


def audit_submajorization(op: SuperOperator, x: Element,
                          certificate: Optional[DSCertificate] = None) -> bool:
    """Check that the image of a certified contraction sits below x in the
    running-integral order.  For a genuine contraction a False return is a
    failure of the numerics, not a valid outcome."""
    cert = certificate or verify_ds(op)
    if not cert.is_ds():
        raise InvalidInputError("map is not certified as a contraction")
    return submajorizes(x, op.apply(x))


def preserves_fava(op: SuperOperator, x: Element, delta: float,
                   certificate: Optional[DSCertificate] = None):
    """Exhibit A(x) = A(y) + A(z) with ||A(z)||_inf <= delta.

    Splits x at level delta / c for the certified sup-norm bound c, then
    pushes both parts through the map.  Without positivity c is only a
    sampled lower bound, so such a map is refused.
    """
    cert = certificate or verify_ds(op)
    if not cert.positivity:
        raise InvalidInputError("sup-norm bound of a non-positive map is sampled")
    if not cert.selfadjointness:
        raise InvalidInputError("map must be selfadjoint")
    c = max(cert.sup_norm_bound, 1e-300)
    y, z = fava_decompose(x, delta / c)
    return op.apply(y), op.apply(z)
