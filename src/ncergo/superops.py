"""Structured linear maps on a traced algebra and their contraction audits.

Maps are node trees (unitary conjugation, pinching, block-diagonal
conditional expectation, convex combination, composition, power, explicit
matrix), each acting on an element's group stacks.  A map's dense matrix,
``to_matrix()``, is one ``(k, d^2, d^2)`` stack per group; where the tree
does not decide a law, positivity or a contraction bound, its blocks do,
and only the positivity of a Hermitian map that is not CP is sampled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .algebra import (Element, TracedAlgebra, _adj, _finite, _integer, block_matrices,
                      check_algebra, largest, stack_svds, stacked_singular_values,
                      vec_action)
from .config import (CLOSED_FORM_TOL, DS_SLACK, HAAGERUP_REL, PHASE_TOL,
                     PINCHING_TOL, POSITIVITY_TOL, SELFADJOINT_TOL, UNITARY_TOL,
                     WEIGHT_SUM_SLACK)
from .errors import InvalidInputError
from .rng import stream
from .singular import fava_decompose, submajorizes


class SuperOperator:
    """Base class: a linear map on the algebra, acting on group stacks."""

    _factors: Optional[tuple] = None  # set by the maps held as sandwiches

    def __init__(self, algebra: TracedAlgebra):
        self.algebra = algebra
        self._matrix_cache: Optional[tuple] = None

    def apply(self, x: Element) -> Element:
        """One element over ``_act``; each class binds it, as perfbench's tracer wraps each."""
        check_algebra(self.algebra, x.algebra)
        return Element._from_stacks(x.algebra, self._act(x.stacks),
                                    *self._flags((x.selfadjoint, x.positive, x.projection)))

    def _act(self, stacks: Sequence[np.ndarray]) -> list:
        """The stacks of A(x), one per group, from those of x."""
        raise NotImplementedError

    def _flags(self, flags: tuple) -> tuple:
        """A(x)'s flags (selfadjoint, positive, projection) from x's."""
        return flags[0], None, None  # a leaf keeps selfadjointness

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

    def to_matrix(self) -> tuple:
        """The dense action, cached: per entry of ``algebra.groups``, one
        ``(k, d^2, d^2)`` stack of each block's matrix on its row-major vec."""
        if self._matrix_cache is None:
            self._matrix_cache = tuple(self._build_matrix())
        return self._matrix_cache

    def cesaro_average(self, x: Element, m: int) -> Optional[Element]:
        """The average (1/m) sum_{k<m} A^k(x) in closed form, or None where
        the map has none and the powers must be summed."""
        return None

    @cached_property
    def _positivity_rule(self) -> Optional[str]:
        """How positivity is decided, once per map: "exact-positive" for a
        structural tree; None (not positive) where a Choi matrix is not
        Hermitian (``check_selfadjointness``); "exact-cp" where each block's
        is PSD to ``POSITIVITY_TOL`` relative (Choi, LAA 10 (1975)); else "sampled"."""
        if self.structurally_positive():
            return "exact-positive"
        a, m = self.algebra, self.to_matrix()
        # M[(i, j), (k, l)] - conj(M[(j, i), (l, k)])
        gap = [s - _reshuffled(s, (0, 2, 1, 4, 3)).conj() for s in m]
        if _dense_bound(a, gap) > SELFADJOINT_TOL * max(1.0, _dense_bound(a, m)):
            return None
        w = [np.linalg.eigvalsh(_reshuffled(s, (0, 3, 1, 4, 2))) for s in m]
        return "exact-cp" if all((v[:, 0] >= -POSITIVITY_TOL * np.maximum(
            1.0, np.abs(v).max(axis=-1))).all() for v in w) else "sampled"


class _Sandwiched(SuperOperator):
    """A leaf held as its sandwich factors, ``_factors``, built once."""

    def adjoint(self) -> "SuperOperator":  # sum_k a_k x a_k, a_k = a_k*; not a conjugation's
        return self

    def _build_matrix(self) -> list:
        # row-major vec(a x b) = kron(a, b^T) vec(x), batched over a group's blocks
        return [sum((ak[:, :, None, :, None] * bk.swapaxes(-1, -2)[:, None, :, None, :])
                    .reshape(len(ak), ak.shape[-1] ** 2, -1) for ak, bk in zip(a, b))
                for a, b in self._factors]


class UnitaryConjugation(_Sandwiched):
    """x -> u x u* for a unitary u."""
    apply = SuperOperator.apply

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

    def _act(self, stacks):
        return [a @ b @ _adj(a) for a, b in zip(self.u.stacks, stacks)]

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
    apply = SuperOperator.apply

    def __init__(self, projections: Sequence[Element]):
        if not projections:
            raise InvalidInputError("pinching needs at least one projection")
        super().__init__(projections[0].algebra)
        if any(p.algebra != self.algebra for p in projections):
            raise InvalidInputError("pinching projections must share one algebra")
        self.projections = tuple(p.as_selfadjoint() for p in projections)  # p = p*
        stacks = [np.stack(t) for t in zip(*(p.stacks for p in self.projections))]
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

    def _act(self, stacks):
        return [sum(p @ b @ p for p in s) for (s, _), b in zip(self._factors, stacks)]

    def cesaro_average(self, x: Element, m: int) -> Optional[Element]:
        """x/m + (1 - 1/m) P(x), when p_i p_j = delta_ij p_i holds entrywise
        to ``CLOSED_FORM_TOL`` (so that P is idempotent)."""
        return _idempotent_average(self, x, m) if self._idempotent else None



class BlockExpectation(_Sandwiched):
    """Conditional expectation onto a block-diagonal subalgebra.

    `partition` gives, per algebra block, a list of index groups; entries
    coupling different groups are zeroed.  Equivalent to the pinching by
    the group indicator projections, which are its sandwich factors.
    """
    apply = SuperOperator.apply

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

    def _act(self, stacks):
        return [m * b for m, b in zip(self._masks, stacks)]

    def cesaro_average(self, x: Element, m: int) -> Element:
        """x/m + (1 - 1/m) E(x): E is idempotent exactly (0/1 masks)."""
        return _idempotent_average(self, x, m)



class ConvexCombination(SuperOperator):
    """Sub-convex combination sum w_i A_i with w_i >= 0, sum <= 1."""
    apply = SuperOperator.apply

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

    def _act(self, stacks):
        out = self.algebra.zero().stacks
        for w, op in self.terms:
            out = [o + w * a for o, a in zip(out, op._act(stacks))]
        return out

    def _flags(self, flags):
        return (True if all(op._flags(flags)[0] for _, op in self.terms) else None), None, None

    def _build_matrix(self) -> list:
        return [sum(w * m for (w, _), m in zip(self.terms, stacks))
                for stacks in zip(*(op.to_matrix() for _, op in self.terms))]

    def adjoint(self) -> "ConvexCombination":
        return ConvexCombination([(w, op.adjoint()) for w, op in self.terms])

    def structurally_positive(self) -> bool:
        return all(op.structurally_positive() for _, op in self.terms)


class Composition(SuperOperator):
    """Left-to-right composition: the first factor is applied last."""
    apply = SuperOperator.apply

    def __init__(self, factors: Sequence[SuperOperator]):
        if not factors:
            raise InvalidInputError("composition needs at least one factor")
        super().__init__(factors[0].algebra)
        for op in factors:
            check_algebra(self.algebra, op.algebra)
        self.factors = tuple(factors)

    def _act(self, stacks):
        return reduce(lambda s, op: op._act(s), reversed(self.factors), stacks)

    def _flags(self, flags):
        return reduce(lambda f, op: op._flags(f), reversed(self.factors), flags)

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
    apply = SuperOperator.apply

    def __init__(self, base: SuperOperator, exponent: int):
        exponent = _integer(exponent, "exponent")
        if exponent < 0:
            raise InvalidInputError("exponent must be >= 0")
        super().__init__(base.algebra)
        self.base = base
        self.exponent = exponent

    def _act(self, stacks):
        return reduce(lambda s, op: op._act(s), (self.base,) * self.exponent, stacks)

    def _flags(self, flags):
        return reduce(lambda f, op: op._flags(f), (self.base,) * self.exponent, flags)

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
    apply = SuperOperator.apply
    _flags = staticmethod(lambda flags: (None, None, None))  # its image carries no flag

    def __init__(self, algebra: TracedAlgebra, matrix: np.ndarray):
        super().__init__(algebra)
        d = algebra.vec_dim
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (d, d):
            raise InvalidInputError(f"matrix must be {d} x {d}")
        self.matrix = _finite(matrix)
        self._matrix_cache = tuple(block_matrices(algebra, matrix))

    def _act(self, stacks):
        return vec_action(self.to_matrix(), stacks)

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
    method: str  # "exact-positive", "exact-cp", "sampled" or "proven-upper"

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
    """Positivity: exact where ``SuperOperator._positivity_rule`` decides it;
    for a Hermitian map that is not CP (the transpose), the spectrum of the
    selfadjoint part of A(x* x) for random x against -POSITIVITY_TOL
    relative to its norm.  Every route needs trials >= 1."""
    trials = _integer(trials, "trials")
    if trials < 1:  # no sample can refute positivity
        raise InvalidInputError(f"trials must be >= 1, got {trials!r}")
    if op._positivity_rule != "sampled":
        return op._positivity_rule is not None
    rng = stream(seed, "superops/positivity")
    for _ in range(trials):
        x = op.algebra.random_element(rng)
        y = op.apply(x.adjoint() @ x)
        ysa = Element._from_stacks(y.algebra, [(b + _adj(b)) / 2 for b in y.stacks],
                                   selfadjoint=True)
        lo = min(np.linalg.eigvalsh(b).min() for b in ysa.stacks)
        if lo < -POSITIVITY_TOL * max(1.0, ysa.sup_norm()):
            return False
    return True


def check_selfadjointness(op: SuperOperator) -> bool:
    """Whether A maps selfadjoint elements to selfadjoint ones, exactly: a
    structurally positive map does, and another iff M = T conj(M) T for each
    block's matrix M and the transpose T of the block, that is iff its Choi
    matrix is Hermitian (Choi, LAA 10 (1975)); see ``_positivity_rule``."""
    return op._positivity_rule is not None


def _reshuffled(m: np.ndarray, axes: tuple) -> np.ndarray:
    """A ``(k, d^2, d^2)`` stack M[(i, j), (k, l)], axes (block, i, j, k, l) permuted."""
    return m.reshape((len(m),) + (math.isqrt(m.shape[-1]),) * 4).transpose(axes).reshape(m.shape)


def _dense_bound(algebra: TracedAlgebra, c: Sequence[np.ndarray]) -> float:
    """||C||_F sqrt(sum_b d_b) >= sup ||C vec x||_inf / ||x||_inf for C held as
    ``to_matrix``, as ||y||_inf <= ||vec y||_2 and ||vec x||_2 <= sqrt(sum_b d_b)
    ||x||_inf: the one rule that decides a law of a map on its matrix."""
    return float(np.hypot.reduce([np.linalg.norm(s) for s in c])
                 * np.sqrt(sum(algebra.dims)))


def verify_ds(op: SuperOperator, trials: int = 50, seed: int = 0) -> DSCertificate:
    """Certify the trace- and sup-norm bounds of a map, c_1 and c_inf: for a
    positive map ||A*(1)||_inf and ||A(1)||_inf from the stack action, under
    ``_positivity_rule``'s method ("sampled" if its samples pass); for any
    other, "proven-upper" bounds (``_haagerup_bounds``)."""
    positive = check_positivity(op, trials=trials, seed=seed)
    one = op.algebra.identity().stacks
    c_1, c_inf = ([float(largest([stacked_singular_values(_finite(s)) for s in m._act(one)]))
                   for m in (op.adjoint(), op)] if positive else _haagerup_bounds(op))
    return DSCertificate(c_1, c_inf, positive, op._positivity_rule is not None,
                         op._positivity_rule if positive else "proven-upper")


def _haagerup_bounds(op: SuperOperator) -> tuple:
    """Upper bounds (c_1, c_inf), per block of M: the SVD of R[(i, k), (l, j)]
    = M[(i, j), (k, l)], sum_t s_t u_t v_t^T, gives A(x) = sum_t L_t x R_t for
    the d x d matrices L_t = sqrt(s_t) u_t and R_t = sqrt(s_t) v_t^T, and
    c_inf <= ||sum L_t L_t*||^1/2 ||sum R_t* R_t||^1/2 (Haagerup; Paulsen,
    Completely Bounded Maps..., 2002), c_1 the same for sum_t L_t* y R_t*."""
    bounds = np.zeros(2)
    for m in op.to_matrix():
        u, s, vh = stack_svds([_finite(_reshuffled(m, (0, 1, 3, 4, 2)))])[0]
        d, root = math.isqrt(m.shape[-1]), np.sqrt(s)[..., None]
        left, right = ((root * f).reshape(len(m), -1, d, d) for f in (u.swapaxes(-1, -2), vh))
        n = [stacked_singular_values(np.einsum("btia,btja->bij", f, f.conj()))[:, 0]
             for f in (left, _adj(right), _adj(left), right)]  # ||sum_t f_t f_t*||
        bounds = np.maximum(bounds, np.sqrt([(n[2] * n[3]).max(), (n[0] * n[1]).max()]))
    return tuple(float(c) * (1.0 + HAAGERUP_REL) for c in bounds)  # rounded outward


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
    pushes both parts through the map.  Only a positive map is taken: one
    that is not is refused, whatever its proven bound.
    """
    cert = certificate or verify_ds(op)
    if not cert.positivity:
        raise InvalidInputError("preserves_fava takes positive maps; this one is non-positive")
    if not cert.selfadjointness:
        raise InvalidInputError("map must be selfadjoint")
    c = max(cert.sup_norm_bound, 1e-300)
    y, z = fava_decompose(x, delta / c)
    return op.apply(y), op.apply(z)
