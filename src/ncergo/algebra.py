"""Traced matrix algebras and their elements.

A :class:`TracedAlgebra` is a finite direct sum of square complex matrix
blocks, each carrying a positive trace weight; the trace of an element is
the weighted sum of the matrix traces of its blocks.  An element is
immutable, held as one read-only ``(k, d, d)`` stack per group of
equal-dimension blocks (a clip part: as the per-group SVD they are built
from on first read), with optional structure flags (selfadjoint /
positive / projection).  This module alone turns blocks into group stacks
and back; the rest of the package reads the stacks, except
:mod:`ncergo.serialize`, which writes the blocks in order.  A flag is
checked where a claim enters, by the public constructor or by
:meth:`Element._checked` (``as_selfadjoint``, ``as_projection`` and a
:class:`~ncergo.certify.WitnessCertificate`), and carried by construction
inside: each package operation sets, unchecked, the flags it guarantees,
as do each algebra's identity and zero and ``(v * keep) v*`` of
:func:`masked_projection` for a unitary ``v`` and a column mask ``keep``
(1x1 blocks: the mask), which every meet is.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Sequence

import numpy as np

from .config import (COUPLING_TOL, FLAG_TOL, MEET_KERNEL_CUT, RANK_REL,
                     SVD_UNSCALED_MIN)
from .errors import InvalidInputError


@dataclass(frozen=True)
class TracedAlgebra:
    """A weighted direct sum of matrix blocks: the pair (M, tau)."""

    blocks: tuple  # tuple of (dim, weight)

    def __post_init__(self):
        if any(isinstance(w, (bool, np.bool_, str, bytes)) for _, w in self.blocks):
            raise InvalidInputError("block weights must be numbers, not bools or strings")
        blocks = tuple((_integer(d, "block dim"), float(w)) for d, w in self.blocks)
        if not blocks:
            raise InvalidInputError("algebra needs at least one block")
        for d, w in blocks:
            if d < 1:
                raise InvalidInputError("block dims must be >= 1")
            if not (w > 0) or not np.isfinite(w):
                raise InvalidInputError("block weights must be positive and finite")
        if sum(d * d for d, _ in blocks) > np.iinfo(np.intp).max:
            raise InvalidInputError("block dims too large for numpy's index range")
        object.__setattr__(self, "blocks", blocks)

    @cached_property
    def dims(self) -> tuple:
        return tuple(d for d, _ in self.blocks)

    @cached_property
    def weights(self) -> tuple:
        return tuple(w for _, w in self.blocks)

    @cached_property
    def groups(self) -> tuple:
        """Block indices grouped by dimension, one tuple per distinct dim.

        Per-block factorizations run once per group, as one stacked call.
        """
        groups: dict = {}
        for i, d in enumerate(self.dims):
            groups.setdefault(d, []).append(i)
        return tuple(tuple(g) for g in groups.values())

    @cached_property
    def _block_slots(self) -> tuple:  # (block, group, index in the group), in block order
        return tuple(sorted((i, g, j) for g, m in enumerate(self.groups) for j, i in enumerate(m)))

    @cached_property
    def value_weights(self) -> np.ndarray:
        """The trace weight of each singular value, in block order."""
        return _frozen(np.repeat(self.weights, self.dims))

    @property
    def total_trace(self) -> float:
        """tau(1), always finite at desk scale."""
        return float(sum(d * w for d, w in self.blocks))

    @property
    def vec_dim(self) -> int:
        return sum(d * d for d in self.dims)

    def identity(self) -> "Element":
        """The unit, built once per algebra; elements are immutable."""
        return self._identity

    def zero(self) -> "Element":
        """The zero element, built once per algebra."""
        return self._zero

    @cached_property
    def _identity(self) -> "Element":
        return Element._from_stacks(self, _group_stacks(
            self, [np.eye(d) for d in self.dims]), True, True, True)

    @cached_property
    def _zero(self) -> "Element":
        return Element._from_stacks(self, _group_stacks(
            self, [np.zeros((d, d)) for d in self.dims]), True, True, True)

    def random_element(self, rng: np.random.Generator, scale: float = 1.0,
                       selfadjoint: bool = False) -> "Element":
        data = []
        for d in self.dims:
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m *= scale / np.sqrt(2.0)
            if selfadjoint:
                m = (m + m.conj().T) / 2.0
            data.append(m)
        return Element(self, data, selfadjoint=selfadjoint or None)


class Element:
    """A block-diagonal matrix tuple affiliated with a traced algebra.

    Its one record is ``stacks``, one read-only ``(k, d, d)`` complex array
    per entry of ``algebra.groups``; a clip part holds its per-group SVD
    and builds ``stacks`` from it on first read.  The spectrum of each
    stack (singular values, and on demand the full SVD) is computed once,
    one stacked call per group, and cached, as is the flat spectrum built
    from it, the one record of the rearrangement; ``data`` and
    ``singular_values()`` are per-block read-only views of these.  The
    public constructor stacks the given blocks, its copy, and verifies
    every flag it is given, as :meth:`_checked` does; the package's own
    take stacks or an SVD, with the flags they guarantee, unchecked.
    """

    __slots__ = ("algebra", "_stacks", "selfadjoint", "positive", "projection",
                 "_data", "_svals", "_svd", "_flat")

    def __init__(self, algebra: TracedAlgebra, data: Sequence[np.ndarray],
                 selfadjoint: Optional[bool] = None,
                 positive: Optional[bool] = None,
                 projection: Optional[bool] = None):
        self._freeze(algebra, _group_stacks(algebra, data),
                     selfadjoint, positive, projection)
        self._verify_flags()

    @classmethod
    def _from_stacks(cls, algebra: TracedAlgebra, stacks: Sequence[np.ndarray],
                     selfadjoint=None, positive=None, projection=None) -> "Element":
        """From one stack per group that no one else holds (frozen in place,
        not copied), with the flags its construction guarantees, unchecked."""
        x = cls.__new__(cls)
        x._freeze(algebra, stacks, selfadjoint, positive, projection)
        return x

    @classmethod
    def _from_svd(cls, algebra: TracedAlgebra, usv: Sequence[tuple]) -> "Element":
        """An unflagged element held as its SVD ``(u, s, vh)`` per group,
        where ``u`` and ``vh`` are read-only and only ``s`` is new."""
        x = cls.__new__(cls)
        x._freeze(algebra, None, svd=usv)
        return x

    @classmethod
    def _terms(cls, algebra: TracedAlgebra, stacks: Sequence[np.ndarray]) -> list:
        """The T unflagged elements of ``(T, k, d, d)`` stacks, frozen in place
        (each holds views), each spectrum cache filled by one call per group
        (the SVD where a group needs it)."""
        svals = [_frozen(stacked_singular_values(_frozen(_finite(s)))) for s in stacks]
        svd = stack_svds(stacks) if any(s.shape[-1] > 1 for s in stacks) else None
        flat = tuple(map(_frozen, rearranged(algebra, svals)))
        return [cls._from_stacks(algebra, [s[t] for s in stacks])._set(
            _svals=tuple(s[t] for s in svals), _flat=tuple(a[t] for a in flat),
            _svd=None if svd is None else tuple(tuple(a[t] for a in usv) for usv in svd))
            for t in range(len(flat[0]))]

    def _checked(self, selfadjoint=None, positive=None, projection=None) -> "Element":
        """Itself re-tagged with these flags, verified: a claim entering, as
        in the public constructor.  It shares the stacks and spectrum caches."""
        self.stack_singular_values()  # on the source, which keeps them too
        x = Element.__new__(Element)._set(**{n: getattr(self, n)
                                             for n in Element.__slots__})
        x._set(selfadjoint=selfadjoint, positive=positive, projection=projection)
        x._verify_flags()
        return x

    def _set(self, **slots) -> "Element":
        """Itself with these slots written (a new element's, or its caches)."""
        for name, value in slots.items():
            object.__setattr__(self, name, value)
        return self

    def _freeze(self, algebra, stacks, selfadjoint=None, positive=None,
                projection=None, svd=None):
        """Check the group stacks, make them read-only and set every slot;
        None stands for the stacks of ``svd``, built on first read."""
        if stacks is not None:
            stacks = tuple([np.asarray(s, dtype=complex) for s in stacks])
            if len(stacks) != len(algebra.groups):
                raise InvalidInputError("block count mismatch")
            for s, g in zip(stacks, algebra.groups):
                shape = (len(g),) + (algebra.dims[g[0]],) * 2
                if s.shape != shape:
                    raise InvalidInputError(f"block shape: stack {s.shape} != {shape}")
                _frozen(_finite(s))
        if svd is not None:
            svd = tuple((u, _frozen(s), vh) for u, s, vh in svd)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_stacks", stacks)
        object.__setattr__(self, "selfadjoint", selfadjoint)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "_data", None)
        object.__setattr__(self, "_svd", svd)
        object.__setattr__(self, "_flat", None)
        object.__setattr__(self, "_svals",
                           None if svd is None else tuple(s for _, s, _ in svd))

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Element is immutable")

    def _verify_flags(self):
        if not (self.selfadjoint or self.positive or self.projection):
            return
        scale = max(self.sup_norm(), 1.0)
        gap = max(np.abs(b - _adj(b)).max() for b in self.stacks)
        if gap > FLAG_TOL * scale:
            raise InvalidInputError("selfadjoint flag fails verification")
        if self.positive or self.projection:
            lo = min(np.linalg.eigvalsh((b + _adj(b)) / 2).min(initial=0.0)
                     for b in self.stacks)
            if lo < -FLAG_TOL * scale:
                raise InvalidInputError("positive flag fails verification")
        if self.projection:
            gap = max(np.abs(b @ b - b).max(initial=0.0) for b in self.stacks)
            if gap > FLAG_TOL:
                raise InvalidInputError("projection flag fails verification")

    @property
    def stacks(self) -> tuple:
        """One read-only ``(k, d, d)`` stack per group; an element held as
        its SVD builds ``(u * s[..., None, :]) @ vh`` on first read."""
        if self._stacks is None:
            object.__setattr__(self, "_stacks", tuple([_frozen(_finite(
                (u * s[..., None, :]) @ vh)) for u, s, vh in self._svd]))
        return self._stacks

    @property
    def data(self) -> tuple:
        """The blocks in block order, read-only views of ``stacks`` built once."""
        if self._data is None:
            object.__setattr__(self, "_data", tuple(_blocks_of(self.algebra, self.stacks)))
        return self._data

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        check_algebra(self.algebra, other.algebra)
        sa = True if (self.selfadjoint and other.selfadjoint) else None
        return Element._from_stacks(
            self.algebra, [a + b for a, b in zip(self.stacks, other.stacks)],
            selfadjoint=sa)

    def __sub__(self, other: "Element") -> "Element":
        check_algebra(self.algebra, other.algebra)
        sa = True if (self.selfadjoint and other.selfadjoint) else None
        return Element._from_stacks(
            self.algebra, [a - b for a, b in zip(self.stacks, other.stacks)],
            selfadjoint=sa)

    def __neg__(self) -> "Element":
        return Element._from_stacks(self.algebra, [-a for a in self.stacks],
                                    selfadjoint=self.selfadjoint)

    def scaled(self, c: complex) -> "Element":
        sa = True if (self.selfadjoint and np.isreal(c)) else None
        return Element._from_stacks(self.algebra, [c * a for a in self.stacks],
                                    selfadjoint=sa)

    def __matmul__(self, other: "Element") -> "Element":
        check_algebra(self.algebra, other.algebra)
        return Element._from_stacks(
            self.algebra, [a @ b for a, b in zip(self.stacks, other.stacks)])

    def adjoint(self) -> "Element":
        return Element._from_stacks(self.algebra, [_adj(a) for a in self.stacks],
                                    selfadjoint=self.selfadjoint,
                                    positive=self.positive,
                                    projection=self.projection)

    # -- scalars ------------------------------------------------------------

    def tau(self) -> complex:
        """The weighted trace.  Real for selfadjoint elements."""
        t = weighted_block_sum(self.algebra, [np.trace(b, axis1=-2, axis2=-1)
                                              for b in self.stacks])
        return float(t.real) if self.selfadjoint else complex(t)

    def sup_norm(self) -> float:
        """The largest singular value, read from the cached spectrum."""
        return float(max(s[:, 0].max() for s in self.stack_singular_values()))

    def stack_singular_values(self) -> tuple:
        """Per group, the cached ``(k, d)`` singular values of its stack."""
        if self._svals is None:
            object.__setattr__(self, "_svals", tuple(
                [_frozen(stacked_singular_values(b)) for b in self.stacks]))
        return self._svals

    def stack_svds(self) -> tuple:
        """Per group, the full SVD ``(u, s, vh)`` of its stack, cached read-only."""
        if self._svd is None:
            object.__setattr__(self, "_svd", stack_svds(self.stacks))
        return self._svd

    def singular_values(self) -> list:
        """Per-block views of :meth:`stack_singular_values`, descending."""
        return _blocks_of(self.algebra, self.stack_singular_values())

    def flat_spectrum(self) -> tuple:
        """Every singular value with its block's trace weight, in the order
        of the decreasing rearrangement (descending, ties by block index).

        Returns read-only ``(values, weights, cumulative)``, where
        ``cumulative`` holds the running sums of the weights with a
        leading 0: ``values[i]`` spans ``[cumulative[i], cumulative[i+1])``.
        """
        if self._flat is None:
            flat = rearranged(self.algebra, self.stack_singular_values())
            object.__setattr__(self, "_flat", tuple(map(_frozen, flat)))
        return self._flat

    def as_selfadjoint(self) -> "Element":
        """Itself if flagged selfadjoint, else re-tagged with a verified flag."""
        return self if self.selfadjoint else self._checked(True)

    def as_projection(self) -> "Element":
        """Itself if flagged a projection, else re-tagged with verified flags."""
        return self if self.projection else self._checked(True, True, True)

    def vec(self) -> np.ndarray:
        """Row-major concatenation of the blocks."""
        return np.concatenate([b.reshape(-1) for b in self.data])

    @classmethod
    def from_vec(cls, algebra: TracedAlgebra, v: np.ndarray) -> "Element":
        return cls._from_stacks(algebra, _vec_stacks(algebra, v))

    def __repr__(self):
        return f"Element(dims={self.algebra.dims}, sup_norm={self.sup_norm():.4g})"


def stacked_singular_values(stack: np.ndarray) -> np.ndarray:
    """Singular values of a ``(..., k, d, d)`` stack of square blocks.

    A 1x1 block takes its modulus, which is LAPACK's value where LAPACK
    does not rescale, if its ``(k, 1, 1)`` term is real; every other block
    is factorized.
    """
    if stack.shape[-1] != 1:
        return np.linalg.svd(stack, compute_uv=False)
    complex_terms = stack.imag.any(axis=(-3, -2, -1))
    if complex_terms.all():
        return np.linalg.svd(stack, compute_uv=False)
    s = np.abs(stack.real[..., 0])
    factorized = (s > 0) & ((s < SVD_UNSCALED_MIN) | (s > 1.0 / SVD_UNSCALED_MIN))
    factorized[complex_terms] = True
    if factorized.any():
        s[factorized] = np.linalg.svd(stack[..., 0][factorized][:, None, None],
                                      compute_uv=False)[:, 0]
    return s


def stack_svds(stacks: Sequence[np.ndarray]) -> tuple:
    """Per stack (any leading axes), its full SVD ``(u, s, vh)``, read-only."""
    return tuple([tuple(map(_frozen, np.linalg.svd(b))) for b in stacks])


def largest(svals: Sequence[np.ndarray]):
    """The sup norm of each term, from its ``(..., k, d)`` singular values per group."""
    return reduce(np.maximum, [s[..., 0].max(axis=-1) for s in svals])


def rearranged(algebra: TracedAlgebra, parts: Sequence[np.ndarray]) -> tuple:
    """:meth:`Element.flat_spectrum` from singular values held as one
    ``(k, d)`` or ``(rows, k, d)`` array per group, put in block order along
    the last axis; the stable sort breaks ties by block index."""
    values = np.concatenate(_blocks_of(algebra, [p.swapaxes(0, -2) for p in parts]),
                            axis=-1)
    order = np.argsort(-values, axis=-1, kind="stable")
    weights = algebra.value_weights[order]
    cumulative = np.concatenate([np.zeros(values.shape[:-1] + (1,)),
                                 np.cumsum(weights, axis=-1)], axis=-1)
    return np.take_along_axis(values, order, axis=-1), weights, cumulative


def check_algebra(algebra: TracedAlgebra, other: TracedAlgebra) -> None:
    """Refuse unequal algebras, also where only trace weights differ."""
    if algebra is not other and algebra != other:
        raise InvalidInputError("operands belong to different algebras")


def _integer(value, name: str) -> int:
    """``value`` as an int; a float such as 2.5 is refused, not truncated,
    and so is a bool, which is not a count."""
    try:
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _finite(a: np.ndarray) -> np.ndarray:
    """``a`` itself, refused if an entry is inf or NaN."""
    if not np.isfinite(a).all():
        raise InvalidInputError("non-finite matrix entries")
    return a


def _adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


# -- the one layout: group stacks and the per-block views of them --------------

def _vec_stacks(algebra: TracedAlgebra, rows: np.ndarray) -> list:
    """Vectorized elements (``Element.vec`` along the last axis) as one
    ``(..., k, d, d)`` stack per group, a copy."""
    blocks, end = [], 0
    for d in algebra.dims:
        blocks.append(rows[..., end:end + d * d].reshape(rows.shape[:-1] + (1, d, d)))
        end += d * d
    return [np.concatenate([blocks[i] for i in g], axis=-3) for g in algebra.groups]


def _group_stacks(algebra: TracedAlgebra, blocks: Sequence[np.ndarray]) -> list:
    """Per-block arrays as one complex stack per group, a copy."""
    blocks = tuple(blocks)
    if len(blocks) != len(algebra.blocks):
        raise InvalidInputError("block count mismatch")
    try:
        return [np.array([blocks[i] for i in g], dtype=complex) for g in algebra.groups]
    except ValueError as exc:  # blocks of unequal shapes, or not numbers
        raise InvalidInputError(f"block shape: {exc}") from None


def _blocks_of(algebra: TracedAlgebra, stacks: Sequence[np.ndarray]) -> list:
    """The entries of one stack per group (views), in block order."""
    return [stacks[g][j] for _, g, j in algebra._block_slots]


def block_matrices(algebra: TracedAlgebra, matrix: np.ndarray) -> list:
    """A map's matrix on ``Element.vec`` as one ``(k, d^2, d^2)`` stack per
    group, each block's matrix on its row-major vec (copies); an entry
    between two blocks above ``COUPLING_TOL`` is refused, one below it dropped."""
    block = np.repeat(np.arange(len(algebra.dims)), [d * d for d in algebra.dims])
    if np.abs(matrix[block[:, None] != block]).max(initial=0.0) > COUPLING_TOL:
        raise InvalidInputError("matrix couples distinct algebra blocks")
    ends = np.cumsum([0] + [d * d for d in algebra.dims])
    return _group_stacks(algebra, [matrix[a:b, a:b] for a, b in zip(ends, ends[1:])])


def vec_action(matrices: Sequence[np.ndarray], stacks: Sequence[np.ndarray]) -> list:
    """Per group, each block's ``(d^2, d^2)`` matrix times its row-major vec."""
    return [(m @ b.reshape(len(b), -1, 1)).reshape(b.shape)
            for m, b in zip(matrices, stacks)]


def weighted_block_sum(algebra: TracedAlgebra, parts: Sequence[np.ndarray]):
    """sum_i w_i v_i term by term in block order, as Python's ``sum``, for
    per-block values v held as one ``(k,)`` array per group."""
    return sum(w * v for v, w in zip(_blocks_of(algebra, parts), algebra.weights))


# -- projection machinery ----------------------------------------------------

def masked_projection(algebra: TracedAlgebra, parts: Sequence[tuple]) -> Element:
    """The projection ``(v * keep) v*`` onto the columns of ``v`` that ``keep``
    marks; ``parts`` holds, per group of blocks, its stacks ``(v, keep)``.
    Each ``v`` has orthonormal columns, so it is flagged a projection; None
    stands for v = 1 on 1x1 blocks, which are then the 0/1 mask itself."""
    return Element._from_stacks(algebra, masked_stacks(parts), True, True, True)


def masked_stacks(parts: Sequence[tuple]) -> list:
    """The stacks of :func:`masked_projection`, for parts with any leading axes."""
    return [keep[..., None].astype(complex) if v is None
            else (v * keep[..., None, :]) @ _adj(v) for v, keep in parts]


def projection_from_ranges(algebra: TracedAlgebra,
                           bases: Sequence[np.ndarray]) -> Element:
    """Projection onto the given per-block column spans, for any bases: one
    stacked QR per basis shape, masking out the columns of ``q`` whose
    ``r`` diagonal falls below the rank threshold."""
    if len(bases) != len(algebra.dims):
        raise InvalidInputError("block count mismatch")
    shapes: dict = {}
    for i, basis in enumerate(bases):
        shapes.setdefault(basis.shape, []).append(i)
    data = [None] * len(bases)
    for members in shapes.values():
        q, r = np.linalg.qr(np.array([bases[i] for i in members]))
        thresh = RANK_REL * np.maximum(1.0, np.abs(r).max(axis=(-2, -1), initial=0.0))
        keep = np.abs(np.diagonal(r, axis1=-2, axis2=-1)) > thresh[:, None]
        for i, b in zip(members, (q * keep[..., None, :]) @ _adj(q)):
            data[i] = b
    return Element._from_stacks(algebra, _group_stacks(algebra, data), True, True, True)


def range_bases(e: Element) -> list:
    """Orthonormal bases of the per-block ranges of a projection."""
    out = []
    for b in e.data:
        w, v = np.linalg.eigh((b + b.conj().T) / 2)
        out.append(v[:, w > 0.5])
    return out


def projection_meet(e: Element, f: Element) -> Element:
    """The meet e ^ f, the projection onto the intersection of the ranges:
    the kernel of (1 - e) + (1 - f), by the one meet rule (:class:`_MeetBuilder`);
    an input not flagged a projection is verified first."""
    check_algebra(e.algebra, f.algebra)
    return _MeetBuilder(e.algebra, [e.as_projection(), f.as_projection()]).meet()


class _MeetBuilder:
    """Incrementally maintained meet of a list of projections.

    The meet is the projection onto the common range, the kernel of the
    sum of the complements, which is kept as one ``(k, d, d)`` stack per
    group; swapping one term's projection only updates that sum.
    """

    def __init__(self, algebra, projections):
        self.algebra = algebra
        self.current = list(projections)
        self._sums = complement_sums([p.stacks for p in self.current])

    def meet(self) -> Element:
        return Element._from_stacks(self.algebra, meet_stacks(
            self._sums, len(self.current)), True, True, True)

    def with_swap(self, index: int, projection: Element):
        """``(meet, sums)`` with term ``index`` swapped for ``projection``;
        ``commit`` takes the sums back if the swap is kept."""
        # complements differ by (old - new) of the projections themselves
        sums = [s + (old - new) for s, old, new in
                zip(self._sums, self.current[index].stacks, projection.stacks)]
        return Element._from_stacks(self.algebra, meet_stacks(
            sums, len(self.current)), True, True, True), sums

    def commit(self, index: int, projection: Element, sums):
        self._sums = sums
        self.current[index] = projection


def complement_sums(projections: Sequence[Sequence[np.ndarray]]) -> list:
    """Per group, the sum of 1 - p over projections given as stack lists."""
    return [sum(np.eye(b.shape[-1]) - b for b in terms) for terms in zip(*projections)]


def meet_stacks(sums: Sequence[np.ndarray], terms: int) -> list:
    """The meet of ``terms`` projections from their complement sums: per
    group, the kernel of the sum, its eigenvectors below ``MEET_KERNEL_CUT``
    times ``terms`` (the sum's spectrum lies in [0, terms])."""
    cut = MEET_KERNEL_CUT * max(1, terms)
    parts = []
    for s in sums:
        if s.shape[-1] == 1:  # a 1x1 sum's real part is its eigenvalue
            parts.append((None, s.real[..., 0] < cut))
        else:
            w, v = np.linalg.eigh((s + _adj(s)) / 2)
            parts.append((v, w < cut))
    return masked_stacks(parts)


def trace_deficiency(e: Element) -> float:
    """tau(e_perp) of a projection: one trace per group, and ``w * (d - tr)``
    summed in block order."""
    return float(deficiencies(e.algebra, e.stacks))


def deficiencies(algebra: TracedAlgebra, stacks: Sequence[np.ndarray]):
    """:func:`trace_deficiency` of each term of ``(T, k, d, d)`` stacks, or
    of one element held as its ``(k, d, d)`` stacks."""
    return weighted_block_sum(algebra, [
        (b.shape[-1] - np.trace(b, axis1=-2, axis2=-1).real).T for b in stacks])
