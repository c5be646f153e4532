"""Traced matrix algebras and their elements.

A :class:`TracedAlgebra` is a finite direct sum of square complex matrix
blocks, each carrying a positive trace weight; the trace of an element is
the weighted sum of the matrix traces of its blocks.  Elements are
immutable block-diagonal matrix tuples with optional verified structure
flags (selfadjoint / positive / projection).  Two kinds of output are
projections by construction and skip that verification: those of
:func:`projection_from_ranges` and each algebra's identity and zero.
A :class:`~ncergo.certify.WitnessCertificate` re-checks the projection it
emits with the verifying constructor.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Sequence

import numpy as np

from .config import FLAG_TOL, MEET_OVERLAP_CUT, RANK_REL, SVD_UNSCALED_MIN
from .errors import InvalidInputError


@dataclass(frozen=True)
class TracedAlgebra:
    """A weighted direct sum of matrix blocks: the pair (M, tau)."""

    blocks: tuple  # tuple of (dim, weight)

    def __post_init__(self):
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
        return Element._trusted_projection(
            self, [np.eye(d, dtype=complex) for d in self.dims])

    @cached_property
    def _zero(self) -> "Element":
        return Element._trusted_projection(
            self, [np.zeros((d, d), dtype=complex) for d in self.dims])

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

    The per-block spectrum (the singular values, and on demand the full
    SVD) is computed once, on first use, and cached, as are the flat
    spectrum built from it and ``singular.mu``'s step function.  This is
    safe because elements are immutable; the cached arrays are read-only.
    Constructors that build the blocks from known factors may pass
    ``svd``, a sequence of per-block ``(u, s, vh)`` with ``u * s @ vh``
    equal to the block, so that no decomposition is recomputed; its
    arrays are made read-only and kept.

    The public constructor copies the blocks and verifies every flag it is
    given.  :meth:`_trusted_projection` is the package's constructor for
    projections that hold their flags by construction (see the module
    docstring): it freezes the caller's fresh arrays without a copy and
    skips the flag verification.
    """

    __slots__ = ("algebra", "data", "selfadjoint", "positive", "projection",
                 "_svals", "_svd", "_flat", "_mu")

    def __init__(self, algebra: TracedAlgebra, data: Sequence[np.ndarray],
                 selfadjoint: Optional[bool] = None,
                 positive: Optional[bool] = None,
                 projection: Optional[bool] = None,
                 svd: Optional[Sequence[tuple]] = None):
        self._freeze(algebra, [np.array(b, dtype=complex) for b in data],
                     selfadjoint, positive, projection, svd)
        self._verify_flags()

    @classmethod
    def _trusted_projection(cls, algebra: TracedAlgebra,
                            data: Sequence[np.ndarray]) -> "Element":
        """A projection by construction, flagged selfadjoint, positive and
        a projection.

        ``data`` must be arrays that no one else holds; complex ones are
        frozen in place, not copied.  The block-count, shape and finiteness
        checks run, the flag verification does not.
        """
        x = cls.__new__(cls)
        x._freeze(algebra, [np.asarray(b, dtype=complex) for b in data],
                  True, True, True, None)
        return x

    def _freeze(self, algebra, data, selfadjoint, positive, projection, svd):
        """Check the blocks, make them read-only and set every slot."""
        data = tuple(data)
        if len(data) != len(algebra.blocks):
            raise InvalidInputError("block count mismatch")
        for b, d in zip(data, algebra.dims):
            if b.shape != (d, d):
                raise InvalidInputError(f"block shape {b.shape} != ({d}, {d})")
            b.setflags(write=False)
        if not np.isfinite(np.concatenate([b.ravel() for b in data])).all():
            raise InvalidInputError("non-finite matrix entries")
        if svd is not None:
            svd = tuple(tuple(_frozen(a) for a in usv) for usv in svd)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "selfadjoint", selfadjoint)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "_svd", svd)
        object.__setattr__(self, "_flat", None)
        object.__setattr__(self, "_mu", None)
        object.__setattr__(self, "_svals",
                           None if svd is None else tuple(s for _, s, _ in svd))

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Element is immutable")

    def _verify_flags(self):
        if not (self.selfadjoint or self.positive or self.projection):
            return
        scale = max(self.sup_norm(), 1.0)
        stacks = [stacked(self.data, g) for g in self.algebra.groups]
        check_selfadjoint(stacks, scale)
        if self.positive or self.projection:
            lo = min(np.linalg.eigvalsh((b + _adj(b)) / 2).min(initial=0.0)
                     for b in stacks)
            if lo < -FLAG_TOL * scale:
                raise InvalidInputError("positive flag fails verification")
        if self.projection:
            gap = max(np.abs(b @ b - b).max(initial=0.0) for b in stacks)
            if gap > FLAG_TOL:
                raise InvalidInputError("projection flag fails verification")

    # -- arithmetic ---------------------------------------------------------

    def _same_algebra(self, other: "Element"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise InvalidInputError("elements belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._same_algebra(other)
        sa = True if (self.selfadjoint and other.selfadjoint) else None
        return Element(self.algebra, [a + b for a, b in zip(self.data, other.data)],
                       selfadjoint=sa)

    def __sub__(self, other: "Element") -> "Element":
        self._same_algebra(other)
        sa = True if (self.selfadjoint and other.selfadjoint) else None
        return Element(self.algebra, [a - b for a, b in zip(self.data, other.data)],
                       selfadjoint=sa)

    def __neg__(self) -> "Element":
        return Element(self.algebra, [-a for a in self.data],
                       selfadjoint=self.selfadjoint)

    def scaled(self, c: complex) -> "Element":
        sa = True if (self.selfadjoint and np.isreal(c)) else None
        return Element(self.algebra, [c * a for a in self.data], selfadjoint=sa)

    def __matmul__(self, other: "Element") -> "Element":
        self._same_algebra(other)
        return Element(self.algebra, [a @ b for a, b in zip(self.data, other.data)])

    def adjoint(self) -> "Element":
        return Element(self.algebra, [a.conj().T for a in self.data],
                       selfadjoint=self.selfadjoint, positive=self.positive,
                       projection=self.projection)

    # -- scalars ------------------------------------------------------------

    def tau(self) -> complex:
        """The weighted trace.  Real for selfadjoint elements."""
        t = sum(w * np.trace(b) for b, w in zip(self.data, self.algebra.weights))
        return float(t.real) if self.selfadjoint else complex(t)

    def sup_norm(self) -> float:
        """The largest singular value, group by group, by the rule of
        :func:`block_sup_norms`; larger blocks read the cached spectrum.
        """
        out = 0.0
        for g in self.algebra.groups:
            if self.data[g[0]].shape[0] == 1:
                top = block_sup_norms(stacked(self.data, g)).max()
            else:
                svals = self.singular_values()
                top = max([svals[i][0] for i in g])
            out = max(out, top)
        return float(out)

    def singular_values(self) -> list:
        """Per-block singular values, descending within each block.

        One stacked SVD per group of equal-dimension blocks; the cached
        slices are read-only because the stacked result is.
        """
        if self._svals is None:
            svals = [None] * len(self.data)
            for g in self.algebra.groups:
                s = stacked_singular_values(stacked(self.data, g))
                for i, si in zip(g, _frozen(s)):
                    svals[i] = si
            object.__setattr__(self, "_svals", tuple(svals))
        return list(self._svals)

    def flat_spectrum(self) -> tuple:
        """Every singular value with its block's trace weight, in the order
        of the decreasing rearrangement (descending, ties by block index).

        Returns read-only ``(values, weights, cumulative)``, where
        ``cumulative`` holds the running sums of the weights with a
        leading 0: ``values[i]`` spans ``[cumulative[i], cumulative[i+1])``.
        """
        if self._flat is None:
            flat = rearranged(self.algebra,
                              np.concatenate(self.singular_values()))
            object.__setattr__(self, "_flat", tuple(map(_frozen, flat)))
        return self._flat

    def block_svds(self) -> list:
        """Per-block full SVDs ``(u, s, vh)`` with ``b = u * s @ vh``."""
        if self._svd is None:
            usv = [None] * len(self.data)
            for g in self.algebra.groups:
                parts = map(_frozen, np.linalg.svd(stacked(self.data, g)))
                for i, *row in zip(g, *parts):
                    usv[i] = tuple(row)
            object.__setattr__(self, "_svd", tuple(usv))
        return list(self._svd)

    def as_selfadjoint(self) -> "Element":
        """Re-tag with a verified selfadjoint flag."""
        return Element(self.algebra, self.data, selfadjoint=True)

    def vec(self) -> np.ndarray:
        """Row-major concatenation of the blocks."""
        return np.concatenate([b.reshape(-1) for b in self.data])

    @classmethod
    def from_vec(cls, algebra: TracedAlgebra, v: np.ndarray, **flags) -> "Element":
        data, k = [], 0
        for d in algebra.dims:
            data.append(v[k:k + d * d].reshape(d, d))
            k += d * d
        return cls(algebra, data, **flags)

    def __repr__(self):
        return f"Element(dims={self.algebra.dims}, sup_norm={self.sup_norm():.4g})"


def stacked_singular_values(stack: np.ndarray) -> np.ndarray:
    """Singular values of a stack of square blocks (the last two axes).

    A real 1x1 block takes its modulus, which is LAPACK's value where
    LAPACK does not rescale; a block outside that range, and every other
    stack, is factorized.
    """
    if stack.shape[-1] != 1 or stack.imag.any():
        return np.linalg.svd(stack, compute_uv=False)
    s = np.abs(stack.real[..., 0])
    scaled = (s > 0) & ((s < SVD_UNSCALED_MIN) | (s > 1.0 / SVD_UNSCALED_MIN))
    if scaled.any():
        s[scaled] = np.linalg.svd(stack[..., 0][scaled][:, None, None],
                                  compute_uv=False)[:, 0]
    return s


def rearranged(algebra: TracedAlgebra, values: np.ndarray) -> tuple:
    """:meth:`Element.flat_spectrum` from singular values in block order
    along the last axis; the stable sort breaks ties by block index."""
    order = np.argsort(-values, axis=-1, kind="stable")
    weights = algebra.value_weights[order]
    cumulative = np.concatenate([np.zeros(values.shape[:-1] + (1,)),
                                 np.cumsum(weights, axis=-1)], axis=-1)
    return np.take_along_axis(values, order, axis=-1), weights, cumulative


def _integer(value, name: str) -> int:
    """``value`` as an int; a float such as 2.5 is refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def block_sup_norms(stack: np.ndarray) -> np.ndarray:
    """The sup norm of each block of a ``(..., d, d)`` stack.

    A 1x1 block takes its modulus, ``np.hypot``, which is Python's ``abs``
    of the complex entry bit for bit (vectorized ``np.abs`` can differ from
    it in the last bit); larger blocks take LAPACK's largest singular value.
    """
    if stack.shape[-1] == 1:
        return np.hypot(stack.real[..., 0, 0], stack.imag[..., 0, 0])
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def check_selfadjoint(stacks: Sequence[np.ndarray], scales) -> None:
    """The selfadjoint flag check of a batch of elements.

    ``stacks`` holds one ``(..., k, d, d)`` stack per group of the
    algebra, the leading axes indexing the batch (none for a single
    element), and ``scales`` the batch's max(sup norm, 1).  Raises
    unless every element is selfadjoint to ``FLAG_TOL`` times its scale.
    """
    gap = reduce(np.maximum, [np.abs(b - _adj(b)).max(axis=(-3, -2, -1))
                              for b in stacks])
    over = gap > FLAG_TOL * scales
    if over.any() if over.ndim else over:  # a scalar's .any() is slow
        raise InvalidInputError("selfadjoint flag fails verification")


def check_vecs(algebra: TracedAlgebra, rows: np.ndarray,
               selfadjoint: Optional[bool] = None) -> None:
    """The constructor's checks of ``Element.from_vec(algebra, row,
    selfadjoint=selfadjoint)`` for every row of ``rows``, without building
    the elements: finite entries and, if flagged, selfadjointness."""
    if not np.isfinite(rows).all():
        raise InvalidInputError("non-finite matrix entries")
    if not selfadjoint:
        return
    ends = np.cumsum([d * d for d in algebra.dims])
    stacks, norms = [], np.zeros(len(rows))
    for g in algebra.groups:
        d = algebra.dims[g[0]]
        b = np.stack([rows[:, ends[i] - d * d:ends[i]] for i in g], axis=1)
        b = b.reshape(len(rows), len(g), d, d)
        stacks.append(b)
        norms = np.maximum(norms, block_sup_norms(b).max(axis=-1))
    check_selfadjoint(stacks, np.maximum(norms, 1.0))


def stacked(blocks: Sequence[np.ndarray], group: Sequence[int]) -> np.ndarray:
    """The blocks of one group as a ``(k, d, d)`` stack.

    A singleton group is a view with a new leading axis, so layouts with
    all-distinct dimensions pay no copy.  Blocks of any one equal shape
    stack alike; ``np.concatenate`` does it at half ``np.stack``'s cost.
    """
    if len(group) == 1:
        return blocks[group[0]][None]
    shape = (len(group),) + blocks[group[0]].shape
    return np.concatenate([blocks[i] for i in group]).reshape(shape)


# -- projection machinery ----------------------------------------------------

def projection_from_ranges(algebra: TracedAlgebra,
                           bases: Sequence[np.ndarray]) -> Element:
    """Projection onto the given per-block column spans, as an exact idempotent.

    Each basis is orthonormalized; eigenvalue rounding to {0, 1} keeps the
    idempotent defect at machine scale regardless of the input conditioning.
    Bases of equal shape are orthonormalized in one stacked QR.  Each block
    is q q* for an orthonormal q, so the flags hold by construction and the
    result is built with :meth:`Element._trusted_projection`.
    """
    if len(bases) != len(algebra.dims):
        raise InvalidInputError("block count mismatch")
    data = [np.zeros((d, d), dtype=complex) for d in algebra.dims]
    shapes: dict = {}
    for i, basis in enumerate(bases):
        if basis.size:
            shapes.setdefault(basis.shape, []).append(i)
    for group in shapes.values():
        q, r = np.linalg.qr(stacked(bases, group))
        thresh = RANK_REL * np.maximum(1.0, np.abs(r).max(axis=(-2, -1)))
        keep = np.abs(np.diagonal(r, axis1=-2, axis2=-1)) > thresh[:, None]
        if keep.all():
            blocks = q @ _adj(q)
        else:
            blocks = [qj[:, kj] @ qj[:, kj].conj().T for qj, kj in zip(q, keep)]
        for i, b in zip(group, blocks):
            data[i] = b
    return Element._trusted_projection(algebra, data)


def range_bases(e: Element) -> list:
    """Orthonormal bases of the per-block ranges of a projection."""
    out = []
    for b in e.data:
        w, v = np.linalg.eigh((b + b.conj().T) / 2)
        out.append(v[:, w > 0.5])
    return out


def projection_meet(e: Element, f: Element) -> Element:
    """Meet e ^ f via intersection of ranges.

    Common directions are the singular vectors of the basis overlap with
    singular value 1 (within tolerance).
    """
    e._same_algebra(f)
    bases = []
    for be, bf in zip(range_bases(e), range_bases(f)):
        if be.shape[1] == 0 or bf.shape[1] == 0:
            bases.append(np.zeros((be.shape[0], 0), dtype=complex))
            continue
        u, s, _ = np.linalg.svd(be.conj().T @ bf, full_matrices=False)
        common = be @ u[:, s > MEET_OVERLAP_CUT]
        bases.append(common)
    return projection_from_ranges(e.algebra, bases)


def projection_complement(e: Element) -> Element:
    return Element(e.algebra, [np.eye(d, dtype=complex) - b
                               for b, d in zip(e.data, e.algebra.dims)],
                   selfadjoint=True, positive=True, projection=True)


def trace_deficiency(e: Element) -> float:
    """tau(e_perp) of a projection."""
    return float(sum(w * (d - np.trace(b).real)
                     for b, (d, w) in zip(e.data, e.algebra.blocks)))
