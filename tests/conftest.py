"""Shared helpers for the test suite.

All randomness is drawn through named streams from a single seed so that
every test run is reproducible bit for bit.
"""

import numpy as np
import scipy.linalg
from hypothesis import example, settings, strategies as st

from ncergo import BlockExpectation, Element, Pinching, TracedAlgebra
from ncergo.rng import stream

SEED = 0xA5C3_2026

# block layouts used by the seeded property loops: up to 4 blocks,
# dims up to 6, mixed weights
BLOCK_CONFIGS = [
    ((2, 1.0),),
    ((3, 1.0),),
    ((4, 0.5),),
    ((6, 1.0),),
    ((2, 0.5), (3, 2.0)),
    ((1, 0.25), (2, 1.0), (4, 0.75)),
    ((2, 1.0), (2, 1.0), (3, 0.5), (1, 3.0)),
    ((5, 0.1), (1, 2.0)),
]


def make_algebra(config):
    return TracedAlgebra(tuple(config))


# layouts for the grouped-vs-per-block equivalence properties: dims up to
# 3 over up to 6 blocks, so 1x1 blocks, repeated dims (multi-member
# groups) and singleton groups all occur
LAYOUTS = st.lists(st.tuples(st.integers(1, 3),
                             st.sampled_from((0.25, 0.5, 1.0, 2.0))),
                   min_size=1, max_size=6).map(tuple)

# layouts that every equivalence property runs on explicitly
GROUPED_LAYOUTS = [
    ((1, 0.5), (1, 1.0), (1, 2.0)),
    ((2, 1.0), (1, 0.5), (2, 0.25), (3, 1.0), (1, 2.0)),
    ((3, 1.0), (3, 0.5), (3, 2.0)),
]


def grouped_examples(test):
    """Settings of a property over (layout, seed, zero_block), with every
    GROUPED_LAYOUTS entry (block 1 zeroed) as an explicit example."""
    for i, layout in enumerate(GROUPED_LAYOUTS):
        test = example(layout=layout, seed=i, zero_block=1)(test)
    return settings(max_examples=30, deadline=None, derandomize=True)(test)


# many blocks with repeated dims and weights, for the flat-spectrum
# properties: 1x1 blocks, large groups and ties across blocks
MANY_BLOCKS = ((1, 0.5),) * 4 + ((2, 0.25),) * 3 + ((3, 1.0),) * 2 \
    + ((1, 2.0), (2, 0.5), (3, 0.25))


def spectrum_examples(test):
    """``grouped_examples`` plus the MANY_BLOCKS layout."""
    return grouped_examples(
        example(layout=MANY_BLOCKS, seed=7, zero_block=3)(test))


def spectrum_elements(rng, algebra, zero_block=None):
    """A random element (block ``zero_block`` zeroed), one whose blocks of
    equal dimension are equal (ties across blocks), a random projection
    (ties within and across blocks) and the zero element."""
    x = random_layout_element(rng, algebra, zero_block)
    shared = {d: b for d, b in zip(algebra.dims, x.data)}
    return [x, Element(algebra, [shared[d] for d in algebra.dims]),
            random_projection(rng, algebra), algebra.zero()]


def random_layout_element(rng, algebra, zero_block=None):
    """A random element; block ``zero_block`` (mod the block count) is 0."""
    data = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in algebra.dims]
    if zero_block is not None:
        i = zero_block % len(data)
        data[i] = np.zeros_like(data[i])
    return Element(algebra, data)


def reference_projection_blocks(algebra, bases, rank_rel=1e-10, sliced=False):
    """Blocks of ``projection_from_ranges``, one QR per block: the mask rule
    ``(q * keep) q*``, or with ``sliced`` the product over the kept columns
    only, the rule before masks (equal to it up to rounding)."""
    data = []
    for basis, d in zip(bases, algebra.dims):
        if basis.size == 0:
            data.append(np.zeros((d, d), dtype=complex))
            continue
        q, r = np.linalg.qr(basis)
        keep = np.abs(np.diag(r)) > rank_rel * max(1.0, np.abs(r).max())
        if sliced:
            q, keep = q[:, keep], True
        data.append((q * keep) @ q.conj().T)
    return data


def group_stacks(algebra, blocks):
    """Per-block arrays as one ``(k, d, d)`` complex stack per group, the
    layout ``Element.stacks`` holds."""
    return [np.array([blocks[i] for i in g], dtype=complex)
            for g in algebra.groups]


def split_stacks(algebra, stacks):
    """The blocks of one stack per group, in block order."""
    blocks = [None] * len(algebra.dims)
    for g, stack in zip(algebra.groups, stacks):
        for i, b in zip(g, stack):
            blocks[i] = b
    return blocks


def assembled(algebra, stacks):
    """The ``vec_dim x vec_dim`` matrix on ``Element.vec`` of a map held as
    ``to_matrix`` holds it, one ``(k, d^2, d^2)`` stack per group: the
    blocks' matrices on the diagonal, in block order."""
    return scipy.linalg.block_diag(*split_stacks(algebra, stacks))


def column_matrix(op):
    """A map's ``to_matrix`` stacks built column by column, ``apply`` on
    each basis element: the reference for every closed-form build."""
    from ncergo.algebra import block_matrices
    return block_matrices(op.algebra, np.column_stack([
        op.apply(Element.from_vec(op.algebra, v)).vec()
        for v in np.eye(op.algebra.vec_dim, dtype=complex)]))


def assert_group_stacks(algebra, stacks):
    """Each entry of ``stacks`` is one ``(k, d^2, d^2)`` stack per group."""
    assert len(stacks) == len(algebra.groups)
    for s, g in zip(stacks, algebra.groups):
        assert s.shape == (len(g),) + (algebra.dims[g[0]] ** 2,) * 2


def random_unitary(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unitary_element(rng, algebra):
    return Element(algebra, [random_unitary(rng, d) for d in algebra.dims])


def random_projection(rng, algebra, min_rank=0):
    """A random orthogonal projection with seeded per-block ranks."""
    from ncergo.algebra import projection_from_ranges
    bases = []
    for d in algebra.dims:
        k = int(rng.integers(min(min_rank, d), d + 1))
        u = random_unitary(rng, d)
        bases.append(u[:, :k])
    return projection_from_ranges(algebra, bases)


def abs_element(x):
    """|x| = (x* x)^(1/2), built blockwise from the SVD."""
    data = []
    for b in x.data:
        _, s, vh = np.linalg.svd(b)
        data.append(vh.conj().T @ np.diag(s) @ vh)
    return Element(x.algebra, data, selfadjoint=True, positive=True)


def random_pinching(rng, algebra, parts=2):
    """A pinching by ``parts`` projections onto spans of the columns of a
    random unitary per block (not diagonal; a part may be empty)."""
    bases = [random_unitary(rng, d) for d in algebra.dims]
    labels = [rng.integers(0, parts, size=d) for d in algebra.dims]
    projections = []
    for k in range(parts):
        data = [v[:, lab == k] @ v[:, lab == k].conj().T
                for v, lab in zip(bases, labels)]
        projections.append(Element(algebra, data, selfadjoint=True,
                                   positive=True, projection=True))
    return Pinching(projections)


def random_block_expectation(rng, algebra, parts=2):
    """A block expectation by a random partition of each block's indices."""
    partition = []
    for d in algebra.dims:
        labels = rng.permutation(np.arange(d) % parts)
        partition.append([list(np.flatnonzero(labels == k))
                          for k in range(parts) if (labels == k).any()])
    return BlockExpectation(algebra, partition)
