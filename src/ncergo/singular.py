"""Singular-value functions, norms, submajorization, and the measure metric.

The singular-value function of an element is its noncommutative
decreasing rearrangement: the singular values of all blocks sorted
descending, each occupying an interval of width equal to its block's
trace weight.  Everything downstream (the running-integral partial
order, the measure-topology metric, witness projections) is computed
exactly from it, as held in ``Element.flat_spectrum``; the p-norms read
the same cached singular values per group, unsorted.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .algebra import (Element, _adj, check_algebra, complement_sums,
                      deficiencies, largest, masked_stacks, meet_stacks, stack_svds,
                      stacked_singular_values, trace_deficiency, weighted_block_sum)
from .config import BOUND_SLACK, ENLARGE_DEFICIENCY_SLACK, RANK_REL, SUBMAJOR_SLACK
from .errors import InvalidInputError, PostconditionError
from .stepfn import StepFunction, integral_dominates


def mu(x: Element) -> StepFunction:
    """Decreasing rearrangement of x as a step function on (0, infinity).

    Ties between equal singular values are broken by block index, so the
    result is deterministic; it is built from the flat spectrum on each call.
    """
    return StepFunction.from_levels(*x.flat_spectrum()[:2])


def mu_at(x: Element, t: float) -> float:
    """Pointwise value of the rearrangement, right-continuous: ``mu(x)(t)``
    bit for bit, read from the flat spectrum.

    t = 0 gives the largest singular value, ``sup_norm`` bit for bit.
    """
    if not (t >= 0):
        raise InvalidInputError("t must be >= 0")
    values, _, cumulative = x.flat_spectrum()
    i = int(np.searchsorted(cumulative, t, side="right")) - 1
    return float(values[i]) if i < values.size else 0.0


def lp_norm(x: Element, p: float) -> float:
    """The p-norm for p in [1, infinity]: the sup norm, or for finite p
    tau(|x|^p)^(1/p), summed per block in block order.

    The singular values are divided by the power of two at the largest
    before the power and multiplied back after, so the norm overflows only
    past the float range, and ``lp_norm(2^k x) == 2^k lp_norm(x)`` exactly.
    """
    if not (p >= 1):
        raise InvalidInputError("p must be >= 1")
    top = x.sup_norm()
    if p == np.inf:
        return top
    e = np.frexp(top)[1]  # 0 for the zero element
    total = weighted_block_sum(x.algebra, [
        np.sum(np.ldexp(s, -e) ** p, axis=-1) for s in x.stack_singular_values()])
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return float(np.ldexp(float(total) ** (1.0 / p), e))


def k_functional(x: Element, s: float) -> float:
    """Running integral of the rearrangement over [0, s].

    Equals the infimum of ||y||_1 + s ||z||_inf over splittings x = y + z;
    see :func:`clip_decompose` for the optimal splitting.
    """
    if not (s > 0):
        raise InvalidInputError("s must be > 0")
    return mu(x).integral(s)


def clip_decompose(x: Element, level: float) -> Tuple[Element, Element]:
    """Split x = y + z by clipping singular values at `level`.

    z keeps the part of each singular value up to `level` (so its sup norm
    is at most `level`); y keeps the excess.  At level mu_s(x) this is the
    optimal splitting for the running integral at s.
    """
    if not (level >= 0):
        raise InvalidInputError("clip level must be >= 0")
    if not x.sup_norm() < np.inf:
        raise InvalidInputError("clip of an element whose norm overflows")
    ysvd = [(u, np.maximum(s - level, 0.0), vh) for u, s, vh in x.stack_svds()]
    zsvd = [(u, np.minimum(s, level), vh) for u, s, vh in x.stack_svds()]
    return Element._from_svd(x.algebra, ysvd), Element._from_svd(x.algebra, zsvd)


def submajorizes(x: Element, y: Element) -> bool:
    """True iff y is weakly submajorized by x.

    Decided exactly by comparing the two concave piecewise-linear running
    integrals at the union of their breakpoints (they are constant past
    the supports).  The elements may live in different algebras.
    """
    return integral_dominates(mu(x), mu(y), SUBMAJOR_SLACK)


def measure_metric(x: Element, y: Element) -> float:
    """Distance inf { eps > 0 : mu_eps(x - y) <= eps } in the measure topology.

    Computed by scanning the intervals of the rearrangement of x - y: on
    each constant piece the condition is a simple threshold.
    """
    check_algebra(x.algebra, y.algebra)
    values, _, cumulative = (x - y).flat_spectrum()
    return float(measure_scan(values, cumulative))


def measure_scan(values: np.ndarray, cumulative: np.ndarray):
    """The scan of :func:`measure_metric` along the last axis: value i of
    the descending ``values`` spans ``[cumulative[i], cumulative[i+1])``,
    and the distance is the least max(start, value) inside its piece, or
    the end of the last piece.  Merged runs and zeros add no smaller
    point, so the scan needs no merge.
    """
    lo, hi = cumulative[..., :-1], cumulative[..., 1:]
    point = np.maximum(lo, values)
    return np.where(point < hi, point, hi[..., -1:]).min(axis=-1)


def spectral_cut(level, norm):
    """The cut at ``level`` of the singular values of a term with sup norm
    ``norm``: level + RANK_REL * max(norm, 1), so that near-ties fall below
    it.  The one cut rule of the witness search, :func:`enlargements` and
    :func:`spectral_projection_below`; either argument may be an array."""
    return level + RANK_REL * np.maximum(norm, 1.0)


def spectral_projection_below(x: Element, level: float) -> Element:
    """The spectral projection of |x| onto [0, level].

    Per group, the right singular vectors of the cached SVD masked by
    ``s <= spectral_cut`` on the cached singular values, the witness
    search's cut rule; 1x1 blocks need no vectors.
    """
    if not (level >= 0):
        raise InvalidInputError("level must be >= 0")
    cut = spectral_cut(level, x.sup_norm())
    return Element._from_stacks(x.algebra, masked_stacks([
        (None if s.shape[-1] == 1 else _adj(x.stack_svds()[j][2]), s <= cut)
        for j, s in enumerate(x.stack_singular_values())]), True, True, True)


def enlarge_projection(x: Element, e: Element) -> Element:
    """Turn a two-sided compression bound into a one-sided one.

    Given a projection e, returns f = e ^ q where q is the spectral
    projection of |x e| at level ||e x e||_inf.  The output satisfies
    tau(f_perp) <= 2 tau(e_perp) and ||x f||_inf <= ||e x e||_inf, both
    asserted (with tolerance slack) before returning: the one-term case
    of :func:`enlargements`.
    """
    f = enlargements(x.algebra, [s[None] for s in x.stacks], [x.sup_norm()], e)[0]
    return Element._from_stacks(x.algebra, [s[0] for s in f], True, True, True)


def exceeds_bound(bound, cap, norms):
    """Where a bound on terms of sup norms ``norms`` exceeds its ``cap`` past
    BOUND_SLACK * max(norm, 1), the one slack of the bound postconditions."""
    return np.asarray(bound) > np.asarray(cap) + BOUND_SLACK * np.maximum(norms, 1.0)


def enlargements(algebra, xs, norms, e: Element) -> tuple:
    """:func:`enlarge_projection` of the terms x_t of ``(T, k, d, d)`` stacks
    with sup norms ``norms``, each stage one stacked call per group.  Returns
    the stacks of the f_t, ||e x_t e||, ||x_t f_t|| and tau(1 - f_t)."""
    e = e.as_projection()
    check_algebra(algebra, e.algebra)
    xe = [x @ p for x, p in zip(xs, e.stacks)]
    delta = largest([stacked_singular_values(p @ q) for p, q in zip(e.stacks, xe)])
    svals = [stacked_singular_values(p) for p in xe]
    cut = spectral_cut(delta, largest(svals))[:, None, None]
    q = masked_stacks([(None if s.shape[-1] == 1 else _adj(stack_svds([p])[0][2]),
                        s <= cut) for p, s in zip(xe, svals)])
    f = meet_stacks(complement_sums([e.stacks, q]), 2)
    def_e, def_f = trace_deficiency(e), deficiencies(algebra, f)
    xf = largest([stacked_singular_values(x @ p) for x, p in zip(xs, f)])
    if (bad := def_f > 2.0 * def_e + ENLARGE_DEFICIENCY_SLACK).any():
        raise PostconditionError(f"trace deficiency {def_f[bad][0]} exceeds 2 * {def_e}")
    if (bad := exceeds_bound(xf, delta, norms)).any():
        raise PostconditionError(
            f"||x f|| = {xf[bad][0]} exceeds ||e x e|| = {delta[bad][0]}")
    return f, delta, xf, def_f


def fava_decompose(x: Element, delta: float) -> Tuple[Element, Element]:
    """Split a selfadjoint x = y + z with ||z||_inf <= delta.

    y is the spectral part of x on {|lambda| > delta}; z = x - y, so the
    reassembly is exact by construction.
    """
    if not (delta > 0):
        raise InvalidInputError("delta must be > 0")
    x = x.as_selfadjoint()
    ystacks = []
    for b in x.stacks:
        w, v = np.linalg.eigh(b / 2 + _adj(b) / 2)
        # block by block: a masked stacked product would round differently
        ystacks.append(np.array([(vb[:, big] * wb[big]) @ _adj(vb[:, big])
                                 for wb, vb, big in zip(w, v, np.abs(w) > delta)]))
    y = Element._from_stacks(x.algebra, ystacks, selfadjoint=True)
    return y, x - y


def fava_support_trace(x: Element, delta: float) -> float:
    """Weighted count of spectral values of |x| above delta.

    Equals the trace of the support projection of the y-part returned by
    :func:`fava_decompose`.
    """
    if not (delta > 0):
        raise InvalidInputError("delta must be > 0")
    return float(weighted_block_sum(x.algebra, [
        np.count_nonzero(s > delta, axis=-1) for s in x.stack_singular_values()]))
