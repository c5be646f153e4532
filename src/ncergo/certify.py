"""Witness-projection certification of almost-uniform convergence.

A certificate realizes a convergence statement at a finite horizon: a
single projection of small trace deficiency under which the uniform-norm
tails of a finite trace of elements are small, one-sided ("au" mode,
bounds on (limit - x_n) e) or two-sided ("bau" mode, bounds on
e (limit - x_n) e).  The witness search budgets the trace deficiency
geometrically across terms and then greedily re-invests unused budget
into the worst tail bound.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (Element, TracedAlgebra, _MeetBuilder, _adj, check_algebra,
                      deficiencies, largest, masked_stacks, rearranged, stack_svds,
                      stacked_singular_values, trace_deficiency)
from .config import BUDGET_SLACK, CAUCHY_TOL, TAIL_RISE_SLACK, TAIL_TOL
from .errors import InvalidInputError, NoLimitError, PostconditionError
from .singular import enlargements, exceeds_bound, measure_scan, spectral_cut


@dataclass(frozen=True)
class FiniteTrace:
    """A finite prefix of a net of elements, sharing one algebra."""

    elements: tuple

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise InvalidInputError("trace must be non-empty")
        for x in elements[1:]:
            check_algebra(x.algebra, elements[0].algebra)
        object.__setattr__(self, "elements", elements)

    @property
    def algebra(self) -> TracedAlgebra:
        return self.elements[0].algebra

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class WitnessCertificate:
    """A projection witness with its achieved tail bounds.

    `verdict` is a finite-horizon judgment: "certified" claims nothing
    about the trace beyond `horizon` indices.

    This is the trust boundary of the witness search, one of the two sites
    where a flag is checked (see :mod:`ncergo.algebra`): its projections
    carry their flags by construction, as masks of unitary factors, and
    `projection` is re-tagged here, once, flagged or not, with all three
    projection flags verified; the re-tagged element shares its stacks and
    spectrum.  The projections that fed a bound but are not emitted (the
    enlargements of every index but the last, computed in one batch by
    :func:`bilateral_to_onesided`) are never elements; they rest on that
    rule, which the tests check on each of its outputs.
    """

    mode: str  # "au" | "bau"
    epsilon: float
    projection: Element
    trace_deficiency: float
    tail_bounds: tuple  # tuple of (index, bound)
    verdict: str  # "certified" | "refuted-at-horizon"
    horizon: int
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("au", "bau"):
            raise InvalidInputError("mode must be 'au' or 'bau'")
        object.__setattr__(self, "projection",
                           self.projection._checked(True, True, True))
        if self.trace_deficiency > self.epsilon + BUDGET_SLACK:
            raise InvalidInputError("trace deficiency exceeds the budget")
        if any(b < 0 for _, b in self.tail_bounds):
            raise InvalidInputError("tail bounds must be non-negative")
        object.__setattr__(self, "tail_bounds",
                           tuple((int(i), float(b)) for i, b in self.tail_bounds))

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_json(self) -> str:
        return json.dumps({
            "mode": self.mode,
            "epsilon": self.epsilon,
            "trace_deficiency": self.trace_deficiency,
            "tail_bounds": [[i, b] for i, b in self.tail_bounds],
            "verdict": self.verdict,
            "horizon": self.horizon,
            "notes": self.notes,
        }, sort_keys=True, indent=2)

    def tail_csv(self) -> str:
        buf = io.StringIO()
        buf.write("index,bound\n")
        for i, b in self.tail_bounds:
            buf.write(f"{i},{b!r}\n")
        return buf.getvalue()


def _term_stacks(elements: Sequence[Element]) -> list:
    """Per group of equal-dimension blocks, all terms' stacks as one
    ``(terms, k, d, d)`` array."""
    return [np.array(terms) for terms in zip(*(x.stacks for x in elements))]


def _differences(pairs) -> list:
    """``a - b`` for each pair of stacks, the one overflow rule of the
    certifiers: only the subtraction ignores overflow, so an entry past the
    float range is inf, which the spectrum reader refuses as input."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [a - b for a, b in pairs]


def _pair_windows(stacks: Sequence[np.ndarray], row_max) -> list:
    """The sup of ``row_max`` over the pairs of each suffix window j of a trace
    held as its :func:`_term_stacks`: row a is x_b - x_a for every b > a, one
    stack per group (memory O(n)), and window j takes the largest row from j on."""
    rows = [row_max(_differences((xs[a + 1:], xs[a]) for xs in stacks))
            for a in range(len(stacks[0]) - 1)]
    return np.maximum.accumulate(rows[::-1])[::-1].tolist()


def _compressed_bounds(stacks: Sequence[np.ndarray], e: Sequence[np.ndarray],
                       mode: str) -> list:
    """||d e|| ("au") or ||e d e|| ("bau") of every term d of ``stacks`` (see
    :func:`_term_stacks`) at once, for a projection held as its stacks ``e``,
    each the largest singular value of :func:`stacked_singular_values`."""
    return largest([stacked_singular_values(dd @ ee if mode == "au" else ee @ dd @ ee)
                    for dd, ee in zip(stacks, e)]).tolist()


def _term_spectra(algebra: TracedAlgebra, stacks: Sequence[np.ndarray]) -> tuple:
    """Per group the singular values and right singular vectors (None on 1x1
    groups) of ``(T, k, d, d)`` stacks, and the T rows of their flat spectra."""
    svals = [stacked_singular_values(s) for s in stacks]
    svds = iter(stack_svds([s for s in stacks if s.shape[-1] > 1]))
    vh = [None if s.shape[-1] == 1 else next(svds)[2] for s in stacks]
    return svals, vh, rearranged(algebra, svals)


def _levels(values: np.ndarray) -> List[float]:
    """Candidate cut levels from a descending flat spectrum; always ends at 0."""
    distinct = values[(values > 0) & np.r_[True, values[1:] != values[:-1]]]
    # round() is monotone, so the deduplicated levels stay descending
    return [*dict.fromkeys(round(s, 14) for s in distinct.tolist()), 0.0]


def _weight_above(values: np.ndarray, cumulative: np.ndarray, cut):
    """Weight of a flat spectrum strictly above ``cut``, a number or an array."""
    return cumulative[np.searchsorted(-values, -cut)]


def _search_witness(algebra: TracedAlgebra, stacks: Sequence[np.ndarray],
                    epsilon: float, mode: str, max_iter: int = 600):
    """Greedy witness search over spectral cut levels, for the differences
    held as ``stacks`` (see :func:`_term_stacks`).

    Starts from the geometric per-term budgets epsilon * 2^-(n+1) (the sum
    never exceeds epsilon), then repeatedly tightens the cut of the term
    with the worst bound as long as the meet keeps its deficiency within
    epsilon.  Returns (projection, deficiency, bounds, cap_hit), where
    cap_hit says the search stopped after ``max_iter`` iterations with a
    term still open for tightening.  Differences, cuts and meets are held as
    group stacks; the one element built is the projection returned.
    """
    if mode not in ("au", "bau"):
        raise InvalidInputError("mode must be 'au' or 'bau'")
    svals, vh, (values, _, cumulative) = _term_spectra(algebra, stacks)
    norms = largest(svals)
    levels = [_levels(v) for v in values]
    # tail weights grow as the levels fall, so the fitting levels lead
    fits = [_weight_above(v, c, spectral_cut(np.asarray(lvs), norm))
            <= epsilon * 2.0 ** (-(n + 1))
            for n, (v, c, lvs, norm) in enumerate(zip(values, cumulative, levels, norms))]
    cursor = [max(int(f.sum()) - 1, 0) for f in fits]

    def term_cut(n: int, k: int) -> list:
        # spectral_projection_below(term n, level k), asked once per (n, k):
        # cursors only advance, a refused swap sticks
        cut = spectral_cut(levels[n][k], norms[n])
        return masked_stacks([(None if v is None else _adj(v[n]), s[n] <= cut)
                              for s, v in zip(svals, vh)])

    def worst_open_term() -> Optional[int]:
        order = sorted(range(len(levels)), key=lambda n: -bounds[n])
        return next((n for n in order if not stuck[n] and bounds[n] > 0), None)

    builder = _MeetBuilder([term_cut(n, k) for n, k in enumerate(cursor)])
    e = builder.meet()
    if deficiencies(algebra, e) > epsilon + BUDGET_SLACK:
        raise PostconditionError("initial witness exceeds the trace budget")
    bounds = _compressed_bounds(stacks, e, mode)
    stuck = [k + 1 >= len(lvs) for k, lvs in zip(cursor, levels)]
    cap_hit = False
    for _ in range(max_iter):
        target = worst_open_term()
        if target is None:
            break
        candidate = term_cut(target, cursor[target] + 1)
        e_trial, sums = builder.with_swap(target, candidate)
        if deficiencies(algebra, e_trial) <= epsilon + BUDGET_SLACK:
            builder.commit(target, candidate, sums)
            cursor[target] += 1
            e = e_trial
            bounds = _compressed_bounds(stacks, e, mode)
            if cursor[target] + 1 >= len(levels[target]):
                stuck[target] = True
        else:
            stuck[target] = True
    else:
        cap_hit = worst_open_term() is not None
    # one-sided control implies two-sided control under the same witness
    if mode == "au" and exceeds_bound(_compressed_bounds(stacks, e, "bau"), bounds, norms).any():
        raise PostconditionError("two-sided bound exceeds one-sided bound")
    e = Element._from_stacks(algebra, e, True, True, True)
    return e, trace_deficiency(e), bounds, cap_hit


def _verdict(bounds: Sequence[float]) -> str:
    if not bounds:
        return "certified"
    ok = bounds[-1] <= TAIL_TOL and bounds[-1] <= bounds[0] + TAIL_RISE_SLACK
    return "certified" if ok else "refuted-at-horizon"


def witness_convergence(trace: FiniteTrace, limit: Element, epsilon: float,
                        mode: str = "au") -> WitnessCertificate:
    """Search for a single projection witnessing convergence to `limit`.

    Degenerate budgets (epsilon >= tau(1)) are honored with the zero
    projection and flagged in the notes.
    """
    if not epsilon > 0:  # NaN too
        raise InvalidInputError(f"epsilon must be > 0, got {epsilon!r}")
    check_algebra(limit.algebra, trace.elements[0].algebra)
    notes = {"horizon_semantics":
             "finite-trace judgment; no claim beyond the horizon"}
    if epsilon >= trace.algebra.total_trace:
        e = trace.algebra.zero()
        bounds = [0.0] * len(trace)
        notes["degenerate"] = "epsilon covers the whole trace; witness is 0"
        return WitnessCertificate(mode, epsilon, e, trace_deficiency(e),
                                  tuple(enumerate(bounds)), "certified",
                                  len(trace), notes)
    differences = _differences(zip(limit.stacks, _term_stacks(trace.elements)))
    e, deficiency, bounds, cap_hit = _search_witness(trace.algebra, differences,
                                                     epsilon, mode)
    if cap_hit:
        notes["iteration_cap_hit"] = True
    return WitnessCertificate(mode, epsilon, e, deficiency,
                              tuple(enumerate(bounds)),
                              _verdict(bounds), len(trace), notes)


def certify_cauchy(trace: FiniteTrace, epsilon: float,
                   mode: str = "bau") -> WitnessCertificate:
    """Certify the Cauchy property of a finite trace under one witness.

    The witness is built from consecutive differences; the reported tail
    bounds are the sups over all pairs in each suffix window, which are
    non-increasing by construction.
    """
    if not epsilon > 0:  # NaN too
        raise InvalidInputError(f"epsilon must be > 0, got {epsilon!r}")
    n = len(trace)
    notes = {"windows": "suffix windows trace[j:]",
             "horizon_semantics":
             "finite-trace judgment; no claim beyond the horizon"}
    if n == 1:
        e = trace.algebra.identity()
        return WitnessCertificate(mode, epsilon, e, 0.0, ((0, 0.0),),
                                  "certified", 1, notes)
    if epsilon >= trace.algebra.total_trace:
        e = trace.algebra.zero()
        notes["degenerate"] = "epsilon covers the whole trace; witness is 0"
        tail = tuple((j, 0.0) for j in range(n - 1))
        return WitnessCertificate(mode, epsilon, e, trace_deficiency(e), tail,
                                  "certified", n, notes)
    stacks = _term_stacks(trace.elements)
    e, deficiency, _, cap_hit = _search_witness(
        trace.algebra, _differences((xs[1:], xs[:-1]) for xs in stacks), epsilon, mode)
    if cap_hit:
        notes["iteration_cap_hit"] = True
    sups = _pair_windows(stacks, lambda dd: max(_compressed_bounds(dd, e.stacks, mode)))
    return WitnessCertificate(mode, epsilon, e, deficiency,
                              tuple(enumerate(sups)),
                              _verdict(sups), n, notes)


def bilateral_to_onesided(trace: FiniteTrace,
                          certificate: WitnessCertificate) -> WitnessCertificate:
    """Upgrade a bilateral certificate to a one-sided one.

    Each consecutive difference goes through the projection enlargement,
    which doubles the trace budget at worst and never worsens the bound;
    :func:`~ncergo.singular.enlargements` runs it once over all indices,
    one stacked call per group for each stage.  The enlarged projection
    varies per index (convergence-in-measure style); the certificate
    records the worst deficiency and last projection, and checks only that
    last projection; the earlier ones are projections by construction,
    masks of a unitary factor.
    """
    if certificate.mode != "bau":
        raise InvalidInputError("input certificate must be bilateral")
    differences = _differences((xs[1:], xs[:-1]) for xs in _term_stacks(trace.elements))
    norms = largest([stacked_singular_values(xs) for xs in differences])
    f, _, one_sided, deficiency = enlargements(
        trace.algebra, differences, norms, certificate.projection)
    last = certificate.projection if len(trace) == 1 else Element._from_stacks(
        trace.algebra, [s[-1] for s in f], True, True, True)
    bounds = one_sided.tolist()
    notes = dict(certificate.notes)
    notes["upgrade"] = ("per-index enlarged witnesses; deficiency is the "
                        "worst case, projection is the last one")
    return WitnessCertificate("au", 2.0 * certificate.epsilon, last,
                              float(deficiency.max(initial=0.0)),
                              tuple(enumerate(bounds)),
                              _verdict(bounds), certificate.horizon, notes)


def extract_limit(trace: FiniteTrace) -> Tuple[Element, List[float]]:
    """Candidate limit of a trace Cauchy in the measure metric.

    Returns the final element together with the suffix Cauchy moduli
    (max pairwise measure-metric distance over each suffix window).
    Raises :class:`NoLimitError` when the tail modulus stays above
    ``CAUCHY_TOL``; downstream certification validates the candidate.
    """
    n = len(trace)
    if n == 1:
        return trace.elements[0], [0.0]
    def modulus(dd):  # the largest measure-metric distance of a row
        values, _, cumulative = rearranged(trace.algebra, [*map(stacked_singular_values, dd)])
        return measure_scan(values, cumulative).max()
    moduli = _pair_windows(_term_stacks(trace.elements), modulus)
    tail_start = max(0, n - max(2, n // 4) - 1)
    if moduli[min(tail_start, n - 2)] > CAUCHY_TOL:
        raise NoLimitError(
            f"tail modulus {moduli[min(tail_start, n - 2)]:.3e} exceeds "
            f"{CAUCHY_TOL:.3e}")
    return trace.elements[-1], moduli


def remark32_model(n_blocks: int):
    """The classical counterexample truncated to a finite model.

    Builds one-dimensional blocks with weights 2^-k carrying the values
    2^k, so the n-th partial element has trace norm exactly n while the
    full element has trace norm `n_blocks`: the norms blow up while the
    prefix converges almost uniformly to the final element.

    Returns (algebra, trace of partial elements, limit).
    """
    top = np.finfo(float).maxexp - 1  # 2.0 ** k overflows past k = 1023
    if not 1 <= n_blocks <= top:
        raise InvalidInputError(f"need between 1 and {top} blocks, got {n_blocks}")
    algebra = TracedAlgebra(tuple((1, 2.0 ** (-k))
                                  for k in range(1, n_blocks + 1)))
    elements = []
    for n in range(1, n_blocks + 1):
        data = [np.array([[2.0 ** k if k <= n else 0.0]], dtype=complex)
                for k in range(1, n_blocks + 1)]
        elements.append(Element(algebra, data, selfadjoint=True, positive=True))
    trace = FiniteTrace(tuple(elements))
    return algebra, trace, elements[-1]
