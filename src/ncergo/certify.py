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

from .algebra import (Element, TracedAlgebra, _MeetBuilder, _finite, check_algebra,
                      rearranged, stacked_singular_values, trace_deficiency)
from .config import (BOUND_SLACK, BUDGET_SLACK, CAUCHY_TOL, TAIL_RISE_SLACK,
                     TAIL_TOL)
from .errors import InvalidInputError, NoLimitError, PostconditionError
from .singular import (enlarge_projection, measure_scan, spectral_cut,
                       spectral_projection_below)


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

    This is the trust boundary of the witness search: its projections are
    built trusted, as masks of unitary factors (see :mod:`ncergo.algebra`),
    and `projection` is checked here, once, rebuilt from its group stacks
    with all three projection flags set and verified.  The projections that
    fed a bound but are not emitted (:func:`bilateral_to_onesided`'s
    enlargements before the last) rest on that rule, which the tests check
    on each of its outputs.
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
        p = self.projection
        object.__setattr__(self, "projection", Element._from_stacks(
            p.algebra, p.stacks, selfadjoint=True, positive=True, projection=True))
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


def _compressed_bound(d: Element, e: Element, mode: str) -> float:
    return _compressed_bounds(_term_stacks([d]), e, mode)[0]


def _term_stacks(elements: Sequence[Element]) -> list:
    """Per group of equal-dimension blocks, all terms' stacks as one
    ``(terms, k, d, d)`` array."""
    return [np.array(terms) for terms in zip(*(x.stacks for x in elements))]


def _compressed_bounds(stacks: Sequence[np.ndarray], e: Element,
                       mode: str) -> list:
    """``_compressed_bound`` of every term of ``stacks`` (see
    :func:`_term_stacks`) at once, each the largest singular value of
    :func:`stacked_singular_values`."""
    out = 0.0
    for dd, ee in zip(stacks, e.stacks):
        p = _finite(dd @ ee if mode == "au" else ee @ dd @ ee)
        out = np.maximum(out, stacked_singular_values(p)[..., 0].max(axis=1))
    return out.tolist()


def _distinct_levels(d: Element) -> List[float]:
    """Candidate spectral cut levels, descending; always ends at 0."""
    svals = d.flat_spectrum()[0]
    distinct = np.unique(svals[svals > 0])[::-1].tolist()
    # round() is monotone, so the deduplicated levels stay descending
    return [*dict.fromkeys(round(s, 14) for s in distinct), 0.0]


def _tail_weight(d: Element, level):
    """Weighted count of singular values strictly above the cut, at one
    level or at each of an array of levels."""
    cut = spectral_cut(d, np.asarray(level))
    svals, _, cumulative = d.flat_spectrum()
    return cumulative[np.searchsorted(-svals, -cut)]


def _search_witness(differences: Sequence[Element], epsilon: float, mode: str,
                    max_iter: int = 600):
    """Greedy witness search over spectral cut levels.

    Starts from the geometric per-term budgets epsilon * 2^-(n+1) (the sum
    never exceeds epsilon), then repeatedly tightens the cut of the term
    with the worst bound as long as the meet keeps its deficiency within
    epsilon.  Returns (projection, deficiency, bounds, cap_hit), where
    cap_hit says the search stopped after ``max_iter`` iterations with a
    term still open for tightening.
    """
    if mode not in ("au", "bau"):
        raise InvalidInputError("mode must be 'au' or 'bau'")
    algebra = differences[0].algebra
    levels = [_distinct_levels(d) for d in differences]
    cursor = []
    for n, d in enumerate(differences):
        # tail weights grow as the levels fall, so the fitting levels lead
        fits = _tail_weight(d, levels[n]) <= epsilon * 2.0 ** (-(n + 1))
        cursor.append(max(int(fits.sum()) - 1, 0))

    def term_projection(n: int, k: int) -> Element:
        # asked once per (n, k): cursors only advance, a refused swap sticks
        return spectral_projection_below(differences[n], levels[n][k])

    def worst_open_term() -> Optional[int]:
        order = sorted(range(len(differences)), key=lambda n: -bounds[n])
        return next((n for n in order if not stuck[n] and bounds[n] > 0), None)

    builder = _MeetBuilder(algebra,
                           [term_projection(n, k) for n, k in enumerate(cursor)])
    e = builder.meet()
    if trace_deficiency(e) > epsilon + BUDGET_SLACK:
        raise PostconditionError("initial witness exceeds the trace budget")
    stacks = _term_stacks(differences)
    bounds = _compressed_bounds(stacks, e, mode)
    stuck = [k + 1 >= len(lvs) for k, lvs in zip(cursor, levels)]
    cap_hit = False
    for _ in range(max_iter):
        target = worst_open_term()
        if target is None:
            break
        candidate = term_projection(target, cursor[target] + 1)
        e_trial, sums = builder.with_swap(target, candidate)
        if trace_deficiency(e_trial) <= epsilon + BUDGET_SLACK:
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
    differences = [limit - x for x in trace.elements]
    e, deficiency, bounds, cap_hit = _search_witness(differences, epsilon,
                                                     mode)
    if cap_hit:
        notes["iteration_cap_hit"] = True
    if mode == "au":
        # one-sided control implies two-sided control under the same witness
        two_sided = _compressed_bounds(_term_stacks(differences), e, "bau")
        if any(t > b + BOUND_SLACK for t, b in zip(two_sided, bounds)):
            raise PostconditionError("two-sided bound exceeds one-sided bound")
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
    consecutive = [trace.elements[i + 1] - trace.elements[i]
                   for i in range(n - 1)]
    e, deficiency, _, cap_hit = _search_witness(consecutive, epsilon, mode)
    if cap_hit:
        notes["iteration_cap_hit"] = True
    # row a bounds x_b - x_a for every b > a, one batched row at a time, so
    # memory stays O(n); the sup of window j is the largest row maximum from j on
    stacks = _term_stacks(trace.elements)
    rows = [max(_compressed_bounds([x[a + 1:] - x[a] for x in stacks], e, mode))
            for a in range(n - 1)]
    sups = np.maximum.accumulate(rows[::-1])[::-1].tolist()
    return WitnessCertificate(mode, epsilon, e, deficiency,
                              tuple(enumerate(sups)),
                              _verdict(sups), n, notes)


def bilateral_to_onesided(trace: FiniteTrace,
                          certificate: WitnessCertificate) -> WitnessCertificate:
    """Upgrade a bilateral certificate to a one-sided one.

    Each consecutive difference goes through the projection enlargement,
    which doubles the trace budget at worst and never worsens the bound.
    The enlarged projection varies per index (convergence-in-measure
    style); the certificate records the worst deficiency and last projection.
    The certificate checks only that last projection; the earlier ones are
    projections by construction, masks of a unitary factor.
    """
    if certificate.mode != "bau":
        raise InvalidInputError("input certificate must be bilateral")
    e = certificate.projection
    differences = [trace.elements[i + 1] - trace.elements[i]
                   for i in range(len(trace) - 1)]
    bounds, worst = [], 0.0
    f = e
    for d in differences:
        bilateral = _compressed_bound(d, e, "bau")
        f = enlarge_projection(d, e)  # checks tau(1 - f) <= 2 tau(1 - e)
        one_sided = _compressed_bound(d, f, "au")
        if one_sided > bilateral + BOUND_SLACK:
            raise PostconditionError("one-sided bound exceeds bilateral bound")
        worst = max(worst, trace_deficiency(f))
        bounds.append(one_sided)
    notes = dict(certificate.notes)
    notes["upgrade"] = ("per-index enlarged witnesses; deficiency is the "
                        "worst case, projection is the last one")
    return WitnessCertificate("au", 2.0 * certificate.epsilon, f, worst,
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
    # the modulus of window j is the largest row maximum from row j on
    rows = [measure_scan(*row).max() for row in _row_spectra(trace)]
    moduli = np.maximum.accumulate(rows[::-1])[::-1].tolist()
    tail_start = max(0, n - max(2, n // 4) - 1)
    if moduli[min(tail_start, n - 2)] > CAUCHY_TOL:
        raise NoLimitError(
            f"tail modulus {moduli[min(tail_start, n - 2)]:.3e} exceeds "
            f"{CAUCHY_TOL:.3e}")
    return trace.elements[-1], moduli


def _row_spectra(trace: FiniteTrace):
    """For each a < n - 1, the ``flat_spectrum`` values and cumulative
    weights of x_a - x_b, one row per b > a, from one stacked
    computation per group, the one :meth:`Element.stack_singular_values`
    makes, so the rows equal the per-pair ``measure_metric`` table.
    """
    stacks = _term_stacks(trace.elements)
    for a in range(len(trace) - 1):
        parts = []
        for xs in stacks:
            with np.errstate(over="ignore", invalid="ignore"):
                dd = xs[a] - xs[a + 1:]
            parts.append(stacked_singular_values(_finite(dd)))
        values, _, cumulative = rearranged(trace.algebra, parts)
        yield values, cumulative


def remark32_model(n_blocks: int):
    """The classical counterexample truncated to a finite model.

    Builds one-dimensional blocks with weights 2^-k carrying the values
    2^k, so the n-th partial element has trace norm exactly n while the
    full element has trace norm `n_blocks`: the norms blow up while the
    prefix converges almost uniformly to the final element.

    Returns (algebra, trace of partial elements, limit).
    """
    if n_blocks < 1:
        raise InvalidInputError("need at least one block")
    algebra = TracedAlgebra(tuple((1, 2.0 ** (-k))
                                  for k in range(1, n_blocks + 1)))
    elements = []
    for n in range(1, n_blocks + 1):
        data = [np.array([[2.0 ** k if k <= n else 0.0]], dtype=complex)
                for k in range(1, n_blocks + 1)]
        elements.append(Element(algebra, data, selfadjoint=True, positive=True))
    trace = FiniteTrace(tuple(elements))
    return algebra, trace, elements[-1]
