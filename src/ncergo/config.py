"""Single tolerance record threaded through all numerical routines."""

from __future__ import annotations

from dataclasses import dataclass, replace, asdict


@dataclass(frozen=True)
class Tolerances:
    """All tunable numerical thresholds.

    rank_rel: relative cutoff (times the sup norm) deciding numerical rank
        and spectral-projection membership.
    flag_tol: absolute tolerance for verifying selfadjoint / positive /
        projection flags.
    two_route_rel: relative agreement required between the integral and
        trace routes of the p-norms.
    ds_slack: slack above 1.0 still accepted when declaring a map a
        trace- and sup-norm contraction.
    commute_tol: sampled commutativity threshold for operator families.
    semigroup_tol: sampled semigroup-law threshold.
    tail_tol: default bound under which a certificate tail counts as
        converged at the horizon.
    cauchy_tol: default measure-metric modulus under which a trace tail
        counts as Cauchy.
    """

    rank_rel: float = 1e-10
    flag_tol: float = 1e-10
    two_route_rel: float = 1e-9
    ds_slack: float = 1e-9
    commute_tol: float = 1e-9
    semigroup_tol: float = 1e-8
    tail_tol: float = 1e-3
    cauchy_tol: float = 1e-3

    def with_(self, **kw) -> "Tolerances":
        return replace(self, **kw)

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT = Tolerances()
