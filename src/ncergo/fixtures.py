"""Reusable desk-scale scenarios for experiments and acceptance runs."""

from __future__ import annotations

import numpy as np

from .algebra import Element, TracedAlgebra
from .ergodic import (BesicovitchFunction, SectorNet, TrigPolynomial,
                      UnitaryFlow, cesaro_limit_oracle)
from .rng import stream
from .superops import UnitaryConjugation


def conjugation_d2_fixture(seed: int = 2026):
    """Two commuting unitary conjugations on one 8x8 block, sector net (k, k).

    The conjugator phases are multiples of pi/6 chosen so that the Cesàro
    error contracts by at least a factor ~0.5 whenever the index doubles
    from 64 on, and falls below 1e-3 at k = 10^4.

    Returns (algebra, ops, x, net, oracle_limit).
    """
    algebra = TracedAlgebra(((8, 1.0),))
    theta = np.pi / 6.0
    group_a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    group_b = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    u1 = Element(algebra, [np.diag(np.exp(1j * theta * group_a))])
    u2 = Element(algebra, [np.diag(np.exp(1j * theta * group_b))])
    ops = [UnitaryConjugation(u1), UnitaryConjugation(u2)]

    rng = stream(seed, "fixtures/conjugation-d2/element")
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = 0.1 * (m + m.conj().T)
    x = Element(algebra, [m], selfadjoint=True)

    ks = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 10000]
    net = SectorNet(2, tuple((k, k) for k in ks), sector_constant=1.0)
    oracle = cesaro_limit_oracle(ops, x)
    return algebra, ops, x, net, oracle


def besicovitch_theta_fixture(seed: int = 2026):
    """Pure exponential weight e^{is} over the trivial flow on M_2.

    The time average has the closed form x * (e^{it} - 1)/(it).

    Returns (algebra, beta, flow, x, closed_form) where closed_form(t) is
    the exact average.
    """
    algebra = TracedAlgebra(((2, 1.0),))
    rng = stream(seed, "fixtures/besicovitch-theta/element")
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = Element(algebra, [m])
    beta = BesicovitchFunction(TrigPolynomial(((1.0, 1.0),)))
    flow = UnitaryFlow(algebra.zero())

    def closed_form(t: float) -> Element:
        factor = (np.exp(1j * t) - 1.0) / (1j * t)
        return x.scaled(factor)

    return algebra, beta, flow, x, closed_form


def unitary_flow_fixture(seed: int = 2026):
    """A genuine unitary flow on M_2 with generator diag(0, pi)."""
    algebra = TracedAlgebra(((2, 1.0),))
    h = Element(algebra, [np.diag([0.0, np.pi]).astype(complex)],
                selfadjoint=True)
    rng = stream(seed, "fixtures/unitary-flow/element")
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = Element(algebra, [m])
    return algebra, BesicovitchFunction(TrigPolynomial(((1.0, 0.0),))), \
        UnitaryFlow(h), x
