"""Ergodic averaging and almost-uniform convergence certification on
finite direct sums of traced matrix blocks."""

from .algebra import Element, TracedAlgebra, projection_meet, trace_deficiency
from .certify import (FiniteTrace, WitnessCertificate, bilateral_to_onesided,
                      certify_cauchy, extract_limit, remark32_model,
                      witness_convergence)
from .ergodic import (AverageTrace, BesicovitchFunction, InterpolationFlow,
                      SectorNet, TrigPolynomial, UnitaryFlow,
                      besicovitch_average, box_average, cesaro_limit_oracle,
                      net_average_trace, sector_check)
from .errors import (InvalidInputError, NcergoError, NoLimitError,
                     NumericFailureError, PostconditionError)
from .singular import (clip_decompose, enlarge_projection, fava_decompose,
                       fava_support_trace, k_functional, lp_norm, measure_metric,
                       mu, mu_at, spectral_projection_below, submajorizes)
from .stepfn import StepFunction
from .superops import (BlockExpectation, Composition, ConvexCombination,
                       DSCertificate, ExplicitMatrix, Pinching, Power,
                       SuperOperator, UnitaryConjugation,
                       audit_submajorization, check_positivity, preserves_fava,
                       verify_ds)

__version__ = "0.1.0"

__all__ = [
    "Element", "TracedAlgebra", "projection_meet", "trace_deficiency",
    "FiniteTrace", "WitnessCertificate", "bilateral_to_onesided",
    "certify_cauchy", "extract_limit", "remark32_model", "witness_convergence",
    "AverageTrace", "BesicovitchFunction", "InterpolationFlow", "SectorNet",
    "TrigPolynomial", "UnitaryFlow", "besicovitch_average", "box_average",
    "cesaro_limit_oracle", "net_average_trace", "sector_check",
    "InvalidInputError", "NcergoError", "NoLimitError", "NumericFailureError",
    "PostconditionError", "clip_decompose", "enlarge_projection",
    "fava_decompose", "fava_support_trace", "k_functional", "lp_norm",
    "measure_metric", "mu", "mu_at", "spectral_projection_below",
    "submajorizes", "StepFunction", "BlockExpectation", "Composition",
    "ConvexCombination", "DSCertificate", "ExplicitMatrix", "Pinching",
    "Power", "SuperOperator", "UnitaryConjugation", "audit_submajorization",
    "check_positivity", "preserves_fava", "verify_ds",
]
