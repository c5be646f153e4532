"""Every numerical threshold of ncergo, as a module-level constant.

Whether a run reports ``certified`` or ``is_ds: true`` rests on these
values, so they live in one place and are not per-call options.  The
only exponent-notation literals left elsewhere are the ``1e-300``
divide-by-zero guards; ``tests/test_config.py`` checks this.  The
singular values themselves need no threshold: a real 1x1 block's is its
modulus at every magnitude, and every other block's is LAPACK's.
"""

# -- numerical rank, verified flags and meets ---------------------------------

#: relative cutoff (times max(1, the sup norm)) of spectral cuts, applied only
#: by ``singular.spectral_cut``, and of ``algebra.projection_from_ranges``' rank
RANK_REL = 1e-10
#: absolute tolerance for verifying selfadjoint / positive / projection flags
FLAG_TOL = 1e-10
#: eigenvalue cut (times the term count) of the kernel of a sum of complements,
#: which spans their meet; absolute, as such a sum's spectrum lies in [0, terms]
MEET_KERNEL_CUT = 1e-7

# -- norms and contractions ---------------------------------------------------

#: absolute slack of the running-integral order in submajorization checks
SUBMAJOR_SLACK = 1e-9
#: slack above 1.0 accepted when declaring a trace- and sup-norm contraction
DS_SLACK = 1e-9
#: largest entry of u u* - 1 for a conjugator u, and of v* v - 1 for a flow's eigenbasis
UNITARY_TOL = 1e-8
#: absolute tolerance for pinching projections to sum to 1 and be orthogonal
PINCHING_TOL = 1e-9
#: slack above 1.0 accepted for the weight sum of a convex combination
WEIGHT_SUM_SLACK = 1e-12
#: largest entry an explicit matrix may have between distinct blocks
COUPLING_TOL = 1e-12
#: relative tolerance of positivity: Choi eigenvalues, a sampled A(x* x)'s spectrum >= 0
POSITIVITY_TOL = 1e-9
#: relative round-up of a Haagerup bound over its realigned matrix's SVD rounding
HAAGERUP_REL = 1e-10
#: largest dense bound of M - T conj(M) T, relative to max(1, that of M), for
#: a map's matrix M and block transpose T: A preserves selfadjointness exactly
SELFADJOINT_TOL = 1e-9

# -- families and flows -------------------------------------------------------

#: largest commutator norm sup ||(AB - BA)x|| / ||x|| accepted for a pair of an
#: operator family; compared with the structural and dense bounds, and with
#: a sampled gap relative to max(1, ||y||)
COMMUTE_TOL = 1e-9
#: largest dense bound of E^2 - E, absolute, for an interpolation flow's expectation
IDEMPOTENT_TOL = 1e-9
#: distance |lambda_a - lambda_b| under which two eigenvalues of a conjugator
#: are equal (pairwise, not chained) in its Cesaro limit, the eigenspace pinching
PHASE_TOL = 1e-8
#: largest structural defect (a conjugator's Schur factor off diagonal and
#: unimodular, or a pinching's projection products off p_i p_j = delta_ij p_i)
#: under which a Cesaro average takes its closed form; the form differs from
#: the sum of powers by about n times the defect
CLOSED_FORM_TOL = 1e-12

# -- certificates -------------------------------------------------------------

#: default bound under which a certificate tail counts as converged
TAIL_TOL = 1e-3
#: measure-metric modulus under which a trace tail counts as Cauchy
CAUCHY_TOL = 1e-3
#: slack above epsilon accepted for a witness's trace deficiency
BUDGET_SLACK = 1e-12
#: slack by which the last tail bound may exceed the first and still certify
TAIL_RISE_SLACK = 1e-12
#: slack of postconditions ordering compressed norm bounds, times max(||term||, 1)
BOUND_SLACK = 1e-9
#: slack of the postcondition that enlargement at most doubles the deficiency
ENLARGE_DEFICIENCY_SLACK = 1e-9

# -- bundled CLI scenarios ----------------------------------------------------

#: largest sup-norm error of the conjugation scenario against its oracle limit
SCENARIO_ERR_TOL = 1e-3
#: largest sup-norm gap of the Besicovitch scenario's average to its fixture's
#: closed form, reported as its summary's ``quad_tol`` (the benchmark reads that key)
SCENARIO_QUAD_TOL = 1e-6
