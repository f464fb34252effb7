"""Numerical defaults shared by the verification suites and the CLI."""

# Absolute default for identity suites; matches the step at which the
# stated tolerances were calibrated.  ISOGEO_FD_STEP overrides it.
DEFAULT_FD_STEP = 1e-4

# Finite differences of the relative coefficients lose the identities in
# truncation noise near the lightlike locus (rho ~ 1/denom).  The guard
# excludes points whose denom is small measured in units of its own
# gradient, i.e. points close to the singular locus in parameter
# distance, not just in denom value.
RELATIVE_DENOM_GUARD = 0.3

# The relative coefficients vary faster than the metric ones (they carry
# the 1/denom factor), so the identity suites difference them at a
# fraction of the base step; fourth-order truncation drops 256x while
# cancellation noise stays far below the tolerances.
RELATIVE_FD_FACTOR = 0.25

# Light guard for suites that only need the coefficients to exist.
BASIC_DENOM_GUARD = 1e-3
