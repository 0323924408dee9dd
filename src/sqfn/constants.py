"""Fixed tolerances and slacks used by the verification harness.

All pass/fail criteria are one-sided: empirical ratios and fitted
exponents must not exceed the theoretical bound plus the slack declared
here.  Keeping every tolerance in one versioned file is deliberate;
tolerance drift is the main reproducibility hazard of the harness.
"""

# Relative tolerance for the spectral Plancherel identity checks.
IDENTITY_RTOL = 0.02

# Relative tolerance on the cone-quadrature Plancherel ratio for s_h.
AREA_PLANCHEREL_RTOL = 0.05

# Slack added to the 1/2 exponent for operator-norm growth in p.
P_GROWTH_SLACK = 0.15

# Slack added to beta_p + 1/(p-1) for growth in the A_p constant.
AP_GROWTH_SLACK = 0.2

# Largest L^p exponent a check takes; the L^p sums overflow well above it.
P_MAX = 64

# Allowed multiplicative change of a sup ratio under grid doubling.
STABILITY_FACTOR = 2.0

# Allowed relative spread (max/min - 1) of fitted kernel constants
# across a time log-grid.
KERNEL_FIT_VARIATION = 0.2

# Mass fraction allowed outside the support halo in propagation checks.
SUPPORT_LEAK_TOL = 1e-6

# Width of the support halo, in grid cells, allowed for band-limitation blur.
SUPPORT_HALO_CELLS = 4

# Maximum unresolved energy fraction accepted by the Hermite model.
SPECTRAL_TAIL_TOL = 1e-8

# Exact-arithmetic tolerances.
RECONSTRUCTION_ATOL = 1e-12
MEAN_ZERO_ATOL = 1e-12

# Safety margin multiplied onto the empirical maximal-operator norm
# used by the Rubio de Francia iteration.
MAXIMAL_NORM_MARGIN = 1.25

# Fraction of points allowed to be excluded (denominator below noise
# floor) in pointwise-domination checks.
DOMINATION_EXCLUSION_MAX = 0.01

# Relative agreement required between the two Poisson-semigroup routes.
SUBORDINATION_RTOL = 1e-6

# Largest dense kernel matrix, in MiB (complex entries), a fit may build.
KERNEL_MATRIX_BUDGET_MB = 512.0
