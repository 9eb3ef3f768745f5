"""Monte Carlo laboratory for upper-tail exceedances of highly multiple t-tests.

The package simulates p-by-n data panels whose column sequences are
kappa-dependent, studentizes every row, and measures how the joint pattern
of high-level exceedances compares with the pattern an independent process
would produce.  It ships the calibration calculus (alpha, gamma, threshold
levels, nominal error bounds), block/cluster diagnostics, count-match
coupling bounds, and the standard multiple-testing procedures (bin counts,
Benjamini-Hochberg, step-down FWER) evaluated under the independence
approximation.

Subpackages
-----------
numerics    special functions (normal/Student t, bivariate tail) and the
            alpha/gamma/threshold/error-bound calculus
panelgen    synthetic panel generation with exact dependence control
studentize  T and R statistics, per-row group sizes, degenerate-row conventions
exceedance  exceedance sets, block schemes, tail estimation, coupling
mtc         bin thresholds/counts, BH, step-down FWER, realized error rates
experiments experiment runner used by the command line interface
"""

__version__ = "0.1.0"

from exceedlab import exceedance, experiments, mtc, numerics, panelgen, studentize

__all__ = [
    "__version__",
    "exceedance",
    "experiments",
    "mtc",
    "numerics",
    "panelgen",
    "studentize",
]
