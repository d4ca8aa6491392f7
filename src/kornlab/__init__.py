"""kornlab: matrix curl seminorms, their kernels, and numerical Korn constants.

The package is organized by what the objects do:

* algebra3        dense 3x3 algebra: skew embeddings, matrix cross products,
                  orthogonal splits, axial recovery,
* symbol          9x9 frequency-side operators of the row-wise matrix curl,
                  kernels, bounded multipliers, the sharp sym/devsym ratio,
* fields          periodic tensor fields with spectral calculus, plus direct
                  Gauss-Legendre quadrature for non-periodic profiles,
* kernels         the finite-dimensional kernel families of the curl
                  seminorms and their point-set rigidity,
* korn_estimator  per-frequency quadratic forms, the estimated Korn
                  constant, and a direct grid crosscheck,
* identities      the named residual checks behind `kornlab identities`,
* cli             the `kornlab` executable.
"""

from . import algebra3, fields, identities, kernels, korn_estimator, symbol

__all__ = ["algebra3", "symbol", "fields", "kernels", "korn_estimator", "identities"]

__version__ = "0.1.0"
