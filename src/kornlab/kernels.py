"""Finite-dimensional kernels of the curl seminorms and their point evaluation.

A skew matrix field whose symmetric curl vanishes has axial vector
a_tilde x x + b; dropping only the trace-free symmetric part of the curl
enlarges the family by a dilation and an inversion-type quadratic term.
KernelElement stores the ten parameters (a_tilde, beta, b, d) of

    axial(x) = a_tilde x x + beta*x + b + <d, x> x - d * |x|^2 / 2,

the matrix value being anti(axial(x)).  The axial polynomial is exactly a
conformal Killing field, which is what makes twelve points in general
position rigid (boundary_rank == 10) while lines and circles stay floppy.
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra3 import (_check_instance, _check_real, _choice, _finite, _norm, _real, anti, dot,
                       numerical_rank)

__all__ = [
    "TooFewSamplesError", "DegenerateGeometryError",
    "KernelElement",
    "eval_kernel", "axial_polynomial", "curl_kernel_closed_form",
    "ProjectionResult", "project_kernel",
    "boundary_system", "boundary_rank",
]

# design columns of each family, in the parameter order (a_tilde, beta, b, d);
# a fit needs at least as many samples as it has parameters
_COLUMNS = {"sym": np.r_[0:3, 4:7], "devsym": np.arange(10)}
MIN_SAMPLES = {space: cols.size for space, cols in _COLUMNS.items()}


class TooFewSamplesError(ValueError):
    """Not enough sample pairs to determine the kernel parameters."""


class DegenerateGeometryError(ValueError):
    """Sample points sit on a configuration that cannot pin the parameters."""


@dataclass(frozen=True, eq=False)
class KernelElement:
    """Parameters of one kernel field; beta = d = 0 gives the sym-curl kernel."""

    a_tilde: np.ndarray = field(default_factory=lambda: np.zeros(3))
    beta: float = 0.0
    b: np.ndarray = field(default_factory=lambda: np.zeros(3))
    d: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("a_tilde", "b", "d"):
            v = _real(getattr(self, name), (3,), name)
            if v.ndim != 1:
                raise ValueError("%s must be a 3-vector, got shape %s" % (name, v.shape))
            object.__setattr__(self, name, _finite(v, name))
        object.__setattr__(self, "beta", _finite(_check_real("beta", self.beta), "beta"))


def _points(x):
    """A finite point set as an (m, 3) float array; a single point is one row."""
    pts = np.atleast_2d(_real(x, (), "points"))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (m, 3)")
    return _finite(pts, "points")


def axial_polynomial(e, x):
    """Axial vector of the kernel field at x (broadcasts over leading axes of x).

    x must be finite, and small enough that the value (quadratic in x) is
    finite: |x| of about 1e154 and above is a ValueError.
    """
    _check_instance("element", e, KernelElement)
    x = _finite(_real(x, (3,), "point"), "point")
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = np.sum(x * x, axis=-1)[..., None]
        axial = (np.cross(e.a_tilde, x) + e.beta * x + e.b
                 + dot(e.d, x)[..., None] * x - 0.5 * e.d * x2)
    if not np.isfinite(axial).all():
        raise ValueError("points are too large: the kernel polynomial overflows")
    return axial


def eval_kernel(e, x):
    """Kernel field value anti(axial_polynomial(e, x))."""
    return anti(axial_polynomial(e, x))


def curl_kernel_closed_form(e, x):
    """Row-wise curl of the kernel field: 2(beta + <d,x>) id + anti(a_tilde) + anti(d x x)."""
    _check_instance("element", e, KernelElement)
    x = _real(x, (3,), "point")
    scale = 2.0 * (e.beta + dot(e.d, x))
    return (scale[..., None, None] * np.eye(3)
            + anti(e.a_tilde) + anti(np.cross(e.d, x)))


def _element(theta):
    """KernelElement of a parameter vector in the order (a_tilde, beta, b, d)."""
    return KernelElement(a_tilde=theta[0:3], beta=theta[3], b=theta[4:7], d=theta[7:10])


def _axial_design(pts):
    """Axial vectors of the ten unit parameter directions at each point, (m, 3, 10).

    The map from parameters to axial vectors is linear, so this design
    matrix times theta is axial_polynomial(_element(theta), pts).
    """
    return np.stack([axial_polynomial(_element(u), pts) for u in np.eye(10)], axis=-1)


@dataclass(frozen=True)
class ProjectionResult:
    element: KernelElement
    residual: float
    cond: float


def project_kernel(points, matrices, space="devsym"):
    """Least-squares fit of a kernel element to sampled matrix values.

    space selects which seminorm kernel to project onto: "sym" fits the
    six-parameter family (a_tilde, b), "devsym" the full ten-parameter one.
    The residual is the Hermitian norm of the stacked misfit over all
    samples.  Points and matrices must be finite, and points small enough
    for axial_polynomial (ValueError).  Raises
    TooFewSamplesError below the minimum sample count and
    DegenerateGeometryError when the numerical rank of the design matrix
    (algebra3.numerical_rank) is below its column count, which is where
    boundary_rank stops reporting the ten-parameter family as rigid.
    """
    _choice("space", space, MIN_SAMPLES)
    pts = _points(points)
    mats = _real(matrices, (3, 3), "matrices")
    m = pts.shape[0]
    if mats.shape != (m, 3, 3):
        raise ValueError("matrices must have shape (m, 3, 3) matching the points")
    _finite(mats, "matrices")
    if m < MIN_SAMPLES[space]:
        raise TooFewSamplesError("space %r needs at least %d samples, got %d"
                                 % (space, MIN_SAMPLES[space], m))
    cols = _COLUMNS[space]
    design = anti(np.moveaxis(_axial_design(pts)[..., cols], -1, 0)).reshape(cols.size, 9 * m).T
    rhs = mats.reshape(9 * m)
    sv = np.linalg.svd(design, compute_uv=False)
    rank = int(numerical_rank(sv))
    if rank < cols.size:
        raise DegenerateGeometryError("design matrix has numerical rank %d of %d columns"
                                      % (rank, cols.size))
    cond = float(sv[0] / sv[-1])
    theta, _, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
    residual = float(_norm(design @ theta - rhs, 1))
    params = np.zeros(10)
    params[cols] = theta
    e = _element(params)
    return ProjectionResult(element=e, residual=residual, cond=cond)


def boundary_system(points):
    """Rows of the vanishing conditions f(x) = 0, three per point, ten unknowns.

    Unknown order: (a_tilde, beta, b, d), the parameters of KernelElement,
    so the three rows of a point x evaluate axial_polynomial at x.
    """
    pts = _points(points)
    return _axial_design(pts).reshape(3 * pts.shape[0], 10)


def boundary_rank(points):
    """Number of kernel parameters a point set pins down (10 = rigid).

    Twelve points in general position on a sphere give 10; point sets on a
    line or a circle leave at least one quadratic field vanishing on all
    of them, so the rank drops below 10.  An empty set pins nothing: 0.
    """
    return int(numerical_rank(np.linalg.svd(boundary_system(points), compute_uv=False)))
