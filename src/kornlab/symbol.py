"""Frequency-side 9x9 operators for the matrix curl.

Flattening convention (fixed here, used everywhere): a 3x3 matrix P is
identified with the length-9 vector P.reshape(9) in row-major order, so
component 3*r + c is P[r, c].  A SymbolOperator is a complex (9, 9) array
acting on such vectors; its column j is the image of the basis matrix with
a single 1 at (j // 3, j % 3).

The curl of a matrix field acts row-wise, and on the Fourier side a
coefficient P_hat at frequency xi is mapped to -i * (P_hat x xi); the
optional symmetric / trace-free symmetric projections are applied after
the cross product.  The degree-zero multiplier M(xi) maps the trace-free
symmetric symbol onto the symmetric one, and the sharp ratio
sup |sym(P x xi)| / |devsym(P x xi)| is its operator norm.  Every
function of a frequency also takes a (..., 3) stack of frequencies.
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra3 import EYE3, anti, cross, dev, dot, mat_norm, sym

__all__ = [
    "ZeroFrequencyError", "TOL_KERNEL",
    "basis_matrices", "curl_symbol", "apply_symbol",
    "KernelBasis", "kernel_basis", "build_multiplier",
    "sharp_ratio", "KernelWitness",
]

TOL_KERNEL = 1e-8

_PARTS = {"full": lambda X: X, "sym": sym, "devsym": lambda X: dev(sym(X))}


class ZeroFrequencyError(ValueError):
    """The requested construction needs a nonzero frequency."""


def basis_matrices():
    """The nine 3x3 basis matrices in flattening order."""
    return np.eye(9).reshape(9, 3, 3)


def curl_symbol(xi, part="full"):
    """Symbol of (a projection of) the row-wise matrix curl at frequency xi.

    Returns the 9x9 complex matrix of P_hat -> -i * proj(P_hat x xi).  A
    stack of frequencies of shape (..., 3) gives a stack of shape (..., 9, 9).
    """
    if part not in _PARTS:
        raise ValueError("part must be one of %s" % (tuple(_PARTS),))
    xi = np.asarray(xi)
    images = _PARTS[part](-1j * cross(basis_matrices(), xi[..., None, :]))
    return images.reshape(xi.shape[:-1] + (9, 9)).swapaxes(-1, -2).copy()


def apply_symbol(op, P):
    """Apply a SymbolOperator to a 3x3 matrix, returning a 3x3 matrix.

    Leading axes of op and P broadcast, so a stack of symbols applies to a
    stack of coefficients in one call.
    """
    P = np.asarray(P)
    return (op @ P.reshape(P.shape[:-2] + (9,))[..., None])[..., 0].reshape(P.shape[:-2] + (3, 3))


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal basis (Hermitian inner product) of a numerical kernel."""

    vectors: np.ndarray          # shape (dimension, 3, 3)
    dimension: int
    singular_values: np.ndarray  # all nine, descending


def kernel_basis(op):
    """Numerical kernel of a SymbolOperator via SVD.

    Directions whose singular value is below TOL_KERNEL * sigma_max count as
    kernel.  The returned vectors are orthonormal 3x3 matrices.
    """
    op = np.asarray(op, dtype=complex)
    _, s, vh = np.linalg.svd(op)
    cut = TOL_KERNEL * (s[0] if s[0] > 0 else 1.0)
    rank = int(np.sum(s > cut))
    vecs = vh[rank:].conj().reshape(-1, 3, 3)
    return KernelBasis(vectors=vecs, dimension=9 - rank, singular_values=s)


def build_multiplier(xi):
    """Bounded degree-0 multiplier M with M(xi) A(xi) = A_sym(xi).

    A is the trace-free symmetric curl symbol and A_sym the symmetric one.
    M = A_sym @ Q where Q is the SVD pseudo-inverse of A (cut at
    TOL_KERNEL * sigma_max), so Q A = id - (kernel projector) and Q vanishes on
    the orthogonal complement of the range of A.  Because the kernels of
    A and A_sym agree at real frequencies, M A = A_sym holds exactly and
    M is homogeneous of degree zero in xi.  A stack of frequencies of
    shape (..., 3) gives a stack of shape (..., 9, 9); any zero frequency
    in it raises ZeroFrequencyError.
    """
    xi = np.asarray(xi)
    if np.any(np.sqrt(np.sum(np.abs(xi) ** 2, axis=-1)) <= 1e-12):
        raise ZeroFrequencyError("multiplier needs a nonzero frequency")
    q = np.linalg.pinv(curl_symbol(xi, "devsym"), rcond=TOL_KERNEL)
    return curl_symbol(xi, "sym") @ q


def sharp_ratio(xi):
    """Largest ratio |sym(P x xi)| / |devsym(P x xi)| over admissible P.

    This is the operator norm of the multiplier: M maps devsym(P x xi) to
    sym(P x xi), and P outside the common kernel reaches every direction
    of the range of A.  One frequency gives a float, a (..., 3) stack an
    array of shape (...).
    """
    ratio = np.linalg.svd(build_multiplier(xi), compute_uv=False)[..., 0]
    return float(ratio) if np.ndim(ratio) == 0 else ratio


@dataclass(frozen=True)
class KernelWitness:
    """A complex frequency and coefficient killed by devsym-curl but not sym-curl.

    The pair satisfies devsym(p_hat x xi) = 0 while sym(p_hat x xi) = i*id,
    and the bilinear pairing <xi, xi> vanishes, which is why a complex
    frequency can do what no real one can.  The constructor checks all three
    identities and keeps those of the first two as devsym_residual and sym_residual.
    """

    p_hat: np.ndarray = field(default_factory=lambda: np.array(
        [[0, 0, -1], [0, 0, 1j], [0, -1j, 0]], dtype=complex))
    xi: np.ndarray = field(default_factory=lambda: np.array([1, 1j, 0], dtype=complex))
    devsym_residual: float = field(init=False)
    sym_residual: float = field(init=False)

    def __post_init__(self):
        c = self.p_hat @ anti(self.xi)
        object.__setattr__(self, "devsym_residual", float(mat_norm(dev(sym(c)))))
        object.__setattr__(self, "sym_residual", float(mat_norm(sym(c) - 1j * EYE3)))
        if self.devsym_residual > 1e-15:
            raise ValueError("witness failed: devsym(p_hat x xi) != 0")
        if self.sym_residual > 1e-15:
            raise ValueError("witness failed: sym(p_hat x xi) != i*id")
        if abs(complex(dot(self.xi, self.xi))) > 1e-15:
            raise ValueError("witness failed: <xi, xi> != 0")
