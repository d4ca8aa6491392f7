"""Frequency-side 9x9 operators for the matrix curl.

Flattening convention (fixed here, used everywhere): a 3x3 matrix P is
identified with the length-9 vector P.reshape(9) in row-major order, so
component 3*r + c is P[r, c].  A SymbolOperator is a (9, 9) array acting
on such vectors, complex for a curl symbol and real for the multiplier; its
column j is the image of the basis matrix with a single 1 at (j // 3, j % 3).

The curl of a matrix field acts row-wise, and on the Fourier side a
coefficient P_hat at frequency xi is mapped to -i * (P_hat x xi); the
optional symmetric / trace-free symmetric projections are applied after
the cross product.  The map is linear in xi: the symbol is
-i * sum_a xi_a _CURL[part][a], where row a of the real table _CURL[part],
built once, is the matrix of P -> proj(P x e_a); each entry is nonzero in
one row only.  The degree-zero multiplier M(xi), in closed form, maps
the trace-free symmetric symbol onto the symmetric one, and the sharp ratio
sup |sym(P x xi)| / |devsym(P x xi)| = sqrt(3) is its operator norm.  Every
function of a frequency also takes a (..., 3) stack of frequencies.
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra3 import (EYE3, _choice, _finite, _numeric, _real, _unit, anti, cross, dev, dot,
                       mat_norm, numerical_rank, sym)

__all__ = ["ZeroFrequencyError", "basis_matrices", "curl_symbol", "apply_symbol", "KernelBasis",
           "kernel_basis", "build_multiplier", "sharp_ratio", "KernelWitness"]

_PARTS = {"full": lambda X: X, "sym": sym, "devsym": lambda X: dev(sym(X))}


class ZeroFrequencyError(ValueError):
    """The requested construction needs a nonzero frequency."""


def basis_matrices():
    """The nine 3x3 basis matrices in flattening order."""
    return np.eye(9).reshape(9, 3, 3)


# matrix of P -> dev sym P in the row-major flattening, an orthogonal projector
_DEVSYM = dev(sym(basis_matrices())).reshape(9, 9)
_CURL = {name: np.stack([proj(cross(basis_matrices(), e)).reshape(9, 9).T for e in EYE3])
         for name, proj in _PARTS.items()}


def curl_symbol(xi, part="full"):
    """Symbol of (a projection of) the row-wise matrix curl at frequency xi.

    Returns the 9x9 complex matrix of P_hat -> -i * proj(P_hat x xi).  A
    stack of frequencies of shape (..., 3) gives a stack of shape (..., 9, 9).
    xi is read by _numeric and _finite: bool or text a TypeError, NaN or inf a ValueError.
    Each entry is one product c * xi_a, |c| <= 1, so a finite xi gives a finite symbol.
    """
    table = _CURL[_choice("part", part, _CURL)]
    xi = _finite(_numeric(xi, (3,), "frequency"), "frequency")
    return np.einsum("...a,aij->...ij", xi, -1j * table)


def apply_symbol(op, P):
    """Apply a SymbolOperator to a 3x3 matrix, returning a 3x3 matrix.

    Leading axes of op and P broadcast, so a stack of symbols applies to a
    stack of coefficients in one call.
    """
    op = _numeric(op, (9, 9), "symbol")
    P = _numeric(P, (3, 3), "matrix")
    return (op @ P.reshape(P.shape[:-2] + (9,))[..., None])[..., 0].reshape(P.shape[:-2] + (3, 3))


@dataclass(frozen=True, eq=False)
class KernelBasis:
    """Orthonormal basis (Hermitian inner product) of a numerical kernel."""

    vectors: np.ndarray          # shape (dimension, 3, 3)
    dimension: int
    singular_values: np.ndarray  # all nine, descending


def kernel_basis(op):
    """Numerical kernel of a 9x9 SymbolOperator via SVD (ValueError for another shape or,
    through _finite, a NaN or inf entry; TypeError, through _numeric, for entries that
    are not integer, float or complex).

    Directions beyond the numerical rank (algebra3.numerical_rank) count as
    kernel.  The returned vectors are orthonormal 3x3 matrices.
    """
    op = _numeric(op, (), "operator").astype(complex, copy=False)
    if op.shape != (9, 9):
        raise ValueError("operator must have shape (9, 9), got %s" % (op.shape,))
    _, s, vh = np.linalg.svd(_finite(op, "operator"))
    rank = int(numerical_rank(s))
    vecs = vh[rank:].conj().reshape(-1, 3, 3)
    return KernelBasis(vectors=vecs, dimension=9 - rank, singular_values=s)


def build_multiplier(xi):
    """Bounded degree-0 multiplier M with M(xi) A(xi) = A_sym(xi), in closed form.

    A and A_sym are the trace-free symmetric and the symmetric curl symbol.  With
    u = xi/|xi|, M X = X - (u^T X u) id on trace-free symmetric X (u^T S u = 0 for
    S = sym(P x xi)) and M = 0 on their complement.  A real (_real) finite (_finite) (..., 3)
    stack of any scale gives a real (..., 9, 9) stack; xi = 0 is a ZeroFrequencyError.
    """
    xi = _finite(_real(xi, (3,), "frequency"), "frequency")
    if np.any(~xi.any(-1)):
        raise ZeroFrequencyError("multiplier needs a nonzero frequency")
    u = _unit(xi)
    d = dev(u[..., :, None] * u[..., None, :])
    return _DEVSYM - EYE3.reshape(9, 1) * d.reshape(d.shape[:-2] + (1, 9))


def sharp_ratio(xi):
    """Largest ratio |sym(P x xi)| / |devsym(P x xi)| over admissible P.

    This is the operator norm of the multiplier: M maps devsym(P x xi) to sym(P x xi),
    and P outside the common kernel reaches every direction of the range of A.  One
    frequency gives a float, a (..., 3) stack an array of shape (...).
    """
    ratio = np.linalg.svd(build_multiplier(xi), compute_uv=False)[..., 0]
    return float(ratio) if np.ndim(ratio) == 0 else ratio


@dataclass(frozen=True, eq=False)
class KernelWitness:
    """A complex frequency and coefficient killed by devsym-curl but not sym-curl.

    The pair satisfies devsym(p_hat x xi) = 0 while sym(p_hat x xi) = i*id,
    and the bilinear pairing <xi, xi> vanishes, which is why a complex
    frequency can do what no real one can.  The constructor checks all three
    identities, each as a pass condition that a NaN fails, and keeps those of
    the first two as devsym_residual and sym_residual.
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
        if not self.devsym_residual <= 1e-15:
            raise ValueError("witness failed: devsym(p_hat x xi) != 0")
        if not self.sym_residual <= 1e-15:
            raise ValueError("witness failed: sym(p_hat x xi) != i*id")
        if not abs(complex(dot(self.xi, self.xi))) <= 1e-15:
            raise ValueError("witness failed: <xi, xi> != 0")
