"""Numerical Korn constants on the periodic cube.

For each integer frequency k the quadratic form

    Q_k(P) = |sym P|^2 + |devsym(P x k)|^2

is a Hermitian 9x9 form on complex 3x3 coefficients (the second term is
the trace-free symmetric curl symbol squared).  Constant skew fields are
the only null directions, so the zero frequency is minimized on the
complement of the skew matrices, where the form is exactly the identity.
The estimated constant is c = 1 / sqrt(min_k lambda_min(Q_k)).

Two independent routes to the same number: a direct dense eigensolve per
frequency (eigensolves run through the doubled real symmetric embedding
of the Hermitian form), and an iterative smallest-eigenvalue solve of the
assembled field-level operator sym + curl(devsym(curl .)) on a grid,
deflating the modes the derivative multipliers cannot see.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, lobpcg

from . import fields
from .algebra3 import sym, tp
from .symbol import basis_matrices, curl_symbol, sharp_ratio

__all__ = [
    "NoConvergenceError",
    "frequency_form", "lambda_min", "KornReport", "korn_constant",
    "grid_crosscheck", "equivalence_constant", "sphere_directions",
]

CONVENTION = ("form |sym P|^2 + |devsym(P x k)|^2 per integer frequency k of the "
              "2*pi-periodic cube; zero frequency restricted to the complement of "
              "the skew matrices; c = 1/sqrt(min lambda)")


# matrix of P -> sym P in the row-major flattening; sym is an orthogonal
# projector, so this matrix is also the Gram matrix S*S of |sym P|^2
_SYM_FORM = sym(basis_matrices()).reshape(9, 9)


class NoConvergenceError(RuntimeError):
    """Iterative eigensolver did not reach the requested residual."""


def frequency_form(k):
    """Hermitian 9x9 form Q_k = S*S + C_k*C_k in the row-major flattening.

    A stack of frequencies of shape (..., 3) gives a stack of forms.
    """
    k = np.asarray(k, dtype=float)
    c = curl_symbol(k, "devsym")
    return _SYM_FORM + tp(c.conj()) @ c


def _eigh_real_embedding(h):
    """Eigen-decomposition of a Hermitian matrix via its doubled real embedding."""
    re, im = h.real, h.imag
    emb = np.block([[re, -im], [im, re]])
    w, v = np.linalg.eigh(emb)
    return w, v


def lambda_min(k):
    """Smallest eigenvalue of Q_k and a minimizing 3x3 coefficient.

    At k = 0 the form is restricted to the complement of the skew
    matrices, where it equals the identity (so the value is exactly 1).
    """
    k = np.asarray(k, dtype=float)
    q = frequency_form(k)
    if not k.any():
        w_basis = _symmetric_basis()            # (9, 6), real orthonormal columns
        q6 = w_basis.T @ q.real @ w_basis
        w, v = _eigh_real_embedding(q6.astype(complex))
        m = w_basis @ (v[:6, 0] + 1j * v[6:, 0])
    else:
        w, v = _eigh_real_embedding(q)
        m = v[:9, 0] + 1j * v[9:, 0]
    m = m / np.linalg.norm(m)
    return float(w[0]), m.reshape(3, 3)


def _symmetric_basis():
    cols = []
    for i in range(3):
        for j in range(i, 3):
            M = np.zeros((3, 3))
            M[i, j] = M[j, i] = 1.0
            cols.append(M.reshape(9) / np.linalg.norm(M))
    return np.array(cols).T


@dataclass(frozen=True)
class KornReport:
    kmax: int
    entries: np.ndarray          # rows (k1, k2, k3, lambda_min), lexicographic
    lambda_global: float
    c_estimate: float
    tail_min: float
    non_monotone_tail: bool
    convention: str = CONVENTION


def korn_constant(kmax):
    """Scan all frequencies |k|_inf <= kmax and report the resulting constant.

    The tail diagnostic flags the case where the outermost shell attains
    the global minimum, which would mean the scan radius truncated the
    search too early.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    rows = []
    lam_global = np.inf
    tail_min = np.inf
    rng_axis = range(-kmax, kmax + 1)
    for k1 in rng_axis:
        for k2 in rng_axis:
            for k3 in rng_axis:
                lam, _ = lambda_min([k1, k2, k3])
                rows.append((k1, k2, k3, lam))
                lam_global = min(lam_global, lam)
                if max(abs(k1), abs(k2), abs(k3)) == kmax:
                    tail_min = min(tail_min, lam)
    entries = np.array(rows)
    non_monotone = bool(tail_min <= lam_global * (1.0 + 1e-12))
    return KornReport(
        kmax=int(kmax),
        entries=entries,
        lambda_global=float(lam_global),
        c_estimate=float(1.0 / np.sqrt(lam_global)),
        tail_min=float(tail_min),
        non_monotone_tail=non_monotone,
    )


def _deflation_basis(spec):
    """Real skew fields invisible to the derivative multipliers.

    The mean and the unpaired checkerboard modes (every component 0 or
    -n/2) have zero derivative; their skew content must be deflated before
    asking for the smallest eigenvalue.
    """
    n = spec.n
    m = np.arange(n)
    out = []
    for f1 in (0, 1):
        for f2 in (0, 1):
            for f3 in (0, 1):
                sign = (np.where(f1, (-1.0) ** m, 1.0)[:, None, None]
                        * np.where(f2, (-1.0) ** m, 1.0)[None, :, None]
                        * np.where(f3, (-1.0) ** m, 1.0)[None, None, :])
                for ax in range(3):
                    e = np.zeros(3)
                    e[ax] = 1.0
                    A = np.zeros((3, 3))
                    A[(ax + 1) % 3, (ax + 2) % 3] = -1.0
                    A[(ax + 2) % 3, (ax + 1) % 3] = 1.0
                    fld = sign[..., None, None] * A
                    v = fld.reshape(-1)
                    out.append(v / np.linalg.norm(v))
    return np.array(out).T


def grid_crosscheck(n, seed=1, iterations=80, tol=1e-7):
    """Iterative grid eigenvalue versus the per-frequency minimum.

    Assembles P -> sym P + curl(devsym(curl P)) through the fields module
    on an n^3 grid (n a power of two, at least 8), finds its smallest
    eigenvalue on the deflated real field space with blocked LOBPCG, and
    returns |lambda_grid - min_k lambda_min(k)| over the frequencies the
    grid derivatives represent.
    """
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError("grid size must be a power of two, at least 8")
    spec = fields.GridSpec(n)
    dim = 9 * n ** 3
    defl = _deflation_basis(spec)
    shift = 10.0

    def matvec(v):
        v = np.asarray(v).reshape(-1)
        coef = np.fft.fftn(v.reshape(n, n, n, 3, 3), axes=(0, 1, 2))
        f = fields.field_from_coef(spec, 2, coef, "complex")
        s = fields.pointwise_part(f, "sym")
        c = fields.apply_operator(f, "curl_mat")
        c = fields.pointwise_part(c, "devsym")
        c = fields.apply_operator(c, "curl_mat")
        out = np.fft.ifftn(s.coef + c.coef, axes=(0, 1, 2)).real
        return out.reshape(dim) + shift * (defl @ (defl.T @ v))

    # inverse-Helmholtz smoother: scalar per frequency, spectrally equivalent
    # to the inverse of the operator without using its 9x9 block structure
    k1d = np.fft.fftfreq(n) * n
    k1d[n // 2] = 0.0
    ksq = (k1d[:, None, None] ** 2 + k1d[None, :, None] ** 2 + k1d[None, None, :] ** 2)
    smoother = (1.0 / (1.0 + ksq))[..., None, None]

    def precond(v):
        v = np.asarray(v).reshape(-1)
        c = np.fft.fftn(v.reshape(n, n, n, 3, 3), axes=(0, 1, 2)) * smoother
        return np.fft.ifftn(c, axes=(0, 1, 2)).real.reshape(-1)

    op = LinearOperator((dim, dim), matvec=matvec, dtype=float)
    prec = LinearOperator((dim, dim), matvec=precond, dtype=float)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((dim, 16))
    x0 -= defl @ (defl.T @ x0)
    # convergence is gated on the explicit residual check below, not on
    # lobpcg hitting tol for the whole block, so its warnings are noise
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w, v, hist = lobpcg(op, x0, M=prec, largest=False, tol=tol, maxiter=iterations,
                            retResidualNormsHistory=True)
    lam_grid = float(np.min(w))
    vec = v[:, int(np.argmin(w))]
    resid = float(np.linalg.norm(matvec(vec) - lam_grid * vec) / np.linalg.norm(vec))
    # lam_grid is a Rayleigh quotient, so its error is bounded by resid^2
    # over the spectral gap (about 0.1 here); 1e-4 keeps it below 1e-7.
    if not np.isfinite(lam_grid) or resid > 1e-4:
        raise NoConvergenceError("grid eigensolve stalled: residual %.3e after %d iterations"
                                 % (resid, iterations))

    half = n // 2
    lam_direct = 1.0
    for k1 in range(-half + 1, half):
        for k2 in range(-half + 1, half):
            for k3 in range(-half + 1, half):
                if (k1, k2, k3) == (0, 0, 0):
                    continue
                lam, _ = lambda_min([k1, k2, k3])
                lam_direct = min(lam_direct, lam)
    return abs(lam_grid - lam_direct)


def sphere_directions(samples, seed=1):
    """Deterministic batch of unit vectors."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((samples, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def equivalence_constant(samples=1000, seed=1):
    """Largest sym/devsym curl ratio over a sphere sample of directions.

    The ratio is direction independent; a spread above 1e-9 across the
    sample means the symbol machinery is broken, so that is an error.
    """
    ratios = np.array([sharp_ratio(xi) for xi in sphere_directions(samples, seed)])
    spread = float(ratios.max() - ratios.min())
    if spread > 1e-9:
        raise RuntimeError("direction-dependent ratio (spread %.3e)" % spread)
    return float(ratios.max())
