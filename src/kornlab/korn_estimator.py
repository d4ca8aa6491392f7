"""Numerical Korn constants on the periodic cube.

For each integer frequency k the quadratic form

    Q_k(P) = |sym P|^2 + |devsym(P x k)|^2

is a Hermitian 9x9 form on complex 3x3 coefficients (the second term is
the trace-free symmetric curl symbol squared).  The estimate holds modulo
the skew part of the modes the derivatives cannot see, where Q_k is only
|sym P|^2; there the form is completed by |skew P|^2 to exactly |P|^2.
The estimated constant is c = 1 / sqrt(min_k lambda_min(Q_k)).

Two independent routes to the same number, each stating that zero-mode
rule once: a direct dense eigensolve of the complex Hermitian forms,
stacked over frequencies (the scan solves one representative per orbit of
the cube's signed permutations, in one stack; the rule sits in
frequency_form at k = 0), and an iterative smallest-eigenvalue solve of
the assembled field-level operator
sym + curl(devsym(curl .)) on a grid (the rule sits in its Fourier side,
at the mean and the seven checkerboard modes).  The grid operator
commutes with translations, so it is one 9x9 block per grid frequency.
Those blocks are probed through the fields module (the operator applied
to the nine constant coefficient arrays), never built from the symbol,
so the two routes stay independent.  The curl symbol enters twice, so
its factors of i cancel: every block is real, and in orthonormal Hartley
coordinates (_hartley) the operator on real fields is exactly one real
9x9 matrix per frequency.  LOBPCG runs there from a 2-column start
block, each iteration one stacked matmul with no FFT, preconditioned by
each block's exact (shifted) inverse.  Two gates on the fields chain
itself follow, so a wrong probe cannot pass: the eigenvector it returns
must have a small residual, and the blocks must reproduce the chain on
a random field at every frequency at once.
scipy is loaded on the first call of `lobpcg`, so importing kornlab
loads no scipy module.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import fields
from .algebra3 import _check_count, _norm, _real, _unit, sym, tp
from .symbol import _curl_symbol, basis_matrices, sharp_ratio

__all__ = [
    "NoConvergenceError", "ProbeError",
    "frequency_form", "lambda_min", "KornReport", "korn_constant",
    "grid_crosscheck", "equivalence_constant", "sphere_directions",
]

CONVENTION = ("form |sym P|^2 + |devsym(P x k)|^2 per integer frequency k of the "
              "2*pi-periodic cube; zero frequency restricted to the complement of "
              "the skew matrices; c = 1/sqrt(min lambda)")


# matrix of P -> sym P in the row-major flattening; sym is an orthogonal
# projector, so this matrix is also the Gram matrix S*S of |sym P|^2
_SYM_FORM = sym(basis_matrices()).reshape(9, 9)
# |sym P|^2 + |skew P|^2 = |P|^2, so adding this to the k = 0 form (which is
# _SYM_FORM) gives exactly the identity: the zero-mode completion
_SKEW_FORM = np.eye(9) - _SYM_FORM
# grid_crosscheck preconditions with (Q_k + _PRECOND_SHIFT * I)^-1 per grid
# frequency; the shift bounds every inverted block by 1/_PRECOND_SHIFT
# whatever the probe returns, and is applied in Hartley coordinates like the
# blocks.  A preconditioner cannot move the converged eigenvalue; at n = 16
# shifts 0, 0.05 and 0.2 took 14, 15 and 19 iterations
_PRECOND_SHIFT = 0.05
# LOBPCG start block width, drawn in Hartley coordinates.  Only lambda_min is
# wanted, and the Rayleigh-Ritz blocks, LOBPCG's (9 n^3, 3 * width) work
# arrays and each _apply_blocks matmul grow with the width: at n = 16, 1, 2,
# 3 and 4 columns took 16, 15, 16 and 15 iterations and 75.8, 79.4, 83.8
# and 88.0 MB peak RSS (scipy included; 16 columns took 164 MB).  Not 1:
# scipy then squeezes each residual-history row to a 0-d array, which a
# reader indexing the row by column cannot use
_START_COLUMNS = 2
# LOBPCG's own stopping rule; the start block is drawn from seed 1.  With the
# block preconditioner it stops after about 15 iterations at n = 8 and 16
_LOBPCG_MAXITER = 80
_LOBPCG_TOL = 1e-7
# the largest share of lambda_- that lambda_min's error bound may reach: met up
# to |k|^2 of about 1.4e11, far beyond korn --kmax 256 (|k|^2 <= 196608)
_LAMBDA_SHARE = 1e-3


def lobpcg(*args, **kwargs):
    """scipy.sparse.linalg.lobpcg, imported on first call.

    Only grid_crosscheck needs scipy; importing it here keeps about 0.3 s
    of scipy.sparse out of every other kornlab process.
    """
    from scipy.sparse.linalg import lobpcg as scipy_lobpcg
    return scipy_lobpcg(*args, **kwargs)


class NoConvergenceError(RuntimeError):
    """Iterative eigensolver did not reach the requested residual."""


class ProbeError(RuntimeError):
    """The probed 9x9 blocks are not the grid operator of the fields chain."""


def frequency_form(k):
    """Completed Hermitian 9x9 form Q_k = S*S + C_k*C_k in the row-major flattening.

    At k = 0 the derivatives see nothing and the skew matrices are null
    directions of S*S; the estimate holds modulo them, so the form there is
    completed by _SKEW_FORM to exactly the identity.  A stack of frequencies
    of shape (..., 3) gives a stack of forms.  With t = |k|^2, S*S + C_k*C_k
    has the exact spectrum lambda_-+ = (2 + t -+ sqrt(t^2 + 4)) / 4, 1 and
    1 + t, each double, and t / 3 (proved in the tests in rational arithmetic).
    A frequency that is not finite is a ValueError (curl_symbol's _finite),
    and so is a finite one too large for its form to be finite (|k| of about
    1e154 and above: the entries grow as |k|^2).
    """
    k = _real(k, (3,), "frequency")
    with np.errstate(over="ignore", invalid="ignore"):
        c = _curl_symbol(k, "devsym")
        q = _SYM_FORM + tp(c.conj()) @ c
    if not np.isfinite(q).all():
        raise ValueError("frequency is too large: its form overflows")
    q[~k.any(axis=-1)] += _SKEW_FORM
    return q


def _closed_form(t):
    """lambda_min's exact value at t = |k|^2, (2 + t - sqrt(t^2 + 4)) / 4 written without
    the cancellation at large t, and 1 at k = 0; and the eigensolve's error bound 16 eps t,
    a few ulps of the form's norm, which grows like t."""
    return np.where(t == 0.0, 1.0, t / (2.0 + t + np.hypot(t, 2.0))), 16.0 * np.finfo(float).eps * t


def lambda_min(k):
    """Smallest eigenvalue of Q_k and a unit minimizing 3x3 coefficient.

    k is one frequency or a stack of shape (..., 3); the values have shape
    (...) and the minimizers (..., 3, 3), from one stacked eigensolve of
    the completed forms.  At k = 0 the form is the identity: the value is
    exactly 1 and the minimizer is the symmetric E11.  Elsewhere it is lambda_-
    of frequency_form, least at |k| = 1: (3 - sqrt 5)/4, double, so c = sqrt(3 + sqrt 5).
    A frequency where the eigensolve's error bound exceeds _LAMBDA_SHARE of the
    exact lambda_- (both _closed_form) is a ValueError: |k| above about 3.7e5.
    """
    k = _real(k, (3,), "frequency")
    q = frequency_form(k)
    with np.errstate(over="ignore"):    # 2 + t + hypot(t, 2) is inf from t of about 9e307
        exact, bound = _closed_form(np.sum(k * k, axis=-1))
    if not np.all(bound <= _LAMBDA_SHARE * exact):
        raise ValueError("frequency is too large: its smallest eigenvalue is lost in rounding")
    w, v = np.linalg.eigh(q)
    return w[..., 0][()], v[..., 0].reshape(k.shape[:-1] + (3, 3))


@dataclass(frozen=True, eq=False)
class KornReport:
    kmax: int
    entries: np.ndarray          # rows (k1, k2, k3, lambda_min), lexicographic
    lambda_global: float
    c_estimate: float            # None when lambda_global is not positive
    tail_min: float
    non_monotone_tail: bool
    convention: str = CONVENTION


def korn_constant(kmax):
    """Scan all frequencies |k|_inf <= kmax and report the resulting constant.

    lambda_min is constant on each orbit of the 48 signed permutations of k
    (Q_Rk is Q_k conjugated by P -> R P R^T), so one stacked solve covers
    the representatives k1 >= k2 >= k3 >= 0, C(kmax + 3, 3) forms, and each
    entry of the cube reads the slot of its |k| sorted in descending order.
    The table starts at zero, so a slot left unfilled fails the report's
    (0, 1] check; c_estimate = 1/sqrt(lambda_global) is None when the
    minimum is not positive, since no finite constant follows.  The tail
    diagnostic flags the case where the outermost shell attains the global
    minimum, which would mean the scan radius truncated the search too
    early.
    """
    kmax = _check_count("kmax", kmax)
    a, b, c = np.indices((kmax + 1,) * 3)
    reps = np.argwhere((a >= b) & (b >= c))
    table = np.zeros(a.shape)
    table[tuple(reps.T)] = lambda_min(reps)[0]
    axis = np.arange(-kmax, kmax + 1)
    K = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    s = np.sort(np.abs(K), axis=-1)
    lam = table[s[:, 2], s[:, 1], s[:, 0]]
    lam_global = lam.min()
    tail_min = lam[s[:, 2] == kmax].min()
    return KornReport(
        kmax=kmax,
        entries=np.column_stack([K, lam]),
        lambda_global=float(lam_global),
        c_estimate=float(1.0 / np.sqrt(lam_global)) if lam_global > 0.0 else None,
        tail_min=float(tail_min),
        non_monotone_tail=bool(tail_min <= lam_global * (1.0 + 1e-12)),
    )


def _apply_hat(f):
    """The operator sym + curl(devsym(curl .)) on a real rank-2 field, spectrally.

    The mean and the seven checkerboard modes (every component 0 or n/2)
    have zero grid frequency: the derivatives drop them, and their skew
    part is added back, the same completion as frequency_form at k = 0.
    """
    inner = fields.pointwise_part(fields.apply_operator(f, "curl_mat"), "devsym")
    skew = fields._map_planes(fields.pointwise_part(f, "skew"), 2,
                              lambda c, K: np.where(K.any(axis=-1)[..., None, None], 0.0, c))
    return fields.pointwise_part(f, "sym") + fields.apply_operator(inner, "curl_mat") + skew


def _apply_fields(spec, v):
    """The operator on one real field, flattened to (9 n^3,), through the fields chain."""
    f = fields.field_from_samples(spec, 2, v.reshape((spec.n,) * 3 + (3, 3)))
    return fields.values(_apply_hat(f)).reshape(v.shape)


def _probed_blocks(spec):
    """The operator's 9x9 block at every grid frequency, shape (n, n, n, 9, 9).

    The operator commutes with translations, so applying it to the constant
    coefficient arrays E_j (real point masses) gives column j of every block
    at once as its image's full spectrum coef: nine fields calls, no symbol.
    """
    n = spec.n
    cols = [_apply_hat(fields.field_from_coef(spec, 2, np.broadcast_to(e, (n, n, n, 3, 3)))).coef
            for e in basis_matrices()]
    return np.stack(cols, axis=-1).reshape(n, n, n, 9, 9)


def _hartley(x, n):
    """Orthonormal Hartley transform of real fields, one per column of x.

    x has shape (9 n^3, m) or (9 n^3,), nine slots per grid point; each slot
    maps to (Re - Im)(fftn) / n^(3/2), the cas transform.  The map is
    orthogonal and symmetric, so it is its own inverse.
    """
    f = np.fft.fftn(x.reshape(n, n, n, 9, -1), axes=(0, 1, 2))
    return ((f.real - f.imag) / n ** 1.5).reshape(x.shape)


def _apply_blocks(blocks, x):
    """Per-frequency real 9x9 blocks applied in Hartley coordinates.

    blocks has shape (n, n, n, 9, 9); x holds the Hartley coordinates of
    real fields, shape (9 n^3, m) or (9 n^3,).  The operator multiplies the
    Fourier coefficients at k by Q(k); a real Q(k) commutes with taking
    real and imaginary parts, so it maps the cas coefficients at k the
    same way: the operator is one matmul per frequency.
    """
    n = blocks.shape[0]
    return (blocks @ x.reshape(n, n, n, 9, -1)).reshape(x.shape)


def grid_crosscheck(n):
    """Iterative grid eigenvalue versus the per-frequency minimum.

    Finds the smallest eigenvalue of P -> sym P + curl(devsym(curl P)) on
    the real fields of an n^3 grid (n a power of two, at least 8), completed
    by skew P at the eight zero grid frequencies (_apply_hat), with LOBPCG
    from a 2-column random start block (seed 1), and returns
    |lambda_grid - min_k lambda_min(k)| over the frequencies the grid
    derivatives represent.  The completion puts the otherwise null skew
    modes at eigenvalue 1, above every grid minimum, so no mode is
    projected out.  LOBPCG works in orthonormal Hartley coordinates
    (_hartley), where the operator is the real probed 9x9 block of each
    frequency (_probed_blocks) applied to its whole block of fields at
    once, and is preconditioned by the inverse of each block plus
    _PRECOND_SHIFT, so it stops by its tolerance _LOBPCG_TOL long before
    the cap of _LOBPCG_MAXITER iterations.  Two gates use the fields chain
    (_apply_fields), independently of the probe: NoConvergenceError if the
    returned eigenvector's explicit residual exceeds 1e-4 or is NaN (a
    vector that is not finite), and ProbeError if the blocks miss the chain
    on one seeded random field by more than 1e-10 relative, or if the probe
    has an imaginary part.  The first call loads scipy.sparse.linalg.
    """
    n = _check_count("n", n, 8)
    spec = fields.GridSpec(n)
    q = _probed_blocks(spec)
    scale = float(np.abs(q).max())
    imag = float(np.abs(q.imag).max())
    if not imag <= 1e-12 * scale:
        raise ProbeError("probed blocks are not real: max |Im| %.3e of max |q| %.3e"
                         % (imag, scale))
    # the copy lets the complex probe be freed
    q = q.real.copy()
    q_inv = np.linalg.inv(q + _PRECOND_SHIFT * np.eye(9))

    def op(x):
        return _apply_blocks(q, x)

    def precond(x):
        return _apply_blocks(q_inv, x)

    # H is orthogonal, so a Gaussian block drawn in Hartley coordinates has
    # the same distribution as one drawn on the grid
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((9 * n ** 3, _START_COLUMNS))
    # convergence is gated on the explicit residual check below, not on
    # lobpcg hitting tol for the whole block, so its warnings are noise
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w, v, hist = lobpcg(op, x0, M=precond, largest=False, tol=_LOBPCG_TOL,
                            maxiter=_LOBPCG_MAXITER, retResidualNormsHistory=True)
    lam_grid = float(np.min(w))
    vec = _hartley(v[:, int(np.argmin(w))], n)
    # a vector that is not finite is no field for the chain: the gate names it as NaN
    resid = (float(_norm(_apply_fields(spec, vec) - lam_grid * vec, 1) / _norm(vec, 1))
             if np.isfinite(vec).all() else np.nan)
    # lam_grid is a Rayleigh quotient: its error is at most resid^2 over the spectral
    # gap, exactly lambda_-(2) - lambda_-(1) = 0.1019...; 1e-4 keeps it below 1e-7.
    if not (np.isfinite(lam_grid) and resid <= 1e-4):
        # lobpcg returns its best iterate and cuts the history just after it,
        # so len(hist) - 2 is the iteration that made it; at the cap scipy
        # runs one update past maxiter, so this can exceed _LOBPCG_MAXITER
        raise NoConvergenceError("grid eigensolve stalled: residual %.3e after %d LOBPCG "
                                 "iterations (maxiter %d)"
                                 % (resid, len(hist) - 2, _LOBPCG_MAXITER))
    # the residual gate sees only the minimizing block (and names a wrong
    # one as a stall); a random field has a component at every frequency,
    # so this sees every block
    field = rng.standard_normal(9 * n ** 3)
    want = _hartley(_apply_fields(spec, field), n)
    miss = float(_norm(_apply_blocks(q, _hartley(field, n)) - want, 1) / _norm(want, 1))
    if not miss <= 1e-10:
        raise ProbeError("probed blocks miss the fields chain by %.3e relative" % miss)

    # the scan includes k = 0, whose value 1 bounds every other minimum
    return abs(lam_grid - korn_constant(n // 2 - 1).lambda_global)


def sphere_directions(samples, seed=1):
    """Deterministic batch of unit vectors."""
    samples = _check_count("samples", samples)
    seed = _check_count("seed", seed, 0)
    return _unit(np.random.default_rng(seed).standard_normal((samples, 3)))


def equivalence_constant(samples=1000, seed=1):
    """Largest sym/devsym curl ratio over a sphere sample of directions.

    The ratio is direction independent; a spread above 1e-9 across the
    sample, or a NaN in it, means the symbol machinery is broken, so that
    is an error.
    """
    dirs = sphere_directions(samples, seed)
    # stacked calls of at most 4096 directions: the multiplier stack and its
    # SVD workspace would otherwise grow without bound with --samples
    ratios = np.concatenate([sharp_ratio(dirs[i:i + 4096]) for i in range(0, samples, 4096)])
    spread = float(ratios.max() - ratios.min())
    if not spread <= 1e-9:
        raise RuntimeError("direction-dependent ratio (spread %.3e)" % spread)
    return float(ratios.max())
