"""Numerical Korn constants on the periodic cube.

For each integer frequency k the quadratic form

    Q_k(P) = |sym P|^2 + |devsym(P x k)|^2

is a real symmetric 9x9 form, quadratic in k: the second term is the
trace-free symmetric curl symbol squared, and its two factors of i
cancel.  The estimate holds modulo the skew part of the modes the
derivatives cannot see, where Q_k is only |sym P|^2; there the form is
completed by |skew P|^2 to exactly |P|^2.
The estimated constant is c = 1 / sqrt(min_k lambda_min(Q_k)).

Two independent routes to the same number, each stating that zero-mode
rule once: a direct dense eigensolve of the real symmetric forms,
stacked over frequencies (the scan solves one representative per orbit of
the cube's signed permutations, in one stack; the rule sits in
frequency_form at k = 0), and a direct eigensolve of the assembled
field-level operator sym + curl(devsym(curl .)) on a grid (the rule sits
in its Fourier side, at the mean and the seven checkerboard modes).  The
grid operator commutes with translations, so it is one 9x9 block per grid
frequency.  Those blocks are probed through the fields module (the
operator applied to the nine constant coefficient arrays), never built
from the symbol, so the two routes stay independent.  The curl symbol
enters twice, so its factors of i cancel: every block is real, so the
block at -k is the block at k.  The planes k1 = 0..n/2 that a full-band
field stores hold every distinct block, so one stacked eigvalsh of those blocks gives
every grid eigenvalue, and the minimizing block's eigenvector (one eigh),
put at its frequency and at minus it, is the spectrum of a real eigenfield.
Two gates on the fields chain itself follow, in Fourier coefficients, so a
wrong probe cannot pass: that eigenfield must have a small residual, and the
blocks must reproduce the chain on a random field at every stored frequency
at once.
"""

import random
from dataclasses import dataclass

import numpy as np

from . import fields
from .algebra3 import _check_count, _finite, _no_overflow, _norm, _real, _unit, sym, tp
from .symbol import _CURL, basis_matrices, sharp_ratio

__all__ = [
    "ProbeError",
    "frequency_form", "lambda_min", "KornReport", "korn_constant",
    "grid_crosscheck", "equivalence_constant",
]

CONVENTION = ("form |sym P|^2 + |devsym(P x k)|^2 per integer frequency k of the "
              "2*pi-periodic cube; zero frequency restricted to the complement of "
              "the skew matrices; c = 1/sqrt(min lambda)")


# matrix of P -> sym P in the row-major flattening; sym is an orthogonal
# projector, so this matrix is also the Gram matrix S^T S of |sym P|^2
_SYM_FORM = sym(basis_matrices()).reshape(9, 9)
# |sym P|^2 + |skew P|^2 = |P|^2, so adding this to the k = 0 form (which is
# _SYM_FORM) gives exactly the identity: the zero-mode completion
_SKEW_FORM = np.eye(9) - _SYM_FORM
# the largest share of lambda_- that lambda_min's error bound may reach: met up
# to |k|^2 of about 1.4e11, far beyond korn --kmax 256 (|k|^2 <= 196608)
_LAMBDA_SHARE = 1e-3


def lobpcg(*args, **kwargs):
    """scipy.sparse.linalg.lobpcg, imported on first call.

    No kornlab code calls it, and only the test extra installs scipy: grid_crosscheck
    solves its blocks directly.  It stays because the benchmark's tracer names it.
    """
    from scipy.sparse.linalg import lobpcg as scipy_lobpcg
    return scipy_lobpcg(*args, **kwargs)


class ProbeError(RuntimeError):
    """The probed 9x9 blocks are not the grid operator of the fields chain."""


def frequency_form(k):
    """Completed real symmetric 9x9 form Q_k = S^T S + R_k^T R_k in the row-major flattening.

    R_k = sum_a k_a _CURL["devsym"][a] is i times the devsym curl symbol, and real.
    At k = 0 the derivatives see nothing and the skew matrices are null
    directions of S^T S; the estimate holds modulo them, so the form there is
    completed by _SKEW_FORM to exactly the identity.  A stack of frequencies
    of shape (..., 3) gives a stack of forms.  With t = |k|^2, S^T S + R_k^T R_k
    has the exact spectrum lambda_-+ = (2 + t -+ sqrt(t^2 + 4)) / 4, 1 and
    1 + t, each double, and t / 3 (proved in the tests in rational arithmetic).
    A frequency that is not finite is a ValueError (_finite), and so is a
    finite one too large for its form to be finite (|k| of about 1e154 and
    above: the entries grow as |k|^2).
    """
    k = _finite(_real(k, (3,), "frequency"), "frequency")
    r = np.einsum("...a,aij->...ij", k, _CURL["devsym"])
    with np.errstate(over="ignore", invalid="ignore"):
        q = _SYM_FORM + tp(r) @ r
    _no_overflow(q, "frequency is too large: its form overflows")
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
    skew = fields._map_planes(fields.pointwise_part(f, "skew"), 2, lambda c, K: np.where(
        K.any(axis=-1)[..., None, None], 0.0, c), "zero-mode completion")
    return fields.pointwise_part(f, "sym") + fields.apply_operator(inner, "curl_mat") + skew


def _probed_blocks(spec):
    """The operator's 9x9 block at every stored grid frequency, planes k1 = 0..n/2,
    shape (n/2 + 1, n, n, 9, 9), complex as probed.

    The operator commutes with translations, so applying it to the constant
    coefficient arrays E_j (real point masses) gives column j of every block
    at once as its image's spectrum coef: nine fields calls, no symbol.  A
    constant real array is finite and conjugate-symmetric, so the columns skip
    the checked constructor: each is one zero field mapped to E_j through
    fields._map_planes, as _apply_hat builds its completion.  The blocks are
    real, so the block at -k is the block at k, and the planes k1 = 0..n/2 hold
    every distinct one.
    """
    n = spec.n
    half = n // 2 + 1
    zero = fields.GridField(spec, 2, np.zeros((n, n, n, 3, 3)))
    q = np.empty((half, n, n, 9, 9), complex)
    for j, e in enumerate(basis_matrices().astype(complex)):
        column = fields._map_planes(zero, 2, lambda c, K: np.broadcast_to(e, c.shape),
                                    "probe column")
        q[..., j] = _apply_hat(column).coef[:half].reshape(half, n, n, 9)
    return q


def _grid_eigenpair(q):
    """Smallest eigenvalue of the real blocks q, shape (n/2 + 1, n, n, 9, 9), and the
    spectrum, shape (n, n, n, 3, 3), of a real eigenfield.

    One stacked eigvalsh gives every block's eigenvalues, and eigh of the first
    minimizing block, at stored index i, gives the value and its unit
    eigenvector v, so the two belong to each other.  v is the coefficient at i
    and at -i (mod n), zero elsewhere: the block at -k is the block at k, so
    this is an eigenfield, and v is real, so it is the real field
    2 v cos(k.x) / n^3 (v cos(k.x) / n^3 where -i is i).  lambda_-(1) is
    double at each |k| = 1 frequency, and any vector of that eigenspace is an
    eigenvector.
    """
    n = q.shape[1]
    w = np.linalg.eigvalsh(q)[..., 0]
    i = np.unravel_index(np.argmin(w), w.shape)
    lam, v = np.linalg.eigh(q[i])
    coef = np.zeros((n, n, n, 3, 3))
    coef[i] = coef[tuple(np.negative(i) % n)] = v[:, 0].reshape(3, 3)
    return float(lam[0]), coef


def grid_crosscheck(n):
    """Direct grid eigenvalue versus the per-frequency minimum.

    Finds the smallest eigenvalue of P -> sym P + curl(devsym(curl P)) on
    the real fields of an n^3 grid (n a power of two, at least 8), completed
    by skew P at the eight zero grid frequencies (_apply_hat), and returns
    |lambda_grid - min_k lambda_min(k)| over the frequencies the grid
    derivatives represent.  The completion puts the otherwise null skew
    modes at eigenvalue 1, above every grid minimum, so no mode is
    projected out.  The operator multiplies the Fourier coefficient of a
    field at k by the real probed 9x9 block of k (_probed_blocks), so one
    stacked eigvalsh of the blocks of the stored planes k1 = 0..n/2 and one
    eigh of the minimizing block (_grid_eigenpair) give lambda_grid and an
    eigenfield.  Three gates raise ProbeError: the probe has an imaginary
    part; the eigenfield's residual through the fields chain exceeds 1e-4 or
    is NaN (a spectrum that is not finite); or the blocks miss the chain on
    one seeded random field by more than 1e-10 relative on the stored
    planes.  That field's samples are white noise in [-0.5, 0.5) from the
    standard library's random.Random(1): numpy.random would be the only
    reason for a crosscheck process to import it (16 ms and 6 MB in a cold
    process on a 2-vCPU machine).
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
    lam_grid, coef = _grid_eigenpair(q)
    # a spectrum that is not finite is no field for the chain: the gate names it as NaN;
    # by Parseval the relative residual of the samples is that of the coefficients
    resid = np.nan
    if np.isfinite(lam_grid) and np.isfinite(coef).all():
        f = fields.GridField(spec, 2, coef)
        resid = float(_norm((_apply_hat(f) - lam_grid * f).coef, 5) / _norm(f.coef, 5))
    # an exact solve of the probed blocks can only miss the chain if the probe is wrong
    if not resid <= 1e-4:
        raise ProbeError("grid eigenpair misses the fields chain: residual %.3e" % resid)
    # the residual gate sees only the minimizing block; a random field has a
    # component at every frequency, so this sees every block.  Its random
    # complex F(k) pins the chain's multiplier at k to the real block; the
    # chain's image is real, so the planes k1 > n/2 follow by conjugate
    # symmetry.  q meets Re F and Im F apart: q @ F would upcast q to complex
    half = n // 2 + 1
    # 53 random bits per sample, an exact double in [0, 1), shifted to [-0.5, 0.5)
    bits = np.frombuffer(random.Random(1).randbytes(8 * 9 * n ** 3), "<u8")
    field = fields.field_from_samples(
        spec, 2, ((bits >> 11) * 2.0 ** -53 - 0.5).reshape(n, n, n, 3, 3))
    want = _apply_hat(field).coef[:half].reshape(half, n, n, 9, 1)
    F = field.coef[:half].reshape(half, n, n, 9, 1)
    got = q @ F.real + 1j * (q @ F.imag)
    miss = float(_norm(got - want, 5) / _norm(want, 5))
    if not miss <= 1e-10:
        raise ProbeError("probed blocks miss the fields chain by %.3e relative" % miss)

    # the scan includes k = 0, whose value 1 bounds every other minimum
    return abs(lam_grid - korn_constant(n // 2 - 1).lambda_global)


def equivalence_constant(samples=1000, seed=1):
    """Largest sym/devsym curl ratio over a sphere sample of directions.

    The directions are a deterministic draw: seed's standard normals, made unit.
    The ratio is direction independent; a spread above 1e-9 across the
    sample, or a NaN in it, means the symbol machinery is broken, so that
    is an error.
    """
    samples = _check_count("samples", samples)
    seed = _check_count("seed", seed, 0)
    dirs = _unit(np.random.default_rng(seed).standard_normal((samples, 3)))
    # stacked calls of at most 4096 directions: the multiplier stack and its
    # SVD workspace would otherwise grow without bound with --samples
    ratios = np.concatenate([sharp_ratio(dirs[i:i + 4096]) for i in range(0, samples, 4096)])
    spread = float(ratios.max() - ratios.min())
    if not spread <= 1e-9:
        raise RuntimeError("direction-dependent ratio (spread %.3e)" % spread)
    return float(ratios.max())
