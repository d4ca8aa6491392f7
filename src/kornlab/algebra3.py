"""Small dense algebra for 3-vectors and 3x3 matrices.

Conventions used throughout the package:

* vectors have shape (..., 3), matrices shape (..., 3, 3); every operation
  broadcasts over leading axes, so sample batches, stacks of frequencies
  and the tensor-last coefficient grids of kornlab.fields all go through
  the same code,
* entries may be real or complex.  The only pairing is the bilinear
  (non-conjugated) one, ``dot``/``frob``; magnitudes are measured by the Hermitian
  norms ``vec_norm``/``mat_norm``, exact across the double range (no silent 0 or inf),
* every direction goes through the private ``_unit``, whatever its scale; one is refused
  (ZeroDirectionError) only when it is zero or not finite,
* every input of the package meets one private reader here, whose refusal names it:
  ``_real`` (integer and float entries as float64; complex, bool, text and object a
  TypeError, never cast), ``_numeric`` (integer, float or complex entries, kept),
  ``_finite`` (NaN or inf a ValueError), ``_choice`` (one of a set of names; anything
  else a ValueError), ``_check_count``, ``_check_real`` and ``_check_instance``,
* ``cross(P, b)`` is the row-wise matrix cross product P @ anti(b), and
  ``anti(a) @ b == np.cross(a, b)``,
* ``random_rotation`` maps a (..., 4) stack of quaternions to rotation
  matrices; a standard normal draw gives uniform random rotations.
"""

import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotSkewError", "NotTracelessSymError", "ZeroDirectionError",
    "RANK_TOL",
    "numerical_rank", "anti", "axl", "cross", "sym", "skew", "dev", "tr", "tp",
    "dot", "frob", "vec_norm", "mat_norm",
    "OrthSplit", "orth_decompose", "recover_axial", "tangential_projector",
    "random_rotation",
]

_TOL_SKEW = 1e-9
RANK_TOL = 1e-8

EYE3 = np.eye(3)


class NotSkewError(ValueError):
    """Argument of axl is not skew-symmetric within tolerance."""


class NotTracelessSymError(ValueError):
    """Axial recovery needs a traceless symmetric matrix."""


class ZeroDirectionError(ValueError):
    """A direction vector is zero or not finite."""


def numerical_rank(s):
    """Number of singular values on the last axis of s above RANK_TOL times the largest.

    s holds singular values in descending order, as np.linalg.svd returns
    them, as a real array (_real) with at least one axis; an empty s has rank 0.
    """
    s = _real(s, (), "singular values")
    if s.ndim == 0:
        raise ValueError("singular values must have at least one axis, got a scalar")
    return np.sum(s > RANK_TOL * s[..., :1], axis=-1)


def _shaped(x, tail, name):
    """x as an array whose trailing axes are tail; a ValueError naming its shape otherwise."""
    x = np.asarray(x)
    if x.shape[x.ndim - len(tail):] != tail:
        raise ValueError("%s must have shape (..., %s), got %s"
                         % (name, ", ".join(map(str, tail)), x.shape))
    return x


def _numeric(x, tail, name, kinds="iufc"):
    """x as _shaped reads it, its dtype kept; a TypeError naming it unless its dtype
    kind is one of kinds: integer, float or complex, so bool, text and object are refused."""
    x = _shaped(x, tail, name)
    if x.dtype.kind not in kinds:
        raise TypeError("%s must be a %s array, got dtype %s"
                        % (name, "real" if "c" not in kinds else "real or complex", x.dtype))
    return x


def _real(x, tail, name):
    """x as a float64 array shaped as _shaped reads it (an empty tail: any shape); a
    TypeError naming it unless its dtype is integer or float, so nothing is cast away."""
    return _numeric(x, tail, name, "iuf").astype(float, copy=False)


def _finite(x, name):
    """x, or a ValueError naming it unless every entry is finite: no NaN and no inf."""
    if not np.isfinite(x).all():
        raise ValueError("%s must be finite" % name)
    return x


def _choice(name, value, choices):
    """value, or a ValueError naming it unless it is one of the strings choices."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError("%s must be one of %s, got %r" % (name, ", ".join(choices), value))
    return value


def _check_real(name, value):
    """value as a float; TypeError for a bool or a non-number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError("%s must be a real number, got %r" % (name, value))
    return float(value)


def _check_instance(name, value, cls):
    """value, or a TypeError naming it unless it is an instance of cls."""
    if not isinstance(value, cls):
        raise TypeError("%s must be a %s, got %r" % (name, cls.__name__, value))
    return value


def _check_count(name, value, least=1):
    """value as an int (TypeError unless it is integral and not a bool), ValueError below least."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError("%s must be an integer, got %r" % (name, value))
    value = operator.index(value)
    if value < least:
        raise ValueError("%s must be >= %d, got %d" % (name, least, value))
    return value


def _no_overflow(out, message, finite=None, axes=()):
    """out, computed under np.errstate(over="ignore", invalid="ignore"), or a ValueError with
    message where finite inputs gave a non-finite slot (out over axes): the one overflow guard.
    finite() masks the slots whose inputs are finite, built only if needed; None: every input
    is.  NaN and inf inputs propagate.  einsum and BLAS matmul set no flag: isfinite reads it."""
    if not np.isfinite(out).all():
        if finite is None or np.any(finite() & ~np.isfinite(out).all(axis=axes)):
            raise ValueError(message)
    return out


def anti(a):
    """Skew matrix of a, so that anti(a) @ b is the cross product a x b."""
    a = _numeric(a, (3,), "vector")
    out = np.zeros(a.shape[:-1] + (3, 3), dtype=a.dtype if a.dtype.kind == "c" else float)
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    out[..., 0, 1] = -a3
    out[..., 0, 2] = a2
    out[..., 1, 0] = a3
    out[..., 1, 2] = -a1
    out[..., 2, 0] = -a2
    out[..., 2, 1] = a1
    return out


def axl(A):
    """Axial vector of a skew matrix; inverse of anti.

    Raises NotSkewError when the symmetric part of A exceeds _TOL_SKEW relative
    to the size of A; A is read by _numeric and _finite.
    """
    A = _finite(_numeric(A, (3, 3), "matrix"), "matrix")
    scaled = A / _pow2(A, (-2, -1))      # exact: no norm of a finite A overflows
    defect = mat_norm(sym(scaled)) / np.maximum(mat_norm(scaled), 1e-300)
    if not np.all(defect <= _TOL_SKEW):
        raise NotSkewError("matrix is not skew-symmetric (relative defect %.3e)"
                           % float(np.max(defect)))
    return np.stack([A[..., 2, 1], A[..., 0, 2], A[..., 1, 0]], axis=-1)


def _cross(P, b):
    """cross's component formula, unchecked: the rows of P (..., 3, 3) crossed with b (..., 3)."""
    (P1, P2, P3), (b1, b2, b3) = np.moveaxis(P, -1, 0), np.moveaxis(b[..., None, :], -1, 0)
    first = P2 * b3 - P3 * b2
    out = np.empty(first.shape + (3,), first.dtype)
    out[..., 0] = first
    out[..., 1] = P3 * b1 - P1 * b3
    out[..., 2] = P1 * b2 - P2 * b1
    return out


def cross(P, b):
    """Matrix cross product P x b, acting on rows: P @ anti(b), each row crossed with b.

    Leading axes of P and b broadcast, so one call serves a single point,
    a stack of frequencies or a whole grid of coefficients.  The product is
    written out component by component (_cross): on a 16^3 coefficient grid
    that takes less than half the time of the batched 3x3 matmul, and it
    leaves the matmul an independent route for the identity checks.  A finite
    row and direction whose product overflows are a ValueError naming it
    (_no_overflow); NaN and inf entries propagate.
    """
    P = _numeric(P, (3, 3), "matrix")
    b = _numeric(b, (3,), "vector")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _cross(P, b)
    return _no_overflow(out, "entries are too large: the cross product overflows",
                        lambda: np.isfinite(P).all(-1) & np.isfinite(b).all(-1)[..., None], -1)


def sym(X):
    half = 0.5 * np.asarray(X)      # halved before the sum: finite entries never overflow
    return half + tp(half)


def skew(X):
    half = 0.5 * np.asarray(X)
    return half - tp(half)


def dev(X):
    """Trace-free part X - tr(X)/3 * id.

    The third of the trace (_third_trace) comes off the diagonal of one copy
    of X (through einsum's writable diagonal view); on a coefficient grid no
    (..., 3, 3) multiple of the identity is built.  Finite entries whose
    trace-free part overflows are a ValueError naming it (_no_overflow); NaN
    and inf entries propagate.
    """
    X = _numeric(X, (3, 3), "matrix")
    out = X.astype(np.result_type(X.dtype, float))
    with np.errstate(over="ignore", invalid="ignore"):
        np.einsum("...ii->...i", out)[...] -= _third_trace(X)[..., None]
    return _no_overflow(out, "entries are too large: the trace-free part overflows",
                        lambda: np.isfinite(X).all(axis=(-2, -1)), (-2, -1))


def tr(X):
    return np.einsum("...ii->...", np.asarray(X))


def _third_trace(X):
    """tr(X) / 3 as an array, that expression wherever it is finite; where finite
    diagonal entries overflow the trace (einsum gives inf, and no warning), recomputed
    from the diagonal over its _pow2, with no numpy warning.  NaN and inf entries
    propagate."""
    X = np.asarray(X)
    with np.errstate(invalid="ignore"):     # a complex inf over 3 is NaN
        third = np.asarray(tr(X) / 3.0)
    diag = np.einsum("...ii->...i", X)
    lost = ~np.isfinite(third) & np.isfinite(diag).all(axis=-1)
    if lost.any():
        d = diag[lost]
        top = _pow2(d, -1)
        third[lost] = np.sum(d / top, axis=-1) / 3.0 * top[:, 0]
    return third


def tp(X):
    return np.asarray(X).swapaxes(-1, -2)


def _pairing(a, b, rank, name):
    """sum(a * b) over the last rank axes of vectors (rank 1) or matrices (2) read by
    _numeric: a ValueError naming the pairing where finite entries give a product or a sum
    that overflows (_no_overflow); NaN and inf entries propagate."""
    a, b = (_numeric(x, (3,) * rank, ("vector", "matrix")[rank - 1]) for x in (a, b))
    axes = tuple(range(-rank, 0))
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.sum(a * b, axis=axes)
    return _no_overflow(out, "entries are too large: the %s pairing overflows" % name,
                        lambda: np.all(np.isfinite(a) & np.isfinite(b), axis=axes))


def dot(a, b):
    """Bilinear vector pairing sum_i a_i b_i (no conjugation); finite entries whose
    pairing overflows are a ValueError, and NaN and inf propagate (_pairing)."""
    return _pairing(a, b, 1, "dot")


def frob(P, Q):
    """Bilinear matrix pairing tr(P^T Q) = sum_ij P_ij Q_ij (no conjugation); finite
    entries whose pairing overflows are a ValueError, and NaN and inf propagate (_pairing)."""
    return _pairing(P, Q, 2, "frob")


def _pow2(x, axis=None):
    """The power of two 2^(e-1) <= max|x| < 2^e over axis (kept, for broadcasting); 0.5
    where max|x| is 0, inf or NaN.  Dividing by it is exact wherever the quotient is normal."""
    return np.ldexp(1.0, np.frexp(np.max(np.abs(x), axis=axis, keepdims=True))[1] - 1)


def _norm(x, rank):
    """Hermitian norm of x over its last rank axes; rank 0 gives |x|.

    sqrt(sum |x|^2), unless a square or the sum underflows or overflows: then the results
    outside [2^-480, 2^480] are recomputed from x over its _pow2.  NaN and inf propagate.
    """
    x = np.asarray(x)
    if rank == 0:
        return np.abs(x)
    axes = tuple(range(-rank, 0))
    try:
        with np.errstate(over="raise", under="raise"):
            return np.sqrt(np.sum(np.abs(x) ** 2, axis=axes))
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", under="ignore"):
        out = np.asarray(np.sqrt(np.sum(np.abs(x) ** 2, axis=axes)))
        bad = ~((out >= 2.0 ** -480) & (out <= 2.0 ** 480))
        a = np.abs(x[bad])
        top = _pow2(a, axes)
        out[bad] = np.sqrt(np.sum((a / top) ** 2, axis=axes)) * top.reshape(-1)
    return out[()]


def vec_norm(a):
    """Hermitian length of a vector."""
    return _norm(a, 1)


def mat_norm(X):
    """Hermitian Frobenius norm of a matrix."""
    return _norm(X, 2)


def _unit(v):
    """v over its Hermitian length, row by row; ZeroDirectionError if a length is 0 or non-finite."""
    length = _norm(v, 1)
    if not np.all((length > 0.0) & np.isfinite(length)):
        raise ZeroDirectionError("direction vector is zero or not finite")
    return v / length[..., None]


@dataclass(frozen=True, eq=False)
class OrthSplit:
    """Orthogonal split X = devsym + skew + sphere * id.

    The three parts are mutually orthogonal for the bilinear pairing, so the
    squared Hermitian norms add up (the spherical part contributes
    3 * |sphere|^2).
    """

    devsym: np.ndarray
    skew: np.ndarray
    sphere: np.ndarray | complex

    def reassemble(self):
        sphere = np.asarray(self.sphere)
        return self.devsym + self.skew + sphere[..., None, None] * EYE3


def orth_decompose(X):
    """Split X into trace-free symmetric, skew and spherical parts."""
    X = np.asarray(X)
    return OrthSplit(devsym=dev(sym(X)), skew=skew(X), sphere=_third_trace(X)[()])


def recover_axial(M, b):
    """Recover a from M = devsym(anti(a) x b) for a known real direction b.

    The map a -> devsym(anti(a) x b) is injective for b != 0 and linear in b; with
    u = b/|b| its left inverse is

        a = (2/|b|) * (M u - (1/4) <M u, u> u).

    M is read by _numeric and _finite, and must be traceless symmetric
    (NotTracelessSymError); b must be a real vector (_real) that is neither zero nor
    non-finite (ZeroDirectionError); its scale does not matter.
    """
    M = _finite(_numeric(M, (3, 3), "matrix"), "matrix")
    b = _real(b, (3,), "direction")
    # the gate reads M over its _pow2, exact, so that M - tp(M) cannot overflow; the
    # norm's floor 1e-300 stays in M's units: it binds only on a norm below 1e-300
    p = _pow2(M, (-2, -1))
    scaled = M / p
    cut = _TOL_SKEW * np.maximum(mat_norm(scaled), 1e-300 / np.minimum(p[..., 0, 0], 1.0))
    if not (np.all(mat_norm(scaled - tp(scaled)) <= 2.0 * cut)
            and np.all(np.abs(tr(scaled)) <= cut)):
        raise NotTracelessSymError("matrix is not traceless symmetric within tolerance")
    u = _unit(b)
    Mu = (M @ u[..., None])[..., 0]
    return 2.0 * ((Mu - 0.25 * dot(Mu, u)[..., None] * u) / vec_norm(b)[..., None])


def tangential_projector(nu):
    """Projector id - u (x) u onto the plane orthogonal to nu, u = nu/|nu| (_unit): the
    plane's condition dev sym(P x nu) = 0 is linear in nu, so its scale does not matter."""
    nu = _unit(_real(nu, (3,), "direction"))
    return EYE3 - nu[..., :, None] * nu[..., None, :]


def random_rotation(q):
    """Rotation matrices (..., 3, 3) of a (..., 4) stack of quaternions (w, x, y, z)."""
    q = _real(q, (4,), "quaternion")
    # the length as a matmul inner product: on a stack it rounds as the 1-D
    # np.linalg.norm of one quaternion does, where a sum over the axis need not;
    # q over its _pow2 first, exact, so that no square over- or underflows
    q = q / _pow2(q, -1)
    length = np.sqrt((q[..., None, :] @ q[..., :, None])[..., 0])
    if not np.all((length > 0.0) & np.isfinite(length)):
        raise ZeroDirectionError("quaternion length is zero or not finite")
    w, x, y, z = np.moveaxis(q / length, -1, 0)
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(q.shape[:-1] + (3, 3))
