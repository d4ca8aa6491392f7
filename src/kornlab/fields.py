"""Tensor fields: spectral calculus on the periodic cube, quadrature on boxes.

Periodic side
-------------
Fields live on the uniform n x n x n grid of the cube [0, 2*pi)^3 and are
real, as the paper's fields are.  A field is given by its discrete Fourier
coefficients GridField.coef (numpy fftn layout over the three grid axes,
integer frequencies GridSpec.frequencies), which are exactly
conjugate-symmetric and vanish outside its band b, the largest |k|_inf at
which a coefficient can be nonzero.  So it stores only the box of its band:
planes k1 = 0..b at k2, k3 in {0..b, -b..-1} (fftn order), shape
(b + 1, 2b + 1, 2b + 1); the full band b = n/2 is stored as (n/2 + 1, n, n).
coef embeds the box in zeros (_embed) and mirrors the rest on read (_mirror,
the one conjugate mirror).  Entry fields hold the full band, except that
random_bandlimited keeps only its own; a derived field keeps its input's.
Only this module reads the stored box: the maps below run on it, values
reads the samples off it with one real inverse FFT, coef_peak its largest
norm, and every field computed from fields, here or in another module,
leaves through _map_planes.  The derivative multipliers drop the
unpaired Nyquist mode so that derived fields stay real.  Coefficients
and grid samples are stored tensor-last: scalar fields have shape
(n, n, n), vector fields (n, n, n, 3), matrix fields (n, n, n, 3, 3).
Every pointwise operation is therefore a broadcast call into algebra3.

Each field map is one table row that states its ranks: _OPS (the
operators of apply_operator) and _PARTS (the slot-wise maps of
pointwise_part) give, per name and input rank, the output rank and the map.

Coefficients are checked where they enter: the GridField constructor,
field_from_coef, field_from_samples, load_field and random_bandlimited
refuse coefficients that are not finite or not conjugate-symmetric (the
planes k1 = 0..n/2 against their _mirror), snap the rest to exact
symmetry, and refuse a coefficient whose Hermitian norm overflows.  Fields
computed from fields (the table maps, + - and scalar *) keep that symmetry
exactly, so _map_planes builds them without a copy or a re-check of it, but
refuses planes that overflowed, in an entry or in a norm (_finite_norms):
every field is finite, and so is its coef_peak.  A scalar factor is a
finite real number.
Every argument meets one reader that names it: algebra3's shared ones
(fields, grids, coefficients, samples, counts, names) or this module's
_check_exponent, _check_rank, _check_path.

The matrix curl acts on rows: on the Fourier side a coefficient P at
frequency k goes to -i * (P x k) = -i * cross(P, k), and "inc" is the curl
of the transposed curl.

Box side
--------
Non-periodic profiles (polynomial growth families, exponential boundary
layers) are never forced through the FFT; they are integrated directly
with tensorized Gauss-Legendre rules on a BoxDomain, built once per size,
starting at 64 points per axis and doubling until the result moves by
less than 0.1% (capped at 1024 points per axis, then UnderResolvedError).
An integrand that vanishes off a ball about the origin (the boundary layer
of halfspace_ratio) is evaluated only at the nodes strictly inside the ball,
in blocks of at most _BLOCK nodes (_box_sum): the nodes left out contribute
exact zeros, so the sum is the full tensor sum in another order.  An axis
symmetric about 0 in which the integrand is even keeps its positive nodes at
doubled weights (_rules): mirrored nodes hold equal values, so again only
the order of the sum changes.  halfspace_ratio folds x2 and x3 (its witness
forms are closed-form diagonal constants, checked against the witness in the
tests); growth_ratio folds x1 and x2 when symmetric, a quarter of the nodes
on [-1, 1]^3, and builds its tables once per box and rule size.
"""

import math
import os
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra3 import (EYE3, _check_count, _check_instance, _check_real, _choice, _cross,
                       _finite, _no_overflow, _norm, _numeric, _pow2, _real, anti, axl, dev,
                       skew, sym, tp, tr)

__all__ = [
    "RankMismatchError", "BadExponentError", "BandTooWideError", "UnderResolvedError",
    "NonFiniteError", "CorruptFieldError",
    "GridSpec", "GridField", "BoxDomain",
    "field_from_samples", "field_from_coef", "values",
    "apply_operator", "pointwise_part",
    "coef_peak", "random_bandlimited",
    "growth_ratio", "halfspace_ratio", "bump_profile",
    "dump_field", "load_field",
]

QUAD_START = 64
QUAD_CAP = 1024
QUAD_RTOL = 1e-3
REALITY_TOL = 1e-12

_STRUCTURES = {"scalar": (0, None), "vector": (1, None),     # name: (rank, part or None)
               "general": (2, None), "sym": (2, "sym"), "skew": (2, "skew")}


class RankMismatchError(ValueError):
    """Operator applied to a field of the wrong tensor rank."""


class BadExponentError(ValueError):
    """Lebesgue exponent outside the supported range [1, 64]."""


class BandTooWideError(ValueError):
    """Requested band limit does not fit on the grid without aliasing."""


class UnderResolvedError(RuntimeError):
    """Quadrature refinement hit the cap before the result settled."""


class NonFiniteError(ArithmeticError):
    """A quadrature produced an infinite or NaN value."""


class CorruptFieldError(ValueError):
    """A field file has a malformed header or a payload that does not fit it.

    The payload is of the wrong size, or not finite and conjugate-symmetric.
    """


def _check_exponent(p):
    """p as a float in [1, 64] (BadExponentError), TypeError for a bool or a non-number."""
    p = _check_real("exponent", p)
    if not (1.0 <= p <= 64.0):
        raise BadExponentError("exponent %r outside [1, 64]" % p)
    return p


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: n samples per axis on [0, 2*pi)^3, n a power of two."""

    n: int

    def __post_init__(self):
        n = _check_count("n", self.n, 4)
        object.__setattr__(self, "n", n)
        if n & (n - 1):
            raise ValueError("grid size must be a power of two, at least 4; got %r" % n)

    @property
    def x(self):
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @property
    def frequencies(self):
        return (np.fft.fftfreq(self.n) * self.n).astype(int)


@lru_cache(maxsize=None)
def _freq_grids(n):
    """Integer frequency vectors, shape (n, n, n, 3), Nyquist mode zeroed."""
    k = GridSpec(n).frequencies.astype(float)
    k[n // 2] = 0.0          # unpaired mode: dropped by every derivative
    K = np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1)
    K.setflags(write=False)
    return K


def _box_index(b, w):
    """Positions of the frequencies 0..b, -b..-1 (fftn order) on an axis of w slots; the
    whole axis when 2b >= w, as for the full band b = n/2 stored on w = n."""
    return np.r_[0:b + 1, w - b:w] if 2 * b < w else np.arange(w)


@lru_cache(maxsize=None)
def _band_freqs(n, b):
    """The frequencies of band b's stored box on an n grid: _freq_grids' planes k1 = 0..b
    at k2, k3 in _box_index(b, n), shape (b + 1, w, w, 3), read-only."""
    i = _box_index(b, n)
    K = _freq_grids(n)[:b + 1, i[:, None], i]
    K.setflags(write=False)
    return K


def _embed(planes, b, n):
    """A stored box of band len(planes) - 1 <= b in zeros, as band b's box on an n grid:
    planes itself when it already is."""
    if len(planes) == b + 1:
        return planes
    w = min(2 * b + 1, n)
    out = np.zeros((b + 1, w, w) + planes.shape[3:], complex)
    i = _box_index(len(planes) - 1, w)
    out[:len(planes), i[:, None], i] = planes
    return out


def _mirror(coef, k1, n):
    """conj(coef) at -k (mod n) on the three grid axes, for the planes k1 only."""
    return np.conj(np.roll(coef[-k1 % n, ::-1, ::-1], 1, axis=(1, 2)))


def _coef_shape(rank, n):
    return (n, n, n) + (3,) * rank


def _check_rank(rank):
    """rank as an int, 0, 1 or 2: read by _check_count, a ValueError above 2."""
    rank = _check_count("rank", rank, 0)
    if rank > 2:
        raise ValueError("rank must be 0, 1 or 2, got %d" % rank)
    return rank


@dataclass(frozen=True, init=False, eq=False)
class GridField:
    """Immutable real periodic tensor field: its full fftn spectrum coef is finite and
    conjugate-symmetric, checked against its _mirror on entry, and _planes stores the
    box of its band b = len(_planes) - 1 (the full band n/2 from the constructor);
    f + g, f - g (in the wider band of the two), f * c (c finite and real, not a bool)
    and the table maps leave through _map_planes, which refuses planes that overflowed."""

    spec: GridSpec
    rank: int
    _planes: np.ndarray

    def __init__(self, spec, rank, coef):
        spec = _check_instance("spec", spec, GridSpec)
        rank = _check_rank(rank)
        coef = np.array(_numeric(coef, (), "coefficients"), dtype=complex, order="C", copy=True)
        if coef.shape != _coef_shape(rank, spec.n):
            raise ValueError("coefficient shape %s does not match rank %d on n=%d"
                             % (coef.shape, rank, spec.n))
        if not np.isfinite(coef).all():
            raise ValueError("coefficients are not finite")
        # planes k1 = 0..n/2 meet every pair k, -k, and |a - conj b| is |b - conj a| exactly;
        # halved, exactly, as sym does: no finite scale or snap overflows (a defect is inf)
        half = spec.n // 2 + 1
        planes, mirror = 0.5 * coef[:half], 0.5 * _mirror(coef, np.arange(half), spec.n)
        scale = max(float(np.abs(planes).max()), float(np.abs(mirror).max()), 0.5)
        with np.errstate(over="ignore"):
            if float(np.abs(planes - mirror).max()) > REALITY_TOL * scale:
                raise ValueError("coefficients lack conjugate symmetry")
        # snap to exact symmetry: every map below keeps it exactly, which is why derived
        # fields skip this check (tests/test_fields.py pins it for each of them)
        _fill(self, spec, rank, _finite_norms(
            planes + mirror, rank, "coefficients are too large: their norm overflows"))

    @property
    def coef(self):
        """The full fftn spectrum, read-only, built on each read: the stored box in
        zeros (_embed), and the plane k1 > n/2 the conjugate of the plane n - k1 at
        -k2, -k3 (mod n)."""
        n = self.spec.n
        planes = _embed(self._planes, n // 2, n)
        coef = np.concatenate([planes, _mirror(planes, np.arange(n // 2 + 1, n), n)])
        coef.setflags(write=False)
        return coef

    def _binary(self, other, op, name):
        if not isinstance(other, GridField):
            return NotImplemented
        if other.spec != self.spec or other.rank != self.rank:
            raise RankMismatchError("fields live on different grids or ranks")
        wide = max(self, other, key=lambda g: len(g._planes))
        b = len(wide._planes) - 1
        return _map_planes(wide, self.rank, lambda planes, K: op(
            _embed(self._planes, b, self.spec.n), _embed(other._planes, b, self.spec.n)), name)

    def __add__(self, other):
        return self._binary(other, np.add, "+")

    def __sub__(self, other):
        return self._binary(other, np.subtract, "-")

    def __mul__(self, c):
        c = _finite(_check_real("scalar", c), "scalar")
        return _map_planes(self, self.rank, lambda planes, K: c * planes, "*")

    __rmul__ = __mul__


# per rank, the largest real or imaginary part of the 3^rank entries of a coefficient at
# which its Hermitian norm, at most sqrt(2 * 3^rank) times that part, is still finite
_SAFE_PART = tuple(np.finfo(float).max / math.sqrt(2 * 3 ** rank) for rank in range(3))


def _finite_norms(planes, rank, message):
    """planes, or a ValueError with message unless every entry and every coefficient's
    Hermitian norm are finite, with no numpy warning.  Parts within _SAFE_PART pass on
    two reductions, no dearer than isfinite; others meet algebra3._no_overflow on the
    entries and then on their norms (_norm)."""
    parts = np.ascontiguousarray(planes).view(float)
    if parts.max() <= _SAFE_PART[rank] and parts.min() >= -_SAFE_PART[rank]:
        return planes
    _no_overflow(planes, message)
    _no_overflow(_norm(planes, rank), message)
    return planes


def _fill(f, spec, rank, planes):
    """f holding the stored planes, frozen."""
    planes.setflags(write=False)
    vars(f).update(spec=spec, rank=rank, _planes=planes)
    return f


def field_from_coef(spec, rank, coef):
    return GridField(spec=spec, rank=rank, coef=coef)


def field_from_samples(spec, rank, samples):
    """Build a field from real grid samples of shape (n, n, n) + (3,) * rank."""
    spec = _check_instance("spec", spec, GridSpec)
    rank = _check_rank(rank)
    samples = _real(samples, (), "samples")
    if samples.shape != _coef_shape(rank, spec.n):
        raise ValueError("sample shape %s does not match rank %d on n=%d"
                         % (samples.shape, rank, spec.n))
    with np.errstate(over="ignore", invalid="ignore"):     # coefficients that overflow: refused
        return GridField(spec=spec, rank=rank, coef=np.fft.fftn(samples, axes=(0, 1, 2)))


def values(f):
    """Grid samples, float64, from the stored box embedded in the full band k1 = 0..n/2."""
    n = _check_instance("field", f, GridField).spec.n
    return np.fft.irfftn(_embed(f._planes, n // 2, n), s=(n, n, n), axes=(1, 2, 0))


def _curl(coef, K):
    return -1j * _cross(coef, K)        # unchecked: _map_planes checks what leaves


_OPS = {    # name: {input rank: (output rank, map of coefficients c at frequencies K)}
    "grad": {0: (1, lambda c, K: 1j * K * c[..., None]),
             1: (2, lambda c, K: 1j * (c[..., :, None] * K[..., None, :]))},
    "div": {1: (0, lambda c, K: 1j * np.sum(c * K, axis=-1))},
    "curl_vec": {1: (1, lambda c, K: 1j * np.cross(K, c))},
    "curl_mat": {2: (2, _curl)}, "inc": {2: (2, lambda c, K: _curl(tp(_curl(c, K)), K))},
}
_PARTS = {  # name: (input rank, output rank, slot-wise map)
    "transpose": (2, 2, tp), "sym": (2, 2, sym), "skew": (2, 2, skew), "dev": (2, 2, dev),
    "devsym": (2, 2, lambda X: dev(sym(X))), "trace": (2, 0, tr),
    "axl": (2, 1, lambda X: axl(skew(X))), "anti": (1, 2, anti),
    "spherical": (0, 2, lambda z: z[..., None, None] * EYE3),
}


def apply_operator(f, op):
    """Apply a differential operator spectrally.

    op is one of "grad" (rank 0 -> 1 or 1 -> 2, the Jacobian a (x) nabla),
    "div" (1 -> 0), "curl_vec" (1 -> 1), "curl_mat" (2 -> 2, row-wise curl)
    and "inc" (2 -> 2, curl of the transposed curl).  A projected curl such
    as dev sym Curl P is pointwise_part(apply_operator(P, "curl_mat"), part).
    """
    _check_instance("field", f, GridField)
    rows = _OPS[_choice("operator", op, _OPS)]
    if f.rank not in rows:
        raise RankMismatchError("%s needs a field of rank %s" % (op, " or ".join(map(str, rows))))
    return _map_planes(f, *rows[f.rank], op)


def _map_planes(f, rank, fn, name):
    """The field of the given rank, in f's band, whose stored box is fn(c, K): c the box
    that f stores, K its frequencies.  The one way out for a field computed from fields:
    the planes are frozen, their symmetry not re-checked, so fn must keep it exactly.  fn
    must also send zero coefficients to zero, since the frequencies outside the box stay
    zero: every _OPS and _PARTS row does, being linear.  Planes that overflowed, or a
    coefficient whose Hermitian norm does (_finite_norms), are a ValueError naming the
    map, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        planes = fn(f._planes, _band_freqs(f.spec.n, len(f._planes) - 1))
    _finite_norms(planes, rank, "coefficients are too large: %r overflows" % name)
    return _fill(object.__new__(GridField), f.spec, rank, planes)


def _band_images(spec, b, constants, image):
    """The stored box of image(E) for each E of constants, E also the field of band b
    holding E at every frequency: real and constant, so finite and conjugate-symmetric,
    and built unchecked, a broadcast view.  image keeps the band (as the maps here do)."""
    i = _box_index(b, spec.n)
    for e in constants:
        column = _fill(object.__new__(GridField), spec, e.ndim,
                       np.broadcast_to(e, (b + 1, len(i), len(i)) + e.shape))
        yield image(column)._planes


def pointwise_part(f, part):
    """Slot-wise "transpose", "sym", "skew", "dev" or "devsym" (rank 2 -> 2), "trace"
    (2 -> 0), "axl" (2 -> 1, axial vector of the skew part), "anti" (1 -> 2, a -> anti(a))
    or "spherical" (0 -> 2, z -> z * id) of a field.
    """
    _check_instance("field", f, GridField)
    rank, out_rank, fn = _PARTS[_choice("part", part, _PARTS)]
    if f.rank != rank:
        raise RankMismatchError("%s needs a field of rank %d" % (part, rank))
    return _map_planes(f, out_rank, lambda planes, K: fn(planes), part)


def coef_peak(f):
    """The largest Hermitian norm over the field's Fourier coefficients, a float that is
    NaN when any coefficient is: read over the stored box, which holds every nonzero
    |c(k)| since |c(-k)| = |c(k)|."""
    planes = _check_instance("field", f, GridField)._planes
    return float(np.max(_norm(planes, f.rank)))


def random_bandlimited(spec, seed, kmax, structure="general"):
    """Deterministic random real field with |k|_inf <= kmax, stored in band kmax.

    structure: "scalar", "vector", or a matrix field that is "general",
    "sym" or "skew", imposed slot-wise.  The checked constructor builds the
    full band, which is then cropped to the box of band kmax: exactly, as
    everything outside it is masked to zero and the snap keeps zeros.
    """
    _check_instance("spec", spec, GridSpec)
    rank, part = _STRUCTURES[_choice("structure", structure, _STRUCTURES)]
    coef = _bandlimited_coef(spec, seed, kmax, rank)
    if part is not None:
        coef = _PARTS[part][2](coef)
    f = GridField(spec, rank, coef)
    i = _box_index(kmax, spec.n)
    return _fill(f, spec, rank, f._planes[:kmax + 1, i[:, None], i])


def _bandlimited_coef(spec, seed, kmax, rank):
    n = spec.n
    kmax = _check_count("kmax", kmax, -math.inf)    # no floor: -1 is a BandTooWideError
    if not (0 <= kmax <= n // 2 - 1):
        raise BandTooWideError("kmax=%r does not fit on an n=%d grid "
                               "(need 0 <= kmax <= n/2 - 1)" % (kmax, n))
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    # the noise is drawn slot-major, so that a seed names the same field it
    # always has, and then moved to the tensor-last layout
    noise = np.moveaxis(rng.standard_normal((3,) * rank + (n, n, n)),
                        tuple(range(rank)), tuple(range(-rank, 0)))
    coef = np.fft.fftn(noise, axes=(0, 1, 2))
    keep = np.abs(spec.frequencies) <= kmax
    mask = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    return coef * mask[(...,) + (None,) * rank]


# ----------------------------------------------------------------------------
# box domains


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box (lo, hi), integrated with tensor Gauss-Legendre rules."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(_check_real("box coordinate", v) for v in self.lo)
        hi = tuple(_check_real("box coordinate", v) for v in self.hi)
        if (len(lo) != 3 or len(hi) != 3 or not np.isfinite(lo + hi).all()
                or any(h <= l for l, h in zip(lo, hi))):
            raise ValueError("box needs finite lo < hi componentwise, three axes")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def axis_rule(self, axis, m):
        x, w = _legendre(m)
        a, b = self.lo[axis], self.hi[axis]
        return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


@lru_cache(maxsize=None)
def _legendre(m):
    """m-point Gauss-Legendre nodes and weights on [-1, 1], one read-only (2, m) array."""
    rule = np.array(np.polynomial.legendre.leggauss(m))
    rule.setflags(write=False)
    return rule


def _rules(box, m, axes, even):
    """box.axis_rule(axis, m) for each of axes, an axis in even folded where it can be.

    The caller declares the integrand even in each axis of even.  Such an
    axis keeps its m/2 positive nodes at twice their weights exactly when
    its interval is symmetric about 0 and m is even: the nodes and weights
    are then exact mirror images, so only the summation order changes.
    """
    rules = []
    for axis in axes:
        x, w = box.axis_rule(axis, m)
        if axis in even and m % 2 == 0 and box.lo[axis] == -box.hi[axis]:
            x, w = x[m // 2:], 2.0 * w[m // 2:]
        rules.append((x, w))
    return rules


# the most nodes one integrand call of _box_sum sees: 32 KiB per float64 temporary
_BLOCK = 4096


def _box_sum(box, m, integrand, radius=np.inf, even=()):
    """Tensor Gauss-Legendre sum over the box at m points per axis, on the ball's nodes.

    integrand(X1, X2, X3) takes equal-length 1-D node arrays and returns
    values of shape (..., len(X1)); the leading axes are kept in the sum.
    The integrand must be exactly zero at every node with X1^2 + X2^2 +
    X3^2 >= radius^2, and only the nodes strictly inside the ball are
    passed: the nodes left out contribute exact zeros, so only the
    summation order changes.  The default radius, inf, passes every node.
    The (x1, x2) nodes are sorted once by x1^2 + x2^2, so each x3 plane's
    disc is a prefix of that order; the prefixes of consecutive planes are
    concatenated and cut into blocks of at most _BLOCK nodes, one
    integrand call each.  The axes in even are folded onto their positive
    half where they can be (_rules).
    """
    (x1, w1), (x2, w2), (x3, w3) = _rules(box, m, range(3), even)
    x1, x2, w12, n = _discs(x1, w1, x2, w2, x3 * x3, radius ** 2)
    edges = np.concatenate([[0], np.cumsum(n)])     # plane l holds [edges[l], edges[l + 1])
    total = 0.0
    for a in range(0, edges[-1], _BLOCK):
        b = min(a + _BLOCK, edges[-1])
        plane = np.repeat(np.arange(n.size), np.diff(np.clip(edges, a, b)))
        i = np.arange(a, b) - edges[plane]
        F = np.asarray(integrand(x1[i], x2[i], x3[plane]), dtype=float)
        total += np.sum(F * (w12[i] * w3[plane]), axis=-1)
    return total


def _discs(x1, w1, x2, w2, c, reach):
    """The (x1, x2) nodes and weight products sorted stably by d = x1^2 + x2^2, and
    for each entry of c the length of the prefix with d + c < reach.

    It is a prefix because d + c rounds monotonically in d.  searchsorted
    finds it against the rounded reach - c, and each length is then stepped
    to the exact end of d + c < reach.
    """
    d = np.add.outer(x1 * x1, x2 * x2).ravel()
    order = np.argsort(d, kind="stable")
    d = d[order]
    i1, i2 = np.divmod(order, x2.size)
    n = np.searchsorted(d, reach - c)
    while True:
        over = (n > 0) & (d[n - 1] + c >= reach)
        under = (n < d.size) & (d[np.minimum(n, d.size - 1)] + c < reach)
        if not (over.any() or under.any()):
            return x1[i1], x2[i2], w1[i1] * w2[i2], n
        n = n + under - over


def _resolve(compute):
    """Double the points per axis until the float result settles within QUAD_RTOL.

    Refinement starts at QUAD_START and raises UnderResolvedError past
    QUAD_CAP.  The constants are read at each call, so a patched module
    value takes effect.  numpy's floating-point warnings are silenced while
    compute runs: a non-finite result is named by NonFiniteError instead.
    """
    def finite(m):
        with np.errstate(all="ignore"):
            value = float(compute(m))
        if not np.isfinite(value):
            raise NonFiniteError("quadrature gave %r at %d points/axis" % (value, m))
        return value

    m = QUAD_START
    prev = finite(m)
    while m < QUAD_CAP:
        m *= 2
        cur = finite(m)
        if abs(cur - prev) <= QUAD_RTOL * max(abs(prev), 1e-300):
            return cur
        prev = cur
    raise UnderResolvedError("quadrature did not settle below %.1e by %d points/axis"
                             % (QUAD_RTOL, QUAD_CAP))


def growth_ratio(k, p, box):
    """Seminorm quotient ||k z^(k-1)||_p / ||z^k||_p on a box, z = x1 + i*x2, k >= 1.

    The integrand only involves (x1, x2), so the x3 extent cancels and both
    norms use the (x1, x2) rule; the refinement loop watches the ratio.
    The nodes and weights are divided by a power of two s within a factor
    2 of the largest |x1|, |x2| on the box first, so that |x|^2 and the
    weight products neither underflow nor overflow on tiny or huge boxes;
    the quotient then carries a factor 1/s, and both scalings are exact in
    binary.  |z|^2 is scaled by its maximum on the rule before it is raised
    to the power j*p/2, so the powers stay in [0, 1] and cannot overflow at
    large k*p.  |z|^2 is even in x1 and in x2, so each of them whose
    interval is symmetric about 0 is folded onto its positive half (_rules).
    These tables depend on the box and the rule size only, and are built
    once per pair (_growth_rule).
    """
    _check_instance("box", box, BoxDomain)
    p = _check_exponent(p)
    k = _check_count("k", k)
    powers = np.array([k - 1, k])[:, None, None] * p / 2.0

    def compute(m):
        r2, w2, w1, root, s = _growth_rule(box, m)
        below, above = r2 ** powers @ w2 @ w1
        return k / root * (below / above) ** (1.0 / p) / s

    return _resolve(compute)


# a box's whole refinement ladder, 64 to 1024 points, is five entries
@lru_cache(maxsize=8)
def _growth_rule(box, m):
    """growth_ratio's tables at m points per axis: |z|^2 / top, w2 / s, w1 / s, sqrt(top), s.

    The arrays are read-only; s is the power of two that scales the box's
    (x1, x2) nodes and top the largest scaled |z|^2 on the rule.
    """
    s = _pow2(box.lo[:2] + box.hi[:2]).item()
    (x1, w1), (x2, w2) = _rules(box, m, (0, 1), (0, 1))
    r2 = (x1[:, None] / s) ** 2 + (x2[None, :] / s) ** 2
    top = r2.max()
    tables = r2 / top, w2 / s, w1 / s
    for t in tables:
        t.setflags(write=False)
    return (*tables, np.sqrt(top), s)


def bump_profile(r):
    """Smooth radial cutoff: 1 on r <= 1, 0 on r >= 2, and its derivative."""
    r = _real(r, (), "radius")
    # h(t) = exp(-1/t) for t > 0 and 0 otherwise: exp(-1e300) is exactly 0
    u = np.exp(-1.0 / np.maximum(2.0 - r, 1e-300))
    v = np.exp(-1.0 / np.maximum(r - 1.0, 1e-300))
    # den stays above 0.27; u / u is exactly 1 at r <= 1, 0 / v exactly 0 at r >= 2
    den = u + v
    g = u / den
    mid = (r > 1.0) & (r < 2.0)
    # h'(t) = h(t) / t^2; off the open shell the quotients (and squares
    # that overflow at huge r) are discarded
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gp = np.where(mid, -(u / (2.0 - r) ** 2 * v + u * (v / (r - 1.0) ** 2)) / den ** 2, 0.0)
    return g, gp


# The witness forms of halfspace_ratio, in closed form: the Grams of the
# maps x -> sym(p_hat x x) and x -> dev sym(p_hat x x) are diag(_GRAM_SYM)
# and diag(_GRAM_DEV), and Im tr sym(p_hat x x) = _T1 * x1.
_GRAM_SYM = (2.5, 1.5, 0.5)
_GRAM_DEV = (7.0 / 6.0, 7.0 / 6.0, 0.5)
_T1 = 2.0


def halfspace_ratio(k, p):
    """Boundary-layer seminorm quotient on the half space {x1 < 0}.

    The profile is (1/k) * p_hat * exp(k*(x1 + i*x2)) * eta(x) with the
    witness coefficient p_hat and the radial cutoff eta of bump_profile.
    Its row-wise curl splits into eta * (p_hat x xi) (whose trace-free
    symmetric part vanishes identically, leaving i*id in the symmetric
    part) plus a cutoff-gradient correction (eta'(r)/r) * x of size 1/k.
    Both seminorms are exact closed forms: the correction enters through
    the quadratic forms x^T G x of the witness Grams and the linear form
    t . x.  They are integrated over [-2, 0] x [-2, 2] x [-2, 2] with the
    shared refinement loop watching the quotient.  eta and eta' are exactly
    zero at r >= 2 (and exp(-1/(2 - r)) is already 0 within rounding of the
    edge), so both integrands vanish there for every p >= 1, and only the
    nodes strictly inside the ball of radius 2 are evaluated, in blocks of
    at most _BLOCK nodes (_box_sum).

    The witness Grams are the closed-form diagonal constants _GRAM_SYM and
    _GRAM_DEV and t = (_T1, 0, 0), checked against the witness in the
    tests, so both integrands see x2 and x3 only through their squares:
    the sum folds both axes and runs over the quarter x2 > 0, x3 > 0 of
    the box.
    """
    p = _check_exponent(p)
    k = _check_count("k", k)
    box = BoxDomain(lo=(-2.0, -2.0, -2.0), hi=(0.0, 2.0, 2.0))

    def integrands(X1, X2, X3):
        r = np.sqrt(X1 ** 2 + X2 ** 2 + X3 ** 2)
        g, gp = bump_profile(r)
        s = gp / np.maximum(r, 1e-300)
        s2 = s * s
        dev_sq = s2 * _diagonal_form(_GRAM_DEV, X1, X2, X3)
        sym_sq = (3.0 * g * g + (2.0 * g / k) * s * (_T1 * X1)
                  + s2 * _diagonal_form(_GRAM_SYM, X1, X2, X3) / k ** 2)
        return np.exp(p * k * X1) * np.stack([np.maximum(sym_sq, 0.0) ** (p / 2.0),
                                              dev_sq ** (p / 2.0) / k ** p])

    def compute(m):
        num, den = _box_sum(box, m, integrands, radius=2.0, even=(1, 2)) ** (1.0 / p)
        return num / den

    return _resolve(compute)


def _diagonal_form(d, X1, X2, X3):
    """x^T diag(d) x at the nodes x = (X1, X2, X3), three equal-length node arrays."""
    return (d[0] * X1 ** 2 + d[2] * X3 ** 2) + d[1] * X2 ** 2


# ----------------------------------------------------------------------------
# on-disk format


# a field file's one header line (every field is real): dump_field fills it, load_field
# matches it whole
_HEADER = "kornlab-field v1; rank=%s; n=%s; reality=real\n"
_HEADER_RE = re.compile(re.escape(_HEADER).encode("ascii") % (rb"([012])", rb"([1-9][0-9]*)"))


def _check_path(path):
    """path if it is a str or os.PathLike; a TypeError otherwise, so no descriptor is used."""
    if not isinstance(path, (str, os.PathLike)):
        raise TypeError("path must be a str or os.PathLike, got %r" % (path,))
    return path


def dump_field(f, path):
    """Write a field: one ASCII header line, then little-endian complex64.

    The header is "kornlab-field v1; rank=<r>; n=<n>; reality=real\\n".
    Coefficients follow in the order of coef: the three frequency axes vary
    slowest (C order, k1 outermost), tensor slots fastest; every zero is +0.0.
    """
    # the sign of a zero depends on the route that built the field (a band's embedding
    # holds +0.0 where a full-band map may write K * -0.0): x + 0 is x for every x but
    # -0.0, which it turns to +0.0 in both parts, so the bytes follow the values alone
    payload = np.array(_check_instance("field", f, GridField).coef, dtype="<c8")
    payload += 0
    with open(_check_path(path), "wb") as fh:
        fh.write((_HEADER % (f.rank, f.spec.n)).encode("ascii"))
        fh.write(payload.tobytes())


def load_field(path):
    """Read a field written by dump_field (coefficients come back complex64-rounded).

    Raises CorruptFieldError unless the first line is exactly a header that
    dump_field writes (rank 0, 1 or 2, n a power of two of at least 4 with
    no leading zero, reality=real: a reality=complex file is refused), when
    the payload does not hold exactly n^3 * 3^rank complex64 values, or when
    the payload is not finite and conjugate-symmetric.
    """
    with open(_check_path(path), "rb") as fh:
        header = fh.readline()
        raw = fh.read()
    match = _HEADER_RE.fullmatch(header)
    try:
        rank, spec = int(match[1]), GridSpec(int(match[2]))
    except (TypeError, ValueError):     # no match (None[1]), or n is no grid size
        raise CorruptFieldError("header is not %r: %r" % (
            _HEADER % ("<0|1|2>", "<n, a power of two >= 4>"), header)) from None
    shape = _coef_shape(rank, spec.n)
    need = 8 * math.prod(shape)        # exact: n^3 overflows int64 from n = 2^21
    if len(raw) != need:
        raise CorruptFieldError("payload holds %d bytes, rank=%d on n=%d needs %d"
                                % (len(raw), rank, spec.n, need))
    with np.errstate(invalid="ignore"):     # a signalling NaN warns as it widens
        coef = np.frombuffer(raw, dtype="<c8").astype(complex).reshape(shape)
    try:
        return GridField(spec, rank, coef)
    except ValueError as exc:
        raise CorruptFieldError("payload is not a real field: %s" % exc) from None
