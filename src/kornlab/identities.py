"""Named identity checks for the tensor algebra and the spectral calculus.

Every entry reports its worst relative residual over a batch of random
inputs: per sample, |lhs - rhs| is divided by max(1, |lhs|, |rhs|) and
the maximum over the batch is kept.  Pointwise matrix algebra runs on
vectorized sample batches (default 1000) at tolerance 1e-12; identities
between differential operators run on random band-limited fields
(n = 16, band n/4, three draws, one held at a time) at tolerance 1e-10,
compared by their Fourier coefficients, with no transform: a field
vanishes, or two agree, exactly when every coefficient does.  A field
that two or more checks derive is derived once per draw.  Window entries
measure how far a quantity escapes a closed interval, so their residual
is exactly zero when the bounds hold.  A worst-of over parts and draws is
NaN when any of them is, so a NaN residual fails its entry.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import fields
from .algebra3 import (EYE3, _check_count, _norm, _unit, anti, axl, cross, dev, dot, frob,
                       mat_norm, orth_decompose, random_rotation, recover_axial, skew,
                       sym, tangential_projector, tp, tr, vec_norm)
from .symbol import apply_symbol, curl_symbol

__all__ = ["IdentityResult", "ALGEBRA_TOL", "SPECTRAL_TOL",
           "run_algebra", "run_spectral", "run_all"]

ALGEBRA_TOL = 1e-12
SPECTRAL_TOL = 1e-10

SQRT3 = float(np.sqrt(3.0))


@dataclass(frozen=True)
class IdentityResult:
    name: str
    samples: int
    max_residual: float
    tolerance: float

    @property
    def passed(self):
        return self.max_residual < self.tolerance


def _worst(*values):
    """Builtin max of the values (the first of tied maxima), or NaN if any value is NaN."""
    return float("nan") if np.isnan(values).any() else max(values)


def rel(lhs, rhs):
    """Worst relative deviation between two per-sample arrays."""
    lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    diff, lhs, rhs = (_norm(x, max(x.ndim - 1, 0)) for x in (lhs - rhs, lhs, rhs))
    return float(np.max(diff / np.maximum(1.0, np.maximum(lhs, rhs))))


def window(value, lo, hi, scale=None):
    """How far value escapes [lo, hi], relative to scale (default: the bounds)."""
    value = np.asarray(value)
    lo, hi = np.asarray(lo), np.asarray(hi)
    if scale is None:
        scale = np.maximum(1.0, np.abs(hi))
    esc = np.maximum(lo - value, value - hi)
    return float(np.max(np.maximum(esc, 0.0) / scale))


# ----------------------------------------------------------------------------
# pointwise matrix algebra


def _samples(count, seed):
    rng = np.random.default_rng(seed)
    d = SimpleNamespace()
    d.ar = rng.standard_normal((count, 3))
    d.br = rng.standard_normal((count, 3))
    d.ac = d.ar + 1j * rng.standard_normal((count, 3))
    d.bc = d.br + 1j * rng.standard_normal((count, 3))
    d.Pc = rng.standard_normal((count, 3, 3)) + 1j * rng.standard_normal((count, 3, 3))
    d.Sc = sym(rng.standard_normal((count, 3, 3)) + 1j * rng.standard_normal((count, 3, 3)))
    d.bu = _unit(d.br)
    d.R = random_rotation(rng.standard_normal((count, 4)))
    return d


def _i_anti_cross(d):
    return rel(np.einsum("sij,sj->si", anti(d.ac), d.bc), np.cross(d.ac, d.bc))


def _i_axl_roundtrip(d):
    A = anti(d.ac)
    return _worst(rel(axl(A), d.ac), rel(anti(axl(A)), A))


def _i_anti_product(d):
    lhs = anti(d.ac) @ anti(d.bc)
    rhs = np.einsum("si,sj->sij", d.bc, d.ac) - dot(d.bc, d.ac)[:, None, None] * EYE3
    return rel(lhs, rhs)


def _i_anti_square(d):
    lhs = anti(d.bc) @ anti(d.bc)
    rhs = np.einsum("si,sj->sij", d.bc, d.bc) - dot(d.bc, d.bc)[:, None, None] * EYE3
    return rel(lhs, rhs)


def _i_anti_cube(d):
    B = anti(d.bc)
    return rel(B @ B @ B, -dot(d.bc, d.bc)[:, None, None] * B)


def _i_identity_cross(d):
    return rel(cross(EYE3, d.bc), anti(d.bc))


def _i_sym_cross_traceless(d):
    X = cross(d.Sc, d.bc)
    return float(np.max(np.abs(tr(X)) / np.maximum(1.0, mat_norm(X))))


def _i_skew_cross_trace(d):
    return rel(tr(cross(anti(d.ac), d.bc)), -2.0 * dot(d.ac, d.bc))


def _i_cross_kills_direction(d):
    out = (cross(d.Pc, d.bc) @ d.bc[..., None])[..., 0]
    return float(np.max(vec_norm(out) / np.maximum(1.0, mat_norm(d.Pc) * vec_norm(d.bc) ** 2)))


def _i_double_cross_transpose(d):
    lhs = cross(tp(cross(d.Pc, d.bc)), d.bc)
    rhs = -anti(d.bc) @ tp(d.Pc) @ anti(d.bc)
    return rel(lhs, rhs)


def _i_devsym_cross_shift(d):
    a = axl(skew(d.Pc))
    lhs = dev(sym(cross(d.Pc, d.bc)))
    rhs = sym(cross(d.Pc, d.bc)) + (2.0 / 3.0) * dot(a, d.bc)[:, None, None] * EYE3
    return rel(lhs, rhs)


def _i_dev_cross_shift(d):
    a = axl(skew(d.Pc))
    lhs = dev(cross(d.Pc, d.bc))
    rhs = cross(d.Pc, d.bc) + (2.0 / 3.0) * dot(a, d.bc)[:, None, None] * EYE3
    return rel(lhs, rhs)


def _i_skew_cross_exact_value(d):
    v = mat_norm(dev(sym(cross(anti(d.ar), d.br)))) ** 2
    ref = 0.5 * vec_norm(d.ar) ** 2 * vec_norm(d.br) ** 2 + dot(d.ar, d.br) ** 2 / 6.0
    return rel(v, ref)


def _i_skew_cross_window(d):
    v = mat_norm(dev(sym(cross(anti(d.ar), d.br)))) ** 2
    base = vec_norm(d.ar) ** 2 * vec_norm(d.br) ** 2
    return window(v, 0.5 * base, (2.0 / 3.0) * base, np.maximum(1.0, base))


def _i_pair_devsym_window(d):
    A, At = anti(d.ar), anti(d.br)
    v = mat_norm(dev(sym(A @ At))) ** 2
    base = mat_norm(A) ** 2 * mat_norm(At) ** 2
    return window(v, base / 8.0, base / 6.0, np.maximum(1.0, base))


def _i_sym_cross_norm_split(d):
    a = axl(skew(d.Pc))
    lhs = mat_norm(sym(cross(d.Pc, d.br))) ** 2
    rhs = mat_norm(dev(sym(cross(d.Pc, d.br)))) ** 2 \
        + (4.0 / 3.0) * np.abs(dot(a, d.br)) ** 2
    return rel(lhs, rhs)


def _i_full_cross_norm_split(d):
    a = axl(skew(d.Pc))
    lhs = mat_norm(cross(d.Pc, d.br)) ** 2
    rhs = mat_norm(dev(cross(d.Pc, d.br))) ** 2 + (4.0 / 3.0) * np.abs(dot(a, d.br)) ** 2
    return rel(lhs, rhs)


def _i_equivalence_window(d):
    lo = mat_norm(dev(sym(cross(d.Pc, d.bu))))
    hi = mat_norm(sym(cross(d.Pc, d.bu)))
    return window(hi, lo, (1.0 + SQRT3) * lo, np.maximum(1.0, lo))


def _i_equivalence_trace_identity(d):
    b2 = dot(d.br, d.br)
    M = dev(sym(cross(d.Pc, d.br)))
    lhs = b2[:, None, None] * sym(cross(d.Pc, d.br))
    rhs = b2[:, None, None] * M - dot(d.br, (M @ d.br[..., None])[..., 0])[:, None, None] * EYE3
    return rel(lhs, rhs)


def _i_recover_axial_inverse(d):
    M = dev(sym(cross(anti(d.ar), d.br)))
    return rel(recover_axial(M, d.br), d.ar)


def _i_axl_antisym_dyadic(d):
    A = np.einsum("si,sj->sij", d.bc, d.ac) - np.einsum("si,sj->sij", d.ac, d.bc)
    return rel(axl(A), np.cross(d.ac, d.bc))


def _i_skew_dyadic(d):
    lhs = skew(np.einsum("si,sj->sij", d.ac, d.bc))
    return rel(lhs, -0.5 * anti(np.cross(d.ac, d.bc)))


def _i_axial_dyadic_expansion(d):
    A = anti(d.ac)
    X = cross(A, d.bc)
    rhs = tp(X) - 0.5 * tr(X)[:, None, None] * EYE3
    return rel(np.einsum("si,sj->sij", axl(A), d.bc), rhs)


def _i_orth_split(d):
    parts = orth_decompose(d.Pc)
    r1 = rel(parts.reassemble(), d.Pc)
    r2 = float(np.max(np.abs(frob(parts.devsym, parts.skew)) / np.maximum(1.0, mat_norm(d.Pc) ** 2)))
    r3 = float(np.max(np.abs(frob(parts.devsym, np.broadcast_to(EYE3, d.Pc.shape)))
                      / np.maximum(1.0, mat_norm(d.Pc) ** 2)))
    n2 = mat_norm(parts.devsym) ** 2 + mat_norm(parts.skew) ** 2 + 3.0 * np.abs(parts.sphere) ** 2
    r4 = rel(mat_norm(d.Pc) ** 2, n2)
    return _worst(r1, r2, r3, r4)


def _i_tangential_projector(d):
    P_nu = tangential_projector(d.bu)
    r1 = rel(P_nu, -anti(d.bu) @ anti(d.bu))
    r2 = rel(mat_norm(d.Pc @ P_nu), mat_norm(cross(d.Pc, d.bu)))
    pn = (d.Pc @ d.bu[..., None])[..., 0]
    r3 = rel(mat_norm(cross(d.Pc, d.bu)) ** 2, mat_norm(d.Pc) ** 2 - vec_norm(pn) ** 2)
    return _worst(r1, r2, r3)


def _i_dyadic_cross_kill(d):
    X = cross(np.einsum("si,sj->sij", d.ac, d.bc), d.bc)
    scale = np.maximum(1.0, vec_norm(d.ac) * vec_norm(d.bc) ** 2)
    return float(np.max(mat_norm(X) / scale))


def _i_sym_dyadic_cross_balance(d):
    D = np.einsum("si,sj->sij", d.ac, d.bc)
    r1 = rel(cross(sym(D), d.bc), -cross(skew(D), d.bc))
    r2 = rel(cross(sym(D), d.bc), 0.5 * cross(np.einsum("si,sj->sij", d.bc, d.ac), d.bc))
    return _worst(r1, r2)


def _i_anti_double_cross(d):
    lhs = cross(tp(cross(anti(d.ac), d.bc)), d.bc)
    return rel(lhs, -dot(d.bc, d.ac)[:, None, None] * anti(d.bc))


def _i_identity_double_cross(d):
    lhs = cross(tp(cross(EYE3, d.bc)), d.bc)
    rhs = dot(d.bc, d.bc)[:, None, None] * EYE3 - np.einsum("si,sj->sij", d.bc, d.bc)
    return rel(lhs, rhs)


def _i_sym_double_cross_expansion(d):
    S, b = d.Sc, d.bc
    bb = np.einsum("si,sj->sij", b, b)
    b2 = dot(b, b)[:, None, None]
    Sb = (S @ b[..., None])[..., 0]
    lhs = cross(tp(cross(S, b)), b)
    rhs = (S @ bb + bb @ S - b2 * S - tr(S)[:, None, None] * bb
           + (b2[..., 0] * tr(S)[:, None] - dot(Sb, b)[:, None])[..., None] * EYE3)
    return rel(lhs, rhs)


def _i_double_cross_respects_split(d):
    X = cross(tp(cross(d.Pc, d.bc)), d.bc)
    r1 = rel(sym(X), cross(tp(cross(sym(d.Pc), d.bc)), d.bc))
    r2 = rel(skew(X), cross(tp(cross(skew(d.Pc), d.bc)), d.bc))
    return _worst(r1, r2)


def _i_left_right_transpose(d):
    return rel(tp(anti(d.bc) @ d.Pc), -cross(tp(d.Pc), d.bc))


def _i_rotation_equivariance(d):
    Ra = np.einsum("sij,sj->si", d.R, d.ar)
    return rel(anti(Ra), d.R @ anti(d.ar) @ tp(d.R))


def _i_rotation_invariance(d):
    Ra = np.einsum("sij,sj->si", d.R, d.ar)
    Rb = np.einsum("sij,sj->si", d.R, d.br)
    lhs = mat_norm(dev(sym(cross(anti(Ra), Rb))))
    return rel(lhs, mat_norm(dev(sym(cross(anti(d.ar), d.br)))))


ALGEBRA = [
    ("anti_gives_cross_product", _i_anti_cross),
    ("axl_anti_roundtrip", _i_axl_roundtrip),
    ("anti_product_expansion", _i_anti_product),
    ("anti_square_expansion", _i_anti_square),
    ("anti_cube_collapse", _i_anti_cube),
    ("identity_cross_is_anti", _i_identity_cross),
    ("sym_cross_traceless", _i_sym_cross_traceless),
    ("skew_cross_trace", _i_skew_cross_trace),
    ("cross_kills_own_direction", _i_cross_kills_direction),
    ("double_cross_transpose", _i_double_cross_transpose),
    ("devsym_cross_shift", _i_devsym_cross_shift),
    ("dev_cross_shift", _i_dev_cross_shift),
    ("skew_cross_exact_value", _i_skew_cross_exact_value),
    ("skew_cross_window", _i_skew_cross_window),
    ("pair_devsym_window", _i_pair_devsym_window),
    ("sym_cross_norm_split", _i_sym_cross_norm_split),
    ("full_cross_norm_split", _i_full_cross_norm_split),
    ("sym_devsym_equivalence_window", _i_equivalence_window),
    ("equivalence_trace_identity", _i_equivalence_trace_identity),
    ("recover_axial_inverse", _i_recover_axial_inverse),
    ("axl_antisym_dyadic", _i_axl_antisym_dyadic),
    ("skew_dyadic_halves", _i_skew_dyadic),
    ("axial_dyadic_expansion", _i_axial_dyadic_expansion),
    ("orth_split_consistency", _i_orth_split),
    ("tangential_projector_identities", _i_tangential_projector),
    ("dyadic_cross_kill", _i_dyadic_cross_kill),
    ("sym_dyadic_cross_balance", _i_sym_dyadic_cross_balance),
    ("anti_double_cross", _i_anti_double_cross),
    ("identity_double_cross", _i_identity_double_cross),
    ("sym_double_cross_expansion", _i_sym_double_cross_expansion),
    ("double_cross_respects_split", _i_double_cross_respects_split),
    ("left_right_cross_transpose", _i_left_right_transpose),
    ("rotation_equivariance", _i_rotation_equivariance),
    ("rotation_invariance_devsym", _i_rotation_invariance),
]


# ----------------------------------------------------------------------------
# spectral calculus on random band-limited fields


def frel(fa, fb):
    """Worst relative deviation between two fields over their Fourier coefficients:
    the coef_peak of fa - fb over the larger coef_peak of fa and fb, floored at 1.

    The coefficients are unnormalized fftn values, about n^(3/2) for the suite's
    draws, so the floor stays inactive there."""
    return fields.coef_peak(fa - fb) / _worst(1.0, fields.coef_peak(fa), fields.coef_peak(fb))


def fzero(f, scale_field):
    """Worst size of f's Fourier coefficients relative to those of scale_field, the
    coef_peak of each, with the scale floored at 1 as frel's is."""
    return fields.coef_peak(f) / _worst(1.0, fields.coef_peak(scale_field))


def _spectral_data(n, seed):
    """One draw: five random fields, and the nine fields that two or more checks
    derive from them, each derived once."""
    spec = fields.GridSpec(n)
    kmax = n // 4
    d = SimpleNamespace(spec=spec, kmax=kmax, seed=seed)
    d.zeta = fields.random_bandlimited(spec, seed + 11, kmax, "scalar")
    d.u = fields.random_bandlimited(spec, seed + 12, kmax, "vector")
    d.P = fields.random_bandlimited(spec, seed + 13, kmax, "general")
    d.S = fields.random_bandlimited(spec, seed + 14, kmax, "sym")
    d.A = fields.random_bandlimited(spec, seed + 15, kmax, "skew")
    d.grad_u = fields.apply_operator(d.u, "grad")
    d.div_u = fields.apply_operator(d.u, "div")
    d.anti_u = fields.pointwise_part(d.u, "anti")
    d.grad_zeta = fields.apply_operator(d.zeta, "grad")
    d.sph_zeta = fields.pointwise_part(d.zeta, "spherical")
    d.curl_A = fields.apply_operator(d.A, "curl_mat")
    d.grad_axl_A = fields.apply_operator(fields.pointwise_part(d.A, "axl"), "grad")
    d.curl_S = fields.apply_operator(d.S, "curl_mat")
    d.inc_P = fields.apply_operator(d.P, "inc")
    return d


def _s_curl_of_gradient(d):
    return fzero(fields.apply_operator(d.grad_u, "curl_mat"), d.grad_u)


def _s_sym_of_curl_kernel(d):
    f = d.sph_zeta + d.grad_u
    return fzero(fields.pointwise_part(fields.apply_operator(f, "curl_mat"), "sym"), f)


def _s_inc_sym_gradient(d):
    g = fields.pointwise_part(d.grad_u, "sym")
    return fzero(fields.apply_operator(g, "inc"), g)


def _s_inc_skew_gradient(d):
    g = fields.pointwise_part(d.grad_u, "skew")
    return fzero(fields.apply_operator(g, "inc"), g)


def _s_curl_spherical(d):
    lhs = fields.apply_operator(d.sph_zeta, "curl_mat")
    return frel(lhs, (-1.0) * fields.pointwise_part(d.grad_zeta, "anti"))


def _s_curl_anti_field(d):
    lhs = fields.apply_operator(d.anti_u, "curl_mat")
    rhs = fields.pointwise_part(d.div_u, "spherical") - fields.pointwise_part(d.grad_u, "transpose")
    return frel(lhs, rhs)


def _s_grad_axl_inversion(d):
    rhs = 0.5 * fields.pointwise_part(fields.pointwise_part(d.curl_A, "trace"), "spherical") \
        - fields.pointwise_part(d.curl_A, "transpose")
    return frel(d.grad_axl_A, rhs)


def _s_trace_curl_sym(d):
    return fzero(fields.pointwise_part(d.curl_S, "trace"), d.curl_S)


def _s_inc_spherical(d):
    lhs = fields.apply_operator(d.sph_zeta, "inc")
    hess = fields.apply_operator(d.grad_zeta, "grad")
    lap = fields.pointwise_part(hess, "trace")
    return frel(lhs, fields.pointwise_part(lap, "spherical") - hess)


def _s_inc_anti(d):
    lhs = fields.apply_operator(d.anti_u, "inc")
    rhs = (-1.0) * fields.pointwise_part(fields.apply_operator(d.div_u, "grad"), "anti")
    return frel(lhs, rhs)


def _s_inc_commutes_with_split(d):
    r1 = frel(fields.pointwise_part(d.inc_P, "sym"),
              fields.apply_operator(fields.pointwise_part(d.P, "sym"), "inc"))
    r2 = frel(fields.pointwise_part(d.inc_P, "skew"),
              fields.apply_operator(fields.pointwise_part(d.P, "skew"), "inc"))
    return _worst(r1, r2)


def _s_inc_transpose(d):
    lhs = fields.apply_operator(fields.pointwise_part(d.P, "transpose"), "inc")
    return frel(lhs, fields.pointwise_part(d.inc_P, "transpose"))


def _s_trace_inc_curl_sym(d):
    c = fields.apply_operator(d.curl_S, "inc")
    return fzero(fields.pointwise_part(c, "trace"), c)


def _s_sym_grad_axl_chain(d):
    sym_curl = fields.pointwise_part(d.curl_A, "sym")
    tr_sym_curl = fields.pointwise_part(sym_curl, "trace")
    rhs = 0.5 * fields.pointwise_part(tr_sym_curl, "spherical") - sym_curl
    return frel(fields.pointwise_part(d.grad_axl_A, "sym"), rhs)


def _s_hessian_trace_chain(d):
    incdev = fields.apply_operator(fields.pointwise_part(d.curl_A, "devsym"), "inc")
    t = fields.pointwise_part(d.grad_axl_A, "trace")
    lhs = fields.apply_operator(fields.apply_operator(t, "grad"), "grad")
    tr_incdev = fields.pointwise_part(incdev, "trace")
    rhs = 1.5 * fields.pointwise_part(tr_incdev, "spherical") - 3.0 * incdev
    return frel(lhs, rhs)


def _s_div_of_curl(d):
    c = fields.apply_operator(d.u, "curl_vec")
    return fzero(fields.apply_operator(c, "div"), c)


def _s_operator_matches_symbol(d):
    # the 9x9 symbol applied one plane at a time (one whole-grid call raised the peak
    # RSS of run_spectral(16) from 44.6 to 47.2 MB) through _map_planes, which checks no
    # symmetry: a wrong symbol is this check's residual, not a refusal of its field
    got = fields.pointwise_part(fields.apply_operator(d.P, "curl_mat"), "devsym")
    return frel(got, fields._map_planes(d.P, 2, lambda c, K: np.stack(
        [apply_symbol(curl_symbol(k, "devsym"), p) for k, p in zip(K, c)]), "devsym symbol"))


SPECTRAL = [
    ("curl_of_gradient_vanishes", _s_curl_of_gradient),
    ("sym_curl_kernel_forward", _s_sym_of_curl_kernel),
    ("inc_of_sym_gradient_vanishes", _s_inc_sym_gradient),
    ("inc_of_skew_gradient_vanishes", _s_inc_skew_gradient),
    ("curl_of_spherical_field", _s_curl_spherical),
    ("curl_of_anti_field", _s_curl_anti_field),
    ("gradient_of_axial_inversion", _s_grad_axl_inversion),
    ("trace_curl_sym_vanishes", _s_trace_curl_sym),
    ("inc_of_spherical_field", _s_inc_spherical),
    ("inc_of_anti_field", _s_inc_anti),
    ("inc_commutes_with_split", _s_inc_commutes_with_split),
    ("inc_commutes_with_transpose", _s_inc_transpose),
    ("trace_inc_curl_sym_vanishes", _s_trace_inc_curl_sym),
    ("sym_gradient_axial_chain", _s_sym_grad_axl_chain),
    ("hessian_trace_chain", _s_hessian_trace_chain),
    ("div_of_curl_vanishes", _s_div_of_curl),
    ("operator_matches_symbol", _s_operator_matches_symbol),
]


def run_algebra(samples=1000, seed=1):
    _check_count("samples", samples)
    d = _samples(samples, _check_count("seed", seed, 0))
    return [IdentityResult(name, samples, fn(d), ALGEBRA_TOL) for name, fn in ALGEBRA]


def run_spectral(n=16, seed=1, draws=3):
    _check_count("draws", draws)
    seed = _check_count("seed", seed, 0)
    for j in range(draws):      # one draw held at a time; a NaN on any draw is kept
        d = _spectral_data(n, seed + 101 * j)
        got = [fn(d) for _, fn in SPECTRAL]
        worst = got if j == 0 else list(map(_worst, worst, got))
    return [IdentityResult(name, draws, w, SPECTRAL_TOL) for (name, _), w in zip(SPECTRAL, worst)]


def run_all(samples=1000, seed=1, n=16):
    return run_algebra(samples, seed) + run_spectral(n, seed)
