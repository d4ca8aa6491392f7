import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from kornlab import cli
from kornlab.algebra3 import (
    EYE3, NotSkewError, NotTracelessSymError, ZeroDirectionError, _check_count,
    anti, axl, cross, dev, dot, frob, mat_norm, numerical_rank, orth_decompose,
    random_rotation, recover_axial, skew, sym, tangential_projector, tp, tr,
    vec_norm,
)
from kornlab.fields import (
    GridField, GridSpec, apply_operator, bump_profile, field_from_samples, pointwise_part,
    random_bandlimited, values,
)
from kornlab.kernels import (
    KernelElement, axial_polynomial, boundary_rank, curl_kernel_closed_form, project_kernel,
)
from kornlab.korn_estimator import frequency_form, korn_constant, lambda_min
from kornlab.symbol import (
    KernelWitness, apply_symbol, build_multiplier, curl_symbol, kernel_basis, sharp_ratio,
)

RNG = np.random.default_rng(20240817)


def test_anti_layout():
    A = anti([1.0, 2.0, 3.0])
    assert_allclose(A, [[0, -3, 2], [3, 0, -1], [-2, 1, 0]])


def test_anti_is_cross_product():
    for _ in range(50):
        a = RNG.standard_normal(3)
        b = RNG.standard_normal(3)
        assert_allclose(anti(a) @ b, np.cross(a, b), atol=1e-14)


def test_anti_broadcasts():
    a = RNG.standard_normal((4, 5, 3))
    A = anti(a)
    assert A.shape == (4, 5, 3, 3)
    assert_allclose(A[2, 3], anti(a[2, 3]))


def test_axl_inverts_anti():
    a = RNG.standard_normal((100, 3)) + 1j * RNG.standard_normal((100, 3))
    assert_allclose(axl(anti(a)), a)


def test_axl_rejects_non_skew():
    with pytest.raises(NotSkewError):
        axl(np.eye(3))
    # a tiny symmetric contamination below tolerance is fine
    A = anti([1.0, 2.0, 3.0]) + 1e-12 * np.eye(3)
    assert_allclose(axl(A), [1, 2, 3], atol=1e-11)


def test_cross_sides():
    P = RNG.standard_normal((3, 3))
    b = RNG.standard_normal(3)
    assert_allclose(cross(P, b), P @ anti(b))


def test_cross_rowwise_meaning():
    # right cross acts on each row like an ordinary vector cross product
    P = RNG.standard_normal((3, 3))
    b = RNG.standard_normal(3)
    X = cross(P, b)
    for i in range(3):
        assert_allclose(X[i], np.cross(P[i], b), atol=1e-14)


def test_parts_sum_and_project():
    X = RNG.standard_normal((20, 3, 3))
    assert_allclose(sym(X) + skew(X), X)
    assert_allclose(tr(dev(X)), 0.0, atol=1e-13)
    assert_allclose(sym(sym(X)), sym(X))
    assert_allclose(tp(tp(X)), X)


def test_dev_matches_identity_formula_bitwise():
    # dev subtracts tr/3 from the diagonal of a copy of X; the formula
    # X - tr(X)/3 * id gives the same bits except at a zero off-diagonal
    # entry: under a negative trace the formula computes -0.0 - (-0.0) =
    # +0.0 where dev keeps the -0.0
    def identity_formula(X):
        return X - tr(X)[..., None, None] / 3.0 * np.eye(3)

    real = RNG.standard_normal((40, 3, 3))
    real[:20, 0, 1] = -0.0
    real[20:, 2, 1] = 0.0
    cplx = RNG.standard_normal((2, 8, 3, 3)) + 1j * RNG.standard_normal((2, 8, 3, 3))
    cplx[0, :, 1, 0] = -0.0
    for X in (real, RNG.standard_normal((3, 3)), cplx):
        new, old = dev(X), identity_formula(X)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert_array_equal(new, old)
        new_parts, old_parts = np.stack([new.real, new.imag]), np.stack([old.real, old.imag])
        flipped = np.signbit(new_parts) != np.signbit(old_parts)
        assert not (flipped & ((new_parts != 0) | np.eye(3, dtype=bool))).any()


def test_bilinear_pairing_is_not_hermitian():
    a = np.array([1.0 + 1j, 0.0, 0.0])
    assert complex(dot(a, a)) == pytest.approx(2j)
    assert float(vec_norm(a)) == pytest.approx(np.sqrt(2.0))
    P = np.diag([1j, 0, 0]).astype(complex)
    assert complex(frob(P, P)) == pytest.approx(-1.0)
    assert float(mat_norm(P)) == pytest.approx(1.0)


_BIG = np.array([1e308, 1e308, 0.0])


# a trace-free part that is not representable: 1.7e308 + 1.7e308 / 3 overflows
_UNBOUNDED = np.diag([1.7e308, -1.7e308, -1.7e308])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, call", [
    ("dot pairing", lambda: dot(_BIG, [10.0, 0.0, 0.0])),             # a product overflows
    ("dot pairing", lambda: dot(_BIG, [1.0, 1.0, 0.0])),              # the sum overflows
    ("dot pairing", lambda: dot([[1.0, 2.0, 3.0], _BIG], [1.0, 1.0, 0.0])),  # one stack row
    ("dot pairing", lambda: dot(1j * _BIG, 1j * _BIG)),
    ("frob pairing", lambda: frob(1e308 * np.eye(3), 10.0 * np.eye(3))),
    ("frob pairing", lambda: frob(np.full((3, 3), 1e308), np.ones((3, 3)))),
    ("trace-free part", lambda: dev(_UNBOUNDED)),
    ("trace-free part", lambda: dev(np.stack([np.eye(3), 1j * _UNBOUNDED]))),
    ("trace-free part", lambda: orth_decompose(_UNBOUNDED)),
    ("cross product", lambda: cross(np.ones((3, 3)), [1e308, -1e308, 1e308])),   # a difference
    ("cross product", lambda: cross(np.full((3, 3), 1e308), np.full(3, 1e308))),  # a product
    ("cross product", lambda: cross(np.stack([np.eye(3), 1j * np.ones((3, 3))]),
                                    [1e308, -1e308, 1e308])),
], ids=["dot-product", "dot-sum", "dot-stack", "dot-complex", "frob-product", "frob-sum",
        "dev", "dev-stack-complex", "orth_decompose", "cross-difference", "cross-product",
        "cross-stack-complex"])
def test_a_pairing_that_overflows_is_named(name, call):
    with pytest.raises(ValueError, match="^entries are too large: the %s overflows$" % name):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1.0, 1j], ids=["real", "complex"])
def test_parts_at_entries_of_1e308_are_finite_and_quiet(c):
    # sym and skew halve before they add, and axl reads its defect over a power of
    # two: no sum of two finite entries overflows, and the defect is a number
    full, skewed = c * np.full((3, 3), 1e308), anti(c * _BIG)
    assert_array_equal(sym(full), full)
    assert_array_equal(skew(skewed), skewed)
    assert_array_equal(axl(skewed), c * _BIG)
    with pytest.raises(NotSkewError, match=r"\(relative defect 1\.000e\+00\)$"):
        axl(full)
    # the trace 3e308 overflows inside einsum; its third is read off the diagonal
    # over a power of two, so the trace-free part is exact and the sphere finite
    want = full - np.diag(np.diag(full))
    assert_array_equal(dev(full), want)
    parts = orth_decompose(full)
    assert_array_equal(parts.devsym, want)
    assert parts.sphere == c * 1e308
    assert_array_equal(dev(np.stack([np.eye(3), full])), np.stack([dev(np.eye(3)), want]))


@pytest.mark.filterwarnings("error")
def test_pairings_propagate_nan_and_inf_quietly():
    got = dot([[np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0], [np.inf, 1e308, 1e308], [1.0, 2.0, 3.0]],
              [1.0, 1.0, 1.0])
    assert_array_equal(got, [np.nan, np.inf, np.inf, 6.0])
    assert np.isnan(dot([np.inf, 0.0, 0.0], [0.0, 1.0, 0.0]))
    assert np.isnan(frob(np.full((3, 3), np.inf), np.eye(3)))       # inf * 0
    assert frob(np.diag([np.inf, 1.0, 1.0]), np.eye(3)) == np.inf
    # the cross product too, also where a finite row meets a non-finite direction
    assert np.isnan(cross(np.full((3, 3), np.inf), [1.0, 2.0, 3.0])).all()
    assert_array_equal(cross(np.eye(3), [np.nan, 0.0, 1.0])[:, 0], [0.0, 1.0, 0.0])
    assert_array_equal(cross(np.diag([np.inf, 1.0, 1.0]), [0.0, 0.0, 1.0])[0], [0, -np.inf, np.nan])


def test_frob_is_trace_pairing():
    P = RNG.standard_normal((3, 3))
    Q = RNG.standard_normal((3, 3))
    assert_allclose(frob(P, Q), np.trace(P.T @ Q))


def test_orth_decompose_roundtrip():
    X = RNG.standard_normal((50, 3, 3)) + 1j * RNG.standard_normal((50, 3, 3))
    parts = orth_decompose(X)
    assert_allclose(parts.reassemble(), X)
    assert_allclose(tr(parts.devsym), 0.0, atol=1e-13)
    assert_allclose(parts.devsym, sym(parts.devsym))
    assert_allclose(parts.skew, -tp(parts.skew))
    # pythagoras with the Hermitian norm
    total = (mat_norm(parts.devsym) ** 2 + mat_norm(parts.skew) ** 2
             + 3.0 * np.abs(parts.sphere) ** 2)
    assert_allclose(total, mat_norm(X) ** 2)


def test_devsym_cross_norm_endpoints():
    # parallel pair: (1/2 + 1/6) |a|^2 |b|^2, perpendicular pair: 1/2
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    val_par = mat_norm(dev(sym(cross(anti(e1), e1)))) ** 2
    val_perp = mat_norm(dev(sym(cross(anti(e1), e2)))) ** 2
    assert_allclose(val_par, 2.0 / 3.0, rtol=1e-14)
    assert_allclose(val_perp, 0.5, rtol=1e-14)


def test_recover_axial_roundtrip():
    for _ in range(100):
        a = RNG.standard_normal(3)
        b = RNG.standard_normal(3) + np.array([0.0, 0.0, 2.0])
        M = dev(sym(cross(anti(a), b)))
        assert_allclose(recover_axial(M, b), a, atol=1e-10)


def test_recover_axial_batched():
    a = RNG.standard_normal((30, 3))
    b = RNG.standard_normal((30, 3))
    b += np.sign(b[:, :1]) + np.where(b[:, :1] == 0, 1.0, 0.0)
    M = dev(sym(cross(anti(a), b)))
    assert_allclose(recover_axial(M, b), a, atol=1e-9)


def test_recover_axial_input_checks():
    b = np.array([0.0, 0.0, 1.0])
    with pytest.raises(NotTracelessSymError):
        recover_axial(np.eye(3), b)          # not traceless
    with pytest.raises(NotTracelessSymError):
        recover_axial(anti([1.0, 0, 0]), b)  # not symmetric
    M = dev(sym(cross(anti([1.0, 2.0, 0.5]), b)))
    with pytest.raises(ZeroDirectionError):
        recover_axial(M, np.zeros(3))
    # a complex direction is refused whatever its imaginary part, zero included
    for bad in (np.array([0, 0, 1 + 1j]), b.astype(complex)):
        with pytest.raises(TypeError, match="^direction must be a real array"):
            recover_axial(M, bad)


@pytest.mark.parametrize("scale, rtol", [(1e-200, 1e-14), (1e-10, 1e-14), (1e200, 1e-14),
                                         (1e-310, 1e-12)])
def test_recover_axial_at_any_scale_of_the_direction(scale, rtol):
    # the map is linear in b, so no length of b is too small or too large;
    # a subnormal b (1e-310) carries fewer bits, and M with it
    a = np.array([1.0, -2.0, 3.0])
    b = scale * np.array([0.3, -0.4, 1.2])
    assert_allclose(recover_axial(dev(sym(cross(anti(a), b))), b), a, rtol=rtol)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix", [np.full((3, 3), np.nan), [[0, 1, 0], [np.inf, 0, 0], [0, 0, 0]],
                                    np.diag([np.inf, 0.0, 0.0])],
                         ids=["nan", "inf-skew", "inf-diagonal"])
@pytest.mark.parametrize("call", [axl, lambda M: recover_axial(M, [0.0, 0.0, 1.0])],
                         ids=["axl", "recover_axial"])
def test_a_non_finite_matrix_is_named(call, matrix):
    # a NaN defect compares false with every tolerance, so a defect test written as
    # its failure let it through: NaN came back, or inf with only a numpy warning
    with pytest.raises(ValueError, match="^matrix must be finite$"):
        call(matrix)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix", [[[0, 1e308, 0], [-1e308, 0, 0], [0, 0, 0]],
                                    np.diag([1e308, 1e308, 0.0])],
                         ids=["huge-skew", "huge-trace"])
def test_recover_axial_refuses_a_huge_matrix_without_a_warning(matrix):
    # M - tp(M) and tr(M) overflow on finite entries near 1e308; the gate reads M
    # over its power of two, so the typed error comes with no numpy warning
    with pytest.raises(NotTracelessSymError):
        recover_axial(matrix, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("b", [[np.inf, 0.0, 0.0], [np.nan, 1.0, 0.0],
                               [[0.0, 0.0, 1.0], [1.0, -np.inf, 0.0]]])
def test_recover_axial_refuses_a_non_finite_direction(b):
    M = dev(sym(cross(anti([1.0, 2.0, 0.5]), [0.0, 0.0, 1.0])))
    with pytest.raises(ZeroDirectionError):
        recover_axial(M, b)


def test_tangential_projector():
    nu = RNG.standard_normal(3)
    nu /= np.linalg.norm(nu)
    P_nu = tangential_projector(nu)
    assert_allclose(P_nu @ nu, 0.0, atol=1e-14)
    assert_allclose(P_nu @ P_nu, P_nu, atol=1e-14)
    assert_allclose(np.trace(P_nu), 2.0)
    # the plane's condition is linear in nu: a direction of any length names it
    assert_array_equal(tangential_projector(2.0 * nu), P_nu)


@pytest.mark.parametrize("nu", [[np.nan, 0.0, 0.0], [[0.0, 0.0, 1.0], [np.nan, np.nan, np.nan]]],
                         ids=["nan", "nan-row"])
def test_tangential_projector_refuses_a_nan_direction(nu):
    with pytest.raises(ZeroDirectionError):
        tangential_projector(nu)


@pytest.mark.parametrize("q", [[0, 0, 0, 0], [np.nan, 1, 0, 0], [np.inf, 0, 0, 0],
                               [[1, 0, 0, 0], [0, 0, 0, 0]]],
                         ids=["zero", "nan", "inf", "zero-row"])
def test_random_rotation_refuses_a_degenerate_quaternion(q):
    # a length that is zero or not finite names the quaternion, with no numpy
    # warning and no NaN rotation
    with pytest.raises(ZeroDirectionError, match="^quaternion length"):
        random_rotation(q)


def test_random_rotation_takes_a_quaternion_of_any_finite_length():
    # a square that would over- or underflow is taken after the exact _pow2 scaling
    q = np.array([1.0, -2.0, 0.5, 3.0])
    for scale in (1e300, 1e-300, 5e-324):
        assert_array_equal(random_rotation(scale * np.eye(4)[0]), np.eye(3))
    assert_allclose(random_rotation(1e200 * q), random_rotation(q), rtol=0, atol=1e-15)


def test_random_rotation_is_rotation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        R = random_rotation(rng.standard_normal(4))
        assert_allclose(R @ R.T, np.eye(3), atol=1e-13)
        assert np.linalg.det(R) == pytest.approx(1.0)


def test_random_rotation_seeded():
    a = random_rotation(np.random.default_rng(11).standard_normal(4))
    b = random_rotation(np.random.default_rng(11).standard_normal(4))
    assert_allclose(a, b)


def test_random_rotation_maps_quaternion_stacks():
    q = np.random.default_rng(5).standard_normal((4, 50, 4))
    R = random_rotation(q)
    assert R.shape == (4, 50, 3, 3)
    assert_allclose(R @ tp(R), np.broadcast_to(np.eye(3), R.shape), atol=1e-13)
    assert_allclose(np.linalg.det(R), 1.0, atol=1e-13)
    # the stack is the single-quaternion calls, bit for bit
    assert_array_equal(R, [[random_rotation(qq) for qq in row] for row in q])
    # each quaternion is normalized as the 1-D np.linalg.norm normalizes it,
    # bit for bit, which a sum over the last axis does not always do
    w, x, y, z = np.array([qq / np.linalg.norm(qq) for qq in q.reshape(-1, 4)]).T
    assert_array_equal(R[..., 0, 0].ravel(), 1 - 2 * (y * y + z * z))
    # so a quaternion's length does not matter
    assert_allclose(random_rotation(3.0 * q[0, 0]), R[0, 0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("call, message", [
    (lambda: anti([1.0, 2.0, 3.0, 4.0]), r"got \(4,\)"),
    (lambda: anti(1.0), r"got \(\)"),
    (lambda: axl(np.zeros((4, 4))), r"got \(4, 4\)"),
    (lambda: cross(np.zeros((3, 4)), [1.0, 2.0, 3.0]), r"got \(3, 4\)"),
    (lambda: cross(np.eye(3), [1.0, 2.0, 3.0, 4.0]), r"got \(4,\)"),
    (lambda: dev(np.eye(4)), r"got \(4, 4\)"),
    (lambda: dev(np.ones(3)), r"got \(3,\)"),
    (lambda: build_multiplier([0.0, 0.0, 1.0, 7.0]), r"got \(4,\)"),
    (lambda: build_multiplier([np.nan, 0.0, 1.0]), "^frequency must be finite$"),
    # the same contract read through the callers
    (lambda: curl_symbol([1, 2, 3, 4, 5, 6], "devsym"), r"got \(6,\)"),
    (lambda: sharp_ratio([0.0, 0.0, 1.0, 7.0]), r"got \(4,\)"),
    (lambda: lambda_min([1.0, 0.0, 0.0, 9.0]), r"got \(4,\)"),
], ids=["anti", "anti-scalar", "axl", "cross-matrix", "cross-vector", "dev", "dev-vector",
        "multiplier", "multiplier-nan", "curl-symbol",
        "sharp-ratio", "lambda-min"])
def test_components_are_read_only_from_their_shape(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("xi", [KernelWitness().xi, np.array([0.0, 0.0, 1.0], dtype=complex)],
                         ids=["multiplier-witness", "multiplier-complex"])
def test_multiplier_refuses_a_complex_frequency(xi):
    # the multiplier is real: a complex frequency is refused, not cast, even when
    # its imaginary part is zero
    with pytest.raises(TypeError, match="^frequency must be a real array"):
        build_multiplier(xi)


_M = dev(sym(cross(anti([1.0, 2.0, 0.5]), [0.0, 0.0, 1.0])))
_PTS = np.random.default_rng(7).integers(-4, 5, (14, 3)).tolist()
_MATS = (np.arange(14 * 9).reshape(14, 3, 3) % 5).tolist()
_E = KernelElement(a_tilde=[1.0, -2.0, 0.5], beta=0.7, b=[0.3, 0.0, 4.0], d=[0.2, -0.1, 0.4])


def _fit(r):
    e = r.element
    return r.residual, r.cond, e.a_tilde, e.beta, e.b, e.d


# every real array input: the name its TypeError gives, a call reading it, and
# an integer list the call accepts
_REAL_INPUTS = {
    "recover_axial": ("direction", lambda x: recover_axial(_M, x), [0, 0, 2]),
    "tangential_projector": ("direction", tangential_projector, [0, 1, 0]),
    "random_rotation": ("quaternion", random_rotation, [[1, 2, 3, 4], [0, -1, 0, 5]]),
    "numerical_rank": ("singular values", numerical_rank, [[3, 1, 0], [2, 2, 1]]),
    "build_multiplier": ("frequency", build_multiplier, [1, 2, 3]),
    "frequency_form": ("frequency", frequency_form, [[1, 2, 3], [0, 0, 0]]),
    "lambda_min": ("frequency", lambda_min, [[1, 2, 3], [0, 0, 0]]),
    "bump_profile": ("radius", bump_profile, [[0, 1], [2, 3]]),
    "element-a_tilde": ("a_tilde", lambda x: KernelElement(a_tilde=x).a_tilde, [1, -2, 3]),
    "element-b": ("b", lambda x: KernelElement(b=x).b, [1, -2, 3]),
    "element-d": ("d", lambda x: KernelElement(d=x).d, [1, -2, 3]),
    "points": ("points", boundary_rank, _PTS),
    "axial_polynomial": ("point", lambda x: axial_polynomial(_E, x), _PTS),
    "curl_kernel_closed_form": ("point", lambda x: curl_kernel_closed_form(_E, x), _PTS),
    "project-points": ("points", lambda x: _fit(project_kernel(x, np.array(_MATS, float))), _PTS),
    "project-matrices": ("matrices", lambda x: _fit(project_kernel(_PTS, x)), _MATS),
    "field_from_samples": ("samples", lambda x: values(field_from_samples(GridSpec(4), 0, x)),
                           (np.arange(64).reshape(4, 4, 4) % 7).tolist()),
}
_NOT_REAL = {"complex": complex, "bool": bool, "text": str}


@pytest.mark.parametrize("kind", _NOT_REAL)
@pytest.mark.parametrize("site", _REAL_INPUTS)
def test_real_inputs_refuse_other_dtypes(site, kind):
    # complex (even with a zero imaginary part), bool and text entries are refused,
    # in the shape the input expects, never cast to float
    name, call, value = _REAL_INPUTS[site]
    with pytest.raises(TypeError, match="^%s must be a real array, got dtype" % name):
        call(np.array(value).astype(_NOT_REAL[kind]))


@pytest.mark.parametrize("site", _REAL_INPUTS)
def test_real_inputs_read_integers_as_floats(site):
    _, call, value = _REAL_INPUTS[site]
    got, want = call(value), call(np.array(value, dtype=float))
    for g, w in zip(*(x if isinstance(x, tuple) else (x,) for x in (got, want))):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


# every input that may be complex (read by _numeric): the name its TypeError
# gives, a call reading it, and an integer list the call accepts
_INT3 = [[0, -3, 2], [3, 0, -1], [-2, 1, 0]]
_NUMERIC_INPUTS = {
    "anti": ("vector", anti, [1, 2, 3]),
    "axl": ("matrix", axl, _INT3),
    "recover_axial-matrix": ("matrix", lambda x: recover_axial(x, [0, 0, 1]),
                             [[0, 0, 1], [0, 0, 2], [1, 2, 0]]),
    "cross-matrix": ("matrix", lambda x: cross(x, [1, 2, 3]), _INT3),
    "cross-vector": ("vector", lambda x: cross(EYE3, x), [1, 2, 3]),
    "dev": ("matrix", dev, _INT3),
    "dot-left": ("vector", lambda x: dot(x, [1, 2, 3]), [1, 2, 3]),
    "dot-right": ("vector", lambda x: dot([1, 2, 3], x), [1, 2, 3]),
    "frob-left": ("matrix", lambda x: frob(x, _INT3), _INT3),
    "frob-right": ("matrix", lambda x: frob(_INT3, x), _INT3),
    "curl_symbol": ("frequency", curl_symbol, [1, 2, 3]),
    "apply_symbol-op": ("symbol", lambda x: apply_symbol(x, EYE3), np.eye(9, dtype=int).tolist()),
    "apply_symbol-matrix": ("matrix", lambda x: apply_symbol(np.eye(9), x), _INT3),
    "kernel_basis": ("operator", lambda x: kernel_basis(x).dimension, np.eye(9, dtype=int).tolist()),
}


@pytest.mark.parametrize("kind", ["bool", "text"])
@pytest.mark.parametrize("site", _NUMERIC_INPUTS)
def test_numeric_inputs_refuse_bools_and_text(site, kind):
    # integer, float and complex entries are read; bool and text entries are
    # refused by name, not cast to numbers
    name, call, value = _NUMERIC_INPUTS[site]
    call(value)
    call(np.array(value, dtype=complex))
    with pytest.raises(TypeError, match="^%s must be a real or complex array, got dtype" % name):
        call(np.array(value).astype(_NOT_REAL[kind]))


def test_no_imaginary_part_is_cast_away():
    # each of these once read only the real part, with at most a ComplexWarning
    pts = np.random.default_rng(1).standard_normal((14, 3))
    with pytest.raises(TypeError, match="^matrices must be a real array"):
        project_kernel(pts, 1j * np.ones((14, 3, 3)))
    with pytest.raises(TypeError, match="^a_tilde must be a real array"):
        KernelElement(a_tilde=np.array([1j, 0, 0]))
    with pytest.raises(TypeError, match="^frequency must be a real array"):
        lambda_min(np.array([1, 5j, 0]))


@pytest.mark.parametrize("call, message", [
    (lambda: tangential_projector([1, 0]), r"^direction must have shape \(\.\.\., 3\), got \(2,\)"),
    (lambda: random_rotation([1, 0, 0]), r"^quaternion must have shape \(\.\.\., 4\), got \(3,\)"),
    (lambda: numerical_rank(1.0), r"^singular values must have at least one axis, got a scalar"),
    (lambda: KernelElement(b=np.zeros((2, 3))), r"^b must be a 3-vector, got shape \(2, 3\)"),
    (lambda: axial_polynomial(_E, [1, 0]), r"^point must have shape \(\.\.\., 3\), got \(2,\)"),
], ids=["tangential-projector", "random-rotation", "numerical-rank", "element-stack",
        "axial-polynomial"])
def test_real_inputs_name_a_wrong_shape(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("value, message", [
    ("x", "^kmax must be an integer, got 'x'$"),
    (None, "^kmax must be an integer, got None$"),
    (2.5, "^kmax must be an integer, got 2.5$"),
], ids=["count-str", "count-none", "count-float"])
def test_check_count_refuses_non_integers(value, message):
    with pytest.raises(TypeError, match=message):
        _check_count("kmax", value)


_FIELD = GridField(GridSpec(4), 2, np.zeros((4, 4, 4, 3, 3)))
_FORMAT = {key: read for key, _, read, _ in cli._OPTIONS}["format"]
# every input that names one of a fixed set (read by _choice): the name its
# ValueError gives and a call reading it
_CHOICES = {
    "apply_operator": ("operator", lambda v: apply_operator(_FIELD, v)),
    "pointwise_part": ("part", lambda v: pointwise_part(_FIELD, v)),
    "random_bandlimited": ("structure", lambda v: random_bandlimited(GridSpec(4), 0, 1, v)),
    "curl_symbol": ("part", lambda v: curl_symbol([1.0, 0.0, 0.0], v)),
    "project_kernel": ("space", lambda v: project_kernel(_PTS, _MATS, v)),
    "format": ("format", _FORMAT),
}


@pytest.mark.parametrize("value", ["grad ", ["grad"]], ids=["string", "list"])
@pytest.mark.parametrize("site", _CHOICES)
def test_choices_name_a_value_outside_their_set(site, value):
    # a list is refused as a wrong string is, not by a failed hash
    name, call = _CHOICES[site]
    with pytest.raises(ValueError, match="^%s must be one of .*, got %s$"
                       % (name, re.escape(repr(value)))):
        call(value)


def _put(a, x):
    """a as a float array with its entry 4 (in row-major order) replaced by x."""
    a = np.array(a, dtype=float)
    a.flat[4] = x
    return a


# every array input that must be finite (read by _finite): the name its
# ValueError gives, and a call reading an accepted value with one entry replaced
_FINITE_INPUTS = {
    "curl_symbol": ("frequency", lambda x: curl_symbol(_put([[1, 0, 0], [0, 1, 0]], x))),
    "kernel_basis": ("operator", lambda x: kernel_basis(_put(np.eye(9), x))),
    "build_multiplier": ("frequency", lambda x: build_multiplier(_put([[1, 0, 0], [0, 1, 0]], x))),
    "frequency_form": ("frequency", lambda x: frequency_form(_put([[1, 0, 0], [0, 1, 0]], x))),
    "points": ("points", lambda x: boundary_rank(_put(_PTS, x))),
    "axial_polynomial": ("point", lambda x: axial_polynomial(_E, _put(_PTS, x))),
    "matrices": ("matrices", lambda x: project_kernel(_PTS, _put(_MATS, x))),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("site", _FINITE_INPUTS)
def test_finite_inputs_name_nan_and_inf(site, bad):
    # refused by name before numpy sees the value; with filterwarnings = error an
    # invalid-value warning or a LinAlgError on the way would fail this instead
    name, call = _FINITE_INPUTS[site]
    with pytest.raises(ValueError, match="^%s must be finite$" % name):
        call(bad)


def test_array_holders_compare_by_identity():
    # each holds arrays, whose == has no single truth value: two instances with
    # equal content are distinct, and each one hashes
    makers = [
        lambda: GridField(GridSpec(4), 0, np.zeros((4, 4, 4))),
        lambda: korn_constant(1),
        lambda: KernelElement(a_tilde=[1.0, 2.0, 3.0]),
        lambda: KernelWitness(),
        lambda: orth_decompose(np.eye(3)),
        lambda: kernel_basis(curl_symbol([1.0, 0.0, 0.0], "devsym")),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and not a == b and a != b
        assert len({a, b}) == 2 and hash(a) == hash(a)


def _plain_norm(x, axes):
    """The textbook Hermitian norm, the reference on inputs of moderate size."""
    return np.sqrt(np.sum(np.abs(x) ** 2, axis=axes))


def _axial_roundtrip(scale):
    """recover_axial on a scaled a, divided back: [1, -2, 3] to rounding."""
    b = np.array([0.3, -0.4, 1.2])
    return recover_axial(dev(sym(cross(anti(scale * np.array([1.0, -2.0, 3.0])), b))), b) / scale


_STACK = np.random.default_rng(3).standard_normal((2, 40, 3, 3))
_CSTACK = _STACK[0] + 1j * _STACK[1]


# each norm is exact (rtol 0) or checked to rtol; an error type is raised instead.
# The suite runs with filterwarnings = error, so an overflow warning fails a case.
@pytest.mark.parametrize("call, want, rtol", [
    (lambda: axl(1e-200 * np.eye(3)), NotSkewError, None),
    (lambda: recover_axial(1e-200 * anti([1.0, 2.0, 3.0]), [0.0, 0.0, 1.0]),
     NotTracelessSymError, None),
    (lambda: tangential_projector([1e200, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0]), 0.0),
    (lambda: _axial_roundtrip(1e300), [1.0, -2.0, 3.0], 1e-14),
    (lambda: _axial_roundtrip(1e-300), [1.0, -2.0, 3.0], 1e-14),
    (lambda: vec_norm([1e200, 0.0, 0.0]), 1e200, 0.0),
    (lambda: vec_norm([1e-170, 0.0, 0.0]), 1e-170, 0.0),
    (lambda: mat_norm(1e-200 * np.eye(3)), np.sqrt(3.0) * 1e-200, 0.0),
    (lambda: mat_norm(1e300 * np.ones((3, 3))), 3e300, 1e-15),
    # an underflowing square in a row of moderate norm leaves that row's plain value
    (lambda: vec_norm([[1.0, 1e-200, 0.0], [1e-200, 0.0, 0.0]]), [1.0, 1e-200], 0.0),
    (lambda: vec_norm([[np.nan, 1.0, 0.0], [np.inf, 1.0, 0.0], [np.inf, np.nan, 0.0],
                       [1e300, np.nan, 0.0], [0.0, 0.0, 0.0]]),
     [np.nan, np.inf, np.nan, np.nan, 0.0], 0.0),
    (lambda: mat_norm(_STACK), _plain_norm(_STACK, (-2, -1)), 0.0),
    (lambda: vec_norm(_STACK), _plain_norm(_STACK, -1), 0.0),
    (lambda: mat_norm(_CSTACK), _plain_norm(_CSTACK, (-2, -1)), 0.0),
    (lambda: vec_norm(_CSTACK), _plain_norm(_CSTACK, -1), 0.0),
], ids=["axl-tiny", "recover-axial-tiny", "projector-huge", "roundtrip-huge", "roundtrip-tiny",
        "vec-huge", "vec-tiny", "mat-tiny", "mat-huge", "mixed-rows", "nan-inf-zero", "real-mat", "real-vec",
        "complex-mat", "complex-vec"])
def test_norms_hold_across_the_double_range(call, want, rtol):
    if isinstance(want, type):
        with pytest.raises(want):
            call()
    else:
        assert_allclose(call(), want, rtol=rtol, atol=0.0)
