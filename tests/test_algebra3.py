import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from kornlab.algebra3 import (
    NotSkewError, NotTracelessSymError, NotUnitError, ZeroDirectionError,
    anti, axl, cross, dev, dot, frob, mat_norm, orth_decompose,
    random_rotation, recover_axial, skew, sym, tangential_projector, tp, tr,
    vec_norm,
)
from kornlab.korn_estimator import lambda_min
from kornlab.symbol import KernelWitness, build_multiplier, curl_symbol, sharp_ratio

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
    with pytest.raises(ZeroDirectionError):
        recover_axial(M, np.array([0, 0, 1 + 1j]))
    # a complex direction with a zero imaginary part is its real part
    a = recover_axial(M, b.astype(complex))
    assert a.dtype == float
    assert_array_equal(a, recover_axial(M, b))


def test_tangential_projector():
    nu = RNG.standard_normal(3)
    nu /= np.linalg.norm(nu)
    P_nu = tangential_projector(nu)
    assert_allclose(P_nu @ nu, 0.0, atol=1e-14)
    assert_allclose(P_nu @ P_nu, P_nu, atol=1e-14)
    assert_allclose(np.trace(P_nu), 2.0)
    with pytest.raises(NotUnitError):
        tangential_projector(2.0 * nu)


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
    (lambda: build_multiplier(KernelWitness().xi), "real, finite"),
    (lambda: build_multiplier(np.array([0.0, 0.0, 1.0], dtype=complex)), "real, finite"),
    (lambda: build_multiplier([np.nan, 0.0, 1.0]), "real, finite"),
    # the same contract read through the callers
    (lambda: curl_symbol([1, 2, 3, 4, 5, 6], "devsym"), r"got \(6,\)"),
    (lambda: sharp_ratio([0.0, 0.0, 1.0, 7.0]), r"got \(4,\)"),
    (lambda: lambda_min([1.0, 0.0, 0.0, 9.0]), r"got \(4,\)"),
], ids=["anti", "anti-scalar", "axl", "cross-matrix", "cross-vector", "dev", "dev-vector",
        "multiplier", "multiplier-witness", "multiplier-complex", "multiplier-nan", "curl-symbol",
        "sharp-ratio", "lambda-min"])
def test_components_are_read_only_from_their_shape(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    (lambda: tangential_projector([1e200, 0.0, 0.0]), NotUnitError, None),
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
