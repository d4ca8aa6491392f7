import numpy as np
import pytest
from numpy.testing import assert_allclose

from kornlab.algebra3 import anti, dev, sym
from kornlab.kernels import (
    DegenerateGeometryError, KernelElement, TooFewSamplesError,
    axial_polynomial, boundary_rank, boundary_system, curl_kernel_closed_form,
    eval_kernel, project_kernel,
)

RNG = np.random.default_rng(20240820)

E3 = np.array([0.0, 0.0, 1.0])


def random_element(rng):
    return KernelElement(a_tilde=rng.standard_normal(3),
                         beta=float(rng.standard_normal()),
                         b=rng.standard_normal(3),
                         d=rng.standard_normal(3))


def test_eval_kernel_spot_value():
    e = KernelElement(d=E3)
    # axial(e3) = <e3,e3> e3 - e3/2 = e3/2
    assert_allclose(eval_kernel(e, E3), anti(0.5 * E3), atol=1e-15)


def test_eval_kernel_is_skew():
    e = random_element(RNG)
    x = RNG.standard_normal((40, 3))
    K = eval_kernel(e, x)
    assert K.shape == (40, 3, 3)
    assert_allclose(K, -K.swapaxes(-1, -2), atol=1e-14)
    assert_allclose(K, anti(axial_polynomial(e, x)), atol=1e-14)


def test_axial_polynomial_parameter_roles():
    x = RNG.standard_normal(3)
    assert_allclose(axial_polynomial(KernelElement(b=[1, 2, 3]), x), [1, 2, 3])
    assert_allclose(axial_polynomial(KernelElement(beta=2.0), x), 2.0 * x)
    a = np.array([0.0, 1.0, 0.0])
    assert_allclose(axial_polynomial(KernelElement(a_tilde=a), x), np.cross(a, x))
    d = np.array([1.0, 0.0, 0.0])
    want = np.dot(d, x) * x - 0.5 * d * np.dot(x, x)
    assert_allclose(axial_polynomial(KernelElement(d=d), x), want)


def test_closed_form_curl_matches_finite_differences():
    # rows of the curl are curls of the rows; central differences are exact
    # for quadratic polynomials up to rounding
    e = random_element(RNG)
    h = 1e-3
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    for _ in range(10):
        x = RNG.standard_normal(3)
        # (Curl P)_{ij} = eps_{jlm} dP_{im}/dx_l
        got = np.zeros((3, 3))
        for l in range(3):
            step = np.zeros(3)
            step[l] = h
            dP = (eval_kernel(e, x + step) - eval_kernel(e, x - step)) / (2.0 * h)
            got += np.einsum("jm,im->ij", eps[:, l, :], dP)
        assert_allclose(got, curl_kernel_closed_form(e, x), atol=1e-9)


def test_curl_of_kernel_has_no_devsym_part():
    # the defining property of the ten-parameter family
    e = random_element(RNG)
    x = RNG.standard_normal((100, 3))
    c = curl_kernel_closed_form(e, x)
    assert_allclose(dev(sym(c)), 0.0, atol=1e-13)


def test_sym_subfamily_has_skew_curl():
    e = KernelElement(a_tilde=RNG.standard_normal(3), b=RNG.standard_normal(3))
    x = RNG.standard_normal((50, 3))
    c = curl_kernel_closed_form(e, x)
    assert_allclose(sym(c), 0.0, atol=1e-14)


def test_conformal_field_has_no_devsym_gradient():
    # the axial polynomial is a conformal Killing field
    e = KernelElement(a_tilde=RNG.standard_normal(3), beta=1.3,
                      b=RNG.standard_normal(3), d=RNG.standard_normal(3))
    h = 1e-4
    for _ in range(10):
        x = RNG.standard_normal(3)
        grad = np.zeros((3, 3))
        for l in range(3):
            step = np.zeros(3)
            step[l] = h
            grad[:, l] = (axial_polynomial(e, x + step)
                          - axial_polynomial(e, x - step)) / (2.0 * h)
        assert_allclose(dev(sym(grad)), 0.0, atol=1e-9)


def test_project_kernel_exact_recovery():
    e = random_element(RNG)
    pts = RNG.standard_normal((12, 3))
    mats = eval_kernel(e, pts)
    fit = project_kernel(pts, mats, "devsym")
    assert fit.residual < 1e-12
    assert fit.cond < 1e3
    assert_allclose(fit.element.a_tilde, e.a_tilde, atol=1e-12)
    assert fit.element.beta == pytest.approx(e.beta, abs=1e-12)
    assert_allclose(fit.element.b, e.b, atol=1e-12)
    assert_allclose(fit.element.d, e.d, atol=1e-12)


def test_project_kernel_sym_space():
    e = KernelElement(a_tilde=[1.0, -2.0, 0.5], b=[0.3, 0.0, 4.0])
    pts = RNG.standard_normal((7, 3))
    fit = project_kernel(pts, eval_kernel(e, pts), "sym")
    assert fit.residual < 1e-12
    assert_allclose(fit.element.a_tilde, e.a_tilde, atol=1e-12)
    assert_allclose(fit.element.b, e.b, atol=1e-12)
    assert fit.element.beta == 0.0
    assert_allclose(fit.element.d, 0.0)


def test_project_kernel_noisy_fit():
    e = random_element(RNG)
    pts = RNG.standard_normal((40, 3))
    mats = eval_kernel(e, pts) + 1e-4 * RNG.standard_normal((40, 3, 3))
    fit = project_kernel(pts, mats, "devsym")
    assert 1e-6 < fit.residual < 1e-2
    assert_allclose(fit.element.b, e.b, atol=1e-3)
    assert_allclose(fit.element.d, e.d, atol=1e-3)


def test_project_kernel_sample_counts():
    e = random_element(RNG)
    pts = RNG.standard_normal((9, 3))
    with pytest.raises(TooFewSamplesError):
        project_kernel(pts, eval_kernel(e, pts), "devsym")
    pts5 = pts[:5]
    with pytest.raises(TooFewSamplesError):
        project_kernel(pts5, eval_kernel(e, pts5), "sym")
    with pytest.raises(ValueError):
        project_kernel(pts, eval_kernel(e, pts), "full")
    with pytest.raises(ValueError):
        project_kernel(pts, eval_kernel(e, pts)[:3], "sym")


def test_project_kernel_degenerate_points():
    e = random_element(RNG)
    pts = np.tile(RNG.standard_normal(3), (12, 1))
    with pytest.raises(DegenerateGeometryError):
        project_kernel(pts, eval_kernel(e, pts), "devsym")


def test_boundary_system_encodes_the_field():
    pts = RNG.standard_normal((6, 3))
    rows = boundary_system(pts)
    assert rows.shape == (18, 10)
    a_tilde = RNG.standard_normal(3)
    beta = float(RNG.standard_normal())
    b = RNG.standard_normal(3)
    d = RNG.standard_normal(3)
    theta = np.concatenate([a_tilde, [beta], b, d])
    e = KernelElement(a_tilde=a_tilde, beta=beta, b=b, d=d)
    want = axial_polynomial(e, pts).reshape(18)
    assert_allclose(rows @ theta, want, atol=1e-12)


def test_boundary_rank_random_sphere_points():
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        pts = rng.standard_normal((12, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert boundary_rank(pts) == 10


def test_boundary_rank_minimal_counts():
    # at m points the system has 3m rows, so m = 3 cannot reach rank 10
    rng = np.random.default_rng(5)
    assert boundary_rank(rng.standard_normal((3, 3))) <= 9
    assert boundary_rank(rng.standard_normal((4, 3))) == 10
    # an empty set pins nothing
    assert boundary_rank(np.zeros((0, 3))) == 0


def test_boundary_rank_collinear_points():
    t = np.linspace(-2.0, 2.0, 5)
    line = np.stack([t, 0.5 * t, -0.25 * t], axis=1)
    assert boundary_rank(line) < 10


def test_boundary_rank_circle_through_origin():
    # unit circle in the plane x3 = 0 centered at (0, 1, 0): on it
    # |x|^2 = 2 x2, and the quadratic field with A_axial = e1, d = e3
    # vanishes identically
    th = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
    circle = np.stack([np.cos(th), 1.0 + np.sin(th), np.zeros_like(th)], axis=1)
    assert boundary_rank(circle) == 9
    theta = np.zeros(10)
    theta[0] = 1.0        # A_axial = e1
    theta[9] = 1.0        # d = e3
    assert_allclose(boundary_system(circle) @ theta, 0.0, atol=1e-13)


def test_projection_is_degenerate_exactly_where_the_boundary_rank_drops():
    # the circle above, moved off itself: one rank cut (algebra3.numerical_rank)
    # decides both whether the points are rigid and whether a fit is refused
    th = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
    circle = np.stack([np.cos(th), 1.0 + np.sin(th), np.zeros_like(th)], axis=1)
    e = random_element(np.random.default_rng(7))
    noise = np.random.default_rng(8).standard_normal(circle.shape)
    ranks = []
    for eps in (1e-6, 1e-9, 1e-10, 1e-13):
        pts = circle + eps * noise
        ranks.append(boundary_rank(pts))
        if ranks[-1] < 10:
            with pytest.raises(DegenerateGeometryError, match="rank 9 of 10"):
                project_kernel(pts, eval_kernel(e, pts), "devsym")
        else:
            fit = project_kernel(pts, eval_kernel(e, pts), "devsym")
            assert fit.residual < 1e-8
    assert ranks == [10, 9, 9, 9]


def test_point_cloud_validation():
    with pytest.raises(ValueError, match=r"points must have shape \(m, 3\)"):
        boundary_rank(np.zeros((4, 2)))
    # non-finite points and matrices are named, not left to the SVD
    pts = RNG.standard_normal((12, 3))
    mats = eval_kernel(random_element(RNG), pts)
    bad = pts.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="points must be finite"):
        boundary_rank(bad)
    with pytest.raises(ValueError, match="points must be finite"):
        project_kernel(bad, mats)
    bad = mats.copy()
    bad[5, 0, 2] = np.inf
    with pytest.raises(ValueError, match="matrices must be finite"):
        project_kernel(pts, bad)
    with pytest.raises(ValueError):
        KernelElement(a_tilde=np.zeros(4))


_E_RNG = np.random.default_rng(5)
_E_PTS = _E_RNG.standard_normal((14, 3))
_E = random_element(_E_RNG)
_OVERFLOW_CALLS = {     # name: call on a point set
    "project_kernel": lambda pts: project_kernel(pts, eval_kernel(_E, _E_PTS)).residual,
    "boundary_system": boundary_system,
    "boundary_rank": boundary_rank,
    "eval_kernel": lambda pts: eval_kernel(_E, pts),
    "axial_polynomial": lambda pts: axial_polynomial(_E, pts),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e154, 1e160, 1e200])
@pytest.mark.parametrize("name", _OVERFLOW_CALLS)
def test_kernel_maps_name_points_whose_polynomial_overflows(name, scale):
    # the axial polynomial is quadratic in the points: from about 1e154 its |x|^2
    # terms are inf, which is named before an SVD sees it, with no overflow warning
    # on the way (boundary_rank's SVD used to fail to converge)
    call = _OVERFLOW_CALLS[name]
    with pytest.raises(ValueError, match="^points are too large: the kernel polynomial overflows$"):
        call(scale * _E_PTS)
    assert np.isfinite(call(_E_PTS)).all()


@pytest.mark.parametrize("call", [axial_polynomial, eval_kernel, curl_kernel_closed_form])
def test_kernel_maps_name_an_element_of_the_wrong_class(call):
    with pytest.raises(TypeError, match=r"^element must be a KernelElement, got \(0\.0, 0\.0\)$"):
        call((0.0, 0.0), E3)


@pytest.mark.parametrize("beta", [True, "1"])
def test_kernel_element_beta_is_a_real_number(beta):
    # beta is read by the library's one real reader: no bool, no text
    with pytest.raises(TypeError, match="beta must be a real number"):
        KernelElement(beta=beta)
    assert type(KernelElement(beta=np.float32(0.5)).beta) is float


@pytest.mark.parametrize("name, value", [("beta", np.nan), ("a_tilde", [np.inf, 0.0, 0.0]),
                                         ("d", [0.0, -np.inf, 0.0]), ("b", [0.0, 0.0, np.nan])])
def test_kernel_element_parameters_are_finite(name, value):
    with pytest.raises(ValueError, match="^%s must be finite$" % name):
        KernelElement(**{name: value})
