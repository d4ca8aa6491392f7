import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from kornlab.algebra3 import RANK_TOL, anti, dev, dot, mat_norm, sym
from kornlab.symbol import (
    KernelWitness, ZeroFrequencyError, apply_symbol, basis_matrices,
    build_multiplier, curl_symbol, kernel_basis,
    sharp_ratio,
)

RNG = np.random.default_rng(20240818)

SQRT3 = 1.7320508075688772


def test_basis_matrices_layout():
    E = basis_matrices()
    assert E.shape == (9, 3, 3)
    for j in range(9):
        want = np.zeros((3, 3))
        want[j // 3, j % 3] = 1.0
        assert_allclose(E[j], want)


def test_curl_symbol_matches_direct_formula():
    for _ in range(20):
        xi = RNG.standard_normal(3)
        P = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        full = apply_symbol(curl_symbol(xi, "full"), P)
        assert_allclose(full, -1j * (P @ anti(xi)), atol=1e-13)
        assert_allclose(apply_symbol(curl_symbol(xi, "sym"), P), sym(full), atol=1e-13)
        assert_allclose(apply_symbol(curl_symbol(xi, "devsym"), P),
                        dev(sym(full)), atol=1e-13)


def test_curl_symbol_flattening_convention():
    # column j of the operator is the image of the j-th basis matrix
    xi = np.array([0.3, -1.2, 0.7])
    op = curl_symbol(xi, "full")
    E = basis_matrices()
    for j in range(9):
        assert_allclose(op[:, j], (-1j * (E[j] @ anti(xi))).reshape(9), atol=1e-14)


def test_curl_symbol_linear_in_xi():
    xi = RNG.standard_normal(3)
    eta = RNG.standard_normal(3)
    for part in ("full", "sym", "devsym"):
        assert_allclose(curl_symbol(xi + eta, part),
                        curl_symbol(xi, part) + curl_symbol(eta, part), atol=1e-13)


def test_curl_symbol_accepts_frequency_stacks():
    xi = RNG.standard_normal((12, 3))
    P = RNG.standard_normal((12, 3, 3)) + 1j * RNG.standard_normal((12, 3, 3))
    for part in ("full", "sym", "devsym"):
        ops = curl_symbol(xi, part)
        assert ops.shape == (12, 9, 9)
        images = apply_symbol(ops, P)
        for m in range(12):
            one = curl_symbol(xi[m], part)
            assert_array_equal(ops[m], one)
            assert_allclose(images[m], apply_symbol(one, P[m]), atol=1e-14)


@pytest.mark.parametrize("part", ["full", "sym", "devsym"])
@pytest.mark.filterwarnings("error")
def test_every_finite_frequency_has_a_finite_symbol(part):
    # each entry of the symbol is one product c * xi_a with |c| <= 1: at
    # (1e308, 1e308, 0), alone and as one row of a stack, the symbol is finite with
    # no warning, and it scales with xi exactly (by 2^e, which rounds nothing)
    big = np.array([1e308, 1e308, 0.0])
    want = 2.0 ** 1000 * curl_symbol(big / 2.0 ** 1000, part)
    for op in (curl_symbol(big, part), curl_symbol([[0.0, 0.0, 1.0], big], part)[1]):
        assert np.isfinite(op).all()
        assert_array_equal(op, want)


def test_curl_symbol_peak_is_its_output():
    # one einsum over a table built at import: on the 4096 frequencies of an n = 16
    # grid the peak is the output (5.1 MB), where building the symbol from the
    # cross, sym and dev images of the basis peaked at 16.3 MB
    K = np.indices((16, 16, 16)).reshape(3, -1).T - 8.0
    tracemalloc.start()
    try:
        op = curl_symbol(K, "devsym")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.shape == (4096, 9, 9)
    assert peak <= 1.1 * op.nbytes, "traced peak %.1f MB" % (peak / 2 ** 20)


def test_curl_symbol_bad_part():
    with pytest.raises(ValueError):
        curl_symbol([0, 0, 1], part="trace")


def test_kernel_dimensions_real_frequency():
    # full symbol: P = c (x) xi, dimension 3; projected symbols: dimension 4
    for _ in range(25):
        xi = RNG.standard_normal(3)
        assert kernel_basis(curl_symbol(xi, "full")).dimension == 3
        assert kernel_basis(curl_symbol(xi, "sym")).dimension == 4
        assert kernel_basis(curl_symbol(xi, "devsym")).dimension == 4


def test_kernel_basis_properties():
    xi = np.array([1.0, -2.0, 0.5])
    op = curl_symbol(xi, "devsym")
    basis = kernel_basis(op)
    assert basis.vectors.shape == (4, 3, 3)
    assert basis.singular_values.shape == (9,)
    assert np.all(np.diff(basis.singular_values) <= 1e-12)
    for v in basis.vectors:
        assert float(mat_norm(apply_symbol(op, v))) < 1e-12
    gram = np.einsum("aij,bij->ab", basis.vectors, basis.vectors.conj())
    assert_allclose(gram, np.eye(4), atol=1e-12)
    # the relative cut counts no direction of the zero operator as range
    assert kernel_basis(np.zeros((9, 9))).dimension == 9


@pytest.mark.parametrize("op", [np.eye(3), np.eye(4), np.eye(10), np.zeros(81),
                                np.zeros((1, 9, 9))])
def test_kernel_basis_refuses_a_non_9x9_operator(op):
    with pytest.raises(ValueError, match=r"shape \(9, 9\), got"):
        kernel_basis(op)


def test_sym_and_devsym_kernels_agree():
    xi = RNG.standard_normal(3)
    for v in kernel_basis(curl_symbol(xi, "devsym")).vectors:
        assert float(mat_norm(apply_symbol(curl_symbol(xi, "sym"), v))) < 1e-12


def _pinv_multiplier(xi):
    """The numerical route: A_sym times the pseudo-inverse of A, cut at the shared RANK_TOL."""
    return curl_symbol(xi, "sym") @ np.linalg.pinv(curl_symbol(xi, "devsym"), rcond=RANK_TOL)


def test_closed_form_multiplier_matches_the_pseudo_inverse():
    # directions over ten decades of |xi|; the closed form is real, the reference complex
    xi = RNG.standard_normal((1000, 3)) * 10.0 ** RNG.uniform(-5.0, 5.0, (1000, 1))
    m = build_multiplier(xi)
    assert m.dtype == np.float64 and m.shape == (1000, 9, 9)
    assert np.abs(m - _pinv_multiplier(xi)).max() < 1e-13
    for one in xi:
        assert np.abs(build_multiplier(one) - _pinv_multiplier(one)).max() < 1e-13


def test_multiplier_identity_and_homogeneity():
    for _ in range(25):
        xi = RNG.standard_normal(3)
        xi /= np.linalg.norm(xi)
        m = build_multiplier(xi)
        a = curl_symbol(xi, "devsym")
        a_sym = curl_symbol(xi, "sym")
        assert float(np.linalg.norm(m @ a - a_sym)) < 1e-12
        # 1e300 * xi has no finite Euclidean length
        for t in (2.0, 0.25, 17.0, 1e-11, 1e300):
            assert float(np.linalg.norm(build_multiplier(t * xi) - m)) < 1e-12


def test_multiplier_bounded():
    norms = []
    for _ in range(200):
        xi = RNG.standard_normal(3)
        norms.append(np.linalg.norm(build_multiplier(xi), 2))
    norms = np.array(norms)
    # degree-zero symbol: the operator norm cannot depend on |xi|, and its
    # value is exactly the sharp sym/devsym ratio
    assert norms.max() - norms.min() < 1e-9
    assert norms.max() == pytest.approx(SQRT3, abs=1e-9)


def test_zero_frequency_rejected():
    with pytest.raises(ZeroFrequencyError):
        build_multiplier([0.0, 0.0, 0.0])
    with pytest.raises(ZeroFrequencyError):
        sharp_ratio(np.zeros(3))


def test_multiplier_and_ratio_accept_frequency_stacks():
    xi = RNG.standard_normal((4, 5, 3))
    m = build_multiplier(xi)
    ratios = sharp_ratio(xi)
    assert m.shape == (4, 5, 9, 9)
    assert ratios.shape == (4, 5)
    for idx in np.ndindex(4, 5):
        assert_array_equal(m[idx], build_multiplier(xi[idx]))
        assert ratios[idx] == sharp_ratio(xi[idx])
    # one frequency still gives a plain float
    assert type(sharp_ratio(xi[0, 0])) is float


def test_zero_frequency_in_a_stack_rejected():
    xi = RNG.standard_normal((6, 3))
    xi[4] = 0.0
    with pytest.raises(ZeroFrequencyError):
        build_multiplier(xi)
    with pytest.raises(ZeroFrequencyError):
        sharp_ratio(xi)


def test_sharp_ratio_is_sqrt3_everywhere():
    assert sharp_ratio([0.0, 0.0, 1.0]) == pytest.approx(SQRT3, abs=1e-12)
    assert sharp_ratio([1.0, 0.0, 0.0]) == pytest.approx(SQRT3, abs=1e-12)
    for _ in range(50):
        xi = RNG.standard_normal(3)
        assert sharp_ratio(xi) == pytest.approx(SQRT3, abs=1e-11)


def test_sharp_ratio_scale_invariant():
    xi = np.array([0.3, 0.4, -1.1])
    assert sharp_ratio(3.7 * xi) == pytest.approx(sharp_ratio(xi), abs=1e-12)


@pytest.mark.parametrize("scale", [1e-13, 1e-300, 5e-324, 1e300])
def test_sharp_ratio_at_any_nonzero_scale(scale):
    # only an exactly zero frequency is refused; 5e-324 is the smallest subnormal
    assert sharp_ratio([0.0, 0.0, scale]) == pytest.approx(SQRT3, rel=1e-12)


_XI = np.random.default_rng(29).standard_normal((50, 3))


@pytest.mark.parametrize("scale", [3.7, 1e-13, 1e-200, 1e250])
def test_multiplier_is_degree_zero_at_any_scale(scale):
    assert np.abs(build_multiplier(scale * _XI) - build_multiplier(_XI)).max() <= 1e-15


@pytest.mark.parametrize("scale", [2.0 ** -900, 2.0 ** -60, 8.0, 2.0 ** 900],
                         ids=["2^-900", "2^-60", "2^3", "2^900"])
def test_multiplier_is_bit_equal_under_a_power_of_two(scale):
    # s * xi is exact while it stays normal, and so is its length
    assert_array_equal(build_multiplier(scale * _XI), build_multiplier(_XI))


def test_witness_identities():
    w = KernelWitness()
    c = w.p_hat @ anti(w.xi)
    assert float(mat_norm(dev(sym(c)))) == 0.0
    assert float(mat_norm(sym(c) - 1j * np.eye(3))) == 0.0
    assert abs(complex(dot(w.xi, w.xi))) == 0.0


def test_witness_keeps_its_residuals():
    # a pair perturbed below the 1e-15 gate: the kept residuals are the
    # constructor's own norms, not zeros
    p = KernelWitness().p_hat.copy()
    p[0, 0] += 2e-16
    p[1, 2] += 1e-16
    w = KernelWitness(p_hat=p)
    c = p @ anti(w.xi)
    assert w.devsym_residual == float(mat_norm(dev(sym(c)))) > 0.0
    assert w.sym_residual == float(mat_norm(sym(c) - 1j * np.eye(3))) > 0.0


def test_witness_rejects_wrong_pair():
    with pytest.raises(ValueError):
        KernelWitness(p_hat=np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        KernelWitness(xi=np.array([1.0, 0.0, 0.0], dtype=complex))
    # xi scaled by 2^10 and p_hat by 2^-10 keep p_hat x xi, so one ulp on the
    # imaginary part of xi passes both residual gates and fails only <xi, xi> = 0
    w = KernelWitness()
    with pytest.raises(ValueError, match="<xi, xi>"):
        KernelWitness(p_hat=w.p_hat / 1024.0, xi=1024.0 * np.array([1, 1j * (1 + 2.0 ** -52), 0]))


@pytest.mark.parametrize("pair", [
    {"p_hat": np.full((3, 3), np.nan)},
    {"xi": np.array([np.nan, 1j, 0.0])},
], ids=["p-hat-nan", "xi-nan"])
def test_witness_refuses_a_nan_pair(pair):
    with pytest.raises(ValueError, match="witness failed"):
        KernelWitness(**pair)


def test_witness_lies_in_devsym_kernel_only():
    # at the isotropic frequency the witness is killed by the devsym symbol
    # but emphatically not by the sym one
    w = KernelWitness()
    dev_img = apply_symbol(curl_symbol(w.xi, "devsym"), w.p_hat)
    sym_img = apply_symbol(curl_symbol(w.xi, "sym"), w.p_hat)
    assert float(mat_norm(dev_img)) < 1e-15
    assert float(mat_norm(sym_img)) == pytest.approx(np.sqrt(3.0), abs=1e-14)
