import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kornlab import fields, korn_estimator
from kornlab.algebra3 import anti, random_rotation
from kornlab.korn_estimator import (
    KornReport, ProbeError, equivalence_constant, frequency_form,
    grid_crosscheck, korn_constant, lambda_min,
)

# smallest per-frequency eigenvalue on the axis |k| = 1, and the constant
# it produces, frozen as printed; they equal the closed form (3 - sqrt 5)/4
# at t = |k|^2 = 1 and sqrt(3 + sqrt 5) to all digits
LAMBDA_AXIS = 0.19098300562505258
C_ESTIMATE = 2.2882456112707374


def closed_form(k):
    """(2 + t - sqrt(t^2 + 4)) / 4 with t = |k|^2 for k != 0, and 1 at k = 0."""
    t = np.sum(np.asarray(k, dtype=float) ** 2, axis=-1)
    return np.where(t == 0, 1.0, (2.0 + t - np.sqrt(t * t + 4.0)) / 4.0)


def test_frequency_form_is_hermitian_psd():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = rng.integers(-5, 6, size=3)
        q = frequency_form(k)
        assert q.shape == (9, 9) and q.dtype == np.float64
        assert_allclose(q, q.conj().T, atol=1e-13)
        w = np.linalg.eigvalsh(q)
        assert w[0] > -1e-12


def test_frequency_form_accepts_frequency_stacks():
    k = np.random.default_rng(2).integers(-5, 6, size=(10, 3))
    q = frequency_form(k)
    assert q.shape == (10, 9, 9) and q.dtype == np.float64
    for m in range(10):
        assert_allclose(q[m], frequency_form(k[m]), atol=1e-14)


def test_frequency_form_spot_value():
    # P = anti(e1) at k = e3: |sym P|^2 = 0 and |devsym(P x k)|^2 = 1/2,
    # so the Rayleigh quotient of this skew pair is 1/4
    q = frequency_form([0, 0, 1])
    v = anti([1.0, 0.0, 0.0]).reshape(9)
    assert complex(v @ q @ v) == pytest.approx(0.5, abs=1e-14)
    assert complex(v @ q @ v) / np.dot(v, v) == pytest.approx(0.25, abs=1e-14)


def test_skew_rayleigh_grows_with_k():
    # on pure skew coefficients the form value is |k|^2 / 4 per unit norm
    for k in ([0, 0, 3], [2, -1, 5]):
        ksq = float(np.dot(k, k))
        a = np.array([1.0, 0.0, 0.0]) if k[0] == 0 else np.array([0.0, 0.0, 1.0])
        a = a - np.dot(a, k) / ksq * np.asarray(k, dtype=float)
        v = anti(a).reshape(9)
        val = complex(v @ frequency_form(k) @ v).real / np.dot(v, v)
        assert val == pytest.approx(ksq / 4.0, rel=1e-12)


def test_frequency_form_is_completed_at_zero():
    # the zero-mode rule: |sym P|^2 + |skew P|^2 = |P|^2, exactly
    assert np.array_equal(frequency_form([0, 0, 0]), np.eye(9))


@pytest.mark.parametrize("call", [frequency_form, lambda_min])
@pytest.mark.filterwarnings("error")
def test_a_frequency_whose_form_overflows_is_named(call):
    # finite, but |k|^2 is not: refused by name, with no overflow warning, also
    # when it is one row of a stack
    for k in ([1e308, 1e308, 0.0], [[0.0, 0.0, 1.0], [1e160, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="^frequency is too large: its form overflows$"):
            call(k)


@pytest.mark.filterwarnings("error")
def test_a_frequency_whose_minimum_is_lost_in_rounding_is_named():
    # at |k| = 1e7 along (1, 1, 1) the eigensolve's bound 16 eps |k|^2 is 0.36,
    # of the exact 0.5; the value it gave there was off by 5e-3, and by 2.3 at 1e8
    with pytest.raises(ValueError, match="^frequency is too large: its smallest eigenvalue "
                                         "is lost in rounding$"):
        lambda_min(1e7 / np.sqrt(3.0) * np.ones(3))
    # also as one row of a stack, and up to where the form itself overflows
    for k in ([[0.0, 0.0, 1.0], [1e8, 0.0, 0.0]], [1e10, 0.0, 0.0], [1.3e154, 0.0, 0.0]):
        with pytest.raises(ValueError, match="lost in rounding"):
            lambda_min(k)
    # the corner of the korn --kmax 256 scan, and a frequency near the bound, are kept
    k = np.array([[256.0, 256.0, 256.0], [0.0, 0.0, 3e5]])
    assert_allclose(lambda_min(k)[0], closed_form(k), rtol=1e-4, atol=0)


def test_lambda_min_zero_frequency():
    lam, m = lambda_min([0, 0, 0])
    assert lam.dtype == m.dtype == np.float64
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert_allclose(m, m.T, atol=1e-12)          # minimizer is symmetric
    assert np.linalg.norm(m) == pytest.approx(1.0)


def test_lambda_min_axis_value():
    for k in ([0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, -1]):
        lam, _ = lambda_min(k)
        assert lam == pytest.approx(LAMBDA_AXIS, abs=1e-12)


def test_lambda_min_minimizer_is_eigenvector():
    for k in ([0, 0, 1], [1, 2, -1], [3, 0, 1]):
        lam, m = lambda_min(k)
        v = m.reshape(9)
        q = frequency_form(k)
        assert float(np.linalg.norm(q @ v - lam * v)) < 1e-10


def test_lambda_min_stays_below_half():
    prev = None
    for kz in (1, 2, 4, 8, 16, 40):
        lam, _ = lambda_min([0, 0, kz])
        assert lam < 0.5
        if prev is not None:
            assert lam > prev
        prev = lam
    assert prev > 0.45          # approaches 1/2 from below


def test_lambda_min_rotation_symmetric():
    # permuting and flipping the integer frequency leaves the value alone
    lam0, _ = lambda_min([1, 2, 3])
    for k in ([3, 1, 2], [-1, 2, -3], [2, 3, 1]):
        lam, _ = lambda_min(k)
        assert lam == pytest.approx(lam0, abs=1e-12)
    # and so does any rotation of a real frequency
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = 3.0 * rng.standard_normal(3)
        lam_k, _ = lambda_min(k)
        lam_rk, _ = lambda_min(random_rotation(rng.standard_normal(4)) @ k)
        assert lam_rk == pytest.approx(lam_k, abs=1e-12)


def test_lambda_min_closed_form():
    axis = np.arange(-8, 9)
    K = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    lam, m = lambda_min(K)
    assert lam.shape == K.shape[:-1] and m.shape == K.shape[:-1] + (3, 3)
    assert_allclose(lam, closed_form(K), rtol=0, atol=1e-12)
    assert lam[8, 8, 8] == 1.0                     # k = 0, exactly
    # all nine eigenvalues: lambda_-+ = (2 + t -+ sqrt(t^2 + 4)) / 4 and
    # 1 + t, each double, 1 double and t / 3, the identity's at k = 0
    t = np.sum(K * K, axis=-1, dtype=float)[..., None]
    root = np.sqrt(t * t + 4.0)
    low, high = t / (2.0 + t + root), (2.0 + t + root) / 4.0
    want = np.sort(np.concatenate([low, low, high, high, t / 3.0, 1.0 + t, 1.0 + t,
                                   np.ones_like(t), np.ones_like(t)], axis=-1), axis=-1)
    want[8, 8, 8] = 1.0
    err = np.abs(np.linalg.eigvalsh(frequency_form(K)) - want)
    assert np.all(err <= 16.0 * np.finfo(float).eps * (1.0 + t)), float(err.max())


def _exact_form(k):
    """Uncompleted form S*S + C_k*C_k of frequency_form at integer k, as 9x9 Fraction rows.

    Columns j of S and C_k are sym E_j and dev sym(E_j x k) for the j-th
    row-major unit matrix E_j, with the row-wise cross product; the curl
    symbol's factor -i cancels in C_k*C_k, so the form is real.  No numpy.
    """
    k = [Fraction(c) for c in k]

    def cross(u):
        return [u[1] * k[2] - u[2] * k[1], u[2] * k[0] - u[0] * k[2], u[0] * k[1] - u[1] * k[0]]

    def sym(X):
        return [[(X[a][b] + X[b][a]) / 2 for b in range(3)] for a in range(3)]

    def dev(X):
        third = (X[0][0] + X[1][1] + X[2][2]) / 3
        return [[X[a][b] - (third if a == b else 0) for b in range(3)] for a in range(3)]

    s_cols, c_cols = [], []
    for j in range(9):
        e = [[Fraction(int(3 * a + b == j)) for b in range(3)] for a in range(3)]
        s_cols.append(sum(sym(e), []))
        c_cols.append(sum(dev(sym([cross(row) for row in e])), []))
    cols = [s + c for s, c in zip(s_cols, c_cols)]     # the columns of S over C_k
    return [[sum(x * y for x, y in zip(u, v) if x and y) for v in cols] for u in cols]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_frequency_form_spectrum_is_exact():
    # With t = |k|^2 the uncompleted form has the eigenvalues lambda_-+ =
    # (2 + t -+ sqrt(t^2 + 4)) / 4, the roots of 4 l^2 - 2 (2 + t) l + t, and
    # 1 and 1 + t, each double, and t / 3.  Exact: m(Q_k) = 0 for the product
    # m of those factors, and tr Q_k^j equals the multiset's power sums.  On
    # the axis k = (s, 0, 0) the entries of m(Q_k) are polynomials of degree
    # at most 10 in s, and the traces for j <= 4, which fix the
    # multiplicities, of degree at most 8, so s = 0..10 proves both for
    # every s; Q_Rk = (R x R) Q_k (R x R)^T carries them to every k.  So
    # lambda_min = lambda_- at every k != 0, since lambda_- < min(1, t / 3).
    eye = [[Fraction(int(i == j)) for j in range(9)] for i in range(9)]

    def poly(q, *coefs):           # coefs[0] * q + coefs[1] * id + ...
        return [[coefs[0] * x + coefs[1] * (i == j) for j, x in enumerate(row)]
                for i, row in enumerate(q)]

    for k in [(s, 0, 0) for s in range(11)] + [(1, 2, 3), (2, -1, 5), (3, 3, 1)]:
        t = Fraction(sum(c * c for c in k))
        q = _exact_form(k)
        quadratic = poly(_matmul(poly(q, 4, -2 * (2 + t)), q), 1, t)
        m = quadratic
        for factor in (poly(q, 1, -1), poly(q, 3, -t), poly(q, 1, -1 - t)):
            m = _matmul(m, factor)
        assert all(x == 0 for row in m for x in row), k
        # power sums of the quadratic's roots by Newton's rule, then the rest
        e1, e2 = (2 + t) / 2, t / 4
        roots = [Fraction(2), e1]
        power = q
        for j in range(1, 10):
            if j > 1:
                roots.append(e1 * roots[-1] - e2 * roots[-2])
                power = _matmul(power, q)
            want = 2 * roots[j] + 2 + (t / 3) ** j + 2 * (1 + t) ** j
            assert sum(power[i][i] for i in range(9)) == want, (k, j)
        # kornlab's float form is this form, completed at k = 0 to the identity
        exact = q if any(k) else eye
        assert_allclose(frequency_form(k), [[float(x) for x in row] for row in exact],
                        rtol=0, atol=1e-13 * (1 + float(t)), err_msg=str(k))


def test_frequency_form_is_signed_permutation_covariant():
    # Q_Rk = (R x R) Q_k (R x R)^T, R x R the action P -> R P R^T on the
    # row-major flattening, exactly for all 48 signed permutations R: the
    # step that carries the spectrum from the axis to every k (a reflection
    # flips the sign of the curl symbol, which C_k*C_k squares away)
    ks = [(1, 2, 3), (2, -1, 5), (0, 0, 1)]
    forms = [_exact_form(k) for k in ks]
    K, want = [], []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            R = [[signs[a] * int(perm[a] == i) for i in range(3)] for a in range(3)]
            # R x R is a signed permutation too: (column, sign) of each row's entry
            RR = [(3 * perm[a] + perm[b], signs[a] * signs[b]) for a in range(3) for b in range(3)]
            for k, q in zip(ks, forms):
                Rk = [sum(r * c for r, c in zip(row, k)) for row in R]
                moved = [[si * sj * q[i][j] for j, sj in RR] for i, si in RR]
                assert _exact_form(Rk) == moved, (R, k)
                K.append(Rk)
                want.append(np.kron(R, R) @ frequency_form(k) @ np.kron(R, R).T)
    # and kornlab's float form is covariant too
    assert_allclose(frequency_form(K), want, rtol=0, atol=1e-13)


def test_lambda_min_stack_matches_points():
    K = np.concatenate([np.random.default_rng(5).integers(-6, 7, size=(30, 3)),
                        np.zeros((1, 3), dtype=int)])
    lam, m = lambda_min(K)
    assert lam.dtype == m.dtype == np.float64
    for kk, lam_k, m_k in zip(K, lam, m):
        lam_point, _ = lambda_min(kk)
        assert lam_k == pytest.approx(lam_point, abs=1e-13)
        v = m_k.reshape(9)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)
        q = frequency_form(kk)
        assert float(np.linalg.norm(q @ v - lam_k * v)) < 1e-10


def test_korn_constant_report():
    rep = korn_constant(2)
    assert isinstance(rep, KornReport)
    assert rep.kmax == 2
    assert rep.entries.shape == (125, 4)
    assert rep.lambda_global == pytest.approx(LAMBDA_AXIS, abs=1e-12)
    assert rep.c_estimate == pytest.approx(C_ESTIMATE, abs=1e-12)
    assert rep.non_monotone_tail is False
    assert rep.tail_min > rep.lambda_global
    # entries are sorted lexicographically and include the zero frequency
    ks = rep.entries[:, :3]
    order = np.lexsort((ks[:, 2], ks[:, 1], ks[:, 0]))
    assert_allclose(order, np.arange(125))
    zero_row = rep.entries[(ks == 0).all(axis=1)]
    assert zero_row[0, 3] == pytest.approx(1.0, abs=1e-12)


def test_korn_constant_solves_one_frequency_per_orbit(monkeypatch):
    # one stacked call on the C(11, 3) = 165 representatives k1 >= k2 >= k3 >= 0,
    # and every cube entry agrees with its own per-point solve
    calls = []

    def counted(k):
        calls.append(np.asarray(k).shape)
        return lambda_min(k)

    monkeypatch.setattr(korn_estimator, "lambda_min", counted)
    rep = korn_constant(8)
    assert calls == [(165, 3)]
    axis = np.arange(-8, 9)
    K = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    assert (rep.entries[:, :3] == K).all()
    t = np.sum(K * K, axis=-1)
    assert (np.abs(rep.entries[:, 3] - lambda_min(K)[0])
            <= 1e-12 + 16.0 * np.finfo(float).eps * t).all()


def test_korn_constant_flags_kmax_one():
    # with kmax = 1 the minimum sits on the outermost shell by construction
    assert korn_constant(1).non_monotone_tail is True
    with pytest.raises(ValueError):
        korn_constant(0)
    with pytest.raises(TypeError):
        korn_constant(2.5)


def test_c_estimate_is_closed_form():
    # lambda = (3 - sqrt 5)/4 makes c = 1/sqrt(lambda) = sqrt(3 + sqrt 5)
    assert korn_constant(2).c_estimate == pytest.approx(
        np.sqrt(3.0 + np.sqrt(5.0)), abs=1e-13)


def test_grid_crosscheck_small():
    assert grid_crosscheck(8) < 1e-8
    with pytest.raises(ValueError):
        grid_crosscheck(6)
    with pytest.raises(ValueError):
        grid_crosscheck(4)


def test_grid_crosscheck_traced_peak_stays_small():
    # the probe and its eigendecomposition cover the represented box |k|_inf <= n/2 - 1,
    # k1 >= 0, only (over all n planes the traced peak was 13.6 MB), and the probe gate
    # applies the real blocks to Re F and Im F apart: 4.5 MB.  Applied to the
    # complex F, q is upcast to a complex copy, 6.6 MB
    tracemalloc.start()
    try:
        grid_crosscheck(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, "traced peak %.1f MB" % (peak / 2 ** 20)


@pytest.mark.filterwarnings("error")
def test_grid_crosscheck_runs_without_a_floating_point_event():
    # no warning is silenced inside the crosscheck, so none may be raised
    with np.errstate(all="raise"):
        assert grid_crosscheck(8) < 1e-8


@pytest.mark.parametrize("seed, error", [("1", TypeError), (True, TypeError),
                                         (2.0, TypeError), (-1, ValueError)])
def test_sphere_directions_read_the_seed_as_a_count(seed, error):
    # equivalence_constant draws its sphere directions from the seed
    with pytest.raises(error, match="^seed must be"):
        equivalence_constant(8, seed)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_frequency_is_named(bad):
    # named before the eigensolver sees it, which would fail to converge on it
    for call in (frequency_form, lambda_min):
        with pytest.raises(ValueError, match="^frequency must be finite"):
            call([[1.0, 0.0, 0.0], [bad, 0.0, 0.0]])


def test_equivalence_constant_is_sqrt3():
    for samples in (100, 5000):      # 5000 spans two stacked blocks
        assert equivalence_constant(samples=samples) == pytest.approx(
            np.sqrt(3.0), abs=1e-11)


def test_equivalence_constant_refuses_a_nan_direction(monkeypatch):
    # NaN compares false with everything, so "spread > tol" would let it through
    real = korn_estimator.sharp_ratio
    monkeypatch.setattr(korn_estimator, "sharp_ratio",
                        lambda xi: np.where(np.arange(len(xi)) == 0, np.nan, real(xi)))
    with pytest.raises(RuntimeError, match="direction-dependent ratio"):
        equivalence_constant(samples=30)


def test_grid_crosscheck_refuses_a_nan_eigenvector(monkeypatch):
    # a NaN in the eigenfield's spectrum gives a NaN residual, which the gate
    # must name, not pass, before any field constructor sees it
    eigenpair = korn_estimator._grid_eigenpair

    def planted(q):
        lam, coef = eigenpair(q)
        coef[0, 0, 0, 0, 0] = np.nan
        return lam, coef
    monkeypatch.setattr(korn_estimator, "_grid_eigenpair", planted)
    with pytest.raises(ProbeError, match="residual nan"):
        grid_crosscheck(8)


def test_probed_blocks_are_the_frequency_forms():
    # the third check of the operator: every frequency the grid derivatives
    # represent, |k|_inf <= n/2 - 1, not only the band a random field occupies,
    # and the zero mode, where both routes complete the form by its skew part
    K = fields._band_freqs(8, 8 // 2 - 1)
    q = korn_estimator._probed_blocks(fields.GridSpec(8))
    assert q.shape == (4, 7, 7, 9, 9) and q.dtype == np.float64
    assert_allclose(q, frequency_form(K), rtol=0, atol=1e-12)
    assert_allclose(np.linalg.eigvalsh(q)[..., 0], lambda_min(K)[0], rtol=0, atol=1e-12)


def _lookup(q, K):
    # the block of each frequency K the derivatives see, on n - 1 slots per axis
    return q[tuple(np.moveaxis(K.astype(int) % q.shape[1], -1, 0))]


@pytest.mark.parametrize("columns", [1, 4])
def test_block_operator_matches_fields_chain(columns):
    # the probe gate's operator (probed blocks on each Fourier coefficient)
    # against the fields chain, field by field; the inputs carry the Nyquist
    # planes and all eight zero modes (mean and checkerboards), where the
    # skew completion acts
    n = 8
    half = n // 2 + 1
    spec = fields.GridSpec(n)
    rng = np.random.default_rng(columns)
    x = rng.standard_normal((n, n, n, 9, columns))
    alt = (-1.0) ** np.arange(n)
    for axis in range(3):           # one field on each k_axis = n/2 plane
        x += alt.reshape([-1 if a == axis else 1 for a in range(3)] + [1, 1]) \
            * rng.standard_normal([1 if a == axis else n for a in range(3)] + [9, columns])
    signs = np.stack([np.ones(n), alt])
    for s1, s2, s3 in np.ndindex(2, 2, 2):      # no flip or alternating, per axis
        pattern = signs[s1][:, None, None] * signs[s2][:, None] * signs[s3]
        x += pattern[..., None, None] * rng.standard_normal((9, columns))
    # every stored plane k1 = 0..n/2 of the full band, each frequency meeting the
    # block of the frequency the derivatives see there (a Nyquist component is 0)
    blocks = _lookup(korn_estimator._probed_blocks(spec), fields._freq_grids(n)[:half])
    for j in range(columns):
        f = fields.field_from_samples(spec, 2, x[..., j].reshape(n, n, n, 3, 3))
        # raw coefficients are n^(3/2) times orthonormal ones, so 1e-12 is tighter here
        got = blocks @ f.coef[:half].reshape(half, n, n, 9, 1)
        want = korn_estimator._apply_hat(f).coef[:half].reshape(half, n, n, 9, 1)
        assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("i, k", [((0, 0, 0), (0, 0, 0)), ((1, 2, 3), (1, 2, 3)),
                                  ((2, 5, 6), (2, -2, -1))],
                         ids=["self-conjugate", "generic", "negative"])
def test_grid_eigenpair_gives_a_real_eigenfield(i, k):
    # identity blocks but one with a smaller eigenvalue, at index i of the probe's
    # box, frequency k: K = 0 is its own mirror, the others are not; the spectrum is
    # written at k and at -k
    n = 8
    q = np.broadcast_to(np.eye(9), (n // 2, n - 1, n - 1, 9, 9)).copy()
    u = np.random.default_rng(3).standard_normal(9)
    u /= np.linalg.norm(u)
    q[i] -= 0.75 * np.outer(u, u)
    lam, coef = korn_estimator._grid_eigenpair(q)
    assert lam == pytest.approx(0.25, abs=1e-14)
    assert coef.shape == (n, n, n, 3, 3) and coef.dtype == np.float64
    # the checked constructor refuses a spectrum that is not conjugate-symmetric
    f = fields.GridField(fields.GridSpec(n), 2, coef)
    at, mirror = tuple(np.mod(k, n)), tuple(np.negative(k) % n)
    for slot in (at, mirror):       # the block at -k is the block at k
        c = coef[slot].reshape(9)
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-14)
        assert_allclose(q[i] @ c, lam * c, rtol=0, atol=1e-14)
    writes = len({at, mirror})
    assert np.count_nonzero(np.abs(coef).sum(axis=(-2, -1))) == writes
    # so the field is real: (v e^(ik.x) + v e^(-ik.x)) / n^3 = 2 v cos(k.x) / n^3,
    # and v / n^3 at k = 0
    phase = 2.0 * np.pi * np.tensordot(k, np.indices((n, n, n)), axes=1) / n
    want = writes * np.cos(phase)[..., None, None] * coef[at] / n ** 3
    assert_allclose(fields.values(f), want, rtol=0, atol=1e-15)


def test_grid_eigenpair_takes_the_sweeps_minimum():
    # the eigenvalue-only sweep picks the block; eigh of that block gives the value
    q = korn_estimator._probed_blocks(fields.GridSpec(8))
    lam, _ = korn_estimator._grid_eigenpair(q)
    assert abs(lam - np.linalg.eigvalsh(q)[..., 0].min()) <= 1e-14


def _stored_plane_sweep(n):
    # the probe and sweep over every stored plane k1 = 0..n/2 of the full band,
    # (n/2 + 1) n^2 blocks: constant columns on all n^3 frequencies, eigvalsh of all
    # their blocks, eigh of the first minimizing one, its vector at i and -i (mod n)
    spec = fields.GridSpec(n)
    half = n // 2 + 1
    zero = fields.GridField(spec, 2, np.zeros((n, n, n, 3, 3)))
    q = np.empty((half, n, n, 9, 9))
    for j, e in enumerate(np.eye(9, dtype=complex).reshape(9, 3, 3)):
        column = fields._map_planes(zero, 2, lambda c, K: np.broadcast_to(e, c.shape), "column")
        q[..., j] = korn_estimator._apply_hat(column).coef[:half].real.reshape(half, n, n, 9)
    w = np.linalg.eigvalsh(q)[..., 0]
    i = np.unravel_index(np.argmin(w), w.shape)
    lam, v = np.linalg.eigh(q[i])
    coef = np.zeros((n, n, n, 3, 3))
    coef[i] = coef[tuple(np.negative(i) % n)] = v[:, 0].reshape(3, 3)
    return q, float(lam[0]), coef


@pytest.mark.parametrize("n", [8, 16])
def test_represented_sweep_is_the_stored_plane_sweep(n):
    # the represented box holds every distinct block: each stored-plane block is,
    # bit for bit, the block of the frequency the derivatives see there, and the
    # sweep gives the same value and eigenvector as the sweep of every stored plane
    q_all, lam_all, coef_all = _stored_plane_sweep(n)
    q = korn_estimator._probed_blocks(fields.GridSpec(n))
    assert np.array_equal(_lookup(q, fields._freq_grids(n)[:n // 2 + 1]), q_all)
    lam, coef = korn_estimator._grid_eigenpair(q)
    assert lam == lam_all
    assert np.array_equal(coef, coef_all)


@pytest.mark.parametrize("n", [8, 16])
def test_the_sweep_sees_each_represented_block_once(n, monkeypatch):
    # (n/2)(n - 1)^2 blocks: 196 at n = 8 and 1800 at n = 16, against the
    # (n/2 + 1) n^2 (320, 2304) of every stored plane
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        seen.append(a.shape)
        return eigvalsh(a)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert grid_crosscheck(n) < 1e-8
    assert [int(np.prod(shape[:-2])) for shape in seen] == [(n // 2) * (n - 1) ** 2]


def test_complex_probe_raises(monkeypatch):
    # the blocks are real because the curl symbol's factors of i cancel; a
    # chain whose image is not must be named, never cut to its real part
    apply_hat = korn_estimator._apply_hat

    def complex_image(f):
        return fields._map_planes(apply_hat(f), 2, lambda c, K: c + 1e-6j * np.all(
            K == (1, 2, 3), axis=-1)[..., None, None], "complex image")
    monkeypatch.setattr(korn_estimator, "_apply_hat", complex_image)
    with pytest.raises(ProbeError, match="not real"):
        grid_crosscheck(8)


def test_probe_gate_catches_a_wrong_non_minimal_block(monkeypatch):
    # k = (3, 2, 1) is far from the minimizing frequencies, so scaling its
    # block leaves the eigenpair and its residual gate untouched; only the
    # comparison with the fields chain at every frequency sees it
    probed = korn_estimator._probed_blocks

    def corrupted(spec):
        q = probed(spec)
        q[3, 2, 1] *= 1.5
        return q
    monkeypatch.setattr(korn_estimator, "_probed_blocks", corrupted)
    with pytest.raises(ProbeError, match="miss the fields chain"):
        grid_crosscheck(8)


def test_residual_gate_is_on_the_fields_chain(monkeypatch):
    # a 1 % wrong probe moves the grid eigenvalue by 1 %; the gate recomputes
    # the residual through the fields chain, so it must catch that
    probed = korn_estimator._probed_blocks
    monkeypatch.setattr(korn_estimator, "_probed_blocks", lambda spec: 1.01 * probed(spec))
    with pytest.raises(ProbeError, match="misses the fields chain: residual"):
        grid_crosscheck(8)


def test_probe_gate_covers_the_nyquist_plane(monkeypatch):
    # the chain's image scaled on the plane k1 = n/2 alone: no probe column has that
    # plane (their band is n/2 - 1) and the eigenfield is zero there, so only the probe
    # gate's full-band random field, looked up on every stored plane, can see it
    apply_hat = korn_estimator._apply_hat

    def nyquist_scaled(f):
        n = f.spec.n
        image = apply_hat(f)
        return fields._map_planes(image, 2, lambda c, K: np.concatenate(
            [c[:n // 2], 1.5 * c[n // 2:]]) if len(c) == n // 2 + 1 else c, "Nyquist plant")
    monkeypatch.setattr(korn_estimator, "_apply_hat", nyquist_scaled)
    with pytest.raises(ProbeError, match="miss the fields chain"):
        grid_crosscheck(8)
