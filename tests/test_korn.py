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
    # the probe and its eigendecomposition cover the stored planes k1 = 0..n/2
    # only; over all n planes the traced peak was 13.6 MB, and 7.7 MB with LOBPCG
    tracemalloc.start()
    try:
        grid_crosscheck(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2 ** 20, "traced peak %.1f MB" % (peak / 2 ** 20)


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
    # the first Hartley transform carries the eigenvector back to the grid;
    # a NaN in it gives a NaN residual, which the gate must name, not pass
    hartley = korn_estimator._hartley
    calls = []

    def planted(x, n):
        out = hartley(x, n)
        if not calls:
            out[0] = np.nan
        calls.append(n)
        return out
    monkeypatch.setattr(korn_estimator, "_hartley", planted)
    with pytest.raises(ProbeError, match="residual nan"):
        grid_crosscheck(8)


def test_probed_blocks_are_the_frequency_forms():
    # the third check of the operator: every grid frequency, not only the
    # band a random field occupies, and the eight zero modes, where both
    # routes complete the form by its skew part
    # the probe covers the stored planes k1 = 0..n/2, which hold every distinct block
    K = fields._freq_grids(8)[:8 // 2 + 1]
    q = korn_estimator._probed_blocks(fields.GridSpec(8))
    assert_allclose(q, frequency_form(K), rtol=0, atol=1e-12)
    assert_allclose(np.linalg.eigvalsh(q)[..., 0], lambda_min(K)[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("columns", [1, 4])
def test_block_operator_matches_fields_chain(columns):
    # the probe gate's operator (probed blocks in Hartley coordinates) against
    # the fields chain, column by column; the inputs carry the Nyquist planes
    # and all eight zero modes (mean and checkerboards), where the skew
    # completion acts
    n = 8
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
    x = x.reshape(9 * n ** 3, columns)
    blocks = korn_estimator._probed_blocks(spec).real
    h = korn_estimator._stored(korn_estimator._hartley(x, n), n)
    got = korn_estimator._apply_blocks(blocks, h)
    want = np.stack([korn_estimator._apply_fields(spec, x[:, j]) for j in range(columns)],
                    axis=1)
    # compared on the stored planes k1 = 0..n/2, where the blocks live
    assert got.shape == h.shape == (9 * (n // 2 + 1) * n ** 2, columns)
    assert_allclose(got, korn_estimator._stored(korn_estimator._hartley(want, n), n),
                    rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(9 * 8 ** 3,), (9 * 8 ** 3, 3)])
def test_hartley_is_an_orthogonal_involution(shape):
    x = np.random.default_rng(5).standard_normal(shape)
    h = korn_estimator._hartley(x, 8)
    assert h.shape == x.shape
    assert_allclose(korn_estimator._hartley(h, 8), x, rtol=0, atol=1e-13)
    assert_allclose(np.linalg.norm(h, axis=0), np.linalg.norm(x, axis=0), rtol=1e-14)


def test_complex_probe_raises(monkeypatch):
    # the blocks are real because the curl symbol's factors of i cancel;
    # a probe that is not must be named, never cut to its real part
    probed = korn_estimator._probed_blocks

    def complex_probe(spec):
        q = probed(spec)
        q[1, 2, 3] += 1e-6j
        return q
    monkeypatch.setattr(korn_estimator, "_probed_blocks", complex_probe)
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
