"""Acceptance suite: one test (and one reported line) per criterion.

Each test states its tolerance inline and is self-contained; criterion 5
carries its own maximization oracle built from raw numpy so that the
package's eigenvalue route is checked against an independent computation.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from kornlab import fields, identities, kernels, korn_estimator, symbol
from kornlab.algebra3 import anti, cross, dev, dot, mat_norm, sym, vec_norm


def _ok(num, label):
    print("criterion %02d (%s): PASS" % (num, label))


def test_criterion_01_identity_suite():
    started = time.perf_counter()
    results = identities.run_all(samples=1000, seed=1, n=16)
    elapsed = time.perf_counter() - started
    assert len(results) >= 25
    for res in results:
        assert res.max_residual < res.tolerance, \
            "%s: %.3e >= %.3e" % (res.name, res.max_residual, res.tolerance)
        assert res.tolerance in (1e-12, 1e-10)
    assert elapsed < 30.0, "identity suite took %.1f s" % elapsed
    _ok(1, "identity suite < 1e-12 / 1e-10 in under 30 s")


def test_criterion_02_devsym_cross_window():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((100000, 3))
    b = rng.standard_normal((100000, 3))
    val = mat_norm(dev(sym(cross(anti(a), b)))) ** 2
    norm = (vec_norm(a) * vec_norm(b)) ** 2
    q = val / norm
    assert float(q.min()) >= 0.5 - 1e-12
    assert float(q.max()) <= 2.0 / 3.0 + 1e-12
    # configured extremal pairs attain both window ends
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    par = float(mat_norm(dev(sym(cross(anti(e1), 3.0 * e1)))) ** 2 / 9.0)
    perp = float(mat_norm(dev(sym(cross(anti(e1), 2.0 * e2)))) ** 2 / 4.0)
    assert abs(par - 2.0 / 3.0) < 1e-12
    assert abs(perp - 0.5) < 1e-12
    _ok(2, "norm window [1/2, 2/3] with sharp ends")


def test_criterion_03_kernel_dimension():
    rng = np.random.default_rng(3)
    for _ in range(100):
        xi = rng.standard_normal(3)
        basis = symbol.kernel_basis(symbol.curl_symbol(xi, "devsym"))
        assert basis.dimension == 4
        sv = basis.singular_values
        assert sv[4] / sv[5] > 1e6
    _ok(3, "devsym curl symbol kernel is 4-dimensional")


def test_criterion_04_multiplier():
    rng = np.random.default_rng(4)
    for _ in range(100):
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        m = symbol.build_multiplier(xi)
        a = symbol.curl_symbol(xi, "devsym")
        a_sym = symbol.curl_symbol(xi, "sym")
        assert float(np.linalg.norm(m @ a - a_sym)) < 1e-10
        assert float(np.linalg.norm(symbol.build_multiplier(2.0 * xi) - m)) < 1e-10
    _ok(4, "degree-zero multiplier maps devsym symbol to sym symbol")


def _oracle_best_ratio():
    """Independent maximization of |sym(P x e3)| / |devsym(P x e3)|.

    Raw numpy only: dense random sampling over complex 3x3 coefficients,
    then Nelder-Mead polish of the best starts.  Sampling alone tops out
    near 1.67; the polish is what reaches the true maximum.
    """
    anti_e3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def ratio(theta):
        P = (theta[:9] + 1j * theta[9:]).reshape(3, 3)
        c = P @ anti_e3
        s = 0.5 * (c + c.T)
        d = s - np.trace(s) / 3.0 * np.eye(3)
        nd = np.linalg.norm(d)
        if nd < 1e-9 * max(np.linalg.norm(c), 1e-300):
            return 0.0
        return float(np.linalg.norm(s) / nd)

    rng = np.random.default_rng(271828)
    draws = rng.standard_normal((4000, 18))
    vals = np.array([ratio(t) for t in draws])
    best = float(vals.max())
    for idx in np.argsort(vals)[-6:]:
        res = minimize(lambda t: -ratio(t), draws[idx], method="Nelder-Mead",
                       options={"maxiter": 20000, "xatol": 1e-12, "fatol": 1e-13})
        best = max(best, float(-res.fun))
    return best


def test_criterion_05_sharp_ratio():
    c = korn_estimator.equivalence_constant()
    assert c <= 1.0 + np.sqrt(3.0)
    oracle = _oracle_best_ratio()
    assert abs(c - oracle) < 1e-6, "package %r vs oracle %r" % (c, oracle)
    _ok(5, "sharp sym/devsym ratio matches the sampling oracle")


def test_criterion_06_complex_witness():
    w = symbol.KernelWitness()
    c = w.p_hat @ anti(w.xi)
    assert float(mat_norm(dev(sym(c)))) < 1e-15
    assert float(mat_norm(sym(c) - 1j * np.eye(3))) < 1e-15
    assert abs(complex(dot(w.xi, w.xi))) < 1e-15
    _ok(6, "isotropic witness kills devsym but not sym")


def test_criterion_07_growth_family():
    started = time.perf_counter()
    box = fields.BoxDomain(lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 1.0))
    ratios = [fields.growth_ratio(k, 2.0, box) for k in range(1, 101)]
    elapsed = time.perf_counter() - started
    for i in range(4, 100):
        assert ratios[i] > ratios[i - 1], "not increasing at k=%d" % (i + 1)
    assert ratios[99] / ratios[9] > 3.0
    assert elapsed < 60.0, "growth table took %.1f s" % elapsed
    _ok(7, "polynomial growth ratios increase without bound")


def test_criterion_08_halfspace_family():
    ratio = {k: fields.halfspace_ratio(k, 2.0) for k in (2, 4, 8, 16, 32)}
    for k in (2, 4, 8, 16):
        assert ratio[2 * k] / ratio[k] > 1.5, \
            "factor %.3f at k=%d" % (ratio[2 * k] / ratio[k], k)
    _ok(8, "boundary-layer ratios grow by > 1.5 per doubling")


def test_criterion_09_kernel_rigidity():
    for trial in range(20):
        rng = np.random.default_rng(900 + trial)
        pts = rng.standard_normal((12, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert kernels.boundary_rank(pts) == 10
    th = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
    circle = np.stack([np.cos(th), 1.0 + np.sin(th), np.zeros_like(th)], axis=1)
    assert kernels.boundary_rank(circle) < 10
    t = np.linspace(-2.0, 2.0, 5)
    line = np.stack([t, 0.5 * t, -0.25 * t], axis=1)
    assert kernels.boundary_rank(line) < 10
    _ok(9, "spheres are rigid, circles and lines are not")


def test_criterion_10_korn_constant():
    started = time.perf_counter()
    rep4 = korn_estimator.korn_constant(4)
    rep8 = korn_estimator.korn_constant(8)
    for rep in (rep4, rep8):
        lam = rep.entries[:, 3]
        assert np.all(lam > 0.0)
        assert np.all(lam <= 1.0 + 1e-12)
    stable = abs(rep4.c_estimate - rep8.c_estimate) <= 1e-10
    assert stable or rep4.non_monotone_tail or rep8.non_monotone_tail
    crosscheck = korn_estimator.grid_crosscheck(16)
    assert crosscheck < 1e-6, "grid crosscheck %.3e" % crosscheck
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, "korn criterion took %.1f s" % elapsed
    _ok(10, "korn constant stable under kmax and grid crosscheck")


_DIGEST_ALL_REPORTS = """
import contextlib, hashlib, io, json
from kornlab import cli
digest, codes = hashlib.sha256(), []
for command in sorted(cli.COMMANDS):
    for fmt in ("json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main([command, "--format", fmt]))
        digest.update(out.getvalue().encode("utf-8"))
print(json.dumps([codes, digest.hexdigest()]))
"""


def test_criterion_11_determinism():
    # two processes at once, differing in BLAS thread count and hash seed:
    # every command's report in both formats must come out byte-identical
    src = os.path.dirname(os.path.dirname(fields.__file__))
    procs = []
    for blas, hashseed in (("1", "0"), ("2", "1")):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas,
                   PYTHONHASHSEED=hashseed, PYTHONPATH=src)
        procs.append(subprocess.Popen([sys.executable, "-c", _DIGEST_ALL_REPORTS], env=env,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    digests = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        codes, digest = json.loads(out)
        assert codes == [0] * 10, codes
        digests.append(digest)
    assert digests[0] == digests[1], "reports differ between thread caps and hash seeds"
    _ok(11, "byte-identical reports across thread caps and hash seeds")
