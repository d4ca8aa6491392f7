import numpy as np
import pytest

from kornlab import cli, identities
from kornlab.identities import (
    ALGEBRA_TOL, SPECTRAL_TOL, IdentityResult, rel, run_algebra, run_all,
    run_spectral, window,
)


def test_rel_helper():
    assert rel(1.0, 1.0) == 0.0
    # 1-d input is a batch of scalars; 2-d input is a batch of vectors
    assert rel(np.ones(3), np.ones(3) + 1e-6) == pytest.approx(1e-6, rel=1e-5)
    assert rel(np.zeros((1, 3)), np.full((1, 3), 1e-6)) == pytest.approx(
        np.sqrt(3e-12), rel=1e-5)
    # large values are compared relatively, small ones absolutely
    assert rel(1e8, 1e8 + 1.0) == pytest.approx(1e-8, rel=1e-6)


def test_window_helper():
    assert window(0.6, 0.5, 2.0 / 3.0) == 0.0
    assert window(0.5, 0.5, 2.0 / 3.0) == 0.0
    assert window(0.7, 0.5, 2.0 / 3.0) > 0.0
    assert window(0.4, 0.5, 2.0 / 3.0) > 0.0
    assert window(np.array([0.55, 0.61]), 0.5, 2.0 / 3.0) == 0.0


def test_identity_result_passed():
    good = IdentityResult("x", 10, 1e-14, 1e-12)
    bad = IdentityResult("x", 10, 1e-11, 1e-12)
    assert good.passed and not bad.passed


def test_algebra_suite_passes():
    results = run_algebra(samples=1000, seed=1)
    assert len(results) >= 25
    for res in results:
        assert res.passed, "%s at %.3e" % (res.name, res.max_residual)
        assert res.tolerance == ALGEBRA_TOL


def test_algebra_suite_other_seed():
    for res in run_algebra(samples=300, seed=77):
        assert res.passed, "%s at %.3e" % (res.name, res.max_residual)


def test_spectral_suite_passes():
    results = run_spectral(n=16, seed=1, draws=2)
    assert len(results) >= 15
    for res in results:
        assert res.passed, "%s at %.3e" % (res.name, res.max_residual)
        assert res.tolerance == SPECTRAL_TOL


def test_spectral_suite_small_grid():
    for res in run_spectral(n=8, seed=5, draws=1):
        assert res.passed, "%s at %.3e" % (res.name, res.max_residual)


def test_run_all_names_unique():
    results = run_all(samples=100, seed=1, n=8)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert len(names) == len(identities.ALGEBRA) + len(identities.SPECTRAL)


def test_report_tolerances_cover_everything():
    table = cli.run_identities({"samples": 100, "seed": 1, "grid_n": 8})[0]["tolerances"]
    for name, _ in identities.ALGEBRA:
        assert table[name] == ALGEBRA_TOL
    for name, _ in identities.SPECTRAL:
        assert table[name] == SPECTRAL_TOL
