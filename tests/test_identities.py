import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from kornlab import cli, fields, identities, korn_estimator
from kornlab.identities import (
    ALGEBRA_TOL, SPECTRAL_TOL, IdentityResult, frel, rel, run_algebra, run_all,
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


def test_a_draw_derives_nothing_twice_from_the_same_field(monkeypatch):
    # every (input, operator or part) pair is computed once per draw; the inputs
    # are held alive so that no id is reused
    seen, held = [], []
    for name in ("apply_operator", "pointwise_part"):
        def recording(f, op, real=getattr(fields, name)):
            held.append(f)
            seen.append((id(f), op))
            return real(f, op)
        monkeypatch.setattr(fields, name, recording)
    d = identities._spectral_data(8, 1)
    for _, check in identities.SPECTRAL:
        check(d)
    repeats = [key for key, count in Counter(seen).items() if count > 1]
    assert not repeats, [op for _, op in repeats]


def test_spectral_suite_small_grid():
    for res in run_spectral(n=8, seed=5, draws=1):
        assert res.passed, "%s at %.3e" % (res.name, res.max_residual)


@pytest.mark.parametrize("seed, error", [("1", TypeError), (True, TypeError),
                                         (1.5, TypeError), (-1, ValueError)])
@pytest.mark.parametrize("run", [lambda seed: run_algebra(10, seed),
                                 lambda seed: run_spectral(8, seed, draws=1)],
                         ids=["algebra", "spectral"])
def test_suites_read_the_seed_as_a_count(run, seed, error):
    # the seed meets the count reader the command line uses: no text, no bool
    with pytest.raises(error, match="^seed must be"):
        run(seed)


@pytest.mark.parametrize("seed", [1, 40])
def test_spectral_suite_keeps_the_worst_of_its_draws(seed):
    three = run_spectral(8, seed, draws=3)
    ones = [run_spectral(8, seed + 101 * j, draws=1) for j in range(3)]
    for res, *single in zip(three, *ones):
        assert res.samples == 3
        assert res.max_residual == max(r.max_residual for r in single), res.name


@pytest.mark.parametrize("draw", [1, 2, 3])
def test_a_nan_on_any_draw_fails_its_identity(monkeypatch, draw):
    name, real = identities.SPECTRAL[0]
    calls = itertools.count(1)
    monkeypatch.setattr(identities, "SPECTRAL", [
        (name, lambda d: math.nan if next(calls) == draw else real(d)), *identities.SPECTRAL[1:]])
    first = run_spectral(8, 1, draws=3)[0]
    assert first.name == "curl_of_gradient_vanishes"
    assert math.isnan(first.max_residual) and not first.passed


@pytest.fixture(scope="module")
def check_data():
    return {"algebra": identities._samples(20, 1), "spectral": identities._spectral_data(8, 1)}


def _frel_of(d):
    return frel(d.P, 0.5 * d.P)


def _fzero_of(d):
    return identities.fzero(d.P, d.S)


# (check, its data, the helper that makes one part, which call of it turns NaN):
# every part of each multi-part check, and the scales of frel and fzero
@pytest.mark.parametrize("check, data, owner, helper, call", [
    *[(identities._i_axl_roundtrip, "algebra", identities, "rel", k) for k in (1, 2)],
    (identities._i_orth_split, "algebra", identities, "rel", 1),
    (identities._i_orth_split, "algebra", identities, "frob", 1),
    (identities._i_orth_split, "algebra", identities, "frob", 2),
    (identities._i_orth_split, "algebra", identities, "rel", 2),
    *[(identities._i_tangential_projector, "algebra", identities, "rel", k) for k in (1, 2, 3)],
    *[(identities._i_sym_dyadic_cross_balance, "algebra", identities, "rel", k) for k in (1, 2)],
    *[(identities._i_double_cross_respects_split, "algebra", identities, "rel", k)
      for k in (1, 2)],
    *[(identities._s_inc_commutes_with_split, "spectral", identities, "frel", k) for k in (1, 2)],
    # the coefficient peaks of frel (the difference, then the two scales) and of fzero
    *[(_frel_of, "spectral", fields, "coef_peak", k) for k in (1, 2, 3)],
    *[(_fzero_of, "spectral", fields, "coef_peak", k) for k in (1, 2)],
])
def test_a_nan_in_any_part_fails_its_check(monkeypatch, check_data, check, data, owner,
                                            helper, call):
    real = getattr(owner, helper)
    calls = itertools.count(1)

    def planted(*args):
        out = real(*args)
        return out * math.nan if next(calls) == call else out

    monkeypatch.setattr(owner, helper, planted)
    assert math.isnan(check(check_data[data]))
    assert next(calls) > call      # the planted call was made


def _frel_full_spectrum(fa, fb):
    # the three peaks, of fa, fb and fa - fb, over the whole fftn spectrum, which
    # GridField.coef mirrors from the stored planes apart from coef_peak's read of them
    # (the test keeps its name from when each peak came from one inverse transform)
    a, b, d = (float(np.max(np.sqrt(np.sum(np.abs(f.coef) ** 2, axis=(3, 4)[:f.rank]))))
               for f in (fa, fb, fa - fb))
    return d / max(1.0, a, b)


@pytest.mark.parametrize("structure", ["scalar", "vector", "general"])
def test_frel_matches_the_coefficient_peak_definition(structure):
    spec = fields.GridSpec(8)
    f = fields.random_bandlimited(spec, 3, 2, structure)
    g = fields.random_bandlimited(spec, 4, 2, structure)
    cases = [(f, f + 1e-9 * g), (f, 5.0 * g), (1e-3 * f, 1e-3 * g), (f, g)]
    for fa, fb in cases:
        assert frel(fa, fb) == _frel_full_spectrum(fa, fb)
    assert frel(f, f) == 0.0


def test_run_spectral_makes_no_transform(monkeypatch):
    # the identities compare the fields' coefficients: no grid sample is read
    def refused(*args, **kwargs):
        raise AssertionError("a transform was made")

    monkeypatch.setattr(np.fft, "irfftn", refused)
    monkeypatch.setattr(fields, "values", refused)
    results = run_spectral(8)
    assert len(results) == len(identities.SPECTRAL)
    assert all(r.passed for r in results)


def test_spectral_suite_traced_peak_stays_small():
    # the random fields store only their band kmax = n/4, and so does every field
    # derived from them: one draw at n = 32 traces 18.3 MiB (38.7 MiB when each
    # field stored the full band k1 = 0..n/2).  The first call builds the grid's
    # frequency tables
    run_spectral(32, draws=1)
    tracemalloc.start()
    try:
        run_spectral(32, draws=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20, "traced peak %.2f MiB" % (peak / 2 ** 20)


def test_frel_refuses_fields_of_other_ranks_or_grids():
    small = fields.GridSpec(8)
    f = fields.random_bandlimited(small, 3, 2, "general")
    with pytest.raises(fields.RankMismatchError):
        frel(f, fields.random_bandlimited(small, 3, 2, "vector"))
    with pytest.raises(fields.RankMismatchError):
        frel(f, fields.random_bandlimited(fields.GridSpec(16), 3, 2, "general"))


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


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("call, name", [
    (korn_estimator.equivalence_constant, "samples"),
    (run_algebra, "samples"),
    (run_spectral, "draws"),
])
def test_counts_below_one_are_typed_errors(call, name, count):
    with pytest.raises(ValueError, match=r"^%s must be >= 1, got %d$" % (name, count)):
        call(**{name: count})
