"""The benchmark's three workloads: seeded inputs, the calls into kornlab,
and independent checks of every output.

A workload is a list of operations.  An operation is one public call as a
user would make it: one `kornlab.cli.main` invocation, one
`grid_crosscheck`, one blow-up ratio.  It fails when it raises or when its
output violates a check below.  The checks come from closed forms
computed here (the per-frequency minimum of the Korn form, the exact
Gauss-Legendre moments of |z|^2j on a square, the lower bound k/max|z|),
never from a stored copy of earlier output.

This module imports only the standard library at load time, so that the
worker's import span covers all of kornlab's own import cost.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

WORKLOADS = ("scan", "crosscheck", "blowup")

LAMBDA_STAR = (3.0 - math.sqrt(5.0)) / 4.0      # min_k lambda_min(Q_k), at |k| = 1
C_STAR = math.sqrt(3.0 + math.sqrt(5.0))        # 1 / sqrt(LAMBDA_STAR)
SQRT3 = math.sqrt(3.0)

KORN_ABS_TOL = 1e-12      # per-frequency minima lie in (0, 1]; the scan agrees to 8e-14
REL_TOL = 1e-12           # closed forms that the program reproduces to a few ulps
CROSSCHECK_TOL = 1e-6     # the bound the README tour states for grid_crosscheck(16)
RECOVERY_TOL = 1e-8
ALGEBRA_TOL, SPECTRAL_TOL = 1e-12, 1e-10
ALGEBRA_COUNT, SPECTRAL_COUNT = 34, 17

GROWTH_KMAX = 100
GROWTH_KMAX_P64 = 40
HALFSPACE_KS = (2, 4, 8, 16, 32)
MONOTONE_FROM = 5

# growth_ratio(k, 64, unit box) overflows: r2**(k*p/2) becomes inf, so k = 33
# returns a "settled" 0.0 and k = 34..40 raise UnderResolvedError after
# refining to 1024 points.  These inputs do not depend on the seed, so the
# same eight operations fail on every run.
KNOWN_FAULTS = frozenset(("growth p=64 k=%d" % k) for k in range(33, GROWTH_KMAX_P64 + 1))


@dataclass(frozen=True)
class Op:
    name: str
    call: object            # () -> output; looks kornlab functions up at call time
    meta: object = None     # what the checks need to know about the inputs


def lambda_closed_form(k1, k2, k3):
    """Smallest eigenvalue of Q_k: (2 + t - sqrt(t^2 + 4)) / 4, t = |k|^2; 1 at k = 0."""
    t = k1 * k1 + k2 * k2 + k3 * k3
    if t == 0:
        return 1.0
    return (2.0 + t - math.sqrt(t * t + 4.0)) / 4.0


def moment_sums(jmax):
    """N(j) = 2 * sum_i C(j,i) (2/(2i+1)) (2/(2(j-i)+1)), exact, for j = 0..jmax.

    N(j) is the integral of |x1 + i x2|^(2j) over the unit box; Gauss-Legendre
    with enough points integrates these polynomials exactly.
    """
    return [2 * sum(comb(j, i) * Fraction(2, 2 * i + 1) * Fraction(2, 2 * (j - i) + 1)
                    for i in range(j + 1))
            for j in range(jmax + 1)]


def run_cli(argv):
    from kornlab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


# ----------------------------------------------------------------------------
# inputs


def build(workload, seed):
    """The workload's operations for this seed; the same seed gives the same inputs."""
    if workload == "scan":
        s = str(seed % 2 ** 32)        # numpy's generators take non-negative seeds
        commands = (("korn", ["korn", "--kmax", "16"]),
                    ("korn --format csv", ["korn", "--kmax", "8", "--format", "csv"]),
                    ("symbol", ["symbol"]),
                    ("identities", ["identities"]),
                    ("kernel", ["kernel"]))
        return [Op(" ".join(argv), lambda argv=argv: run_cli(argv + ["--seed", s]), kind)
                for kind, argv in commands]
    if workload == "crosscheck":
        from kornlab import korn_estimator
        # the README call, with the program's default start block: LOBPCG's
        # iteration count depends on the start block, and the per-layer
        # counts must repeat exactly from seed to seed
        return [Op("grid_crosscheck n=16", lambda: korn_estimator.grid_crosscheck(16))]
    if workload == "blowup":
        from kornlab import fields
        rng = random.Random(seed)
        half = 2.0 ** rng.uniform(-1.0, 1.0)            # x1, x2 in [-half, half]
        z0 = rng.uniform(-1.0, 1.0)
        z1 = z0 + 2.0 ** rng.uniform(-1.0, 1.0)
        box = fields.BoxDomain(lo=(-half, -half, z0), hi=(half, half, z1))
        unit = fields.BoxDomain(lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 1.0))
        ops = []
        for p, kmax, b in ((2.0, GROWTH_KMAX, box), (1.0, GROWTH_KMAX, box),
                           (64.0, GROWTH_KMAX_P64, unit)):
            for k in range(1, kmax + 1):
                ops.append(Op("growth p=%d k=%d" % (p, k),
                              lambda k=k, p=p, b=b: fields.growth_ratio(k, p, b),
                              ("growth", p, k, b.hi[0])))
        for k in HALFSPACE_KS:
            ops.append(Op("halfspace p=2 k=%d" % k, lambda k=k: fields.halfspace_ratio(k, 2.0),
                          ("halfspace", 2.0, k, None)))
        return ops
    raise ValueError("unknown workload %r" % (workload,))


# ----------------------------------------------------------------------------
# checks; each returns a list of problems, empty when the output is right


def _close(value, expected, rel=REL_TOL):
    return abs(value - expected) <= rel * abs(expected)


def _finite_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_korn_entries(rows, kmax):
    """rows: (k1, k2, k3, lambda) for every |k|_inf <= kmax, lexicographic."""
    problems = []
    axis = range(-kmax, kmax + 1)
    expected = [(a, b, c) for a in axis for b in axis for c in axis]
    if len(rows) != len(expected):
        return ["%d entries, expected %d" % (len(rows), len(expected))]
    bad = 0
    for (k1, k2, k3, lam), want in zip(rows, expected):
        if (k1, k2, k3) != want or not _finite_number(lam) \
                or abs(lam - lambda_closed_form(k1, k2, k3)) > KORN_ABS_TOL:
            if bad < 3:
                problems.append("entry %r: %r, closed form %r"
                                % ((k1, k2, k3), lam, lambda_closed_form(*want)))
            bad += 1
    if bad > 3:
        problems.append("%d wrong entries in all" % bad)
    return problems


def _report(rc, text, command):
    if rc != 0:
        return None, ["%s exited with status %r" % (command, rc)]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return None, ["%s printed no JSON report: %s" % (command, exc)]
    if report.get("errors"):
        return None, ["%s reported errors %r" % (command, report["errors"])]
    return report["results"], []


def check_korn(output, kmax=16):
    res, problems = _report(*output, "korn")
    if res is None:
        return problems
    problems += check_korn_entries([tuple(e) for e in res["entries"]], kmax)
    if not _close(res["lambda_min"], LAMBDA_STAR):
        problems.append("lambda_min %r, expected (3-sqrt5)/4" % res["lambda_min"])
    if not _close(res["c_estimate"], C_STAR):
        problems.append("c_estimate %r, expected sqrt(3+sqrt5)" % res["c_estimate"])
    if not _close(res["tail_min"], lambda_closed_form(kmax, 0, 0)):
        problems.append("tail_min %r, expected lambda(kmax^2)" % res["tail_min"])
    if res["non_monotone_tail"] is not False:
        problems.append("non_monotone_tail is %r" % res["non_monotone_tail"])
    return problems


def check_korn_csv(output, json_entries=None, kmax=8):
    rc, text = output
    if rc != 0:
        return ["korn --format csv exited with status %r" % rc]
    lines = text.splitlines()
    if not lines or lines[0] != "k1,k2,k3,lambda_min":
        return ["unexpected CSV header %r" % (lines[:1],)]
    try:
        rows = [(int(a), int(b), int(c), float(d))
                for a, b, c, d in (line.split(",") for line in lines[1:])]
    except ValueError as exc:
        return ["malformed CSV row: %s" % exc]
    problems = check_korn_entries(rows, kmax)
    if json_entries is not None:
        inner = [tuple(e) for e in json_entries if max(map(abs, e[:3])) <= kmax]
        if rows != inner:
            problems.append("CSV rows differ from the JSON entries with |k|_inf <= %d" % kmax)
    return problems


def check_symbol(output):
    res, problems = _report(*output, "symbol")
    if res is None:
        return problems
    for key in ("equivalence_constant", "sharp_ratio_e3"):
        if not _close(res[key], SQRT3):
            problems.append("%s %r, expected sqrt(3)" % (key, res[key]))
    return problems


def check_identities(output):
    res, problems = _report(*output, "identities")
    if res is None:
        return problems
    suite = res["suite"]
    tols = sorted(row["tolerance"] for row in suite)
    if tols != [ALGEBRA_TOL] * ALGEBRA_COUNT + [SPECTRAL_TOL] * SPECTRAL_COUNT:
        problems.append("tolerance table is not %d x %g and %d x %g"
                        % (ALGEBRA_COUNT, ALGEBRA_TOL, SPECTRAL_COUNT, SPECTRAL_TOL))
    for row in suite:
        if not (row["max_residual"] < row["tolerance"]):
            problems.append("identity %s: residual %r >= %g"
                            % (row["name"], row["max_residual"], row["tolerance"]))
    return problems


def check_kernel(output):
    res, problems = _report(*output, "kernel")
    if res is None:
        return problems
    if not res["sphere_ranks"] or any(r != 10 for r in res["sphere_ranks"]):
        problems.append("sphere ranks %r, expected all 10" % res["sphere_ranks"])
    for key in ("circle_rank", "line_rank"):
        if not res[key] < 10:
            problems.append("%s %r, expected below 10" % (key, res[key]))
    if not res["recovery_error"] <= RECOVERY_TOL:
        problems.append("recovery error %r above %g" % (res["recovery_error"], RECOVERY_TOL))
    return problems


def check_crosscheck(diff, lobpcg_lambda=None):
    problems = []
    if not _finite_number(diff) or not 0.0 <= diff < CROSSCHECK_TOL:
        problems.append("grid_crosscheck returned %r, expected finite and below %g"
                        % (diff, CROSSCHECK_TOL))
    if lobpcg_lambda is not None and not abs(lobpcg_lambda - LAMBDA_STAR) < CROSSCHECK_TOL:
        problems.append("LOBPCG eigenvalue %r is not within %g of (3-sqrt5)/4"
                        % (lobpcg_lambda, CROSSCHECK_TOL))
    return problems


def check_growth(k, p, half, ratio, previous=None, moments=None):
    """One growth ratio on a box whose (x1, x2) square has half-width `half`.

    On the square |z| <= sqrt(2) half, and every rule with positive weights
    keeps ||k z^(k-1)|| >= k ||z^k|| / max|z|, so the ratio is at least
    k / (sqrt(2) half).  At p = 2 it equals k sqrt(N(k-1)/N(k)) / half.
    """
    if not _finite_number(ratio) or ratio <= 0.0:
        return ["ratio %r is not positive and finite" % (ratio,)]
    problems = []
    floor = k / (math.sqrt(2.0) * half)
    if ratio < floor * (1.0 - REL_TOL):
        problems.append("ratio %r below k/max|z| = %r" % (ratio, floor))
    if p == 2.0 and moments is not None:
        exact = k * math.sqrt(moments[k - 1] / moments[k]) / half
        if not _close(ratio, exact):
            problems.append("ratio %r, closed form %r" % (ratio, exact))
    if k > MONOTONE_FROM and previous is not None and not ratio > previous:
        problems.append("ratio %r does not exceed the k-1 ratio %r" % (ratio, previous))
    return problems


def check_halfspace(ratio, previous=None):
    if not _finite_number(ratio) or ratio <= 0.0:
        return ["ratio %r is not positive and finite" % (ratio,)]
    if previous is not None and not 1.5 <= ratio / previous <= 2.5:
        return ["ratio grew by %r per doubling of k, expected 1.5 to 2.5" % (ratio / previous)]
    return []


def check(workload, ops, results, observed=None):
    """Problems per operation.  results[i] is (True, output) or (False, error text)."""
    observed = observed or {}
    problems = [[] if ok else [out] for ok, out in results]
    outs = [out if ok else None for ok, out in results]
    if workload == "scan":
        entries = None
        for i, op in enumerate(ops):
            if outs[i] is None:
                continue
            if op.meta == "korn --format csv":
                problems[i] = check_korn_csv(outs[i], entries)
            else:
                problems[i] = SCAN_CHECKS[op.meta](outs[i])
                if op.meta == "korn" and not problems[i]:
                    entries = json.loads(outs[i][1])["results"]["entries"]
    elif workload == "crosscheck":
        if outs[0] is not None:
            problems[0] = check_crosscheck(outs[0], observed.get("lobpcg.lambda"))
    elif workload == "blowup":
        moments = moment_sums(GROWTH_KMAX)
        previous = {}       # family -> ratio at the previous k, if that one passed
        for i, op in enumerate(ops):
            family, p, k, half = op.meta
            ratio = outs[i]
            if ratio is not None:
                if family == "growth":
                    problems[i] = check_growth(k, p, half, ratio,
                                               previous.get((family, p)), moments)
                else:
                    problems[i] = check_halfspace(ratio, previous.get((family, p)))
            previous[(family, p)] = None if problems[i] else ratio
    return problems


SCAN_CHECKS = {"korn": check_korn, "symbol": check_symbol,
               "identities": check_identities, "kernel": check_kernel}
