"""Shows that every check in workloads.py accepts a right value and rejects a wrong one.

    PYTHONPATH=src python3 perfbench/selftest.py

Each case hands one check a real kornlab output and the same output with
one value made wrong, and prints one line per case.  The exit status is 1
if any check accepts the wrong value or rejects the right one.
"""

import copy
import json
import math
import sys

import workloads as W


def _with(report, edit):
    bad = copy.deepcopy(report)
    edit(bad)
    return 0, json.dumps(bad)


def cases():
    from kornlab import fields

    rc, text = W.run_cli(["korn", "--kmax", "4"])
    korn = json.loads(text)
    entries = korn["results"]["entries"]

    def bump_entry(r):
        r["results"]["entries"][100][3] += 1e-9

    def bump_lambda(r):
        r["results"]["lambda_min"] += 1e-9

    def flag_tail(r):
        r["results"]["non_monotone_tail"] = True

    yield ("korn entry + 1e-9", lambda out: W.check_korn(out, kmax=4),
           (rc, text), _with(korn, bump_entry))
    yield ("korn lambda_min + 1e-9", lambda out: W.check_korn(out, kmax=4),
           (rc, text), _with(korn, bump_lambda))
    yield ("korn non_monotone_tail true", lambda out: W.check_korn(out, kmax=4),
           (rc, text), _with(korn, flag_tail))

    csv = W.run_cli(["korn", "--kmax", "2", "--format", "csv"])
    lines = csv[1].splitlines()
    k1, k2, k3, lam = lines[7].split(",")
    lines[7] = ",".join((k1, k2, k3, repr(float(lam) + 1e-13)))
    yield ("korn csv row differs from JSON by 1e-13",
           lambda out: W.check_korn_csv(out, entries, kmax=2),
           csv, (0, "\n".join(lines) + "\n"))

    sym = W.run_cli(["symbol"])
    yield ("symbol equivalence constant * (1 + 1e-9)", W.check_symbol, sym,
           _with(json.loads(sym[1]),
                 lambda r: r["results"].__setitem__("equivalence_constant", W.SQRT3 * (1 + 1e-9))))

    ident = W.run_cli(["identities", "--samples", "50"])

    def break_identity(r):
        r["results"]["suite"][3]["max_residual"] = 2e-12

    yield ("identity residual above its tolerance", W.check_identities, ident,
           _with(json.loads(ident[1]), break_identity))

    kern = W.run_cli(["kernel"])
    yield ("kernel sphere rank 9", W.check_kernel, kern,
           _with(json.loads(kern[1]), lambda r: r["results"]["sphere_ranks"].__setitem__(5, 9)))
    yield ("kernel recovery error 1e-7", W.check_kernel, kern,
           _with(json.loads(kern[1]), lambda r: r["results"].__setitem__("recovery_error", 1e-7)))

    yield ("crosscheck difference 2e-6", W.check_crosscheck, 4e-9, 2e-6)
    yield ("crosscheck difference nan", W.check_crosscheck, 4e-9, float("nan"))
    yield ("LOBPCG eigenvalue off by 2e-6",
           lambda lam: W.check_crosscheck(4e-9, lam), W.LAMBDA_STAR + 1e-9, W.LAMBDA_STAR + 2e-6)

    unit = fields.BoxDomain(lo=(-1, -1, -1), hi=(1, 1, 1))
    r31, r32 = (fields.growth_ratio(k, 64.0, unit) for k in (31, 32))
    yield ("growth p=64 k=33 returns 0.0 (today's overflow)",
           lambda r: W.check_growth(33, 64.0, 1.0, r, r32), 2 * r32 - r31, 0.0)
    yield ("growth p=64 not increasing",
           lambda r: W.check_growth(32, 64.0, 1.0, r, r31), r32, r31)
    moments = W.moment_sums(W.GROWTH_KMAX)
    box = fields.BoxDomain(lo=(-0.75, -0.75, 0.0), hi=(0.75, 0.75, 1.0))
    r2 = fields.growth_ratio(40, 2.0, box)
    yield ("growth p=2 ratio * (1 + 1e-10)",
           lambda r: W.check_growth(40, 2.0, 0.75, r, None, moments), r2, r2 * (1 + 1e-10))
    yield ("growth p=1 below k/max|z|",
           lambda r: W.check_growth(3, 1.0, 0.75, r), fields.growth_ratio(3, 1.0, box),
           0.99 * 3 / (math.sqrt(2) * 0.75))

    h8, h16 = (fields.halfspace_ratio(k, 2.0) for k in (8, 16))
    yield ("halfspace ratio tripled per doubling",
           lambda r: W.check_halfspace(r, h8), h16, 3 * h8)


def main():
    bad = 0
    for name, check, good, wrong in cases():
        accepts_good = not check(good)
        rejects_wrong = bool(check(wrong))
        ok = accepts_good and rejects_wrong
        bad += not ok
        print("%-50s %s" % (name, "rejected" if ok else
                            "FAILED (accepts right: %s, rejects wrong: %s)"
                            % (accepts_good, rejects_wrong)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
