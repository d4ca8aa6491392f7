#!/usr/bin/env python3
"""Compare kornlab's reports at a base revision with those of the working tree.

    python tools/cmp_reports.py --base HEAD~1
    python tools/cmp_reports.py --selftest

--base extracts src/ of the revision with `git archive` into a temporary
directory.  Each configuration in CONFIGS then runs in a fresh process on
both trees, with one BLAS thread, and the stdout bytes and exit status are
compared (stderr carries wall-clock times and is ignored).  For a report
whose bytes differ, every key path of a JSON report (list indices dropped:
the rows of results.growth are "results.growth[][]") or every column of a
CSV report gets one line: how many of its numbers moved, the largest
relative move |a - b| / max(|a|, |b|), and any string or null that
changed; a report whose layout changed gets one "shape" line.

--selftest runs three small reports on the working tree and plants a
one-ulp move in a JSON number and in a CSV cell, and a changed error
string; it fails unless each plant is reported at its key and nothing
else is, and unless an unchanged report gives no line.

Exit status: 0 when every report is byte-identical (or the self-test
passed), 1 otherwise.  Standard library only.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("identities", "symbol", "korn", "counterexample", "kernel")
CONFIGS = ([[c] for c in COMMANDS] + [[c, "--format", "csv"] for c in COMMANDS] + [
    ["korn", "--kmax", "16"],
    ["korn", "--kmax", "8", "--format", "csv"],
    ["korn", "--kmax", "16", "--format", "csv"],
    ["korn", "--kmax", "1"],
    ["identities", "--grid-n", "8", "--seed", "3"],
    ["identities", "--grid-n", "4"],
    ["identities", "--grid-n", "4", "--format", "csv"],
    ["identities", "--grid-n", "32", "--samples", "50"],
    ["identities", "--samples", "20000"],
    ["identities", "--seed", "7"],
    ["identities", "--seed", "7", "--format", "csv"],
    ["counterexample", "--p", "3", "--kmax", "8"],
    ["counterexample", "--p", "64", "--kmax", "40"],
    ["counterexample", "--box=-0.7,-0.3,-1,0.9,1.3,1"],
    ["kernel", "--seed", "7"],
    ["symbol", "--seed", "7", "--samples", "5000"],
    ["kernel", "--seed", "0"],
    ["symbol", "--seed", "0"],
])
# imports kornlab from the tree named by argv[1], whatever else is installed
RUNNER = ("import sys; sys.path.insert(0, sys.argv[1]); import kornlab.cli as cli; "
          "assert cli.__file__.startswith(sys.argv[1]), cli.__file__; "
          "sys.exit(cli.main(sys.argv[2:]))")


def run(src, args):
    """(exit status, stdout bytes) of one kornlab command on the tree at src."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-c", RUNNER, src] + list(args),
                              cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, check=False)
    return done.returncode, done.stdout


def _leaves(node, path, out):
    """Append (key path, value) for every scalar of a parsed JSON report."""
    if isinstance(node, dict):
        for key, value in node.items():
            _leaves(value, "%s.%s" % (path, key) if path else key, out)
    elif isinstance(node, list):
        for value in node:
            _leaves(value, path + "[]", out)
    else:
        out.append((path, node))
    return out


def _columns(text):
    """(column name, cell) for every cell of a CSV report, numbers parsed."""
    rows = list(csv.reader(io.StringIO(text)))
    out = []
    for row in rows[1:]:
        for name, cell in zip(rows[0], row):
            try:
                cell = float(cell)
            except ValueError:
                pass
            out.append((name, cell))
    return out


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def diff(old, new):
    """One line per key path (JSON) or column (CSV) whose values differ between two reports."""
    try:
        a, b = _leaves(json.loads(old), "", []), _leaves(json.loads(new), "", [])
    except ValueError:
        a, b = _columns(old), _columns(new)
    if [key for key, _ in a] != [key for key, _ in b]:
        return ["shape: %d values -> %d values, %d key paths -> %d"
                % (len(a), len(b), len({k for k, _ in a}), len({k for k, _ in b}))]
    stats = {}
    for (key, x), (_, y) in zip(a, b):
        st = stats.setdefault(key, {"numbers": 0, "moved": 0, "rel": 0.0, "other": []})
        if _is_number(x) and _is_number(y):
            st["numbers"] += 1
            if x != y:
                st["moved"] += 1
                st["rel"] = max(st["rel"], abs(x - y) / max(abs(x), abs(y)))
        elif x != y or type(x) is not type(y):
            st["other"].append("%r -> %r" % (x, y))
    lines = []
    for key, st in stats.items():
        parts = st["other"][:3]
        if st["moved"]:
            parts.insert(0, "%d of %d numbers moved, largest relative move %.2g"
                         % (st["moved"], st["numbers"], st["rel"]))
        if parts:
            lines.append("%s: %s" % (key, "; ".join(parts)))
    return lines


def compare(base_src, head_src):
    """Print one table row per configuration; True when every report is identical."""
    same = True
    print("%-48s %-8s %s" % ("configuration", "exit", "report"))
    for args in CONFIGS:
        (code_a, out_a), (code_b, out_b) = run(base_src, args), run(head_src, args)
        name = " ".join(args)
        status = "%d" % code_a if code_a == code_b else "%d -> %d" % (code_a, code_b)
        if out_a == out_b and code_a == code_b:
            print("%-48s %-8s identical (%d bytes)" % (name, status, len(out_a)))
            continue
        same = False
        if out_a == out_b:
            print("%-48s %-8s identical bytes, exit status differs" % (name, status))
            continue
        lines = (diff(out_a.decode("utf-8", "replace"), out_b.decode("utf-8", "replace"))
                 or ["values equal, bytes differ (number formatting)"])
        print("%-48s %-8s differs: %s" % (name, status, lines[0]))
        for line in lines[1:]:
            print("%-48s %-8s         %s" % ("", "", line))
    return same


def extract_src(rev, dest):
    """Write src/ of the git revision rev into dest; return the path of its src/."""
    blob = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", rev, "src"],
                          stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return os.path.join(dest, "src")


def selftest():
    """Plant a one-ulp move and a changed error string; both must be reported at their keys."""
    src = os.path.join(REPO, "src")
    problems = []

    def plant(text, old, new):
        planted = text.replace(old, new, 1)
        if planted == text:
            problems.append("could not plant %r in place of %r" % (new, old))
        return planted

    # reports render floats as %.17g
    code, out = run(src, ["counterexample", "--kmax", "3"])
    text = out.decode()
    old = json.loads(text)["results"]["growth"][1][1]
    moved = plant(text, "%.17g" % old, "%.17g" % math.nextafter(old, math.inf))
    got = diff(text, moved)
    if code != 0 or got != ["results.growth[][]: 1 of 6 numbers moved, largest relative "
                            "move %.2g" % (math.ulp(old) / old)]:
        problems.append("one-ulp move reported as %r" % got)

    code, out = run(src, ["korn", "--kmax", "1"])
    text = out.decode()
    error = json.loads(text)["errors"][0]
    got = diff(text, plant(text, error, error + "!"))
    if code != 1 or got != ["errors[]: %r -> %r" % (error, error + "!")]:
        problems.append("changed error string reported as %r" % got)

    code, out = run(src, ["counterexample", "--kmax", "3", "--format", "csv"])
    text = out.decode()
    cell = text.splitlines()[2].split(",")[2]
    got = diff(text, plant(text, cell, "%.17g" % math.nextafter(float(cell), -math.inf)))
    if not (len(got) == 1 and got[0].startswith("ratio: 1 of 4 numbers moved")):
        problems.append("one-ulp CSV move reported as %r" % got)
    if diff(text, text) or diff(moved, moved):
        problems.append("an unchanged report was reported as changed")
    for problem in problems:
        print("selftest: FAIL: %s" % problem)
    if not problems:
        print("selftest: ok (one-ulp JSON and CSV moves and a changed error string reported)")
    return not problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--base", help="git revision whose src/ is the reference")
    group.add_argument("--selftest", action="store_true",
                       help="check that planted changes are reported")
    args = parser.parse_args(argv)
    if args.selftest:
        return 0 if selftest() else 1
    with tempfile.TemporaryDirectory() as tmp:
        base_src = extract_src(args.base, tmp)
        return 0 if compare(base_src, os.path.join(REPO, "src")) else 1


if __name__ == "__main__":
    sys.exit(main())
