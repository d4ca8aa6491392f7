"""Command line front end.

Subcommands: identities, symbol, korn, counterexample, kernel.  Reports go
to stdout (or --out) as JSON with schema_version "kornlab/1", or as CSV
with --format csv.  Every float is serialized with 17 significant digits
and the emitted bytes are a pure function of (command, config, seed):
wall-clock timings are printed to stderr only, and the BLAS thread count
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS) changes scheduling but never the
report.  Exit status: 0 clean, 1 when a named invariant failed (see the
"errors" array; each error is also printed to stderr, so a CSV report
names it too), 2 for usage problems: each option is one row of _OPTIONS,
whose reader meets the value from the config file or from the flag (spelled
in full; a value may start with "-"), so a bad one prints "kornlab: <key>:
...", and argparse refuses only an unknown command or flag name, or a flag
without its value.  Each command returns its checks as (message, holds)
rows, every row written as a pass condition so that a NaN fails it, and
main names each failing row in the errors.  A non-finite result is written
as null and named in the errors.
"""

import argparse
import json
import math
import re
import sys
import time
from contextlib import nullcontext

import numpy as np

from . import identities, kernels, korn_estimator, symbol
from .algebra3 import _check_count, _check_instance, _choice, _norm, _unit
from .fields import (BoxDomain, GridSpec, NonFiniteError, UnderResolvedError, _check_exponent,
                     growth_ratio, halfspace_ratio)
from .korn_estimator import _closed_form

SCHEMA_VERSION = "kornlab/1"

class UsageError(Exception):
    pass


# ----------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x):
    """A report number at 17 significant digits; None, a value left out, is null."""
    if x is None:
        return "null"
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite float")
    return format(x, ".17g")


# a printf conversion of a row format, such as %.17g or %d
_CONVERSION = re.compile(r"%[^a-zA-Z%]*[a-zA-Z]")


def _table(table, row, sep):
    """The rows of a 2-D float table, each filled into the printf format row, joined by sep."""
    # one format per block of 4096 rows: a walk over the rows would cost more
    # than the scan, and the whole table as lists would outweigh its text.
    # Within a block each distinct value of a column is formatted once (the
    # korn table repeats each lambda over its cube orbit), told apart by bit
    # pattern so that -0.0 keeps its sign, and the row is filled with strings
    table = np.asarray(table, dtype=float)
    if not np.isfinite(table).all():
        raise ValueError("refusing to serialize a non-finite float")
    conversions = _CONVERSION.findall(row)
    fill = _CONVERSION.sub("%s", row)
    blocks = []
    for i in range(0, len(table), 4096):
        b = table[i:i + 4096]
        cells = np.empty(b.shape, dtype=object)
        for j, conversion in enumerate(conversions):
            bits, where = np.unique(b[:, j].view(np.int64), return_inverse=True)
            text = [conversion % v for v in bits.view(float).tolist()]
            cells[:, j] = np.array(text, dtype=object)[where]
        blocks.append(sep.join([fill] * len(b)) % tuple(cells.ravel().tolist()))
    return sep.join(blocks)


def _nulled(value, found):
    """The results tree with each non-finite float replaced by None; each is appended to found."""
    if isinstance(value, np.ndarray) and not np.isfinite(value).all():
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _nulled(v, found) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulled(v, found) for v in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        found.append(value)
        return None
    return value


def to_json(obj):
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(to_json(str(k)) + ":" + to_json(v) for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        # the bytes of the recursive walk, which would cost more than the scan
        return "[" + _table(obj, "[" + ",".join(["%.17g"] * obj.shape[1]) + "]", ",") + "]"
    raise TypeError("cannot serialize %r" % type(obj))


def to_csv(command, results):
    """Flat CSV rendering; the korn table gets the k1,k2,k3,lambda_min layout."""
    lines = []
    if command == "korn":
        lines.append("k1,k2,k3,lambda_min")
        entries = results["entries"]
        if isinstance(entries, np.ndarray):
            lines.append(_table(entries, "%d,%d,%d,%.17g", "\n"))
        else:           # a non-finite table, as lists with null
            for k1, k2, k3, lam in entries:
                lines.append("%d,%d,%d,%s" % (int(k1), int(k2), int(k3), _fmt_float(lam)))
    elif command == "identities":
        lines.append("name,samples,max_residual,tolerance,passed")
        for row in results["suite"]:
            lines.append("%s,%d,%s,%s,%s" % (row["name"], row["samples"],
                                             _fmt_float(row["max_residual"]),
                                             _fmt_float(row["tolerance"]),
                                             "true" if row["passed"] else "false"))
    elif command == "counterexample":
        lines.append("family,k,ratio")
        for family in ("growth", "halfspace"):
            for k, r in results[family]:
                lines.append("%s,%d,%s" % (family, int(k), _fmt_float(r)))
    else:
        lines.append("key,value")
        def walk(prefix, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(prefix + "." + k if prefix else k, v)
            elif isinstance(value, (list, tuple)):
                for i, v in enumerate(value):
                    walk("%s[%d]" % (prefix, i), v)
            elif value is None or isinstance(value, (float, np.floating)):
                lines.append("%s,%s" % (prefix, _fmt_float(value)))
            else:
                lines.append("%s,%s" % (prefix, value))
        walk("", results)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# configuration


def _parse_box(box):
    """The six coordinates of a box: "x0,y0,z0,x1,y1,z1" text split into floats, or a list."""
    if isinstance(box, str):
        box = [float(part) for part in box.split(",")]
    if not isinstance(box, (list, tuple)) or len(box) != 6:
        raise ValueError("wants x0,y0,z0,x1,y1,z1 (six numbers)")
    return tuple(box)


def _integral(v):
    """A JSON integral float such as 2.0 as the int it names; any other value as it is."""
    return int(v) if isinstance(v, float) and v.is_integer() else v


def _box(v):
    """The six coordinates of the box, as BoxDomain reads them."""
    v = _parse_box(v)
    box = BoxDomain(lo=v[:3], hi=v[3:])
    return box.lo + box.hi


# each option's one row: config key, default, reader (the library's own where
# there is one) and help.  A value the reader refuses is a usage error naming
# its key, not a traceback inside the command.  Rows are in --help order.
_OPTIONS = (
    ("seed", 1, lambda v: _check_count("seed", _integral(v), 0), None),
    ("samples", 1000, lambda v: _check_count("samples", _integral(v)), None),
    ("kmax", 4, lambda v: _check_count("kmax", _integral(v)), None),
    ("grid_n", 16, lambda v: GridSpec(_integral(v)).n, None),
    ("p", 2.0, _check_exponent, None),
    ("box", (-1.0, -1.0, -1.0, 1.0, 1.0, 1.0), _box, "x0,y0,z0,x1,y1,z1"),
    ("out", None, lambda v: v if v is None else _check_instance("out", v, str), None),
    ("format", "json", lambda v: _choice("format", v, ("json", "csv")), "json or csv"),
)
DEFAULTS = {key: default for key, default, _, _ in _OPTIONS}


def load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError("config file %s: %s" % (path, exc)) from None
    if not isinstance(data, dict):
        raise UsageError("config file %s: expected a JSON object" % path)
    unknown = sorted(set(data) - set(DEFAULTS))
    if unknown:
        raise UsageError("config file %s: unknown keys %s" % (path, ", ".join(unknown)))
    return data


def resolve_config(args):
    """defaults < config file < explicit flags, unknown keys rejected, read in row order."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(load_config_file(args.config))
    for key, _, read, _ in _OPTIONS:
        val = getattr(args, key)
        try:
            cfg[key] = read(cfg[key] if val is None else val)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError("%s: %s" % (key, exc)) from None
    return cfg


# ----------------------------------------------------------------------------
# subcommands;  each returns (results, checks), checks a list of
# (message, holds) rows in report order


def run_identities(cfg):
    suite = identities.run_all(samples=cfg["samples"], seed=cfg["seed"], n=cfg["grid_n"])
    rows = [{"name": res.name, "samples": res.samples, "max_residual": res.max_residual,
             "tolerance": res.tolerance, "passed": res.passed} for res in suite]
    checks = [("identity %s exceeded tolerance (%.3e >= %.3e)"
               % (res.name, res.max_residual, res.tolerance), res.passed) for res in suite]
    return {"suite": rows, "tolerances": {res.name: res.tolerance for res in suite}}, checks


def run_symbol(cfg):
    # one draw of two sets of 100 directions: kernels, then multipliers
    kernel_dirs, xi = _unit(np.random.default_rng(cfg["seed"]).standard_normal((2, 100, 3)))
    dims = []
    gaps = []
    for u in kernel_dirs:
        basis = symbol.kernel_basis(symbol.curl_symbol(u, "devsym"))
        dims.append(basis.dimension)
        sv = basis.singular_values
        gaps.append(float(sv[4] / max(sv[5], 1e-300)))
    m = symbol.build_multiplier(xi)
    a = symbol.curl_symbol(xi, "devsym")
    a_sym = symbol.curl_symbol(xi, "sym")
    mult_resid = float(_norm(m @ a - a_sym, 2).max())
    homo_resid = float(_norm(symbol.build_multiplier(2.0 * xi) - m, 2).max())
    checks = [("kernel dimension of the devsym curl symbol left 4", all(d == 4 for d in dims)),
              ("multiplier identity M(xi) A(xi) = A_sym(xi) violated", mult_resid <= 1e-10),
              ("multiplier homogeneity violated", homo_resid <= 1e-10)]
    witness = symbol.KernelWitness()
    try:
        equiv = korn_estimator.equivalence_constant(samples=cfg["samples"], seed=cfg["seed"])
    except RuntimeError as exc:
        checks.append(("equivalence_constant: %s" % exc, False))
        equiv = None                # reported as null, named in the errors
    ratio_e3 = symbol.sharp_ratio([0.0, 0.0, 1.0])
    # a failed equivalence constant is named above; only values are compared
    sharp = [v for v in (ratio_e3, equiv) if v is not None]
    checks.append(("sharp ratio or equivalence constant differs from sqrt(3) by more than 1e-12 "
                   "relative", all(abs(v / identities.SQRT3 - 1.0) <= 1e-12 for v in sharp)))
    results = {
        "kernel_dimension_min": min(dims), "kernel_dimension_max": max(dims),
        "kernel_gap_min": float(np.min(gaps)),     # a NaN gap is kept, named as non-finite
        "multiplier_residual_max": mult_resid,
        "multiplier_homogeneity_max": homo_resid,
        "sharp_ratio_e3": ratio_e3,
        "equivalence_constant": equiv,
        "witness_devsym_residual": witness.devsym_residual,
        "witness_sym_residual": witness.sym_residual,
    }
    return results, checks


def run_korn(cfg):
    report = korn_estimator.korn_constant(cfg["kmax"])
    K, lam = report.entries[:, :3], report.entries[:, 3]
    exact, bound = _closed_form(np.sum(K * K, axis=1))
    excess = np.abs(lam - exact) - (1e-12 + bound)
    met = excess <= 0.0
    i = int(np.argmax(excess))      # the first NaN, if there is one
    checks = [("per-frequency minimum left the interval (0, 1]",
               np.all((lam > 0.0) & (lam <= 1.0 + 1e-12))),
              ("%d per-frequency minima differ from the closed form "
               "(2 + t - sqrt(t^2 + 4))/4, t = |k|^2, by more than 1e-12 + 16 eps t; "
               "worst at k = (%d, %d, %d): %.17g against %.17g"
               % (met.size - np.count_nonzero(met), *K[i], lam[i], exact[i]), np.all(met)),
              ("outermost frequency shell attains the minimum (scan radius too small)",
               not report.non_monotone_tail)]
    results = {
        "kmax": report.kmax,
        "lambda_min": report.lambda_global,
        "c_estimate": report.c_estimate,   # null at a minimum <= 0, named in the errors
        "tail_min": report.tail_min,
        "non_monotone_tail": report.non_monotone_tail,
        "convention": report.convention,
        "entries": report.entries,
    }
    return results, checks


def run_counterexample(cfg):
    checks = []
    p, box = cfg["p"], BoxDomain(lo=cfg["box"][:3], hi=cfg["box"][3:])
    results = {"p": p, "box": list(cfg["box"]), "growth": [], "halfspace": []}
    for family, ratio, ks in (
            ("growth", lambda k: growth_ratio(k, p, box), range(1, cfg["kmax"] + 1)),
            ("halfspace", lambda k: halfspace_ratio(k, p),
             [k for k in (2, 4, 8, 16, 32) if k <= cfg["kmax"]])):
        for k in ks:
            try:
                results[family].append([k, ratio(k)])
            except (UnderResolvedError, NonFiniteError) as exc:
                checks.append(("%s ratio k=%d: %s" % (family, k, exc), False))
                break
    ratios = [r for _, r in results["growth"]]
    monotone_from = 1
    for i in range(1, len(ratios)):
        if ratios[i] <= ratios[i - 1]:
            monotone_from = i + 2
    results["monotone_from"] = monotone_from
    return results, checks


def run_kernel(cfg):
    rng = np.random.default_rng(cfg["seed"])
    clouds = _unit(rng.standard_normal((20, 12, 3)))
    sphere_ranks = [kernels.boundary_rank(pts) for pts in clouds]
    th = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
    circle = np.stack([np.cos(th), 1.0 + np.sin(th), np.zeros_like(th)], axis=1)
    circle_rank = kernels.boundary_rank(circle)
    line = np.outer(np.linspace(-2, 2, 5), [1.0, 0.5, -0.25])
    line_rank = kernels.boundary_rank(line)
    element = kernels.KernelElement(a_tilde=rng.standard_normal(3),
                                    beta=float(rng.standard_normal()),
                                    b=rng.standard_normal(3),
                                    d=rng.standard_normal(3))
    pts = rng.standard_normal((14, 3))
    mats = kernels.eval_kernel(element, pts)
    fit = kernels.project_kernel(pts, mats, "devsym")
    recovery = float(identities._worst(
        np.max(np.abs(fit.element.a_tilde - element.a_tilde)),
        abs(fit.element.beta - element.beta),
        np.max(np.abs(fit.element.b - element.b)),
        np.max(np.abs(fit.element.d - element.d))))
    checks = [("random spherical 12-point cloud is not rigid (rank != 10)",
               all(r == 10 for r in sphere_ranks)),
              ("degenerate configuration (circle/line) reported as rigid",
               circle_rank < 10 and line_rank < 10),
              ("exact kernel sample was not recovered by projection",
               recovery <= 1e-8 and fit.residual <= 1e-8)]
    results = {"sphere_ranks": sphere_ranks, "circle_rank": circle_rank,
               "line_rank": line_rank, "recovery_error": recovery,
               "projection_residual": fit.residual,
               "projection_cond": fit.cond}
    return results, checks


COMMANDS = {
    "identities": run_identities,
    "symbol": run_symbol,
    "korn": run_korn,
    "counterexample": run_counterexample,
    "kernel": run_kernel,
}


# ----------------------------------------------------------------------------
# driver


def build_parser():
    """One flag per row, read by _number where the default is a number, then --config."""
    parser = argparse.ArgumentParser(
        prog="kornlab", allow_abbrev=False,
        description="numerical laboratory for matrix curl seminorms and Korn constants")
    parser.add_argument("command", choices=sorted(COMMANDS))
    for key, default, _, text in _OPTIONS:
        parser.add_argument("--" + key.replace("_", "-"), help=text,
                            type=_number if isinstance(default, (int, float)) else None)
    parser.add_argument("--config", help="JSON file with default overrides")
    return parser


def _joined(argv):
    """argv with each value flag joined to the word after it, "--p -1e3" as "--p=-1e3".

    argparse reads a separate word that starts with "-" as a flag; joined, such
    a value meets its reader.  A word that names a flag ("--kmax", "--kmax=2",
    "--help") is not taken as a value.
    """
    flags = {"--" + key.replace("_", "-") for key in DEFAULTS} | {"--config"}
    out = []
    for word in argv:
        if out and out[-1] in flags and word.split("=")[0] not in flags | {"-h", "--help"}:
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _number(text):
    """Flag text as the int it spells, else the float, else the text: never refused here."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_joined(sys.argv[1:] if argv is None else argv))
    try:
        cfg = resolve_config(args)
    except UsageError as exc:
        print("kornlab: %s" % exc, file=sys.stderr)
        return 2
    # opened before the command runs, so that an unwritable path costs no run
    try:
        sink = (open(cfg["out"], "w", encoding="utf-8", newline="")
                if cfg["out"] is not None else nullcontext(sys.stdout))
    except OSError as exc:
        print("kornlab: cannot write %s: %s" % (cfg["out"], exc.strerror or exc),
              file=sys.stderr)
        return 2

    with sink as fh:
        started = time.perf_counter()
        results, checks = COMMANDS[args.command](cfg)
        found = []
        results = _nulled(results, found)
        checks.append(("%d non-finite values in the results are written as null" % len(found),
                       not found))
        errors = [message for message, holds in checks if not holds]
        elapsed_ms = 1000.0 * (time.perf_counter() - started)
        fh.write(_render(args.command, cfg, results, errors))
    for err in errors:
        print("kornlab: error: %s" % err, file=sys.stderr)
    print("kornlab: %s finished in %.1f ms" % (args.command, elapsed_ms), file=sys.stderr)
    return 1 if errors else 0


def _render(command, cfg, results, errors):
    """The report text in the configured format."""
    if cfg["format"] == "csv":
        return to_csv(command, results)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": {key: val for key, val in cfg.items() if key != "out"},
        "results": results,
        "errors": errors,
        # wall-clock times change run to run; they go to stderr so that the
        # emitted report stays byte-identical for equal config and seed
        "timings_ms": {},
    }
    return to_json(report) + "\n"


if __name__ == "__main__":
    sys.exit(main())
