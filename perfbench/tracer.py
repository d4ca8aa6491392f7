"""Per-layer spans and counts, recorded from outside kornlab.

The traced worker replaces the public functions' module attributes with
timing and counting wrappers; kornlab itself holds no tracing code.  A
function imported by name into several modules (`curl_symbol` lives in
`symbol`, `korn_estimator` and `identities`) is replaced under every
name, so that each call is seen once.  Spans are kept in memory and
written out when the run ends: name, start, end and parent index.
"""

import json
import time

# (module, attribute) of each traced layer; the metric prefix is
# "<module>.<attribute>", except for scipy's lobpcg as korn_estimator uses it
LAYERS = (
    ("korn_estimator", "korn_constant"),
    ("korn_estimator", "lambda_min"),
    ("korn_estimator", "equivalence_constant"),
    ("korn_estimator", "grid_crosscheck"),
    ("korn_estimator", "lobpcg"),
    ("symbol", "curl_symbol"),
    ("symbol", "sharp_ratio"),
    ("cli", "to_json"),
    ("identities", "run_algebra"),
    ("identities", "run_spectral"),
    ("fields", "apply_operator"),
    ("fields", "pointwise_part"),
    ("fields", "field_from_coef"),
    ("fields", "growth_ratio"),
    ("fields", "halfspace_ratio"),
    ("fields", "bump_profile"),
)
AXIS_RULE = "fields.BoxDomain.axis_rule"


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index or -1]
        self.calls = {}
        self.observed = {}      # values read from the traced calls' arguments and results
        self._stack = []

    def begin(self, name):
        stack = self._stack
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, observe=None):
        """fn with a span per outermost call; recursive calls run inside that span."""
        tracer, calls = self, self.calls
        calls[name] = 0
        active = False

        def traced(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            calls[name] += 1
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
                active = False
            if observe is not None:
                observe(tracer.observed, args, result)
            return result

        return traced

    def install(self):
        """Wrap every layer in LAYERS, under each name kornlab binds it to."""
        import kornlab
        import kornlab.cli
        modules = [m for m in vars(kornlab).values() if type(m) is type(kornlab)]
        for mod_name, attr in LAYERS:
            fn = getattr(getattr(kornlab, mod_name), attr)
            name = "lobpcg" if attr == "lobpcg" else "%s.%s" % (mod_name, attr)
            traced = self.wrap(name, fn, _observe_lobpcg if attr == "lobpcg" else None)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
        box = kornlab.fields.BoxDomain
        box.axis_rule = self.wrap(AXIS_RULE, box.axis_rule, _observe_axis_rule)

    def metrics(self):
        """Total seconds per span name, self seconds of lobpcg, call counts, observations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
            if name == "lobpcg":
                out["lobpcg.self_s"] = out.get("lobpcg.self_s", 0.0) + (end - start - child[i])
        for name, n in self.calls.items():
            out[name + ".calls"] = n
        out.update(self.observed)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _observe_lobpcg(observed, args, result):
    # grid_crosscheck asks for the residual history and then discards it
    w, _, hist = result
    i = int(w.argmin())
    observed["lobpcg.iterations"] = observed.get("lobpcg.iterations", 0) + len(hist) - 2
    observed["lobpcg.residual"] = float(hist[-1][i])
    observed["lobpcg.lambda"] = float(w[i])


def _observe_axis_rule(observed, args, result):
    key = AXIS_RULE + ".max_points"
    observed[key] = max(observed.get(key, 0), int(args[2]))
