"""Per-layer spans and counts recorded from outside the library.

The tracer replaces every binding of each traced function with a wrapper:
the function's home module and every ``curveint`` module that did
``from .x import f`` hold their own name for it, and all of them are
swapped.  Nothing under ``src/`` is edited; ``uninstall`` puts every
original back.

A span's self time is its duration minus the time covered by the wrapped
calls it made, so recursion (``gcd`` -> ``content_in`` -> ``gcd``) nests.
Field arithmetic is counted, never timed: it runs about 10^5 times per
corpus pass, and a timer per call would be most of what it measured.
"""

import importlib
import sys
import time
from functools import wraps

# (module, function) pairs timed as spans, in report order.
SPANS = [
    ("algebra", "resultant"),
    ("algebra", "subresultant_prs"),
    ("algebra", "gcd"),
    ("algebra", "factor_univariate"),
    ("algebra", "squarefree_decompose"),
    ("algebra", "shear_to_general_position"),
    ("lifting", "newton_puiseux"),
    ("lifting", "hensel_lift"),
    ("series", "eval_poly_at_series"),
    ("intersect", "mult_length"),
    ("intersect", "mult_resultant_order"),
    ("intersect", "intersection_points"),
    ("intersect", "multiplicities_at"),
    ("deformation", "deformation_count"),
    ("deformation", "certified_solutions"),
    ("deformation", "certified_count_only"),
    ("deformation", "certify_squarefree_in"),
    ("deformation", "two_scale_analysis"),
    ("infinitesimal", "staged_specialization_check"),
    ("infinitesimal", "left_right_factoring_check"),
    ("cli", "run_job"),
]

# Functions only counted: each call of apply_shear is one shear candidate
# tried, and its time stays in the shear search that made it.
COUNTED_FUNCS = [("algebra", "apply_shear")]

# The deformation engine's entry points.  trace.coverage is the share of
# the time inside them that lands in a named span below them.
ENGINE = {"deformation.deformation_count", "deformation.certified_solutions",
          "deformation.certified_count_only",
          "deformation.two_scale_analysis"}

# The spans whose failures are certificate attempts that did not certify.
CERTIFY = ("deformation.certified_solutions",
           "deformation.certified_count_only")

# (class, [methods], counter): operator aliases such as __rmul__ = __mul__
# share one counter.
COUNTED_METHODS = [
    ("ExtElement", ["__mul__", "__rmul__"], "fields.ext.mul"),
    ("ExtElement", ["__add__", "__radd__"], "fields.ext.add"),
    ("ExtElement", ["inverse"], "fields.ext.inverse"),
    ("FpElement", ["__mul__", "__rmul__"], "fields.fp.mul"),
]


class JobTimeout(BaseException):
    """Raised by the per-instance alarm.  A BaseException, so that no
    ``except Exception`` on the way up can swallow it, and never counted
    as a layer failure."""


class Tracer:
    """Spans and counters of one job at a time.

    ``begin_job`` clears the per-job record and ``end_job`` returns it; a
    job stopped by its limit is simply never ended, so a span cut open by
    the alarm cannot leak into the next job.
    """

    def __init__(self):
        self._patched = []      # (owner, attribute, original)
        self._wrapped = {}      # id(original) -> wrapper
        self.originals = []
        self.begin_job()

    # -------------------------------------------------------- recording

    def begin_job(self):
        self.calls = {}
        self.self_s = {}
        self.failures = {}
        self.engine_s = 0.0
        self.in_engine_named_s = 0.0
        self._stack = []        # time covered by children, per open span
        self._engine_depth = 0

    def end_job(self):
        return {"calls": self.calls, "self_s": self.self_s,
                "failures": self.failures, "engine_s": self.engine_s,
                "in_engine_named_s": self.in_engine_named_s}

    def _span(self, fn, name):
        engine = name in ENGINE
        clock = time.perf_counter
        tracer = self

        @wraps(fn)
        def span(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            stack = tracer._stack
            stack.append(0.0)
            if engine:
                tracer._engine_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except JobTimeout:
                raise
            except BaseException:
                tracer.failures[name] = tracer.failures.get(name, 0) + 1
                raise
            finally:
                took = clock() - start
                own = took - stack.pop()
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + own
                if stack:
                    stack[-1] += took
                if engine:
                    tracer._engine_depth -= 1
                    if tracer._engine_depth == 0:
                        tracer.engine_s += took
                elif tracer._engine_depth:
                    tracer.in_engine_named_s += own
        return span

    def _counter(self, fn, name):
        tracer = self

        @wraps(fn)
        def counted(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    # ------------------------------------------------------ (un)install

    def install(self):
        """Wrap every binding of every traced function and method."""
        for mod, fname in SPANS + COUNTED_FUNCS:
            home = importlib.import_module(f"curveint.{mod}")
            orig = getattr(home, fname)
            make = self._counter if (mod, fname) in COUNTED_FUNCS \
                else self._span
            self._wrapped[id(orig)] = make(orig, f"{mod}.{fname}")
            self.originals.append(orig)
        for module in curveint_modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrapped.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        fields = importlib.import_module("curveint.fields")
        for cls_name, methods, counter in COUNTED_METHODS:
            cls = getattr(fields, cls_name)
            orig = cls.__dict__[methods[0]]
            wrapper = self._counter(orig, counter)
            self.originals.append(orig)
            for meth in methods:
                if cls.__dict__[meth] is not orig:
                    raise RuntimeError(f"{cls_name}.{meth} is not an alias "
                                       f"of {methods[0]}")
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, wrapper)

    @property
    def patched(self):
        """The (owner, attribute) pairs that hold a wrapper."""
        return [(owner, attr) for owner, attr, _ in self._patched]

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
        self._wrapped.clear()
        self.originals.clear()


def curveint_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "curveint"
                                  or name.startswith("curveint."))]


def unwrapped_bindings(originals):
    """Every (owner, attribute) of the library that holds one of
    ``originals``: empty while the tracer is installed."""
    ids = {id(o) for o in originals}
    found = []
    for module in curveint_modules():
        for attr, value in vars(module).items():
            if id(value) in ids:
                found.append((module, attr))
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [(value, meth) for meth, member in vars(value).items()
                          if id(member) in ids]
    return found


def layer_metrics(jobs):
    """Per-layer metrics of one traced pass, from (record, scale) of each
    job that finished within its limit; ``scale`` turns the job's measured
    seconds into seconds at reference speed."""
    calls, self_s, failures = {}, {}, {}
    engine_s = named_s = 0.0
    for rec, scale in jobs:
        for key, val in rec["calls"].items():
            calls[key] = calls.get(key, 0) + val
        for key, val in rec["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + val * scale
        for key, val in rec["failures"].items():
            failures[key] = failures.get(key, 0) + val
        engine_s += rec["engine_s"] * scale
        named_s += rec["in_engine_named_s"] * scale
    out = {}
    for mod, fname in SPANS:
        name = f"{mod}.{fname}"
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out[f"{name}.failures"] = (failures.get(name, 0), "count")
    attempts = sum(calls.get(n, 0) for n in CERTIFY)
    certified = attempts - sum(failures.get(n, 0) for n in CERTIFY)
    out["deformation.certify_ratio"] = (
        certified / attempts if attempts else 1.0, "ratio")
    counters = [f"{m}.{f}" for m, f in COUNTED_FUNCS]
    for name in counters + [c for _, _, c in COUNTED_METHODS]:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    out["trace.coverage"] = (named_s / engine_s if engine_s else 1.0, "ratio")
    return out
