"""Span tracer that wraps singulant's layer functions from outside.

The tracer edits no file of the package.  ``install`` replaces each traced
function by a wrapper in every ``singulant`` module that holds it:
``from .groebner import buchberger`` leaves a second binding of the same
function object in ``ideal_ops``, ``resolve`` and ``homalg``, and patching
only ``groebner`` would miss the calls made through those names.  Methods
are replaced on their class, which every alias of the class shares.

Each call records a span ``[name, start, end, parent, op, child_time]`` in
memory; ``uninstall`` restores the original bindings.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, qualified name) of every traced function, by layer
TRACED = (
    ("cli", "main"),
    ("report", "build_report"),
    ("report", "annihilator_bounds"),
    ("report", "radical_comparison_report"),
    ("report", "generation_time_bound"),
    ("homalg", "ca_witness"),
    ("homalg", "ext_module"),
    ("homalg", "module_annihilator"),
    ("resolve", "free_resolution"),
    ("resolve", "minimal_presentation"),
    ("resolve", "syzygy_module"),
    ("resolve", "trim_generators"),
    ("jacobian", "singular_locus_certificate"),
    ("ideal_ops", "socle"),
    ("ideal_ops", "radical_membership"),
    ("ideal_ops", "intersection"),
    ("ideal_ops", "IdealHandle.contains"),
    ("groebner", "buchberger"),
    ("groebner", "syzygies"),
    ("groebner", "normal_form"),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)

COUNTERS = (
    "groebner.basis_out.max",
    "groebner.rank_in.max",
    "poly.polynomials_built",
    "errors.meters",
    "errors.steps",
    "errors.budget_exceeded",
    "report.candidates",
    "report.decided_ratio",
)

_NAME, _START, _END, _PARENT, _OP, _CHILD = range(6)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "singulant" or name.startswith("singulant."))]


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []
        self._active = Counter()
        self._outermost = []
        self._restore = []
        self._meters = []
        self.counts = Counter()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, active, outermost = (
            self.spans, self._stack, self._active, self._outermost)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, self.op, 0.0]
            spans.append(span)
            outermost.append(active[name] == 0)
            active[name] += 1
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                active[name] -= 1
                span[_END] = clock()
                if span[_PARENT] >= 0:
                    spans[span[_PARENT]][_CHILD] += span[_END] - span[_START]
            if after is not None:
                after(result)
            return result

        return functools.wraps(fn)(traced)

    def summary(self):
        """calls, busy_s (outermost spans only) and self_s per span name."""
        out = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
        for span, outer in zip(self.spans, self._outermost):
            row = out[span[_NAME]]
            dur = span[_END] - span[_START]
            row["calls"] += 1
            row["self_s"] += dur - span[_CHILD]
            if outer:
                row["busy_s"] += dur
        return out

    def end_op(self):
        """Fold the steps of the Meters built during the op into the count."""
        self.counts["errors.steps"] += sum(m.steps for m in self._meters)
        self._meters.clear()

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every module-level alias of ``original`` at ``replacement``."""
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def _patch_attr(self, owner, attr, replacement):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _maximum(self, key, value):
        if value > self.counts[key]:
            self.counts[key] = value

    def _after_bounds(self, bounds):
        excluded = {repr(e.element) for e in bounds.exclusions}
        decided = len(bounds.certificates) + len(excluded)
        self.counts["report.candidates"] += decided + len(bounds.inconclusive)
        self.counts["report.decided"] += decided

    def install(self, package):
        """Wrap every traced function and counter hook in ``package``."""
        for mod_name, qual in TRACED:
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            name = f"{mod_name}.{qual}"
            after = self._after_bounds if name == "report.annihilator_bounds" else None
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(name)
                    continue
                self._patch_attr(cls, meth, self._wrap(name, vars(cls)[meth], after))
                continue
            fn = getattr(mod, qual, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._rebind(fn, self._wrap(name, fn, after))

        groebner = importlib.import_module(f"{package.__name__}.groebner")
        core = getattr(groebner, "_core", None)
        if core is None:
            self.missing.append("groebner._core")
        else:
            # the inner pair loop sees the true ambient rank, witness columns
            # included, for both buchberger and syzygies; it makes no span
            def counted_core(elements, ipart, ring, rank, meter):
                basis = core(elements, ipart, ring, rank, meter)
                self._maximum("groebner.rank_in.max", rank)
                self._maximum("groebner.basis_out.max", len(basis))
                return basis
            self._rebind(core, counted_core)

        self._count_constructions(package)

    def _count_constructions(self, package):
        poly = importlib.import_module(f"{package.__name__}.poly")
        errors = importlib.import_module(f"{package.__name__}.errors")
        hooks = (
            (getattr(poly, "Polynomial", None), "poly.polynomials_built", False),
            (getattr(errors, "Meter", None), "errors.meters", True),
            (getattr(errors, "BudgetExceededError", None), "errors.budget_exceeded", False),
        )
        for cls, key, keep in hooks:
            if cls is None or "__init__" not in vars(cls):
                self.missing.append(key)
                continue
            init = vars(cls)["__init__"]

            def counted_init(obj, *args, _init=init, _key=key, _keep=keep, **kwargs):
                _init(obj, *args, **kwargs)
                self.counts[_key] += 1
                if _keep:
                    self._meters.append(obj)

            self._patch_attr(cls, "__init__", counted_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading --------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of the spans and counters recorded so far."""
        metrics = {}
        for name, row in self.summary().items():
            metrics[f"{name}.calls"] = (row["calls"], "count")
            metrics[f"{name}.busy_s"] = (row["busy_s"], "s")
            metrics[f"{name}.self_s"] = (row["self_s"], "s")
        for key in COUNTERS:
            if key == "report.decided_ratio":
                attempted = self.counts["report.candidates"]
                value = self.counts["report.decided"] / attempted if attempted else 0.0
                metrics[key] = (value, "ratio")
            else:
                metrics[key] = (self.counts[key], "count")
        return metrics

    def span_rows(self):
        """Spans as ``[name, start, end, parent, op]`` rows."""
        return [s[:_CHILD] for s in self.spans]
