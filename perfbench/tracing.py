"""Outside-in tracing of the ``permlat`` layers.

The tracer wraps public functions of the library modules and records one span
(name, start, end, parent, job id) per call. Each wrapped name is patched in
every ``permlat`` module that holds it, so calls made inside the package are
seen too. ``FiniteGroup.closure_mask`` and ``product_mask`` run tens of
thousands of times per job; they are counted and timed into the enclosing span
instead of getting spans of their own.

A span's self time is its duration minus the durations of its child spans and
minus the ``closure_mask``/``product_mask`` time counted into it, so that
``lattice.enumerate_s`` (and every other self time) is the function's own
bookkeeping, net of the closures that ``groups.closure_s`` reports. Self times
of distinct spans never overlap, so together with the counted times they add
up to at most the traced time of the jobs. Per-layer metrics are derived from the spans of one pass (one job per base
group) by :func:`layer_metrics`.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Callable, Optional

clock = time.perf_counter

# (module, attribute) of every function or method that gets a span.
SPANNED = (
    ("groups", "make_named"),
    ("groups", "FiniteGroup.from_table"),
    ("lattice", "enumerate_subgroups"),
    ("lattice", "SubgroupLattice.__init__"),
    ("lattice", "SubgroupLattice.chi_rows"),
    ("lattice", "SubgroupLattice.rerooted"),
    ("lattice", "is_modular_lattice"),
    ("lattice", "normal_subgroups"),
    ("lattice", "subnormal_subgroups"),
    ("lattice", "maximal_subgroups"),
    ("lattice", "sylow_subgroups"),
    ("degrees", "build_degree_report"),
    ("degrees", "element_commutativity_degree"),
    ("bounds", "sweep_factorization_bounds"),
    ("bounds", "sweep_rank2_bounds"),
    ("bounds", "fitting_centralizer_check"),
    ("moebius", "moebius_table"),
    ("moebius", "mu_matching_bound_check"),
    ("cache", "load_lattice"),
    ("cache", "store_lattice"),
)

# Hot methods that are counted and timed into the enclosing span.
COUNTED = (
    ("groups", "FiniteGroup.closure_mask", "closure"),
    ("groups", "FiniteGroup.product_mask", "product_mask"),
)

BOUND_SPANS = frozenset({
    "bounds.sweep_factorization_bounds", "bounds.sweep_rank2_bounds",
    "bounds.fitting_centralizer_check", "moebius.mu_matching_bound_check",
})

# name, unit, better: every per-layer metric, in report order.
LAYER_METRICS = (
    ("groups.build_s", "s", "lower"),
    ("groups.closure_calls", "count", "lower"),
    ("groups.closure_s", "s", "lower"),
    ("groups.product_mask_calls", "count", "lower"),
    ("groups.product_mask_s", "s", "lower"),
    ("lattice.enumerate_s", "s", "lower"),
    ("lattice.enumerate_calls", "count", "lower"),
    ("lattice.nodes_enumerated", "count", "lower"),
    ("lattice.enumerate_closures", "count", "lower"),
    ("lattice.closure_yield", "ratio", "higher"),
    ("lattice.init_s", "s", "lower"),
    ("lattice.chi_rows_s", "s", "lower"),
    ("lattice.modular_s", "s", "lower"),
    ("lattice.normal_s", "s", "lower"),
    ("lattice.subnormal_s", "s", "lower"),
    ("lattice.maximal_s", "s", "lower"),
    ("lattice.sylow_s", "s", "lower"),
    ("lattice.rerooted_calls", "count", "lower"),
    ("degrees.report_s", "s", "lower"),
    ("degrees.d_s", "s", "lower"),
    ("bounds.factorization_s", "s", "lower"),
    ("bounds.rank2_s", "s", "lower"),
    ("bounds.fitting_s", "s", "lower"),
    ("bounds.instances", "count", "higher"),
    ("bounds.qualifying", "count", "higher"),
    ("bounds.qualifying_ratio", "ratio", "higher"),
    ("bounds.child_enumerations", "count", "lower"),
    ("moebius.table_s", "s", "lower"),
    ("cache.load_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.bytes_read", "bytes", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.store_s", "s", "lower"),
    ("cache.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_floor_s", "s", "lower"),
)

# metric -> (span name, "self" or "incl"): summed span times. "self" is net of
# child spans and of counted closure_mask/product_mask time.
TIME_METRICS = {
    "lattice.enumerate_s": ("lattice.enumerate_subgroups", "self"),
    "lattice.init_s": ("lattice.SubgroupLattice.__init__", "incl"),
    "lattice.chi_rows_s": ("lattice.SubgroupLattice.chi_rows", "incl"),
    "lattice.modular_s": ("lattice.is_modular_lattice", "incl"),
    "lattice.normal_s": ("lattice.normal_subgroups", "self"),
    "lattice.subnormal_s": ("lattice.subnormal_subgroups", "self"),
    "lattice.maximal_s": ("lattice.maximal_subgroups", "self"),
    "lattice.sylow_s": ("lattice.sylow_subgroups", "self"),
    "degrees.report_s": ("degrees.build_degree_report", "self"),
    "degrees.d_s": ("degrees.element_commutativity_degree", "incl"),
    "bounds.factorization_s": ("bounds.sweep_factorization_bounds", "incl"),
    "bounds.rank2_s": ("bounds.sweep_rank2_bounds", "incl"),
    "bounds.fitting_s": ("bounds.fitting_centralizer_check", "incl"),
    "moebius.table_s": ("moebius.moebius_table", "incl"),
    "cache.load_s": ("cache.load_lattice", "self"),
    "cache.store_s": ("cache.store_lattice", "incl"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "value", "counted")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.value = None    # what a hook read off the call's result
        self.counted = None  # {"closure": [calls, seconds], ...}

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.job,
                self.value, self.counted]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Spans kept in memory; :meth:`install` patches a freshly imported
    ``permlat``, :meth:`uninstall` restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, job) -> None:
        """Open a root span; every span until :meth:`end` belongs to ``job``."""
        self.job = job
        self.stack.append(len(self.spans))
        self.spans.append(Span(name, clock(), -1, job))

    def end(self) -> None:
        self.spans[self.stack.pop()].end = clock()
        self.job = None

    def _spanned(self, name: str, fn: Callable, hook: Optional[Callable]):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), stack[-1] if stack else -1, self.job)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if hook is not None:
                span.value = hook(args, result)
            return result
        return traced

    def _counted(self, key: str, fn: Callable):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            if stack:
                span = spans[stack[-1]]
                if span.counted is None:
                    span.counted = {}
                entry = span.counted.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] += dt
            return result
        return counted

    # -- patching -----------------------------------------------------------

    def install(self, lib) -> None:
        cache_mod = lib.cache
        hooks = {
            "lattice.enumerate_subgroups": lambda args, lat: len(lat),
            "cache.load_lattice": lambda args, lat: [
                lat is not None,
                _file_size(cache_mod.cache_path(args[0], args[1]))],
            "cache.store_lattice": lambda args, path: _file_size(path),
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "permlat" or name.startswith("permlat."))]
        for mod_name, attr in SPANNED:
            name = f"{mod_name}.{attr}"
            self._patch(getattr(lib, mod_name), attr, modules,
                        lambda fn, n=name: self._spanned(n, fn, hooks.get(n)))
        for mod_name, attr, key in COUNTED:
            self._patch(getattr(lib, mod_name), attr, modules,
                        lambda fn, k=key: self._counted(k, fn))

    def _patch(self, module, attr: str, modules, make_wrapper) -> None:
        if "." in attr:  # a method: patch the class attribute itself
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            setattr(cls, meth, new)
            self._patched.append((cls, meth, raw))
            return
        original = getattr(module, attr)
        wrapped = make_wrapper(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job",
                                  "value", "counted"],
                       "spans": [s.as_list() for s in self.spans]}, fh)


# -- per-layer metrics --------------------------------------------------------

def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], jobs: set, job_answers: list[dict]) -> dict:
    """Per-layer times and counts over the spans of ``jobs``.

    ``job_answers`` are the answers of those jobs; bound-instance counts are
    read off them. ``groups.build_s`` and the ``trace.`` metrics come from
    other phases and are filled in by the caller.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    totals: dict[str, float] = {}
    counts = {"closure": [0, 0.0], "product_mask": [0, 0.0]}
    by_name: dict[str, int] = {}
    nodes = enum_closures = child_enums = hits = misses = 0
    bytes_read = bytes_written = 0
    for idx, s in enumerate(spans):
        if s.job not in jobs:
            continue
        dur = s.end - s.start
        own = dur - child[idx]
        for key, (calls, secs) in (s.counted or {}).items():
            counts[key][0] += calls
            counts[key][1] += secs
            own -= secs
        totals[s.name, "incl"] = totals.get((s.name, "incl"), 0.0) + dur
        totals[s.name, "self"] = totals.get((s.name, "self"), 0.0) + own
        by_name[s.name] = by_name.get(s.name, 0) + 1
        if s.name == "lattice.enumerate_subgroups":
            nodes += s.value or 0  # None when the call raised
            enum_closures += (s.counted or {}).get("closure", [0])[0]
            p = s.parent
            while p >= 0 and spans[p].name not in BOUND_SPANS:
                p = spans[p].parent
            child_enums += p >= 0
        elif s.name == "cache.load_lattice" and s.value is not None:
            hits += s.value[0]
            misses += not s.value[0]
            bytes_read += s.value[1]
        elif s.name == "cache.store_lattice":
            bytes_written += s.value or 0
    instances = sum(a.get("instances", 0) for a in job_answers)
    qualifying = sum(a.get("qualifying", 0) for a in job_answers)
    out = {
        "groups.closure_calls": counts["closure"][0],
        "groups.closure_s": counts["closure"][1],
        "groups.product_mask_calls": counts["product_mask"][0],
        "groups.product_mask_s": counts["product_mask"][1],
        "lattice.enumerate_calls": by_name.get("lattice.enumerate_subgroups", 0),
        "lattice.nodes_enumerated": nodes,
        "lattice.enumerate_closures": enum_closures,
        "lattice.closure_yield": _ratio(nodes, enum_closures),
        "lattice.rerooted_calls": by_name.get("lattice.SubgroupLattice.rerooted", 0),
        "bounds.instances": instances,
        "bounds.qualifying": qualifying,
        "bounds.qualifying_ratio": _ratio(qualifying, instances),
        "bounds.child_enumerations": child_enums,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.bytes_read": bytes_read,
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "cache.bytes_written": bytes_written,
    }
    for metric, (span_name, kind) in TIME_METRICS.items():
        out[metric] = totals.get((span_name, kind), 0.0)
    return out


def build_seconds(spans: list[Span], job) -> float:
    """Time spent building and ingesting groups in the root span ``job``."""
    return sum(s.end - s.start for s in spans
               if s.job == job and s.name in ("groups.make_named",
                                              "groups.FiniteGroup.from_table"))
