"""Spans and counters that time the library's layers from outside.

A ``Tracer`` wraps library callables at the module attributes and class
slots their callers look up, records one span per call of a traced layer
and puts every original back on ``uninstall``.  Nothing under ``src/`` is
edited, and a process that installs no tracer runs the library untouched.

A span is a list ``[name, start, end, parent, request]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``request`` the id of the
workload request that was being served.  Spans stay in memory until
``write_spans``.  The tracer's own bookkeeping (the ``observe`` hooks that
count terms and coefficients) runs in a ``trace.observe`` span under the
caller, so no layer's self time includes it.  Very hot calls (the scalar
Laurent multiply, ~0.7 M calls in the genus-3 job) are only counted: their
time, and the cost of counting them, stays in the self time of the span
that made them (see README.md for that cost).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

NAME, START, END, PARENT, REQUEST = range(5)

#: the span of an observe hook: tracer bookkeeping, subtracted from its parent
OBSERVE = "trace.observe"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._seen: dict[str, set] = {}
        self.cache_base: dict = {}
        self.tallies: dict[str, list] = {}

    # -- wrappers ------------------------------------------------------

    def span(self, fn, name, observe=None):
        """Wrap fn so every call records a span; observe(args, result) runs after it closes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if observe is not None:
                self.observe(observe, args, result)
            return result

        return wrapper

    def count(self, fn, name, observe=None):
        """Wrap fn so every call only increments ``<name>.calls``."""
        counts, key = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                self.observe(observe, args, result)
            return result

        return wrapper

    def count_binary(self, fn, name):
        """``count`` for a hot binary operator: two positional arguments, no hook,
        and a list cell instead of the Counter, which costs four times as much."""
        tally = self.tallies.setdefault(name + ".calls", [0])

        @functools.wraps(fn)
        def wrapper(a, b):
            tally[0] += 1
            return fn(a, b)

        return wrapper

    def observe(self, hook, args, result):
        """Run hook(args, result) in a ``trace.observe`` span under the current span."""
        stack, clock = self._stack, time.perf_counter
        rec = [OBSERVE, clock(), None, stack[-1] if stack else -1, self.request]
        self.spans.append(rec)
        hook(args, result)
        rec[END] = clock()

    def first_call(self, name, key) -> bool:
        """True the first time key is seen under name (a cache miss in a fresh process)."""
        seen = self._seen.setdefault(name, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr, wrapper, aliases=()):
        """Replace a method and every alias bound to the same function (``__rmul__ = __mul__``)."""
        original = cls.__dict__[attr]
        self.patch(cls, attr, wrapper)
        for alias in aliases:
            if cls.__dict__.get(alias) is original:
                self.patch(cls, alias, wrapper)

    def patch_function(self, original, wrapper, modules):
        """Replace original at every module attribute in modules that is bound to it."""
        hits = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{original!r} is bound in none of the given modules")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- span arithmetic ---------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def exclusive_time(spans, name, subtract=None) -> float:
    """Sum over spans called name of duration minus the time its direct children cover.

    With subtract=None every direct child is subtracted (the self time);
    otherwise only children whose name is in subtract.
    """
    children: dict[int, list] = {}
    for s in spans:
        parent = s[PARENT]
        if parent >= 0 and spans[parent][NAME] == name and (
            subtract is None or s[NAME] in subtract
        ):
            children.setdefault(parent, []).append((s[START], s[END]))
    total = 0.0
    for i, s in enumerate(spans):
        if s[NAME] == name:
            total += s[END] - s[START] - _covered(children.get(i, ()), s[START], s[END])
    return total


def inclusive_time(spans, name, exclude=None) -> float:
    """Total duration of spans called name, not counting one nested in another of that name.

    Spans called exclude that lie inside them are taken off.
    """
    total = 0.0
    for s in spans:
        if s[NAME] != name and s[NAME] != exclude:
            continue
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if s[NAME] == name and parent < 0:
            total += s[END] - s[START]
        elif s[NAME] == exclude and parent >= 0:
            total -= s[END] - s[START]
    return total


def write_spans(spans, path):
    """Write spans as JSON: one name table and [name index, start, end, parent, request] rows."""
    names = sorted({s[NAME] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[REQUEST]] for s in spans]
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request"], "names": names, "spans": rows}, fh)


# -- the library's layers ------------------------------------------------

#: per-layer metrics of a traced run: name -> unit, in report order
PER_LAYER = {
    "algebra.xpoly_mul.calls": "count",
    "algebra.xpoly_mul.s": "s",
    "algebra.xpoly_mul.term_pairs": "count",
    "algebra.xpoly_mul.merge_ratio": "ratio",
    "algebra.laurent_mul.calls": "count",
    "algebra.laurent_div_exact.calls": "count",
    "algebra.laurent_div_exact.s": "s",
    "algebra.xpoly_div_exact.s": "s",
    "algebra.vseries_mul.s": "s",
    "algebra.xpoly_substitute.s": "s",
    "algebra.vseries_recip.s": "s",
    "algebra.fraction_coeff_share": "ratio",
    "algebra.coeff_max_bits": "bits",
    "spherical.omega_hl.calls": "count",
    "spherical.omega_hl.misses": "count",
    "spherical.omega_hl.hit_ratio": "ratio",
    "spherical.omega_hl.s": "s",
    "spherical.omega_cosets.s": "s",
    "spherical.coset_buckets.misses": "count",
    "spherical.coset_buckets.hit_ratio": "ratio",
    "spherical.coset_candidates": "count",
    "series.r_series.s": "s",
    "series.product_tail.s": "s",
    "series.tail_coeffs_checked": "count",
    "series.solve.s": "s",
    "series.solve.unknowns": "count",
    "series.solve.rows": "count",
    "series.hecke_image.calls": "count",
    "series.hecke_image.s": "s",
    "symmetric.to_msym.calls": "count",
    "symmetric.to_msym.s": "s",
    "render.s": "s",
    "render.bytes": "B",
    "cli.run.s": "s",
    "trace.overhead_s": "s",
}

#: per-layer metrics that are times and so vary run to run; every other one is
#: a deterministic count or a ratio of counts
TIMED = {name for name, unit in PER_LAYER.items() if unit == "s" and name != "trace.overhead_s"}

#: the span whose inclusive time should cover most of each workload's wall time
DOMINANT = {
    "genus3-cli": "series.p_numerator",
    "coset-oracle": "spherical.omega_cosets",
    "hecke-solve": "series.express_in_generators",
    "ring-rational": "algebra.xpoly_mul",
}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of an imported heckeseries package."""
    from heckeseries import algebra, cli, series, spherical, symmetric

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "heckeseries"]
    counts = tracer.counts
    # cache statistics count from here on: a job's untimed preparation may fill caches
    tracer.cache_base = {
        "omega_hl": spherical.omega_hl.cache_info(),
        "coset_buckets": spherical._coset_buckets.cache_info(),
    }

    def xpoly_mul(args, result):
        a, b = args
        if not isinstance(result, algebra.XPoly):
            return
        if isinstance(b, algebra.XPoly):
            counts["algebra.xpoly_mul.term_pairs"] += len(a.terms) * len(b.terms)
            counts["xpoly_mul.out_terms"] += len(result.terms)
        coeffs = fractions = 0
        bits = counts["algebra.coeff_max_bits"]
        for laurent in result.terms.values():
            for c in laurent.terms.values():
                coeffs += 1
                if c.denominator != 1:
                    fractions += 1
                    bits = max(bits, c.denominator.bit_length())
                bits = max(bits, c.numerator.bit_length())
        counts["coeffs"] += coeffs
        counts["fraction_coeffs"] += fractions
        counts["algebra.coeff_max_bits"] = bits

    def coset_buckets(args, result):
        if tracer.first_call("coset_buckets", args):
            counts["spherical.coset_candidates"] += sum(
                sum(per_d.values()) for per_d in result.values()
            )

    def p_numerator(args, result):
        if tracer.first_call("p_numerator", args):
            counts["series.tail_coeffs_checked"] += args[1] - result.order

    def solve(args, result):
        counts["series.solve.rows"] += len(args[0])
        counts["series.solve.unknowns"] += args[1]

    def emitted(args, result):
        # cli._emit(text, out_path) writes or prints text plus a newline
        counts["render.bytes"] += len(args[0].encode()) + 1

    span, count = tracer.span, tracer.count
    for cls, attr, name, observe in (
        (algebra.XPoly, "__mul__", "algebra.xpoly_mul", xpoly_mul),
        (algebra.XPoly, "div_exact", "algebra.xpoly_div_exact", None),
        (algebra.XPoly, "substitute", "algebra.xpoly_substitute", None),
        (algebra.PrimeLaurent, "div_exact", "algebra.laurent_div_exact", None),
        (algebra.VSeries, "__mul__", "algebra.vseries_mul", None),
        (algebra.VSeries, "recip", "algebra.vseries_recip", None),
    ):
        tracer.patch_method(cls, attr, span(cls.__dict__[attr], name, observe), ("__rmul__",))
    laurent_mul = algebra.PrimeLaurent.__dict__["__mul__"]
    tracer.patch_method(
        algebra.PrimeLaurent,
        "__mul__",
        tracer.count_binary(laurent_mul, "algebra.laurent_mul"),
        ("__rmul__",),
    )

    for fn, wrapper in (
        (spherical.omega_hl, span(spherical.omega_hl, "spherical.omega_hl")),
        (spherical.omega_cosets, span(spherical.omega_cosets, "spherical.omega_cosets")),
        (spherical._coset_buckets, count(spherical._coset_buckets, "spherical.coset_buckets", coset_buckets)),
        (series.r_series, span(series.r_series, "series.r_series")),
        (series.q_poly, span(series.q_poly, "series.q_poly")),
        (series.p_numerator, span(series.p_numerator, "series.p_numerator", p_numerator)),
        (series._solve_fraction_free, span(series._solve_fraction_free, "series.solve", solve)),
        (series.hecke_image, span(series.hecke_image, "series.hecke_image")),
        (series.express_in_generators, span(series.express_in_generators, "series.express_in_generators")),
        (symmetric.to_msym, span(symmetric.to_msym, "symmetric.to_msym")),
        (cli.run, span(cli.run, "cli.run")),
    ):
        tracer.patch_function(fn, wrapper, modules)
    # The render layer is every step from a result to the bytes written, in
    # every format: the CLI's text and JSON renderers, the to_json methods and
    # json.dumps that cli.run calls inline for theorem1, theorem2 and special,
    # and _emit, which writes the output.  Nested render spans count once.
    for attr in ("_render_xpoly", "_render_series", "hecke_series_text"):
        fn = getattr(cli, attr)
        tracer.patch_function(fn, span(fn, "render"), [cli])
    tracer.patch_function(cli._emit, span(cli._emit, "render", emitted), [cli])
    for cls in (algebra.XPoly, algebra.VSeries, series.HeckeExpr, series.QCoefficients):
        tracer.patch_method(cls, "to_json", span(cls.__dict__["to_json"], "render"))
    tracer.patch(cli, "json", types.SimpleNamespace(dumps=span(json.dumps, "render")))


def dominant_share(tracer: Tracer, workload: str, wall_s: float) -> float:
    """Inclusive time of the workload's dominant span as a share of the traced
    wall time, both without the time of the observe hooks."""
    spans = tracer.spans
    hooks = sum(s[END] - s[START] for s in spans if s[NAME] == OBSERVE)
    return inclusive_time(spans, DOMINANT[workload], OBSERVE) / (wall_s - hooks)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced child, keyed like PER_LAYER (without the overhead).

    Call after ``uninstall``: the cache statistics are read from the originals.
    """
    from heckeseries import spherical

    spans, counts = tracer.spans, tracer.counts

    def calls(name):
        return sum(1 for s in spans if s[NAME] == name)

    def ratio(num, den):
        return num / den if den else 0.0

    def since_install(name, fn):
        now, base = fn.cache_info(), tracer.cache_base[name]
        return now.hits - base.hits, now.misses - base.misses

    hl_hits, hl_misses = since_install("omega_hl", spherical.omega_hl)
    bucket_hits, bucket_misses = since_install("coset_buckets", spherical._coset_buckets)
    out = {
        "algebra.xpoly_mul.calls": calls("algebra.xpoly_mul"),
        "algebra.xpoly_mul.term_pairs": counts["algebra.xpoly_mul.term_pairs"],
        "algebra.xpoly_mul.merge_ratio": ratio(
            counts["xpoly_mul.out_terms"], counts["algebra.xpoly_mul.term_pairs"]
        ),
        "algebra.laurent_mul.calls": tracer.tallies["algebra.laurent_mul.calls"][0],
        "algebra.laurent_div_exact.calls": calls("algebra.laurent_div_exact"),
        "algebra.fraction_coeff_share": ratio(counts["fraction_coeffs"], counts["coeffs"]),
        "algebra.coeff_max_bits": counts["algebra.coeff_max_bits"],
        "spherical.omega_hl.calls": hl_hits + hl_misses,
        "spherical.omega_hl.misses": hl_misses,
        "spherical.omega_hl.hit_ratio": ratio(hl_hits, hl_hits + hl_misses),
        "spherical.coset_buckets.misses": bucket_misses,
        "spherical.coset_buckets.hit_ratio": ratio(bucket_hits, bucket_hits + bucket_misses),
        "spherical.coset_candidates": counts["spherical.coset_candidates"],
        "series.product_tail.s": exclusive_time(
            spans, "series.p_numerator", {"series.r_series", "series.q_poly", OBSERVE}
        ),
        "series.tail_coeffs_checked": counts["series.tail_coeffs_checked"],
        "series.solve.unknowns": counts["series.solve.unknowns"],
        "series.solve.rows": counts["series.solve.rows"],
        "series.hecke_image.calls": calls("series.hecke_image"),
        "symmetric.to_msym.calls": calls("symmetric.to_msym"),
        "render.bytes": counts["render.bytes"],
    }
    for metric in PER_LAYER:
        if metric.endswith(".s") and metric not in out:
            out[metric] = exclusive_time(spans, metric[: -len(".s")])
    return out
