"""Spans and counters recorded from outside the program.

The tracer replaces public functions of the ``tpcert`` modules with
wrappers that open a span around each call, and wraps the arithmetic
methods of ``Poly`` with counters.  It is installed only in traced passes,
after set-up, and nothing in ``tpcert`` knows about it.  Spans are kept in
memory and handed back when the pass ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Public functions wrapped in a span, as (module, attribute, span name).
# ``s_expand`` and ``j_expand`` share one span name so that an S-fraction
# expansion, which goes through ``j_expand``, is counted once.
FUNCTION_SPANS = (
    ("tpcert.triangles", "build_triangle", "triangles.build"),
    ("tpcert.contfrac", "cf_match", "contfrac.cf_match"),
    ("tpcert.contfrac", "s_expand", "contfrac.expand"),
    ("tpcert.contfrac", "j_expand", "contfrac.expand"),
    ("tpcert.totalpos", "is_totally_positive", "totalpos.tp"),
    ("tpcert.totalpos", "check_k_log_convex", "totalpos.lcx"),
    ("tpcert.cli", "load_plan", "cli.load_plan"),
    ("tpcert.cli", "emit_report", "cli.emit_report"),
)

# Sums and maxima kept by the ``Poly`` wrappers.  A product counts towards
# ``multi_term_muls`` and ``term_products`` only when both operands have at
# least two terms; ``Poly.__mul__`` shifts and scales in every other case.
SUM_COUNTERS = (
    "mul_calls", "mul_s", "multi_term_muls", "term_products",
    "addsub_calls", "addsub_s", "exact_div_calls", "exact_div_s",
)
MAX_COUNTERS = ("max_operand_small_terms", "max_operand_large_terms", "max_result_terms")


def new_counters() -> dict:
    return dict.fromkeys(SUM_COUNTERS + MAX_COUNTERS, 0)


def merge_counters(into: dict, part: dict) -> None:
    for key in SUM_COUNTERS:
        into[key] += part[key]
    if part["max_operand_small_terms"] * part["max_operand_large_terms"] > (
        into["max_operand_small_terms"] * into["max_operand_large_terms"]
    ):
        into["max_operand_small_terms"] = part["max_operand_small_terms"]
        into["max_operand_large_terms"] = part["max_operand_large_terms"]
    into["max_result_terms"] = max(into["max_result_terms"], part["max_result_terms"])


class Tracer:
    """In-memory spans for one pass, plus ``Poly`` arithmetic counters."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counters = new_counters()
        self.poly_s = 0.0  # time inside outermost Poly operations so far
        self._in_poly = False
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; ``attrs`` are stored with it."""
        rec = {
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "start": time.perf_counter() - self.origin,
            **attrs,
        }
        self.spans.append(rec)
        self.stack.append(rec)
        poly_before = self.poly_s
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.origin
            rec["poly_s"] = self.poly_s - poly_before
            self.stack.pop()

    @contextmanager
    def item(self, name: str):
        """Span for one workload item; it also keeps the item's own counters."""
        outer = self.counters
        self.counters = new_counters()
        try:
            with self.span("item", item=name) as rec:
                yield rec
        finally:
            rec["counters"] = self.counters
            merge_counters(outer, self.counters)
            self.counters = outer

    def _spanned(self, fn, name: str, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            # a call made inside a span of the same name is part of it
            if any(rec["name"] == name for rec in tracer.stack):
                return fn(*args, **kwargs)
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, result)
                return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every ``tpcert`` module name bound to ``original`` at
        ``replacement``, so calls made through re-exports are traced too."""
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("tpcert"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _replace_attr(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from tpcert import cli, polyring, triangles

        def count_minors(rec, report):
            rec["minors_checked"] = report.minors_checked

        for modname, attr, name in FUNCTION_SPANS:
            original = getattr(sys.modules[modname], attr)
            on_result = count_minors if name == "totalpos.tp" else None
            self._replace_everywhere(original, self._spanned(original, name, on_result))
        self._replace_attr(
            triangles.Triangle, "row_gfs",
            self._spanned(triangles.Triangle.row_gfs, "triangles.row_gfs"),
        )
        for key, fn in list(cli.ORACLES.items()):
            spanned = self._spanned(fn, "oracles.enumerate")
            self._restore.append((cli.ORACLES, key, fn))
            cli.ORACLES[key] = spanned
        self._install_poly_counters(polyring.Poly)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def _install_poly_counters(self, poly_cls) -> None:
        tracer = self
        clock = time.perf_counter

        def counted(fn, calls_key, time_key, on_call=None):
            def wrapper(a, b, *rest):
                # Poly operations that call other Poly operations count once
                if tracer._in_poly:
                    return fn(a, b, *rest)
                tracer._in_poly = True
                t0 = clock()
                try:
                    result = fn(a, b, *rest)
                finally:
                    dt = clock() - t0
                    tracer._in_poly = False
                    tracer.poly_s += dt
                c = tracer.counters
                c[calls_key] += 1
                c[time_key] += dt
                if on_call is not None:
                    on_call(c, a, b)
                if isinstance(result, poly_cls) and len(result.terms) > c["max_result_terms"]:
                    c["max_result_terms"] = len(result.terms)
                return result

            return wrapper

        def on_mul(c, a, b):
            if not isinstance(b, poly_cls):
                return
            la, lb = len(a.terms), len(b.terms)
            if la < 2 or lb < 2:
                return
            c["multi_term_muls"] += 1
            c["term_products"] += la * lb
            if la * lb > c["max_operand_small_terms"] * c["max_operand_large_terms"]:
                c["max_operand_small_terms"] = min(la, lb)
                c["max_operand_large_terms"] = max(la, lb)

        for attr in ("__mul__", "__rmul__"):
            fn = getattr(poly_cls, attr)
            self._replace_attr(poly_cls, attr, counted(fn, "mul_calls", "mul_s", on_mul))
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            fn = getattr(poly_cls, attr)
            self._replace_attr(poly_cls, attr, counted(fn, "addsub_calls", "addsub_s"))
        fn = poly_cls.exact_div
        self._replace_attr(poly_cls, "exact_div", counted(fn, "exact_div_calls", "exact_div_s"))

    # -- per-layer metrics ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer totals of this pass, keyed by metric name."""
        names = {name for _, _, name in FUNCTION_SPANS}
        total = dict.fromkeys(names | {"triangles.row_gfs", "oracles.enumerate"}, 0.0)
        totalpos_self = 0.0
        minors = 0
        oracle_calls = 0
        for rec in self.spans:
            name = rec["name"]
            if name not in total:
                continue
            dur = rec["end"] - rec["start"]
            total[name] += dur
            if name.startswith("totalpos."):
                totalpos_self += dur - rec["poly_s"]
            minors += rec.get("minors_checked", 0)
            oracle_calls += name == "oracles.enumerate"
        c = self.counters
        tp_s = total["totalpos.tp"]
        return {
            "polyring.mul_calls": c["mul_calls"],
            "polyring.mul_s": c["mul_s"],
            "polyring.multi_term_muls": c["multi_term_muls"],
            "polyring.term_products": c["term_products"],
            "polyring.max_operand_small_terms": c["max_operand_small_terms"],
            "polyring.max_operand_large_terms": c["max_operand_large_terms"],
            "polyring.max_result_terms": c["max_result_terms"],
            "polyring.addsub_calls": c["addsub_calls"],
            "polyring.addsub_s": c["addsub_s"],
            "polyring.exact_div_calls": c["exact_div_calls"],
            "polyring.exact_div_s": c["exact_div_s"],
            "totalpos.tp_s": tp_s,
            "totalpos.minors_checked": minors,
            "totalpos.minors_per_s": minors / tp_s if tp_s else 0.0,
            "totalpos.lcx_s": total["totalpos.lcx"],
            "totalpos.self_s": totalpos_self,
            "contfrac.cf_match_s": total["contfrac.cf_match"],
            "contfrac.expand_s": total["contfrac.expand"],
            "triangles.build_s": total["triangles.build"],
            "triangles.row_gfs_s": total["triangles.row_gfs"],
            "oracles.enumerate_s": total["oracles.enumerate"],
            "oracles.calls": oracle_calls,
            "cli.load_plan_s": total["cli.load_plan"],
            "cli.emit_report_s": total["cli.emit_report"],
        }
