"""Batch verification front end.

A verification plan is a YAML document bundling one recurrence spec with an
ordered list of checks; ``tpcert verify plan.yaml [...]`` runs the checks
and emits a machine-readable report.  Plans double as test fixtures, so the
report body is deterministic: timings live in a separate key and the JSON
is emitted with sorted keys.

``load_plan`` parses a whole plan by one field table per triangle and check
kind, and reads its golden files, so runners get parsed values and bad
input is a load error (exit 2).
Otherwise exit status is 0 iff every check of every plan passes.  An error
(as opposed to a clean fail) aborts the rest of its plan but not the batch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import oracles
from .contfrac import (
    DegenerateFraction,
    JFraction,
    SFraction,
    _levels,
    cf_match,
    check_hankel_factorization,
    contract,
)
from .polyring import Poly, VarContext, _map_polys, mpq
from .totalpos import (
    _MAX_LCX_K,
    HypothesisError,
    check_k_log_convex,
    check_tridiagonal_hypotheses,
    hankel,
    is_totally_positive,
    tridiagonal_tp_criteria,
)
from .triangles import (
    COLUMN_WALK,
    RESERVED_VARS,
    ROW_SHIFT,
    RecurrenceSpec,
    Triangle,
    _evaluate,
    _check_indices,
    _row_mismatch,
    build_triangle,
    check_companion_relation,
    check_product_formula,
    companion_spec,
    read_golden,
    triangle_convolution,
    write_golden,
)

ORACLES = {
    "perms-by-descents": oracles.perms_by_descents,
    "perms-by-cycles": oracles.perms_by_cycles,
    "set-partitions-by-blocks": oracles.set_partitions_by_blocks,
    "stirling-perms-by-ascent-plateau": oracles.stirling_perms_by_ascent_plateau,
    "matchings-by-odd-smaller": oracles.matchings_by_odd_smaller,
    "perms-by-interior-peaks": oracles.perms_by_interior_peaks,
    "perms-by-left-peaks": oracles.perms_by_left_peaks,
}
# Taken at import: callers may wrap the ORACLES entries (the benchmark's
# tracer does), and a wrapper need not carry ``limit``.
_ORACLE_LIMITS = {name: fn.limit for name, fn in ORACLES.items()}


class PlanError(ValueError):
    """Malformed plan document (bad keys, bad polynomial strings, ...)."""


@dataclass
class VerificationPlan:
    """Parsed plan: one spec, its context, and an ordered list of parsed checks."""

    name: str
    path: Path
    ctx: VarContext
    spec: RecurrenceSpec
    depth: int
    gf_var: str
    checks: list[dict]


@dataclass
class RunReport:
    """Per-plan outcome; overall status is fail iff any check failed."""

    plan: str
    status: str
    checks: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields, in order


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------


def _point(check: dict, ctx: VarContext, gf_var: str) -> dict:
    """The assignment a check evaluates the rows at: the gf-var at its
    ``eval-at``, or row-gf's ``at`` map; empty for neither."""
    if check.get("eval-at") is not None:
        return {gf_var: check["eval-at"]}
    return {v: ctx.const(r) for v, r in check.get("at", {}).items()}


class _PlanRunner:
    def __init__(self, plan: VerificationPlan, jobs: int = 1):
        self.plan = plan
        self.jobs = jobs
        self.triangle: Triangle | None = None

    def _tri(self) -> Triangle:
        if self.triangle is None:
            self.triangle = build_triangle(self.plan.spec, self.plan.depth)
        return self.triangle

    def _row_seq(self, check: dict) -> list[Poly]:
        if check["source"] == "first-column":
            return self._tri().first_column()
        return self._tri().row_gfs(self.plan.gf_var)

    # each runner takes a parsed check and returns (ok, detail-dict)

    def run_triangle_build(self, check: dict):
        t = self._tri()
        detail = {"depth": t.depth, "recurrence-residual": t.satisfies()}
        if not detail["recurrence-residual"]:
            return False, detail
        golden = check["golden"]
        if golden:
            out = check.get("golden-out")
            if out is not None:
                write_golden(t, out)
                detail["golden"] = f"regenerated {out}"
            else:
                detail["golden"] = f"compared {self.plan.path.parent / golden}"
                if check["golden-rows"] != t.rows:
                    return False, detail
        return True, detail

    def run_row_gf(self, check: dict):
        t, values = self._tri(), check["values"]
        detail = {"rows": [str(g) for g in t.row_gfs(self.plan.gf_var)]}
        point = _point(check, self.plan.ctx, self.plan.gf_var)
        bad = _row_mismatch(t, values, len(values) - 1, self.plan.gf_var, point)
        if bad is not None:
            n, got, spow = bad
            true = got.exact_div(spow)
            shown = str(true) if true is not None else f"({got}) / ({spow})"
            detail["mismatch"] = {"row": n, "got": shown, "want": str(values[n])}
        return bad is None, detail

    def run_cf_match(self, check: dict):
        ok = cf_match(self._tri(), check["fraction"], check["depth"], var=self.plan.gf_var,
                      prescaled=check["prescaled"], eval_at=check["eval-at"])
        return ok, {"depth": check["depth"]}

    def run_hankel_tp(self, check: dict):
        report = is_totally_positive(
            hankel(self._row_seq(check), check["size"]), check["order"], jobs=self.jobs
        )
        return report.ok, report.to_dict()

    def run_k_lcx(self, check: dict):
        report = check_k_log_convex(self._row_seq(check), check["k"])
        return report.ok, report.to_dict()

    def run_product_formula(self, check: dict):
        ok = check_product_formula(self._tri(), check["factor"], check["upto"],
                                   var=self.plan.gf_var, eval_at=check["eval-at"])
        return ok, {"upto": check["upto"]}

    def run_companion_relation(self, check: dict):
        upto = check["upto"]
        comp = companion_spec(
            self.plan.ctx, check["a0"], check["a1"], check["a2"],
            check["b0"], check["b1"], check["b2"], check["d"],
        )
        t_comp = build_triangle(comp, upto)
        ok = check_companion_relation(
            self._tri(), t_comp, check["lam"], check["d"], upto, var=self.plan.gf_var
        )
        return ok, {"upto": upto}

    def run_convolution_sm(self, check: dict):
        z = triangle_convolution(self._tri(), check["x"], check["y"], check["upto"])
        report = is_totally_positive(hankel(z, check["size"]), check["order"], jobs=self.jobs)
        detail = report.to_dict()
        detail["sequence"] = [str(v) for v in z]
        return report.ok, detail

    def run_oracle_match(self, check: dict):
        oracle = ORACLES[check["oracle"]]
        upto = check["upto"]
        t = self._tri()
        scale = mpq(t.scale.const_value())  # a constant, checked at load
        for n in range(1, upto + 1):
            row = n + check["row-offset"]
            got = [e.const_value() / scale**row for e in t.rows[row]]
            want = oracle(n).padded(len(got))
            if got != want:
                return False, {"n": n, "got": [str(v) for v in got], "want": want}
        return True, {"upto": upto}

    def run_tridiagonal_criteria(self, check: dict):
        upto = check["upto"]
        held = sorted(tridiagonal_tp_criteria(*_true_walk(self.plan.spec, upto), upto))
        return set(check["expect"]) <= set(held), {"criteria": held}

    def run_hankel_factorization(self, check: dict):
        return check_hankel_factorization(self._tri(), check["size"]), {"size": check["size"]}


def _true_walk(spec: RecurrenceSpec, upto: int) -> tuple[list[Poly], list[Poly], list[Poly]]:
    """The walk's levels s_0..s_upto, r_0..r_upto and t_0..t_(upto+1) as
    the tridiagonal criteria read them: the stored coefficients over the
    denominator, a constant (checked at load)."""
    scale = spec.denominator or spec.ctx.one
    return ([spec.walk_coeff(1, i) / scale for i in range(upto + 1)],
            [spec.walk_coeff(0, i) / scale for i in range(upto + 1)],
            [spec.walk_coeff(2, i) / scale for i in range(upto + 2)])


# ---------------------------------------------------------------------------
# the plan schema
# ---------------------------------------------------------------------------

# A field type takes the YAML value, the plan's variable context and the
# fields parsed before it, and returns the parsed value or raises ValueError.
# Its docstring is the type as README's field tables print it.

_REQUIRED = object()  # default of a field the check cannot run without
_DEPTH = object()  # default: the triangle depth, parsed by the field's type

# The largest triangle depth and tridiagonal-criteria upto a plan may give.
# The build lays out every entry's feeds before it forms a row: a depth-500
# Eulerian triangle-build took 5.6 s and 212 MB peak RSS, depth 1000 took
# 29 s and 1.16 GB (2 vCPUs, CPython 3.11.7).  Every other count is bounded
# by the depth or by an oracle's limit.
MAX_DEPTH = 500


def _type(doc: str, accepts, parse=lambda value, ctx, parsed: value):
    def field_type(value, ctx, parsed):
        if not accepts(value):
            raise ValueError(f"expected {doc}, got {value!r}")
        return parse(value, ctx, parsed)

    field_type.__doc__ = doc
    return field_type


def _name(what: str, choices):
    def parse(value, ctx, parsed):
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"unknown {what} {value!r}; choose from {sorted(choices)}")
        return value

    parse.__doc__ = "one of " + ", ".join(choices)
    return parse


def _rationals(mapping: dict, ctx, parsed) -> dict:
    out = {}
    for var, value in mapping.items():
        if var not in ctx.names:
            raise ValueError(f"names unknown variable {var!r}")
        try:
            out[var] = mpq(str(value))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{var}: expected a rational, got {value!r}") from None
    return out


_count = _type("integer >= 0", lambda v: type(v) is int and v >= 0)
_depth = _type(f"integer from 0 to {MAX_DEPTH}", lambda v: type(v) is int and 0 <= v <= MAX_DEPTH)
_positive = _type("integer >= 1", lambda v: type(v) is int and v >= 1)
_row_offset = _type("integer >= -1", lambda v: type(v) is int and v >= -1)
_lcx_k = _type(f"integer from 1 to {_MAX_LCX_K}",
               lambda v: type(v) is int and 1 <= v <= _MAX_LCX_K)
_flag = _type("true or false", lambda v: isinstance(v, bool))
_file_name = _type("file name", lambda v: isinstance(v, str))
_poly = _type("polynomial", lambda v: type(v) is int or isinstance(v, str),
              lambda v, ctx, parsed: ctx.parse(str(v)))  # a ParseError is a ValueError
_polys = _type("non-empty list of polynomials", lambda v: isinstance(v, list) and v,
               lambda v, ctx, parsed: [_poly(p, ctx, parsed) for p in v])
# row 0 is 1 on every triangle, so one row value or a 1x1 Hankel block checks nothing
_row_values = _type("list of at least 2 polynomials", lambda v: isinstance(v, list) and len(v) > 1,
                    _polys)
_hankel_size = _type("integer >= 2", lambda v: type(v) is int and v >= 2)
_rational_map = _type("mapping of variables to rationals", lambda v: isinstance(v, dict),
                      _rationals)
_criteria = _type("non-empty list of i, ii, iii, iv", lambda v: isinstance(v, list) and v
                  and all(c in ("i", "ii", "iii", "iv") for c in v))
_source = _name("source", ("row-gf", "first-column"))

_BUILTIN_SEQUENCES = {
    "factorial": math.factorial,
    "double-factorial": lambda i: math.prod(range(1, 2 * i, 2)),
    "ones": lambda i: 1,
}


def _sequence(value, ctx, parsed):
    """factorial, double-factorial, ones, or a list of at least upto + 1 polynomials"""
    upto = parsed["upto"]
    if isinstance(value, str):
        _name("builtin sequence", _BUILTIN_SEQUENCES)(value, ctx, parsed)
        return [ctx.const(_BUILTIN_SEQUENCES[value](i)) for i in range(upto + 1)]
    seq = _polys(value, ctx, parsed)
    if len(seq) <= upto:
        raise ValueError(f"'upto' {upto} needs {upto + 1} values, got {len(seq)}")
    return seq


def _in_indices(value_type, indices: tuple = ()):
    """``value_type`` for a check field whose polynomials may involve only
    the recurrence ``indices``; ``_parse_fields`` holds them to that rule."""
    def parse(value, ctx, parsed):
        return value_type(value, ctx, parsed)

    free_of = " and ".join(v for v in RESERVED_VARS if v not in indices)
    parse.__doc__, parse.indices = f"{value_type.__doc__} free of {free_of}", indices
    return parse


_value = _in_indices(_poly)


def _block_size(value, ctx, parsed):
    """integer >= 1, with 2 (size - 1) at most upto"""
    upto = parsed["upto"]
    if 2 * (_positive(value, ctx, parsed) - 1) > upto:
        raise ValueError(f"a {value}x{value} Hankel block needs 'upto' >= {2 * value - 2}")
    return value


def _oracle_upto(value, ctx, parsed):
    """integer >= 1, at most the oracle's size limit"""
    limit = _ORACLE_LIMITS[parsed["oracle"]]
    if _positive(value, ctx, parsed) > limit:
        raise ValueError(f"{value} is beyond the {parsed['oracle']} oracle's limit {limit}")
    return value


# Fields of the triangle section by triangle kind, name -> (type, default).
# Besides depth and denominator they are the recurrence coefficients, in
# order; RecurrenceSpec decides which polynomials make a recurrence.
_TRIANGLE_COMMON = {"denominator": (_poly, None), "depth": (_depth, 8)}
_TRIANGLES = {
    ROW_SHIFT: {"c0": (_poly, _REQUIRED), "c1": (_poly, _REQUIRED), "c2": (_poly, None),
                **_TRIANGLE_COMMON},
    COLUMN_WALK: {**dict.fromkeys(("r", "s", "t"), (_poly, _REQUIRED)), **_TRIANGLE_COMMON},
}


def _kind(run, rows, fields, forms=None, triangle=None) -> dict:
    return {"run": run, "rows": rows, "fields": fields, "forms": forms or {}, "triangle": triangle}


# One entry per check kind: its runner; the triangle depth it reads, from the
# parsed check; its fields, name -> (type, default), parsed in this order, so
# a type may read the fields before it; for cf-match the continued-fraction
# forms, of which a check gives exactly one, with the function that makes the
# fraction from each; and the triangle kind it needs, if only one will do.
_CHECKS = {
    "triangle-build": _kind(_PlanRunner.run_triangle_build, lambda c: 0, {
        "golden": (_file_name, None),
    }),
    "row-gf": _kind(_PlanRunner.run_row_gf, lambda c: len(c["values"]) - 1, {
        "at": (_rational_map, {}),
        "values": (_in_indices(_row_values), _REQUIRED),
    }),
    "cf-match": _kind(_PlanRunner.run_cf_match, lambda c: c["depth"], {
        "depth": (_positive, _DEPTH),
        "prescaled": (_flag, False),
        "eval-at": (_value, None),
        **dict.fromkeys(("alpha-even", "alpha-odd", "s", "r"), (_poly, None)),
        **dict.fromkeys(("alphas", "s-list", "r-list"), (_polys, None)),
    }, forms={
        ("alpha-even", "alpha-odd"): lambda ctx, even, odd: SFraction.from_forms(even, odd),
        ("alphas",): SFraction.from_list,
        ("s", "r"): lambda ctx, s, r: JFraction.from_forms(s, r),
        ("s-list", "r-list"): JFraction.from_lists,
    }),
    "hankel-tp": _kind(_PlanRunner.run_hankel_tp, lambda c: 2 * (c["size"] - 1), {
        "source": (_source, "row-gf"),
        "size": (_hankel_size, _REQUIRED),
        "order": (_positive, _REQUIRED),
    }),
    "k-lcx": _kind(_PlanRunner.run_k_lcx, lambda c: 2 * c["k"], {
        "source": (_source, "row-gf"),
        "k": (_lcx_k, _REQUIRED),
    }),
    "product-formula": _kind(_PlanRunner.run_product_formula, lambda c: c["upto"], {
        "factor": (_in_indices(_poly, ("k",)), _REQUIRED),
        "upto": (_positive, _DEPTH),
        "eval-at": (_value, None),
    }),
    "companion-relation": _kind(_PlanRunner.run_companion_relation, lambda c: c["upto"], {
        **dict.fromkeys(("a0", "a1", "a2", "b0", "b1", "b2", "d", "lam"), (_value, _REQUIRED)),
        "upto": (_positive, _DEPTH),
    }),
    "convolution-sm": _kind(
        _PlanRunner.run_convolution_sm, lambda c: c["upto"], {
            "upto": (_count, _DEPTH),
            "x": (_in_indices(_sequence), _REQUIRED),
            "y": (_in_indices(_sequence), _REQUIRED),
            "size": (_block_size, _REQUIRED),
            "order": (_positive, _REQUIRED),
        }),
    "oracle-match": _kind(_PlanRunner.run_oracle_match, lambda c: c["upto"] + c["row-offset"], {
        "oracle": (_name("oracle", ORACLES), _REQUIRED),
        "upto": (_oracle_upto, _REQUIRED),
        "row-offset": (_row_offset, 0),
    }),
    "tridiagonal-criteria": _kind(_PlanRunner.run_tridiagonal_criteria, lambda c: 0, {
        "upto": (_depth, 4),
        "expect": (_criteria, _REQUIRED),
    }, triangle=COLUMN_WALK),
    "hankel-factorization": _kind(
        _PlanRunner.run_hankel_factorization, lambda c: 2 * (c["size"] - 1), {
            "size": (_hankel_size, _REQUIRED),
        }, triangle=COLUMN_WALK),
}
_PLAN_KEYS = ("name", "vars", "gf-var", "triangle", "specialize", "checks")


def _parse_fields(fields: dict, raw: dict, ctx: VarContext, where: str, depth=None) -> dict:
    """Parse mapping ``raw``, whose other key can only be ``kind``, by a field table."""
    for key in raw:
        if key != "kind" and key not in fields:
            raise PlanError(f"{where} has unknown key {key!r}; known keys: {', '.join(fields)}")
    parsed = {}
    for key, (parse, default) in fields.items():
        if key in raw:
            value, origin = raw[key], ""
        elif default is _REQUIRED:
            raise PlanError(f"{where} needs {key!r}")
        elif default is _DEPTH:
            value, origin = depth, " (from the triangle depth)"
        else:
            parsed[key] = default
            continue
        try:
            parsed[key] = parse(value, ctx, parsed)
        except ValueError as exc:
            raise PlanError(f"{where} {key!r}{origin}: {exc}") from exc
        if hasattr(parse, "indices"):
            polys = parsed[key] if isinstance(parsed[key], list) else [parsed[key]]
            try:
                _check_indices(ctx, [(key, p, parse.indices) for p in polys], "plan")
            except ValueError as exc:  # the message names the field
                raise PlanError(f"{where} {exc}") from exc
    return parsed


class _LongInteger:
    """A YAML integer with more digits than ``int()`` converts; no field
    type accepts it, so the field that holds it is a load error."""

    def __init__(self, digits: int):
        self.digits = digits

    def __repr__(self) -> str:
        return f"an integer of {self.digits} digits"


# libyaml's parser, where PyYAML was built with it, has the same safe
# constructor and resolver as the pure-Python one, and is several times faster
class _PlanLoader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    def construct_yaml_int(self, node):
        try:
            return super().construct_yaml_int(node)
        except ValueError:  # past the interpreter's digit limit
            return _LongInteger(sum(c.isdigit() for c in node.value))


_PlanLoader.add_constructor("tag:yaml.org,2002:int", _PlanLoader.construct_yaml_int)
_YAML_LOADER = _PlanLoader


def load_plan(path: str | Path, overrides: dict | None = None) -> VerificationPlan:
    """Parse and validate one plan file.

    ``overrides`` come from CLI flags: ``depth``, ``specialize`` and the
    hankel-tp ``size`` and ``order``; they apply before validation.  The
    specialization applies to the spec and to every polynomial of every check,
    golden rows included.
    A ``golden-dir`` override makes each golden file a file to regenerate
    there (see ``_load_golden``).
    """
    path = Path(path)
    try:
        doc = yaml.load(path.read_bytes(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise PlanError(f"{path}: invalid YAML{loc}: {exc}") from exc
    if not isinstance(doc, dict):
        raise PlanError(f"{path}: plan must be a mapping")
    for key in doc:
        if key not in _PLAN_KEYS:
            raise PlanError(f"{path}: unknown key {key!r}; known keys: {', '.join(_PLAN_KEYS)}")
    overrides = overrides or {}

    name = doc.get("name", path.stem)
    if not isinstance(name, str):
        raise PlanError(f"{path}: 'name' must be a string, got {name!r}")
    declared = doc.get("vars") or []
    if not isinstance(declared, list) or not all(isinstance(v, str) for v in declared):
        raise PlanError(f"{path}: 'vars' must be a list of names, got {declared!r}")
    for v in RESERVED_VARS:
        if v in declared:
            raise PlanError(f"{path}: variable {v!r} is reserved for recurrence indices")
    try:
        ctx = VarContext(list(RESERVED_VARS) + declared)
    except ValueError as exc:  # a repeated name, or one that is not an identifier
        raise PlanError(f"{path}: 'vars': {exc}") from exc
    gf_var = doc.get("gf-var", "q")
    if gf_var not in declared:
        raise PlanError(f"{path}: gf-var {gf_var!r} is not among the declared vars {declared}")

    tri = doc.get("triangle")
    if not isinstance(tri, dict):
        raise PlanError(f"{path}: missing 'triangle' section")
    kind = tri.get("kind", ROW_SHIFT)
    if kind not in (ROW_SHIFT, COLUMN_WALK):  # not _TRIANGLES: kind may be unhashable
        raise PlanError(f"{path}: unknown triangle kind {kind!r}")
    if overrides.get("depth") is not None:
        tri = {**tri, "depth": overrides["depth"]}
    coeffs = _parse_fields(_TRIANGLES[kind], tri, ctx, f"{path}: triangle")
    depth, den = coeffs.pop("depth"), coeffs.pop("denominator")
    coeffs = tuple(c for c in coeffs.values() if c is not None)

    try:
        specialize = {**_rational_map(doc.get("specialize") or {}, ctx, None),
                      **_rational_map(overrides.get("specialize") or {}, ctx, None)}
    except ValueError as exc:
        raise PlanError(f"{path}: 'specialize': {exc}") from exc
    for var in (*RESERVED_VARS, gf_var):
        if var in specialize:
            raise PlanError(f"{path}: 'specialize': cannot specialize {var!r}; n and k are "
                            f"the recurrence indices and {gf_var!r} is the gf-var")
    try:  # the spec checks itself as given and again as specialized
        spec = _map_polys(RecurrenceSpec(ctx, kind, coeffs, den),
                          lambda p: p.specialize(specialize))
    except ValueError as exc:  # the message names the field
        raise PlanError(f"{path}: triangle {exc}") from exc

    checks = doc.get("checks")
    if not isinstance(checks, list) or not checks or not all(isinstance(c, dict) for c in checks):
        raise PlanError(f"{path}: 'checks' must be a non-empty list of mappings")
    parsed = []
    for i, raw in enumerate(checks):
        kind = raw.get("kind")
        if not isinstance(kind, str):
            raise PlanError(f"{path}: check {i} needs a 'kind' name, got {kind!r}")
        where = f"{path}: check {i} ({kind})"
        if kind not in _CHECKS:
            raise PlanError(f"{where}: unknown check kind")
        if kind == "hankel-tp":
            raw = {**raw, **{key: overrides[key] for key in ("size", "order")
                             if overrides.get(key) is not None}}
        entry = _CHECKS[kind]
        check = {"kind": kind, **_parse_fields(entry["fields"], raw, ctx, where, depth)}
        if check.get("golden"):
            _load_golden(check, path, ctx, overrides.get("golden-dir"), where)
        check = _map_polys(check, lambda p: p.specialize(specialize))
        # an evaluation point may only name variables the rows still carry
        for var in check.get("at", ()):
            if var not in declared or var in specialize:
                why = "specialized" if var in specialize else "not among the declared vars"
                raise PlanError(f"{where} 'at': {var!r} is {why}")
        forms = entry["forms"]
        given = [keys for keys in forms if any(key in raw for key in keys)]
        if forms and (len(given) != 1 or not all(key in raw for key in given[0])):
            raise PlanError(f"{where} needs continued-fraction data: exactly one of "
                            + " or ".join("+".join(keys) for keys in forms))
        if given:
            keys = ", ".join(map(repr, given[0]))
            try:
                fraction = forms[given[0]](ctx, *(check[key] for key in given[0]))
                _levels(contract(fraction) if isinstance(fraction, SFraction) else fraction,
                        check["depth"])
            except DegenerateFraction as exc:
                # every missing contracted level needs the alpha after the list
                missing = (f"alpha_{len(fraction.even) + len(fraction.odd)} not provided"
                           if isinstance(fraction, SFraction) else exc)
                raise PlanError(f"{where} {keys}: depth "
                                f"{check['depth']} needs more values ({missing})") from exc
            except ValueError as exc:  # the message names the fraction's field
                raise PlanError(f"{where} {keys}: {exc}") from exc
            check["fraction"] = fraction
        scale, point = spec.denominator or ctx.one, _point(check, ctx, gf_var)
        if point and not check.get("prescaled") and not _evaluate(scale, point):
            field = "at" if kind == "row-gf" else "eval-at"
            at = ", ".join(f"{v} = {p}" for v, p in point.items())
            raise PlanError(f"{where} '{field}': the denominator {scale} vanishes at {at}")
        if kind in ("oracle-match", "tridiagonal-criteria") and not scale.is_constant():
            raise PlanError(f"{where} reads true values, but the denominator {scale} is "
                            "symbolic; 'specialize' its variables")
        for key, c in zip(_TRIANGLES[spec.kind], spec.coeffs):
            if kind == "oracle-match" and set(c.variables()) - set(RESERVED_VARS):
                raise PlanError(f"{where} reads true values, but the coefficient {key!r} = "
                                f"{c} is symbolic; 'specialize' its variables")
        if entry["triangle"] not in (None, spec.kind):
            raise PlanError(f"{where} needs a {entry['triangle']} triangle, "
                            f"but the triangle 'kind' is {spec.kind!r}")
        if kind == "tridiagonal-criteria":
            try:
                check_tridiagonal_hypotheses(*_true_walk(spec, check["upto"]), check["upto"])
            except HypothesisError as exc:
                raise PlanError(f"{where} 'upto': the criteria need nonnegative levels, "
                                f"but {exc}") from exc
        need = entry["rows"](check)
        if need > depth:
            raise PlanError(f"{where} needs triangle depth {need}, but the plan declares {depth}")
        parsed.append(check)
    return VerificationPlan(
        name=name,
        path=path,
        ctx=ctx,
        spec=spec,
        depth=depth,
        gf_var=gf_var,
        checks=parsed,
    )


def _load_golden(check: dict, path: Path, ctx: VarContext, golden_dir, where: str) -> None:
    """Give a triangle-build check with a ``golden`` file the rows it
    compares, read and parsed from the file beside the plan, as
    ``golden-rows``; or, when ``golden_dir`` is given, the file it
    regenerates there, as ``golden-out``, leaving the old file unread.  A
    file that cannot be read or parsed, or a ``golden_dir`` that is not a
    directory, is a PlanError."""
    name = check["golden"]
    if golden_dir is not None:
        out = Path(golden_dir) / Path(name).name
        if not out.parent.is_dir():
            raise PlanError(f"{where} 'golden': cannot regenerate into {golden_dir}: "
                            "not a directory")
        check["golden-out"] = out
        return
    try:
        check["golden-rows"] = read_golden(ctx, path.parent / name)
    except (OSError, ValueError) as exc:  # a ParseError is a ValueError
        raise PlanError(f"{where} 'golden': {exc}") from exc


def run_plan(plan: VerificationPlan, jobs: int = 1) -> RunReport:
    """Execute the plan's checks in order; an error aborts the rest."""
    runner = _PlanRunner(plan, jobs=jobs)
    report = RunReport(plan=plan.name, status="pass")
    for check in plan.checks:
        kind = check["kind"]
        entry = {"kind": kind}
        t0 = time.monotonic()
        try:
            ok, detail = _CHECKS[kind]["run"](runner, check)
            entry["status"] = "pass" if ok else "fail"
            entry["detail"] = detail
            report.checks.append(entry)
            if not ok:
                report.status = "fail"
        except Exception as exc:  # error: stop this plan, keep the batch going
            entry["status"] = "error"
            entry["detail"] = {"message": f"{type(exc).__name__}: {exc}"}
            report.checks.append(entry)
            report.status = "fail"
            break
        finally:
            report.timings[f"{len(report.checks) - 1}:{kind}"] = round(
                time.monotonic() - t0, 3
            )
    return report


def emit_report(reports: list[RunReport], fmt: str = "json") -> str:
    """Deterministic serialization; timings are separate from the body."""
    if fmt == "json":
        body = {
            "tool": "tpcert",
            "version": _version(),
            "status": "pass" if all(r.status == "pass" for r in reports) else "fail",
            "plans": [r.to_dict() for r in reports],
        }
        return json.dumps(body, indent=2, sort_keys=True)
    lines = []
    for r in reports:
        lines.append(f"plan {r.plan}: {r.status.upper()}")
        for i, c in enumerate(r.checks):
            took = r.timings.get(f"{i}:{c['kind']}", 0.0)
            lines.append(f"  [{c['status']:5s}] {c['kind']} ({took}s)")
            if c["status"] != "pass":
                lines.append(f"          {json.dumps(c['detail'], sort_keys=True)}")
    total = sum(1 for r in reports for _ in r.checks)
    bad = sum(1 for r in reports for c in r.checks if c["status"] != "pass")
    lines.append(f"{len(reports)} plan(s), {total} check(s), {bad} not passing")
    return "\n".join(lines)


def _version() -> str:
    from . import __version__

    return __version__


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tpcert",
        description="run verification plans for triangle positivity certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run one or more plan files")
    verify.add_argument("plans", nargs="+", help="plan YAML files")
    verify.add_argument("--format", choices=("json", "text"), default="text")
    verify.add_argument("--depth", type=_positive_int, help="override triangle depth")
    verify.add_argument("--hankel-size", type=_positive_int, help="override hankel-tp sizes")
    verify.add_argument("--tp-order", type=_positive_int, help="override hankel-tp orders")
    verify.add_argument(
        "--specialize",
        action="append",
        default=[],
        metavar="VAR=RAT",
        help="substitute a rational for a variable (repeatable)",
    )
    verify.add_argument(
        "--jobs", type=_positive_int, default=1, help="parallel minor enumeration"
    )
    verify.add_argument("--golden-dir", type=Path, help="regenerate golden files here")
    args = parser.parse_args(argv)

    overrides: dict = {
        "specialize": {},
        "depth": args.depth,
        "size": args.hankel_size,
        "order": args.tp_order,
        "golden-dir": args.golden_dir,
    }
    for item in args.specialize:
        if "=" not in item:
            parser.error(f"--specialize needs VAR=RAT, got {item!r}")
        var, value = item.split("=", 1)
        overrides["specialize"][var.strip()] = value.strip()

    reports = []
    status = 0
    for path in args.plans:
        try:
            plan = load_plan(path, overrides)
        except (PlanError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            reports.append(RunReport(plan=str(path), status="fail",
                                     checks=[{"kind": "load", "status": "error",
                                              "detail": {"message": str(exc)}}]))
            status = 2
            continue
        report = run_plan(plan, jobs=args.jobs)
        reports.append(report)
        if report.status != "pass":
            status = max(status, 1)
    print(emit_report(reports, args.format))
    return status


if __name__ == "__main__":
    sys.exit(main())
