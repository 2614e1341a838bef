"""Batch verification front end.

A verification plan is a YAML document bundling one recurrence spec with an
ordered list of checks; ``tpcert verify plan.yaml [...]`` runs the checks
and emits a machine-readable report.  Plans double as test fixtures, so the
report body is deterministic: timings live in a separate key and the JSON
is emitted with sorted keys.

Exit status is 0 iff every check of every plan passes.  An error (as
opposed to a clean fail) aborts the remaining checks of the same plan but
not the other plans of a batch.
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
from .contfrac import JFraction, SFraction, cf_match
from .polyring import ParseError, Poly, VarContext, mpq
from .totalpos import (
    check_hankel_factorization,
    check_k_log_convex,
    hankel,
    is_totally_positive,
    tridiagonal_tp_criteria,
)
from .triangles import (
    COLUMN_WALK,
    ROW_SHIFT,
    RecurrenceSpec,
    Triangle,
    build_triangle,
    check_companion_relation,
    check_product_formula,
    companion_spec,
    read_golden,
    triangle_convolution,
    write_golden,
)

RESERVED_VARS = ("n", "k")

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


# Integer fields each check kind reads, with the least value that has
# something to check (None: no bound), and the flags it reads.
_INT_FIELDS = {
    "cf-match": {"depth": 0},
    "hankel-tp": {"size": 1, "order": 1},
    "convolution-sm": {"size": 1, "order": 1, "upto": 0},
    "k-lcx": {"k": 1},
    "product-formula": {"upto": 0},
    "companion-relation": {"upto": 0},
    "oracle-match": {"upto": 0, "row-offset": None},
    "tridiagonal-criteria": {"upto": 0},
    "hankel-factorization": {"size": 1},
}
_BOOL_FIELDS = {"cf-match": ("prescaled",), "hankel-tp": ("contiguous-only",)}
# Fields a check kind cannot run without; a cf-match needs one complete
# continued-fraction form instead.
_REQUIRED_FIELDS = {
    "hankel-tp": ("size", "order"),
    "convolution-sm": ("x", "y", "size", "order"),
    "k-lcx": ("k",),
    "product-formula": ("factor",),
    "companion-relation": ("a0", "a1", "a2", "b0", "b1", "b2", "d", "lam"),
    "oracle-match": ("oracle", "upto"),
    "hankel-factorization": ("size",),
}
_CF_FORMS = (("alpha-even", "alpha-odd"), ("alphas",), ("s", "r"), ("s-list", "r-list"))


@dataclass
class VerificationPlan:
    """Parsed plan: one spec, its context, and an ordered check list."""

    name: str
    path: Path
    ctx: VarContext
    spec: RecurrenceSpec
    depth: int
    gf_var: str
    checks: list[dict]
    specialize: dict


@dataclass
class RunReport:
    """Per-plan outcome; overall status is fail iff any check failed."""

    plan: str
    status: str
    checks: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "plan": self.plan,
            "status": self.status,
            "checks": self.checks,
            "timings": self.timings,
        }


def _parse_poly(ctx: VarContext, text, where: str) -> Poly:
    if isinstance(text, int):
        return ctx.const(text)
    try:
        return ctx.parse(str(text))
    except ParseError as exc:
        raise PlanError(f"{where}: {exc}") from exc


def load_plan(path: str | Path, overrides: dict | None = None) -> VerificationPlan:
    """Parse and validate one plan file.

    ``overrides`` come from CLI flags: ``depth``, ``specialize`` and the
    hankel-tp ``size`` and ``order``; they apply before validation.
    """
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise PlanError(f"{path}: invalid YAML{loc}: {exc}") from exc
    if not isinstance(doc, dict):
        raise PlanError(f"{path}: plan must be a mapping")
    overrides = overrides or {}

    name = doc.get("name", path.stem)
    declared = doc.get("vars") or []
    if not isinstance(declared, list):
        raise PlanError(f"{path}: 'vars' must be a list of names")
    for v in RESERVED_VARS:
        if v in declared:
            raise PlanError(f"{path}: variable {v!r} is reserved for recurrence indices")
    ctx = VarContext(list(RESERVED_VARS) + list(declared))
    gf_var = doc.get("gf-var", "q")
    if gf_var not in declared:
        raise PlanError(f"{path}: gf-var {gf_var!r} is not among the declared vars {declared}")

    tri = doc.get("triangle")
    if not isinstance(tri, dict):
        raise PlanError(f"{path}: missing 'triangle' section")
    kind = tri.get("kind", "row-shift")
    if kind == ROW_SHIFT:
        coeffs = tuple(
            _parse_poly(ctx, tri[key], f"{path}: triangle.{key}")
            for key in ("c0", "c1", "c2")
            if key in tri
        )
        if len(coeffs) < 2:
            raise PlanError(f"{path}: row-shift triangle needs c0 and c1")
    elif kind == COLUMN_WALK:
        coeffs = tuple(
            _parse_poly(ctx, tri[key], f"{path}: triangle.{key}")
            for key in ("r", "s", "t")
        )
    else:
        raise PlanError(f"{path}: unknown triangle kind {kind!r}")
    den = None
    if "denominator" in tri:
        den = _parse_poly(ctx, tri["denominator"], f"{path}: triangle.denominator")
    spec = RecurrenceSpec(ctx, kind, coeffs, denominator=den)

    specialize = {}
    merged = {**(doc.get("specialize") or {}), **(overrides.get("specialize") or {})}
    for var, value in merged.items():
        if var not in ctx.names:
            raise PlanError(f"{path}: specialize names unknown variable {var!r}")
        try:
            specialize[var] = mpq(str(value))
        except ValueError as exc:
            raise PlanError(f"{path}: specialize {var}={value!r}: {exc}") from exc
    if specialize:
        try:
            spec = spec.specialize(specialize)
        except ValueError as exc:  # e.g. a clearing denominator driven to zero
            raise PlanError(f"{path}: specialization breaks the spec: {exc}") from exc

    depth = overrides.get("depth")
    depth = tri.get("depth", 8) if depth is None else depth
    _require_int(path, "triangle.depth", depth, 0)
    checks = doc.get("checks") or []
    if not isinstance(checks, list) or not all(isinstance(c, dict) for c in checks):
        raise PlanError(f"{path}: 'checks' must be a list of mappings")
    for i, check in enumerate(checks):
        kind = check.get("kind")
        if not isinstance(kind, str):
            raise PlanError(f"{path}: check {i} needs a 'kind' name, got {kind!r}")
        where = f"check {i} ({kind})"
        if kind not in _PlanRunner.RUNNERS:
            raise PlanError(f"{path}: {where}: unknown check kind")
        if kind == "hankel-tp":
            for key in ("size", "order"):
                if overrides.get(key) is not None:
                    check[key] = overrides[key]
        missing = [key for key in _REQUIRED_FIELDS.get(kind, ()) if key not in check]
        if missing:
            raise PlanError(f"{path}: {where} needs {', '.join(map(repr, missing))}")
        if kind == "cf-match" and not any(all(key in check for key in form) for form in _CF_FORMS):
            forms = " or ".join("+".join(form) for form in _CF_FORMS)
            raise PlanError(f"{path}: {where} needs continued-fraction data: {forms}")
        for key, least in _INT_FIELDS.get(kind, {}).items():
            if key in check:
                _require_int(path, f"{where} {key!r}", check[key], least)
        for key in _BOOL_FIELDS.get(kind, ()):
            if key in check and not isinstance(check[key], bool):
                raise PlanError(
                    f"{path}: {where} {key!r} must be true or false, got {check[key]!r}"
                )
        if kind == "row-gf":
            at = check.get("at", {})
            if not isinstance(at, dict):
                raise PlanError(f"{path}: {where}: 'at' must be a mapping")
            for var in at:
                if var not in ctx.names:
                    raise PlanError(f"{path}: {where} evaluates at unknown variable {var!r}")
        if kind == "oracle-match":
            oracle = check["oracle"]
            if not isinstance(oracle, str) or oracle not in ORACLES:
                raise PlanError(
                    f"{path}: {where}: unknown oracle {oracle!r}; choose from {sorted(ORACLES)}"
                )
            if check["upto"] > _ORACLE_LIMITS[oracle]:
                raise PlanError(
                    f"{path}: {where} 'upto' {check['upto']} is beyond the {oracle} "
                    f"oracle's limit {_ORACLE_LIMITS[oracle]}"
                )
    _validate_depths(path, depth, checks)
    return VerificationPlan(
        name=name,
        path=path,
        ctx=ctx,
        spec=spec,
        depth=depth,
        gf_var=gf_var,
        checks=checks,
        specialize=specialize,
    )


def _require_int(path: Path, what: str, value, least: int | None) -> None:
    if type(value) is not int:
        raise PlanError(f"{path}: {what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise PlanError(f"{path}: {what} must be at least {least}, got {value}")


def _validate_depths(path: Path, depth: int, checks: list[dict]) -> None:
    """Reject plans whose checks need more rows than the declared depth."""
    for i, check in enumerate(checks):
        kind = check.get("kind")
        need = 0
        if kind == "cf-match":
            need = check.get("depth", depth)
        elif kind in ("hankel-tp", "convolution-sm"):
            need = 2 * (check.get("size", 1) - 1)
            if kind == "convolution-sm":
                need = max(need, check.get("upto", depth))
        elif kind == "k-lcx":
            need = 2 * check.get("k", 1)
        elif kind in ("product-formula", "companion-relation"):
            need = check.get("upto", depth)
        elif kind == "row-gf":
            need = len(check.get("values", ())) - 1
        elif kind == "oracle-match":
            need = check.get("upto", 0) + check.get("row-offset", 0)
        if need > depth:
            raise PlanError(
                f"{path}: check {i} ({kind}) needs triangle depth {need}, "
                f"but the plan declares {depth}"
            )


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------


def _fraction_from_check(ctx: VarContext, check: dict, where: str):
    if "alpha-even" in check and "alpha-odd" in check:
        return SFraction.from_forms(
            _parse_poly(ctx, check["alpha-even"], where),
            _parse_poly(ctx, check["alpha-odd"], where),
        )
    if "alphas" in check:
        return SFraction.from_list(
            ctx, [_parse_poly(ctx, a, where) for a in check["alphas"]]
        )
    if "s" in check and "r" in check:
        return JFraction.from_forms(
            _parse_poly(ctx, check["s"], where),
            _parse_poly(ctx, check["r"], where),
        )
    return JFraction.from_lists(  # load_plan saw one complete form
        ctx,
        [_parse_poly(ctx, v, where) for v in check["s-list"]],
        [_parse_poly(ctx, v, where) for v in check["r-list"]],
    )


def _sequence_from_name(ctx: VarContext, name: str, upto: int) -> list[Poly]:
    if name == "factorial":
        return [ctx.const(math.factorial(i)) for i in range(upto + 1)]
    if name == "double-factorial":
        return [ctx.const(math.prod(range(1, 2 * i, 2)) if i else 1) for i in range(upto + 1)]
    if name == "ones":
        return [ctx.one] * (upto + 1)
    raise PlanError(f"unknown builtin sequence {name!r}")


class _PlanRunner:
    def __init__(self, plan: VerificationPlan, jobs: int = 1, golden_dir: Path | None = None):
        self.plan = plan
        self.jobs = jobs
        self.golden_dir = golden_dir
        self.triangle: Triangle | None = None

    def _tri(self) -> Triangle:
        if self.triangle is None:
            self.triangle = build_triangle(self.plan.spec, self.plan.depth)
        return self.triangle

    def _row_seq(self, check: dict) -> list[Poly]:
        t = self._tri()
        source = check.get("source", "row-gf")
        if source == "first-column":
            return t.first_column()
        if source == "row-gf":
            return t.row_gfs(self.plan.gf_var)
        raise PlanError(f"unknown sequence source {source!r}")

    # each runner returns (ok, detail-dict)

    def run_triangle_build(self, check: dict):
        t = self._tri()
        detail = {"depth": t.depth, "recurrence-residual": t.satisfies()}
        if not detail["recurrence-residual"]:
            return False, detail
        golden = check.get("golden")
        if golden:
            gpath = self.plan.path.parent / golden
            if self.golden_dir is not None:
                out = self.golden_dir / Path(golden).name
                write_golden(t, out)
                detail["golden"] = f"regenerated {out}"
            else:
                rows = read_golden(self.plan.ctx, gpath)
                detail["golden"] = f"compared {gpath}"
                if rows != t.rows:
                    return False, detail
        return True, detail

    def run_row_gf(self, check: dict):
        t = self._tri()
        gfs = t.row_gfs(self.plan.gf_var)
        detail = {"rows": [str(g) for g in gfs]}
        if "values" in check:
            at = {var: mpq(str(v)) for var, v in check.get("at", {}).items()}
            for n, value in enumerate(check["values"]):
                got = gfs[n].specialize(at) if at else gfs[n]
                want = _parse_poly(self.plan.ctx, value, "row-gf.values")
                if got != want:
                    detail["mismatch"] = {"row": n, "got": str(got), "want": str(want)}
                    return False, detail
        return True, detail

    def run_cf_match(self, check: dict):
        depth = check.get("depth", self.plan.depth)
        frac = _fraction_from_check(self.plan.ctx, check, f"{self.plan.path}: cf-match")
        eval_at = None
        if "eval-at" in check:
            eval_at = _parse_poly(self.plan.ctx, check["eval-at"], "cf-match.eval-at")
        ok = cf_match(
            self._tri(),
            frac,
            depth,
            var=self.plan.gf_var,
            prescaled=check.get("prescaled", False),
            eval_at=eval_at,
        )
        return ok, {"depth": depth}

    def run_hankel_tp(self, check: dict):
        seq = self._row_seq(check)
        report = is_totally_positive(
            hankel(seq, check["size"]),
            check["order"],
            contiguous_only=check.get("contiguous-only", False),
            jobs=self.jobs,
        )
        return report.ok, report.to_dict()

    def run_k_lcx(self, check: dict):
        seq = self._row_seq(check)
        report = check_k_log_convex(seq, check["k"])
        return report.ok, report.to_dict()

    def run_product_formula(self, check: dict):
        factor = _parse_poly(self.plan.ctx, check["factor"], "product-formula.factor")
        upto = check.get("upto", self.plan.depth)
        eval_at = None
        if "eval-at" in check:
            eval_at = _parse_poly(self.plan.ctx, check["eval-at"], "product-formula.eval-at")
        ok = check_product_formula(
            self._tri(), factor, upto, var=self.plan.gf_var, eval_at=eval_at
        )
        return ok, {"upto": upto}

    def run_companion_relation(self, check: dict):
        ctx = self.plan.ctx
        params = {
            key: _parse_poly(ctx, check[key], f"companion-relation.{key}")
            for key in ("a0", "a1", "a2", "b0", "b1", "b2", "d", "lam")
        }
        upto = check.get("upto", self.plan.depth)
        comp = companion_spec(
            ctx, params["a0"], params["a1"], params["a2"],
            params["b0"], params["b1"], params["b2"], params["d"],
        )
        t_comp = build_triangle(comp, upto)
        ok = check_companion_relation(
            self._tri(), t_comp, params["lam"], params["d"], upto, var=self.plan.gf_var
        )
        return ok, {"upto": upto}

    def run_convolution_sm(self, check: dict):
        upto = check.get("upto", self.plan.depth)
        ctx = self.plan.ctx

        def seq_of(key):
            value = check[key]
            if isinstance(value, str):
                return _sequence_from_name(ctx, value, upto)
            return [_parse_poly(ctx, v, f"convolution-sm.{key}") for v in value]

        z = triangle_convolution(self._tri(), seq_of("x"), seq_of("y"), upto)
        report = is_totally_positive(hankel(z, check["size"]), check["order"], jobs=self.jobs)
        detail = report.to_dict()
        detail["sequence"] = [str(v) for v in z]
        return report.ok, detail

    def run_oracle_match(self, check: dict):
        oracle = ORACLES[check["oracle"]]
        upto = check["upto"]
        offset = check.get("row-offset", 0)
        t = self._tri()
        for n in range(1, upto + 1):
            row = n + offset
            if row < 0 or row > t.depth:
                return False, {"missing-row": row}
            vec = oracle(n)
            got = [e.const_value() for e in t.rows[row]]
            want = vec.padded(len(got))
            if got != want:
                return False, {"n": n, "got": [str(v) for v in got], "want": want}
        return True, {"upto": upto}

    def run_tridiagonal_criteria(self, check: dict):
        upto = check.get("upto", 4)
        spec = self.plan.spec
        if spec.kind != COLUMN_WALK:
            raise PlanError("tridiagonal-criteria needs a column-walk spec")
        s = [spec.walk_coeff(1, i) for i in range(upto + 1)]
        r = [spec.walk_coeff(0, i) for i in range(upto + 1)]
        t = [spec.walk_coeff(2, i) for i in range(upto + 2)]
        held = sorted(tridiagonal_tp_criteria(s, r, t, upto))
        expect = check.get("expect")
        ok = True if expect is None else set(expect) <= set(held)
        return ok, {"criteria": held}

    def run_hankel_factorization(self, check: dict):
        size = check["size"]
        ok = check_hankel_factorization(self.plan.spec, size)
        return ok, {"size": size}

    RUNNERS = {
        "triangle-build": run_triangle_build,
        "row-gf": run_row_gf,
        "cf-match": run_cf_match,
        "hankel-tp": run_hankel_tp,
        "k-lcx": run_k_lcx,
        "product-formula": run_product_formula,
        "companion-relation": run_companion_relation,
        "convolution-sm": run_convolution_sm,
        "oracle-match": run_oracle_match,
        "tridiagonal-criteria": run_tridiagonal_criteria,
        "hankel-factorization": run_hankel_factorization,
    }


def run_plan(plan: VerificationPlan, jobs: int = 1, golden_dir: Path | None = None) -> RunReport:
    """Execute the plan's checks in order; an error aborts the rest."""
    runner = _PlanRunner(plan, jobs=jobs, golden_dir=golden_dir)
    report = RunReport(plan=plan.name, status="pass")
    for check in plan.checks:
        kind = check["kind"]
        entry = {"kind": kind}
        t0 = time.monotonic()
        try:
            ok, detail = _PlanRunner.RUNNERS[kind](runner, check)
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
        report = run_plan(plan, jobs=args.jobs, golden_dir=args.golden_dir)
        reports.append(report)
        if report.status != "pass":
            status = max(status, 1)
    print(emit_report(reports, args.format))
    return status


if __name__ == "__main__":
    sys.exit(main())
