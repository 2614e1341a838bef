"""Tests for plan loading, the check runners and report emission."""

import importlib
import json
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import tpcert
from tpcert import cli, contfrac, triangles
from tpcert.cli import PlanError, emit_report, load_plan, main, run_plan
from tpcert.contfrac import (
    DegenerateFraction,
    JFraction,
    SFraction,
    contract,
    j_expand,
    s_expand,
)
from tpcert.polyring import VarContext
from test_contfrac import reference_walk

PLANS = Path(__file__).resolve().parent.parent / "plans"
EXPECTED_BATCH = PLANS.parent / "perfbench" / "expected" / "plan-batch.json"


def write_plan(tmp_path, text, name="plan.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """\
name: mini
vars: [q]
triangle:
  kind: row-shift
  c0: "1"
  c1: "1"
  depth: 4
checks:
  - kind: triangle-build
  - kind: hankel-tp
    size: 2
    order: 2
"""


def test_load_and_run_minimal(tmp_path):
    plan = load_plan(write_plan(tmp_path, MINIMAL))
    assert plan.name == "mini"
    report = run_plan(plan)
    assert report.status == "pass"
    assert [c["status"] for c in report.checks] == ["pass", "pass"]


def test_triangle_build_does_not_trust_the_packed_runner(tmp_path, monkeypatch):
    # the kernel adds the first product of every entry that sums two of
    # them twice, alike on every run, so a second build would agree with
    # the first; the Poly recurrence of satisfies does not
    add = triangles._add_level_products

    def corrupted(acc, pairs):
        pairs = [(level, entry) for level, entry in pairs if level and entry]
        return add(acc, pairs + pairs[:1] if len(pairs) > 1 else pairs)

    monkeypatch.setattr(triangles, "_add_level_products", corrupted)
    plan = load_plan(write_plan(tmp_path, MINIMAL))
    assert not triangles.build_triangle(plan.spec, plan.depth).satisfies()
    check = run_plan(plan).checks[0]
    assert check["kind"] == "triangle-build" and check["status"] == "fail"
    assert check["detail"]["recurrence-residual"] is False


def test_reserved_variable_rejected(tmp_path):
    bad = MINIMAL.replace("vars: [q]", "vars: [n, q]")
    with pytest.raises(PlanError):
        load_plan(write_plan(tmp_path, bad))


def test_malformed_polynomial_reports_location(tmp_path):
    bad = MINIMAL.replace('c0: "1"', 'c0: "1 + *q"')
    with pytest.raises(PlanError) as err:
        load_plan(write_plan(tmp_path, bad))
    assert "column" in str(err.value)
    assert "c0" in str(err.value)


def test_malformed_yaml_reports_location(tmp_path):
    with pytest.raises(PlanError) as err:
        load_plan(write_plan(tmp_path, "a:\n  - b\n c: d\n"))
    assert "line" in str(err.value)


def test_plan_that_is_not_utf8_is_a_load_error(tmp_path, capsys):
    path = tmp_path / "plan.yaml"
    path.write_bytes(b"name: x\nvars: [q]\n# \xff\n")
    assert main(["verify", str(path), "--format", "json"]) == 2
    (check,) = json.loads(capsys.readouterr().out)["plans"][0]["checks"]
    assert (check["kind"], check["status"]) == ("load", "error")
    assert "invalid YAML" in check["detail"]["message"]


YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("path", sorted(PLANS.glob("*.yaml")), ids=lambda p: p.stem)
def test_both_yaml_loaders_read_the_same_plan(path):
    text = path.read_bytes()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
def test_each_yaml_loader_locates_a_malformed_plan(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(cli, "_YAML_LOADER", loader)
    path = write_plan(tmp_path, "name: x\nvars: [q, a\ntriangle: {}\n")
    with pytest.raises(PlanError, match="invalid YAML at line 3, column 9"):
        load_plan(path)


def test_unknown_check_kind_is_error(tmp_path):
    path = write_plan(tmp_path, MINIMAL + "  - kind: no-such-check\n")
    with pytest.raises(PlanError) as err:
        load_plan(path)
    assert "unknown check kind" in str(err.value)
    assert main(["verify", str(path)]) == 2


def test_check_kind_must_be_a_name(tmp_path):
    for line in ("  - kind: [a]\n", "  - kind: 3\n", "  - size: 2\n"):
        path = write_plan(tmp_path, MINIMAL + line)
        with pytest.raises(PlanError) as err:
            load_plan(path)
        assert "'kind'" in str(err.value)
        assert main(["verify", str(path)]) == 2


def test_error_aborts_remaining_checks(tmp_path):
    # a golden file that does not exist is an error (not a fail); the
    # trailing triangle-build must not run
    doc = MINIMAL + "  - kind: triangle-build\n    golden: missing.tsv\n" + \
        "  - kind: triangle-build\n"
    report = run_plan(load_plan(write_plan(tmp_path, doc)))
    assert report.checks[-1]["status"] == "error"
    assert "FileNotFoundError" in report.checks[-1]["detail"]["message"]
    assert len(report.checks) == 3


def test_specialization_override(tmp_path):
    doc = """\
name: special
vars: [q, a0]
triangle:
  kind: row-shift
  c0: "a0*(n - 1)"
  c1: "1"
  depth: 4
checks:
  - kind: row-gf
    at: {q: 1}
    values: ["1", "1", "2", "6", "24"]
"""
    plan = load_plan(write_plan(tmp_path, doc), {"specialize": {"a0": "1"}})
    assert run_plan(plan).status == "pass"
    plan2 = load_plan(write_plan(tmp_path, doc), {"specialize": {"a0": "2"}})
    assert run_plan(plan2).status == "fail"


def test_empty_plan_passes(tmp_path):
    doc = MINIMAL.split("checks:")[0] + "checks: []\n"
    report = run_plan(load_plan(write_plan(tmp_path, doc)))
    assert report.status == "pass" and report.checks == []


def test_depth_override(tmp_path):
    plan = load_plan(write_plan(tmp_path, MINIMAL), {"depth": 6})
    assert plan.depth == 6
    report = run_plan(plan)
    assert report.checks[0]["detail"]["depth"] == 6


def test_specialize_unknown_variable(tmp_path):
    with pytest.raises(PlanError):
        load_plan(write_plan(tmp_path, MINIMAL), {"specialize": {"zz": "1"}})


@pytest.mark.parametrize("assignment", ["n=3", "k=1", "q=1"])
def test_specializing_indices_or_gf_var_is_load_error(assignment, capsys):
    rc = main(["verify", str(PLANS / "factorial.yaml"), "--specialize", assignment])
    assert rc == 2
    assert f"cannot specialize {assignment.split('=')[0]!r}" in capsys.readouterr().err


def test_at_naming_a_specialized_variable_is_load_error(tmp_path, capsys):
    # specializing removes the variable from the rows, so an 'at' entry
    # naming it would be ignored and the values compared at another point
    doc = """\
vars: [q, a]
triangle: {c0: "a*(n - 1)", c1: 1, depth: 3}
checks:
  - kind: row-gf
    at: {q: 1, a: 1}
    values: [1, 1, 2, 6]
"""
    path = write_plan(tmp_path, doc)
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "--specialize", "a=2"]) == 2
    assert "'at': 'a' is specialized" in capsys.readouterr().err


def test_depth_inconsistency_rejected_at_load(tmp_path):
    doc = MINIMAL + "  - kind: hankel-tp\n    size: 5\n    order: 2\n"
    with pytest.raises(PlanError) as err:
        load_plan(write_plan(tmp_path, doc))  # depth 4 < 2*(5-1)
    assert "depth" in str(err.value)
    doc2 = MINIMAL + "  - kind: k-lcx\n    k: 3\n"
    with pytest.raises(PlanError):
        load_plan(write_plan(tmp_path, doc2))
    doc3 = WALK + "  - kind: hankel-factorization\n    size: 4\n"
    with pytest.raises(PlanError, match="needs triangle depth 6"):
        load_plan(write_plan(tmp_path, doc3))


def test_row_gf_values_beyond_depth_rejected_at_load(tmp_path):
    doc = MINIMAL + (
        "  - kind: row-gf\n    at: {q: 1}\n"
        '    values: ["1", "2", "4", "8", "16", "32"]\n'
    )
    with pytest.raises(PlanError) as err:
        load_plan(write_plan(tmp_path, doc))  # six rows asked, depth 4
    assert "row-gf" in str(err.value)
    assert main(["verify", str(write_plan(tmp_path, doc))]) == 2
    # the same values within the depth still run, all of them
    assert run_plan(load_plan(write_plan(tmp_path, doc), {"depth": 5})).status == "pass"


def test_row_gf_unknown_variable_rejected_at_load(tmp_path):
    doc = MINIMAL + '  - kind: row-gf\n    at: {zz: 1}\n    values: ["1", "2"]\n'
    with pytest.raises(PlanError) as err:
        load_plan(write_plan(tmp_path, doc))
    assert "'zz'" in str(err.value)
    assert main(["verify", str(write_plan(tmp_path, doc))]) == 2
    with pytest.raises(PlanError):
        load_plan(write_plan(tmp_path, doc.replace("{zz: 1}", "[q]")))


ORACLE = """\
name: eulerian-oracle
vars: [q]
triangle:
  kind: row-shift
  c0: "k"
  c1: "n - k + 1"
  depth: 4
checks:
  - kind: oracle-match
    oracle: perms-by-descents
    upto: 4
    row-offset: 0
"""


def test_oracle_match_beyond_depth_rejected_at_load(tmp_path):
    assert run_plan(load_plan(write_plan(tmp_path, ORACLE))).status == "pass"
    for old, new in (("upto: 4", "upto: 6"), ("row-offset: 0", "row-offset: 1")):
        doc = ORACLE.replace(old, new)
        with pytest.raises(PlanError) as err:
            load_plan(write_plan(tmp_path, doc))
        assert "oracle-match" in str(err.value)
        assert main(["verify", str(write_plan(tmp_path, doc))]) == 2


def test_unknown_oracle_is_load_error(tmp_path):
    for value in ("no-such-oracle", "[perms-by-descents]"):
        path = write_plan(tmp_path, ORACLE.replace("perms-by-descents", value))
        with pytest.raises(PlanError) as err:
            load_plan(path)
        assert "unknown oracle" in str(err.value)
        assert main(["verify", str(path)]) == 2


def test_oracle_match_beyond_guard_is_load_error(tmp_path):
    doc = ORACLE.replace("perms-by-descents", "stirling-perms-by-ascent-plateau")
    doc = doc.replace('c0: "k"', 'c0: "2*k"').replace('c1: "n - k + 1"', 'c1: "2*(n - k) + 1"')
    doc = doc.replace("depth: 4", "depth: 8")
    within = write_plan(tmp_path, doc.replace("upto: 4", "upto: 5"))
    assert run_plan(load_plan(within)).status == "pass"
    path = write_plan(tmp_path, doc.replace("upto: 4", "upto: 6"))
    with pytest.raises(PlanError) as err:
        load_plan(path)
    assert "limit 5" in str(err.value)
    assert main(["verify", str(path)]) == 2


# a complete check of each kind that reads fields unconditionally
COMPLETE = {
    "row-gf": {"values": "[1, 1]"},
    "hankel-tp": {"size": 2, "order": 2},
    "hankel-factorization": {"size": 2},
    "tridiagonal-criteria": {"expect": "[i]"},
    "k-lcx": {"k": 1},
    "oracle-match": {"oracle": "perms-by-descents", "upto": 2},
    "product-formula": {"factor": 1},
    "convolution-sm": {"x": "ones", "y": "ones", "size": 2, "order": 1, "upto": 2},
    "companion-relation": {
        "a0": 0, "a1": 1, "a2": 0, "b0": 1, "b1": 0, "b2": 0, "d": 1, "lam": 1, "upto": 2,
    },
}


@pytest.mark.parametrize(
    "kind, field",
    [(kind, f) for kind, fields in COMPLETE.items() for f in fields if f != "upto"]
    + [("oracle-match", "upto")],
)
def test_required_fields_are_load_errors(tmp_path, kind, field):
    def plan(fields):
        body = "".join(f"    {key}: {value}\n" for key, value in fields.items())
        head = WALK if kind in ("hankel-factorization", "tridiagonal-criteria") else MINIMAL
        return head.split("checks:")[0] + f"checks:\n  - kind: {kind}\n{body}"

    load_plan(write_plan(tmp_path, plan(COMPLETE[kind])))
    path = write_plan(tmp_path, plan({k: v for k, v in COMPLETE[kind].items() if k != field}))
    with pytest.raises(PlanError) as err:
        load_plan(path)
    assert repr(field) in str(err.value)
    assert main(["verify", str(path)]) == 2


def test_cf_match_needs_a_complete_fraction(tmp_path):
    head = MINIMAL.split("checks:")[0] + "checks:\n  - kind: cf-match\n"
    for body in ("", "    alpha-even: q\n", "    s: 1\n", "    r-list: [1]\n"):
        path = write_plan(tmp_path, head + body)
        with pytest.raises(PlanError) as err:
            load_plan(path)
        assert "continued-fraction data" in str(err.value)
        assert main(["verify", str(path)]) == 2
    complete = head + "    depth: 4\n    alpha-even: q\n    alpha-odd: 1\n"
    report = run_plan(load_plan(write_plan(tmp_path, complete)))
    assert report.checks[0]["status"] == "fail"  # ran, and (1 + q)^n is not this fraction


def _lists_with_zero(length, start):
    # generic positive entries, alone and with each one in turn set to zero
    values = list(range(start, start + length))
    yield values
    for i in range(length):
        yield values[:i] + [0] + values[i + 1:]


def test_cf_match_list_lengths_load_exactly_when_they_expand(tmp_path):
    # a cf-match list loads at a depth iff expanding it that deep raises no
    # DegenerateFraction, with generic entries and with a zero entry; the
    # lists that expand are loaded together, as the checks of one plan
    ctx = VarContext(["q"])
    cases = [{"alphas": a} for n in range(1, 12) for a in _lists_with_zero(n, 2)]
    cases += [{"s-list": list(range(2, 2 + ns)), "r-list": r}
              for ns in range(1, 7) for nr in range(1, 7) for r in _lists_with_zero(nr, 3)]

    def expands(case, depth):
        lists = [[ctx.const(v) for v in values] for values in case.values()]
        if "alphas" in case:
            expand, fraction = s_expand, SFraction.from_list(ctx, *lists)
        else:
            expand, fraction = j_expand, JFraction.from_lists(ctx, *lists)
        try:
            expand(fraction, depth)
        except DegenerateFraction:
            return False
        return True

    def plan(depth, checks):
        body = ", ".join(
            "{kind: cf-match, depth: %d, %s}" % (depth, ", ".join(f"{k}: {v}" for k, v in c.items()))
            for c in checks
        )
        return write_plan(tmp_path, f"vars: [q]\ntriangle: {{c0: 1, c1: 1, depth: 10}}\n"
                                    f"checks: [{body}]\n")

    for depth in range(1, 11):
        good = [case for case in cases if expands(case, depth)]
        assert len(load_plan(plan(depth, good)).checks) == len(good)
        for case in cases:
            if case not in good:
                with pytest.raises(PlanError, match="needs .* values"):
                    load_plan(plan(depth, [case]))


def test_short_alphas_name_the_first_missing_alpha(tmp_path):
    doc = _with_check("  - kind: cf-match\n    alphas: [1, 2, 3]\n")
    with pytest.raises(PlanError, match=r"'alphas': depth 4 needs more values "
                                        r"\(alpha_3 not provided\)"):
        load_plan(write_plan(tmp_path, doc))
    # whatever level of the contraction is missing, the first alpha missing
    # is the one after the list
    for alphas in (a for n in range(1, 10) for a in _lists_with_zero(n, 2)):
        for depth in range(1, 11):
            doc = ("vars: [q]\ntriangle: {c0: 1, c1: 1, depth: 10}\n"
                   f"checks: [{{kind: cf-match, depth: {depth}, alphas: {alphas}}}]\n")
            try:
                load_plan(write_plan(tmp_path, doc))
            except PlanError as exc:
                assert f"(alpha_{len(alphas)} not provided)" in str(exc)


REPRO_SCALE_AT_POINT = """\
name: scale-in-the-gf-variable
vars: [q]
triangle:
  kind: row-shift
  c0: "q"
  c1: "1"
  denominator: q
  depth: 4
checks:
  - kind: product-formula
    factor: "2"
    eval-at: "1"
  - kind: cf-match
    alphas: [2, 0, 0, 0, 0]
    eval-at: "1"
  - kind: product-formula
    factor: "2"
    eval-at: "3"
"""


def test_eval_at_evaluates_a_scale_in_the_gf_variable(tmp_path):
    # true coefficients 1 and 1/q, cleared by q: the true rows are 2^n at every q
    path = write_plan(tmp_path, REPRO_SCALE_AT_POINT)
    assert main(["verify", str(path)]) == 0
    wrong = write_plan(tmp_path, REPRO_SCALE_AT_POINT.replace('factor: "2"', 'factor: "3"'),
                       name="wrong.yaml")
    assert main(["verify", str(wrong)]) == 1
    # a prescaled fraction describes the stored rows, which are defined at a
    # zero of the denominator: 2^n q^n is 0 at q = 0 for n >= 1
    zero = write_plan(tmp_path, REPRO_SCALE_AT_POINT.split("  - kind: product-formula")[0]
                      + '  - kind: cf-match\n    alphas: [0, 0, 0, 0]\n    prescaled: true\n'
                        '    eval-at: "0"\n', name="zero.yaml")
    assert main(["verify", str(zero)]) == 0


# true coefficients 1 and 1/q, cleared by q: the true rows are 2^n at every q
REPRO_ROW_GF = """\
vars: [q]
triangle: {c0: q, c1: 1, denominator: q, depth: 3}
checks:
  - kind: row-gf
    at: {q: 2}
    values: [1, 2, 4, 8]
"""


def test_row_gf_compares_the_true_rows(tmp_path, capsys):
    assert main(["verify", str(write_plan(tmp_path, REPRO_ROW_GF))]) == 0
    capsys.readouterr()
    cleared = write_plan(tmp_path, REPRO_ROW_GF.replace("[1, 2, 4, 8]", "[1, 4, 16, 64]"),
                         name="cleared.yaml")
    assert main(["verify", str(cleared), "--format", "json"]) == 1
    detail = json.loads(capsys.readouterr().out)["plans"][0]["checks"][0]["detail"]
    # the mismatch is in true values; the rows are the stored, cleared ones
    assert detail["mismatch"] == {"row": 1, "got": "2", "want": "4"}
    assert detail["rows"] == ["1", "2*q", "4*q^2", "8*q^3"]
    zero = write_plan(tmp_path, REPRO_ROW_GF.replace("{q: 2}", "{q: 0}"), name="zero.yaml")
    with pytest.raises(PlanError, match="'at': the denominator q vanishes at q = 0"):
        load_plan(zero)
    assert main(["verify", str(zero)]) == 2


def test_row_gf_shows_a_true_row_that_is_not_a_polynomial(tmp_path, capsys):
    # true row 1 is (2q + 2) / (2q), shown unreduced
    plan = write_plan(tmp_path, """\
vars: [q]
triangle: {c0: 2, c1: 2, denominator: "2*q", depth: 2}
checks:
  - kind: row-gf
    values: [1, 2, 4]
""")
    assert main(["verify", str(plan), "--format", "json"]) == 1
    detail = json.loads(capsys.readouterr().out)["plans"][0]["checks"][0]["detail"]
    assert detail["mismatch"] == {"row": 1, "got": "(2*q + 2) / (2*q)", "want": "2"}


# true rows: the unsigned Stirling numbers of the first kind
REPRO_ORACLE = """\
vars: [q, a]
triangle: {c0: "2*n - 2", c1: "2", denominator: "2", depth: 5}
checks:
  - kind: oracle-match
    oracle: perms-by-cycles
    upto: 4
  - kind: row-gf
    at: {q: 1}
    values: [1, 1, 2, 6, 24]
"""


def test_oracle_match_compares_the_true_rows(tmp_path, capsys):
    assert main(["verify", str(write_plan(tmp_path, REPRO_ORACLE))]) == 0
    capsys.readouterr()
    off = write_plan(tmp_path, REPRO_ORACLE.replace("c1: \"2\"", "c1: \"4\""), name="off.yaml")
    assert main(["verify", str(off), "--format", "json"]) == 1
    check = json.loads(capsys.readouterr().out)["plans"][0]["checks"][0]
    assert check["detail"] == {"n": 1, "got": ["0", "2"], "want": [0, 1]}
    # a scale still symbolic after specialization cannot equal an integer count
    symbolic = write_plan(tmp_path, REPRO_ORACLE.replace('denominator: "2"', "denominator: a"),
                          name="symbolic.yaml")
    with pytest.raises(PlanError, match="denominator a is symbolic"):
        load_plan(symbolic)
    assert main(["verify", str(symbolic)]) == 2
    assert main(["verify", str(symbolic), "--specialize", "a=2"]) == 0


def test_cf_match_lists_that_load_are_enough(tmp_path):
    # a list that loads expands as the plain walk expands it padded with
    # values in a fresh variable x, so the expansion never reads past what
    # the list gives; generic lists load from README's lengths on
    cases = [{"alphas": a} for n in range(1, 12) for a in _lists_with_zero(n, 2)]
    cases += [{"s-list": list(range(2, 2 + ns)), "r-list": r}
              for ns in range(1, 7) for nr in range(1, 7) for r in _lists_with_zero(nr, 3)]
    for depth in range(1, 11):
        for case in cases:
            fields = ", ".join(f"{k}: {v}" for k, v in case.items())
            path = write_plan(tmp_path, "vars: [q, x]\ntriangle: {c0: 1, c1: 1, depth: 10}\n"
                                        f"checks: [{{kind: cf-match, depth: {depth}, {fields}}}]\n")
            try:
                plan = load_plan(path)
            except PlanError:
                plan = None
            if all(v for values in case.values() for v in values):
                if "alphas" in case:
                    loads = len(case["alphas"]) >= depth
                else:
                    loads = (len(case["s-list"]) >= (depth + 1) // 2
                             and len(case["r-list"]) >= depth // 2)
                assert (plan is not None) == loads, (depth, case)
            if plan is None:
                continue
            fraction, ctx = plan.checks[0]["fraction"], plan.ctx
            pad = tuple(ctx.var("x") + i for i in range(2 * depth + 2))
            if "alphas" in case:
                got = s_expand(fraction, depth)
                walk = contract(SFraction(ctx, fraction.even + pad, fraction.odd + pad))
            else:
                got = j_expand(fraction, depth)
                walk = JFraction(ctx, fraction.s_levels + pad, fraction.r_levels + pad)
            assert got == reference_walk(walk, depth), (depth, case)


def test_gf_var_must_be_declared(tmp_path):
    for doc in (
        MINIMAL.replace("vars: [q]\n", ""),
        MINIMAL.replace("vars: [q]\n", "vars: [x]\n"),
        MINIMAL.replace("vars: [q]\n", "vars: [q]\ngf-var: n\n"),
    ):
        path = write_plan(tmp_path, doc)
        with pytest.raises(PlanError) as err:
            load_plan(path)
        assert "gf-var" in str(err.value)
        assert main(["verify", str(path)]) == 2
    doc = MINIMAL.replace("vars: [q]\n", "vars: [x]\ngf-var: x\n")
    assert run_plan(load_plan(write_plan(tmp_path, doc))).status == "pass"


WALK = """\
name: walk
vars: [q]
triangle:
  kind: column-walk
  r: "1"
  s: "k + 1"
  t: "k"
  depth: 4
checks:
  - kind: tridiagonal-criteria
    upto: 2
    expect: [i]
"""


def _with_check(body):
    return MINIMAL + body  # the new check is check 2


# no Eulerian triangle, yet its row 0 is 1 like that of every triangle
SHIFTED = ORACLE.replace('c0: "k"', 'c0: "k + 5"').split("  - kind:")[0]
SHIFTED_0 = SHIFTED.replace("depth: 4", "depth: 0")
# not totally positive, with negative entries, yet its row 0 is 1
NEGATIVE = SHIFTED.replace('c0: "k + 5"', 'c0: "-k - 5"').replace(
    'c1: "n - k + 1"', 'c1: "n - k - 9"')


@pytest.mark.parametrize(
    "doc, index, field",
    [
        # check field values
        (_with_check("  - kind: hankel-tp\n    source: bogus\n    size: 2\n    order: 2\n"),
         2, "source"),
        (_with_check("  - kind: k-lcx\n    source: bogus\n    k: 1\n"), 2, "source"),
        (_with_check("  - kind: convolution-sm\n    x: bogus\n    y: ones\n    upto: 2\n"
                     "    size: 2\n    order: 1\n"), 2, "x"),
        (_with_check("  - kind: convolution-sm\n    x: [1]\n    y: ones\n    upto: 2\n"
                     "    size: 2\n    order: 1\n"), 2, "x"),
        (_with_check("  - kind: cf-match\n    alphas: 3\n"), 2, "alphas"),
        (_with_check("  - kind: cf-match\n    s-list: [1]\n    r-list: 2\n"), 2, "r-list"),
        (_with_check('  - kind: cf-match\n    alpha-even: "q + + n)"\n    alpha-odd: "1"\n'),
         2, "alpha-even"),
        (_with_check('  - kind: cf-match\n    s: "1"\n    r: "q"\n    eval-at: "q +"\n'),
         2, "eval-at"),
        (_with_check('  - kind: product-formula\n    factor: "(q"\n    upto: 2\n'), 2, "factor"),
        (_with_check('  - kind: row-gf\n    values: ["1", "q +"]\n'), 2, "values"),
        (_with_check("  - kind: row-gf\n    at: {q: abc}\n    values: [1, 1]\n"), 2, "at"),
        (_with_check("  - kind: row-gf\n    at: {q: 1, k: 7}\n    values: [1, 1]\n"), 2, "at"),
        (MINIMAL.replace("vars: [q]", "vars: [q, a]\nspecialize: {a: 2}")
         + "  - kind: row-gf\n    at: {q: 1, a: 1}\n    values: [1, 1]\n", 2, "at"),
        (_with_check("  - kind: triangle-build\n    golden: 3\n"), 2, "golden"),
        (_with_check("  - kind: tridiagonal-criteria\n    upto: 2\n    expect: [i]\n"),
         2, "kind"),
        (_with_check("  - kind: hankel-factorization\n    size: 2\n"), 2, "kind"),
        (_with_check("  - kind: cf-match\n    alphas: [1, 2, 3]\n"), 2, "alphas"),
        (_with_check("  - kind: cf-match\n    s-list: [1]\n    r-list: [1, 2]\n"), 2, "s-list"),
        (_with_check("  - kind: cf-match\n    s-list: [1, 2]\n    r-list: [1]\n"), 2, "r-list"),
        # a closed form may name n but not k; a listed level names neither
        (_with_check('  - kind: cf-match\n    s: "k + 1"\n    r: "n"\n'), 2, "s"),
        (_with_check('  - kind: cf-match\n    alpha-even: "n + 1"\n    alpha-odd: "k + 1"\n'),
         2, "alpha-odd"),
        (_with_check('  - kind: cf-match\n    depth: 1\n    alphas: ["n"]\n'), 2, "alphas"),
        (_with_check('  - kind: cf-match\n    s-list: [1, 2]\n    r-list: ["k", 1]\n'),
         2, "r-list"),
        (_with_check("  - kind: k-lcx\n    k: 4\n"), 2, "k"),
        (MINIMAL.replace('  c1: "1"\n', '  c1: "1"\n  denominator: q\n')
         + '  - kind: product-formula\n    factor: "3"\n    eval-at: "0"\n', 2, "eval-at"),
        (MINIMAL.replace("vars: [q]", "vars: [q, a]\nspecialize: {a: 0}").replace(
            '  c1: "1"\n', '  c1: "1"\n  denominator: q\n')
         + '  - kind: cf-match\n    alphas: [2, 0, 0, 0]\n    eval-at: "a"\n', 2, "eval-at"),
        (_with_check("  - kind: convolution-sm\n    x: ones\n    y: ones\n    upto: 3\n"
                     "    size: 4\n    order: 1\n"), 2, "size"),
        (_with_check("  - kind: oracle-match\n    oracle: perms-by-descents\n    upto: 2\n"
                     "    row-offset: -2\n"), 2, "row-offset"),
        (WALK.replace('  t: "k"\n', '  t: "k"\n  denominator: q\n'), 0, "specialize"),
        (ORACLE.replace("vars: [q]", "vars: [q, a]").replace('c0: "k"', 'c0: "a*k"'), 0, "c0"),
        # no row is compared, so any triangle would pass
        (ORACLE.replace('c0: "k"', 'c0: "k + 5"').replace("upto: 4", "upto: 0"), 0, "upto"),
        # only row 0 is compared, so any triangle would pass
        (SHIFTED + '  - kind: cf-match\n    depth: 0\n    alphas: ["5"]\n', 0, "depth"),
        (SHIFTED + '  - kind: product-formula\n    factor: "k + 100"\n    upto: 0\n', 0, "upto"),
        (SHIFTED + "  - kind: companion-relation\n"
         + "".join(f'    {nm}: "1"\n' for nm in ("a0", "a1", "a2", "b0", "b1", "b2", "d", "lam"))
         + "    upto: 0\n", 0, "upto"),
        # an omitted range is the triangle depth, here 0, so only row 0 is compared
        (SHIFTED_0 + '  - kind: cf-match\n    alphas: ["5"]\n', 0, "depth"),
        (SHIFTED_0 + '  - kind: product-formula\n    factor: "k + 100"\n', 0, "upto"),
        (SHIFTED_0 + "  - kind: companion-relation\n"
         + "".join(f'    {nm}: "1"\n' for nm in ("a0", "a1", "a2", "b0", "b1", "b2", "d", "lam")),
         0, "upto"),
        # a one-value row-gf and a 1x1 Hankel block hold only row 0
        (SHIFTED + '  - kind: row-gf\n    values: ["1"]\n', 0, "values"),
        (NEGATIVE + "  - kind: hankel-tp\n    size: 1\n    order: 1\n", 0, "size"),
        (NEGATIVE + "  - kind: hankel-tp\n    source: first-column\n    size: 1\n    order: 1\n",
         0, "size"),
        (WALK.split("  - kind:")[0] + "  - kind: hankel-factorization\n    size: 1\n", 0, "size"),
        # plan sections
        (WALK.replace('  t: "k"\n', ""), None, "t"),
        (MINIMAL.replace("vars: [q]", "vars: [q, 3]"), None, "vars"),
        (MINIMAL.replace("vars: [q]", "vars: [q, q]"), None, "vars"),
        (MINIMAL.replace("vars: [q]", "vars: [q]\nspecialize: [1]"), None, "specialize"),
        (MINIMAL.replace("vars: [q]", "vars: [q]\nspecialize: {n: 3}"), None, "specialize"),
        (MINIMAL.replace("vars: [q]", "vars: [q]\nspecialize: {k: 1}"), None, "specialize"),
        (MINIMAL.replace("vars: [q]", "vars: [q]\nspecialize: {q: 1}"), None, "specialize"),
        (MINIMAL.replace("vars: [q]", "vars: [q, a]\nspecialise: {a: 2}"), None, "specialise"),
        (MINIMAL.replace('  c1: "1"\n', '  c1: "1"\n  denominator: "n - 3"\n'),
         None, "denominator"),
        (MINIMAL.replace('  c1: "1"\n', '  c1: "1"\n  denominator: "-1"\n'),
         None, "denominator"),
        (MINIMAL.replace("vars: [q]", "vars: [q, a]\nspecialize: {a: -1}").replace(
            '  c1: "1"\n', '  c1: "1"\n  denominator: a\n'), None, "denominator"),
        (MINIMAL.replace('  c1: "1"\n', '  c1: "1"\n  denominator: k\n'), None, "denominator"),
        (WALK.replace('s: "k + 1"', 's: "k + 1 + n"'), None, "s"),
        (MINIMAL.replace("vars: [q]", "vars: [q, a]").replace('c0: "1"', 'c0: "a^65536"'),
         None, "c0"),
        # unknown keys and criteria names
        (_with_check("  - kind: k-lcx\n    sorce: first-column\n    k: 1\n"), 2, "sorce"),
        (MINIMAL.replace('  c1: "1"\n', '  c1: "1"\n  cc1: "1"\n'), None, "cc1"),
        (WALK.replace("expect: [i]", "expect: [i, v]"), 0, "expect"),
        (WALK.replace("expect: [i]", "expect: []"), 0, "expect"),
    ],
    ids=[
        "hankel-tp-source", "k-lcx-source", "builtin-sequence", "short-sequence",
        "alphas-shape", "r-list-shape", "alpha-even-syntax", "eval-at-syntax", "factor-syntax",
        "values-syntax", "at-rational", "at-undeclared", "at-specialized", "golden-name", "tridiagonal-on-row-shift",
        "factorization-on-row-shift", "alphas-short", "s-list-short", "r-list-short",
        "s-in-k", "alpha-odd-in-k", "alphas-in-n", "r-list-in-k",
        "k-lcx-k-above-3", "eval-at-zero-of-denominator", "eval-at-specialized-to-zero",
        "convolution-size-above-upto", "row-offset-below-minus-1", "criteria-symbolic-denominator",
        "oracle-symbolic-coefficient", "oracle-upto-0", "cf-match-depth-0",
        "product-formula-upto-0", "companion-relation-upto-0", "cf-match-depth-from-depth-0",
        "product-formula-upto-from-depth-0", "companion-relation-upto-from-depth-0",
        "row-gf-one-value", "hankel-tp-size-1", "hankel-tp-first-column-size-1",
        "hankel-factorization-size-1",
        "walk-without-t", "vars-name", "vars-repeated", "specialize-mapping",
        "specialize-n", "specialize-k", "specialize-gf-var", "unknown-plan-key",
        "denominator-monomial", "denominator-negative", "denominator-specialized-negative",
        "denominator-in-k", "walk-s-in-n", "exponent-overflow", "unknown-check-key", "unknown-triangle-key",
        "expect-names", "expect-empty",
    ],
)
def test_bad_fields_are_load_errors(tmp_path, doc, index, field):
    path = write_plan(tmp_path, doc)
    with pytest.raises(PlanError) as err:
        load_plan(path)
    message = str(err.value)
    assert str(path) in message and repr(field) in message
    if index is not None:
        assert f"check {index} " in message
    assert main(["verify", str(path)]) == 2


# the bell walk r = 1, s = k + 1, t = k, stored doubled over denominator 2
REPRO_CRITERIA = WALK.replace('  r: "1"\n  s: "k + 1"\n  t: "k"\n',
                              '  r: "2"\n  s: "2*k + 2"\n  t: "2*k"\n  denominator: "2"\n'
                              ).replace("expect: [i]", "expect: [i, iii]")


def test_tridiagonal_criteria_judge_the_true_walk(tmp_path, capsys):
    # criterion iii, s_n >= r_(n-1) t_n + 1, is not homogeneous: on the
    # stored coefficients it reads 2k + 2 >= 4k + 1 and fails
    assert main(["verify", str(write_plan(tmp_path, REPRO_CRITERIA)), "--format", "json"]) == 0
    check = json.loads(capsys.readouterr().out)["plans"][0]["checks"][0]
    assert check["detail"] == {"criteria": ["i", "iii"]}


def test_exponent_overflow_at_run_time_is_an_error(tmp_path):
    # row 2 holds a^40000 * a^40000, which used to carry into q and report
    # got "1 + 3"
    doc = """\
name: overflow
vars: [q, a]
triangle:
  kind: row-shift
  c0: "a^40000"
  c1: "1"
  depth: 2
checks:
  - kind: row-gf
    at: {q: 1, a: 1}
    values: ["1", "2", "4"]
"""
    report = run_plan(load_plan(write_plan(tmp_path, doc)))
    assert report.checks == [{"kind": "row-gf", "status": "error",
                              "detail": {"message": "ValueError: an exponent exceeds 65535"}}]


def test_hankel_factorization_reads_the_plans_triangle(monkeypatch):
    # a J-fraction whose downstep weights are shifted up one level no longer
    # expands to the triangle's first column
    plan = load_plan(PLANS / "bell-walk.yaml")
    assert run_plan(plan).status == "pass"
    weights = contfrac._star_weights
    monkeypatch.setattr(contfrac, "_star_weights",
                        lambda spec: weights(spec).substitute_poly("k", spec.ctx.var("k") + 1))
    report = run_plan(plan)
    assert {c["kind"]: c["status"] for c in report.checks}["hankel-factorization"] == "fail"
    assert report.status == "fail"


def test_readme_field_tables_match_the_code():
    def default(value):
        if value is cli._REQUIRED or value is None:
            return ""
        if value is cli._DEPTH:
            return "triangle depth"
        if isinstance(value, bool):
            return f"`{str(value).lower()}`"
        return f"`{list(value) if isinstance(value, tuple) else value}`"

    def rows(kind, fields, forms=()):
        for name, (parse, value) in fields.items():
            if any(name in keys for keys in forms):
                required = "one form"
            else:
                required = "yes" if value is cli._REQUIRED else "no"
            yield f"| `{kind}` | `{name}` | {parse.__doc__} | {required} | {default(value)} |"

    want = [row for kind, fields in cli._TRIANGLES.items() for row in rows(kind, fields)]
    for kind, entry in cli._CHECKS.items():
        want += rows(kind, entry["fields"], entry["forms"])
    readme = (PLANS.parent / "README.md").read_text().splitlines()
    assert [line for line in readme if line.startswith("| `") and line.count("|") == 6] == want


def test_readme_module_table_names_what_each_module_has():
    readme = (PLANS.parent / "README.md").read_text()
    section = readme.split("## What's inside\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `tpcert.")]
    modules = {f"tpcert.{m.name}" for m in pkgutil.iter_modules(tpcert.__path__)}
    assert {cell.strip(" `") for cell, _ in rows} == modules
    for cell, contents in rows:
        module = importlib.import_module(cell.strip(" `"))
        for name in re.findall(r"`([^`]+)`", contents):
            if name.isidentifier():  # not a type such as list[Poly]
                assert hasattr(module, name), f"README lists {module.__name__}.{name}"


@pytest.mark.parametrize(
    "field, value",
    [
        ("size", "two"), ("size", "2.5"), ("size", "true"), ("size", '"2"'),
        ("size", "0"), ("order", "[2]"), ("order", "0"),
    ],
)
def test_non_integer_fields_are_load_errors(tmp_path, field, value):
    doc = MINIMAL.replace(f"    {field}: 2\n", f"    {field}: {value}\n")
    assert doc != MINIMAL
    path = write_plan(tmp_path, doc)
    with pytest.raises(PlanError) as err:
        load_plan(path)
    assert repr(field) in str(err.value)
    assert main(["verify", str(path)]) == 2


def test_integer_fields_of_every_kind_are_checked_at_load(tmp_path):
    for old, new in (
        ("  depth: 4\n", "  depth: four\n"),
        ("  depth: 4\n", "  depth: -1\n"),
        ("  - kind: triangle-build\n", "  - kind: k-lcx\n    k: 1.5\n"),
        ("  - kind: triangle-build\n", "  - kind: cf-match\n    depth: '3'\n"),
        ("  - kind: triangle-build\n", "  - kind: product-formula\n    upto: x\n"),
    ):
        doc = MINIMAL.replace(old, new)
        assert doc != MINIMAL
        with pytest.raises(PlanError):
            load_plan(write_plan(tmp_path, doc))
    for old, new in (("upto: 4", "upto: four"), ("row-offset: 0", "row-offset: 0.0")):
        with pytest.raises(PlanError):
            load_plan(write_plan(tmp_path, ORACLE.replace(old, new)))


def test_flags_must_be_booleans(tmp_path):
    cf = MINIMAL + "  - kind: cf-match\n    s: n + 1\n    r: n^2\n    prescaled: "
    for value in ('"no"', "0", "yes please", "'false'"):
        with pytest.raises(PlanError) as err:
            load_plan(write_plan(tmp_path, cf + value + "\n"))
        assert "'prescaled'" in str(err.value)
    assert load_plan(write_plan(tmp_path, cf + "false\n")).checks[-1]["prescaled"] is False


def test_every_hankel_tp_scan_is_exhaustive(tmp_path):
    # the contiguous-window pre-filter is gone: a plan naming it is a load
    # error, and the report key it set stays, always false
    path = write_plan(tmp_path, MINIMAL + "    contiguous-only: false\n")
    with pytest.raises(PlanError, match=r"\(hankel-tp\) has unknown key 'contiguous-only'"):
        load_plan(path)
    assert main(["verify", str(path)]) == 2
    block = tpcert.hankel([VarContext(["q"]).one] * 3, 2)
    with pytest.raises(TypeError):
        tpcert.is_totally_positive(block, 2, contiguous_only=True)
    report = run_plan(load_plan(write_plan(tmp_path, MINIMAL)))
    assert report.checks[-1]["detail"]["contiguous_only"] is False
    assert report.checks[-1]["detail"]["minors_checked"] == 5


@pytest.mark.parametrize("flag", ["--depth", "--hankel-size", "--tp-order", "--jobs"])
def test_zero_overrides_are_usage_errors(flag, capsys):
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(PLANS / "factorial.yaml"), flag, value])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


def test_zero_overrides_are_applied_by_load_plan(tmp_path):
    plan = load_plan(write_plan(tmp_path, MINIMAL.split("checks:")[0] + "checks: []\n"),
                     {"depth": 0})
    assert plan.depth == 0
    with pytest.raises(PlanError):  # depth 0 holds no size-2 Hankel block
        load_plan(write_plan(tmp_path, MINIMAL), {"depth": 0})


def test_report_determinism(tmp_path):
    plan_path = write_plan(tmp_path, MINIMAL)
    reports = []
    for _ in range(2):
        report = run_plan(load_plan(plan_path))
        report.timings = {}  # timings are excluded from the hashed body
        reports.append(emit_report([report], "json"))
    assert reports[0] == reports[1]
    parsed = json.loads(reports[0])
    assert parsed["status"] == "pass"


def test_text_format_summary(tmp_path):
    report = run_plan(load_plan(write_plan(tmp_path, MINIMAL)))
    text = emit_report([report], "text")
    assert "plan mini: PASS" in text
    assert "2 check(s)" in text


def test_golden_regen_and_compare(tmp_path):
    doc = MINIMAL.replace(
        "  - kind: triangle-build",
        "  - kind: triangle-build\n    golden: mini.golden.tsv",
    )
    plan_path = write_plan(tmp_path, doc)
    # first regenerate, then compare against the regenerated file
    assert main(["verify", str(plan_path), "--golden-dir", str(tmp_path)]) == 0
    assert (tmp_path / "mini.golden.tsv").exists()
    assert main(["verify", str(plan_path)]) == 0
    # corrupt the golden file: comparison must fail
    golden = tmp_path / "mini.golden.tsv"
    golden.write_text(golden.read_text().replace("2", "3"))
    assert main(["verify", str(plan_path)]) == 1


def _specialized_plans():
    # each shipped plan with every parameter other than n, k and gf-var at
    # 3/2, and README's example
    rows = []
    for path in sorted(PLANS.glob("*.yaml")):
        plan = load_plan(path)
        params = [v for v in plan.ctx.names if v not in (*cli.RESERVED_VARS, plan.gf_var)]
        rows.append(pytest.param(path.name, [f"{v}=3/2" for v in params], id=path.stem))
    return rows + [pytest.param("whitney.yaml", ["m=1", "r=1"], id="readme-whitney")]


def _doubled(doc: dict) -> dict:
    """The plan with every recurrence coefficient and the denominator (1 if
    none) doubled: stored rows 2^n times the old ones, the same true rows."""
    tri = dict(doc["triangle"])
    for key in ("c0", "c1", "c2", "r", "s", "t", "denominator"):
        if key in tri:
            tri[key] = f"2*({tri[key]})"
    tri.setdefault("denominator", "2")
    return {**doc, "triangle": tri}


def _reads_stored_rows(check: dict) -> bool:
    """A golden file and a prescaled fraction read the stored rows by design."""
    return bool(check.get("golden") or check.get("prescaled"))


class TestShippedPlans:
    def test_factorial_plan_passes(self):
        assert main(["verify", str(PLANS / "factorial.yaml")]) == 0

    def test_negative_plan_fails_with_witness(self, capsys):
        rc = main(["verify", str(PLANS / "peak-interior-negative.yaml"),
                   "--format", "json"])
        assert rc == 1
        out = json.loads(capsys.readouterr().out)
        lcx = [c for p in out["plans"] for c in p["checks"] if c["kind"] == "k-lcx"]
        assert lcx[0]["status"] == "fail"
        assert "-4*q^2" in lcx[0]["detail"]["witness"]

    def test_batch_mixes_pass_and_fail(self):
        rc = main([
            "verify",
            str(PLANS / "factorial.yaml"),
            str(PLANS / "peak-interior-negative.yaml"),
        ])
        assert rc == 1

    def test_full_batch_summary(self, capsys):
        # the whole shipped plan set: only the by-design negative plan fails
        plans = sorted(PLANS.glob("*.yaml"))
        assert len(plans) == 13
        rc = main(["verify"] + [str(p) for p in plans])
        out = capsys.readouterr().out
        assert rc == 1
        assert "13 plan(s)" in out
        assert out.count("FAIL") == 1
        assert "peak-interior-negative: FAIL" in out

    def test_full_batch_body_is_the_recorded_one(self, capsys, monkeypatch):
        # the report body without timings, with one worker and with two; the
        # recorded body names the golden file by the plan's path as given
        monkeypatch.chdir(PLANS.parent)
        plans = [f"plans/{p.name}" for p in sorted(PLANS.glob("*.yaml"))]
        bodies = []
        for jobs in ("1", "2"):
            assert main(["verify", *plans, "--format", "json", "--jobs", jobs]) == 1
            body = json.loads(capsys.readouterr().out)
            for plan in body["plans"]:
                del plan["timings"]
            bodies.append(body)
        assert bodies[0] == bodies[1]
        assert bodies[0] == json.loads(EXPECTED_BATCH.read_text())

    @pytest.mark.parametrize("name, assignments", _specialized_plans())
    def test_specialized_plan_keeps_its_passes(self, name, assignments, capsys):
        # a check that passes with symbolic parameters passes specialized
        argv = ["verify", str(PLANS / name), "--format", "json"]
        for assignment in assignments:
            argv += ["--specialize", assignment]
        rc = main(argv)
        got = json.loads(capsys.readouterr().out)["plans"][0]
        recorded = {p["plan"]: p for p in json.loads(EXPECTED_BATCH.read_text())["plans"]}
        want = recorded[got["plan"]]
        assert [c["kind"] for c in got["checks"]] == [c["kind"] for c in want["checks"]]
        for mine, theirs in zip(got["checks"], want["checks"]):
            if theirs["status"] == "pass":
                assert mine["status"] == "pass", mine
        assert rc == (0 if want["status"] == "pass" else 1)

    @pytest.mark.parametrize("path", sorted(PLANS.glob("*.yaml")), ids=lambda p: p.stem)
    def test_doubled_coefficients_keep_every_verdict(self, path, tmp_path):
        doc = yaml.safe_load(path.read_text())
        for golden in PLANS.glob("*.golden.tsv"):
            shutil.copy(golden, tmp_path)
        doubled = write_plan(tmp_path, yaml.safe_dump(_doubled(doc), sort_keys=False), path.name)
        before = run_plan(load_plan(path)).checks
        after = run_plan(load_plan(doubled)).checks
        assert len(after) == len(before) == len(doc["checks"])
        kept = [i for i, check in enumerate(doc["checks"]) if not _reads_stored_rows(check)]
        assert [after[i]["status"] for i in kept] == [before[i]["status"] for i in kept]

    def test_missing_plan_is_load_error(self, capsys):
        rc = main(["verify", str(PLANS / "does-not-exist.yaml")])
        assert rc == 2

    def test_jobs_flag(self):
        assert main(["verify", str(PLANS / "eulerian.yaml"), "--jobs", "2"]) == 0

    def test_hankel_overrides(self, capsys):
        rc = main(["verify", str(PLANS / "eulerian.yaml"),
                   "--hankel-size", "3", "--tp-order", "2", "--format", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        tp = [c for p in out["plans"] for c in p["checks"] if c["kind"] == "hankel-tp"]
        assert tp[0]["detail"]["truncation"] == [3, 3]
        assert tp[0]["detail"]["order"] == 2

    def test_hankel_override_beyond_depth_is_load_error(self, capsys):
        rc = main(["verify", str(PLANS / "factorial.yaml"), "--hankel-size", "6",
                   "--format", "json"])
        assert rc == 2
        out = json.loads(capsys.readouterr().out)
        assert [c["kind"] for c in out["plans"][0]["checks"]] == ["load"]

    def test_cli_entry_point_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tpcert.cli", "verify",
             str(PLANS / "bell-walk.yaml")],
            capture_output=True,
            text=True,
            # -m imports from the working directory: the package under test,
            # installed or not
            cwd=Path(tpcert.__file__).resolve().parents[1],
        )
        assert proc.returncode == 0
        assert "bell-walk: PASS" in proc.stdout
