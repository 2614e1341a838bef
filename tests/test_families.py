"""Every catalog family's continued-fraction data against its triangle.

These are the substantive identities of the library: for each family the
row polynomials (cleared where the spec declares a denominator) must match
the stored fraction's series expansion exactly, and the auxiliary closed
forms must hold symbolically.
"""

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from tpcert.cli import load_plan
from tpcert.contfrac import JFraction, SFraction, cf_match, contract, j_expand, jfraction_split
from tpcert.families import (
    CATALOG,
    MIXED_BRANCHES,
    Family,
    affine_n_family,
    centered_family,
    diagonal_family,
    fixed_argument_family,
    four_term_family,
    four_term_mixed_branch,
    general_four_term_spec,
    mixed_family,
)
from tpcert.polyring import VarContext, _map_polys
from tpcert.totalpos import hankel, is_totally_positive
from tpcert.triangles import (
    ROW_SHIFT,
    RecurrenceSpec,
    build_triangle,
    check_companion_relation,
    check_product_formula,
    companion_spec,
)

TWO_TERM = (
    "affine-n",
    "diagonal",
    "affine-k",
    "affine-nk",
    "mixed",
    "centered",
    "centered-reciprocal",
)

NAMED = (
    "whitney",
    "stirling-permutation",
    "minimax-tree",
    "interior-peak",
    "left-peak",
)


def verify_family(fam: Family, depth: int = 6) -> None:
    t = build_triangle(fam.spec, depth)
    assert t.satisfies(), fam.name
    if fam.jfraction is not None:
        assert cf_match(
            t, fam.jfraction, depth, fam.gf_var, fam.cf_prescaled, fam.product_eval_at
        ), f"{fam.name}: J-fraction mismatch"
    if fam.sfraction is not None:
        if fam.sf_split_only:
            leftover = jfraction_split(fam.jfraction, fam.sfraction)
            assert leftover is not None, f"{fam.name}: split mismatch"
            assert leftover.is_nonneg(), f"{fam.name}: split leftover not nonneg"
        else:
            assert cf_match(
                t, fam.sfraction, depth, fam.gf_var, fam.cf_prescaled,
                fam.product_eval_at,
            ), f"{fam.name}: S-fraction mismatch"
    p = fam.companion_params
    if p is not None:
        comp = companion_spec(
            fam.ctx, p["a0"], p["a1"], p["a2"], p["b0"], p["b1"], p["b2"], p["d"]
        )
        assert check_companion_relation(
            t, build_triangle(comp, depth), p["lam"], p["d"], depth, fam.gf_var
        ), f"{fam.name}: companion relation fails"


@pytest.mark.parametrize("name", TWO_TERM)
def test_two_term_families(name):
    verify_family(CATALOG[name]())


@pytest.mark.parametrize("name", NAMED)
def test_named_families(name):
    verify_family(CATALOG[name]())


@pytest.mark.parametrize("branch", MIXED_BRANCHES)
def test_mixed_branches(branch):
    verify_family(mixed_family(branch))


@pytest.mark.parametrize("variant", ("k", "nk", "k-nk"))
def test_four_term_families(variant):
    verify_family(four_term_family(variant))


@pytest.mark.parametrize("branch", MIXED_BRANCHES)
def test_four_term_mixed_branches(branch):
    verify_family(four_term_mixed_branch(branch))


@pytest.mark.parametrize("name", ("pascal", "eulerian", "stirling-cycle",
                                  "stirling-partition", "bell-walk",
                                  "symmetric-tableau", "staircase-tableau"))
def test_plain_specs_build(name):
    fam = CATALOG[name]()
    t = build_triangle(fam.spec, 5)
    assert t.satisfies()


def test_tableau_specs_structurally():
    # no independent enumerator exists for the tableau families; exercise
    # the recurrences structurally (base, shape, nonnegativity, residual)
    for name in ("symmetric-tableau", "staircase-tableau"):
        t = build_triangle(CATALOG[name]().spec, 6)
        assert t.satisfies()
        assert all(len(t.rows[n]) == n + 1 for n in range(7))
        assert all(e.is_nonneg() for row in t.rows for e in row)
        totals = [
            sum(int(e.const_value()) for e in row) for row in t.rows
        ]
        assert all(a < b for a, b in zip(totals, totals[1:]))


def test_affine_n_product_formula():
    fam = affine_n_family()
    t = build_triangle(fam.spec, 8)
    assert check_product_formula(t, fam.product_factor, 8)


def test_diagonal_closed_form():
    # rows collapse to (q+a0)^n prod_{j<n} (b2 + (b0+b1) j)
    fam = diagonal_family()
    t = build_triangle(fam.spec, 6)
    assert check_product_formula(t, fam.product_factor, 6)


def test_fixed_argument_product():
    fam = fixed_argument_family()
    t = build_triangle(fam.spec, 8)
    assert check_product_formula(
        t, fam.product_factor, 8, eval_at=fam.product_eval_at
    )


@pytest.mark.parametrize("variant", ("k", "nk", "k-nk"))
def test_four_term_companion_relation(variant):
    fam = four_term_family(variant)
    p = fam.companion_params
    t = build_triangle(fam.spec, 6)
    comp = companion_spec(
        fam.ctx, p["a0"], p["a1"], p["a2"], p["b0"], p["b1"], p["b2"], p["d"]
    )
    tc = build_triangle(comp, 6)
    assert check_companion_relation(t, tc, p["lam"], p["d"], 6)


def test_companion_specs_collapse_to_two_term_cores():
    # the mixed four-term variant's companion is (a1 k + a2 | b0(n-k) + b2),
    # and the k variant's companion is (a1 k + a2 | b1(k-1) + b2)
    fam = four_term_family("k-nk")
    p = fam.companion_params
    ctx = fam.ctx
    comp = companion_spec(ctx, p["a0"], p["a1"], p["a2"], p["b0"], p["b1"], p["b2"], p["d"])
    n, k = ctx.var("n"), ctx.var("k")
    a1, a2, b0, b2 = (ctx.var(v) for v in ("a1", "a2", "b0", "b2"))
    assert comp.coeffs[0] == a1 * k + a2
    assert comp.coeffs[1] == b0 * (n - k) + b2

    fam = four_term_family("k")
    p = fam.companion_params
    ctx = fam.ctx
    comp = companion_spec(ctx, p["a0"], p["a1"], p["a2"], p["b0"], p["b1"], p["b2"], p["d"])
    n, k = ctx.var("n"), ctx.var("k")
    a1, a2, b1, b2 = (ctx.var(v) for v in ("a1", "a2", "b1", "b2"))
    assert comp.coeffs[0] == a1 * k + a2
    assert comp.coeffs[1] == b1 * (k - 1) + b2


def test_centered_family_support_identity():
    # the centered family's two auxiliary triangles satisfy, for n <= 6,
    #   b0^n E_n(x) = sum_k S[n][k] (2 a1)^k b0^(n-k) x^k (1+x)^(n-2k)
    # with S[n][k] vanishing above k = n/2, which keeps it polynomial
    c = VarContext(["n", "k", "x", "a1", "a2", "b0"])
    n, k, x, a1, a2, b0 = (c.var(v) for v in c.names)
    symmetric = RecurrenceSpec(c, ROW_SHIFT, (a1 * k + a2, a1 * (n - k) + a2))
    halved = RecurrenceSpec(c, ROW_SHIFT, (a1 * k + a2, b0 * (n - 2 * k + 1)))
    te = build_triangle(symmetric, 6)
    ts = build_triangle(halved, 6)
    for m in range(7):
        lhs = b0**m * te.row_gf(m, "x")
        rhs = c.zero
        for j, entry in enumerate(ts.rows[m]):
            if entry.is_zero():
                continue
            assert 2 * j <= m
            rhs = rhs + entry * (2 * a1) ** j * b0 ** (m - j) * x**j * (x + 1) ** (
                m - 2 * j
            )
        assert lhs == rhs


def test_family_substitution_consistency():
    # substituted family data stays internally consistent
    base = mixed_family()
    verify_family(base.substituted("b2", base.ctx.zero))
    verify_family(base.substituted("a2", base.ctx.var("a1")))
    four = four_term_family("nk")
    verify_family(four.substituted("d", 2 * four.ctx.var("d")))
    # every free parameter doubled, as the benchmark seeds its families:
    # each level sequence, closed form or tuple, and s0 follow the spec
    for make in CATALOG.values():
        fam = make()
        jf, sf, ctx = fam.jfraction, fam.sfraction, fam.ctx
        if jf is None and sf is None:
            continue
        listed = replace(
            fam,
            jfraction=jf and JFraction.from_lists(ctx, [jf.s(i) for i in range(4)],
                                                  [jf.r(i) for i in range(1, 5)]),
            sfraction=sf and SFraction.from_list(ctx, [sf.alpha(i) for i in range(8)]),
        )
        for scaled in (fam, listed):
            for name in ctx.names:
                if name not in ("n", "k", fam.gf_var):
                    scaled = scaled.substituted(name, 2 * ctx.var(name))
            verify_family(scaled)


class TestClassicalSpecializations:
    """Generic families pinned to oracle-verified classical triangles."""

    def rows_of(self, spec, depth, assignment):
        t = build_triangle(_map_polys(spec, lambda p: p.specialize(assignment)), depth)
        return [[e for e in row] for row in t.rows]

    def test_affine_n_specializes_to_cycle_counts(self):
        fam = affine_n_family()
        got = self.rows_of(fam.spec, 6, {"a0": 1, "a2": 0, "b0": 0, "b2": 1})
        want = build_triangle(CATALOG["stirling-cycle"]().spec, 6).rows
        assert [[str(e) for e in r] for r in got] == [
            [str(e) for e in r] for r in want
        ]

    def test_mixed_specializes_to_eulerian(self):
        fam = mixed_family()
        got = self.rows_of(fam.spec, 6, {"a1": 1, "a2": 0, "b0": 1, "b2": 1})
        want = build_triangle(CATALOG["eulerian"]().spec, 6).rows
        assert [[str(e) for e in r] for r in got] == [
            [str(e) for e in r] for r in want
        ]

    def test_mixed_specializes_to_ascent_plateaus(self):
        fam = mixed_family()
        got = self.rows_of(fam.spec, 5, {"a1": 2, "a2": 0, "b0": 2, "b2": 1})
        want = build_triangle(CATALOG["stirling-permutation"]().spec, 5).rows
        assert [[str(e) for e in r] for r in got] == [
            [str(e) for e in r] for r in want
        ]

    def test_whitney_unit_weights_are_shifted_cycle_counts(self):
        # w[n][k] at m=r=1 equals the cycle-count triangle entry (n+1, k+1)
        fam = CATALOG["whitney"]()
        got = self.rows_of(fam.spec, 6, {"m": 1, "r": 1})
        cyc = build_triangle(CATALOG["stirling-cycle"]().spec, 7).rows
        for n in range(7):
            assert [str(e) for e in got[n]] == [
                str(e) for e in cyc[n + 1][1:]
            ]

    def test_four_term_degenerates_to_mixed(self):
        # with no second shift and unit clearing weight, the mixed four-term
        # triangle is the two-term mixed one
        fam = four_term_family("k-nk")
        got = self.rows_of(
            fam.spec, 5, {"d": 0, "lam": 1, "a1": 2, "a2": 3, "b0": 5, "b2": 7}
        )
        base = mixed_family()
        want = self.rows_of(base.spec, 5, {"a1": 2, "a2": 3, "b0": 5, "b2": 7})
        assert [[str(e) for e in r] for r in got] == [
            [str(e) for e in r] for r in want
        ]


@pytest.mark.parametrize(
    "name",
    ("affine-n", "diagonal", "affine-k", "affine-nk", "centered",
     "centered-reciprocal", "whitney", "stirling-permutation"),
)
def test_symbolic_hankel_tp_small(name):
    # size-4 order-3 truncation of the row-polynomial Hankel block passes
    # with every parameter symbolic
    fam = CATALOG[name]()
    t = build_triangle(fam.spec, 6)
    rep = is_totally_positive(hankel(t.row_gfs(fam.gf_var), 4), 3)
    assert rep.ok, rep.witness and rep.witness.to_dict()


@pytest.mark.parametrize(
    "maker",
    [diagonal_family, mixed_family,
     CATALOG["affine-k"], CATALOG["affine-nk"],
     CATALOG["centered"], CATALOG["centered-reciprocal"],
     lambda: four_term_family("k"),
     lambda: four_term_family("nk"),
     lambda: four_term_family("k-nk")],
    ids=["diagonal", "mixed", "affine-k", "affine-nk", "centered",
         "centered-reciprocal", "four-term-k", "four-term-nk",
         "four-term-k-nk"],
)
def test_symbolic_hankel_tp_size5(maker):
    # the deeper truncation (size 5, order 4) also passes fully symbolic
    fam = maker()
    t = build_triangle(fam.spec, 8)
    rep = is_totally_positive(hankel(t.row_gfs(fam.gf_var), 5), 4)
    assert rep.ok, rep.witness and rep.witness.to_dict()


def test_master_recurrence_matches_the_paper():
    # the symbolic triangle, stored cleared by lam, against a plain Fraction
    # evaluation of the paper's recurrence
    #   T[n][k] = lam (a0 n + a1 k + a2) T[n-1][k] + (b0 n + b1 k + b2) T[n-1][k-1]
    #           + d (d a1 - b1) / lam (n - k + 1) T[n-1][k-2]
    names = ("a0", "a1", "a2", "b0", "b1", "b2", "d", "lam")
    ctx = VarContext(["n", "k", *names])
    t = build_triangle(general_four_term_spec(ctx, *map(ctx.var, names)), 6)
    rng = random.Random(2007)
    for _ in range(5):
        point = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in names}
        a0, a1, a2, b0, b1, b2, d, lam = point.values()
        want = [[Fraction(1)]]
        for n in range(1, 7):
            prev = [Fraction(0)] * 2 + want[-1] + [Fraction(0)]  # prev[k + 2] = T[n-1][k]
            want.append([lam * (a0 * n + a1 * k + a2) * prev[k + 2]
                         + (b0 * n + b1 * k + b2) * prev[k + 1]
                         + d * (d * a1 - b1) / lam * (n - k + 1) * prev[k]
                         for k in range(n + 1)])
        got = [[e.eval(point) / lam**n for e in row] for n, row in enumerate(t.rows)]
        assert got == want, point


@pytest.mark.parametrize("name", ("affine-n", "diagonal", "whitney", "stirling-permutation"))
def test_specialization_keeps_a_symbolic_pass(name):
    # a coefficientwise pass stays a pass, with the same minors, at
    # nonnegative integer points of q and the parameters
    fam = CATALOG[name]()
    block = hankel(build_triangle(fam.spec, 6).row_gfs(fam.gf_var), 4)
    symbolic = is_totally_positive(block, 3)
    assert symbolic.ok and symbolic.minors_checked == 68
    free = [v for v in fam.ctx.names if v not in ("n", "k")]
    rng = random.Random(name)
    points = [dict.fromkeys(free, 0)] + [{v: rng.randint(0, 3) for v in free} for _ in range(3)]
    for point in points:
        # the gf-var enters with the row polynomials, so it is set last
        spec = _map_polys(fam.spec, lambda p: p.specialize(point))
        rows = [g.specialize(point) for g in build_triangle(spec, 6).row_gfs(fam.gf_var)]
        special = hankel(rows, 4)
        assert special.entries == [[e.specialize(point) for e in row] for row in block.entries]
        rep = is_totally_positive(special, 3)
        assert rep.ok and rep.minors_checked == symbolic.minors_checked, point


PLANS = Path(__file__).resolve().parent.parent / "plans"
# the shipped plans that restate a catalog family under the family's name
RESTATED = ("bell-walk", "centered", "eulerian", "fixed-argument", "left-peak",
            "minimax-tree", "stirling-permutation", "whitney")


def named_terms(p):
    """``p``'s terms keyed by (variable, exponent) pairs, which compare across
    contexts; None stays None."""
    if p is None:
        return None
    names, unpack = p.ctx.names, p.ctx.unpack
    return {tuple((nm, e) for nm, e in zip(names, unpack(key)) if e): c
            for key, c in p.terms.items()}


def series(fraction, depth):
    """The first ``depth`` + 1 series coefficients of an S- or J-fraction."""
    jf = contract(fraction) if isinstance(fraction, SFraction) else fraction
    return [named_terms(p) for p in j_expand(jf, depth)]


@pytest.mark.parametrize("name", RESTATED)
def test_shipped_plan_restates_its_catalog_family(name):
    # the plan's triangle, to its depth, and the series of each of its
    # cf-match fractions are the catalog family's, so neither drifts alone
    plan, fam = load_plan(PLANS / f"{name}.yaml"), CATALOG[name]()
    assert plan.gf_var == fam.gf_var
    ours, theirs = (build_triangle(spec, plan.depth) for spec in (plan.spec, fam.spec))
    assert [[named_terms(e) for e in row] for row in ours.rows] == [
        [named_terms(e) for e in row] for row in theirs.rows]
    assert named_terms(ours.scale) == named_terms(theirs.scale)
    for check in plan.checks:
        if check["kind"] == "cf-match":
            assert series(check["fraction"], check["depth"]) == series(fam.jfraction, check["depth"])
            assert check["prescaled"] == fam.cf_prescaled
            assert named_terms(check["eval-at"]) == named_terms(fam.product_eval_at)
        if check["kind"] == "product-formula":
            assert named_terms(check["factor"]) == named_terms(fam.product_factor)
            assert named_terms(check["eval-at"]) == named_terms(fam.product_eval_at)
    kinds = [check["kind"] for check in plan.checks]
    assert ("cf-match" in kinds) == (name not in ("bell-walk", "eulerian"))
