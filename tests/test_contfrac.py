"""Tests for continued-fraction expansion, contraction and extraction."""

import collections
import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcert import cli, contfrac, polyring, triangles
from tpcert.contfrac import (
    DegenerateFraction,
    JFraction,
    SFraction,
    _direction,
    _levels,
    cf_match,
    contract,
    extract_jfraction,
    j_expand,
    jfraction_split,
    rising_product_series,
    s_expand,
    triangle_jfraction,
)
from tpcert.families import CATALOG
from tpcert.polyring import Poly, VarContext, _map_polys
from tpcert.triangles import (
    COLUMN_WALK,
    ROW_SHIFT,
    RecurrenceSpec,
    Triangle,
    _row_mismatch,
    build_triangle,
)


@pytest.fixture
def ctx():
    return VarContext(["n", "k", "q", "a", "b", "c"])


def consts(ctx, values):
    return [ctx.const(v) for v in values]


class TestContract:
    def test_factorial_pattern(self, ctx):
        n = ctx.var("n")
        jf = contract(SFraction.from_forms(n + 1, n + 1))
        assert [jf.s(i) for i in range(4)] == [ctx.parse(s) for s in ("1", "3", "5", "7")]
        assert [jf.r(i) for i in range(1, 4)] == consts(ctx, [1, 4, 9])

    def test_geometric_list(self, ctx):
        c = ctx.var("c")
        jf = contract(SFraction.from_list(ctx, [c, ctx.zero, ctx.zero]))
        assert jf.s(0) == c
        assert jf.r(1).is_zero()

    def test_symbolic_forms(self, ctx):
        a, b, c, n = ctx.var("a"), ctx.var("b"), ctx.var("c"), ctx.var("n")
        jf = contract(SFraction.from_forms(a + n * b, (c + b) * (n + 1)))
        # s_n = odd(n-1) + even(n), r_n = even(n-1) * odd(n-1)
        assert jf.s(0) == a
        assert jf.s(2) == (c + b) * 2 + a + 2 * b
        assert jf.r(1) == a * (c + b)
        assert jf.r(2) == (a + b) * (c + b) * 2

    def test_contraction_soundness_random(self, ctx):
        rng = random.Random(42)
        for _ in range(12):
            alphas = consts(ctx, [rng.randint(0, 5) for _ in range(10)])
            sf = SFraction.from_list(ctx, alphas)
            assert s_expand(sf, 8) == j_expand(contract(sf), 8)

    def test_list_and_forms_agree(self, ctx):
        n = ctx.var("n")
        sf = SFraction.from_forms(n + 1, 2 * n + 2)
        explicit = SFraction.from_list(ctx, [sf.alpha(i) for i in range(9)])
        assert s_expand(sf, 4) == s_expand(explicit, 4)

    def test_missing_both_backings_rejected(self, ctx):
        with pytest.raises(ValueError, match="both be closed forms or both tuples"):
            SFraction(ctx, ctx.var("n") + 1, ())
        with pytest.raises(ValueError, match="must not be empty"):
            SFraction.from_list(ctx, [])

    def test_odd_holds_as_many_levels_as_even_or_one_fewer(self, ctx):
        # contract zips the two tuples, so a longer odd tuple, or one shorter
        # by two, would lose every alpha past the gap
        a, b, c, d = (ctx.const(v) for v in (2, 3, 5, 7))
        for even, odd in (((a,), (b, c, d)), ((a,), (b, c)), ((a, b, c), (d,))):
            with pytest.raises(ValueError, match="'odd' must hold as many levels"):
                SFraction(ctx, even, odd)
        for even, odd in (((a,), ()), ((a,), (b,)), ((a, c), (b,))):
            sf, depth = SFraction(ctx, even, odd), len(even) + len(odd)
            assert s_expand(sf, depth) == j_expand(contract(sf), depth)

    def test_levels_name_only_the_level_variable(self, ctx):
        # a closed form may name n, a listed level neither n nor k
        n, k, q = ctx.var("n"), ctx.var("k"), ctx.var("q")
        bad = [
            (lambda: SFraction.from_forms(n + 1, k + 1), "'odd'", "k"),
            (lambda: SFraction.from_list(ctx, [q, n]), "'odd[0]'", "n"),
            (lambda: JFraction.from_forms(k * q, n), "'s'", "k"),
            (lambda: JFraction.from_lists(ctx, [q], [k]), "'r[0]'", "k"),
            (lambda: JFraction.from_forms(n, n, s0=n + 1), "'s0[0]'", "n"),
        ]
        for make, field, index in bad:
            with pytest.raises(ValueError, match=re.escape(field) + f": .* recurrence index {index}"):
                make()
        other = VarContext(["n", "q"])
        with pytest.raises(ValueError, match="not a polynomial of the fraction's context"):
            JFraction(ctx, n, other.var("n"))
        # a one-alpha list has an empty odd tuple, and a J-fraction may list no level
        assert SFraction.from_list(ctx, [q]).odd == ()
        assert JFraction.from_lists(ctx, [], []).r_levels == ()

    def test_from_list_splits_by_parity(self, ctx):
        alphas = consts(ctx, range(1, 8))
        sf = SFraction.from_list(ctx, alphas)
        assert (sf.even, sf.odd) == (tuple(alphas[0::2]), tuple(alphas[1::2]))
        assert [sf.alpha(i) for i in range(7)] == alphas
        with pytest.raises(DegenerateFraction, match="alpha_7 not provided"):
            sf.alpha(7)

    def test_a_level_below_the_first_raises(self, ctx):
        # a negative index used to wrap to the end of a list
        n = ctx.var("n")
        fractions = [
            (SFraction.from_list(ctx, consts(ctx, [1, 2, 3])), "alpha", -1),
            (SFraction.from_forms(n + 1, n + 2), "alpha", -1),
            (JFraction.from_lists(ctx, consts(ctx, [1, 2]), consts(ctx, [3])), "s", -1),
            (JFraction.from_forms(n + 1, n, s0=ctx.one), "s", -1),
            (JFraction.from_lists(ctx, consts(ctx, [1, 2]), consts(ctx, [3])), "r", 0),
            (JFraction.from_forms(n + 1, n), "r", 0),
        ]
        for fraction, name, first_bad in fractions:
            for i in (first_bad, first_bad - 1):
                with pytest.raises(IndexError, match="below the first level"):
                    getattr(fraction, name)(i)


class TestExpand:
    def test_factorials(self, ctx):
        n = ctx.var("n")
        ser = s_expand(SFraction.from_forms(n + 1, n + 1), 8)
        assert ser == consts(ctx, [math.factorial(i) for i in range(9)])

    def test_double_factorials(self, ctx):
        n = ctx.var("n")
        ser = s_expand(SFraction.from_forms(1 + 2 * n, 2 * (n + 1)), 8)
        assert ser == consts(
            ctx, [math.prod(range(1, 2 * i, 2)) if i else 1 for i in range(9)]
        )

    def test_factorial_jfraction(self, ctx):
        n = ctx.var("n")
        jf = JFraction.from_forms(2 * n + 1, n * n)
        assert j_expand(jf, 5) == consts(ctx, [1, 1, 2, 6, 24, 120])

    def test_negative_depths_are_rejected(self, ctx):
        n = ctx.var("n")
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            j_expand(JFraction.from_forms(2 * n + 1, n * n), -3)
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            s_expand(SFraction.from_forms(n + 1, n + 1), -1)

    def test_zero_fraction(self, ctx):
        jf = JFraction.from_forms(ctx.zero, ctx.zero)
        assert j_expand(jf, 4) == [ctx.one] + [ctx.zero] * 4

    def test_geometric_sfraction(self, ctx):
        t = ctx.var("a")
        sf = SFraction.from_list(ctx, [t, ctx.zero, ctx.zero])
        assert s_expand(sf, 4) == [t**i for i in range(5)]

    def test_coefficient_locality(self, ctx):
        # changing s_m or r_m must not move series coefficients below m;
        # s_1 first enters at coefficient 3, r_2 at coefficient 4
        base = JFraction.from_lists(
            ctx, consts(ctx, [1, 2, 3, 4, 5]), consts(ctx, [1, 1, 1, 1])
        )
        s_changed = JFraction.from_lists(
            ctx, consts(ctx, [1, 99, 3, 4, 5]), consts(ctx, [1, 1, 1, 1])
        )
        r_changed = JFraction.from_lists(
            ctx, consts(ctx, [1, 2, 3, 4, 5]), consts(ctx, [1, 77, 1, 1])
        )
        a = j_expand(base, 4)
        b = j_expand(s_changed, 4)
        c = j_expand(r_changed, 4)
        assert a[:3] == b[:3] and a[3] != b[3]
        assert a[:4] == c[:4] and a[4] != c[4]

    def test_exponent_overflow_raises(self, ctx):
        # row 2 holds s_0^2 = a^80000; walks whose levels keep every product
        # within the packing width skip the check
        big = ctx.var("a", 40000)
        jf = JFraction.from_lists(ctx, [big, big], [ctx.one])
        assert j_expand(jf, 1) == [ctx.one, big]
        with pytest.raises(ValueError, match="exponent exceeds 65535"):
            j_expand(jf, 2)
        jf = JFraction.from_lists(ctx, [ctx.var("a", 20000)] * 2, [ctx.one])
        assert j_expand(jf, 3)[3] == ctx.var("a", 60000) + 3 * ctx.var("a", 20000)
        # a total degree past the width with every exponent within it
        mixed = ctx.var("a", 20000) * ctx.var("q", 20000)
        jf = JFraction.from_lists(ctx, [mixed, mixed], [ctx.one])
        assert j_expand(jf, 2)[2] == mixed * mixed + 1

    def test_missing_levels_raise(self, ctx):
        jf = JFraction.from_lists(ctx, consts(ctx, [1]), consts(ctx, []))
        with pytest.raises(DegenerateFraction):
            j_expand(jf, 3)


class TestExtract:
    def test_factorial_levels(self, ctx):
        f = consts(ctx, [math.factorial(i) for i in range(11)])
        jf = extract_jfraction(f, 4)
        assert list(jf.s_levels) == consts(ctx, [1, 3, 5, 7, 9])
        assert list(jf.r_levels) == consts(ctx, [1, 4, 9, 16])

    def test_geometric_degenerates(self, ctx):
        c = ctx.var("c")
        f = [c**i for i in range(7)]
        jf = extract_jfraction(f, 3)
        # the fraction ends at its zero r_1
        assert len(jf.r_levels) == 1 and jf.r_levels[-1].is_zero()
        assert jf.s_levels[0] == c
        assert jf.r_levels[0].is_zero()
        # and the terminated fraction expands back to the series
        assert j_expand(jf, 6) == [c**i for i in range(7)]

    def test_constant_term_must_be_one(self, ctx):
        f = consts(ctx, [2, 1, 1])
        with pytest.raises(ValueError):
            extract_jfraction(f, 1)

    def test_depth_requirement(self, ctx):
        f = consts(ctx, [1, 1, 2])
        with pytest.raises(ValueError):
            extract_jfraction(f, 3)

    def test_negative_levels_raise(self, ctx):
        with pytest.raises(ValueError, match="levels must be nonnegative"):
            extract_jfraction(consts(ctx, [1, 1, 1]), -1)

    def test_non_dividing_level_raises(self, ctx):
        # r_1 = q, and r_2 = (1 - q^2) / q is not a polynomial
        q = ctx.var("q")
        f = [ctx.one, ctx.zero, q, ctx.zero, ctx.one, ctx.zero]
        with pytest.raises(DegenerateFraction, match="r_1 = q does not divide"):
            extract_jfraction(f, 2)

    def test_orders_past_the_levels_are_not_read(self, ctx):
        # the orders past 2*levels + 1 would give c_1 the entry 1/q
        q = ctx.var("q")
        f = [ctx.one, ctx.zero, q] + [ctx.zero, ctx.one] * 3
        jf = extract_jfraction(f, 1)
        assert list(jf.s_levels) == [ctx.zero, ctx.zero]
        assert list(jf.r_levels) == [q]

    def test_terminated_fraction_ignores_the_tail(self, ctx):
        # r_2 = 0 ends the fraction before any level reads c_1[4] = 1/q
        q = ctx.var("q")
        f = [ctx.one, ctx.zero, q, ctx.zero, q * q, ctx.zero, ctx.one]
        jf = extract_jfraction(f, 3)
        assert list(jf.s_levels) == [ctx.zero, ctx.zero]
        assert list(jf.r_levels) == [q, ctx.zero]

    def test_round_trip_random_positive(self, ctx):
        rng = random.Random(7)
        for _ in range(10):
            L = 3
            s = consts(ctx, [rng.randint(1, 6) for _ in range(L + 1)])
            r = consts(ctx, [rng.randint(1, 6) for _ in range(L)])
            jf = JFraction.from_lists(ctx, s, r)
            f = j_expand(jf, 2 * L + 1)
            back = extract_jfraction(f, L)
            assert list(back.s_levels) == s
            assert list(back.r_levels) == r

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda levels: st.tuples(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                 min_size=levels + 1, max_size=levels + 1),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                 min_size=levels, max_size=levels),
    )))
    def test_round_trip_property(self, lists):
        # levels b + a q with nonnegative a, b; an r level may be zero
        ctx = VarContext(["q"])
        s, r = ([b + a * ctx.var("q") for a, b in pairs] for pairs in lists)
        levels = len(r)
        series = j_expand(JFraction.from_lists(ctx, s, r), 2 * levels + 1)
        back = extract_jfraction(series, levels)
        # the fraction comes back cut after its first zero r
        cut = next((i + 1 for i, v in enumerate(r) if not v), None)
        assert list(back.s_levels) == s[:cut]
        assert list(back.r_levels) == r[:cut]
        assert j_expand(back, 2 * levels + 1) == series

    def test_symbolic_family_series(self):
        # the affine-n family's row-polynomial series extracts back to the
        # contraction of its alpha forms
        from tpcert.families import affine_n_family

        fam = affine_n_family()
        t = build_triangle(fam.spec, 6)
        jf = extract_jfraction(t.row_gfs(), 3)
        want = contract(fam.sfraction)
        assert list(jf.s_levels) == [want.s(i) for i in range(3)]
        assert list(jf.r_levels) == [want.r(i) for i in range(1, 4)]


def to_sympy(p, symbols):
    """A Poly as a sympy expression, ``symbols`` standing for its context's names."""
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(x**e for x, e in zip(symbols, exps)))
        for exps, c in p.sorted_terms()
    ))


def nested_jfraction(s, r, z):
    """The finite J-fraction of sympy levels s_0.. and r_1.., deeper levels
    zero.  The innermost continuation is 1, so the last r still enters."""
    levels = max(len(s), len(r))
    s = list(s) + [0] * (levels - len(s))
    r = list(r) + [0] * (levels - len(r))
    f = sympy.Integer(1)
    for k in reversed(range(levels)):
        f = 1 / (1 - s[k] * z - r[k] * z**2 * f)
    return f


def assert_series_of(series, fraction, z, symbols):
    """With P/Q the fraction over one denominator, S Q - P = 0 mod z^(D+1)
    for the expansion S = series[0] + ... + series[D] z^D."""
    num, den = sympy.fraction(sympy.together(fraction))
    expansion = sympy.Add(*(to_sympy(c, symbols) * z**n for n, c in enumerate(series)))
    residual = sympy.Poly(expansion * den - num, z)
    assert not [c for (e,), c in residual.terms() if e < len(series) and c != 0]


def assert_nested_series(jf, depth):
    """``j_expand(jf, depth)`` is the series of sympy's finite fraction of
    the levels the walk reads."""
    symbols, z = sympy.symbols(jf.ctx.names), sympy.Dummy("z")
    s, r = _levels(jf, depth)
    fraction = nested_jfraction([to_sympy(v, symbols) for v in s],
                                [to_sympy(v, symbols) for v in r], z)
    assert_series_of(j_expand(jf, depth), fraction, z, symbols)


# every catalog family with a J-fraction: the first group expands
# symbolically in well under a second; the others, with many parameters,
# are expanded at a seeded positive integer point of their parameters
SYMBOLIC_FAMILIES = ("whitney", "stirling-permutation", "interior-peak", "left-peak")
POINT_FAMILIES = ("affine-n", "diagonal", "affine-k", "affine-nk", "mixed", "centered",
                  "centered-reciprocal", "fixed-argument", "minimax-tree")


class TestAgainstNestedFractions:
    """Pin the walk-based expansion against sympy's rational function of
    the finite fraction, built from the levels the walk reads."""

    def check_jfraction(self, jf, depth):
        assert_nested_series(jf, depth)

    def test_j_expand_matches_nested_fraction(self):
        rng = random.Random(2024)
        zctx = VarContext(["z"])
        for _ in range(8):
            s = [zctx.const(rng.randint(0, 5)) for _ in range(4)]
            r = [zctx.const(rng.randint(1, 5)) for _ in range(3)]
            self.check_jfraction(JFraction.from_lists(zctx, s, r), 7)

    def test_s_expand_matches_nested_fraction(self):
        rng = random.Random(77)
        zctx = VarContext(["z"])
        symbols, z = sympy.symbols(zctx.names), sympy.Dummy("z")
        for _ in range(8):
            alphas = [rng.randint(1, 5) for _ in range(7)]
            # 1/(1 - a_0 z/(1 - a_1 z/ ... (1 - a_6 z))), the next alpha zero
            f = sympy.Integer(1)
            for a in reversed(alphas):
                f = 1 / (1 - a * z * f)
            series = s_expand(SFraction.from_list(zctx, consts(zctx, alphas)), 7)
            assert_series_of(series, f, z, symbols)

    @pytest.mark.parametrize("name", SYMBOLIC_FAMILIES)
    def test_catalog_fraction_symbolic(self, name):
        self.check_jfraction(CATALOG[name]().jfraction, 8)

    @pytest.mark.parametrize("name", POINT_FAMILIES)
    def test_catalog_fraction_at_a_point(self, name):
        fam = CATALOG[name]()
        rng = random.Random(name)
        point = {v: rng.randint(1, 5) for v in fam.ctx.names
                 if v not in ("n", "k", fam.gf_var)}
        self.check_jfraction(_map_polys(fam.jfraction, lambda p: p.specialize(point)), 8)


def reference_rows(jf, depth):
    """Rows 0 .. depth of the walk D[n][k] = D[n-1][k-1] + s_k D[n-1][k] +
    r_(k+1) D[n-1][k+1], built from Poly ``*`` and ``+`` over every height
    up to n."""
    ctx = jf.ctx
    rows = [[ctx.one]]
    for n in range(1, depth + 1):
        row, new = rows[-1], []
        for k in range(n + 1):
            acc = row[k - 1] if k >= 1 else ctx.zero
            if k < len(row):
                acc = acc + jf.s(k) * row[k]
            if k + 1 < len(row):
                acc = acc + jf.r(k + 1) * row[k + 1]
            new.append(acc)
        rows.append(new)
    return rows


def reference_walk(jf, depth):
    """Series of the walk of ``reference_rows``: its first column."""
    return [row[0] for row in reference_rows(jf, depth)]


class RunLog:
    """Log every run of a packed recurrence (``triangles._Build.run``).

    ``runs`` holds one record per run: ``kind`` ("walk" for a build of
    ``contfrac._walk_build``, else "triangle"), ``ctx``, the packed
    ``direction`` and the number of ``rows`` yielded so far.  ``stepping``
    is the kind of the run that is computing a row right now."""

    def __init__(self, monkeypatch):
        self.runs, self.stepping, walks = [], None, []
        walk_build, run = contfrac._walk_build, triangles._Build.run

        def tagged(jf, depth):
            walks.append(walk_build(jf, depth))
            return walks[-1]

        def logged(build, sv, step, width, check=False):
            kind = "walk" if any(build is w for w in walks) else "triangle"
            record = SimpleNamespace(kind=kind, ctx=build.ctx, direction=(sv, step), rows=0)
            self.runs.append(record)
            rows = run(build, sv, step, width, check)
            while True:
                self.stepping = kind
                row = next(rows, None)
                if row is None:
                    return
                record.rows += 1
                yield row

        monkeypatch.setattr(contfrac, "_walk_build", tagged)
        monkeypatch.setattr(triangles._Build, "run", logged)


class TestWalkAgainstPolyArithmetic:
    """``j_expand`` walks packed fibers; the reference walk uses the
    ``Poly`` operators."""

    def test_integer_closed_forms(self, ctx):
        n, a, b, c = (ctx.var(v) for v in "nabc")
        jf = JFraction.from_forms(
            s_form=(1 + a) * (n + 1) + b * n * n + c,
            r_form=n * (a + b * n + 2 * c) - a * b,
        )
        assert j_expand(jf, 9) == reference_walk(jf, 9)

    def test_fraction_coefficients(self, ctx):
        # as in minimax-tree, r carries 1/2 and is integral at every level;
        # the 1/3 term keeps fractions in the walk entries
        n, a, b = (ctx.var(v) for v in "nab")
        jf = JFraction.from_forms(
            s_form=(1 + a) * (1 + b) * (n + 1),
            r_form=(1 + a) * (1 + b) * (n + 1) * n * a / 2 + a * b * n / 3,
        )
        series = j_expand(jf, 10)
        assert any(
            type(v) is Fraction and v.denominator > 1
            for coeff in series for v in coeff.terms.values()
        )
        assert series == reference_walk(jf, 10)

    def test_wide_levels(self, ctx):
        # levels of 26 and 22 terms, with entries of hundreds of terms
        n, a, b = (ctx.var(v) for v in "nab")
        jf = JFraction.from_forms(
            s_form=(n + 1) * (a + b) ** 24 + a,
            r_form=n * (a + 2 * b) ** 20 + b,
        )
        assert j_expand(jf, 5) == reference_walk(jf, 5)


def poly_of(ctx, terms):
    """A Poly from ``(coefficient, exponent of a, exponent of b)`` triples."""
    return ctx.from_terms((c, {"a": i, "b": j}) for c, i, j in terms)


COEFFS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
LEVEL = st.lists(st.tuples(COEFFS, st.integers(0, 3), st.integers(0, 3)), max_size=4)


class TestPackedWalk:
    """The walk runs on packed fibers and reads back only the first column;
    each case is compared with the ``Poly`` walk and with sympy."""

    def check(self, jf, depth):
        got = j_expand(jf, depth)
        assert got == reference_walk(jf, depth)
        assert_nested_series(jf, depth)
        return got

    def test_negative_coefficients(self, ctx):
        # the levels' absolute sums bound the entries loosely here
        n, a, b = (ctx.var(v) for v in "nab")
        jf = JFraction.from_forms(
            s_form=(a - 2 * b) * (n + 1) - 3 * a * a,
            r_form=n * (5 * b * b - a) - 7,
        )
        self.check(jf, 6)

    def test_rational_levels(self, ctx):
        a, b = ctx.var("a"), ctx.var("b")
        third, half = Fraction(1, 3), Fraction(1, 2)
        jf = JFraction.from_lists(
            ctx, [a * third + 1, b * half - a, a * b * Fraction(2, 5)] * 2,
            [a * half + b * third, b * Fraction(-3, 4), a * a] * 2,
        )
        series = self.check(jf, 6)
        assert series[1] == a * third + 1

    def test_zero_r_level(self, ctx):
        a, b = ctx.var("a"), ctx.var("b")
        jf = JFraction.from_lists(
            ctx, [a + b, 2 * a - b, a * b, 3 + a] * 2, [a - 1, ctx.zero, b + 2] * 3,
        )
        series = self.check(jf, 7)
        # with r_2 = 0 the walk stays in columns 0 and 1
        capped = JFraction.from_lists(ctx, [a + b, 2 * a - b] * 4, [a - 1, ctx.zero] * 4)
        assert series == j_expand(capped, 7)

    @pytest.mark.parametrize("s0, r1", [(4, 0), (255, 0), (-8, 0), (3, 4), (-2, -4), (1, -1)])
    def test_constant_levels(self, ctx, s0, r1):
        # no variable occurs, so each walk entry is one integer; with every
        # level positive the bound equals the coefficient, the widest digit
        jf = JFraction.from_lists(ctx, consts(ctx, [s0] * 6), consts(ctx, [r1] * 6))
        series = self.check(jf, 6)
        if s0 > 0 and r1 == 0:
            assert series == consts(ctx, [s0**n for n in range(7)])

    def test_without_variables(self):
        empty = VarContext([])
        jf = JFraction.from_lists(empty, consts(empty, [1, 2, -3] * 2), consts(empty, [5, -1] * 3))
        assert j_expand(jf, 5) == reference_walk(jf, 5)

    def test_univariate(self):
        zctx = VarContext(["z"])
        z = zctx.var("z")
        jf = JFraction.from_lists(zctx, [z + 1, 2 * z, z**3 - z] * 2, [z**2, 3 - z, z] * 2)
        self.check(jf, 6)

    def test_pair_homogeneous_levels(self, ctx):
        # as in centered: every level is homogeneous in (a, b), so the pair
        # (a, b) leaves each level one fiber and any single variable several
        n, a, b, q = (ctx.var(v) for v in "nabq")
        jf = JFraction.from_forms(
            s_form=(a * n + b) * (a * q + 2),
            r_form=(a * (n - 1) + 2 * b) * n * a * (a * q + 2),
        )
        s, r = _levels(jf, 6)
        shift, step = _direction(ctx, [p.terms for p in s + r])
        sa, sb = (ctx._shifts[ctx.index(v)] for v in "ab")
        assert (shift, step) == (sa, (1 << sa) - (1 << sb))
        self.check(jf, 6)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_shallow_depths(self, ctx, depth):
        a, b = ctx.var("a"), ctx.var("b")
        jf = JFraction.from_lists(ctx, [a - b, b * Fraction(1, 2)], [a * b + 1])
        self.check(jf, depth)

    @pytest.mark.parametrize("name, packed", [("minimax-tree", ("p",)),
                                              ("centered", ("a1", "a2"))])
    def test_direction_of_the_benchmark_fractions(self, name, packed):
        fam = CATALOG[name]()
        s, r = _levels(fam.jfraction, 40)
        shift, step = _direction(fam.ctx, [p.terms for p in s + r])
        shifts = [fam.ctx._shifts[fam.ctx.index(v)] for v in packed]
        if len(shifts) == 1:
            want = (shifts[0], (1 << shifts[0]) + (1 << fam.ctx._deg_shift))
        else:
            want = (shifts[0], (1 << shifts[0]) - (1 << shifts[1]))
        assert (shift, step) == want

    # the direction each shipped plan's walk and triangle build, and the
    # depth-40 benchmark matches, run along: () when no variable occurs,
    # (v,) for v alone and (v, w) for the pair v - w
    SHIPPED_DIRECTIONS = {
        "bell-walk.yaml": {("walk", ()), ("triangle", ())},
        "centered.yaml": {("walk", ("a1", "a2")), ("triangle", ("a1", "a2"))},
        "convolution.yaml": {("triangle", ())},
        "double-factorial.yaml": {("walk", ("q",)), ("triangle", ())},
        "eulerian.yaml": {("triangle", ())},
        "factorial.yaml": {("walk", ("q",)), ("triangle", ())},
        "fixed-argument.yaml": {("walk", ("a0", "a2")), ("triangle", ("a0", "a2"))},
        "four-term-mixed.yaml": {("walk", ("a1", "a2")), ("triangle", ("a1", "a2"))},
        "left-peak.yaml": {("walk", ("q",)), ("triangle", ())},
        "minimax-tree.yaml": {("walk", ("p",)), ("triangle", ("p",))},
        "peak-interior-negative.yaml": {("walk", ("q",)), ("triangle", ())},
        "stirling-permutation.yaml": {("walk", ("q",)), ("triangle", ())},
        "whitney.yaml": {("walk", ("q", "r")), ("triangle", ("m", "r"))},
        # the co-walk runs both sides along one direction
        "minimax-tree@40": {("walk", ("p",)), ("triangle", ("p",))},
        "centered@40": {("walk", ("a1", "a2")), ("triangle", ("a1", "a2"))},
    }

    def test_direction_of_every_shipped_walk(self, monkeypatch):
        # the direction is chosen among single variables and pairs only, so
        # a change to the product kernel's directions leaves these as they are
        def named(ctx, direction):
            sv, step = direction
            if not step:
                return ()
            names = dict(zip(ctx._shifts, ctx.names))
            rest = step - (1 << sv)
            if rest == 1 << ctx._deg_shift:
                return (names[sv],)
            return names[sv], names[(-rest).bit_length() - 1]

        log = RunLog(monkeypatch)
        seen = {}

        def note(current):
            seen.setdefault(current, set()).update(
                (run.kind, named(run.ctx, run.direction)) for run in log.runs)
            log.runs.clear()

        plans = Path(__file__).resolve().parent.parent / "plans"
        for path in sorted(plans.glob("*.yaml")):
            cli.run_plan(cli.load_plan(path))
            note(path.name)
        for name in ("minimax-tree", "centered"):
            fam = CATALOG[name]()
            assert cf_match(build_triangle(fam.spec, 40), fam.jfraction, 40, fam.gf_var,
                            fam.cf_prescaled, fam.product_eval_at) is True
            note(f"{name}@40")
        assert seen == self.SHIPPED_DIRECTIONS

    @given(st.integers(0, 7), st.lists(LEVEL, min_size=7, max_size=7),
           st.lists(LEVEL, min_size=7, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_walk(self, depth, s_terms, r_terms):
        ctx = VarContext(["a", "b"])
        jf = JFraction.from_lists(ctx, [poly_of(ctx, t) for t in s_terms],
                                  [poly_of(ctx, t) for t in r_terms])
        assert j_expand(jf, depth) == reference_walk(jf, depth)

    @given(st.integers(0, 7), st.lists(LEVEL, min_size=7, max_size=7),
           st.lists(LEVEL, min_size=7, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_bounds_hold_every_entry(self, depth, s_terms, r_terms):
        # with den clearing the levels, a path to entry (n, k) takes n - k
        # more s-steps and r-steps, counted twice, than up-steps, so packed
        # entry (n, k) is den^(n-k) times the true one.  The walk keeps the
        # entries up to height min(n, depth - n), or below a zero r level
        ctx = VarContext(["a", "b"])
        jf = JFraction.from_lists(ctx, [poly_of(ctx, t) for t in s_terms],
                                  [poly_of(ctx, t) for t in r_terms])
        build = contfrac._walk_build(jf, depth)
        den = build.scales[1] if depth else 1
        rows = reference_rows(jf, depth)
        assert len(build.bounds) == len(rows)
        for n, (row, bounds) in enumerate(zip(rows, build.bounds)):
            assert len(bounds) <= min(n, depth - n) + 1
            for k, (entry, bound) in enumerate(zip(row, bounds)):
                assert all(abs(c) * den ** (n - k) <= bound for c in entry.terms.values())

    def test_overflow_in_the_packed_direction(self, ctx):
        # a alone leaves the levels the fewest fibers, so e_a is packed
        a, q = ctx.var("a"), ctx.var("q")
        level = ctx.var("a", 40000) * (1 + a) + q
        jf = JFraction.from_lists(ctx, [level, level], [ctx.one])
        s, r = _levels(jf, 2)
        shift, _ = _direction(ctx, [p.terms for p in s + r])
        assert shift == ctx._shifts[ctx.index("a")]
        with pytest.raises(ValueError, match="exponent exceeds 65535"):
            j_expand(jf, 2)

    def test_overflow_in_a_fiber_key_variable(self, ctx):
        # a is packed again, so e_q lives in the fiber keys
        a = ctx.var("a")
        level = ctx.var("q", 40000) * (1 + a) ** 2
        jf = JFraction.from_lists(ctx, [level, level], [ctx.one])
        s, r = _levels(jf, 2)
        shift, _ = _direction(ctx, [p.terms for p in s + r])
        assert shift == ctx._shifts[ctx.index("a")]
        with pytest.raises(ValueError, match="exponent exceeds 65535"):
            j_expand(jf, 2)

    def test_checked_walk_without_overflow(self, ctx):
        # total degree 84000 at row 2 turns the exponent check on; every
        # exponent stays within the width.  The pair (q, a) is packed, and
        # row 2's fiber keys hold e_q + e_a = 84000, past a's field
        a, q = ctx.var("a"), ctx.var("q")
        level = ctx.var("a", 21000) * ctx.var("q", 20999) * (q - 2 * a) + 3 * q
        jf = JFraction.from_lists(ctx, [level, -level], [a * q - 5])
        s, r = _levels(jf, 2)
        sq, sa = (ctx._shifts[ctx.index(v)] for v in "qa")
        assert _direction(ctx, [p.terms for p in s + r]) == (sq, (1 << sq) - (1 << sa))
        assert j_expand(jf, 2) == reference_walk(jf, 2)


class TestRisingProductSeries:
    def test_factorials_at_unit_weights(self, ctx):
        one, zero = ctx.one, ctx.zero
        ser = rising_product_series(one, one, zero, 4)
        assert ser == consts(ctx, [1, 1, 2, 6, 24])

    def test_geometric_when_flat(self, ctx):
        a = ctx.var("a")
        ser = rising_product_series(a, ctx.zero, ctx.zero, 4)
        assert ser == [a**i for i in range(5)]

    def test_negative_depths_are_rejected(self, ctx):
        one, zero = ctx.one, ctx.zero
        assert rising_product_series(one, one, zero, 0) == [one]
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            rising_product_series(one, one, zero, -1)

    def test_symbolic_closed_form(self, ctx):
        a, b, c, n = ctx.var("a"), ctx.var("b"), ctx.var("c"), ctx.var("n")
        ser = rising_product_series(a, b, c, 6)
        sf = SFraction.from_forms(a + n * b, (c + b) * (n + 1))
        assert ser == s_expand(sf, 6)


class TestTriangleJFraction:
    def test_bell_walk(self, ctx):
        k = ctx.var("k")
        spec = RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, k + 1, k))
        jf = triangle_jfraction(spec)
        assert [jf.s(i) for i in range(3)] == consts(ctx, [1, 2, 3])
        assert [jf.r(i) for i in range(1, 4)] == consts(ctx, [1, 2, 3])
        assert j_expand(jf, 5) == consts(ctx, [1, 1, 2, 5, 15, 52])

    def test_zero_downweights(self, ctx):
        spec = RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, ctx.var("k") + 1, ctx.zero))
        jf = triangle_jfraction(spec)
        assert all(jf.r(i).is_zero() for i in range(1, 5))

    def test_first_column_equality_symbolic(self):
        # the module's core property: expansion equals the built first column
        # a full build to row 6 reads levels 0-6 (t_0 unused)
        names = (
            [f"r{i}" for i in range(7)]
            + [f"s{i}" for i in range(7)]
            + [f"t{i}" for i in range(1, 7)]
        )
        c = VarContext(["n", "k"] + names)
        r = tuple(c.var(f"r{i}") for i in range(7))
        s = tuple(c.var(f"s{i}") for i in range(7))
        t = (c.zero,) + tuple(c.var(f"t{i}") for i in range(1, 7))
        spec = RecurrenceSpec(c, COLUMN_WALK, (r, s, t))
        tri = build_triangle(spec, 6)
        jf = triangle_jfraction(spec)
        assert j_expand(jf, 6) == tri.first_column()

    def test_closed_forms_mixed_with_lists(self, ctx):
        # a closed-form s with listed r, t, and the reverse
        k = ctx.var("k")
        r = tuple(consts(ctx, [1, 2, 3, 4, 5, 6, 7]))
        s = tuple(consts(ctx, [1, 3, 5, 7, 9, 11, 13]))
        t = tuple(consts(ctx, [0, 1, 1, 2, 2, 3, 3]))
        for spec in (
            RecurrenceSpec(ctx, COLUMN_WALK, (r, k + 1, t)),
            RecurrenceSpec(ctx, COLUMN_WALK, (k + 1, s, k)),
        ):
            jf = triangle_jfraction(spec)
            tri = build_triangle(spec, 6)
            assert j_expand(jf, 6) == tri.first_column()

    def test_requires_column_walk(self, ctx):
        spec = RecurrenceSpec(ctx, ROW_SHIFT, (ctx.one, ctx.one))
        with pytest.raises(ValueError):
            triangle_jfraction(spec)


class TestCfMatch:
    def test_scaled_triangle(self):
        # the cleared whitney-like build matches through scale powers
        c = VarContext(["n", "k", "q", "m"])
        n, k, q, m = (c.var(v) for v in c.names)
        # true coefficients (n-1) + m, 1; cleared by m: spec stores m*cj
        spec = RecurrenceSpec(
            c, ROW_SHIFT, (m * (n - 1) + m * m, m), denominator=m
        )
        t = build_triangle(spec, 5)
        sf = SFraction.from_forms(q + n + m, n + 1)
        assert cf_match(t, sf, 5)

    def test_eval_at_evaluates_a_scale_in_the_gf_variable(self, ctx):
        # true coefficients 1 and 1/q, cleared by q: stored rows 2^n q^n,
        # true rows 2^n at every q, the series of the S-fraction (2, 0, ...)
        q = ctx.var("q")
        t = build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (q, ctx.one), denominator=q), 5)
        for point in (ctx.one, ctx.const(2), ctx.var("a")):
            assert cf_match(t, SFraction.from_list(ctx, consts(ctx, [2, 0, 0, 0, 0])), 5,
                            eval_at=point)
            assert not cf_match(t, SFraction.from_list(ctx, consts(ctx, [3, 0, 0, 0, 0])), 5,
                                eval_at=point)
            # the stored rows at the point are described by the cleared fraction
            assert cf_match(t, SFraction.from_list(ctx, [2 * point] + consts(ctx, [0] * 4)), 5,
                            prescaled=True, eval_at=point)
        with pytest.raises(ValueError, match="vanishes"):
            cf_match(t, SFraction.from_list(ctx, consts(ctx, [3, 0, 0, 0, 0])), 5,
                     eval_at=ctx.zero)

    def test_a_mismatch_stops_the_walk(self, ctx, monkeypatch):
        # rows (1 + q)^n, while the fraction's s_0 = 2 + q differs at row 1
        q, n = ctx.var("q"), ctx.var("n")
        t = build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (ctx.one, ctx.one)), 40)
        jf = JFraction.from_forms(2 + q + n, n * q)
        log = RunLog(monkeypatch)
        assert not cf_match(t, jf, 40)
        # the walk of the series stops by the bad row: it yields rows 0 up
        # to at most row 2
        (walk,) = [run for run in log.runs if run.kind == "walk"]
        assert walk.rows <= 3

    def test_a_negative_depth_is_rejected_on_both_paths(self, ctx):
        # rows (1 + q)^n, the series of the S-fraction (1 + q, 0, 0)
        sf = SFraction.from_list(ctx, [ctx.var("q") + 1, ctx.zero, ctx.zero])
        spec = RecurrenceSpec(ctx, ROW_SHIFT, (ctx.one, ctx.one))
        packed, read = build_triangle(spec, 4), build_triangle(spec, 4)
        read.rows
        assert cf_match(packed, sf, 4) and cf_match(read, sf, 4)
        for t in (packed, read):
            with pytest.raises(ValueError):
                cf_match(t, sf, -1)
        assert packed._rows is None

    def test_split_helper(self, ctx):
        n = ctx.var("n")
        even, odd = n + 1, n + 1
        sf = SFraction.from_forms(even, odd)
        jf = contract(sf)
        leftover = jfraction_split(jf, sf)
        assert leftover is not None and leftover.is_zero()
        wrong = SFraction.from_forms(even + 1, odd)
        assert jfraction_split(jf, wrong) is None

    def test_split_is_an_identity_in_n(self, ctx):
        # P vanishes at n = -1 .. 5, so the two S-fractions agree on every
        # alpha that levels 0 .. 6 of the J-fraction read, yet differ beyond
        n, q = ctx.var("n"), ctx.var("q")
        even, odd = n + q, n + 1
        p = math.prod((n - j for j in range(-1, 6)), start=ctx.one)
        jf = contract(SFraction.from_forms(even, odd))
        off = SFraction.from_forms(even, odd + p)
        assert all(jf.s(i) == off.alpha(2 * i) + (off.alpha(2 * i - 1) if i else 0)
                   for i in range(7))
        assert all(jf.r(m) == off.alpha(2 * m - 2) * off.alpha(2 * m - 1) for m in range(1, 7))
        assert jf.s(7) != contract(off).s(7)
        assert jfraction_split(jf, off) is None

    def test_split_reads_s0(self, ctx):
        # s_0 = alpha_0 + odd(-1): the leftover odd(-1) = 2 sits in s_0,
        # through the closed form or through the s0 override
        n, q = ctx.var("n"), ctx.var("q")
        sf = SFraction.from_forms(n + q, n + 3)
        whole = contract(sf)
        plain = JFraction.from_forms(whole.s_levels, whole.r_levels)
        assert plain.s(0) == q + 2
        assert jfraction_split(plain, sf) == 2 * ctx.one
        assert jfraction_split(replace(plain, s0=q + 2), sf) == 2 * ctx.one
        # contraction's own s0 = alpha_0 leaves no room for the leftover
        assert whole.s0 == q and jfraction_split(whole, sf) is None
        with pytest.raises(ValueError, match="closed-form"):
            jfraction_split(contract(SFraction.from_list(ctx, [q, q, q])), sf)


def row_path(t, fraction, depth, var="q", prescaled=False):
    """cf_match's verdict from the series read back row by row."""
    if isinstance(fraction, SFraction):
        fraction = contract(fraction)
    series = contfrac._series(fraction, depth)
    return _row_mismatch(t, series, depth, var, scaled=not prescaled) is None


def listed(jf, levels):
    """The fraction's first levels as lists."""
    return JFraction.from_lists(jf.ctx, [jf.s(i) for i in range(levels)],
                                [jf.r(i) for i in range(1, levels + 1)])


PLANS = sorted(Path(__file__).resolve().parent.parent.glob("plans/*.yaml"))

# the fiber products of the depth-40 benchmark matches, per run (the walk
# and the triangle build), as (pairs of fibers a per-pair loop multiplies,
# level fibers multiplied directly by entry fibers, products by a shared
# primitive factor P, scalings of entry fibers by a content)
WALK_PRODUCTS = {
    "minimax-tree": {"walk": (185220, 0, 53340, 185220),
                     "triangle": (25620, 8400, 9030, 17220)},
    "centered": {"walk": (22960, 0, 11481, 22960), "triangle": (1640, 1640, 0, 0)},
}


class TestCoWalk:
    """Without ``eval_at``, ``cf_match`` compares packed rows with the
    packed walk; its verdict must be the one the rows read back give."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_verdicts(self, name):
        fam = CATALOG[name]()
        read = build_triangle(fam.spec, 8)
        read.rows  # compared row by row from here on
        fracs = [f for f in (fam.jfraction, fam.sfraction) if f is not None]
        if fracs:
            jf = fam.jfraction if fam.jfraction is not None else contract(fam.sfraction)
        elif fam.spec.kind == COLUMN_WALK:
            jf = triangle_jfraction(fam.spec)
        else:  # the Touchard fraction, of some family's rows or of none
            n, q = fam.ctx.var("n"), fam.ctx.var(fam.gf_var)
            jf = JFraction.from_forms(n + q, n * q)
        bumped = replace(jf, s_levels=jf.s_levels + 1) if isinstance(jf.s_levels, Poly) else None
        for frac in (*fracs, jf, listed(jf, 5), bumped):
            if frac is None:
                continue
            for prescaled in (False, True):
                t = build_triangle(fam.spec, 8)
                want = row_path(read, frac, 8, fam.gf_var, prescaled)
                assert cf_match(t, frac, 8, fam.gf_var, prescaled) == want
                assert t._rows is None  # matched packed
        if fam.jfraction is not None and fam.product_eval_at is None:
            t = build_triangle(fam.spec, 8)
            assert cf_match(t, jf, 8, fam.gf_var, fam.cf_prescaled)
            assert not cf_match(t, bumped, 8, fam.gf_var, fam.cf_prescaled)

    @pytest.mark.parametrize("path", PLANS, ids=lambda p: p.stem)
    def test_shipped_plan_verdicts(self, path):
        plan = cli.load_plan(path)
        read = build_triangle(plan.spec, plan.depth)
        read.rows
        for check in plan.checks:
            if check["kind"] != "cf-match" or check["eval-at"] is not None:
                continue
            args = (check["fraction"], check["depth"], plan.gf_var, check["prescaled"])
            t = build_triangle(plan.spec, plan.depth)
            assert cf_match(t, *args) == cf_match(read, *args) == row_path(read, *args) is True
            assert t._rows is None

    def test_plans_cover_every_scaling(self):
        seen = set()
        for path in PLANS:
            plan = cli.load_plan(path)
            for check in plan.checks:
                if check["kind"] == "cf-match" and check["eval-at"] is None:
                    seen.add("prescaled" if check["prescaled"]
                             else "denominator" if plan.spec.denominator is not None
                             else "plain")
        assert seen == {"plain", "prescaled", "denominator"}

    def test_rational_rows_and_scale(self):
        # affine-n with a0 -> a0/3 has rational rows; clearing its spec by
        # 2 a2 / 3 scales row n by (2 a2 / 3)^n, which the match multiplies
        # back into the series
        fam = CATALOG["affine-n"]()
        fam = fam.substituted("a0", fam.ctx.var("a0") / 3)
        ctx = fam.ctx
        scale = 2 * ctx.var("a2") / 3
        cleared = RecurrenceSpec(ctx, ROW_SHIFT, tuple(c * scale for c in fam.spec.coeffs),
                                 denominator=scale)
        for spec in (fam.spec, cleared):
            read = build_triangle(spec, 6)
            assert any(type(c) is Fraction for row in read.rows for e in row
                       for c in e.terms.values())
            bumped = replace(fam.sfraction, odd=fam.sfraction.odd + 1)
            for frac, want in ((fam.sfraction, True), (fam.jfraction, True), (bumped, False)):
                t = build_triangle(spec, 6)
                assert row_path(read, frac, 6) is want
                assert cf_match(t, frac, 6) is want and t._rows is None
                assert cf_match(read, frac, 6) is want

    def test_perturbed_spec_fails(self):
        # c1 + p k^2 changes row 1 on
        fam = CATALOG["minimax-tree"]()
        p, k = fam.ctx.var("p"), fam.ctx.var("k")
        c0, c1 = fam.spec.coeffs
        spec = replace(fam.spec, coeffs=(c0, c1 + p * k * k))
        t = build_triangle(spec, 12)
        assert not cf_match(t, fam.jfraction, 12, fam.gf_var)
        assert not row_path(t, fam.jfraction, 12, fam.gf_var)
        assert cf_match(build_triangle(fam.spec, 12), fam.jfraction, 12, fam.gf_var)

    def test_a_bad_level_stops_both_runs_at_its_row(self, monkeypatch):
        # r_3 first weighs row 6: the walk and the triangle stop there
        fam = CATALOG["stirling-partition"]()
        n, q = fam.ctx.var("n"), fam.ctx.var("q")
        jf = listed(JFraction.from_forms(n + q, n * q), 8)
        r = list(jf.r_levels)
        r[2] = r[2] + 1
        bad = replace(jf, r_levels=tuple(r))
        t = build_triangle(fam.spec, 14)
        log = RunLog(monkeypatch)

        def ran():
            rows = [(run.kind, run.rows) for run in log.runs]
            log.runs.clear()
            return rows

        assert cf_match(t, jf, 14, fam.gf_var)
        assert ran() == [("triangle", 15), ("walk", 15)]
        assert not cf_match(t, bad, 14, fam.gf_var)
        assert ran() == [("triangle", 7), ("walk", 7)]

    def test_eval_at_reads_the_rows_back(self, ctx, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs.get("at", args[4] if len(args) > 4 else None))
            return _row_mismatch(*args, **kwargs)

        monkeypatch.setattr(contfrac, "_row_mismatch", spy)
        q = ctx.var("q")
        t = build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (ctx.one, ctx.one)), 5)
        sf = SFraction.from_list(ctx, [q + 1, ctx.zero, ctx.zero])
        assert cf_match(t, sf, 5) and calls == []
        assert cf_match(t, SFraction.from_list(ctx, consts(ctx, [3, 0, 0])), 5,
                        eval_at=ctx.const(2))
        assert calls == [{"q": ctx.const(2)}]

    def test_read_rows_are_the_rows_matched(self):
        # once read, the rows are what cf_match checks, changed or not
        fam = CATALOG["minimax-tree"]()
        args = (fam.jfraction, 10, fam.gf_var, fam.cf_prescaled)
        t = build_triangle(fam.spec, 10)
        assert cf_match(t, *args)
        t.rows[7][3] = t.rows[7][3] + 1
        assert not cf_match(t, *args)
        t = build_triangle(fam.spec, 10)
        t.rows = [list(row) for row in t.rows]
        t.rows[9][0] = t.ctx.zero
        assert not cf_match(t, *args)
        explicit = Triangle(t.ctx, build_triangle(fam.spec, 10).rows, scale=t.scale)
        assert cf_match(explicit, *args)

    def test_unwalkable_cases_keep_the_row_path(self, ctx):
        # a scale of two terms, and levels whose degree bound passes the
        # width: both go through the rows, which raise as they always have
        q, a = ctx.var("q"), ctx.var("a")
        base = build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (ctx.one, ctx.one)), 3)
        rows = [[e * (a + 1) ** n for e in row] for n, row in enumerate(base.rows)]
        t = Triangle(ctx, rows, scale=a + 1)
        assert cf_match(t, SFraction.from_list(ctx, [1 + q, ctx.zero, ctx.zero]), 3)
        assert not cf_match(t, SFraction.from_list(ctx, [2 + q, ctx.zero, ctx.zero]), 3)
        big = ctx.var("a", 40000)
        jf = JFraction.from_lists(ctx, [big, big], [ctx.one])
        t = Triangle(ctx, [[ctx.one], [big], [ctx.one, ctx.zero, ctx.zero]])
        with pytest.raises(ValueError, match="exponent exceeds 65535"):
            cf_match(t, jf, 2)

    def test_deep_minimax_match_stays_packed(self, monkeypatch):
        # the depth-40 benchmark match reads no row back and multiplies no
        # two polynomials of two or more terms
        fam = CATALOG["minimax-tree"]()
        t = build_triangle(fam.spec, 40)
        mul, products = Poly.__mul__, []

        def counted(self, other):
            if isinstance(other, Poly) and len(self.terms) > 1 and len(other.terms) > 1:
                products.append((len(self.terms), len(other.terms)))
            return mul(self, other)

        def no_read_back(self, columns=None):
            raise AssertionError("rows read back")

        monkeypatch.setattr(Poly, "__mul__", counted)
        monkeypatch.setattr(triangles._Build, "read", no_read_back)
        assert cf_match(t, fam.jfraction, 40, fam.gf_var, fam.cf_prescaled)
        assert products == [] and t._rows is None

    @pytest.mark.parametrize("name", sorted(WALK_PRODUCTS))
    def test_deep_matches_form_the_pinned_products(self, name, monkeypatch):
        # a P that one level fiber alone has in an accumulator is multiplied
        # directly; any other P once per output key, after the scalings
        counts = {"walk": [0, 0, 0, 0], "triangle": [0, 0, 0, 0]}
        log = RunLog(monkeypatch)

        def counted(acc, pairs):
            tally = counts[log.stepping]
            pairs = [(level, entry) for level, entry in pairs if level and entry]
            uses = collections.Counter(p for level, _ in pairs for _, _, p, _, _ in level)
            keys = set()
            for level, entry in pairs:
                tally[0] += len(level) * len(entry)
                for fl, _, p, _, _ in level:
                    if uses[p] == 1:
                        tally[1] += len(entry)
                    else:
                        tally[3] += len(entry)
                        keys.update((p, fl + fe) for fe in entry)
            tally[2] += len(keys)
            return polyring._add_level_products(acc, pairs)

        monkeypatch.setattr(triangles, "_add_level_products", counted)
        fam = CATALOG[name]()
        t = build_triangle(fam.spec, 40)
        assert cf_match(t, fam.jfraction, 40, fam.gf_var, fam.cf_prescaled)
        assert {key: tuple(tally) for key, tally in counts.items()} == WALK_PRODUCTS[name]
