"""Tests for continued-fraction expansion, contraction and extraction."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tpcert.polyring import RatFunc, VarContext, _map_polys
from tpcert.triangles import COLUMN_WALK, ROW_SHIFT, RecurrenceSpec, build_triangle


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

    def test_both_backings_must_agree_when_present(self, ctx):
        # a fraction carrying both a list and closed forms answers from the
        # list; the forms must specialize to the same values
        n = ctx.var("n")
        both = SFraction(
            ctx,
            alphas=tuple(
                (i // 2 + 1) * ctx.one if i % 2 == 0 else (i // 2 + 1) * ctx.one
                for i in range(6)
            ),
            even_form=n + 1,
            odd_form=n + 1,
        )
        for i in range(6):
            form = both.even_form if i % 2 == 0 else both.odd_form
            assert both.alpha(i) == form.specialize({"n": i // 2})

    def test_missing_both_backings_rejected(self, ctx):
        with pytest.raises(ValueError):
            SFraction(ctx)
        with pytest.raises(ValueError):
            SFraction.from_list(ctx, [])


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
        assert [v.as_poly() for v in jf.s_list] == consts(ctx, [1, 3, 5, 7, 9])
        assert [v.as_poly() for v in jf.r_list] == consts(ctx, [1, 4, 9, 16])
        assert jf.is_polynomial() and not any(v.is_zero() for v in jf.r_list)

    def test_geometric_degenerates(self, ctx):
        c = ctx.var("c")
        f = [c**i for i in range(7)]
        jf = extract_jfraction(f, 3)
        # the fraction ends at its zero r_1
        assert len(jf.r_list) == 1 and jf.r_list[-1].is_zero()
        assert jf.s_list[0] == RatFunc.from_poly(c)
        assert jf.r_list[0].is_zero()
        # and the terminated fraction expands back to the series
        assert j_expand(jf.narrowed(), 6) == [c**i for i in range(7)]

    def test_constant_term_must_be_one(self, ctx):
        f = consts(ctx, [2, 1, 1])
        with pytest.raises(ValueError):
            extract_jfraction(f, 1)

    def test_depth_requirement(self, ctx):
        f = consts(ctx, [1, 1, 2])
        with pytest.raises(ValueError):
            extract_jfraction(f, 3)

    def test_round_trip_random_positive(self, ctx):
        rng = random.Random(7)
        for _ in range(10):
            L = 3
            s = consts(ctx, [rng.randint(1, 6) for _ in range(L + 1)])
            r = consts(ctx, [rng.randint(1, 6) for _ in range(L)])
            jf = JFraction.from_lists(ctx, s, r)
            f = j_expand(jf, 2 * L + 1)
            back = extract_jfraction(f, L)
            assert [v.as_poly() for v in back.s_list] == s
            assert [v.as_poly() for v in back.r_list] == r

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
        assert [v.as_poly() for v in back.s_list] == s[:cut]
        assert [v.as_poly() for v in back.r_list] == r[:cut]
        assert j_expand(back.narrowed(), 2 * levels + 1) == series

    def test_symbolic_family_series(self):
        # the affine-n family's row-polynomial series extracts back to the
        # contraction of its alpha forms, with all levels clearing to
        # polynomials
        from tpcert.families import affine_n_family

        fam = affine_n_family()
        t = build_triangle(fam.spec, 6)
        jf = extract_jfraction(t.row_gfs(), 3)
        want = contract(fam.sfraction)
        assert jf.is_polynomial()
        for i in range(3):
            assert jf.s_list[i] == RatFunc.from_poly(want.s(i))
        for i in range(1, 4):
            assert jf.r_list[i - 1] == RatFunc.from_poly(want.r(i))


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


def reference_walk(jf, depth):
    """Series of the walk D[n][k] = D[n-1][k-1] + s_k D[n-1][k] +
    r_(k+1) D[n-1][k+1], built from Poly ``*`` and ``+`` over every height
    up to n."""
    ctx = jf.ctx
    row = [ctx.one]
    out = [ctx.one]
    for n in range(1, depth + 1):
        new = []
        for k in range(n + 1):
            acc = row[k - 1] if k >= 1 else ctx.zero
            if k < len(row):
                acc = acc + jf.s(k) * row[k]
            if k + 1 < len(row):
                acc = acc + jf.r(k + 1) * row[k + 1]
            new.append(acc)
        row = new
        out.append(row[0])
    return out


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

    @given(st.integers(0, 7), st.lists(LEVEL, min_size=7, max_size=7),
           st.lists(LEVEL, min_size=7, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_walk(self, depth, s_terms, r_terms):
        ctx = VarContext(["a", "b"])
        jf = JFraction.from_lists(ctx, [poly_of(ctx, t) for t in s_terms],
                                  [poly_of(ctx, t) for t in r_terms])
        assert j_expand(jf, depth) == reference_walk(jf, depth)

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

    def test_split_helper(self, ctx):
        n = ctx.var("n")
        even, odd = n + 1, n + 1
        sf = SFraction.from_forms(even, odd)
        jf = contract(sf)
        leftover = jfraction_split(jf, sf, 4)
        assert leftover is not None and leftover.is_zero()
        wrong = SFraction.from_forms(even + 1, odd)
        assert jfraction_split(jf, wrong, 4) is None
