"""Tests for triangle materialization and the triangle-level transforms."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcert import families, triangles
from tpcert.contfrac import JFraction, j_expand
from tpcert.polyring import Poly, VarContext
from tpcert.triangles import (
    COLUMN_WALK,
    ROW_SHIFT,
    RecurrenceSpec,
    Triangle,
    _row_mismatch,
    build_triangle,
    check_companion_relation,
    check_product_formula,
    companion_spec,
    gamma_binomial,
    read_golden,
    reciprocal,
    shift_row_gf,
    triangle_convolution,
    write_golden,
)


@pytest.fixture
def ctx():
    return VarContext(["n", "k", "q", "lam", "gamma", "a2"])


def pascal(ctx, depth=8):
    return build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (ctx.one, ctx.one)), depth)


def eulerian(ctx, depth=7):
    n, k = ctx.var("n"), ctx.var("k")
    return build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (k, n - k + 1)), depth)


def stirling2(ctx, depth=7):
    return build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (ctx.var("k"), ctx.one)), depth)


def bell_walk(ctx, depth=6):
    k = ctx.var("k")
    return build_triangle(RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, k + 1, k)), depth)


def ints(row):
    return [int(e.const_value()) for e in row]


def test_pascal_rows(ctx):
    t = pascal(ctx, 2)
    assert [ints(r) for r in t.rows] == [[1], [1, 1], [1, 2, 1]]


def test_eulerian_row4(ctx):
    assert ints(eulerian(ctx, 4).rows[4]) == [0, 1, 11, 11, 1]


def test_stirling2_row4_and_gf(ctx):
    t = stirling2(ctx, 4)
    assert ints(t.rows[4]) == [0, 1, 7, 6, 1]
    assert t.row_gf(3) == ctx.parse("q + 3*q^2 + q^3")
    assert t.row_gf(0) == ctx.one


def test_boundary_and_base_invariants(ctx):
    t = eulerian(ctx, 6)
    assert t.entry(0, 0) == ctx.one
    assert t.entry(3, -1).is_zero() and t.entry(3, 4).is_zero()
    assert all(len(t.rows[n]) == n + 1 for n in range(7))


def test_recurrence_residual(ctx):
    for t in (pascal(ctx, 6), eulerian(ctx, 6), stirling2(ctx, 6), bell_walk(ctx, 6)):
        assert t.satisfies()
    bad = eulerian(ctx, 4)
    bad.rows[3][1] = bad.rows[3][1] + ctx.one
    assert not bad.satisfies()


def test_negative_depth_rejected(ctx):
    with pytest.raises(ValueError):
        build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (ctx.one, ctx.one)), -1)


def test_row_gf_out_of_range(ctx):
    with pytest.raises(IndexError):
        pascal(ctx, 3).row_gf(4)
    # a negative row is not the last row counted from the end
    with pytest.raises(IndexError):
        pascal(ctx, 3).row_gf(-1)


def test_row_gf_is_the_sum_of_shifted_entries(ctx):
    for name, make in families.CATALOG.items():
        fam = make()
        t = build_triangle(fam.spec, 8)
        var = fam.ctx.var(fam.gf_var)
        for n in range(9):
            want = fam.ctx.zero
            for k, e in enumerate(t.rows[n]):
                want = want + e * var**k
            assert t.row_gf(n, fam.gf_var) == want, (name, n)
    # entries holding the variable itself: shifted terms meet and cancel
    q = ctx.var("q")
    t = Triangle(ctx, [[ctx.one], [q, -ctx.one], [q**2, 1 - q, q]])
    assert t.row_gf(1).is_zero()
    assert t.row_gf(2) == q**3 + q


def test_row_gf_exponent_guard(ctx):
    # times q**1 takes the q^65535 entry past the packing width
    q = ctx.var("q")
    t = Triangle(ctx, [[ctx.one], [ctx.one, q**65535]])
    with pytest.raises(ValueError, match="an exponent exceeds 65535"):
        t.row_gf(1)


class TestReciprocal:
    def test_pascal_symmetric(self, ctx):
        t = pascal(ctx, 6)
        assert reciprocal(t).rows == t.rows

    def test_index_reversal(self, ctx):
        t = Triangle(ctx, [[ctx.one], [ctx.zero, ctx.one], [ctx.zero, ctx.one, ctx.one]])
        assert [ints(r) for r in reciprocal(t).rows] == [[1], [1, 0], [1, 1, 0]]

    def test_row_gf_identity(self, ctx):
        # reciprocal rows carry q^n T_n(1/q): coefficient j moves to n-j
        t = eulerian(ctx, 5)
        tr = reciprocal(t)
        for n in range(6):
            got = tr.row_gf(n)
            want = sum(
                (t.entry(n, j) * ctx.var("q") ** (n - j) for j in range(n + 1)),
                ctx.zero,
            )
            assert got == want

    def test_eulerian_descent_reversal(self, ctx):
        # enumeration symmetry: reversing a permutation maps k-1 descents to
        # n-k descents, so the reciprocal equals the triangle shifted one
        # column left
        t = eulerian(ctx, 5)
        tr = reciprocal(t)
        for n in range(1, 6):
            assert tr.rows[n][:-1] == t.rows[n][1:]
            assert tr.rows[n][-1].is_zero()

    def test_involution(self, ctx):
        t = eulerian(ctx, 5)
        assert reciprocal(reciprocal(t)).rows == t.rows


class TestGammaBinomial:
    def test_first_column_powers(self, ctx):
        # input with first column delta(n=0): transform gives gamma^n
        rows = [[ctx.one]] + [
            [ctx.zero] * (n + 1) for n in range(1, 5)
        ]
        t = Triangle(ctx, rows)
        g = gamma_binomial(t, ctx.one)
        assert all(g.rows[n][0] == ctx.one for n in range(5))
        gg = gamma_binomial(t, ctx.var("gamma"))
        assert all(gg.rows[n][0] == ctx.var("gamma") ** n for n in range(5))

    def test_gamma_zero_is_identity(self, ctx):
        t = bell_walk(ctx, 6)
        assert gamma_binomial(t, ctx.zero).rows == t.rows

    def test_composition_adds_weights(self, ctx):
        c = VarContext(["n", "k", "q", "g1", "g2"])
        t = build_triangle(
            RecurrenceSpec(c, COLUMN_WALK, (c.one, c.var("k") + 1, c.var("k"))), 6
        )
        lhs = gamma_binomial(gamma_binomial(t, c.var("g1")), c.var("g2"))
        rhs = gamma_binomial(t, c.var("g1") + c.var("g2"))
        assert lhs.rows == rhs.rows

    def test_shifted_walk_recurrence(self, ctx):
        # transformed walk satisfies the original with s_k replaced by gamma+s_k
        t = bell_walk(ctx, 6)
        g = ctx.var("a2")
        tg = gamma_binomial(t, g)
        k = ctx.var("k")
        shifted = RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, g + k + 1, k))
        assert tg.satisfies(shifted)

    def test_row_gf_identity(self, ctx):
        t = bell_walk(ctx, 6)
        g = ctx.var("gamma")
        tg = gamma_binomial(t, g)
        for n in range(7):
            want = sum(
                (
                    ctx.const(math.comb(n, i)) * g ** (n - i) * t.row_gf(i)
                    for i in range(n + 1)
                ),
                ctx.zero,
            )
            assert tg.row_gf(n) == want


class TestShift:
    def test_single_row(self, ctx):
        t = Triangle(ctx, [[ctx.one], [ctx.zero, ctx.one]])  # A_1(q) = q
        sh = shift_row_gf(t, ctx.var("lam"))
        assert sh.rows[1] == [ctx.var("lam"), ctx.one]

    def test_shift_zero_identity(self, ctx):
        t = eulerian(ctx, 5)
        assert shift_row_gf(t, ctx.zero).rows == t.rows

    def test_round_trip(self, ctx):
        t = stirling2(ctx, 5)
        lam = ctx.var("lam")
        assert shift_row_gf(shift_row_gf(t, lam), -lam).rows == t.rows

    def test_shifted_triangle_recurrence(self):
        # base recurrence (a0 n - lam b1 k + a2 | b0 n + b1 k + b2); after the
        # shift by lam the rows satisfy the same with the first coefficient
        # (a0 + lam b0) n + lam b1 k + a2 + lam (b1 + b2)
        c = VarContext(["n", "k", "q", "a0", "a2", "b0", "b1", "b2", "lam"])
        n, k, q, a0, a2, b0, b1, b2, lam = (c.var(v) for v in c.names)
        base = RecurrenceSpec(
            c, ROW_SHIFT, (a0 * n - lam * b1 * k + a2, b0 * n + b1 * k + b2)
        )
        shifted_spec = RecurrenceSpec(
            c,
            ROW_SHIFT,
            (
                (a0 + lam * b0) * n + lam * b1 * k + a2 + lam * (b1 + b2),
                b0 * n + b1 * k + b2,
            ),
        )
        t = build_triangle(base, 6)
        assert shift_row_gf(t, lam).satisfies(shifted_spec)

    def test_cleared_shift_with_denominator(self, ctx):
        # den^n A_n((q den + shift)/den) stays polynomial and scales the rows
        t = stirling2(ctx, 4)
        den = ctx.parse("lam + 1")
        sh = shift_row_gf(t, ctx.const(2), den=den)
        assert sh.scale == den
        q = ctx.var("q")
        for n in range(5):
            want = sum(
                (
                    t.entry(n, j) * (q * den + 2) ** j * den ** (n - j)
                    for j in range(n + 1)
                ),
                ctx.zero,
            )
            assert sh.row_gf(n) == want


class TestCompanion:
    def test_degenerate_matches_base_spec(self):
        # with no second shift the companion recurrence is the original
        # two-term one (unit clearing factor)
        c = VarContext(["n", "k", "q", "a0", "a1", "a2", "b0", "b1", "b2"])
        n, k, q, a0, a1, a2, b0, b1, b2 = (c.var(v) for v in c.names)
        comp = companion_spec(c, a0, a1, a2, b0, b1, b2, c.zero)
        assert comp.coeffs[0] == a0 * n + a1 * k + a2
        assert comp.coeffs[1] == b0 * n + b1 * k + b2

    def test_relation_holds_and_detects_corruption(self):
        c = VarContext(["n", "k", "q", "a0", "a1", "a2", "b0", "b1", "b2", "d", "lam"])
        zero = c.zero
        vals = {v: c.var(v) for v in ("a0", "a1", "a2", "b0", "b1", "b2", "d", "lam")}
        from tpcert.families import general_four_term_spec

        spec = general_four_term_spec(
            c, vals["a0"], vals["a1"], vals["a2"], vals["b0"], vals["b1"],
            vals["b2"], vals["d"], vals["lam"],
        )
        t = build_triangle(spec, 5)
        comp = companion_spec(
            c, vals["a0"], vals["a1"], vals["a2"], vals["b0"], vals["b1"],
            vals["b2"], vals["d"],
        )
        tc = build_triangle(comp, 5)
        assert check_companion_relation(t, tc, vals["lam"], vals["d"], 5)
        tc.rows[3][1] = tc.rows[3][1] + c.one
        assert not check_companion_relation(t, tc, vals["lam"], vals["d"], 5)

    def test_identity_when_no_shift_weight(self, ctx):
        # d = 0, lam = 1: the relation is plain equality of triangles
        t = pascal(ctx, 5)
        assert check_companion_relation(t, t, ctx.one, ctx.zero, 5)


class TestConvolution:
    def test_ones_gives_powers_of_two(self, ctx):
        t = pascal(ctx, 8)
        ones = [ctx.one] * 9
        z = triangle_convolution(t, ones, ones, 8)
        assert [int(v.const_value()) for v in z] == [2**n for n in range(9)]

    def test_delta_is_identity(self, ctx):
        t = pascal(ctx, 8)
        xs = [ctx.const(math.factorial(n)) for n in range(9)]
        delta = [ctx.one] + [ctx.zero] * 8
        z = triangle_convolution(t, xs, delta, 8)
        assert z == xs

    def test_length_checks(self, ctx):
        t = pascal(ctx, 3)
        with pytest.raises(ValueError):
            triangle_convolution(t, [ctx.one] * 2, [ctx.one] * 4, 3)


def two_to_the_n_cleared_by_q(ctx, depth=6):
    # true coefficients 1 and 1/q, cleared by q: stored rows 2^n q^n, true rows 2^n
    q = ctx.var("q")
    return build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (q, ctx.one), denominator=q), depth)


class TestRowMismatch:
    def test_a_series_that_ends_early_raises(self, ctx):
        t = pascal(ctx)
        series = [(1 + ctx.var("q")) ** n for n in range(5)]
        assert _row_mismatch(t, series, 4, "q") is None
        for short in (series, iter(series)):
            with pytest.raises(ValueError, match="ends before row 5"):
                _row_mismatch(t, short, 6, "q")

    def test_rows_are_drawn_up_to_the_first_mismatch(self, ctx):
        q = ctx.var("q")
        drawn = []

        def series():
            for n in range(9):
                drawn.append(n)
                yield q if n == 3 else (1 + q) ** n

        assert _row_mismatch(pascal(ctx), series(), 8, "q")[0] == 3
        assert drawn == [0, 1, 2, 3]


class TestProductFormula:
    def test_eval_at_evaluates_a_scale_in_the_gf_variable(self, ctx):
        t = two_to_the_n_cleared_by_q(ctx)
        for point in (ctx.one, ctx.const(2), ctx.var("lam")):
            assert check_product_formula(t, ctx.const(2), 6, eval_at=point)
            assert not check_product_formula(t, ctx.const(3), 6, eval_at=point)
        assert check_product_formula(t, ctx.const(2), 6)
        # at a zero of the clearing denominator every row past the first is 0 = 0
        with pytest.raises(ValueError, match="vanishes"):
            check_product_formula(t, ctx.const(3), 6, eval_at=ctx.zero)

    def test_rising_product(self, ctx):
        # c0 = n-1, c1 = 1: rows multiply up as ((k-1) + q)
        n = ctx.var("n")
        t = build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (n - 1, ctx.one)), 6)
        assert check_product_formula(t, ctx.parse("k - 1 + q"), 6)
        assert not check_product_formula(t, ctx.parse("k + q"), 6)

    def test_factorial_and_double_factorial_counts(self, ctx):
        n = ctx.var("n")
        t = build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (n - 1, ctx.one)), 8)
        assert [int(g.specialize({"q": 1}).const_value()) for g in t.row_gfs()] == [
            math.factorial(i) for i in range(9)
        ]
        t2 = build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (n, n - 1)), 8)
        assert [int(g.specialize({"q": 1}).const_value()) for g in t2.row_gfs()] == [
            math.prod(range(1, 2 * i, 2)) if i else 1 for i in range(9)
        ]


def test_golden_round_trip(tmp_path, ctx):
    t = eulerian(ctx, 5)
    path = tmp_path / "eulerian.tsv"
    write_golden(t, path)
    assert read_golden(ctx, path) == t.rows


def test_depth_zero_triangle(ctx):
    t = build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (ctx.one, ctx.one)), 0)
    assert t.rows == [[ctx.one]] and t.satisfies()


def test_spec_validation():
    c = VarContext(["n", "k", "q"])
    with pytest.raises(ValueError):
        RecurrenceSpec(c, "diagonal-walk", (c.one, c.one))
    with pytest.raises(ValueError):
        RecurrenceSpec(c, ROW_SHIFT, (c.one,))
    with pytest.raises(ValueError):
        RecurrenceSpec(c, COLUMN_WALK, (c.one, c.one))
    with pytest.raises(ValueError):
        RecurrenceSpec(c, ROW_SHIFT, (c.one, c.one), denominator=c.parse("q + 1"))


@pytest.mark.parametrize("names, index", [(["k", "q"], "n"), (["n", "q"], "k"), (["q"], "n")])
def test_spec_context_names_both_recurrence_indices(names, index):
    # every coefficient is read at integer n and k, and triangle_jfraction
    # rewrites a column walk's forms in k into forms in n
    c = VarContext(names)
    one = c.one
    for kind, coeffs in ((ROW_SHIFT, (one, one)), (COLUMN_WALK, (one, one + one, one))):
        with pytest.raises(ValueError, match=f"lacks the recurrence index '{index}'"):
            RecurrenceSpec(c, kind, coeffs)


def _refused_specs():
    """Specs whose stored rows certify nothing about the true ones, each
    made by a call that must raise ValueError."""
    c, other = VarContext(["n", "k", "q"]), VarContext(["n", "k", "q"])
    n, k, one = c.var("n"), c.var("k"), c.one
    ones = (one,) * 5
    centered = families.centered_family()
    return {
        # stored row n of (n - 1, 1) over -1 is (-1)^n times the true one,
        # yet a Hankel block of the stored rows is totally positive
        "denominator-negative":
            lambda: RecurrenceSpec(c, ROW_SHIFT, (n - 1, one), denominator=c.const(-1)),
        "denominator-k": lambda: RecurrenceSpec(c, ROW_SHIFT, (n - 1, one), denominator=k),
        "denominator-n": lambda: RecurrenceSpec(c, ROW_SHIFT, (n - 1, one), denominator=n),
        "walk-form-in-n": lambda: RecurrenceSpec(c, COLUMN_WALK, (one, n + k, k)),
        "walk-level-in-k": lambda: RecurrenceSpec(c, COLUMN_WALK, (ones, (one, k, one, one), ones)),
        "other-context": lambda: RecurrenceSpec(c, ROW_SHIFT, (other.var("k"), one)),
        "substituted-negative-denominator":
            lambda: centered.substituted("a1", -centered.ctx.var("a1")),
    }


REFUSED = _refused_specs()


@pytest.mark.parametrize("make", REFUSED.values(), ids=list(REFUSED))
def test_a_spec_that_certifies_nothing_is_refused(make):
    with pytest.raises(ValueError):
        make()


def test_walk_list_coefficients_out_of_range(ctx):
    spec = RecurrenceSpec(
        ctx, COLUMN_WALK, ((ctx.one,), (ctx.one, ctx.one), (ctx.zero, ctx.one))
    )
    t = build_triangle(spec, 1)
    assert t.satisfies()
    with pytest.raises(IndexError):
        build_triangle(spec, 3)


def reference_build(spec, depth):
    """Rows 0..depth of the recurrence from ``Poly`` ``*`` and ``+``, entry
    by entry, reading a coefficient only where the entry it weighs is
    nonzero."""
    ctx = spec.ctx
    rows = [[ctx.one]]
    for n in range(1, depth + 1):
        prev = rows[-1]
        row = []
        for k in range(n + 1):
            acc = ctx.zero
            # row shift: c_j(n, k) weighs entry k-j; column walk: r, s and t
            # at level kk weigh entry kk = k-1, k, k+1
            for j in range(3):
                kk = k - j if spec.kind == ROW_SHIFT else k - 1 + j
                if 0 <= kk < len(prev) and prev[kk]:
                    if spec.kind == COLUMN_WALK:
                        c = spec.walk_coeff(j, kk)
                    elif j < len(spec.coeffs):
                        c = spec.coeffs[j].specialize({"n": n, "k": k})
                    else:
                        continue
                    acc = acc + c * prev[kk]
            row.append(acc)
        rows.append(row)
    return rows


# random row-shift coefficients: c0 with rational coefficients, c1 nonzero
SHIFT_C0 = st.lists(st.tuples(st.one_of(st.integers(-5, 5),
                                        st.fractions(-2, 2, max_denominator=3)),
                              st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                              st.integers(0, 2)),
                    max_size=4)
SHIFT_C1 = st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 2), st.integers(0, 2),
                              st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=4)


def shift_spec(c0_terms, c1_terms):
    """The row-shift spec of ``(coefficient, e_n, e_k, e_a, e_b)`` terms."""
    ctx = VarContext(["n", "k", "a", "b"])

    def poly(terms):
        return ctx.from_terms((c, {"n": i, "k": j, "a": x, "b": y}) for c, i, j, x, y in terms)

    return RecurrenceSpec(ctx, ROW_SHIFT, (poly(c0_terms), poly(c1_terms)))


class TestPackedBuild:
    """``build_triangle`` runs the recurrence on packed fibers; each case
    is compared with the ``Poly`` recurrence of ``reference_build``."""

    @pytest.mark.parametrize("name", sorted(families.CATALOG))
    def test_catalog_families(self, name):
        spec = families.CATALOG[name]().spec
        want = reference_build(spec, 10)
        for depth in range(11):
            t = build_triangle(spec, depth)
            assert t.rows == want[:depth + 1], (name, depth)
            assert t.depth == depth

    def test_both_recurrence_shapes_are_covered(self):
        kinds = {make().spec.kind for make in families.CATALOG.values()}
        assert kinds == {ROW_SHIFT, COLUMN_WALK}

    def test_column_walk_with_per_level_tuples(self, ctx):
        k, q, lam = ctx.var("k"), ctx.var("q"), ctx.var("lam")
        r = tuple(q + i for i in range(8))
        s = tuple(lam * i - q for i in range(8))
        t = (ctx.zero,) + tuple(i * q * lam - 2 for i in range(1, 8))
        for coeffs in ((r, s, t), (r, k * q + 1, t), (k + lam, s, k * q)):
            spec = RecurrenceSpec(ctx, COLUMN_WALK, coeffs)
            assert build_triangle(spec, 8).rows == reference_build(spec, 8)

    def test_zero_levels_cap_the_walk(self, ctx):
        # r_1 = 0 keeps the walk in columns 0 and 1, and a zero level is
        # never read past it: the lists stop at level 2
        one, q = ctx.one, ctx.var("q")
        spec = RecurrenceSpec(ctx, COLUMN_WALK, ((q, ctx.zero), (one, q + 1), (one, 2 * q)))
        t = build_triangle(spec, 6)
        assert t.rows == reference_build(spec, 6)
        assert all(e.is_zero() for row in t.rows for e in row[2:])

    def test_rational_and_negative_coefficients(self, ctx):
        n, k, q, lam = (ctx.var(v) for v in ("n", "k", "q", "lam"))
        third, half = Fraction(1, 3), Fraction(-1, 2)
        spec = RecurrenceSpec(ctx, ROW_SHIFT, (
            (k - n) * q * third + lam, half * n * lam - k * k * q + 3, q * q * Fraction(2, 5) - k,
        ))
        t = build_triangle(spec, 8)
        assert t.rows == reference_build(spec, 8)
        coefficients = [c for row in t.rows for e in row for c in e.terms.values()]
        assert any(type(c) is Fraction for c in coefficients)
        assert any(c < 0 for c in coefficients)
        # an integral coefficient reads back as an int, as the Poly build gives
        assert all(type(c) is int or c.denominator > 1 for c in coefficients)

    def test_integral_fraction_levels(self, ctx):
        # h + h keeps the Fraction 1/1, which the packed build scales to an
        # int like any other rational level
        h = ctx.parse("1/2")
        assert type((h + h).terms[0]) is Fraction
        spec = RecurrenceSpec(ctx, COLUMN_WALK, ((h + h,) * 6,) * 3)
        want = build_triangle(RecurrenceSpec(ctx, COLUMN_WALK, ((ctx.one,) * 6,) * 3), 5)
        t = build_triangle(spec, 5)
        assert t.rows == want.rows == reference_build(spec, 5)
        assert all(type(c) is int for row in t.rows for e in row for c in e.terms.values())

    def test_coefficients_integral_only_at_integer_points(self, ctx):
        # n(n-1)/2 is an integer at every row: no row is cleared
        n, q = ctx.var("n"), ctx.var("q")
        spec = RecurrenceSpec(ctx, ROW_SHIFT, (n * (n - 1) / 2 + q, q * n))
        t = build_triangle(spec, 7)
        assert t._build.scales == [1] * 8
        assert t.rows == reference_build(spec, 7)

    def test_exponent_past_the_packing_width_raises(self, ctx):
        q, k = ctx.var("q"), ctx.var("k")
        spec = RecurrenceSpec(ctx, ROW_SHIFT, (ctx.var("q", 30000) * (1 + ctx.var("lam")), k + 1))
        with pytest.raises(ValueError, match="an exponent exceeds 65535"):
            reference_build(spec, 3)
        with pytest.raises(ValueError, match="an exponent exceeds 65535"):
            build_triangle(spec, 3)
        # a column walk too
        walk = RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, ctx.var("q", 40000) + k, q))
        with pytest.raises(ValueError, match="an exponent exceeds 65535"):
            build_triangle(walk, 2)
        assert build_triangle(walk, 1).rows == reference_build(walk, 1)

    def test_checked_build_without_overflow(self, ctx):
        # the degree bound 3 * 22000 passes the width, so every product is
        # checked; c0 vanishes in column 0, and no exponent passes 44000
        k = ctx.var("k")
        spec = RecurrenceSpec(ctx, ROW_SHIFT, (ctx.var("q", 22000) * k, ctx.one))
        t = build_triangle(spec, 3)
        assert t._rows is not None  # read back at build time
        assert t.rows == reference_build(spec, 3)
        assert t.rows[3][1] == ctx.var("q", 44000)

    def spy_checks(self, monkeypatch):
        """Record the operands of every ``_check_exponents`` call, and the
        build, packing and rows of every ``_Build.run``."""
        calls, runs = [], []
        check_exponents, run = triangles._check_exponents, triangles._Build.run

        def spied(a, b, nvars):
            calls.append((a, b))
            check_exponents(a, b, nvars)

        def logged(build, sv, step, width, check=False):
            rows = []
            runs.append((build, step, width, check, rows))
            for row in run(build, sv, step, width, check):
                rows.append(row)
                yield row

        monkeypatch.setattr(triangles, "_check_exponents", spied)
        monkeypatch.setattr(triangles._Build, "run", logged)
        return calls, runs

    @staticmethod
    def fed_products(run):
        """``(maps[i], entry read back)`` of every feed of a nonzero map and
        a nonzero entry, in the order the run forms them, and the number of
        feeds that are not a unit weight."""
        build, step, width, _, rows = run
        feeds = [(build.maps[i], rows[n - 1][kk])
                 for n in range(1, len(rows)) for feed in build.feeds[n]
                 for kk, i in feed if i is not None]
        return [(m, triangles._unpack(e, step, width)) for m, e in feeds if m and e], len(feeds)

    @pytest.mark.parametrize("make", [eulerian, bell_walk])
    def test_a_run_drops_each_entry_after_its_last_feed(self, ctx, make, monkeypatch):
        # while entry (n, k) is formed, the runner's own row n-1 holds just
        # the entries that entry k or a later one reads; the rows the caller
        # kept stay whole and read back to the built rows
        build = triangles._spec_build(make(ctx, 8).spec, 8)
        sv, step = triangles._direction(ctx, build.shapes)
        width = max(b for row in build.bounds for b in row).bit_length() + 1
        formed = iter((n, k) for n in range(1, 9) for k in range(len(build.feeds[n])))
        add_level_products = triangles._add_level_products

        def spied(acc, pairs):
            n, k = next(formed)
            feeds = build.feeds[n]
            done = {kk for feed in feeds[:k] for kk, _ in feed}
            done -= {kk for feed in feeds[k:] for kk, _ in feed}
            own = sys._getframe(1).f_locals["row"]  # the runner's row n-1
            assert len(own) == len(build.feeds[n - 1])
            assert [e is None for e in own] == [kk in done for kk in range(len(own))]
            return add_level_products(acc, pairs)

        monkeypatch.setattr(triangles, "_add_level_products", spied)
        rows = list(build.run(sv, step, width))
        assert next(formed, None) is None
        assert all(e is not None for row in rows for e in row)
        want = reference_build(make(ctx, 8).spec, 8)
        assert [[Poly(ctx, triangles._unpack(e, step, width)) for e in row] for row in rows] == want

    def test_a_checked_run_checks_each_fed_product(self, ctx, monkeypatch):
        calls, runs = self.spy_checks(monkeypatch)
        k = ctx.var("k")
        t = build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (ctx.var("q", 22000) * k, ctx.one)), 3)
        (run,) = runs
        want, fed = self.fed_products(run)
        assert run[3] and len(want) == fed > 0
        assert calls == want and all(a is m for (a, _), (m, _) in zip(calls, want))
        # c0 vanishes in column 0, so entries (n, 0) feed nothing past row 0
        rows = t.rows
        assert [e for _, e in want] == [rows[n][k].terms for n, k in (
            (0, 0), (1, 1), (1, 1), (2, 1), (2, 2), (2, 1), (2, 2))]

    def test_a_checked_walk_skips_only_zero_operands(self, ctx, monkeypatch):
        # s_0 = 0 is an empty map, and r_2 = -(r_1 + s_1^2) makes entry
        # (3, 1) of the walk zero while r_1 still weighs it into row 4
        calls, runs = self.spy_checks(monkeypatch)
        q, lam = ctx.var("q"), ctx.var("lam")
        level = ctx.var("lam", 21000) * ctx.var("q", 20999) * (q - 2 * lam) + 3 * q
        r1 = lam * q - 5
        jf = JFraction.from_lists(ctx, [ctx.zero, level, level], [r1, -(r1 + level * level)])
        assert j_expand(jf, 4) == [ctx.one, ctx.zero, r1, r1 * level, ctx.zero]
        (run,) = runs
        want, fed = self.fed_products(run)
        assert run[3] and 0 < len(want) < fed
        assert calls == want and all(a is m for (a, _), (m, _) in zip(calls, want))

    @given(SHIFT_C0, SHIFT_C1, st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_build(self, c0_terms, c1_terms, depth):
        spec = shift_spec(c0_terms, c1_terms)
        assert build_triangle(spec, depth).rows == reference_build(spec, depth)

    @given(SHIFT_C0, SHIFT_C1, st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_bounds_hold_every_entry(self, c0_terms, c1_terms, depth):
        # packed entry (n, k) is the built one times the row's scale
        t = build_triangle(shift_spec(c0_terms, c1_terms), depth)
        build = t._build
        assert len(build.bounds) == len(t.rows) == depth + 1
        for row, bounds, scale in zip(t.rows, build.bounds, build.scales):
            assert len(bounds) == len(row)
            for entry, bound in zip(row, bounds):
                assert all(abs(c * scale) <= bound for c in entry.terms.values())


class TestRowsOnFirstRead:
    def test_a_built_triangle_reads_its_rows_back_once(self, ctx, monkeypatch):
        reads = []
        read = triangles._Build.read

        def counted(self, columns=None):
            reads.append(self.depth)
            return read(self, columns)

        monkeypatch.setattr(triangles._Build, "read", counted)
        t = eulerian(ctx, 6)
        assert reads == [] and t.depth == 6
        assert ints(t.rows[4]) == [0, 1, 11, 11, 1]
        assert t.entry(5, 3) == ctx.const(66)
        assert t.rows is t.rows
        assert reads == [6] and t._build is None and t.depth == 6

    def test_equality_with_explicit_rows(self, ctx):
        spec = RecurrenceSpec(ctx, ROW_SHIFT, (ctx.var("k"), ctx.var("n") - ctx.var("k") + 1))
        t = build_triangle(spec, 5)
        assert t == Triangle(ctx, reference_build(spec, 5), spec=spec)
        assert t != Triangle(ctx, reference_build(spec, 5), spec=spec, scale=2 * ctx.one)

    def test_satisfies_rejects_another_spec(self, ctx):
        t = eulerian(ctx, 5)
        assert t.satisfies()
        n, k = ctx.var("n"), ctx.var("k")
        assert not t.satisfies(RecurrenceSpec(ctx, ROW_SHIFT, (k, n - k + 2)))
        assert not Triangle(ctx, [[2 * ctx.one]]).satisfies(t.spec)
