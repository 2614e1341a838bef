"""Tests for the exact polynomial substrate."""

import collections
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcert import polyring
from tpcert.families import CATALOG, four_term_family
from tpcert.polyring import (
    ContextMismatch,
    ParseError,
    Poly,
    VarContext,
    _add_level_products,
    _direction,
    _fiber_product,
    _horner,
    _join,
    _lines,
    _pack,
    _product_direction,
    _put_digits,
    _unpack,
    mpq,
    render,
)
from tpcert.triangles import build_triangle


@pytest.fixture
def ctx():
    return VarContext(["a0", "a1", "a2", "b0", "b1", "b2", "d", "lam", "q"])


def random_poly(ctx, rng, max_terms=5, max_vars=3, max_exp=3, lo=-9, hi=9):
    vars_ = rng.sample(ctx.names, max_vars)
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exps = {v: rng.randint(0, max_exp) for v in vars_}
        terms.append((rng.randint(lo, hi), exps))
    return ctx.from_terms(terms)


def test_context_rejects_duplicates():
    with pytest.raises(ValueError):
        VarContext(["q", "q"])


def test_add_examples(ctx):
    q = ctx.var("q")
    assert (q + 1) + (q - 1) == 2 * q
    p = random_poly(ctx, random.Random(1))
    assert p + ctx.zero == p
    a0, a1, n, k = ctx.var("a0"), ctx.var("a1"), ctx.var("q"), ctx.var("d")
    assert a0 * n + a1 * k == a1 * k + a0 * n


def test_mul_examples(ctx):
    q, lam, d = ctx.var("q"), ctx.var("lam"), ctx.var("d")
    assert (1 + q) * (1 + q) == ctx.parse("1 + 2*q + q^2")
    p = random_poly(ctx, random.Random(2))
    assert p * ctx.one == p
    assert (lam + d * q) * (lam - d * q) == lam**2 - d**2 * q**2


def test_context_mismatch_raises(ctx):
    other = VarContext(["x"])
    with pytest.raises(ContextMismatch):
        ctx.one + other.one
    with pytest.raises(ContextMismatch):
        ctx.var("q") * other.var("x")


def test_ring_axioms_on_random_instances(ctx):
    rng = random.Random(12345)
    for _ in range(60):
        p = random_poly(ctx, rng)
        q = random_poly(ctx, rng)
        r = random_poly(ctx, rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_substitute_examples(ctx):
    q, lam, d = ctx.var("q"), ctx.var("lam"), ctx.var("d")
    assert (q**2).substitute_poly("q", q + lam) == q**2 + 2 * lam * q + lam**2
    assert (1 + q).substitute_poly("q", ctx.one) == ctx.const(2)


def test_substitute_across_exponent_gaps(ctx):
    q, lam, d = ctx.var("q"), ctx.var("lam"), ctx.var("d")
    assert (q**5 + lam * q**2 + d).substitute_poly("q", q + d) == (
        (q + d) ** 5 + lam * (q + d) ** 2 + d
    )


def test_horner_is_the_homogeneous_power_sum(ctx):
    rng = random.Random(31)
    for _ in range(20):
        coeffs = [random_poly(ctx, rng) for _ in range(rng.randint(1, 5))]
        x = random_poly(ctx, rng, max_terms=3, max_exp=2)
        y = random_poly(ctx, rng, max_terms=3, max_exp=2)
        top = len(coeffs) - 1
        assert _horner(coeffs, x, y) == sum(
            (c * x**e * y ** (top - e) for e, c in enumerate(coeffs)), ctx.zero
        )
        assert _horner(coeffs, x) == sum((c * x**e for e, c in enumerate(coeffs)), ctx.zero)


def test_substitution_is_homomorphic(ctx):
    rng = random.Random(777)
    for _ in range(25):
        p = random_poly(ctx, rng)
        q = random_poly(ctx, rng)
        image = random_poly(ctx, rng, max_terms=3, max_exp=2)
        name = rng.choice(ctx.names)
        sub = lambda f: f.substitute_poly(name, image)
        assert sub(p * q) == sub(p) * sub(q)
        assert sub(p + q) == sub(p) + sub(q)


def test_substitute_unknown_variable(ctx):
    with pytest.raises(KeyError):
        ctx.one.substitute_poly("zz", ctx.one)


def test_nonneg_predicate(ctx):
    assert ctx.parse("1 + 2*q + q^2").is_nonneg()
    assert not ctx.parse("16*q - 4*q^2").is_nonneg()
    assert ctx.zero.is_nonneg()


def test_nonneg_closed_under_plus_times(ctx):
    rng = random.Random(99)
    for _ in range(40):
        p = random_poly(ctx, rng, lo=0)
        q = random_poly(ctx, rng, lo=0)
        assert (p + q).is_nonneg()
        assert (p * q).is_nonneg()


def test_eval_examples(ctx):
    assert ctx.parse("1 + 2*q + q^2").eval({"q": 1}) == 4
    assert ctx.parse("a0*q + a2").eval({"a0": 1, "a2": 0, "q": 3}) == 3
    assert ctx.parse("(lam + d*q)^2").eval({"lam": 1, "d": 1, "q": 2}) == 9
    with pytest.raises(KeyError):
        ctx.parse("a0 + q").eval({"a0": 1})


def test_eval_is_homomorphic(ctx):
    rng = random.Random(4)
    assignment = {nm: mpq(rng.randint(-3, 3), rng.randint(1, 4)) for nm in ctx.names}
    for _ in range(20):
        p = random_poly(ctx, rng)
        q = random_poly(ctx, rng)
        assert (p * q).eval(assignment) == p.eval(assignment) * q.eval(assignment)
        assert (p + q).eval(assignment) == p.eval(assignment) + q.eval(assignment)


def test_render_parse_round_trip(ctx):
    rng = random.Random(31)
    for _ in range(40):
        p = random_poly(ctx, rng)
        assert ctx.parse(str(p)) == p
    # rational coefficients render as fractions and re-parse
    p = ctx.parse("3/2*q - 1/3")
    assert ctx.parse(str(p)) == p


def test_parse_errors_carry_position(ctx):
    with pytest.raises(ParseError) as err:
        ctx.parse("q + ")
    assert "column" in str(err.value)
    with pytest.raises(ParseError):
        ctx.parse("q + zz")
    with pytest.raises(ParseError):
        ctx.parse("q / lam")  # division only by rational constants
    with pytest.raises(ParseError):
        ctx.parse("q ^ q")


_CONTEXT_NAMES = "(context has ('n', 'k', 'q', 'a'))"


@pytest.mark.parametrize(
    "text, message, pos",
    [
        ("q + ", "expected a number, variable or '('", 4),
        ("", "expected a number, variable or '('", 0),
        ("-+q", "expected a number, variable or '('", 2),
        # lexed lazily: the '*' fails before the '$' is read
        ("*$", "expected a number, variable or '('", 1),
        ("q $", "unexpected character '$'", 2),
        ("  q^ $", "unexpected character '$'", 5),
        ("q + zz", f"unknown variable 'zz' {_CONTEXT_NAMES}", 4),
        ("q + é", f"unknown variable 'é' {_CONTEXT_NAMES}", 4),
        ("q ^ q", "expected an integer exponent", 5),
        ("q^", "expected an integer exponent", 2),
        ("(q + 1", "expected ')'", 6),
        ("(q + 1 q", "expected ')'", 8),
        ("q^2**3", "trailing input '^'", 3),
        ("q^2^3", "trailing input '^'", 3),
        ("(q +\t1)) ", "trailing input ')'", 7),
        ("q 1", "trailing input '1'", 2),
        ("q / a", "division is only allowed by a rational constant", 3),
        ("q/(1 - 1)", "division by zero", 2),
        ("q/ 0", "division by zero", 2),
        # a ValueError is placed at the cursor: after the token last taken,
        # or at the start of the token last looked at
        ("a^65536", "an exponent exceeds 65535", 7),
        ("a^40000 * a^40000 ", "an exponent exceeds 65535", 17),
        ("a^40000*(a^40000) + 1", "an exponent exceeds 65535", 18),
        # digits are what str.isdigit accepts, so '²' lexes as one and int() fails
        ("²3", "invalid literal for int() with base 10: '²3'", 2),
        ("q^²", "invalid literal for int() with base 10: '²'", 3),
        # nesting past 100 '(' or unary '-' atoms fails at the one past the limit
        pytest.param("(" * 250 + "k" + ")" * 250, "nesting too deep", 100, id="nesting-250"),
        pytest.param("(" * 1000 + "k" + ")" * 1000, "nesting too deep", 100, id="nesting-1000"),
        pytest.param("q + " + "-" * 1000 + "q", "nesting too deep", 104, id="signs-1000"),
    ],
)
def test_parse_error_messages_and_columns(text, message, pos):
    ctx = VarContext(["n", "k", "q", "a"])
    with pytest.raises(ParseError) as err:
        ctx.parse(text)
    assert err.value.pos == pos
    assert str(err.value) == f"{message} at column {pos + 1} in {text!r}"


@pytest.mark.parametrize(
    "text, terms",
    [
        ("(1 + q)**2", [(1, {"q": 2}), (2, {"q": 1}), (1, {})]),
        ("-q^2", [(-1, {"q": 2})]),
        ("2*-q^2", [(2, {"q": 2})]),  # unary minus binds tighter than '^' inside a term
        ("--q", [(1, {"q": 1})]),
        ("+q - 1", [(1, {"q": 1}), (-1, {})]),
        ("((q + 1)*(q - 1))", [(1, {"q": 2}), (-1, {})]),
        ("q/2", [(mpq(1, 2), {"q": 1})]),
        ("1/2/3*a", [(mpq(1, 6), {"a": 1})]),
        ("\tn*k ^ 2 - n\t", [(1, {"n": 1, "k": 2}), (-1, {"n": 1})]),
        ("q^0", [(1, {})]),
        # at the nesting limit: 100 '(' atoms, or a leading sign and 100 '-' atoms
        pytest.param("(" * 100 + "q" + ")" * 100, [(1, {"q": 1})], id="nesting-100"),
        pytest.param("-" * 101 + "q", [(-1, {"q": 1})], id="signs-101"),
    ],
)
def test_parse_grammar(text, terms):
    ctx = VarContext(["n", "k", "q", "a"])
    assert ctx.parse(text) == ctx.from_terms(terms)


def test_render_past_the_int_str_digit_limit():
    # str() of an int past 4300 digits raises under the interpreter's default
    # limit; render converts in parts and leaves the limit as it was
    ctx = VarContext(["n", "k", "q", "a"])
    limit = sys.get_int_max_str_digits()
    big, sevenths = "1" + "0" * 5000, "142857" * 1000  # 10^5000 and (10^6000 - 1)/7
    p = ctx.parse("10^5000*q^2 - (10^6000 - 1)/7*a + 3")
    assert render(p) == f"{big}*q^2 - {sevenths}*a + 3"
    assert render(ctx.parse("-q/10^5000 + 1/3")) == f"-1/{big}*q + 1/3"
    assert render(ctx.parse("(10^6000 - 1)/7")) == sevenths
    assert render(ctx.parse("-10^4299")) == "-1" + "0" * 4299
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("text", ["a^65536", "a^40000*a^40000", "n^65535*n"])
def test_exponent_overflow_is_a_parse_error(text):
    # exponents are packed 16 bits each; these used to read as q, q*a^14464
    # and 1
    ctx = VarContext(["n", "k", "q", "a"])
    with pytest.raises(ParseError, match="exponent exceeds 65535"):
        ctx.parse(text)
    assert ctx.parse("n^65535*a^65535") == ctx.var("n", 65535) * ctx.var("a", 65535)
    with pytest.raises(ValueError, match="out of range"):
        ctx.var("a", 65536)


def test_exponent_overflow_in_a_product_raises():
    # a product used to carry the excess into the next field:
    # a^40000 * a^40000 read as q*a^14464
    ctx = VarContext(["n", "k", "q", "a"])
    big = ctx.var("a", 40000)
    for other in (big, big + ctx.var("q"), ctx.var("a", 25536) * ctx.var("q", 3)):
        with pytest.raises(ValueError, match="exponent exceeds 65535"):
            big * other
    # total degrees past the width, every exponent within it
    assert big * ctx.var("q", 30000) == ctx.from_terms([(1, {"a": 40000, "q": 30000})])
    assert (big * ctx.var("a", 25535)).degree_in("a") == 65535


def test_parse_accepts_double_star_and_parens(ctx):
    assert ctx.parse("(1 + q)**2") == ctx.parse("1 + 2*q + q^2")
    assert ctx.parse("-(q - 1)") == ctx.parse("1 - q")
    assert ctx.parse("q/2") == ctx.var("q").scale(mpq(1, 2))


def test_grading_order_is_canonical(ctx):
    # graded lexicographic: total degree first, then variable order
    p = ctx.parse("q + a0^2 + a0*q + 1")
    assert str(p) == "a0^2 + a0*q + q + 1"
    assert p.total_degree() == 2
    assert p.degree_in("q") == 1 and p.degree_in("a0") == 2


def test_exact_div(ctx):
    rng = random.Random(8)
    for _ in range(30):
        p = random_poly(ctx, rng)
        q = random_poly(ctx, rng)
        if q.is_zero():
            continue
        assert (p * q).exact_div(q) == p
    assert ctx.parse("q^2 + 1").exact_div(ctx.parse("q + 1")) is None


def test_sums_are_plain_sums_without_zeros(ctx):
    """Every sum of coefficient maps is a plain ``defaultdict`` sum with its
    zeros filtered out, on operands built to cancel term by term, with
    ``int`` and ``Fraction`` coefficients.  ``from_terms`` and
    ``specialize`` give integral coefficients as ``int``, which the packed
    kernels need."""
    rng = random.Random(27)

    def key(exps):
        return ctx.pack([exps.get(nm, 0) for nm in ctx.names])

    def plain(*signed):
        acc = collections.defaultdict(int)
        for sign, terms in signed:
            for k, c in terms:
                acc[k] += sign * c
        return {k: c for k, c in acc.items() if c}

    def check(p, want, integral=False):
        assert p.terms == want
        assert all(p.terms.values())
        if integral:
            assert all(type(c) is int or c.denominator > 1 for c in p.terms.values())

    def image(k, c, val):
        exps = list(ctx.unpack(k))
        e, exps[0] = exps[0], 0
        return ctx.pack(exps), c * val**e

    for _ in range(200):
        monomials = [{"a0": rng.randint(0, 2), "q": rng.randint(0, 2)} for _ in range(5)]
        raw_p = [(rng.choice((rng.randint(-3, 3), mpq(rng.randint(-3, 3), 2))),
                  rng.choice(monomials)) for _ in range(8)]
        # q repeats terms of p, negated to cancel in p + q or as is in p - q
        raw_q = [(rng.choice((c, -c)), e) for c, e in raw_p if rng.random() < 0.7]
        raw_q += [(mpq(rng.randint(-3, 3), 3), rng.choice(monomials)) for _ in range(2)]
        p, q = ctx.from_terms(raw_p), ctx.from_terms(raw_q)
        check(p, plain((1, [(key(e), c) for c, e in raw_p])), integral=True)
        check(q, plain((1, [(key(e), c) for c, e in raw_q])), integral=True)
        check(p + q, plain((1, p.terms.items()), (1, q.terms.items())))
        check(p - q, plain((1, p.terms.items()), (-1, q.terms.items())))
        check(q - p, plain((1, q.terms.items()), (-1, p.terms.items())))
        val = rng.choice((rng.randint(-2, 2), mpq(rng.choice((-1, 1)), 2)))
        check(p.specialize({"a0": val}),
              plain((1, [image(k, c, val) for k, c in p.terms.items()])), integral=True)
        d = ctx.from_terms([(rng.choice((1, -2, mpq(1, 3))), {"q": 1}),
                            (rng.randint(1, 3), {"a0": rng.randint(0, 2)})])
        check((p * d).exact_div(d), p.terms)


# ---------------------------------------------------------------------------
# the fiber product kernel against the plain dict kernel
# ---------------------------------------------------------------------------

FIBER_CTX = VarContext(["a0", "a1", "a2", "b0", "b1", "b2", "d", "lam", "q"])
PAIRS = (("a0", "a2"), ("b0", "b2"), ("d", "lam"))
SMALL = st.integers(-9, 9).filter(bool)
BIG = st.tuples(st.booleans(), st.integers(2**200, 2**230)).map(
    lambda t: -t[1] if t[0] else t[1]
)


def dict_product(p, q):
    """Schoolbook product of the term maps, for reference."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def fiber_product(p, q):
    return _fiber_product(*sorted((p, q), key=lambda r: len(r.terms)))


@st.composite
def pair_homogeneous(draw, pair, coeffs):
    """A polynomial made of blocks sum_i c_i v^i w^(s-i), one block per
    monomial in the other variables, so it has one (v, w) fiber per block."""
    v, w = pair
    others = [nm for nm in FIBER_CTX.names if nm not in pair]
    first, second = draw(st.permutations(others))[:2]
    terms = []
    for j in range(draw(st.integers(4, 6))):
        rest = {first: j, second: draw(st.integers(0, 2))}
        s = draw(st.integers(7, 10))
        terms.extend((draw(coeffs), {**rest, v: i, w: s - i}) for i in range(s + 1))
    return FIBER_CTX.from_terms(terms)


@st.composite
def homogeneous_pairs(draw, coeffs):
    pair = draw(st.sampled_from(PAIRS))
    return pair, draw(pair_homogeneous(pair, coeffs)), draw(pair_homogeneous(pair, coeffs))


class TestFiberProduct:
    @settings(max_examples=40, deadline=None)
    @given(homogeneous_pairs(SMALL))
    def test_matches_dict_kernel(self, operands):
        _, p, q = operands
        want = dict_product(p, q)
        got = fiber_product(p, q)
        assert got is not None
        assert got == want
        assert (p * q).terms == want

    @settings(max_examples=20, deadline=None)
    @given(homogeneous_pairs(BIG))
    def test_coefficients_of_200_bits(self, operands):
        _, p, q = operands
        got = fiber_product(p, q)
        assert got is not None
        assert got == dict_product(p, q)

    @settings(max_examples=20, deadline=None)
    @given(homogeneous_pairs(SMALL), st.integers(2, 6))
    def test_cancelling_products(self, operands, k):
        # (v - w) * (v^(k-1) + ... + w^(k-1)) = v^k - w^k: most product
        # coefficients cancel to zero
        pair, p, q = operands
        v, w = (FIBER_CTX.var(nm) for nm in pair)
        p = p * (v - w)
        q = q * sum((v**i * w ** (k - 1 - i) for i in range(k)), FIBER_CTX.zero)
        got = fiber_product(p, q)
        assert got is not None
        assert got == dict_product(p, q)

    @pytest.mark.parametrize("signs", ["all-positive", "all-negative", "alternating"])
    def test_coefficients_at_the_bound(self, signs):
        # every product coefficient is as large as the digit width allows
        big = 2**200 - 1
        sign = {
            "all-positive": lambda i: 1,
            "all-negative": lambda i: -1,
            "alternating": lambda i: (-1) ** i,
        }[signs]
        terms = [
            (sign(i) * big, {"q": j, "a0": i, "a2": 8 - i}) for j in range(5) for i in range(9)
        ]
        p = FIBER_CTX.from_terms(terms)
        got = fiber_product(p, p)
        assert got is not None
        assert got == dict_product(p, p)

    def test_rational_operands_use_the_dict_kernel(self):
        rng = random.Random(4)
        p = FIBER_CTX.from_terms(
            [(rng.randint(1, 9), {"q": j, "d": i, "lam": 8 - i}) for j in range(5) for i in range(9)]
        )
        r = p + FIBER_CTX.parse("1/3*q^7")
        assert fiber_product(p, p) is not None
        assert fiber_product(r, p) is None
        assert (r * p).terms == dict_product(r, p)
        assert (r * p) - (p * p) == FIBER_CTX.parse("1/3*q^7") * p

    def test_total_degree_past_the_degree_field(self):
        # every exponent fits, but the product's total degree 80000 does not
        # fit the 16-bit degree field of a fiber key
        ctx = VarContext(["a", "q"])
        p = ctx.from_terms([(i + 1, {"a": 20000 + i, "q": 20000 - i}) for i in range(40)])
        assert fiber_product(p, p) is None
        assert (p * p).terms == dict_product(p, p)
        assert (p * p).total_degree() == 80000

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.integers(65535 - 40, 65535 + 40))
    def test_total_degrees_near_the_degree_field(self, data, total):
        ctx = VarContext(["a", "q", "x"])

        def homogeneous(degree):
            # one (a, q) fiber per power of x, each exponent near degree / 2
            mid = degree // 2
            terms = [(data.draw(SMALL), {"a": mid + i, "q": degree - j - mid - i, "x": j})
                     for j in range(4) for i in range(-5, 5)]
            return ctx.from_terms(terms)

        first = data.draw(st.integers(total // 2 - 100, total // 2 + 100))
        p, q = homogeneous(first), homogeneous(total - first)
        assert (fiber_product(p, q) is None) == (total > 65535)
        assert (p * q).terms == dict_product(p, q)
        assert (p * q).total_degree() == total

    def test_an_operand_keeps_each_direction(self, monkeypatch):
        # one Poly is the smaller operand of a product below 2^14 term
        # products, then of one above, from either side: each direction is
        # chosen once, and every product matches the schoolbook one
        rng = random.Random(5)

        def lines(count, s):
            # one (d, lam) fiber of s + 1 terms per power of q
            return FIBER_CTX.from_terms(
                (rng.randint(-9, 9) or 1, {"q": j, "b0": j % 3, "d": i, "lam": s - i})
                for j in range(count) for i in range(s + 1)
            )

        p, below, above = lines(6, 8), lines(8, 12), lines(20, 19)
        assert len(p.terms) * len(below.terms) < 1 << 14 <= len(p.terms) * len(above.terms)
        product_direction, kernel = polyring._product_direction, polyring._fiber_product
        chosen, taken = [], []

        def spy_direction(a, nvars, triples):
            chosen.append((a is p.terms, triples))
            return product_direction(a, nvars, triples)

        def spy(small, large):
            out = kernel(small, large)
            taken.append(small is p and out is not None)
            return out

        monkeypatch.setattr(polyring, "_product_direction", spy_direction)
        monkeypatch.setattr(polyring, "_fiber_product", spy)
        for left, right in ((p, below), (below, p), (p, above), (above, p)):
            assert (left * right).terms == dict_product(left, right)
        assert taken == [True] * 4
        assert chosen == [(True, False), (True, True)]

    def test_small_and_lopsided_products_use_the_dict_kernel(self):
        q, d, lam = (FIBER_CTX.var(nm) for nm in ("q", "d", "lam"))
        big = (1 + q + d + lam) ** 12
        assert len(big.terms) > 400
        assert fiber_product(1 + q + d + lam, big) is None
        assert fiber_product((d + lam) ** 3, (d + lam) ** 4) is None
        assert ((1 + q + d + lam) * big).terms == dict_product(1 + q + d + lam, big)


# the sign patterns of a line's step on three variables in context order
TRIPLE_SIGNS = {"+v+w-x": (1, 1, -1), "+v-w-x": (1, -1, -1)}


def triple_step(ctx, names, signs):
    """``(shift, step)`` of the line that moves the exponents of ``names``
    by ``signs``, the first sign being +1."""
    shifts = [ctx._shifts[ctx.index(nm)] for nm in names]
    step = sum(sign << sh for sign, sh in zip(signs, shifts)) + (sum(signs) << ctx._deg_shift)
    return shifts[0], step


@st.composite
def triple_lines(draw, names, signs, coeffs):
    """A polynomial of 16-20 disjoint lines of 8-10 terms whose exponents
    of ``names`` move by ``signs`` along a line, in a drawn term order.  A
    line may start with e_v above e_w, so the fiber key of a +v+w-x line
    has a negative w field, borrowed from the field above.  Term i of a
    line has coefficient (-1)^i (i + 1) c for a drawn c."""
    others = [nm for nm in FIBER_CTX.names if nm not in names][:3]
    terms = []
    for j in range(draw(st.integers(16, 20))):
        base = {others[0]: j, **{nm: draw(st.integers(0, 3)) for nm in others[1:]}}
        length = draw(st.integers(8, 10))
        start = [draw(st.integers(0, 4)) + (length if sign < 0 else 0) for sign in signs]
        c = draw(coeffs)
        for i in range(length):
            exps = {nm: e + sign * i for nm, e, sign in zip(names, start, signs)}
            terms.append(((-1) ** i * (i + 1) * c, {**base, **exps}))
    draw(st.randoms(use_true_random=False)).shuffle(terms)
    return FIBER_CTX.from_terms(terms)


@st.composite
def triple_operands(draw, coeffs):
    names = tuple(sorted(draw(st.permutations(FIBER_CTX.names))[:3], key=FIBER_CTX.index))
    signs = TRIPLE_SIGNS[draw(st.sampled_from(sorted(TRIPLE_SIGNS)))]
    p = draw(triple_lines(names, signs, coeffs))
    q = draw(triple_lines(names, signs, coeffs))
    return names, signs, p, q


class TestThreeVariableDirections:
    def check(self, names, signs, p, q):
        a, b = sorted((p.terms, q.terms), key=len)
        assert len(a) * len(b) >= 1 << 14
        assert _product_direction(a, len(FIBER_CTX), True) == triple_step(FIBER_CTX, names, signs)
        want = dict_product(p, q)
        assert fiber_product(p, q) == want
        assert (p * q).terms == want

    @settings(max_examples=25, deadline=None)
    @given(triple_operands(SMALL))
    def test_matches_dict_kernel(self, operands):
        self.check(*operands)

    @settings(max_examples=10, deadline=None)
    @given(triple_operands(BIG))
    def test_coefficients_of_200_bits(self, operands):
        self.check(*operands)

    @settings(max_examples=10, deadline=None)
    @given(triple_operands(SMALL), st.integers(2, 5))
    def test_cancelling_products(self, operands, k):
        # a step along a line multiplies a monomial by up / down, and
        # (down - up) * sum down^(k-1-i) up^i = down^k - up^k: most product
        # coefficients cancel to zero
        names, signs, p, q = operands
        up = down = FIBER_CTX.one
        for nm, sign in zip(names, signs):
            if sign > 0:
                up = up * FIBER_CTX.var(nm)
            else:
                down = down * FIBER_CTX.var(nm)
        p = p * (down - up)
        q = q * sum((down ** (k - 1 - i) * up**i for i in range(k)), FIBER_CTX.zero)
        self.check(names, signs, p, q)

    @pytest.mark.parametrize("total, triples", [(2**15 - 1, True), (2**15, False)])
    def test_triples_only_below_half_the_degree_field(self, monkeypatch, total, triples):
        # the line keys of a signed triple stay distinct below total degree
        # 2^15; from there on the kernel packs along pairs
        rng = random.Random(total)

        def lines(degree):
            # 16 lines along a0 + a1 - a2, of total degree up to ``degree``
            return FIBER_CTX.from_terms(
                (rng.choice((-1, 1)) * rng.randint(1, 9),
                 {"b0": j, "a0": 2 + i, "a1": i, "a2": 8 - i, "lam": degree - 18 - j})
                for j in range(16) for i in range(9)
            )

        p, q = lines(total // 2), lines(total - total // 2)
        asked = []
        product_direction = polyring._product_direction

        def spy(a, nvars, offered):
            asked.append(offered)
            return product_direction(a, nvars, offered)

        monkeypatch.setattr(polyring, "_product_direction", spy)
        assert p.total_degree() + q.total_degree() == total
        assert (p * q).terms == dict_product(p, q)
        assert asked == [triples]

    def test_four_term_products_take_a_triple(self):
        # the Hankel entries of four-term[nk] lie on a 4-dimensional affine
        # lattice, which a signed triple follows and no pair does
        fam = four_term_family("nk")
        ctx = fam.ctx
        t = build_triangle(fam.spec, 8).row_gfs(fam.gf_var)
        fields = [ctx._shifts[ctx.index(nm)] for nm in t[8].variables()]
        pairs = [(sv, (1 << sv) - (1 << sw)) for sv in fields for sw in fields if sv > sw]
        key = ctx.pack([5] * len(ctx))
        # T_8 T_7, and T_8 times the order-2 minor of rows and columns
        # (1, 2), as the cofactor expansion of a larger minor forms it
        for p, q, most in ((t[8], t[7], 0.6), (t[8], t[2] * t[4] - t[3] * t[3], 0.5)):
            a, b = sorted((p.terms, q.terms), key=len)
            assert len(a) * len(b) >= 1 << 14
            sv, step = _product_direction(a, len(ctx), True)
            moved = [e1 - e0 for e0, e1 in zip(ctx.unpack(key), ctx.unpack(key + step))]
            assert sorted(map(abs, moved)) == [0] * (len(ctx) - 3) + [1, 1, 1]

            def fiber_pairs(sv, step):
                return len(_lines(a, sv, step)) * len(_lines(b, sv, step))

            assert fiber_pairs(sv, step) <= most * min(fiber_pairs(*pair) for pair in pairs)

    def test_term_order_leaves_the_direction_and_the_work(self, monkeypatch):
        # the direction is chosen on an operand's keys, so a Poly whose
        # terms are inserted in another order is multiplied along the same
        # direction with the same fiber pairs
        product_direction, anchored = polyring._product_direction, polyring._anchored
        chosen, lines = [], []

        def spy_direction(a, nvars, triples):
            chosen.append(product_direction(a, nvars, triples))
            return chosen[-1]

        def spy_anchored(fibers, step, width):
            lines.append(len(fibers))
            return anchored(fibers, step, width)

        monkeypatch.setattr(polyring, "_product_direction", spy_direction)
        monkeypatch.setattr(polyring, "_anchored", spy_anchored)

        def work(a, b):
            chosen.clear(), lines.clear()
            product = a * b
            return product, chosen[:], math.prod(lines)

        rng = random.Random(8)
        for fam in (CATALOG["affine-n"](), four_term_family("nk")):
            t = build_triangle(fam.spec, 8).row_gfs(fam.gf_var)
            want = work(t[8], t[7])
            assert want[1][0] is not None
            for _ in range(6):
                shuffled = []
                for poly in (t[8], t[7]):
                    terms = list(poly.terms.items())
                    rng.shuffle(terms)
                    shuffled.append(Poly(poly.ctx, dict(terms)))
                assert work(*shuffled) == want


class TestPacking:
    def test_dense_mixed_sign_fiber_round_trip(self):
        # one fiber of 20,000 digits: y^3 times every power of x below 20000
        ctx = VarContext(["x", "y"])
        rng = random.Random(7)
        terms = {ctx.pack([i, 3]): rng.choice((-1, 1)) * rng.randint(1, 10**6)
                 for i in range(20000)}
        sv, step = _direction(ctx, [terms])
        width = (10**6).bit_length() + 1
        packed = _pack(terms, sv, step, width)
        assert len(packed) == 1
        assert _unpack({f: x for f, x, *_ in packed}, step, width) == terms

    def test_long_mixed_sign_fiber_round_trip(self):
        # 40,000 digits, read back by halves; every fifth power is missing
        ctx = VarContext(["x", "y"])
        rng = random.Random(11)
        terms = {ctx.pack([i, 2]): rng.choice((-1, 1)) * rng.randint(1, 10**9)
                 for i in range(40000) if i % 5}
        sv, step = _direction(ctx, [terms])
        width = (10**9).bit_length() + 1
        packed = _pack(terms, sv, step, width)
        assert len(packed) == 1
        assert _unpack({f: x for f, x, *_ in packed}, step, width) == terms

    @pytest.mark.parametrize("width", [2, 3, 21, 64, 65])
    @pytest.mark.parametrize("pattern", ["lowest", "highest", "alternating", "random"])
    def test_long_fibers_of_extreme_digits(self, width, pattern):
        # the borrow of a cut half is right at either end of the digit range
        half = 1 << (width - 1)
        rng = random.Random(width)
        digits = {
            "lowest": [-half] * 700,
            "highest": [half - 1] * 700,
            "alternating": [-half if i % 2 else half - 1 for i in range(701)],
            "random": [rng.randrange(-half, half) for _ in range(701)],
        }[pattern]
        out = {}
        _put_digits(out, [(5, sum(d << (width * i) for i, d in enumerate(digits)))], 3, width)
        assert out == {5 + 3 * i: d for i, d in enumerate(digits) if d}

    @pytest.mark.parametrize("digits", [
        [], [(3, -5)], [(0, 1), (2, -3)], [(5, 7), (1, -1), (9, 2)],
        [(e, (-1) ** e * (e + 1)) for e in range(17)],
    ])
    def test_join_is_the_sum_of_shifted_digits(self, digits):
        assert _join(list(digits), 6) == sum(c << (6 * e) for e, c in digits)


def per_pair(acc, pairs):
    """The level kernel's reference: one int product per pair of a level
    fiber and an entry fiber, zero fibers dropped."""
    acc = dict(acc)
    for level, entry in pairs:
        for fl, xl, *_ in level:
            for fe, xe in entry.items():
                acc[fl + fe] = acc.get(fl + fe, 0) + xl * xe
    return {f: x for f, x in acc.items() if x}


class TestFactoredLevelProducts:
    """``_pack`` factors each fiber of a level into its primitive part P, a
    content and a shift, and ``_add_level_products`` multiplies a shared P
    once per output fiber; every accumulator must equal the per-pair
    loop's."""

    CTX = VarContext(["x", "y", "z"])
    # along x: a fiber is a monomial in y and z times a polynomial in x
    SV = CTX._shifts[0]
    STEP = (1 << SV) + (1 << CTX._deg_shift)
    WIDTH = 230
    PRIMITIVES = [(1,), (1, 1), (1, -2, 1), (2, 0, 3), (1, 0, 0, -1), (3, 5)]

    def level(self, rng):
        """An integer map whose fibers are mostly a shared primitive times a
        content of either sign, up to 200 bits, shifted up to three digits;
        sometimes a random digit list."""
        terms = {}
        for j in rng.sample(range(9), rng.randint(0, 4)):
            if rng.random() < 0.2:
                digits = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
            else:
                digits = rng.choice(self.PRIMITIVES)
            c = rng.choice((-1, 1)) * rng.choice((1, 2, 3, rng.getrandbits(200) | 1))
            lo = rng.randint(0, 3)
            for i, d in enumerate(digits):
                if d:
                    terms[self.CTX.pack([lo + i, *divmod(j, 3)])] = c * d
        return terms

    def entry(self, rng):
        return {self.CTX.pack([0, *divmod(j, 3)]): rng.choice((-1, 1)) * rng.getrandbits(300)
                for j in rng.sample(range(9), rng.randint(0, 5))}

    def test_grouping_reads_back_to_its_level(self):
        rng = random.Random(3)
        for _ in range(200):
            terms = self.level(rng)
            level = _pack(terms, self.SV, self.STEP, self.WIDTH)
            assert _unpack({f: x for f, x, *_ in level}, self.STEP, self.WIDTH) == terms
            for f, x, p, c, up in level:
                assert x == c * (p << up)
                digits = {}
                _put_digits(digits, [(0, p)], 1, self.WIDTH)
                assert math.gcd(*digits.values()) == 1 and digits[min(digits)] > 0
            assert [f for f, *_ in level] == list(_lines(terms, self.SV, self.STEP))

    def test_matches_the_per_pair_loop(self):
        rng = random.Random(5)
        shared = single = cancelled = 0
        for _ in range(300):
            levels = [_pack(self.level(rng), self.SV, self.STEP, self.WIDTH)
                      for _ in range(rng.randint(1, 3))]
            pairs = [(rng.choice(levels), self.entry(rng)) for _ in range(rng.randint(0, 4))]
            if pairs and rng.random() < 0.3:  # the negated entry cancels its pair
                level, entry = rng.choice(pairs)
                pairs.append((level, {f: -x for f, x in entry.items()}))
            acc = {f: rng.getrandbits(64) for f in self.entry(rng)}
            if rng.random() < 0.2:  # the accumulator cancels every product
                acc = {f: -x for f, x in per_pair({}, pairs).items()}
            got = _add_level_products(dict(acc), pairs)
            assert got == per_pair(acc, pairs)
            uses = collections.Counter(p for level, entry in pairs if entry
                                       for _, _, p, _, _ in level)
            shared += any(n > 1 for n in uses.values())
            single += 1 in uses.values()
            cancelled += not got
        assert min(shared, single, cancelled) > 20
