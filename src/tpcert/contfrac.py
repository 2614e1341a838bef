"""Stieltjes and Jacobi continued fractions as formal power series.

An S-fraction with coefficients alpha_0, alpha_1, ... denotes

    1 / (1 - alpha_0 z / (1 - alpha_1 z / (1 - ...)))

and a J-fraction with coefficients s_0, s_1, ... and r_1, r_2, ... denotes

    1 / (1 - s_0 z - r_1 z^2 / (1 - s_1 z - r_2 z^2 / (1 - ...))).

The two are linked by the contraction identity

    s_0 = alpha_0,   s_n = alpha_{2n-1} + alpha_{2n},
    r_n = alpha_{2n-2} * alpha_{2n-1}          (n >= 1),

whose indexing is pinned here by the executable contract
``expand(contract(s), N) == expand(s, N)`` rather than by subscript
bookkeeping.  Coefficients can be given as explicit lists or as closed-form
polynomials in a level variable.

A J-fraction's series is the first column of its unit-upstep walk
(``j_expand``).  The walk's entries are kept packed: the terms that differ
only along one direction (a variable, or a pair of variables at a fixed
exponent sum) form a fiber, held as one integer with each coefficient at
its own bit offset, so a level times an entry is a few big-integer
products.  Only the first column is unpacked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as mpq
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Callable, Iterator, Sequence

from .polyring import (
    _MASK,
    Poly,
    RatFunc,
    VarContext,
    _as_rational,
    _check_exponents,
    _map_polys,
    _put_digits,
)
from .triangles import COLUMN_WALK, RecurrenceSpec, Triangle, _row_mismatch


class DegenerateFraction(ValueError):
    """Raised when an operation needs a continued-fraction level that does
    not exist (terminated fraction or missing coefficient)."""


@dataclass(frozen=True)
class SFraction:
    """S-fraction coefficients, list-backed or closed-form-backed.

    Closed forms give alpha_{2n} and alpha_{2n+1} as polynomials in
    ``level_var``; both backings may be present (they must then agree,
    which the tests assert).
    """

    ctx: VarContext
    alphas: tuple | None = None
    even_form: Poly | None = None
    odd_form: Poly | None = None
    level_var: str = "n"

    def __post_init__(self):
        if self.alphas is None and (self.even_form is None or self.odd_form is None):
            raise ValueError("need either an alpha list or both closed forms")
        if self.alphas is not None and not self.alphas:
            raise ValueError("alpha list must not be empty")

    @classmethod
    def from_list(cls, ctx: VarContext, alphas: Sequence) -> SFraction:
        return cls(ctx, alphas=tuple(alphas))

    @classmethod
    def from_forms(
        cls, even_form: Poly, odd_form: Poly, level_var: str = "n"
    ) -> SFraction:
        return cls(even_form.ctx, even_form=even_form, odd_form=odd_form,
                   level_var=level_var)

    def alpha(self, i: int) -> Poly:
        """alpha_i; prefers the explicit list when present."""
        if self.alphas is not None:
            if i >= len(self.alphas):
                raise DegenerateFraction(f"alpha_{i} not provided")
            return self.alphas[i]
        form = self.even_form if i % 2 == 0 else self.odd_form
        return form.specialize({self.level_var: i // 2})


@dataclass(frozen=True)
class JFraction:
    """J-fraction coefficients; values are Poly or (after extraction) RatFunc.

    ``r_list[i]`` stores r_{i+1}; accessors take the mathematical index.
    ``s0`` overrides the closed form at level 0, which is how contraction
    records s_0 = alpha_0 when the closed form does not specialize to it.
    """

    ctx: VarContext
    s_list: tuple | None = None
    r_list: tuple | None = None
    s_form: Poly | None = None
    r_form: Poly | None = None
    s0: Poly | None = None
    level_var: str = "n"

    @classmethod
    def from_lists(cls, ctx: VarContext, s: Sequence, r: Sequence) -> JFraction:
        return cls(ctx, s_list=tuple(s), r_list=tuple(r))

    @classmethod
    def from_forms(
        cls, s_form: Poly, r_form: Poly, level_var: str = "n", s0: Poly | None = None
    ) -> JFraction:
        return cls(s_form.ctx, s_form=s_form, r_form=r_form,
                   level_var=level_var, s0=s0)

    def s(self, i: int):
        if i == 0 and self.s0 is not None:
            return self.s0
        if self.s_list is not None:
            if i >= len(self.s_list):
                raise DegenerateFraction(f"s_{i} not provided")
            return self.s_list[i]
        return self.s_form.specialize({self.level_var: i})

    def r(self, i: int):
        if i < 1:
            raise IndexError("r coefficients start at index 1")
        if self.r_list is not None:
            if i - 1 >= len(self.r_list):
                raise DegenerateFraction(f"r_{i} not provided")
            return self.r_list[i - 1]
        return self.r_form.specialize({self.level_var: i})

    def is_polynomial(self) -> bool:
        """True when every listed coefficient is (narrowable to) a Poly."""
        entries = list(self.s_list or ()) + list(self.r_list or ())
        return all(not isinstance(e, RatFunc) or e.is_poly() for e in entries)

    def narrowed(self) -> JFraction:
        """Copy with RatFunc entries narrowed to Poly; raises if impossible."""
        return _map_polys(self, lambda v: v.as_poly() if isinstance(v, RatFunc) else v)


def contract(sf: SFraction) -> JFraction:
    """J-fraction equal, as a series, to the given S-fraction.

    Uses the convention alpha_{-1} = 0, so s_0 = alpha_0.
    """
    ctx = sf.ctx
    if sf.alphas is None:
        n = ctx.var(sf.level_var)
        odd_prev = sf.odd_form.substitute_poly(sf.level_var, n - 1)
        even_prev = sf.even_form.substitute_poly(sf.level_var, n - 1)
        return JFraction.from_forms(
            s_form=odd_prev + sf.even_form,
            r_form=even_prev * odd_prev,
            level_var=sf.level_var,
            s0=sf.alpha(0),
        )
    alphas = sf.alphas
    top = len(alphas) - 1
    s = [alphas[0]]
    for m in range(1, top // 2 + 1):
        s.append(alphas[2 * m - 1] + alphas[2 * m])
    r = []
    for m in range(1, (top + 1) // 2 + 1):
        r.append(alphas[2 * m - 2] * alphas[2 * m - 1])
    return JFraction.from_lists(ctx, s, r)


def _poly_coeff(value, what: str) -> Poly:
    if isinstance(value, RatFunc):
        if not value.is_poly():
            raise ValueError(f"{what} is not polynomial: {value}")
        return value.as_poly()
    return value


def _levels(jf: JFraction, depth: int) -> tuple[list[Poly], list[Poly]]:
    """The s and r levels the walk of ``j_expand`` to ``depth`` reads, as
    polynomials: ``(s, r)`` with ``s[k]`` = s_k and ``r[k]`` = r_(k+1).

    The walk rises through r_1 .. r_(depth//2) and reads s_0 up to the
    highest column it reaches, (depth-1)//2.  Every walk returning to
    column zero from height k descends through weight r_k, so the first
    zero r_z caps the walk below column z: r stops at r_z and s at s_(z-1).
    A level the fraction does not give raises DegenerateFraction.
    """
    r: list[Poly] = []
    for k in range(1, depth // 2 + 1):
        r.append(_poly_coeff(jf.r(k), f"r_{k}"))
        if not r[-1]:
            break
    top = len(r) - 1 if r and not r[-1] else (depth - 1) // 2
    s = [_poly_coeff(jf.s(k), f"s_{k}") for k in range(top + 1)]
    return s, r


def j_expand(jf: JFraction, depth: int) -> list[Poly]:
    """First depth+1 series coefficients of a J-fraction: the first column
    of its unit-upstep walk

        D[n][k] = D[n-1][k-1] + s_k D[n-1][k] + r_(k+1) D[n-1][k+1],  D[0][0] = 1.

    Coefficient n only involves s and r levels up to n.  A walk entry that
    cannot return to column zero by row ``depth`` is left out, so row n stops
    at height min(n, depth - n).  ``_levels`` gives the levels read, and caps
    the height at a zero r level; an extracted terminated fraction ends in
    its zero r, so the cap covers it too.

    The walk runs on packed fibers (``_walk``).  A path to row n takes a
    s-steps and u r-steps with a + 2u = n, so with ``den`` the lcm of the
    levels' denominators the walk on den s_k and den^2 r_k is integral and
    its row n is den^n times the true one.  Along the packed direction
    (``_direction``) a fiber's coefficients sit at bit ``width`` e_v of one
    integer; the walk over the levels' absolute sums bounds every
    coefficient of the first column, and ``width`` makes that bound a
    balanced digit, so the first column reads back exactly.  No other entry
    is read back.
    """
    ctx = jf.ctx
    s, r = _levels(jf, depth)
    cap = len(s) - 1 if r and not r[-1] else depth
    den = math.lcm(1, *(c.denominator for p in (*s, *r) for c in p.terms.values()))
    s_int = [_scaled(p.terms, den) for p in s]
    r_int = [_scaled(p.terms, den * den) for p in r]
    # an entry of row n has total degree at most n times the highest level
    # degree, so below that bound no product can carry an exponent over
    check = depth * max(p.total_degree() for p in (ctx.one, *s, *r)) > _MASK

    # B[n][k], the walk on the levels' absolute sums, bounds every
    # coefficient of D[n][k]; the check reads back every entry and level
    norms = [{0: sum(map(abs, t.values()))} if t else {} for t in (*s_int, *r_int)]
    bounds = list(_walk(norms[:len(s)], norms[len(s):], depth, cap))
    if check:
        top = max((x for t in (*bounds, norms) for e in t for x in e.values()), default=0)
    else:
        top = max((row[0].get(0, 0) for row in bounds), default=0)
    width = top.bit_length() + 1

    sv, step = _direction(ctx, s_int + r_int)
    guard = None
    if check:
        nvars = len(ctx.names)

        def guard(level: dict, entry: dict) -> None:
            _check_exponents(_unpack(level, step, width), _unpack(entry, step, width), nvars)

    out = [ctx.one]
    for n, row in enumerate(
        _walk([_pack(t, sv, step, width) for t in s_int],
              [_pack(t, sv, step, width) for t in r_int], depth, cap, guard),
        1,
    ):
        terms = _unpack(row[0], step, width)
        if den > 1:
            scale = den**n
            terms = {key: _as_rational(mpq(c, scale)) for key, c in terms.items()}
        out.append(Poly(ctx, terms))
    return out


def _scaled(terms: dict, factor: int) -> dict:
    """``factor`` times a coefficient map that it makes integral."""
    return {key: (c * factor).numerator for key, c in terms.items()}


def _direction(ctx: VarContext, levels: list[dict]) -> tuple[int, int]:
    """``(shift, step)`` of the packed direction, a single variable or a
    pair, that leaves ``levels`` the fewest fibers; ties go to the earlier
    candidate, single variables first.

    The fiber of a monomial key is ``key - e_v * step`` with e_v the
    exponent at ``shift``.  A single variable v has step e_v's field plus
    the degree field, so its fibers are the monomials with v removed; a pair
    (v, w) has step e_v's field minus e_w's, so its fibers hold e_v + e_w in
    w's field.  Keys are added as integers and the monomial of digit e_v is
    read back as ``fiber + e_v * step``, so a sum e_v + e_w past the field
    width still reads back to the right monomial.  When no variable occurs
    every e_v is zero and the step is never used.
    """
    occurring = reduce(or_, (key for t in levels for key in t), 0)
    shifts = [sh for sh in ctx._shifts if (occurring >> sh) & _MASK]
    degree = 1 << ctx._deg_shift
    candidates = [(sv, (1 << sv) + degree) for sv in shifts]
    candidates += [(sv, (1 << sv) - (1 << sw)) for sv, sw in combinations(shifts, 2)]
    best, fewest = (0, 0), None
    for sv, step in candidates:
        count = sum(len({key - ((key >> sv) & _MASK) * step for key in t}) for t in levels)
        if fewest is None or count < fewest:
            best, fewest = (sv, step), count
    return best


def _pack(terms: dict, sv: int, step: int, width: int) -> dict:
    """``{fiber key: sum c * 2^(width * e_v)}`` of an integer coefficient map."""
    packed: dict[int, int] = {}
    for key, c in terms.items():
        e = (key >> sv) & _MASK
        f = key - e * step
        packed[f] = packed.get(f, 0) + (c << (width * e))
    return packed


def _unpack(packed: dict, step: int, width: int) -> dict:
    """The coefficient map of a packed entry whose coefficients all lie
    within ``width`` (``polyring._put_digits``)."""
    out: dict[int, int] = {}
    _put_digits(out, packed.items(), step, width)
    return out


def _walk(
    s: list[dict], r: list[dict], depth: int, cap: int,
    guard: Callable[[dict, dict], None] | None = None,
) -> Iterator[list[dict]]:
    """Rows 1 .. depth of the walk of ``j_expand``, each a list of entries by
    height, over maps {fiber key: int} whose keys add and whose ints
    multiply.  ``guard(level, entry)`` runs before each product."""
    row = [{0: 1}]
    for n in range(1, depth + 1):
        # the walk rises at most one column per step
        height = min(n, depth - n, cap)
        new = []
        for k in range(height + 1):
            acc = dict(row[k - 1]) if k >= 1 else {}
            if k < len(row):
                _add_level_product(acc, s[k], row[k], guard)
            if k + 1 < len(row):
                _add_level_product(acc, r[k], row[k + 1], guard)
            new.append({f: x for f, x in acc.items() if x})
        row = new
        yield row


def _add_level_product(acc: dict, level: dict, entry: dict, guard) -> None:
    """Add level * entry to ``acc``: one int product per pair of fibers."""
    if not level or not entry:
        return
    if guard is not None:
        guard(level, entry)
    get = acc.get
    for fl, xl in level.items():
        for fe, xe in entry.items():
            f = fl + fe
            v = get(f)
            acc[f] = xl * xe if v is None else v + xl * xe


def s_expand(sf: SFraction, depth: int) -> list[Poly]:
    """First depth+1 series coefficients of an S-fraction."""
    return j_expand(contract(sf), depth)


def extract_jfraction(f: Sequence, levels: int) -> JFraction:
    """Recover J-fraction coefficients from a series with constant term 1.

    Runs the walk of ``j_expand`` backwards over the coefficient fraction
    field.  With c_k[j] = D[k+j][k], so that c_0 is the series, c_(-1) = 0
    and c_k[0] = 1, the walk recurrence at D[k+j+1][k] gives

        s_k        = c_k[1] - c_(k-1)[1],
        r_(k+1)    = c_k[2] - c_(k-1)[2] - s_k c_k[1],
        c_(k+1)[j-1] = (c_k[j+1] - c_(k-1)[j+1] - s_k c_k[j]) / r_(k+1).

    Two series orders are consumed per level, so ``len(f) > 2*levels`` is
    required.  A level with r identically zero terminates the fraction: the
    prefix is returned, ending in that zero r.
    """
    depth = len(f) - 1
    if depth < 2 * levels:
        raise ValueError(f"series depth {depth} < 2*levels = {2 * levels}")
    ctx = f[0].ctx
    cur = [c if isinstance(c, RatFunc) else RatFunc.from_poly(c) for c in f]
    if cur[0] != RatFunc.from_poly(ctx.one):
        raise ValueError("extraction needs constant term 1")
    prev = [RatFunc.from_poly(ctx.zero)] * len(cur)
    s: list[RatFunc] = []
    r: list[RatFunc] = []
    for k in range(levels + 1):
        if len(cur) < 2:  # s_levels needs the order past 2*levels
            break
        s.append(cur[1] - prev[1])
        if k == levels:
            break
        r.append(cur[2] - prev[2] - s[-1] * cur[1])
        if r[-1].is_zero():
            break
        prev, cur = cur, [(cur[j + 1] - prev[j + 1] - s[-1] * cur[j]) / r[-1]
                          for j in range(1, len(cur) - 1)]
    return JFraction.from_lists(ctx, s, r)


def rising_product_series(a: Poly, b: Poly, c: Poly, depth: int) -> list[Poly]:
    """Exact truncation of  1 + sum_{n>=1} z^n prod_{k=0}^{n-1} (a+bk)/(1-c(k+1)z).

    The running product is kept as a truncated series; dividing it by
    1 - w z is the running sum prod[m] += w prod[m-1].
    """
    ctx = a.ctx
    out = [ctx.one] + [ctx.zero] * depth
    prod = [ctx.one] + [ctx.zero] * depth
    for n in range(1, depth + 1):
        # term n reads prod to order depth - n
        factor = a + b * (n - 1)
        prod = [p * factor for p in prod[:depth - n + 1]]
        w = c * n
        for m in range(1, len(prod)):
            prod[m] = prod[m] + w * prod[m - 1]
        for m, p in enumerate(prod):
            out[m + n] = out[m + n] + p
    return out


def cf_match(
    triangle,
    fraction,
    depth: int,
    var: str = "q",
    prescaled: bool = False,
    eval_at: Poly | None = None,
) -> bool:
    """True iff the triangle's row polynomials match the fraction's series.

    Coefficient n of the expansion is compared against the stored row
    polynomial; a scaled triangle multiplies the expansion coefficient by
    scale^n, unless the fraction is already the cleared one (``prescaled``),
    in which case its expansion equals the stored rows directly.  With
    ``eval_at`` the rows and the scale are first evaluated at var = eval_at
    (for fractions that describe the rows at a fixed argument).
    """
    # checked before the expansion, which is the costly part
    if depth > triangle.depth:
        raise ValueError("triangle not materialized deep enough")
    if isinstance(fraction, SFraction):
        series = s_expand(fraction, depth)
    else:
        series = j_expand(fraction, depth)
    at = None if eval_at is None else {var: eval_at}
    return _row_mismatch(triangle, series, depth, var, at, scaled=not prescaled) is None


def jfraction_split(jf: JFraction, sf: SFraction, levels: int) -> "Poly | None":
    """Check that the S-fraction data splits the J-fraction coefficients:

        s(i) = alpha_even(i) + alpha_odd(i-1)   (i >= 0, odd evaluated at -1)
        r(m) = alpha_even(m-1) * alpha_odd(m-1) (m >= 1).

    Returns the leftover alpha_odd(-1) absorbed into s(0) when the split
    holds (zero for a literal contraction), or None when it does not.
    When the leftover and all alphas are coefficientwise nonnegative this
    is exactly the dominance data the tridiagonal criteria consume.
    """
    if sf.even_form is None or sf.odd_form is None:
        raise ValueError("split check needs closed-form alpha data")
    lv = sf.level_var
    for i in range(levels + 1):
        want = sf.even_form.specialize({lv: i}) + sf.odd_form.specialize({lv: i - 1})
        if jf.s(i) != want:
            return None
    for m in range(1, levels + 1):
        want = sf.even_form.specialize({lv: m - 1}) * sf.odd_form.specialize({lv: m - 1})
        if jf.r(m) != want:
            return None
    return sf.odd_form.specialize({lv: -1})


def _star_weights(spec: RecurrenceSpec) -> "Poly | tuple":
    """Downstep weights r_(k-1) t_k of the unit-upstep walk that shares the
    column walk ``spec``'s first column: a polynomial in k when r and t are
    closed forms, else a tuple from k = 1 over the levels both provide."""
    ctx = spec.ctx
    rc, _, tc = spec.coeffs
    if isinstance(rc, Poly) and isinstance(tc, Poly):
        return rc.substitute_poly("k", ctx.var("k") - 1) * tc
    levels = min(
        len(c) + shift for c, shift in ((rc, 1), (tc, 0)) if not isinstance(c, Poly)
    )
    return tuple(spec.walk_coeff(0, i - 1) * spec.walk_coeff(2, i) for i in range(1, levels))


def triangle_jfraction(spec: RecurrenceSpec) -> JFraction:
    """J-fraction of a column walk's first-column generating function.

    For walk coefficients (r_k, s_k, t_k) the fraction has s-sequence s_k
    and r-sequence r_{k-1} t_k; closed forms in k stay closed forms.
    """
    if spec.kind != COLUMN_WALK:
        raise ValueError("triangle_jfraction needs a column-walk spec")
    sc, weights = spec.coeffs[1], _star_weights(spec)
    s_closed, r_closed = isinstance(sc, Poly), isinstance(weights, Poly)
    return JFraction(
        spec.ctx,
        s_list=None if s_closed else sc,
        r_list=None if r_closed else weights,
        s_form=sc if s_closed else None,
        r_form=weights if r_closed else None,
        level_var="k",
    )


def check_hankel_factorization(t: Triangle, size: int) -> bool:
    """True iff the size-``size`` Hankel block of the column-walk triangle's
    first column equals D* V* (D*)^T.

    D* is the unit-upstep walk of the triangle's J-fraction
    (``triangle_jfraction``), whose downstep weights are r_(k-1) t_k of the
    column walk, and V*_k is the product of its first k weights.  For every
    walk D* V* (D*)^T is the Hankel block of D*'s first column, the
    fraction's series, so the block factors exactly when the triangle's
    first column equals that series through row 2(size-1).
    """
    if t.spec is None:
        raise ValueError("hankel factorization needs the triangle's recurrence spec")
    depth = 2 * (size - 1)
    if depth > t.depth:
        raise ValueError("triangle not materialized deep enough")
    return t.first_column()[:depth + 1] == j_expand(triangle_jfraction(t.spec), depth)
