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
bookkeeping.  Each fraction holds two level sequences, each a closed form
in ``n`` or a tuple of levels.

A J-fraction's series is the first column of its unit-upstep walk
(``j_expand``): a column walk whose up-steps weigh 1, its level steps s_k
and its down-steps r_(k+1).  So the walk is one more packed recurrence.
``_walk_build`` states it as a ``triangles._Build``, the runner the
triangle build uses: every entry stays packed as a few big integers, one
per fiber, and each level times an entry is a few integer products (the
kernel of ``polyring._direction``, ``_pack`` and ``_add_level_products``).
The same recurrence over plain integers bounds every coefficient, and
``_series`` reads back the first column only, one row at a time.
``check_hankel_factorization`` compares each row as the walk reaches it.
``cf_match`` on a built triangle whose rows are unread, and with no
evaluation, unpacks nothing: it runs the triangle's build and the walk
side by side in one direction and at one width, compares the packed row
generating functions with the walk's first column row by row as
integers, and stops both at the first row that differs (``_co_walk``).
Otherwise it compares the stored rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as mpq
from typing import Iterator, Sequence

from .polyring import _MASK, Poly, VarContext, _direction, _scaled, _times_monomial
from .triangles import (
    COLUMN_WALK,
    RecurrenceSpec,
    Triangle,
    _Build,
    _check_indices,
    _packed_row_gfs,
    _row_mismatch,
)


class DegenerateFraction(ValueError):
    """Raised when an operation needs a continued-fraction level that does
    not exist (terminated fraction or missing coefficient)."""


def _level(seq: "Poly | tuple", i: int, first: int, name: str) -> Poly:
    """Level ``i`` of a sequence that starts at level ``first``: a closed
    form at n = i, or tuple entry i - first.  IndexError below the first
    level, DegenerateFraction past a tuple's end."""
    if i < first:
        raise IndexError(f"{name} is below the first level, {first}")
    if isinstance(seq, Poly):
        return seq.specialize({"n": i})
    if i - first >= len(seq):
        raise DegenerateFraction(f"{name} not provided")
    return seq[i - first]


def _check_levels(ctx: VarContext, *named) -> None:
    """ValueError unless each (field, level sequence) is a closed form of
    ``ctx`` free of k or a tuple of levels free of n and k."""
    fields = []
    for name, seq in named:
        if isinstance(seq, Poly):
            fields.append((name, seq, ("n",)))
        else:
            fields += [(f"{name}[{i}]", level, ()) for i, level in enumerate(seq)]
    _check_indices(ctx, fields, "fraction")


@dataclass(frozen=True)
class SFraction:
    """S-fraction coefficients as two level sequences, ``even`` (alpha_0,
    alpha_2, ...) and ``odd`` (alpha_1, alpha_3, ...).

    Both are closed forms in n, valued alpha_{2n} and alpha_{2n+1}, free
    of k, or both tuples of levels free of n and k, ``even`` not empty and
    ``odd`` as long or one shorter; ValueError names the field that does
    not fit.
    """

    ctx: VarContext
    even: "Poly | tuple"
    odd: "Poly | tuple"

    def __post_init__(self):
        if isinstance(self.even, Poly) != isinstance(self.odd, Poly):
            raise ValueError("'even' and 'odd' must both be closed forms or both tuples")
        if self.even == ():
            raise ValueError("alpha list must not be empty")
        if not isinstance(self.even, Poly) and len(self.even) - len(self.odd) not in (0, 1):
            raise ValueError("'odd' must hold as many levels as 'even' or one fewer")
        _check_levels(self.ctx, ("even", self.even), ("odd", self.odd))

    @classmethod
    def from_list(cls, ctx: VarContext, alphas: Sequence) -> SFraction:
        return cls(ctx, tuple(alphas[0::2]), tuple(alphas[1::2]))

    @classmethod
    def from_forms(cls, even_form: Poly, odd_form: Poly) -> SFraction:
        return cls(even_form.ctx, even_form, odd_form)

    def alpha(self, i: int) -> Poly:
        return _level(self.odd if i % 2 else self.even, i // 2, 0, f"alpha_{i}")


@dataclass(frozen=True)
class JFraction:
    """J-fraction coefficients as two level sequences, ``s_levels`` (s_0,
    s_1, ...) and ``r_levels`` (r_1, r_2, ...), each a closed form in n
    free of k, valued s_n or r_n, or a tuple of levels free of n and k.

    ``s0``, free of n and k, overrides s_0: contraction records
    s_0 = alpha_0 there when the closed form does not specialize to it.
    """

    ctx: VarContext
    s_levels: "Poly | tuple"
    r_levels: "Poly | tuple"
    s0: Poly | None = None

    def __post_init__(self):
        s0 = () if self.s0 is None else (self.s0,)
        _check_levels(self.ctx, ("s", self.s_levels), ("r", self.r_levels), ("s0", s0))

    @classmethod
    def from_lists(cls, ctx: VarContext, s: Sequence, r: Sequence) -> JFraction:
        return cls(ctx, tuple(s), tuple(r))

    @classmethod
    def from_forms(cls, s_form: Poly, r_form: Poly, s0: Poly | None = None) -> JFraction:
        return cls(s_form.ctx, s_form, r_form, s0)

    def s(self, i: int) -> Poly:
        if i == 0 and self.s0 is not None:
            return self.s0
        return _level(self.s_levels, i, 0, f"s_{i}")

    def r(self, i: int) -> Poly:
        return _level(self.r_levels, i, 1, f"r_{i}")


def contract(sf: SFraction) -> JFraction:
    """J-fraction equal, as a series, to the given S-fraction, with the
    convention alpha_{-1} = 0, so s_0 = alpha_0.

    Closed forms give the closed forms s_n = odd(n-1) + even(n) and
    r_n = even(n-1) odd(n-1), with ``s0`` = alpha_0; tuples give tuples.
    """
    even, odd = sf.even, sf.odd
    if isinstance(even, Poly):
        n = sf.ctx.var("n")
        odd_prev = odd.substitute_poly("n", n - 1)
        even_prev = even.substitute_poly("n", n - 1)
        return JFraction(sf.ctx, odd_prev + even, even_prev * odd_prev, s0=sf.alpha(0))
    return JFraction(sf.ctx, (even[0], *(o + e for o, e in zip(odd, even[1:]))),
                     tuple(e * o for e, o in zip(even, odd)))


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
        r.append(jf.r(k))
        if not r[-1]:
            break
    top = len(r) - 1 if r and not r[-1] else (depth - 1) // 2
    s = [jf.s(k) for k in range(top + 1)]
    return s, r


def j_expand(jf: JFraction, depth: int) -> list[Poly]:
    """First depth+1 series coefficients of a J-fraction: the first column
    of its unit-upstep walk

        D[n][k] = D[n-1][k-1] + s_k D[n-1][k] + r_(k+1) D[n-1][k+1],  D[0][0] = 1.

    Coefficient n only involves s and r levels up to n.  The walk is
    ``_series``, collected into a list.  A negative depth raises
    ValueError.
    """
    return list(_series(jf, depth))


def _series(jf: JFraction, depth: int) -> Iterator[Poly]:
    """Yield the coefficients of ``j_expand`` one at a time, each as the
    walk reaches its row, so a caller that compares them as they arrive
    holds one at a time and can stop the walk at its first bad row.

    The walk is the packed recurrence of ``_walk_build``.  ``_Build.read``
    runs it at a width that makes the first column's coefficient bounds
    balanced digits, and reads back that column only, divided by den^n.
    """
    for row in _walk_build(jf, depth).read(1):
        yield row[0]


def _walk_build(jf: JFraction, depth: int) -> _Build:
    """The walk of ``j_expand`` to ``depth`` as a packed recurrence.

    A walk entry that cannot return to column zero by row ``depth`` is left
    out, so row n stops at height min(n, depth - n); ``_levels`` gives the
    levels read, and caps the height at a zero r level, which an extracted
    terminated fraction ends in.  Entry (n, k) is fed by entry (n-1, k-1) at
    unit weight, then by s_k times entry (n-1, k) and r_(k+1) times entry
    (n-1, k+1).  The levels are cleared by den, the lcm of their
    denominators: s_k by den and r_(k+1) by den^2.  A path to entry (n, k)
    takes a s-steps and u r-steps with a + 2u = n - k, so packed entry
    (n, k) is den^(n-k) times the true one, and the first entry of row n,
    the one read back, den^n times the series coefficient.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    s, r = _levels(jf, depth)
    cap = len(s) - 1 if r and not r[-1] else depth
    den = math.lcm(1, *(c.denominator for p in (*s, *r) for c in p.terms.values()))
    maps = [_scaled(p.terms, den) for p in s] + [_scaled(p.terms, den * den) for p in r]
    feeds: list = [[[]]]
    for n in range(1, depth + 1):
        below = len(feeds[-1])  # the entries of row n-1
        feeds.append([[(kk, i) for kk, i in ((k - 1, None), (k, k), (k + 1, len(s) + k))
                       if 0 <= kk < below]
                      for k in range(min(n, depth - n, cap) + 1)])
    return _Build(jf.ctx, maps, feeds, [den**n for n in range(depth + 1)])


def s_expand(sf: SFraction, depth: int) -> list[Poly]:
    """First depth+1 series coefficients of an S-fraction."""
    return j_expand(contract(sf), depth)


def extract_jfraction(f: Sequence[Poly], levels: int) -> JFraction:
    """Recover J-fraction coefficients from a series with constant term 1.

    Runs the walk of ``j_expand`` backwards with exact polynomial division.
    With c_k[j] = D[k+j][k], so that c_0 is the series, c_(-1) = 0 and
    c_k[0] = 1, the walk recurrence at D[k+j+1][k] gives

        s_k        = c_k[1] - c_(k-1)[1],
        r_(k+1)    = c_k[2] - c_(k-1)[2] - s_k c_k[1],
        c_(k+1)[j-1] = (c_k[j+1] - c_(k-1)[j+1] - s_k c_k[j]) / r_(k+1).

    Two series orders are consumed per level, so ``len(f) > 2*levels`` is
    required, and only the first 2*levels + 2 are read: c_k[j] reads the
    levels up to (2k + j) / 2, so a later order reads a level past
    ``levels``, which need not be a polynomial.  A level with r identically
    zero terminates the fraction: the prefix is returned, ending in that
    zero r.  A division that is not exact ends its row there; a later
    level that reads past that end is not a polynomial, and raises
    DegenerateFraction naming the r whose division failed.
    """
    if levels < 0:
        raise ValueError(f"levels must be nonnegative, got {levels}")
    depth = len(f) - 1
    if depth < 2 * levels:
        raise ValueError(f"series depth {depth} < 2*levels = {2 * levels}")
    f = list(f[:2 * levels + 2])
    ctx = f[0].ctx
    if f[0] != ctx.one:
        raise ValueError("extraction needs constant term 1")
    prev, cur = [ctx.zero] * len(f), f
    s: list[Poly] = []
    r: list[Poly] = []
    failed = 0  # the r level whose division first failed
    for k in range(levels + 1):
        need = 2 if k == levels else 3  # s_k reads c_k[1], r_(k+1) c_k[2]
        if len(cur) < need:
            if len(f) - 2 * k < need:  # s_levels needs the order past 2*levels
                break
            raise DegenerateFraction(
                f"r_{failed} = {r[failed - 1]} does not divide the series, "
                f"so a level past r_{failed} is not a polynomial")
        s.append(cur[1] - prev[1])
        if k == levels:
            break
        r.append(cur[2] - prev[2] - s[-1] * cur[1])
        if not r[-1]:
            break
        row = []
        for j in range(1, len(cur) - 1):
            c = (cur[j + 1] - prev[j + 1] - s[-1] * cur[j]).exact_div(r[-1])
            if c is None:
                failed = failed or k + 1
                break
            row.append(c)
        prev, cur = cur, row
    return JFraction.from_lists(ctx, s, r)


def rising_product_series(a: Poly, b: Poly, c: Poly, depth: int) -> list[Poly]:
    """Exact truncation of  1 + sum_{n>=1} z^n prod_{k=0}^{n-1} (a+bk)/(1-c(k+1)z).

    The running product is kept as a truncated series; dividing it by
    1 - w z is the running sum prod[m] += w prod[m-1].  A negative depth
    raises ValueError.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
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
    triangle: Triangle,
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
    (for fractions that describe the rows at a fixed argument).  Each row
    is compared as the walk reaches it, so a mismatch stops the walk there.

    Without ``eval_at``, a built triangle whose rows are not yet read is
    compared packed, its recurrence beside the walk (``_co_walk``).
    Otherwise each series coefficient is read back and compared with the
    stored row (``_row_mismatch``).
    """
    if isinstance(fraction, SFraction):
        fraction = contract(fraction)
    if eval_at is None:
        matched = _co_walk(triangle, fraction, depth, var, prescaled)
        if matched is not None:
            return matched
    series = _series(fraction, depth)
    at = None if eval_at is None else {var: eval_at}
    return _row_mismatch(triangle, series, depth, var, at, scaled=not prescaled) is None


def _co_walk(t: Triangle, jf: JFraction, depth: int, var: str, prescaled: bool) -> "bool | None":
    """``cf_match`` without evaluation, with neither side read back; None
    when the triangle holds rows rather than an unread packed recurrence,
    the contexts differ, or an exponent might pass the packing width; the
    rows path then compares the rows, and raises as it always has.

    The triangle's packed recurrence and the walk of ``_walk_build``, two
    ``triangles._Build`` runs, go side by side along one direction chosen
    for both sides' coefficients.  Packed row n of the triangle is M_n
    times the stored row and walk row n is W_n times the series
    coefficient.  The compared scale, 1 or the spec's denominator, is u/v
    times a monomial m with u, v > 0, so the check of row n reads

        W_n v^n P_n = M_n u^n m^n D_n

    on the packed row generating function P_n and first walk entry D_n.
    ``width`` makes the sum of both sides' coefficient bounds a balanced
    digit, so each difference of coefficients is one, and the two sides
    are equal integers fiber by fiber exactly when the polynomials are
    equal.  The two runs stop at the first row that differs.
    """
    if depth > t.depth:
        raise ValueError("triangle not materialized deep enough")
    ctx = jf.ctx
    scale = ctx.one if prescaled else t.scale
    source = t._build  # None once the rows are read
    if source is None or t.ctx is not ctx:
        return None
    ((mono, coeff),) = scale.terms.items()
    u, v = mpq(coeff).numerator, mpq(coeff).denominator
    walk = _walk_build(jf, depth)
    key = ctx.var(var).leading()[0]
    if (walk.degree + depth * (mono >> ctx._deg_shift) > _MASK
            or source.degree + depth > _MASK):
        return None

    sv, step = _direction(ctx, source.shapes + walk.shapes)
    top = max(walk.scales[n] * v**n * sum(source.bounds[n])
              + source.scales[n] * u**n * walk.bounds[n][0] for n in range(depth + 1))
    width = top.bit_length() + 1

    rows = _packed_row_gfs(source, key, sv, step, width)
    walked = walk.run(sv, step, width)
    for n in range(depth + 1):
        got = next(rows)  # the last row's is freed before the walk steps
        want = next(walked)[0]
        lhs, rhs = walk.scales[n] * v**n, source.scales[n] * u**n
        if lhs != 1:
            got = {f: lhs * x for f, x in got.items()}
        if mono:
            want = _times_monomial(want, n * mono, sv, step, width)
        if rhs != 1:
            want = {f: rhs * x for f, x in want.items()}
        if got != want:
            return False
    return True


def jfraction_split(jf: JFraction, sf: SFraction) -> "Poly | None":
    """Check that the closed-form S-fraction data splits the closed-form
    J-fraction coefficients (else ValueError):

        s(i) = alpha_even(i) + alpha_odd(i-1)   (i >= 0, odd evaluated at -1)
        r(m) = alpha_even(m-1) * alpha_odd(m-1) (m >= 1).

    These are ``contract(sf)``'s forms, compared with ``jf``'s as
    polynomials in n, so every level is checked; then s(0), which ``s0``
    may override.  Returns the leftover alpha_odd(-1) absorbed into s(0)
    when the split holds (zero for a literal contraction), or None.  When
    the leftover and all alphas are coefficientwise nonnegative this is
    exactly the dominance data the tridiagonal criteria consume.
    """
    if not all(isinstance(seq, Poly) for seq in (sf.even, jf.s_levels, jf.r_levels)):
        raise ValueError("split check needs closed-form data")
    whole = contract(sf)
    leftover = sf.odd.specialize({"n": -1})
    if (jf.s_levels != whole.s_levels or jf.r_levels != whole.r_levels
            or jf.s(0) != sf.alpha(0) + leftover):
        return None
    return leftover


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
    and r-sequence r_{k-1} t_k; a closed form in k becomes one in n, the
    level variable, which a column-walk form never names.
    """
    if spec.kind != COLUMN_WALK:
        raise ValueError("triangle_jfraction needs a column-walk spec")
    levels = (spec.coeffs[1], _star_weights(spec))
    s, r = (c.substitute_poly("k", spec.ctx.var("n")) if isinstance(c, Poly) else c
            for c in levels)
    return JFraction(spec.ctx, s, r)


def check_hankel_factorization(t: Triangle, size: int) -> bool:
    """True iff the size-``size`` Hankel block of the column-walk triangle's
    first column equals D* V* (D*)^T.

    D* is the unit-upstep walk of the triangle's J-fraction
    (``triangle_jfraction``), whose downstep weights are r_(k-1) t_k of the
    column walk, and V*_k is the product of its first k weights.  For every
    walk D* V* (D*)^T is the Hankel block of D*'s first column, the
    fraction's series, so the block factors exactly when the triangle's
    first column equals that series through row 2(size-1).  The rows are
    compared as the walk yields them, up to the first mismatch.
    """
    if t.spec is None:
        raise ValueError("hankel factorization needs the triangle's recurrence spec")
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    depth = 2 * (size - 1)
    if depth > t.depth:
        raise ValueError("triangle not materialized deep enough")
    series = _series(triangle_jfraction(t.spec), depth)
    return all(a == b for a, b in zip(t.first_column()[:depth + 1], series, strict=True))
