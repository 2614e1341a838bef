"""Triangle recurrences: declarative specs, materialization and transforms.

Two recurrence shapes are supported.  A *row-shift* triangle reads

    T[n][k] = c0(n,k) * T[n-1][k] + c1(n,k) * T[n-1][k-1] + c2(n,k) * T[n-1][k-2]

and a *column-walk* triangle reads

    D[n][k] = r(k-1) * D[n-1][k-1] + s(k) * D[n-1][k] + t(k+1) * D[n-1][k+1],

both with T[0][0] = 1 and entries zero unless 0 <= k <= n.  Coefficients are
polynomials in the reserved indeterminates ``n``/``k`` plus any parameters.

Specs whose true coefficients have a monomial denominator m (for example a
bare parameter) are stored *cleared*: the stored coefficients equal m times
the true ones, and the materialized rows then equal m^n times the true rows.
The ``Triangle.scale`` field records m so checks can multiply through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Sequence

from .polyring import Poly, RatFunc, VarContext, _check_exponents, _horner

PolySeq = Sequence[Poly]

ROW_SHIFT = "row-shift"
COLUMN_WALK = "column-walk"


@dataclass(frozen=True)
class RecurrenceSpec:
    """Declarative description of a triangle recurrence.

    For ``row-shift``, ``coeffs`` is (c0, c1, c2), polynomials in n, k and
    parameters.  For ``column-walk`` it is (r, s, t), each either a
    polynomial in k or an explicit per-level tuple of polynomials.
    """

    ctx: VarContext
    kind: Literal["row-shift", "column-walk"]
    coeffs: tuple
    denominator: Poly | None = None

    def __post_init__(self):
        if self.kind not in (ROW_SHIFT, COLUMN_WALK):
            raise ValueError(f"unknown recurrence kind {self.kind!r}")
        if self.kind == ROW_SHIFT and len(self.coeffs) not in (2, 3):
            raise ValueError("row-shift spec needs coefficients (c0, c1[, c2])")
        if self.kind == COLUMN_WALK and len(self.coeffs) != 3:
            raise ValueError("column-walk spec needs coefficients (r, s, t)")
        if self.denominator is not None and len(self.denominator.terms) != 1:
            raise ValueError("denominator must be a single monomial")

    # -- coefficient access ------------------------------------------------

    def shift_coeff(self, j: int, n: int, k: int) -> Poly:
        """Stored c_j evaluated at integer row/column indices."""
        if j >= len(self.coeffs):
            return self.ctx.zero
        return self.coeffs[j].specialize({"n": n, "k": k})

    def walk_coeff(self, which: int, k: int) -> Poly:
        """Stored walk coefficient (0=r, 1=s, 2=t) at level k."""
        c = self.coeffs[which]
        if isinstance(c, Poly):
            return c.specialize({"k": k})
        if k < 0 or k >= len(c):
            raise IndexError(
                f"walk coefficient {('r', 's', 't')[which]}[{k}] not provided"
            )
        return c[k]


@dataclass
class Triangle:
    """Materialized triangle rows; ``rows[n]`` has length n+1.  Stored
    entries equal scale^n times the true entries."""

    ctx: VarContext
    rows: list[list[Poly]]
    spec: RecurrenceSpec | None = None
    scale: Poly | None = None

    def __post_init__(self):
        if self.scale is None:
            self.scale = self.ctx.one

    @property
    def depth(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> Poly:
        if 0 <= n <= self.depth and 0 <= k < len(self.rows[n]):
            return self.rows[n][k]
        return self.ctx.zero

    def first_column(self) -> list[Poly]:
        return [row[0] for row in self.rows]

    def row_gf(self, n: int, var: str = "q") -> Poly:
        """Row generating function: sum of rows[n][k] * var^k."""
        if n > self.depth:
            raise IndexError(f"row {n} beyond materialized depth {self.depth}")
        step = self.ctx.var(var).leading()[0]
        nvars = len(self.ctx.names)
        # times var**k only shifts keys by k * step, so every entry's terms
        # go into one map, each copied once
        out: dict = {}
        get = out.get
        for k, e in enumerate(self.rows[n]):
            if not e:
                continue
            shift = k * step
            if shift:
                _check_exponents({shift: 1}, e.terms, nvars)
            for key, c in e.terms.items():
                key += shift
                v = get(key)
                if v is None:
                    out[key] = c
                else:
                    v = v + c
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        return Poly(self.ctx, out)

    def row_gfs(self, var: str = "q") -> list[Poly]:
        return [self.row_gf(n, var) for n in range(self.depth + 1)]

    def satisfies(self, spec: RecurrenceSpec | None = None) -> bool:
        """Exact recurrence-residual check of every materialized entry."""
        spec = spec or self.spec
        if spec is None:
            raise ValueError("no recurrence spec to check against")
        if self.entry(0, 0) != self.ctx.one:
            return False
        for n in range(1, self.depth + 1):
            prev = self.rows[n - 1]
            for k in range(len(self.rows[n])):
                want = _step(spec, prev, n, k)
                if self.rows[n][k] != want:
                    return False
        return True


def _step(spec: RecurrenceSpec, prev: list[Poly], n: int, k: int) -> Poly:
    """One recurrence application producing entry (n, k) from row n-1."""
    ctx = spec.ctx
    acc = ctx.zero
    if spec.kind == ROW_SHIFT:
        for j in range(len(spec.coeffs)):
            kk = k - j
            if 0 <= kk < len(prev) and prev[kk]:
                c = spec.shift_coeff(j, n, k)
                if c:
                    acc = acc + c * prev[kk]
    else:
        # r(k-1), s(k) and t(k+1) weigh the entries k-1, k and k+1 of row n-1
        for which, kk in enumerate(range(k - 1, k + 2)):
            if 0 <= kk < len(prev) and prev[kk]:
                c = spec.walk_coeff(which, kk)
                if c:
                    acc = acc + c * prev[kk]
    return acc


def build_triangle(spec: RecurrenceSpec, depth: int) -> Triangle:
    """Materialize rows 0..depth; entries outside 0 <= k <= n are zero."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    ctx = spec.ctx
    rows = [[ctx.one]]
    for n in range(1, depth + 1):
        prev = rows[-1]
        rows.append([_step(spec, prev, n, k) for k in range(n + 1)])
    return Triangle(ctx, rows, spec=spec, scale=spec.denominator or ctx.one)


# ---------------------------------------------------------------------------
# triangle-level transforms
# ---------------------------------------------------------------------------


def reciprocal(t: Triangle) -> Triangle:
    """Index-reversed triangle: entry (n, k) becomes entry (n, n-k)."""
    rows = [list(reversed(row)) for row in t.rows]
    return Triangle(t.ctx, rows, spec=None, scale=t.scale)


def gamma_binomial(t: Triangle, gamma: Poly) -> Triangle:
    """Weighted binomial transform: out[n][k] = sum_i C(n,i) gamma^(n-i) t[i][k]."""
    if t.scale != t.ctx.one:
        raise ValueError("gamma-binomial transform needs an unscaled triangle")
    ctx = t.ctx
    gpow = [ctx.one]
    for _ in range(t.depth):
        gpow.append(gpow[-1] * gamma)
    rows = []
    for n in range(t.depth + 1):
        row = []
        for k in range(n + 1):
            acc = ctx.zero
            for i in range(k, n + 1):
                e = t.entry(i, k)
                if e:
                    acc = acc + ctx.const(math.comb(n, i)) * gpow[n - i] * e
            row.append(acc)
        rows.append(row)
    return Triangle(ctx, rows, spec=None, scale=ctx.one)


def shift_row_gf(
    t: Triangle,
    shift: Poly,
    var: str = "q",
    den: Poly | None = None,
) -> Triangle:
    """Coefficient triangle of the argument-shifted row polynomials.

    Plain form (den=None): new row n holds the coefficients of
    B_n(q) = A_n(q + shift).  With ``den`` given, the substitution is
    q -> (q*den + shift)/den and the result is cleared by den^n, i.e. the
    output rows hold den^n * A_n((q*den + shift)/den); the output scale
    is multiplied by den accordingly.  ``den`` must not involve ``var``.
    """
    ctx = t.ctx
    q = ctx.var(var)
    if den is not None and den.degree_in(var):
        raise ValueError(f"clearing denominator must not involve {var!r}")
    image = q * den + shift if den is not None else q + shift
    rows = []
    for n in range(t.depth + 1):
        # sum_k A[n][k] image^k den^(n-k)
        parts = _horner(t.rows[n], image, den).coeffs_in(var)
        if parts and max(parts) > n:
            raise ValueError("shifted row has degree above the row index")
        rows.append([parts.get(k, ctx.zero) for k in range(n + 1)])
    scale = t.scale if den is None else t.scale * den
    return Triangle(ctx, rows, spec=None, scale=scale)


def _evaluate(p: Poly, at: Mapping[str, Poly]) -> Poly:
    """``p`` with each variable named in ``at`` replaced by its value in turn."""
    for name, value in at.items():
        p = p.substitute_poly(name, value)
    return p


def _row_mismatch(t: Triangle, want: Iterable[Poly], upto: int, var: str,
                  at: Mapping[str, Poly] | None = None, scaled: bool = True):
    """First row n <= upto whose polynomial is not want[n] * scale^n, as
    (n, true row value), or None when every row matches.

    ``want`` may be any iterable: row n is compared as it arrives, and no
    entry past the first mismatch is drawn.  One that ends before row
    ``upto`` raises ValueError.  Unless ``scaled``, want[n] is compared as
    it is.  With an assignment ``at`` (variable -> value) given, the rows
    and the scale are both evaluated there first; a scale that involves an
    assigned variable would otherwise stay symbolic.
    """
    if upto > t.depth:
        raise ValueError("triangle not materialized deep enough")
    at = at or {}
    scale = _evaluate(t.scale, at) if scaled else t.ctx.one
    if not scale:  # every row past the first would then compare 0 with 0
        point = ", ".join(f"{v} = {p}" for v, p in at.items())
        raise ValueError(f"the clearing denominator {t.scale} vanishes at {point}")
    spow = t.ctx.one
    want = iter(want)
    for n in range(upto + 1):
        w = next(want, None)
        if w is None:
            raise ValueError(f"the series ends before row {n} of the {upto + 1} to check")
        got = _evaluate(t.row_gf(n, var), at)
        if got != w * spow:
            return n, RatFunc(got, spow)
        spow = spow * scale
    return None


def companion_spec(
    ctx: VarContext,
    a0: Poly,
    a1: Poly,
    a2: Poly,
    b0: Poly,
    b1: Poly,
    b2: Poly,
    d: Poly,
) -> RecurrenceSpec:
    """Two-term companion recurrence of the general four-term triangle.

    The companion array A satisfies

        A[n][k] = (a0 n + a1 k + a2) A[n-1][k]
                + ([b0 + d(a1-a0)] n + (b1 - 2 d a1) k + b2 + d(a1-a2)) A[n-1][k-1]

    and its row polynomials reproduce the four-term triangle's through the
    substitution checked by :func:`check_companion_relation`.
    """
    n, k = ctx.var("n"), ctx.var("k")
    c0 = a0 * n + a1 * k + a2
    c1 = (b0 + d * (a1 - a0)) * n + (b1 - 2 * d * a1) * k + b2 + d * (a1 - a2)
    return RecurrenceSpec(ctx, ROW_SHIFT, (c0, c1))


def check_companion_relation(
    t_four: Triangle,
    t_comp: Triangle,
    lam: Poly,
    d: Poly,
    upto: int,
    var: str = "q",
) -> bool:
    """True iff stored row polys satisfy T_n(q) = sum_k A[n][k] q^k (lam+d q)^(n-k).

    The four-term triangle may be denominator-cleared (scale lam); the
    comparison multiplies the companion side by scale^n, which is exactly
    the denominator-cleared form of T_n(q) = (lam+d q)^n A_n(q/(lam+d q)).
    """
    if t_comp.scale != t_comp.ctx.one:
        raise ValueError("companion triangle must be unscaled")
    if upto > t_comp.depth:
        raise ValueError("companion triangle not materialized deep enough")
    q = t_four.ctx.var(var)
    base = lam + d * q
    rhs = [_horner([t_comp.entry(n, k) for k in range(n + 1)], q, base) for n in range(upto + 1)]
    return _row_mismatch(t_four, rhs, upto, var) is None


def triangle_convolution(
    m: Triangle, xs: PolySeq, ys: PolySeq, upto: int
) -> list[Poly]:
    """z_n = sum_k m[n][k] x_k y_(n-k) for n <= upto."""
    if upto > m.depth:
        raise ValueError("triangle not materialized deep enough")
    if len(xs) <= upto or len(ys) <= upto:
        raise ValueError("input sequences too short for requested length")
    out = []
    for n in range(upto + 1):
        acc = m.ctx.zero
        for k in range(n + 1):
            e = m.entry(n, k)
            if e:
                acc = acc + e * xs[k] * ys[n - k]
        out.append(acc)
    return out


def check_product_formula(
    t: Triangle,
    factor: Poly,
    upto: int,
    var: str = "q",
    eval_at: Poly | None = None,
) -> bool:
    """True iff row polynomials equal the running product of ``factor``.

    ``factor`` is a polynomial in the reserved index ``k``; the n-th row
    value is compared against scale^n * prod_{k=1..n} factor(k).  With
    ``eval_at`` given, rows and scale are first evaluated at var = eval_at.
    """
    running = [t.ctx.one]
    for n in range(1, upto + 1):
        running.append(running[-1] * factor.specialize({"k": n}))
    at = None if eval_at is None else {var: eval_at}
    return _row_mismatch(t, running, upto, var, at) is None


# ---------------------------------------------------------------------------
# golden-file round trip
# ---------------------------------------------------------------------------


def write_golden(t: Triangle, path) -> None:
    """One row per line, canonical polynomial text, tab-separated."""
    with open(path, "w") as fh:
        for row in t.rows:
            fh.write("\t".join(str(e) for e in row) + "\n")


def read_golden(ctx: VarContext, path) -> list[list[Poly]]:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            rows.append([ctx.parse(cell) for cell in line.split("\t")])
    return rows
