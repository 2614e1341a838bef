"""Triangle recurrences: declarative specs, materialization and transforms.

Two recurrence shapes are supported.  A *row-shift* triangle reads

    T[n][k] = c0(n,k) * T[n-1][k] + c1(n,k) * T[n-1][k-1] + c2(n,k) * T[n-1][k-2]

and a *column-walk* triangle reads

    D[n][k] = r(k-1) * D[n-1][k-1] + s(k) * D[n-1][k] + t(k+1) * D[n-1][k+1],

both with T[0][0] = 1 and entries zero unless 0 <= k <= n.  Coefficients are
polynomials in the parameters and the indices ``n``/``k``, a walk's in k alone.

Specs whose true coefficients have a monomial denominator m (for example a
bare parameter) are stored *cleared*: the stored coefficients equal m times
the true ones, and the materialized rows then equal m^n times the true rows.
The ``Triangle.scale`` field records m so checks can multiply through, and
``RecurrenceSpec`` holds m to one monomial free of n and k with a positive
coefficient, so that certificates on the stored rows carry over.

``build_triangle`` states the recurrence as a ``_Build``, the one packed
recurrence runner, which the continued-fraction walk shares
(``contfrac._walk_build``).  It runs on the kernel of
``polyring._direction``, ``_pack`` and ``_add_level_products``: each entry
is a few big integers, and one step sums integer products of the fibers of
a coefficient and an entry.  The coefficient fibers that share a primitive
factor, up to content and shift, are multiplied by it once per fiber of
the entry they feed.  A built triangle reads its rows back into ``Poly``
entries only when they are first read.  Until then ``contfrac.cf_match``
compares its packed rows with the packed walk, so a triangle that only it
reads is never read back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as mpq
from typing import Iterable, Iterator, Literal, Mapping, Sequence

from .polyring import (
    _MASK,
    Poly,
    VarContext,
    _add_level_products,
    _add_terms,
    _as_rational,
    _check_exponents,
    _degree,
    _direction,
    _horner,
    _pack,
    _scaled,
    _times_monomial,
    _unpack,
)

PolySeq = Sequence[Poly]

ROW_SHIFT = "row-shift"
COLUMN_WALK = "column-walk"
RESERVED_VARS = ("n", "k")  # the recurrence indices


def _check_indices(ctx: VarContext, polys, owner: str) -> None:
    """Raise ValueError naming the first of ``polys``, triples (field,
    polynomial, the recurrence indices it may involve), that is not a
    polynomial of ``ctx`` or involves another recurrence index."""
    for name, p, indices in polys:
        if not isinstance(p, Poly) or p.ctx is not ctx:
            raise ValueError(f"{name!r}: {p!r} is not a polynomial of the {owner}'s context")
        bad = [v for v in p.variables() if v in RESERVED_VARS and v not in indices]
        if bad:
            raise ValueError(f"{name!r}: {p} involves the recurrence index {bad[0]}")


@dataclass(frozen=True)
class RecurrenceSpec:
    """Declarative description of a triangle recurrence.

    For ``row-shift``, ``coeffs`` is (c0, c1, c2), polynomials in n, k and
    parameters.  For ``column-walk`` it is (r, s, t), each either a
    polynomial in k or an explicit per-level tuple of polynomials free of
    n and k.  ``denominator`` is one monomial free of n and k with a
    positive coefficient.  ``ctx`` names both n and k, and all belong to
    it, or ValueError names the field or index that does not fit.
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
        for index in RESERVED_VARS:
            if index not in self.ctx.names:
                raise ValueError(f"the spec's context lacks the recurrence index {index!r}")
        walk = self.kind == COLUMN_WALK
        polys = []  # (field, polynomial, the indices it may involve)
        for name, c in zip(("r", "s", "t") if walk else ("c0", "c1", "c2"), self.coeffs):
            if isinstance(c, Poly) or not walk:
                polys.append((name, c, ("k",) if walk else RESERVED_VARS))
            else:
                polys += [(f"{name}[{i}]", level, ()) for i, level in enumerate(c)]
        d = self.denominator
        if d is not None:
            polys.append(("denominator", d, ()))
        _check_indices(self.ctx, polys, "spec")
        if d is not None and (len(d.terms) != 1 or d.leading()[1] < 0):
            raise ValueError(f"'denominator': {d} is not one monomial with a positive coefficient")

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
            raise IndexError(f"walk coefficient {'rst'[which]}[{k}] not provided")
        return c[k]


class Triangle:
    """Triangle rows; ``rows[n]`` has length n+1.  Stored entries equal
    scale^n times the true entries.

    A triangle from ``build_triangle`` holds its recurrence on packed fibers
    (``_Build``) until ``rows`` is first read, directly or through
    ``entry``, ``first_column``, ``row_gf`` and the like.  The read turns
    the recurrence into rows, which the triangle keeps and every later
    check, ``cf_match`` included, reads.  Until then ``cf_match`` runs the
    packed recurrence itself.
    """

    __hash__ = None  # mutable rows inside

    def __init__(self, ctx: VarContext, rows: list[list[Poly]] | None,
                 spec: RecurrenceSpec | None = None, scale: Poly | None = None):
        self.ctx = ctx
        self._rows = rows
        self._build: _Build | None = None
        self.spec = spec
        self.scale = ctx.one if scale is None else scale

    @property
    def rows(self) -> list[list[Poly]]:
        if self._rows is None:
            self.rows = list(self._build.read())
        return self._rows

    @rows.setter
    def rows(self, rows: list[list[Poly]]) -> None:
        self._rows, self._build = rows, None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ctx, self.rows, self.spec, self.scale)
                == (other.ctx, other.rows, other.spec, other.scale))

    def __repr__(self):
        return (f"Triangle(ctx={self.ctx!r}, rows={self.rows!r}, spec={self.spec!r}, "
                f"scale={self.scale!r})")

    @property
    def depth(self) -> int:
        return self._build.depth if self._rows is None else len(self._rows) - 1

    def entry(self, n: int, k: int) -> Poly:
        if 0 <= n <= self.depth and 0 <= k < len(self.rows[n]):
            return self.rows[n][k]
        return self.ctx.zero

    def first_column(self) -> list[Poly]:
        return [row[0] for row in self.rows]

    def row_gf(self, n: int, var: str = "q") -> Poly:
        """Row generating function: sum of rows[n][k] * var^k."""
        if not 0 <= n <= self.depth:
            raise IndexError(f"row {n} outside the materialized rows 0..{self.depth}")
        step = self.ctx.var(var).leading()[0]
        nvars = len(self.ctx.names)
        row = self.rows[n]
        for k, e in enumerate(row):
            if k and e:
                _check_exponents({k * step: 1}, e.terms, nvars)
        # times var**k only shifts keys by k * step, so every entry's terms
        # go into one map, each copied once
        return Poly(self.ctx, _add_terms({}, ((key + k * step, c) for k, e in enumerate(row)
                                              for key, c in e.terms.items())))

    def row_gfs(self, var: str = "q") -> list[Poly]:
        return [self.row_gf(n, var) for n in range(self.depth + 1)]

    def satisfies(self, spec: RecurrenceSpec | None = None) -> bool:
        """True iff T[0][0] = 1 and every entry of rows 1 .. depth is
        ``spec``'s recurrence over the row above: the exact
        recurrence-residual check, in ``Poly`` arithmetic, so that it does
        not share the packed runner that builds the rows.  Coefficients are
        read only where they weigh a nonzero entry."""
        spec = spec or self.spec
        if spec is None:
            raise ValueError("no recurrence spec to check against")
        rows = self.rows
        if rows[0] != [self.ctx.one]:
            return False
        row_shift = spec.kind == ROW_SHIFT
        for n in range(1, len(rows)):
            above = rows[n - 1]
            if len(rows[n]) != n + 1:
                return False
            for k, entry in enumerate(rows[n]):
                want = self.ctx.zero
                # as in _spec_build: c_j(n, k) weighs entry k-j; r, s and t
                # at level kk weigh entry kk = k-1, k, k+1
                for j in range(3):
                    kk = k - j if row_shift else k - 1 + j
                    if 0 <= kk < n and above[kk]:
                        c = spec.shift_coeff(j, n, k) if row_shift else spec.walk_coeff(j, kk)
                        want = want + c * above[kk]
                if entry != want:
                    return False
        return True


class _Build:
    """A recurrence to ``depth``, ready to run on packed fibers: the one
    runner of the triangle build and of the continued-fraction walk.

    ``maps`` are integer coefficient maps, and ``feeds[n][k]`` lists the
    pairs (kk, i): entry (n, k) is the sum of maps[i] times entry (n-1, kk),
    where i None is a unit weight.  ``read`` divides packed row n by
    ``scales[n]``.  ``bounds[n][k]``, the same recurrence over the maps'
    absolute sums with 1 for a unit weight, bounds every coefficient of
    packed entry (n, k), and ``degree`` bounds its total degree.  ``shapes``
    are the maps' distinct key sets, from which a packed direction is
    chosen.
    """

    def __init__(self, ctx: VarContext, maps: list[dict],
                 feeds: list[list[list[tuple[int, int | None]]]], scales: list[int]):
        self.ctx = ctx
        self.maps = maps
        self.feeds = feeds
        self.scales = scales
        self.depth = len(feeds) - 1
        self.shapes = list({frozenset(t) for t in maps})
        norms = [sum(map(abs, t.values())) for t in maps]
        self.bounds = [[1]]
        for row in feeds[1:]:
            prev = self.bounds[-1]
            self.bounds.append([sum(prev[kk] if i is None else norms[i] * prev[kk]
                                    for kk, i in feed) for feed in row])
        self.degree = self.depth * _degree(ctx, maps)

    def run(self, sv: int, step: int, width: int, check: bool = False) -> Iterator[list[dict]]:
        """Rows 0 .. depth, each a list of packed entries, packed along
        ``(sv, step)`` at ``width``.  Each entry is one accumulator of
        ``_add_level_products`` over its feeds, seeded with a copy of the
        entry its unit feed names.  With ``check``, each product of a
        nonzero map and a nonzero entry is checked first, on the map and
        the entry read back, and raises ValueError as a ``Poly`` product
        would when an exponent passes the packing width."""
        nvars = len(self.ctx.names)
        packed: list = [None] * len(self.maps)
        row = [{0: 1}]
        yield row
        for feeds in self.feeds[1:]:
            new = []
            for feed in feeds:
                acc, pairs = {}, []
                for kk, i in feed:
                    if i is None:
                        acc = dict(row[kk])
                        continue
                    if check and self.maps[i] and row[kk]:
                        _check_exponents(self.maps[i], _unpack(row[kk], step, width), nvars)
                    level = packed[i]
                    if level is None:
                        level = packed[i] = _pack(self.maps[i], sv, step, width)
                    pairs.append((level, row[kk]))
                new.append(_add_level_products(acc, pairs))
            row = new
            yield row

    def read(self, columns: int | None = None) -> Iterator[list[Poly]]:
        """Rows 0 .. depth read back, each its first ``columns`` entries
        (every entry when None) divided by the row's scale.

        The run goes in the direction that leaves the maps the fewest
        fibers, at a width that makes the bound of every entry read back a
        balanced digit.  An entry left packed may then hold digits past the
        width; it is still the exact integer of its fibers, and so are the
        entries it feeds.  When an entry's degree may pass the packing
        width, every entry is bounded, so that each reads back exactly, and
        the run checks every product (``run``'s ``check``)."""
        ctx = self.ctx
        check = self.degree > _MASK
        sv, step = _direction(ctx, self.shapes)
        top = max(b for row in self.bounds for b in (row if check else row[:columns]))
        width = top.bit_length() + 1
        for packed, scale in zip(self.run(sv, step, width, check), self.scales):
            row = []
            for entry in packed[:columns]:
                terms = _unpack(entry, step, width)
                if scale > 1:
                    terms = {key: _as_rational(mpq(c, scale)) for key, c in terms.items()}
                row.append(Poly(ctx, terms))
            yield row


def _spec_build(spec: RecurrenceSpec, depth: int) -> _Build:
    """``spec``'s recurrence to ``depth`` as a ``_Build``.

    The coefficients are read here, where the ``Poly`` recurrence reads
    them, and in the order it first reads them: an entry that may be
    nonzero reads the coefficients that weigh it into the next row.  A
    column walk with listed levels short of the depth raises IndexError
    here.  Every map is scaled by L, the lcm of the specialized
    coefficients' denominators, so that its coefficients are ``int``s, also
    where L is 1 and a coefficient is an integral ``Fraction``; packed row
    n is then L^n times the stored row.
    """
    ctx = spec.ctx
    row_shift = spec.kind == ROW_SHIFT
    # a coefficient read once serves every (n, k) it does not depend on
    uses = [c.variables() for c in spec.coeffs] if row_shift else ()
    memo: dict = {}  # -> index into maps, or -1 for a zero coefficient
    maps: list[dict] = []
    feeds: list[list[list[tuple[int, int]]]] = [[[]]]
    live = [True]  # the entries of the row above that may be nonzero
    for n in range(1, depth + 1):
        row = []
        for k in range(n + 1):
            feed = []
            # row shift: c_j(n, k) weighs entry k-j; column walk: r, s
            # and t at level kk weigh entry kk = k-1, k, k+1
            for j in range(3):
                kk = k - j if row_shift else k - 1 + j
                if not (0 <= kk < n and live[kk]):
                    continue
                if not row_shift:
                    key = (j, kk)
                elif j < len(uses):
                    key = (j, n if "n" in uses[j] else -1, k if "k" in uses[j] else -1)
                else:
                    continue
                i = memo.get(key)
                if i is None:
                    c = spec.shift_coeff(j, n, k) if row_shift else spec.walk_coeff(j, kk)
                    i = memo[key] = len(maps) if c else -1
                    if c:
                        maps.append(c.terms)
                if i >= 0:
                    feed.append((kk, i))
            row.append(feed)
        feeds.append(row)
        live = [bool(feed) for feed in row]

    lcm = math.lcm(1, *(c.denominator for t in maps for c in t.values()))
    return _Build(ctx, [_scaled(t, lcm) for t in maps], feeds, [lcm**n for n in range(depth + 1)])


def _packed_row_gfs(build: _Build, key: int, sv: int, step: int, width: int) -> Iterator[dict]:
    """The packed row generating functions sum_k entry(n, k) * v^k of a
    ``_Build``'s run, with ``key`` the packed key of v, rows 0 up."""
    for row in build.run(sv, step, width):
        gf: dict = {}
        for k, entry in enumerate(row):
            _add_terms(gf, _times_monomial(entry, k * key, sv, step, width).items())
        yield gf


def build_triangle(spec: RecurrenceSpec, depth: int) -> Triangle:
    """Rows 0..depth of ``spec``'s triangle; entries outside 0 <= k <= n are
    zero.

    The triangle holds the recurrence on packed fibers (``_Build``) and
    reads its rows back when they are first read.  When an entry's degree
    may pass the packing width, the rows are read back here, so that an
    exponent past it raises here as a ``Poly`` product would.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    ctx = spec.ctx
    t = Triangle(ctx, None, spec=spec, scale=spec.denominator or ctx.one)
    t._build = _spec_build(spec, depth)
    if t._build.degree > _MASK:
        t.rows = list(t._build.read())
    return t


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
    (n, row, scale^n), whose true value is row / scale^n, or None when
    every row matches.

    ``want`` may be any iterable: row n is compared as it arrives, and no
    entry past the first mismatch is drawn.  One that ends before row
    ``upto`` raises ValueError.  Unless ``scaled``, want[n] is compared as
    it is.  With an assignment ``at`` (variable -> value) given, the rows
    and the scale are both evaluated there first; a scale that involves an
    assigned variable would otherwise stay symbolic.
    """
    if upto > t.depth:
        raise ValueError("triangle not materialized deep enough")
    if upto < 0:
        raise ValueError(f"no rows up to row {upto} to check")
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
            return n, got, spow
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
