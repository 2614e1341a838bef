"""Exact sparse multivariate polynomial arithmetic over big rationals.

Everything downstream (triangles, continued fractions, minor computation)
runs on the types defined here.  Coefficients are exact rationals
(``fractions.Fraction``, bound here as ``mpq``, with plain ``int`` kept for
integral values since CPython integer arithmetic is faster for them).
Monomials are packed into a single integer: 16 bits per exponent, preceded
by a 16-bit total-degree field, so that

  * monomial multiplication is integer addition, and
  * integer comparison of packed keys is exactly graded lexicographic order.

Large products of integer polynomials are computed fiber by fiber, one
big-integer product per pair of fibers (``_fiber_product``); every other
product runs the plain term-by-term dict kernel.  Every packed kernel keys
its fibers the same way: along a direction that moves e_v by one (a
variable, a pair v - w, or in large products a signed triple such as
v + w - x), the terms on one line share the key ``key - e_v * step``
(``_lines``), and digit i of a packed fiber reads back at ``fiber + i *
step`` (``_put_digits``).  The triangle build
(``triangles.build_triangle``) and the continued-fraction walk
(``contfrac.j_expand``), both runs of ``triangles._Build``, keep their
entries packed from step to step on the kernel of ``_direction``, ``_pack``
and ``_add_level_products``.
Their levels are products of linear forms, so many level fibers are one
primitive P times a small content, shifted: ``_pack`` factors every level
fiber so, and ``_add_level_products`` multiplies each P that several
fibers share once per output fiber, after summing the scaled entry fibers
it weighs.
``_fiber_product`` packs each fiber under the key of its lowest monomial
instead (``_anchored``), so a fiber far from e_v = 0 costs no padding.

A coefficient map holds nonzero coefficients only: every sum of maps goes
through ``_add_terms``, which deletes a key whose sum is zero.  The
multiply-accumulate kernels drop zeros once at the end instead, which is
cheaper there: the dict kernel of ``Poly.__mul__`` and
``_add_level_products`` filter their sums, and ``_put_digits`` skips zero
digits.

All values are immutable after construction and safe to share.  The one
slot written later, ``Poly._directions``, is a memo that ``_fiber_product``
fills: per triples flag, the fiber direction chosen for the keys of
``terms``, so it stays valid as long as the value does.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction as mpq
from functools import lru_cache, reduce
from itertools import combinations
from math import gcd
from operator import neg, or_
from typing import Iterable, Iterator, Mapping, Sequence, Union

Rational = Union[int, mpq]

_BITS = 16
_MASK = (1 << _BITS) - 1
# ``_fiber_product`` also tries three-variable directions on products of
# at least ``_LARGE`` term products whose operands' total degrees sum below
# ``_TRIPLE_DEGREE``, and scores them on ``_SAMPLE`` keys
_LARGE = 1 << 14
_TRIPLE_DEGREE = 1 << (_BITS - 1)
_SAMPLE = 24
# ``_put_digits`` reads a fiber of more digits than this by halves
_SPLIT = 128
# ``_parse_poly`` reads at most this many nested '(' and unary '-' atoms;
# each '(' costs it four stack frames
_MAX_NESTING = 100
# ``_decimal`` converts an int of at most this many bits (602 digits) in one
# piece: below 640, the least limit ``sys.set_int_max_str_digits`` accepts
_DECIMAL_BITS = 2000


class ContextMismatch(ValueError):
    """Raised when operands belong to different variable contexts."""


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offset of the fault."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at column {pos + 1} in {text!r}")
        self.text = text
        self.pos = pos


def _as_rational(value) -> Rational:
    """Coerce ints and Fractions to int-or-mpq."""
    if isinstance(value, int):
        return value
    q = mpq(value)
    if q.denominator == 1:
        return int(q)
    return q


class VarContext:
    """An ordered, immutable set of indeterminate names.

    Every polynomial carries a reference to its context; operations require
    both operands to share the same context object.
    """

    __slots__ = ("names", "_pos", "_shifts", "_deg_shift", "zero", "one")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for nm in names:
            if not nm or not (nm[0].isalpha() or nm[0] == "_"):
                raise ValueError(f"invalid variable name {nm!r}")
        self.names = names
        self._pos = {nm: i for i, nm in enumerate(names)}
        n = len(names)
        self._shifts = tuple(_BITS * (n - 1 - i) for i in range(n))
        self._deg_shift = _BITS * n
        self.zero = Poly(self, {})
        self.one = Poly(self, {0: 1})

    def __repr__(self):
        return f"VarContext({', '.join(self.names)})"

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} in {self!r}") from None

    # -- monomial packing ------------------------------------------------

    def pack(self, exponents: Sequence[int]) -> int:
        if len(exponents) != len(self.names):
            raise ValueError("exponent vector length does not match context")
        key = 0
        deg = 0
        for e, sh in zip(exponents, self._shifts):
            if e < 0 or e > _MASK:
                raise ValueError(f"exponent {e} out of range")
            key += e << sh
            deg += e
        return key + (deg << self._deg_shift)

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple((key >> sh) & _MASK for sh in self._shifts)

    # -- constructors ----------------------------------------------------

    def const(self, value) -> Poly:
        c = _as_rational(value)
        return Poly(self, {0: c} if c else {})

    def var(self, name: str, power: int = 1) -> Poly:
        if power < 0 or power > _MASK:
            raise ValueError(f"exponent {power} out of range")
        key = (1 << self._shifts[self.index(name)]) + (1 << self._deg_shift)
        return Poly(self, {key * power: 1}) if power else self.one

    def from_terms(self, terms: Iterable[tuple]) -> Poly:
        """Build a polynomial from ``(coeff, {name: exp, ...})`` pairs."""
        def monomials():
            for coeff, exps in terms:
                c = _as_rational(coeff)
                if c:
                    vec = [0] * len(self.names)
                    for nm, e in exps.items():
                        vec[self.index(nm)] = e
                    yield self.pack(vec), c

        return Poly(self, {k: _as_rational(c) for k, c in _add_terms({}, monomials()).items()})

    def parse(self, text: str) -> Poly:
        return _parse_poly(self, text)


class Poly:
    """Immutable sparse polynomial with exact rational coefficients.

    ``terms`` maps packed monomial keys to nonzero coefficients; the zero
    polynomial has an empty map; sums keep it so through ``_add_terms``.
    Equality is coefficientwise.
    """

    __slots__ = ("ctx", "terms", "_directions")
    __hash__ = None  # mutable dict inside; identity hashing would mislead

    def __init__(self, ctx: VarContext, terms: dict):
        self.ctx = ctx
        self.terms = terms

    # -- basic predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> Rational:
        """The value of a constant polynomial (error otherwise)."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        raise ValueError(f"{self} is not constant")

    def is_nonneg(self) -> bool:
        """True iff every stored coefficient is >= 0."""
        return all(c >= 0 for c in self.terms.values())

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(self.terms) >> self.ctx._deg_shift

    def degree_in(self, name: str) -> int:
        sh = self.ctx._shifts[self.ctx.index(name)]
        return max(((k >> sh) & _MASK for k in self.terms), default=0)

    def variables(self) -> tuple[str, ...]:
        """Names that actually occur with positive exponent."""
        seen = [False] * len(self.ctx.names)
        shifts = self.ctx._shifts
        for key in self.terms:
            for i, sh in enumerate(shifts):
                if (key >> sh) & _MASK:
                    seen[i] = True
        return tuple(nm for nm, s in zip(self.ctx.names, seen) if s)

    # -- ring operations ---------------------------------------------------

    def _require_same_ctx(self, other: Poly):
        if self.ctx is not other.ctx:
            raise ContextMismatch(
                f"operands from different contexts: {self.ctx!r} vs {other.ctx!r}"
            )

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            self._require_same_ctx(other)
            return other
        if isinstance(other, (int, mpq)):
            return self.ctx.const(other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        if len(a) < len(b):
            a, b = b, a
        return Poly(self.ctx, _add_terms(dict(a), b.items()))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        b = other.terms
        if not b:
            return self
        return Poly(self.ctx, _add_terms(dict(self.terms), zip(b, map(neg, b.values()))))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        small, large = (other, self) if len(self.terms) > len(other.terms) else (self, other)
        a, b = small.terms, large.terms
        if not a:
            return self.ctx.zero
        # single-term shortcut: shift-and-scale
        if len(a) == 1:
            ((ea, ca),) = a.items()
            if ea:
                _check_exponents(a, b, len(self.ctx.names))
            if ca == 1:
                return Poly(self.ctx, {eb + ea: cb for eb, cb in b.items()})
            return Poly(self.ctx, {eb + ea: cb * ca for eb, cb in b.items()})
        _check_exponents(a, b, len(self.ctx.names))
        out = _fiber_product(small, large)
        if out is not None:
            return Poly(self.ctx, out)
        out = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                k = ea + eb
                v = get(k)
                out[k] = ca * cb if v is None else v + ca * cb
        return Poly(self.ctx, {k: v for k, v in out.items() if v})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        """Division by a nonzero rational constant only."""
        if isinstance(other, Poly):
            val = other.const_value()
        else:
            val = other
        q = mpq(val)
        if not q:
            raise ZeroDivisionError("division of polynomial by zero")
        return self.scale(1 / q)

    def scale(self, c) -> Poly:
        c = _as_rational(c)
        if not c:
            return self.ctx.zero
        if c == 1:
            return self
        return Poly(self.ctx, {k: _as_rational(v * c) for k, v in self.terms.items()})

    # -- substitution and evaluation ----------------------------------------

    def coeffs_in(self, name: str) -> dict[int, Poly]:
        """Split into ``{e: coefficient of name**e}`` with name removed."""
        idx = self.ctx.index(name)
        sh = self.ctx._shifts[idx]
        deg_sh = self.ctx._deg_shift
        parts: dict[int, dict] = {}
        for key, c in self.terms.items():
            e = (key >> sh) & _MASK
            rest = key - (e << sh) - (e << deg_sh)
            parts.setdefault(e, {})[rest] = c
        return {e: Poly(self.ctx, t) for e, t in parts.items()}

    def substitute_poly(self, name: str, value: Poly) -> Poly:
        """Ring-homomorphic substitution with a polynomial image."""
        self._require_same_ctx(value)
        parts = self.coeffs_in(name)
        if not parts:
            return self
        return _horner([parts.get(e, self.ctx.zero) for e in range(max(parts) + 1)], value)

    def specialize(self, assignment: Mapping[str, Rational]) -> Poly:
        """Replace the named variables by rational values, in one pass."""
        ctx = self.ctx
        idxs = []
        vals = []
        for nm, v in assignment.items():
            idxs.append(ctx.index(nm))
            vals.append(_as_rational(v))
        if not idxs:
            return self
        shifts = [ctx._shifts[i] for i in idxs]
        deg_sh = ctx._deg_shift

        def images():
            for key, c in self.terms.items():
                for sh, val in zip(shifts, vals):
                    e = (key >> sh) & _MASK
                    if e:
                        key -= (e << sh) + (e << deg_sh)
                        c = c * val**e
                if c:
                    yield key, c

        return Poly(ctx, {k: _as_rational(c) for k, c in _add_terms({}, images()).items()})

    def eval(self, assignment: Mapping[str, Rational]):
        """Exact rational value; every variable occurring must be assigned."""
        value = self.specialize(assignment)
        if not value.is_constant():
            missing = value.variables()
            raise KeyError(f"missing assignment for variable(s) {missing}")
        return mpq(value.const_value())

    # -- arithmetic helpers used by exact linear algebra --------------------

    def leading(self) -> tuple[int, Rational]:
        """(packed key, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        k = max(self.terms)
        return k, self.terms[k]

    def exact_div(self, divisor: Poly) -> "Poly | None":
        """Exact quotient self/divisor, or None when divisor does not divide."""
        self._require_same_ctx(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division of polynomial by zero")
        if not self.terms:
            return self.ctx.zero
        if divisor.is_constant():
            return self.scale(1 / mpq(divisor.const_value()))
        ld_key, ld_c = divisor.leading()
        ld_exps = self.ctx.unpack(ld_key)
        shifts = self.ctx._shifts
        rem = dict(self.terms)
        quot: dict[int, Rational] = {}
        div_items = list(divisor.terms.items())
        while rem:
            lr_key = max(rem)
            diff = lr_key - ld_key
            if diff < 0:
                return None
            for e, sh in zip(ld_exps, shifts):
                if ((lr_key >> sh) & _MASK) < e:
                    return None
            qc = _as_rational(mpq(rem[lr_key]) / ld_c)
            quot[diff] = qc
            _add_terms(rem, ((k + diff, -qc * c) for k, c in div_items))
        return Poly(self.ctx, quot)

    # -- text form -----------------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], Rational]]:
        """Terms in descending graded-lex order, exponents unpacked."""
        for key in sorted(self.terms, reverse=True):
            yield self.ctx.unpack(key), self.terms[key]

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"Poly({render(self)})"


def _add_terms(out: dict, terms: Iterable[tuple[int, Rational]]) -> dict:
    """``out`` with each ``(key, c)`` of ``terms``, none of them zero, added
    in, in place; a key whose sum is zero is deleted."""
    get = out.get
    for k, c in terms:
        v = get(k)
        if v is None:
            out[k] = c
        elif v := v + c:
            out[k] = v
        else:
            del out[k]
    return out


def _check_exponents(a: dict, b: dict, nvars: int) -> None:
    """Raise ValueError when an exponent of the product of two nonzero
    coefficient maps would pass the packing width and carry into the next
    field.  That takes total degrees summing past the width, and the highest
    key of each map holds its total degree."""
    deg_shift = _BITS * nvars
    if (max(a) >> deg_shift) + (max(b) >> deg_shift) <= _MASK:
        return
    for i in range(nvars):
        sh = _BITS * i
        if max((k >> sh) & _MASK for k in a) + max((k >> sh) & _MASK for k in b) > _MASK:
            raise ValueError(f"an exponent exceeds {_MASK}")


def _fiber_product(p: Poly, q: Poly) -> "dict | None":
    """Terms of the product of two polynomials with integer coefficients,
    computed with one big-integer product per pair of fibers (an integral
    ``Fraction`` coefficient is read as its integer, ``_int_terms``); None
    when the plain dict kernel should run instead (a coefficient that is not
    an integer, a product too small or too lopsided to repay the packing,
    fibers that do not collapse, or total degrees summing past the degree
    field, where the keys of two lines could coincide).

    ``p`` is the operand with fewer terms, ``a`` its terms and ``b`` those
    of ``q``.  The fibers are the lines of the walk's linear fiber key
    (``_lines``) along a direction that leaves ``a`` few fibers
    (``_product_direction``), chosen once for ``p`` per triples flag and
    kept on it (``Poly._directions``).  A fiber is packed by Kronecker
    substitution into one integer, sum c * 2^(W*(e_v - lo)), under its
    anchor, the key of its monomial with e_v = lo.  Anchors are monomial
    keys, so they add like them: the product of two fibers sits
    under the anchor of the lowest monomial it holds.  Products whose
    anchors share a line are shifted to the lowest anchor and added, and
    each line is read back from there as balanced base-2^W digits
    (``_put_digits``).  Each coefficient of the product is a sum of at most
    len(a) products of one coefficient of ``a`` and one of ``b``, so its
    absolute value is below 2^(W-1) and the digits are exactly the
    coefficients.
    """
    a, b = p.terms, q.terms
    la, lb = len(a), len(b)
    if la * lb < 16 * (la + lb):
        return None
    nvars = len(p.ctx.names)
    deg_shift = _BITS * nvars
    degree = (max(a) >> deg_shift) + (max(b) >> deg_shift)
    if degree > _MASK:
        return None
    a, b = _int_terms(a), _int_terms(b)
    if a is None or b is None:
        return None
    triples = la * lb >= _LARGE and degree < _TRIPLE_DEGREE
    try:
        directions = p._directions
    except AttributeError:
        directions = p._directions = {}
    if triples not in directions:
        directions[triples] = _product_direction(a, nvars, triples)
    direction = directions[triples]
    if direction is None:
        return None
    sv, step = direction
    lines_a = _lines(a, sv, step)
    lines_b = _lines(b, sv, step)
    if len(lines_a) * len(lines_b) * 4 > la * lb:
        return None
    bound = max(max(a.values()), -min(a.values())) * max(max(b.values()), -min(b.values()))
    width = (bound * la).bit_length() + 1
    packed_b = _anchored(lines_b, step, width).items()
    acc: dict[int, int] = {}
    get = acc.get
    for fa, xa in _anchored(lines_a, step, width).items():
        for fb, xb in packed_b:
            f = fa + fb
            v = get(f)
            acc[f] = xa * xb if v is None else v + xa * xb
    # products whose anchors share a line hold digits of the same
    # monomials: add each into the line's lowest anchor, in place
    lowest: dict[int, int] = {}
    get = lowest.get
    for key, x in acc.items():
        e = (key >> sv) & _MASK
        f = key - e * step
        low = get(f)
        if low is None:
            lowest[f] = key
            continue
        up = e - ((low >> sv) & _MASK)
        if up > 0:
            acc[low] += x << width * up
        else:
            acc[key] = x + (acc[low] << -width * up)
            lowest[f] = key
    out: dict[int, int] = {}
    _put_digits(out, ((key, acc[key]) for key in lowest.values()), step, width)
    return out


def _int_terms(terms: dict) -> "dict | None":
    """``terms`` itself when every coefficient is an ``int``; else a copy
    with each coefficient of denominator 1 (an integral ``Fraction``) read
    as its numerator, or None when a coefficient is not an integer."""
    for c in terms.values():
        if type(c) is not int:
            break
    else:
        return terms
    if any(c.denominator != 1 for c in terms.values()):
        return None
    return {key: c.numerator for key, c in terms.items()}


def _put_digits(out: dict, packed: Iterable[tuple[int, int]], step: int, width: int) -> None:
    """For each ``(key, x)``, store the balanced base-2^width digits of
    ``x``, lowest first, in ``out`` as the coefficients of ``key``,
    ``key + step``, ...; zero digits are skipped.  Every digit must lie in
    [-2^(width-1), 2^(width-1)).

    Reading a digit shifts the rest of ``x``, so a fiber of more than
    ``_SPLIT`` digits is first cut in halves (``_halves``), round after
    round: a fiber of n digits then reads back in time O(n log n), not
    O(n^2).
    """
    full = 1 << width
    half = full >> 1
    digit = full - 1
    # ``x & digit`` and ``d - full`` are allocated for the whole width; on
    # 64-bit CPython an int of one or two limbs takes 32 bytes either way,
    # so only a wider digit is worth copying to its own size (``-(-d)``)
    compact = width > 2 * sys.int_info.bits_per_digit
    long = _SPLIT * width
    for key, x in packed:
        if x.bit_length() > long:
            _put_digits(out, _halves(key, x, step, width), step, width)
            continue
        while x:
            d = x & digit
            if not d:  # a run of zero digits, skipped at once
                skip = ((x & -x).bit_length() - 1) // width
                x >>= skip * width
                key += skip * step
                continue
            x >>= width
            if d >= half:
                d -= full
                x += 1
            out[key] = -(-d) if compact else d
            key += step


def _halves(key: int, x: int, step: int, width: int) -> tuple:
    """``(key, low), (key + n * step, high)``, the two halves of the packed
    fiber ``x`` at ``key``, cut after its n lowest balanced digits: ``low``
    is their sum, negative when the highest nonzero one of them is, and
    ``high`` carries that borrow."""
    n = x.bit_length() // width // 2
    bits = n * width
    low, high = x & ((1 << bits) - 1), x >> bits
    # the largest sum of n balanced digits is (2^(width-1) - 1) * R with
    # R = 1 + 2^width + ... + 2^(width * (n-1)); a residue above it is the
    # sum of digits whose top one is negative
    if low > ((1 << (width - 1)) - 1) * (((1 << bits) - 1) // ((1 << width) - 1)):
        low -= 1 << bits
        high += 1
    return (key, low), (key + n * step, high)


# ---------------------------------------------------------------------------
# persistent packed fibers: the continued-fraction walk and the triangle build
# ---------------------------------------------------------------------------

# An integer coefficient map is packed along one direction, a variable v or
# a pair (v, w), chosen by ``_direction``: the terms that differ only along
# it form a fiber, held as one integer sum c * 2^(width * e_v) under the
# fiber's key.  Fiber keys add and fiber integers multiply, so a product of
# two packed maps is a sum of integer products of fibers, and a packed map
# stays packed across any number of products.  It reads back exactly
# (``_unpack``) while every coefficient lies within ``width`` as a balanced
# digit.  The levels that multiply the entries of a walk or a triangle are
# factored when packed (``_pack``, ``_add_level_products``).


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
    steps = _steps(_fields(occurring, len(ctx.names)), ctx._deg_shift, True, False)
    return _fewest(levels, steps) or (0, 0)


def _product_direction(a: dict, nvars: int, triples: bool) -> "tuple[int, int] | None":
    """``(shift, step)`` of the direction along which ``_fiber_product``
    packs, or None when ``a`` has a single field and so no pair.

    The candidates are the pairs of ``_direction`` and, when ``triples``,
    the signed three-variable steps of ``_steps``; their lines can follow
    an affine lattice that no pair follows.  Counting every candidate's
    fibers exactly would cost more than it saves, so with ``triples`` each
    one is first scored on a sample of about ``_SAMPLE`` keys of ``a``,
    evenly spaced in key order, by how many of ``key + step`` are keys too,
    and only the two best scores are counted.  Otherwise the fewest fibers
    of ``a`` win, ties going to the earlier candidate.  Either way the
    choice depends on the keys of ``a``, not on their order in the map, so
    ``_fiber_product`` makes it once per operand and flag and keeps it on
    the operand.
    """
    steps = _steps(_fields(reduce(or_, a), nvars), _BITS * nvars, False, triples)
    if triples:
        sample = sorted(a)[:: -(-len(a) // _SAMPLE)]
        steps = sorted(steps, key=lambda c: -sum([k + c[1] in a for k in sample]))[:2]
    return _fewest([a], steps)


def _fields(occurring: int, nvars: int) -> tuple:
    """The shifts of the variable fields set in ``occurring``, in context
    order."""
    return tuple(sh for sh in range(_BITS * (nvars - 1), -1, -_BITS) if (occurring >> sh) & _MASK)


@lru_cache(maxsize=256)
def _steps(fields: tuple, deg_shift: int, singles: bool, triples: bool) -> tuple:
    """The candidate directions over ``fields``, in this order: when
    ``singles``, each variable v; the pairs v - w; when ``triples``, the
    signed triples v + w - x, v - w + x, v + w + x and v - w - x.  v comes
    before w and w before x in context order.

    Every step moves e_v by one, so ``key - e_v * step`` keys a line, and
    it moves the degree field by the sum of its signs.  A signed step takes
    other fields below zero on part of a line; keys are added as integers,
    so such a line key borrows from the field above and still reads back.
    For two monomials of total degree D < 2^15 every variable field of
    (key - key') - (e_v - e_v') * step lies within 2D < 2^16 of zero, so the
    two share a line key only when they share a line; ``_fiber_product``
    tries triples only below that degree.  A pair's fields stay within D.
    """
    degree = 1 << deg_shift
    steps = [(sv, (1 << sv) + degree) for sv in fields] if singles else []
    steps += [(sv, (1 << sv) - (1 << sw)) for sv, sw in combinations(fields, 2)]
    if triples:
        steps += [(sv, (1 << sv) + sw * (1 << w) + sx * (1 << x) + (1 + sw + sx) * degree)
                  for sv, w, x in combinations(fields, 3)
                  for sw, sx in ((1, -1), (-1, 1), (1, 1), (-1, -1))]
    return tuple(steps)


def _fewest(maps: list[dict], steps: Iterable[tuple[int, int]]) -> "tuple[int, int] | None":
    """The ``(shift, step)`` of ``steps`` that leaves ``maps`` the fewest
    lines of ``_lines``, the earlier one on a tie; None when there is none."""
    best, fewest = None, None
    for sv, step in steps:
        count = sum(len({key - ((key >> sv) & _MASK) * step for key in t}) for t in maps)
        if fewest is None or count < fewest:
            best, fewest = (sv, step), count
    return best


def _lines(terms: dict, sv: int, step: int) -> dict:
    """``{line: [(e_v, c), ...]}``: the terms of a map grouped by their
    fiber key ``key - e_v * step``."""
    lines: dict[int, list] = {}
    for key, c in terms.items():
        e = (key >> sv) & _MASK
        f = key - e * step
        members = lines.get(f)
        if members is None:
            lines[f] = [(e, c)]
        else:
            members.append((e, c))
    return lines


def _join(digits: list, width: int, lo: int = 0) -> int:
    """``sum c * 2^(width * (e - lo))`` over the ``(e, c)`` pairs of
    ``digits``, which it may reorder.  Neighbours in exponent order are
    combined pairwise, round after round, so every round costs time linear
    in the result's length; adding one shifted coefficient at a time would
    cost time quadratic in it, which only a few digits repay."""
    if len(digits) <= 16:
        x = 0
        for e, c in digits:
            x += c << (width * (e - lo))
        return x
    digits.sort()
    while len(digits) > 1:
        merged = [(e0, c0 + (c1 << (width * (e1 - e0))))
                  for (e0, c0), (e1, c1) in zip(digits[::2], digits[1::2])]
        if len(digits) & 1:
            merged.append(digits[-1])
        digits = merged
    e, c = digits[0]
    return c << (width * (e - lo))


def _pack(terms: dict, sv: int, step: int, width: int) -> list[tuple]:
    """An integer coefficient map packed as a level: one ``(fiber key, x,
    P, c, width * lo)`` per fiber of ``_lines``, in the map's order, with
    x = sum c_e * 2^(width * e_v) = c * 2^(width * lo) * P.  The content c
    is the signed gcd of x's digits, lo its lowest occupied digit, and P is
    primitive with its lowest digit positive.

    Each fiber's digits are combined by ``_join``: summing them term by term
    would take time quadratic in a fiber's length."""
    level = []
    for f, members in _lines(terms, sv, step).items():
        lo, lowest = min(members)
        c = gcd(*(d for _, d in members))
        if lowest < 0:
            c = -c
        x = _join(members, width)
        level.append((f, x, (x >> width * lo) // c, c, width * lo))
    return level


def _anchored(lines: dict, step: int, width: int) -> dict:
    """``{anchor: sum c * 2^(width * (e_v - lo))}`` of the lines of
    ``_lines``, the anchor being the key of a line's lowest monomial, at
    e_v = lo.  Unlike a fiber key it is a monomial key, so a fiber whose
    exponents start far from zero packs into no more digits than it holds."""
    out = {}
    for f, members in lines.items():
        lo = min(members)[0]
        out[f + lo * step] = _join(members, width, lo)
    return out


def _unpack(packed: dict, step: int, width: int) -> dict:
    """The coefficient map of a packed map whose coefficients all lie
    within ``width`` (``_put_digits``)."""
    out: dict[int, int] = {}
    _put_digits(out, packed.items(), step, width)
    return out


def _times_monomial(packed: dict, key: int, sv: int, step: int, width: int) -> dict:
    """A packed map times the monomial of ``key``: its e_v moves every
    fiber integer up by that many digits, and the rest of it moves the
    fiber keys."""
    e = (key >> sv) & _MASK
    move, up = key - e * step, width * e
    if not up:
        return {f + move: x for f, x in packed.items()}
    return {f + move: x << up for f, x in packed.items()}


def _scaled(terms: dict, factor: int) -> dict:
    """``factor`` times a coefficient map that it makes integral."""
    return {key: (c * factor).numerator for key, c in terms.items()}


def _degree(ctx: VarContext, maps: Iterable[dict]) -> int:
    """The highest total degree of any term of ``maps``."""
    return max((max(t) >> ctx._deg_shift for t in maps if t), default=0)


def _add_level_products(acc: dict, pairs: Iterable[tuple[list, dict]]) -> dict:
    """``acc`` plus the sum of level * entry over the ``(level, entry)``
    pairs, each level from ``_pack``, with its zero fibers dropped.

    A P that one level fiber alone has among the pairs is multiplied in as
    that fiber, by every entry fiber.  Any other P is multiplied once per
    output fiber instead: for each of its fibers c * 2^(width * lo) * P, in
    every pair, and each entry fiber x_e, c * (x_e << width * lo) is added
    into u_P at the product's key, and P * u_P is then added into ``acc``.
    Every fiber of ``acc`` is the sum of the same fiber products either
    way.  No exponent is checked here; ``triangles._Build.run`` checks the
    operands of every product when their degrees may pass the width."""
    pairs = [(level, entry) for level, entry in pairs if level and entry]
    uses: dict[int, int] = {}
    for level, _ in pairs:
        for _, _, p, _, _ in level:
            uses[p] = uses.get(p, 0) + 1
    get = acc.get
    sums: dict[int, dict] = {}
    for level, entry in pairs:
        entry = entry.items()
        for fl, xl, p, c, up in level:
            if uses[p] == 1:
                for fe, xe in entry:
                    f = fl + fe
                    v = get(f)
                    acc[f] = xl * xe if v is None else v + xl * xe
                continue
            u = sums.get(p)
            if u is None:
                u = sums[p] = {}
            uget = u.get
            # a shift copies an entry fiber, even by zero bits
            for fe, xe in ((fe, xe << up) for fe, xe in entry) if up else entry:
                f = fl + fe
                v = uget(f)
                u[f] = c * xe if v is None else v + c * xe
    for p, u in sums.items():
        while u:  # each sum is freed as its product comes in
            f, x = u.popitem()
            v = get(f)
            acc[f] = p * x if v is None else v + p * x
    return {f: x for f, x in acc.items() if x}


# ---------------------------------------------------------------------------
# canonical text rendering and parsing
# ---------------------------------------------------------------------------


def render(p: Poly) -> str:
    """Canonical text: descending graded-lex monomials, explicit ^ powers."""
    if not p.terms:
        return "0"
    names = p.ctx.names
    chunks = []
    for exps, coeff in p.sorted_terms():
        mono = _monomial_text(names, exps)
        neg = coeff < 0
        c = -coeff if neg else coeff
        if not mono:
            body = _rational_text(c)
        elif c == 1:
            body = mono
        else:
            body = f"{_rational_text(c)}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)


def _rational_text(c: Rational) -> str:
    """``str(c)`` of an int or ``Fraction`` of any size."""
    text = _decimal(c.numerator)
    return text if c.denominator == 1 else f"{text}/{_decimal(c.denominator)}"


def _decimal(n: int) -> str:
    """``str(n)`` of an int of any size.  Past ``_DECIMAL_BITS`` the digits
    come in two parts, split by ``divmod`` with a power of 10, so that no
    conversion passes the interpreter's limit on the digits of an int-to-str
    conversion; the limit itself is left as set."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= _DECIMAL_BITS:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(n, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def _monomial_text(names: Sequence[str], exps: Sequence[int]) -> str:
    """``a*b^2`` text of one monomial; empty for the constant monomial."""
    return "*".join(nm if e == 1 else f"{nm}^{e}" for nm, e in zip(names, exps) if e)


def _parse_poly(ctx: VarContext, text: str) -> Poly:
    """Recursive descent over the tokens of ``text``, each lexed once, when first looked at:
    expr := [+|-] term (('+'|'-') term)*;  term := power (('*'|'/') power)*, each divisor a
    nonzero rational constant;  power := atom ['^' INT], '**' read as '^', INT a run of
    ``str.isdigit``;  atom := INT | NAME | '(' expr ')' | '-' atom, nested at most
    ``_MAX_NESTING`` deep, so that deep nesting is a ParseError at the '(' or '-' past the
    limit rather than a RecursionError.  ParseError's column is otherwise the cursor: the
    start of the token last looked at, or the end of the token last taken."""
    def lex(i, size=len(text)):  # (kind, value, start, end) from i; an operator is its kind
        while i < size and text[i].isspace():
            i += 1
        if i == size:
            return None, None, i, i
        ch, j = text[i], i + 1
        if ch.isdigit():
            while j < size and text[j].isdigit():
                j += 1
            return "int", text[i:j], i, j
        if ch.isalpha() or ch == "_":
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            return "name", text[i:j], i, j
        if ch in "+-*/^()":
            return ("^", "^", i, i + 2) if text.startswith("**", i) else (ch, ch, i, j)
        raise ParseError(f"unexpected character {ch!r}", text, i)

    look, pos = None, 0  # the token looked at, not yet taken; the cursor, where lexing resumes
    depth = 0  # the '(' and unary '-' atoms open around the cursor

    def peek():
        nonlocal look, pos
        look = look or lex(pos)
        pos = look[2]
        return look[0]

    def take():
        nonlocal look, pos
        token, look = look or lex(pos), None
        pos = token[3]
        return token

    def expr() -> Poly:
        acc = -term() if peek() in ("+", "-") and take()[0] == "-" else term()
        while peek() in ("+", "-"):
            acc = acc - term() if take()[0] == "-" else acc + term()
        return acc

    def term() -> Poly:
        acc = power()
        while peek() in ("*", "/"):
            acc = acc * power() if take()[0] == "*" else acc / divisor()
        return acc

    def divisor() -> Poly:
        at, rhs = pos, power()
        if not rhs.is_constant():
            raise ParseError("division is only allowed by a rational constant", text, at)
        if rhs.is_zero():
            raise ParseError("division by zero", text, at)
        return rhs

    def power() -> Poly:
        base = atom()
        if peek() != "^":
            return base
        take()
        kind, digits, _, _ = take()
        if kind != "int":
            raise ParseError("expected an integer exponent", text, pos)
        return base ** int(digits)

    def atom() -> Poly:
        nonlocal depth
        kind, value, start, _ = take()
        if kind == "int":
            return ctx.const(int(value))
        if kind == "name" and value not in ctx._pos:
            raise ParseError(f"unknown variable {value!r} (context has {ctx.names})", text, start)
        if kind == "name":
            return ctx.var(value)
        if kind not in ("(", "-"):
            raise ParseError("expected a number, variable or '('", text, pos)
        if depth == _MAX_NESTING:
            raise ParseError("nesting too deep", text, start)
        depth += 1
        if kind == "-":
            inner = -atom()
        else:
            inner = expr()
            if take()[0] != ")":
                raise ParseError("expected ')'", text, pos)
        depth -= 1
        return inner

    try:
        result = expr()
    except ParseError:
        raise
    except ValueError as exc:  # int() of a digit such as '²', or an exponent past the width
        raise ParseError(str(exc), text, pos) from None
    if peek() is not None:
        raise ParseError(f"trailing input {look[1]!r}", text, pos)
    return result


def _horner(coeffs: Sequence[Poly], x: Poly, y: Poly | None = None) -> Poly:
    """sum_e coeffs[e] x^e y^(d-e), with d = len(coeffs) - 1; y=None means 1.

    Horner's rule from the top coefficient down: acc -> acc * x + coeffs[e] y^(d-e).
    """
    acc, ypow = coeffs[-1], None
    for c in reversed(coeffs[:-1]):
        if y is not None:
            ypow = y if ypow is None else ypow * y
            c = c * ypow
        acc = acc * x + c
    return acc


def _map_polys(value, fn):
    """``value`` with ``fn`` applied to every Poly inside it.

    Walks through tuples, lists, dict values and dataclass fields, rebuilding
    each container; every other value is returned unchanged.
    """
    if isinstance(value, Poly):
        return fn(value)
    if isinstance(value, (tuple, list)):
        return type(value)(_map_polys(v, fn) for v in value)
    if isinstance(value, dict):
        return {key: _map_polys(v, fn) for key, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.replace(value, **{
            f.name: _map_polys(getattr(value, f.name), fn)
            for f in dataclasses.fields(value) if f.init
        })
    return value
