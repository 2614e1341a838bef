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
product runs the plain term-by-term dict kernel.  A packed fiber is read
back by ``_put_digits``, which the continued-fraction walk
(``contfrac.j_expand``) uses too.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from fractions import Fraction as mpq
from functools import reduce
from itertools import combinations, repeat
from operator import add, and_, or_
from typing import Iterable, Iterator, Mapping, Sequence, Union

Rational = Union[int, mpq]

_BITS = 16
_MASK = (1 << _BITS) - 1


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
        acc: dict[int, Rational] = {}
        for coeff, exps in terms:
            c = _as_rational(coeff)
            if not c:
                continue
            vec = [0] * len(self.names)
            for nm, e in exps.items():
                vec[self.index(nm)] = e
            key = self.pack(vec)
            v = acc.get(key)
            v = c if v is None else v + c
            if v:
                acc[key] = v
            else:
                del acc[key]
        return Poly(self, acc)

    def parse(self, text: str) -> Poly:
        return _parse_poly(self, text)


class Poly:
    """Immutable sparse polynomial with exact rational coefficients.

    ``terms`` maps packed monomial keys to nonzero coefficients; the zero
    polynomial has an empty map.  Equality is coefficientwise.
    """

    __slots__ = ("ctx", "terms")
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
        out = dict(a)
        get = out.get
        for k, c in b.items():
            v = get(k)
            if v is None:
                out[k] = c
            else:
                v = v + c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return Poly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if not b:
            return self
        out = dict(a)
        get = out.get
        for k, c in b.items():
            v = get(k)
            if v is None:
                out[k] = -c
            else:
                v = v - c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return Poly(self.ctx, out)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return self.ctx.zero
        if len(a) > len(b):
            a, b = b, a
        # single-term shortcut: shift-and-scale
        if len(a) == 1:
            ((ea, ca),) = a.items()
            if ea:
                _check_exponents(a, b, len(self.ctx.names))
            if ca == 1:
                return Poly(self.ctx, {eb + ea: cb for eb, cb in b.items()})
            return Poly(self.ctx, {eb + ea: cb * ca for eb, cb in b.items()})
        _check_exponents(a, b, len(self.ctx.names))
        out = _fiber_product(a, b, len(self.ctx.names))
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
        out: dict[int, Rational] = {}
        get = out.get
        for key, c in self.terms.items():
            for sh, val in zip(shifts, vals):
                e = (key >> sh) & _MASK
                if e:
                    key -= (e << sh) + (e << deg_sh)
                    c = c * val**e
            if not c:
                continue
            v = get(key)
            v = c if v is None else v + c
            if v:
                out[key] = _as_rational(v)
            else:
                del out[key]
        return Poly(ctx, out)

    def eval(self, assignment: Mapping[str, Rational]):
        """Exact rational value; every variable occurring must be assigned."""
        value = self.specialize(assignment)
        if not value.is_constant():
            missing = value.variables()
            raise KeyError(f"missing assignment for variable(s) {missing}")
        return mpq(value.const_value())

    # -- arithmetic helpers used by exact linear algebra --------------------

    def content(self) -> Rational:
        """Positive rational c with self/c having coprime integer coefficients."""
        if not self.terms:
            return 0
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            q = mpq(c)
            num_gcd = math.gcd(num_gcd, q.numerator)
            den_lcm = math.lcm(den_lcm, q.denominator)
        return _as_rational(mpq(num_gcd, den_lcm))

    def leading(self) -> tuple[int, Rational]:
        """(packed key, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        k = max(self.terms)
        return k, self.terms[k]

    def leading_coeff(self) -> Rational:
        return self.leading()[1] if self.terms else 0

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
            for k, c in div_items:
                kk = k + diff
                v = rem.get(kk)
                v = -qc * c if v is None else v - qc * c
                if v:
                    rem[kk] = v
                else:
                    rem.pop(kk, None)
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


def _fiber_product(a: dict, b: dict, nvars: int) -> "dict | None":
    """Terms of the product of two integer coefficient maps, computed with
    one big-integer product per pair of fibers; None when the plain dict
    kernel should run instead (a rational coefficient, a product too small
    or too lopsided to repay the packing, or fibers that do not collapse).

    ``a`` is the operand with fewer terms.  For a variable pair (v, w), the
    fiber of a monomial is the monomial with e_v and e_w replaced by their
    sum s; polynomials homogeneous in (v, w) have few fibers.  A fiber is
    packed by Kronecker substitution into one integer,
    sum c * 2^(W*(e_v - lo)), and its key keeps lo, so fiber products are
    integer products and fiber keys add like monomial keys.  Each
    coefficient of the product is a sum of at most len(a) products of one
    coefficient of ``a`` and one of ``b``, so its absolute value is below
    2^(W-1); the balanced base-2^W digits of a summed fiber are therefore
    exactly its coefficients.
    """
    la, lb = len(a), len(b)
    if la * lb < 16 * (la + lb):
        return None
    for terms in (a, b):
        for c in terms.values():
            if type(c) is not int:
                return None
    # the pair (v, w) of variables of ``a`` that leaves ``a`` the fewest fibers
    keys = list(a)
    occurring = reduce(or_, keys)
    exps = {}
    for i in range(nvars):
        sh = _BITS * (nvars - 1 - i)
        if (occurring >> sh) & _MASK:
            exps[sh] = [(k >> sh) & _MASK for k in keys]
    best = None
    for sv, sw in combinations(exps, 2):
        clear = ~((_MASK << sv) | (_MASK << sw))
        count = len(set(zip(map(and_, keys, repeat(clear)), map(add, exps[sv], exps[sw]))))
        if best is None or count < best[0]:
            best = (count, sv, sw, clear)
    if best is None:
        return None
    _, sv, sw, clear = best
    # fiber key: the monomial key with the v and w fields zeroed (the
    # degree field kept), s in the field above the degree, lo above that
    s_shift = _BITS * (nvars + 1)
    lo_shift = s_shift + _BITS
    fibers_a = _fibers(a, sv, sw, clear, s_shift)
    fibers_b = _fibers(b, sv, sw, clear, s_shift)
    if len(fibers_a) * len(fibers_b) * 4 > la * lb:
        return None
    bound = max(max(a.values()), -min(a.values())) * max(max(b.values()), -min(b.values()))
    width = (bound * la).bit_length() + 1
    packed_b = _pack_fibers(fibers_b, width, lo_shift).items()
    acc: dict[int, int] = {}
    get = acc.get
    for fa, xa in _pack_fibers(fibers_a, width, lo_shift).items():
        for fb, xb in packed_b:
            f = fa + fb
            v = get(f)
            acc[f] = xa * xb if v is None else v + xa * xb
    # fibers that differ only in lo hold the same monomials: align them to
    # lo = 0 and add, then read each one back as balanced base-2^W digits
    rest_mask = (1 << lo_shift) - 1
    merged: dict[int, int] = {}
    get = merged.get
    for f, x in acc.items():
        x <<= (f >> lo_shift) * width
        f &= rest_mask
        v = get(f)
        merged[f] = x if v is None else v + x
    low = (1 << s_shift) - 1
    step = (1 << sv) - (1 << sw)  # from e_v to e_v + 1 at fixed s
    out: dict[int, int] = {}
    # each fiber is read from its monomial with e_v = 0
    _put_digits(out, (((f & low) + ((f >> s_shift) << sw), x) for f, x in merged.items()),
                step, width)
    return out


def _put_digits(out: dict, packed: Iterable[tuple[int, int]], step: int, width: int) -> None:
    """For each ``(key, x)``, store the balanced base-2^width digits of
    ``x``, lowest first, in ``out`` as the coefficients of ``key``,
    ``key + step``, ...; zero digits are skipped.  Every digit must lie in
    [-2^(width-1), 2^(width-1)).
    """
    full = 1 << width
    half = full >> 1
    digit = full - 1
    # ``x & digit`` and ``d - full`` are allocated for the whole width; on
    # 64-bit CPython an int of one or two limbs takes 32 bytes either way,
    # so only a wider digit is worth copying to its own size (``-(-d)``)
    compact = width > 2 * sys.int_info.bits_per_digit
    for key, x in packed:
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


def _fibers(terms: dict, sv: int, sw: int, clear: int, s_shift: int) -> dict:
    """``{fiber key without lo: [(e_v, coefficient), ...]}``."""
    fibers: dict[int, list] = {}
    for k, c in terms.items():
        ev = (k >> sv) & _MASK
        f = (k & clear) + ((ev + ((k >> sw) & _MASK)) << s_shift)
        members = fibers.get(f)
        if members is None:
            fibers[f] = [(ev, c)]
        else:
            members.append((ev, c))
    return fibers


def _pack_fibers(fibers: dict, width: int, lo_shift: int) -> dict:
    """``{fiber key with lo: sum c * 2^(width*(e_v - lo))}``."""
    packed = {}
    for f, members in fibers.items():
        lo = min(members)[0]
        x = 0
        for ev, c in members:
            x += c << (width * (ev - lo))
        packed[f + (lo << lo_shift)] = x
    return packed


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
        c = mpq(coeff)
        neg = c < 0
        c = -c if neg else c
        if not mono:
            body = str(c)
        elif c == 1:
            body = mono
        else:
            body = f"{c}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)


def _monomial_text(names: Sequence[str], exps: Sequence[int]) -> str:
    """``a*b^2`` text of one monomial; empty for the constant monomial."""
    return "*".join(nm if e == 1 else f"{nm}^{e}" for nm, e in zip(names, exps) if e)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, self.text, self.pos)

    def peek(self):
        t = self.text
        i = self.pos
        while i < len(t) and t[i].isspace():
            i += 1
        self.pos = i
        if i >= len(t):
            return None, None
        ch = t[i]
        if ch.isdigit():
            j = i
            while j < len(t) and t[j].isdigit():
                j += 1
            return "int", t[i:j]
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                j += 1
            return "name", t[i:j]
        if t.startswith("**", i):
            return "op", "^"
        if ch in "+-*/^()":
            return "op", ch
        self.error(f"unexpected character {ch!r}")

    def take(self):
        kind, val = self.peek()
        if kind is None:
            return None, None
        if kind == "op" and val == "^" and self.text.startswith("**", self.pos):
            self.pos += 2
        else:
            self.pos += len(val)
        return kind, val


def _parse_poly(ctx: VarContext, text: str) -> Poly:
    tok = _Tokenizer(text)

    def parse_expr() -> Poly:
        kind, val = tok.peek()
        negate = False
        if kind == "op" and val in "+-":
            tok.take()
            negate = val == "-"
        acc = parse_term()
        if negate:
            acc = -acc
        while True:
            kind, val = tok.peek()
            if kind == "op" and val in "+-":
                tok.take()
                rhs = parse_term()
                acc = acc - rhs if val == "-" else acc + rhs
            else:
                return acc

    def parse_term() -> Poly:
        acc = parse_power()
        while True:
            kind, val = tok.peek()
            if kind == "op" and val == "*":
                tok.take()
                acc = acc * parse_power()
            elif kind == "op" and val == "/":
                tok.take()
                at = tok.pos
                rhs = parse_power()
                if not rhs.is_constant():
                    raise ParseError(
                        "division is only allowed by a rational constant", text, at
                    )
                if rhs.is_zero():
                    raise ParseError("division by zero", text, at)
                acc = acc / rhs
            else:
                return acc

    def parse_power() -> Poly:
        base = parse_atom()
        kind, val = tok.peek()
        if kind == "op" and val == "^":
            tok.take()
            kind, val = tok.take()
            if kind != "int":
                tok.error("expected an integer exponent")
            return base ** int(val)
        return base

    def parse_atom() -> Poly:
        kind, val = tok.take()
        if kind == "int":
            return ctx.const(int(val))
        if kind == "name":
            if val not in ctx._pos:
                raise ParseError(
                    f"unknown variable {val!r} (context has {ctx.names})",
                    text,
                    tok.pos - len(val),
                )
            return ctx.var(val)
        if kind == "op" and val == "(":
            inner = parse_expr()
            kind, val = tok.take()
            if val != ")":
                tok.error("expected ')'")
            return inner
        if kind == "op" and val == "-":
            return -parse_atom()
        tok.error("expected a number, variable or '('")

    try:
        result = parse_expr()
    except ParseError:
        raise
    except ValueError as exc:  # a product's exponent past the packing width
        raise ParseError(str(exc), text, tok.pos) from None
    kind, val = tok.peek()
    if kind is not None:
        tok.error(f"trailing input {val!r}")
    return result


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Quotient of two polynomials, normalized but not fully reduced.

    Normalization removes the gcd of the numerator and denominator contents,
    makes the denominator's leading coefficient positive, and clears the
    denominator entirely whenever it divides the numerator exactly.  Full
    multivariate gcd reduction is deliberately not attempted, so equality is
    decided by cross-multiplication.
    """

    __slots__ = ("num", "den")
    __hash__ = None

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num._require_same_ctx(den)
        if num.is_zero():
            den = den.ctx.one
        elif den.is_constant():
            num = num.scale(1 / mpq(den.const_value()))
            den = den.ctx.one
        else:
            q = num.exact_div(den)
            if q is not None:
                num, den = q, den.ctx.one
            else:
                cn, cd = num.content(), den.content()
                g = mpq(math.gcd(mpq(cn).numerator * mpq(cd).denominator,
                                 mpq(cd).numerator * mpq(cn).denominator),
                        mpq(cn).denominator * mpq(cd).denominator)
                if den.leading_coeff() < 0:
                    g = -g
                if g != 1:
                    num = num.scale(1 / g)
                    den = den.scale(1 / g)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly) -> RatFunc:
        rf = object.__new__(cls)
        rf.num = p
        rf.den = p.ctx.one
        return rf

    @property
    def ctx(self):
        return self.num.ctx

    def is_poly(self) -> bool:
        return self.den == self.ctx.one

    def as_poly(self) -> Poly:
        """Narrow to a polynomial; raises if the denominator is nontrivial."""
        if not self.is_poly():
            raise ValueError(f"{self} is not a polynomial")
        return self.num

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, mpq)):
            return RatFunc.from_poly(self.ctx.const(other))
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den is other.den or self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc.from_poly(-self.num) if self.is_poly() else RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def __str__(self):
        if self.is_poly():
            return render(self.num)
        return f"({render(self.num)}) / ({render(self.den)})"

    def __repr__(self):
        return f"RatFunc({self})"


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
    """``value`` with ``fn`` applied to every Poly and RatFunc inside it.

    Walks through tuples, lists, dict values and dataclass fields, rebuilding
    each container; every other value is returned unchanged.
    """
    if isinstance(value, (Poly, RatFunc)):
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
