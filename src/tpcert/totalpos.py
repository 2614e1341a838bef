"""Exact minor computation and coefficientwise total-positivity certificates.

A matrix of polynomials is *x-totally positive of order r* when every minor
of order <= r has nonnegative coefficients.  Everything here is a statement
about a finite truncation, and reports carry the truncation size so the
certificates stay honest about what was actually checked.

A minor scan whose block holds integer polynomials in at most one variable v
runs on plain integers: the block is encoded once under the Kronecker
substitution v -> 2^W (``_encode``), and since the scan uses only ``*``,
``+``, ``-`` and truthiness, the same scan forms minor(2^W) for each minor.
W is one bit longer than a bound on the l1 norm of every minor scanned, so
every coefficient lies in (-2^(W-1), 2^(W-1)); one mask of the top bit of
every W-bit digit then tells whether a minor has a negative coefficient,
and only a failing minor is read back into a ``Poly``.  Blocks with a
coefficient that is not an integer, two or more variables, sparse entries,
or minors whose degree might pass 65535 are scanned on their ``Poly``
entries.

An encoded block equal to its transpose (a Hankel block) has
det(R, C) = det(C, R), so its scan forms only the minors with rows <= cols
in lexicographic order and skips the others; the witness and
``minors_checked`` are those of the full scan, and the memo keeps its
(rows, cols) keys and last-row rule, since every cofactor read also has
rows <= cols (see ``_scan``).  A serial scan deletes each memoized
cofactor once the last minor that reads it has been formed, so its memo
holds only what the rest of the scan reads: the cofactors whose rows are
the current row prefix or a later one, and the minors of the current
order formed so far.  ``Poly`` blocks keep the full scan while the
benchmark pins the products of the ``four-term[nk]`` scan; extending the
rule to them means dropping the ``encoded is not None`` condition in
``is_totally_positive``.

Sequence containers follow the mathematical indexing of tridiagonal
matrices: diagonal s_0, s_1, ..., superdiagonal r_0, r_1, ..., subdiagonal
t_1, t_2, ...; list arguments for t therefore carry an unused placeholder at
index 0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, islice
from math import comb, prod
from operator import or_
from typing import Sequence

from .polyring import (
    _BITS, _MASK, Poly, VarContext, _join, _monomial_text, _put_digits, _rational_text, render,
)

PolySeq = Sequence[Poly]


class HypothesisError(ValueError):
    """A check's stated hypotheses are violated (as opposed to its
    conclusion failing)."""


@dataclass
class PolyMatrix:
    """Dense rectangular matrix of polynomials sharing one context."""

    ctx: VarContext
    entries: list[list[Poly]]

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    @property
    def _zero(self):
        return self.ctx.zero


def hankel(seq: PolySeq, size: int) -> PolyMatrix:
    """Hankel truncation: entry (i, j) = seq[i+j]."""
    if len(seq) < 2 * size - 1:
        raise ValueError(
            f"need {2 * size - 1} sequence entries for a {size}x{size} Hankel block, "
            f"got {len(seq)}"
        )
    ctx = seq[0].ctx
    return PolyMatrix(ctx, [[seq[i + j] for j in range(size)] for i in range(size)])


def tridiag(s: PolySeq, r: PolySeq, t: PolySeq, size: int) -> PolyMatrix:
    """Leading principal block of the tridiagonal matrix J(r, s, t)."""
    ctx = s[0].ctx
    zero = ctx.zero
    m = [[zero] * size for _ in range(size)]
    for i in range(size):
        m[i][i] = s[i]
        if i + 1 < size:
            m[i][i + 1] = r[i]
            m[i + 1][i] = t[i + 1]
    return PolyMatrix(ctx, m)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def _det_cofactor(m: PolyMatrix, rows: tuple, cols: tuple, memo: dict) -> Poly:
    """Cofactor expansion along the last row, memoized on (rows, cols)."""
    if len(rows) == 1:
        return m.entries[rows[0]][cols[0]]
    key = (rows, cols)
    d = memo.get(key)
    if d is None:
        d = memo[key] = _expand(m, rows, cols, memo)
    return d


def _expand(m: PolyMatrix, rows: tuple, cols: tuple, memo: dict) -> Poly:
    """Cofactor expansion along the last row of an order >= 2 minor; the
    cofactors go through the memo, the minor itself is not stored."""
    rest = rows[:-1]
    order = len(rows)
    d = m._zero
    row_entries = m.entries[rows[-1]]
    for idx in range(order):
        e = row_entries[cols[idx]]
        if not e:
            continue
        sub = _det_cofactor(m, rest, cols[:idx] + cols[idx + 1 :], memo)
        if not sub:
            continue
        p = e * sub
        d = d + p if (order - 1 + idx) % 2 == 0 else d - p
    return d


def minor(m: PolyMatrix, rows: Sequence[int], cols: Sequence[int]) -> Poly:
    """Exact determinant of the selected square submatrix, by the memoized
    cofactor expansion."""
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ValueError(f"minor needs equally many rows and columns, got {rows}/{cols}")
    if len(rows) == 0:
        return m.ctx.one
    if min(rows + cols) < 0 or max(rows) >= m.nrows or max(cols) >= m.ncols:
        raise ValueError("row/column index out of range")
    return _det_cofactor(m, rows, cols, {})


# ---------------------------------------------------------------------------
# one-variable integer blocks
# ---------------------------------------------------------------------------


@dataclass
class _IntBlock(PolyMatrix):
    """A block of integer polynomials in at most one variable v, each entry
    replaced by its value at v = 2^width: the coefficient of v^i sits in
    digit i.  ``high`` holds the top bit of every digit a scanned minor may
    have, and ``step`` is v's packed key, so digit i decodes to the key
    i * step."""

    step: int
    width: int
    high: int

    _zero = 0

    def decode(self, x: int) -> Poly:
        """The polynomial whose value at v = 2^width is ``x``; every
        coefficient must lie in [-2^(width-1), 2^(width-1))."""
        terms = {}
        _put_digits(terms, ((0, x),), self.step, self.width)
        return Poly(self.ctx, terms)


def _encode(m: PolyMatrix, order: int) -> "_IntBlock | None":
    """``m`` encoded for a scan of the minors of order <= ``order``, or None
    when its entries keep ``Poly`` form: a coefficient that is not an
    integer (a ``Fraction`` with denominator 1 is read as one), two or more
    variables, entries much sparser than their degrees (more than four
    digits per term), or minors whose degree might pass 65535 (the ``Poly``
    product raises on those as it always has).

    W is one bit longer than B, the product of the ``order`` largest row sums
    of the entries' absolute coefficient sums (at least 1 each).  That norm
    is submultiplicative and subadditive, so it is at most B for every
    minor of order <= ``order``, and so is every coefficient.  A minor then
    has degree at most order * (largest entry degree), and a nonnegative
    integer whose digits up to there all lack the top bit has exactly those
    digits as its coefficients.
    """
    deg_shift = m.ctx._deg_shift
    occurring = degree = terms = digits = 0
    norms = []
    for row in m.entries:
        norm = 0
        for e in row:
            if not e:
                continue
            for c in e.terms.values():
                if c.denominator != 1:
                    return None
                norm += abs(c.numerator)
            top = max(e.terms) >> deg_shift
            occurring |= reduce(or_, e.terms)
            degree = max(degree, top)
            terms += len(e.terms)
            digits += top + 1
        norms.append(max(norm, 1))
    fields = occurring & ((1 << deg_shift) - 1)
    shift = (fields.bit_length() - 1) // _BITS * _BITS if fields else 0
    if fields & ((1 << shift) - 1) or digits > 4 * terms or order * degree > _MASK:
        return None
    width = prod(sorted(norms, reverse=True)[:order]).bit_length() + 1
    digit = (1 << width) - 1
    high = (1 << width * (order * degree + 1)) // digit << (width - 1)
    entries = [
        [_join([(key >> deg_shift, c.numerator) for key, c in e.terms.items()], width)
         for e in row]
        for row in m.entries
    ]
    step = (1 << shift) + (1 << deg_shift) if fields else 0
    return _IntBlock(m.ctx, entries, step, width, high)


# ---------------------------------------------------------------------------
# total positivity reports
# ---------------------------------------------------------------------------


@dataclass
class TPWitness:
    """Smallest (order, rows, cols) minor with a negative coefficient."""

    order: int
    rows: tuple
    cols: tuple
    minor: Poly
    monomial: str
    coeff: object

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "rows": list(self.rows),
            "cols": list(self.cols),
            "minor": render(self.minor),
            "monomial": self.monomial,
            "coeff": _rational_text(self.coeff),
        }


@dataclass
class TPReport:
    """Outcome of a coefficientwise total-positivity check at a truncation."""

    nrows: int
    ncols: int
    order: int
    ok: bool
    witness: TPWitness | None = None
    minors_checked: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict:
        return {
            "truncation": [self.nrows, self.ncols],
            "order": self.order,
            # every scan is exhaustive; the recorded plan-batch body keeps the key
            "contiguous_only": False,
            "minors_checked": self.minors_checked,
            "result": "pass" if self.ok else "fail",
            "witness": self.witness.to_dict() if self.witness else None,
        }


def _first_negative(m: PolyMatrix, d):
    """``(d as a Poly, monomial, coefficient)`` of the first negative
    coefficient of the minor ``d`` in descending graded-lex order, or None.

    An encoded minor (an int) has none exactly when it is nonnegative and
    none of its digits has the top bit set; only then is it left unread.
    """
    if not isinstance(d, Poly):
        if d >= 0 and not d & m.high:
            return None
        d = m.decode(d)
    negative = [key for key, c in d.terms.items() if c < 0]
    if not negative:
        return None
    key = max(negative)
    return d, _monomial_text(d.ctx.names, d.ctx.unpack(key)) or "1", d.terms[key]


def _scan(m: PolyMatrix, row_subsets, memo: dict, prune: bool = False, symmetric: bool = False):
    """Check each row subset against every column subset of its size, in
    order; returns the first witness, or None.

    Every minor comes from the memoized cofactor expansion.  The row
    subsets come ordered by size, so every order-r minor of a serial scan
    comes after all the order-(r-1) ones and costs r products; a ``--jobs``
    share forms the lower minors it lacks in the recursion.  A minor is
    memoized only when a later one reads it: the expansion of (R, C) reads
    cofactors with rows R[:-1], so no minor reads one of the highest order,
    nor one whose rows hold the block's last row.  Those are checked and
    dropped.  With ``prune`` (a scan of every row subset), each cofactor is
    deleted once its last reader has run: the row subsets with prefix P are
    next to each other in scan order, and only they read the cofactors with
    rows P, so when the prefix changes, the entries of the prefix just left
    are deleted, found by enumerating its column sets.

    A ``symmetric`` block has det(R, C) = det(C, R), so the scan forms only
    the minors with rows <= cols in lexicographic order and skips each
    (R, C) with C < R: its mirror (C, R) has the same
    value and was checked earlier, since row set C comes before R.  The
    witness is that of the full order: the first failing minor of the full
    order has rows <= cols, or its mirror would have failed earlier.  The
    memo keys and the storage rule stay as they are, because every cofactor
    read is itself such a minor: if C >= R then C[:-1] >= R[:-1], and C with
    one column dropped is at least C[:-1] place by place, so the cofactor
    (R[:-1], C') has rows <= cols too.

    ``m`` is a ``PolyMatrix`` or the ``_IntBlock`` that ``_encode`` makes of
    a one-variable integer block: each entry is its value at v = 2^W, with W
    one bit past a bound on the l1 norm of every minor scanned, so the same
    expansion forms each minor's value at 2^W, with the same memo, order
    and products.  ``_first_negative`` tests such a minor with one mask of
    its digits' top bits and decodes it, for the witness, only when it
    fails.  Blocks with a rational coefficient, two or more variables,
    sparse entries or minors that might pass degree 65535 keep their
    ``Poly`` entries.
    """
    top = len(row_subsets[-1]) if row_subsets else 0
    last = m.nrows - 1
    prefix = None
    for rows in row_subsets:
        order = len(rows)
        if prune and rows[:-1] != prefix:
            if prefix:
                for cols in combinations(range(m.ncols), len(prefix)):
                    if (prefix, cols) in memo:
                        del memo[prefix, cols]
            prefix = rows[:-1]
        det = _expand if order > 1 and (order == top or rows[-1] == last) else _det_cofactor
        skipped = _rank(rows, m.ncols) if symmetric else 0
        for cols in islice(combinations(range(m.ncols), order), skipped, None):
            bad = _first_negative(m, det(m, rows, cols, memo))
            if bad is not None:
                return TPWitness(order, rows, cols, *bad)
    return None


def is_totally_positive(m: PolyMatrix, order: int, jobs: int = 1) -> TPReport:
    """Check every minor of order <= ``order`` for nonnegative coefficients.

    Scans orders ascending, then row subsets, then column subsets, each in
    lexicographic order, so a failure report carries the minimal witness.
    ``minors_checked`` counts the minors in this scan order up to and
    including the witness, whatever ``jobs`` is, and whether or not the scan
    formed each one: on a pass, the sum of C(ncols, |rows|) over the row
    subsets; on a fail, the witness's 1-based place in scan order.
    ``jobs`` > 1 distributes the row subsets over at most ``jobs`` worker
    processes, no more than there are row subsets or CPUs.

    A block of integer polynomials in at most one variable is scanned as
    integers (see ``_encode``), and when it is symmetric, as a Hankel block
    is, only its minors with rows <= cols are formed (see ``_scan``); the
    report is the same either way.  Blocks kept in ``Poly`` form take the
    full scan, whose products the benchmark's counters pin.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    order = min(order, m.nrows, m.ncols)
    encoded = _encode(m, order)
    symmetric = encoded is not None and _symmetric(encoded)
    if encoded is not None:
        m = encoded
    row_subsets = [
        rows for size in range(1, order + 1) for rows in combinations(range(m.nrows), size)
    ]
    witness = _scan_parallel(m, row_subsets, jobs, symmetric)
    if witness is None:
        checked = sum(comb(m.ncols, len(rows)) for rows in row_subsets)
    else:
        before = row_subsets[: row_subsets.index(witness.rows)]
        checked = sum(comb(m.ncols, len(rows)) for rows in before)
        checked += _rank(witness.cols, m.ncols) + 1
    return TPReport(m.nrows, m.ncols, order, witness is None, witness, checked)


def _symmetric(m: PolyMatrix) -> bool:
    """Whether ``m`` is square and equal to its transpose."""
    e = m.entries
    return m.nrows == m.ncols and all(e[i][j] == e[j][i] for i in range(m.nrows) for j in range(i))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan_parallel(m: PolyMatrix, row_subsets: list, jobs: int, symmetric: bool):
    """``_scan`` with the row subsets dealt to min(jobs, row subsets, CPUs)
    workers, or run serially, with the memo pruned, when that is fewer than
    two; returns the least witness of the shares (that of the serial scan),
    or None.

    The row subsets are dealt in scan order, each to the share that forms
    the fewest minors so far (the first such share on a tie): a row subset
    forms a minor per column subset, or with ``symmetric`` per column subset
    from its own row set on, so the later row subsets of an order form
    fewer and shares dealt round-robin would be lopsided."""
    workers = min(jobs, len(row_subsets), _usable_cpus())
    if workers < 2:
        return _scan(m, row_subsets, {}, prune=True, symmetric=symmetric)
    from multiprocessing import get_context

    shares = [[] for _ in range(workers)]
    loads = [0] * workers
    for rows in row_subsets:
        i = loads.index(min(loads))
        shares[i].append(rows)
        loads[i] += comb(m.ncols, len(rows)) - (_rank(rows, m.ncols) if symmetric else 0)
    with get_context("fork").Pool(workers) as pool:
        results = pool.starmap(_scan, [(m, share, {}, False, symmetric) for share in shares])
    witnesses = [w for w in results if w is not None]
    return min(witnesses, key=lambda w: (w.order, w.rows, w.cols), default=None)


def _rank(subset: tuple, n: int) -> int:
    """The position of ``subset`` among the subsets of range(n) of its size
    in lexicographic order.  For its member x at place i, the subsets that
    agree with it before place i and hold a smaller j there come first:
    C(n-1-j, size-1-i) of them for each j between the previous member and x."""
    size, rank, prev = len(subset), 0, -1
    for i, x in enumerate(subset):
        rank += sum(comb(n - 1 - j, size - 1 - i) for j in range(prev + 1, x))
        prev = x
    return rank


# ---------------------------------------------------------------------------
# log-convexity ladder
# ---------------------------------------------------------------------------


def l_operator(seq: PolySeq) -> list[Poly]:
    """One log-convexity step: output i-1 holds seq[i-1]*seq[i+1] - seq[i]^2."""
    if len(seq) < 3:
        raise ValueError("need at least three entries")
    return [seq[i - 1] * seq[i + 1] - seq[i] * seq[i] for i in range(1, len(seq) - 1)]


@dataclass
class LCXReport:
    """Outcome of the iterated log-convexity check."""

    k: int
    ok: bool
    failed_stage: int | None = None
    failed_index: int | None = None
    witness: Poly | None = None

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "result": "pass" if self.ok else "fail",
            "failed_stage": self.failed_stage,
            "failed_index": self.failed_index,
            "witness": render(self.witness) if self.witness is not None else None,
        }


# the highest stage whose determinant identity check_k_log_convex knows
_MAX_LCX_K = 3


def check_k_log_convex(seq: PolySeq, k: int) -> LCXReport:
    """Iterate the log-convexity operator k times, requiring nonnegative
    coefficients at every stage.

    The second and third stages are also recomputed from Hankel-window
    determinants through the identities

        L^2 at c = seq[c] * det3(c)
        L^3 at c = g * (seq[c]^2 * det4(c) + det3(c-1) * det3(c+1)),
                   g = seq[c-1] seq[c+1] - seq[c]^2

    and both evaluation routes are asserted equal.  det_s(c) is the
    determinant of the size-s Hankel block of seq[c-s+1:], which is the
    minor of B[i][j] = seq[i+j] (j <= 3) on rows c-s+1..c and columns
    0..s-1.  Every window comes from one cofactor memo on B that lives for
    this call: stage 3 reads det3(c-1) and det3(c+1) from stage 2, and
    det4(c)'s leading 3x3 cofactor is det3(c-1).  B is zero where i+j runs
    past ``seq``; no window reads those entries.  g is formed here rather
    than taken from the first stage, so the check shares no product with
    the operator it checks.
    """
    if not 1 <= k <= _MAX_LCX_K:
        raise ValueError(f"k must be between 1 and {_MAX_LCX_K}")
    if len(seq) < 2 * k + 1:
        raise ValueError(f"need at least {2 * k + 1} entries for k={k}")
    ctx = seq[0].ctx
    end = len(seq)
    block = PolyMatrix(
        ctx, [[seq[i + j] if i + j < end else ctx.zero for j in range(4)] for i in range(end)]
    )
    memo: dict = {}

    def det(c: int, size: int) -> Poly:
        return _det_cofactor(block, tuple(range(c - size + 1, c + 1)), tuple(range(size)), memo)

    cur = list(seq)
    for stage in range(1, k + 1):
        cur = l_operator(cur)
        if stage == 2:
            for j, v in enumerate(cur):
                c = j + 2
                want = seq[c] * det(c, 3)
                if v != want:
                    raise ArithmeticError(
                        "second-stage determinant identity failed; "
                        "the implementation is inconsistent"
                    )
        if stage == 3:
            for j, v in enumerate(cur):
                c = j + 3
                square = seq[c] * seq[c]
                gap = seq[c - 1] * seq[c + 1] - square
                want = gap * (square * det(c, 4) + det(c - 1, 3) * det(c + 1, 3))
                if v != want:
                    raise ArithmeticError(
                        "third-stage determinant identity failed; "
                        "the implementation is inconsistent"
                    )
        for i, v in enumerate(cur):
            if not v.is_nonneg():
                return LCXReport(k, False, stage, i, v)
    return LCXReport(k, True)


# ---------------------------------------------------------------------------
# tridiagonal criteria
# ---------------------------------------------------------------------------


def _geq(p: Poly, q) -> bool:
    return (p - q).is_nonneg()


def check_tridiagonal_hypotheses(s: PolySeq, r: PolySeq, t: PolySeq, upto: int) -> None:
    """Raise ValueError unless the sequences cover s_0..s_upto, r_0..r_upto
    and t_1..t_(upto+1), and HypothesisError naming the first of those
    entries with a negative coefficient."""
    if len(s) < upto + 1 or len(r) < upto + 1 or len(t) < upto + 2:
        raise ValueError("sequences too short for the requested range")
    for name, seq, start in (("s", s, 0), ("r", r, 0), ("t", t, 1)):
        for i in range(start, upto + 2 if name == "t" else upto + 1):
            if not seq[i].is_nonneg():
                raise HypothesisError(
                    f"{name}_{i} = {seq[i]} has a negative coefficient"
                )


def tridiagonal_tp_criteria(
    s: PolySeq, r: PolySeq, t: PolySeq, upto: int
) -> set[str]:
    """Which of the four coefficientwise dominance criteria hold up to ``upto``.

    Precondition (checked, ``check_tridiagonal_hypotheses``): the entries
    themselves are coefficientwise nonnegative.  Sequences must cover
    s_0..s_upto, r_0..r_upto and t_1..t_(upto+1).

      i:    s_0 >= r_0          and  s_n >= r_n + t_n
      ii:   s_0 >= t_1          and  s_n >= r_(n-1) + t_(n+1)
      iii:  s_0 >= 1            and  s_n >= r_(n-1) t_n + 1
      iv:   s_0 >= r_0 t_1      and  s_n >= r_n t_(n+1) + 1
    """
    check_tridiagonal_hypotheses(s, r, t, upto)
    one = s[0].ctx.one
    results = set()
    if _geq(s[0], r[0]) and all(_geq(s[n], r[n] + t[n]) for n in range(1, upto + 1)):
        results.add("i")
    if _geq(s[0], t[1]) and all(
        _geq(s[n], r[n - 1] + t[n + 1]) for n in range(1, upto + 1)
    ):
        results.add("ii")
    if _geq(s[0], one) and all(
        _geq(s[n], r[n - 1] * t[n] + one) for n in range(1, upto + 1)
    ):
        results.add("iii")
    if _geq(s[0], r[0] * t[1]) and all(
        _geq(s[n], r[n] * t[n + 1] + one) for n in range(1, upto + 1)
    ):
        results.add("iv")
    return results
