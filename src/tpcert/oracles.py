"""Brute-force combinatorial enumerators used as ground truth.

Every function here counts objects directly from the defining property,
with no reference to any recurrence, so the triangle builders can be tested
against an independent source.  Stirling permutations are found by pruned
search: only prefixes that can still complete are extended, and every
finished word is checked against the definition.  Sizes are hard-guarded:
these are oracles for desk-scale cross-checks, not counting algorithms.

Boundary conventions: statistics that look left of the first letter use a
virtual 0 there (ascent plateaus and left peaks), which is the convention
the recurrences are aligned to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from itertools import permutations
from operator import gt


@dataclass(frozen=True)
class CountVector:
    """Counts by statistic value for all objects of one size; ``counts[k]``
    is the number of objects with statistic k."""

    n: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def padded(self, length: int) -> list[int]:
        return list(self.counts) + [0] * (length - len(self.counts))


def _guard(limit: int, what: str):
    """Refuse sizes outside 0..limit.  The limit is kept on the enumerator
    as ``limit``, where plan validation reads it."""

    def wrap(enumerate_):
        @wraps(enumerate_)
        def guarded(n: int):
            if n < 0:
                raise ValueError("size must be nonnegative")
            if n > limit:
                raise ValueError(f"{what} enumeration is guarded at n <= {limit}, got {n}")
            return enumerate_(n)

        guarded.limit = limit
        return guarded

    return wrap


def _vector(n: int, values) -> CountVector:
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    top = max(counts, default=0)
    return CountVector(n, tuple(counts.get(k, 0) for k in range(top + 1)))


@_guard(7, "permutation")
def perms_by_descents(n: int) -> CountVector:
    """Permutations of [n] counted by descent number + 1 (so column k holds
    the permutations with k-1 descents, matching the triangle alignment);
    the empty statistic column 0 is zero for n >= 1."""
    if n == 0:
        return CountVector(0, (1,))
    return _vector(n, (sum(map(gt, p, p[1:])) + 1 for p in permutations(range(1, n + 1))))


@_guard(7, "permutation")
def perms_by_cycles(n: int) -> CountVector:
    """Permutations of [n] counted by number of disjoint cycles."""
    if n == 0:
        return CountVector(0, (1,))

    def cycles(p):
        seen = [False] * n
        count = 0
        for i in range(n):
            if not seen[i]:
                count += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
        return count

    return _vector(n, (cycles(p) for p in permutations(range(n))))


@_guard(8, "set partition")
def set_partitions_by_blocks(n: int) -> CountVector:
    """Partitions of an n-set counted by number of blocks."""
    if n == 0:
        return CountVector(0, (1,))

    def block_counts():
        # restricted growth: each element joins a block 1..used+1
        stack = [(1, 0)]  # (next element, blocks used so far)
        while stack:
            elem, used = stack.pop()
            if elem > n:
                yield used
                continue
            for b in range(1, used + 2):
                stack.append((elem + 1, max(used, b)))

    return _vector(n, block_counts())


@_guard(5, "Stirling permutation")
def stirling_permutations(n: int):
    """All permutations of the multiset {1,1,...,n,n} in which everything
    between the two copies of i exceeds i.

    Found by depth-first search over prefixes.  A value is open when one
    copy of it is placed; a letter below an open i can never leave the
    stretch between i's copies, so the open values always form an
    increasing stack.  A prefix therefore grows only by closing the top of
    that stack or by opening an unused value above it, and the search
    carries the stack and a bit mask of the used values with each prefix.
    Every finished word is still checked against the definition."""

    def ok(word):
        for v in range(1, n + 1):
            a = word.index(v)
            # the stretch starts at v itself, which is never below v
            if min(word[a : word.index(v, a + 1)]) < v:
                return False
        return True

    stack = [((), (), 0)]  # (prefix, open values ascending, used-value mask)
    while stack:
        word, opened, used = stack.pop()
        if len(word) == 2 * n:
            if ok(word):
                yield word
            continue
        top = opened[-1] if opened else 0
        for v in range(n, top, -1):  # pushed downwards, so popped in lex order
            if not used >> v & 1:
                stack.append((word + (v,), opened + (v,), used | 1 << v))
        if opened:  # closing the top is the smallest letter, so it is pushed last
            stack.append((word + (top,), opened[:-1], used))


@_guard(stirling_permutations.limit, "Stirling permutation")
def stirling_perms_by_ascent_plateau(n: int) -> CountVector:
    """Stirling permutations counted by ascent plateaus (positions i with
    w[i-1] < w[i] == w[i+1], reading a virtual 0 before the word)."""
    if n == 0:
        return CountVector(0, (1,))

    def plateaus(word):
        count = 0
        for i in range(len(word) - 1):
            left = word[i - 1] if i else 0
            if left < word[i] and word[i] == word[i + 1]:
                count += 1
        return count

    return _vector(n, (plateaus(w) for w in stirling_permutations(n)))


@_guard(5, "matching")
def matchings_by_odd_smaller(n: int) -> CountVector:
    """Perfect matchings of [2n] counted by pairs whose smaller entry is odd."""
    if n == 0:
        return CountVector(0, (1,))

    def go(remaining: tuple[int, ...], odd: int, out: list[int]):
        if not remaining:
            out.append(odd)
            return
        a = remaining[0]
        rest = remaining[1:]
        for i, b in enumerate(rest):
            go(rest[:i] + rest[i + 1 :], odd + (min(a, b) % 2), out)

    out: list[int] = []
    go(tuple(range(1, 2 * n + 1)), 0, out)
    return _vector(n, out)


@_guard(7, "permutation")
def perms_by_interior_peaks(n: int) -> CountVector:
    """Permutations of [n] counted by interior peaks (1 < i < n with
    neighbors smaller on both sides)."""
    if n == 0:
        return CountVector(0, (1,))

    def peaks(p):
        return sum(1 for i in range(1, n - 1) if p[i - 1] < p[i] > p[i + 1])

    return _vector(n, (peaks(p) for p in permutations(range(1, n + 1))))


@_guard(7, "permutation")
def perms_by_left_peaks(n: int) -> CountVector:
    """Permutations of [n] counted by left peaks (positions 1 <= i < n with
    p[i-1] < p[i] > p[i+1], reading a virtual 0 at position 0)."""
    if n == 0:
        return CountVector(0, (1,))

    def peaks(p):
        padded = (0,) + p
        return sum(
            1 for i in range(1, n) if padded[i - 1] < padded[i] > padded[i + 1]
        )

    return _vector(n, (peaks(p) for p in permutations(range(1, n + 1))))
