"""Tests for the brute-force enumeration oracles."""

import math
from collections import Counter
from itertools import permutations

import pytest
from sympy.utilities.iterables import multiset_permutations

from tpcert import oracles
from tpcert.polyring import VarContext
from tpcert.triangles import ROW_SHIFT, RecurrenceSpec, build_triangle


def bell(n):
    # Dobinski-free small-n Bell numbers by the triangle scheme
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
    return row[0]


def dfact(n):
    return math.prod(range(1, 2 * n, 2)) if n else 1


class TestExamples:
    def test_descents(self):
        assert oracles.perms_by_descents(1).counts == (0, 1)
        assert oracles.perms_by_descents(3).counts == (0, 1, 4, 1)
        assert oracles.perms_by_descents(4).counts == (0, 1, 11, 11, 1)

    def test_cycles(self):
        assert oracles.perms_by_cycles(1).counts == (0, 1)
        assert oracles.perms_by_cycles(3).counts == (0, 2, 3, 1)
        assert oracles.perms_by_cycles(4).counts == (0, 6, 11, 6, 1)

    def test_set_partitions(self):
        assert oracles.set_partitions_by_blocks(1).counts == (0, 1)
        assert oracles.set_partitions_by_blocks(4).counts == (0, 1, 7, 6, 1)
        assert oracles.set_partitions_by_blocks(5).total == 52

    def test_stirling_perms(self):
        assert oracles.stirling_perms_by_ascent_plateau(1).counts == (0, 1)
        assert oracles.stirling_perms_by_ascent_plateau(2).counts == (0, 2, 1)
        assert oracles.stirling_perms_by_ascent_plateau(3).total == 15

    def test_matchings(self):
        assert oracles.matchings_by_odd_smaller(1).counts == (0, 1)
        assert oracles.matchings_by_odd_smaller(2).total == 3
        assert (
            oracles.matchings_by_odd_smaller(2).counts
            == oracles.stirling_perms_by_ascent_plateau(2).counts
        )

    def test_peaks(self):
        assert oracles.perms_by_interior_peaks(2).counts == (2,)
        assert oracles.perms_by_interior_peaks(3).counts == (4, 2)
        assert oracles.perms_by_left_peaks(2).counts == (1, 1)


class TestStirlingSearch:
    @pytest.mark.parametrize("n", range(0, 6))
    def test_matches_filtered_arrangements(self, n):
        # every distinct arrangement of {1,1,...,n,n}, kept when everything
        # between the two copies of each i exceeds i
        def stirling(word):
            for i in range(1, n + 1):
                a = word.index(i)
                b = word.index(i, a + 1)
                if any(v < i for v in word[a + 1 : b]):
                    return False
            return True

        multiset = [i for i in range(1, n + 1) for _ in range(2)]
        arrangements = [tuple(w) for w in multiset_permutations(multiset)]
        assert len(arrangements) == math.factorial(2 * n) // 2**n
        want = {w for w in arrangements if stirling(w)}
        got = list(oracles.stirling_permutations(n))
        assert len(got) == len(set(got)) == dfact(n)
        assert set(got) == want
        assert got == sorted(got)


class TestDescents:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_index_loop(self, n):
        tally = Counter(
            sum(1 for i in range(n - 1) if p[i] > p[i + 1]) + 1
            for p in permutations(range(1, n + 1))
        )
        want = tuple(tally[k] for k in range(max(tally) + 1))
        assert oracles.perms_by_descents(n).counts == want


class TestTotals:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_permutation_totals(self, n):
        assert oracles.perms_by_descents(n).total == math.factorial(n)
        assert oracles.perms_by_cycles(n).total == math.factorial(n)
        assert oracles.perms_by_interior_peaks(n).total == math.factorial(n)
        assert oracles.perms_by_left_peaks(n).total == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bell_totals(self, n):
        assert oracles.set_partitions_by_blocks(n).total == bell(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_double_factorial_totals(self, n):
        assert oracles.stirling_perms_by_ascent_plateau(n).total == dfact(n)
        assert oracles.matchings_by_odd_smaller(n).total == dfact(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_two_enumerations_agree(self, n):
        assert (
            oracles.matchings_by_odd_smaller(n).counts
            == oracles.stirling_perms_by_ascent_plateau(n).counts
        )


class TestAgainstRecurrences:
    @pytest.fixture
    def ctx(self):
        return VarContext(["n", "k", "q"])

    def rows(self, ctx, c0, c1, depth):
        spec = RecurrenceSpec(ctx, ROW_SHIFT, (ctx.parse(c0), ctx.parse(c1)))
        t = build_triangle(spec, depth)
        return [[int(e.const_value()) for e in row] for row in t.rows]

    def test_eulerian(self, ctx):
        rows = self.rows(ctx, "k", "n - k + 1", 6)
        for n in range(1, 7):
            assert rows[n] == oracles.perms_by_descents(n).padded(n + 1)

    def test_stirling_cycles(self, ctx):
        rows = self.rows(ctx, "n - 1", "1", 6)
        for n in range(1, 7):
            assert rows[n] == oracles.perms_by_cycles(n).padded(n + 1)

    def test_stirling_partitions(self, ctx):
        rows = self.rows(ctx, "k", "1", 7)
        for n in range(1, 8):
            assert rows[n] == oracles.set_partitions_by_blocks(n).padded(n + 1)

    def test_ascent_plateaus(self, ctx):
        rows = self.rows(ctx, "2*k", "2*(n - k) + 1", 5)
        for n in range(1, 6):
            assert rows[n] == oracles.stirling_perms_by_ascent_plateau(n).padded(n + 1)

    def test_interior_peaks(self, ctx):
        # triangle row n-1 carries the statistics of permutations of n letters
        rows = self.rows(ctx, "2*k + 2", "n + 1 - 2*k", 6)
        for n in range(1, 8):
            assert rows[n - 1] == oracles.perms_by_interior_peaks(n).padded(n)

    def test_left_peaks(self, ctx):
        rows = self.rows(ctx, "2*k + 1", "n - 2*k + 1", 7)
        for n in range(1, 8):
            assert rows[n] == oracles.perms_by_left_peaks(n).padded(n + 1)


class TestGuards:
    def test_size_guards(self):
        with pytest.raises(ValueError):
            oracles.perms_by_descents(8)
        with pytest.raises(ValueError):
            oracles.stirling_perms_by_ascent_plateau(6)
        with pytest.raises(ValueError):  # on the call, before any word is asked for
            oracles.stirling_permutations(6)
        assert oracles.stirling_permutations.limit == 5
        with pytest.raises(ValueError):
            oracles.matchings_by_odd_smaller(6)
        with pytest.raises(ValueError):
            oracles.set_partitions_by_blocks(9)
        with pytest.raises(ValueError):
            oracles.perms_by_interior_peaks(-1)
