"""Tests for exact minors, TP certificates and the log-convexity ladder."""

import collections
import math
import multiprocessing
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from tpcert import cli, contfrac, families, polyring, totalpos
from tpcert.contfrac import check_hankel_factorization
from tpcert.polyring import VarContext
from tpcert.totalpos import (
    HypothesisError,
    PolyMatrix,
    check_k_log_convex,
    hankel,
    is_totally_positive,
    l_operator,
    minor,
    tridiag,
    tridiagonal_tp_criteria,
)
from tpcert.triangles import COLUMN_WALK, ROW_SHIFT, RecurrenceSpec, build_triangle, reciprocal

PLANS = Path(__file__).resolve().parent.parent / "plans"
SMALL_RING = ("eulerian", "bell-walk", "stirling-partition", "stirling-permutation")


@pytest.fixture
def ctx():
    return VarContext(["n", "k", "q", "eps"])


def consts(ctx, values):
    return [ctx.const(v) for v in values]


def sympy_matrix(m):
    """The integer block as a sympy matrix over ZZ[ctx names], converted once."""
    ring = sympy.ZZ[sympy.symbols(m.ctx.names)].ring
    entries = [[ring.from_dict({m.ctx.unpack(key): c for key, c in e.terms.items()})
                for e in row] for row in m.entries]
    return DomainMatrix(entries, (m.nrows, m.ncols), ring.to_domain())


def sympy_minor(ctx, sym, rows, cols):
    """sympy's fraction-free (Bareiss) determinant of a submatrix, as a Poly."""
    d = sym.extract(list(rows), list(cols)).det()
    return ctx.from_terms((int(c), dict(zip(ctx.names, exps))) for exps, c in d.items())


def random_matrix(ctx, rng, size):
    return PolyMatrix(
        ctx,
        [
            [
                ctx.from_terms(
                    [(rng.randint(-4, 4), {"q": rng.randint(0, 2)})]
                    + [(rng.randint(-4, 4), {})]
                )
                for _ in range(size)
            ]
            for _ in range(size)
        ],
    )


class TestHankel:
    def test_layout(self, ctx):
        h = hankel(consts(ctx, [1, 1, 2, 6, 24]), 3)
        assert [[int(e.const_value()) for e in row] for row in h.entries] == [
            [1, 1, 2],
            [1, 2, 6],
            [2, 6, 24],
        ]

    def test_constant_sequence(self, ctx):
        h = hankel([ctx.one] * 5, 3)
        assert all(e == ctx.one for row in h.entries for e in row)

    def test_too_short(self, ctx):
        with pytest.raises(ValueError):
            hankel(consts(ctx, [1, 2, 3]), 3)


class TestMinor:
    def test_small_examples(self, ctx):
        m = PolyMatrix(ctx, [consts(ctx, [1, 1]), consts(ctx, [1, 2])])
        assert minor(m, (0, 1), (0, 1)) == ctx.one
        h = hankel(consts(ctx, [1, 1, 2, 6, 24]), 3)
        assert minor(h, (0, 1, 2), (0, 1, 2)) == ctx.const(4)
        assert minor(h, (1,), (2,)) == ctx.const(6)
        z, one = ctx.zero, ctx.one
        swap = PolyMatrix(ctx, [[z, one, z], [one, z, z], [z, z, one]])
        assert minor(swap, range(3), range(3)) == -one
        assert minor(PolyMatrix(ctx, [[z, z], [z, z]]), (0, 1), (0, 1)).is_zero()

    def test_dimension_mismatch(self, ctx):
        m = PolyMatrix(ctx, [consts(ctx, [1, 1]), consts(ctx, [1, 2])])
        with pytest.raises(ValueError):
            minor(m, (0, 1), (0,))
        with pytest.raises(ValueError):
            minor(m, (0, 2), (0, 1))

    def test_negative_indices_rejected(self, ctx):
        m = hankel(consts(ctx, [1, 1, 2, 6, 24]), 3)
        for rows, cols in (((-1,), (0,)), ((0,), (-1,)), ((0, 1), (-2, 1))):
            with pytest.raises(ValueError, match="out of range"):
                minor(m, rows, cols)

    def test_cofactor_and_sympy_agree(self, ctx):
        rng = random.Random(11)
        for _ in range(15):
            m = random_matrix(ctx, rng, 4)
            rows = cols = tuple(range(4))
            assert minor(m, rows, cols) == sympy_minor(ctx, sympy_matrix(m), rows, cols)

    def test_5x5_minor_matches_sympy(self, ctx):
        rng = random.Random(13)
        m = random_matrix(ctx, rng, 5)
        rows = cols = tuple(range(5))
        assert minor(m, rows, cols) == sympy_minor(ctx, sympy_matrix(m), rows, cols)

    def test_homogeneous_4x4_minor_matches_sympy(self, monkeypatch):
        # entries homogeneous of degree 6 in (x, y), as the Hankel entries
        # of the four-term families are in parameter pairs, so the larger
        # products of the cofactor expansion take the fiber kernel
        hctx = VarContext(["x", "y", "z"])
        rng = random.Random(17)
        entries = [
            [
                hctx.from_terms(
                    (rng.randint(-5, 5), {"x": i, "y": 6 - i, "z": j})
                    for i in range(7)
                    for j in range(4)
                )
                for _ in range(4)
            ]
            for _ in range(4)
        ]
        fiber_product = polyring._fiber_product
        fiber_results = []

        def spy(p, q):
            out = fiber_product(p, q)
            fiber_results.append(out is not None)
            return out

        monkeypatch.setattr(polyring, "_fiber_product", spy)
        block = PolyMatrix(hctx, entries)
        got = minor(block, range(4), range(4))
        assert any(fiber_results)
        assert got == sympy_minor(hctx, sympy_matrix(block), range(4), range(4))

    def test_every_fiber_product_of_a_symbolic_scan(self, monkeypatch):
        # each product the fiber kernel takes in the affine-n size-5,
        # order-4 scan, against the plain term loop; some of them run along
        # three-variable directions
        fam = families.CATALOG["affine-n"]()
        ctx = fam.ctx
        gfs = build_triangle(fam.spec, 8).row_gfs(fam.gf_var)
        fiber_product = polyring._fiber_product
        product_direction = polyring._product_direction
        taken, moved = [], collections.Counter()
        key = ctx.pack([5] * len(ctx))

        def spy(p, q):
            out = fiber_product(p, q)
            if out is not None:
                taken.append((p.terms, q.terms, out))
            return out

        def spy_direction(a, nvars, triples):
            direction = product_direction(a, nvars, triples)
            if direction is not None:
                step = direction[1]
                moved[sum(e1 != e0 for e0, e1 in zip(ctx.unpack(key), ctx.unpack(key + step)))] += 1
            return direction

        monkeypatch.setattr(polyring, "_fiber_product", spy)
        monkeypatch.setattr(polyring, "_product_direction", spy_direction)
        assert is_totally_positive(hankel(gfs, 5), 4).ok
        assert len(taken) > 300 and moved[3] > 0
        for a, b, out in taken:
            want = {}
            for ka, ca in a.items():
                for kb, cb in b.items():
                    want[ka + kb] = want.get(ka + kb, 0) + ca * cb
            assert out == {k: c for k, c in want.items() if c}

    @pytest.mark.parametrize("name, choices, lined, pairs", [
        ("four-term[nk]", 66, 489, 1_877_936),
        ("affine-n", 55, 378, 319_049),
    ])
    def test_symbolic_scans_choose_each_direction_once(self, monkeypatch, name, choices,
                                                       lined, pairs):
        # the size-5, order-4 scans choose each operand's direction once and
        # keep it on the operand: every product packs along the direction a
        # fresh choice makes, and the scan multiplies the fiber pairs the
        # README quotes
        fam = (families.four_term_family("nk") if name == "four-term[nk]"
               else families.CATALOG[name]())
        ctx = fam.ctx
        gfs = build_triangle(fam.spec, 8).row_gfs(fam.gf_var)
        fiber_product, product_direction = polyring._fiber_product, polyring._product_direction
        lines, anchored = polyring._lines, polyring._anchored
        chosen, grouped, agreed, fibers = [], [], [], []

        def spy(p, q):
            grouped.clear()
            out = fiber_product(p, q)
            if grouped:  # the kernel took a direction and grouped p's terms
                terms, direction = grouped[0]
                assert terms is p.terms
                triples = (len(p.terms) * len(q.terms) >= polyring._LARGE
                           and p.total_degree() + q.total_degree() < polyring._TRIPLE_DEGREE)
                agreed.append(direction == product_direction(p.terms, len(ctx), triples))
            return out

        def spy_lines(terms, sv, step):
            grouped.append((terms, (sv, step)))
            return lines(terms, sv, step)

        def spy_direction(a, nvars, triples):
            chosen.append(triples)
            return product_direction(a, nvars, triples)

        def spy_anchored(by_line, step, width):
            fibers.append(len(by_line))
            return anchored(by_line, step, width)

        monkeypatch.setattr(polyring, "_fiber_product", spy)
        monkeypatch.setattr(polyring, "_lines", spy_lines)
        monkeypatch.setattr(polyring, "_product_direction", spy_direction)
        monkeypatch.setattr(polyring, "_anchored", spy_anchored)
        assert is_totally_positive(hankel(gfs, 5), 4).ok
        assert len(chosen) == choices and any(chosen)
        assert len(agreed) == lined and all(agreed)
        assert sum(b * a for b, a in zip(fibers[::2], fibers[1::2])) == pairs


class TestIsTotallyPositive:
    def test_pascal_lower_block(self, ctx):
        t = build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (ctx.one, ctx.one)), 4)
        m = PolyMatrix(
            ctx, [[t.entry(n, k) for k in range(5)] for n in range(5)]
        )
        assert is_totally_positive(m, 5).ok

    def test_witness_and_minimality(self, ctx):
        m = PolyMatrix(ctx, [consts(ctx, [1, 2]), consts(ctx, [2, 1])])
        rep = is_totally_positive(m, 2)
        assert not rep.ok
        w = rep.witness
        assert (w.order, w.rows, w.cols) == (2, (0, 1), (0, 1))
        assert w.minor == ctx.const(-3)
        assert w.coeff == -3

    def test_monotone_in_order(self, ctx):
        rng = random.Random(3)
        for _ in range(10):
            m = random_matrix(ctx, rng, 4)
            results = [is_totally_positive(m, r).ok for r in (1, 2, 3, 4)]
            # pass at r implies pass at r-1: no False followed by True
            assert all(
                not (results[i] and not results[i - 1]) for i in range(1, 4)
            )

    def test_parallel_matches_serial(self, ctx):
        seq = consts(ctx, [1, 1, 2, 6, 24, 120, 720])
        h = hankel(seq, 4)
        assert is_totally_positive(h, 3, jobs=2).ok
        m = PolyMatrix(ctx, [consts(ctx, [1, 2]), consts(ctx, [2, 1])])
        serial = is_totally_positive(m, 2)
        parallel = is_totally_positive(m, 2, jobs=2)
        assert not parallel.ok
        assert parallel.witness.to_dict() == serial.witness.to_dict()
        # interior-peak rows: the witness sits in a later row-subset share,
        # and the count is still the serial one (25 order-1 minors, then the
        # fifth order-2 minor)
        n, k = ctx.var("n"), ctx.var("k")
        peaks = build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (2 * k + 2, n + 1 - 2 * k)), 8)
        h = hankel(peaks.row_gfs(), 5)
        serial = is_totally_positive(h, 5).to_dict()
        assert serial["minors_checked"] == 30
        assert serial["witness"]["rows"] == [0, 1] and serial["witness"]["cols"] == [1, 2]
        assert is_totally_positive(h, 5, jobs=2).to_dict() == serial
        assert is_totally_positive(h, 5, jobs=3).to_dict() == serial

    def test_worker_count_is_capped(self, ctx, monkeypatch):
        requested = []

        class Pool:
            def __init__(self, workers):
                requested.append(workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, shares):
                return [fn(*share) for share in shares]

        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Pool)
        )
        h = hankel(consts(ctx, [1, 1, 2, 6, 24, 120, 720]), 4)
        serial = is_totally_positive(h, 3).to_dict()
        monkeypatch.setattr(totalpos, "_usable_cpus", lambda: 3)
        assert is_totally_positive(h, 3, jobs=1000).to_dict() == serial
        assert requested == [3]
        # two row subsets
        monkeypatch.setattr(totalpos, "_usable_cpus", lambda: 64)
        m = PolyMatrix(ctx, [consts(ctx, [1, 2]), consts(ctx, [2, 5])])
        assert is_totally_positive(m, 1, jobs=8).ok
        assert requested == [3, 2]
        # one CPU: the serial scan, no pool
        monkeypatch.setattr(totalpos, "_usable_cpus", lambda: 1)
        assert is_totally_positive(h, 3, jobs=4).to_dict() == serial
        assert requested == [3, 2]

    def test_witness_matches_sympy_scan(self):
        # the size-6 interior-peak block, minor by minor in scan order
        # (order, then row sets, then column sets, each lexicographic) with
        # sympy: the first minor with a negative coefficient is the witness
        fam = families.CATALOG["interior-peak"]()
        block = hankel(build_triangle(fam.spec, 10).row_gfs(fam.gf_var), 6)
        report = is_totally_positive(block, 6)
        w = report.witness
        assert (w.order, w.rows, w.cols, w.monomial, w.coeff) == (2, (0, 1), (1, 2), "q^2", -4)
        assert report.minors_checked == 42
        sym = sympy_matrix(block)
        assert w.minor == sympy_minor(block.ctx, sym, w.rows, w.cols)
        for position, (rows, cols) in enumerate(scan_order(6, 6), 1):
            if not sympy_minor(block.ctx, sym, rows, cols).is_nonneg():
                break
        assert position == 42 and (rows, cols) == (w.rows, w.cols)

    def test_report_records_truncation(self, ctx):
        h = hankel(consts(ctx, [1, 1, 2, 6, 24]), 3)
        d = is_totally_positive(h, 2).to_dict()
        assert d["truncation"] == [3, 3] and d["order"] == 2
        assert d["result"] == "pass"

    def test_peak_polynomials_fail_with_coefficient_witness(self, ctx):
        # interior-peak row polynomials: a 2x2 minor already carries a
        # negative coefficient
        n, k = ctx.var("n"), ctx.var("k")
        spec = RecurrenceSpec(ctx, ROW_SHIFT, (2 * k + 2, n + 1 - 2 * k))
        t = build_triangle(spec, 6)
        rep = is_totally_positive(hankel(t.row_gfs(), 4), 2)
        assert not rep.ok
        assert rep.witness.minor == ctx.parse("16*q - 4*q^2")
        assert rep.witness.coeff == -4 and rep.witness.monomial == "q^2"


class TestTridiagonalForms:
    def test_placement(self, ctx):
        s = consts(ctx, [1, 3, 5])
        r = consts(ctx, [1, 1, 0])
        t = consts(ctx, [0, 1, 4])
        m = tridiag(s, r, t, 3)
        grid = [[int(e.const_value()) for e in row] for row in m.entries]
        assert grid == [[1, 1, 0], [1, 3, 1], [0, 4, 5]]

    def test_zero_offdiagonals(self, ctx):
        s = consts(ctx, [2, 2, 2])
        z = [ctx.zero] * 4
        m = tridiag(s, z, z, 3)
        assert all(
            m.entries[i][j].is_zero() for i in range(3) for j in range(3) if i != j
        )


class TestTridiagonalCriteria:
    def test_boundary_equality_case(self, ctx):
        s = consts(ctx, [2 * i + 1 for i in range(5)])
        r = consts(ctx, [i + 1 for i in range(5)])
        t = consts(ctx, list(range(6)))
        held = tridiagonal_tp_criteria(s, r, t, 4)
        assert "i" in held

    def test_zero_diagonal_fails_all(self, ctx):
        s = [ctx.zero] * 5
        r = [ctx.one] * 5
        t = [ctx.one] * 6
        assert tridiagonal_tp_criteria(s, r, t, 4) == set()

    def test_symbolic_split_instance(self):
        # diagonal = beta + even + odd split with free nonnegative symbols
        names = (
            [f"e{i}" for i in range(6)]
            + [f"o{i}" for i in range(6)]
            + [f"b{i}" for i in range(6)]
        )
        c = VarContext(names)
        even = [c.var(f"e{i}") for i in range(6)]
        odd = [c.var(f"o{i}") for i in range(6)]
        beta = [c.var(f"b{i}") for i in range(6)]
        s = [beta[0] + even[0]] + [
            beta[i] + even[i] + odd[i - 1] for i in range(1, 6)
        ]
        r = even
        t = [c.zero] + odd
        held = tridiagonal_tp_criteria(s, r, t, 4)
        assert "i" in held
        assert is_totally_positive(tridiag(s, r, t, 5), 3).ok

    def test_each_criterion_has_satisfying_and_failing_instance(self, ctx):
        one, zero = ctx.one, ctx.zero
        five = ctx.const(5)
        # per criterion: (s, r, t) chosen to satisfy it
        instances = {
            "i": ([five] * 6, [one] * 6, [zero] + [one] * 6),
            "ii": ([five] * 6, [one] * 6, [zero] + [one] * 6),
            "iii": ([five] * 6, [ctx.const(2)] * 6, [zero] + [ctx.const(2)] * 6),
            "iv": ([five] * 6, [one] * 6, [zero] + [one] * 6),
        }
        for crit, (s, r, t) in instances.items():
            held = tridiagonal_tp_criteria(s, r, t, 4)
            assert crit in held
            assert is_totally_positive(tridiag(s, r, t, 5), 3).ok
        # violating instance: big off-diagonals, small diagonal
        s = [one] * 6
        r = [ctx.const(3)] * 6
        t = [zero] + [ctx.const(3)] * 6
        assert tridiagonal_tp_criteria(s, r, t, 4) == set()
        assert not is_totally_positive(tridiag(s, r, t, 5), 3).ok

    def test_precondition_enforced(self, ctx):
        s = [ctx.parse("q - 1")] * 5
        r = [ctx.one] * 5
        t = [ctx.zero] + [ctx.one] * 5
        with pytest.raises(HypothesisError):
            tridiagonal_tp_criteria(s, r, t, 3)


class TestLOperator:
    def test_examples(self, ctx):
        seq = consts(ctx, [1, 1, 2, 6, 24])
        assert l_operator(seq) == consts(ctx, [1, 2, 12])
        assert all(v.is_zero() for v in l_operator([ctx.const(7)] * 5))
        geometric = [ctx.const(3**i) for i in range(6)]
        assert all(v.is_zero() for v in l_operator(geometric))

    def test_too_short(self, ctx):
        with pytest.raises(ValueError):
            l_operator(consts(ctx, [1, 2]))


class TestKLogConvex:
    def test_factorials_pass_k3(self, ctx):
        seq = consts(ctx, [math.factorial(i) for i in range(7)])
        assert check_k_log_convex(seq, 3).ok

    def test_constant_sequence(self, ctx):
        for k in (1, 2, 3):
            assert check_k_log_convex([ctx.one] * 7, k).ok

    def test_length_requirement(self, ctx):
        with pytest.raises(ValueError):
            check_k_log_convex(consts(ctx, [1, 2, 3, 4]), 2)

    def test_failure_reports_witness(self, ctx):
        # interior peak row polynomials: fails at the first stage
        n, k = ctx.var("n"), ctx.var("k")
        spec = RecurrenceSpec(ctx, ROW_SHIFT, (2 * k + 2, n + 1 - 2 * k))
        t = build_triangle(spec, 6)
        rep = check_k_log_convex(t.row_gfs(), 1)
        assert not rep.ok
        assert rep.failed_stage == 1
        assert rep.witness == ctx.parse("16*q - 4*q^2")

    def test_cross_validation_runs_on_symbolic_data(self, ctx):
        # the determinant identities are exercised on a symbolic sequence
        q = ctx.var("q")
        seq = [(1 + q) ** i for i in range(8)]
        assert check_k_log_convex(seq, 3).ok

    @pytest.mark.parametrize("stage", [2, 3])
    def test_a_wrong_operator_stage_is_caught(self, ctx, stage, monkeypatch):
        # the determinant route does not read the operator's outputs, so
        # one entry off by 1 at a checked stage raises
        q = ctx.var("q")
        seq = [(1 + q) ** i for i in range(8)]
        operator = totalpos.l_operator
        calls = []

        def off_by_one(cur):
            out = operator(cur)
            calls.append(None)
            if len(calls) == stage:
                out[1] = out[1] + ctx.one
            return out

        monkeypatch.setattr(totalpos, "l_operator", off_by_one)
        name = {2: "second", 3: "third"}[stage]
        with pytest.raises(ArithmeticError, match=f"{name}-stage determinant identity failed"):
            check_k_log_convex(seq, 3)

    @pytest.mark.parametrize("source", ["binomial", "whitney"])
    def test_windows_are_hankel_minors(self, ctx, source, monkeypatch):
        # every window the check reads (rows lo..lo+s-1, columns 0..s-1 of
        # its one block) is the leading minor of the Hankel block of seq[lo:]
        if source == "binomial":
            q = ctx.var("q")
            seq = [(1 + q) ** i for i in range(8)]
        else:
            fam = families.CATALOG["whitney"]()
            seq = build_triangle(fam.spec, 8).row_gfs(fam.gf_var)
        windows = {}
        cofactor = totalpos._det_cofactor

        def record(m, rows, cols, memo):
            d = cofactor(m, rows, cols, memo)
            if len(rows) >= 3 and cols == tuple(range(len(rows))):
                windows[rows[0], len(rows)] = d
            return d

        monkeypatch.setattr(totalpos, "_det_cofactor", record)
        assert check_k_log_convex(seq, 3).ok
        end = len(seq)
        # det3(c) for c = 2..end-3 and det4(c) for c = 3..end-4, keyed by c-s+1
        assert set(windows) == {(lo, 3) for lo in range(end - 4)} | {
            (lo, 4) for lo in range(end - 6)
        }
        for (lo, s), d in windows.items():
            assert d == minor(hankel(seq[lo:], s), range(s), range(s)), (lo, s)
        block = hankel(seq[1:], 4)
        assert windows[1, 4] == sympy_minor(block.ctx, sympy_matrix(block), range(4), range(4))

    def test_k3_check_forms_148_multi_term_products(self, monkeypatch):
        # counted as the benchmark tracer counts them: both operands with
        # two or more terms; building each window afresh formed 228
        fam = families.CATALOG["whitney"]()
        rows = build_triangle(fam.spec, 8).row_gfs(fam.gf_var)
        assert len(rows) == 9
        count = []
        mul = polyring.Poly.__mul__

        def counted(a, b):
            if isinstance(b, polyring.Poly) and len(a.terms) >= 2 and len(b.terms) >= 2:
                count.append(None)
            return mul(a, b)

        monkeypatch.setattr(polyring.Poly, "__mul__", counted)
        assert check_k_log_convex(rows, 3).ok
        assert len(count) == 148


class TestHankelFactorization:
    def test_bell_walk(self, ctx):
        k = ctx.var("k")
        spec = RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, k + 1, k))
        assert check_hankel_factorization(build_triangle(spec, 8), 5)

    def test_all_zero_downweights(self, ctx):
        spec = RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, ctx.var("k") + 1, ctx.zero))
        assert check_hankel_factorization(build_triangle(spec, 6), 4)

    @pytest.mark.parametrize("size", [0, -1])
    def test_a_block_without_rows_is_rejected(self, ctx, size):
        spec = RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, ctx.var("k") + 1, ctx.var("k")))
        with pytest.raises(ValueError, match="size must be positive"):
            check_hankel_factorization(build_triangle(spec, 6), size)

    def test_symbolic_small(self):
        names = (
            [f"r{i}" for i in range(4)]
            + [f"s{i}" for i in range(4)]
            + [f"t{i}" for i in range(1, 5)]
        )
        c = VarContext(["n", "k"] + names)
        # building to row 6 reads levels up to 5; the first column through
        # row 6 reads levels up to 3 only, so the padding is never read
        pad = (c.zero,) * 2
        r = tuple(c.var(f"r{i}") for i in range(4)) + pad
        s = tuple(c.var(f"s{i}") for i in range(4)) + pad
        t = (c.zero,) + tuple(c.var(f"t{i}") for i in range(1, 5)) + pad[:1]
        spec = RecurrenceSpec(c, COLUMN_WALK, (r, s, t))
        assert check_hankel_factorization(build_triangle(spec, 6), 4)

    def test_a_fraction_one_level_off_fails(self, ctx, monkeypatch):
        # the check compares with the triangle, so a J-fraction whose
        # downstep weights are shifted up one level is caught
        k = ctx.var("k")
        t = build_triangle(RecurrenceSpec(ctx, COLUMN_WALK, (k + 2, k + 1, k)), 8)
        assert check_hankel_factorization(t, 5)
        weights = contfrac._star_weights
        monkeypatch.setattr(contfrac, "_star_weights",
                            lambda spec: weights(spec).substitute_poly("k", k + 1))
        assert not check_hankel_factorization(t, 5)

    def test_needs_the_rows_it_reads(self, ctx):
        k = ctx.var("k")
        t = build_triangle(RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, k + 1, k)), 7)
        with pytest.raises(ValueError, match="deep enough"):
            check_hankel_factorization(t, 5)

    def test_needs_the_triangles_spec(self, ctx):
        k = ctx.var("k")
        t = build_triangle(RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, k + 1, k)), 8)
        with pytest.raises(ValueError, match="recurrence spec"):
            check_hankel_factorization(reciprocal(t), 5)

    def test_criteria_imply_hankel_tp_instancewise(self, ctx):
        # dominance certificate on the walk carries to the first-column Hankel
        k = ctx.var("k")
        spec = RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, k + 1, k))
        s = [spec.walk_coeff(1, i) for i in range(5)]
        r = [spec.walk_coeff(0, i) for i in range(5)]
        t = [spec.walk_coeff(2, i) for i in range(6)]
        assert "i" in tridiagonal_tp_criteria(s, r, t, 4)
        first_column = build_triangle(spec, 8).first_column()
        assert is_totally_positive(hankel(first_column, 5), 4).ok


def scan_order(n, order):
    """(rows, cols) of every minor an order-``order`` scan of an n x n block
    checks, in the order it checks them."""
    return [(rows, cols) for size in range(1, order + 1)
            for rows in combinations(range(n), size)
            for cols in combinations(range(n), size)]


def formed_order(n, order):
    """(rows, cols) of every minor an order-``order`` scan of a symmetric
    n x n block forms, in the order it forms them: those with rows <= cols."""
    return [(rows, cols) for rows, cols in scan_order(n, order) if rows <= cols]


def record_checked(monkeypatch):
    """Patch the scan to append every minor it checks to the returned list,
    read back into a Poly when the scan runs on an encoded block."""
    checked = []
    first_negative = totalpos._first_negative

    def record(m, d):
        checked.append(d if isinstance(d, polyring.Poly) else m.decode(d))
        return first_negative(m, d)

    monkeypatch.setattr(totalpos, "_first_negative", record)
    return checked


class OrderCountingMemo(dict):
    """A scan memo that keeps count of the entries it holds per order, of
    its largest size, and of every row set stored in it."""

    def __init__(self):
        super().__init__()
        self.held = collections.Counter()
        self.largest = 0
        self.stored_rows = set()

    def __setitem__(self, key, value):
        if key not in self:
            self.held[len(key[0])] += 1
        self.stored_rows.add(key[0])
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))

    def __delitem__(self, key):
        super().__delitem__(key)
        self.held[len(key[0])] -= 1

    def orders(self):
        return {order for order, count in self.held.items() if count}


def memo_high_water(n, order, symmetric):
    """The most entries a serial scan's memo holds on an n x n block.

    A minor is stored when its order is at least 2 and below ``order``, its
    rows miss the last row and, on a symmetric block, rows <= cols.  While
    the order-r row subsets with prefix P are scanned, the memo holds the
    stored order-(r-1) cofactors with rows P or later, which those subsets
    and the later ones read, and the order-r minors stored so far; it grows
    until the prefix changes, so its size peaks as the last subset with
    prefix P ends."""
    def stored(rows):
        if len(rows) < 2 or n - 1 in rows:
            return 0
        return sum(1 for cols in combinations(range(n), len(rows))
                   if not symmetric or rows <= cols)

    return max(
        sum(stored(q) for q in combinations(range(n), r - 1) if q >= p)
        + sum(stored(rows) for rows in combinations(range(n), r) if rows[:-1] <= p)
        for r in range(2, order) for p in {rows[:-1] for rows in combinations(range(n), r)}
    )


# products of the 7 x 7 order-7 scans as (products, term products, operand
# terms), which a change to the memo must keep: the serial scan and the two
# shares of jobs=2.  The blocks are symmetric, so only the minors with rows
# <= cols are formed; the full scan took 11963 products serially.
SCAN_PRODUCTS = {
    "eulerian": {
        "serial": (6202, 390705, 98476),
        "shares": [(4327, 254809, 66178), (4274, 247861, 65086)],
    },
    "bell-walk": {
        "serial": (6202, 728056, 135275),
        "shares": [(4327, 475631, 91073), (4274, 462401, 89241)],
    },
}


def small_ring_block(name):
    fam = families.CATALOG[name]()
    return hankel(build_triangle(fam.spec, 12).row_gfs(fam.gf_var), 7)


class TestScanMemo:
    """The scan takes every minor from the memoized cofactor expansion;
    sympy's determinant is the reference at orders 5-7.  The small-ring
    blocks are scanned encoded, so the hooks sit on the encoded seam."""

    @pytest.fixture(scope="class")
    def block(self):
        block = small_ring_block("eulerian")
        assert isinstance(totalpos._encode(block, 7), totalpos._IntBlock)
        return block

    def test_scanned_minors_match_sympy(self, block, monkeypatch):
        # the Hankel block is symmetric: the scan forms the 1779 minors with
        # rows <= cols and counts all 3431
        checked = record_checked(monkeypatch)
        assert is_totally_positive(block, 7).to_dict()["minors_checked"] == 3431
        scanned = dict(zip(formed_order(7, 7), checked, strict=True))
        assert len(scanned) == 1779
        high = [key for key in scanned if len(key[0]) >= 5]
        assert len(high) == 21 * 22 // 2 + 7 * 8 // 2 + 1
        sym = sympy_matrix(block)
        for rows, cols in high:
            assert scanned[rows, cols] == sympy_minor(block.ctx, sym, rows, cols)

    def test_serial_memo_holds_only_the_cofactors_next_read(self, block, monkeypatch):
        # at each checked order-r minor the memo holds orders r-1 and r, and
        # at the top order only r-1: a top-order minor is never stored, nor
        # one whose rows hold the last row, which no cofactor expansion reads
        memo = OrderCountingMemo()
        scan = totalpos._scan

        def scan_with_memo(m, row_subsets, _, **kwargs):
            return scan(m, row_subsets, memo, **kwargs)

        held = []
        first_negative = totalpos._first_negative

        def record(m, d):
            held.append(memo.orders())
            return first_negative(m, d)

        monkeypatch.setattr(totalpos, "_scan", scan_with_memo)
        monkeypatch.setattr(totalpos, "_first_negative", record)
        assert is_totally_positive(block, 7).ok
        for (rows, _), orders in zip(formed_order(7, 7), held, strict=True):
            r = len(rows)
            assert orders <= ({r - 1} if r == 7 else {r - 1, r}), (r, orders)
        assert memo.orders() == {6}
        # the one order-6 row set without row 6, times 7 column sets
        assert memo.held[6] == 7
        assert all(6 not in rows for rows in memo.stored_rows)
        # at the end of the order-4 row subsets with prefix (0, 1, 3): the 391
        # stored order-3 cofactors with rows (0, 1, 3) or later and the 163
        # order-4 minors stored so far
        assert memo.largest == memo_high_water(7, 7, symmetric=True) == 391 + 163

    def test_a_poly_scan_drops_each_cofactor_after_its_last_reader(self, monkeypatch):
        # the affine-n block keeps Poly entries and takes the full scan; at
        # the first minor of each row subset every memo entry is one that
        # minor or a later one reads, and no entry is stored twice
        fam = families.CATALOG["affine-n"]()
        block = hankel(build_triangle(fam.spec, 8).row_gfs(fam.gf_var), 5)
        assert totalpos._encode(block, 4) is None
        reads = collections.defaultdict(list)  # key -> the minors whose expansion read it
        stores = collections.Counter()
        held = []  # the memo's keys at each checked minor

        class ReadLoggingMemo(OrderCountingMemo):
            def get(self, key, default=None):
                if key in self:
                    reads[key].append(len(held))
                return super().get(key, default)

            def __setitem__(self, key, value):
                stores[key] += 1
                super().__setitem__(key, value)

        memo = ReadLoggingMemo()
        scan, first_negative = totalpos._scan, totalpos._first_negative

        def scan_with_memo(m, row_subsets, _, **kwargs):
            return scan(m, row_subsets, memo, **kwargs)

        def record(m, d):
            held.append(set(memo))
            return first_negative(m, d)

        monkeypatch.setattr(totalpos, "_scan", scan_with_memo)
        monkeypatch.setattr(totalpos, "_first_negative", record)
        report = is_totally_positive(block, 4)
        assert report.ok and report.minors_checked == 250
        order = scan_order(5, 4)
        assert len(held) == len(order)
        for i, ((rows, cols), keys) in enumerate(zip(order, held)):
            if cols == tuple(range(len(rows))):
                assert all(max(reads[key], default=-1) >= i for key in keys), (rows, keys)
        assert set(stores.values()) == {1} and set(reads) == set(stores)
        # the last row subset's prefix (1, 2, 3) times its 10 column sets
        assert dict(memo.held) == {2: 0, 3: 10}
        assert memo.largest == memo_high_water(5, 4, symmetric=False) == 80

    @pytest.mark.parametrize("name", sorted(SCAN_PRODUCTS))
    def test_every_scan_forms_the_same_products(self, name, monkeypatch):
        # the entries of the encoded block count each product they take part
        # in, with both operands' terms read back, and no Poly product is
        # formed at all
        block = small_ring_block(name)
        sizes = []
        poly_products = []
        mul = polyring.Poly.__mul__
        encode = totalpos._encode

        def poly_counted(a, b):
            poly_products.append((a, b))
            return mul(a, b)

        def encode_counted(m, order):
            encoded = encode(m, order)

            def terms(x):
                return len(encoded.decode(x).terms)

            class Counted(int):
                def __mul__(a, b):
                    sizes.append((terms(a), terms(b)))
                    return int(a) * int(b)

            encoded.entries = [[Counted(e) for e in row] for row in encoded.entries]
            return encoded

        def products():
            out = (len(sizes), sum(a * b for a, b in sizes), sum(a + b for a, b in sizes))
            sizes.clear()
            return out

        shares = []

        class Pool:
            def __init__(self, workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, args):
                results = []
                for share in args:
                    results.append(fn(*share))
                    shares.append(products())
                return results

        monkeypatch.setattr(polyring.Poly, "__mul__", poly_counted)
        monkeypatch.setattr(totalpos, "_encode", encode_counted)
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Pool)
        )
        monkeypatch.setattr(totalpos, "_usable_cpus", lambda: 2)
        want = SCAN_PRODUCTS[name]
        assert is_totally_positive(block, 7).ok
        assert products() == want["serial"]
        assert is_totally_positive(block, 7, jobs=2).ok
        assert shares == want["shares"]
        assert poly_products == []

    def test_workers_with_empty_memos_match_serial(self, block, monkeypatch):
        serial = is_totally_positive(block, 6).to_dict()
        assert serial["result"] == "pass"
        monkeypatch.setattr(totalpos, "_usable_cpus", lambda: 2)
        assert is_totally_positive(block, 6, jobs=2).to_dict() == serial


def poly_report(m, order):
    """``is_totally_positive`` with the block kept in Poly form."""
    with mock.patch.object(totalpos, "_encode", lambda m, order: None):
        return is_totally_positive(m, order)


def first_negative_of(p):
    """(monomial text, coefficient) of the highest negative term, or None."""
    negative = [exps for exps, c in p.sorted_terms() if c < 0]
    if not negative:
        return None
    exps = negative[0]
    return polyring._monomial_text(p.ctx.names, exps) or "1", p.terms[p.ctx.pack(exps)]


QCTX = VarContext(["n", "k", "q", "eps"])


@st.composite
def one_variable_blocks(draw):
    """A square block of integer polynomials in q of degree <= 3, mixed signs,
    coefficients up to 2^bits (that bound itself often), and an order."""
    size = draw(st.integers(1, 4))
    bits = draw(st.sampled_from((1, 3, 40, 70)))
    coeff = st.one_of(st.integers(-(2**bits), 2**bits), st.sampled_from((2**bits, -(2**bits))))

    def entry():
        return QCTX.from_terms(
            (draw(coeff), {"q": draw(st.integers(0, 3))})
            for _ in range(draw(st.integers(0, 3)))
        )

    block = PolyMatrix(QCTX, [[entry() for _ in range(size)] for _ in range(size)])
    return block, draw(st.integers(1, size))


class TestEncodedScan:
    """A one-variable integer block is scanned as integers at q = 2^W; the
    Poly scan and sympy are the references."""

    @pytest.mark.parametrize("name", SMALL_RING)
    def test_small_ring_blocks_report_as_on_poly_entries(self, name):
        block = small_ring_block(name)
        assert isinstance(totalpos._encode(block, 7), totalpos._IntBlock)
        assert is_totally_positive(block, 7).to_dict() == poly_report(block, 7).to_dict()

    def test_interior_peak_witness_as_on_poly_entries(self):
        fam = families.CATALOG["interior-peak"]()
        block = hankel(build_triangle(fam.spec, 10).row_gfs(fam.gf_var), 6)
        assert isinstance(totalpos._encode(block, 6), totalpos._IntBlock)
        report = is_totally_positive(block, 6)
        assert report.to_dict() == poly_report(block, 6).to_dict()
        assert report.minors_checked == 42
        assert report.witness.to_dict()["minor"] == "-4*q^2 + 16*q"

    def test_shipped_one_variable_blocks_report_as_on_poly_entries(self, monkeypatch, capsys):
        calls = []
        scan = cli.is_totally_positive

        def spy(m, order, **kwargs):
            calls.append((m, order))
            return scan(m, order, **kwargs)

        monkeypatch.setattr(cli, "is_totally_positive", spy)
        monkeypatch.chdir(PLANS.parent)
        plans = [f"plans/{p.name}" for p in sorted(PLANS.glob("*.yaml"))]
        assert cli.main(["verify", *plans, "--format", "json"]) == 1
        capsys.readouterr()
        encoded = [(m, order) for m, order in calls
                   if totalpos._encode(m, min(order, m.nrows, m.ncols)) is not None]
        assert len(encoded) >= 5
        for m, order in encoded:
            assert is_totally_positive(m, order).to_dict() == poly_report(m, order).to_dict()

    @settings(max_examples=60, deadline=None)
    @given(one_variable_blocks())
    def test_random_blocks_match_poly_entries_and_sympy(self, case):
        block, order = case
        assert isinstance(totalpos._encode(block, order), totalpos._IntBlock)
        report = is_totally_positive(block, order)
        assert report.to_dict() == poly_report(block, order).to_dict()
        w = report.witness
        if w is None:
            return
        sym = sympy_matrix(block)
        assert w.minor == sympy_minor(QCTX, sym, w.rows, w.cols)
        assert (w.monomial, w.coeff) == first_negative_of(w.minor)
        size = block.nrows
        earlier = scan_order(size, order)[: report.minors_checked - 1]
        assert all(sympy_minor(QCTX, sym, r, c).is_nonneg() for r, c in earlier)

    def test_coefficients_at_the_width_bound(self, ctx):
        # a diagonal block: the full minor's one coefficient is the product
        # of the row sums itself, so its digit needs the whole width
        q = ctx.var("q")
        c = [2**61 - 1, 3**40, 2**70 + 5]
        for sign in (1, -1):
            diag = [c[0] * q, ctx.const(c[1]), sign * c[2] * q**3]
            z = ctx.zero
            block = PolyMatrix(ctx, [[diag[i] if i == j else z for j in range(3)]
                                     for i in range(3)])
            encoded = totalpos._encode(block, 3)
            assert encoded.width == math.prod(c).bit_length() + 1
            report = is_totally_positive(block, 3)
            assert report.to_dict() == poly_report(block, 3).to_dict()
            assert report.ok == (sign == 1)
            if sign == -1:
                w = report.witness
                assert (w.order, w.monomial, w.coeff) == (1, "q^3", -c[2])
                full = minor(block, range(3), range(3))
                assert encoded.decode(
                    totalpos._det_cofactor(encoded, (0, 1, 2), (0, 1, 2), {})
                ) == full == ctx.const(-math.prod(c)) * q**4

    def test_a_negative_digit_above_the_entry_degrees(self, ctx):
        # q^2 (q^2 + 1) - q * q^2: the minor's one negative coefficient sits
        # at q^3, past every entry's degree and below its positive top term
        q = ctx.var("q")
        block = PolyMatrix(ctx, [[q**2, q], [q**2, q**2 + 1]])
        report = is_totally_positive(block, 2)
        assert report.to_dict() == poly_report(block, 2).to_dict()
        w = report.witness
        assert (w.order, w.monomial, w.coeff) == (2, "q^3", -1)
        assert w.minor == q**4 - q**3 + q**2

    def test_jobs_match_serial_on_an_encoded_block(self, monkeypatch):
        fam = families.CATALOG["interior-peak"]()
        block = hankel(build_triangle(fam.spec, 10).row_gfs(fam.gf_var), 6)
        serial = is_totally_positive(block, 6).to_dict()
        monkeypatch.setattr(totalpos, "_usable_cpus", lambda: 2)
        assert is_totally_positive(block, 6, jobs=2).to_dict() == serial
        passing = small_ring_block("stirling-partition")
        assert (is_totally_positive(passing, 5, jobs=2).to_dict()
                == is_totally_positive(passing, 5).to_dict())

    def test_minors_past_the_degree_field_still_raise(self, ctx):
        # dense entries of degree 33,000, so order-2 minors could reach
        # degree 66,000: the scan keeps Poly entries and its first product
        # raises
        seq = [ctx.from_terms((1, {"q": e}) for e in range(33_000 + i + 1)) for i in range(3)]
        block = hankel(seq, 2)
        assert totalpos._encode(block, 2) is None
        with pytest.raises(ValueError, match="an exponent exceeds 65535"):
            is_totally_positive(block, 2)

    def test_rational_two_variable_and_sparse_blocks_keep_poly_entries(self, ctx, monkeypatch):
        q, eps = ctx.var("q"), ctx.var("eps")
        blocks = {
            "rational": hankel([ctx.const(Fraction(1, 2)) + q, q + 1, 2 * q + 1], 2),
            "two variables": hankel([q + eps, q * eps + 1, q + 2 * eps], 2),
            "sparse": hankel([q**40 + 1, q**41 + q, q**42 + 3], 2),
        }
        mul = polyring.Poly.__mul__
        products = []

        def counted(a, b):
            products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(polyring.Poly, "__mul__", counted)
        for name, block in blocks.items():
            assert totalpos._encode(block, 2) is None, name
            products.clear()
            report = is_totally_positive(block, 2)
            assert products, name
            full = minor(block, (0, 1), (0, 1))
            assert report.ok == (full.is_nonneg() and all(
                e.is_nonneg() for row in block.entries for e in row)), name


def full_report(m, order, jobs=1):
    """``is_totally_positive`` with every block scanned in full, as if it
    were not symmetric."""
    with mock.patch.object(totalpos, "_symmetric", lambda m: False):
        return is_totally_positive(m, order, jobs=jobs)


def inline_pool(monkeypatch, cpus=2):
    """Run ``jobs`` > 1 scans on ``cpus`` shares in this process, one share
    after another, recording each share's row subsets."""
    dealt = []

    class Pool:
        def __init__(self, workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            dealt.append([share[1] for share in args])
            return [fn(*share) for share in args]

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Pool))
    monkeypatch.setattr(totalpos, "_usable_cpus", lambda: cpus)
    return dealt


def random_symmetric_block(rng):
    """A symmetric block of integer polynomials in q, and an order: a Hankel
    block of nonnegative moments sum_i w_i(q) x_i^n with its corner lowered
    by a power of q (a full-order check, which fails at order (nodes + 1)
    when there are fewer nodes than rows), or a Hankel or symmetric block of
    entries with coefficients in [-9, 9], mostly nonnegative."""
    size = rng.randint(1, 5)

    def entry(signs=(-1,) + (1,) * 30):
        return QCTX.from_terms((rng.choice(signs) * rng.randint(0, 9), {"q": e})
                               for e in range(rng.randint(0, 3)))

    kind = rng.randrange(3)
    if kind == 0:
        nodes = rng.sample(range(1, 6), rng.randint(1, size))
        weights = [entry((1,)) + 1 for _ in nodes]
        seq = [sum((w * x**n for w, x in zip(weights, nodes)), QCTX.zero)
               for n in range(2 * size - 1)]
        seq[-1] = seq[-1] - QCTX.var("q", rng.randint(0, 3))
        return hankel(seq, size), size
    if kind == 1:
        block = hankel([entry() for _ in range(2 * size - 1)], size)
    else:
        rows = [[entry() for _ in range(size)] for _ in range(size)]
        block = PolyMatrix(QCTX, [[rows[min(i, j)][max(i, j)] for j in range(size)]
                                  for i in range(size)])
    return block, rng.randint(1, size)


class TestSymmetricScan:
    """A symmetric encoded block forms only its minors with rows <= cols;
    the full scan of the same encoded block is the reference."""

    def test_random_blocks_report_as_the_full_scan(self, monkeypatch):
        rng = random.Random(31)
        reads = []
        det_cofactor = totalpos._det_cofactor

        def spy(m, rows, cols, memo):
            reads.append(rows <= cols)
            return det_cofactor(m, rows, cols, memo)

        cases = [random_symmetric_block(rng) for _ in range(400)]
        want = [full_report(block, order).to_dict() for block, order in cases]
        orders = collections.Counter(w["witness"]["order"] for w in want if w["witness"])
        assert sum(orders.values()) >= 200 and orders[3] + orders[4] + orders[5] >= 10
        monkeypatch.setattr(totalpos, "_det_cofactor", spy)
        for (block, order), full in zip(cases, want):
            assert totalpos._symmetric(totalpos._encode(block, order))
            assert is_totally_positive(block, order).to_dict() == full
        dealt = inline_pool(monkeypatch)
        for (block, order), full in zip(cases, want):
            assert is_totally_positive(block, order, jobs=2).to_dict() == full
        # every cofactor read, serial or in a share, is a minor with rows <= cols,
        # so the memo needs no mirrored key
        assert reads and all(reads)
        assert len(dealt) == sum(block.nrows > 1 or order > 1 for block, order in cases)

    def test_shipped_encoded_blocks_report_as_the_full_scan(self):
        fam = families.CATALOG["interior-peak"]()
        blocks = [(small_ring_block(name), 7) for name in SMALL_RING]
        blocks.append((hankel(build_triangle(fam.spec, 10).row_gfs(fam.gf_var), 6), 6))
        for block, order in blocks:
            assert totalpos._symmetric(totalpos._encode(block, order))
            full = full_report(block, order).to_dict()
            assert is_totally_positive(block, order).to_dict() == full
        # a failing block under two real workers: witness and count as serial
        block, order = blocks[-1]
        with mock.patch.object(totalpos, "_usable_cpus", lambda: 2):
            parallel = is_totally_positive(block, order, jobs=2).to_dict()
        assert parallel == full and parallel["minors_checked"] == 42
        assert parallel["witness"]["rows"] == [0, 1] and parallel["witness"]["cols"] == [1, 2]

    def test_shares_form_about_as_many_minors(self, monkeypatch):
        # the later row subsets of an order form fewer minors; the shares are
        # dealt by the count each forms, in scan order, deterministically
        dealt = inline_pool(monkeypatch)
        block = small_ring_block("eulerian")
        for _ in range(2):
            assert is_totally_positive(block, 7, jobs=2).ok
        assert dealt[0] == dealt[1]
        formed = [sum(len(list(combinations(range(7), len(rows)))) - totalpos._rank(rows, 7)
                      for rows in share) for share in dealt[0]]
        assert sum(formed) == 1779 and abs(formed[0] - formed[1]) <= 35
        for share in dealt[0]:
            assert share == sorted(share, key=lambda rows: (len(rows), rows))

    def test_poly_and_nonsymmetric_blocks_take_the_full_scan(self, ctx):
        q, eps = ctx.var("q"), ctx.var("eps")
        symbolic = hankel([q + eps, q * eps + 1, q + 2 * eps], 2)
        lopsided = PolyMatrix(ctx, [[q, q + 1], [q + 2, q * q + 3]])
        assert totalpos._encode(symbolic, 2) is None
        assert not totalpos._symmetric(totalpos._encode(lopsided, 2))
        assert not totalpos._symmetric(PolyMatrix(ctx, [[q, q], [q, q], [q, q]]))
        with mock.patch.object(totalpos, "_scan_parallel",
                               wraps=totalpos._scan_parallel) as scan:
            for block in (symbolic, lopsided):
                is_totally_positive(block, 2)
                assert scan.call_args.args[3] is False

    def test_integral_fractions_keep_a_block_encoded(self, ctx):
        # q + 1/2 + 1/2 holds the coefficient Fraction(1, 1)
        q, h = ctx.var("q"), ctx.parse("1/2")
        a = q + h + h
        assert Fraction(1, 1) in a.terms.values()
        small = PolyMatrix(ctx, [[a, a + q], [a + q, a * a]])
        larger = hankel([a**i + (i % 3) * q * a for i in range(9)], 5)
        for block, order in ((small, 2), (larger, 5)):
            assert isinstance(totalpos._encode(block, order), totalpos._IntBlock)
            report = is_totally_positive(block, order).to_dict()
            assert report == poly_report(block, order).to_dict()
            assert report["result"] == "fail"


FRACTION_FAMILIES = sorted(name for name, make in families.CATALOG.items()
                           if make().jfraction is not None)


class TestHeilermannMinors:
    """The leading k x k minor of the Hankel block of a J-fraction's moments
    a_n is a_0^k prod_{i=1}^{k-1} (r_1 ... r_i) (Heilermann's formula): an
    oracle that needs neither the walk nor a determinant kernel.  It checks
    the leading minors of ``minor`` and those the scan itself forms."""

    @pytest.mark.parametrize("name", FRACTION_FAMILIES + ["four-term[nk]"])
    def test_leading_minors_of_catalog_fractions(self, name, monkeypatch):
        fam = (families.four_term_family("nk") if name == "four-term[nk]"
               else families.CATALOG[name]())
        jf = fam.jfraction if fam.jfraction is not None else contfrac.contract(fam.sfraction)
        series = contfrac.j_expand(jf, 8)
        block = hankel(series, 5)
        want, weights, running = [], jf.ctx.one, jf.ctx.one
        for k in range(1, 6):
            want.append(series[0] ** k * running)
            weights = weights * jf.r(k)
            running = running * weights
        fiber_products = []
        fiber_product = polyring._fiber_product

        def spy(p, q):
            out = fiber_product(p, q)
            fiber_products.append(out is not None)
            return out

        monkeypatch.setattr(polyring, "_fiber_product", spy)
        assert [minor(block, range(k), range(k)) for k in range(1, 6)] == want
        encoded = totalpos._encode(block, 5)
        if encoded is not None:
            leading = [tuple(range(k)) for k in range(1, 6)]
            assert [encoded.decode(totalpos._det_cofactor(encoded, rows, rows, {}))
                    for rows in leading] == want
        # the one-variable fractions take the encoded scan, and the symbolic
        # ones multiply fibers on the way
        assert (encoded is not None) == (name in ("interior-peak", "left-peak",
                                                  "stirling-permutation"))
        if name in ("affine-n", "fixed-argument", "four-term[nk]", "minimax-tree"):
            assert any(fiber_products)
        # the leading minors the scan forms over the leading row subsets,
        # encoded and in Poly form; the blocks that are not TP (minimax-tree
        # and the peak fractions) fail at an order-2 minor past the leading one
        checked = record_checked(monkeypatch)
        leading = [tuple(range(k)) for k in range(1, 6)]
        minors = [(rows, cols) for rows in leading for cols in combinations(range(5), len(rows))]
        for scanned in [block] + ([encoded] if encoded is not None else []):
            checked.clear()
            witness = totalpos._scan(scanned, leading, {})
            formed = [d for (rows, cols), d in zip(minors, checked) if rows == cols]
            assert formed == want[:len(formed)]
            assert len(formed) == (5 if witness is None else 2)
