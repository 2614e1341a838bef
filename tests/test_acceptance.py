"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every expected value below is either a classical value
recomputed by an independent oracle in this suite or a closed form verified
elsewhere in the tests; tolerances are exact (all arithmetic is rational).
"""

import math
import time
from contextlib import contextmanager

import pytest

from tpcert.contfrac import (
    SFraction,
    cf_match,
    check_hankel_factorization,
    extract_jfraction,
    jfraction_split,
    rising_product_series,
    s_expand,
)
from tpcert.families import (
    MIXED_BRANCHES,
    affine_n_family,
    affine_k_family,
    affine_nk_family,
    centered_family,
    centered_reciprocal_family,
    diagonal_family,
    fixed_argument_family,
    four_term_family,
    four_term_mixed_branch,
    interior_peak_family,
    left_peak_family,
    minimax_tree_family,
    mixed_family,
    stirling_permutation_family,
)
from tpcert.oracles import (
    perms_by_interior_peaks,
    perms_by_left_peaks,
    stirling_perms_by_ascent_plateau,
)
from tpcert.polyring import VarContext
from tpcert.totalpos import (
    check_k_log_convex,
    hankel,
    is_totally_positive,
    tridiag,
    tridiagonal_tp_criteria,
)
from tpcert.triangles import (
    COLUMN_WALK,
    ROW_SHIFT,
    RecurrenceSpec,
    build_triangle,
    check_companion_relation,
    check_product_formula,
    companion_spec,
    gamma_binomial,
    reciprocal,
    shift_row_gf,
    triangle_convolution,
)

FACTORIALS = [math.factorial(n) for n in range(9)]
DOUBLE_FACTORIALS = [math.prod(range(1, 2 * n, 2)) if n else 1 for n in range(9)]


@contextmanager
def criterion(num, label):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[accept {num:02d}] {label}: FAIL ({time.monotonic() - t0:.1f}s)")
        raise
    print(f"[accept {num:02d}] {label}: PASS ({time.monotonic() - t0:.1f}s)")


def test_01_factorial_series():
    with criterion(1, "factorial series from its S-fraction"):
        t0 = time.monotonic()
        ctx = VarContext(["n"])
        n = ctx.var("n")
        ser = s_expand(SFraction.from_forms(n + 1, n + 1), 8)
        assert [c.const_value() for c in ser] == FACTORIALS
        assert time.monotonic() - t0 < 1.0


def test_02_double_factorial_series():
    with criterion(2, "double-factorial series from its S-fraction"):
        t0 = time.monotonic()
        ctx = VarContext(["n"])
        n = ctx.var("n")
        ser = s_expand(SFraction.from_forms(1 + 2 * n, 2 * (n + 1)), 8)
        assert [c.const_value() for c in ser] == DOUBLE_FACTORIALS
        assert time.monotonic() - t0 < 1.0


def test_03_affine_n_fully_symbolic():
    with criterion(3, "affine-n family, fully symbolic pipeline"):
        t0 = time.monotonic()
        fam = affine_n_family()
        t = build_triangle(fam.spec, 8)
        assert check_product_formula(t, fam.product_factor, 8)
        assert cf_match(t, fam.jfraction, 8)
        gfs = t.row_gfs()
        assert is_totally_positive(hankel(gfs, 5), 4).ok
        assert check_k_log_convex(gfs, 3).ok
        assert time.monotonic() - t0 < 60.0


def test_04_remaining_two_term_families():
    with criterion(4, "two-term families: fraction match and Hankel blocks"):
        fams = [
            diagonal_family(),
            affine_k_family(),
            affine_nk_family(),
            centered_family(),
            centered_reciprocal_family(),
        ] + [mixed_family(br) for br in MIXED_BRANCHES]
        for fam in fams:
            t = build_triangle(fam.spec, 6)
            assert cf_match(
                t, fam.jfraction, 6, fam.gf_var, fam.cf_prescaled
            ), fam.name
            if fam.sfraction is not None:
                if fam.sf_split_only:
                    leftover = jfraction_split(fam.jfraction, fam.sfraction)
                    assert leftover is not None and leftover.is_nonneg(), fam.name
                else:
                    assert cf_match(
                        t, fam.sfraction, 6, fam.gf_var, fam.cf_prescaled
                    ), fam.name
            rep = is_totally_positive(hankel(t.row_gfs(fam.gf_var), 4), 3)
            assert rep.ok, fam.name


def test_05_four_term_families():
    with criterion(5, "four-term families: companion relation, fraction, Hankel"):
        for variant in ("k", "nk", "k-nk"):
            fam = four_term_family(variant)
            p = fam.companion_params
            t = build_triangle(fam.spec, 7)
            comp = companion_spec(
                fam.ctx, p["a0"], p["a1"], p["a2"], p["b0"], p["b1"], p["b2"], p["d"]
            )
            tc = build_triangle(comp, 7)
            assert check_companion_relation(t, tc, p["lam"], p["d"], 7), variant
            assert cf_match(t, fam.jfraction, 6), variant
            rep = is_totally_positive(hankel(t.row_gfs(), 4), 3)
            assert rep.ok, variant
        for branch in MIXED_BRANCHES:
            fam = four_term_mixed_branch(branch)
            t = build_triangle(fam.spec, 6)
            if fam.sf_split_only:
                leftover = jfraction_split(fam.jfraction, fam.sfraction)
                assert leftover is not None and leftover.is_nonneg(), fam.name
            else:
                assert cf_match(t, fam.sfraction, 6), fam.name


def test_06_fixed_argument_family():
    with criterion(6, "fixed-argument family: product formula and Hankel"):
        fam = fixed_argument_family()
        t = build_triangle(fam.spec, 8)
        mu = fam.product_eval_at
        assert check_product_formula(t, fam.product_factor, 8, eval_at=mu)
        values = [t.row_gf(n).substitute_poly("q", mu) for n in range(9)]
        assert is_totally_positive(hankel(values, 5), 4).ok


def test_07_rising_product_series():
    with criterion(7, "rising-product series: closed-form fraction, extraction"):
        ctx = VarContext(["n", "a", "b", "c"])
        n, a, b, c = (ctx.var(v) for v in ctx.names)
        ser = rising_product_series(a, b, c, 6)
        sf = SFraction.from_forms(a + n * b, (c + b) * (n + 1))
        assert ser == s_expand(sf, 6)
        jf = extract_jfraction(ser, 3)
        want_s = [a, a + 2 * b + c, a + 2 * (2 * b + c)]
        want_r = [a * (c + b), (a + b) * (c + b) * 2, (a + 2 * b) * (c + b) * 3]
        assert list(jf.s_levels) == want_s
        assert list(jf.r_levels) == want_r


def test_08_stirling_permutations():
    with criterion(8, "Stirling permutations: oracle, fraction, Hankel"):
        fam = stirling_permutation_family()
        t = build_triangle(fam.spec, 6)
        for n in range(6):
            got = [int(e.const_value()) for e in t.rows[n]]
            assert got == stirling_perms_by_ascent_plateau(n).padded(n + 1)
        assert cf_match(t, fam.sfraction, 6)
        assert is_totally_positive(hankel(t.row_gfs(), 4), 3).ok


def test_09_peak_statistics():
    with criterion(9, "peak statistics: oracles, negative witness, shifted rescue"):
        ip = interior_peak_family()
        t_ip = build_triangle(ip.spec, 7)
        for n in range(1, 8):
            got = [int(e.const_value()) for e in t_ip.rows[n - 1]]
            assert got == perms_by_interior_peaks(n).padded(n)
        lp = left_peak_family()
        t_lp = build_triangle(lp.spec, 7)
        for n in range(1, 8):
            got = [int(e.const_value()) for e in t_lp.rows[n]]
            assert got == perms_by_left_peaks(n).padded(n + 1)
        # the log-convexity check fails with the stated witness
        rep = check_k_log_convex(t_ip.row_gfs(), 1)
        assert not rep.ok
        assert rep.witness == ip.ctx.parse("16*q - 4*q^2")
        assert rep.witness.terms.get(ip.ctx.pack((0, 0, 2))) == -4
        # index-reversed rows shifted by one pass the Hankel certificate
        for fam, tri in ((ip, t_ip), (lp, t_lp)):
            shifted = shift_row_gf(reciprocal(tri), fam.ctx.one)
            assert is_totally_positive(hankel(shifted.row_gfs(), 4), 3).ok, fam.name


def test_10_minimax_trees():
    with criterion(10, "minimax trees: fraction, negative witness, cleared rescue"):
        fam = minimax_tree_family()
        t = build_triangle(fam.spec, 6)
        assert cf_match(t, fam.jfraction, 6, "x")
        rep = check_k_log_convex(t.row_gfs("x"), 1)
        assert not rep.ok
        # rescue: reverse rows, shift by 2/((p+1)(q+1)), clear denominators
        ctx = fam.ctx
        den = ctx.parse("(p + 1)*(q + 1)")
        shifted = shift_row_gf(reciprocal(t), ctx.const(2), var="x", den=den)
        assert is_totally_positive(hankel(shifted.row_gfs("x"), 4), 3).ok


def test_11_hankel_factorization_symbolic():
    with criterion(11, "Hankel factorization of a free 15-variable walk"):
        t0 = time.monotonic()
        names = (
            [f"r{i}" for i in range(5)]
            + [f"s{i}" for i in range(5)]
            + [f"t{i}" for i in range(1, 6)]
        )
        ctx = VarContext(["n", "k"] + names)
        # building to row 8 reads levels up to 7; the first column through
        # row 8 reads levels up to 4 only, so the padding is never read
        pad = (ctx.zero,) * 3
        r = tuple(ctx.var(f"r{i}") for i in range(5)) + pad
        s = tuple(ctx.var(f"s{i}") for i in range(5)) + pad
        t = (ctx.zero,) + tuple(ctx.var(f"t{i}") for i in range(1, 6)) + pad[:2]
        spec = RecurrenceSpec(ctx, COLUMN_WALK, (r, s, t))
        assert check_hankel_factorization(build_triangle(spec, 8), 5)
        assert time.monotonic() - t0 < 60.0


def test_12_tridiagonal_criteria():
    with criterion(12, "tridiagonal dominance criteria: certify and refute"):
        # one symbolic satisfying instance per criterion, each TP at size 5
        def symbols(prefix, count, start=0):
            return [f"{prefix}{i}" for i in range(start, count)]

        names = symbols("r", 6) + symbols("t", 7) + symbols("b", 6)
        ctz = VarContext(names)
        r = [ctz.var(f"r{i}") for i in range(6)]
        t = [ctz.var(f"t{i}") for i in range(7)]
        beta = [ctz.var(f"b{i}") for i in range(6)]
        one = ctz.one

        instances = {
            "i": [beta[0] + r[0]] + [beta[i] + r[i] + t[i] for i in range(1, 6)],
            "ii": [beta[0] + t[1]] + [beta[i] + r[i - 1] + t[i + 1] for i in range(1, 6)],
            "iii": [beta[0] + one] + [beta[i] + r[i - 1] * t[i] + one for i in range(1, 6)],
            "iv": [beta[0] + r[0] * t[1]] + [beta[i] + r[i] * t[i + 1] + one for i in range(1, 6)],
        }
        for crit, s in instances.items():
            held = tridiagonal_tp_criteria(s, r, t, 4)
            assert crit in held, crit
            assert is_totally_positive(tridiag(s, r, t, 5), 3).ok, crit
        # a numeric instance violating all four criteria fails the TP check
        ctn = VarContext(["x"])
        s_bad = [ctn.one] * 6
        r_bad = [ctn.const(3)] * 6
        t_bad = [ctn.zero] + [ctn.const(3)] * 6
        assert tridiagonal_tp_criteria(s_bad, r_bad, t_bad, 4) == set()
        rep = is_totally_positive(tridiag(s_bad, r_bad, t_bad, 5), 3)
        assert not rep.ok


def test_13_convolution_preserves_moment_certificate():
    with criterion(13, "binomial convolution of n! with (2n-1)!!"):
        ctx = VarContext(["n", "k", "q"])
        pascal = build_triangle(RecurrenceSpec(ctx, ROW_SHIFT, (ctx.one, ctx.one)), 8)
        xs = [ctx.const(v) for v in FACTORIALS]
        ys = [ctx.const(v) for v in DOUBLE_FACTORIALS]
        z = triangle_convolution(pascal, xs, ys, 8)
        assert is_totally_positive(hankel(z, 5), 4).ok


def test_14_gamma_binomial_transform():
    with criterion(14, "weighted binomial transform of the Bell walk"):
        ctx = VarContext(["n", "k", "q", "gamma"])
        k = ctx.var("k")
        walk = RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, k + 1, k))
        t = build_triangle(walk, 6)
        g = ctx.var("gamma")
        tg = gamma_binomial(t, g)
        shifted = RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, g + k + 1, k))
        assert tg.satisfies(shifted)
        assert is_totally_positive(hankel(tg.first_column(), 4), 3).ok
