"""Catalog of built-in triangle families and their continued fractions.

Each entry bundles a recurrence spec with the closed-form S- or J-fraction
of its row-polynomial generating function and (where one exists) a closed
product formula.
The catalog is the single place this data lives for the library and its
test suite; the CLI plans are independent YAML documents that restate the
data they check.

Families whose recurrence coefficients carry a monomial denominator are
stored cleared (see triangles module); their fraction data is then also the
cleared one and ``cf_prescaled`` is set, meaning the fraction's series
coefficient n equals the stored (scaled) row polynomial directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .contfrac import JFraction, SFraction, contract
from .polyring import Poly, VarContext, _map_polys
from .triangles import COLUMN_WALK, ROW_SHIFT, RecurrenceSpec


@dataclass
class Family:
    """A named triangle family with its certification data."""

    name: str
    ctx: VarContext
    spec: RecurrenceSpec
    jfraction: JFraction | None = None
    sfraction: SFraction | None = None
    gf_var: str = "q"
    product_factor: Poly | None = None
    product_eval_at: Poly | None = None
    cf_prescaled: bool = False
    sf_split_only: bool = False
    companion_params: dict | None = None

    def substituted(self, name: str, value: Poly) -> Family:
        """Family with ``name := value`` applied to every stored polynomial."""
        out = _map_polys(self, lambda p: p.substitute_poly(name, value))
        out.name = f"{self.name}[{name}:={value}]"
        return out


def _shifted_contraction(even: Poly, odd: Poly, shift: Poly) -> JFraction:
    """Contraction of the S-fraction with alpha forms (even, odd), with
    ``shift`` added to every s level (a binomial-transform shift)."""
    jf = contract(SFraction.from_forms(even, odd))
    return replace(jf, s_levels=jf.s_levels + shift, s0=jf.s0 + shift)


# ---------------------------------------------------------------------------
# two-term row-shift families
# ---------------------------------------------------------------------------


def affine_n_family() -> Family:
    """Both coefficients affine in the row index:

        T[n][k] = (a0 (n-1) + a2) T[n-1][k] + (b0 (n-1) + b2) T[n-1][k-1].

    Row polynomials have the closed product
    prod_{k=1..n} ((a0+b0 q) k + a2-a0 + (b2-b0) q) and an S-fraction with
    alpha_{2n} = a2 + b2 q + n (a0+b0 q), alpha_{2n+1} = (a0+b0 q)(n+1).
    """
    ctx = VarContext(["n", "k", "q", "a0", "a2", "b0", "b2"])
    n, k, q, a0, a2, b0, b2 = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(ctx, ROW_SHIFT, (a0 * (n - 1) + a2, b0 * (n - 1) + b2))
    sf = SFraction.from_forms(
        even_form=a2 + b2 * q + n * (a0 + b0 * q),
        odd_form=(a0 + b0 * q) * (n + 1),
    )
    return Family(
        name="affine-n",
        ctx=ctx,
        spec=spec,
        sfraction=sf,
        jfraction=contract(sf),
        product_factor=(a0 + b0 * q) * k + a2 - a0 + (b2 - b0) * q,
    )


def diagonal_family() -> Family:
    """Mixed-coefficient family whose unshifted core is a pure diagonal;
    row polynomials collapse to (q+a0)^n prod_{k=0..n-1} (b2 + (b0+b1) k)."""
    ctx = VarContext(["n", "k", "q", "a0", "b0", "b1", "b2"])
    n, k, q, a0, b0, b1, b2 = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(
        ctx,
        ROW_SHIFT,
        (
            a0 * (b0 + b1) * (n - 1) + a0 * b1 * k + a0 * b2,
            b0 * (n - 1) + b1 * (k - 1) + b2,
        ),
    )
    sf = SFraction.from_forms(
        even_form=(b2 + n * (b0 + b1)) * (q + a0),
        odd_form=(b0 + b1) * (q + a0) * (n + 1),
    )
    return Family(
        name="diagonal",
        ctx=ctx,
        spec=spec,
        sfraction=sf,
        jfraction=contract(sf),
        product_factor=(q + a0) * (b2 + (b0 + b1) * (k - 1)),
    )


def affine_k_family() -> Family:
    """Both coefficients affine in the column index (Stirling-like):

        T[n][k] = (a1 k + a2) T[n-1][k] + (b1 (k-1) + b2) T[n-1][k-1];

    the generating function is a J-fraction with a constant a2 added to
    every s level (a binomial-transform shift of the a2 = 0 core).
    """
    ctx = VarContext(["n", "k", "q", "a1", "a2", "b1", "b2"])
    n, k, q, a1, a2, b1, b2 = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(ctx, ROW_SHIFT, (a1 * k + a2, b1 * (k - 1) + b2))
    jf = _shifted_contraction((n * b1 + b2) * q, (n + 1) * (a1 + b1 * q), a2)
    return Family(
        name="affine-k",
        ctx=ctx,
        spec=spec,
        jfraction=jf,
    )


def affine_nk_family() -> Family:
    """Both coefficients affine in n-k (reciprocal partner of affine-k):

        T[n][k] = (a0 (n-k-1) + a2) T[n-1][k] + (b0 (n-k) + b2) T[n-1][k-1].
    """
    ctx = VarContext(["n", "k", "q", "a0", "a2", "b0", "b2"])
    n, k, q, a0, a2, b0, b2 = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(
        ctx, ROW_SHIFT, (a0 * (n - k - 1) + a2, b0 * (n - k) + b2)
    )
    jf = _shifted_contraction(n * a0 + a2, (n + 1) * (a0 + b0 * q), b2 * q)
    return Family(
        name="affine-nk",
        ctx=ctx,
        spec=spec,
        jfraction=jf,
    )


MIXED_BRANCHES = ("b2=0", "a2=0", "b2=b0", "a2=a1")


def mixed_family(branch: str | None = None) -> Family:
    """Column-affine coefficient against an (n-k)-affine one:

        T[n][k] = (a1 k + a2) T[n-1][k] + (b0 (n-k) + b2) T[n-1][k-1].

    The J-fraction holds for free parameters; the S-fraction exists on the
    four vanishing-parameter branches, each with its own alpha forms.
    """
    ctx = VarContext(["n", "k", "q", "a1", "a2", "b0", "b2"])
    n, k, q, a1, a2, b0, b2 = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(ctx, ROW_SHIFT, (a1 * k + a2, b0 * (n - k) + b2))
    jf = JFraction.from_forms(
        s_form=n * (a1 + b0 * q) + a2 + b2 * q,
        r_form=n * ((n - 1) * a1 * b0 + a2 * b0 + a1 * b2) * q,
    )
    fam = Family(
        name="mixed",
        ctx=ctx,
        spec=spec,
        jfraction=jf,
    )
    if branch is None:
        return fam
    return _mixed_branch(fam, branch, {
        "b2=0": (n * a1 + a2, (n + 1) * b0 * q),
        "a2=0": ((n * b0 + b2) * q, (n + 1) * a1),
        "b2=b0": ((n + 1) * b0 * q, (n + 1) * a1 + a2),
        "a2=a1": ((n + 1) * a1, ((n + 1) * b0 + b2) * q),
    })


def _mixed_branch(fam: Family, branch: str, alphas: dict) -> Family:
    """``fam`` on one of the MIXED_BRANCHES: the branch's parameter identity
    substituted, with the (even, odd) alpha forms ``alphas[branch]``.  The
    two identifying branches (b2=b0, a2=a1) only split the J-fraction."""
    if branch not in MIXED_BRANCHES:
        raise ValueError(f"unknown branch {branch!r}; choose from {MIXED_BRANCHES}")
    param, image = branch.split("=")
    value = fam.ctx.zero if image == "0" else fam.ctx.var(image)
    even, odd = alphas[branch]
    out = replace(fam, sfraction=SFraction.from_forms(even, odd),
                  sf_split_only=image != "0")
    out = out.substituted(param, value)
    out.name = f"{fam.name}[{branch}]"
    return out


def centered_family() -> Family:
    """Row coefficient centered on n-2k, with a parameter denominator:

        T[n][k] = b0 (n - 2k + (2 a2 - a1)/a1) T[n-1][k]
                + (a1 (n-k) + a2) T[n-1][k-1].

    Stored cleared by a1 (rows hold a1^n times the true entries); the
    fraction below is the matching cleared one, so its expansion equals the
    stored rows directly.
    """
    ctx = VarContext(["n", "k", "q", "a1", "a2", "b0"])
    n, k, q, a1, a2, b0 = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(
        ctx,
        ROW_SHIFT,
        (b0 * (a1 * (n - 2 * k - 1) + 2 * a2), a1 * (a1 * (n - k) + a2)),
        denominator=a1,
    )
    weight = a1 * q + 2 * b0
    jf = JFraction.from_forms(
        s_form=(a1 * n + a2) * weight,
        r_form=(a1 * (n - 1) + 2 * a2) * n * b0 * a1 * weight / 2,
    )
    return Family(
        name="centered",
        ctx=ctx,
        spec=spec,
        jfraction=jf,
        cf_prescaled=True,
    )


def centered_reciprocal_family() -> Family:
    """Reciprocal partner of the centered family:

        T[n][k] = (a1 k + a2) T[n-1][k]
                + b0 (2k - n + (2 a2 - a1)/a1) T[n-1][k-1],

    stored cleared by a1, with the matching cleared J-fraction.
    """
    ctx = VarContext(["n", "k", "q", "a1", "a2", "b0"])
    n, k, q, a1, a2, b0 = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(
        ctx,
        ROW_SHIFT,
        (a1 * (a1 * k + a2), b0 * (a1 * (2 * k - n - 1) + 2 * a2)),
        denominator=a1,
    )
    weight = a1 + 2 * b0 * q
    jf = JFraction.from_forms(
        s_form=(a1 * n + a2) * weight,
        r_form=(a1 * (n - 1) + 2 * a2) * n * b0 * a1 * weight * q / 2,
    )
    return Family(
        name="centered-reciprocal",
        ctx=ctx,
        spec=spec,
        jfraction=jf,
        cf_prescaled=True,
    )


# ---------------------------------------------------------------------------
# four-term families (general recurrence with a second shift)
# ---------------------------------------------------------------------------


def general_four_term_spec(
    ctx: VarContext,
    a0: Poly,
    a1: Poly,
    a2: Poly,
    b0: Poly,
    b1: Poly,
    b2: Poly,
    d: Poly,
    lam: Poly,
) -> RecurrenceSpec:
    """The master four-term recurrence

        T[n][k] = lam (a0 n + a1 k + a2) T[n-1][k]
                + (b0 n + b1 k + b2) T[n-1][k-1]
                + (d (d a1 - b1)/lam) (n-k+1) T[n-1][k-2],

    stored cleared by lam (coefficients multiplied through by lam).
    """
    n, k = ctx.var("n"), ctx.var("k")
    c0 = lam * lam * (a0 * n + a1 * k + a2)
    c1 = lam * (b0 * n + b1 * k + b2)
    c2 = d * (d * a1 - b1) * (n - k + 1)
    return RecurrenceSpec(ctx, ROW_SHIFT, (c0, c1, c2), denominator=lam)


def four_term_family(variant: str) -> Family:
    """Three concrete four-term families, each an instance of the master
    recurrence; ``companion_params`` holds the master parameters their
    two-term companion triangle is generated from.

    Variants: "k" (column-affine core), "nk" (n-k affine core),
    "k-nk" (mixed core with four S-fraction branches).
    """
    if variant == "k":
        ctx = VarContext(["n", "k", "q", "a1", "a2", "b1", "b2", "d", "lam"])
        n, q, a1, a2, b1, b2, d, lam = (
            ctx.var(v) for v in ("n", "q", "a1", "a2", "b1", "b2", "d", "lam")
        )
        params = dict(
            a0=ctx.zero,
            a1=a1,
            a2=a2,
            b0=-d * a1,
            b1=b1 + 2 * d * a1,
            b2=b2 - b1 - d * (a1 - a2),
            d=d,
            lam=lam,
        )
        jf = _shifted_contraction(
            (n * b1 + b2) * q, (n + 1) * ((a1 * d + b1) * q + lam * a1), a2 * (lam + d * q)
        )
        sf = None
    elif variant == "nk":
        ctx = VarContext(["n", "k", "q", "a0", "a2", "b0", "b2", "d", "lam"])
        n, q, a0, a2, b0, b2, d, lam = (
            ctx.var(v) for v in ("n", "q", "a0", "a2", "b0", "b2", "d", "lam")
        )
        params = dict(
            a0=a0,
            a1=-a0,
            a2=a2 - a0,
            b0=b0 + 2 * d * a0,
            b1=-(b0 + 2 * d * a0),
            b2=b2 + d * a2,
            d=d,
            lam=lam,
        )
        jf = _shifted_contraction(
            (n * a0 + a2) * (lam + d * q), (n + 1) * ((a0 * d + b0) * q + lam * a0), b2 * q
        )
        sf = None
    elif variant == "k-nk":
        ctx = VarContext(["n", "k", "q", "a1", "a2", "b0", "b2", "d", "lam"])
        n, q, a1, a2, b0, b2, d, lam = (
            ctx.var(v) for v in ("n", "q", "a1", "a2", "b0", "b2", "d", "lam")
        )
        params = dict(
            a0=ctx.zero,
            a1=a1,
            a2=a2,
            b0=b0 - d * a1,
            b1=2 * d * a1 - b0,
            b2=b2 - d * (a1 - a2),
            d=d,
            lam=lam,
        )
        jf = JFraction.from_forms(
            s_form=n * (a1 * (lam + d * q) + b0 * q) + a2 * (lam + d * q) + b2 * q,
            r_form=n * ((n - 1) * a1 * b0 + a2 * b0 + a1 * b2) * q * (lam + d * q),
        )
        sf = None
    else:
        raise ValueError(f"unknown four-term variant {variant!r}")
    spec = general_four_term_spec(ctx, **params)
    return Family(
        name=f"four-term[{variant}]",
        ctx=ctx,
        spec=spec,
        jfraction=jf,
        sfraction=sf,
        companion_params=params,
    )


def four_term_mixed_branch(branch: str) -> Family:
    """S-fraction branches of the mixed four-term family.

    The fourth branch's alpha forms follow the same weight placement as the
    other three (the lam+d q factor stays on the a1 side), which is the
    placement consistent with the family's J-fraction.
    """
    fam = four_term_family("k-nk")
    ctx = fam.ctx
    n, q, a1, a2, b0, b2, d, lam = (
        ctx.var(v) for v in ("n", "q", "a1", "a2", "b0", "b2", "d", "lam")
    )
    w = lam + d * q
    return _mixed_branch(fam, branch, {
        "b2=0": ((n * a1 + a2) * w, (n + 1) * b0 * q),
        "a2=0": ((n * b0 + b2) * q, (n + 1) * a1 * w),
        "b2=b0": ((n + 1) * b0 * q, ((n + 1) * a1 + a2) * w),
        "a2=a1": ((n + 1) * a1 * w, ((n + 1) * b0 + b2) * q),
    })


def fixed_argument_family() -> Family:
    """Two-term recurrence whose rows have a product formula at a fixed
    argument mu:

        T[n][k] = (a0 n - mu b1 k + a2) T[n-1][k] + (b0 n + b1 k + b2) T[n-1][k-1],
        T_n(mu) = prod_{k=1..n} ((a0 + mu b0) k + a2 + mu (b1 + b2)).
    """
    ctx = VarContext(["n", "k", "q", "a0", "a2", "b0", "b1", "b2", "mu"])
    n, k, q, a0, a2, b0, b1, b2, mu = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(
        ctx, ROW_SHIFT, (a0 * n - mu * b1 * k + a2, b0 * n + b1 * k + b2)
    )
    sf = SFraction.from_forms(
        even_form=a0 + a2 + mu * (b0 + b1 + b2) + n * (a0 + mu * b0),
        odd_form=(a0 + mu * b0) * (n + 1),
    )
    return Family(
        name="fixed-argument",
        ctx=ctx,
        spec=spec,
        sfraction=sf,
        jfraction=contract(sf),
        product_factor=(a0 + mu * b0) * k + a2 + mu * (b1 + b2),
        product_eval_at=mu,
    )


# ---------------------------------------------------------------------------
# named instances
# ---------------------------------------------------------------------------


def pascal_family() -> Family:
    ctx = VarContext(["n", "k", "q"])
    return Family(
        name="pascal",
        ctx=ctx,
        spec=RecurrenceSpec(ctx, ROW_SHIFT, (ctx.one, ctx.one)),
    )


def eulerian_family() -> Family:
    ctx = VarContext(["n", "k", "q"])
    n, k = ctx.var("n"), ctx.var("k")
    return Family(
        name="eulerian",
        ctx=ctx,
        spec=RecurrenceSpec(ctx, ROW_SHIFT, (k, n - k + 1)),
    )


def stirling_cycle_family() -> Family:
    ctx = VarContext(["n", "k", "q"])
    n = ctx.var("n")
    return Family(
        name="stirling-cycle",
        ctx=ctx,
        spec=RecurrenceSpec(ctx, ROW_SHIFT, (n - 1, ctx.one)),
    )


def stirling_partition_family() -> Family:
    ctx = VarContext(["n", "k", "q"])
    return Family(
        name="stirling-partition",
        ctx=ctx,
        spec=RecurrenceSpec(ctx, ROW_SHIFT, (ctx.var("k"), ctx.one)),
    )


def bell_walk_family() -> Family:
    """Column walk whose first column runs through the Bell numbers."""
    ctx = VarContext(["n", "k", "q"])
    k = ctx.var("k")
    return Family(
        name="bell-walk",
        ctx=ctx,
        spec=RecurrenceSpec(ctx, COLUMN_WALK, (ctx.one, k + 1, k)),
    )


def symmetric_tableau_family() -> Family:
    ctx = VarContext(["n", "k", "q"])
    n, k = ctx.var("n"), ctx.var("k")
    return Family(
        name="symmetric-tableau",
        ctx=ctx,
        spec=RecurrenceSpec(ctx, ROW_SHIFT, (k + 1, n, n - k + 1)),
    )


def staircase_tableau_family() -> Family:
    ctx = VarContext(["n", "k", "q"])
    n, k = ctx.var("n"), ctx.var("k")
    return Family(
        name="staircase-tableau",
        ctx=ctx,
        spec=RecurrenceSpec(ctx, ROW_SHIFT, (k + 1, n + 1, n - k + 1)),
    )


def whitney_family() -> Family:
    """First-kind Whitney triangle  w[n][k] = ((n-1) m + r) w[n-1][k] + w[n-1][k-1]."""
    ctx = VarContext(["n", "k", "q", "m", "r"])
    n, k, q, m, r = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(ctx, ROW_SHIFT, (m * (n - 1) + r, ctx.one))
    sf = SFraction.from_forms(even_form=r + q + m * n, odd_form=m * (n + 1))
    return Family(
        name="whitney",
        ctx=ctx,
        spec=spec,
        sfraction=sf,
        jfraction=contract(sf),
        product_factor=m * (k - 1) + r + q,
    )


def stirling_permutation_family() -> Family:
    """Stirling permutations by ascent plateaus:
    N[n][k] = 2k N[n-1][k] + (2(n-k)+1) N[n-1][k-1]."""
    ctx = VarContext(["n", "k", "q"])
    n, k, q = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(ctx, ROW_SHIFT, (2 * k, 2 * (n - k) + 1))
    sf = SFraction.from_forms(even_form=(2 * n + 1) * q, odd_form=2 * (n + 1))
    return Family(
        name="stirling-permutation",
        ctx=ctx,
        spec=spec,
        sfraction=sf,
        jfraction=contract(sf),
    )


def minimax_tree_family() -> Family:
    """Rooted minimax trees by leaves, bivariate weight (p, q), generating
    variable x; the row index is shifted so row 0 is the singleton tree."""
    ctx = VarContext(["n", "k", "x", "p", "q"])
    n, k, x, p, q = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(
        ctx, ROW_SHIFT, ((1 + p) * (q + 1) * (k + 1), n - 2 * k + 1)
    )
    jf = JFraction.from_forms(
        s_form=(1 + p) * (q + 1) * (n + 1),
        r_form=(1 + p) * (q + 1) * (n + 1) * n * x / 2,
    )
    return Family(
        name="minimax-tree",
        ctx=ctx,
        spec=spec,
        jfraction=jf,
        gf_var="x",
    )


def interior_peak_family() -> Family:
    """Permutations by interior peaks; rows are index-shifted so that row n
    holds the statistics of permutations of n+1 letters:

        U[n][k] = (2k+2) U[n-1][k] + (n+1-2k) U[n-1][k-1].
    """
    ctx = VarContext(["n", "k", "q"])
    n, k, q = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(ctx, ROW_SHIFT, (2 * k + 2, n + 1 - 2 * k))
    jf = JFraction.from_forms(
        s_form=2 * (n + 1),
        r_form=(n + 1) * n * q,
    )
    return Family(
        name="interior-peak",
        ctx=ctx,
        spec=spec,
        jfraction=jf,
    )


def left_peak_family() -> Family:
    """Permutations by left peaks (virtual 0 in front):

        W[n][k] = (2k+1) W[n-1][k] + (n-2k+1) W[n-1][k-1].
    """
    ctx = VarContext(["n", "k", "q"])
    n, k, q = (ctx.var(v) for v in ctx.names)
    spec = RecurrenceSpec(ctx, ROW_SHIFT, (2 * k + 1, n - 2 * k + 1))
    jf = JFraction.from_forms(
        s_form=2 * n + 1,
        r_form=n * n * q,
    )
    return Family(
        name="left-peak",
        ctx=ctx,
        spec=spec,
        jfraction=jf,
    )


CATALOG = {
    "affine-n": affine_n_family,
    "diagonal": diagonal_family,
    "affine-k": affine_k_family,
    "affine-nk": affine_nk_family,
    "mixed": mixed_family,
    "centered": centered_family,
    "centered-reciprocal": centered_reciprocal_family,
    "fixed-argument": fixed_argument_family,
    "pascal": pascal_family,
    "eulerian": eulerian_family,
    "stirling-cycle": stirling_cycle_family,
    "stirling-partition": stirling_partition_family,
    "bell-walk": bell_walk_family,
    "symmetric-tableau": symmetric_tableau_family,
    "staircase-tableau": staircase_tableau_family,
    "whitney": whitney_family,
    "stirling-permutation": stirling_permutation_family,
    "minimax-tree": minimax_tree_family,
    "interior-peak": interior_peak_family,
    "left-peak": left_peak_family,
}
