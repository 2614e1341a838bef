"""The benchmark's workloads: inputs made from a seed, the items of one
pass, and the checks on their outputs.

Nothing here imports ``tpcert`` at module level, so that a pass can time
the package import as part of its set-up.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("plan-batch", "symbolic-certificate", "deep-truncation")

# Library workloads: (family, triangle depth, checks).  A check is
# ("cf-match", depth), ("hankel-tp", size, order) or ("k-lcx", k).
SMALL_RING = ("eulerian", "bell-walk", "stirling-partition", "stirling-permutation")
LIBRARY = {
    "symbolic-certificate": (
        ("affine-n", 8, (("cf-match", 8), ("hankel-tp", 5, 4), ("k-lcx", 3))),
        ("four-term[nk]", 8, (("cf-match", 6), ("hankel-tp", 5, 4))),
    ),
    "deep-truncation": tuple(
        (name, 12, (("hankel-tp", 7, 7),)) for name in SMALL_RING
    ) + (
        ("minimax-tree", 40, (("cf-match", 40),)),
        ("centered", 40, (("cf-match", 40),)),
    ),
}

# Minors an order-r check of a size-N block visits: sum of C(N, i)^2, i <= r.
EXPECTED_MINORS = {(5, 4): 250, (7, 7): 3431}

# Poly counters of one item, which the traced pass must reproduce exactly.
EXPECTED_COUNTERS = {
    "four-term[nk]/hankel-tp": {
        "multi_term_muls": 584,
        "term_products": 51_088_039,
        "max_operand_small_terms": 661,
        "max_operand_large_terms": 1564,
    },
}

# The plan batch's only failing check, and its witness.
EXPECTED_FAILURE = ("peak-interior-negative", "k-lcx", "-4*q^2 + 16*q")

# Check kinds the plans use; each gets a cli.check.<kind>_s metric.
CHECK_KINDS = (
    "cf-match", "companion-relation", "convolution-sm", "hankel-factorization",
    "hankel-tp", "k-lcx", "oracle-match", "product-formula", "row-gf",
    "triangle-build", "tridiagonal-criteria",
)

CROSS_CHECK_POINTS = 3


def family_maker(name: str):
    from tpcert import families

    if name == "four-term[nk]":
        return lambda: families.four_term_family("nk")
    return families.CATALOG[name]


def scale_factors(family, seed: int) -> dict:
    """Seeded positive integer factor for each free parameter.

    Seed 0 gives the canonical family.  The recurrence indices and the
    generating-function variable are never scaled.  Scaling a parameter by
    a positive constant multiplies every coefficient by a positive number
    and keeps each polynomial's terms, so verdicts and minor counts do not
    depend on the seed.
    """
    if seed == 0:
        return {}
    rng = random.Random(f"{seed}:{family.name}")
    return {
        name: rng.choice((2, 3))
        for name in family.ctx.names
        if name not in ("n", "k", family.gf_var)
    }


def seeded_family(name: str, seed: int):
    fam = family_maker(name)()
    for var, factor in scale_factors(fam, seed).items():
        fam = fam.substituted(var, fam.ctx.var(var) * factor)
    fam.name = name
    return fam


def plan_paths(seed: int) -> list[str]:
    """The plan files in shell glob order, permuted by any seed but 0."""
    paths = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "plans").glob("*.yaml"))
    if seed:
        random.Random(seed).shuffle(paths)
    return paths


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int) -> dict:
    """Import ``tpcert`` and build the workload's inputs."""
    import time

    if workload == "plan-batch":
        from tpcert import cli

        paths = plan_paths(seed)
        for path in paths:
            cli.load_plan(path)
        return {"paths": paths}
    from tpcert import families  # noqa: F401  (the import is part of set-up)

    t0 = time.perf_counter()
    fams = {name: seeded_family(name, seed) for name, _, _ in LIBRARY[workload]}
    return {"families": fams, "construct_s": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


class _NoTrace:
    """Stand-in for the tracer in untraced passes."""

    def item(self, name):
        return nullcontext()


def run_pass(workload: str, inputs: dict, tracer=None) -> dict:
    """Run every item once; returns what the checks need."""
    tracer = tracer or _NoTrace()
    if workload == "plan-batch":
        return _run_plan_batch(inputs["paths"], tracer)
    return _run_library(workload, inputs["families"], tracer)


def _run_plan_batch(paths: list[str], tracer) -> dict:
    from tpcert import cli

    buf = io.StringIO()
    with tracer.item("plan-batch"), redirect_stdout(buf):
        status = cli.main(["verify", *paths, "--format", "json"])
    return {"status": status, "stdout": buf.getvalue()}


def _run_library(workload: str, fams: dict, tracer) -> dict:
    from tpcert import contfrac, totalpos, triangles

    results = []
    blocks = []
    for name, depth, checks in LIBRARY[workload]:
        fam = fams[name]
        tri = gfs = None
        for check in checks:
            item = f"{name}/{check[0]}"
            try:
                with tracer.item(item):
                    if tri is None:
                        tri = triangles.build_triangle(fam.spec, depth)
                    if check[0] == "cf-match":
                        frac = fam.jfraction if fam.jfraction is not None else fam.sfraction
                        got = contfrac.cf_match(
                            tri, frac, check[1], fam.gf_var,
                            fam.cf_prescaled, fam.product_eval_at,
                        )
                        results.append((item, got is True, {"match": got}))
                        continue
                    if gfs is None:
                        gfs = tri.row_gfs(fam.gf_var)
                    if check[0] == "hankel-tp":
                        size, order = check[1], check[2]
                        block = totalpos.hankel(gfs, size)
                        rep = totalpos.is_totally_positive(block, order)
                        want = EXPECTED_MINORS[(size, order)]
                        ok = rep.ok and rep.minors_checked == want
                        blocks.append((item, block))
                        results.append((item, ok, {"ok": rep.ok, "minors_checked": rep.minors_checked}))
                    else:
                        rep = totalpos.check_k_log_convex(gfs, check[1])
                        results.append((item, rep.ok, {"ok": rep.ok}))
            except Exception as exc:  # the item failed; the pass goes on
                results.append((item, False, {"error": f"{type(exc).__name__}: {exc}"}))
    return {"results": results, "blocks": blocks}


# ---------------------------------------------------------------------------
# output checks (outside the timed region)
# ---------------------------------------------------------------------------


def check_outputs(workload: str, outcome: dict, seed: int) -> list[dict]:
    """One record per item: name, whether its output is the expected one,
    and what was seen."""
    if workload == "plan-batch":
        return _check_plan_batch(outcome)
    items = [
        {"item": item, "ok": ok, "detail": detail}
        for item, ok, detail in outcome["results"]
    ]
    by_name = {it["item"]: it for it in items}
    for item, block in outcome["blocks"]:
        mismatch = cross_check_block(block, seed, item)
        if mismatch is not None:
            by_name[item]["ok"] = False
            by_name[item]["detail"]["cross_check"] = mismatch
    return items


def check_counters(items: list[dict], spans: list[dict]) -> None:
    """Mark an item failed when its traced counters differ from the
    recorded ones."""
    by_name = {it["item"]: it for it in items}
    for rec in spans:
        want = EXPECTED_COUNTERS.get(rec.get("item"))
        if want is None or rec["item"] not in by_name:
            continue
        got = {key: rec["counters"][key] for key in want}
        if got != want:
            by_name[rec["item"]]["ok"] = False
            by_name[rec["item"]]["detail"]["counters"] = got


def _check_plan_batch(outcome: dict) -> list[dict]:
    expected = json.loads((EXPECTED_DIR / "plan-batch.json").read_text())
    want_checks = {p["plan"]: p for p in expected["plans"]}
    items = []
    try:
        body = json.loads(outcome["stdout"])
    except ValueError as exc:
        return [{"item": "plan-batch", "ok": False, "detail": {"error": str(exc)}}]
    got_plans = {}
    for plan in body.get("plans", []):
        plan.pop("timings", None)
        got_plans[plan["plan"]] = plan
    for name, want in want_checks.items():
        got = got_plans.get(name, {"checks": []})
        for i, want_check in enumerate(want["checks"]):
            got_check = got["checks"][i] if i < len(got["checks"]) else None
            items.append({
                "item": f"{name}/{i}:{want_check['kind']}",
                "ok": got_check == want_check and got.get("status") == want["status"],
                "detail": {"status": None if got_check is None else got_check.get("status")},
            })
    failing = [
        (plan["plan"], c["kind"], c["detail"].get("witness"))
        for plan in body.get("plans", [])
        for c in plan["checks"]
        if c["status"] != "pass"
    ]
    batch_ok = (
        outcome["status"] == 1
        and failing == [EXPECTED_FAILURE]
        and sorted(got_plans) == sorted(want_checks)
        and {k: body.get(k) for k in ("status", "tool", "version")}
        == {k: expected[k] for k in ("status", "tool", "version")}
    )
    items.append({
        "item": "batch",
        "ok": batch_ok,
        "detail": {"exit_status": outcome["status"], "failing": failing},
    })
    return items


def cross_check_block(block, seed: int, item: str):
    """Compare the block's full-size minor at a few positive integer points
    with a ``sympy`` Bareiss determinant; returns the first mismatch."""
    import sympy
    from tpcert import totalpos

    ctx = block.ctx
    rng = random.Random(f"{seed}:{item}:points")
    size = block.nrows
    for _ in range(CROSS_CHECK_POINTS):
        point = {name: rng.randint(1, 4) for name in ctx.names}
        values = [[int(e.eval(point)) for e in row] for row in block.entries]
        ours = totalpos.minor(
            totalpos.PolyMatrix(ctx, [[ctx.const(v) for v in row] for row in values]),
            range(size), range(size),
        ).const_value()
        theirs = sympy.Matrix(values).det(method="bareiss")
        if int(theirs) != ours:
            return {"point": point, "tpcert": str(ours), "sympy": str(theirs)}
    return None


def check_report_timings(stdout: str) -> dict:
    """Seconds per check kind, summed from the report's own timings."""
    totals = dict.fromkeys(CHECK_KINDS, 0.0)
    for plan in json.loads(stdout)["plans"]:
        for key, seconds in plan["timings"].items():
            kind = key.split(":", 1)[1]
            totals[kind] = totals.get(kind, 0.0) + seconds
    return totals
