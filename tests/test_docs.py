"""The README names only what the program has."""

import contextlib
import importlib
import io
import json
import pkgutil
import re
from pathlib import Path

import pytest

import tpcert
from tpcert import cli, families

ROOT = Path(__file__).resolve().parent.parent
MODULES = {info.name: importlib.import_module(f"tpcert.{info.name}")
           for info in pkgutil.iter_modules(tpcert.__path__)}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {metric["name"] for kind in ("end_to_end", "per_layer") for metric in BENCHMARK[kind]}
NAME = re.compile(r"_?[A-Za-z]\w*(?:\.\w+)*")
KEBAB = re.compile(r"(?:--)?[a-z][a-z0-9]*(?:-[a-z0-9]+)+(?:\[[a-z-]+\])?")


def readme_spans():
    """Every code span of the README, fenced blocks left out."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    return re.findall(r"`([^`]*)`", text)


def readme_names():
    """Every code span of the README that is a dotted name."""
    return [span for span in readme_spans() if NAME.fullmatch(span)]


def verify_flags():
    help_text = io.StringIO()
    with contextlib.redirect_stdout(help_text), pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    return set(re.findall(r"--[a-z][a-z-]*", help_text.getvalue()))


def plan_facing_names():
    """The check kinds and their fields, the triangle kinds and their
    fields, the plan keys, the ``tpcert verify`` flags, the catalog
    families and the benchmark's workloads."""
    names = {*cli._CHECKS, *cli._TRIANGLES, *cli._PLAN_KEYS, *families.CATALOG}
    for fields in [*cli._TRIANGLES.values(), *(entry["fields"] for entry in cli._CHECKS.values())]:
        names.update(fields)
    return names | verify_flags() | {workload["name"] for workload in BENCHMARK["workloads"]}


def is_four_term_variant(name):
    variant = re.fullmatch(r"four-term\[(.*)\]", name)
    if variant is None:
        return False
    try:
        families.four_term_family(variant[1])
    except ValueError:
        return False
    return True


def resolves(obj, path):
    for part in path:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_module_names_resolve():
    # `module.name` on a tpcert module, unless it is a benchmark metric
    missing = []
    for span in readme_names():
        module, *path = span.removeprefix("tpcert.").split(".")
        if module in MODULES and path and span not in METRICS:
            if not resolves(MODULES[module], path):
                missing.append(span)
    assert missing == []


def test_private_names_exist():
    missing = [span for span in readme_names() if span.startswith("_")
               and not any(resolves(module, span.split(".")) for module in MODULES.values())]
    assert missing == []


def test_the_lint_sees_the_names():
    names = set(readme_names())
    assert {"contfrac._series", "polyring._put_digits", "_add_level_products",
            "polyring.mul_calls"} <= names


def test_plan_facing_names_resolve():
    # a backticked kebab-case name is one a plan, the command line or the
    # benchmark knows
    known = plan_facing_names()
    unknown = {span for span in readme_spans() if KEBAB.fullmatch(span)
               and span not in known and not is_four_term_variant(span)}
    assert unknown == set()


def test_the_kebab_lint_sees_the_names():
    names = {span for span in readme_spans() if KEBAB.fullmatch(span)}
    assert {"hankel-tp", "gf-var", "--tp-order", "four-term[nk]", "plan-batch"} <= names
    assert is_four_term_variant("four-term[k-nk]") and not is_four_term_variant("four-term[x]")
    assert "contiguous-only" not in plan_facing_names()
