"""The README names only what the program has."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import tpcert

ROOT = Path(__file__).resolve().parent.parent
MODULES = {info.name: importlib.import_module(f"tpcert.{info.name}")
           for info in pkgutil.iter_modules(tpcert.__path__)}
METRICS = {metric["name"] for kind in ("end_to_end", "per_layer")
           for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
NAME = re.compile(r"_?[A-Za-z]\w*(?:\.\w+)*")


def readme_names():
    """Every code span of the README that is a dotted name, fenced blocks
    left out."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    return [span for span in re.findall(r"`([^`]*)`", text) if NAME.fullmatch(span)]


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
