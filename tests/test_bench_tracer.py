"""The benchmark's tracer wraps package functions and methods by name, so a
rename or a removal must fail here rather than in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from tpcert import cli, polyring, totalpos, triangles

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
POLY_METHODS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "exact_div")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("module, attr, span", tracing.FUNCTION_SPANS)
def test_spanned_functions_resolve(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


def test_wrapped_methods_resolve():
    assert callable(vars(triangles.Triangle)["row_gfs"])
    for attr in POLY_METHODS:
        assert callable(vars(polyring.Poly)[attr]), attr


def _bindings():
    """Every name the tracer may rebind, with the object it is bound to."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if module is not None and modname.startswith("tpcert"):
            out.update({(modname, attr): value for attr, value in vars(module).items()})
    out.update({("Poly", attr): vars(polyring.Poly)[attr] for attr in POLY_METHODS})
    out[("Triangle", "row_gfs")] = vars(triangles.Triangle)["row_gfs"]
    out.update({("ORACLES", key): fn for key, fn in cli.ORACLES.items()})
    return out


def test_install_then_uninstall_restores_the_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = _bindings()
        for module, attr, _ in tracing.FUNCTION_SPANS:
            assert wrapped[(module, attr)] is not before[(module, attr)], attr
        for attr in POLY_METHODS:
            assert wrapped[("Poly", attr)] is not before[("Poly", attr)], attr
        assert wrapped[("Triangle", "row_gfs")] is not before[("Triangle", "row_gfs")]
        assert all(wrapped[("ORACLES", key)] is not before[("ORACLES", key)]
                   for key in cli.ORACLES)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_traced_scan_keeps_the_pinned_counters():
    # the symbolic-certificate item whose products the benchmark pins, traced
    # as a traced pass traces it, so a change that moves them fails here too
    item = "four-term[nk]/hankel-tp"
    assert item in workloads.EXPECTED_COUNTERS
    fam = workloads.seeded_family("four-term[nk]", 0)
    tri = triangles.build_triangle(fam.spec, 8)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.item(item):
            block = totalpos.hankel(tri.row_gfs(fam.gf_var), 5)
            report = totalpos.is_totally_positive(block, 4)
    finally:
        tracer.uninstall()
    assert report.ok and report.minors_checked == workloads.EXPECTED_MINORS[(5, 4)]
    items = [{"item": item, "ok": True, "detail": {}}]
    workloads.check_counters(items, tracer.spans)
    assert items[0]["ok"], items[0]["detail"]
