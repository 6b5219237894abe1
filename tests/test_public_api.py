"""Every exported name resolves, so a deleted function cannot leave a
dangling export behind."""
import importlib
import pkgutil

import pytest

import jetgeo

MODULES = sorted(m.name for m in pkgutil.iter_modules(jetgeo.__path__, "jetgeo."))


@pytest.mark.parametrize("name", ["jetgeo"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_all_has_no_duplicates():
    assert len(jetgeo.__all__) == len(set(jetgeo.__all__))


def test_curvature_aliases_are_gone():
    # one-line CurvatureContext wrappers; call CurvatureContext directly
    curvature = importlib.import_module("jetgeo.curvature")
    for name in ("christoffel", "riemann", "nabla_k_r", "scalar_curvature"):
        assert not hasattr(jetgeo, name) and not hasattr(curvature, name), name
