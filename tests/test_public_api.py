"""Every exported name resolves, so a deleted function cannot leave a
dangling export behind."""
import importlib
import pkgutil
import re
from pathlib import Path

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


def test_jet_is_a_value():
    # a jet is its space and coefficients: `eval_jet` on an expression is
    # the public jet arithmetic, and a space builds no zero jet
    removed = ("_check_mate", "_mate", "__add__", "__radd__", "__sub__", "__neg__", "__mul__",
               "__rmul__", "truncated", "deriv", "_series", "exp", "sin", "cos", "pow", "scaled")
    assert [name for name in removed if hasattr(jetgeo.Jet, name)] == []
    assert not hasattr(jetgeo.JetSpace, "zero")


def test_runtime_dependency_is_numpy_alone():
    # scipy is the test suite's reference for the Runge-Kutta route, and no
    # jetgeo module needs it
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_jet_space_tables_stay_in_jets():
    # the multi-index format lives behind jets.py: no other module reads
    # JetSpace's private tables, or calls its private methods
    tables = re.compile(r"\._(codes|exps|deg|reach|unit_codes|grade|places"
                        r"|rank|stop|listing|mul|accumulate)\b")
    reads = [f"{path.name}:{n}"
             for path in sorted(Path(jetgeo.__file__).parent.glob("*.py")) if path.name != "jets.py"
             for n, line in enumerate(path.read_text().splitlines(), 1) if tables.search(line)]
    assert reads == []
