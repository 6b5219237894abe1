"""MetricSpec construction, validation, and JSON round-trips."""
import json
import math
import re

import numpy as np
import pytest

from jetgeo import expr as ex
from jetgeo import family as fam
from jetgeo.jets import NonFiniteError
from jetgeo.metric import (
    MetricSpec,
    SignatureError,
    SingularMetricError,
    flat_metric,
    load_metric,
    metric_from_dict,
    metric_from_strings,
    metric_to_dict,
    save_metric,
    two_sphere,
)


def test_construction_and_symmetry():
    spec = metric_from_strings(
        ("u", "v"), {(0, 0): "exp(2*v)", (0, 1): "u"}, (0, 2)
    )
    assert spec.dim == 2
    assert spec.components[0][1] == spec.components[1][0]
    assert spec.active_vars == ("u", "v")
    g = spec.value((0.5, 0.0))
    np.testing.assert_allclose(g, [[1.0, 0.5], [0.5, 0.0]])


def test_active_vars_in_chart_order():
    spec = metric_from_strings(
        ("a", "b", "c"), {(0, 0): "c", (1, 1): "a", (2, 2): "1"}, (0, 3)
    )
    assert spec.active_vars == ("a", "c")


def test_validation_errors():
    y = ex.Var("y")
    with pytest.raises(ValueError):
        MetricSpec((), {}, (0, 0))
    with pytest.raises(ValueError):
        MetricSpec(("y", "y"), {(0, 0): y}, (0, 2))
    with pytest.raises(ValueError):
        MetricSpec(("y",), {(0, 0): y}, (1, 1))
    with pytest.raises(ValueError):
        MetricSpec(("y",), {(0, 1): y}, (0, 1))
    with pytest.raises(ValueError):
        MetricSpec(("a", "b"), {(0, 1): y, (1, 0): y}, (0, 2))
    with pytest.raises(ex.UnknownVariableError):
        MetricSpec(("a", "b"), {(0, 0): ex.Var("q")}, (0, 2))


def test_point_length_check():
    spec = two_sphere()
    with pytest.raises(ValueError):
        spec.value((1.0,))
    with pytest.raises(ValueError):
        spec.env_at((1.0, 2.0, 3.0))


def test_constant_fast_path():
    fl = flat_metric(("t", "x", "y"), (1, 2))
    assert fl.is_constant
    g = fl.value((9.0, 9.0, 9.0))
    np.testing.assert_array_equal(g, np.diag([-1.0, 1.0, 1.0]))
    assert not two_sphere().is_constant


def test_validate_at_sphere():
    sph = two_sphere()
    w = sph.validate_at((math.pi / 2, 0.0))
    np.testing.assert_allclose(sorted(w), [1.0, 1.0])
    with pytest.raises(SingularMetricError):
        sph.validate_at((0.0, 0.0))


def test_validate_at_calls_singular_within_the_eigenvalue_backward_error():
    # g is singular when its smallest |eigenvalue| is within m eps of its
    # largest, the rounding eigvalsh leaves; an ill-scaled g far above that
    # is not
    tiny = metric_from_strings(("x", "y"), {(0, 0): "1e-17", (1, 1): "1"}, (0, 2))
    with pytest.raises(SingularMetricError):
        tiny.validate_at((0.0, 0.0))
    ill = metric_from_strings(("s", "t", "x", "y"), {
        (0, 0): "1e-11", (1, 1): "1e-11", (2, 2): "exp(2*y)", (3, 3): "exp(2*y)"}, (0, 4))
    w = ill.validate_at((0.0, 0.0, 0.1, 0.2))
    np.testing.assert_allclose(sorted(w), [1e-11, 1e-11, math.exp(0.4), math.exp(0.4)])


def test_validate_signature_mismatch():
    bad = metric_from_strings(("t", "x"), {(0, 0): "1", (1, 1): "1"}, (1, 1))
    with pytest.raises(SignatureError):
        bad.validate_at((0.0, 0.0))


def test_validate_at_reports_a_non_finite_metric():
    # an overflowing profile makes g_00 infinite, and 1e200*1e200*x at x = 0
    # makes it nan; neither is a signature or a degeneracy
    inf_family = fam.build_metric(fam.FamilyParams(0, ex.parse("1e200*1e200", ("y",))))
    nan_entry = metric_from_strings(("x", "y"), {(0, 0): "1e200*1e200*x", (1, 1): "1"}, (0, 2))
    assert np.isnan(nan_entry.value((0.0, 0.0))[0, 0])
    for spec in (inf_family, nan_entry):
        point = (0.0,) * spec.dim
        with pytest.raises(NonFiniteError, match=re.escape(f"metric not finite at {point}")):
            spec.validate_at(point)


def test_neutral_signature_accepted():
    spec = metric_from_strings(("a", "b"), {(0, 1): "1"}, (1, 1))
    w = spec.validate_at((0.0, 0.0))
    assert sorted(np.sign(w)) == [-1.0, 1.0]


def test_json_roundtrip(tmp_path):
    sph = two_sphere()
    path = tmp_path / "sphere.json"
    save_metric(sph, str(path))
    loaded = load_metric(str(path))
    assert loaded.coords == sph.coords
    assert loaded.signature == sph.signature
    assert metric_to_dict(loaded) == metric_to_dict(sph)
    for i in range(2):
        for j in range(2):
            assert loaded.components[i][j] == sph.components[i][j]


def test_dict_shape():
    d = metric_to_dict(two_sphere())
    assert d["dim"] == 2
    assert d["coords"] == ["theta", "phi"]
    assert d["signature"] == [0, 2]
    pairs = {(c["i"], c["j"]) for c in d["components"]}
    assert pairs == {(0, 0), (1, 1)}  # only the upper triangle, zeros dropped
    json.dumps(d)  # serializable as-is


def test_from_dict_rejects_garbage():
    with pytest.raises((KeyError, TypeError, ValueError)):
        metric_from_dict({"dim": 2})
    with pytest.raises(ex.ParseError):
        metric_from_dict(
            {
                "dim": 1,
                "coords": ["u"],
                "signature": [0, 1],
                "components": [{"i": 0, "j": 0, "expr": "u +"}],
            }
        )


@pytest.mark.parametrize("field,value", [
    ("dim", 2.0), ("dim", True), ("signature", [0, 2.7]), ("signature", [False, 2]),
    ("i", 0.9), ("i", False), ("j", 0.9), ("j", True), ("j", "1"),
])
def test_from_dict_takes_integer_fields_only(field, value):
    # int() would read 0.9 as 0 and true as 1, and load a different metric
    data = metric_to_dict(two_sphere())
    if field in ("i", "j"):
        data["components"][1][field] = value
    else:
        data[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        metric_from_dict(data)


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["components"].append({"i": 1, "j": 1, "expr": "5"}),
     r"component \(1, 1\) given more than once"),
    (lambda d: d["components"].append({"i": 0, "j": 0, "expr": "1"}),
     r"component \(0, 0\) given more than once"),
    (lambda d: d.update(signature=[0, 2, 7]), "signature must hold two counts"),
    (lambda d: d.update(signature=[0]), "signature must hold two counts"),
], ids=["repeated-11", "repeated-00", "three-counts", "one-count"])
def test_from_dict_refuses_repeats_and_extra_counts(edit, message):
    # a dict keyed by (i, j) would keep the last entry, and [0, 2, 7] would
    # load with its third count ignored
    data = metric_to_dict(two_sphere())
    edit(data)
    with pytest.raises(ValueError, match=message):
        metric_from_dict(data)


def test_from_dict_reads_a_lower_triangle_entry_as_its_mirror():
    # a component (1, 0) is g_10, which is g_01: the spec loads as if (0, 1)
    # had been listed, and writes back in the upper triangle
    def spec(i, j):
        return metric_from_dict({
            "dim": 2, "coords": ["x", "y"], "signature": [0, 2],
            "components": [{"i": 0, "j": 0, "expr": "2 + x^2"},
                           {"i": i, "j": j, "expr": "0.5*y"},
                           {"i": 1, "j": 1, "expr": "3.0"}],
        })

    lower, upper = spec(1, 0), spec(0, 1)
    assert lower.entry_vars == upper.entry_vars == {(0, 0): ("x",), (0, 1): ("y",), (1, 1): ()}
    assert metric_to_dict(lower) == metric_to_dict(upper)
    np.testing.assert_array_equal(lower.value((0.3, 0.2)), upper.value((0.3, 0.2)))


def test_flat_metric_signature_layout():
    fl = flat_metric(("a", "b", "c"), (2, 1))
    g = fl.value((0, 0, 0))
    np.testing.assert_array_equal(g, np.diag([-1.0, -1.0, 1.0]))
    fl.validate_at((0, 0, 0))


def test_sphere_components():
    sph = two_sphere()
    g = sph.value((0.7, 123.0))  # no phi dependence
    np.testing.assert_allclose(g, np.diag([1.0, math.sin(0.7) ** 2]), rtol=1e-15)
