"""Contraction schemas: normalization, catalog combinatorics, dual-route
evaluation, and the named invariants on control metrics."""
import math

import numpy as np
import pytest

from jetgeo import expr as ex
from jetgeo.curvature import CurvatureContext
from jetgeo.family import FamilyParams, base_point, build_metric
from jetgeo.invariants import (
    NAMED_SCHEMAS,
    CapsExceededError,
    ContractionSchema,
    catalog,
    evaluate,
    evaluate_dense,
    evaluate_many,
    matching_count,
    random_schemas,
)
from jetgeo.metric import two_sphere


# ----------------------------------------------------------------- schemas
def test_schema_normalizes_pair_order():
    a = ContractionSchema((0,), ((3, 0), (2, 1)))
    b = ContractionSchema((0,), ((0, 3), (1, 2)))
    assert a == b
    assert a.pairing == ((0, 3), (1, 2))


def test_schema_rejects_bad_pairings():
    with pytest.raises(ValueError):
        ContractionSchema((0,), ((0, 1),))  # misses slots 2, 3
    with pytest.raises(ValueError):
        ContractionSchema((0,), ((0, 1), (1, 2), (2, 3)))  # slot reuse
    with pytest.raises(ValueError):
        ContractionSchema((0,), ((0, 0), (1, 2), (3, 3)))  # self-pair
    with pytest.raises(ValueError):
        ContractionSchema((0,), ((0, 4), (1, 2), (3, 5)))  # out of range
    with pytest.raises(ValueError):
        ContractionSchema((), ())  # no factors
    with pytest.raises(ValueError):
        ContractionSchema((-1,), ((0, 1), (2, 3)))


def test_slot_numbers_are_ints():
    # a float slot would print as `0.0`, which from_line rejects
    with pytest.raises(TypeError):
        ContractionSchema((0,), ((0.0, 3), (1, 2)))
    schema = ContractionSchema((0,), ((np.int64(3), np.int32(0)), (1, 2)))
    assert all(type(s) is int for pair in schema.pairing for s in pair)
    assert schema.to_line() == "R|((0,3),(1,2))"
    assert ContractionSchema.from_line(schema.to_line()) == schema


def test_line_roundtrip():
    for schema in NAMED_SCHEMAS.values():
        assert ContractionSchema.from_line(schema.to_line()) == schema
    assert NAMED_SCHEMAS["tau"].to_line() == "R|((0,3),(1,2))"
    assert NAMED_SCHEMAS["lap_tau"].to_line() == "ddR|((0,3),(1,2),(4,5))"
    two = ContractionSchema.from_line("dR,dR|((0,5),(1,6),(2,7),(3,8),(4,9))")
    assert two.factors == (1, 1)
    assert ContractionSchema.from_line(two.to_line()) == two


def test_from_line_rejects_garbage():
    for bad in (
        "R",  # no pairing
        "Q|((0,3),(1,2))",
        "R|((0,3)(1,2))",
        "R|((0,3),(1,2),(4,5))",  # slots past the factor
        "R,dR|((0,3),(1,2),(4,8),(5,7),(6,3))",  # reused slot
    ):
        with pytest.raises(ValueError):
            ContractionSchema.from_line(bad)


def test_canonical_quotient_over_equal_level_factors():
    # swapping the two R factors relabels slots 0..3 <-> 4..7
    a = ContractionSchema((0, 0), ((0, 1), (2, 4), (3, 5), (6, 7)))
    swapped = ContractionSchema((0, 0), ((4, 5), (6, 0), (7, 1), (2, 3)))
    assert a != swapped
    assert a.canonical() == swapped.canonical()
    assert a.canonical().canonical() == a.canonical()


def test_matching_count():
    assert matching_count(0) == 1
    assert matching_count(4) == 3
    assert matching_count(6) == 15
    assert matching_count(8) == 105
    assert matching_count(12) == 10395
    assert matching_count(5) == 0


# ----------------------------------------------------------------- catalog
def test_catalog_3_2_contents():
    cat = catalog(3, 2)
    assert len(cat.schemas) == 1541
    by_factors = {}
    for s in cat.schemas:
        by_factors[s.factors] = by_factors.get(s.factors, 0) + 1
    assert by_factors == {
        (0,): 3,
        (2,): 15,
        (0, 0): 65,
        (0, 2): 945,
        (1, 1): 513,
    }
    assert set(cat.skipped) == {
        (0, 0, 0),
        (0, 0, 2),
        (0, 1, 1),
        (0, 2, 2),
        (1, 1, 2),
        (2, 2),
        (2, 2, 2),
    }
    # canonical, unique, sorted
    assert len(set(cat.schemas)) == len(cat.schemas)
    assert all(s.canonical() == s for s in cat.schemas)
    assert list(cat.schemas) == sorted(
        cat.schemas, key=lambda s: (len(s.factors), s.factors, s.pairing)
    )


def test_catalog_limit_moves_lists_between_buckets():
    small = catalog(2, 0, exhaustive_limit=100)
    assert small.skipped == ((0, 0),)  # 105 matchings > 100
    assert {s.factors for s in small.schemas} == {(0,)}
    assert len(catalog(2, 0).schemas) == 3 + 65


def test_catalog_caps():
    with pytest.raises(CapsExceededError):
        catalog(4, 2)
    with pytest.raises(CapsExceededError):
        catalog(3, 5)
    with pytest.raises(CapsExceededError):
        catalog(3, 2, exhaustive_limit=20_000)
    with pytest.raises(CapsExceededError):
        catalog(0, 2)


def test_random_schemas_deterministic_and_canonical():
    a = random_schemas(200, 3, 2, seed=0)
    b = random_schemas(200, 3, 2, seed=0)
    assert a == b
    assert len(a) == 200
    assert len(set(a)) == 200
    assert all(s.canonical() == s for s in a)
    assert random_schemas(50, 3, 2, seed=1) != random_schemas(50, 3, 2, seed=2)


def test_random_schemas_drawn_once_per_argument_list():
    a = random_schemas(100, 3, 2, 42)
    assert random_schemas(100, 3, 2, 42) is a
    assert random_schemas.__wrapped__(100, 3, 2, 42) == a
    assert isinstance(a, tuple)


def test_catalog_and_random_schemas_built_once_however_spelled():
    # one build per argument list, whether an argument is given by position,
    # by keyword or left to its default
    cats = [catalog(3, 2), catalog(3, 2, 1000), catalog(3, 2, exhaustive_limit=1000),
            catalog(max_factors=3, max_deriv=2)]
    assert all(c is cats[0] for c in cats)
    draws = [random_schemas(100, 3, 2, 42), random_schemas(100, 3, 2, seed=42),
             random_schemas(count=100, max_factors=3, max_deriv=2, seed=42)]
    assert all(d is draws[0] for d in draws)


def test_random_schemas_small_space_returns_fewer():
    got = random_schemas(50, 1, 0, seed=0)
    assert 0 < len(got) <= 3  # only the three level-0 single-factor schemas


# -------------------------------------------------------------- evaluation
def test_named_values_on_unit_sphere():
    sph = two_sphere()
    pt = (0.8, 0.1)
    ctx = CurvatureContext(sph, pt, 2)
    want = {
        "tau": 2.0,
        "ric2": 2.0,
        "r2": 4.0,
        "grad_r2": 0.0,  # constant-curvature space
        "rrr_trace": -8.0,  # tr(A^3) with A^2 = -2A, tr A = -2
        "lap_tau": 0.0,
    }
    for name, val in want.items():
        got = evaluate(NAMED_SCHEMAS[name], sph, pt, context=ctx)
        assert got == pytest.approx(val, rel=1e-9, abs=1e-9), name


def test_sphere_values_are_point_independent():
    sph = two_sphere()
    for pt in ((0.5, 0.0), (1.2, 2.0), (2.5, -1.0)):
        assert evaluate(NAMED_SCHEMAS["tau"], sph, pt) == pytest.approx(2.0, rel=1e-12)


def test_dense_matches_sparse_on_sphere():
    sph = two_sphere()
    pt = (0.9, 0.3)
    ctx = CurvatureContext(sph, pt, 2)
    schemas = list(NAMED_SCHEMAS.values()) + list(catalog(2, 1).schemas[::17])
    for schema in schemas:
        a = evaluate(schema, sph, pt, context=ctx)
        b = evaluate_dense(schema, sph, pt, context=ctx)
        assert a == pytest.approx(b, rel=1e-11, abs=1e-11), schema.to_line()


def test_dense_matches_sparse_on_family():
    params = FamilyParams(0, ex.parse("exp(y) + exp(2*y)", ("y",)))
    spec = build_metric(params)
    pt = base_point(params, 0.3, [0.6])
    ctx = CurvatureContext(spec, pt, 2)
    for schema in list(NAMED_SCHEMAS.values()) + list(catalog(2, 1).schemas[::23]):
        a = evaluate(schema, spec, pt, context=ctx)
        b = evaluate_dense(schema, spec, pt, context=ctx)
        assert a == pytest.approx(b, rel=1e-11, abs=1e-11), schema.to_line()
        assert abs(a) <= 1e-10  # the family kills every scalar invariant


def test_evaluate_dense_letter_guard():
    # 56 slots, past the 52 einsum letters a-z and A-Z
    big = ContractionSchema(
        (4,) * 7,
        tuple((2 * i, 2 * i + 1) for i in range(28)),
    )
    with pytest.raises(CapsExceededError):
        evaluate_dense(big, two_sphere(), (0.8, 0.1))


def test_evaluate_many_matches_dense_on_check_random_schemas():
    # the check's random draw holds 12 (2,2,2) schemas: 18 slots and 9 pairs
    params = FamilyParams(0, ex.parse("exp(y) + exp(2*y)", ("y",)))
    spec = build_metric(params)
    pt = (0.3, -0.4, 0.5, 0.2, -0.1, 0.6)
    ctx = CurvatureContext(spec, pt, 2)
    schemas = random_schemas(100, 3, 2, 42)
    assert sum(s.factors == (2, 2, 2) for s in schemas) == 12
    got = evaluate_many(schemas, spec, pt, context=ctx)
    for schema, value in zip(schemas, got):
        want = evaluate_dense(schema, spec, pt, context=ctx)
        assert value == pytest.approx(want, rel=1e-11, abs=1e-11), schema.to_line()


def test_evaluate_accepts_prebuilt_context_only_if_deep_enough():
    sph = two_sphere()
    ctx = CurvatureContext(sph, (0.8, 0.1), 0)
    assert evaluate(NAMED_SCHEMAS["tau"], sph, (0.8, 0.1), context=ctx) == pytest.approx(2.0, rel=1e-12)
