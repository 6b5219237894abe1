"""Metric family: construction, closed-form curvature oracle, alpha routes,
frame normalization, and the shared curvature model."""
import math

import numpy as np
import pytest

from jetgeo import expr as ex
from jetgeo import family as fam
from jetgeo.curvature import CurvatureContext


def make_params(p, text="exp(y) + exp(2*y)"):
    return fam.FamilyParams(p, ex.parse(text, ("y",)))


# ------------------------------------------------------------ construction
def test_params_validation():
    with pytest.raises(ValueError):
        fam.FamilyParams(-2, ex.parse("exp(y)", ("y",)))
    with pytest.raises(ValueError):
        fam.FamilyParams(0, ex.parse("exp(y) + z0", ("y", "z0")))


def test_family_coords():
    assert fam.family_coords(-1) == ("x", "y", "xbar", "ybar")
    assert fam.family_coords(1) == (
        "x", "y", "z0", "z1", "xbar", "ybar", "zbar0", "zbar1",
    )


def test_base_point_layout():
    params = make_params(0)
    assert fam.base_point(params, 0.3, [0.6]) == (0.0, 0.3, 0.6, 0.0, 0.0, 0.0)
    assert fam.base_point(params, 0.3) == (0.0, 0.3, 0.0, 0.0, 0.0, 0.0)
    assert fam.base_point(make_params(-1), 0.2) == (0.0, 0.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        fam.base_point(params, 0.3, [0.6, 0.7])


def test_metric_structure():
    p = 1
    params = make_params(p, "exp(y)")
    spec = fam.build_metric(params)
    n = 2 * p + 6
    assert len(spec.coords) == n
    assert spec.signature == (p + 3, p + 3)
    half = n // 2
    nonzero = {
        (i, j)
        for i, row in enumerate(spec.components)
        for j, e in enumerate(row)
        if not (isinstance(e, ex.Const) and e.value == 0.0)
    }
    pairs = {(i, i + half) for i in range(half)} | {(i + half, i) for i in range(half)}
    assert nonzero == {(0, 0)} | pairs
    for i, j in pairs:
        assert spec.components[i][j] == ex.Const(1.0)
    # g_xx = -2 (f(y) + sum_i y^{i+1} z_i)
    y, z0, z1 = 0.4, 0.7, -0.2
    point = dict(zip(spec.coords, (0.1, y, z0, z1, 0.0, 0.0, 0.0, 0.0)))
    got = ex.eval_point(spec.components[0][0], point)
    assert got == pytest.approx(-2.0 * (math.exp(y) + y * z0 + y**2 * z1), rel=1e-15)


# ----------------------------------------------------------------- profile
def test_profile_derivs_polynomial():
    params = make_params(0, "y^8 + y^9")
    d = fam.profile_derivs(params, 0.7, 12)
    assert d[7] == pytest.approx(40320 * 0.7 + 181440 * 0.7**2, rel=1e-13)
    assert d[8] == pytest.approx(40320 + 362880 * 0.7, rel=1e-14)
    assert d[9] == pytest.approx(362880.0, rel=1e-14)
    assert d[10] == 0.0 and d[11] == 0.0 and d[12] == 0.0


def test_profile_derivs_exp():
    params = make_params(0, "exp(y)")
    d = fam.profile_derivs(params, 0.3, 6)
    assert np.allclose(d, math.exp(0.3), rtol=1e-14)


# ------------------------------------------------------------------ oracle
def test_symmetry_completion():
    out = fam.complete_curvature_symmetries({(0, 1, 1, 0): 1.0})
    assert out == {
        (0, 1, 1, 0): 1.0,
        (1, 0, 0, 1): 1.0,
        (0, 1, 0, 1): -1.0,
        (1, 0, 1, 0): -1.0,
    }
    with pytest.raises(ValueError, match="inconsistent"):
        fam.complete_curvature_symmetries({(0, 1, 1, 0): 1.0, (1, 0, 0, 1): 2.0})


def test_oracle_support_sizes():
    params = make_params(0)
    pt = fam.base_point(params, 0.3, [0.6])
    sizes = [len(fam.oracle_nabla_k_r(params, pt, k)) for k in range(4)]
    assert sizes == [12, 4, 4, 4]


@pytest.mark.parametrize("p", [-1, 0, 1, 2])
def test_engine_matches_oracle(p):
    params = make_params(p)
    z = [0.1 * (i + 1) for i in range(p + 1)]
    pt = fam.base_point(params, 0.3, z)
    ctx = CurvatureContext(fam.build_metric(params), pt, p + 3)
    for k in range(p + 4):
        assert fam.oracle_delta(params, pt, k, context=ctx) <= 1e-12


def test_engine_matches_oracle_polynomial():
    params = make_params(1, "y^8 + y^9")
    pt = fam.base_point(params, 0.9, [0.4, -0.3])
    for k in range(5):
        assert fam.oracle_delta(params, pt, k) <= 1e-10


# ------------------------------------------------------------------- alpha
def test_alpha_exp_profile_is_constant_one():
    params = make_params(0, "exp(y)")
    for y in (-0.5, 0.0, 0.4, 1.2):
        assert fam.alpha_closed_form(params, y) == pytest.approx(1.0, rel=1e-14)
        assert abs(fam.alpha_prime(params, y)) <= 1e-12


def test_alpha_exp_sum_pin():
    # f = e^y + e^{2y}: derivative k at 0 is 1 + 2^k, so
    # alpha(0) = (1+8)(1+32)/(1+16)^2 = 297/289
    assert fam.alpha_closed_form(make_params(0), 0.0) == pytest.approx(
        297.0 / 289.0, rel=1e-15
    )


def test_alpha_prime_matches_difference_quotient():
    params = make_params(0)
    h = 1e-6
    for y in (-0.3, 0.0, 0.7):
        fd = (fam.alpha_closed_form(params, y + h) - fam.alpha_closed_form(params, y - h)) / (2 * h)
        assert fam.alpha_prime(params, y) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("p", [-1, 0, 1])
def test_alpha_jacobi_route_matches_closed_form(p):
    params = make_params(p)
    for y in (0.1, 0.5):
        pt = fam.base_point(params, y, [0.2] * (p + 1))
        got = fam.alpha_via_jacobi(params, pt)
        assert got == pytest.approx(fam.alpha_closed_form(params, y), rel=1e-12)


def test_alpha_jacobi_route_matches_closed_form_at_p6():
    # dimension 18, jets in 8 variables to order 11: the sparse product
    # route makes this a routine size
    params = make_params(6)
    pt = fam.base_point(params, 0.3, [0.2] * 7)
    got = fam.alpha_via_jacobi(params, pt)
    assert got == pytest.approx(fam.alpha_closed_form(params, 0.3), rel=1e-9)


def test_alpha_jacobi_auxiliary_product_invariance():
    # the quotient is independent of the auxiliary inner product because the
    # compared vectors are parallel
    params = make_params(0)
    pt = fam.base_point(params, 0.3, [0.6])
    base = fam.alpha_via_jacobi(params, pt)
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = rng.normal(size=(6, 6))
        aux = m @ m.T + 6.0 * np.eye(6)
        assert fam.alpha_via_jacobi(params, pt, aux=aux) == pytest.approx(base, rel=1e-12)
    with pytest.raises(ValueError, match="6x6"):
        fam.alpha_via_jacobi(params, pt, aux=np.eye(5))


def test_alpha_jacobi_rejects_degenerate_samples():
    params = make_params(0)
    pt = fam.base_point(params, 0.3, [0.6])
    xbar = np.zeros(6)
    xbar[3] = 1.0  # barred direction: every Jacobi image vanishes
    with pytest.raises(fam.IllPosedSampleError):
        fam.alpha_via_jacobi(params, pt, x_vec=xbar)


def test_alpha_verdict():
    assert fam.alpha_verdict([1.0] * 10) == "CONSTANT"
    assert fam.alpha_verdict([1.0, 1.02]) == "NON-CONSTANT"
    assert fam.alpha_verdict([]) == "UNDETERMINED"
    assert fam.alpha_verdict([1.0]) == "UNDETERMINED"
    assert fam.alpha_verdict([1.0, 1.0 + 5e-6]) == "UNDETERMINED"
    assert fam.alpha_verdict([float("nan"), 1.0]) == "UNDETERMINED"


def test_positivity_errors():
    poly = make_params(0, "y^8 + y^9")
    with pytest.raises(fam.PositivityError, match="orders 3 and 4"):
        fam.alpha_closed_form(poly, -0.5)  # f''' < 0 there
    with pytest.raises(fam.PositivityError):
        fam.alpha_closed_form(make_params(0, "y^2"), 0.0)
    with pytest.raises(fam.PositivityError, match="order 4 vanishes"):
        fam.normalize_frame(
            make_params(0, "y^2"), fam.base_point(make_params(0, "y^2"), 0.0)
        )


# ------------------------------------------------------------------- frame
@pytest.mark.parametrize("p", [-1, 0, 1, 2])
def test_frame_model_deviation_small(p):
    params = make_params(p)
    for y in (0.1, 0.6):
        pt = fam.base_point(params, y, [0.3] * (p + 1))
        assert fam.frame_model_deviation(params, pt) <= 1e-9


def test_frame_scalars():
    params = make_params(0)
    pt = fam.base_point(params, 0.3, [0.6])
    fr = fam.normalize_frame(params, pt)
    d = fam.profile_derivs(params, 0.3, 5)
    assert fr.eps1 == d[3] / d[4]
    assert fr.eps0 == pytest.approx((fr.eps1**3 * d[3]) ** -0.5, rel=1e-13)
    assert len(fr.raw) == 6 and len(fr.rescaled) == 6
    assert all(v.shape == (6,) for v in fr.rescaled)


def test_quotient_model_matches_reference():
    params = make_params(0, "exp(y)")
    pt = fam.base_point(params, 0.5, [0.2])
    got = fam.quotient_model(params, pt)
    want = fam.reference_model(0)
    assert got.dim == want.dim == 3
    assert len(got.levels) == len(want.levels) == 3
    assert fam.model_deviation(got, want) <= 1e-9


def test_reference_model_structure():
    rm = fam.reference_model(0)
    assert rm.dim == 3
    assert [len(m) for m in rm.levels] == [8, 4, 4]
    assert rm.levels[0][(0, 1, 2, 0)] == 1.0
    assert rm.levels[0][(0, 1, 0, 2)] == -1.0
    assert all(abs(v) == 1.0 for m in rm.levels for v in m.values())


def test_model_deviation_detects_perturbation():
    rm = fam.reference_model(0)
    levels = [dict(m) for m in rm.levels]
    key = next(iter(levels[0]))
    levels[0][key] += 1e-3
    pert = fam.CurvatureModel(rm.dim, tuple(levels))
    assert fam.model_deviation(pert, rm) == pytest.approx(1e-3, rel=1e-9)
    assert fam.model_deviation(rm, rm) == 0.0


@pytest.mark.parametrize("p", [0, 1])
def test_model_kernel_is_barred_span(p):
    params = make_params(p)
    pt = fam.base_point(params, 0.3, [0.2] * (p + 1))
    ctx = CurvatureContext(fam.build_metric(params), pt, 2)
    ker = fam.model_kernel(ctx, 2)
    n = 2 * p + 6
    half = n // 2
    assert ker.shape == (n, half)
    assert np.max(np.abs(ker[:half, :])) <= 1e-12
    assert np.linalg.matrix_rank(ker[half:, :], tol=1e-12) == half
