"""Curvature engine for metrics given as symbolic coordinate expressions.

The package computes Christoffel symbols, the Riemann tensor, iterated
covariant derivatives, scalar contraction invariants, and geodesics from a
MetricSpec, using truncated Taylor jets so every derivative is exact up to
floating-point rounding.  A built-in family of neutral-signature metrics
with closed-form curvature serves as the main test bed and ships with its
own oracles, frame normalization, and invariant-ratio diagnostics.
"""
from . import expr
from .curvature import (
    Christoffels,
    CurvatureContext,
    DegeneratePlaneError,
    TensorField,
    jacobi_operator,
    skew_curvature_operator,
)
from .expr import ParseError, UnknownVariableError, parse, to_text
from .family import (
    FamilyParams,
    Frame,
    IllPosedSampleError,
    PositivityError,
    alpha_closed_form,
    alpha_prime,
    alpha_verdict,
    alpha_via_jacobi,
    base_point,
    build_metric,
    family_coords,
    model_kernel,
    normalize_frame,
    oracle_delta,
    oracle_nabla_k_r,
    quotient_model,
    reference_model,
)
from .geodesics import (
    GeodesicProblem,
    StepCollapseError,
    Trajectory,
    TriangularStructureError,
    energy_along,
    exp_map,
    log_map,
    solve_geodesic,
    triangular_report,
)
from .invariants import (
    CapsExceededError,
    ContractionSchema,
    NAMED_SCHEMAS,
    catalog,
    evaluate,
    evaluate_dense,
    evaluate_many,
    random_schemas,
)
from .jets import Jet, JetSpace, NonFiniteError, jet_space
from .metric import (
    MetricSpec,
    SignatureError,
    SingularMetricError,
    flat_metric,
    load_metric,
    metric_from_strings,
    save_metric,
    two_sphere,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "expr",
    "parse",
    "to_text",
    "ParseError",
    "UnknownVariableError",
    "Jet",
    "JetSpace",
    "jet_space",
    "NonFiniteError",
    "MetricSpec",
    "SingularMetricError",
    "SignatureError",
    "metric_from_strings",
    "save_metric",
    "load_metric",
    "flat_metric",
    "two_sphere",
    "CurvatureContext",
    "Christoffels",
    "TensorField",
    "DegeneratePlaneError",
    "jacobi_operator",
    "skew_curvature_operator",
    "ContractionSchema",
    "CapsExceededError",
    "NAMED_SCHEMAS",
    "catalog",
    "random_schemas",
    "evaluate",
    "evaluate_many",
    "evaluate_dense",
    "FamilyParams",
    "PositivityError",
    "IllPosedSampleError",
    "build_metric",
    "family_coords",
    "base_point",
    "oracle_nabla_k_r",
    "oracle_delta",
    "alpha_closed_form",
    "alpha_prime",
    "alpha_via_jacobi",
    "alpha_verdict",
    "Frame",
    "normalize_frame",
    "reference_model",
    "quotient_model",
    "model_kernel",
    "GeodesicProblem",
    "Trajectory",
    "StepCollapseError",
    "TriangularStructureError",
    "triangular_report",
    "solve_geodesic",
    "exp_map",
    "log_map",
    "energy_along",
]
