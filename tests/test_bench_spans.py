"""The traced benchmark run wraps jetgeo entry points by name
(`bench/spans.py`) and its wrappers read jetgeo internals such as
`JetSpace._mul_tables`; a renamed or deleted name must fail here rather
than only when the benchmark runs with `--trace 1`."""
import os
import subprocess
import sys
from pathlib import Path

from jetgeo.metric import save_metric, two_sphere

ROOT = Path(__file__).resolve().parents[1]


def _run_with_spans(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_spans_install_finds_every_wrapped_name():
    res = _run_with_spans("import spans; spans.install(spans.Tracer())")
    assert res.returncode == 0, res.stderr


TRACED_FAMILY = """
import spans
tracer = spans.Tracer()
spans.install(tracer)
tracer.active = True
from jetgeo import expr, family
from jetgeo.curvature import CurvatureContext
params = family.FamilyParams(0, expr.parse("exp(y) + exp(2*y)", ("y",)))
ctx = CurvatureContext(family.build_metric(params), family.base_point(params, 0.1, [0.2]), 1)
ctx.curvature(1)
# The context no longer reaches `jets.table_build`: its tapes list every
# product's code set while they are planned, so none of its `multiply`
# calls is the first on its space.  A product on a space with no listing
# yet is run apart, so that the span, which reads `JetSpace._mul_tables`,
# still runs; it does not stand for the context's path.
from jetgeo.jets import jet_space
u = jet_space(("u", "v"), 3).variable("u", 0.5)
u.space.multiply(u.coef, u.coef)
print(sorted({tracer.names[i] for i in tracer.name}))
"""


def test_traced_family_context_runs():
    res = _run_with_spans(TRACED_FAMILY)
    assert res.returncode == 0, res.stderr
    assert "jets.table_build" in res.stdout and "curvature.context_build" in res.stdout


TRACED_CHECK = """
import spans
tracer = spans.Tracer()
spans.install(tracer)
tracer.active = True
from jetgeo import cli
spec_rc = cli.main(["check", "--spec", {sphere!r}, "--point", "0.8,0.1", "--seed", "7"])
print("SPEC RC", spec_rc)
rc = cli.main(["check", "--family", "p=0,f=exp(y)", "--seed", "42"])
metrics = spans.layer_metrics(tracer)
print("RC", rc)
for name in ("invariants.catalog_s", "invariants.combinations", "curvature.level.0.support",
             "curvature.level.2.support", "curvature.operators_s", "geodesics.direct_s",
             "cli.main_s"):
    print(name, metrics[name][0])
"""


def test_traced_check_runs_in_process(tmp_path):
    # the check suite through the span wrappers: the level-0 step with its
    # candidates, the cached catalog, and the combinations hook on evaluate,
    # which the spec check's weyl_control calls (the family check evaluates
    # its schemas in one evaluate_many call); the nilpotency check reaches
    # the operators through their public names
    sphere = tmp_path / "sphere.json"
    save_metric(two_sphere(), str(sphere))
    res = _run_with_spans(TRACED_CHECK.format(sphere=str(sphere)))
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert "SPEC RC 0" in lines
    start = lines.index("RC 0")
    figures = dict(line.split() for line in lines[start + 1:])
    assert lines[start - 1] == "RESULT: PASS"
    assert all(float(v) > 0 for v in figures.values()), figures


TRACED_GEODESICS = """
import spans
tracer = spans.Tracer()
spans.install(tracer)
tracer.active = True
from jetgeo import expr, family, geodesics
params = family.FamilyParams(1, expr.parse("exp(y) + exp(2*y)", ("y",)))
spec = family.build_metric(params)
prob = geodesics.GeodesicProblem(spec, family.base_point(params, 0.1, [0.2, -0.1]),
                                 velocity=(0.3, 0.1, -0.1, 0.2, 0.1, 0.3, 0.05, 0.0), t_end=2.0)
geodesics.solve_geodesic(prob, method="rk")
rk = {name: v for name, (v, _) in spans.layer_metrics(tracer).items()}
geodesics.solve_geodesic(prob, method="triangular")
both = {name: v for name, (v, _) in spans.layer_metrics(tracer).items()}
for name in ("geodesics.force_calls", "geodesics.force_s", "geodesics.rk_s"):
    print("rk", name, rk[name])
for name in ("geodesics.force_calls", "geodesics.force_s", "geodesics.quadrature_s",
             "geodesics.report_s"):
    print("direct", name, both[name] - rk[name])
"""


def test_traced_geodesic_routes_reach_every_span():
    # each route must call the evaluator's force, and the direct route the
    # structure report, through the names the span wrappers replace; a route
    # that bypasses one reads 0 here
    res = _run_with_spans(TRACED_GEODESICS)
    assert res.returncode == 0, res.stderr
    figures = {" ".join(line.split()[:2]): float(line.split()[2]) for line in res.stdout.splitlines()}
    assert len(figures) == 7 and all(v > 0 for v in figures.values()), figures
