"""Command line interface: output formats, verdicts, exit codes, and
byte-determinism, all driven in-process through main()."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jetgeo import cli
from jetgeo import family as fam
from jetgeo.geodesics import triangular_report
from jetgeo.metric import flat_metric, metric_from_strings, save_metric, two_sphere


ROOT = Path(__file__).resolve().parents[1]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sphere_path(tmp_path):
    path = tmp_path / "sphere.json"
    save_metric(two_sphere(), str(path))
    return str(path)


# --------------------------------------------------------------- curvature
def test_curvature_family_k0(capsys):
    code, out, err = run(
        capsys,
        ["curvature", "--family", "p=0, f=exp(y)",
         "--point", "0,0.3,0.6,0,0,0", "--k", "0"],
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# jetgeo curvature"
    assert lines[1] == "# metric: family p=0 f=exp(y)"
    assert lines[2] == "# point: 0.0,0.3,0.6,0.0,0.0,0.0"
    assert lines[3] == "# k: 0"
    assert "i1,i2,i3,i4,value" in lines
    assert "x,y,y,x,1.3498588075760032" in lines  # f''(0.3) = e^0.3
    assert "x,y,z0,x,1.0" in lines
    rows = [l for l in lines if not l.startswith("#") and not l.startswith("i1")]
    assert len(rows) == 12
    oracle = [l for l in lines if l.startswith("# oracle_max_delta: ")]
    assert len(oracle) == 1
    assert float(oracle[0].split(": ")[1]) <= 1e-12


def test_curvature_family_k2_has_derivative_columns(capsys):
    code, out, _ = run(
        capsys,
        ["curvature", "--family", "p=0, f=exp(y)",
         "--point", "0,0.3,0.6,0,0,0", "--k", "2"],
    )
    assert code == 0
    lines = out.splitlines()
    assert "i1,i2,i3,i4,d1,d2,value" in lines
    rows = [l for l in lines if not l.startswith(("#", "i1"))]
    assert sorted(rows) == sorted([
        "x,y,x,y,y,y,-1.3498588075760032",
        "x,y,y,x,y,y,1.3498588075760032",
        "y,x,x,y,y,y,1.3498588075760032",
        "y,x,y,x,y,y,-1.3498588075760032",
    ])


def test_curvature_sphere_spec_file(capsys, sphere_path):
    code, out, _ = run(
        capsys, ["curvature", "--spec", sphere_path, "--point", "0.8,0.1", "--k", "0"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("# metric: spec ")
    rows = [l.rsplit(",", 1) for l in lines if not l.startswith(("#", "i1"))]
    s2 = float(np.sin(0.8) ** 2)
    want = [
        ("theta,phi,theta,phi", -s2),
        ("theta,phi,phi,theta", s2),
        ("phi,theta,theta,phi", s2),
        ("phi,theta,phi,theta", -s2),
    ]
    assert [r[0] for r in rows] == [w[0] for w in want]
    for (_, got), (_, val) in zip(rows, want):
        assert float(got) == pytest.approx(val, rel=1e-14)


def test_curvature_flat_is_empty(capsys, tmp_path):
    path = tmp_path / "flat.json"
    save_metric(flat_metric(("u", "v"), (2, 0)), str(path))
    code, out, _ = run(
        capsys, ["curvature", "--spec", str(path), "--point", "0.4,0.9", "--k", "1"]
    )
    assert code == 0
    assert "# no non-zero components" in out.splitlines()


def test_curvature_out_file_is_deterministic(tmp_path, capsys):
    argv = ["curvature", "--family", "p=1, f=exp(y) + exp(2*y)",
            "--point", "0,0.4,0.2,0.1,0,0,0,0", "--k", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


# ------------------------------------------------------------------- alpha
def test_alpha_exp_is_constant(capsys):
    code, out, _ = run(
        capsys, ["alpha", "--family", "p=0, f=exp(y)", "--grid", "y=0:1:5"]
    )
    assert code == 0
    lines = out.splitlines()
    assert "y,alpha,alpha_prime" in lines
    assert "0.0,1.0,0.0" in lines
    assert lines[-1] == "# verdict: CONSTANT"
    jac = [l for l in lines if l.startswith("# jacobi_max_delta: ")]
    assert len(jac) == 1 and float(jac[0].split(": ")[1]) <= 1e-12
    rows = [l for l in lines if not l.startswith(("#", "y,"))]
    assert len(rows) == 5
    assert all(float(r.split(",")[1]) == pytest.approx(1.0, rel=1e-12) for r in rows)


def test_alpha_exp_sum_is_non_constant(capsys):
    code, out, _ = run(
        capsys,
        ["alpha", "--family", "p=0, f=exp(y) + exp(2*y)", "--grid", "y=-0.5:0.5:9"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "# verdict: NON-CONSTANT"
    mid = [l for l in lines if l.startswith("0.0,")][0]
    assert float(mid.split(",")[1]) == pytest.approx(297.0 / 289.0, rel=1e-12)


def test_alpha_one_sample_is_undetermined(capsys):
    # one sample has no spread, so it cannot show alpha constant
    code, out, _ = run(
        capsys, ["alpha", "--family", "p=0, f=exp(y) + exp(2*y)", "--grid", "y=0:1:1"]
    )
    assert code == 0
    lines = out.splitlines()
    assert "0.0,1.027681660899654,-0.024424994911459663" in lines
    assert lines[-1] == "# verdict: UNDETERMINED"


# ------------------------------------------------------------------- check
def test_check_family_all_pass(capsys):
    code, out, _ = run(capsys, ["check", "--family", "p=0, f=exp(y)", "--seed", "42"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "RESULT: PASS"
    for name in ("symmetry", "bianchi_2", "weyl_vanishing", "ricci_flat",
                 "nilpotency", "frame_model", "geodesic_roundtrip"):
        assert any(l.startswith(f"{name}: PASS") for l in lines), name
    assert not any("SKIP" in l or "FAIL" in l for l in lines[:-1])


def test_check_builds_the_family_metric_once(capsys, monkeypatch):
    # the frame read-outs take the metric from the check's context
    calls = []
    build = fam.build_metric
    monkeypatch.setattr(fam, "build_metric", lambda params: calls.append(params) or build(params))
    code, out, _ = run(capsys, ["check", "--family", "p=1, f=exp(y)", "--seed", "42"])
    assert code == 0 and out.splitlines()[-1] == "RESULT: PASS"
    assert len(calls) == 1


def test_check_builds_its_context_to_the_deepest_level_it_reads(capsys, monkeypatch,
                                                                 sphere_path):
    # a spec's checks read levels 0 and 1; the family's reach level p + 2
    depths = []

    class Recorded(cli.CurvatureContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            depths.append(self.max_deriv)
    monkeypatch.setattr(cli, "CurvatureContext", Recorded)
    for argv, depth in ((["--spec", sphere_path, "--point", "0.8,0.1"], 1),
                        (["--family", "p=1, f=exp(y)"], 3)):
        depths.clear()
        code, out, _ = run(capsys, ["check", *argv, "--seed", "7"])
        assert code == 0 and out.splitlines()[-1] == "RESULT: PASS"
        assert depths == [depth]


def test_check_refuses_a_family_whose_jet_space_is_too_large(capsys):
    # p = 12 needs 145,422,675 multi-indices: one input-error line at once,
    # where it took 12 s and gigabytes to fail with a MemoryError
    code, out, err = run(capsys, ["check", "--family", "p=12,f=exp(y)+exp(2*y)", "--seed", "1"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("jetgeo: input error: a jet space of order 16 in 14 variables")


@pytest.mark.xfail(strict=True, reason="the Runge-Kutta route's error (rtol 1e-10) reaches the "
                   "fixed 1e-9 route-gap bound: ROADMAP, known defects")
def test_check_geodesic_roundtrip_passes_on_a_long_trajectory(capsys):
    # the trajectory reaches |u| = 4.7; against scipy's DOP853 at rtol 1e-13
    # the direct route is 1.3e-12 off and the Runge-Kutta route 1.18e-9 off,
    # so the route gap of 1.18e-9 is the Runge-Kutta route's own error
    code, out, _ = run(capsys, ["check", "--family", "p=0,f=exp(y)+exp(2*y)", "--seed", "7"])
    assert code == 0, [l for l in out.splitlines() if l.startswith("geodesic_roundtrip")]


def test_check_sphere_controls(capsys, sphere_path):
    code, out, _ = run(
        capsys, ["check", "--spec", sphere_path, "--point", "0.8,0.1", "--seed", "7"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "RESULT: PASS"
    control = [l for l in lines if l.startswith("weyl_control: PASS")][0]
    assert "tau=" in control
    # family-only checks are skipped, and skipping does not fail the run
    for name in ("ricci_flat", "nilpotency", "frame_model"):
        assert any(l.startswith(f"{name}: SKIP") for l in lines), name
    # the direct route's skip detail is the structure report's blocking list
    blocking = "; ".join(triangular_report(two_sphere()).blocking)
    assert blocking
    geo_line = [l for l in lines if l.startswith("geodesic_roundtrip: PASS")][0]
    assert geo_line.endswith(f", direct route skipped: {blocking})")


def test_check_flat_spec_skips_weyl_control(capsys, tmp_path):
    # tau, r2 and ric2 all vanish on a flat metric, so they control nothing
    path = tmp_path / "flat.json"
    save_metric(flat_metric(("u", "v", "w"), (1, 2)), str(path))
    code, out, _ = run(capsys, ["check", "--spec", str(path), "--point", "0.3,0.2,0.1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "RESULT: PASS"
    assert "weyl_control: SKIP (all three vanish here: tau=0.0, r2=0.0, ric2=0.0)" in lines


def test_check_degenerate_profile_fails_precondition(capsys):
    code, out, _ = run(capsys, ["check", "--family", "p=0, f=y^2", "--seed", "42"])
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "RESULT: FAIL"
    assert any(l.startswith("frame_model: FAIL-PRECONDITION") for l in lines)
    # the structural identities still hold for this profile
    assert any(l.startswith("symmetry: PASS") for l in lines)


# ------------------------------------------------------------------- errors
@pytest.mark.parametrize(
    "argv,needle",
    [
        (["curvature", "--family", "p=0 f=exp(y)", "--point", "0,0,0,0,0,0"],
         "--family must look like"),
        (["curvature", "--family", "p=0, f=exp(y)", "--point", "0,0,0"],
         "needs 6 coordinates"),
        (["curvature", "--family", "p=0, f=exp(y)", "--point", "0,0,0,0,0,0",
          "--k", "9"], "--k must be in 0..8"),
        (["curvature", "--family", "p=0, f=exp(q)", "--point", "0,0,0,0,0,0"],
         "unknown identifier 'q'"),
        (["alpha", "--family", "p=0, f=exp(y)"], "needs --grid"),
        (["alpha", "--family", "p=0, f=exp(y)", "--grid", "z=0:1:3"],
         "grid over 'z'"),
        (["alpha", "--family", "p=0, f=y^8 + y^9", "--grid", "y=-0.5:0.5:3"],
         "positive at y=-0.5"),
        (["curvature", "--family", "p=0, f=exp(y)", "--point", "nan,0,0,0,0,0"],
         "--point must be finite"),
        (["check", "--family", "p=0, f=exp(y)", "--point", "0,-inf,0,0,0,0"],
         "--point must be finite"),
        (["alpha", "--family", "p=0, f=exp(y)", "--grid", "y=0:nan:3"],
         "grid bounds must be finite"),
        (["alpha", "--family", "p=0, f=exp(y)", "--grid", "y=-1e400:1:3"],
         "grid bounds must be finite"),
        (["check", "--family", "p=0,f=exp(y)", "--tol", "-1"], "--tol must be finite and >= 0"),
        (["check", "--family", "p=0,f=exp(y)", "--tol", "nan"], "--tol must be finite and >= 0"),
        (["check", "--family", "p=0,f=exp(y)", "--tol", "inf"], "--tol must be finite and >= 0"),
        (["check", "--family", "p=0,f=exp(y)", "--seed", "-1"], "--seed must be >= 0"),
        (["curvature", "--family", "p=0,f=" + "(" * 300 + "y" + ")" * 300,
          "--point", "0,0,0,0,0,0"], "expression is nested too deeply"),
        # numpy refuses both sample counts before it allocates: 71 PiB of
        # doubles, and a count past its largest array size
        (["alpha", "--family", "p=0,f=exp(y)", "--grid", "y=0:1:10000000000000000"],
         "cannot hold a grid of 10000000000000000 samples"),
        (["alpha", "--family", "p=0,f=exp(y)", "--grid", "y=0:1:100000000000000000000"],
         "cannot hold a grid of 100000000000000000000 samples"),
        (["check", "--family", "p=0,f=1e999*y"], "number '1e999' is not finite as a float"),
    ],
)
def test_input_errors_exit_2(capsys, argv, needle):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("jetgeo: input error: ")
    assert needle in err
    assert out == "" and err.count("\n") == 1


@pytest.mark.parametrize("expr", [
    "(" * 3000 + "x" + ")" * 3000,
    "-" * 3000 + "x",
    "exp(" * 1200 + "x" + ")" * 1200,
    # under the parser's own limit, they still run out of stack in it or in
    # a later walk of the tree
    "(" * 247 + "x" + ")" * 247,
    "-" * 990 + "x",
], ids=["parens-3000", "minus-3000", "exp-1200", "parens-247", "minus-990"])
def test_deeply_nested_spec_exits_2(capsys, tmp_path, expr):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "dim": 2, "coords": ["x", "y"], "signature": [0, 2],
        "components": [{"i": 0, "j": 0, "expr": expr}, {"i": 1, "j": 1, "expr": "1"}]}))
    code, out, err = run(capsys, ["check", "--spec", str(path), "--point", "0.5,0.5"])
    assert code == 2 and out == ""
    assert err == "jetgeo: input error: expression is nested too deeply\n"


@pytest.mark.parametrize("argv,needle", [
    (["check", "--spec", "{tmp}", "--point", "0,0"], "cannot read spec file {tmp}"),
    (["curvature", "--family", "p=0,f=exp(y)", "--point", "0,0,0,0,0,0",
      "--out", "{tmp}/missing/x.csv"], "cannot write --out {tmp}/missing/x.csv"),
], ids=["spec-is-a-directory", "out-in-a-missing-directory"])
def test_bad_paths_exit_2(capsys, tmp_path, argv, needle):
    code, out, err = run(capsys, [a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    assert err.startswith("jetgeo: input error: ")
    assert needle.format(tmp=tmp_path) in err
    assert out == "" and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["curvature", "--family", "p=0,f=exp(y)", "--point", "0,0,0,0,0,0", "--seed", "3"],
    ["curvature", "--family", "p=0,f=exp(y)", "--point", "0,0,0,0,0,0", "--tol", "1e-3"],
    ["alpha", "--family", "p=0,f=exp(y)", "--grid", "y=0:1:3", "--seed", "3"],
    ["alpha", "--family", "p=0,f=exp(y)", "--grid", "y=0:1:3", "--tol", "1e-3"],
])
def test_seed_and_tol_belong_to_check_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_alpha_overflow_is_one_stderr_line():
    # exp(1000 y) overflows the closed forms at y = 0.5 and leaves the metric
    # numerically degenerate there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, "-m", "jetgeo.cli", "alpha", "--family", "p=0,f=exp(1000*y)",
         "--grid", "y=0:1:3"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert res.stderr.startswith("jetgeo: numeric failure: SingularMetricError: ")


def _conformal_exp_spec(tmp_path, rate):
    # exp(rate * x) (dx^2 + dy^2): flat, and its jets overflow at large x
    path = tmp_path / f"exp{rate}.json"
    entry = f"exp({rate}*x)"
    path.write_text(json.dumps({"dim": 2, "coords": ["x", "y"], "signature": [0, 2],
                                "components": [{"i": 0, "j": 0, "expr": entry},
                                               {"i": 1, "j": 1, "expr": entry}]}))
    return str(path)


def _cli_process(*argv):
    # a process of its own, where numpy warnings reach stderr as they would
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "jetgeo.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_non_finite_curvature_is_one_stderr_line(tmp_path):
    # the level-0 jets of order 6 overflow here; their point values at
    # order 0 do not, and levels are built only when asked for.  The
    # overflow is one of magnitude: at x = 2.2 the jets stay finite
    spec = _conformal_exp_spec(tmp_path, 300)
    res = _cli_process("curvature", "--spec", spec, "--point=2.245,0.0", "--k", "6")
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr == ("jetgeo: numeric failure: NonFiniteError: "
                          "non-finite coefficients in the curvature jets\n")
    res = _cli_process("curvature", "--spec", spec, "--point=2.245,0.0", "--k", "0")
    assert res.returncode == 0 and res.stderr == ""


def test_metric_overflow_is_one_stderr_line(tmp_path):
    res = _cli_process("curvature", "--spec", _conformal_exp_spec(tmp_path, 700),
                       "--point=1.0,0.0", "--k", "0")
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr == ("jetgeo: numeric failure: NonFiniteError: "
                          "non-finite coefficients in jet exp\n")


def test_infinite_rate_in_a_jet_exp_is_one_stderr_line(tmp_path):
    # 10^400 is inf as a float, so the jet of exp's argument is -inf * x:
    # the first product of its series forms inf * 0 = nan, as the pair
    # table of x's own jets did, and the jet exp raises, though the metric
    # is finite at the point (exp(-inf) is 0)
    path = tmp_path / "rate.json"
    path.write_text(json.dumps({"dim": 2, "coords": ["x", "y"], "signature": [0, 2],
                                "components": [{"i": 0, "j": 0, "expr": "1.0"},
                                               {"i": 1, "j": 1,
                                                "expr": "1 + exp(-(10^400)*x)*y^2"}]}))
    res = _cli_process("curvature", "--spec", str(path), "--point=0.5,0.5", "--k", "1")
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr == ("jetgeo: numeric failure: NonFiniteError: "
                          "non-finite coefficients in jet exp\n")


def test_sin_of_infinite_argument_is_a_numeric_failure(tmp_path):
    # 1e308 * x * 10 is inf at x = 1: a NonFiniteError, not an internal error
    path = tmp_path / "sin.json"
    path.write_text(json.dumps({"dim": 2, "coords": ["x", "y"], "signature": [0, 2],
                                "components": [{"i": 0, "j": 0, "expr": "2 + sin(1e308*x*10)"},
                                               {"i": 1, "j": 1, "expr": "1"}]}))
    res = _cli_process("curvature", "--spec", str(path), "--point", "1,0")
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert res.stderr.startswith("jetgeo: numeric failure: NonFiniteError: ")


def test_overflowing_invariants_print_no_warning(tmp_path):
    # r2 and ric2 overflow: the control fails, and nothing goes to stderr
    res = _cli_process("check", "--spec", _conformal_exp_spec(tmp_path, 300), "--point=2.2,0.0")
    assert res.returncode == 1 and res.stderr == ""
    assert "weyl_control: FAIL (expected-nonzero control: " in res.stdout
    assert "r2=inf, ric2=inf)" in res.stdout


def test_numeric_failure_exits_3(capsys, sphere_path):
    code, out, err = run(
        capsys, ["curvature", "--spec", sphere_path, "--point", "0,0", "--k", "0"]
    )
    assert code == 3
    assert err.startswith("jetgeo: numeric failure: ")
    assert "degenerate" in err


def test_check_accepts_an_ill_scaled_metric(capsys, tmp_path, sphere_path):
    # 1e-11 (ds^2 + dt^2) + exp(2y)(dx^2 + dy^2) has eigenvalues 1e-11 and
    # 1.49, far above eigvalsh's backward error: it is checked, not refused;
    # the sphere at its pole is singular and still exits 3
    path = tmp_path / "ill_scaled.json"
    save_metric(metric_from_strings(("s", "t", "x", "y"), {
        (0, 0): "1e-11", (1, 1): "1e-11", (2, 2): "exp(2*y)", (3, 3): "exp(2*y)"}, (0, 4)),
        str(path))
    code, out, err = run(capsys, ["check", "--spec", str(path), "--point", "0,0,0.1,0.2"])
    assert (code, err) == (0, "") and out.splitlines()[-1] == "RESULT: PASS"
    code, out, err = run(capsys, ["check", "--spec", sphere_path, "--point", "0,0.3"])
    assert code == 3 and out == ""
    assert err.startswith("jetgeo: numeric failure: SingularMetricError: metric degenerate")


def test_non_finite_metric_exits_3(capsys):
    # an infinite g_00 is reported as such, not as a signature of (0, 0)
    code, out, err = run(capsys, ["curvature", "--family", "p=0,f=1e200*1e200",
                                  "--point", "0,0,0,0,0,0"])
    assert code == 3 and out == ""
    assert err == ("jetgeo: numeric failure: NonFiniteError: "
                   "metric not finite at (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)\n")


@pytest.mark.parametrize("point", ["inf,0.3", "1e400,0.3"])
def test_non_finite_point_on_spec_exits_2(capsys, sphere_path, point):
    code, out, err = run(capsys, ["curvature", "--spec", sphere_path, "--point", point])
    assert code == 2 and out == ""
    assert err == f"jetgeo: input error: --point must be finite, got {point!r}\n"


@pytest.mark.parametrize("command", ["curvature", "check"])
def test_negative_point_takes_the_equals_form(capsys, sphere_path, command):
    # after a space argparse reads "-0.5,0.1" as an option
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--spec", sphere_path, "--point", "-0.5,0.1"])
    assert exc.value.code == 2
    assert "argument --point: expected one argument" in capsys.readouterr().err
    code, out, err = run(capsys, [command, "--spec", sphere_path, "--point=-0.5,0.1"])
    assert code == 0 and err == ""
    assert "# point: -0.5,0.1\n" in out


@pytest.mark.parametrize("command", ["curvature", "check"])
def test_point_help_shows_the_equals_form(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert "--point=-0.5,0.1" in capsys.readouterr().out


def test_short_signature_in_spec_exits_2(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(
        '{"dim": 2, "coords": ["a", "b"], "signature": [0], "components": '
        '[{"i": 0, "j": 0, "expr": "1"}, {"i": 1, "j": 1, "expr": "1"}]}'
    )
    code, out, err = run(capsys, ["curvature", "--spec", str(path), "--point", "1,0"])
    assert code == 2 and out == ""
    assert err.startswith(f"jetgeo: input error: bad spec file {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("field,value", [("dim", 2.0), ("signature", [0, 2.7]),
                                         ("i", False), ("j", 0.9)])
def test_non_integer_spec_field_exits_2(capsys, tmp_path, sphere_path, field, value):
    # README's S^2 spec with one integer field edited: no longer read as an int
    data = json.loads(Path(sphere_path).read_text())
    if field in ("i", "j"):
        data["components"][1][field] = value
    else:
        data[field] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["check", "--spec", str(path), "--point=0.8,0.3"])
    assert code == 2 and out == ""
    assert err.startswith(f"jetgeo: input error: bad spec file {path}: {field} must be an integer")
    assert err.count("\n") == 1


@pytest.mark.parametrize("edit,needle", [
    (lambda d: d["components"].append({"i": 1, "j": 1, "expr": "5"}),
     "component (1, 1) given more than once"),
    (lambda d: d.update(signature=[0, 2, 7]), "signature must hold two counts, got [0, 2, 7]"),
], ids=["repeated-entry", "three-counts"])
@pytest.mark.parametrize("command", [["check"], ["curvature", "--k", "0"]], ids=["check", "curvature"])
def test_malformed_spec_exits_2(capsys, tmp_path, sphere_path, edit, needle, command):
    # README's S^2 spec with a repeated entry, or a third signature count:
    # it loaded as another metric (a repeat kept the last, a constant one)
    data = json.loads(Path(sphere_path).read_text())
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command + ["--spec", str(path), "--point=0.8,0.3"])
    assert code == 2 and out == ""
    assert err == f"jetgeo: input error: bad spec file {path}: {needle}\n"


def test_unbounded_quadrature_is_one_stderr_line():
    # the direct route's pending intervals double with each depth here; in a
    # 3 GB address space they ran out of memory (an internal MemoryError)
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3_000_000_000, 3_000_000_000))\n"
            "from jetgeo import cli\n"
            "sys.exit(cli.main(['check', '--family', 'p=0,f=1e180*y^4', '--seed', '1']))\n")
    # one BLAS thread: per-thread buffers on a many-core host would eat into the cap
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert res.stderr.startswith("jetgeo: numeric failure: StepCollapseError: adaptive Simpson ")


def test_runge_kutta_overflow_prints_no_warning():
    # the Runge-Kutta route's error norm overflows: the step is rejected,
    # the round trip fails, and nothing goes to stderr
    res = _cli_process("check", "--family", "p=0,f=1e200*y^3", "--seed", "1")
    assert res.returncode == 1 and res.stderr == ""
    assert "geodesic_roundtrip: FAIL (" in res.stdout


def test_unexpected_error_exits_3_in_one_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(cli, "cmd_curvature", broken)
    code, out, err = run(capsys, ["curvature", "--family", "p=0,f=exp(y)", "--point",
                                  "0,0.1,0.2,0,0,0", "--k", "0"])
    assert code == 3 and out == ""
    assert err == "jetgeo: internal error: RuntimeError: unexpected state\n"
    assert "Traceback" not in err
