#!/usr/bin/env python3
"""Compare the curvature engine's jets between two source trees, bit for bit.

    .github/level-bits.py BASE_DIR

BASE_DIR is another checkout of the repository, for instance the commit a
change starts from.  For each context below the script builds, once with
BASE_DIR/src and once with this checkout's src on PYTHONPATH, the inverse
metric, both Christoffel kinds and every curvature level, and hashes each
as a map from index tuple to (codes, values): keys sorted, so that row
order does not count, and -0.0 read as +0.0.  The inverse is hashed
truncated to max_deriv + 1, the order of its reader, the Christoffel
symbols, with the rows that truncation leaves zero dropped, so that a tree
that computes it to a higher order matches one that stops there.  Each level's point-value view
is hashed too, as its sorted (index row, value) pairs, and so are
`jacobi_operator` and `skew_curvature_operator` on 50 seeded directions and
planes, as one stack and one at a time.  The metric jets each build starts
from (`_g_rows`: index, columns and values, as they are, -0.0 included) are
hashed too, so that the expression jets are compared directly and not only
through the inverse; and for the family, `family.profile_derivs(params, y,
p + 4)` at the build's y, the one expression jet that has no spec.  A
context that raises hashes its error.  After every first build, each context is built and hashed a second
time, from the same spec and point, so that listings and derivative shifts
that a build reuses from an earlier one are compared too.  After all of
those, each context is built and hashed a third time, from the same spec
object at a second general point, so that plans a spec keeps from one
point (`MetricSpec.plans`) are replayed at another and compared with the
other tree's build there.  The script prints `same: <context>` or
`differs: <context>` for each build, and exits 1 if any differs and 0 if
none does.

The 19 contexts, 57 builds (each hashing its metric jets, and the 39 of
the family also their profile derivatives), are the family
f = exp(y) + exp(2y) at p = 0..5 to level p + 3, at the base point and at
a general point, and at p = 8 to level 11 at a general point, where the
top jet space holds
1,144,066 multi-indices; S^2, H^2 at x = -0.1 and a conformal surface to
level 6; S^2 x a conformal surface to level 4; a non-diagonal 3-metric to
level 3; and S^2 x a flat 38-space, 40 coordinates, to level 8, where the
index codes pass int64.  The family's two contexts of one p share one spec
object, so their builds take turns on its plans.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

DIGESTS = "--digests"  # the child's mode: print one digest per context


def _contexts():
    from jetgeo import expr as ex
    from jetgeo import family as fam
    from jetgeo.metric import metric_from_strings

    def metric(coords, entries):
        return metric_from_strings(coords, entries, (0, len(coords)))

    def diagonal(coords, diag):
        return metric(coords, {(i, i): e for i, e in enumerate(diag)})

    # (name, spec, point, second general point, deepest level, family
    # parameters or None)
    for p in (0, 1, 2, 3, 4, 5, 8):
        params = fam.FamilyParams(p, ex.parse("exp(y) + exp(2*y)", ("y",)))
        spec = fam.build_metric(params)
        general = tuple(0.1 * (1 + n % 3) for n in range(spec.dim))
        if p < 6:
            yield f"family p={p}, base point", spec, fam.base_point(params, 0.0), \
                tuple(-0.05 * (1 + n % 4) for n in range(spec.dim)), p + 3, params
        yield f"family p={p}, general point", spec, general, \
            tuple(0.2 - 0.05 * (n % 5) for n in range(spec.dim)), p + 3, params
    sphere = (("theta", "phi"), ("1.0", "sin(theta)^2"))
    conformal = "exp(2.0*(0.31*{0}^2 - 0.12*{0}*{1} + 0.07*{1}^2 + 0.22*{0} - 0.18*{1}))"
    yield "S2", diagonal(*sphere), (0.8, 0.3), (1.1, -0.4), 6, None
    yield "H2", diagonal(("x", "y"), ("1.0", "exp(2.0*x)")), (-0.1, 0.2), (0.3, -0.5), 6, None
    yield "conformal", diagonal(("x", "y"), (conformal.format("x", "y"),) * 2), (0.2, -0.35), \
        (-0.3, 0.25), 6, None
    yield "S2 x conformal", diagonal(("theta", "phi", "s", "t"),
                                     sphere[1] + (conformal.format("s", "t"),) * 2), \
        (0.9, -1.2, 0.3, 0.1), (1.2, 0.4, -0.2, 0.3), 4, None
    yield "non-diagonal", metric(
        ("a", "b", "c"),
        {(0, 0): "exp(2*c)", (1, 1): "1 + b^2", (2, 2): "2 + sin(a)",
         (0, 1): "0.5*a", (1, 2): "0.25*c"}), (0.2, -0.3, 0.1), (-0.1, 0.4, 0.3), 3, None
    flat = tuple(f"u{n}" for n in range(38))
    yield "S2 x flat, 40 coordinates", diagonal(sphere[0] + flat, sphere[1] + ("1.0",) * 38), \
        (0.8, 0.3) + (0.0,) * 38, (1.2, -0.7) + (0.1,) * 38, 8, None


def _jets_bits(jets, order=None):
    cols, vals = (jets.cols, jets.vals) if order is None else jets.cut(order)
    keys = list(map(tuple, jets.index.tolist()))
    rows = sorted((n for n in range(len(keys)) if vals[n].any()), key=keys.__getitem__)
    return [cols.tolist()] + [(keys[n], (vals[n] + 0.0).tobytes()) for n in rows]


def _view_bits(view):
    return sorted(zip(map(tuple, view.index.tolist()), map(float.hex, view.values.tolist())))


def _digests():
    import numpy as np
    from jetgeo import family as fam
    from jetgeo.curvature import CurvatureContext, jacobi_operator, skew_curvature_operator

    contexts = list(_contexts())
    builds = ([(name, spec, point, k, params) for name, spec, point, _, k, params in contexts]
              + [(f"{name}, second build", spec, point, k, params)
                 for name, spec, point, _, k, params in contexts]
              + [(f"{name}, third build at a second point", spec, second, k, params)
                 for name, spec, _, second, k, params in contexts])
    for name, spec, point, k_max, params in builds:
        h = hashlib.sha256()
        try:
            if params is not None:
                h.update(fam.profile_derivs(params, point[1], params.p + 4).tobytes())
            ctx = CurvatureContext(spec, point, k_max)
            g = ctx._g_rows
            h.update(g.index.tobytes() + repr(g.cols.tolist()).encode() + g.vals.tobytes())
            h.update(repr(_jets_bits(ctx._ginv, ctx.order - 1)).encode())
            for jets in (ctx._gamma1, ctx._gamma2):
                h.update(repr(_jets_bits(jets)).encode())
            for k in range(k_max + 1):
                h.update(repr(_jets_bits(ctx._level(k))).encode())
                h.update(repr(_view_bits(ctx.curvature(k))).encode())
            x, e1, e2 = np.random.default_rng(0).standard_normal((3, 50, ctx.dim))
            for op in (jacobi_operator(ctx, x), skew_curvature_operator(ctx, e1, e2),
                       *map(jacobi_operator, [ctx] * 50, x),
                       *map(skew_curvature_operator, [ctx] * 50, e1, e2)):
                h.update(op.tobytes())
        except Exception as err:  # the same error on both sides is a match
            h.update(repr(err).encode())
        print(f"{h.hexdigest()} {name}")


def _run(src: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, __file__, DIGESTS], env=env, check=True,
                         stdout=subprocess.PIPE, text=True)
    return out.stdout.splitlines()


def main(argv: list[str]) -> int:
    if argv == [DIGESTS]:
        _digests()
        return 0
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "jetgeo").is_dir():
        print(f"usage: {sys.argv[0]} BASE_DIR (a checkout with src/jetgeo)", file=sys.stderr)
        return 2
    base = _run(Path(argv[0]).resolve() / "src")
    head = _run(Path(__file__).resolve().parent.parent / "src")
    status = 0
    for b, c in zip(base, head):
        name = c.split(" ", 1)[1]
        if b == c:
            print(f"same: {name}")
        else:
            print(f"differs: {name}")
            status = 1
    if len(base) != len(head):
        print(f"differs: {len(base)} builds against {len(head)}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
