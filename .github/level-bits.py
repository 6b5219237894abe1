#!/usr/bin/env python3
"""Compare the curvature engine's jets between two source trees, bit for bit.

    .github/level-bits.py BASE_DIR

BASE_DIR is another checkout of the repository, for instance the commit a
change starts from.  For each context below the script builds, once with
BASE_DIR/src and once with this checkout's src on PYTHONPATH, the inverse
metric, both Christoffel kinds and every curvature level, and hashes each
as a map from index tuple to (codes, values): keys sorted, so that row
order does not count, and -0.0 read as +0.0.  Each level's point-value view
is hashed too, as its sorted (index row, value) pairs.  A context that
raises hashes its error.  The script prints `same: <context>` or
`differs: <context>` for each context, and exits 1 if any differs and 0 if
none does.

The contexts are the family f = exp(y) + exp(2y) at p = 0..5 to level
p + 3, at the base point and at a general point; S^2, H^2 at x = -0.1 and a
conformal surface to level 6; S^2 x a conformal surface to level 4; a
non-diagonal 3-metric to level 3; and S^2 x a flat 38-space, 40
coordinates, to level 8, where the index codes pass int64.
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

    for p in range(6):
        params = fam.FamilyParams(p, ex.parse("exp(y) + exp(2*y)", ("y",)))
        spec = fam.build_metric(params)
        general = tuple(0.1 * (1 + n % 3) for n in range(spec.dim))
        yield f"family p={p}, base point", spec, fam.base_point(params, 0.0), p + 3
        yield f"family p={p}, general point", spec, general, p + 3
    sphere = (("theta", "phi"), ("1.0", "sin(theta)^2"))
    conformal = "exp(2.0*(0.31*{0}^2 - 0.12*{0}*{1} + 0.07*{1}^2 + 0.22*{0} - 0.18*{1}))"
    yield "S2", diagonal(*sphere), (0.8, 0.3), 6
    yield "H2", diagonal(("x", "y"), ("1.0", "exp(2.0*x)")), (-0.1, 0.2), 6
    yield "conformal", diagonal(("x", "y"), (conformal.format("x", "y"),) * 2), (0.2, -0.35), 6
    yield "S2 x conformal", diagonal(("theta", "phi", "s", "t"),
                                     sphere[1] + (conformal.format("s", "t"),) * 2), \
        (0.9, -1.2, 0.3, 0.1), 4
    yield "non-diagonal", metric(
        ("a", "b", "c"),
        {(0, 0): "exp(2*c)", (1, 1): "1 + b^2", (2, 2): "2 + sin(a)",
         (0, 1): "0.5*a", (1, 2): "0.25*c"}), (0.2, -0.3, 0.1), 3
    flat = tuple(f"u{n}" for n in range(38))
    yield "S2 x flat, 40 coordinates", diagonal(sphere[0] + flat, sphere[1] + ("1.0",) * 38), \
        (0.8, 0.3) + (0.0,) * 38, 8


def _jets_bits(jets):
    keys = list(map(tuple, jets.index.tolist()))
    rows = sorted(range(len(keys)), key=keys.__getitem__)
    return [jets.cols.tolist()] + [(keys[n], (jets.vals[n] + 0.0).tobytes()) for n in rows]


def _view_bits(view):
    return sorted(zip(map(tuple, view.index.tolist()), map(float.hex, view.values.tolist())))


def _digests():
    from jetgeo.curvature import CurvatureContext

    for name, spec, point, k_max in _contexts():
        h = hashlib.sha256()
        try:
            ctx = CurvatureContext(spec, point, k_max)
            for jets in (ctx._ginv, ctx._gamma1, ctx._gamma2):
                h.update(repr(_jets_bits(jets)).encode())
            for k in range(k_max + 1):
                h.update(repr(_jets_bits(ctx._level(k))).encode())
                h.update(repr(_view_bits(ctx.curvature(k))).encode())
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
        print(f"differs: {len(base)} contexts against {len(head)}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
