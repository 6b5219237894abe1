"""The README's Python examples, run in order in one namespace, against what
their comments claim."""
import math
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 3
    ns: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    scalar, delta, closed, jacobi = map(float, capsys.readouterr().out.split())
    assert scalar == ns["ctx"].scalar() and math.isclose(scalar, 2.0, rel_tol=1e-14)
    assert delta <= 1e-13
    assert closed == 297 / 289 and math.isclose(jacobi, closed, rel_tol=1e-12)
    drift = ns["drift"]
    assert len(drift) == len(ns["traj"].t) and np.ptp(drift) <= 1e-13 * np.max(np.abs(drift))
    assert len(ns["cat"].schemas) == 1541 and len(ns["values"]) == 1541
    tau = ns["evaluate"](ns["NAMED_SCHEMAS"]["tau"], ns["two_sphere"](), (0.8, 0.3))
    assert math.isclose(tau, 2.0, rel_tol=1e-14)
