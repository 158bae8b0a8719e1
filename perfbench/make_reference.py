#!/usr/bin/env python3
"""Record the finite-grid reference values that ``checks.py`` compares against.

For every pure d-spin model (d = 2..4) and every finite-grid size N above the
oracle's range, stores ``sketch_moments(...).first`` at the four grid points
that lie on 1/4 and 3/4 of the beta and gamma axes, in the order
(b1/4, g1/4), (b1/4, g3/4), (b3/4, g1/4), (b3/4, g3/4).

Run from the repository root, at the commit whose numbers are the reference:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from msqaoa import closed_form, finite_n  # noqa: E402


def main() -> None:
    count = workloads.FINITE_COUNT
    idx = checks.anchor_indices(count)
    betas = np.linspace(*workloads.FINITE_BETA, count)[idx]
    gammas = np.linspace(*workloads.FINITE_GAMMA, count)[idx]
    values = {}
    for d in (2, 3, 4):
        spec = checks.pure_spec(d)
        values[str(d)] = {
            str(n): [
                finite_n.sketch_moments(spec, closed_form.Angles(float(b), float(g)), n).first
                for b in betas
                for g in gammas
            ]
            for n in workloads.FINITE_NS
            if n > checks.ORACLE_MAX_N
        }
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True)
    doc = {
        "commit": commit.stdout.strip(),
        "betas": betas.tolist(),
        "gammas": gammas.tolist(),
        "values": values,
    }
    checks.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
