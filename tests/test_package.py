"""The package namespace: public names load their home module on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msqaoa

PUBLIC = [
    "Angles",
    "MixtureFunction",
    "MixtureSpec",
    "MomentGrid",
    "MomentReport",
    "Optimum",
    "ProblemInstance",
    "__version__",
    "approximation_factor",
    "build_phase_table",
    "cost",
    "energy_mixture_form",
    "energy_sigma_form",
    "energy_sigma_grid",
    "estimate_spec",
    "expectation",
    "landscape_instance",
    "make_mixture_spec",
    "optimize_closed_form",
    "oracle_moments",
    "pure_d_spec",
    "read_instance",
    "sample_instance",
    "sketch_moment_grid",
    "sketch_moments",
]


def _fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter and return the JSON it prints last."""
    src = Path(msqaoa.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_all_lists_the_public_names():
    assert msqaoa.__all__ == PUBLIC


@pytest.mark.parametrize("name", [n for n in PUBLIC if n != "__version__"])
def test_a_name_is_the_object_of_its_home_module(name):
    obj = getattr(msqaoa, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("msqaoa.")
    assert getattr(home, name) is obj


def test_dir_lists_every_name():
    assert set(PUBLIC) <= set(dir(msqaoa))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from msqaoa import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["sketch_moments"] is msqaoa.finite_n.sketch_moments


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        msqaoa.no_such_name
    assert not hasattr(msqaoa, "LEVELS")


def test_importing_the_package_loads_no_engine():
    loaded = _fresh(
        "import json, sys, msqaoa; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('msqaoa'))))"
    )
    assert loaded == ["msqaoa"]


def test_a_name_loads_only_its_home_module():
    loaded = _fresh(
        "import json, sys, msqaoa; msqaoa.sketch_moments; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('msqaoa'))))"
    )
    assert loaded == ["msqaoa", "msqaoa.closed_form", "msqaoa.errors", "msqaoa.finite_n",
                      "msqaoa.model"]


def test_from_import_of_a_submodule():
    found = _fresh(
        "import json, sys; from msqaoa import finite_n, verify; "
        "print(json.dumps([finite_n is sys.modules['msqaoa.finite_n'], "
        "verify is sys.modules['msqaoa.verify']]))"
    )
    assert found == [True, True]


def test_readme_library_example_runs():
    # every ```python block of the README, run as written
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
