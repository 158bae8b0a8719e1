"""Depth-1 QAOA energy per spin on mixed-spin Sherrington-Kirkpatrick models.

Pieces: infinite-size closed forms (``closed_form``), exact finite-n
disorder-averaged moments via sketch sums with a brute-force oracle
(``finite_n``), per-instance statevector simulation (``simulator``), angle
optimization (``optimizer``), and a CLI (``msqaoa``).

The public names below are loaded on first use (PEP 562): ``import msqaoa``
imports no engine, and ``msqaoa.sketch_moments`` imports ``finite_n`` only
when it is looked up.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it exports through the package
_EXPORTS = {
    "closed_form": (
        "Angles",
        "energy_mixture_form",
        "energy_sigma_form",
        "energy_sigma_grid",
    ),
    "finite_n": (
        "MomentGrid",
        "MomentReport",
        "oracle_moments",
        "sketch_moment_grid",
        "sketch_moments",
    ),
    "model": (
        "MixtureFunction",
        "MixtureSpec",
        "ProblemInstance",
        "cost",
        "estimate_spec",
        "make_mixture_spec",
        "pure_d_spec",
        "read_instance",
        "sample_instance",
    ),
    "optimizer": ("Optimum", "approximation_factor", "optimize_closed_form"),
    "simulator": ("build_phase_table", "expectation", "landscape_instance"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name: str):
    # Not cached in the package namespace: the name always resolves to what
    # its home module holds now.  Submodules (``msqaoa.finite_n``) are not
    # listed; an AttributeError lets ``from msqaoa import finite_n`` import them.
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
