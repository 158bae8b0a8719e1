"""Depth-1 QAOA energy per spin on mixed-spin Sherrington-Kirkpatrick models.

Pieces: infinite-size closed forms (``closed_form``), exact finite-n
disorder-averaged moments via sketch sums with a brute-force oracle
(``finite_n``), per-instance statevector simulation (``simulator``), angle
optimization (``optimizer``), and a CLI (``msqaoa``).
"""

from .closed_form import (
    Angles,
    EnergyDerivatives,
    d3_stationarity_residuals,
    energy_derivatives,
    energy_mixture_form,
    energy_pure_d,
    energy_sigma_form,
    energy_sigma_grid,
)
from .finite_n import (
    MomentGrid,
    MomentReport,
    Sketch,
    f_q,
    f_q_abc,
    g_q,
    generating_function,
    oracle_mgf,
    oracle_moments,
    sketch_moment_grid,
    sketch_moments,
    t_sum,
)
from .model import (
    MixtureFunction,
    MixtureSpec,
    ProblemInstance,
    cost,
    estimate_spec,
    from_mixture_function,
    make_mixture_spec,
    pure_d_spec,
    read_instance,
    sample_instance,
)
from .optimizer import Optimum, approximation_factor, optimize_closed_form
from .simulator import build_phase_table, expectation, landscape_instance, qaoa_state

__version__ = "0.1.0"

__all__ = [
    "Angles",
    "EnergyDerivatives",
    "MixtureFunction",
    "MixtureSpec",
    "MomentGrid",
    "MomentReport",
    "Optimum",
    "ProblemInstance",
    "Sketch",
    "__version__",
    "approximation_factor",
    "build_phase_table",
    "cost",
    "d3_stationarity_residuals",
    "energy_derivatives",
    "energy_mixture_form",
    "energy_pure_d",
    "energy_sigma_form",
    "energy_sigma_grid",
    "estimate_spec",
    "expectation",
    "f_q",
    "f_q_abc",
    "from_mixture_function",
    "g_q",
    "generating_function",
    "landscape_instance",
    "make_mixture_spec",
    "optimize_closed_form",
    "oracle_mgf",
    "oracle_moments",
    "pure_d_spec",
    "qaoa_state",
    "read_instance",
    "sample_instance",
    "sketch_moment_grid",
    "sketch_moments",
    "t_sum",
]
