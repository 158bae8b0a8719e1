"""Optimal (beta*, gamma*) for the infinite-size closed-form energy per spin.

A coarse grid scan handles the multimodal beta landscape; a derivative-free
simplex descent (Nelder-Mead) refines the best cell.  The reported optimum is
the canonical representative of the (+-beta, -+gamma) symmetry pair, with
gamma* <= 0 and beta* >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .closed_form import Angles, damping_rate, energy_sigma_form, energy_sigma_grid
from .errors import EmptyGridError, SignError, ValidationError
from .model import MixtureSpec

__all__ = [
    "SearchConfig",
    "Optimum",
    "CurveRow",
    "optimize_closed_form",
    "optimal_angle_curve",
    "approximation_factor",
    "pure_d_spec",
]


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search settings; identical configs give identical optima."""

    beta_range: tuple[float, float] = (-math.pi / 4, math.pi / 4)
    gamma_range: Optional[tuple[float, float]] = None  # default +-2/sqrt(xi'(1))
    grid: tuple[int, int] = (65, 65)
    refine_budget: int = 500
    simplex_tol: float = 1e-9


@dataclass(frozen=True)
class Optimum:
    angles: Angles
    value: float
    grid_resolution: tuple[int, int]
    grid_value: float = field(repr=False, default=math.nan)
    refinement_iterations: int = 0
    converged: bool = False
    gradient_norm: float = math.nan


def pure_d_spec(d: int) -> MixtureSpec:
    """Pure d-spin disorder, sigma_q = delta_{dq} sqrt(d!/2)."""
    if d < 1:
        raise ValidationError(f"pure d-spin model needs d >= 1, got {d}")
    sigmas = [0.0] * d
    sigmas[d - 1] = math.sqrt(math.factorial(d) / 2)
    return MixtureSpec(d, tuple(sigmas))


def _canonical(angles: Angles) -> Angles:
    a = angles.canonical()
    if a.gamma > 0 or (a.gamma == 0 and a.beta < 0):
        a = Angles(-a.beta, -a.gamma).canonical()
    return a


def _fd_gradient_norm(fun, x: np.ndarray, h: float = 1e-6) -> float:
    g = np.zeros_like(x)
    for i in range(len(x)):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (fun(x + step) - fun(x - step)) / (2 * h)
    return float(np.linalg.norm(g))


def optimize_closed_form(
    spec: MixtureSpec, search: SearchConfig = SearchConfig()
) -> Optimum:
    """Minimize the infinite-n energy per spin over (beta, gamma)."""
    nb, ng = search.grid
    if nb < 1 or ng < 1:
        raise EmptyGridError(f"grid must be non-empty, got {search.grid}")
    if search.gamma_range is None:
        rate = damping_rate(spec)
        if not rate > 0:
            raise ValidationError(
                f"the damping rate of sigmas {spec.sigmas} underflows to 0, "
                "so the default gamma range +-2/sqrt(rate) does not exist"
            )
        gmax = 2.0 / math.sqrt(rate)
        # the closed form decays as exp(-2 g^2 a rate); below a rate of about
        # 2.2e-308 gmax*gmax overflows and every grid value would come out +-0
        if not math.isfinite(gmax * gmax * rate):
            raise ValidationError(
                f"the damping rate {rate!r} of sigmas {spec.sigmas} is so small "
                "that g*g*rate overflows on the default gamma range +-2/sqrt(rate)"
            )
        gamma_range = (-gmax, gmax)
    else:
        gamma_range = search.gamma_range

    def objective(x) -> float:
        return energy_sigma_form(spec, Angles(float(x[0]), float(x[1])))

    betas = np.linspace(search.beta_range[0], search.beta_range[1], nb)
    gammas = np.linspace(gamma_range[0], gamma_range[1], ng)
    # The first row-major minimum among values below inf, as a strict-< scan
    # from inf keeps it; with no such value, the first cell and inf.
    grid = energy_sigma_grid(spec, betas, gammas)
    below_inf = np.where(grid < math.inf, grid, math.inf)
    bi, gi = np.unravel_index(np.argmin(below_inf), grid.shape)
    grid_best = float(below_inf[bi, gi])
    x0 = np.array([betas[bi], gammas[gi]])

    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={
            "maxfev": search.refine_budget,
            "xatol": search.simplex_tol,
            "fatol": search.simplex_tol * 1e-3,
        },
    )
    # Nelder-Mead returns the best vertex seen, so this cannot exceed grid_best;
    # keep the guard anyway to uphold the contract exactly.
    raw = res.x if res.fun <= grid_best else x0
    angles = _canonical(Angles(float(raw[0]), float(raw[1])))
    value = energy_sigma_form(spec, angles)
    if value > grid_best:
        angles = _canonical(Angles(float(x0[0]), float(x0[1])))
        value = energy_sigma_form(spec, angles)
    gradient_norm = _fd_gradient_norm(objective, np.array([angles.beta, angles.gamma]))
    return Optimum(
        angles=angles,
        value=value,
        grid_resolution=(nb, ng),
        grid_value=grid_best,
        refinement_iterations=int(res.nit),
        converged=bool(res.success) and gradient_norm < 1e-7,
        gradient_norm=gradient_norm,
    )


@dataclass(frozen=True)
class CurveRow:
    d: int
    beta: float
    gamma: float
    value: float
    refinement_iterations: int
    converged: bool
    gradient_norm: float


def optimal_angle_curve(
    d_values: Sequence[int], search: SearchConfig = SearchConfig()
) -> list[CurveRow]:
    """Optimal angles and energy per spin for pure d-spin models, one row per d."""
    rows = []
    for d in d_values:
        if d < 2:
            raise ValidationError(f"pure-d curve needs d >= 2, got {d}")
        opt = optimize_closed_form(pure_d_spec(d), search)
        rows.append(
            CurveRow(
                d,
                opt.angles.beta,
                opt.angles.gamma,
                opt.value,
                opt.refinement_iterations,
                opt.converged,
                opt.gradient_norm,
            )
        )
    return rows


def approximation_factor(value: float, ground_state_per_spin: float) -> float:
    """Ratio of an achieved energy per spin to a (negative) ground-state value."""
    if not (math.isfinite(ground_state_per_spin) and ground_state_per_spin < 0):
        raise SignError(
            "ground-state energy per spin must be finite and negative, "
            f"got {ground_state_per_spin}"
        )
    return value / ground_state_per_spin
