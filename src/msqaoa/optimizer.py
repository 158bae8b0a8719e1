"""Optimal (beta*, gamma*) for the infinite-size closed-form energy per spin.

The search is fixed.  A 65x65 grid scan over beta in [-pi/4, pi/4] and
gamma in +-2/sqrt(xi'(1)) handles the multimodal beta landscape; a
safeguarded Newton descent on the closed form's exact gradient and Hessian
(``closed_form.energy_derivatives``) polishes the best cell.  A step is the
Newton step where the Hessian is positive definite and the negative gradient
elsewhere, halved until the energy does not increase, so the polish only
ever descends from the grid value; it stops after at most 500 evaluations.
The reported optimum is one representative of its class under
beta -> beta + pi and (beta, gamma) -> (-beta, -gamma) (``_canonical``):
gamma* <= 0 and beta* in (-pi/2, pi/2] are enforced; beta* >= 0 is observed
on pure d = 1..24 and 601 mixtures, not enforced.  It counts as
converged when the exact gradient there is below 1e-7 and the exact Hessian
is positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .closed_form import (
    Angles,
    EnergyDerivatives,
    damping_rate,
    energy_derivatives,
    energy_sigma_form,
    energy_sigma_grid,
)
from .errors import ValidationError
from .model import MixtureSpec

__all__ = [
    "Optimum",
    "optimize_closed_form",
    "approximation_factor",
]


_POLISH_BUDGET = 500  # bound on the polish's evaluations


@dataclass(frozen=True)
class Optimum:
    angles: Angles
    value: float
    grid_value: float = field(repr=False, default=math.nan)
    refinement_iterations: int = 0
    converged: bool = False
    gradient_norm: float = math.nan


def _canonical(angles: Angles) -> Angles:
    """beta in (-pi/2, pi/2], then gamma <= 0, and beta >= 0 where gamma = 0.
    beta - pi * k can round to -pi/2 or past either end; the exact
    math.remainder then reduces it again."""
    beta = angles.beta - math.pi * math.floor(angles.beta / math.pi + 0.5)
    if not -math.pi / 2 < beta <= math.pi / 2:
        beta = math.remainder(beta, math.pi)
        beta = math.pi / 2 if beta == -math.pi / 2 else beta
    if angles.gamma > 0 or (angles.gamma == 0 and beta < 0):
        return Angles(beta if beta == math.pi / 2 else -beta, -angles.gamma)
    return Angles(beta, angles.gamma)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _positive_definite(der: EnergyDerivatives) -> bool:
    hbb, hbg, hgg = der.hessian
    return _finite(hbb, hbg, hgg) and hbb > 0 and hbb * hgg - hbg * hbg > 0


def _descent_direction(der: EnergyDerivatives) -> Optional[tuple[float, float]]:
    """The Newton step where the Hessian is positive definite, else the
    negative gradient; None when a derivative is not finite."""
    gb, gg = der.gradient
    hbb, hbg, hgg = der.hessian
    if not _finite(gb, gg, hbb, hbg, hgg):
        return None
    if _positive_definite(der):
        det = hbb * hgg - hbg * hbg
        newton = ((hbg * gg - hgg * gb) / det, (hbg * gb - hbb * gg) / det)
        if _finite(*newton):
            return newton
    return (-gb, -gg)


def _newton_polish(
    spec: MixtureSpec, x0: tuple[float, float], value: float, budget: int
) -> tuple[tuple[float, float], int]:
    """Descend from x0, whose energy is ``value``, by safeguarded Newton steps.

    Each iteration takes the exact derivatives at x (one evaluation) and
    tries the step of ``_descent_direction``, halving it until
    ``energy_sigma_form`` does not increase (one evaluation per finite trial
    point; a non-finite trial point is halved without being evaluated).
    The polish stops on a non-finite derivative, on a step below the float
    spacing of x (rounding noise of an already stationary point), when no
    step is accepted, after a step that leaves the energy unchanged (flat to
    rounding), or when ``budget`` evaluations are used up.  Returns the last
    accepted point and the number of derivative evaluations.
    """
    x = x0
    evaluations = iterations = 0
    while evaluations < budget:
        der = energy_derivatives(spec, Angles(*x))
        evaluations += 1
        iterations += 1
        direction = _descent_direction(der)
        if direction is None or all(abs(d) < math.ulp(v) for d, v in zip(direction, x)):
            break
        step, accepted = 1.0, None
        while accepted is None and evaluations < budget:
            trial = (x[0] + step * direction[0], x[1] + step * direction[1])
            if trial == x:
                break
            if _finite(*trial):
                trial_value = energy_sigma_form(spec, Angles(*trial))
                evaluations += 1
                if trial_value <= value:
                    accepted = trial_value
            step /= 2
        if accepted is None:
            break
        flat = accepted == value
        x, value = trial, accepted
        if flat:
            break
    return x, iterations


def optimize_closed_form(spec: MixtureSpec) -> Optimum:
    """Minimize the infinite-n energy per spin over (beta, gamma).

    Scans the 65x65 grid of beta in [-pi/4, pi/4] and gamma in
    +-2/sqrt(rate), rate = xi'(1) (``damping_rate``), then polishes the best
    cell below inf with ``_newton_polish``.  ValidationError when that gamma
    range cannot be formed in floats.
    """
    rate = damping_rate(spec)
    if not rate > 0:
        raise ValidationError(
            f"the damping rate of sigmas {spec.sigmas} underflows to 0, "
            "so the gamma range +-2/sqrt(rate) does not exist"
        )
    gmax = 2.0 / math.sqrt(rate)
    # the closed form decays as exp(-2 g^2 a rate); below a rate of about
    # 2.2e-308 gmax*gmax overflows and every grid value would come out +-0
    if not math.isfinite(gmax * gmax * rate):
        raise ValidationError(
            f"the damping rate {rate!r} of sigmas {spec.sigmas} is so small "
            "that g*g*rate overflows on the gamma range +-2/sqrt(rate)"
        )

    betas = np.linspace(-math.pi / 4, math.pi / 4, 65)
    gammas = np.linspace(-gmax, gmax, 65)
    # The first row-major minimum among values below inf, as a strict-< scan
    # from inf keeps it; with no such value, the first cell and inf.
    grid = energy_sigma_grid(spec, betas, gammas)
    below_inf = np.where(grid < math.inf, grid, math.inf)
    bi, gi = np.unravel_index(np.argmin(below_inf), grid.shape)
    grid_best = float(below_inf[bi, gi])
    x0 = (float(betas[bi]), float(gammas[gi]))

    x, iterations = _newton_polish(spec, x0, grid_best, _POLISH_BUDGET)
    # Canonicalizing can move beta by pi, which rounds; keep the contract that
    # the reported value never exceeds the grid's.  The derivatives' value is
    # energy_sigma_form's, bit for bit.
    angles = _canonical(Angles(*x))
    at_optimum = energy_derivatives(spec, angles)
    if at_optimum.value > grid_best:
        angles = _canonical(Angles(*x0))
        at_optimum = energy_derivatives(spec, angles)
    gradient_norm = math.hypot(*at_optimum.gradient)
    return Optimum(
        angles=angles,
        value=at_optimum.value,
        grid_value=grid_best,
        refinement_iterations=iterations,
        converged=gradient_norm < 1e-7 and _positive_definite(at_optimum),
        gradient_norm=gradient_norm,
    )


def approximation_factor(value: float, ground_state_per_spin: float) -> float:
    """Ratio of an achieved energy per spin to a (negative) ground-state value."""
    if not (math.isfinite(ground_state_per_spin) and ground_state_per_spin < 0):
        raise ValidationError(
            "ground-state energy per spin must be finite and negative, "
            f"got {ground_state_per_spin}"
        )
    return value / ground_state_per_spin
