"""Infinite-size closed forms for the depth-1 QAOA energy per spin.

Two algebraically identical forms are provided: the explicit double sum over
degrees q and odd powers a (``energy_sigma_form``), and the compact complex
form 2*gamma*Im[xi(cos(2b) + i sin(2b) exp(-2 g^2 xi'(1)))]
(``energy_mixture_form``).  Their agreement to ~1e-12 relative is one of the
package's standing cross-checks.  ``energy_derivatives`` adds the exact
gradient and Hessian of the complex form, for the optimizer's Newton polish.
``Angles`` refuses NaN and +-inf, so no per-point form checks its angles; the
grid form checks its axes with ``require_finite_grid``.  The model types take
every degree bound 1..``model.MAX_DEGREE`` and no other, so no form checks
the degree either; ``energy_pure_d``, which takes a bare d, checks it with
``model.check_degree``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .model import (
    MAX_DEGREE,
    MixtureFunction,
    MixtureSpec,
    check_degree,
    damping_rate,
    pure_d_spec,
)

__all__ = [
    "Angles",
    "energy_sigma_form",
    "energy_sigma_grid",
    "energy_mixture_form",
    "energy_pure_d",
    "EnergyDerivatives",
    "energy_derivatives",
    "StationarityResiduals",
    "d3_stationarity_residuals",
    "require_finite_grid",
]

@dataclass(frozen=True)
class Angles:
    """A (beta, gamma) parameter pair, in radians, both finite: NaN or +-inf
    raises ValidationError, also through ``dataclasses.replace``, so no entry
    point that takes an ``Angles`` checks its angles again.

    The energy is pi-periodic in beta (all dependence is through sin(2b),
    cos(2b)); the canonical representative has beta in (-pi/2, pi/2].
    gamma is otherwise unrestricted.
    """

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and math.isfinite(self.gamma)):
            raise ValidationError(f"angles must be finite, got {self}")

    def canonical(self) -> "Angles":
        beta = self.beta - math.pi * math.floor(self.beta / math.pi + 0.5)
        if beta == -math.pi / 2:
            beta = math.pi / 2
        return Angles(beta, self.gamma)


def require_finite_grid(
    beta_grid: Sequence[float], gamma_grid: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """The two grid axes as float arrays; ValidationError unless each is a
    non-empty sequence of finite angles."""
    betas = np.asarray(beta_grid, dtype=float)
    gammas = np.asarray(gamma_grid, dtype=float)
    if betas.ndim != 1 or gammas.ndim != 1 or betas.size < 1 or gammas.size < 1:
        raise ValidationError("each grid axis must be a non-empty 1-D sequence")
    if not (np.isfinite(betas).all() and np.isfinite(gammas).all()):
        raise ValidationError("grid angles must be finite")
    return betas, gammas


# (a, coef) for each odd a <= q: coef = (-1)^((a-1)/2) / (a! (q-a)!), the
# weight of sin^a(2b) cos^(q-a)(2b) exp(-2 g^2 a rate) in the degree-q term.
_TERMS = tuple(
    tuple(
        (
            a,
            (-1.0 if (a - 1) // 2 % 2 else 1.0)
            / (math.factorial(a) * math.factorial(q - a)),
        )
        for a in range(1, q + 1, 2)
    )
    for q in range(MAX_DEGREE + 1)
)


def energy_sigma_form(spec: MixtureSpec, angles: Angles) -> float:
    """Infinite-n disorder-averaged energy per spin, explicit degree sum."""
    s2b = math.sin(2 * angles.beta)
    c2b = math.cos(2 * angles.beta)
    g = angles.gamma
    rate = damping_rate(spec)
    total = 0.0
    for q in range(1, spec.d + 1):
        sig2 = spec.sigmas[q - 1] ** 2
        if sig2 == 0:
            continue
        inner = 0.0
        for a, coef in _TERMS[q]:
            inner += coef * math.exp(-2 * g * g * a * rate) * s2b**a * c2b ** (q - a)
        total += sig2 * inner
    # not (2 * g) * total: past gamma ~ 9e307, 2 * g is inf where the damping
    # has made total exactly 0; doubling total is exact, so g * 0 stays 0
    return g * (2 * total)


def energy_sigma_grid(
    spec: MixtureSpec, beta_grid: Sequence[float], gamma_grid: Sequence[float]
) -> np.ndarray:
    """``energy_sigma_form`` at every (beta, gamma) of a grid, as a
    (len(betas), len(gammas)) array; ValidationError unless each axis is a
    non-empty 1-D sequence of finite angles.

    Each term is a beta factor times a gamma factor, so ``sin``/``cos`` and
    their powers are taken once per beta, ``exp`` once per gamma and odd
    power a, and each point costs a few array multiply-adds.  The points
    are combined in ``energy_sigma_form``'s operand order with the same
    scalar ``math`` functions, so every value is bit-identical to it.
    """
    betas, gammas = require_finite_grid(beta_grid, gamma_grid)
    rate = damping_rate(spec)
    gs = gammas.tolist()
    sines = [math.sin(2 * b) for b in betas.tolist()]
    cosines = [math.cos(2 * b) for b in betas.tolist()]
    odd = range(1, spec.d + 1, 2)
    damping = {a: np.array([math.exp(-2 * g * g * a * rate) for g in gs]) for a in odd}
    sin_pow = {a: np.array([s**a for s in sines]) for a in odd}
    cos_pow = [np.array([c**k for c in cosines])[:, None] for k in range(spec.d)]
    total = np.zeros((betas.size, gammas.size))
    for q in range(1, spec.d + 1):
        sig2 = spec.sigmas[q - 1] ** 2
        if sig2 == 0:
            continue
        inner = np.zeros_like(total)
        for a, coef in _TERMS[q]:
            term = np.multiply.outer(sin_pow[a], coef * damping[a])
            term *= cos_pow[q - a]
            inner += term
        total += sig2 * inner
    return gammas * (2 * total)


def energy_mixture_form(xi: MixtureFunction, angles: Angles) -> float:
    """Infinite-n energy per spin via the complex mixture-function form."""
    damp = math.exp(-2 * (angles.gamma * angles.gamma) * xi.xi_prime_at_one())
    w = complex(math.cos(2 * angles.beta), math.sin(2 * angles.beta) * damp)
    return angles.gamma * (2 * xi.xi(w).imag)


def energy_pure_d(d: int, angles: Angles) -> float:
    """Infinite-n energy per spin for the pure d-spin model sigma_d = sqrt(d!/2).

    This is the specialization of the general formula with c_d^2 = 1/2, i.e.
    gamma * Im[(cos(2b) + i sin(2b) exp(-d g^2))^d].
    """
    check_degree(d)
    damp = math.exp(-d * (angles.gamma * angles.gamma))
    w = complex(math.cos(2 * angles.beta), math.sin(2 * angles.beta) * damp)
    return angles.gamma * (w**d).imag


@dataclass(frozen=True)
class EnergyDerivatives:
    """The energy per spin at one (beta, gamma), its gradient
    (dE/db, dE/dg) and its Hessian entries (E_bb, E_bg, E_gg)."""

    value: float
    gradient: tuple[float, float]
    hessian: tuple[float, float, float]


def energy_derivatives(spec: MixtureSpec, angles: Angles) -> EnergyDerivatives:
    """Exact value, gradient and Hessian of E = 2g Im xi(w) at one point.

    Here w = cos 2b + i sin 2b D with D = exp(-2 g^2 xi'(1)) and
    xi(x) = sum_q sigma_q^2 x^q / q!, so every derivative is a short
    combination of xi, xi', xi'' at w (one Horner pass) and the derivatives
    of w: w_bb = -4w, and the g derivatives come from D_g = -4 g xi'(1) D.
    Products are written x*x, so a huge gamma gives inf or NaN gradient and
    Hessian entries instead of raising OverflowError; the value, g * (2f),
    stays 0 there.
    """
    b, g = angles.beta, angles.gamma
    rate = damping_rate(spec)
    c, s = math.cos(2 * b), math.sin(2 * b)
    damp = math.exp(-2 * g * g * rate)
    log_damp_g = -4 * g * rate  # D_g / D
    w = complex(c, s * damp)
    w_b = complex(-2 * s, 2 * c * damp)
    w_g = complex(0.0, s * damp * log_damp_g)
    w_bg = complex(0.0, 2 * c * damp * log_damp_g)
    w_gg = complex(0.0, s * damp * (log_damp_g * log_damp_g - 4 * rate))
    w_bb = -4 * w
    # Horner for xi, xi' and xi''/2 together; xi has no constant term
    x0 = x1 = x2 = 0j
    for q in range(spec.d, -1, -1):
        x2 = x2 * w + x1
        x1 = x1 * w + x0
        sigma = spec.sigmas[q - 1] if q else 0.0
        x0 = x0 * w + sigma * sigma / math.factorial(q)
    x2 *= 2
    f = x0.imag
    f_b = (x1 * w_b).imag
    f_g = (x1 * w_g).imag
    f_bb = (x2 * w_b * w_b + x1 * w_bb).imag
    f_bg = (x2 * w_b * w_g + x1 * w_bg).imag
    f_gg = (x2 * w_g * w_g + x1 * w_gg).imag
    return EnergyDerivatives(
        value=g * (2 * f),
        gradient=(2 * g * f_b, 2 * f + 2 * g * f_g),
        hessian=(2 * g * f_bb, 2 * f_b + 2 * g * f_bg, 4 * f_g + 2 * g * f_gg),
    )


_D3_SPEC = pure_d_spec(3)


@dataclass(frozen=True)
class StationarityResiduals:
    """Residuals of the three optimality relations for the sigma_3 = sqrt(3) model.

    A residual is None when its defining expression leaves the real domain
    (reported per-residual rather than raised).
    """

    r1: Optional[float]
    r2: Optional[float]
    r3: Optional[float]


def d3_stationarity_residuals(angles: Angles) -> StationarityResiduals:
    """Residuals of the coupled optimality conditions at (beta, gamma).

    r1 relates beta to gamma through an arccos; the optima come in the sign
    pair (+b*, -g*) / (-b*, +g*), so the arccos branch is selected by
    sign(gamma) to make r1 vanish on both.  r2 is the scalar fixed-point
    relation in gamma alone.  r3 compares |energy| against the radical
    sqrt(4 g^2 - 2/3) (magnitude convention: the radical is positive while
    the optimal energy is negative).
    """
    b, g = angles.beta, angles.gamma
    g2 = g * g

    r1: Optional[float] = None
    if g2 > 0:
        arg = 1 - 1 / (9 * g2)
        if -1 <= arg <= 1:
            r1 = b + math.copysign(0.25 * math.acos(arg), g)

    r2 = math.exp(-6 * g2) - 18 * g2 + 3

    r3: Optional[float] = None
    rad = 4 * g2 - 2 / 3
    if rad >= 0:
        r3 = abs(energy_sigma_form(_D3_SPEC, angles)) - math.sqrt(rad)

    return StationarityResiduals(r1, r2, r3)
