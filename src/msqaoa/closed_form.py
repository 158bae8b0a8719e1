"""Infinite-size closed form for the depth-1 QAOA energy per spin.

E = 2g Im xi(w), w = cos 2b + i sin 2b exp(-2 g^2 xi'(1)), xi(x) =
sum_q sigma_q^2 x^q / q!, comes from one Horner recurrence in real arithmetic
(``_im_xi``): ``energy_sigma_form`` runs it on floats, ``energy_sigma_grid``
on arrays, and ``_derivatives_at`` (adding the exact gradient and Hessian
for the optimizer's Newton polish) takes the same steps in complex
arithmetic, so all three give one value bit for bit.  ``energy_sigma_form``
is a thin wrapper over the float kernel ``_energy_at``; both kernels take a
spec's ``_xi_coefficients`` and damping rate and the two angles as plain
floats, and the optimizer calls them directly, so its polish builds no
``Angles`` per step.  Two
independent forms check it to ~1e-12 relative, a standing cross-check:
``energy_mixture_form`` (complex arithmetic on the c_q^2) and ``verify``'s
explicit degree sum.
``Angles`` refuses NaN and +-inf, so no per-point form checks its angles; the
grid form checks its axes with ``require_finite_grid``.  The model types take
every degree bound 1..``model.MAX_DEGREE`` and no other, so no form checks
the degree either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .model import MixtureFunction, MixtureSpec, damping_rate

__all__ = [
    "Angles",
    "energy_sigma_form",
    "energy_sigma_grid",
    "energy_mixture_form",
    "require_finite_grid",
]

@dataclass(frozen=True)
class Angles:
    """A (beta, gamma) parameter pair, in radians, both finite: NaN or +-inf
    raises ValidationError, also through ``dataclasses.replace``, so no entry
    point that takes an ``Angles`` checks its angles again.
    """

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and math.isfinite(self.gamma)):
            raise ValidationError(f"angles must be finite, got {self}")


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


def _im_xi(coefficients: Sequence[float], c, s):
    """Im xi(c + i s) by Horner's rule on floats or broadcasting arrays.

    Each step is ``_derivatives_at``'s complex ``z * w + complex(a)``
    written out in CPython's operand order; the ``+ 0.0`` is complex(a)'s
    imaginary part, so signed zeros agree too."""
    re = im = 0.0
    for a in reversed(coefficients):
        re, im = re * c - im * s + a, re * s + im * c + 0.0
    return im


def _energy_at(coefficients: Sequence[float], rate: float, b: float, g: float) -> float:
    """``energy_sigma_form`` on plain floats: a spec's ``_xi_coefficients``
    and damping rate, then beta and gamma, which the caller keeps finite as
    ``Angles`` would."""
    damp = math.exp(-2 * g * g * rate)
    c, s = math.cos(2 * b), math.sin(2 * b) * damp
    # not (2 * g) * f: past gamma ~ 9e307, 2 * g is inf where the damping
    # has made f exactly 0; doubling f is exact, so g * 0 stays 0
    return g * (2 * _im_xi(coefficients, c, s))


def energy_sigma_form(spec: MixtureSpec, angles: Angles) -> float:
    """Infinite-n disorder-averaged energy per spin, 2g Im xi(w) with
    w = cos 2b + i sin 2b exp(-2 g^2 xi'(1))."""
    return _energy_at(spec._xi_coefficients, damping_rate(spec), angles.beta, angles.gamma)


def energy_sigma_grid(
    spec: MixtureSpec, betas: Sequence[float], gammas: Sequence[float]
) -> np.ndarray:
    """``energy_sigma_form`` at every (beta, gamma) of a grid, as a
    (len(betas), len(gammas)) array; ValidationError unless each axis is a
    non-empty 1-D sequence of finite angles.  ``sin``/``cos`` are taken once
    per beta and ``exp`` once per gamma with the same ``math`` functions, and
    ``_im_xi`` runs on the whole grid, so every value is bit-identical to
    ``energy_sigma_form``.
    """
    betas, gammas = require_finite_grid(betas, gammas)
    rate = damping_rate(spec)
    damp = np.array([math.exp(-2 * g * g * rate) for g in gammas.tolist()])
    cosines = np.array([[math.cos(2 * b)] for b in betas.tolist()])
    sines = np.array([math.sin(2 * b) for b in betas.tolist()])
    im = _im_xi(spec._xi_coefficients, cosines, np.multiply.outer(sines, damp))
    return gammas * (2 * im)


def energy_mixture_form(xi: MixtureFunction, angles: Angles) -> float:
    """Infinite-n energy per spin via the complex mixture-function form."""
    damp = math.exp(-2 * (angles.gamma * angles.gamma) * xi.xi_prime_at_one())
    w = complex(math.cos(2 * angles.beta), math.sin(2 * angles.beta) * damp)
    return angles.gamma * (2 * xi.xi(w).imag)


def _derivatives_at(
    coefficients: Sequence[float], rate: float, b: float, g: float
) -> tuple[float, float, float, float, float, float]:
    """Exact value, gradient and Hessian of E = 2g Im xi(w) at one point, on
    plain floats as for ``_energy_at``: the value, dE/db, dE/dg, E_bb, E_bg
    and E_gg as one tuple.

    Here w = cos 2b + i sin 2b D with D = exp(-2 g^2 xi'(1)) and
    xi(x) = sum_q sigma_q^2 x^q / q!, so every derivative is a short
    combination of xi, xi', xi'' at w (one Horner pass) and the derivatives
    of w: w_bb = -4w, and the g derivatives come from D_g = -4 g xi'(1) D.
    Products are written x*x, so a huge gamma gives inf or NaN gradient and
    Hessian entries instead of raising OverflowError; the value, g * (2f),
    stays 0 there.
    """
    c, s = math.cos(2 * b), math.sin(2 * b)
    damp = math.exp(-2 * g * g * rate)
    log_damp_g = -4 * g * rate  # D_g / D
    w = complex(c, s * damp)
    w_b = complex(-2 * s, 2 * c * damp)
    w_g = complex(0.0, s * damp * log_damp_g)
    w_bg = complex(0.0, 2 * c * damp * log_damp_g)
    w_gg = complex(0.0, s * damp * (log_damp_g * log_damp_g - 4 * rate))
    w_bb = -4 * w
    # Horner for xi, xi' and xi''/2 together; x0 is _im_xi's recurrence
    x0 = x1 = x2 = 0j
    for a in reversed(coefficients):
        x2 = x2 * w + x1
        x1 = x1 * w + x0
        x0 = x0 * w + complex(a)
    x2 *= 2
    f = x0.imag
    f_b = (x1 * w_b).imag
    f_g = (x1 * w_g).imag
    f_bb = (x2 * w_b * w_b + x1 * w_bb).imag
    f_bg = (x2 * w_b * w_g + x1 * w_bg).imag
    f_gg = (x2 * w_g * w_g + x1 * w_gg).imag
    return (
        g * (2 * f),
        2 * g * f_b,
        2 * f + 2 * g * f_g,
        2 * g * f_bb,
        2 * f_b + 2 * g * f_bg,
        4 * f_g + 2 * g * f_gg,
    )

