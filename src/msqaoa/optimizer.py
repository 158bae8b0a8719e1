"""Optimal (beta*, gamma*) for the infinite-size closed-form energy per spin.

The search is fixed.  A 65x65 grid scan over beta in [-pi/4, pi/4] and
gamma in +-2/sqrt(xi'(1)) handles the multimodal beta landscape.  It is
screened, not evaluated: the closed form is a sum over odd j of a beta factor
times D^j, D = exp(-2 g^2 xi'(1)), so one small matmul gives every cell to
within a proven rounding bound (``_screen``), and only the cells that bound
cannot rule out as the minimum, usually its symmetric pair, get the Horner
recurrence (``_grid_minimum``).  The start and grid value are those of the
whole ``energy_sigma_grid``, bit for bit; the expansion cancels at large d,
so it never supplies a reported number.  What depends on no model is built
once at import: the beta factors, the powers of cos 2b and sin 2b on the
scan's fixed betas (``_beta_tables``, 19 kB), and the arange from which the
gammas take ``np.linspace``'s own steps (``_scan_gammas``).  A call builds
only the model's coefficients and the powers of D.

Then a safeguarded Newton descent on the closed form's exact gradient and
Hessian polishes the best cell.  A step is the Newton step where the Hessian
is positive definite and the negative gradient elsewhere, halved until the
energy does not increase, so the polish only ever descends from the grid
value; it stops after at most 500 evaluations.  It runs on plain floats
through ``closed_form._derivatives_at`` and ``closed_form._energy_at``, the
kernel behind ``energy_sigma_form``, so every number is theirs, bit for bit,
and no step builds an ``Angles``.  An
optimization takes about 0.11 to 0.32 ms for pure d = 2..24, against 0.13 to
0.40 ms when the polish went through the public calls (2-vCPU Xeon, scaled
to the benchmark's nominal host).
The reported optimum is one representative of its class under
beta -> beta + pi and (beta, gamma) -> (-beta, -gamma) (``_canonical``):
gamma* <= 0 and beta* in (-pi/2, pi/2] are enforced; beta* >= 0 is observed
on pure d = 1..24 and 601 mixtures, not enforced.  It counts as
converged when the exact gradient there is below 1e-7 and the exact Hessian
is positive definite.  The polish's stop after a step that leaves the energy
unchanged can end close to that threshold: on the 16th of the 600 seeded
mixtures of ``tests/data/optimum_mixtures_81.csv`` (d = 18) it ends at
|grad E| = 4.1e-8, within a factor 2.5 of 1e-7.  A last-bit change in the
polish's arithmetic could therefore flip ``converged``, so its float
operations keep their order; a certified gap (ROADMAP item 13) is to
replace the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .closed_form import (
    Angles,
    _derivatives_at,
    _energy_at,
    damping_rate,
    energy_sigma_grid,
)
from .errors import ValidationError
from .model import MAX_DEGREE, MixtureSpec

__all__ = [
    "Optimum",
    "optimize_closed_form",
    "approximation_factor",
]


_POLISH_BUDGET = 500  # bound on the polish's evaluations


def _beta_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan's 65 betas in [-pi/4, pi/4] and the screen's beta factors,
    which no model changes: with c = cos 2b and s = sin 2b from the ``math``
    calls of ``energy_sigma_grid``, c^0..c^(MAX_DEGREE - 1) and s^1, s^3, ...
    up to MAX_DEGREE, by repeated products.  A degree d reads the first d and
    ceil(d/2) columns, the products a table of d columns would hold, bit for
    bit.  All three arrays are read-only."""
    betas = np.linspace(-math.pi / 4, math.pi / 4, 65)
    c = np.array([math.cos(2 * b) for b in betas.tolist()])
    s = np.array([math.sin(2 * b) for b in betas.tolist()])
    c_powers = np.ones((len(c), MAX_DEGREE))
    c_powers[:, 1:] = c[:, None]
    s_powers = np.empty((len(s), (MAX_DEGREE + 1) // 2))
    s_powers[:, 0], s_powers[:, 1:] = s, (s * s)[:, None]
    tables = betas, np.cumprod(c_powers, axis=1), np.cumprod(s_powers, axis=1)
    for table in tables:
        table.flags.writeable = False
    return tables


_BETAS, _COS_POWERS, _SIN_POWERS = _beta_tables()
_STEPS = np.arange(65.0)  # linspace's own arange for the gamma axis
_STEPS.flags.writeable = False


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


def _positive_definite(hbb: float, hbg: float, hgg: float) -> bool:
    return (
        math.isfinite(hbb) and math.isfinite(hbg) and math.isfinite(hgg)
        and hbb > 0 and hbb * hgg - hbg * hbg > 0
    )


def _descent_direction(
    der: tuple[float, float, float, float, float, float]
) -> Optional[tuple[float, float]]:
    """The Newton step where the Hessian is positive definite, else the
    negative gradient; None when a derivative is not finite.  ``der`` is
    ``closed_form._derivatives_at``'s tuple."""
    _, gb, gg, hbb, hbg, hgg = der
    if not (
        math.isfinite(gb) and math.isfinite(gg)
        and math.isfinite(hbb) and math.isfinite(hbg) and math.isfinite(hgg)
    ):
        return None
    if _positive_definite(hbb, hbg, hgg):
        det = hbb * hgg - hbg * hbg
        newton = ((hbg * gg - hgg * gb) / det, (hbg * gb - hbb * gg) / det)
        if math.isfinite(newton[0]) and math.isfinite(newton[1]):
            return newton
    return (-gb, -gg)


def _newton_polish(
    spec: MixtureSpec, x0: tuple[float, float], value: float, budget: int
) -> tuple[tuple[float, float], int]:
    """Descend from x0, whose energy is ``value``, by safeguarded Newton steps.

    Each iteration takes the exact derivatives at x from
    ``_derivatives_at`` (one evaluation) and tries the step of
    ``_descent_direction``, halving it until the energy from ``_energy_at``
    does not increase (one evaluation per finite trial point; a non-finite
    trial point is halved without being evaluated).  Both run on plain
    floats, and ``_energy_at`` gives ``energy_sigma_form``'s numbers, bit
    for bit.
    The polish stops on a non-finite derivative, on a step below the float
    spacing of x (rounding noise of an already stationary point), when no
    step is accepted, after a step that leaves the energy unchanged (flat to
    rounding), or when ``budget`` evaluations are used up.  Returns the last
    accepted point and the number of derivative evaluations.
    """
    coefficients, rate = spec._xi_coefficients, damping_rate(spec)
    x = x0
    evaluations = iterations = 0
    while evaluations < budget:
        b, g = x
        der = _derivatives_at(coefficients, rate, b, g)
        evaluations += 1
        iterations += 1
        direction = _descent_direction(der)
        if direction is None:
            break
        db, dg = direction
        if abs(db) < math.ulp(b) and abs(dg) < math.ulp(g):
            break
        step, accepted = 1.0, None
        while accepted is None and evaluations < budget:
            tb, tg = b + step * db, g + step * dg
            if tb == b and tg == g:
                break
            if math.isfinite(tb) and math.isfinite(tg):
                trial_value = _energy_at(coefficients, rate, tb, tg)
                evaluations += 1
                if trial_value <= value:
                    accepted = trial_value
            step /= 2
        if accepted is None:
            break
        flat = accepted == value
        x, value = (tb, tg), accepted
        if flat:
            break
    return x, iterations


def _screen(spec: MixtureSpec, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The energy on the grid of the scan's betas and ``gammas`` through the
    separable expansion, and per gamma a bound on its distance from
    ``energy_sigma_grid``.

    With c = cos 2b, s = sin 2b and D = exp(-2 g^2 xi'(1)), taken from the
    same ``math`` calls as ``energy_sigma_grid``, and a_q = sigma_q^2/q!,

        Im xi(c + i s D) = sum_{odd j} (-1)^((j-1)/2) (s D)^j P_j(c),
        P_j(c) = sum_{q >= j} a_q C(q, j) c^(q-j),

    one matmul of a beta matrix (s^j P_j(c)) and a gamma matrix (D^j).
    The powers of c and s are the module's tables; only the coefficients
    and the powers of D depend on the model.
    Its terms cancel at large d, so it only screens; every reported
    number comes from the Horner recurrence.

    The bound.  |c|, |s|, D <= 1, so a term is at most a_q C(q, j), and the
    terms add up to at most M = sum_q a_q 2^(q-1).  Each term passes through
    at most 5d + 5 roundings here (a_q C(q, j); the powers of c, s and D by
    repeated products; the two sums of at most d terms; the products between
    them; g), so this value is within (5d + 5) u M |2g| of the exact
    expansion, u = 2^-53.  The Horner recurrence of d + 1 steps rounds each
    term at most 3d + 1 times, plus d for the rounded product s D, against an
    absolute sum of at most sum_q a_q (|c| + |s|)^q <= 2M, so it is within
    (8d + 2) u M |2g|.  4(d + 2)^2 = 13d + 7 + (4d^2 + 3d + 9) covers both
    with at least 16 u M |2g| to spare, enough for the rounding of
    value +- bound.  An underflow errs by at most 2^-1075, absolute.  The
    screen rounds at most 2^10 times per cell and the recurrence 2^8 times,
    and what an underflow leaves is multiplied later by at most
    max(1, M) |2g|, in the recurrence also by (|c| + |s|)^d <= 2^12: the
    spare covers that where M > 1, 2^-1050 |2g| where M <= 1, and 2^-1073
    the underflow of the last product by g in each.  An overflow leaves an
    inf or NaN in the value or the bound, and the caller then reads the
    whole grid.
    """
    a = spec._xi_coefficients
    d = spec.d
    odd = range(1, d + 1, 2)
    # k[q - j, m] = (-1)^m a_q C(q, j) for j = 2m + 1, so P_j(c) = c-powers @ k
    k = np.zeros((d, len(odd)))
    for m, j in enumerate(odd):
        k[: d + 1 - j, m] = [(-1) ** m * a[q] * math.comb(q, j) for q in range(j, d + 1)]
    total = sum(a[q] * 2.0 ** (q - 1) for q in range(1, d + 1))
    rate = damping_rate(spec)
    damp = np.array([math.exp(-2 * g * g * rate) for g in gammas.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):
        # D^j for odd j by repeated products, as the tables hold c and s
        d_powers = np.empty((len(odd), len(damp)))
        d_powers[0], d_powers[1:] = damp, damp * damp
        beta_part = _COS_POWERS[:, :d] @ k * _SIN_POWERS[:, : len(odd)]
        values = gammas * (2 * (beta_part @ np.cumprod(d_powers, axis=0)))
        scale = 4 * (d + 2) ** 2 * 2.0**-53 * total + 2.0**-1050
        bounds = np.abs(2 * gammas) * scale + 2.0**-1073
    return values, bounds


def _grid_minimum(spec: MixtureSpec) -> tuple[float, tuple[float, float]]:
    """(value, (beta, gamma)) of the first row-major minimum below inf of
    ``energy_sigma_grid`` on the grid of ``_scan_axes``, as a strict-< scan
    from inf keeps it; with no such value, inf and the first cell.
    ValidationError when the gamma range cannot be formed in floats.

    ``_screen`` rules out every cell whose value is surely above another
    cell's; the rest, usually the two cells of the minimum's symmetric pair
    (b, g) ~ (-b, -g), are evaluated by ``_energy_at``, the kernel of
    ``energy_sigma_form``, which equals the grid bit for bit.  The whole
    grid is read when the screen is not finite or a candidate's value is
    not below inf.
    """
    betas, gammas = _scan_axes(spec)
    values, bounds = _screen(spec, gammas)
    with np.errstate(over="ignore", invalid="ignore"):
        low, high = values - bounds, values + bounds
    # high is finite only where the value and its bound are
    if np.isfinite(high).all():
        # a cell can hold the minimum only if its low end is below every high
        # end; a strict < keeps the first of equal values, as the scan does
        coefficients, rate = spec._xi_coefficients, damping_rate(spec)
        n, best = len(gammas), None
        for i in np.flatnonzero(low <= high.min()).tolist():
            x = (float(betas[i // n]), float(gammas[i % n]))
            value = _energy_at(coefficients, rate, *x)
            if not value < math.inf:
                break
            if best is None or value < best[0]:
                best = (value, x)
        else:
            return best
    grid = energy_sigma_grid(spec, betas, gammas)
    below_inf = np.where(grid < math.inf, grid, math.inf)
    bi, gi = np.unravel_index(np.argmin(below_inf), grid.shape)
    return float(below_inf[bi, gi]), (float(betas[bi]), float(gammas[gi]))


def _scan_axes(spec: MixtureSpec) -> tuple[np.ndarray, np.ndarray]:
    """The scan's 65 betas in [-pi/4, pi/4], the same read-only array for
    every model, and 65 gammas in +-2/sqrt(rate), rate = xi'(1)
    (``damping_rate``); ValidationError when that gamma range cannot be
    formed in floats."""
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

    return _BETAS, _scan_gammas(gmax)


def _scan_gammas(gmax: float) -> np.ndarray:
    """``np.linspace(-gmax, gmax, 65)`` bit for bit, by its own steps:
    arange * ((stop - start) / 64) + start.  As 64 is a power of two, the
    last value is already stop, which linspace sets again.  Its other
    branches, for a step that underflows to 0 or a span that overflows, need
    gmax below 1e-322 or above 8e307; 2/sqrt(rate) stays within
    [1.4e-154, 9e161] for every positive float rate."""
    return _STEPS * ((gmax + gmax) / 64) - gmax


def optimize_closed_form(spec: MixtureSpec) -> Optimum:
    """Minimize the infinite-n energy per spin over (beta, gamma).

    Finds the best cell of the 65x65 grid of ``_scan_axes`` with
    ``_grid_minimum``, then polishes it with ``_newton_polish``.
    ValidationError when the gamma range cannot be formed in floats.
    """
    grid_best, x0 = _grid_minimum(spec)

    x, iterations = _newton_polish(spec, x0, grid_best, _POLISH_BUDGET)
    # Canonicalizing can move beta by pi, which rounds; keep the contract that
    # the reported value never exceeds the grid's.  The derivatives' value is
    # energy_sigma_form's, bit for bit.
    coefficients, rate = spec._xi_coefficients, damping_rate(spec)
    angles = _canonical(Angles(*x))
    at_optimum = _derivatives_at(coefficients, rate, angles.beta, angles.gamma)
    if at_optimum[0] > grid_best:
        angles = _canonical(Angles(*x0))
        at_optimum = _derivatives_at(coefficients, rate, angles.beta, angles.gamma)
    value, e_b, e_g, e_bb, e_bg, e_gg = at_optimum
    gradient_norm = math.hypot(e_b, e_g)
    return Optimum(
        angles=angles,
        value=value,
        grid_value=grid_best,
        refinement_iterations=iterations,
        converged=gradient_norm < 1e-7 and _positive_definite(e_bb, e_bg, e_gg),
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
