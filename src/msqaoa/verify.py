"""End-to-end verification checks behind ``msqaoa verify`` and the test suite.

Each check compares a computed quantity against an anchor (a known optimum, an
independent oracle, or a scaling law) at a pinned tolerance, and each checks
code that an engine runs: ``combinatorial_identities`` the finite-n engine's
exact subset sums and damping, ``monte_carlo_consistency`` its two moments
against sampled instances and against a quadrature of ``expectation`` over
the couplings, ``optimizer_scan`` the optimizer's screened scan against the
whole closed-form grid.  A check is a plain function with its sizes and tolerances
inside; it returns ``(passed, details)``.  ``CHECKS`` is the one list of
checks: name, function and levels, in report order.  ``run_check(name)``
times one check and returns a ``CheckResult``; ``run(level)`` runs every
check of the level, ``quick`` (3 checks) or ``full`` (16).  Both raise
``ValidationError`` for an unknown name or level.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cli, closed_form, finite_n, model, optimizer, simulator
from .errors import ValidationError

__all__ = ["CheckResult", "VerifyReport", "CHECKS", "LEVELS", "run", "run_check"]

SK_TARGET_VALUE = -1.0 / math.sqrt(4.0 * math.e)
SK_TARGET_ANGLES = (math.pi / 8, -0.5)
D3_TARGET_VALUE = -0.270638
D3_TARGET_ANGLES = (0.290003, -0.430091)
PARISI_D3_REFERENCE = -0.8132  # external replica-theory input, not computed here
APPROX_FACTOR_TARGET = 0.332806
LEVELS = ("quick", "full")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict
    seconds: float


@dataclass(frozen=True)
class VerifyReport:
    level: str
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        return cli._json_text(
            {
                "level": self.level,
                "passed": self.passed,
                "checks": [
                    {
                        "name": r.name,
                        "passed": bool(r.passed),
                        "seconds": round(r.seconds, 3),
                        "details": r.details,
                    }
                    for r in self.results
                ],
            },
        )


_SK = model.pure_d_spec(2)
_D3 = model.pure_d_spec(3)


def _sk_optimum() -> tuple[bool, dict]:
    opt = optimizer.optimize_closed_form(_SK)
    dv = abs(opt.value - SK_TARGET_VALUE)
    db = abs(opt.angles.beta - SK_TARGET_ANGLES[0])
    dg = abs(opt.angles.gamma - SK_TARGET_ANGLES[1])
    details = {
        "value": opt.value,
        "value_error": dv,
        "beta_error": db,
        "gamma_error": dg,
        "tolerances": {"value": 1e-5, "angles": 1e-4},
    }
    return dv < 1e-5 and db < 1e-4 and dg < 1e-4, details


def _d3_optimum() -> tuple[bool, dict]:
    opt = optimizer.optimize_closed_form(_D3)
    dv = abs(opt.value - D3_TARGET_VALUE)
    db = abs(opt.angles.beta - D3_TARGET_ANGLES[0])
    dg = abs(opt.angles.gamma - D3_TARGET_ANGLES[1])
    res = closed_form.d3_stationarity_residuals(opt.angles)
    residuals = [res.r1, res.r2, res.r3]
    res_ok = all(r is not None and abs(r) < 1e-4 for r in residuals)
    details = {
        "value": opt.value,
        "value_error": dv,
        "beta_error": db,
        "gamma_error": dg,
        "residuals": residuals,
        "tolerances": {"value": 1e-5, "angles": 1e-4, "residuals": 1e-4},
    }
    return dv < 1e-5 and db < 1e-4 and dg < 1e-4 and res_ok, details


def _approximation_factor() -> tuple[bool, dict]:
    opt = optimizer.optimize_closed_form(_D3)
    factor = optimizer.approximation_factor(opt.value, PARISI_D3_REFERENCE)
    err = abs(factor - APPROX_FACTOR_TARGET)
    return err < 1e-3, {
        "factor": factor,
        "error": err,
        "tolerance": 1e-3,
        "ground_state_reference": PARISI_D3_REFERENCE,
    }


def _optimizer_scan() -> tuple[bool, dict]:
    """The optimizer's screened scan against the whole grid, for pure
    d = 1..24 and 24 seeded mixtures of both parities: ``_grid_minimum``
    finds the first row-major minimum of ``energy_sigma_grid``, by repr, and
    every screened value lies within its bound of the grid.  Negative control:
    the screen's own first minimum, a zero bound, must pick another cell for
    at least one model."""
    rng = np.random.default_rng(81)
    specs = [model.pure_d_spec(d) for d in range(1, 25)]
    for _ in range(24):
        d = int(rng.integers(1, 25))
        sigmas = rng.uniform(0.0, 1.5, d)
        sigmas[rng.random(d) < 0.3] = 0.0
        sigmas[-1] = max(sigmas[-1], 0.3)
        specs.append(model.make_mixture_spec(d, sigmas))
    mismatches, worst, moved = 0, 0.0, 0
    for spec in specs:
        betas, gammas = optimizer._scan_axes(spec)
        grid = closed_form.energy_sigma_grid(spec, betas, gammas)
        values, bounds = optimizer._screen(spec, gammas)
        error = np.abs(values - grid)
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero bound
            worst = max(worst, float(np.max(np.where(error > 0, error / bounds, 0.0))))
        full = np.unravel_index(np.argmin(grid), grid.shape)
        want = (float(grid[full]), (float(betas[full[0]]), float(gammas[full[1]])))
        mismatches += repr(optimizer._grid_minimum(spec)) != repr(want)
        moved += np.unravel_index(np.argmin(values), grid.shape) != full
    return mismatches == 0 and worst <= 1 and moved > 0, {
        "models": len(specs),
        "start_mismatches": mismatches,
        "max_error_over_bound": worst,
        "zero_bound_moved_starts": moved,
    }


def _explicit_degree_sum(spec: model.MixtureSpec, ang: closed_form.Angles) -> float:
    """The closed form as the binomial expansion of each Im w^q, a sum over
    degrees q and odd powers a: the reference for the engine's recurrence."""
    s, c = math.sin(2 * ang.beta), math.cos(2 * ang.beta)
    g2_rate = ang.gamma * ang.gamma * model.damping_rate(spec)
    total = 0.0
    for q, sigma in enumerate(spec.sigmas, start=1):
        for a in range(1, q + 1, 2):
            weight = (-1) ** (a // 2) / (math.factorial(a) * math.factorial(q - a))
            total += sigma * sigma * weight * math.exp(-2 * a * g2_rate) * s**a * c ** (q - a)
    return ang.gamma * (2 * total)


def _form_equivalence() -> tuple[bool, dict]:
    """``energy_sigma_form`` against the explicit degree sum and the complex
    ``energy_mixture_form``, two independent forms."""
    points = 1000
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(points):
        d = int(rng.integers(1, 7))
        sigmas = rng.uniform(0.0, 1.5, d)
        if not sigmas.any():
            sigmas[rng.integers(0, d)] = 1.0
        spec = model.make_mixture_spec(d, sigmas)
        ang = closed_form.Angles(
            float(rng.uniform(-math.pi / 2, math.pi / 2)),
            float(rng.uniform(-2.0, 2.0)),
        )
        xi = spec.mixture_function()
        a = closed_form.energy_sigma_form(spec, ang)
        for b in (_explicit_degree_sum(spec, ang), closed_form.energy_mixture_form(xi, ang)):
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    return worst < 1e-12, {
        "points": points,
        "max_relative_discrepancy": worst,
        "tolerance": 1e-12,
    }


def _moment_pair_discrepancy(spec, ang, n) -> dict[str, float]:
    sk = finite_n.sketch_moments(spec, ang, n)
    orc = finite_n.oracle_moments(spec, ang, n)
    return {
        "first": abs(sk.first - orc.first) / max(abs(sk.first), abs(orc.first), 1e-6),
        "second": abs(sk.second - orc.second)
        / max(abs(sk.second), abs(orc.second), 1e-6),
    }


def _oracle_match_n6() -> tuple[bool, dict]:
    rel = _moment_pair_discrepancy(_SK, closed_form.Angles(0.3, 0.4), 6)
    worst = max(rel.values())
    return worst < 1e-10, {"relative": rel, "tolerance": 1e-10, "n": 6}


def _oracle_equivalence() -> tuple[bool, dict]:
    draws = 5
    rng = np.random.default_rng(77)
    worst = 0.0
    worst_at = None
    for n in range(2, 9):
        for _ in range(draws):
            d = int(rng.integers(1, 4))
            sigmas = rng.uniform(0.2, 1.2, d)
            spec = model.make_mixture_spec(d, sigmas)
            ang = closed_form.Angles(
                float(rng.uniform(0.1, 0.6) * rng.choice([-1, 1])),
                float(rng.uniform(0.2, 0.8) * rng.choice([-1, 1])),
            )
            rel = _moment_pair_discrepancy(spec, ang, n)
            m = max(rel.values())
            if m > worst:
                worst, worst_at = m, {"n": n, "d": d}
    return worst < 1e-10, {
        "max_relative_discrepancy": worst,
        "worst_at": worst_at,
        "tolerance": 1e-10,
        "n_range": [2, 8],
        "draws_per_n": draws,
    }


def _direct_pair_sums(z: list[int], zp: list[int], q: int) -> tuple[int, int]:
    """(sum_{|S|=q} z_S, sum_{|S|=q} (z_S - z'_S)^2) by explicit subset products."""
    f = 0
    g = 0
    for subset in itertools.combinations(range(len(z)), q):
        zs = 1
        zps = 1
        for i in subset:
            zs *= z[i]
            zps *= zp[i]
        f += zs
        g += (zs - zps) ** 2
    return f, g


# a mixture of both parities whose sigma_q^2 have large denominators, and SK
_DAMPING_SPECS = (("mix4", model.make_mixture_spec(4, [0.3, 0.5, 1.0, 0.4])), ("sk", _SK))


def _combinatorial_identities() -> tuple[bool, dict]:
    """The engine's exact integers against explicit subset products, for every
    n <= 10: ``_subset_sums_by_degree``'s F_q(u) = sum_{|S|=q} z_S for a string
    with u entries +1 (q <= 4), and ``_weights``' damping
    k(t) = sum_q sigma_q^2 g_q(t) / (2 n^(q-1)), g_q(t) = sum_{|S|=q}
    (z_S - z'_S)^2 for a pair with t disagreements, which it rounds once."""
    max_n = 10
    max_q = 4
    subset_checks = damping_checks = 0
    for n in range(1, max_n + 1):
        top = min(max_q, n)
        ones = [1] * n
        direct = []  # entry u: [(F_q(u), g_q(n - u)) for q = 0..top]
        for u in range(n + 1):
            z = [1] * u + [-1] * (n - u)  # n - u disagreements with all +1
            direct.append([_direct_pair_sums(z, ones, q) for q in range(top + 1)])
            if finite_n._subset_sums_by_degree(u, n, top) != [f for f, _ in direct[u]]:
                return False, {"failed": "_subset_sums_by_degree", "n": n, "u": u}
            subset_checks += 1
        for label, spec in _DAMPING_SPECS:
            _, flip, den = finite_n._phi_integers(spec, n, n)
            k, _ = finite_n._weights(flip, den, n)
            for t in range(n + 1):
                want = sum(
                    Fraction(s * s) * direct[n - t][q][1] / (2 * Fraction(n) ** (q - 1))
                    for q, s in enumerate(spec.sigmas[:top], start=1)
                )
                if k[t] != float(want):
                    return False, {"failed": "_weights", "spec": label, "n": n, "t": t}
                damping_checks += 1
    return True, {
        "subset_sum_checks": subset_checks,
        "damping_checks": damping_checks,
        "max_n": max_n,
        "max_q": max_q,
    }


def _infinite_n_convergence() -> tuple[bool, dict]:
    spec, ang = _SK, closed_form.Angles(*SK_TARGET_ANGLES)
    limit = closed_form.energy_sigma_form(spec, ang)
    ns = [16, 32, 64, 128]
    discs = {n: abs(finite_n.sketch_moments(spec, ang, n).first - limit) for n in ns}
    decreasing = all(discs[a] > discs[b] for a, b in zip(ns, ns[1:]))
    factor_ok = discs[128] < discs[16] / 4
    return decreasing and factor_ok, {
        "limit": limit,
        "discrepancies": {str(n): discs[n] for n in ns},
        "strictly_decreasing": decreasing,
        "n128_vs_n16_factor": discs[16] / discs[128],
        "required_factor": 4.0,
    }


def _concentration() -> tuple[bool, dict]:
    spec, ang = _SK, closed_form.Angles(*SK_TARGET_ANGLES)
    ns = [8, 16, 32, 64]
    variances = {n: finite_n.sketch_moments(spec, ang, n).variance for n in ns}
    positive = all(v > 0 for v in variances.values())
    shrinking = all(variances[a] > variances[b] for a, b in zip(ns, ns[1:]))
    return positive and shrinking, {
        "variances": {str(n): variances[n] for n in ns},
        "positive": positive,
        "decreasing": shrinking,
    }


def _coupling_quadrature(spec, n: int, points: int, angles) -> np.ndarray:
    """Rows (E_J <H>/n, E_J <H^2>/n^2), one per angle, by a tensor
    Gauss-Hermite rule of ``points`` nodes per coupling, over hand-built
    instances whose couplings J_S ~ N(0, sigma_q^2) sit at the nodes."""
    x, w = np.polynomial.hermite_e.hermegauss(points)
    w = w / math.sqrt(2 * math.pi)
    slots = [
        (q, i) for q, s in enumerate(spec.sigmas, start=1) if s for i in range(math.comb(n, q))
    ]
    totals = np.zeros((len(angles), 2))
    for nodes in itertools.product(range(points), repeat=len(slots)):
        couplings = [np.zeros(math.comb(n, q)) for q in range(1, spec.d + 1)]
        weight = 1.0
        for (q, i), k in zip(slots, nodes):
            couplings[q - 1][i] = spec.sigmas[q - 1] * x[k]
            weight *= w[k]
        inst = model.ProblemInstance(n=n, spec=spec, seed=0, couplings=tuple(couplings))
        table = simulator.build_phase_table(inst)
        for a, ang in enumerate(angles):
            h, h2 = simulator.expectation(inst, ang, table)
            totals[a] += weight * h / n, weight * h2 / (n * n)
    return totals


_QUADRATURE_ANGLES = (closed_form.Angles(0.3, -0.4), closed_form.Angles(-0.6, 1.5))
# (spec, n, nodes per coupling, angles): pure d at n = d has one coupling; the
# mixed-parity model at n = 2 has three, so 20^3 instances, taken only at the
# larger gamma, where the rule converges slowest
_QUADRATURE_CASES = tuple(
    (model.pure_d_spec(d), d, 60, _QUADRATURE_ANGLES) for d in range(1, 7)
) + ((model.make_mixture_spec(2, [0.7, 1.0]), 2, 20, _QUADRATURE_ANGLES[1:]),)


def _monte_carlo_consistency() -> tuple[bool, dict]:
    """Instance means of <H>/n and <H^2>/n^2 against ``first`` and ``second``
    (3 standard errors each), and the sample variance of <H>/n at most
    ``variance``, which adds the quantum spread to it (Jensen).  A
    Gauss-Hermite quadrature of ``expectation`` over the couplings of small
    instances checks both moments exactly (1e-12 relative), and with them
    the engine's lambda-derivative step, which the sampling sees only to a
    few percent."""
    quadrature_error = 0.0
    for qspec, qn, points, angles in _QUADRATURE_CASES:
        quad = _coupling_quadrature(qspec, qn, points, angles)
        for ang, moments in zip(angles, quad):
            rep = finite_n.sketch_moments(qspec, ang, qn)
            for got, want in zip(moments.tolist(), (rep.first, rep.second)):
                quadrature_error = max(quadrature_error, abs(got - want) / max(abs(want), 1e-6))
    instances = 400
    n = 12
    spec = _SK
    ang = closed_form.Angles(*SK_TARGET_ANGLES)
    vals = np.empty((2, instances))
    for seed in range(instances):
        inst = model.sample_instance(spec, n, seed)
        h, h2 = simulator.expectation(inst, ang)
        vals[:, seed] = h / n, h2 / (n * n)
    exact = finite_n.sketch_moments(spec, ang, n)
    means = vals.mean(axis=1)
    se = vals.std(axis=1, ddof=1) / math.sqrt(instances)
    z = np.abs(means - (exact.first, exact.second)) / se
    spread = float(vals[0].var(ddof=1))
    passed = bool((z < 3.0).all()) and spread <= exact.variance and quadrature_error <= 1e-12
    return passed, {
        "instances": instances,
        "n": n,
        "mc_mean": float(means[0]),
        "exact_first": exact.first,
        "standard_error": float(se[0]),
        "z_score": float(z[0]),
        "mc_mean_second": float(means[1]),
        "exact_second": exact.second,
        "standard_error_second": float(se[1]),
        "z_score_second": float(z[1]),
        "mc_variance": spread,
        "exact_variance": exact.variance,
        "tolerance_sigma": 3.0,
        "quadrature_relative_error": quadrature_error,
        "quadrature_tolerance": 1e-12,
    }


def _statevector_consistency() -> tuple[bool, dict]:
    """The transform-built phase table against ``model.cost`` at sampled
    strings; the phased rows, which both the landscape and ``expectation``
    take from one tangent of the half angle, against libm cosine and sine
    of the whole angle; and one interpolated instance landscape against
    per-point ``expectation``: two gammas take the mixer, one is the first's
    negative and one is zero."""
    n = 10
    samples = 50
    spec = model.make_mixture_spec(3, [0.3, 0.5, 1.0])
    inst = model.sample_instance(spec, n, 2024)
    table = simulator.build_phase_table(inst)
    rng = np.random.default_rng(31)
    table_error = 0.0
    for idx in rng.integers(0, 1 << n, samples):
        z = [1 - 2 * ((int(idx) >> b) & 1) for b in range(n)]
        want = model.cost(inst, z)
        err = abs(float(table[idx]) - want) / max(abs(want), 1.0)
        table_error = max(table_error, err)
    betas = np.linspace(-1.0, 1.0, 5)
    gammas = np.array([-0.8, 0.0, 0.35, 0.8])
    turns = model.popcounts(n) & 3
    phased_error = 0.0
    for gamma in [*gammas.tolist(), 1e300]:
        # -(gamma H + (pi/2) turns), twice the half angle exactly
        angle = table * -gamma + (-0.5 * math.pi) * turns
        rows = simulator._phased(table, turns, gamma)
        for row, want in ((rows[0], np.cos(angle)), (rows[1], np.sin(angle))):
            phased_error = max(phased_error, float(np.abs(row - want).max()))
    grid = simulator.landscape_instance(inst, betas, gammas)
    landscape_error = 0.0
    for bi, b in enumerate(betas):
        for gi, g in enumerate(gammas):
            ang = closed_form.Angles(float(b), float(g))
            h, _ = simulator.expectation(inst, ang, table)
            landscape_error = max(landscape_error, abs(float(grid[bi, gi]) - h / n))
    passed = table_error < 1e-13 and phased_error < 1e-14 and landscape_error < 1e-12
    return passed, {
        "n": n,
        "table_samples": samples,
        "table_relative_error": table_error,
        "phased_abs_error": phased_error,
        "landscape_points": grid.size,
        "landscape_abs_error": landscape_error,
        "tolerances": {"table": 1e-13, "phased": 1e-14, "landscape": 1e-12},
    }


def _infinite_grid_consistency() -> tuple[bool, dict]:
    """A small ``energy_sigma_grid`` grid against per-point
    ``energy_mixture_form``, with a negative control: moving one beta by
    1e-4, which changes only that row's beta factors, must fail the
    comparison."""
    spec = model.make_mixture_spec(4, [0.3, 0.5, 1.0, 0.4])
    xi = spec.mixture_function()
    betas = np.array([-0.6, 0.25, 0.7])
    gammas = np.array([-0.5, 0.35, 0.9])
    want = np.array(
        [
            [
                closed_form.energy_mixture_form(xi, closed_form.Angles(float(b), float(g)))
                for g in gammas
            ]
            for b in betas
        ]
    )

    def relative_error(grid_betas) -> float:
        got = closed_form.energy_sigma_grid(spec, grid_betas, gammas)
        return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-6)))

    grid_error = relative_error(betas)
    perturbed = betas.copy()
    perturbed[1] += 1e-4
    control_error = relative_error(perturbed)
    return grid_error < 1e-12 and control_error >= 1e-12, {
        "points": want.size,
        "max_relative_error": grid_error,
        "perturbed_beta_relative_error": control_error,
        "tolerance": 1e-12,
    }


def _finite_grid_consistency() -> tuple[bool, dict]:
    """A small ``finite:N`` grid from ``sketch_moment_grid`` against per-point
    ``oracle_moments``, with a negative control: moving one beta by 1e-4,
    which changes only that row's beta factors, must fail the comparison."""
    n = 8
    spec = model.make_mixture_spec(3, [0.3, 0.5, 1.0])
    betas = np.array([-0.6, 0.25, 0.7])
    gammas = np.array([-0.5, 0.0, 0.35])
    reports = [
        [
            finite_n.oracle_moments(spec, closed_form.Angles(float(b), float(g)), n)
            for g in gammas
        ]
        for b in betas
    ]
    oracle_first = np.array([[r.first for r in row] for row in reports])
    oracle_second = np.array([[r.second for r in row] for row in reports])

    def relative_error(grid_betas) -> float:
        grid = finite_n.sketch_moment_grid(spec, grid_betas, gammas, n)
        return max(
            float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-6)))
            for got, want in ((grid.first, oracle_first), (grid.second, oracle_second))
        )

    grid_error = relative_error(betas)
    perturbed = betas.copy()
    perturbed[1] += 1e-4
    control_error = relative_error(perturbed)
    return grid_error < 1e-10 and control_error >= 1e-10, {
        "n": n,
        "points": oracle_first.size,
        "max_relative_error": grid_error,
        "perturbed_beta_relative_error": control_error,
        "tolerance": 1e-10,
    }


# models of both parities, d = 2 to 8, and the angles of the 1/n rates
_LIMIT_SPECS = (
    ("sk", _SK),
    ("pure3", _D3),
    ("mix", model.make_mixture_spec(3, [0.3, 0.5, 1.0])),
    ("pure8", model.pure_d_spec(8)),
)
_RATE_ANGLES = closed_form.Angles(0.3, -0.4)
_RATE_NS = (2**24, 2**28)


def _rate_spread(values: list[float]) -> float:
    """|a - b| / |b| for the values at the two ``_RATE_NS``."""
    return abs(values[0] - values[1]) / abs(values[1])


def _infinite_limit() -> tuple[bool, dict]:
    """The paper's n -> infinity limit on the finite-n engine's first moment:
    at n = 2^64 it equals ``energy_sigma_grid`` on a 5x5 grid, and the gap
    closes like 1/n, so n (first - E_inf) agrees at n = 2^24 and 2^28."""
    betas, gammas = np.linspace(-0.7, 0.7, 5), np.linspace(-1.0, 1.0, 5)
    limit_errors, rates, spreads = {}, {}, {}
    for label, spec in _LIMIT_SPECS:
        grid = finite_n.sketch_moment_grid(spec, betas, gammas, 2**64)
        limit = closed_form.energy_sigma_grid(spec, betas, gammas)
        limit_errors[label] = float(np.max(np.abs(grid.first - limit)))
        e_inf = closed_form.energy_sigma_form(spec, _RATE_ANGLES)
        scaled = [
            n * (finite_n.sketch_moments(spec, _RATE_ANGLES, n).first - e_inf)
            for n in _RATE_NS
        ]
        rates[label], spreads[label] = scaled[-1], _rate_spread(scaled)
    passed = max(limit_errors.values()) <= 1e-14 and max(spreads.values()) <= 1e-4
    return passed, {
        "limit_abs_errors": limit_errors,
        "n_times_gap": rates,
        "rate_relative_spread": spreads,
        "tolerances": {"limit": 1e-14, "rate": 1e-4},
    }


def _concentration_rate() -> tuple[bool, dict]:
    """The variance of H/n vanishes like 1/n: n variance is positive and
    agrees at n = 2^24 and 2^28, for the models and angles of
    ``infinite_limit``."""
    rates, spreads, positive = {}, {}, True
    for label, spec in _LIMIT_SPECS:
        scaled = [
            n * finite_n.sketch_moments(spec, _RATE_ANGLES, n).variance for n in _RATE_NS
        ]
        positive = positive and min(scaled) > 0
        rates[label], spreads[label] = scaled[-1], _rate_spread(scaled)
    return positive and max(spreads.values()) <= 1e-4, {
        "positive": positive,
        "n_times_variance": rates,
        "rate_relative_spread": spreads,
        "tolerance": 1e-4,
    }


def _manifest_round_trip() -> tuple[bool, dict]:
    """Run one small CLI command into a scratch directory and validate that the
    manifest digests match the files and a re-run reproduces identical bytes.
    Then rerun a smaller grid into the same directory, which writes each file
    over in place and cuts it to length, and validate its digests and its bytes
    against the same command run into a fresh directory.  The command's own
    stdout is discarded, so only the report lines show."""
    import hashlib
    import tempfile
    from pathlib import Path

    args = [
        "landscape",
        "--sk",
        "--beta",
        "0:0.4:3",
        "--gamma",
        "0:1:3",
        "--mode",
        "infinite",
        "--mode",
        "instance:5:11",
    ]
    smaller = args[:2] + ["--beta", "0:0.4:2", "--gamma", "0:1:2"] + args[6:]
    runs = {}  # step -> (every manifest digest matches its file, bytes by name)
    with tempfile.TemporaryDirectory() as tmp:
        a, b, c = Path(tmp) / "a", Path(tmp) / "b", Path(tmp) / "c"
        for step, argv, out in (
            ("command", args, a),
            ("rerun", args, b),
            ("in_place_rerun", smaller, a),
            ("fresh_run", smaller, c),
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv + ["--out", str(out)]) != 0:
                    return False, {"failed": step}
            entries = json.loads((out / "manifest.json").read_text())["outputs"]
            files = {e["path"]: (out / e["path"]).read_bytes() for e in entries}
            runs[step] = (
                all(hashlib.sha256(files[e["path"]]).hexdigest() == e["sha256"] for e in entries),
                files,
            )
    digests_ok, files = runs["command"]
    rewritten_ok, rewritten = runs["in_place_rerun"]
    reproduced = files == runs["rerun"][1]
    in_place_ok = rewritten_ok and rewritten == runs["fresh_run"][1]
    return digests_ok and reproduced and in_place_ok, {
        "outputs": len(files),
        "digests_ok": digests_ok,
        "byte_identical_rerun": reproduced,
        "in_place_rerun_ok": in_place_ok,
    }

# (name, check, levels) in report order; each check returns (passed, details).
CHECKS = (
    ("sk_optimum", _sk_optimum, LEVELS),
    ("d3_optimum", _d3_optimum, ("full",)),
    ("approximation_factor", _approximation_factor, ("full",)),
    ("optimizer_scan", _optimizer_scan, ("full",)),
    ("form_equivalence", _form_equivalence, LEVELS),
    ("oracle_match_n6", _oracle_match_n6, ("quick",)),
    ("oracle_equivalence", _oracle_equivalence, ("full",)),
    ("combinatorial_identities", _combinatorial_identities, ("full",)),
    ("infinite_n_convergence", _infinite_n_convergence, ("full",)),
    ("concentration", _concentration, ("full",)),
    ("monte_carlo_consistency", _monte_carlo_consistency, ("full",)),
    ("statevector_consistency", _statevector_consistency, ("full",)),
    ("infinite_grid_consistency", _infinite_grid_consistency, ("full",)),
    ("finite_grid_consistency", _finite_grid_consistency, ("full",)),
    ("infinite_limit", _infinite_limit, ("full",)),
    ("concentration_rate", _concentration_rate, ("full",)),
    ("manifest_round_trip", _manifest_round_trip, ("full",)),
)


def run_check(name: str) -> CheckResult:
    """Run the check called ``name`` in ``CHECKS`` and time it."""
    for check_name, check, _ in CHECKS:
        if check_name == name:
            t0 = time.perf_counter()
            passed, details = check()
            return CheckResult(name, bool(passed), details, time.perf_counter() - t0)
    raise ValidationError(f"unknown check {name!r}")


def run(level: str = "quick") -> VerifyReport:
    """Run every check of ``level`` ('quick' or 'full') in table order."""
    if level not in LEVELS:
        raise ValidationError(f"level must be 'quick' or 'full', got {level!r}")
    names = [name for name, _, levels in CHECKS if level in levels]
    return VerifyReport(level=level, results=tuple(run_check(name) for name in names))
