import dataclasses
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest

from msqaoa import closed_form, optimizer, verify
from msqaoa.closed_form import (
    Angles,
    energy_mixture_form,
    energy_sigma_form,
    energy_sigma_grid,
)
from msqaoa.errors import ValidationError
from msqaoa.model import check_degree, damping_rate, make_mixture_spec, pure_d_spec

SK = make_mixture_spec(2, [0, 1])
D3 = make_mixture_spec(3, [0, 0, math.sqrt(3)])
SK_OPT = Angles(math.pi / 8, -0.5)
D3_OPT = Angles(0.290003, -0.430091)


def derivatives(spec, angles):
    """``closed_form._derivatives_at`` at an ``Angles``: the value, the
    gradient (dE/db, dE/dg) and the Hessian entries (E_bb, E_bg, E_gg)."""
    value, e_b, e_g, e_bb, e_bg, e_gg = closed_form._derivatives_at(
        spec._xi_coefficients, damping_rate(spec), angles.beta, angles.gamma
    )
    return value, (e_b, e_g), (e_bb, e_bg, e_gg)


def energy_pure_d(d, angles):
    """Infinite-n energy per spin for the pure d-spin model sigma_d = sqrt(d!/2):
    the general formula at c_d^2 = 1/2, gamma Im[(cos 2b + i sin 2b e^(-d g^2))^d],
    by a complex power, an independent closed form for the engine's recurrence."""
    check_degree(d)
    damp = math.exp(-d * (angles.gamma * angles.gamma))
    w = complex(math.cos(2 * angles.beta), math.sin(2 * angles.beta) * damp)
    return angles.gamma * (w**d).imag


class TestSigmaForm:
    def test_sk_reduces_to_known_form(self):
        # sigma_2 = 1 gives gamma e^(-2 gamma^2) sin(4 beta)
        for b in np.linspace(-1.5, 1.5, 11):
            for g in np.linspace(-2, 2, 9):
                want = g * math.exp(-2 * g * g) * math.sin(4 * b)
                assert energy_sigma_form(SK, Angles(b, g)) == pytest.approx(
                    want, rel=1e-14, abs=1e-15
                )

    def test_sk_optimum_value(self):
        assert energy_sigma_form(SK, SK_OPT) == pytest.approx(
            -1 / math.sqrt(4 * math.e), rel=1e-14
        )

    def test_gamma_zero(self):
        assert energy_sigma_form(D3, Angles(0.7, 0.0)) == 0.0

    def test_d3_value_at_quoted_optimum(self):
        assert energy_sigma_form(D3, D3_OPT) == pytest.approx(-0.270638, abs=1e-5)

    def test_d3_reduces_to_two_term_form(self):
        # 3 g e^(-3g^2) sin(2b) cos^2(2b) - g e^(-9g^2) sin^3(2b)
        for b, g in [(0.3, -0.4), (0.9, 0.7), (-0.2, 1.3)]:
            s, c = math.sin(2 * b), math.cos(2 * b)
            want = 3 * g * math.exp(-3 * g * g) * s * c * c - g * math.exp(
                -9 * g * g
            ) * s**3
            assert energy_sigma_form(D3, Angles(b, g)) == pytest.approx(want, rel=1e-13)

    def test_gamma_antisymmetry_exact(self):
        for b, g in [(0.3, 0.5), (1.1, -0.8), (0.05, 1.9)]:
            spec = make_mixture_spec(3, [0.2, 0.6, 0.9])
            assert energy_sigma_form(spec, Angles(b, -g)) == -energy_sigma_form(
                spec, Angles(b, g)
            )

    def test_beta_antisymmetry_pure_odd_d(self):
        for d in (1, 3, 5):
            spec = make_mixture_spec(d, [0.0] * (d - 1) + [1.0])
            for b, g in [(0.3, 0.5), (0.9, -0.7)]:
                assert energy_sigma_form(spec, Angles(-b, g)) == -energy_sigma_form(
                    spec, Angles(b, g)
                )

    def test_beta_antisymmetry_general(self):
        # every term carries an odd power of sin(2b), so oddness in beta holds
        # for arbitrary mixtures, not just pure odd degrees
        spec = make_mixture_spec(4, [0.2, 0.6, 0.9, 0.4])
        for b, g in [(0.3, 0.5), (0.9, -0.7), (1.4, 1.9)]:
            assert energy_sigma_form(spec, Angles(-b, g)) == -energy_sigma_form(
                spec, Angles(b, g)
            )

    def test_both_flip_invariance(self):
        spec = make_mixture_spec(3, [0.2, 0.6, 0.9])
        for b, g in [(0.3, 0.5), (0.9, -0.7)]:
            assert energy_sigma_form(spec, Angles(-b, -g)) == energy_sigma_form(
                spec, Angles(b, g)
            )

    def test_periodicity_in_beta(self):
        spec = make_mixture_spec(2, [0.3, 1.0])
        for b, g in [(0.2, 0.6), (-0.9, -1.1)]:
            a = energy_sigma_form(spec, Angles(b, g))
            # up to rounding of the shifted trig argument
            assert energy_sigma_form(spec, Angles(b + math.pi, g)) == pytest.approx(
                a, rel=1e-12, abs=1e-13
            )

    def test_finite_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            spec = make_mixture_spec(d, rng.uniform(0.01, 2.0, d))
            v = energy_sigma_form(
                spec, Angles(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            )
            assert math.isfinite(v)

    def test_degree_cap(self):
        with pytest.raises(ValidationError, match=r"must be >= 1 and <= 24, got d=25"):
            energy_sigma_form(make_mixture_spec(25, [1.0] * 25), SK_OPT)


GRID_BETAS = [0.0, -0.0, math.pi / 4, -math.pi / 4, math.pi / 2, 2.9, -1e-300, 0.37, -1.3]
GRID_GAMMAS = [0.0, -0.0, 5.0, -5.0, 30.0, 0.42, -1.1, 1e-8]


def _mixtures_with_zero_sigmas(count=12, seed=17):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        d = int(rng.integers(2, 9))
        sigmas = rng.uniform(0.05, 1.5, d)
        sigmas[rng.random(d) < 0.4] = 0.0
        sigmas[int(rng.integers(0, d))] = 0.8
        specs.append(make_mixture_spec(d, sigmas))
    return specs


class TestSigmaGrid:
    """``energy_sigma_grid`` against per-point ``energy_sigma_form``, compared
    by ``repr`` so that a sign of zero also counts."""

    @staticmethod
    def assert_bit_identical(spec, betas, gammas):
        grid = energy_sigma_grid(spec, betas, gammas)
        assert grid.shape == (len(betas), len(gammas))
        for i, b in enumerate(betas):
            for j, g in enumerate(gammas):
                want = energy_sigma_form(spec, Angles(float(b), float(g)))
                assert repr(float(grid[i, j])) == repr(want), (spec, b, g)

    @pytest.mark.parametrize("d", range(1, 25))
    def test_pure_d(self, d):
        self.assert_bit_identical(pure_d_spec(d), GRID_BETAS, GRID_GAMMAS)

    @pytest.mark.parametrize("spec", _mixtures_with_zero_sigmas())
    def test_mixtures_with_zero_sigmas(self, spec):
        self.assert_bit_identical(spec, GRID_BETAS, GRID_GAMMAS)

    @pytest.mark.parametrize(
        "betas, gammas",
        [([0.3], [-0.5]), ([0.3], GRID_GAMMAS), (GRID_BETAS, [-0.5])],
    )
    def test_one_point_row_and_column(self, betas, gammas):
        self.assert_bit_identical(make_mixture_spec(3, [0.2, 0.6, 0.9]), betas, gammas)

    def test_accepts_arrays_and_returns_float_array(self):
        grid = energy_sigma_grid(SK, np.linspace(-0.5, 0.5, 4), (0.1, 0.2))
        assert grid.dtype == np.float64 and grid.shape == (4, 2)

    @pytest.mark.parametrize(
        "betas, gammas",
        [
            ([], [0.1]),
            ([0.1], []),
            ([[0.1, 0.2]], [0.1]),
            ([0.1], [[0.1], [0.2]]),
            ([math.nan], [0.1]),
            ([0.1], [math.inf]),
            ([-math.inf, 0.2], [0.1]),
        ],
    )
    def test_rejects_empty_2d_and_non_finite_axes(self, betas, gammas):
        with pytest.raises(ValidationError):
            energy_sigma_grid(D3, betas, gammas)

    def test_degree_cap(self):
        with pytest.raises(ValidationError, match=r"must be >= 1 and <= 24, got d=25"):
            energy_sigma_grid(make_mixture_spec(25, [1.0] * 25), [0.1], [0.2])


EXTREME_BETAS = [s * b for b in (0.0, math.pi / 4, math.pi / 2) for s in (1, -1)]
EXTREME_GAMMAS = [
    s * g for g in (0.0, 1e-300, 30.0, 1e154, 1e200, sys.float_info.max) for s in (1, -1)
]


def _dense_mixtures(count=8, seed=41):
    rng = np.random.default_rng(seed)
    return [
        make_mixture_spec(d, rng.uniform(0.05, 1.5, d))
        for d in rng.integers(1, 25, count).tolist()
    ]


class TestOneRecurrence:
    """``_derivatives_at``'s value is ``energy_sigma_form``'s, compared by
    ``repr``, so the optimizer's scan, line search, convergence test and
    reported value all see one function."""

    @pytest.mark.parametrize(
        "spec",
        [pure_d_spec(d) for d in range(1, 25)]
        + _dense_mixtures()
        + _mixtures_with_zero_sigmas(),
    )
    def test_derivatives_value_is_the_sigma_form(self, spec):
        for b, g in itertools.product(EXTREME_BETAS, EXTREME_GAMMAS):
            ang = Angles(b, g)
            assert repr(derivatives(spec, ang)[0]) == repr(
                energy_sigma_form(spec, ang)
            ), (spec, b, g)


class TestFormEquivalenceCheck:
    @pytest.mark.parametrize("spec", [pure_d_spec(d) for d in range(1, 7)] + [
        make_mixture_spec(6, [0.3, 0.0, 1.2, 0.5, 0.0, 0.9]),
        make_mixture_spec(4, [1.4, 0.2, 0.7, 0.05]),
    ])
    def test_reference_against_50_digits(self, spec):
        # verify's explicit degree sum on the optimizer's scan ranges, d <= 6
        gmax = 2 / math.sqrt(damping_rate(spec))
        points = list(
            itertools.product(
                np.linspace(-math.pi / 4, math.pi / 4, 13), np.linspace(-gmax, gmax, 13)
            )
        )
        want = [energy_at_50_digits(spec, b, g) for b, g in points]
        top = max(abs(e) for e in want)
        for (b, g), e in zip(points, want):
            got = verify._explicit_degree_sum(spec, Angles(float(b), float(g)))
            assert abs(got - e) <= 2e-15 * top, (b, g)

    def test_passes(self):
        res = verify.run_check("form_equivalence")
        assert res.passed, res.details
        assert set(res.details) == {"points", "max_relative_discrepancy", "tolerance"}

    def test_corrupted_engine_fails(self, monkeypatch):
        # negative control: the engine off by 1e-11 relative
        real = closed_form.energy_sigma_form
        monkeypatch.setattr(
            closed_form, "energy_sigma_form", lambda *args: real(*args) * (1 + 1e-11)
        )
        assert not verify.run_check("form_equivalence").passed


class TestInfiniteGridCheck:
    def test_passes(self):
        res = verify.run_check("infinite_grid_consistency")
        assert res.passed, res.details
        assert res.details["perturbed_beta_relative_error"] >= 1e-12

    def test_corrupted_grid_fails(self, monkeypatch):
        # negative control: the grid engine off by 1e-11 relative
        real = closed_form.energy_sigma_grid
        monkeypatch.setattr(
            closed_form, "energy_sigma_grid", lambda *args: real(*args) * (1 + 1e-11)
        )
        assert not verify.run_check("infinite_grid_consistency").passed


class TestMixtureForm:
    def test_sk_value(self):
        xi = SK.mixture_function()  # xi(x) = x^2/2
        assert energy_mixture_form(xi, SK_OPT) == pytest.approx(-0.303265, abs=1e-6)

    def test_beta_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            xi = make_mixture_spec(d, rng.uniform(0.05, 2.0, d)).mixture_function()
            assert energy_mixture_form(xi, Angles(0.0, float(rng.uniform(-2, 2)))) == 0.0

    def test_matches_sigma_form(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            d = int(rng.integers(1, 7))
            sig = rng.uniform(0.0, 1.5, d)
            if not sig.any():
                sig[0] = 1.0
            spec = make_mixture_spec(d, sig)
            ang = Angles(
                float(rng.uniform(-math.pi / 2, math.pi / 2)),
                float(rng.uniform(-2, 2)),
            )
            a = energy_sigma_form(spec, ang)
            b = energy_mixture_form(spec.mixture_function(), ang)
            assert abs(a - b) < 1e-12 * (1 + abs(a))


class TestPureD:
    def test_d2_optimum(self):
        assert energy_pure_d(2, SK_OPT) == pytest.approx(-0.303265, abs=1e-6)

    def test_d3_optimum(self):
        assert energy_pure_d(3, D3_OPT) == pytest.approx(-0.270638, abs=1e-6)

    def test_beta_quarter_pi_d2(self):
        # cos(2b) = 0, so the argument is purely imaginary and its square real
        assert energy_pure_d(2, Angles(math.pi / 4, 0.8)) == pytest.approx(0.0, abs=1e-15)

    def test_matches_sigma_form(self):
        rng = np.random.default_rng(3)
        for d in range(1, 7):
            spec = make_mixture_spec(
                d, [0.0] * (d - 1) + [math.sqrt(math.factorial(d) / 2)]
            )
            for _ in range(30):
                ang = Angles(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-2, 2)))
                a = energy_pure_d(d, ang)
                b = energy_sigma_form(spec, ang)
                assert abs(a - b) < 1e-12 * (1 + abs(a))

    def test_degree_zero(self):
        with pytest.raises(ValidationError, match=r"degree bound must be >= 1"):
            energy_pure_d(0, SK_OPT)

    @pytest.mark.parametrize("d", [25, 171, 10**30])
    def test_degree_above_the_model_range(self, d):
        with pytest.raises(ValidationError, match=r"must be >= 1 and <= 24"):
            energy_pure_d(d, SK_OPT)


def _top_degree_specs():
    rng = np.random.default_rng(29)
    specs = [pure_d_spec(d) for d in range(21, 25)]
    for d in (21, 22, 23, 24, 24, 24):
        sigmas = rng.uniform(0.0, 1.5, d)
        sigmas[rng.random(d) < 0.3] = 0.0
        sigmas[-1] = max(sigmas[-1], 0.5)
        specs.append(make_mixture_spec(d, sigmas))
    return specs


def energy_at_50_digits(spec, beta, gamma):
    """2 gamma Im xi(w) in mpmath, xi(x) = sum_q sigma_q^2 x^q / q!."""
    with mpmath.workdps(50):
        b, g = mpmath.mpf(beta), mpmath.mpf(gamma)
        weights = [
            (q, mpmath.mpf(s) ** 2 / mpmath.factorial(q))
            for q, s in enumerate(spec.sigmas, start=1)
        ]
        rate = sum(q * c for q, c in weights)
        w = mpmath.mpc(mpmath.cos(2 * b), mpmath.sin(2 * b) * mpmath.exp(-2 * g * g * rate))
        return float(2 * g * sum(c * w**q for q, c in weights).imag)


class TestDegreesAbove20:
    """d = 21..24, which every engine takes since the model types hold the
    one degree rule."""

    @pytest.mark.parametrize("spec", _top_degree_specs())
    def test_sigma_and_mixture_forms_agree(self, spec):
        rng = np.random.default_rng(spec.d)
        for _ in range(50):
            ang = Angles(
                float(rng.uniform(-math.pi / 2, math.pi / 2)),
                float(rng.uniform(-2, 2)),
            )
            a = energy_sigma_form(spec, ang)
            b = energy_mixture_form(spec.mixture_function(), ang)
            assert abs(a - b) < 1e-12 * (1 + abs(a))

    @pytest.mark.parametrize("spec", _top_degree_specs())
    def test_against_50_digits(self, spec):
        # On the optimizer's scan ranges.  The Horner recurrence errs by at
        # most 1.5e-15 of max |E| here; the explicit degree sum it replaced
        # cancelled near gamma = 0, where its terms reach
        # (|sin 2b| + |cos 2b|)^d / 2, and erred by up to 3.0e-14 at d = 24.
        gmax = 2 / math.sqrt(damping_rate(spec))
        betas = np.linspace(-math.pi / 4, math.pi / 4, 13)
        gammas = np.linspace(-gmax, gmax, 13)
        want = np.array([[energy_at_50_digits(spec, b, g) for g in gammas] for b in betas])
        top = np.max(np.abs(want))
        grid = energy_sigma_grid(spec, betas, gammas)
        assert np.max(np.abs(grid - want)) <= 2e-15 * top
        xi = spec.mixture_function()
        for (b, g), e in zip(itertools.product(betas, gammas), want.flat):
            assert abs(energy_mixture_form(xi, Angles(b, g)) - e) <= 1e-14 * top


class TestStationarity:
    def test_residuals_at_quoted_optimum(self):
        r1, r2, r3 = verify._d3_residuals(D3_OPT)
        assert r1 is not None and abs(r1) < 1e-4
        assert r2 is not None and abs(r2) < 1e-4
        assert r3 is not None and abs(r3) < 1e-4

    def test_residuals_at_mirrored_optimum(self):
        res = verify._d3_residuals(Angles(-0.290003, 0.430091))
        assert all(abs(r) < 1e-4 for r in res)

    def test_r1_defined_nonzero(self):
        r1, _, _ = verify._d3_residuals(Angles(0.0, 1.0))
        assert r1 is not None and r1 != 0.0

    def test_r3_domain_flag(self):
        # 4 gamma^2 < 2/3 leaves the radical negative
        _, _, r3 = verify._d3_residuals(Angles(0.1, 0.1))
        assert r3 is None

    def test_r1_domain_flag(self):
        r1, r2, _ = verify._d3_residuals(Angles(0.1, 0.1))
        assert r1 is None
        assert r2 is not None

    def test_r1_and_r3_undefined_at_zero_gamma(self):
        # no arccos at gamma = 0, and the radical is negative there
        assert verify._d3_residuals(Angles(0.3, 0.0)) == [None, 4.0, None]


NON_FINITE = [math.nan, math.inf, -math.inf]
# (beta, gamma) pairs: an Angles of them cannot be made
NON_FINITE_ANGLES = [(v, 0.3) for v in NON_FINITE] + [(0.2, v) for v in NON_FINITE]


class TestAnglesAreFinite:
    """``Angles`` refuses NaN and +-inf in either slot, so no entry point
    that takes one (verify._d3_residuals and optimizer._canonical
    included) ever sees a non-finite angle."""

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("slot", ["beta", "gamma"])
    def test_construction_and_replace(self, slot, value):
        finite = Angles(0.2, 0.3)
        message = r"angles must be finite, got Angles\(beta="
        with pytest.raises(ValidationError, match=message):
            Angles(**{**dataclasses.asdict(finite), slot: value})
        with pytest.raises(ValidationError, match=message):
            dataclasses.replace(finite, **{slot: value})

    def test_largest_finite_angles_are_taken(self):
        top = sys.float_info.max
        ang = dataclasses.replace(Angles(-top, top), gamma=-top)
        assert (ang.beta, ang.gamma) == (-top, -top)
        assert math.isfinite(optimizer._canonical(ang).beta)


class TestNonFiniteAngles:
    """Each entry point is reached only through the ``Angles`` constructor."""

    @pytest.mark.parametrize("ang", NON_FINITE_ANGLES)
    def test_sigma_form(self, ang):
        with pytest.raises(ValidationError):
            energy_sigma_form(D3, Angles(*ang))

    @pytest.mark.parametrize("ang", NON_FINITE_ANGLES)
    def test_mixture_and_pure_forms_and_derivatives(self, ang):
        with pytest.raises(ValidationError):
            energy_mixture_form(D3.mixture_function(), Angles(*ang))
        with pytest.raises(ValidationError):
            energy_pure_d(3, Angles(*ang))
        with pytest.raises(ValidationError):
            derivatives(D3, Angles(*ang))


class TestHugeGamma:
    @pytest.mark.parametrize(
        "gamma", [1e200, -1e200, 1e308, -1e308, sys.float_info.max, -sys.float_info.max]
    )
    def test_every_form_damps_to_zero(self, gamma):
        # gamma^2 overflows to inf, so the damping is exactly 0 and so is E;
        # past 9e307 so does 2 gamma, which the forms never form
        spec = make_mixture_spec(3, [0.3, 0.5, 1.0])
        ang = Angles(0.3, gamma)
        assert energy_pure_d(2, ang) == 0.0
        assert energy_mixture_form(spec.mixture_function(), ang) == 0.0
        assert energy_sigma_form(spec, ang) == 0.0
        assert derivatives(spec, ang)[0] == 0.0
        assert (energy_sigma_grid(spec, [0.3, -1.1], [gamma, 0.5])[:, 0] == 0.0).all()


def _derivative_specs():
    rng = np.random.default_rng(23)
    specs = [pure_d_spec(d) for d in range(1, 25)]
    for _ in range(8):
        d = int(rng.integers(1, 9))
        sigmas = rng.uniform(0.0, 1.5, d)
        sigmas[rng.random(d) < 0.3] = 0.0
        sigmas[-1] = max(sigmas[-1], 0.5)
        specs.append(make_mixture_spec(d, sigmas))
    return specs


class TestEnergyDerivatives:
    @pytest.mark.parametrize("spec", _derivative_specs())
    def test_against_central_differences(self, spec):
        # the gradient against differences of energy_sigma_form, the Hessian
        # against differences of the gradient (both mixed partials); at
        # h = 1e-6 the truncation and rounding errors are below 1e-9 relative
        h = 1e-6
        scale = 1 / math.sqrt(damping_rate(spec))
        for b, g in [(0.3, -0.4 * scale), (-1.1, 0.9 * scale), (0.05, 0.2 * scale)]:
            value, gradient, hessian = derivatives(spec, Angles(b, g))
            assert value == pytest.approx(
                energy_sigma_form(spec, Angles(b, g)), rel=1e-12, abs=1e-15
            )

            def energy(db, dg):
                return energy_sigma_form(spec, Angles(b + db, g + dg))

            def gradient_at(db, dg):
                return derivatives(spec, Angles(b + db, g + dg))[1]

            diff_gradient = (
                (energy(h, 0) - energy(-h, 0)) / (2 * h),
                (energy(0, h) - energy(0, -h)) / (2 * h),
            )
            d_db = [(p - m) / (2 * h) for p, m in zip(gradient_at(h, 0), gradient_at(-h, 0))]
            d_dg = [(p - m) / (2 * h) for p, m in zip(gradient_at(0, h), gradient_at(0, -h))]
            diff_hessian = (d_db[0], d_dg[0], d_dg[1])
            tol = 1e-8 * (1 + max(abs(v) for v in hessian))
            for exact, approx in zip(gradient, diff_gradient):
                assert abs(exact - approx) < tol
            for exact, approx in zip(hessian, diff_hessian):
                assert abs(exact - approx) < tol
            assert abs(hessian[1] - d_db[1]) < tol

    def test_zero_gradient_at_sk_optimum(self):
        _, gradient, (hbb, hbg, hgg) = derivatives(SK, SK_OPT)
        assert math.hypot(*gradient) < 1e-15
        assert hbb > 0 and hbb * hgg - hbg * hbg > 0

    def test_huge_gamma_gives_non_finite_entries_without_raising(self):
        _, _, hessian = derivatives(SK, Angles(0.3, -1e200))
        assert not all(math.isfinite(v) for v in hessian)
