import math

import pytest

from msqaoa.closed_form import Angles, energy_sigma_form
from msqaoa.errors import EmptyGridError, SignError, ValidationError
from msqaoa.model import make_mixture_spec
from msqaoa.optimizer import (
    SearchConfig,
    approximation_factor,
    optimal_angle_curve,
    optimize_closed_form,
    pure_d_spec,
)

SK = make_mixture_spec(2, [0, 1])
D3 = make_mixture_spec(3, [0, 0, math.sqrt(3)])


class TestOptimize:
    def test_sk_optimum(self):
        opt = optimize_closed_form(SK)
        assert abs(opt.value - (-1 / math.sqrt(4 * math.e))) < 1e-5
        assert abs(opt.angles.beta - math.pi / 8) < 1e-4
        assert abs(opt.angles.gamma + 0.5) < 1e-4
        assert opt.converged

    def test_d3_optimum(self):
        opt = optimize_closed_form(D3)
        assert abs(opt.value - (-0.270638)) < 1e-5
        assert abs(opt.angles.beta - 0.290003) < 1e-4
        assert abs(opt.angles.gamma + 0.430091) < 1e-4

    def test_canonical_signs(self):
        for spec in (SK, D3, make_mixture_spec(3, [0.3, 0.5, 1.0])):
            opt = optimize_closed_form(spec)
            assert opt.angles.gamma <= 0 <= opt.angles.beta

    def test_refinement_never_worsens(self):
        for spec in (SK, D3):
            opt = optimize_closed_form(spec)
            assert opt.value <= opt.grid_value

    def test_value_matches_angles(self):
        opt = optimize_closed_form(D3)
        assert opt.value == energy_sigma_form(D3, opt.angles)

    def test_determinism(self):
        cfg = SearchConfig(grid=(33, 33))
        assert optimize_closed_form(SK, cfg) == optimize_closed_form(SK, cfg)

    def test_gamma_half_space_starts_agree(self):
        # searching only gamma > 0 or only gamma < 0 lands on the same
        # canonical optimum thanks to the (beta, gamma) -> (-beta, -gamma)
        # symmetry
        pos = optimize_closed_form(SK, SearchConfig(gamma_range=(0.05, 2.0)))
        neg = optimize_closed_form(SK, SearchConfig(gamma_range=(-2.0, -0.05)))
        assert pos.value == pytest.approx(neg.value, abs=1e-9)
        assert pos.angles.beta == pytest.approx(neg.angles.beta, abs=1e-5)
        assert pos.angles.gamma == pytest.approx(neg.angles.gamma, abs=1e-5)

    def test_empty_grid(self):
        with pytest.raises(EmptyGridError):
            optimize_closed_form(SK, SearchConfig(grid=(0, 5)))

    def test_gradient_at_optimum(self):
        opt = optimize_closed_form(SK)
        h = 1e-6
        b, g = opt.angles.beta, opt.angles.gamma
        db = (
            energy_sigma_form(SK, Angles(b + h, g))
            - energy_sigma_form(SK, Angles(b - h, g))
        ) / (2 * h)
        dg = (
            energy_sigma_form(SK, Angles(b, g + h))
            - energy_sigma_form(SK, Angles(b, g - h))
        ) / (2 * h)
        assert math.hypot(db, dg) < 1e-7


class TestCurve:
    def test_known_rows(self):
        rows = optimal_angle_curve([2, 3])
        assert rows[0].d == 2
        assert rows[0].value == pytest.approx(-0.303265, abs=1e-5)
        assert rows[0].beta == pytest.approx(math.pi / 8, abs=1e-4)
        assert rows[0].gamma == pytest.approx(-0.5, abs=1e-4)
        assert rows[1].value == pytest.approx(-0.270638, abs=1e-5)

    def test_rows_are_stationary(self):
        h = 1e-6
        for row in optimal_angle_curve([2, 3, 4, 5]):
            spec = pure_d_spec(row.d)
            db = (
                energy_sigma_form(spec, Angles(row.beta + h, row.gamma))
                - energy_sigma_form(spec, Angles(row.beta - h, row.gamma))
            ) / (2 * h)
            dg = (
                energy_sigma_form(spec, Angles(row.beta, row.gamma + h))
                - energy_sigma_form(spec, Angles(row.beta, row.gamma - h))
            ) / (2 * h)
            assert math.hypot(db, dg) < 1e-6

    def test_d_below_two_rejected(self):
        with pytest.raises(ValidationError):
            optimal_angle_curve([1])


class TestApproximationFactor:
    def test_quoted_value(self):
        assert approximation_factor(-0.270638, -0.8132) == pytest.approx(
            0.332806, abs=1e-4
        )

    def test_identity(self):
        assert approximation_factor(-0.5, -0.5) == 1.0

    def test_zero_numerator(self):
        assert approximation_factor(0.0, -0.8) == 0.0

    def test_sign_error(self):
        with pytest.raises(SignError):
            approximation_factor(-0.3, 0.8)

    @pytest.mark.parametrize("ground", [math.nan, -math.inf, math.inf, 0.0])
    def test_non_finite_or_non_negative_ground_state(self, ground):
        with pytest.raises(SignError):
            approximation_factor(-0.3, ground)
