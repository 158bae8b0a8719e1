import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msqaoa import optimizer, verify
from msqaoa.closed_form import (
    Angles,
    d3_stationarity_residuals,
    damping_rate,
    energy_sigma_form,
    energy_sigma_grid,
)
from msqaoa.errors import ValidationError
from msqaoa.model import make_mixture_spec, pure_d_spec
from msqaoa.optimizer import approximation_factor, optimize_closed_form

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
        assert optimize_closed_form(SK) == optimize_closed_form(SK)

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


def two_pass_canonical(angles):
    """The rule ``optimizer._canonical`` replaced: reduce beta by pi and map
    -pi/2 to pi/2, then, when gamma > 0 or gamma = 0 and beta < 0, flip
    (beta, gamma) -> (-beta, -gamma) and reduce again."""
    def reduce(beta, gamma):
        beta = beta - math.pi * math.floor(beta / math.pi + 0.5)
        return Angles(math.pi / 2 if beta == -math.pi / 2 else beta, gamma)

    a = reduce(angles.beta, angles.gamma)
    if a.gamma > 0 or (a.gamma == 0 and a.beta < 0):
        a = reduce(-a.beta, -a.gamma)
    return a


def keeps_the_rule(a):
    """beta in (-pi/2, pi/2], gamma <= 0, and beta >= 0 where gamma = 0."""
    return -math.pi / 2 < a.beta <= math.pi / 2 and a.gamma <= 0 and (a.gamma < 0 or a.beta >= 0)


TOP = sys.float_info.max
CANONICAL_GAMMAS = [0.3, -0.3, 0.0, -0.0, 5e-324, -5e-324, TOP, -TOP]


class TestCanonical:
    """The one-pass ``optimizer._canonical`` against the two-pass rule."""

    def test_random_betas_match_the_two_pass_rule(self):
        betas = np.random.default_rng(30).uniform(-1e3, 1e3, 5000).tolist()
        for beta in betas:
            for gamma in CANONICAL_GAMMAS:
                a = Angles(beta, gamma)
                assert repr(optimizer._canonical(a)) == repr(two_pass_canonical(a))

    def test_ends_of_the_beta_range(self):
        # pi * k rounds beta = +-pi/2 + k pi to an end of (-pi/2, pi/2] or past
        # one; the two-pass rule can then leave the range, the one-pass rule
        # reduces beta again and stays in the same class
        betas = []
        for k in range(-300, 301):
            for end in (math.pi / 2 + k * math.pi, -math.pi / 2 + k * math.pi):
                betas += [end, math.nextafter(end, math.inf), math.nextafter(end, -math.inf)]
        left = 0
        for beta in betas:
            for gamma in CANONICAL_GAMMAS:
                a = Angles(beta, gamma)
                new, old = optimizer._canonical(a), two_pass_canonical(a)
                assert keeps_the_rule(new)
                if keeps_the_rule(old):
                    assert repr(new) == repr(old)
                else:
                    left += 1
                    assert new.gamma == old.gamma
                    assert abs(math.remainder(new.beta - old.beta, math.pi)) < 1e-12
        assert left > 0

    def test_largest_finite_floats(self):
        # past 2^52 a float beta is a multiple of pi only to its rounding;
        # the rule still lands in range and flips gamma as the two-pass one
        for beta in (TOP, -TOP, math.nextafter(TOP, 0), -math.nextafter(TOP, 0)):
            for gamma in CANONICAL_GAMMAS:
                a = Angles(beta, gamma)
                new = optimizer._canonical(a)
                assert keeps_the_rule(new)
                assert repr(new.gamma) == repr(two_pass_canonical(a).gamma)

    def test_a_flipped_half_pi_stays_half_pi(self):
        for beta in (math.pi / 2, -math.pi / 2):
            assert optimizer._canonical(Angles(beta, 0.3)) == Angles(math.pi / 2, -0.3)


def reference_scan(spec, value=None):
    """The coarse scan point by point: (grid_best, x0) of a strict-< scan
    from inf in row-major order over the 65 betas in [-pi/4, pi/4] and 65
    gammas in +-2/sqrt(rate), of ``value(bi, gi)``, by default the energy."""
    gmax = 2.0 / math.sqrt(damping_rate(spec))
    betas = np.linspace(-math.pi / 4, math.pi / 4, 65)
    gammas = np.linspace(-gmax, gmax, 65)
    if value is None:
        def value(bi, gi):
            return energy_sigma_form(spec, Angles(float(betas[bi]), float(gammas[gi])))
    grid_best = math.inf
    x0 = np.array([betas[0], gammas[0]])
    for bi, b in enumerate(betas):
        for gi, g in enumerate(gammas):
            v = value(bi, gi)
            if v < grid_best:
                grid_best = v
                x0 = np.array([b, g])
    return grid_best, x0


def _scan_sees(monkeypatch, grid):
    """Make the optimizer's scan see ``grid`` in place of the energies: the
    screen reports that it cannot bound a cell, so the scan reads the whole
    grid from ``energy_sigma_grid``."""
    monkeypatch.setattr(
        optimizer,
        "_screen",
        lambda spec, gammas: (np.full(grid.shape, math.nan), np.zeros(len(gammas))),
    )
    monkeypatch.setattr(optimizer, "energy_sigma_grid", lambda *args: grid.copy())


def _ties_and_nan_grids():
    """Value grids for the scan: all +0.0, all -0.0, a minimum tied at
    three cells among signed zeros, a NaN column that np.argmin would
    pick, all NaN."""
    ties = np.where(np.random.default_rng(5).random((65, 65)) < 0.5, 0.0, -0.0)
    ties[3, 5] = ties[3, 7] = ties[10, 2] = -1.0
    nan_column = np.random.default_rng(6).uniform(-1.0, 1.0, (65, 65))
    nan_column[:, 2] = math.nan
    return [np.zeros((65, 65)), np.full((65, 65), -0.0), ties, nan_column,
            np.full((65, 65), math.nan)]


def _seeded_mixtures(count=5, seed=3):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        d = int(rng.integers(2, 7))
        sigmas = rng.uniform(0.0, 1.5, d)
        sigmas[rng.random(d) < 0.3] = 0.0
        sigmas[-1] = max(sigmas[-1], 0.5)
        specs.append(make_mixture_spec(d, sigmas))
    return specs


def _item1_mixtures(count=24, seed=81):
    """Mixtures drawn as the optimizer's test set of both parities: d in
    1..24, sigma uniform on [0, 1.5], 30% zeroed, the top sigma at least 0.3."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        d = int(rng.integers(1, 25))
        sigmas = rng.uniform(0.0, 1.5, d)
        sigmas[rng.random(d) < 0.3] = 0.0
        sigmas[-1] = max(sigmas[-1], 0.3)
        specs.append(make_mixture_spec(d, sigmas))
    return specs


# sigmas from 5e-324 to 1e150: squares that underflow to 0, the smallest
# normal damping rate, and energies of 1e149
EDGE_SPECS = [
    make_mixture_spec(len(sigmas), sigmas)
    for sigmas in (
        [5e-324, 1.0],
        [1.5e-154],
        [1e-150, 1e-150, 1e-150],
        [5e-324, 0.0, 0.7, 1e-300],
        [1e150],
        [1e150, 0.0, 1e150],
        [1e149] * 8,
    )
]
SCREENED_SPECS = (
    [pure_d_spec(d) for d in range(1, 25)] + _seeded_mixtures() + _item1_mixtures() + EDGE_SPECS
)


def _full_grid_minimum(spec):
    """(value, (beta, gamma)) of the first row-major minimum below inf of
    the whole ``energy_sigma_grid``, as the scan read it before the screen."""
    betas, gammas = optimizer._scan_axes(spec)
    grid = energy_sigma_grid(spec, betas, gammas)
    below_inf = np.where(grid < math.inf, grid, math.inf)
    bi, gi = np.unravel_index(np.argmin(below_inf), grid.shape)
    return float(below_inf[bi, gi]), (float(betas[bi]), float(gammas[gi]))


class TestScreen:
    """``optimizer._screen``'s bound and the cells it lets through."""

    def test_beta_tables_are_the_per_call_products(self):
        # the tables built once at import hold, for every degree, the bits
        # the screen used to compute per call on the scan's betas
        scan_betas = {id(optimizer._scan_axes(spec)[0]) for spec in SCREENED_SPECS}
        assert scan_betas == {id(optimizer._BETAS)}
        betas = optimizer._BETAS
        assert betas.tobytes() == np.linspace(-math.pi / 4, math.pi / 4, 65).tobytes()
        c = np.array([math.cos(2 * b) for b in betas.tolist()])
        s = np.array([math.sin(2 * b) for b in betas.tolist()])
        assert optimizer._COS_POWERS[:, 1].tobytes() == c.tobytes()
        assert optimizer._SIN_POWERS[:, 0].tobytes() == s.tobytes()
        for d in range(1, 25):
            odd = range(1, d + 1, 2)
            c_powers = np.ones((len(c), d))
            c_powers[:, 1:] = c[:, None]
            s_powers = np.empty((len(s), len(odd)))
            s_powers[:, 0], s_powers[:, 1:] = s, (s * s)[:, None]
            want_c, want_s = np.cumprod(c_powers, axis=1), np.cumprod(s_powers, axis=1)
            assert optimizer._COS_POWERS[:, :d].tobytes() == want_c.tobytes()
            assert optimizer._SIN_POWERS[:, : len(odd)].tobytes() == want_s.tobytes()
        for table in (optimizer._BETAS, optimizer._COS_POWERS, optimizer._SIN_POWERS):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    @given(st.floats(min_value=1e-154, max_value=1e154))
    # 2/sqrt(rate) for the largest float rate, the smallest normal one (the
    # last that _scan_axes takes), rates it refuses and the smallest float
    @example(2 / math.sqrt(sys.float_info.max))
    @example(2 / math.sqrt(sys.float_info.min))
    @example(2 / math.sqrt(math.nextafter(sys.float_info.min, 0)))
    @example(2 / math.sqrt(1e-320))
    @example(2 / math.sqrt(5e-324))
    @settings(max_examples=500, deadline=None)
    def test_scan_gammas_are_linspace(self, gmax):
        got = optimizer._scan_gammas(gmax)
        assert got.tobytes() == np.linspace(-gmax, gmax, 65).tobytes()

    def test_scan_steps_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            optimizer._STEPS[0] = 1.0

    @pytest.mark.parametrize("spec", SCREENED_SPECS)
    def test_bound_covers_every_cell(self, spec):
        betas, gammas = optimizer._scan_axes(spec)
        values, bounds = optimizer._screen(spec, gammas)
        grid = energy_sigma_grid(spec, betas, gammas)
        assert np.isfinite(values).all() and np.isfinite(bounds).all()
        assert (np.abs(values - grid) <= bounds).all()

    @pytest.mark.parametrize("spec", SCREENED_SPECS)
    def test_same_minimum_as_the_whole_grid(self, spec):
        got = optimizer._grid_minimum(spec)
        assert repr(got) == repr(_full_grid_minimum(spec))

    def test_a_zero_bound_picks_another_start(self, monkeypatch):
        # negative control: without its bound the screen's rounding picks a
        # different cell of a tied or nearly tied minimum
        real = optimizer._screen

        def unbounded(spec, gammas):
            values, bounds = real(spec, gammas)
            return values, np.zeros_like(bounds)

        monkeypatch.setattr(optimizer, "_screen", unbounded)
        moved = [
            spec for spec in SCREENED_SPECS
            if repr(optimizer._grid_minimum(spec))
            != repr(_full_grid_minimum(spec))
        ]
        assert moved

    def test_only_the_candidates_take_the_recurrence(self, monkeypatch):
        # the scan reads no grid, and evaluates the two cells of the
        # minimum's symmetric pair (b, g) ~ (-b, -g)
        points = []
        real = optimizer._energy_at

        def recording(coefficients, rate, beta, gamma):
            points.append((beta, gamma))
            return real(coefficients, rate, beta, gamma)

        monkeypatch.setattr(optimizer, "_energy_at", recording)
        monkeypatch.setattr(optimizer, "energy_sigma_grid", None)
        betas, gammas = optimizer._scan_axes(D3)
        optimizer._grid_minimum(D3)
        cells = [(betas.tolist().index(b), gammas.tolist().index(g)) for b, g in points]
        assert len(cells) == 2 and cells[0] == (64 - cells[1][0], 64 - cells[1][1])

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_candidate_not_below_inf_reads_the_whole_grid(self, monkeypatch, value):
        grids = []
        real = optimizer.energy_sigma_grid

        def recording(*args):
            grids.append(real(*args))
            return grids[-1]

        monkeypatch.setattr(optimizer, "_energy_at", lambda coefficients, rate, b, g: value)
        monkeypatch.setattr(optimizer, "energy_sigma_grid", recording)
        got = optimizer._grid_minimum(D3)
        assert len(grids) == 1
        assert repr(got) == repr(_full_grid_minimum(D3))

    @pytest.mark.parametrize("where", ["values", "bounds"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_cell_the_screen_cannot_bound_reads_the_whole_grid(
        self, monkeypatch, where, value
    ):
        real = optimizer._screen

        def broken(spec, gammas):
            values, bounds = real(spec, gammas)
            if where == "values":
                values[40, 3] = value
            else:
                bounds[3] = value
            return values, bounds

        monkeypatch.setattr(optimizer, "_screen", broken)
        monkeypatch.setattr(optimizer, "_energy_at", None)
        got = optimizer._grid_minimum(D3)
        assert repr(got) == repr(_full_grid_minimum(D3))


    def test_verify_row(self):
        res = verify.run_check("optimizer_scan")
        assert res.passed, res.details
        assert res.details["start_mismatches"] == 0
        assert 0 < res.details["max_error_over_bound"] <= 1
        assert res.details["zero_bound_moved_starts"] > 0

    def test_verify_row_fails_a_bound_too_tight(self, monkeypatch):
        # negative control: bounds a hundred times too small no longer cover
        # the grid
        real = optimizer._screen
        monkeypatch.setattr(
            optimizer, "_screen", lambda *args: (real(*args)[0], real(*args)[1] / 100)
        )
        res = verify.run_check("optimizer_scan")
        assert not res.passed and res.details["max_error_over_bound"] > 1


class TestPinnedOptima:
    """``optimize --pure-d 1..24``'s rows, as the commit before the screen
    wrote them."""

    def test_rows_match_the_pinned_file(self):
        pinned = (Path(__file__).parent / "data" / "optimum_pure_d_1_24.csv").read_text()
        lines = ["d,beta,gamma,value"]
        for d in range(1, 25):
            opt = optimize_closed_form(pure_d_spec(d))
            lines.append(f"{d},{opt.angles.beta!r},{opt.angles.gamma!r},{opt.value!r}")
        assert "\n".join(lines) + "\n" == pinned

    def test_mixture_rows_match_the_pinned_file(self):
        pinned = PINNED_MIXTURES.read_text().splitlines()
        got = pinned_mixture_text().splitlines()
        assert len(pinned) == len(got) == 608
        assert [i for i, (a, b) in enumerate(zip(got, pinned)) if a != b] == []


PINNED_MIXTURES = Path(__file__).parent / "data" / "optimum_mixtures_81.csv"


def pinned_mixture_text():
    """``optimum_mixtures_81.csv``: every ``Optimum`` field by repr for the
    600 mixtures of ``_item1_mixtures(600)`` and the ``EDGE_SPECS``.  The
    first four columns are the spec's ``optimize --sigmas`` row of
    ``optimum.csv``; the sigmas, by repr, fill the rest of the line."""
    lines = ["d,beta,gamma,value,grid_value,refinement_iterations,converged,gradient_norm,sigmas"]
    for spec in _item1_mixtures(600) + EDGE_SPECS:
        opt = optimize_closed_form(spec)
        fields = (opt.angles.beta, opt.angles.gamma, opt.value, opt.grid_value,
                  opt.refinement_iterations, opt.converged, opt.gradient_norm)
        lines.append(",".join([str(spec.d), *map(repr, fields), *map(repr, spec.sigmas)]))
    return "\n".join(lines) + "\n"


class TestGridScan:
    """The vectorized coarse scan picks the same start and grid value as the
    per-point scan, so the polish and the optimum are unchanged."""

    @staticmethod
    def run_with_start(monkeypatch, spec):
        starts = []
        real = optimizer._newton_polish

        def recording(spec, x0, *args):
            starts.append(np.array(x0, copy=True))
            return real(spec, x0, *args)

        monkeypatch.setattr(optimizer, "_newton_polish", recording)
        opt = optimize_closed_form(spec)
        [x0] = starts
        return opt, x0

    @pytest.mark.parametrize(
        "spec", [pure_d_spec(d) for d in range(1, 25)] + _seeded_mixtures()
    )
    def test_same_start_and_grid_value(self, monkeypatch, spec):
        opt, x0 = self.run_with_start(monkeypatch, spec)
        grid_best, ref_x0 = reference_scan(spec)
        assert [repr(v) for v in x0] == [repr(v) for v in ref_x0]
        assert repr(opt.grid_value) == repr(grid_best)
        assert opt.value <= opt.grid_value
        assert opt.value == energy_sigma_form(spec, opt.angles)

    @pytest.mark.parametrize("search", _ties_and_nan_grids())
    def test_ties_signed_zeros_and_nan(self, monkeypatch, search):
        # ``search`` is the value grid the scan sees
        _scan_sees(monkeypatch, search)
        opt, x0 = self.run_with_start(monkeypatch, D3)
        grid_best, ref_x0 = reference_scan(D3, lambda bi, gi: float(search[bi, gi]))
        assert [repr(v) for v in x0] == [repr(v) for v in ref_x0]
        assert repr(opt.grid_value) == repr(grid_best)

    def test_point_evaluations_are_refinement_only(self, monkeypatch):
        calls = 0
        real = optimizer._energy_at

        def counted(coefficients, rate, beta, gamma):
            nonlocal calls
            calls += 1
            return real(coefficients, rate, beta, gamma)

        monkeypatch.setattr(optimizer, "_energy_at", counted)
        optimize_closed_form(make_mixture_spec(3, [0.3, 0.5, 1.0]))
        assert 0 < calls <= optimizer._POLISH_BUDGET + 7


class TestGradientNorm:
    def test_recorded_and_below_tolerance_when_converged(self):
        opt = optimize_closed_form(SK)
        assert opt.converged and 0 <= opt.gradient_norm < 1e-7

    def test_recorded_when_the_simplex_stops_early(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_POLISH_BUDGET", 5)
        opt = optimize_closed_form(D3)
        assert not opt.converged
        assert math.isfinite(opt.gradient_norm) and opt.gradient_norm > 1e-7

    def test_curve_rows_carry_it(self):
        for d in (2, 3):
            opt = optimize_closed_form(pure_d_spec(d))
            assert opt.converged and 0 <= opt.gradient_norm < 1e-7


def test_underflowing_damping_rate_rejected():
    spec = make_mixture_spec(1, [1e-200])
    assert damping_rate(spec) == 0.0
    with pytest.raises(ValidationError, match="underflows"):
        optimize_closed_form(spec)


@pytest.mark.parametrize("sigmas", [[1e-160], [0.0, 2e-155], [1e-154]])
def test_tiny_damping_rate_rejected(sigmas):
    # below a rate of about 2.2e-308 (1e-320 here at most) the gamma
    # range +-2/sqrt(rate) reaches up to +-2e160, where g*g overflows
    spec = make_mixture_spec(len(sigmas), sigmas)
    assert 0 < damping_rate(spec) < 2.3e-308
    with pytest.raises(ValidationError, match="overflows"):
        optimize_closed_form(spec)


def test_smallest_normal_damping_rate_still_optimizes():
    spec = make_mixture_spec(1, [1.5e-154])  # rate 2.25e-308
    opt = optimize_closed_form(spec)
    assert opt.value < 0 and math.isfinite(opt.angles.gamma)


class TestNewtonPolish:
    def test_sk_anchor_is_exact(self):
        # the grid holds (-pi/8, 0.5) and the polish does not move it
        opt = optimize_closed_form(SK)
        assert repr(opt.angles) == repr(Angles(math.pi / 8, -0.5))
        assert repr(opt.value) == repr(-1 / math.sqrt(4 * math.e))

    def test_d3_stationarity_residuals(self):
        res = d3_stationarity_residuals(optimize_closed_form(D3).angles)
        assert all(r is not None and abs(r) < 1e-10 for r in (res.r1, res.r2, res.r3))

    @pytest.mark.parametrize("d", range(2, 25))
    def test_pure_d_converges(self, d):
        opt = optimize_closed_form(pure_d_spec(d))
        assert opt.converged and opt.gradient_norm < 1e-7
        assert 1 <= opt.refinement_iterations <= 10
        assert opt.value <= opt.grid_value

    def test_sk_and_d3_converge(self):
        for spec in (SK, D3):
            opt = optimize_closed_form(spec)
            assert opt.converged and opt.refinement_iterations >= 1

    @pytest.mark.parametrize(
        "search", [np.full((65, 65), math.nan), np.full((65, 65), math.inf)]
    )
    def test_never_evaluates_a_non_finite_point(self, monkeypatch, search):
        # The scan finds no value below inf, so the first step, to gamma =
        # -max float, is accepted; every later trial point overflows to -inf
        # until the halved step no longer moves gamma.
        _scan_sees(monkeypatch, search)
        monkeypatch.setattr(
            optimizer, "_descent_direction", lambda der: (0.0, -sys.float_info.max)
        )
        points = []

        def spy(name):
            real = getattr(optimizer, name)

            def recording(coefficients, rate, beta, gamma):
                points.append((beta, gamma))
                return real(coefficients, rate, beta, gamma)

            return recording

        for name in ("_energy_at", "_derivatives_at"):
            monkeypatch.setattr(optimizer, name, spy(name))
        optimize_closed_form(D3)
        assert points and all(math.isfinite(v) for p in points for v in p)
        assert min(g for _, g in points) == -sys.float_info.max

    def test_budget_bounds_evaluations(self, monkeypatch):
        calls = 0
        real = optimizer._derivatives_at

        def counted(coefficients, rate, beta, gamma):
            nonlocal calls
            calls += 1
            return real(coefficients, rate, beta, gamma)

        monkeypatch.setattr(optimizer, "_derivatives_at", counted)
        for budget in (1, 2, 3, 7):
            calls = 0
            monkeypatch.setattr(optimizer, "_POLISH_BUDGET", budget)
            opt = optimize_closed_form(D3)
            # the polish's evaluations plus one at the reported angles
            assert opt.refinement_iterations == calls - 1 <= budget

    def test_importing_the_cli_loads_no_scipy(self):
        loaded = _modules_loaded_by()
        assert not any(m.split(".")[0] == "scipy" for m in loaded)
        assert not loaded & _LAZY_ENGINES


# Engines a closed-form command never runs, and the stdlib module only
# ``verify`` needs.
_LAZY_ENGINES = {"msqaoa.finite_n", "msqaoa.simulator", "msqaoa.verify", "fractions"}


def _modules_loaded_by(*argv: str) -> set[str]:
    """The modules a fresh interpreter holds after ``import msqaoa.cli`` and,
    when ``argv`` is given, after ``msqaoa.cli.main(argv)`` returns 0."""
    src = Path(optimizer.__file__).resolve().parent.parent
    code = (
        "import json, sys, msqaoa.cli; "
        f"argv = {list(argv)!r}; "
        "assert not argv or msqaoa.cli.main(argv) == 0; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


_SMALL_GRID = ("--beta=0:0.4:3", "--gamma=-1:1:3")


@pytest.mark.parametrize(
    "argv, engines",
    [
        (("optimize", "--sk"), set()),
        (("landscape", "--sk", "--mode", "infinite"), set()),
        (("landscape", "--sk", *_SMALL_GRID, "--mode", "finite:8"), {"msqaoa.finite_n"}),
        (("landscape", "--sk", *_SMALL_GRID, "--mode", "instance:6:1"), {"msqaoa.simulator"}),
    ],
)
def test_a_command_loads_only_the_engines_it_runs(tmp_path, argv, engines):
    loaded = _modules_loaded_by(*argv, "--out", str(tmp_path))
    assert loaded & _LAZY_ENGINES == engines
    assert {"msqaoa.closed_form", "msqaoa.model", "msqaoa.optimizer"} <= loaded
    assert (tmp_path / "manifest.json").exists()


class TestCurve:
    """The pure d-spin optima, one per degree, as ``optimize --pure-d`` lists them."""

    def test_known_rows(self):
        two, three = (optimize_closed_form(pure_d_spec(d)) for d in (2, 3))
        assert two.value == pytest.approx(-0.303265, abs=1e-5)
        assert two.angles.beta == pytest.approx(math.pi / 8, abs=1e-4)
        assert two.angles.gamma == pytest.approx(-0.5, abs=1e-4)
        assert three.value == pytest.approx(-0.270638, abs=1e-5)

    def test_rows_are_stationary(self):
        h = 1e-6
        for d in (2, 3, 4, 5):
            spec = pure_d_spec(d)
            angles = optimize_closed_form(spec).angles
            beta, gamma = angles.beta, angles.gamma
            db = (
                energy_sigma_form(spec, Angles(beta + h, gamma))
                - energy_sigma_form(spec, Angles(beta - h, gamma))
            ) / (2 * h)
            dg = (
                energy_sigma_form(spec, Angles(beta, gamma + h))
                - energy_sigma_form(spec, Angles(beta, gamma - h))
            ) / (2 * h)
            assert math.hypot(db, dg) < 1e-6

    def test_d_below_one_rejected(self):
        # d = 1 is a model like any other (the --pure-d 1 CLI test); d = 0 is not
        with pytest.raises(ValidationError, match="degree bound must be >= 1"):
            pure_d_spec(0)


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
        with pytest.raises(ValidationError, match=r"must be finite and negative"):
            approximation_factor(-0.3, 0.8)

    @pytest.mark.parametrize("ground", [math.nan, -math.inf, math.inf, 0.0])
    def test_non_finite_or_non_negative_ground_state(self, ground):
        with pytest.raises(ValidationError, match=r"must be finite and negative"):
            approximation_factor(-0.3, ground)
