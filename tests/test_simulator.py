import dataclasses
import math
import sys
from itertools import combinations

import numpy as np
import pytest

from msqaoa import finite_n, simulator, verify
from msqaoa.closed_form import Angles, energy_sigma_form
from msqaoa.errors import CapExceededError, ValidationError
from msqaoa.finite_n import sketch_moments
from msqaoa.model import (
    MixtureSpec,
    ProblemInstance,
    cost,
    make_mixture_spec,
    popcounts,
    sample_instance,
)
from msqaoa.simulator import (
    HADAMARD,
    SLICE_BITS,
    _apply_kron,
    _kron_factors,
    _phased,
    _rotation,
    build_phase_table,
    expectation,
    landscape_instance,
    qaoa_state,
)

SK = make_mixture_spec(2, [0, 1])


def subsets_by_mask(n, q):
    """Size-q subsets of spins 0..n-1 sorted by bitmask, the storage order,
    enumerated here independently of the model's own enumeration."""
    return sorted(combinations(range(n), q), key=lambda s: sum(1 << i for i in s))


def single_coupling_instance(n, indices, value):
    d = len(indices)
    spec = MixtureSpec(d, tuple([0.0] * (d - 1) + [1.0]))
    couplings = [np.zeros(math.comb(n, q)) for q in range(1, d + 1)]
    couplings[-1][subsets_by_mask(n, d).index(tuple(i - 1 for i in indices))] = value
    return ProblemInstance(n=n, spec=spec, seed=0, couplings=tuple(couplings))


def parity_reference_table(instance):
    """The table built coupling by coupling: one parity pass over all 2^n
    indices per subset, independent of the transform in the simulator."""
    n = instance.n
    idx = np.arange(1 << n, dtype=np.int64)
    values = np.zeros(1 << n)
    scale = [n ** ((1 - q) / 2) for q in range(instance.spec.d + 1)]
    terms = sorted(
        (sum(1 << b for b in bits), bits, j)
        for q, couplings in enumerate(instance.couplings, start=1)
        for bits, j in zip(subsets_by_mask(n, q), couplings.tolist())
    )
    for _, bits, j in terms:
        if j == 0.0:
            continue
        parity = idx >> bits[0]
        for b in bits[1:]:
            parity = parity ^ (idx >> b)
        signs = 1.0 - 2.0 * (parity & 1)
        values += (scale[len(bits)] * j) * signs
    return values


def tensordot_reference(x, u, n):
    """u applied to every bit of x's index, one np.tensordot per spin axis.
    Axis n-1-b of the (2,)*n view carries bit b."""
    psi = x.reshape((2,) * n)
    for axis in range(n):
        psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [axis])), 0, axis)
    return psi.reshape(-1)


def random_vector(rng, n):
    return rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)


def spec_with_gaps(d):
    # degrees 2 and 4 below the top one have sigma_q = 0
    lower = [0.0 if q % 2 else 0.4 + 0.1 * q for q in range(d - 1)]
    return make_mixture_spec(d, lower + [1.0])


def random_string(idx, n):
    return [1 - 2 * ((int(idx) >> b) & 1) for b in range(n)]


class TestKronTransform:
    # n = 1..13 covers every remainder of n mod SLICE_BITS, and more than
    # two slices
    @pytest.mark.parametrize("n", range(1, 14))
    @pytest.mark.parametrize("gate", ["hadamard", "mixer"])
    def test_matches_tensordot_reference(self, n, gate):
        rng = np.random.default_rng(n)
        u = HADAMARD if gate == "hadamard" else _rotation(0.61)
        x = random_vector(rng, n)
        got = _apply_kron(x, _kron_factors(u, n))
        want = tensordot_reference(x, u, n)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("n", [1, 5, 7, 12])
    def test_rows_transformed_independently(self, n):
        # a (2, 2^n) array [re; im] is transformed row by row
        rng = np.random.default_rng(200 + n)
        x = rng.standard_normal((2, 1 << n))
        u = _rotation(-1.1)
        got = _apply_kron(x, _kron_factors(u, n))
        assert got.shape == x.shape
        for row in range(2):
            want = tensordot_reference(x[row], u, n)
            np.testing.assert_allclose(got[row], want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("n", range(1, 14))
    def test_hadamard_twice_is_scaled_identity(self, n):
        x = random_vector(np.random.default_rng(100 + n), n)
        factors = _kron_factors(HADAMARD, n)
        out = _apply_kron(_apply_kron(x, factors), factors)
        np.testing.assert_allclose(out, (1 << n) * x, rtol=0, atol=1e-12 * (1 << n))


class TestPhaseTable:
    def test_all_zero(self):
        inst = single_coupling_instance(3, (1, 2), 0.0)
        assert not build_phase_table(inst).any()

    def test_hand_table_n2(self):
        inst = single_coupling_instance(2, (1, 2), 1.0)
        want = np.array([1, -1, -1, 1]) * 2**-0.5
        np.testing.assert_allclose(build_phase_table(inst), want, rtol=1e-15)

    def test_matches_cost_pointwise(self):
        inst = sample_instance(make_mixture_spec(3, [0.3, 0.5, 1.0]), 8, 5)
        table = build_phase_table(inst)
        rng = np.random.default_rng(17)
        for idx in rng.integers(0, 1 << 8, 100):
            z = [1 - 2 * ((int(idx) >> b) & 1) for b in range(8)]
            assert table[idx] == pytest.approx(cost(inst, z), rel=1e-13, abs=1e-15)

    def test_cap(self):
        inst = sample_instance(make_mixture_spec(1, [1.0]), 25, 0)
        with pytest.raises(CapExceededError, match=r"cap is n=24"):
            build_phase_table(inst)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_parity_reference(self, d):
        spec = spec_with_gaps(d)
        for n in range(d, 13):
            inst = sample_instance(spec, n, 100 * d + n)
            want = parity_reference_table(inst)
            got = build_phase_table(inst)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_scatter_lists_no_subsets(self, monkeypatch):
        # the table places each degree by popcount, never through subset rows
        assert not hasattr(simulator, "subsets")
        inst = sample_instance(spec_with_gaps(4), 10, 5)

        def refused(n, q):
            raise AssertionError("the phase table listed subsets")

        monkeypatch.setattr("msqaoa.model.subsets", refused)
        want = parity_reference_table(inst)
        got = build_phase_table(inst)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("n", [11, 17])
    def test_partial_top_slice_matches_cost(self, n):
        assert n % SLICE_BITS
        inst = sample_instance(make_mixture_spec(3, [0.3, 0.5, 1.0]), n, n)
        table = build_phase_table(inst)
        rng = np.random.default_rng(n)
        for idx in [0, (1 << n) - 1, *rng.integers(0, 1 << n, 60)]:
            want = cost(inst, random_string(idx, n))
            assert table[idx] == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_near_cap_matches_cost(self):
        n = 18
        inst = sample_instance(make_mixture_spec(3, [0.3, 0.5, 1.0]), n, 4)
        table = build_phase_table(inst)
        rng = np.random.default_rng(29)
        for idx in rng.integers(0, 1 << n, 50):
            want = cost(inst, random_string(idx, n))
            assert table[idx] == pytest.approx(want, rel=1e-13, abs=1e-13)


def dense_reference_state(instance, angles):
    """exp(-i beta X) on every spin, as a complex gate applied by
    ``tensordot_reference``, after exp(-i gamma H)|+> with H from the parity
    reference: no gauge and no Kronecker factors."""
    n = instance.n
    phased = np.exp(-1j * angles.gamma * parity_reference_table(instance)) * 2.0 ** (-n / 2)
    c, s = math.cos(angles.beta), math.sin(angles.beta)
    gate = np.array([[c, -1j * s], [-1j * s, c]])
    return tensordot_reference(phased, gate, n)


class TestDenseReference:
    # the real gauge-rotated state against the complex dense one
    @pytest.mark.parametrize("n", range(1, 13))
    def test_state_and_expectation(self, n):
        d = min(n, 3)
        inst = sample_instance(spec_with_gaps(d), n, 40 + n)
        table = parity_reference_table(inst)
        rng = np.random.default_rng(60 + n)
        for b, g in [(0.0, 0.8), (math.pi / 2, -0.4), *rng.uniform(-2, 2, (4, 2))]:
            ang = Angles(float(b), float(g))
            want = dense_reference_state(inst, ang)
            np.testing.assert_allclose(qaoa_state(inst, ang), want, rtol=0, atol=1e-13)
            prob = np.abs(want) ** 2
            h, h2 = expectation(inst, ang)
            scale = np.abs(table).max()
            assert abs(h - prob @ table) < 1e-13 * scale
            assert abs(h2 - prob @ (table * table)) < 1e-13 * scale**2

    @pytest.mark.parametrize("n", range(1, 13))
    def test_quarter_turns(self, n):
        # the gauge's quarter turns are the model's popcounts mod 4
        want = [bin(idx).count("1") for idx in range(1 << n)]
        sizes = popcounts(n)
        assert sizes.dtype == np.uint8
        assert sizes.tolist() == want
        assert (sizes & 3).tolist() == [k % 4 for k in want]


def half_angle(table, turns, gamma):
    """Half of -(gamma H + (pi/2) turns), formed as ``_phased`` forms it:
    halving gamma and the quarter turns is exact."""
    return table * (-0.5 * gamma) + (-0.25 * math.pi) * turns


def largest_accepted_gamma(table):
    """The largest gamma at which every (gamma/2) H is finite."""
    top = max(float(table.max()), -float(table.min()))
    gamma = min(sys.float_info.max, 2.0 * (sys.float_info.max / top))
    with np.errstate(over="ignore"):
        while not np.isfinite(table * (-0.5 * gamma)).all():
            gamma = math.nextafter(gamma, 0.0)
        while gamma < sys.float_info.max and np.isfinite(
            table * (-0.5 * math.nextafter(gamma, math.inf))
        ).all():
            gamma = math.nextafter(gamma, math.inf)
    return gamma


def phase_instance(n):
    return sample_instance(spec_with_gaps(min(n, 3)), n, 80 + n)


def turn_arrays(n):
    """The gauge's own quarter turns, then each of the four on every entry."""
    return [popcounts(n) & 3, *(np.full(1 << n, k, dtype=np.uint8) for k in range(4))]


class TestPhased:
    # the tangent-built rows against libm cosine and sine of the same angle
    @pytest.mark.parametrize("n", range(1, 15))
    @pytest.mark.parametrize(
        "gamma", [0.0, 5e-324, -5e-324, 0.35, 3.7, -1e3, 1e8, 1e154, 1e300]
    )
    def test_matches_libm_of_the_same_angle(self, n, gamma):
        table = build_phase_table(phase_instance(n))
        for turns in turn_arrays(n):
            angle = 2.0 * half_angle(table, turns, gamma)
            rows = _phased(table, turns, gamma)
            np.testing.assert_allclose(rows[0], np.cos(angle), rtol=0, atol=1e-15)
            np.testing.assert_allclose(rows[1], np.sin(angle), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_largest_accepted_gamma(self, n):
        # the whole angle overflows here, so libm takes the half angle and
        # the double-angle formulas give the rows
        table = build_phase_table(phase_instance(n))
        gamma = largest_accepted_gamma(table)
        for turns in turn_arrays(n):
            half = half_angle(table, turns, gamma)
            c, s = np.cos(half), np.sin(half)
            rows = _phased(table, turns, gamma)
            np.testing.assert_allclose(rows[0], (c - s) * (c + s), rtol=0, atol=1e-15)
            np.testing.assert_allclose(rows[1], 2.0 * s * c, rtol=0, atol=1e-15)


class TestPhaseOverflow:
    # at these seeds max|H| > 1, so a gamma just past the largest accepted
    # one is a finite float
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_half_phase_refused(self, sign):
        inst = sample_instance(SK, 6, 2)
        gamma = largest_accepted_gamma(build_phase_table(inst))
        assert gamma < sys.float_info.max
        over = sign * math.nextafter(gamma, math.inf)
        ang = Angles(0.3, over)
        with pytest.raises(ValidationError, match="overflows the cost phase"):
            qaoa_state(inst, ang)
        with pytest.raises(ValidationError, match="overflows the cost phase"):
            expectation(inst, ang)
        with pytest.raises(ValidationError, match="overflows the cost phase"):
            landscape_instance(inst, [0.3, 0.5], [0.1, over, 0.0])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_largest_accepted_gamma_is_finite(self, sign):
        # a RuntimeWarning fails the tests, so no step overflows here
        inst = sample_instance(SK, 6, 2)
        gamma = sign * largest_accepted_gamma(build_phase_table(inst))
        state = qaoa_state(inst, Angles(0.3, gamma))
        assert abs(np.vdot(state, state).real - 1) < 1e-12
        h, h2 = expectation(inst, Angles(0.3, gamma))
        grid = landscape_instance(inst, [0.3], [gamma, 0.1])
        assert math.isfinite(h2)
        assert abs(grid[0, 0] - h / 6) < 1e-12

    def test_checked_once_per_table(self, monkeypatch):
        calls = []
        real = simulator._check_phase

        def spy(table, gamma):
            calls.append(gamma)
            return real(table, gamma)

        monkeypatch.setattr(simulator, "_check_phase", spy)
        inst = sample_instance(SK, 6, 2)
        landscape_instance(inst, np.linspace(-1, 1, 5), [-0.5, 0.2, 0.9, -1.3, 0.0])
        assert calls == [-1.3]  # the gamma of largest magnitude, sign kept
        calls.clear()
        table = build_phase_table(inst)
        expectation(inst, Angles(0.3, 0.7), table)
        qaoa_state(inst, Angles(0.3, -0.7))
        assert calls == [0.7, -0.7]


class TestState:
    def test_identity_angles_give_uniform(self):
        inst = sample_instance(SK, 5, 3)
        state = qaoa_state(inst, Angles(0.0, 0.0))
        np.testing.assert_allclose(state, np.full(32, 32**-0.5), rtol=0, atol=1e-15)

    def test_diagonal_phase_preserves_moduli(self):
        inst = sample_instance(SK, 5, 3)
        state = qaoa_state(inst, Angles(0.0, 1.3))
        np.testing.assert_allclose(np.abs(state), 32**-0.5, atol=1e-15)

    def test_unit_norm(self):
        rng = np.random.default_rng(23)
        inst = sample_instance(make_mixture_spec(3, [0.2, 0.4, 1.0]), 7, 11)
        for _ in range(10):
            ang = Angles(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            state = qaoa_state(inst, ang)
            assert abs(np.vdot(state, state).real - 1) < 1e-12

    def test_mixer_inverse(self):
        rng = np.random.default_rng(7)
        for n in range(1, 14):
            amp = random_vector(rng, n)
            amp /= np.linalg.norm(amp)
            forward = _apply_kron(amp, _kron_factors(_rotation(0.77), n))
            out = _apply_kron(forward, _kron_factors(_rotation(-0.77), n))
            np.testing.assert_allclose(out, amp, rtol=0, atol=1e-13)

    # (beta, gamma) pairs: an Angles of them cannot be made
    @pytest.mark.parametrize("ang", [(math.nan, 0.3), (0.2, math.nan), (math.inf, 0.1)])
    def test_non_finite_angles_rejected(self, ang):
        inst = sample_instance(SK, 4, 0)
        with pytest.raises(ValidationError):
            qaoa_state(inst, Angles(*ang))
        with pytest.raises(ValidationError):
            expectation(inst, Angles(*ang))

    def test_one_spin_expectation(self):
        # <H> = J sin(2b) sin(2 g J) for a single spin with coupling J
        inst = sample_instance(make_mixture_spec(1, [0.8]), 1, 42)
        j = inst.couplings[0][0]
        b, g = 0.33, -0.52
        h, _ = expectation(inst, Angles(b, g))
        assert h == pytest.approx(j * math.sin(2 * b) * math.sin(2 * g * j), rel=1e-12)


class TestExpectation:
    def test_gamma_zero_traceless(self):
        inst = sample_instance(make_mixture_spec(2, [0.7, 1.0]), 8, 9)
        h, _ = expectation(inst, Angles(0.9, 0.0))
        assert abs(h) < 1e-12

    def test_h2_dominates_h_squared(self):
        rng = np.random.default_rng(13)
        inst = sample_instance(SK, 6, 21)
        for _ in range(20):
            ang = Angles(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            h, h2 = expectation(inst, ang)
            assert h2 >= h * h - 1e-12

    def test_monte_carlo_matches_sketch(self):
        # disorder average over 250 instances vs the exact finite-n moment
        ang = Angles(math.pi / 8, -0.5)
        n = 10
        vals = np.array(
            [expectation(sample_instance(SK, n, s), ang)[0] / n for s in range(250)]
        )
        exact = sketch_moments(SK, ang, n).first
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - exact) < 3 * se


class TestLandscape:
    def test_single_cell(self):
        inst = sample_instance(SK, 6, 2)
        grid = landscape_instance(inst, [0.4], [-0.6])
        h, _ = expectation(inst, Angles(0.4, -0.6))
        assert grid.shape == (1, 1)
        assert grid[0, 0] == pytest.approx(h / 6, rel=1e-13)

    def test_gamma_zero_column_constant(self):
        inst = sample_instance(SK, 6, 2)
        grid = landscape_instance(inst, np.linspace(-0.7, 0.7, 5), [0.0])
        np.testing.assert_allclose(grid, grid[0, 0], atol=1e-13)

    def test_empty_grid_rejected(self):
        inst = sample_instance(SK, 4, 0)
        with pytest.raises(ValidationError):
            landscape_instance(inst, [], [0.1])

    @pytest.mark.parametrize(
        "betas, gammas",
        [([0.1, math.inf], [0.2]), ([math.nan], [0.2]), ([0.1], [0.2, -math.inf])],
    )
    def test_non_finite_grid_rejected(self, betas, gammas):
        inst = sample_instance(SK, 4, 0)
        with pytest.raises(ValidationError):
            landscape_instance(inst, betas, gammas)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "betas",
        [
            [-2.1, -0.9, -0.3, 0.0, 0.55, 1.2, 1.9, 3.3],  # well outside [-pi/4, pi/4]
            [0.37],  # one beta
            [-0.2, 0.6, 2.5],  # fewer betas than the 2d+2 nodes
        ],
    )
    def test_matches_pointwise_expectation(self, d, betas):
        n = d + 4
        inst = sample_instance(spec_with_gaps(d), n, 7 * d)
        gammas = [-0.9, 0.0, 0.35, 1.4]
        grid = landscape_instance(inst, betas, gammas)
        assert grid.shape == (len(betas), len(gammas))
        for bi, b in enumerate(betas):
            for gi, g in enumerate(gammas):
                h, _ = expectation(inst, Angles(b, g))
                assert abs(grid[bi, gi] - h / n) < 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            make_mixture_spec(1, [1.0]),
            spec_with_gaps(4),
            make_mixture_spec(3, [0.3, 0.5, 1.0]),
        ],
    )
    @pytest.mark.parametrize(
        "gammas",
        [
            [-0.0, 0.4],  # negative zero
            [0.45, 0.7, -0.45],  # an exactly mirrored pair
            [0.3, -0.30000000000000004],  # a near-mirrored pair
            [-1.1, 0.0, 1.1, 0.6],
        ],
    )
    def test_shared_columns_match_pointwise_expectation(self, spec, gammas):
        n = spec.d + 4
        inst = sample_instance(spec, n, 5 * spec.d)
        betas = [-4.0, -1.7, -0.2, 0.9, 1.8, 5.1]  # outside [-pi/2, pi/2]
        grid = landscape_instance(inst, betas, gammas)
        for bi, b in enumerate(betas):
            for gi, g in enumerate(gammas):
                h, _ = expectation(inst, Angles(b, g))
                assert abs(grid[bi, gi] - h / n) < 1e-12

    def test_time_reversal(self):
        # a real table and a real |+>: conjugation maps (beta, gamma) to
        # (-beta, -gamma) and leaves every expectation unchanged
        inst = sample_instance(spec_with_gaps(3), 7, 4)
        rng = np.random.default_rng(19)
        for b, g in rng.uniform(-2, 2, (6, 2)):
            forward = expectation(inst, Angles(float(b), float(g)))
            reversed_ = expectation(inst, Angles(float(-b), float(-g)))
            np.testing.assert_allclose(forward, reversed_, rtol=0, atol=1e-13)

    def test_quarter_turn_complements_index(self):
        # R_{pi/2} on every spin is a bit flip up to signs
        inst = sample_instance(spec_with_gaps(3), 7, 4)
        rng = np.random.default_rng(20)
        for b, g in rng.uniform(-2, 2, (6, 2)):
            weights = np.abs(qaoa_state(inst, Angles(float(b), float(g)))) ** 2
            turned = np.abs(qaoa_state(inst, Angles(float(b) + math.pi / 2, float(g)))) ** 2
            np.testing.assert_allclose(turned, weights[::-1], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d", [1, 3])
    def test_mixer_passes_per_gamma(self, d, monkeypatch):
        # the d mixers' factors are built once per call and applied once per
        # gamma whose value or negative has not come before; gamma = 0 and a
        # mirrored gamma need no transform, whatever the number of betas
        built, applied = [], []
        real_factors, real_apply = simulator._kron_factors, simulator._apply_kron

        def factors_spy(u, n):
            factors = real_factors(u, n)
            if u is not simulator.HADAMARD:
                built.append(factors)
            return factors

        def apply_spy(x, factors):
            if any(factors is f for f in built):
                applied.append(factors)
            return real_apply(x, factors)

        monkeypatch.setattr(simulator, "_kron_factors", factors_spy)
        monkeypatch.setattr(simulator, "_apply_kron", apply_spy)
        inst = sample_instance(spec_with_gaps(d), 5, 1)
        for gammas, computed in [([-0.5, 0.2, 0.9], 3), ([-0.5, 0.0, 0.5], 1)]:
            built.clear()
            applied.clear()
            landscape_instance(inst, np.linspace(-1, 1, 17), gammas)
            assert len(built) == d
            assert len(applied) == d * computed

    def test_deviation_shrinks_with_n(self):
        # per-instance landscapes approach the infinite-size surface
        spec = make_mixture_spec(3, [1 / 3, 1 / 2, 1.0])
        betas = np.linspace(-0.6, 0.6, 7)
        gammas = np.linspace(-1.0, 1.0, 7)
        inf_grid = np.array(
            [
                [energy_sigma_form(spec, Angles(float(b), float(g))) for g in gammas]
                for b in betas
            ]
        )

        def max_dev(n, seeds):
            devs = []
            for seed in seeds:
                inst = sample_instance(spec, n, seed)
                grid = landscape_instance(inst, betas, gammas)
                devs.append(np.max(np.abs(grid - inf_grid)))
            return np.mean(devs)

        seeds = range(3)
        assert max_dev(16, seeds) < max_dev(8, seeds)

    def test_concentration_across_instances(self):
        # sample variance of h/n shrinks from n=8 to n=16 at matched seeds
        ang = Angles(math.pi / 8, -0.5)

        def instance_variance(n):
            vals = [
                expectation(sample_instance(SK, n, s), ang)[0] / n for s in range(200)
            ]
            return np.var(vals, ddof=1)

        assert instance_variance(16) < instance_variance(8)


class TestVerifyCheck:
    def test_statevector_consistency_passes(self):
        res = verify.run_check("statevector_consistency")
        assert res.passed, res.details
        assert res.details["tolerances"]["phased"] == 1e-14
        assert res.details["phased_abs_error"] < 1e-14

    def test_corrupted_table_fails(self, monkeypatch):
        # negative control: a table off by 1e-9 must trip the check
        real = simulator.build_phase_table
        monkeypatch.setattr(simulator, "build_phase_table", lambda inst: real(inst) + 1e-9)
        assert not verify.run_check("statevector_consistency").passed

    def test_shifted_half_angle_fails(self, monkeypatch):
        # negative control: every half angle off by 1e-9 is a global phase,
        # which no probability sees; only the phased rows can trip the check
        monkeypatch.setattr(simulator, "HALF_QUARTER", simulator.HALF_QUARTER + 1e-9)
        res = verify.run_check("statevector_consistency")
        assert not res.passed
        assert res.details["phased_abs_error"] > 1e-10
        assert res.details["landscape_abs_error"] < 1e-12

    def test_monte_carlo_consistency_checks_second(self):
        res = verify.run_check("monte_carlo_consistency")
        assert res.passed, res.details
        assert res.details["z_score_second"] < 3.0
        assert res.details["mc_variance"] <= res.details["exact_variance"]
        assert res.details["quadrature_relative_error"] <= 1e-12

    def test_offset_table_fails(self, monkeypatch):
        # negative control: every energy 0.5 too high must trip the check
        # (an offset of 0.1 reaches only z ~ 4 and 0.05 passes)
        real = simulator.build_phase_table
        monkeypatch.setattr(simulator, "build_phase_table", lambda inst: real(inst) + 0.5)
        res = verify.run_check("monte_carlo_consistency")
        assert not res.passed
        assert res.details["z_score"] > 3.0 and res.details["z_score_second"] > 3.0

    def test_corrupted_second_fails(self, monkeypatch):
        # negative control: second 6% high must trip the check (a 1% offset
        # is within its sampling noise); first and variance stay true
        real = finite_n.sketch_moments

        def corrupted(*args):
            rep = real(*args)
            return dataclasses.replace(rep, second=rep.second * 1.06)

        monkeypatch.setattr(finite_n, "sketch_moments", corrupted)
        res = verify.run_check("monte_carlo_consistency")
        assert not res.passed and res.details["z_score"] < 3.0

    def test_slightly_corrupted_second_fails_through_the_quadrature(self, monkeypatch):
        # negative control: second 1e-9 high is far inside the sampling noise,
        # so only the coupling quadrature can trip the check
        real = finite_n.sketch_moments

        def corrupted(*args):
            rep = real(*args)
            return dataclasses.replace(rep, second=rep.second * (1 + 1e-9))

        monkeypatch.setattr(finite_n, "sketch_moments", corrupted)
        res = verify.run_check("monte_carlo_consistency")
        assert not res.passed
        assert res.details["z_score"] < 3.0 and res.details["z_score_second"] < 3.0
        assert res.details["mc_variance"] <= res.details["exact_variance"]
        assert res.details["quadrature_relative_error"] > 1e-12
