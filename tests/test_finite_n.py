import cmath
import math
import sys
import warnings
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msqaoa import finite_n, verify
from msqaoa.closed_form import Angles, energy_sigma_form, energy_sigma_grid
from msqaoa.errors import CapExceededError, NumericalError, ValidationError
from msqaoa.finite_n import (
    _clamped_variance,
    _require_real,
    oracle_moments,
    sketch_moment_grid,
    sketch_moments,
)
from msqaoa.model import make_mixture_spec, pure_d_spec

SK = make_mixture_spec(2, [0, 1])
MIX3 = make_mixture_spec(3, [1 / 3, 1 / 2, 1.0])


def lambda_weight(spec, n):
    """R = sum_q binom(n,q) sigma_q^2 / (2 n^(q+1)), exactly, from its definition
    with the float sigma_q^2 of the model."""
    return sum(
        Fraction(math.comb(n, q)) * Fraction(s * s) / (2 * n ** (q + 1))
        for q, s in enumerate(spec.sigmas[:n], start=1)
    )


def g_q(q, t, n):
    """sum_{|S|=q}(z_S - z'_S)^2 for a string pair with t disagreements: the
    subsets that meet the disagreements an odd number of times, 4 each."""
    return 4 * sum(math.comb(t, k) * math.comb(n - t, q - k) for k in range(1, min(t, q) + 1, 2))


class TestGq:
    """The reference g_q against hand values."""

    def test_q1(self):
        for t in range(7):
            assert g_q(1, t, 6) == 4 * t

    def test_t0_vanishes(self):
        for q in range(1, 7):
            assert g_q(q, 0, 8) == 0

    def test_hand_value(self):
        assert g_q(2, 2, 6) == 32


# pure degrees and mixtures of both parities with zeroed sigmas; 0.3 and 1.1
# square to rationals with large denominators
PHI_SPECS = [pure_d_spec(d) for d in range(1, 25)] + [
    make_mixture_spec(24, [0.0 if q % 3 == 0 else 0.1 * q for q in range(1, 25)]),
    make_mixture_spec(23, [0.0 if q % 4 else 1.1 for q in range(1, 24)]),
    make_mixture_spec(9, [0.0, 0.8, 0.0, 1.1, 0.0, 0.0, 0.4, 0.0, 1.5]),
    make_mixture_spec(6, [0.3, 0.0, 0.5, 0.0, 0.0, 1.0]),
    make_mixture_spec(4, [0.0, 0.0, 0.7, 0.0]),
]


def phi_spec_id(spec):
    return f"{'pure' if spec == pure_d_spec(spec.d) else 'mix'}{spec.d}"


@lru_cache(maxsize=None)
def plus_count_subset_sum(q, u, n):
    """sum_{|S|=q} z_S for a string of length n with u entries +1."""
    return sum((-1) ** (q - k) * math.comb(u, k) * math.comb(n - u, q - k) for k in range(q + 1))


def phi_at(spec, n, u):
    """phi(u) = sum_q sigma_q^2 F_q(u) / n^q, exactly, with the float sigma_q^2."""
    return sum(
        Fraction(s * s) * plus_count_subset_sum(q, u, n) / Fraction(n) ** q
        for q, s in enumerate(spec.sigmas[:n], start=1)
        if s
    )


def assert_phi_gives_every_weight(spec, n, top):
    """The engine's phi tables against phi evaluated directly at u and n - u,
    and its k(t) and R against their definitions from g_q and the binomials."""
    phi, flip, den = finite_n._phi_integers(spec, n, top)
    k, r = finite_n._weights(flip, den, n)
    assert len(phi) == len(flip) == len(k) == top + 1
    phi_n = phi_at(spec, n, n)
    for u in range(top + 1):
        assert Fraction(phi[u], den) == phi_at(spec, n, u)
        assert Fraction(flip[u], den) == phi_at(spec, n, n - u)
        damping = sum(
            Fraction(s * s) * g_q(q, u, n) / (2 * Fraction(n) ** (q - 1))
            for q, s in enumerate(spec.sigmas[:n], start=1)
            if s
        )
        assert n * (phi_n - Fraction(flip[u], den)) == damping
        assert k[u] == float(damping)
    assert phi_n / (2 * n) == lambda_weight(spec, n)
    assert r == float(lambda_weight(spec, n))
    assert k[0] == 0.0 and min(k) >= 0.0


class TestPhiIdentities:
    """phi(n - u) is phi(u) with the odd degrees negated, the damping weight is
    k(t) = n (phi(n) - phi(n - t)) and the lambda^2 weight is R = phi(n) / (2n),
    in exact rationals, and the engine rounds each weight once."""

    @pytest.mark.parametrize("spec", PHI_SPECS, ids=phi_spec_id)
    def test_every_t_up_to_n_40(self, spec):
        for n in range(1, 41):
            assert_phi_gives_every_weight(spec, n, n)

    @pytest.mark.parametrize("n", [2**64, 10**30], ids=["2^64", "10^30"])
    @pytest.mark.parametrize("spec", PHI_SPECS, ids=phi_spec_id)
    def test_t_up_to_2d_at_huge_n(self, spec, n):
        assert_phi_gives_every_weight(spec, n, 2 * spec.d)


class TestSubsetSumRecurrence:
    """The one-pass recurrence in q gives the binomial sums F_q(u) exactly."""

    def test_every_u_up_to_n_40(self):
        for n in range(1, 41):
            top = min(24, n)
            for u in range(n + 1):
                want = [plus_count_subset_sum(q, u, n) for q in range(top + 1)]
                assert finite_n._subset_sums_by_degree(u, n, top) == want, (n, u)

    @pytest.mark.parametrize("n", [2**30, 10**30], ids=["2^30", "10^30"])
    def test_u_up_to_48_at_huge_n(self, n):
        for u in range(49):
            want = [plus_count_subset_sum(q, u, n) for q in range(25)]
            assert finite_n._subset_sums_by_degree(u, n, 24) == want, u

    @pytest.mark.parametrize("top", [0, 1])
    def test_lowest_degrees(self, top):
        assert finite_n._subset_sums_by_degree(2, 5, top) == [1, -1][: top + 1]


class TestMoments:
    def test_oracle_equivalence_small_n(self):
        rng = np.random.default_rng(31)
        for n in range(2, 9):
            d = int(rng.integers(1, 4))
            spec = make_mixture_spec(d, rng.uniform(0.2, 1.2, d))
            ang = Angles(float(rng.uniform(0.1, 0.6)), float(rng.uniform(-0.8, -0.2)))
            sk = sketch_moments(spec, ang, n)
            orc = oracle_moments(spec, ang, n)
            assert abs(sk.first - orc.first) <= 1e-10 * max(abs(orc.first), 1e-6)
            assert abs(sk.second - orc.second) <= 1e-10 * max(abs(orc.second), 1e-6)

    def test_one_spin_closed_form(self):
        # expectation for a single spin, by direct integration over the coupling:
        # E_J<H> = 2 g s^2 exp(-2 g^2 s^2) sin(2b); the second moment is s^2
        spec = make_mixture_spec(1, [0.8])
        b, g = 0.33, -0.52
        want = 2 * g * 0.8**2 * math.exp(-2 * g * g * 0.8**2) * math.sin(2 * b)
        for fn in (oracle_moments, sketch_moments):
            rep = fn(spec, Angles(b, g), 1)
            assert rep.first == pytest.approx(want, rel=1e-12)
            assert rep.second == pytest.approx(0.8**2, rel=1e-12)

    def test_gamma_zero(self):
        rep = sketch_moments(MIX3, Angles(0.42, 0.0), 9)
        assert rep.first == 0.0
        want = sum(
            math.comb(9, q) * MIX3.sigmas[q - 1] ** 2 / 9 ** (q + 1)
            for q in range(1, 4)
        )
        assert rep.second == pytest.approx(want, rel=1e-14)
        orc = oracle_moments(MIX3, Angles(0.42, 0.0), 9)
        assert orc.first == 0.0

    def test_quadrature_cross_check(self):
        # three-way check: statevector + Gauss-Hermite integration over the
        # couplings vs both analytic paths, n = 2
        from numpy.polynomial.hermite_e import hermegauss
        from msqaoa.model import ProblemInstance
        from msqaoa.simulator import expectation

        ang = Angles(math.pi / 8, -0.5)
        nodes, weights = hermegauss(80)
        weights = weights / math.sqrt(2 * math.pi)
        first = second = 0.0
        for j, w in zip(nodes, weights):
            inst = ProblemInstance(
                n=2, spec=SK, seed=0, couplings=([0.0, 0.0], [float(j)])
            )
            h, h2 = expectation(inst, ang)
            first += w * h / 2
            second += w * h2 / 4
        for fn in (oracle_moments, sketch_moments):
            rep = fn(SK, ang, 2)
            assert rep.first == pytest.approx(first, rel=1e-12)
            assert rep.second == pytest.approx(second, rel=1e-12)

    def test_variance_positive_and_shrinking(self):
        ang = Angles(math.pi / 8, -0.5)
        variances = [sketch_moments(SK, ang, n).variance for n in (8, 16, 32, 64)]
        assert all(v > 0 for v in variances)
        assert all(a > b for a, b in zip(variances, variances[1:]))

    def test_budget_checks(self):
        # no size cap: n = 513, one past the range of the other reference
        # tests, is computed and matches the 60-digit reference
        assert_matches_reference(SK, 0.3, 0.4, 513)

    def test_oracle_cap(self):
        with pytest.raises(CapExceededError, match=r"oracle enumerates 4\^n pairs"):
            oracle_moments(SK, Angles(0.3, 0.4), 15)

    def test_report_line_numbers_parse_for_both_methods(self):
        ang = Angles(0.3, -0.4)
        for fn in (sketch_moments, oracle_moments):
            rep = fn(MIX3, ang, 6)
            assert all(type(v) is float for v in (rep.first, rep.second, rep.variance))

    def test_k_table_sizes(self, monkeypatch):
        # one phi table gives the blocks, every k(t) and R: the moments read
        # k(t) only for t <= min(2d, n)
        sizes = []
        real_phi, real_weights = finite_n._phi_integers, finite_n._weights

        def phi_spy(spec, n, top):
            phi, flip, den = real_phi(spec, n, top)
            assert len(phi) == len(flip) == top + 1
            return phi, flip, den

        def weights_spy(flip, den, n):
            k, r = real_weights(flip, den, n)
            assert len(k) == len(flip)
            sizes.append(len(k))
            return k, r

        monkeypatch.setattr(finite_n, "_phi_integers", phi_spy)
        monkeypatch.setattr(finite_n, "_weights", weights_spy)
        ang = Angles(0.3, -0.4)
        sketch_moment_grid(MIX3, np.linspace(-0.7, 0.7, 7), np.linspace(-1, 1, 11), 64)
        sketch_moments(MIX3, ang, 4)
        assert sizes == [7, 5]


# (beta, gamma) pairs: an Angles of them cannot be made
NON_FINITE_ANGLES = [(math.nan, 0.3), (0.2, math.nan), (math.inf, 0.3), (0.2, -math.inf)]


class TestNonFiniteAngles:
    """Each entry point is reached only through the ``Angles`` constructor."""

    @pytest.mark.parametrize("ang", NON_FINITE_ANGLES)
    def test_sketch_moments(self, ang):
        with pytest.raises(ValidationError):
            sketch_moments(SK, Angles(*ang), 8)

    @pytest.mark.parametrize("ang", NON_FINITE_ANGLES)
    def test_oracle_moments(self, ang):
        with pytest.raises(ValidationError):
            oracle_moments(SK, Angles(*ang), 4)


MIX_035 = make_mixture_spec(3, [0.3, 0.5, 1.0])
HUGE_GAMMAS = [1e100, -1e100, 1e200, -1e200, sys.float_info.max, -sys.float_info.max]


class TestHugeGamma:
    """Past |gamma| ~ 1.3e154 gamma^2 overflows and every e^K(t) is 0, so
    first is 0 and second is its limit 2R, finite, like the variance."""

    @pytest.mark.parametrize("gamma", [1e200, -1e200, 1e308, -1e308])
    @pytest.mark.parametrize("spec", [MIX3, pure_d_spec(2), pure_d_spec(3)])
    def test_moments_are_finite(self, spec, gamma):
        for n in (2, 3, 10):
            rep = sketch_moments(spec, Angles(0.3, gamma), n)
            assert rep.first == 0.0 and not rep.clamped
            assert rep.second == float(2 * lambda_weight(spec, n)) == rep.variance
            grid = sketch_moment_grid(spec, [0.3, -1.1, 0.0], [gamma, 0.5], n)
            for values in (grid.first, grid.second, grid.variance):
                assert np.isfinite(values).all()
            assert (grid.second[:, 0] == rep.second).all()
            assert not grid.clamped.any()

    @pytest.mark.parametrize("spec", [SK, MIX_035])
    def test_no_overflow_warning_where_only_the_k_products_overflow(self, spec):
        # 6e153 < |gamma| < 1.3e154: gamma^2 sigma_q^2 is finite, but the
        # product gamma (gamma k(t)) is not
        gammas = np.geomspace(5e153, 1.4e154, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = sketch_moment_grid(spec, [0.0, 0.3, -1.1], np.concatenate([gammas, -gammas]), 10)
        assert (grid.first == 0.0).all()
        assert (grid.second == float(2 * lambda_weight(spec, 10))).all()


class TestOracleAtLargeGamma:
    """Each pair's damping is one exponent gamma (gamma x), x <= 0, so the
    oracle neither overflows to inf * 0 nor raises where gamma^2 overflows."""

    @pytest.mark.parametrize("spec", [SK, MIX_035])
    @pytest.mark.parametrize(
        "n, betas", [(4, [0.3, -0.6]), (8, [0.3, -0.6]), (10, [0.3])], ids=["n4", "n8", "n10"]
    )
    def test_moments_match_the_sketch_sum(self, spec, n, betas):
        for gamma in [15.0, -15.0, 30.0, *HUGE_GAMMAS]:
            for beta in betas:
                orc = oracle_moments(spec, Angles(beta, gamma), n)
                sk = sketch_moments(spec, Angles(beta, gamma), n)
                assert math.isfinite(orc.first) and math.isfinite(orc.second)
                assert abs(sk.first - orc.first) <= 1e-10 * abs(sk.first)
                assert abs(sk.second - orc.second) <= 1e-10 * abs(sk.second)


class TestReportGuards:
    def test_variance_clamp(self):
        variance, clamped = _clamped_variance(1.0, 1.0 - 5e-11)
        assert variance == 0.0 and clamped

    def test_variance_error(self):
        with pytest.raises(NumericalError, match=r"below the -1e-10 allowance"):
            _clamped_variance(1.0, 1.0 - 1e-8)

    def test_grid_variance_clamp_is_per_point(self):
        first = np.array([[1.0, 1.0, 0.5]])
        second = np.array([[1.0 - 5e-11, 2.0, 0.25]])
        variance, clamped = finite_n._clamped_variance(first, second)
        assert variance.tolist() == [[0.0, 1.0, 0.0]]
        assert clamped.tolist() == [[True, False, False]]
        with pytest.raises(NumericalError, match=r"below the -1e-10 allowance"):
            finite_n._clamped_variance(first, second - 1e-8)

    def test_require_real(self):
        assert _require_real(1.5 + 1e-12j, "x") == 1.5
        with pytest.raises(NumericalError, match=r"imaginary residue"):
            _require_real(1.5 + 1e-6j, "x")

    def test_require_real_measures_residue_against_term_magnitude(self):
        assert _require_real(1e-16 + 1e-17j, "x", scale=0.5) == 1e-16
        with pytest.raises(NumericalError, match=r"imaginary residue"):
            _require_real(1e-16 + 1e-6j, "x", scale=0.5)

    @pytest.mark.parametrize(
        "spec, angles, n",
        [
            (SK, Angles(math.pi / 4, -0.4), 8),
            (pure_d_spec(4), Angles(math.pi / 4, 0.7), 8),
            (pure_d_spec(6), Angles(-math.pi / 4, -0.4), 8),
            (pure_d_spec(6), Angles(math.pi / 4, 0.7), 10),
        ],
    )
    def test_oracle_moment_zero_by_symmetry(self, spec, angles, n):
        # at beta = +-pi/4 an even pure degree has a first moment of 0 up to
        # rounding; its imaginary residue is compared with the summed terms
        rep = oracle_moments(spec, angles, n)
        assert abs(rep.first) < 1e-14

    def test_oracle_corrupted_phase_raises(self, monkeypatch):
        # negative control: the first-moment sum turned by 1e-6 rad
        real = finite_n._oracle_sums

        def corrupted(*args):
            s0, s1, *rest = real(*args)
            return (s0, s1 * cmath.exp(1e-6j), *rest)

        monkeypatch.setattr(finite_n, "_oracle_sums", corrupted)
        with pytest.raises(NumericalError, match=r"oracle first moment has imaginary residue"):
            oracle_moments(MIX3, Angles(0.3, -0.4), 8)

    @pytest.mark.parametrize("spec", [MIX3, SK], ids=["mix3", "sk"])
    def test_oracle_corrupted_second_power_raises(self, monkeypatch, spec):
        # negative control: the power-2 sum turned by 1e-6 rad leaves a
        # residue of 2.4e-8 (MIX3) or 4.6e-8 (SK), against allowances of
        # 1.4e-9 and 1.8e-9
        real = finite_n._oracle_sums

        def corrupted(*args):
            s0, s1, s2, *rest = real(*args)
            return (s0, s1, s2 * cmath.exp(1e-6j), *rest)

        monkeypatch.setattr(finite_n, "_oracle_sums", corrupted)
        with pytest.raises(NumericalError, match=r"oracle second moment has imaginary residue"):
            oracle_moments(spec, Angles(0.3, -0.4), 8)


class TestConvergenceTrend:
    def test_first_moment_approaches_closed_form(self):
        ang = Angles(math.pi / 8, -0.5)
        limit = energy_sigma_form(SK, ang)
        discs = [abs(sketch_moments(SK, ang, n).first - limit) for n in (16, 32, 64, 128)]
        assert all(a > b for a, b in zip(discs, discs[1:]))
        assert discs[-1] < discs[0] / 4


def reference_moments(spec, beta, gamma, n, scales=False):
    """(first, second) at 60 digits from the uncollapsed block sums over every
    t <= min(2d, n): exact integer block integrands
        h_t(j) = sum_i (-1)^i binom(t,i) X(i,j), X = P or P^2,
        P(i,j) = phi(i+j) - phi(t-i+j),
    averaged term by term over j ~ Binomial(n-t, cos^2 b) in mpmath, with the
    complex weight binom(n,t) e^K(t) (i sc)^t.  It shares no code with the
    engine's block build (no Newton basis, no binomial-moment identity).
    With ``scales``, also the summed magnitudes of the terms of each moment
    (|gamma| sum_t |block| and 2R + gamma^2 sum_t |block|)."""
    d = spec.d
    terms = [
        (q, *(spec.sigmas[q - 1] ** 2).as_integer_ratio())
        for q in range(1, min(d, n) + 1)
        if spec.sigmas[q - 1] ** 2 != 0
    ]
    den = math.lcm(1, *(s2_den * n**q for q, _, s2_den in terms))

    def subset_sum(q, u):  # sum_{|S|=q} z_S for a string with u entries +1
        return sum(
            (-1) ** (q - k) * math.comb(u, k) * math.comb(n - u, q - k)
            for k in range(q + 1)
        )

    phi = [
        sum(num * (den // (s2_den * n**q)) * subset_sum(q, u) for q, num, s2_den in terms)
        for u in range(n + 1)
    ]
    with mpmath.workdps(60):
        b, g = mpmath.mpf(beta), mpmath.mpf(gamma)
        sb, cb = mpmath.sin(b), mpmath.cos(b)
        sc, c2, s2 = sb * cb, cb * cb, sb * sb
        sums = [mpmath.mpc(0), mpmath.mpc(0)]
        sizes = [mpmath.mpf(0), mpmath.mpf(0)]
        for t in range(min(2 * d, n) + 1):
            K = -sum(
                g * g * g_q(q, t, n) * mpmath.mpf(num) / s2_den / (2 * mpmath.mpf(n) ** (q - 1))
                for q, num, s2_den in terms
            )
            weight = math.comb(n, t) * mpmath.exp(K) * (mpmath.mpc(0, 1) * sc) ** t
            for power in (1, 2):
                avg = mpmath.mpf(0)
                for j in range(n - t + 1):
                    h = sum(
                        (-1) ** i * math.comb(t, i) * (phi[i + j] - phi[t - i + j]) ** power
                        for i in range(t + 1)
                    )
                    if h:
                        avg += math.comb(n - t, j) * c2**j * s2 ** (n - t - j) * h
                sums[power - 1] += weight * avg / den**power
                sizes[power - 1] += abs(weight * avg / den**power)
        first = mpmath.mpc(0, 1) * g * sums[0]
        R = sum(
            math.comb(n, q) * mpmath.mpf(num) / s2_den / (2 * mpmath.mpf(n) ** (q + 1))
            for q, num, s2_den in terms
        )
        second = 2 * R - g * g * sums[1]
        # the blocks of the wrong parity vanish exactly, so both are real
        assert first.imag == 0 and second.imag == 0
        if scales:
            return (
                float(first.real),
                float(second.real),
                float(abs(g) * sizes[0]),
                float(2 * R + g * g * sizes[1]),
            )
        return float(first.real), float(second.real)


def assert_matches_reference(spec, beta, gamma, n):
    rep = sketch_moments(spec, Angles(beta, gamma), n)
    first, second = reference_moments(spec, beta, gamma, n)
    assert abs(rep.first - first) <= max(1e-12 * abs(first), 1e-15), (rep.first, first)
    assert abs(rep.second - second) <= max(1e-12 * abs(second), 1e-15), (rep.second, second)


GRID_BETAS = [0.0, math.pi / 4, -math.pi / 4, math.pi / 2, 2.9]
GRID_GAMMAS = [0.0, 5.0, -0.4]


def grid_spec(d, kind):
    if kind == "pure":
        return make_mixture_spec(d, [0.0] * (d - 1) + [math.sqrt(math.factorial(d) / 2)])
    if kind == "mixture":
        return make_mixture_spec(d, np.linspace(0.3, 1.2, d))
    return make_mixture_spec(d, [0.7 if q % 2 else 0.0 for q in range(d)])  # zero sigmas


def assert_grid_equals_reference(spec, betas, gammas, n):
    """The grid equals its own 1x1 case at every point, bit for bit."""
    grid = sketch_moment_grid(spec, betas, gammas, n)
    assert grid.first.shape == grid.second.shape == (len(betas), len(gammas))
    for bi, b in enumerate(betas):
        for gi, g in enumerate(gammas):
            rep = sketch_moments(spec, Angles(float(b), float(g)), n)
            assert grid.first[bi, gi] == rep.first
            assert grid.second[bi, gi] == rep.second


class TestMomentGrid:
    @pytest.mark.parametrize(
        "d, kind",
        [(d, kind) for d in range(1, 7) for kind in ("pure", "mixture", "zero_sigmas")
         if d > 1 or kind != "zero_sigmas"],
    )
    def test_bit_identical_to_per_point_reference(self, d, kind):
        # n below d, below 2d, at 2d, and up to the cap
        spec = grid_spec(d, kind)
        for n in sorted({1, max(d - 1, 1), 2 * d - 1, 2 * d, 13, 512}):
            assert_grid_equals_reference(spec, GRID_BETAS, GRID_GAMMAS, n)

    def test_one_by_one_grid(self):
        assert_grid_equals_reference(MIX3, [0.37], [-0.52], 16)

    def test_one_beta_many_gammas(self):
        assert_grid_equals_reference(MIX3, [0.3], np.linspace(-1.5, 1.5, 9), 24)

    def test_many_betas_one_gamma(self):
        assert_grid_equals_reference(MIX3, np.linspace(-0.8, 0.8, 9), [0.45], 24)

    def test_sketch_moments_is_the_one_point_grid(self):
        for n in (1, 4, 64):
            ang = Angles(0.3, -0.4)
            rep = sketch_moments(MIX3, ang, n)
            grid = sketch_moment_grid(MIX3, [ang.beta], [ang.gamma], n)
            assert (rep.first, rep.second, rep.variance, rep.clamped) == (
                grid.first[0, 0],
                grid.second[0, 0],
                grid.variance[0, 0],
                grid.clamped[0, 0],
            )

    def test_variance_and_clamped_mask_match_per_point_reports(self):
        betas = np.linspace(-0.7, 0.7, 4)
        gammas = np.linspace(-1.0, 1.0, 3)
        grid = sketch_moment_grid(MIX3, betas, gammas, 10)
        for bi, b in enumerate(betas):
            for gi, g in enumerate(gammas):
                rep = sketch_moments(MIX3, Angles(float(b), float(g)), 10)
                assert grid.variance[bi, gi] == rep.variance
                assert grid.clamped[bi, gi] == rep.clamped

    def test_negative_variance_beyond_allowance_raises(self, monkeypatch):
        # injected fault: the lambda^2 weight R short by 1, so second < first^2
        real = finite_n._weights

        def short(*args):
            k, r = real(*args)
            return k, r - 1.0

        monkeypatch.setattr(finite_n, "_weights", short)
        with pytest.raises(NumericalError, match=r"below the -1e-10 allowance"):
            sketch_moment_grid(MIX3, [0.3, 0.1], [-0.3], 32)

    @pytest.mark.parametrize(
        "betas, gammas",
        [
            ([], [0.1]),
            ([0.1], []),
            ([[0.1, 0.2]], [0.1]),
            ([0.1, math.nan], [0.2]),
            ([0.1], [0.2, math.inf]),
            ([-math.inf], [0.2]),
        ],
    )
    def test_rejects_empty_or_non_finite_grids(self, betas, gammas):
        with pytest.raises(ValidationError):
            sketch_moment_grid(MIX3, betas, gammas, 8)

    def test_cap(self):
        # no size cap: the grid at n = 513 matches the 60-digit reference
        grid = sketch_moment_grid(MIX3, [0.3], [0.4], 513)
        first, second = reference_moments(MIX3, 0.3, 0.4, 513)
        assert abs(grid.first[0, 0] - first) <= max(1e-12 * abs(first), 1e-15)
        assert abs(grid.second[0, 0] - second) <= max(1e-12 * abs(second), 1e-15)

    def test_work_splits_into_beta_and_gamma_factors(self, monkeypatch):
        calls = {"_moment_blocks": 0, "_block_values": 0}

        def spy(name):
            real = getattr(finite_n, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(finite_n, name, spy(name))
        betas, gammas, n = np.linspace(-0.7, 0.7, 7), np.linspace(-1, 1, 11), 64
        sketch_moment_grid(MIX3, betas, gammas, n)
        assert calls == {"_moment_blocks": 1, "_block_values": len(betas)}

    def test_g_columns_are_built_once_per_grid(self, monkeypatch):
        # the phi table stands for every g_q column, and k(t) no longer
        # depends on gamma: one build of each per grid
        calls = {"_phi_integers": 0, "_weights": 0}

        def spy(name):
            real = getattr(finite_n, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(finite_n, name, spy(name))
        gammas = np.linspace(-1, 1, 11)
        sketch_moment_grid(MIX3, np.linspace(-0.7, 0.7, 7), gammas, 64)
        assert calls == {"_phi_integers": 1, "_weights": 1}


EDGE_BETAS = [math.pi / 4, -math.pi / 4, 1e-7, -1e-7, math.pi / 2 - 1e-7, math.pi / 2]


@st.composite
def small_moment_cases(draw):
    d = draw(st.integers(1, 24))
    if draw(st.booleans()):
        spec = pure_d_spec(d)
    else:
        sigmas = draw(
            st.lists(
                st.sampled_from([0.0, 0.0, 0.5, 1.0]) | st.floats(0.1, 2.0),
                min_size=d,
                max_size=d,
            )
        )
        spec = make_mixture_spec(d, sigmas[:-1] + [sigmas[-1] or 1.0])
    beta = draw(st.sampled_from(EDGE_BETAS) | st.floats(-math.pi / 2, math.pi / 2))
    gamma = draw(st.sampled_from([5.0, -5.0]) | st.floats(-5.0, 5.0))
    return spec, beta, gamma, draw(st.integers(1, 24))


class TestMomentAccuracy:
    """Both moments against the 60-digit reference to 1e-12 relative, with
    an absolute floor of 1e-15, and against the brute-force oracle."""

    @given(small_moment_cases())
    @settings(max_examples=150, deadline=None)
    def test_small_n_matches_reference(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize(
        "spec, beta, gamma, n",
        [
            (pure_d_spec(20), 0.3, -0.3, 512),
            (pure_d_spec(12), math.pi / 4, -5.0, 128),
            (pure_d_spec(16), 1e-7, 0.9, 64),
            (pure_d_spec(14), math.pi / 2 - 1e-7, -2.0, 256),
            (make_mixture_spec(9, [0.0, 0.8, 0.0, 1.1, 0.0, 0.0, 0.4, 0.0, 1.5]),
             -math.pi / 4, 1.1, 512),
            (pure_d_spec(24), 0.3, -0.3, 512),
            (pure_d_spec(22), 0.3, -1.1, 128),
            (pure_d_spec(21), 0.6, -0.2, 21),
        ],
    )
    def test_large_n_matches_reference(self, spec, beta, gamma, n):
        assert_matches_reference(spec, beta, gamma, n)

    @pytest.mark.parametrize("d", [2, 4])
    def test_first_moment_of_order_cos_2b_keeps_its_relative_accuracy(self, d):
        # At beta = +-pi/4 an even pure degree's first moment is of order
        # cos 2b, about 1e-17 for the float pi/4, and every block cancels to
        # that size.  c2 is taken as the exact (1 + cos 2b) / 2; taking it as
        # the rounded square cos(b)^2 reads these moments 2.6 times too
        # large, an error of 1e-16 that an absolute floor would hide.
        for beta in (math.pi / 4, -math.pi / 4):
            rep = sketch_moments(pure_d_spec(d), Angles(beta, -0.4), 256)
            first, _ = reference_moments(pure_d_spec(d), beta, -0.4, 256)
            assert abs(rep.first - first) <= 1e-12 * abs(first), (rep.first, first)

    @pytest.mark.parametrize(
        "d, beta, gamma, n",
        [
            (16, 1.1, 0.35, 256),
            (21, 0.6, -0.2, 256),
            (22, -0.4, 0.7, 128),
            (22, 1.1, 0.35, 128),
            (24, 1.1, 0.35, 256),
        ],
    )
    def test_cancelling_blocks_err_by_rounding_of_their_terms(self, d, beta, gamma, n):
        # At these moderate gammas the blocks sum to a moment up to 1e5
        # times smaller than their magnitudes, so the relative error reaches
        # 1.3e-12 (d = 16) to 1.2e-11 (d = 24); the error itself stays below
        # 1e-15 of the summed magnitudes (measured at most 4.0e-16).
        rep = sketch_moments(pure_d_spec(d), Angles(beta, gamma), n)
        first, second, scale1, scale2 = reference_moments(
            pure_d_spec(d), beta, gamma, n, scales=True
        )
        assert abs(rep.first - first) <= 1e-15 * scale1
        assert abs(rep.second - second) <= 1e-15 * scale2

    @pytest.mark.parametrize("n", range(1, 11))
    def test_oracle_agreement_for_every_degree_up_to_n(self, n):
        # +-pi/4 makes the first moment of an even pure degree 0 by symmetry;
        # both paths then carry rounding noise of about 1e-16
        for d in range(1, n + 1):
            cases = [
                (pure_d_spec(d), Angles((-1) ** d * math.pi / 4, -0.4)),
                (make_mixture_spec(d, np.linspace(0.3, 1.2, d)), Angles(0.3, 0.6)),
            ]
            for spec, ang in cases:
                sk = sketch_moments(spec, ang, n)
                orc = oracle_moments(spec, ang, n)
                assert abs(sk.first - orc.first) <= 1e-10 * abs(orc.first) + 1e-15
                assert abs(sk.second - orc.second) <= 1e-10 * abs(orc.second) + 1e-15

    def test_no_negative_variance_for_every_pure_degree(self):
        betas = np.linspace(-math.pi / 2, math.pi / 2, 9)
        gammas = np.linspace(-5.0, 5.0, 9)
        for d in range(1, 25):
            for n in sorted({d, 2 * d, 32, 128, 512}):
                grid = sketch_moment_grid(pure_d_spec(d), betas, gammas, n)
                assert not grid.clamped.any()

    def test_reruns_are_byte_identical(self):
        betas, gammas = np.linspace(-0.7, 0.7, 5), np.linspace(-1.5, 1.5, 4)
        a = sketch_moment_grid(pure_d_spec(12), betas, gammas, 100)
        b = sketch_moment_grid(pure_d_spec(12), betas, gammas, 100)
        assert a.first.tobytes() == b.first.tobytes()
        assert a.second.tobytes() == b.second.tobytes()


HUGE_SPECS = [
    pure_d_spec(2),
    pure_d_spec(8),
    pure_d_spec(20),
    make_mixture_spec(9, [0.0, 0.8, 0.0, 1.1, 0.0, 0.0, 0.4, 0.0, 1.5]),
]
PAST_REFERENCE_N = [513, 2**16, 2**20, 2**30, 2**64, 10**30, 10**100]
BLOCK_BETAS = [0.3, math.pi / 4, 1e-7, math.pi / 2 - 1e-7, -math.pi / 4]
BLOCK_GAMMAS = [-0.4, -5.0, 0.9, -2.0, 1.1]


def n_id(n):
    """2^k or 10^k where n is such a power, for readable test ids."""
    for base in (2, 10):
        k = round(math.log(n, base))
        if base**k == n:
            return f"{base}^{k}"
    return str(n)


class TestBlockFamily:
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 2**30], ids=n_id)
    @pytest.mark.parametrize("d", [1, 2, 3, 24])
    def test_survival_rule(self, d, n):
        # the blocks of power m are exactly t = m (mod 2), 1 <= t <= min(md, n):
        # the ones past n are cut, not built and found zero
        phi, _, den = finite_n._phi_integers(pure_d_spec(d), n, min(2 * d, n))
        blocks = finite_n._moment_blocks(phi, den, n, d)
        assert {m for m, *_ in blocks} <= {1, 2}
        for m in (1, 2):
            top = min(m * d, n)
            family = [(t, coeffs, bden) for power, t, coeffs, bden in blocks if power == m]
            assert [t for t, _, _ in family] == [t for t in range(1, top + 1) if t % 2 == m % 2]
            for t, coeffs, bden in family:
                assert len(coeffs) == top - t + 1
                assert bden == den**m


def moments_from_blocks_at_60_digits(spec, betas, gammas, n):
    """(first, second) over the grid from the engine's own integer blocks,
    with cos^2 b, sc^t, e^K(t) and the lambda^2 weight R taken at 60 digits.
    Past the range of ``reference_moments`` this checks the float evaluation
    of the blocks; the 1/n fit below checks the blocks against the closed
    form."""
    phi, _, den = finite_n._phi_integers(spec, n, min(2 * spec.d, n))
    blocks = finite_n._moment_blocks(phi, den, n, spec.d)
    terms = [
        (q, *(s * s).as_integer_ratio()) for q, s in enumerate(spec.sigmas, start=1) if s
    ]
    first = np.empty((len(betas), len(gammas)))
    second = np.empty_like(first)
    with mpmath.workdps(60):
        polys = {
            power: [
                (t, [mpmath.mpf(c) for c in reversed(cs)], mpmath.mpf(den))
                for m, t, cs, den in blocks
                if m == power
            ]
            for power in (1, 2)
        }
        R = sum(
            math.comb(n, q) * mpmath.mpf(num) / s2_den / (2 * mpmath.mpf(n) ** (q + 1))
            for q, num, s2_den in terms
        )
        # sum_q sigma_q^2 g_q(t) / (2 n^(q-1)), so that K(t) = -gamma^2 damping[t]
        damping = {
            t: sum(
                g_q(q, t, n) * mpmath.mpf(num) / s2_den / (2 * mpmath.mpf(n) ** (q - 1))
                for q, num, s2_den in terms
            )
            for t in range(min(2 * spec.d, n) + 1)
        }
        for bi, beta in enumerate(betas):
            b = mpmath.mpf(beta)
            c2, sc = mpmath.cos(b) ** 2, mpmath.sin(b) * mpmath.cos(b)
            for gi, gamma in enumerate(gammas):
                g = mpmath.mpf(gamma)
                # the blocks of power m sum to i^m S_m
                sums = {
                    power: sum(
                        mpmath.exp(-g * g * damping[t]) * sc**t * mpmath.polyval(poly, c2) / den
                        for t, poly, den in terms
                    )
                    for power, terms in polys.items()
                }
                first[bi, gi] = float(g * sums[1])
                second[bi, gi] = float(2 * R + g * g * sums[2])
    return first, second


class TestBeyondTheReference:
    """n above the 512 of ``reference_moments``: the engine takes every n."""

    @pytest.mark.parametrize("n", [2**64, 10**30, 10**100], ids=n_id)
    @pytest.mark.parametrize("spec", HUGE_SPECS, ids=lambda s: f"d{s.d}")
    def test_huge_n_is_finite_and_at_the_closed_form(self, spec, n):
        betas, gammas = np.linspace(-0.7, 0.7, 3), np.linspace(-1.0, 1.0, 3)
        grid = sketch_moment_grid(spec, betas, gammas, n)
        for values in (grid.first, grid.second, grid.variance):
            assert np.isfinite(values).all()
        limit = np.asarray(energy_sigma_grid(spec, betas, gammas))
        assert np.abs(grid.first - limit).max() <= 1e-14

    @pytest.mark.parametrize("n", PAST_REFERENCE_N, ids=n_id)
    @pytest.mark.parametrize("spec", HUGE_SPECS, ids=lambda s: f"d{s.d}")
    def test_blocks_at_60_digits(self, spec, n):
        grid = sketch_moment_grid(spec, BLOCK_BETAS, BLOCK_GAMMAS, n)
        first, second = moments_from_blocks_at_60_digits(spec, BLOCK_BETAS, BLOCK_GAMMAS, n)
        for got, want in ((grid.first, first), (grid.second, second)):
            bound = np.maximum(1e-12 * np.abs(want), 1e-15)
            assert (np.abs(got - want) <= bound).all(), np.abs(got - want).max()

    @pytest.mark.parametrize(
        "spec",
        [pure_d_spec(d) for d in range(2, 9)]
        + [
            make_mixture_spec(d, np.random.default_rng(seed).uniform(0.1, 1.5, d))
            for seed, d in ((1, 3), (2, 5), (3, 7))
        ],
        ids=lambda s: f"d{s.d}",
    )
    def test_first_moment_fits_the_closed_form_in_1_over_n(self, spec):
        # a quadratic in x = 2^16 / n over n = 2^16..2^22; its value at
        # x = 0 is the n -> infinity limit
        ang = Angles(0.3, -0.4)
        ns = [2**k for k in range(16, 23)]
        firsts = [sketch_moments(spec, ang, n).first for n in ns]
        limit = np.polynomial.polynomial.polyfit([2**16 / n for n in ns], firsts, 2)[0]
        assert abs(limit - energy_sigma_form(spec, ang)) <= 1e-12

    def test_sk_concentration_rate_settles(self):
        # n * variance -> 0.36134 at (0.3, -0.4): 0.36097 at 2^10, 0.36132 at
        # 2^14, then within 1e-5 relative from 2^18 to 2^22
        ang = Angles(0.3, -0.4)
        scaled = [n * sketch_moments(SK, ang, n).variance for n in (2**10, 2**14, 2**18, 2**22)]
        assert all(a < b for a, b in zip(scaled, scaled[1:]))
        assert abs(scaled[3] - scaled[2]) < 1e-5 * scaled[3]


ANG = Angles(0.3, -0.4)


class TestIntegerN:
    """n is taken as an exact Python int wherever a numpy integer is given."""

    @pytest.mark.parametrize(
        "fn, n",
        [
            pytest.param(
                lambda n: sketch_moments(pure_d_spec(2), ANG, n).first, 512, id="sketch_moments"
            ),
            pytest.param(
                lambda n: sketch_moments(pure_d_spec(8), ANG, n).second,
                64,
                id="sketch_moments_pure8_second",
            ),
            pytest.param(
                lambda n: sketch_moments(pure_d_spec(8), ANG, n).first, 512, id="sketch_moments_pure8"
            ),
            pytest.param(
                lambda n: sketch_moment_grid(pure_d_spec(8), [0.3, 0.5], [-0.4], n).second.tobytes(),
                512,
                id="sketch_moment_grid_pure8",
            ),
            pytest.param(
                lambda n: oracle_moments(MIX3, ANG, n).second, 6, id="oracle_moments_mix3"
            ),
        ],
    )
    def test_numpy_integers_give_identical_results(self, fn, n):
        assert fn(np.int64(n)) == fn(n)

    def test_numpy_integer_n_is_stored_as_int(self):
        assert type(sketch_moments(SK, ANG, np.int64(12)).n) is int

    @pytest.mark.parametrize(
        "fn",
        [
            pytest.param(lambda n: sketch_moments(SK, ANG, n), id="sketch_moments"),
            pytest.param(lambda n: sketch_moment_grid(SK, [0.3], [-0.4], n), id="sketch_moment_grid"),
            pytest.param(
                lambda n: sketch_moment_grid(MIX3, [0.3, 0.5], [-0.4], n), id="sketch_moment_grid_mix3"
            ),
            pytest.param(lambda n: sketch_moments(pure_d_spec(8), ANG, n), id="sketch_moments_pure8"),
            pytest.param(lambda n: oracle_moments(SK, ANG, n), id="oracle_moments"),
        ],
    )
    def test_non_integer_n_rejected(self, fn):
        with pytest.raises(ValidationError, match="must be an integer"):
            fn(8.0)


class TestVerifyCheck:
    def test_finite_grid_consistency_passes(self):
        res = verify.run_check("finite_grid_consistency")
        assert res.passed, res.details
        assert res.details["perturbed_beta_relative_error"] >= 1e-10

    def test_corrupted_beta_factor_fails(self, monkeypatch):
        # negative control: every block's beta factor off by 1e-9 relative
        real = finite_n._block_values

        def corrupted(*args):
            return [v * (1 + 1e-9) for v in real(*args)]

        monkeypatch.setattr(finite_n, "_block_values", corrupted)
        assert not verify.run_check("finite_grid_consistency").passed

    def test_corrupted_beta_factor_fails_both_limit_rows(self, monkeypatch):
        # negative control: every block's beta factor off by 1e-9 relative
        # moves the limit by 3e-10 and the two rates apart by 0.61 (first
        # moment) and 5.4e-2 (variance)
        real = finite_n._block_values

        def corrupted(*args):
            return [v * (1 + 1e-9) for v in real(*args)]

        monkeypatch.setattr(finite_n, "_block_values", corrupted)
        for name in ("infinite_limit", "concentration_rate"):
            assert not verify.run_check(name).passed, name

    def test_corrupted_damping_fails_infinite_limit(self, monkeypatch):
        # negative control: every k(t) off by 1e-9 relative moves the limit
        # by 2.7e-10 and the two rates apart by 0.105
        real = finite_n._weights

        def corrupted(*args):
            k, r = real(*args)
            return [v * (1 + 1e-9) for v in k], r

        monkeypatch.setattr(finite_n, "_weights", corrupted)
        assert not verify.run_check("infinite_limit").passed

    def test_corrupted_subset_sum_fails_combinatorial_identities(self, monkeypatch):
        # negative control: F_3(u) off by one wherever q = 3 is asked for
        real = finite_n._subset_sums_by_degree

        def corrupted(u, n, top):
            f = real(u, n, top)
            if top >= 3:
                f[3] += 1
            return f

        monkeypatch.setattr(finite_n, "_subset_sums_by_degree", corrupted)
        res = verify.run_check("combinatorial_identities")
        assert not res.passed
        assert res.details["failed"] == "_subset_sums_by_degree"

    def test_corrupted_damping_fails_combinatorial_identities(self, monkeypatch):
        # negative control: one k(t) off by 1e-12 relative, a few ulps
        real = finite_n._weights

        def corrupted(flip, den, n):
            k, r = real(flip, den, n)
            k[-1] *= 1 + 1e-12
            return k, r

        monkeypatch.setattr(finite_n, "_weights", corrupted)
        res = verify.run_check("combinatorial_identities")
        assert not res.passed
        assert res.details["failed"] == "_weights"
