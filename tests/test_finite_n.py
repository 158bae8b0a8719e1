import cmath
import math
import sys
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msqaoa import finite_n, verify
from msqaoa.closed_form import Angles, damping_rate, energy_sigma_form, energy_sigma_grid
from msqaoa.errors import CapExceededError, NumericalError, ValidationError
from msqaoa.finite_n import (
    Sketch,
    _clamped_variance,
    _lambda_quadratic,
    _require_real,
    a_factor,
    b_factor,
    f_q,
    f_q_abc,
    g_q,
    generating_function,
    oracle_mgf,
    oracle_moments,
    sketch_moment_grid,
    sketch_moments,
    t_sum,
)
from msqaoa.model import make_mixture_spec
from msqaoa.optimizer import pure_d_spec

SK = make_mixture_spec(2, [0, 1])
MIX3 = make_mixture_spec(3, [1 / 3, 1 / 2, 1.0])


def direct_pair_sums(z, zp, q):
    f = g = 0
    for subset in combinations(range(len(z)), q):
        zs = zps = 1
        for i in subset:
            zs *= z[i]
            zps *= zp[i]
        f += zs - zps
        g += (zs - zps) ** 2
    return f, g


def realize(sketch):
    z = [1] * (sketch.npp + sketch.npm) + [-1] * (sketch.nmp + sketch.nmm)
    zp = (
        [1] * sketch.npp
        + [-1] * sketch.npm
        + [1] * sketch.nmp
        + [-1] * sketch.nmm
    )
    return z, zp


def all_sketches(n):
    for npp in range(n + 1):
        for npm in range(n - npp + 1):
            for nmp in range(n - npp - npm + 1):
                yield Sketch(npp, npm, nmp, n - npp - npm - nmp)


class TestSketchAndQ:
    def test_of_pair(self):
        sk = Sketch.of_pair([1, 1, -1, -1, 1], [1, -1, 1, -1, -1])
        assert (sk.npp, sk.npm, sk.nmp, sk.nmm) == (1, 2, 1, 1)
        assert sk.n == 5 and sk.t == 3

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            Sketch(1, -1, 0, 0)

    @pytest.mark.parametrize("z, zp", [([1, 2], [1, 1]), ([1, 1], [0, -1]), ([1], [1.5])])
    def test_of_pair_rejects_non_spin_entries(self, z, zp):
        with pytest.raises(ValidationError, match=r"spin entries must be \+1 or -1"):
            Sketch.of_pair(z, zp)


class TestFq:
    def test_q1_formula(self):
        for sk in all_sketches(5):
            assert f_q(1, sk) == 2 * (sk.npm - sk.nmp)

    def test_symmetric_sketch_vanishes(self):
        for q in range(0, 5):
            assert f_q(q, Sketch(2, 1, 1, 2)) == 0

    def test_q2_n4_exhaustive(self):
        for sk in all_sketches(4):
            z, zp = realize(sk)
            want, _ = direct_pair_sums(z, zp, 2)
            assert f_q(2, sk) == want

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match=r"need 0 <= q <= n=4, got q=5"):
            f_q(5, Sketch(1, 1, 1, 1))
        with pytest.raises(ValidationError, match=r"need 0 <= q <= n=4, got q=-1"):
            f_q(-1, Sketch(1, 1, 1, 1))

    def test_realization_independence(self):
        # 100 random pairs per (n, q): the sketch determines the pair sums
        rng = np.random.default_rng(42)
        for n in range(2, 11):
            for _ in range(100):
                z = [int(v) for v in rng.choice([-1, 1], n)]
                zp = [int(v) for v in rng.choice([-1, 1], n)]
                sk = Sketch.of_pair(z, zp)
                for q in range(1, min(4, n) + 1):
                    fd, gd = direct_pair_sums(z, zp, q)
                    assert f_q(q, sk) == fd
                    assert g_q(q, sk.t, n) == gd

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=60)
    def test_swap_antisymmetry(self, npp, npm, nmp, nmm):
        # exchanging z and z' swaps npm with nmp and negates every f_q
        sk = Sketch(npp, npm, nmp, nmm)
        swapped = Sketch(npp, nmp, npm, nmm)
        for q in range(1, sk.n + 1):
            assert f_q(q, sk) == -f_q(q, swapped)


class TestGq:
    def test_q1(self):
        for t in range(7):
            assert g_q(1, t, 6) == 4 * t

    def test_t0_vanishes(self):
        for q in range(1, 7):
            assert g_q(q, 0, 8) == 0

    def test_hand_value(self):
        assert g_q(2, 2, 6) == 32

    def test_range_errors(self):
        with pytest.raises(ValidationError, match=r"need 1 <= q <= n=4, got q=0"):
            g_q(0, 1, 4)
        with pytest.raises(ValidationError):
            g_q(2, 9, 4)


class TestFqAbc:
    def test_q1(self):
        assert f_q_abc(1) == {(1, 0, 0): Fraction(2)}

    def test_q2_even_a_vanishes(self):
        coeffs = f_q_abc(2)
        assert coeffs.get((2, 0, 0), Fraction(0)) == 0

    def test_q3_leading(self):
        coeffs = f_q_abc(3)
        assert coeffs[(1, 2, 0)] == Fraction(2, 1 * 2)  # 2/(1! 2!) = 1
        assert coeffs[(3, 0, 0)] == Fraction(2, 6)  # 2/(3! 0!) = 1/3

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_leading_structure(self, q):
        coeffs = f_q_abc(q)
        for a in range(q + 1):
            for b in range(q + 1 - a):
                c = q - a - b
                want = (
                    Fraction(2, math.factorial(a) * math.factorial(b))
                    if a % 2 == 1 and c == 0
                    else Fraction(0)
                )
                assert coeffs.get((a, b, c), Fraction(0)) == want

    def test_reconstructs_f_q(self):
        # every sketch with q <= n <= 10, q = 1..8
        for q in range(1, 9):
            coeffs = f_q_abc(q)
            for n in range(q, 11):
                for npp in range(n + 1):
                    for npm in range(n - npp + 1):
                        for nmp in range(n - npp - npm + 1):
                            sk = Sketch(npp, npm, nmp, n - npp - npm - nmp)
                            x, y = sk.npm - sk.nmp, sk.npp - sk.nmm
                            val = sum(
                                cf * x**a * y**b * n**c for (a, b, c), cf in coeffs.items()
                            )
                            assert val == f_q(q, sk), (q, sk)

    def test_each_call_returns_a_fresh_dict(self):
        first = f_q_abc(4)
        want = dict(first)
        first[(1, 3, 0)] += 1
        first.popitem()
        assert f_q_abc(4) == want

    def test_zero_order_rejected(self):
        with pytest.raises(ValidationError, match="need q >= 1"):
            f_q_abc(0)

    def test_verify_catches_a_wrong_lower_order_coefficient(self, monkeypatch):
        # negative control: the leading coefficients stay right, so only the
        # reconstruction on the check's sketches can see this
        true_fn = finite_n.f_q_abc

        def corrupted(q):
            coeffs = true_fn(q)
            if q == 3:
                coeffs[(1, 0, 1)] += 1
            return coeffs

        monkeypatch.setattr(finite_n, "f_q_abc", corrupted)
        res = verify.run_check("combinatorial_identities")
        assert not res.passed
        assert res.details["failed"] == "f_q_abc"
        assert res.details["q"] == 3 and "sketch" in res.details


class TestGeneratingFunction:
    def test_normalization(self):
        rng = np.random.default_rng(9)
        for n in (2, 4, 8):
            d = int(rng.integers(1, 4))
            spec = make_mixture_spec(d, rng.uniform(0.2, 1.2, d))
            ang = Angles(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
            gf = generating_function(spec, ang, n, 0.0)
            assert abs(gf - 1.0) < 1e-9

    def test_degenerate_exact_one(self):
        assert generating_function(SK, Angles(0.4, 0.0), 12, 0.0) == 1.0 + 0.0j

    def test_matches_oracle(self):
        ang = Angles(0.3, 0.4)
        gf = generating_function(SK, ang, 6, 0.7)
        ogf = oracle_mgf(SK, ang, 6, 0.7)
        assert abs(gf - ogf) <= 1e-10 * max(abs(gf), abs(ogf))

    def test_budget(self):
        with pytest.raises(CapExceededError, match=r"exceeds the cap 14"):
            generating_function(SK, Angles(0.3, 0.4), 600, 0.0)

    def test_cap_is_the_oracle_cap(self):
        generating_function(SK, Angles(0.3, 0.4), 14, 0.7)
        with pytest.raises(CapExceededError, match=r"n=15 exceeds the cap 14"):
            generating_function(SK, Angles(0.3, 0.4), 15, 0.7)

    @pytest.mark.parametrize("n", [6, 10, 14])
    @pytest.mark.parametrize(
        "spec, beta, gamma, lam",
        [
            (SK, math.pi / 4, 0.4, 3.0),
            (SK, 0.3, -0.7, 0.7),
            (MIX3, math.pi / 4, 0.05, 3.0),
            (MIX3, -1.1, 1.5, 3.0),
            (pure_d_spec(4), -math.pi / 4, -0.7, 0.7),
            (pure_d_spec(4), 0.3, 0.4, 3.0),
        ],
    )
    def test_matches_reference(self, spec, beta, gamma, lam, n):
        got = generating_function(spec, Angles(beta, gamma), n, lam)
        want = reference_generating_function(spec, beta, gamma, n, lam)
        assert abs(got - want) <= 1e-12, (got, want)


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
        # the moments read K(t) only for t <= 2d, t_sum only for t <= a; the
        # direct sketch sum reads all n + 1
        sizes = []
        real = finite_n._k_table

        def spy(columns, gamma, entries):
            sizes.append(entries)
            return real(columns, gamma, entries)

        monkeypatch.setattr(finite_n, "_k_table", spy)
        ang = Angles(0.3, -0.4)
        sketch_moments(MIX3, ang, 64)
        sketch_moments(MIX3, ang, 4)
        generating_function(MIX3, ang, 8, 0.5)
        t_sum(MIX3, ang, 9, 1, 0, 1)
        assert sizes == [7, 5, 9, 2]


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

    @pytest.mark.parametrize("ang", NON_FINITE_ANGLES)
    def test_generating_function(self, ang):
        with pytest.raises(ValidationError):
            generating_function(SK, Angles(*ang), 8, 0.5)


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
            assert rep.second == 2 * _lambda_quadratic(spec, n) == rep.variance
            grid = sketch_moment_grid(spec, [0.3, -1.1, 0.0], [gamma, 0.5], n)
            for values in (grid.first, grid.second, grid.variance):
                assert np.isfinite(values).all()
            assert (grid.second[:, 0] == rep.second).all()
            assert not grid.clamped.any()

    @pytest.mark.parametrize("spec", [SK, MIX_035])
    def test_no_overflow_warning_where_only_the_k_products_overflow(self, spec):
        # 6e153 < |gamma| < 1.3e154: gamma^2 sigma_q^2 is finite, but its
        # products with the g_q column are not
        gammas = np.geomspace(5e153, 1.4e154, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = sketch_moment_grid(spec, [0.0, 0.3, -1.1], np.concatenate([gammas, -gammas]), 10)
        assert (grid.first == 0.0).all()
        assert (grid.second == 2 * _lambda_quadratic(spec, 10)).all()


class TestOracleAtLargeGamma:
    """Each pair's damping is one exponent gamma (gamma x), x <= 0, so the
    oracle neither overflows to inf * 0 nor raises where gamma^2 overflows,
    and the generating functions reach their limit e^(-lam^2 R)."""

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

    @pytest.mark.parametrize("gamma", HUGE_GAMMAS)
    @pytest.mark.parametrize("spec", [SK, MIX_035])
    def test_generating_functions_reach_the_limit(self, spec, gamma):
        for n in (4, 6):
            limit = math.exp(-0.25 * _lambda_quadratic(spec, n))
            gf = generating_function(spec, Angles(0.3, gamma), n, 0.5)
            ogf = oracle_mgf(spec, Angles(0.3, gamma), n, 0.5)
            assert cmath.isfinite(gf) and cmath.isfinite(ogf)
            assert abs(gf - ogf) <= 1e-10 and abs(gf - limit) <= 1e-10

    def test_sk_is_at_the_limit_by_gamma_1e3(self):
        gf = generating_function(SK, Angles(0.3, 1e3), 4, 0.5)
        assert gf == pytest.approx(math.exp(-0.25 * 6 / 128), abs=1e-15)


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


def reference_generating_function(spec, beta, gamma, n, lam):
    """E_J<exp(i lam H/n)> at 60 digits: the sketch sum term by term over every
    (npm, nmp, npp, nmm), with the multinomial weight, the mixer factors
    Q+- = -i sc, Q-+ = i sc, Q++ = cos^2 b, Q-- = sin^2 b and
    e^(K(t) - gamma lam P), P = sum_q sigma_q^2 f_q / n^q, from f_q."""
    with mpmath.workdps(60):
        s2 = {q: mpmath.mpf(spec.sigmas[q - 1]) ** 2 for q in range(1, min(spec.d, n) + 1)}
        b, g, lm, nn = mpmath.mpf(beta), mpmath.mpf(gamma), mpmath.mpf(lam), mpmath.mpf(n)
        sb, cb = mpmath.sin(b), mpmath.cos(b)
        q_pm, q_mp = mpmath.mpc(0, -1) * sb * cb, mpmath.mpc(0, 1) * sb * cb
        total = mpmath.mpc(0)
        for npm in range(n + 1):
            for nmp in range(n - npm + 1):
                t = npm + nmp
                K = -sum(g * g * g_q(q, t, n) * v / (2 * nn ** (q - 1)) for q, v in s2.items())
                for npp in range(n - t + 1):
                    nmm = n - t - npp
                    sk = Sketch(npp, npm, nmp, nmm)
                    weight = math.factorial(n) // (
                        math.factorial(npm) * math.factorial(nmp)
                        * math.factorial(npp) * math.factorial(nmm)
                    )
                    P = sum(v * f_q(q, sk) / nn**q for q, v in s2.items())
                    total += (
                        weight * q_pm**npm * q_mp**nmp * (cb * cb) ** npp * (sb * sb) ** nmm
                        * mpmath.exp(K - g * lm * P)
                    )
        R = sum(math.comb(n, q) * v / (2 * nn ** (q + 1)) for q, v in s2.items())
        return complex(mpmath.exp(-lm * lm * R) * total)


@lru_cache(maxsize=None)
def reference_a_kernels(a, n):
    """sum_i (-1)^i binom(t,i) (2i-t)^a for every t <= n, as exact integers."""
    return [
        sum((-1) ** i * math.comb(t, i) * (2 * i - t) ** a for i in range(t + 1))
        for t in range(n + 1)
    ]


@lru_cache(maxsize=None)
def reference_b_factor(b, s, beta):
    """B^b over s positions at 50 digits, by the direct binomial sum."""
    with mpmath.workdps(50):
        sb, cb = mpmath.sin(mpmath.mpf(beta)), mpmath.cos(mpmath.mpf(beta))
        return sum(
            math.comb(s, j) * (cb * cb) ** j * (sb * sb) ** (s - j) * (2 * j - s) ** b
            for j in range(s + 1)
        )


def reference_t_sum(spec, beta, gamma, n, a, b, p):
    """T^{ab} / n^p at 50 digits, uncollapsed: every t <= n, with the A kernel
    an exact integer (it is 0 above t = a by the identity, not by a cutoff, so
    those terms add exactly nothing) and B by the direct binomial sum."""
    with mpmath.workdps(50):
        g, nn = mpmath.mpf(gamma), mpmath.mpf(n)
        sc = mpmath.sin(mpmath.mpf(beta)) * mpmath.cos(mpmath.mpf(beta))
        total = mpmath.mpc(0)
        for t, kern in enumerate(reference_a_kernels(a, n)):
            if kern == 0:
                continue
            K = -sum(
                g * g * g_q(q, t, n) * mpmath.mpf(spec.sigmas[q - 1]) ** 2 / (2 * nn ** (q - 1))
                for q in range(1, min(spec.d, n) + 1)
            )
            total += (
                math.comb(n, t) * mpmath.exp(K) * kern * (mpmath.mpc(0, 1) * sc) ** t
                * reference_b_factor(b, n - t, beta)
            )
        return complex(total / nn**p)


# (beta, gamma): +-pi/4 make every odd-b value 0 by symmetry
T_SUM_ANGLES = [(0.3, 0.45), (-1.1, -1.3), (math.pi / 4, 0.45), (-math.pi / 4, 0.9)]
T_SUM_ORDERS = [(a, b, p) for a in range(4) for b in range(3) for p in range(max(a + b, 1), 6)]


class TestTSum:
    def test_a_factor_zero_above_diagonal(self):
        for a in range(1, 4):
            for t in range(a + 1, a + 4):
                assert a_factor(a, t, 0.37) == 0

    def test_a_factor_diagonal(self):
        for a in range(1, 5):
            want = math.factorial(a) * (-1j) ** a * math.sin(2 * 0.37) ** a
            assert abs(a_factor(a, a, 0.37) - want) < 1e-12

    def test_b_factor_values(self):
        assert b_factor(0, 3, 20, 0.4) == pytest.approx(1.0, rel=1e-13)
        # first moment of (npp - nmm) under the Q weights is (n-t) cos(2b)
        assert b_factor(1, 3, 100, 0.3) == pytest.approx(
            97 * math.cos(0.6), rel=1e-12
        )

    def test_b_factor_near_cancellation(self):
        # At beta = pi/4, B^1 = n cos(2b) cancels to 1.6e-14; taking cos^2 b
        # as a rounded square left an error of 4e-14 here.
        want = float(reference_b_factor(1, 256, math.pi / 4))
        assert abs(b_factor(1, 0, 256, math.pi / 4) - want) <= 1e-15 * abs(want)

    def test_limit_case(self):
        ang = Angles(0.3, 0.45)
        limit = (
            (-1j)
            * math.exp(-2 * ang.gamma**2 * damping_rate(SK))
            * math.sin(2 * ang.beta)
        )
        e256 = abs(t_sum(SK, ang, 256, 1, 0, 1) - limit)
        e512 = abs(t_sum(SK, ang, 512, 1, 0, 1) - limit)
        assert e512 < e256 < 0.05

    def test_vanishing_case_halves(self):
        ang = Angles(0.3, 0.45)
        for a, b, p in ((0, 0, 1), (1, 0, 2)):
            r = abs(t_sum(SK, ang, 512, a, b, p)) / abs(t_sum(SK, ang, 256, a, b, p))
            assert 0.35 <= r <= 0.65

    @pytest.mark.parametrize("n", [9, 16, 64, 256])
    @pytest.mark.parametrize("spec", [SK, MIX3], ids=["SK", "MIX3"])
    def test_t_sum_matches_reference(self, spec, n):
        for beta, gamma in T_SUM_ANGLES:
            for a, b, p in T_SUM_ORDERS:
                got = t_sum(spec, Angles(beta, gamma), n, a, b, p)
                want = reference_t_sum(spec, beta, gamma, n, a, b, p)
                assert abs(got - want) <= max(1e-12 * abs(want), 1e-15), (beta, a, b, p)

    @pytest.mark.parametrize("n", [9, 16, 64, 256])
    def test_b_factor_matches_reference(self, n):
        # The float cos^2 b is rounded to 1.1e-16 relative, which moves B by up
        # to about 1e-16 (n-t)^b, the size of its largest term; at b = +-pi/4
        # and odd b the exact value is that small, so the floor scales with it.
        for beta, _ in T_SUM_ANGLES:
            for t in sorted({0, 1, 3, n}):
                for b in range(3):
                    got = b_factor(b, t, n, beta)
                    want = float(reference_b_factor(b, n - t, beta))
                    floor = 1e-15 * max(1, n - t) ** b
                    assert abs(got - want) <= max(1e-12 * abs(want), floor), (beta, t, b)

    def test_t_sum_reads_only_t_up_to_a(self, monkeypatch):
        kernels = []
        real = finite_n._a_kernel

        def spy(a, t):
            kernels.append(t)
            return real(a, t)

        monkeypatch.setattr(finite_n, "_a_kernel", spy)
        t_sum(MIX3, Angles(0.3, 0.45), 512, 2, 1, 3)
        t_sum(MIX3, Angles(0.3, 0.45), 1, 3, 0, 3)
        assert kernels == [0, 1, 2, 0, 1]

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            t_sum(SK, Angles(0.3, 0.4), 16, 2, 1, 2)
        with pytest.raises(ValidationError):
            t_sum(SK, Angles(0.3, 0.4), 16, -1, 0, 1)


class TestConvergenceTrend:
    def test_first_moment_approaches_closed_form(self):
        ang = Angles(math.pi / 8, -0.5)
        limit = energy_sigma_form(SK, ang)
        discs = [abs(sketch_moments(SK, ang, n).first - limit) for n in (16, 32, 64, 128)]
        assert all(a > b for a, b in zip(discs, discs[1:]))
        assert discs[-1] < discs[0] / 4


def reference_moments(spec, beta, gamma, n):
    """(first, second) at 60 digits from the uncollapsed block sums over every
    t <= min(2d, n): exact integer block integrands
        h_t(j) = sum_i (-1)^i binom(t,i) X(i,j), X = P or P^2,
        P(i,j) = phi(i+j) - phi(t-i+j),
    averaged term by term over j ~ Binomial(n-t, cos^2 b) in mpmath, with the
    complex weight binom(n,t) e^K(t) (i sc)^t.  It shares no code with the
    engine's block build (no Newton basis, no binomial-moment identity)."""
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
        first = mpmath.mpc(0, 1) * g * sums[0]
        R = sum(
            math.comb(n, q) * mpmath.mpf(num) / s2_den / (2 * mpmath.mpf(n) ** (q + 1))
            for q, num, s2_den in terms
        )
        second = 2 * R - g * g * sums[1]
        # the blocks of the wrong parity vanish exactly, so both are real
        assert first.imag == 0 and second.imag == 0
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
        real = finite_n._lambda_quadratic
        monkeypatch.setattr(finite_n, "_lambda_quadratic", lambda *args: real(*args) - 1.0)
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
        calls = {"_moment_blocks": 0, "_block_values": 0, "_k_table": 0}

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
        assert calls == {
            "_moment_blocks": 1,
            "_block_values": len(betas),
            "_k_table": len(gammas),
        }

    def test_g_columns_are_built_once_per_grid(self, monkeypatch):
        calls = {"_g_columns": 0, "_k_table": 0}

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
        assert calls == {"_g_columns": 1, "_k_table": len(gammas)}


EDGE_BETAS = [math.pi / 4, -math.pi / 4, 1e-7, -1e-7, math.pi / 2 - 1e-7, math.pi / 2]


@st.composite
def small_moment_cases(draw):
    d = draw(st.integers(1, 20))
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
        ],
    )
    def test_large_n_matches_reference(self, spec, beta, gamma, n):
        assert_matches_reference(spec, beta, gamma, n)

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

    def test_no_negative_variance_for_pure_degrees_up_to_20(self):
        betas = np.linspace(-math.pi / 2, math.pi / 2, 9)
        gammas = np.linspace(-5.0, 5.0, 9)
        for d in range(1, 21):
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


def moments_from_blocks_at_60_digits(spec, betas, gammas, n):
    """(first, second) over the grid from the engine's own integer blocks,
    with cos^2 b, sc^t, e^K(t) and the lambda^2 weight R taken at 60 digits.
    Past the range of ``reference_moments`` this checks the float evaluation
    of the blocks; the 1/n fit below checks the blocks against the closed
    form."""
    blocks1, blocks2 = finite_n._moment_blocks(spec, n)
    terms = [
        (q, *(s * s).as_integer_ratio()) for q, s in enumerate(spec.sigmas, start=1) if s
    ]
    first = np.empty((len(betas), len(gammas)))
    second = np.empty_like(first)
    with mpmath.workdps(60):
        polys = [
            [(t, [mpmath.mpf(c) for c in reversed(cs)], mpmath.mpf(den)) for t, cs, den in blocks]
            for blocks in (blocks1, blocks2)
        ]
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
                sums = [
                    sum(
                        mpmath.exp(-g * g * damping[t]) * sc**t * mpmath.polyval(poly, c2) / den
                        for t, poly, den in blocks
                    )
                    for blocks in polys
                ]
                first[bi, gi] = float(g * sums[0])
                second[bi, gi] = float(2 * R - g * g * sums[1])
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


class TestIntegerN:
    """n is taken as an exact Python int wherever a numpy integer is given."""

    def test_numpy_integers_give_identical_results(self):
        ang = Angles(0.3, -0.4)
        spec8 = pure_d_spec(8)
        cases = [
            (lambda n: sketch_moments(pure_d_spec(2), ang, n).first, 512),
            (lambda n: sketch_moments(spec8, ang, n).second, 64),
            (lambda n: sketch_moments(spec8, ang, n).first, 512),
            (lambda n: sketch_moment_grid(spec8, [0.3, 0.5], [-0.4], n).second.tobytes(), 512),
            (lambda n: t_sum(spec8, ang, n, 3, 2, 5), 512),
            (lambda n: b_factor(3, 2, n, 0.3), 512),
            (lambda n: generating_function(MIX3, ang, n, 0.5), 9),
            (lambda n: oracle_moments(MIX3, ang, n).second, 6),
        ]
        for fn, n in cases:
            assert fn(np.int64(n)) == fn(n)
        assert type(sketch_moments(SK, ang, np.int64(12)).n) is int

    @pytest.mark.parametrize(
        "fn",
        [
            lambda n: sketch_moments(SK, Angles(0.3, -0.4), n),
            lambda n: sketch_moment_grid(SK, [0.3], [-0.4], n),
            lambda n: t_sum(SK, Angles(0.3, -0.4), n, 1, 0, 1),
            lambda n: b_factor(1, 0, n, 0.3),
            lambda n: generating_function(SK, Angles(0.3, -0.4), n, 0.5),
            lambda n: oracle_moments(SK, Angles(0.3, -0.4), n),
            lambda n: oracle_mgf(SK, Angles(0.3, -0.4), n, 0.5),
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
