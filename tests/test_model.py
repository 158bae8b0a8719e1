import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msqaoa.errors import ValidationError
from msqaoa.model import (
    MixtureSpec,
    ProblemInstance,
    cost,
    estimate_spec,
    from_mixture_function,
    instance_from_text,
    instance_to_text,
    make_mixture_spec,
    mask_from_indices,
    sample_instance,
)


class TestMixtureSpec:
    def test_sk_spec(self):
        spec = make_mixture_spec(2, [0, 1])
        assert spec.d == 2 and spec.sigmas == (0.0, 1.0)

    def test_pure_cubic_spec(self):
        spec = make_mixture_spec(3, [0, 0, math.sqrt(3)])
        assert spec.sigmas[2] == pytest.approx(math.sqrt(3))

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError, match=r"all sigmas are zero"):
            make_mixture_spec(1, [0])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValidationError, match=r"degree bound must be >= 1"):
            make_mixture_spec(0, [])

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError, match=r"sigmas must be finite and >= 0"):
            make_mixture_spec(2, [0.5, -1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match=r"expected 3 sigmas, got 2"):
            make_mixture_spec(3, [1, 1])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_mixture_spec(1, [1e200]),  # sigma^2 overflows
            lambda: make_mixture_spec(2, [1e154, 1e154]),  # the rate sum overflows
            lambda: from_mixture_function(1, [1e300]),
            lambda: from_mixture_function(3, [0.0, 0.0, 1e154]),  # sigma = c sqrt(3!)
        ],
    )
    def test_overflowing_damping_rate_rejected(self, build):
        with pytest.raises(ValidationError, match="must be finite"):
            build()


class TestMixtureFunction:
    def test_sk_coefficients(self):
        # c_2 = 1/sqrt(2) gives sigma_2 = 1
        spec = from_mixture_function(2, [0, 1 / math.sqrt(2)])
        assert spec.sigmas[1] == pytest.approx(1.0, rel=1e-15)

    def test_cubic_coefficients(self):
        # xi(x) = x^3/2 is the sigma_3 = sqrt(3) model
        spec = from_mixture_function(3, [0, 0, 1 / math.sqrt(2)])
        assert spec.sigmas[2] == pytest.approx(math.sqrt(3), rel=1e-15)

    def test_degree_one(self):
        assert from_mixture_function(1, [2]).sigmas == (2.0,)

    def test_xi_at_one_positive(self):
        xi = make_mixture_spec(3, [0.3, 0.5, 1.0]).mixture_function()
        val = xi.xi(1.0)
        assert val.imag == 0 and 0 < val.real < math.inf

    def test_xi_prime(self):
        xi = make_mixture_spec(3, [0.3, 0.5, 1.0]).mixture_function()
        expected = sum((q + 1) * c * c for q, c in enumerate(xi.cs))
        assert xi.xi_prime_at_one() == pytest.approx(expected, rel=1e-15)

    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_notation_round_trip(self, sigmas):
        spec = make_mixture_spec(len(sigmas), sigmas)
        back = spec.mixture_function().to_spec()
        for a, b in zip(spec.sigmas, back.sigmas):
            assert abs(a - b) <= math.ulp(a)


class TestSampling:
    def test_determinism(self):
        spec = make_mixture_spec(2, [0.4, 1.1])
        a = sample_instance(spec, 5, 123)
        b = sample_instance(spec, 5, 123)
        assert a == b
        c = sample_instance(spec, 5, 124)
        assert a != c

    def test_counts_per_degree(self):
        spec = make_mixture_spec(3, [0.3, 0.5, 1.0])
        inst = sample_instance(spec, 7, 9)
        for q in range(1, 4):
            assert len(inst.couplings_of_degree(q)) == math.comb(7, q)

    def test_zero_sigma_gives_exact_zeros(self):
        inst = sample_instance(make_mixture_spec(2, [0, 1]), 6, 4)
        assert all(j == 0.0 for _, j in inst.couplings_of_degree(1))
        assert any(j != 0.0 for _, j in inst.couplings_of_degree(2))

    def test_too_few_spins(self):
        with pytest.raises(ValidationError, match=r"n=2 < d=3"):
            sample_instance(make_mixture_spec(3, [0, 0, 1]), 2, 0)

    def test_gaussian_law(self):
        # empirical mean/variance of the size-2 couplings over 1e5 re-seeds
        spec = make_mixture_spec(2, [0, 1])
        reseeds = 100_000
        total = 0.0
        total_sq = 0.0
        count = 0
        for seed in range(reseeds):
            inst = sample_instance(spec, 4, seed)
            for _, j in inst.couplings_of_degree(2):
                total += j
                total_sq += j * j
                count += 1
        mean = total / count
        var = total_sq / count - mean * mean
        se_mean = 1.0 / math.sqrt(count)
        se_var = math.sqrt(2.0 / (count - 1))
        assert abs(mean) < 3 * se_mean
        assert abs(var - 1.0) < 3 * se_var


class TestCost:
    def _single_coupling_instance(self, n, indices, value, sigmas=None):
        d = len(indices)
        sigmas = sigmas or [0.0] * (d - 1) + [1.0]
        spec = MixtureSpec(d, tuple(sigmas))
        terms = {}
        from itertools import combinations

        for q in range(1, d + 1):
            for subset in combinations(range(1, n + 1), q):
                terms[mask_from_indices(subset)] = 0.0
        terms[mask_from_indices(indices)] = value
        return ProblemInstance(n=n, spec=spec, seed=0, terms=terms)

    def test_hand_value(self):
        # q=2 at n=2 carries the prefactor 2^((1-2)/2) = 2^(-1/2)
        inst = self._single_coupling_instance(2, (1, 2), 1.0)
        assert cost(inst, (1, 1)) == pytest.approx(2**-0.5, rel=1e-15)

    def test_global_flip_even_degree(self):
        inst = sample_instance(make_mixture_spec(2, [0, 1]), 6, 77)
        z = [1, -1, 1, 1, -1, -1]
        assert cost(inst, [-v for v in z]) == cost(inst, z)

    def test_all_zero_couplings(self):
        spec = make_mixture_spec(2, [0, 1e-300])
        inst = ProblemInstance(
            n=3,
            spec=spec,
            seed=0,
            terms={m: 0.0 for m in (1, 2, 4, 3, 5, 6)},
        )
        for z in ([1, 1, 1], [1, -1, 1], [-1, -1, -1]):
            assert cost(inst, z) == 0.0

    def test_length_mismatch(self):
        inst = sample_instance(make_mixture_spec(1, [1]), 3, 0)
        with pytest.raises(ValidationError, match=r"spin string has 2 entries"):
            cost(inst, [1, 1])

    def test_non_binary_entry(self):
        inst = sample_instance(make_mixture_spec(1, [1]), 3, 0)
        with pytest.raises(ValidationError, match=r"spin entries must be \+1 or -1"):
            cost(inst, [1, 0, 1])

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=40, deadline=None)
    def test_global_flip_parity_pure_q(self, q, bits):
        # cost(-z) = (-1)^q cost(z) exactly for a pure degree-q instance
        n = 5
        spec = MixtureSpec(q, tuple([0.0] * (q - 1) + [1.0]))
        inst = sample_instance(spec, n, 31)
        z = [1 if (bits >> i) & 1 else -1 for i in range(n)]
        flipped = [-v for v in z]
        assert cost(inst, flipped) == (-1) ** q * cost(inst, z)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        inst = sample_instance(make_mixture_spec(3, [0.3, 0.7, 1.1]), 6, 0xDEADBEEF)
        text = instance_to_text(inst)
        back = instance_from_text(text)
        assert back == inst
        assert instance_to_text(back) == text

    def test_header_fields(self):
        inst = sample_instance(make_mixture_spec(2, [0, 1]), 4, 255)
        header = instance_to_text(inst).splitlines()[0]
        assert header.startswith("n=4 d=2 sigmas=0.0,1.0 seed=ff")

    def test_bad_header(self):
        with pytest.raises(ValidationError, match=r"bad instance header"):
            instance_from_text("nope\n1 1 0.0\n")

    def test_bad_coupling_line(self):
        inst = sample_instance(make_mixture_spec(1, [1]), 2, 0)
        text = instance_to_text(inst) + "1 x 0.0\n"
        with pytest.raises(ValidationError, match=r"bad coupling line"):
            instance_from_text(text)

    def test_missing_couplings(self):
        inst = sample_instance(make_mixture_spec(1, [1]), 3, 0)
        lines = instance_to_text(inst).splitlines()
        with pytest.raises(ValidationError, match=r"inconsistent instance file"):
            instance_from_text("\n".join(lines[:-1]) + "\n")


class TestFit:
    def test_recovers_sigmas(self):
        spec = make_mixture_spec(2, [0.5, 1.5])
        inst = sample_instance(spec, 12, 2024)
        fit = estimate_spec(inst)
        for q in range(1, 3):
            m = math.comb(12, q)
            se = spec.sigmas[q - 1] / math.sqrt(2 * m)
            assert abs(fit.spec.sigmas[q - 1] - spec.sigmas[q - 1]) < 3 * se
        assert any(w.startswith("scaling") for w in fit.warnings)

    def test_insufficient_samples_warning(self):
        inst = sample_instance(make_mixture_spec(1, [1]), 1, 5)
        fit = estimate_spec(inst)
        assert any("InsufficientSamples" in w for w in fit.warnings)

    def test_nonzero_mean_warning(self):
        rng = np.random.default_rng(8)
        spec = make_mixture_spec(1, [1.0])
        terms = {1 << i: float(5.0 + 0.1 * rng.standard_normal()) for i in range(10)}
        inst = ProblemInstance(n=10, spec=spec, seed=0, terms=terms)
        fit = estimate_spec(inst)
        assert any("NonZeroMean" in w for w in fit.warnings)
