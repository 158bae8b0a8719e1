import hashlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msqaoa.errors import CapExceededError, ValidationError
from msqaoa.model import (
    INSTANCE_MAX_COUPLINGS,
    MAX_DEGREE,
    MixtureFunction,
    MixtureSpec,
    ProblemInstance,
    cost,
    damping_rate,
    estimate_spec,
    instance_from_text,
    instance_to_text,
    make_mixture_spec,
    pure_d_spec,
    read_instance,
    _instance_rng,
    sample_instance,
    subsets,
)


def sorted_subsets_reference(n, q):
    """Subset rows sorted by a lexsort of the columns, the last column
    primary: the bitmask order reached by sorting, not by mirroring."""
    rows = np.array(list(combinations(range(n), q)), dtype=np.int64).reshape(-1, q)
    return rows[np.lexsort(rows.T)]


def sampling_reference(spec, n, seed):
    """Couplings drawn in lexicographic order for every degree, zeros for
    sigma_q = 0, each moved to its sorted-row slot by a second lexsort."""
    rng = _instance_rng(spec, n, seed)
    couplings = []
    for q, sigma in enumerate(spec.sigmas, start=1):
        rows = sorted_subsets_reference(n, q)
        draws = rng.normal(0.0, sigma, size=len(rows)) if sigma > 0 else np.zeros(len(rows))
        j = np.empty(len(rows))
        j[np.lexsort(rows.T[::-1])] = draws
        couplings.append(j)
    return couplings


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
            lambda: MixtureFunction((1e300,)).to_spec(),
            lambda: MixtureFunction((0.0, 0.0, 1e154)).to_spec(),  # sigma = c sqrt(3!)
        ],
    )
    def test_overflowing_damping_rate_rejected(self, build):
        with pytest.raises(ValidationError, match="must be finite"):
            build()

    @pytest.mark.parametrize(
        "sigmas", [[0, 1], [0.3, 0.5, 1.0], [5e-324, 0.0, 1e150], [0.7] * 24]
    )
    def test_keeps_its_rate_and_xi_coefficients(self, sigmas):
        spec = make_mixture_spec(len(sigmas), sigmas)
        rate = sum(float(s) ** 2 / math.factorial(q) for q, s in enumerate(sigmas))
        xi = [0.0] + [float(s) ** 2 / math.factorial(q) for q, s in enumerate(sigmas, 1)]
        assert repr(damping_rate(spec)) == repr(rate)
        assert [repr(a) for a in spec._xi_coefficients] == [repr(a) for a in xi]

    def test_kept_values_are_not_fields_of_its_identity(self):
        spec = make_mixture_spec(2, [0, 1])
        assert repr(spec) == "MixtureSpec(d=2, sigmas=(0.0, 1.0))"
        twin = MixtureSpec(2, (0.0, 1.0))
        assert spec == twin and hash(spec) == hash(twin)
        with pytest.raises(TypeError):
            MixtureSpec(2, (0.0, 1.0), 1.0)


class TestDegreeRange:
    """Every model type and constructor takes d = 1..24 and refuses any other
    d with ValidationError, before a factorial can overflow a float."""

    def test_bound_is_the_instance_cap(self):
        # sum_q binom(n, q) >= 2^d - 1 at n >= d
        assert MAX_DEGREE == 24
        assert 2**MAX_DEGREE - 1 <= INSTANCE_MAX_COUPLINGS < 2 ** (MAX_DEGREE + 1) - 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda d: MixtureSpec(d, (0.5,) * d),
            lambda d: MixtureFunction((0.5,) * d),
            lambda d: make_mixture_spec(d, [0.5] * d),
            lambda d: MixtureFunction((0.5,) * d).to_spec(),
            pure_d_spec,
        ],
        ids=["MixtureSpec", "MixtureFunction", "make_mixture_spec",
             "MixtureFunction.to_spec", "pure_d_spec"],
    )
    def test_range(self, build):
        assert build(MAX_DEGREE).d == MAX_DEGREE
        for d in (0, MAX_DEGREE + 1, 171, 172):
            with pytest.raises(ValidationError, match=r"must be >= 1 and <= 24"):
                build(d)

    def test_pure_d_spec_is_the_literal_model(self):
        assert pure_d_spec(2) == MixtureSpec(2, (0.0, 1.0))
        assert pure_d_spec(3) == MixtureSpec(3, (0.0, 0.0, math.sqrt(3.0)))

    def test_instance_file_beyond_the_range(self):
        sigmas = ",".join(["1.0"] * 25)
        with pytest.raises(ValidationError, match=r"bad spec in header"):
            instance_from_text(f"n=25 d=25 sigmas={sigmas} seed=0\n")


class TestMixtureFunction:
    def test_sk_coefficients(self):
        # c_2 = 1/sqrt(2) gives sigma_2 = 1
        spec = MixtureFunction((0, 1 / math.sqrt(2))).to_spec()
        assert spec.sigmas[1] == pytest.approx(1.0, rel=1e-15)

    def test_cubic_coefficients(self):
        # xi(x) = x^3/2 is the sigma_3 = sqrt(3) model
        spec = MixtureFunction((0, 0, 1 / math.sqrt(2))).to_spec()
        assert spec.sigmas[2] == pytest.approx(math.sqrt(3), rel=1e-15)

    def test_degree_one(self):
        assert MixtureFunction((2,)).to_spec().sigmas == (2.0,)

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


    @pytest.mark.parametrize(
        "cs, message",
        [((-0.1, 0.5), "coefficients must be finite and >= 0"),
         ((0.0, 0.0), "all mixture coefficients are zero")],
        ids=["negative", "all-zero"],
    )
    def test_bad_coefficients_rejected(self, cs, message):
        with pytest.raises(ValidationError, match=message):
            MixtureFunction(cs)


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
            assert len(inst.couplings[q - 1]) == math.comb(7, q)

    def test_zero_sigma_gives_exact_zeros(self):
        inst = sample_instance(make_mixture_spec(2, [0, 1]), 6, 4)
        assert all(j == 0.0 for j in inst.couplings[0])
        assert any(j != 0.0 for j in inst.couplings[1])

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_sorting_reference(self, n):
        # every degree up to n, drawn under one spec and zeroed under the other
        for zeroed in (0, 1):
            sigmas = [0.0 if q % 2 == zeroed else 0.3 + 0.1 * q for q in range(1, n + 1)]
            if not any(sigmas):
                continue
            spec = make_mixture_spec(n, sigmas)
            inst = sample_instance(spec, n, 1000 + n)
            for got, want in zip(inst.couplings, sampling_reference(spec, n, 1000 + n)):
                assert got.tobytes() == want.tobytes()

    def test_subsets_listed_only_for_drawn_degrees(self, monkeypatch):
        calls = []

        def counted(n, q):
            calls.append(q)
            return subsets(n, q)

        monkeypatch.setattr("msqaoa.model.subsets", counted)
        sample_instance(pure_d_spec(3), 9, 0)
        assert calls == [3]

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
            for j in inst.couplings[1]:
                total += j
                total_sq += j * j
                count += 1
        mean = total / count
        var = total_sq / count - mean * mean
        se_mean = 1.0 / math.sqrt(count)
        se_var = math.sqrt(2.0 / (count - 1))
        assert abs(mean) < 3 * se_mean
        assert abs(var - 1.0) < 3 * se_var

    @pytest.mark.parametrize(
        "d, sigmas, n, seed, digest",
        [
            (2, [0.0, 1.0], 7, 11,
             "4ee65f87253178b3bb81637c6fbcc8fbece7c8a09333fe70dde0d2618b484978"),
            (3, [0.3, 0.5, 1.0], 6, 2024,
             "c6798649929f439b98eae9b9199af8e03bcc97dac6aad09ddee6238ee6a61a5a"),
            (4, [0.0, 0.0, 0.0, 1.0], 9, 3,
             "5e681a3ad15a4652db8c762ce0e6cf35be9aeb27eedaaee0b619e578a3637dc8"),
            (3, [0.25, 0.0, 0.9], 8, 123456789,
             "a660a2cb6a89aae0359e809a5f0a49f6b29657556135f41016a150a0bde19cbf"),
        ],
    )
    def test_pinned_instance_text(self, d, sigmas, n, seed, digest):
        # the draw order and the file order together: at n >= 5 and q >= 2
        # lexicographic and bitmask subset orders differ
        text = instance_to_text(sample_instance(make_mixture_spec(d, sigmas), n, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_coupling_cap(self):
        with pytest.raises(CapExceededError, match="INSTANCE_MAX_COUPLINGS"):
            sample_instance(make_mixture_spec(3, [0, 0, 1]), 1_000_000, 0)

    def test_wrong_coupling_shape_rejected(self):
        spec = make_mixture_spec(2, [0, 1])
        shapes = r"coupling arrays must have shapes \[\(3,\), \(3,\)\]"
        with pytest.raises(ValidationError, match=shapes):
            ProblemInstance(n=3, spec=spec, seed=0, couplings=(np.zeros(3), np.zeros(2)))


class TestSubsets:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bitmask_order(self, n):
        for q in range(1, n + 1):
            want = sorted(combinations(range(n), q), key=lambda s: sum(1 << i for i in s))
            rows = subsets(n, q)
            assert rows.shape == (math.comb(n, q), q)
            assert [tuple(r) for r in rows.tolist()] == want

    def test_bitmask_order_beyond_63_spins(self):
        # bitmasks past 2^63 compared as Python integers
        want = sorted(combinations(range(64), 2), key=lambda s: sum(1 << i for i in s))
        rows = subsets(64, 2)
        assert [tuple(r) for r in rows.tolist()] == want
        assert rows.tobytes() == sorted_subsets_reference(64, 2).tobytes()


class TestBeyond63Spins:
    @pytest.mark.parametrize("d, n", [(3, 64), (2, 100)])
    def test_round_trip_and_cost(self, d, n):
        spec = make_mixture_spec(d, [0.3, 0.5, 1.0][:d])
        inst = sample_instance(spec, n, 17)
        for got, want in zip(inst.couplings, sampling_reference(spec, n, 17)):
            assert got.tobytes() == want.tobytes()
        text = instance_to_text(inst)
        back = instance_from_text(text)
        assert back == inst
        assert instance_to_text(back) == text
        rng = np.random.default_rng(n)
        for _ in range(2):
            z = [int(v) for v in rng.choice([-1, 1], n)]
            want = 0.0
            for q in range(1, d + 1):
                for s, j in zip(subsets(n, q).tolist(), inst.couplings[q - 1].tolist()):
                    want += n ** ((1 - q) / 2) * j * math.prod(z[i] for i in s)
            assert abs(cost(inst, z) - want) <= 1e-12 * abs(want)


class TestCost:
    def _single_coupling_instance(self, n, indices, value, sigmas=None):
        d = len(indices)
        sigmas = sigmas or [0.0] * (d - 1) + [1.0]
        spec = MixtureSpec(d, tuple(sigmas))
        couplings = [np.zeros(math.comb(n, q)) for q in range(1, d + 1)]
        by_mask = sorted(
            combinations(range(1, n + 1), d), key=lambda s: sum(1 << (i - 1) for i in s)
        )
        couplings[-1][by_mask.index(tuple(indices))] = value
        return ProblemInstance(n=n, spec=spec, seed=0, couplings=tuple(couplings))

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
            couplings=(np.zeros(3), np.zeros(3)),
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


def test_instance_with_fewer_spins_than_the_degree_rejected():
    with pytest.raises(ValidationError, match="n=2 < d=3"):
        ProblemInstance(n=2, spec=make_mixture_spec(3, [0, 0, 1]), seed=0, couplings=())


# n = 2, d = 1: the header of each bad file below
HEADER = "n=2 d=1 sigmas=1.0 seed=0\n"


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

    def test_repeated_subset(self):
        inst = sample_instance(make_mixture_spec(2, [0.5, 1.0]), 4, 0)
        lines = instance_to_text(inst).splitlines()
        lines[-1] = lines[-2]
        with pytest.raises(ValidationError, match=r"inconsistent instance file"):
            instance_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty instance file"),
            ("\n  \n", "empty instance file"),
            ("n=2 d=3 sigmas=0,0,1 seed=0\n", "n=2 < d=3"),
            (HEADER + "1 1\n1 2 0.5\n", "bad coupling line"),
            (HEADER + "1 3 0.5\n1 2 0.5\n", "bad subset"),
            ("n=3 d=2 sigmas=0,1 seed=0\n2 2,1 0.5\n", "bad subset"),
            ("n=3 d=2 sigmas=0,1 seed=0\n2 1,1 0.5\n", "bad subset"),
            (HEADER + "1 1 0.5\n2 1,2 0.5\n", "subset of size 2 exceeds d=1"),
            (HEADER + "1 1 inf\n1 2 0.5\n", "coupling values must be finite, got line '1 1 inf'"),
            (HEADER + "1 1 0.5\n1 2 -inf\n", "must be finite"),
            (HEADER + "1 1 nan\n1 2 0.5\n", "must be finite"),
            (HEADER + "1 1 1e999\n1 2 0.5\n", "must be finite"),
        ],
        ids=["empty", "blank", "n-below-d", "two-fields", "index-out-of-range", "unsorted",
             "repeated-index", "size-above-d", "inf", "minus-inf", "nan", "overflowing"],
    )
    def test_bad_file_rejected(self, text, message):
        with pytest.raises(ValidationError, match=message):
            instance_from_text(text)

    def test_subset_listed_twice_rejected(self):
        # every slot is filled, but one line too many
        lines = instance_to_text(sample_instance(make_mixture_spec(1, [1]), 3, 0)).splitlines()
        with pytest.raises(ValidationError, match=r"degree 1 must list each of its 3 subsets once, got 4"):
            instance_from_text("\n".join(lines + lines[-1:]) + "\n")

    def test_read_instance_streams_the_file(self, tmp_path):
        # Reading the whole text and splitting it holds at least twice the
        # file; line by line the peak is about one line and the arrays.  A
        # 4 kB blank line after each of the 696 coupling lines makes a 2.9 MB
        # file that parses as fast as the n = 16 instance it holds.
        inst = sample_instance(make_mixture_spec(3, [0.5, 1.0, 0.7]), 16, 1)
        blank = " " * 4096
        path = tmp_path / "instance.txt"
        path.write_text("".join(f"{ln}\n{blank}\n" for ln in instance_to_text(inst).splitlines()))
        tracemalloc.start()
        try:
            back = read_instance(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back == inst
        assert peak < path.stat().st_size / 4

    def test_read_instance_splits_lines_as_instance_from_text(self, tmp_path):
        # \r\n and \r end lines in the file; \x0c, \x1e and \u2028 end them
        # for str.splitlines, on the whole text and on each line alike
        inst = sample_instance(make_mixture_spec(2, [0.5, 1.0]), 5, 3)
        lines = instance_to_text(inst).splitlines()
        ends = ["\r\n", "\r", "\x0c", "\n\n", "\x1e", "\u2028"]
        text = "".join(ln + ends[i % len(ends)] for i, ln in enumerate(lines))
        path = tmp_path / "instance.txt"
        path.write_bytes(text.encode())
        assert read_instance(path) == instance_from_text(path.read_text()) == inst

    def test_coupling_cap_from_header_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="INSTANCE_MAX_COUPLINGS"):
                instance_from_text("n=1000000 d=3 sigmas=0.0,0.0,1.0 seed=0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_coupling_cap_boundary(self):
        # n = 24 at any d stays under the cap (2^24 - 1 couplings); one spin
        # more at d = 24 is over it
        assert sum(math.comb(24, q) for q in range(1, 25)) <= INSTANCE_MAX_COUPLINGS
        sigmas = ",".join(["1.0"] * 24)
        with pytest.raises(ValidationError, match=r"degree 1 must list each of its 24 subsets"):
            instance_from_text(f"n=24 d=24 sigmas={sigmas} seed=0\n")
        with pytest.raises(CapExceededError):
            instance_from_text(f"n=25 d=24 sigmas={sigmas} seed=0\n")


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
        values = [float(5.0 + 0.1 * rng.standard_normal()) for i in range(10)]
        inst = ProblemInstance(n=10, spec=spec, seed=0, couplings=(values,))
        fit = estimate_spec(inst)
        assert any("NonZeroMean" in w for w in fit.warnings)


    def test_huge_couplings_refused_without_overflow(self):
        # max|J| scales the squares, so no RuntimeWarning (an error in these
        # tests) comes first; sigma^2 itself overflows in MixtureSpec
        inst = instance_from_text(HEADER + "1 1 1e308\n1 2 -1.5e308\n")
        with pytest.raises(ValidationError, match="sigma_q\\^2"):
            estimate_spec(inst)

    def test_tiny_couplings_fit_without_underflow(self):
        fit = estimate_spec(instance_from_text(HEADER + "1 1 3e-200\n1 2 -4e-200\n"))
        # the RMS of (3, -4) * 1e-200 is 5e-200 / sqrt(2); the squares underflow to 0
        assert fit.spec.sigmas[0] == pytest.approx(5e-200 / math.sqrt(2), rel=1e-15)
        assert not any("AllZero" in w for w in fit.warnings)

    def test_all_zero_couplings_keep_the_header_spec(self):
        fit = estimate_spec(instance_from_text(HEADER + "1 1 0.0\n1 2 -0.0\n"))
        assert fit.spec == make_mixture_spec(1, [1.0])
        assert any(w.startswith("AllZero") for w in fit.warnings)
