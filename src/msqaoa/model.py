"""Mixed-spin SK disorder specification, instance sampling, and cost evaluation.

A model is specified by a degree bound ``d`` and per-degree standard
deviations ``sigma_q`` (q = 1..d) of the Gaussian couplings J_S attached to
every size-q subset S of spins.  The classical cost of a spin string
z in {+1,-1}^n is

    H(z) = sum_q n^((1-q)/2) * sum_{|S|=q} J_S * prod_{i in S} z_i.

The equivalent "mixture function" notation uses coefficients
c_q = sigma_q / sqrt(q!) and xi(x) = sum_q c_q^2 x^q.

Both views take every degree bound d in 1..MAX_DEGREE = 24 and raise
ValidationError for any other d, before any factorial is taken, so every
engine (closed form, finite-n moments, statevector) accepts the same models.
The bound is the instance cap's: an instance has n >= d spins and at least
2^d - 1 couplings, and INSTANCE_MAX_COUPLINGS = 2^24 admits no d > 24.

An instance stores the couplings of each degree q as one array of
binom(n, q) values in colexicographic subset order: ascending bitmask, with
bit i-1 set when spin i is in S.  That order is the one subset convention:
the statevector's phase table writes degree q at the bitmasks of popcount q
(``popcounts(n) == q``, in index order), and ``subsets(n, q)`` lists it as
rows of spin indices for sampling, cost evaluation and the instance file,
which have no bitmask cap on n.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError, ValidationError

__all__ = [
    "MixtureSpec",
    "MixtureFunction",
    "ProblemInstance",
    "make_mixture_spec",
    "from_mixture_function",
    "pure_d_spec",
    "check_degree",
    "sample_instance",
    "cost",
    "read_instance",
    "instance_to_text",
    "instance_from_text",
    "estimate_spec",
    "FitResult",
    "subsets",
    "damping_rate",
    "INSTANCE_MAX_COUPLINGS",
    "MAX_DEGREE",
]

RNG_ALGORITHM = "PCG64"  # recorded in run manifests; seeding is documented below
INSTANCE_MAX_COUPLINGS = 1 << 24  # the statevector's own table size at n = 24
# sum_q binom(n, q) >= 2^d - 1 at n >= d, so no instance has a larger degree
MAX_DEGREE = INSTANCE_MAX_COUPLINGS.bit_length() - 1


def check_degree(d: int) -> None:
    """ValidationError unless 1 <= d <= MAX_DEGREE."""
    if not 1 <= d <= MAX_DEGREE:
        raise ValidationError(f"degree bound must be >= 1 and <= {MAX_DEGREE}, got d={d}")


@dataclass(frozen=True)
class MixtureSpec:
    """Disorder law: degree bound d and standard deviations sigma_1..sigma_d.

    ``sigmas[q-1]`` is the standard deviation of the couplings on subsets of
    size q, in dimensionless energy units.  The spec also keeps two values
    that its validation computes and the closed forms read at every point:
    ``_damping_rate``, xi'(1) = sum_q sigma_q^2/(q-1)! (``damping_rate``),
    and ``_xi_coefficients``, (0, sigma_1^2/1!, ..., sigma_d^2/d!), the
    coefficients of xi(x) = sum_q sigma_q^2 x^q / q!.  Neither is an
    argument, and neither takes part in ``repr``, ``==`` or ``hash``.
    """

    d: int
    sigmas: tuple[float, ...]
    _damping_rate: float = field(init=False, repr=False, compare=False)
    _xi_coefficients: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_degree(self.d)
        if len(self.sigmas) != self.d:
            raise ValidationError(
                f"expected {self.d} sigmas, got {len(self.sigmas)}"
            )
        if any(s < 0 or not math.isfinite(s) for s in self.sigmas):
            raise ValidationError(f"sigmas must be finite and >= 0: {self.sigmas}")
        if all(s == 0 for s in self.sigmas):
            raise ValidationError("all sigmas are zero; the disorder is degenerate")
        # (q-1)! with q starting at 1 <=> factorial(index)
        rate = sum(s * s / math.factorial(q) for q, s in enumerate(self.sigmas))
        # The closed forms square each sigma and decay as exp(-2 g^2 a rate).
        if not (all(math.isfinite(s * s) for s in self.sigmas) and math.isfinite(rate)):
            raise ValidationError(
                "every sigma_q^2 and the damping rate sum_q sigma_q^2/(q-1)! "
                f"must be finite, got sigmas {self.sigmas}"
            )
        object.__setattr__(self, "_damping_rate", rate)
        object.__setattr__(
            self,
            "_xi_coefficients",
            (0.0,) + tuple(s * s / math.factorial(q) for q, s in enumerate(self.sigmas, 1)),
        )

    def mixture_function(self) -> "MixtureFunction":
        """Equivalent mixture-function view, c_q = sigma_q / sqrt(q!)."""
        cs = tuple(s / math.sqrt(math.factorial(q + 1)) for q, s in enumerate(self.sigmas))
        return MixtureFunction(cs)

    def sigma_sq(self) -> tuple[float, ...]:
        return tuple(s * s for s in self.sigmas)


def damping_rate(spec: MixtureSpec) -> float:
    """sum_q sigma_q^2/(q-1)!, the decay rate in exp(-2 g^2 a * rate).

    Equals xi'(1) of the equivalent mixture function.  The spec computes it
    once, when it is validated.
    """
    return spec._damping_rate


@dataclass(frozen=True)
class MixtureFunction:
    """Coefficients c_q of xi(x) = sum_q c_q^2 x^q, q = 1..d."""

    cs: tuple[float, ...]

    def __post_init__(self) -> None:
        check_degree(len(self.cs))
        if any(c < 0 or not math.isfinite(c) for c in self.cs):
            raise ValidationError(f"coefficients must be finite and >= 0: {self.cs}")
        if all(c == 0 for c in self.cs):
            raise ValidationError("all mixture coefficients are zero")

    @property
    def d(self) -> int:
        return len(self.cs)

    def xi(self, x: complex) -> complex:
        """Evaluate xi at a real or complex argument (Horner's scheme)."""
        acc = 0.0 + 0.0j
        for c in reversed(self.cs):
            acc = (acc + c * c) * x
        return acc

    def xi_prime_at_one(self) -> float:
        """xi'(1) = sum_q q c_q^2."""
        return sum((q + 1) * c * c for q, c in enumerate(self.cs))

    def to_spec(self) -> MixtureSpec:
        """Equivalent sigma view, sigma_q = c_q * sqrt(q!)."""
        sigmas = tuple(c * math.sqrt(math.factorial(q + 1)) for q, c in enumerate(self.cs))
        return MixtureSpec(len(self.cs), sigmas)


def make_mixture_spec(d: int, sigmas: Sequence[float]) -> MixtureSpec:
    """Validate and build a MixtureSpec from per-degree standard deviations."""
    return MixtureSpec(d, tuple(float(s) for s in sigmas))


def from_mixture_function(d: int, cs: Sequence[float]) -> MixtureSpec:
    """Build a MixtureSpec from mixture coefficients, sigma_q = c_q sqrt(q!)."""
    if len(cs) != d:
        raise ValidationError(f"expected {d} coefficients, got {len(cs)}")
    return MixtureFunction(tuple(float(c) for c in cs)).to_spec()


def pure_d_spec(d: int) -> MixtureSpec:
    """Pure d-spin disorder, sigma_q = delta_{dq} sqrt(d!/2)."""
    check_degree(d)
    sigmas = [0.0] * d
    sigmas[d - 1] = math.sqrt(math.factorial(d) / 2)
    return MixtureSpec(d, tuple(sigmas))


def popcounts(n: int) -> np.ndarray:
    """popcount(idx), the size of the subset idx, as uint8 for idx < 2^n."""
    k = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        np.add(k[: 1 << b], 1, out=k[1 << b : 2 << b])
    return k


def subsets(n: int, q: int) -> np.ndarray:
    """The size-q subsets of spins 0..n-1 as a (binom(n, q), q) array.

    Each row holds sorted 0-based indices; rows run in colexicographic order
    (ascending bitmask), the storage order of ``ProblemInstance.couplings``.
    They mirror the lexicographic enumeration (i -> n-1-i, reversed): no sort.
    """
    count = math.comb(n, q)
    rows = np.fromiter(
        chain.from_iterable(combinations(range(n), q)), dtype=np.int64, count=count * q
    ).reshape(count, q)
    return n - 1 - rows[::-1, ::-1]


def _check_coupling_count(n: int, d: int) -> None:
    count = sum(math.comb(n, q) for q in range(1, d + 1))
    if count > INSTANCE_MAX_COUPLINGS:
        raise CapExceededError(
            f"n={n}, d={d} needs {count} couplings; "
            f"cap is INSTANCE_MAX_COUPLINGS={INSTANCE_MAX_COUPLINGS}"
        )


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One sampled realization of the disorder for n spins.

    ``couplings[q-1]`` holds the binom(n, q) raw couplings J_S with |S| = q,
    in ascending bitmask order (the rows of ``subsets(n, q)``).  Every degree
    q = 1..d is materialized, including exact zeros for sigma_q = 0.
    Instances compare equal when n, spec, seed and every coupling agree.
    """

    n: int
    spec: MixtureSpec
    seed: int
    couplings: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.n < self.spec.d:
            raise ValidationError(f"n={self.n} < d={self.spec.d}")
        couplings = tuple(np.asarray(j, dtype=float) for j in self.couplings)
        shapes = [(math.comb(self.n, q),) for q in range(1, self.spec.d + 1)]
        if [j.shape for j in couplings] != shapes:
            raise ValidationError(
                f"coupling arrays must have shapes {shapes}, "
                f"got {[j.shape for j in couplings]}"
            )
        object.__setattr__(self, "couplings", couplings)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProblemInstance):
            return NotImplemented
        return (self.n, self.spec, self.seed) == (other.n, other.spec, other.seed) and all(
            np.array_equal(a, b) for a, b in zip(self.couplings, other.couplings)
        )


def _instance_rng(spec: MixtureSpec, n: int, seed: int) -> np.random.Generator:
    # PCG64 seeded from SHA-256 of the canonical (spec, n, seed) encoding, so
    # sampling is a pure function of its arguments across runs and platforms.
    tag = f"d={spec.d};sigmas={','.join(repr(s) for s in spec.sigmas)};n={n};seed={seed}"
    digest = hashlib.sha256(tag.encode()).digest()
    entropy = int.from_bytes(digest, "big")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def sample_instance(spec: MixtureSpec, n: int, seed: int) -> ProblemInstance:
    """Sample all couplings J_S ~ N(0, sigma_{|S|}^2) i.i.d., deterministically.

    Couplings are drawn degree by degree in lexicographic subset order, so
    the draw order (and hence the instance) is pinned by (spec, n, seed);
    one permutation per degree moves them to the storage order.  More than
    INSTANCE_MAX_COUPLINGS couplings raise CapExceededError before anything
    is allocated.
    """
    if n < spec.d:
        raise ValidationError(f"n={n} < d={spec.d}")
    _check_coupling_count(n, spec.d)
    rng = _instance_rng(spec, n, seed)
    couplings = []
    for q, sigma in enumerate(spec.sigmas, start=1):
        j = np.zeros(math.comb(n, q))
        if sigma > 0:  # drawn in lexicographic order, placed at storage slots
            rows = subsets(n, q)
            j[np.lexsort(rows.T[::-1])] = rng.normal(0.0, sigma, size=len(rows))
        couplings.append(j)
    return ProblemInstance(n=n, spec=spec, seed=seed, couplings=tuple(couplings))


def _check_spins(z: Sequence[int], n: int) -> None:
    if len(z) != n:
        raise ValidationError(f"spin string has {len(z)} entries, expected {n}")
    for v in z:
        if v != 1 and v != -1:
            raise ValidationError(f"spin entries must be +1 or -1, got {v!r}")


def cost(instance: ProblemInstance, z: Sequence[int]) -> float:
    """H(z) = sum_q n^((1-q)/2) sum_{|S|=q} J_S z_S for z in {+1,-1}^n."""
    _check_spins(z, instance.n)
    n = instance.n
    z = np.asarray(z, dtype=float)
    return float(sum(
        n ** ((1 - q) / 2) * (j @ z[subsets(n, q)].prod(axis=1))
        for q, j in enumerate(instance.couplings, start=1)
    ))


# -- serialization ---------------------------------------------------------
#
# Line-oriented text format:
#   n=<n> d=<d> sigmas=<comma list> seed=<hex>
#   <q> <idx1,...,idxq> <value>
# Values use repr() so read/write round-trips bit-exactly.


def instance_to_text(instance: ProblemInstance) -> str:
    sig = ",".join(repr(s) for s in instance.spec.sigmas)
    lines = [f"n={instance.n} d={instance.spec.d} sigmas={sig} seed={instance.seed:x}"]
    for q, values in enumerate(instance.couplings, start=1):
        for row, j in zip((subsets(instance.n, q) + 1).tolist(), values.tolist()):
            lines.append(f"{q} {','.join(map(str, row))} {j!r}")
    return "\n".join(lines) + "\n"


def instance_from_text(text: str) -> ProblemInstance:
    return _instance_from_lines(text.splitlines())


def _instance_from_lines(all_lines: Iterable[str]) -> ProblemInstance:
    """The instance in the text whose lines ``all_lines`` yields, parsed as
    they come, so that no more than one line is held at a time."""
    lines = (ln for ln in all_lines if ln.strip())
    header = next(lines, None)
    if header is None:
        raise ValidationError("empty instance file")
    try:
        fields = dict(part.split("=", 1) for part in header.split())
        n = int(fields["n"])
        d = int(fields["d"])
        sigmas = tuple(float(s) for s in fields["sigmas"].split(","))
        seed = int(fields["seed"], 16)
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad instance header: {header!r}") from exc
    try:
        spec = MixtureSpec(d, sigmas)
    except ValueError as exc:
        raise ValidationError(f"bad spec in header: {exc}") from exc
    if n < d:
        raise ValidationError(f"inconsistent instance file: n={n} < d={d}")
    _check_coupling_count(n, d)
    # each degree's couplings in storage order, NaN where no line gave one yet
    couplings = tuple(np.full(math.comb(n, q), math.nan) for q in range(1, d + 1))
    listed = [0] * d
    for ln in lines:
        parts = ln.split()
        if len(parts) != 3:
            raise ValidationError(f"bad coupling line: {ln!r}")
        try:
            q = int(parts[0])
            idx = tuple(int(i) for i in parts[1].split(","))
            value = float(parts[2])
        except ValueError as exc:
            raise ValidationError(f"bad coupling line: {ln!r}") from exc
        if not math.isfinite(value):
            raise ValidationError(f"coupling values must be finite, got line {ln!r}")
        if len(idx) != q or any(not 1 <= i <= n for i in idx) or list(idx) != sorted(set(idx)):
            raise ValidationError(f"bad subset in line: {ln!r}")
        if q > d:
            raise ValidationError(
                f"inconsistent instance file: subset of size {q} exceeds d={d}"
            )
        # the subset's row in subsets(n, q): its colexicographic rank
        couplings[q - 1][sum(math.comb(i - 1, k) for k, i in enumerate(idx, start=1))] = value
        listed[q - 1] += 1
    for q, (j, lines_q) in enumerate(zip(couplings, listed), start=1):
        if lines_q != len(j) or np.isnan(j).any():
            raise ValidationError(
                f"inconsistent instance file: degree {q} must list each of its "
                f"{len(j)} subsets once, got {lines_q} lines"
            )
    return ProblemInstance(n=n, spec=spec, seed=seed, couplings=couplings)


def read_instance(path) -> ProblemInstance:
    """The instance in the file at ``path``, read line by line.  Each line is
    split again by ``str.splitlines``, so the lines are those of
    ``instance_from_text`` on the whole text."""
    with open(path) as fh:
        return _instance_from_lines(chain.from_iterable(ln.splitlines() for ln in fh))


# -- spec fitting ----------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Per-degree standard deviations estimated from a concrete instance.

    The estimate assumes the stored couplings follow this package's
    normalization (raw J_S, with the n^((1-q)/2) scaling applied only inside
    the cost function).  For Hamiltonians written in another scaling
    convention the recovered sigmas differ by powers of n; the caller must
    know which convention the file uses.  See the ``scaling`` warning.
    """

    spec: MixtureSpec
    warnings: tuple[str, ...]


def estimate_spec(instance: ProblemInstance) -> FitResult:
    """Fit a MixtureSpec to an instance via per-degree zero-mean sample stds."""
    warnings = [
        "scaling: sigmas assume couplings are stored unscaled; "
        "the n^((1-q)/2) prefactor is applied at cost-evaluation time"
    ]
    sigmas = []
    for q, vals in enumerate(instance.couplings, start=1):
        m = len(vals)
        # in units of max|J|, so squares neither overflow nor underflow
        scale = float(np.max(np.abs(vals)))
        unit = vals / scale if scale > 0 else vals
        sigmas.append(scale * float(np.sqrt(np.mean(unit**2))))
        if m < 2:
            warnings.append(f"InsufficientSamples: degree {q} has only {m} coupling(s)")
            continue
        mean = float(np.mean(unit))
        se = float(np.std(unit, ddof=1)) / math.sqrt(m)
        if se > 0 and abs(mean) > 3 * se:
            warnings.append(
                f"NonZeroMean: degree {q} sample mean {scale * mean:.3g} exceeds 3 "
                f"standard errors ({scale * se:.3g}); the zero-mean assumption looks violated"
            )
    if all(s == 0 for s in sigmas):
        # keep the fit usable even for a degenerate file: report the original
        warnings.append("AllZero: every estimated sigma is zero; returning input spec")
        return FitResult(instance.spec, tuple(warnings))
    return FitResult(MixtureSpec(instance.spec.d, tuple(sigmas)), tuple(warnings))
