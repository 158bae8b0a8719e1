"""Exact finite-n disorder-averaged moments of the depth-1 QAOA energy per spin.

The Gaussian average turns the double sum over string pairs (z, z') into a
sum over "sketches" (npp, npm, nmp, nmm) -- the counts of positions where
(z_k, z'_k) equals (+,+), (+,-), (-,+), (-,-).  Per sketch the summand of the
power sum S_m = sum_sketch w e^K p^m is a product of

  * a multinomial weight n!/(npp! npm! nmp! nmm!),
  * a Gaussian damping e^K = exp(-sum_q gamma^2 g_q sigma_q^2 / (2 n^(q-1))),
  * mixer factors Q_ss' = {cos^2 b, sin^2 b, +/- i sin b cos b},
  * the m-th power of p = sum_q sigma_q^2 f_q / n^q,

where f_q and g_q are the subset sums sum_{|S|=q}(z_S - z'_S) and
sum_{|S|=q}(z_S - z'_S)^2.  Both are read off F_q(u) = sum_{|S|=q} z_S for a
string with u entries +1, which ``_subset_sums_by_degree`` gives for every q
in one recurrence: f_q = F_q(u) - F_q(u') and g_q(t) = 2 binom(n,q) -
2 F_q(n - t).  ``verify``'s combinatorial_identities row checks F_q(u) and
the damping against explicit subset products at n <= 10.  Every moment is a
combination of these power sums: first = i gamma S_1 and
second = 2R S_0 - gamma^2 S_2, with S_0 = 1 and R the lambda^2 weight.

Each S_m collapses exactly into blocks of power m: grouping sketches by the
disagreement count t = npm + nmp, the inner alternating sums are t-th finite
differences of a polynomial of degree <= m d, so only the blocks with
t = m (mod 2) and 1 <= t <= min(m d, n) survive.  Each surviving block is
a polynomial in cos^2 b with integer coefficients (over one common
denominator) that depend on neither angle: they are forward differences of
the block integrand at the integers, built once per n and model.
``sketch_moment_grid`` evaluates every block exactly at cos^2 b taken as
(1 + cos 2b) / 2 from the float cos 2b (integer Horner and one correctly
rounded division), so only the angle factors and the sum over t are rounded,
at any d and n.  The damping sum_q sigma_q^2 g_q(t) / (2 n^(q-1)) and the
lambda^2 weight R = sum_q binom(n,q) sigma_q^2 / (2 n^(q+1)) are values of the
same exact polynomial phi as the blocks, each one correctly rounded ratio of
exact integers, so nothing overflows and every integer n >= 1 is taken; the
tests certify n above the reference's 512 by evaluating the same integer
blocks at 60 digits and by fitting the first moment in 1/n against the
closed form.  Naive term-by-term
float summation of all binom(n+3,3) sketches would instead lose the
cancellation catastrophically for n beyond a few dozen, and so does a float
evaluation of the blocks in a monomial basis at d beyond about 10.

``oracle_moments`` computes the same power sums by direct summation over all
4^n string pairs with explicit subset sums, and is the independent
ground truth for the sketch path at small n.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .closed_form import Angles, require_finite_grid
from .errors import CapExceededError, NumericalError, ValidationError
from .model import MixtureSpec, popcounts

__all__ = [
    "MomentReport",
    "MomentGrid",
    "sketch_moments",
    "sketch_moment_grid",
    "oracle_moments",
    "ORACLE_MAX_N",
]

# the oracle enumerates 4^n string pairs
ORACLE_MAX_N = 14
_REL_IMAG_TOL = 1e-9
_VARIANCE_ALLOWANCE = 1e-10


def _subset_sums_by_degree(u: int, n: int, top: int) -> list[int]:
    """[F_0(u), ..., F_top(u)], F_q(u) = sum_{|S|=q} z_S for any z of length
    n with u entries +1, in one pass.  F_q(u) is the t^q coefficient of
    P = (1+t)^u (1-t)^(n-u), and (1 - t^2) P' = (2u - n - n t) P gives, with
    F_0 = 1, F_1 = 2u - n,
        (q + 1) F_{q+1} = (2u - n) F_q - (n - q + 1) F_{q-1},
    each division exact."""
    f = [1, 2 * u - n]
    for q in range(1, top):
        f.append(((2 * u - n) * f[q] - (n - q + 1) * f[q - 1]) // (q + 1))
    return f[: top + 1]


# -- sketch-sum engine -------------------------------------------------------


def _check_n(n, cap: Optional[int] = None, reason: str = "") -> int:
    """n as an exact Python int >= 1, at most ``cap`` when one is given.  A
    numpy integer is converted, so the binomials and powers of n stay exact
    integers; anything that is not an integer raises ValidationError."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValidationError(f"n must be an integer, got {n!r}") from None
    if n < 1:
        raise ValidationError(f"need n >= 1, got n={n}")
    if cap is not None and n > cap:
        raise CapExceededError(f"n={n} exceeds the cap {cap}: {reason}")
    return n


def _require_real(z: complex, what: str, scale: float = 0.0) -> float:
    """z.real, unless the imaginary residue exceeds 1e-9 of the larger of
    |z.real| and ``scale``, a bound on the magnitude of the terms summed into
    z (a sum that is zero by symmetry keeps a rounding residue of that size)."""
    if abs(z.imag) > _REL_IMAG_TOL * max(abs(z.real), scale, 1e-300):
        raise NumericalError(
            f"{what} has imaginary residue {z.imag:.3e} vs real part {z.real:.3e} "
            f"and term magnitude {scale:.3e}"
        )
    return float(z.real)


@dataclass(frozen=True)
class MomentReport:
    """First and second disorder-averaged moments of H/n at finite n.
    ``second`` is E_J<H^2>/n^2, so ``variance`` is the total variance of H/n,
    quantum spread included."""

    n: int
    first: float
    second: float
    variance: float
    spec: MixtureSpec
    angles: Angles
    clamped: bool = False


def _clamped_variance(first, second) -> tuple[np.ndarray, np.ndarray]:
    """second - first^2 with a clamp mask: values below -_VARIANCE_ALLOWANCE
    raise NumericalError, smaller negative ones are set to 0."""
    variance = np.asarray(second - first * first, dtype=float)
    clamped = variance < 0
    if clamped.any():
        worst = float(variance.min())
        if worst < -_VARIANCE_ALLOWANCE:
            raise NumericalError(
                f"variance {worst:.3e} below the -{_VARIANCE_ALLOWANCE} allowance"
            )
        variance = np.where(clamped, 0.0, variance)
    return variance, clamped


# -- exact block evaluation of the sketch-sum moments -------------------------
#
# With j ~ Binomial(n-t, c2), c2 = cos^2 b, the block of power m at
# disagreement count t is i^(t+m) binom(n,t) e^{K(t)} sc^t E_j h_t(j), where
#     h_t(j) = sum_i (-1)^i binom(t,i) P(i,j)^m,  P(i,j) = phi(i+j) - phi(t-i+j),
# and phi(u) = sum_q sigma_q^2 F_q(u)/n^q is a polynomial in u of degree <= d;
# i^m is the i^m of (i gamma)^m in the moments.  Swapping i -> t-i shows the
# block vanishes unless t = m (mod 2); h_t is a polynomial in j of degree
# <= md - t, so blocks with t > md vanish, and so does t = 0 (P(0, j) = 0).  The Newton
# expansion h_t(j) = sum_r Delta^r h_t(0) binom(j,r) with E_j binom(j,r) =
# binom(n-t,r) c2^r turns each surviving block into a polynomial in c2 whose
# integer coefficients depend on neither angle.  sigma_q^2 are dyadic
# rationals, so phi scaled by a common denominator is an integer at every u,
# and each block is evaluated exactly at c2 = (1 + cos 2b) / 2 = p / 2^e;
# only the e^K and sc^t factors and the sum over t are rounded.


def _phi_integers(spec: MixtureSpec, n: int, top: int) -> tuple[list[int], list[int], int]:
    """(L phi(u), L phi(n - u)) for u = 0..top, and L: phi at the integers,
    exactly, over the common denominator L of its terms sigma_q^2 F_q(u) / n^q.
    Flipping every spin gives F_q(n - u) = (-1)^q F_q(u), so phi(n - u) is
    phi(u) with its odd degrees negated: no point near u = n is evaluated."""
    terms = [
        (q, *(spec.sigmas[q - 1] ** 2).as_integer_ratio())
        for q in range(1, min(spec.d, n) + 1)
        if spec.sigmas[q - 1] ** 2 != 0
    ]
    den = math.lcm(1, *(s2_den * n**q for q, _, s2_den in terms))
    weights = [(q, s2_num * (den // (s2_den * n**q))) for q, s2_num, s2_den in terms]
    qmax = max((q for q, _ in weights), default=0)
    parts = []  # (even, odd) degrees of L phi(u)
    for u in range(top + 1):
        f = _subset_sums_by_degree(u, n, qmax)
        parts.append((
            sum(w * f[q] for q, w in weights if q % 2 == 0),
            sum(w * f[q] for q, w in weights if q % 2),
        ))
    return [e + o for e, o in parts], [e - o for e, o in parts], den


def _weights(flip: list[int], den: int, n: int) -> tuple[list[float], float]:
    """(k(t) for t = 0..top, R) from flip = L phi(n - t), each one correctly
    rounded int / int ratio.  z_S z'_S is the subset product of a string with
    n - t entries +1, so g_q(t) = 2 binom(n,q) - 2 F_q(n - t) and the damping
    is e^K(t) = e^(-gamma^2 k(t)) with
        k(t) = sum_q sigma_q^2 g_q(t) / (2 n^(q-1)) = n (phi(n) - phi(n - t)),
    k(t) >= 0 and k(0) = 0; the lambda^2 weight is
        R = sum_q binom(n,q) sigma_q^2 / (2 n^(q+1)) = phi(n) / (2n)."""
    return [n * (flip[0] - v) / den for v in flip], flip[0] / (2 * n * den)


def _binomial_moment_coeffs(h: list[int], s: int) -> list[int]:
    """Integer coefficients c_m with sum_m c_m c2^m = E h(j), j ~ Binomial(s,
    c2), from the values h(0..k) of a polynomial h of degree <= k <= s:
    c_m = binom(s,m) Delta^m h(0), since E binom(j,m) = binom(s,m) c2^m."""
    coeffs = []
    for m in range(len(h)):
        coeffs.append(math.comb(s, m) * h[0])
        h = [b - a for a, b in zip(h, h[1:])]
    return coeffs


def _moment_blocks(phi: list[int], den: int, n: int, d: int) -> list:
    """The surviving blocks of the power sums S_1 and S_2, each as
    (m, t, coeffs, den^m) with sum_r coeffs[r] c2^r / den^m =
    i^(t+m) binom(n,t) E_j h_t(j) for power m at disagreement count t, where
    t = m (mod 2) and 1 <= t <= min(md, n).  phi and den are the L phi(u),
    u <= min(2d, n), and L of ``_phi_integers`` for degree d."""
    blocks = []
    for m in (1, 2):
        top = min(m * d, n)
        for t in range(2 - m % 2, top + 1, 2):
            h = [
                sum(
                    (-1) ** i * math.comb(t, i) * (phi[i + j] - phi[t - i + j]) ** m
                    for i in range(t + 1)
                )
                for j in range(top - t + 1)
            ]
            scale = (-1) ** ((t + m) // 2) * math.comb(n, t)
            blocks.append((m, t, [scale * c for c in _binomial_moment_coeffs(h, n - t)], den**m))
    return blocks


def _block_values(blocks: Sequence, beta: float) -> list[float]:
    """sc^t times each block's polynomial at c2 = cos^2 beta.  c2 is taken as
    the exact rational (1 + cos 2 beta) / 2 = p / 2^e, not as a rounded square,
    so blocks that cancel to O(cos 2 beta) keep their relative accuracy.
    Integer Horner gives sum_m coeffs[m] p^m 2^(e(M-m)), and one correctly
    rounded int / int division by den 2^(eM) gives the block."""
    sc = math.sin(beta) * math.cos(beta)
    p, q = math.cos(2 * beta).as_integer_ratio()
    p, q = p + q, 2 * q
    e = q.bit_length() - 1
    out = []
    for _, t, coeffs, den in blocks:
        num = 0
        for k, a in enumerate(reversed(coeffs)):
            num = num * p + (a << e * k)
        out.append(sc**t * (num / (den << e * (len(coeffs) - 1))))
    return out


@dataclass(frozen=True)
class MomentGrid:
    """First and second moments of H/n at finite n over a (beta, gamma) grid.

    Every array has shape (len(betas), len(gammas)): rows follow beta,
    columns gamma.  ``clamped`` marks the points whose variance came out
    negative within rounding and was set to 0.
    """

    n: int
    spec: MixtureSpec
    betas: np.ndarray
    gammas: np.ndarray
    first: np.ndarray
    second: np.ndarray
    variance: np.ndarray
    clamped: np.ndarray


def sketch_moment_grid(
    spec: MixtureSpec,
    betas: Sequence[float],
    gammas: Sequence[float],
    n: int,
) -> MomentGrid:
    """Exact finite-n first and second moments of H/n at every grid point.

    Both moments are sums over the blocks described above, each a beta
    factor (sc^t times its polynomial in cos^2 b, built once per grid and
    evaluated exactly once per beta) times a gamma factor e^K(t),
    K(t) = -gamma^2 k(t); one loop adds every block into the sum of its
    power m.  The sign i^(t+m) holds the i^m of (i gamma)^m, so the power-2
    sum is -S_2 and second = 2R + gamma (gamma (-S_2)).  A power-1 block's
    gamma factor keeps one gamma, gamma e^K(t), so its sum is first itself:
    at pure d >= 16 the blocks cancel, and gamma times the sum would round
    differently (by up to 1.1e-13 of the grid's max |value| at d = 24).
    One exact phi table per grid gives the blocks, every k(t) and the
    lambda^2 weight R, so each point costs one multiply-add per block, in
    the same order as the 1x1 grid.  Both moments are real by construction.

    A variance below -1e-10 raises NumericalError; smaller negative
    variances are set to 0 and flagged in ``clamped``.  Every integer n >= 1
    is taken: only the block count min(2d, n) + 1 and the digits of the
    integer blocks depend on n, so a grid takes the same time at every n up
    to about 10^18 and then grows with the number of digits of n.

    The variance is ``second - first^2``, so it keeps only the digits of
    ``second`` that its own size (about 0.36/n for SK) leaves: past about
    n = 2^40 it is rounding noise.  For SK at (0.3, -0.4), n * variance is
    0.361340 at n = 2^30, 0.39 at 2^50 and 512 at 2^64, and at 2^64 about a
    third of a 13x13 grid comes out clamped.  ``first`` and ``second`` stay
    accurate at every n.
    """
    n = _check_n(n)
    betas, gammas = require_finite_grid(betas, gammas)
    phi, flip, den = _phi_integers(spec, n, min(2 * spec.d, n))
    blocks = _moment_blocks(phi, den, n, spec.d)
    k, r = _weights(flip, den, n)
    # beta factors, shape (len(betas), blocks)
    rows = np.array([_block_values(blocks, float(b)) for b in betas])
    # gamma factors, shape (blocks, len(gammas))
    cols = np.empty((len(blocks), len(gammas)))
    for gi, gamma in enumerate(gammas):
        # Python floats: k(t) >= 0 and k(0) = 0, so a huge gamma takes
        # gamma (gamma k(t)) only to +inf and e^K(t) to 0, never to NaN
        gamma = float(gamma)
        for i, (m, t, _, _) in enumerate(blocks):
            cols[i, gi] = gamma ** (m % 2) * math.exp(-(gamma * (gamma * k[t])))

    # the sum of each power's blocks: i gamma S_1 and -S_2
    sums = {m: np.zeros((len(betas), len(gammas))) for m in (1, 2)}
    for i, (m, *_) in enumerate(blocks):
        sums[m] += cols[i] * rows[:, i, None]
    # not (gammas * gammas) * sums[2]: past |gamma| ~ 1.3e154 gamma^2 is inf
    # where every e^K(t), and so the sum, is 0; the limit is second = 2R
    second = 2 * r + gammas * (gammas * sums[2])
    variance, clamped = _clamped_variance(sums[1], second)
    return MomentGrid(n, spec, betas, gammas, sums[1], second, variance, clamped)


def sketch_moments(spec: MixtureSpec, angles: Angles, n: int) -> MomentReport:
    """Exact finite-n first and second moments of H/n via the sketch sum:
    the 1x1 case of ``sketch_moment_grid``."""
    grid = sketch_moment_grid(spec, [angles.beta], [angles.gamma], n)
    return MomentReport(
        n=grid.n,
        first=float(grid.first[0, 0]),
        second=float(grid.second[0, 0]),
        variance=float(grid.variance[0, 0]),
        spec=spec,
        angles=angles,
        clamped=bool(grid.clamped[0, 0]),
    )


# -- brute-force double-string oracle ----------------------------------------

_ORACLE_CAP_REASON = "the oracle enumerates 4^n pairs"


class _Kahan:
    """Compensated complex accumulator (Kahan), in Python complex numbers,
    which overflow to inf without a numpy warning."""

    __slots__ = ("total", "carry")

    def __init__(self) -> None:
        self.total = 0j
        self.carry = 0j

    def add(self, x: complex) -> None:
        y = complex(x) - self.carry
        t = self.total + y
        self.carry = (t - self.total) - y
        self.total = t


def _string_subset_tables(n: int, d: int) -> np.ndarray:
    """tables[q][m] = sum_{|S|=q} prod_{i in S} z_i for the string with bitmask m.

    Bit b of m set means z_{b+1} = -1.  Products are accumulated subset by
    subset; nothing here shares code with the binomial formulas.
    """
    size = 1 << n
    idx = np.arange(size)
    bit_signs = [1.0 - 2.0 * ((idx >> b) & 1) for b in range(n)]
    tables = np.zeros((d + 1, size))
    for q in range(1, min(d, n) + 1):
        acc = np.zeros(size)
        for subset in combinations(range(n), q):
            prod = bit_signs[subset[0]].copy()
            for b in subset[1:]:
                prod *= bit_signs[b]
            acc += prod
        tables[q] = acc
    return tables


def _oracle_sums(
    spec: MixtureSpec, angles: Angles, n: int
) -> tuple[complex, complex, complex, float, list]:
    """(sum WE D^m for m = 0, 1, 2, R, upper bounds on sum |WE D^m| for
    m = 0, 1, 2) over all string pairs, for an n already through
    ``_check_n``.  A pair's damping is E = e^(gamma (gamma x)), with
    x = sum_q sigma_q^2 (tables[q][z xor z'] - binom(n,q)) / n^(q-1) <= 0.
    gamma is finite, so an exponent that a huge gamma overflows is -inf, E is
    0 there and nothing forms inf * 0 (x = 0 only where D = 0)."""
    d = spec.d
    g = angles.gamma
    sb, cb = math.sin(angles.beta), math.cos(angles.beta)
    tables = _string_subset_tables(n, d)
    sigma2 = [s * s for s in spec.sigmas]

    size = 1 << n
    phi = np.zeros(size)
    x = np.zeros(size)
    for q in range(1, min(d, n) + 1):
        s2 = sigma2[q - 1]
        if s2 == 0:
            continue
        phi += (s2 / n**q) * tables[q]
        x += (s2 / n ** (q - 1)) * (tables[q] - math.comb(n, q))

    pc = popcounts(n)  # spins at -1 in string z: bit b set means z_{b+1} = -1
    wa = cb ** (n - pc) * (1j * sb) ** pc  # <z|e^{i beta B}|(+1)^n>
    wb = wa.conj()  # <(+1)^n|e^{-i beta B}|z'>
    # Bounds on sum |WE|, sum |WE D| and sum |WE| D^2 over all pairs, from
    # |W| = amp_r amp_c, |D| <= |phi_r| + |phi_c| and the symmetry of E.
    amp = np.abs(wa)
    bound_rows = np.array([amp, 2 * amp * np.abs(phi), 4 * amp * phi * phi])
    with np.errstate(over="ignore"):  # a huge gamma: exponents of -inf
        damp = np.exp(g * (g * x))

    # R = sum_q binom(n,q) sigma_q^2 / (2 n^(q+1)), from its definition
    r = sum(math.comb(n, q) / (2 * n ** (q + 1)) * sigma2[q - 1] for q in range(1, min(d, n) + 1))
    sums = [_Kahan() for _ in range(3)]  # powers m = 0, 1, 2 of D
    magnitudes = np.zeros(3)
    masks = np.arange(size)
    chunk = max(1, (1 << 22) // size)
    for lo in range(0, size, chunk):
        hi = min(size, lo + chunk)
        rows = masks[lo:hi]
        pairs = rows[:, None] ^ masks[None, :]  # z xor z'
        E = damp[pairs]
        W = wa[rows][:, None] * wb[None, :]
        D = phi[rows][:, None] - phi[None, :]
        term = W * E
        for m, acc in enumerate(sums):
            if m:
                term = term * D
            acc.add(term.sum())
        magnitudes += bound_rows[:, rows] @ (E @ amp)

    return (*(acc.total for acc in sums), r, magnitudes.tolist())


def oracle_moments(spec: MixtureSpec, angles: Angles, n: int) -> MomentReport:
    """First and second moments by direct summation over all string pairs.

    Independent ground truth for ``sketch_moments``: subset sums are taken
    explicitly per string, with no sketch collapse and no binomial formulas.
    """
    n = _check_n(n, ORACLE_MAX_N, _ORACLE_CAP_REASON)
    *sums, r, bounds = _oracle_sums(spec, angles, n)
    g = angles.gamma
    first = _require_real(1j * g * sums[1], "oracle first moment", abs(g) * bounds[1])
    # g * (g * ...), not g**2: g**2 raises OverflowError past |g| ~ 1.3e154
    second = _require_real(
        2 * r * sums[0] - g * (g * sums[2]),
        "oracle second moment",
        2 * r * bounds[0] + g * (g * bounds[2]),
    )
    variance, clamped = _clamped_variance(first, second)
    return MomentReport(
        n=n,
        first=first,
        second=second,
        variance=float(variance),
        spec=spec,
        angles=angles,
        clamped=bool(clamped),
    )
