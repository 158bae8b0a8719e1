"""Exact finite-n disorder-averaged moments of the depth-1 QAOA energy per spin.

The Gaussian average turns the double sum over string pairs (z, z') into a
sum over "sketches" (npp, npm, nmp, nmm) -- the counts of positions where
(z_k, z'_k) equals (+,+), (+,-), (-,+), (-,-).  Per sketch the summand is a
product of

  * a multinomial weight n!/(npp! npm! nmp! nmm!),
  * a Gaussian damping exp(-sum_q gamma^2 g_q sigma_q^2 / (2 n^(q-1))),
  * mixer factors Q_ss' = {cos^2 b, sin^2 b, +/- i sin b cos b},

where f_q and g_q are the subset sums sum_{|S|=q}(z_S - z'_S) and
sum_{|S|=q}(z_S - z'_S)^2 written in closed binomial form.

For the moments the sum collapses exactly: grouping sketches by the
disagreement count t = npm + nmp, the inner alternating sums are t-th finite
differences of polynomials of degree <= d (first moment) or <= 2d (second),
so every block with larger t vanishes identically.  Each surviving block is
a polynomial in cos^2 b with integer coefficients (over one common
denominator) that depend on neither angle: they are forward differences of
the block integrand at the integers, built once per n and model.
``sketch_moment_grid`` evaluates every block exactly at cos^2 b taken as
(1 + cos 2b) / 2 from the float cos 2b (integer Horner and one correctly
rounded division), so only the angle factors and the sum over t are rounded,
at any d and n.  The damping weights g_q(t) / (2 n^(q-1)) and the lambda^2
weights binom(n,q) / (2 n^(q+1)) are each one correctly rounded ratio of
exact integers, so nothing overflows and every integer n >= 1 is taken; the
tests certify n above the reference's 512 by evaluating the same integer
blocks at 60 digits and by fitting the first moment in 1/n against the
closed form.  Naive term-by-term
float summation of all binom(n+3,3) sketches would instead lose the
cancellation catastrophically for n beyond a few dozen, and so does a float
evaluation of the blocks in a monomial basis at d beyond about 10.
``generating_function`` keeps the direct
enumeration, one plain float sum over all sketches, since its integrand is
not polynomial in the sketch.  That sum cancels across blocks as n grows, so
it is capped at ORACLE_MAX_N, where the oracle and the tests' 60-digit sketch
sum check it.

``oracle_moments`` computes the same moments by direct summation over all
4^n string pairs with explicit subset sums, and is the independent
ground truth for the sketch path at small n.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .closed_form import Angles, require_finite_grid
from .errors import CapExceededError, NumericalError, ValidationError
from .model import MixtureSpec

__all__ = [
    "Sketch",
    "MomentReport",
    "MomentGrid",
    "f_q",
    "g_q",
    "f_q_abc",
    "sketch_moments",
    "sketch_moment_grid",
    "generating_function",
    "oracle_moments",
    "oracle_mgf",
    "a_factor",
    "b_factor",
    "t_sum",
    "ORACLE_MAX_N",
]

# oracle: 4^n pair enumeration; generating_function: where the oracle and
# the tests' 60-digit sketch sum check its direct float sum
ORACLE_MAX_N = 14
_REL_IMAG_TOL = 1e-9
_VARIANCE_ALLOWANCE = 1e-10


@dataclass(frozen=True)
class Sketch:
    """Counts of (z_k, z'_k) position types for a string pair of length n."""

    npp: int
    npm: int
    nmp: int
    nmm: int

    def __post_init__(self) -> None:
        if min(self.npp, self.npm, self.nmp, self.nmm) < 0:
            raise ValidationError(f"sketch counts must be non-negative: {self}")

    @property
    def n(self) -> int:
        return self.npp + self.npm + self.nmp + self.nmm

    @property
    def t(self) -> int:
        """Number of disagreement positions npm + nmp."""
        return self.npm + self.nmp

    @staticmethod
    def of_pair(z: Sequence[int], zp: Sequence[int]) -> "Sketch":
        if len(z) != len(zp):
            raise ValidationError("strings must have equal length")
        counts = {(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}
        for pair in zip(z, zp):
            if pair not in counts:
                raise ValidationError(f"spin entries must be +1 or -1, got {pair}")
            counts[pair] += 1
        return Sketch(counts[(1, 1)], counts[(1, -1)], counts[(-1, 1)], counts[(-1, -1)])


def _subset_sum_by_plus_count(q: int, u: int, n: int) -> int:
    """sum_{|S|=q} z_S for any z with u entries equal to +1 (exact integer)."""
    return sum(
        (-1) ** (q - k) * math.comb(u, k) * math.comb(n - u, q - k)
        for k in range(q + 1)
    )


def f_q(q: int, sketch: Sketch) -> int:
    """sum_{|S|=q}(z_S - z'_S) for any pair with the given sketch."""
    n = sketch.n
    if not 0 <= q <= n:
        raise ValidationError(f"need 0 <= q <= n={n}, got q={q}")
    u = sketch.npp + sketch.npm  # +1 count of z
    up = sketch.npp + sketch.nmp  # +1 count of z'
    return _subset_sum_by_plus_count(q, u, n) - _subset_sum_by_plus_count(q, up, n)


def g_q(q: int, t: int, n: int) -> int:
    """sum_{|S|=q}(z_S - z'_S)^2 for any pair with t = npm + nmp disagreements."""
    if not 1 <= q <= n:
        raise ValidationError(f"need 1 <= q <= n={n}, got q={q}")
    if not 0 <= t <= n:
        raise ValidationError(f"need 0 <= t <= n={n}, got t={t}")
    return 4 * sum(
        math.comb(t, k) * math.comb(n - t, q - k) for k in range(1, min(t, q) + 1, 2)
    )


# -- polynomial expansion of f_q --------------------------------------------
#
# f_q is a polynomial of total degree q in x = npm - nmp, y = npp - nmm and n,
# read off its generating series.  With u = npp + npm and u' = npp + nmp the
# +1 counts of z and z', sum_{|S|=q} z_S is [t^q] (1+t)^u (1-t)^(n-u), and
# since 2u = n + x + y and 2u' = n - x + y,
#
#   sum_q f_q t^q = (1+t)^u (1-t)^(n-u) - (1+t)^u' (1-t)^(n-u')
#                 = (1-t^2)^(n/2) e^(y artanh t) 2 sinh(x artanh t).
#
# The t^(2k) coefficient of (1-t^2)^(n/2) is (-1)^k binom(n/2, k), of degree
# k in n, and artanh t = t + t^3/3 + ..., so only k = 0 and the lowest-order
# term of 2 sinh(x t) e^(y t) reach total degree q.


def f_q_abc(q: int) -> dict[tuple[int, int, int], Fraction]:
    """Exact coefficients of f_q = sum f^{abc} x^a y^b n^c (zero entries omitted).

    x = npm - nmp, y = npp - nmm.  They are the t^q coefficient of the series
    (1-t^2)^(n/2) e^(y artanh t) 2 sinh(x artanh t), which equals
    sum_q f_q t^q because 2(npp + npm) = n + x + y.  The leading (a+b+c = q)
    coefficients equal 2/(a! b!) exactly when a is odd, b = q - a, c = 0, and
    vanish otherwise.
    """
    if q < 1:
        raise ValidationError(f"need q >= 1, got q={q}")
    # [t^m] e^(y L) 2 sinh(x L) as {(a, b): coeff}, L = artanh t, from
    # sum_j L^j sum_{a odd} 2 x^a y^(j-a) / (a! (j-a)!)
    artanh = [Fraction(m % 2, m) if m else Fraction(0) for m in range(q + 1)]
    power = [Fraction(1)] + [Fraction(0)] * q  # [t^m] L^j, from j = 0
    xy_series: list[dict] = [{} for _ in range(q + 1)]
    for j in range(1, q + 1):
        power = [sum(power[i] * artanh[m - i] for i in range(m)) for m in range(q + 1)]
        for a in range(1, j + 1, 2):
            lead = Fraction(2, math.factorial(a) * math.factorial(j - a))
            for m in range(j, q + 1, 2):
                xy_series[m][a, j - a] = xy_series[m].get((a, j - a), 0) + lead * power[m]
    # times [t^(2k)] (1-t^2)^(n/2) = (-1)^k binom(n/2, k) as coefficients of
    # n^c, each k from the last by the factor (k - 1 - n/2) / k
    coeffs: dict[tuple[int, int, int], Fraction] = {}
    n_poly = [Fraction(1)]
    for k in range(q // 2 + 1):
        if k:
            pad = [Fraction(0)]
            n_poly = [((k - 1) * lo - hi / 2) / k for lo, hi in zip(n_poly + pad, pad + n_poly)]
        for (a, b), cf in xy_series[q - 2 * k].items():
            for c, cn in enumerate(n_poly):
                coeffs[a, b, c] = coeffs.get((a, b, c), 0) + cf * cn
    order = sorted(coeffs, key=lambda m: (sum(m), m))  # total degree, then a, b
    return {mono: coeffs[mono] for mono in order if coeffs[mono]}


# -- sketch-sum engine -------------------------------------------------------


def _g_columns(spec: MixtureSpec, n: int, entries: int) -> list:
    """(sigma_q^2, g_q(t) / (2 n^(q-1)) for t < entries, reach) for each q <=
    min(d, n) with sigma_q != 0: the part of the K table that does not depend
    on gamma.  Each weight is one correctly rounded int / int division, O(1)
    for t <= 2d at any n.  reach is 2 x column count x largest weight: while
    gamma^2 sigma_q^2 reach is finite, no column product or sum overflows."""
    columns = []
    for q in range(1, min(spec.d, n) + 1):
        s2 = spec.sigmas[q - 1] ** 2
        if s2 == 0:
            continue
        scale = 2 * n ** (q - 1)
        columns.append((s2, np.array([g_q(q, t, n) / scale for t in range(entries)])))
    return [(s2, col, 2.0 * len(columns) * float(col.max())) for s2, col in columns]


def _k_table(columns: Sequence, gamma: float, entries: int) -> np.ndarray:
    """K(t) = -sum_q gamma^2 sigma_q^2 g_q(t) / (2 n^(q-1)) for t < entries,
    from the ``_g_columns(spec, n, entries)`` of the model."""
    K = np.zeros(entries)
    g2 = gamma * gamma
    for s2, col, reach in columns:
        w = g2 * s2
        if w * reach < math.inf:
            K -= w * col
        else:  # e^K(t) is 0 where g_q(t) > 0; no array overflow, never inf * 0
            K[col != 0] = -math.inf
    return K


def _lambda_quadratic(spec: MixtureSpec, n: int) -> float:
    """R = sum_q binom(n,q) sigma_q^2 / (2 n^(q+1)), the lam^2 exponent weight,
    with each binom(n,q) / (2 n^(q+1)) one correctly rounded int / int ratio."""
    return sum(
        math.comb(n, q) / (2 * n ** (q + 1)) * spec.sigmas[q - 1] ** 2
        for q in range(1, min(spec.d, n) + 1)
    )


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
# With j ~ Binomial(n-t, c2), c2 = cos^2 b, a moment block at disagreement
# count t is binom(n,t) e^{K(t)} (i sc)^t E_j h_t(j), where
#     h_t(j) = sum_i (-1)^i binom(t,i) X(i,j),  P(i,j) = phi(i+j) - phi(t-i+j),
# X = P for the first moment and P^2 for the second, and phi(u) =
# sum_q sigma_q^2 F_q(u)/n^q is a polynomial in u of degree <= d.  Swapping
# i -> t-i shows the P-block vanishes for even t and the P^2-block for odd t;
# h_t is a polynomial in j of degree <= deg - t (deg = d or 2d), so blocks
# with t > deg vanish, and the Newton expansion h_t(j) = sum_m Delta^m h_t(0)
# binom(j,m) with E_j binom(j,m) = binom(n-t,m) c2^m turns each surviving
# block into a polynomial in c2 whose integer coefficients depend on neither
# angle.  sigma_q^2 are dyadic rationals, so phi scaled by a common
# denominator is an integer at every u, and each block is evaluated exactly
# at c2 = (1 + cos 2b) / 2 = p / 2^e; only the e^K and sc^t factors and the
# sum over t are rounded.


def _phi_integers(spec: MixtureSpec, n: int, top: int) -> tuple[list[int], int]:
    """(L phi(u) for u = 0..top, L): phi at the integers, exactly, over the
    common denominator L of its terms sigma_q^2 F_q(u) / n^q."""
    terms = [
        (q, *(spec.sigmas[q - 1] ** 2).as_integer_ratio())
        for q in range(1, min(spec.d, n) + 1)
        if spec.sigmas[q - 1] ** 2 != 0
    ]
    den = math.lcm(1, *(s2_den * n**q for q, _, s2_den in terms))
    weights = [(q, s2_num * (den // (s2_den * n**q))) for q, s2_num, s2_den in terms]
    phi = [
        sum(w * _subset_sum_by_plus_count(q, u, n) for q, w in weights)
        for u in range(top + 1)
    ]
    return phi, den


def _binomial_moment_coeffs(h: list[int], s: int) -> list[int]:
    """Integer coefficients c_m with sum_m c_m c2^m = E h(j), j ~ Binomial(s,
    c2), from the values h(0..k) of a polynomial h of degree <= k <= s:
    c_m = binom(s,m) Delta^m h(0), since E binom(j,m) = binom(s,m) c2^m."""
    coeffs = []
    for m in range(len(h)):
        coeffs.append(math.comb(s, m) * h[0])
        h = [b - a for a, b in zip(h, h[1:])]
    return coeffs


def _moment_blocks(spec: MixtureSpec, n: int) -> tuple[list, list]:
    """The surviving blocks of the first and of the second moment, each as
    (t, coeffs, den) with sum_m coeffs[m] c2^m / den = s binom(n,t) E_j h_t(j),
    where s = i^(t+1) for the first moment (odd t <= d) and s = i^t for the
    second (even t <= 2d, from t = 2 on, since P(0, j) = 0)."""
    d = spec.d
    phi, den = _phi_integers(spec, n, min(2 * d, n))

    def block(t: int, power: int, deg: int, sign: int):
        h = [
            sum(
                (-1) ** i * math.comb(t, i) * (phi[i + j] - phi[t - i + j]) ** power
                for i in range(t + 1)
            )
            for j in range(min(deg, n) - t + 1)
        ]
        scale = sign * math.comb(n, t)
        return t, [scale * c for c in _binomial_moment_coeffs(h, n - t)], den**power

    first = [
        block(t, 1, d, (-1) ** ((t + 1) // 2)) for t in range(1, min(d, n) + 1, 2)
    ]
    second = [block(t, 2, 2 * d, (-1) ** (t // 2)) for t in range(2, min(2 * d, n) + 1, 2)]
    return first, second


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
    for t, coeffs, den in blocks:
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

    The lambda-derivatives of the generating function are taken analytically
    (first = i gamma sum_sketch w p, second = 2R - gamma^2 sum_sketch w p^2
    with p = sum_q sigma_q^2 f_q / n^q), and the sketch sums collapse to the
    blocks described above.  Each block is a beta factor (sc^t times its
    polynomial in cos^2 b, built once per grid and evaluated exactly once per
    beta) times a gamma factor (gamma e^K(t) or e^K(t), from one K table per
    gamma, which scales integer g_q columns built once per grid), so each
    point costs one multiply-add per block, in the same order as the 1x1
    grid.  Both moments are real by construction.

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
    blocks1, blocks2 = _moment_blocks(spec, n)
    # beta factors, shape (len(betas), blocks)
    rows = np.array([_block_values(blocks1 + blocks2, float(b)) for b in betas])
    f1, f2 = rows[:, : len(blocks1)], rows[:, len(blocks1) :]
    # gamma factors, shape (blocks, len(gammas))
    g1 = np.empty((len(blocks1), len(gammas)))
    g2 = np.empty((len(blocks2), len(gammas)))
    entries = min(2 * spec.d, n) + 1
    columns = _g_columns(spec, n, entries)
    for gi, gamma in enumerate(gammas):
        gamma = float(gamma)
        K = _k_table(columns, gamma, entries)
        for i, (t, _, _) in enumerate(blocks1):
            g1[i, gi] = gamma * math.exp(K[t])
        for i, (t, _, _) in enumerate(blocks2):
            g2[i, gi] = math.exp(K[t])

    first = np.zeros((len(betas), len(gammas)))
    for i in range(len(blocks1)):
        first += g1[i] * f1[:, i, None]
    m2 = np.zeros((len(betas), len(gammas)))
    for i in range(len(blocks2)):
        m2 += g2[i] * f2[:, i, None]
    # not (gammas * gammas) * m2: past |gamma| ~ 1.3e154 gamma^2 is inf where
    # every e^K(t), and so m2, is 0; the limit is second = 2R
    second = 2 * _lambda_quadratic(spec, n) - gammas * (gammas * m2)
    variance, clamped = _clamped_variance(first, second)
    return MomentGrid(n, spec, betas, gammas, first, second, variance, clamped)


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


def generating_function(spec: MixtureSpec, angles: Angles, n: int, lam: float) -> complex:
    """Disorder-averaged E_J<exp(i lam H/n)> at finite n via the sketch sum.

    One plain float sum over the binom(n+3,3) sketches, grouped by the
    disagreement count t: binom(n,t) e^K(t) (i sc)^t times the real sum of
    (-1)^npm binom(t,npm) binom(n-t,npp) c2^npp s2^nmm e^(-gamma lam P), with
    P = sum_q sigma_q^2 f_q / n^q.  Its blocks cancel more as n grows, so n
    is capped at ORACLE_MAX_N, where the oracle checks it.  At lam = 0 the
    value is the squared state norm, 1.
    """
    n = _check_n(n, ORACLE_MAX_N, "the oracle checks the direct sketch sum only up to there")
    if lam == 0.0 and angles.gamma == 0.0:
        # the exponent vanishes for every sketch and the sum telescopes to 1
        return 1.0 + 0.0j
    sb, cb = math.sin(angles.beta), math.cos(angles.beta)
    sc, c2, s2 = sb * cb, cb * cb, sb * sb
    phi_int, den = _phi_integers(spec, n, n)
    phi = [v / den for v in phi_int]
    # k(t) = K(t) / gamma^2 <= 0: each term's damping and e^(-gamma lam P) are
    # one exponent gamma (gamma k(t) - lam P), -inf where a huge gamma overflows
    k = _k_table(_g_columns(spec, n, n + 1), 1.0, n + 1).tolist()
    g = angles.gamma
    total = 0j
    for t in range(n + 1):
        s = n - t
        gk = g * k[t]
        block = 0.0
        for i in range(t + 1):  # i = npm
            for j in range(s + 1):  # j = npp
                w = (-1) ** i * math.comb(t, i) * math.comb(s, j) * c2**j * s2 ** (s - j)
                block += w * math.exp(g * (gk - lam * (phi[i + j] - phi[t - i + j])))
        total += math.comb(n, t) * (1j * sc) ** t * block
    return math.exp(-(lam**2) * _lambda_quadratic(spec, n)) * total


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


def _popcounts(values: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros_like(values)
    for b in range(n):
        out += (values >> b) & 1
    return out


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
    spec: MixtureSpec, angles: Angles, n: int, lam: Optional[float]
) -> tuple[complex, complex, complex, complex, float, list]:
    """(sum WE, sum WED, sum WED^2, sum WE e^(-gamma lam D), R, upper bounds on
    sum |WE|, sum |WED|, sum |WED^2|) over all string pairs, for an n already
    through ``_check_n``.  A pair's damping is E = e^(gamma (gamma x)), with
    x = sum_q sigma_q^2 (tables[q][z xor z'] - binom(n,q)) / n^(q-1) <= 0, and
    e^(-gamma lam D) joins it as the one exponent gamma (gamma x - lam D).
    gamma is finite, so an exponent that a huge gamma overflows is -inf, E is
    0 there and nothing forms inf * 0 (x = 0 only where D = 0)."""
    d = spec.d
    g = angles.gamma
    sb, cb = math.sin(angles.beta), math.cos(angles.beta)
    tables = _string_subset_tables(n, d)
    sigma2 = spec.sigma_sq()

    size = 1 << n
    phi = np.zeros(size)
    x = np.zeros(size)
    for q in range(1, min(d, n) + 1):
        s2 = sigma2[q - 1]
        if s2 == 0:
            continue
        phi += (s2 / n**q) * tables[q]
        x += (s2 / n ** (q - 1)) * (tables[q] - math.comb(n, q))

    pc = _popcounts(np.arange(size), n)
    wa = cb ** (n - pc) * (1j * sb) ** pc  # <z|e^{i beta B}|(+1)^n>
    wb = wa.conj()  # <(+1)^n|e^{-i beta B}|z'>
    # Bounds on sum |WE|, sum |WE D| and sum |WE| D^2 over all pairs, from
    # |W| = amp_r amp_c, |D| <= |phi_r| + |phi_c| and the symmetry of E.
    amp = np.abs(wa)
    bound_rows = np.array([amp, 2 * amp * np.abs(phi), 4 * amp * phi * phi])
    with np.errstate(over="ignore"):  # a huge gamma: exponents of -inf
        gx = g * x
        damp = np.exp(g * gx)

    s0 = _Kahan()
    s1 = _Kahan()
    s2acc = _Kahan()
    sl = _Kahan()
    magnitudes = np.zeros(3)
    masks = np.arange(size)
    chunk = max(1, (1 << 22) // size)
    for lo in range(0, size, chunk):
        hi = min(size, lo + chunk)
        rows = masks[lo:hi]
        pairs = rows[:, None] ^ masks[None, :]  # z xor z'
        E = damp[pairs]
        W = wa[rows][:, None] * wb[None, :]
        WE = W * E
        D = phi[rows][:, None] - phi[None, :]
        s0.add(WE.sum())
        WED = WE * D
        s1.add(WED.sum())
        s2acc.add((WED * D).sum())
        magnitudes += bound_rows[:, rows] @ (E @ amp)
        if lam is not None:
            with np.errstate(over="ignore"):
                exponent = g * (gx[pairs] - lam * D)
            sl.add((W * np.exp(exponent)).sum())

    r = _lambda_quadratic(spec, n)
    return s0.total, s1.total, s2acc.total, sl.total, r, magnitudes.tolist()


def oracle_moments(spec: MixtureSpec, angles: Angles, n: int) -> MomentReport:
    """First and second moments by direct summation over all string pairs.

    Independent ground truth for ``sketch_moments``: subset sums are taken
    explicitly per string, with no sketch collapse and no binomial formulas.
    """
    n = _check_n(n, ORACLE_MAX_N, _ORACLE_CAP_REASON)
    s0, s1, s2sum, _, r, (a0, a1, a2) = _oracle_sums(spec, angles, n, None)
    g = angles.gamma
    first = _require_real(1j * g * s1, "oracle first moment", abs(g) * a1)
    # g * (g * ...), not g**2: g**2 raises OverflowError past |g| ~ 1.3e154
    second = _require_real(
        2 * r * s0 - g * (g * s2sum),
        "oracle second moment",
        2 * r * a0 + g * (g * a2),
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


def oracle_mgf(spec: MixtureSpec, angles: Angles, n: int, lam: float) -> complex:
    """E_J<exp(i lam H/n)> by direct summation over all string pairs."""
    n = _check_n(n, ORACLE_MAX_N, _ORACLE_CAP_REASON)
    _, _, _, sl, r, _ = _oracle_sums(spec, angles, n, lam)
    return math.exp(-(lam * lam) * r) * sl


# -- T-sum building blocks ----------------------------------------------------


def _a_kernel(a: int, t: int) -> int:
    """sum_i (-1)^i binom(t,i) (2i-t)^a, exact; vanishes for t > a."""
    return sum((-1) ** i * math.comb(t, i) * (2 * i - t) ** a for i in range(t + 1))


def a_factor(a: int, t: int, beta: float) -> complex:
    """A^a_t = sum over npm+nmp=t of binom(t,npm)(npm-nmp)^a Q+-^npm Q-+^nmp.

    Exactly zero for t > a; equals a! (-i)^a sin^a(2 beta) at t = a.
    """
    if a < 0 or t < 0:
        raise ValidationError(f"need a, t >= 0, got a={a}, t={t}")
    sc = math.sin(beta) * math.cos(beta)
    return _a_kernel(a, t) * (1j * sc) ** t


def _b_coeffs(b: int, s: int) -> list[int]:
    """B^b over npp+nmm = s as a polynomial in c2 = cos^2 beta: the
    coefficients of E[(2j-s)^b] for j ~ Binomial(s, c2)."""
    return _binomial_moment_coeffs([(2 * j - s) ** b for j in range(min(b, s) + 1)], s)


def b_factor(b: int, t: int, n: int, beta: float) -> float:
    """B^b_t = sum over npp+nmm=n-t of binom(n-t,npp)(npp-nmm)^b Q++^npp Q--^nmm.

    A polynomial of degree <= b in cos^2 beta, evaluated exactly at
    (1 + cos 2 beta) / 2 like the moment blocks.
    """
    if b < 0:
        raise ValidationError(f"need b >= 0, got b={b}")
    n = _check_n(n)
    if not 0 <= t <= n:
        raise ValidationError(f"need 0 <= t <= n={n}, got t={t}")
    return _block_values([(0, _b_coeffs(b, n - t), 1)], beta)[0]


def t_sum(
    spec: MixtureSpec, angles: Angles, n: int, a: int, b: int, n_power: int
) -> complex:
    """Finite-n T^{ab} with prefactor 1/n^n_power, via the A/B factorization.

    T = sum_t binom(n,t) e^K(t) A^a_t B^b_t / n^n_power, and A^a_t vanishes
    for t > a, so only t <= min(a, n) is summed.  Each term is i^t e^K(t)
    times an exact block: sc^t times the integer polynomial
    kern binom(n,t) B^b_t in cos^2 beta over n^n_power.

    Converges for a + b = n_power to
    (-i)^a exp(-2 a gamma^2 sum_q sigma_q^2/(q-1)!) sin^a(2b) cos^b(2b)
    and to zero (like 1/n) for a + b < n_power.
    """
    if a < 0 or b < 0:
        raise ValidationError(f"need a, b >= 0, got a={a}, b={b}")
    if a + b > n_power:
        raise ValidationError(f"need a+b <= n_power, got {a}+{b} > {n_power}")
    n = _check_n(n)
    top = min(a, n)
    K = _k_table(_g_columns(spec, n, top + 1), angles.gamma, top + 1)
    blocks = []
    for t in range(top + 1):
        scale = _a_kernel(a, t) * math.comb(n, t)
        blocks.append((t, [scale * c for c in _b_coeffs(b, n - t)], n**n_power))
    values = _block_values(blocks, angles.beta)
    return sum(1j**t * math.exp(K[t]) * v for t, v in enumerate(values))
