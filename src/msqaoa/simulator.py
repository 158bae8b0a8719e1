"""Exact depth-1 QAOA statevector simulation for a concrete problem instance.

Basis convention: amplitude index bit b (little-endian) carries spin
z_{b+1} = 1 - 2*bit, so bit value 0 means spin +1.

Two exact identities keep the work per instance small:

* The cost table is a Walsh–Hadamard transform of the couplings.  Since
  prod_{i in S} z_i = (-1)^popcount(idx & mask_S), scattering
  c[mask_S] = n^((1-q)/2) J_S into a 2^n vector and applying the
  unnormalized transform H^{(x)n} gives H(z) at every index.  Degree q,
  stored by ascending mask, fills the masks of popcount q in index order.
* The mixer exp(-i beta sum_k X_k) is (exp(-i beta X))^{(x)n}, another
  tensor power of a 2x2 gate.  With S = diag(1, i),
  exp(-i beta X) = S R_beta S^dagger, where
  R_beta = [[cos beta, sin beta], [-sin beta, cos beta]] is real.
  S^{(x)n} = diag(i^popcount(idx)) is diagonal, so it commutes with
  exp(-i gamma H), and the outer S^{(x)n} drops out of |amplitude|^2:
  the probabilities are those of R_beta^{(x)n} applied to
  exp(-i (gamma H(idx) + (pi/2) (popcount(idx) mod 4))) / 2^(n/2).
  The state is therefore kept as one real (2, 2^n) array [re; im], phased
  by the cosine and sine of that angle, and every transform is real.  The
  rows leave out the 2^(-n/2): the squared rows are added into one row of
  probabilities, whose dot products with the table take the exact factor
  2^-n instead.

Both rows come from one tangent of the half angle, t = tan(a/2):
cos a = 2/(1+t^2) - 1 and sin a = t 2/(1+t^2), computed in place.  numpy
(2.4, AVX-512) evaluates float64 tan with SIMD kernels but cos and sin with
one scalar libm call per entry, so this phases 2^20 entries about 5x faster,
within 3.3e-16 absolute of cos and sin of the same angle.  Halving gamma and
the quarter turns is exact, so the half angle is exactly half of
-(gamma H + (pi/2) turns).  |tan x| < 1e19 for every finite double, so t^2
never overflows; the one overflow left is (gamma/2) H itself, and a gamma
whose half phase (|gamma|/2) max|H| is not finite is refused with
``ValidationError``, once per table, instead of being phased to NaN.

Both gates, the Hadamard for the table and R_beta for the mixer, are
applied by one helper that cuts the index into SLICE_BITS-bit slices and
multiplies each slice by the Kronecker power of the gate:
ceil(n / SLICE_BITS) matrix products.

At fixed gamma, <H>(beta) is a trigonometric polynomial of degree at most d
in 2 beta (each Z_S conjugated by the mixer is a product of |S| <= d factors
linear in cos 2b and sin 2b).  ``landscape_instance`` therefore takes it at
the 2d+2 nodes beta_k = pi k / (2d+2) per gamma and obtains every grid beta
from them by Dirichlet-kernel interpolation, which is exact for such
polynomials.  Three more identities leave d mixer transforms per gamma, up
to sign, and none at gamma = 0:

* R_{pi/2} = [[0, 1], [-1, 0]] on every spin is a bit flip up to signs, so
  the probabilities at beta + pi/2 are those at beta at the complemented
  index, and complementing an n-bit index reverses the table.  Nodes 1..d
  take one transform each; nodes d+2..2d+1 are the same probabilities against
  the reversed table.  Nodes 0 and d+1 (beta = 0 and pi/2) leave the
  uniform distribution: the table's mean over n, with no transform.
* The table and |+> are real, so complex conjugation gives
  <H>(beta, -gamma) = <H>(-beta, gamma): a gamma whose exact negative was
  already taken reads that gamma's node values at the negated nodes.
* |+> is an eigenstate of the mixer, so at gamma = 0 every beta gives the
  table's mean over n.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .closed_form import Angles, require_finite_grid
from .errors import CapExceededError, ValidationError
from .model import ProblemInstance, popcounts

__all__ = [
    "SIM_MAX_N",
    "check_size",
    "build_phase_table",
    "expectation",
    "landscape_instance",
]

SIM_MAX_N = 24  # a 2^24-entry state: two real rows, 256 MB


def check_size(n: int) -> None:
    """Raise ``CapExceededError`` unless an n-spin statevector fits the cap."""
    if n > SIM_MAX_N:
        raise CapExceededError(f"statevector needs 2^{n} amplitudes; cap is n={SIM_MAX_N}")


SLICE_BITS = 5  # index bits per matrix product; 32x32 factors measured fastest

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])

# minus the gauge phase (pi/2) k for k = popcount(idx) mod 4, and its half
QUARTER = -0.5 * math.pi * np.arange(4)
HALF_QUARTER = QUARTER / 2


def _rotation(beta: float) -> np.ndarray:
    """R_beta = S^dagger exp(-i beta X) S on one spin, with S = diag(1, i)."""
    c = math.cos(beta)
    s = math.sin(beta)
    return np.array([[c, s], [-s, c]])


def _kron_factors(u: np.ndarray, n: int) -> list[np.ndarray]:
    """u^{(x)k} for each slice of an n-bit index, lowest slice first.

    Entry [a, b] is prod_i u[a_i, b_i] over the k bits of a and b.  Every
    slice has SLICE_BITS bits except possibly the top one.
    """
    powers = [np.ones((1, 1))]
    for _ in range(min(n, SLICE_BITS)):
        p = powers[-1]
        m = 2 * len(p)
        powers.append((p[:, None, :, None] * u[None, :, None, :]).reshape(m, m))
    return [powers[min(SLICE_BITS, n - lo)] for lo in range(0, n, SLICE_BITS)]


def _apply_kron(x: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """A new array: the 2x2 gate behind ``factors`` applied to every bit of
    the index along x's last axis, one matrix product per slice."""
    shape = x.shape
    lo = 0
    for f in factors:
        if lo == 0:
            x = x.reshape(-1, len(f)) @ f.T
        else:
            x = f @ x.reshape(-1, len(f), 1 << lo)
        lo += len(f).bit_length() - 1
    return x.reshape(shape)


def _scattered(instance: ProblemInstance) -> np.ndarray:
    """The scaled couplings n^((1-q)/2) J_S at their subset masks (2^n entries)."""
    n = instance.n
    sizes = popcounts(n)
    values = np.zeros(1 << n)
    for q, j in enumerate(instance.couplings, start=1):
        values[sizes == q] = n ** ((1 - q) / 2) * j
    return values


def build_phase_table(instance: ProblemInstance) -> np.ndarray:
    """values[idx] = H(z) for the basis string encoded by idx (2^n entries).

    One scatter of the scaled couplings, then the unnormalized Walsh–Hadamard
    transform: the Hadamard gate on every bit.
    """
    n = instance.n
    check_size(n)
    # the scattered couplings are a temporary, freed by the first slice product
    return _apply_kron(_scattered(instance), _kron_factors(HADAMARD, n))


def _check_phase(table: np.ndarray, gamma: float) -> None:
    """Raise ``ValidationError`` unless the half phase (|gamma|/2) H is
    finite at every entry of the table."""
    top = max(float(table.max()), -float(table.min()))  # max |H|, no temporary
    if not math.isfinite(0.5 * abs(gamma) * top):
        raise ValidationError(
            f"gamma {gamma!r} overflows the cost phase: |gamma|/2 * max|H| "
            f"is not finite (max|H| = {top!r})"
        )


def _phased(table: np.ndarray, turns: np.ndarray, gamma: float) -> np.ndarray:
    """[re; im] of 2^(n/2) S^dagger^{(x)n} exp(-i gamma H)|+>: rows cos a and
    sin a of a = -(gamma H + (pi/2) turns), from t = tan(a/2) in place."""
    x = np.empty((2, len(table)))
    np.take(HALF_QUARTER, turns, out=x[0], mode="clip")  # "raise" would buffer
    np.multiply(table, -0.5 * gamma, out=x[1])
    x[1] += x[0]
    np.tan(x[1], out=x[1])
    np.square(x[1], out=x[0])
    x[0] += 1.0
    np.divide(2.0, x[0], out=x[0])  # 2/(1+t^2) = 1 + cos a
    x[1] *= x[0]
    x[0] -= 1.0
    return x


def _evolved(table: np.ndarray, n: int, angles: Angles) -> np.ndarray:
    """[re; im] of R_beta^{(x)n} applied to the phased vector."""
    # the gauge and the phased vector are temporaries: the first is freed
    # once phased, the second by the first slice product
    _check_phase(table, angles.gamma)
    mixer = _kron_factors(_rotation(angles.beta), n)
    return _apply_kron(_phased(table, popcounts(n) & 3, angles.gamma), mixer)


def _probabilities(y: np.ndarray) -> np.ndarray:
    """2^n |amplitude|^2 from the [re; im] rows of y, in y's first row: both
    rows squared in place, the second added into the first."""
    np.square(y, out=y)
    y[0] += y[1]
    return y[0]


def expectation(
    instance: ProblemInstance,
    angles: Angles,
    table: Optional[np.ndarray] = None,
) -> tuple[float, float]:
    """(<H>, <H^2>) in the depth-1 QAOA state of this instance.

    Both expectations come from the same diagonal table: <H^2> weights the
    squared table entries, no operator squaring.
    """
    if table is None:
        table = build_phase_table(instance)
    n = instance.n
    p = _probabilities(_evolved(table, n, angles))
    h = float(p @ table) * 2.0**-n
    p *= table
    h2 = float(p @ table) * 2.0**-n
    return h, h2


def _interpolation_matrix(betas: np.ndarray, nodes: np.ndarray, d: int) -> np.ndarray:
    """M[i, j] = weight of the value at nodes[j] in the value at betas[i].

    The Dirichlet kernel (1 + 2 sum_{k<=d} cos k x) / N, with x the
    difference in 2 beta, reproduces every trigonometric polynomial of degree
    <= d in 2 beta from its values at N > 2d equispaced nodes pi j / N.
    """
    x = 2.0 * (betas[:, None] - nodes[None, :])
    k = np.arange(1, d + 1)
    return (1.0 + 2.0 * np.cos(x[..., None] * k).sum(axis=-1)) / len(nodes)


def landscape_instance(
    instance: ProblemInstance,
    betas: Sequence[float],
    gammas: Sequence[float],
) -> np.ndarray:
    """Per-instance <H>/n over the grid; rows follow beta, columns gamma.

    The 2d+2 node values per gamma take d mixer transforms, whatever the
    number of betas; a gamma whose exact negative came earlier in the grid,
    a repeated gamma and gamma = 0 take none (see the module docstring).
    The d mixers' factor matrices are built once per call.
    """
    betas, gammas = require_finite_grid(betas, gammas)
    n = instance.n
    d = instance.spec.d
    table = build_phase_table(instance)
    _check_phase(table, float(gammas[np.abs(gammas).argmax()]))
    turns = popcounts(n) & 3
    nodes = 2 * d + 2
    node_betas = math.pi * np.arange(nodes) / nodes
    mixers = [_kron_factors(_rotation(float(beta)), n) for beta in node_betas[1 : d + 1]]
    # node -k is node k at -beta, modulo the period pi
    negated = -np.arange(nodes) % nodes
    uniform = table.mean() / n
    columns = {0.0: np.full(nodes, uniform)}  # node values by gamma
    node_values = np.empty((nodes, len(gammas)))
    for gi, gamma in enumerate(gammas.tolist()):
        if gamma not in columns:
            column = np.full(nodes, uniform)
            phased = _phased(table, turns, gamma)
            for j, factors in enumerate(mixers, start=1):
                p = _probabilities(_apply_kron(phased, factors))
                column[j] = float(p @ table) * 2.0**-n / n
                # read at the complemented index: the value at beta + pi/2
                column[j + d + 1] = float(p @ table[::-1]) * 2.0**-n / n
                del p  # freed before the next transform allocates
            columns[gamma] = column
            columns[-gamma] = column[negated]
        node_values[:, gi] = columns[gamma]
    return _interpolation_matrix(betas, node_betas, d) @ node_values
