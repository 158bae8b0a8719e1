"""Operation lists for the two benchmark workloads.

An operation is a JSON-able dict. CLI operations carry the argument list that
is passed to ``msqaoa.cli.main`` in-process (the output directory is added when
the operation runs); library operations carry ``(d, n, seed)`` for the
``sample_instance -> build_phase_table -> expectation`` chain. The remaining
fields describe the inputs for the correctness checks; the program never sees
them.

``closed-form`` holds the closed-form CLI commands. ``exact`` holds the two
exact engines: ``landscape --mode finite:N`` (sketch moments),
``landscape --mode instance:N:SEED`` (statevector grid) and the library batch
chain, in fixed proportions.

Every list is a balanced design shuffled by the workload seed: each discrete
parameter takes its values equally often, and within each group of operations
that share the parameter driving the cost (kind, N or d) the j-th operation
takes the j-th degree and size stratum, drawn inside the stratum. Different
seeds then give different inputs (sizes within strata, mixture sigmas,
instance seeds, order) of nearly the same total cost and latency spread, so a
run's figures depend on the code, not on the draw.
"""

from __future__ import annotations

import math

import numpy as np

BETA_ARG = f"{-math.pi / 4!r}:{math.pi / 4!r}"  # the CLI's default ranges
GAMMA_ARG = "-1.5:1.5"
# Finite grids use off-centre ranges, so their check points (on 1/4 and 3/4 of
# each axis) are not mirror images with equal or opposite values.
FINITE_BETA = (-0.5, 1.0)
FINITE_GAMMA = (-1.2, 0.8)

# finite:N sizes, log-uniform from 8 to 512 at four steps per octave.
FINITE_NS = sorted({round(8 * 2 ** (k / 4)) for k in range(25)})
# Points per finite-grid axis. 13 puts grid points at 1/4 and 3/4 of each
# axis, where the checks compare with recorded values.
FINITE_COUNT = 13

# Operations per pass. At the seed commit a pass takes about 2 s (closed-form)
# and 4.5 s (exact) on an idle 2-core Xeon, so each operation runs ten or more
# times in a 50-second run. The counts keep the median and the 11th-slowest
# operation (op_tail_ms) inside groups of similar cost, so that they move by a
# few percent from seed to seed (see CLOSED_FORM_KINDS).
OPS_PER_PASS = {
    "closed-form": 100,
    "exact": 48,
}
# Shares of an exact pass: six finite grids per d, three instance grids per N
# (one per d) and one batch instance per (N, d).
EXACT_SHARES = {"finite": 18, "instance": 15, "batch": 15}


def _balanced(rng: np.random.Generator, values, k: int) -> list:
    """k draws that use each value equally often (up to one), in seeded order."""
    reps = -(-k // len(values))
    pool = list(values) * reps
    return [pool[i] for i in rng.permutation(len(pool))[:k]]


def _stratum(rng: np.random.Generator, lo: int, hi: int, i: int, m: int) -> int:
    """An integer drawn uniformly from stratum i of m equal strata of [lo, hi]."""
    return int(lo + math.floor((i + rng.random()) / m * (hi - lo + 1)))


def _ranks(keys: list) -> list[tuple[int, int]]:
    """(j, m) for each item: it is the j-th of the m items that share its key."""
    seen: dict = {}
    out = []
    for key in keys:
        out.append(seen.get(key, 0))
        seen[key] = out[-1] + 1
    return [(j, seen[key]) for j, key in zip(out, keys)]


def _grid(rng, j: int, m: int, betas: tuple[int, int], gammas: tuple[int, int]) -> tuple[int, int]:
    """Grid counts for the j-th of m operations in a group.

    Beta stratum j is paired with gamma stratum j + m/2 (mod m), so every group
    has the same spread of grid sizes whatever the seed.
    """
    return _stratum(rng, *betas, j, m), _stratum(rng, *gammas, (j + m // 2) % m, m)


def _sigmas(rng: np.random.Generator, d: int) -> list[float]:
    return [round(float(s), 4) for s in rng.uniform(0.2, 1.5, d)]


# Kinds per 100 closed-form operations. Mixture optimizations are the slowest
# operations and their cost varies with the drawn sigmas. Seven per degree put
# the 11th-slowest operation (op_tail_ms) in the middle of the d = 5 group,
# not at its edge or on the step between two degrees, where it would move
# with the draw.
CLOSED_FORM_KINDS = (
    ("optimize-pure",) * 21 + ("optimize-mix",) * 35
    + ("landscape-pure",) * 21 + ("landscape-mix",) * 23
)


def _closed_form(rng, k):
    kinds = _balanced(rng, CLOSED_FORM_KINDS, k)
    ops = []
    for kind, (j, m) in zip(kinds, _ranks(kinds)):
        degrees = range(2, 9) if kind.endswith("pure") else range(2, 7)
        d = degrees[j % len(degrees)]
        if kind.endswith("pure"):
            spec, meta = ["--pure-d", str(d)], {"sigmas": None, "d": d}
        else:
            sig = _sigmas(rng, d)
            spec, meta = ["--sigmas", ",".join(repr(s) for s in sig)], {"sigmas": sig, "d": d}
        if kind.startswith("optimize"):
            ops.append({"kind": "cli", "argv": ["optimize", *spec], "check": "optimum", **meta})
            continue
        b, g = _grid(rng, j, m, (17, 65), (17, 65))
        ops.append({
            "kind": "cli",
            "argv": ["landscape", *spec, "--mode", "infinite",
                     f"--beta={BETA_ARG}:{b}", f"--gamma={GAMMA_ARG}:{g}"],
            "check": "infinite", "betas": b, "gammas": g, **meta,
        })
    return ops


def _finite_grid(rng, k):
    ds = _balanced(rng, (2, 3, 4), k)
    ops = []
    for d, (j, m) in zip(ds, _ranks(ds)):
        n = FINITE_NS[_stratum(rng, 0, len(FINITE_NS) - 1, j, m)]
        b = g = FINITE_COUNT
        ops.append({
            "kind": "cli",
            "argv": ["landscape", "--pure-d", str(d), "--mode", f"finite:{n}",
                     f"--beta={FINITE_BETA[0]}:{FINITE_BETA[1]}:{b}",
                     f"--gamma={FINITE_GAMMA[0]}:{FINITE_GAMMA[1]}:{g}"],
            "check": "finite", "d": d, "n": n, "betas": b, "gammas": g,
        })
    return ops


def _instance_grid(rng, k):
    ns = _balanced(rng, range(10, 15), k)
    ops = []
    for n, (j, m) in zip(ns, _ranks(ns)):
        d = (2, 3, 4)[(j + n) % 3]
        b, g = _grid(rng, j, m, (33, 41), (3, 3))
        seed = int(rng.integers(0, 2**31))
        ops.append({
            "kind": "cli",
            "argv": ["landscape", "--pure-d", str(d), "--mode", f"instance:{n}:{seed}",
                     f"--beta={BETA_ARG}:{b}", f"--gamma={GAMMA_ARG}:{g}"],
            "check": "instance", "d": d, "n": n, "seed": seed, "betas": b, "gammas": g,
        })
    return ops


def _instance_batch(rng, k):
    combos = _balanced(rng, [(n, d) for n in range(12, 17) for d in (2, 3, 4)], k)
    seeds = rng.integers(0, 2**31, k)
    return [
        {"kind": "batch", "d": d, "n": n, "seed": int(s), "check": "batch"}
        for (n, d), s in zip(combos, seeds)
    ]


def _exact(rng, k):
    total = sum(EXACT_SHARES.values())
    counts = {kind: max(1, round(k * share / total)) for kind, share in EXACT_SHARES.items()}
    return (_finite_grid(rng, counts["finite"]) + _instance_grid(rng, counts["instance"])
            + _instance_batch(rng, counts["batch"]))


GENERATORS = {
    "closed-form": _closed_form,
    "exact": _exact,
}


def generate(workload: str, seed: int, count: int | None = None) -> list[dict]:
    """The workload's operation list for this seed.

    ``count`` (about that many operations) shrinks it for self-tests; the
    default is ``OPS_PER_PASS``.
    """
    rng = np.random.default_rng([seed, list(GENERATORS).index(workload)])
    ops = GENERATORS[workload](rng, count or OPS_PER_PASS[workload])
    return [ops[i] for i in rng.permutation(len(ops))]
