"""Correctness gate: every operation's output is checked after the timed window.

Each check takes a path that is independent of the one the output came from
wherever the repository has one:

* optimize: re-evaluated with ``energy_mixture_form`` (the optimizer uses
  ``energy_sigma_form``); the SK and pure-cubic optima are compared with
  anchors solved here from the paper's stationarity relations;
* infinite grids: sampled points re-evaluated with ``energy_mixture_form``;
* finite grids: points on 1/4 and 3/4 of each axis compared with the
  ``oracle_moments`` brute force for N <= 10 and with values recorded from the
  seed commit (``reference_finite.json``) above that;
* phase tables: sampled entries compared with ``model.cost``;
* <H>/n: recomputed with a tensor-contraction mixer written here, and the
  batch mean compared with the exact disorder average ``sketch_moments``.

Tolerances are relative to ``max(1, |reference|)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

from msqaoa import closed_form, finite_n, model, simulator

FORM_TOL = 1e-12
MOMENT_TOL = 1e-10
ANCHOR_TOL = 1e-6
TABLE_TOL = 1e-10
# The disorder-average check is statistical. At 3 standard errors a correct
# program fails about one run in 370, which across a comparison's dozens of
# runs would refuse correct code; at 4 the rate is about one in 16,000.
BATCH_SE = 4.0
BATCH_MIN = 10  # fewer instances say too little about the mean
ORACLE_MAX_N = 10
INFINITE_SAMPLES = 16
INSTANCE_SAMPLES = 3
TABLE_SAMPLES = 8

REFERENCE_FILE = Path(__file__).with_name("reference_finite.json")


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def pure_spec(d: int) -> model.MixtureSpec:
    """Pure d-spin spec, sigma_d = sqrt(d!/2), built here rather than by the optimizer."""
    return model.make_mixture_spec(d, [0.0] * (d - 1) + [math.sqrt(math.factorial(d) / 2)])


def op_spec(op: dict) -> model.MixtureSpec:
    if op.get("sigmas"):
        return model.make_mixture_spec(len(op["sigmas"]), op["sigmas"])
    return pure_spec(op["d"])


def _cubic_anchor() -> tuple[float, float, float]:
    """(beta*, gamma*, value) of the sigma_3 = sqrt(3) model.

    gamma*^2 solves exp(-6 g^2) - 18 g^2 + 3 = 0; then
    cos(4 beta*) = 1 - 1/(9 g^2) and value = -sqrt(4 g^2 - 2/3).
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(-6 * mid) - 18 * mid + 3 > 0:
            lo = mid
        else:
            hi = mid
    g2 = 0.5 * (lo + hi)
    return 0.25 * math.acos(1 - 1 / (9 * g2)), -math.sqrt(g2), -math.sqrt(4 * g2 - 2 / 3)


ANCHORS = {
    2: (math.pi / 8, -0.5, -1 / math.sqrt(4 * math.e)),
    3: _cubic_anchor(),
}


def load_reference() -> dict:
    doc = json.loads(REFERENCE_FILE.read_text())
    return {(int(d), int(n)): vals for d, by_n in doc["values"].items() for n, vals in by_n.items()}


def anchor_indices(count: int) -> list[int]:
    """Grid indices at 1/4 and 3/4 of an axis of 4k + 1 points."""
    return [(count - 1) // 4, 3 * (count - 1) // 4]


def parse_grid(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lines = text.strip().split("\n")
    gammas = np.array([float(v) for v in lines[0].split(",")[1:]])
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    arr = np.array(rows)
    return arr[:, 0], gammas, arr[:, 1:]


def read_outputs(outdir: Path) -> list[tuple[str, bytes]]:
    """The files the CLI lists in its manifest, with their bytes.

    A file whose digest does not match the manifest raises ``ValueError``.
    """
    manifest = json.loads((outdir / "manifest.json").read_text())
    files = []
    for entry in manifest["outputs"]:
        data = (outdir / entry["path"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise ValueError(f"{entry['path']}: digest differs from manifest")
        files.append((entry["path"], data))
    return files


def _check_axes(op, betas, gammas, values) -> list[str]:
    errors = []
    if values.shape != (op["betas"], op["gammas"]):
        return [f"grid shape {values.shape}, expected {(op['betas'], op['gammas'])}"]
    want_b = np.linspace(_lo_hi(op, "beta")[0], _lo_hi(op, "beta")[1], op["betas"])
    want_g = np.linspace(_lo_hi(op, "gamma")[0], _lo_hi(op, "gamma")[1], op["gammas"])
    if not (np.array_equal(betas, want_b) and np.array_equal(gammas, want_g)):
        errors.append("grid axes differ from the requested linspace")
    if not np.all(np.isfinite(values)):
        errors.append("grid holds non-finite values")
    return errors


def _lo_hi(op, axis: str) -> tuple[float, float]:
    arg = next(a for a in op["argv"] if a.startswith(f"--{axis}="))
    lo, hi, _ = arg.split("=", 1)[1].split(":")
    return float(lo), float(hi)


def _check_optimum(op, text) -> list[str]:
    lines = text.strip().split("\n")
    if lines[0] != "d,beta,gamma,value" or len(lines) != 2:
        return [f"unexpected optimum.csv layout: {lines[:3]}"]
    d, beta, gamma, value = lines[1].split(",")
    beta, gamma, value = float(beta), float(gamma), float(value)
    errors = []
    if int(d) != op["d"]:
        errors.append(f"optimum row has d={d}, expected {op['d']}")
    spec = op_spec(op)
    ref = closed_form.energy_mixture_form(spec.mixture_function(), closed_form.Angles(beta, gamma))
    if not _close(value, ref, FORM_TOL):
        errors.append(f"optimum value {value!r} vs mixture form {ref!r}")
    if not beta >= 0 >= gamma:
        errors.append(f"optimum angles ({beta}, {gamma}) not canonical")
    if op["sigmas"] is None and op["d"] in ANCHORS:
        ab, ag, av = ANCHORS[op["d"]]
        if not (_close(beta, ab, ANCHOR_TOL) and _close(gamma, ag, ANCHOR_TOL)
                and _close(value, av, ANCHOR_TOL)):
            errors.append(f"d={op['d']} optimum ({beta}, {gamma}, {value}) vs anchor {ANCHORS[op['d']]}")
    return errors


def _check_infinite(op, text, rng) -> list[str]:
    betas, gammas, values = parse_grid(text)
    errors = _check_axes(op, betas, gammas, values)
    if errors:
        return errors
    xi = op_spec(op).mixture_function()
    for _ in range(INFINITE_SAMPLES):
        i, j = int(rng.integers(len(betas))), int(rng.integers(len(gammas)))
        ref = closed_form.energy_mixture_form(xi, closed_form.Angles(float(betas[i]), float(gammas[j])))
        if not _close(values[i, j], ref, FORM_TOL):
            errors.append(f"infinite grid ({i},{j}) {values[i, j]!r} vs mixture form {ref!r}")
    return errors


def _check_finite(op, text, reference) -> list[str]:
    betas, gammas, values = parse_grid(text)
    errors = _check_axes(op, betas, gammas, values)
    if errors:
        return errors
    n, spec = op["n"], pure_spec(op["d"])
    points = [(i, j) for i in anchor_indices(len(betas)) for j in anchor_indices(len(gammas))]
    if n <= ORACLE_MAX_N:
        refs = [
            finite_n.oracle_moments(spec, closed_form.Angles(float(betas[i]), float(gammas[j])), n).first
            for i, j in points
        ]
    elif (op["d"], n) in reference:
        refs = reference[(op["d"], n)]
    else:
        return [f"no recorded reference for d={op['d']} n={n}"]
    for (i, j), ref in zip(points, refs):
        if not _close(values[i, j], ref, MOMENT_TOL):
            errors.append(f"finite:{n} ({i},{j}) {values[i, j]!r} vs reference {ref!r}")
    return errors


def table_entries_match(instance, idx, entries) -> bool:
    """Whether phase-table entries at ``idx`` equal ``model.cost`` of their strings."""
    for k, v in zip(idx, entries):
        z = [1 - 2 * ((int(k) >> b) & 1) for b in range(instance.n)]
        if not _close(float(v), model.cost(instance, z), TABLE_TOL):
            return False
    return True


def reference_energy(table: np.ndarray, n: int, beta: float, gamma: float) -> float:
    """<H>/n with the mixer applied as one 2x2 contraction per spin axis."""
    psi = (np.exp(-1j * gamma * table) * 2.0 ** (-n / 2)).reshape((2,) * n)
    u = np.array([[math.cos(beta), -1j * math.sin(beta)],
                  [-1j * math.sin(beta), math.cos(beta)]])
    for axis in range(n):
        psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [axis])), 0, axis)
    prob = np.abs(psi.reshape(-1)) ** 2
    return float(prob @ table) / n


def _check_instance(op, text, rng) -> list[str]:
    betas, gammas, values = parse_grid(text)
    errors = _check_axes(op, betas, gammas, values)
    if errors:
        return errors
    inst = model.sample_instance(pure_spec(op["d"]), op["n"], op["seed"])
    table = simulator.build_phase_table(inst)
    idx = rng.integers(0, len(table), TABLE_SAMPLES)
    if not table_entries_match(inst, idx, table[idx]):
        errors.append("phase table differs from model.cost")
    for _ in range(INSTANCE_SAMPLES):
        i, j = int(rng.integers(len(betas))), int(rng.integers(len(gammas)))
        ref = reference_energy(table, op["n"], float(betas[i]), float(gammas[j]))
        if not _close(values[i, j], ref, MOMENT_TOL):
            errors.append(f"instance grid ({i},{j}) {values[i, j]!r} vs reference {ref!r}")
    return errors


def check_op(op: dict, output: dict, reference: dict, rng: np.random.Generator) -> list[str]:
    """Errors found in one operation's output (empty when it is correct)."""
    if op["kind"] == "batch":
        return _check_batch_op(op, output)
    if output["rc"] != 0:
        return [f"exit code {output['rc']}"]
    csvs = [data.decode() for name, data in output["files"] if name.endswith(".csv")]
    if len(csvs) != 1:
        return [f"expected one CSV output, got {len(csvs)}"]
    text = csvs[0]
    if op["check"] == "optimum":
        return _check_optimum(op, text)
    if op["check"] == "infinite":
        return _check_infinite(op, text, rng)
    if op["check"] == "finite":
        return _check_finite(op, text, reference)
    return _check_instance(op, text, rng)


def _check_batch_op(op, output) -> list[str]:
    inst = model.sample_instance(pure_spec(op["d"]), op["n"], op["seed"])
    errors = []
    if not table_entries_match(inst, output["idx"], output["entries"]):
        errors.append("phase table differs from model.cost")
    h, h2 = output["h"], output["h2"]
    if h2 < h * h - TABLE_TOL * max(1.0, h2):
        errors.append(f"<H^2> {h2!r} < <H>^2 {h * h!r}")
    table = simulator.build_phase_table(inst)
    beta, gamma = output["angles"]
    ref = reference_energy(table, op["n"], beta, gamma)
    if not _close(h / op["n"], ref, MOMENT_TOL):
        errors.append(f"<H>/n {h / op['n']!r} vs reference {ref!r}")
    return errors


def check_batch_mean(ops: list[dict], outputs: list[dict]) -> list[str]:
    """The batch mean of <H>/n minus its disorder average lies within BATCH_SE errors of 0."""
    if len(ops) < BATCH_MIN:
        return []
    residuals = []
    for op, out in zip(ops, outputs):
        angles = closed_form.Angles(*out["angles"])
        exact = finite_n.sketch_moments(pure_spec(op["d"]), angles, op["n"]).first
        residuals.append(out["h"] / op["n"] - exact)
    mean = statistics.fmean(residuals)
    se = statistics.stdev(residuals) / math.sqrt(len(residuals))
    if abs(mean) > BATCH_SE * se:
        return [f"batch mean residual {mean:.4g} exceeds {BATCH_SE} standard errors ({se:.4g})"]
    return []
