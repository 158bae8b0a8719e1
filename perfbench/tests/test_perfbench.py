"""Self-test of the benchmark: tiny runs emit every metric, and the gate can fail.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src on the path)
import checks  # noqa: E402
from msqaoa import closed_form, model, simulator  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _tiny(workload: str, trace: bool, count: int = 2):
    return run.run_benchmark(workload, seed=3, seconds=0.01, trace=trace, count=count, setup_repeats=1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    result, record = _tiny(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"], record["errors"]
    assert result["attempted"] >= 2 and result["failed"] == 0
    assert len(record["op_list_sha256"]) == 64


def test_timings_are_scaled_to_the_nominal_host(monkeypatch):
    # A kernel twice as slow as nominal means a host at half speed: the
    # operations' timings are half the raw ones.
    monkeypatch.setattr(run.hostspeed, "kernel", lambda: 2 * run.hostspeed.NOMINAL_S)
    result, record = _tiny("closed-form", False)
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(record["raw_wall_s"][0] / 2)


def test_same_seed_same_operations():
    from workloads import generate

    for workload in WORKLOADS:
        assert generate(workload, 7) == generate(workload, 7)
        assert generate(workload, 7) != generate(workload, 8)


def test_perturbed_cli_output_is_counted_as_failed(monkeypatch):
    read = checks.read_outputs

    def perturbed(outdir):
        files = read(outdir)
        name, data = files[0]
        if name == "optimum.csv":
            head, row = data.decode().strip().split("\n")
            *fields, value = row.split(",")
            data = f"{head}\n{','.join(fields)},{float(value) + 1e-9!r}\n".encode()
        return [(name, data), *files[1:]]

    monkeypatch.setattr(checks, "read_outputs", perturbed)
    result, record = _tiny("closed-form", False, count=3)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any("mixture form" in e for e in record["errors"])


def test_perturbed_library_output_is_counted_as_failed(monkeypatch):
    collect = run.Runner.collect

    def perturbed(self, i, raw):
        out = collect(self, i, raw)
        if self.ops[i]["kind"] == "batch":
            out["h"] += 1e-6
        return out

    monkeypatch.setattr(run.Runner, "collect", perturbed)
    result, record = _tiny("exact", False)
    assert not result["correct"] and result["failed"] > 0
    assert any("reference" in e for e in record["errors"])


def test_batch_mean_check_detects_a_shift():
    ops = [{"kind": "batch", "d": 2, "n": 10, "seed": s} for s in range(16)]
    angles = closed_form.Angles(0.3, -0.5)
    outputs = []
    for op in ops:
        inst = model.sample_instance(checks.pure_spec(2), op["n"], op["seed"])
        h, h2 = simulator.expectation(inst, angles)
        outputs.append({"h": h, "h2": h2, "angles": (angles.beta, angles.gamma)})
    assert checks.check_batch_mean(ops, outputs) == []
    shifted = [{**out, "h": out["h"] + 0.5 * op["n"]} for op, out in zip(ops, outputs)]
    assert checks.check_batch_mean(ops, shifted)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
