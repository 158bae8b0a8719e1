#!/usr/bin/env python3
"""msqaoa benchmark: one closed-loop client timing the CLI and the library.

Usage, from the repository root:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 50 --trace 0

A run generates the workload's operation list from ``--seed``, runs one
untimed warm-up operation, then runs whole passes over the list (at least
two) until the next pass would end past ``--seconds``. Between passes, at
even steps of the window, it launches fresh interpreters that import
``msqaoa.cli``. Every timing is scaled to a nominal host speed measured
alongside it (``hostspeed.py``); an operation's latency is its median over
the passes and ``setup_s`` is the median launch. Every output is checked
afterwards (``checks.py``). With ``--trace 1`` the first half of the time is
measured untraced and the second half traced, and the per-layer metrics are
reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record. The exit code is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# One client on one core. Multi-threaded BLAS makes no operation faster here
# (the vectors are at most 2^16 long) but keeps helper threads spinning on a
# second core, so its timings would follow whatever else runs on that core.
# Set before numpy is imported; launched interpreters inherit it.
os.environ.update(dict.fromkeys(THREAD_ENV, "1"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))
import checks  # noqa: E402  (imports msqaoa from this checkout's src)
import hostspeed  # noqa: E402
import msqaoa.cli  # noqa: E402
from msqaoa import closed_form, model, optimizer, simulator  # noqa: E402

SETUP_REPEATS = 8
# Host speed changes within a second, so each launched interpreter measures it
# itself, right after the import it times.
KERNELS_PER_LAUNCH = 100
MIN_PASSES = 2


def launch() -> tuple[float, list[float]]:
    """(seconds from launching a fresh interpreter to ``msqaoa.cli`` imported,
    host-speed kernel samples that interpreter took after the import)."""
    env = {k: v for k, v in os.environ.items() if k != "MSQAOA_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    code = (
        "import time, msqaoa.cli; t = time.monotonic(); import sys; "
        f"sys.path.append({str(Path(hostspeed.__file__).parent)!r}); import hostspeed; "
        f"print(t, *[hostspeed.kernel() for _ in range({KERNELS_PER_LAUNCH})])"
    )
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"importing msqaoa.cli failed:\n{done.stderr}")
    t, *kernel = map(float, done.stdout.split())
    return t - t0, kernel


class Runner:
    """Runs operations and passes over one operation list."""

    def __init__(self, ops: list[dict]) -> None:
        self.ops = ops
        self.dirs = [OUT / "ops" / str(i) for i in range(len(ops))]
        shutil.rmtree(OUT / "ops", ignore_errors=True)
        # Library inputs are built before timing: each pure d-spin spec and
        # its closed-form optimum.
        self.specs = {d: checks.pure_spec(d) for d in {op["d"] for op in ops if op["kind"] == "batch"}}
        self.angles = {
            d: closed_form.Angles(o.angles.beta, o.angles.gamma)
            for d, o in ((d, optimizer.optimize_closed_form(s)) for d, s in self.specs.items())
        }
        self.tracer = None
        self.first: list[dict] | None = None  # the outputs of the first timed pass

    def run_op(self, i: int):
        """(seconds, raw result or the exception raised) for operation i."""
        op = self.ops[i]
        if op["kind"] == "cli":
            argv = [*op["argv"], "--out", str(self.dirs[i])]
        else:
            spec, angles = self.specs[op["d"]], self.angles[op["d"]]
        # Functions are looked up at call time, so traced runs call the wrappers.
        t0 = time.perf_counter()
        try:
            if op["kind"] == "cli":
                raw = msqaoa.cli.main(argv)
            else:
                inst = model.sample_instance(spec, op["n"], op["seed"])
                table = simulator.build_phase_table(inst)
                h, h2 = simulator.expectation(inst, angles, table)
                raw = (h, h2, table)
        except (Exception, SystemExit) as exc:  # an operation that raises is a failed operation
            return time.perf_counter() - t0, exc
        return time.perf_counter() - t0, raw

    def collect(self, i: int, raw) -> dict:
        """The output of operation i as the checks see it."""
        op = self.ops[i]
        if isinstance(raw, BaseException):
            return {"error": f"{type(raw).__name__}: {raw}"}
        if op["kind"] == "batch":
            h, h2, table = raw
            rng = np.random.default_rng(op["seed"])
            idx = [int(k) for k in rng.integers(0, len(table), checks.TABLE_SAMPLES)]
            angles = self.angles[op["d"]]
            return {"h": h, "h2": h2, "angles": (angles.beta, angles.gamma),
                    "idx": idx, "entries": [float(table[k]) for k in idx]}
        out = {"rc": raw, "files": []}
        if raw == 0:
            try:
                out["files"] = checks.read_outputs(self.dirs[i])
            except (OSError, ValueError, KeyError) as exc:
                return {"error": f"reading outputs: {exc}"}
            if self.tracer is not None:
                manifest = (self.dirs[i] / "manifest.json").stat().st_size
                self.tracer.counters["cli.main.bytes_written"] += manifest + sum(
                    len(data) for _, data in out["files"])
        return out

    def run_pass(self) -> tuple[list[float], list[bool], list[float]]:
        """(latencies, whether each output equals the first pass's, host-speed kernel samples).

        The kernel runs after every operation, outside its latency. Only the
        first pass's outputs are kept, so memory does not grow with the
        number of passes (and with it peak_rss_mb with the host's speed).
        """
        results, kernel = [], []
        with contextlib.redirect_stdout(io.StringIO()):
            for i in range(len(self.ops)):
                if self.tracer is not None:
                    self.tracer.current_op = i
                results.append(self.run_op(i))
                kernel.append(hostspeed.kernel())
        outputs = [self.collect(i, raw) for i, (_, raw) in enumerate(results)]
        if self.first is None:
            self.first = outputs
        return [s for s, _ in results], [a == b for a, b in zip(outputs, self.first)], kernel

    def window(self, seconds: float, launches: int = 0) -> tuple[list, list]:
        """(passes, launches) of one timed window.

        Whole passes until the next one would end past ``seconds`` (at least
        MIN_PASSES). Launch k of ``launches`` (see ``launch``) runs between
        passes once k/launches of the window has gone by, so the setup
        samples span the window as the passes do.
        """
        passes, setup = [], []
        t0 = time.perf_counter()
        shortest = float("inf")
        while True:
            while len(setup) < launches and time.perf_counter() - t0 >= len(setup) * seconds / launches:
                setup.append(launch())
            start = time.perf_counter()
            passes.append(self.run_pass())
            end = time.perf_counter()
            shortest = min(shortest, end - start)
            if len(passes) >= MIN_PASSES and end - t0 + shortest > seconds:
                break
        while len(setup) < launches:
            setup.append(launch())
        return passes, setup


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_record(workload: str, seed: int, ops: list[dict]) -> dict:
    import scipy

    def cpu_model() -> str:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def caches() -> dict[str, str]:
        sizes = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            try:
                level = (index / "level").read_text().strip()
                kind = (index / "type").read_text().strip()
                size = (index / "size").read_text().strip()
            except OSError:
                continue
            if kind != "Instruction":
                sizes[f"L{level}"] = size
        return sizes

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "msqaoa").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "op_list_sha256": hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _check(runner: Runner, windows) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over every execution in the timed windows.

    The first pass's outputs are checked; every later execution must repeat
    them exactly.
    """
    ops = runner.ops
    first = runner.first
    reference = checks.load_reference()
    rng = np.random.default_rng(0)
    errors, bad = [], set()
    for i, (op, out) in enumerate(zip(ops, first)):
        found = [out["error"]] if "error" in out else checks.check_op(op, out, reference, rng)
        if found:
            bad.add(i)
            errors.extend(f"op {i} {op.get('argv', op)}: {e}" for e in found)
    batch = [i for i, op in enumerate(ops) if op["kind"] == "batch"]
    if batch and bad.isdisjoint(batch):
        found = checks.check_batch_mean([ops[i] for i in batch], [first[i] for i in batch])
        if found:
            bad.update(batch)
            errors.extend(found)
    attempted = failed = 0
    for passes in windows:
        for _, same, _ in passes:
            for i, equal in enumerate(same):
                differs = not equal
                if differs and i not in bad:
                    errors.append(f"op {i}: output differs between passes")
                attempted += 1
                failed += differs or i in bad
    return attempted, failed, errors


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  count: int | None = None, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """(result, record) of one run; ``count`` and ``setup_repeats`` shrink it for self-tests."""
    os.environ.pop("MSQAOA_THREADS", None)
    launch()  # untimed, so bytecode caches are written as for any user
    ops = workloads.generate(workload, seed, count)
    runner = Runner(ops)
    with contextlib.redirect_stdout(io.StringIO()):
        runner.collect(0, runner.run_op(0)[1])  # warm-up
    # Traced runs report no setup_s, so they launch no interpreters.
    passes, setup = runner.window(seconds / 2 if trace else seconds, 0 if trace else setup_repeats)
    windows = [passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        runner.tracer = tracer = tracing.Tracer()
        tracer.install()
        try:
            windows.append(runner.window(seconds / 2)[0])
        finally:
            tracer.uninstall()
    attempted, failed, errors = _check(runner, windows)

    # Latencies at the nominal host speed (hostspeed.py); an operation's
    # latency is its median over the passes.
    scaled = [[[t * f for t, f in zip(lat, hostspeed.local_factors(kernel))] for lat, _, kernel in w]
              for w in windows]
    typical = [[statistics.median(p[i] for p in w) for i in range(len(ops))] for w in scaled]
    walls = [sum(t) for t in typical]
    per_op = typical[0]
    tail_s, tail_pct = tail(per_op)
    setup_s = [t * hostspeed.factor(kernel) for t, kernel in setup]
    record = run_record(workload, seed, ops)
    record.update({
        "trace": int(trace), "seconds": seconds, "ops_per_pass": len(ops),
        "pass_walls_s": [[sum(p[0]) for p in w] for w in windows],
        "host_factors": [[hostspeed.factor(kernel) for _, _, kernel in w] for w in windows],
        "raw_wall_s": [sum(statistics.median(p[0][i] for p in w) for i in range(len(ops))) for w in windows],
        "setup_samples_s": setup_s, "raw_setup_samples_s": [t for t, _ in setup],
        "setup_host_factors": [hostspeed.factor(kernel) for _, kernel in setup],
        "op_tail_percentile": tail_pct, "op_tail_count": len(ops),
        "ops_attempted": attempted, "ops_failed": failed, "errors": errors[:20],
        "latencies_s": [[p[0] for p in w] for w in windows],
        "kernel_s": [[p[2] for p in w] for w in windows],
    })
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (walls[0], "s"),
            "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        npass = len(windows[1])
        calls = tracer.calls()
        own = tracer.self_seconds()
        metrics = {}
        for name in tracer.names:
            metrics[f"{name}.calls"] = (calls[name] / npass, "count")
            metrics[f"{name}.self_s"] = (own[name] / npass, "s")
        c = tracer.counters
        opt_calls = calls["optimizer.optimize_closed_form"]
        metrics.update({
            "optimizer.optimize_closed_form.iterations_mean":
                (c["optimizer.optimize_closed_form.iterations"] / opt_calls if opt_calls else 0.0, "count"),
            "optimizer.optimize_closed_form.converged_frac":
                (c["optimizer.optimize_closed_form.converged"] / opt_calls if opt_calls else 0.0, "ratio"),
            "finite_n.sketch_moments.clamped": (c["finite_n.sketch_moments.clamped"] / npass, "count"),
            "simulator.landscape_instance.points": (c["simulator.landscape_instance.points"] / npass, "count"),
            "simulator.build_phase_table.entries": (c["simulator.build_phase_table.entries"] / npass, "count"),
            "cli.main.bytes_written": (c["cli.main.bytes_written"] / npass, "bytes"),
            "trace.overhead_s": (walls[1] - walls[0], "s"),
        })
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}.npz")
    record["ops_failed_ratio"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(msqaoa.__file__).resolve().parent != SRC / "msqaoa":
        print(f"msqaoa must be imported from {SRC}", file=sys.stderr)
        return 2

    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": record, "result": result}, indent=2) + "\n")
    for err in record["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    summary = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
    print(f"{args.workload} seed {args.seed}: {summary}, ops_failed {result['failed']}/{result['attempted']}"
          f" (op_tail at p{record['op_tail_percentile']:.1f} of {record['op_tail_count']} ops)")
    print(json.dumps({k: v for k, v in record.items() if k not in ("latencies_s", "kernel_s")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
