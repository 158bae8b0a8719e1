"""Spans around the calls into each msqaoa layer, recorded from the benchmark's side.

``Tracer.install`` replaces each traced function with a wrapper at every place
a caller looks it up: every ``msqaoa`` module attribute bound to the original
function object (``energy_sigma_form`` is bound in ``closed_form``,
``optimizer`` and the package namespace, for example). ``uninstall`` puts the
originals back. Spans are kept in memory as flat arrays (id = position) with
a parent id and the operation they belong to, and are written out once at the
end of the run.
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (layer name, counters taken from the call's arguments and result)
LAYERS = {
    "closed_form.energy_sigma_form": {},
    "optimizer.optimize_closed_form": {
        "iterations": lambda args, res: res.refinement_iterations,
        "converged": lambda args, res: int(res.converged),
    },
    "finite_n.sketch_moments": {"clamped": lambda args, res: int(res.clamped)},
    "simulator.landscape_instance": {"points": lambda args, res: len(args[1]) * len(args[2])},
    "simulator.build_phase_table": {"entries": lambda args, res: 1 << args[0].n},
    "simulator.expectation": {},
    "model.sample_instance": {},
    "cli.main": {},
}


class Tracer:
    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.op = array("q")
        self.parent = array("q")
        self.layer = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters = {
            f"{name}.{counter}": 0 for name, counts in LAYERS.items() for counter in counts
        }
        self.counters["cli.main.bytes_written"] = 0
        self.current_op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer_id: int, name: str, fn):
        counts = list(LAYERS[name].items())
        stack, counters = self._stack, self.counters
        op, parent, layer, start, end = self.op, self.parent, self.layer, self.start, self.end

        def traced(*args, **kwargs):
            sid = len(start)
            op.append(self.current_op)
            parent.append(stack[-1] if stack else -1)
            layer.append(layer_id)
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                start[sid] = t0
                stack.pop()
            for counter, get in counts:
                counters[f"{name}.{counter}"] += get(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "msqaoa" or key.startswith("msqaoa.")]
        for layer_id, name in enumerate(self.names):
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"msqaoa.{module_name}"], attr)
            wrapper = self._wrap(layer_id, name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, so the arrays stay free to grow.
        fields = {"op": self.op, "parent": self.parent, "layer": self.layer,
                  "start_ns": self.start, "end_ns": self.end}
        return {key: np.frombuffer(buf, dtype=np.int64).copy() for key, buf in fields.items()}

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: span duration minus the time its child spans cover.

        Spans nest on one thread, so the children of a span are disjoint and
        the time they cover is the sum of their durations.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = np.bincount(a["layer"], weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) * 1e-9 for i, name in enumerate(self.names)}

    def calls(self) -> dict[str, int]:
        counts = np.bincount(self.arrays()["layer"], minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        np.savez(path, layers=np.array(self.names), **self.arrays())
