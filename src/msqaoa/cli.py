"""Command-line front-end: landscapes, angle optimization, verification, fitting.

Every command writes its outputs plus a ``manifest.json`` recording the full
configuration, library version, RNG algorithm, and SHA-256 digests of every
output file, so runs can be reproduced and validated byte-for-byte (the
manifest itself carries the only timestamp).  The ``landscape`` and
``optimize`` manifests add a ``health`` block: clamped variances per
``finite:N`` file, and the optimizer's convergence and final gradient norm.

Each command runs inside one ``_Outputs`` context: files are written one at
a time as they are ready (a landscape CSV row by row), and a command that
fails removes what it wrote.  A file that exists already is rewritten in
place and then cut to length, never truncated to zero first.  That trades
crash safety for time.  On ext4 (with its default ``auto_da_alloc``) a file
truncated to zero is flushed to disk when it is closed, so that a crash
cannot leave it empty or holding old bytes; the flush made a rerun into the
same ``--out`` pay 260-340 us per 30 kB file, against 23 us in place
(medians, 2-vCPU Xeon).  Written over in place, a file's new length can
reach the disk before its new bytes, so a crash during or soon after a
rerun can leave a file, the manifest included, with the old run's bytes or
with new bytes followed by old ones; a digest in the manifest then no
longer matches its file.  A first run into a fresh ``--out`` creates every
file and gains nothing.

``main`` parses a command with its own parser alone, built by ``_add_command``
like the full parser's subparser for it; an argv that names no command, or
that leaves that parser an argument over, goes to the full parser.  Warm on a
2-vCPU Xeon a parse takes 0.2-0.4 ms, against 1.4-1.7 ms with every command.

Exit codes: 0 success, 2 validation/parse error or an output directory that
cannot be written, 3 size cap exceeded, 4 verification failure or numerical
self-check failure (a moment with an imaginary residue or a negative
variance beyond rounding).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import stat
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

# The closed-form commands need only these engines; the finite-n engine, the
# simulator and the verification suite are imported by the commands that run
# them, so a closed-form launch never loads them.
from . import __version__, closed_form, model, optimizer
from .errors import CapExceededError, NumericalError, ValidationError

__all__ = ["main"]


# The most (beta, gamma) points one landscape grid may have: 4096 x 4096.
_GRID_MAX_POINTS = 1 << 24


def _parse_grid(text: str, what: str) -> tuple[float, float, int]:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValidationError(f"--{what} expects min:max:count, got {text!r}")
    if count < 1:
        raise ValidationError(f"--{what} needs count >= 1, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"--{what} needs finite bounds, got {text!r}")
    if not math.isfinite(hi - lo):
        raise ValidationError(f"--{what} span max - min overflows, got {text!r}")
    return lo, hi, count


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"--{what} expects a comma list of reals, got {text!r}")


def _parse_d_range(text: str) -> range:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            degrees = range(int(lo), int(hi) + 1)
        else:
            degrees = range(int(text), int(text) + 1)
    except ValueError:
        raise ValidationError(f"--pure-d expects D or LO..HI, got {text!r}")
    if not degrees:
        raise ValidationError(f"--pure-d range {text!r} is empty")
    return degrees


def _specs_from_args(args) -> list[tuple[str, model.MixtureSpec]]:
    chosen = [
        name
        for name, val in (
            ("--sk", args.sk),
            ("--sigmas", args.sigmas),
            ("--cs", args.cs),
            ("--pure-d", args.pure_d),
        )
        if val
    ]
    if len(chosen) != 1:
        raise ValidationError(
            f"exactly one of --sk/--sigmas/--cs/--pure-d is required, got {chosen or 'none'}"
        )
    if args.sk:
        return [("sk", model.pure_d_spec(2))]
    if args.sigmas:
        sig = _parse_float_list(args.sigmas, "sigmas")
        return [("mix", model.make_mixture_spec(len(sig), sig))]
    if args.cs:
        cs = _parse_float_list(args.cs, "cs")
        return [("mix", model.from_mixture_function(len(cs), cs))]
    return [(f"pure{d}", model.pure_d_spec(d)) for d in _parse_d_range(args.pure_d)]


def _parse_mode(text: str) -> tuple:
    """('infinite',), ('finite', n) or ('instance', n, seed)."""
    parts = text.split(":")
    arity = {"infinite": 1, "finite": 2, "instance": 3}
    if arity.get(parts[0]) == len(parts):
        try:
            return (parts[0], *(int(p) for p in parts[1:]))
        except ValueError:
            pass
    raise ValidationError(
        f"--mode must be infinite, finite:N or instance:N:SEED, got {text!r}"
    )


def _open_in_place(path: str, flags: int) -> int:
    """``open``'s opener for an output file: the flags ``open`` asks for, less
    ``O_TRUNC``, so an existing file is written over, not emptied first."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


class _Outputs:
    """The output directory of one command, as a context manager.

    ``with _Outputs(args.out) as outputs:`` wraps everything a command
    computes and writes.  Each file is written as soon as it is ready, and
    the manifest takes its SHA-256 from the bytes written, reading nothing
    back.  A file that exists already is written over in place and cut to
    length after its last byte, not truncated to zero when it is opened, at
    the cost of crash safety (see the module docstring): it keeps its inode
    and permission bits, and a symlink or hard link to it is written
    through; a new file, one no longer than the new bytes, and one that is
    not a regular file (``/dev/null``) are written without the cut.  The directory is made at the first write, so a command
    that fails before writing leaves nothing behind.  When the block raises,
    the files this run wrote are removed, and so are the directories on the
    way to it that were missing at the start, if they are empty; anything
    else stays.  An ``--out`` whose nearest existing ancestor is not a
    directory raises ``ValidationError`` (exit 2) on entry, before any work;
    so does a write that fails later (a full disk, no permission).
    """

    def __init__(self, outdir: str) -> None:
        self.dir = Path(outdir)
        self.missing: list[Path] = []  # deepest first
        self.written: list[Path] = []
        self.digests: list[str] = []  # SHA-256 of each written file's bytes

    def __enter__(self) -> _Outputs:
        try:
            for path in (self.dir, *self.dir.parents):
                if path.exists():
                    break
                self.missing.append(path)
            is_dir = path.is_dir()
        except OSError as exc:
            raise ValidationError(f"cannot write {self.dir}: {exc.strerror or exc}") from exc
        if not is_dir:
            raise ValidationError(f"cannot write {self.dir}: {path} is not a directory")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            return
        for path in self.written:
            with contextlib.suppress(OSError):
                path.unlink()
        for path in self.missing:
            with contextlib.suppress(OSError):
                path.rmdir()

    def write_lines(self, name: str, lines: Iterable[str]) -> Path:
        """Write the strings of ``lines`` one after another, each as it comes,
        hashing the bytes as they are written."""
        path = self.dir / name
        digest = hashlib.sha256()
        try:
            if not self.written:
                self.dir.mkdir(parents=True, exist_ok=True)
            with open(path, "wb", opener=_open_in_place) as handle:
                self.written.append(path)
                for line in lines:
                    data = line.encode()
                    handle.write(data)
                    digest.update(data)
                # cut only a regular file left longer than the new bytes: ftruncate
                # fails on /dev/null, and elsewhere has nothing to cut
                old = os.fstat(handle.fileno())
                if stat.S_ISREG(old.st_mode) and old.st_size > handle.tell():
                    handle.truncate()
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc
        self.digests.append(digest.hexdigest())
        return path

    def write_text(self, name: str, text: str) -> Path:
        return self.write_lines(name, [text])

    def manifest(self, command: str, config: dict, seeds=(), health=None) -> Path:
        """Write manifest.json with the digests of every file written so far;
        ``health`` holds the run's numeric-health counters (clamped
        variances, optimizer convergence) when given."""
        entries = [
            {"path": path.name, "sha256": digest}
            for path, digest in zip(self.written, self.digests)
        ]
        doc = {
            "command": command,
            "config": config,
            "seeds": list(seeds),
            "version": __version__,
            "rng_algorithm": model.RNG_ALGORITHM,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": entries,
        }
        if health is not None:
            doc["health"] = health
        return self.write_text("manifest.json", json.dumps(doc, indent=2) + "\n")


def _grid_csv(betas: np.ndarray, gammas: np.ndarray, values: np.ndarray) -> Iterator[str]:
    """The lines of a grid CSV, one row at a time: a header of gammas, then
    one row per beta."""
    yield "beta," + ",".join(map(repr, gammas.tolist())) + "\n"
    for b, row in zip(betas.tolist(), values):
        yield f"{b!r}," + ",".join(map(repr, row.tolist())) + "\n"


def cmd_landscape(args) -> int:
    specs = _specs_from_args(args)
    beta_axis = _parse_grid(args.beta, "beta")
    gamma_axis = _parse_grid(args.gamma, "gamma")
    mode_texts = args.mode or ["infinite"]
    modes = {}  # parsed mode -> its first text, in flag order
    for text in mode_texts:
        mode = _parse_mode(text)
        if mode in modes:
            raise ValidationError(
                f"--mode {text!r} repeats {modes[mode]!r}; each mode writes one file"
            )
        modes[mode] = text
    points = beta_axis[2] * gamma_axis[2]
    if points > _GRID_MAX_POINTS:
        raise CapExceededError(
            f"a {beta_axis[2]} x {gamma_axis[2]} grid has {points} points, "
            f"more than the {_GRID_MAX_POINTS} (4096 x 4096) a landscape takes"
        )
    betas, gammas = np.linspace(*beta_axis), np.linspace(*gamma_axis)
    seeds = []
    clamped = {}
    with _Outputs(args.out) as outputs:
        for label, spec in specs:
            for kind, *ints in modes:
                if kind == "infinite":
                    values = closed_form.energy_sigma_grid(spec, betas, gammas)
                    name = f"landscape_{label}_infinite.csv"
                elif kind == "finite":
                    from . import finite_n

                    [n] = ints
                    grid = finite_n.sketch_moment_grid(spec, betas, gammas, n)
                    values = grid.first
                    name = f"landscape_{label}_finite_n{n}.csv"
                    clamped[name] = int(grid.clamped.sum())
                else:
                    from . import simulator

                    n, seed = ints
                    simulator.check_size(n)
                    inst = model.sample_instance(spec, n, seed)
                    values = simulator.landscape_instance(inst, betas, gammas)
                    name = f"landscape_{label}_instance_n{n}_seed{seed}.csv"
                    seeds.append(seed)
                outputs.write_lines(name, _grid_csv(betas, gammas, values))
        outputs.manifest(
            "landscape",
            {
                "specs": {label: list(s.sigmas) for label, s in specs},
                "beta": args.beta,
                "gamma": args.gamma,
                "modes": mode_texts,
            },
            seeds=seeds,
            health={"clamped_variances": clamped},
        )
    print(f"wrote {len(specs) * len(modes)} grid file(s) to {outputs.dir}")
    return 0


def cmd_optimize(args) -> int:
    specs = _specs_from_args(args)
    if args.ground_state is not None and len(specs) != 1:
        raise ValidationError("--ground-state needs exactly one model, not a --pure-d range")
    with _Outputs(args.out) as outputs:
        optima = [(spec.d, optimizer.optimize_closed_form(spec)) for _, spec in specs]
        rows = [(d, opt.angles.beta, opt.angles.gamma, opt.value) for d, opt in optima]
        keys = ("converged", "refinement_iterations", "gradient_norm")
        if args.pure_d:  # keyed by degree
            health = {key: {str(d): getattr(opt, key) for d, opt in optima} for key in keys}
        else:
            [(_, opt)] = optima
            health = {key: getattr(opt, key) for key in keys}
        if args.ground_state is not None:
            factor = optimizer.approximation_factor(rows[-1][3], args.ground_state)
        lines = ["d,beta,gamma,value"]
        for d, b, g, v in rows:
            lines.append(f"{d},{b!r},{g!r},{v!r}")
        outputs.write_text("optimum.csv", "\n".join(lines) + "\n")
        config = {
            "pure_d": args.pure_d,
            "sigmas": args.sigmas,
            "cs": args.cs,
            "sk": args.sk,
        }
        for line in lines:
            print(line)
        if args.ground_state is not None:
            config["ground_state_per_spin"] = args.ground_state
            config["approximation_factor"] = factor
            print(f"approximation_factor,{factor!r}")
        outputs.manifest("optimize", config, health=health)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    with _Outputs(args.out) as outputs:
        report = verify.run(args.level)
        for res in report.results:
            status = "PASS" if res.passed else "FAIL"
            print(f"[{status}] {res.name} ({res.seconds:.2f}s)")
        outputs.write_text("verify_report.json", report.to_json() + "\n")
        outputs.manifest("verify", {"level": args.level, "passed": report.passed})
    print(f"verify {args.level}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 4


def cmd_fit_spec(args) -> int:
    try:
        inst = model.read_instance(args.instance_file)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read instance file: {exc}")
    fit = model.estimate_spec(inst)
    with _Outputs(args.out) as outputs:
        doc = {
            "d": fit.spec.d,
            "sigmas": list(fit.spec.sigmas),
            "warnings": list(fit.warnings),
        }
        outputs.write_text("fitted_spec.json", json.dumps(doc, indent=2) + "\n")
        outputs.manifest("fit-spec", {"instance_file": str(args.instance_file)})
    print("sigmas:", ",".join(repr(s) for s in fit.spec.sigmas))
    for warning in fit.warnings:
        print("warning:", warning)
    return 0


def cmd_sample(args) -> int:
    specs = _specs_from_args(args)
    if len(specs) != 1:
        raise ValidationError("sample needs exactly one model, not a --pure-d range")
    [(label, spec)] = specs
    inst = model.sample_instance(spec, args.n, args.seed)
    with _Outputs(args.out) as outputs:
        path = outputs.write_text(f"instance_{label}_n{args.n}_seed{args.seed}.txt",
                                  model.instance_to_text(inst))
        outputs.manifest(
            "sample",
            {"spec": list(spec.sigmas), "n": args.n, "seed": args.seed},
            seeds=[args.seed],
        )
    print(f"wrote instance to {path}")
    return 0


def _add_spec_flags(sub) -> None:
    sub.add_argument("--sigmas", help="comma list of per-degree standard deviations")
    sub.add_argument("--cs", help="comma list of mixture coefficients c_q")
    sub.add_argument("--pure-d", help="pure d-spin model(s): D or LO..HI")
    sub.add_argument("--sk", action="store_true", help="standard two-body model (sigma_2 = 1)")


def _landscape_flags(sub) -> None:
    _add_spec_flags(sub)
    sub.add_argument("--beta", default=f"{-math.pi/4}:{math.pi/4}:65",
                     help="beta grid min:max:count")
    sub.add_argument("--gamma", default="-1.5:1.5:65", help="gamma grid min:max:count")
    sub.add_argument("--mode", action="append", default=None,
                     help="infinite | finite:N | instance:N:SEED (repeatable; default infinite)")


def _optimize_flags(sub) -> None:
    _add_spec_flags(sub)
    sub.add_argument("--ground-state", type=float, default=None,
                     help="reference ground-state energy per spin (negative)")


def _verify_flags(sub) -> None:
    sub.add_argument("--level", default="quick", help="quick or full (default quick)")


def _fit_spec_flags(sub) -> None:
    sub.add_argument("instance_file")


def _sample_flags(sub) -> None:
    _add_spec_flags(sub)
    sub.add_argument("--n", type=int, required=True, help="number of spins")
    sub.add_argument("--seed", type=int, default=0, help="reproducibility seed")


# (name, help, adds the command's own flags, handler), in the order of the
# top-level help
_COMMANDS = (
    ("landscape", "emit (beta, gamma) energy grids as CSV", _landscape_flags, cmd_landscape),
    ("optimize", "find optimal angles for a model", _optimize_flags, cmd_optimize),
    ("verify", "run the verification suite", _verify_flags, cmd_verify),
    ("fit-spec", "estimate per-degree sigmas from an instance file", _fit_spec_flags,
     cmd_fit_spec),
    ("sample", "sample a problem instance to a text file", _sample_flags, cmd_sample),
)


def _add_command(parser, name, add_flags, handler) -> argparse.ArgumentParser:
    add_flags(parser)
    parser.add_argument("--out", default="msqaoa_out", help="output directory")
    parser.set_defaults(command=name, func=handler)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msqaoa", description="Depth-1 QAOA energy per spin on mixed-spin SK models"
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_flags, handler in _COMMANDS:
        _add_command(subs.add_parser(name, help=help_text), name, add_flags, handler)
    return parser


def _parse(argv) -> argparse.Namespace:
    for name, _, add_flags, handler in _COMMANDS:
        if argv and argv[0] == name:
            parser = argparse.ArgumentParser(prog=f"msqaoa {name}")
            args, rest = _add_command(parser, name, add_flags, handler).parse_known_args(argv[1:])
            if not rest:
                return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical self-check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
