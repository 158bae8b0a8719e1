"""Command-line front-end: landscapes, angle optimization, verification, fitting.

Every command writes its outputs plus a ``manifest.json`` recording the full
configuration, library version, RNG algorithm, and SHA-256 digests of every
output file, so runs can be reproduced and validated byte-for-byte (the
manifest itself carries the only timestamp).  The ``landscape`` and
``optimize`` manifests add a ``health`` block: clamped variances per
``finite:N`` file, and the optimizer's convergence and final gradient norm.

Each command runs inside one ``_Outputs`` context: files are written one at
a time as they are ready, and a command that fails removes what it wrote.
An ``--out`` that is a directory already is checked with one
``os.path.isdir``; an empty one exits 2.  A file is opened with ``os.open``
(``O_WRONLY | O_CREAT | O_CLOEXEC``, no ``O_TRUNC``) and written with
``os.write`` in chunks of at most 1 MiB, a landscape CSV's rows joined into
chunks as they come, so memory stays bounded; each chunk is hashed for the
manifest as it is written.  JSON files (the manifest, ``fitted_spec.json``,
the verify report) are formatted by ``_json_text``, which writes the bytes
of ``json.dumps(doc, indent=2)`` without json's pure-Python indenting
encoder.  A file that exists already is rewritten in
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

``_COMMANDS`` holds every command's flags once, as data.  ``main`` reads a
clean argv straight from it, building no argparse parser: a command, then
only its exact ``--flag=value``, ``--flag value`` (not starting with ``-``)
and bare ``--sk`` tokens, values that convert by the table's ``type``, the
one positional of ``fit-spec`` and every required flag.  Any other argv goes
to the full parser made from the same table, so help, usage, errors and exit
codes are argparse's own.  Warm on a 2-vCPU Xeon a clean parse takes 7-9 us,
against 0.75 ms through argparse.

Exit codes: 0 success, 2 validation/parse error or an output directory that
cannot be written, 3 size cap exceeded, 4 verification failure or numerical
self-check failure (a moment with an imaginary residue or a negative
variance beyond rounding).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import os
import stat
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _json_string
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
    given = {"--sk": args.sk or None, "--sigmas": args.sigmas, "--cs": args.cs,
             "--pure-d": args.pure_d}
    chosen = [name for name, val in given.items() if val is not None]
    if len(chosen) != 1:
        raise ValidationError(
            f"exactly one of --sk/--sigmas/--cs/--pure-d is required, got {chosen or 'none'}"
        )
    if args.sk:
        return [("sk", model.pure_d_spec(2))]
    if args.sigmas is not None:
        sig = _parse_float_list(args.sigmas, "sigmas")
        return [("mix", model.make_mixture_spec(len(sig), sig))]
    if args.cs is not None:
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


# Output files are opened for writing, created if missing, never truncated
# on open, and closed across exec
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_CLOEXEC", 0)
# The most characters one os.write takes: 1 MiB, as every output is ASCII
# (CSV numbers, instance text, and JSON with non-ASCII escaped)
_CHUNK = 1 << 20


def _chunks(lines: Iterable[str], chunk: int = _CHUNK) -> Iterator[bytes]:
    """The strings of ``lines``, in order, encoded in pieces of ``chunk``
    characters, the last one shorter: short strings are joined, a long one
    is cut."""
    batch, size = [], 0
    for line in lines:
        start = 0  # of the part of line not yet taken, so no tail is copied
        while size + len(line) - start >= chunk:
            end = start + chunk - size
            batch.append(line[start:end])
            yield "".join(batch).encode()
            batch, size, start = [], 0, end
        batch.append(line[start:])
        size += len(line) - start
    if size:
        yield "".join(batch).encode()


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for dicts with str
    keys, lists, tuples, str, int, float (NaN and +-inf as json writes them),
    bool and None, in about half its time: with an indent, json.dumps runs
    json's pure-Python encoder."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, dict):
        items = [_json_string(key) + ": " + _json_text(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Outputs:
    """The output directory of one command, as a context manager.

    ``with _Outputs(args.out) as outputs:`` wraps everything a command
    computes and writes.  Each file is written as soon as it is ready, by
    ``os.write`` of chunks of at most 1 MiB, and the manifest takes its
    SHA-256 from the chunks written, reading nothing back.  A file that
    exists already is written over in place and cut to length after its last
    byte, not truncated to zero when it is opened, at the cost of crash
    safety (see the module docstring): it keeps its inode and permission
    bits, and a symlink or hard link to it is written through; a new file,
    one no longer than the new bytes, and one that is not a regular file
    (``/dev/null``) are written without the cut.  An ``--out`` that is a
    directory already is used as it is; a missing one is made at the first
    write, so a command that fails before writing leaves nothing behind.
    When the block raises, the files this run wrote are removed, and so are
    the directories on the way to it that were missing at the start, if they
    are empty; anything else stays.  An empty ``--out``, or one whose nearest
    existing ancestor is not a directory, raises ``ValidationError``
    (exit 2) on entry, before any work; so does a write that fails later (a
    full disk, no permission).
    """

    def __init__(self, outdir: str) -> None:
        self.given = outdir  # as given: Path("") would be the working directory
        self.dir = Path(outdir)
        self.missing: list[Path] = []  # deepest first
        self.written: list[str] = []  # file names
        self.digests: list[str] = []  # SHA-256 of each written file's bytes

    def __enter__(self) -> _Outputs:
        if not self.given:
            raise ValidationError("--out needs a directory, got ''")
        if os.path.isdir(self.given):
            return self
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
        for name in self.written:
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(self.given, name))
        for path in self.missing:
            with contextlib.suppress(OSError):
                path.rmdir()

    def write_lines(self, name: str, lines: Iterable[str]) -> None:
        """Write the strings of ``lines`` one after another, as they come,
        hashing the bytes as they are written."""
        path = os.path.join(self.given, name)
        digest = hashlib.sha256()
        size = 0
        try:
            if self.missing and not self.written:
                self.dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, _WRITE_FLAGS, 0o666)
            self.written.append(name)
            try:
                for data in _chunks(lines):
                    view = memoryview(data)
                    while view:
                        view = view[os.write(fd, view):]
                    digest.update(data)
                    size += len(data)
                # cut only a regular file left longer than the new bytes: ftruncate
                # fails on /dev/null, and elsewhere has nothing to cut
                old = os.fstat(fd)
                if stat.S_ISREG(old.st_mode) and old.st_size > size:
                    os.ftruncate(fd, size)
            finally:
                os.close(fd)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc
        self.digests.append(digest.hexdigest())

    def write_text(self, name: str, text: str) -> None:
        self.write_lines(name, [text])

    def manifest(self, command: str, config: dict, seeds=(), health=None) -> None:
        """Write manifest.json with the digests of every file written so far;
        ``health`` holds the run's numeric-health counters (clamped
        variances, optimizer convergence) when given."""
        entries = [
            {"path": name, "sha256": digest}
            for name, digest in zip(self.written, self.digests)
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
        self.write_text("manifest.json", _json_text(doc) + "\n")


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
        lines = ["d,beta,gamma,value", *(f"{d},{b!r},{g!r},{v!r}" for d, b, g, v in rows)]
        outputs.write_text("optimum.csv", "\n".join(lines) + "\n")
        config = {key: getattr(args, key) for key in ("pure_d", "sigmas", "cs", "sk")}
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
        outputs.write_text("fitted_spec.json", _json_text(doc) + "\n")
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
    name = f"instance_{label}_n{args.n}_seed{args.seed}.txt"
    with _Outputs(args.out) as outputs:
        outputs.write_text(name, model.instance_to_text(inst))
        outputs.manifest(
            "sample",
            {"spec": list(spec.sigmas), "n": args.n, "seed": args.seed},
            seeds=[args.seed],
        )
    print(f"wrote instance to {outputs.dir / name}")
    return 0


# Each command's flags as (flag, add_argument keywords), in the order of its
# help: fed to argparse by _add_command, and read as they are by _read_clean.
_SPEC_FLAGS = (
    ("--sigmas", dict(help="comma list of per-degree standard deviations")),
    ("--cs", dict(help="comma list of mixture coefficients c_q")),
    ("--pure-d", dict(help="pure d-spin model(s): D or LO..HI")),
    ("--sk", dict(action="store_true", default=False,
                  help="standard two-body model (sigma_2 = 1)")),
)
_OUT_FLAG = ("--out", dict(default="msqaoa_out", help="output directory"))

# (name, help, flags, handler), in the order of the top-level help
_COMMANDS = (
    ("landscape", "emit (beta, gamma) energy grids as CSV", (
        *_SPEC_FLAGS,
        ("--beta", dict(default=f"{-math.pi/4}:{math.pi/4}:65", help="beta grid min:max:count")),
        ("--gamma", dict(default="-1.5:1.5:65", help="gamma grid min:max:count")),
        ("--mode", dict(action="append", default=None, help="infinite | finite:N | "
                        "instance:N:SEED (repeatable; default infinite)")),
        _OUT_FLAG), cmd_landscape),
    ("optimize", "find optimal angles for a model", (
        *_SPEC_FLAGS,
        ("--ground-state", dict(type=float, default=None,
                                help="reference ground-state energy per spin (negative)")),
        _OUT_FLAG), cmd_optimize),
    ("verify", "run the verification suite", (
        ("--level", dict(default="quick", help="quick or full (default quick)")),
        _OUT_FLAG), cmd_verify),
    ("fit-spec", "estimate per-degree sigmas from an instance file",
     (("instance_file", {}), _OUT_FLAG), cmd_fit_spec),
    ("sample", "sample a problem instance to a text file", (
        *_SPEC_FLAGS,
        ("--n", dict(type=int, required=True, help="number of spins")),
        ("--seed", dict(type=int, default=0, help="reproducibility seed")),
        _OUT_FLAG), cmd_sample),
)


def _add_command(parser, name, flags, handler) -> None:
    for flag, kwargs in flags:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(command=name, func=handler)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msqaoa", description="Depth-1 QAOA energy per spin on mixed-spin SK models"
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags, handler in _COMMANDS:
        _add_command(subs.add_parser(name, help=help_text), name, flags, handler)
    return parser


def _read_clean(flags, tokens) -> dict | None:
    """The values, by dest, that argparse reads from a clean command line for
    these flags (see the module docstring); None for any other."""
    options = dict(flags)
    values = {flag: kw.get("default") for flag, kw in flags}
    positionals = [flag for flag in options if not flag.startswith("-")]
    required = {flag for flag, kw in flags if kw.get("required")}
    tokens = iter(tokens)
    for token in tokens:
        if token.startswith("-"):
            flag, eq, value = token.partition("=")
        else:  # the next positional, as if given as flag=value
            flag, eq, value = positionals.pop(0) if positionals else None, "=", token
        kwargs = options.get(flag)
        if kwargs is None:
            return None
        action = kwargs.get("action")
        if action == "store_true" and eq:
            return None
        if action != "store_true" and not eq:
            value = next(tokens, "-")  # no value left reads as a flag
            if value.startswith("-"):
                return None
        try:
            value = True if action == "store_true" else kwargs.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        values[flag] = [*(values[flag] or ()), value] if action == "append" else value
        required.discard(flag)
    if positionals or required:
        return None
    return {flag.lstrip("-").replace("-", "_"): value for flag, value in values.items()}


def _parse(argv) -> argparse.Namespace:
    for name, _, flags, handler in _COMMANDS:
        values = _read_clean(flags, argv[1:]) if argv and argv[0] == name else None
        if values is not None:
            return argparse.Namespace(**values, command=name, func=handler)
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
