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
``os.write`` in chunks of at most 1 MiB, a landscape CSV's rows and an
instance file's lines joined into chunks as they come, so memory stays
bounded; each chunk is hashed for the
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

A landscape CSV holds every grid value as its ``repr``.  A grid of at
least ``_REPR_MIN_VALUES`` (256) values gets those bytes from one vectorized
kernel, ``_repr_rows``, a block of rows at a time: it scales each value
exactly to 17 digits (Dekker's two-product), takes the shortest decimal
inside its half-ulp interval (Steele & White, Gay) from one table lookup,
and lays out repr's text with word masks and shifts, each of some 100 numpy
passes writing into one workspace of 16 float64s a value.  A value it cannot
certify takes ``float.__repr__``, and so does every value of a smaller grid,
below which its fixed cost (0.1-0.2 ms) loses.  The ``infinite`` mode
evaluates its grid in the same blocks of at most 2^16 values, so a 4096 x
4096 landscape peaks at 46 MB ``ru_maxrss``, not 802 MB (2-vCPU Xeon).

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
import functools
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
        return [("mix", model.MixtureFunction(tuple(cs)).to_spec())]
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


# A grid of fewer values than this is written with one repr per value: a call
# of _repr_rows costs some 250 reprs before its first value, then a seventh
# of one a value; with the beta column, 15 x 15 (240 values) ran 0.96x as fast
# as repr and 16 x 16 (272) 1.18x (medians of 300 interleaved rounds, 2-vCPU Xeon).
_REPR_MIN_VALUES = 256
# The most values one _repr_chunk call formats, for a workspace of 1 MiB at
# most: chunks of 4096 split the benchmark's 65 x 65 grids in two calls and
# took 1.25x as long; on 256 x 256 values 16384 gained 5% and 32768 lost 9%
# (2-vCPU Xeon).
_REPR_CHUNK = 8192
# How far (in units of the 17th significant digit) every decision of
# _repr_chunk must sit from its threshold; its arithmetic errs by < 1e-13.
_REPR_MARGIN = 2.0 ** -20
_REPR_ROWS = 16  # the float64 rows of _repr_chunk's workspace, each a chunk long
# The most grid values a landscape evaluates and formats as one block of rows
_GRID_BLOCK = 1 << 16
# Output words are little-endian uint64, so byte k of a word is its k-th character
_WORD = np.dtype("<u8")


@functools.cache
def _repr_tables() -> dict:
    """The tables of ``_repr_chunk``, built on its first call (2-4 ms).

    Indexed by k = 2 (x + 1021) + bump for a value's frexp exponent x >=
    -1021 (normal values), where bump is 1 when |v| is at least ``th[k]``,
    the smallest double >= 10^(e0 + 1): then 10^e <= |v| < 10^(e + 1) for
    e = e0 + bump, e0 = floor((x - 1) log10 2), which no float error moves,
    since (x - 1) log10 2 stays 4.5e-4 or more from every nonzero integer.
    With j = 16 - e, ``scale`` holds 2^j, 5^j as the double-double ph + pl
    with ph split as b1 + b2 (exact integer arithmetic), and half an ulp
    times 10^j, and ``rows`` the same as one record a row."""
    ph, pl = [], []
    for j in range(-307, 341):  # every j and every e + 1 below
        num, den = (5**j, 1) if j >= 0 else (1, 5**-j)
        hi = num / den
        a, b = hi.as_integer_ratio()
        ph.append(hi)
        pl.append((num * b - a * den) / (den * b))  # 5^j - hi, rounded once
    ph, pl = np.array(ph), np.array(pl)
    split = ph * 134217729.0  # 2^27 + 1
    b1 = split - (split - ph)
    xs = np.repeat(np.arange(-1021, 1025), 2)
    e0 = np.floor((xs - 1) * math.log10(2)).astype(np.int64)
    e = e0 + np.tile([0, 1], 2046)  # by k, -308..308
    j = 16 - e + 307  # the row of j in ph, pl
    # 2^(e0 + 1) 5^(e0 + 1), rounded up where 5^(e0 + 1) was rounded down
    tens = np.ldexp(ph[e0 + 308], e0 + 1)
    th = np.where(pl[e0 + 308] > 0, np.nextafter(tens, np.inf), tens)
    scale = np.column_stack((  # p2, ph, pl, b1, b2, half
        np.ldexp(1.0, 16 - e), ph[j], pl[j], b1[j], (ph - b1)[j], np.ldexp(ph[j], 16 - e + xs - 54)))
    # The text in four words behind a sign byte at row 17 form + p - 1 for p
    # significant digits (row 357: "0.0").  Forms: e = 0..15 (a dot after
    # digit e + 1, the rest or one 0), 15 - e for e = -4..-1 ("0.", -1 - e
    # zeros, the digits), 20 (a digit, a dot if p > 1, the rest, and the
    # exponent).  Masks take the head (one byte up) and the tail (``shift``
    # bytes up); constant bytes add the dot and "0.000".
    form = np.repeat(np.arange(21), 17)[:, None]
    p = np.tile(np.arange(1, 18), 21)[:, None]
    small = (form >= 16) & (form < 20)
    cut = np.where(form < 16, form + 1, np.where(small, 0, 1))
    shift = np.where(small, form - 13, 2)
    dot = np.where(form < 16, cut + 1, np.where(small | (p > 1), 2, -1))
    i = np.arange(32)
    layout = np.zeros((4, 358, 32), np.uint8)  # head, tail, constant bytes, shift
    layout[0, :357] = (i < cut) * 255
    layout[1, :357] = ((cut <= i) & (i < np.where(form < 16, np.maximum(p, cut + 1), p))) * 255
    layout[2, :357] = np.where(i == dot, 46, np.where(small & (i > 0) & (i < shift), 48, 0))
    layout[2, 357, 1:4] = list(b"0.0")
    layout = layout.view(_WORD)
    layout[3] = 8 * np.append(shift, 2)[:, None]  # in bits, in every word
    es = np.arange(-308, 309)
    by_e = np.where((es >= 0) & (es < 16), es, np.where((es < 0) & (es >= -4), 15 - es, 20))
    exponent = np.frombuffer(b"".join(  # the last word: bytes 2..6, and a comma
        (b"" if -4 <= v < 16 else b"e%+03d" % v).rjust(7, b"\0") + b"," for v in es.tolist()), _WORD)
    digits = ((np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + 48) @ 256 ** np.arange(4)).astype(_WORD)
    t5 = np.arange(10**5)  # 16 - the trailing zeros of t5 (11 for 0)
    zeros = 16 - sum(t5 % 10**z == 0 for z in range(1, 6))
    # f - base by b = big - base in -24..123 (|lo| < 20), top, low and r >=
    # 1/2: of big + low + 1..big + top - 1, with s their most trailing zeros
    # up to 2, the one nearest y, the multiple of 10 nearest y or of 100.
    b, top, low, up = np.ix_(np.arange(-24, 124), np.arange(1, 14), np.arange(-12, 1), np.arange(2))
    high = b + top - 1
    s = (high % 10 < top - low - 1) * 1 + (high % 100 < top - low - 1)
    h10 = high // 10
    nearest = np.where(s == 0, b + up, np.where(s == 1, (h10 - (b - 10 * h10 <= -6)) * 10, high - high % 100))
    return {
        "th": th, "scale": scale, "rows": scale.view(np.dtype((np.void, 48)))[:, 0],
        "tail": exponent[e + 308], "form": 17 * by_e[e + 308], "layout": layout.view("V32")[..., 0],
        "low": digits, "high": digits << 32, "zeros": zeros.astype(np.int8),
        "nearest": nearest.astype(np.int16).ravel(), "pow10": 10 ** np.arange(1, 17),
    }


def _repr_chunk(x: np.ndarray, ends: slice, work: np.ndarray) -> bytes:
    """The bytes of ``repr(v) + ","`` for each float64 ``v`` of ``x``, with
    a newline for the comma after ``x[ends]``; every pass writes into
    ``work``, ``_REPR_ROWS`` float64s a value.  Steps 1-4: y = |v| 10^j
    exactly as hi + lo, big = floor(y), r = y - big; the interval y -+ h (h
    half an ulp of v times 10^j, 0.55 <= h < 11.2); the digits f of the
    integer inside with the most trailing zeros, the one nearest y if two;
    the text.  Round half even would also take an end of even v: one
    within the margin of an integer is left out, and v falls back if it has
    more trailing zeros than f.  Zeros are written here; ``float.__repr__``
    takes a value that is non-finite, subnormal, a power of two (its
    interval is lopsided), near a tie or an end, or rounded out of [1e16,
    1e17)."""
    t, margin, n = _repr_tables(), _REPR_MARGIN, x.size
    block = work[:_REPR_ROWS * n].reshape(_REPR_ROWS, n)
    w, wi, wb = list(block), list(block.view(np.int64)), list(block.view(np.bool_)[:, :n])
    # 1. a value that is no normal non-power of two scales as 1.2345678901234567
    ax = np.abs(x, out=w[0])
    mant, ex = np.frexp(ax, out=(w[1], w[2].view(np.int32)[:n]))
    ok = np.logical_and(np.greater(mant, 0.5, out=wb[13]), np.less(mant, 1, out=wb[14]), out=wb[13])
    ok &= np.greater_equal(ex, -1021, out=wb[14])
    np.copyto(ax, 1.2345678901234567, where=np.logical_not(ok, out=wb[14]))
    np.copyto(ex, 1, where=wb[14])
    k = np.add(np.multiply(ex, 2, out=wi[12]), 2042, out=wi[12])
    k += np.greater_equal(ax, t["th"].take(k, out=w[3], mode="clip"), out=wb[14])
    rows = t["rows"].take(k, out=block[4:10].reshape(-1).view(t["rows"].dtype), mode="clip")
    p2, ph, pl, b1, b2, half = rows.view(np.float64).reshape(n, 6).T
    a = np.multiply(ax, p2, out=w[0])
    hi = np.multiply(a, ph, out=w[1])
    a1 = np.multiply(a, 134217729.0, out=w[2])
    np.subtract(a1, np.subtract(a1, a, out=w[3]), out=a1)
    a2 = np.subtract(a, a1, out=w[3])
    lo = np.subtract(np.multiply(a1, b1, out=w[10]), hi, out=w[10])
    for u, v in ((a1, b2), (a2, b1), (a2, b2), (a, pl)):
        lo += np.multiply(u, v, out=w[11])
    fl = np.floor(lo, out=w[11])
    r = np.subtract(lo, fl, out=w[10])
    # 2. the ends' distances to the integers outside, and r near 0, 1/2 or 1
    hm = np.subtract(half, margin, out=w[2])
    below, above = np.subtract(r, hm, out=w[0]), np.add(r, hm, out=w[3])
    low, top = np.floor(below, out=w[4]), np.ceil(above, out=w[5])
    below -= low
    near = np.less(np.minimum(below, np.subtract(top, above, out=above), out=below), 2 * margin, out=wb[6])
    odd = np.abs(np.subtract(r, 0.5, out=w[0]), out=w[0])
    odd -= 0.25
    check = np.logical_or(np.greater_equal(np.abs(odd, out=odd), 0.25 - margin, out=wb[7]), near, out=wb[7])
    # 3. f = base + nearest[cell], base = int(hi) - hb, hb = int(hi) mod 100
    base = np.trunc(hi, out=wi[8], casting="unsafe")
    hb = np.subtract(base, np.multiply(np.floor_divide(base, 100, out=wi[9]), 100, out=wi[9]), out=wi[9])
    base -= hb
    cell = np.add(hb, fl, out=w[0])
    for factor, term in ((13, top), (13, low), (2, np.greater_equal(r, 0.5, out=wb[3]))):
        np.add(np.multiply(cell, factor, out=cell), term, out=cell)
    cell += 24 * 338 - 2
    np.copyto(wi[9], cell, casting="unsafe")
    f = np.add(base, t["nearest"].take(wi[9], out=w[2].view(np.int16)[:n], mode="clip"), out=wi[15])
    ok &= np.less(np.subtract(f, 10**16, out=wi[0]).view(np.uint64), 9 * 10**16, out=wb[14])
    edge = np.logical_and(check, ok, out=check).nonzero()[0]
    if edge.size:  # step 2's ties and ends, with s the trailing zeros of f
        big = hi.take(edge).astype(np.int64) + fl.take(edge).astype(np.int64)
        r, low, top, near = r.take(edge), low.take(edge).astype(np.int64), top.take(edge).astype(np.int64), near.take(edge)
        s = (f.take(edge)[:, None] % t["pow10"] == 0).sum(axis=1)
        high = big + top - 1
        tie = np.where(s == 0, 2 * r - 1, 2 * (big - high // 10 * 10) + 2 * r + 10)
        ok[edge] &= ((np.abs(tie) > margin) | (s > 1)) & (~near | (
            ((big + low) % 10 ** (s + 1) != 0) & ((high + 1) % 10 ** (s + 1) != 0)))
    # 4. f = (10^4 a8 + b4) 10^5 + t5, and a8, b4, t5 // 10 in 4-digit groups
    q5 = np.floor_divide(f, 10**5, out=wi[0])
    t5 = np.subtract(f, np.multiply(q5, 10**5, out=wi[1]), out=wi[1])
    a8 = np.floor_divide(q5, 10**4, out=wi[2])
    first, second = block[4:6].view(np.int64), block[6:8].view(np.int64)  # groups that start and end a word
    np.floor_divide(a8, 10**4, out=first[0])
    np.subtract(a8, np.multiply(first[0], 10**4, out=second[0]), out=second[0])
    np.subtract(q5, np.multiply(a8, 10**4, out=first[1]), out=first[1])
    np.floor_divide(t5, 10, out=second[1])
    last = np.subtract(t5, np.multiply(second[1], 10, out=wi[14]), out=wi[14])
    t["low"].take(first, out=block[8:10].view(_WORD), mode="clip")
    t["high"].take(second, out=block[10:12].view(_WORD), mode="clip")
    digits = block[4:8].reshape(n, 4).view(_WORD)
    np.bitwise_or(block[8:10].view(_WORD), block[10:12].view(_WORD), out=digits[:, :2].T)
    np.add(last, 48, out=digits[:, 2].view(np.int64))
    lay = t["form"].take(k, out=wi[15], mode="clip")  # 17 form + 16 - s
    lay += t["zeros"].take(t5, out=wb[3].view(np.int8), mode="clip")
    deep = (t5 == 0).nonzero()[0]
    if deep.size:  # five trailing zeros or more
        lay[deep] -= (q5.take(deep)[:, None] % t["pow10"] == 0).sum(axis=1)
    np.copyto(lay, 357, where=np.equal(x, 0, out=wb[14]))
    ok |= wb[14]
    # 5. the text
    head, tail, const, shift = t["layout"]
    words = block[0:4].reshape(-1).view(head.dtype)
    hd = head.take(lay, out=words, mode="clip").view(_WORD).reshape(n, 4)
    tl = tail.take(lay, out=block[8:12].reshape(-1).view(head.dtype), mode="clip").view(_WORD).reshape(n, 4)
    hd &= digits
    tl &= digits
    out = np.left_shift(hd, 8, out=np.empty((n, 4), _WORD))
    flat = out.reshape(-1)
    flat[1:] |= np.right_shift(hd, 56, out=hd).reshape(-1)[:-1]  # a word's top byte to the next one
    bits = shift.take(lay, out=words, mode="clip").view(_WORD).reshape(n, 4)
    out |= np.left_shift(tl, bits, out=digits)
    flat[1:] |= np.right_shift(tl, np.subtract(64, bits, out=bits), out=tl).reshape(-1)[:-1]
    out |= const.take(lay, out=words, mode="clip").view(_WORD).reshape(n, 4)
    out[:, 3] = t["tail"].take(k, out=wi[15].view(_WORD), mode="clip")
    out[ends, 3] ^= (ord(",") ^ ord("\n")) << 56
    out[:, 0] |= np.multiply(np.signbit(x, out=wb[14]), 45, out=wi[12], casting="unsafe").view(_WORD)
    for i in np.logical_not(ok, out=ok).nonzero()[0].tolist():
        text = float.__repr__(float(x[i])) + chr(int(out[i, 3]) >> 56)
        out[i] = np.frombuffer(text.encode().ljust(32, b"\0"), _WORD)
    return out.tobytes().translate(None, b"\0")


def _repr_rows(values: np.ndarray) -> str:
    """``"".join(",".join(map(repr, row)) + "\\n" for row in values.tolist())``
    for a 2-D float64 array, byte for byte, formatted by ``_repr_chunk`` in
    chunks of at most ``_REPR_CHUNK`` values through one workspace."""
    cols, flat = values.shape[1], values.ravel()
    size = min(flat.size, _REPR_CHUNK)
    work = np.empty(_REPR_ROWS * size)
    return b"".join(_repr_chunk(flat[i:i + size], slice(cols - 1 - i % cols, None, cols), work)
                    for i in range(0, flat.size, size)).decode("ascii")


def _grid_csv(betas: np.ndarray, gammas: np.ndarray, rows) -> Iterator[str]:
    """The lines of a grid CSV: a header of gammas, then one row per beta,
    each value as its repr.  ``rows`` returns the grid's rows for a slice of
    the betas (a grid array passes its ``__getitem__``); they are taken and
    written in blocks of at most ``_GRID_BLOCK`` values, each one string of
    lines from ``_repr_rows``, or a line at a time with one repr per value
    for a grid of fewer than ``_REPR_MIN_VALUES`` values."""
    yield "beta," + ",".join(map(repr, gammas.tolist())) + "\n"
    if betas.size * gammas.size < _REPR_MIN_VALUES:
        for b, row in zip(betas.tolist(), rows(slice(None))):
            yield f"{b!r}," + ",".join(map(repr, row.tolist())) + "\n"
        return
    step = max(1, _GRID_BLOCK // (gammas.size + 1))
    for start in range(0, betas.size, step):
        block = slice(start, start + step)
        yield _repr_rows(np.column_stack((betas[block], rows(block))))


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
                    # a block of rows at a time: every value is a per-point
                    # expression, so a block's values are the whole grid's
                    rows = lambda block: closed_form.energy_sigma_grid(spec, betas[block], gammas)
                    name = f"landscape_{label}_infinite.csv"
                elif kind == "finite":
                    from . import finite_n

                    [n] = ints
                    grid = finite_n.sketch_moment_grid(spec, betas, gammas, n)
                    rows = grid.first.__getitem__
                    name = f"landscape_{label}_finite_n{n}.csv"
                    clamped[name] = int(grid.clamped.sum())
                else:
                    from . import simulator

                    n, seed = ints
                    simulator.check_size(n)
                    inst = model.sample_instance(spec, n, seed)
                    rows = simulator.landscape_instance(inst, betas, gammas).__getitem__
                    name = f"landscape_{label}_instance_n{n}_seed{seed}.csv"
                    seeds.append(seed)
                outputs.write_lines(name, _grid_csv(betas, gammas, rows))
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
        outputs.write_lines(name, model._instance_lines(inst))
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
