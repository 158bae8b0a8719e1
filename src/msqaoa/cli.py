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
exactly to 17 digits (Dekker's two-product), finds the shortest decimal
inside its half-ulp interval, as Steele & White and Gay do, and lays out
repr's text with numpy word operations.  A value it cannot certify takes
``float.__repr__``, and so does every value of a smaller grid, below which
the kernel's fixed cost of about 0.1 ms loses.  The ``infinite`` mode
evaluates its grid in the same blocks of at most 2^16 values, so a 4096 x
4096 landscape peaks at 46 MB ``ru_maxrss``, not 802 MB, and takes 5.3 s,
not 19.8 s (2-vCPU Xeon).

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
# of _repr_rows costs about 0.1 ms before its first value; with the beta
# column, 13 x 13 (182 values) ran 0.72x as fast as repr and 17 x 17 (306)
# 1.13x (medians of 60 interleaved rounds, 2-vCPU Xeon).
_REPR_MIN_VALUES = 256
# The most values one _repr_chunk call formats: its arrays stay at 64 kB, in
# cache and below malloc's mmap threshold, where 16384 values ran 1.5x slower
# a value; chunks of 2048 split the benchmark's larger grids in two calls and
# its op_tail_ms read 1.79 against 1.63 ms (2-vCPU Xeon).
_REPR_CHUNK = 8192
# How far (in units of the 17th significant digit) every decision of
# _repr_chunk must sit from its threshold; its arithmetic errs by < 1e-13.
_REPR_MARGIN = 2.0 ** -20
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
    since (x - 1) log10 2 stays 4.5e-4 or more from every nonzero integer.  With j = 16 - e, ``p2`` is 2^j and 5^j is the double-double
    ``ph`` + ``pl`` (``b1`` + ``b2`` is ``ph`` split for Dekker's product,
    all exact integer arithmetic); ``half`` is half an ulp times 10^j.
    """
    ph, pl = [], []
    for j in range(-307, 341):  # every j and every e + 1 below
        if j >= 0:
            hi = float(5**j)
            ph.append(hi)
            pl.append(float(5**j - int(hi)))
        else:
            five = 5**-j
            hi = 1 / five
            num, den = hi.as_integer_ratio()
            ph.append(hi)
            pl.append((den - num * five) / (den * five))
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
    # The text of a value, byte 0 saved for its sign, by form and p, its
    # number of significant digits.  The forms: e = 0..15 (digits, a dot
    # after digit e + 1, then digits, or "0" to the dot and after it), 15 - e
    # for e = -4..-1 ("0.", -1 - e zeros, digits) and 20 (a digit, a dot and
    # the rest if p > 1, then the exponent word).  Of the 17 digits, those
    # before the cut go one byte up (the head), the rest of the first p
    # (the tail) go up by the dot and "0.000"; the constant bytes add the
    # dot, "0.000" and the zeros of 1000.0.
    form = np.repeat(np.arange(21), 17)[:, None]
    p = np.tile(np.arange(1, 18), 21)[:, None]
    cut = np.where(form < 16, form + 1, np.where(form < 20, 0, 1))
    keep = np.where(form < 16, np.maximum(p, form + 2), p)
    shift = np.where((form < 16) | (form == 20), 2, form - 13)
    i = np.arange(24)
    constant = np.where(
        ((1 + p <= i) & (i < 1 + cut)) | ((shift + np.maximum(cut, p) <= i) & (i < shift + keep))
        | ((form >= 16) & (form < 20) & (i < shift) & (i != 2) & (i > 0)), 48,
        np.where((i == 1 + cut) & ((form < 16) | ((form == 20) & (p > 1))), 46,
                 np.where((form >= 16) & (form < 20) & (i == 2), 46, 0)))
    layout = np.concatenate([
        (i < np.minimum(cut, p)) * 255, ((cut <= i) & (i < p)) * 255, constant,
    ], axis=1).astype(np.uint8).view(_WORD).T
    layout = np.concatenate([layout, 8 * shift.T.astype(_WORD)])
    es = np.arange(-308, 309)
    by_e = np.where((es >= 0) & (es < 16), es, np.where((es < 0) & (es >= -4), 15 - es, 20))
    exponent = np.frombuffer(b"".join(
        (b"" if -4 <= v < 16 else b"e%+03d" % v).ljust(8, b"\0") for v in es.tolist()), _WORD)
    digits = np.zeros((10000, 8), np.uint8)  # "0000".."9999" in the low half of a word
    digits[:, :4] = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48
    return {
        "th": th, "scale": np.column_stack((
            np.ldexp(1.0, 16 - e), ph[j], pl[j], b1[j], (ph - b1)[j], np.ldexp(ph[j], 16 - e + xs - 54))),
        "exponent": exponent[e + 308], "form": 17 * by_e[e + 308], "layout": layout,
        "digits": digits.view(_WORD)[:, 0],
        "tens": 10.0 ** np.arange(1, 15), "pow10": 10 ** np.arange(18, dtype=np.int64),
    }


def _repr_chunk(x: np.ndarray, ends: np.ndarray) -> bytes:
    """The bytes of ``repr(v) + end`` for each float64 ``v`` of ``x``, with
    ``ends[i]`` the byte after value i shifted into the top byte of a word.

    1. Scale exactly: with 10^e <= |v| < 10^(e + 1) and j = 16 - e, y = |v|
       10^j = (|v| 2^j) 5^j as hi + lo, by Dekker's two-product with 5^j a
       double-double; big = floor(y), r = y - big.
    2. y -+ h, h half an ulp of v times 10^j (0.55 <= h < 11.2 for a normal
       v), bounds the decimals that read back as v: the integers of (low,
       high], those strictly inside, w = high - low <= 23 of them.  Round
       half even on reading would also take an end of even v: one within the
       margin of an integer is left out, and v falls back if that integer
       has more trailing zeros than the answer.
    3. The shortest round-trip text has p = 17 - s digits, s the most
       trailing zeros of an integer in (low, high], which at s >= 2 is the
       one multiple of 10^s there: high mod 10^s < w.  At s <= 1 there may
       be two, and repr takes the one nearest y, so a near tie falls back.
    4. Lay out repr's text in three words behind a byte for the sign: the
       17 digits, cut at the dot, the head one byte up, the tail (the rest
       of the first p) up by that byte and the dot or "0.000", and constant
       bytes for the dot, "0.000" and the zeros of 1000.0; a fourth word
       holds "e+XX" and the end byte.  Then drop every NUL byte.

    Zeros are written here; a value the chunk cannot certify takes
    ``float.__repr__``: non-finite, subnormal, a power of two (its interval
    is lopsided), near a tie or an end, or y rounded out of [1e16, 1e17).
    """
    t = _repr_tables()
    margin = _REPR_MARGIN
    ax = np.abs(x)
    mant, ex = np.frexp(ax)
    ok = (mant > 0.5) & (mant < 1) & (ex >= -1021)  # no zero, NaN, inf or power of two
    ax = np.where(ok, ax, 1.5)
    k = 2 * np.where(ok, ex, 1) + 2042
    k += ax >= t["th"].take(k)
    # 1. y = hi + lo
    p2, ph, pl, b1, b2, half = t["scale"].take(k, axis=0).T
    a = ax * p2
    hi = a * ph
    split = a * 134217729.0
    a1 = split - (split - a)
    a2 = a - a1
    lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2 + a * pl
    floor_lo = np.floor(lo)
    r = lo - floor_lo
    big = hi.astype(np.int64) + floor_lo.astype(np.int64)
    # 2. (low, high]
    below = r - half + margin
    above = r + half - margin
    low = np.floor(below)
    top = np.ceil(above)
    near = (below - low < 2 * margin) | (top - above < 2 * margin)
    high = big + top.astype(np.int64) - 1
    w = (top - low).astype(np.int64) - 1
    # 3. s, and f: the digits, as a 17-digit integer
    h10 = high // 10
    h100 = h10 // 10
    m100 = high - h100 * 100
    s = (high - h10 * 10 < w).astype(np.int64) + (m100 < w)
    deep = np.flatnonzero(m100 < w)
    if deep.size:  # add the trailing zeros of high // 100 (< 10^15, so exact as a float)
        rest = h100.take(deep).astype(float)[:, None] / t["tens"]
        s[deep] += (rest == np.floor(rest)).sum(axis=1)
    # at s = 1, the multiple of 10 nearest y is h10 10 or the one below it
    tie1 = 2 * r - 1
    tie10 = 2 * (big - h10 * 10) + 2 * r + 10
    f = np.where(s == 0, big + (tie1 > 0), np.where(s == 1, (h10 - (tie10 < 0)) * 10, high))
    ok &= (np.abs(np.where(s == 0, tie1, tie10)) > margin) | (s > 1)
    ok &= (f >= 10**16) & (f < 10**17)
    edge = np.flatnonzero(near & ok)
    if edge.size:
        shorter = t["pow10"].take(s.take(edge) + 1)
        low = big.take(edge) + low.take(edge).astype(np.int64)
        ok[edge] = (low % shorter != 0) & ((high.take(edge) + 1) % shorter != 0)
    f = np.where(ok, f, 10**16)
    # 4. the text
    q0 = f // 10**13
    r0 = f - q0 * 10**13
    q1 = r0 // 10**9
    r1 = r0 - q1 * 10**9
    q2 = r1 // 10**5
    r2 = r1 - q2 * 10**5
    q3 = r2 // 10
    lut = t["digits"]
    digits = np.empty((3, x.size), _WORD)
    digits[0] = lut.take(q0) | (lut.take(q1) << 32)
    digits[1] = lut.take(q2) | (lut.take(q3) << 32)
    digits[2] = r2 - q3 * 10 + 48
    layout = t["layout"].take(t["form"].take(k) + 16 - s, axis=1)
    out = np.empty((4, x.size), _WORD)
    text = out[:3]
    head = digits & layout[0:3]
    np.left_shift(head, 8, out=text)
    text[1:] |= head[:2] >> 56
    tail = digits & layout[3:6]
    text |= tail << layout[9]
    text[1:] |= tail[:2] >> (64 - layout[9])
    text |= layout[6:9]
    sign = np.signbit(x).astype(_WORD) * 45
    text[0] |= sign
    out[3] = t["exponent"].take(k) | ends
    out = out.T
    zero = np.flatnonzero(x == 0)
    out[zero, 0] = sign.take(zero) | int.from_bytes(b"\0" + b"0.0", "little")
    out[zero, 1:3] = 0
    for i in np.flatnonzero(~ok & (x != 0)).tolist():
        last = int(ends[i]) >> 56
        out[i] = np.frombuffer((float.__repr__(float(x[i])) + chr(last)).encode().ljust(32, b"\0"), _WORD)
    return out.tobytes().translate(None, b"\0")


def _repr_rows(values: np.ndarray) -> str:
    """``"".join(",".join(map(repr, row)) + "\\n" for row in values.tolist())``
    for a 2-D float64 array, byte for byte, formatted by ``_repr_chunk`` in
    chunks of at most ``_REPR_CHUNK`` values: 1.7-2.0x as fast as one repr
    a value on closed-form grids of 2,200-4,300 values (2-vCPU Xeon)."""
    ends = np.full(values.shape, ord(",") << 56, _WORD)
    ends[:, -1] = ord("\n") << 56
    flat, ends = values.ravel(), ends.ravel()
    return b"".join(
        _repr_chunk(flat[i:i + _REPR_CHUNK], ends[i:i + _REPR_CHUNK])
        for i in range(0, flat.size, _REPR_CHUNK)
    ).decode("ascii")


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
