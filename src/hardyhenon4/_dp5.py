"""Loader of the compiled kernels in _dp5.c, built on first use.

load() compiles _dp5.c with the C compiler Python was built with into a
shared library cached under ~/.cache/hardyhenon4 (or the system temporary
directory where that is not writable), keyed by the sha256 of the source,
the compiler and the flags, and returns the seven kernels with the
signatures of their Python twins: _steps_py, _scan_py and _dense_py in
dynamics, _exp_py and _log_py in transform, _rows_py and _parse_py in
green.  The step kernel ends an orbit at its crossing itself, as _steps_py
does through _bisect_py; its wrapper is the one place that holds a segment
buffer.  The row reader reads the rows the row writer writes, each cell as
float() reads it, and returns None for any other body; its twin returns
None for every body, and np.loadtxt reads what the reader leaves.
It returns None, without a word, where anything fails (no compiler, a
compile error, a target whose doubles carry excess precision, no
writable cache).  kernels() is the one dispatch point: the compiled
kernels where they load, else the Python twins, which print the same
bytes.  Nothing is compiled, and no compiler module imported, before the
first call.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

SOURCE = Path(__file__).with_name("_dp5.c")
# No -ffast-math or -march=native: every operation must round as Python's
# float does.  -ffp-contract=off stops fused multiply-adds.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)
COMPILE_TIMEOUT_S = 120

# Statuses of the step kernel, as the enum in _dp5.c.  The C kernel
# reports an overflowing w^p as OVERFLOW, and a full segment buffer as
# FULL; its wrapper raises the OverflowError that math.exp raises in the
# Python loop, and resumes into a buffer twice the size.
END, BLOW_UP, NON_POSITIVE, FULL, UNDERFLOW, OVERFLOW = range(6)

# Rows of the step kernel's first segment buffer.
SEGMENT_ROWS = 1024

# Multiplier rows of the row writer, as the enum in _dp5.c, and the room
# it needs per row: two 24-byte reprs, a comma and a newline.
POW5_INV_ROWS, POW5_ROWS = 291, 326
ROW_BYTES = 50

# The powers of five of the row reader, as the enum in _dp5.c: 5^q for
# POW5_Q_MIN <= q < POW5_Q_MIN + POW5_Q_ROWS.
POW5_Q_MIN, POW5_Q_ROWS = -342, 651


class Kernels(NamedTuple):
    steps: Callable[[np.ndarray, np.ndarray], tuple[int, np.ndarray, int]]
    scan: Callable[[float, float, float, float], tuple[float, int]]
    dense: Callable[[np.ndarray, np.ndarray], np.ndarray]
    exp: Callable[[np.ndarray], np.ndarray]
    log: Callable[[np.ndarray], np.ndarray]
    rows: Callable[[np.ndarray, np.ndarray], str]
    parse: Callable[[bytes, int], tuple[np.ndarray, np.ndarray] | None]


def kernels() -> Kernels:
    """The compiled kernels where they load, else their Python twins."""
    return load() or _twins()


def _twins() -> Kernels:
    # Those modules import this one, so the twins are looked up per call.
    from . import dynamics, green, transform

    return Kernels(dynamics._steps_py, dynamics._scan_py, dynamics._dense_py,
                   transform._exp_py, transform._log_py, green._rows_py, green._parse_py)


def _compiler() -> list[str]:
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _cache_dirs() -> list[Path]:
    import tempfile

    return [
        Path.home() / ".cache" / "hardyhenon4",
        Path(tempfile.gettempdir()) / f"hardyhenon4-{os.getuid()}",
    ]


def _writable_dir(path: Path) -> bool:
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return False
    # A shared directory someone else owns could hold a planted library.
    return path.stat().st_uid == os.getuid() and os.access(path, os.W_OK)


def _library() -> Path | None:
    """The cached library, compiled into the first usable cache directory if absent."""
    import hashlib
    import subprocess
    import tempfile

    cc = _compiler()
    key = hashlib.sha256(SOURCE.read_bytes())
    for part in (*cc, *FLAGS, *LIBS):
        key.update(b"\0" + part.encode())
    name = f"_dp5-{key.hexdigest()[:16]}.so"
    for directory in _cache_dirs():
        if not _writable_dir(directory):
            continue
        lib = directory / name
        if lib.is_file():
            return lib
        # Concurrent builds each write their own file; os.replace is atomic.
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
        os.close(fd)
        try:
            subprocess.run(
                [*cc, *FLAGS, "-o", tmp, str(SOURCE), *LIBS],
                capture_output=True, timeout=COMPILE_TIMEOUT_S, check=True,
            )
            os.replace(tmp, lib)
        except subprocess.SubprocessError:  # a compile error or a timeout
            return None
        finally:
            Path(tmp).unlink(missing_ok=True)
        return lib
    return None


@functools.cache
def load() -> Kernels | None:
    """The compiled kernels, or None where they cannot be built or loaded."""
    try:
        lib = _library()
        if lib is None:
            return None
        dll = ctypes.CDLL(str(lib))
        steps, scan, dense = dll.hh_steps, dll.hh_scan, dll.hh_dense
        exp, log, rows, parse = dll.hh_exp, dll.hh_log, dll.hh_rows, dll.hh_parse
    # No compiler, no home directory, no os.getuid, a CC that will not
    # split, a library that will not load: each leaves the Python twins.
    except (OSError, RuntimeError, AttributeError, ValueError):
        return None
    steps.restype = ctypes.c_int
    steps.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64, ctypes.c_void_p]
    scan.restype = ctypes.c_int64
    scan.argtypes = [ctypes.c_double] * 4 + [ctypes.POINTER(ctypes.c_double)]
    dense.restype = None
    dense.argtypes = [ctypes.c_void_p, ctypes.c_int64] * 2 + [ctypes.c_void_p]
    for fn in (exp, log):
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    rows.restype = ctypes.c_int64
    rows.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [ctypes.c_void_p] * 2
    parse.restype = ctypes.c_int64
    # A bytes argument passes its own buffer, which ends in a NUL.
    parse.argtypes = [ctypes.c_char_p] + [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 3

    def run_steps(st: np.ndarray, prm: np.ndarray) -> tuple[int, np.ndarray, int]:
        _check(st, (11,), np.float64)
        _check(prm, (10,), np.float64)
        seg = np.empty((SEGMENT_ROWS, 18))
        cnt = np.zeros(2, np.int64)  # rows written, rejected steps
        while (status := steps(st.ctypes.data, prm.ctypes.data, seg.ctypes.data, len(seg),
                               cnt.ctypes.data)) == FULL:
            seg = np.concatenate((seg, np.empty_like(seg)))
        if status == OVERFLOW:
            raise OverflowError("math range error")
        return status, seg[: cnt[0]].copy(), int(cnt[1])

    def run_scan(seed: float, best_g: float, a0: float, p: float) -> tuple[float, int]:
        best = ctypes.c_double()
        evaluated = scan(seed, best_g, a0, p, ctypes.byref(best))
        if evaluated < 0:
            raise OverflowError("math range error")
        return best.value, evaluated

    # Buffers the kernels only read are copied where they are not
    # C-contiguous float64.
    def run_dense(segments: np.ndarray, ts: np.ndarray) -> np.ndarray:
        segments = np.ascontiguousarray(segments, np.float64)
        ts = np.ascontiguousarray(ts, np.float64)
        if not len(segments):
            raise ValueError("no dense segments")
        _check(segments, (len(segments), 18), np.float64, writable=False)
        _check(ts, (len(ts),), np.float64, writable=False)
        out = np.empty((len(ts), 4))
        dense(segments.ctypes.data, len(segments), ts.ctypes.data, len(ts), out.ctypes.data)
        return out

    def libm_map(kernel, fn):
        def run(x: np.ndarray) -> np.ndarray:
            x = np.ascontiguousarray(x, np.float64)
            out = np.empty(x.shape)
            bad = kernel(x.ctypes.data, x.size, out.ctypes.data)
            if bad >= 0:
                fn(x.flat[bad].item())  # raises what the Python map raises there
                raise AssertionError(f"{fn.__name__}({x.flat[bad]!r}) did not raise")
            return out

        return run

    def run_rows(radii: np.ndarray, values: np.ndarray) -> str:
        radii = np.ascontiguousarray(radii, np.float64)
        values = np.ascontiguousarray(values, np.float64)
        _check(radii, (len(radii),), np.float64, writable=False)
        _check(values, (len(radii),), np.float64, writable=False)
        out = np.empty(ROW_BYTES * len(radii), np.uint8)
        size = rows(radii.ctypes.data, values.ctypes.data, len(radii),
                    _pow5_rows().ctypes.data, out.ctypes.data)
        return str(out[:size], "ascii")

    def run_parse(data: bytes, start: int) -> tuple[np.ndarray, np.ndarray] | None:
        if type(data) is not bytes or not 0 <= start <= len(data):
            raise ValueError("the row reader needs a bytes object and an offset inside it")
        pow5 = _pow5_q_rows().ctypes.data
        cols = np.empty((2, parse(data, start, len(data), pow5, None, None)))
        count = parse(data, start, len(data), pow5, cols[0].ctypes.data, cols[1].ctypes.data)
        return None if count < 0 else (cols[0, :count], cols[1, :count])

    return Kernels(run_steps, run_scan, run_dense,
                   libm_map(exp, math.exp), libm_map(log, math.log), run_rows, run_parse)


@functools.cache
def _pow5_rows() -> np.ndarray:
    """The multipliers of the row writer's shortest-digit search (Ryu), as
    (low, high) words of 128-bit integers: first floor(2^(b + 124) / 5^q) + 1
    for q < POW5_INV_ROWS, then 5^i scaled to 125 bits, truncated, for
    i < POW5_ROWS, where b is the bit length of that power of 5."""
    words = []
    for q in range(POW5_INV_ROWS):
        power = 5**q
        words.append((1 << (power.bit_length() + 124)) // power + 1)
    for i in range(POW5_ROWS):
        power = 5**i
        shift = power.bit_length() - 125
        words.append(power >> shift if shift >= 0 else power << -shift)
    return _words128(words)


@functools.cache
def _pow5_q_rows() -> np.ndarray:
    """The multipliers of the row reader (Eisel-Lemire), as (low, high) words
    of 128-bit integers, for q from POW5_Q_MIN on: 5^q scaled to 128 bits and
    truncated where q >= 0; else floor(2^b / 5^-q) + 1, truncated to 128
    bits, with b = z + 127 for q >= -27 and b = 2z + 128 below, where 2^z is
    the least power of two >= 5^-q."""
    words = []
    for q in range(POW5_Q_MIN, POW5_Q_MIN + POW5_Q_ROWS):
        if q >= 0:
            word = 5**q
        else:
            power = 5**-q
            z = (power - 1).bit_length()
            word = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // power + 1
        shift = word.bit_length() - 128
        words.append(word >> shift if shift >= 0 else word << -shift)
    return _words128(words)


def _words128(words: list[int]) -> np.ndarray:
    """128-bit integers as a read-only table of (low, high) uint64 words."""
    low = (1 << 64) - 1
    table = np.array([(w & low, w >> 64) for w in words], dtype=np.uint64)
    table.flags.writeable = False
    return table


def _check(a: np.ndarray, shape: tuple[int, ...], dtype: type, writable: bool = True) -> None:
    # The kernel reads, and writes where writable, these buffers through bare pointers.
    if (a.shape != shape or a.dtype != dtype or not a.flags.c_contiguous
            or (writable and not a.flags.writeable)):
        need = "writable C-contiguous" if writable else "C-contiguous"
        raise ValueError(f"kernel buffer of shape {a.shape} and dtype {a.dtype}, "
                         f"need a {need} {shape} {np.dtype(dtype)}")
