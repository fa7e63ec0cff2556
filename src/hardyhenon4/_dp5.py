"""The compiled kernels of _dp5.c, their loader, and their Python twins.

load() compiles _dp5.c with the C compiler Python was built with into a
shared library cached under ~/.cache/hardyhenon4 (or the system temporary
directory where that is not writable), keyed by the sha256 of the source,
the compiler and the flags, and returns the ten kernels with the
signatures of their Python twins, defined below: _orbits_py, _scan_py,
_dense_py, _energy_py, _audit_py, _exp_py, _log_py, _rows_py, _parse_py
and _grid_py.  The step kernel is the one entry to the Dormand-Prince
step loop: it steps many starts in turn, ends each orbit at its crossing
itself, as _orbits_py's per-orbit loop _steps_py does through _bisect_py,
and writes each orbit's uniform samples as it steps, each a (t, w0..w3)
row: every grid time not past the orbit's end, then the end point.  Every
orbit's samples are packed into one buffer; its segment rows are packed
the same way where the caller keeps them (integrate, one start), else
stepped through a ring (classify, a grid point's draws).  Its wrapper
splits the starts into one share per CPU the process may use, runs each
share's call on a thread of its own, keeps each share's two buffers
between calls up to a size, and returns exact-size copies.  The
dense kernel starts each time's segment search from the previous time's
segment, so a read of times in order walks the segments once.  The audit
kernel runs energy.audit_monotonicity's arithmetic, energies included, in
one pass over the samples and their stencil.  The row writer prints k
double columns as lines of comma-joined repr()s: the rows of a field file,
and each float column of a result table.  The row reader reads the rows
the row writer writes, each cell as float() reads it, and returns None for
any other body; its twin returns None for every body, and np.loadtxt reads
what the reader leaves.  The grid pass gives every (n, alpha, p) of a
grid its exponents, coefficients, regime, sign codes and w* in one call;
its twin loops the scalar path it is given, row(n, alpha, p), and the
compiled wrapper runs that path on the rows its kernel leaves: a triple
whose arithmetic in doubles is not the scalar path's (an int n past 2^52,
which Python adds and divides exactly, or an alpha or p that is no float)
and a NaN n.  load() returns None, without a word, where
anything fails (no compiler, a compile error, a target whose doubles carry
excess precision, no writable cache).  kernels() is the one dispatch
point: the compiled kernels where they load, else the Python twins, which
print the same bytes and refuse the same arrays.  Nothing is compiled, and
no compiler module imported, before the first call.  Nothing is imported
from the package.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

SOURCE = Path(__file__).with_name("_dp5.c")
# No -ffast-math or -march=native: every operation must round as Python's
# float does.  -ffp-contract=off stops fused multiply-adds.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)
COMPILE_TIMEOUT_S = 120

# Statuses of the step loop, as the enum in _dp5.c.  On FULL, a full
# buffer, the step kernel's wrapper resumes into a buffer twice the size.
END, BLOW_UP, NON_POSITIVE, FULL, UNDERFLOW, OVERFLOW = range(6)

# Doubles per dense segment row (see _steps_py), as the enum in _dp5.c.
SEGMENT_COLUMNS = 18

# The lengths of the step loop's st, prm and cnt (see _steps_py), as the
# enum in _dp5.c.
ST_LEN, PRM_LEN, CNT_LEN = 11, 11, 3

# The audit's finite-difference step, and its allowance per energy
# increment: a few ulps of the energy's magnitude, subtracted before an
# increment counts as a violation.  As FD_STEP and ULP_ALLOWANCE in _dp5.c.
FD_STEP = 1e-3
ULP_ALLOWANCE = 4.0 * math.ulp(1.0)

# Rows of a share's first segment buffer, and of the segment ring.
SEGMENT_ROWS = 1024
# The step kernel's wrapper keeps a segment buffer and a (t, w0..w3) sample
# buffer per share of the starts for the calling thread, so a call writes
# into pages already mapped.  A buffer grown past its limit is let go, so
# one very long orbit does not pin it: KEEP_ROWS rows of segments (2.25
# MiB) and KEEP_SHARE_ROWS rows of samples (2.5 MiB, the packed samples of
# a share of a sweep's draws), both below the 4 MiB from which numpy asks
# for huge pages.  A share's first sample buffer has room for one run to
# t1, up to KEEP_ROWS rows.
KEEP_ROWS = 16384
KEEP_SHARE_ROWS = 4 * KEEP_ROWS


class _Share:
    """A share's kept segment and sample buffers, each with its address,
    read once per buffer."""

    __slots__ = ("seg", "seg_at", "smp", "smp_at")

    def __init__(self) -> None:
        self.keep_segments(None)
        self.keep_samples(None)

    def keep_segments(self, seg: np.ndarray | None) -> None:
        self.seg, self.seg_at = seg, 0 if seg is None else _address(seg)

    def keep_samples(self, smp: np.ndarray | None) -> None:
        self.smp, self.smp_at = smp, 0 if smp is None else _address(smp)


class _Buffers(threading.local):
    """A thread's shares, as ctypes lets go of the GIL during a call."""

    def __init__(self) -> None:
        self.shares: list[_Share] = []


_buffers = _Buffers()

# Multiplier rows of the row writer, as the enum in _dp5.c, and the room
# it needs per row of two columns: two 24-byte reprs, a comma and a
# newline; half of that per cell of any row.
POW5_INV_ROWS, POW5_ROWS = 291, 326
ROW_BYTES = 50

# The powers of five of the row reader, as the enum in _dp5.c: 5^q for
# POW5_Q_MIN <= q < POW5_Q_MIN + POW5_Q_ROWS.
POW5_Q_MIN, POW5_Q_ROWS = -342, 651

# Row statuses of the grid pass, as the #defines in _dp5.c: a triple of the
# problem; one ProblemParams refuses; one whose coefficients overflow a
# double; one whose equilibrium overflows; one the kernel leaves to the
# scalar path (which never leaves its wrapper).
ROW_OK, ROW_INVALID, ROW_OVERFLOW, ROW_EQUILIBRIUM_OVERFLOW, ROW_SCALAR = range(5)
# Its regime codes, params' OutOfRange, Subcritical, Critical and
# Supercritical, and its codes and values per row: (status, regime, the
# sign codes of a0, a1 and a3) and (the four exponents, B, a0..a4, w*).
REGIME_OUT_OF_RANGE, REGIME_SUBCRITICAL, REGIME_CRITICAL, REGIME_SUPERCRITICAL = range(4)
GRID_CODES, GRID_VALUES = 5, 11
# Past 2^52 an int n and its double part ways: Python adds and divides
# such ints exactly.
EXACT_N = 2**52

# The row reader's columns are sized by a newline count over slices of
# this many bytes of the file, so the count's temporary stays small.
COUNT_CHUNK = 1 << 16


class Kernels(NamedTuple):
    orbits: Callable[[np.ndarray, np.ndarray, bool],
                     list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]]
    scan: Callable[[float, float, float, float], tuple[float, int]]
    dense: Callable[[np.ndarray, np.ndarray], np.ndarray]
    energy: Callable[[np.ndarray, float, float, float, float, float], np.ndarray]
    audit: Callable[..., tuple[float, float]]
    exp: Callable[[np.ndarray], np.ndarray]
    log: Callable[[np.ndarray], np.ndarray]
    rows: Callable[..., str]
    parse: Callable[[bytes, int], tuple[np.ndarray, np.ndarray] | None]
    grid: Callable[..., tuple[np.ndarray, np.ndarray]]


def kernels() -> Kernels:
    """The compiled kernels where they load, else their Python twins."""
    return load() or _twins()


def _twins() -> Kernels:
    # Looked up per call, so a test can patch a twin.
    return Kernels(_orbits_py, _scan_py, _dense_py, _energy_py, _audit_py, _exp_py, _log_py,
                   _rows_py, _parse_py, _grid_py)


def _cpus() -> int:
    """The number of CPUs this process may run on, read per call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        orbits, scan = dll.hh_orbits, dll.hh_scan
        dense, energy = dll.hh_dense, dll.hh_energy
        audit, exp, log = dll.hh_audit, dll.hh_exp, dll.hh_log
        rows, parse, grid = dll.hh_rows, dll.hh_parse, dll.hh_grid
    # No compiler, no home directory, no os.getuid, a CC that will not
    # split, a library that will not load: each leaves the Python twins.
    except (OSError, RuntimeError, AttributeError, ValueError):
        return None
    orbits.restype = ctypes.c_int64
    orbits.argtypes = ([ctypes.c_void_p] * 2 + [ctypes.c_int64, ctypes.c_int, ctypes.c_void_p,
                                                ctypes.c_int64] + [ctypes.c_void_p] * 3
                       + [ctypes.c_int64])
    scan.restype = ctypes.c_int64
    scan.argtypes = [ctypes.c_double] * 4 + [ctypes.POINTER(ctypes.c_double)]
    dense.restype = None
    dense.argtypes = [ctypes.c_void_p, ctypes.c_int64] * 2 + [ctypes.c_void_p]
    energy.restype = ctypes.c_int
    energy.argtypes = [ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_double] * 5 + [ctypes.c_void_p]
    audit.restype = ctypes.c_int
    audit.argtypes = ([ctypes.c_void_p, ctypes.c_int64, ctypes.c_int, ctypes.c_void_p]
                      + [ctypes.c_int64] * 2 + [ctypes.c_double] * 6
                      + [ctypes.c_int, ctypes.POINTER(ctypes.c_double)])
    for fn in (exp, log):
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    rows.restype = ctypes.c_int64
    rows.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 2
    parse.restype = ctypes.c_int64
    # A bytes argument passes its own buffer, which ends in a NUL.
    parse.argtypes = [ctypes.c_char_p] + [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 3
    grid.restype = None
    grid.argtypes = [ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 2

    # A wrapper raises what its twin raises: the same check refuses the same
    # arrays, and an overflowing w^p or w0^(p+1) raises math's OverflowError.
    #
    # One contiguous share of the starts per CPU, never more shares than
    # starts: the first share steps in the calling thread, each other one on
    # a thread of its own, and ctypes lets go of the GIL during each kernel
    # call.  A share's sample buffer starts with room for one run to t1 and
    # doubles where its orbits need more, so it maps about the pages its
    # samples fill: one sized per start at the span maps a page for every
    # few samples, and a buffer of 4 MiB or more maps huge pages.  Its
    # segment buffer is a ring of SEGMENT_ROWS rows, or, where keep is set,
    # holds its orbits' rows packed and doubles the same way.  The calling
    # thread copies each orbit's rows out at their exact size, into its own
    # heap.
    def run_orbits(st: np.ndarray, prm: np.ndarray, keep: bool):
        _check(st, (len(st), ST_LEN))
        _check(prm, (PRM_LEN,))
        k = len(st)
        if not k:
            return []
        # The cnt rows, then the statuses: zeros in a ctypes array, whose
        # address and values read faster than a numpy array's.
        counts = (ctypes.c_int64 * ((CNT_LEN + 1) * k))()
        st_at, prm_at, cnt_at = _address(st), _address(prm), ctypes.addressof(counts)
        # Room for the samples of a run to t1: the grid, the terminal point
        # and the rounding at t1 that hh_steps' room check allows for.
        rows = min(int(abs(prm.item(0) - prm.item(9)) / prm.item(10)) + 5, KEEP_ROWS)
        shares = min(_cpus(), k) if k > 1 else 1
        kept = _buffers.shares
        while len(kept) < shares:
            kept.append(_Share())
        errors: list[Exception] = []

        def run_share(j: int) -> None:
            a, b = k * j // shares, k * (j + 1) // shares
            share = kept[j]
            if share.seg is None:
                share.keep_segments(np.empty((SEGMENT_ROWS, SEGMENT_COLUMNS)))
            if share.smp is None or len(share.smp) < rows:
                share.keep_samples(np.empty((rows, 5)))
            cap = len(share.seg) if keep else min(len(share.seg), SEGMENT_ROWS)
            i = a  # the first start left to step
            done = used = 0  # the segment and sample rows before it
            try:
                while (i := i + orbits(st_at + 8 * ST_LEN * i, prm_at, b - i, keep,
                                       share.seg_at + 8 * SEGMENT_COLUMNS * done, cap - done,
                                       cnt_at + 8 * CNT_LEN * i, cnt_at + 8 * (CNT_LEN * k + i),
                                       share.smp_at + 40 * used, len(share.smp) - used)) < b:
                    done = sum(counts[CNT_LEN * a : CNT_LEN * i : CNT_LEN])
                    used = sum(counts[CNT_LEN * a + 2 : CNT_LEN * i : CNT_LEN])
                    if counts[CNT_LEN * i] == cap - done:  # never so for a ring
                        share.keep_segments(np.concatenate((share.seg, np.empty_like(share.seg))))
                        cap = len(share.seg)
                    else:
                        share.keep_samples(np.concatenate((share.smp, np.empty_like(share.smp))))
            except Exception as err:  # raised again in the calling thread
                errors.append(err)

        threads = []
        for j in range(1, shares):
            threads.append(threading.Thread(target=run_share, args=(j,)))
            threads[-1].start()
        try:
            run_share(0)
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        out = []
        counted = counts[:]
        for j, share in enumerate(kept[:shares]):
            seg, smp = share.seg, share.smp
            done = used = 0
            for i in range(k * j // shares, k * (j + 1) // shares):
                m, rejected, n = counted[CNT_LEN * i : CNT_LEN * i + CNT_LEN]
                out.append((counted[CNT_LEN * k + i], rejected, smp[used : used + n, 0].copy(),
                            smp[used : used + n, 1:].copy(), seg[done : done + m].copy()))
                done += m
                used += n
            if len(seg) > KEEP_ROWS:
                share.keep_segments(None)
            if len(smp) > KEEP_SHARE_ROWS:
                share.keep_samples(None)
        return out

    def run_scan(seed: float, best_g: float, a0: float, p: float) -> tuple[float, int]:
        best = ctypes.c_double()
        evaluated = scan(seed, best_g, a0, p, ctypes.byref(best))
        if evaluated < 0:
            raise OverflowError("math range error")
        return best.value, evaluated

    def run_dense(segments: np.ndarray, ts: np.ndarray) -> np.ndarray:
        segments, ts = _dense_args(segments, ts)
        out = np.empty((len(ts), 4))
        dense(segments.ctypes.data, len(segments), ts.ctypes.data, len(ts), out.ctypes.data)
        return out

    # The energy of a (4, k) stack reads its transpose's (k, 4) rows, in place
    # where the stack is that of a C-contiguous (k, 4) array: traj.states.T.
    def run_energy(stack: np.ndarray, a0: float, a2: float, a3: float, p: float,
                   measure: float) -> np.ndarray:
        states = _read(np.asarray(stack).T, 4)
        out = np.empty(len(states))
        if energy(states.ctypes.data, len(states), a0, a2, a3, p, measure, out.ctypes.data):
            raise OverflowError("math range error")
        return out

    def run_audit(rows: np.ndarray, backward: bool, stencil: np.ndarray, first: int,
                  a0: float, a1: float, a2: float, a3: float, p: float, measure: float,
                  supercritical: bool) -> tuple[float, float]:
        rows, stencil, m = _audit_args(rows, stencil, first)
        out = (ctypes.c_double * 2)()
        if audit(rows.ctypes.data, len(rows), backward, stencil.ctypes.data, m, first,
                 a0, a1, a2, a3, p, measure, supercritical, out):
            raise OverflowError("math range error")
        return out[0], out[1]

    # The libm maps alone re-run their twin, on the element where the
    # kernel stopped: the error is the element's, a range error for exp
    # and a domain error for log, and math raises it.
    def elementwise(kernel, twin):
        def run(x: np.ndarray) -> np.ndarray:
            x = np.ascontiguousarray(x, np.float64)
            out = np.empty(x.shape)
            bad = kernel(x.ctypes.data, x.size, out.ctypes.data)
            if bad >= 0:
                twin(x.flat[bad : bad + 1])
                raise AssertionError(f"{twin.__name__} of {x.flat[bad]!r} did not raise")
            return out

        return run

    def run_rows(*cols: np.ndarray) -> str:
        cols = _rows_args(cols)
        at = (ctypes.c_void_p * len(cols))(*[c.ctypes.data for c in cols])
        out = np.empty(ROW_BYTES // 2 * len(cols) * len(cols[0]), np.uint8)
        size = rows(at, len(cols), len(cols[0]), _pow5_rows().ctypes.data, out.ctypes.data)
        return str(out[:size], "ascii")

    def run_parse(data: bytes, start: int) -> tuple[np.ndarray, np.ndarray] | None:
        _parse_args(data, start)
        # Every row but the last ends in a newline.
        body = np.frombuffer(data, np.uint8)
        lines = 1 + sum(int(np.count_nonzero(body[i : i + COUNT_CHUNK] == 10))
                        for i in range(start, len(data), COUNT_CHUNK))
        cols = np.empty((2, lines))
        count = parse(data, start, len(data), _pow5_q_rows().ctypes.data,
                      cols[0].ctypes.data, cols[1].ctypes.data)
        return None if count < 0 else (cols[0, :count], cols[1, :count])

    def run_grid(triples, row) -> tuple[np.ndarray, np.ndarray]:
        at = _grid_args(triples)
        codes = np.empty((len(at), GRID_CODES), np.int64)
        values = np.empty((len(at), GRID_VALUES))
        grid(at.ctypes.data, len(at), codes.ctypes.data, values.ctypes.data)
        for i in np.flatnonzero(codes[:, 0] == ROW_SCALAR).tolist():
            codes[i], values[i] = row(*triples[i])[:2]
        return codes, values

    return Kernels(run_orbits, run_scan, run_dense, run_energy, run_audit,
                   elementwise(exp, _exp_py), elementwise(log, _log_py), run_rows, run_parse,
                   run_grid)


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


def _check(a: np.ndarray, shape: tuple[int, ...]) -> None:
    # st and prm as the step kernel reads and writes them in place, through
    # bare pointers; run_orbits and _orbits_py refuse any other alike.
    if (a.shape != shape or a.dtype != np.float64 or not a.flags.c_contiguous
            or not a.flags.writeable):
        raise ValueError(f"kernel buffer of shape {a.shape} and dtype {a.dtype}, "
                         f"need a writable C-contiguous {shape} float64")


def _address(a: np.ndarray) -> int:
    # The address of a writable, C-contiguous and nonempty array's data:
    # through a ctypes view of its first byte, a third of the time a
    # .ctypes.data read takes.
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _read(a, *tail: int) -> np.ndarray:
    # a as C-contiguous doubles of shape (len(a), *tail), or a ValueError.  A
    # wrapper and its twin make the same check below, so both refuse alike.
    a = np.ascontiguousarray(a, np.float64)
    if a.shape != (len(a), *tail):
        raise ValueError(f"kernel buffer of shape {a.shape}, need {(len(a), *tail)}")
    return a


def _dense_args(segments, ts) -> tuple[np.ndarray, np.ndarray]:
    segments, ts = _read(segments, SEGMENT_COLUMNS), _read(ts)
    if not len(segments):
        raise ValueError("trajectory carries no dense segments")
    return segments, ts


def _audit_args(rows, stencil, first: int) -> tuple[np.ndarray, np.ndarray, int]:
    # k rows of 4, the 2m stencil rows of 4 of m samples from the first-th, and m.
    rows, stencil = _read(rows, 4), _read(stencil, 4)
    m = len(stencil) / 2
    if m % 1 or not 0 <= first <= first + m <= len(rows):
        raise ValueError(f"{m:.15g} stencil samples from sample {first} of {len(rows)}")
    return rows, stencil, int(m)


def _parse_args(data, start: int) -> None:
    if type(data) is not bytes or not 0 <= start <= len(data):
        raise ValueError("the row reader needs a bytes object and an offset inside it")


def _grid_args(triples) -> np.ndarray:
    # The k triples (n, alpha, p) as a (k, 3) array of doubles, NaNs for a
    # triple whose arithmetic in doubles is not the scalar path's: an alpha
    # or p that is no float, or an n that is neither a float nor an int
    # within EXACT_N of 0.  The kernel leaves a NaN n to the scalar path.
    at = np.array([(n, alpha, p) if _exact(n, alpha, p) else (math.nan,) * 3
                   for n, alpha, p in triples], np.float64)
    return _read(at if len(at) else at.reshape(0, 3), 3)


def _exact(n, alpha, p) -> bool:
    return (type(alpha) is float and type(p) is float
            and (type(n) is float or type(n) is int and -EXACT_N <= n <= EXACT_N))


def _rows_args(cols) -> list[np.ndarray]:
    cols = [_read(c) for c in cols]
    if len({len(c) for c in cols}) != 1:
        raise ValueError(f"the row writer needs columns of one length, not {list(map(len, cols))}")
    return cols


# The Python twins: the kernels where _dp5.c does not build, and the
# oracles its tests compare the compiled kernels against.


# Dormand-Prince 5(4) tableau; the flow is autonomous, so the nodes c_i
# never enter.
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
# Difference between the 5th- and 4th-order solutions (error estimator).
_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


# Cubic Hermite evaluation of one step's dense segment (ta, tb, ya[0..3],
# yb[0..3], fa[0..3], fb[0..3]) at a float t, or of 18 segment columns at
# an equal-length array t: numpy rounds like Python floats, so bits agree.
# hermite in _dp5.c is this formula in C.
def _hermite(t, seg):
    ta, tb, ya0, ya1, ya2, ya3, yb0, yb1, yb2, yb3, fa0, fa1, fa2, fa3, fb0, fb1, fb2, fb3 = seg
    h = tb - ta
    s = (t - ta) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = (s3 - 2.0 * s2 + s) * h
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = (s3 - s2) * h
    return (
        h00 * ya0 + h10 * fa0 + h01 * yb0 + h11 * fb0,
        h00 * ya1 + h10 * fa1 + h01 * yb1 + h11 * fb1,
        h00 * ya2 + h10 * fa2 + h01 * yb2 + h11 * fb2,
        h00 * ya3 + h10 * fa3 + h01 * yb3 + h11 * fb3,
    )


def _bisect_py(seg: tuple, level: float) -> tuple[float, tuple]:
    """Locate w0 == level inside one dense segment row by bisection: the
    crossing time and the 4-jet there.  bisect in _dp5.c is this loop in C."""
    lo, hi = seg[0], seg[1]
    flo = seg[2] - level
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = _hermite(mid, seg)[0] - level
        if fmid == 0.0:
            lo = hi = mid
            break
        if (fmid > 0.0) == (flo > 0.0):
            lo = mid
            flo = fmid
        else:
            hi = mid
    tc = 0.5 * (lo + hi)
    return tc, _hermite(tc, seg)


def _steps_py(st: np.ndarray, prm: np.ndarray):
    """_orbits_py's per-orbit adaptive loop: a status, the (m, 18)
    rows of the accepted steps, the number of rejected steps, and the
    orbit's uniform samples, their (k,) times and (k, 4) states.

    st (ST_LEN, updated in place) holds t, y0..y3, the field at y, h and
    err_prev; prm (PRM_LEN) holds t1, rtol, atol, p, a0..a3, the blow-up
    threshold, t0 and the sample spacing; the direction sgn is that from
    t0 to t1.  The status is END at t1; BLOW_UP or NON_POSITIVE after the
    step whose w crossed the threshold or 0.0, with st[:5] moved back to
    the crossing in that step's row (_bisect_py) and w clamped at 0.0 on a
    zero crossing; or UNDERFLOW when the step collapses at st[0].  An
    overflowing w^p raises OverflowError.

    The samples are (t, y0..y3) rows, the layout of st[:5]: every grid
    time not past the orbit's end, then the end point, as uniform_times
    and analytic_trajectory in dynamics.py take them.  Sample k, at t0 +
    (sgn k) spacing, holds the initial state for k = 0, else the Hermite
    value in the first step whose end is at or past it, as _dense_py reads
    it; the end point (t_end, y), t_end the orbit's last t, follows unless
    the last grid sample is at t_end.  Each accepted step writes the
    samples it holds; the orbit's end drops those a crossing step wrote
    past t_end.  hh_steps in _dp5.c is this loop in C.
    """
    t, y0, y1, y2, y3, k10, k11, k12, k13, h, err_prev = st.tolist()
    t1, rtol, atol, p, a0, a1, a2, a3, blowup_threshold, t0, spacing = prm.tolist()
    sgn = 1.0 if t1 > t0 else -1.0
    rows: list[tuple] = []
    rejected = 0
    status = END
    samples = [(t0 + sgn * 0 * spacing, y0, y1, y2, y3)]

    # The step below is the Dormand-Prince tableau written out per stage
    # and per component, with the right-hand side inlined: k<s><j> is
    # component j of stage s, u is component 0 of the stage state (its
    # components 1..3 are k<s>0..k<s>2).  Every tableau sum keeps the
    # left-to-right order, the leading 0.0 and the zero weights of
    # sum(_A[i][m] * k[m][j] for m in range(i)), so each rounding, and the
    # sign of each zero, is that of the generic stepper over the tableau
    # that tests/test_dynamics.py keeps as the reference.
    exp, log, isfinite = math.exp, math.log, math.isfinite
    _, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (
        a61, a62, a63, a64, a65) = _A
    b1, b2, b3, b4, b5, b6 = _B5
    e1, e2, e3, e4, e5, e6, e7 = _E

    while sgn * (t1 - t) > 0.0:
        h = min(h, abs(t1 - t))
        if h < 1e-13 * max(1.0, abs(t)):
            status = UNDERFLOW
            break
        hs = sgn * h
        u = y0 + hs * (0.0 + a21 * k10)
        k20 = y1 + hs * (0.0 + a21 * k11)
        k21 = y2 + hs * (0.0 + a21 * k12)
        k22 = y3 + hs * (0.0 + a21 * k13)
        k23 = (exp(p * log(u)) if u > 0.0 else 0.0) - a3 * k22 - a2 * k21 - a1 * k20 - a0 * u

        u = y0 + hs * (0.0 + a31 * k10 + a32 * k20)
        k30 = y1 + hs * (0.0 + a31 * k11 + a32 * k21)
        k31 = y2 + hs * (0.0 + a31 * k12 + a32 * k22)
        k32 = y3 + hs * (0.0 + a31 * k13 + a32 * k23)
        k33 = (exp(p * log(u)) if u > 0.0 else 0.0) - a3 * k32 - a2 * k31 - a1 * k30 - a0 * u

        u = y0 + hs * (0.0 + a41 * k10 + a42 * k20 + a43 * k30)
        k40 = y1 + hs * (0.0 + a41 * k11 + a42 * k21 + a43 * k31)
        k41 = y2 + hs * (0.0 + a41 * k12 + a42 * k22 + a43 * k32)
        k42 = y3 + hs * (0.0 + a41 * k13 + a42 * k23 + a43 * k33)
        k43 = (exp(p * log(u)) if u > 0.0 else 0.0) - a3 * k42 - a2 * k41 - a1 * k40 - a0 * u

        u = y0 + hs * (0.0 + a51 * k10 + a52 * k20 + a53 * k30 + a54 * k40)
        k50 = y1 + hs * (0.0 + a51 * k11 + a52 * k21 + a53 * k31 + a54 * k41)
        k51 = y2 + hs * (0.0 + a51 * k12 + a52 * k22 + a53 * k32 + a54 * k42)
        k52 = y3 + hs * (0.0 + a51 * k13 + a52 * k23 + a53 * k33 + a54 * k43)
        k53 = (exp(p * log(u)) if u > 0.0 else 0.0) - a3 * k52 - a2 * k51 - a1 * k50 - a0 * u

        u = y0 + hs * (0.0 + a61 * k10 + a62 * k20 + a63 * k30 + a64 * k40 + a65 * k50)
        k60 = y1 + hs * (0.0 + a61 * k11 + a62 * k21 + a63 * k31 + a64 * k41 + a65 * k51)
        k61 = y2 + hs * (0.0 + a61 * k12 + a62 * k22 + a63 * k32 + a64 * k42 + a65 * k52)
        k62 = y3 + hs * (0.0 + a61 * k13 + a62 * k23 + a63 * k33 + a64 * k43 + a65 * k53)
        k63 = (exp(p * log(u)) if u > 0.0 else 0.0) - a3 * k62 - a2 * k61 - a1 * k60 - a0 * u

        # The 5th-order solution; its derivative is stage 7 (first same as last).
        n0 = y0 + hs * (0.0 + b1 * k10 + b2 * k20 + b3 * k30 + b4 * k40 + b5 * k50 + b6 * k60)
        n1 = y1 + hs * (0.0 + b1 * k11 + b2 * k21 + b3 * k31 + b4 * k41 + b5 * k51 + b6 * k61)
        n2 = y2 + hs * (0.0 + b1 * k12 + b2 * k22 + b3 * k32 + b4 * k42 + b5 * k52 + b6 * k62)
        n3 = y3 + hs * (0.0 + b1 * k13 + b2 * k23 + b3 * k33 + b4 * k43 + b5 * k53 + b6 * k63)
        # Stage 7 comes before the finiteness check, as in the generic stepper:
        # exp raises OverflowError when a finite n0 is huge.
        k70, k71, k72 = n1, n2, n3
        k73 = (exp(p * log(n0)) if n0 > 0.0 else 0.0) - a3 * n3 - a2 * n2 - a1 * n1 - a0 * n0
        if not (isfinite(n0) and isfinite(n1) and isfinite(n2) and isfinite(n3)):
            h *= 0.25
            rejected += 1
            continue

        # RMS over components of err / (atol + rtol max(|y|, |y_new|)).
        q0 = hs * (0.0 + e1 * k10 + e2 * k20 + e3 * k30 + e4 * k40 + e5 * k50 + e6 * k60
                   + e7 * k70) / (atol + rtol * max(abs(y0), abs(n0)))
        q1 = hs * (0.0 + e1 * k11 + e2 * k21 + e3 * k31 + e4 * k41 + e5 * k51 + e6 * k61
                   + e7 * k71) / (atol + rtol * max(abs(y1), abs(n1)))
        q2 = hs * (0.0 + e1 * k12 + e2 * k22 + e3 * k32 + e4 * k42 + e5 * k52 + e6 * k62
                   + e7 * k72) / (atol + rtol * max(abs(y2), abs(n2)))
        q3 = hs * (0.0 + e1 * k13 + e2 * k23 + e3 * k33 + e4 * k43 + e5 * k53 + e6 * k63
                   + e7 * k73) / (atol + rtol * max(abs(y3), abs(n3)))
        norm = math.sqrt((0.0 + q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3) / 4.0)
        if norm > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * norm**-0.2)
            rejected += 1
            continue

        tn = t + hs
        row = (t, tn, y0, y1, y2, y3, n0, n1, n2, n3, k10, k11, k12, k13, k70, k71, k72, k73)
        rows.append(row)
        t, y0, y1, y2, y3 = tn, n0, n1, n2, n3
        k10, k11, k12, k13 = k70, k71, k72, k73
        while sgn * (tk := t0 + sgn * len(samples) * spacing) <= sgn * tn:
            samples.append((tk, *_hermite(tk, row)))

        if y0 > blowup_threshold:
            status = BLOW_UP
            t, (y0, y1, y2, y3) = _bisect_py(rows[-1], blowup_threshold)
            break
        if y0 < 0.0:
            status = NON_POSITIVE
            t, (y0, y1, y2, y3) = _bisect_py(rows[-1], 0.0)
            y0 = max(y0, 0.0)
            break

        if norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * norm**-_PI_ALPHA * err_prev**_PI_BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = norm
        h *= factor

    st[:] = (t, y0, y1, y2, y3, k10, k11, k12, k13, h, err_prev)
    while sgn * samples[-1][0] > sgn * t:
        del samples[-1]
    if samples[-1][0] != t:
        samples.append((t, y0, y1, y2, y3))
    smp = np.array(samples)
    return (status, np.array(rows).reshape(-1, SEGMENT_COLUMNS), rejected, smp[:, 0].copy(),
            smp[:, 1:].copy())


def _orbits_py(st: np.ndarray, prm: np.ndarray, keep: bool):
    """_steps_py from each (ST_LEN,) row of st, updated in place, to the one
    prm: per start, its status, the number of rejected steps, its samples'
    (k,) times and (k, 4) states, and its (m, 18) segment rows where keep is
    set, else none.  A start whose w^p overflows gets the status OVERFLOW,
    no rejected step, no sample and no segment row, and the next start goes
    on.  hh_orbits in _dp5.c runs hh_steps this way."""
    _check(st, (len(st), ST_LEN))
    _check(prm, (PRM_LEN,))
    out = []
    for row in st:
        try:
            status, seg, rejected, times, states = _steps_py(row, prm)
        except OverflowError:
            status, seg, rejected, times, states = OVERFLOW, None, 0, np.empty(0), np.empty((0, 4))
        if not keep or seg is None:
            seg = np.empty((0, SEGMENT_COLUMNS))
        out.append((status, rejected, times, states, seg))
    return out


# The rings of fixed_points' scan double from SCAN_FIRST_RING ulps to
# SCAN_WINDOW, the window's radius; its stop rule allows libm's exp and
# log, and the pow behind the seed, SCAN_LIBM_ULPS ulps of error.  As the
# enum in _dp5.c.
SCAN_FIRST_RING, SCAN_WINDOW, SCAN_LIBM_ULPS = 16, 2048, 4


def _scan_bound(seed: float, a0: float, p: float) -> tuple[float, float]:
    # The stop rule of the scan around seed = a0 ** (1/(p-1)): no ulp w of
    # the window with k * tau > best_g + c, tau = |w - seed| / max(w, seed),
    # has a computed residual at or below best_g.  (0.0, 0.0), which closes
    # nothing, outside the range the rule covers.  scan_bound in _dp5.c is
    # this function in C, and derives it.
    scale = a0 * seed
    if not (p > 1.0 and 2.0 ** -1000 <= seed <= 2.0 ** 1000
            and 2.0 ** -1000 <= scale <= 2.0 ** 1000):
        return 0.0, 0.0
    n, u = SCAN_LIBM_ULPS, 2.0 ** -53
    e = math.frexp(seed)[1]
    big_l = max(e, 1 - e) * 0.6932
    rho = 3.0 * u * (big_l + 1.0) + 2.0 * n * u
    z = (p - 1.0) * (2.0 ** -40 + rho)
    d = p * big_l * (2 * n + 1) * u * (1.0 + 4 * n * u)
    if not (z < 2.0 ** -20 and d < 2.0 ** -20):
        return 0.0, 0.0
    return ((p - 1.0) * scale * (1.0 - 1e-5),
            ((p - 1.0) * rho + (2 * n + 1) * u + d) * scale * (1.0 + 1e-5))


def _scan_py(seed: float, best_g: float, a0: float, p: float) -> tuple[float, int]:
    # The ring scan of fixed_points around seed = a0 ** (1/(p-1)), whose
    # residual is best_g: the snapped w and the number of ulps evaluated,
    # the seed included.  hh_scan in _dp5.c is this loop in C.
    exp, log, nextafter, inf = math.exp, math.log, math.nextafter, math.inf
    best_w, best_d = seed, 0.0
    lo = hi = seed  # the last ulp scanned below and above the seed
    below = above = 0  # the number of ulps scanned below and above it
    k, c = _scan_bound(seed, a0, p)
    ring = SCAN_FIRST_RING
    while ring <= SCAN_WINDOW:
        # Below the seed the window ends at 0.0: nothing is left there.
        if (
            best_g == 0.0
            and (lo == 0.0 or best_d < seed - nextafter(lo, 0.0))
            and best_d < nextafter(hi, inf) - seed
        ):
            break
        # A side whose next ulp is past the bound is closed, and stays so:
        # best_g only falls.  The distances are exact (Sterbenz); on a tie
        # in residual and distance the lower w wins, hence <= below and <
        # above.
        if not k * ((seed - nextafter(lo, 0.0)) / seed) > best_g + c:
            for _ in range(ring - below):
                lo = nextafter(lo, 0.0)
                g = abs((exp(p * log(lo)) if lo > 0.0 else 0.0) - a0 * lo)
                if g <= best_g and (g < best_g or seed - lo <= best_d):
                    best_w, best_g, best_d = lo, g, seed - lo
            below = ring
        if not k * ((nextafter(hi, inf) - seed) / nextafter(hi, inf)) > best_g + c:
            for _ in range(ring - above):
                hi = nextafter(hi, inf)
                try:
                    g = abs(exp(p * log(hi)) - a0 * hi)
                except OverflowError:
                    continue
                if g <= best_g and (g < best_g or hi - seed < best_d):
                    best_w, best_g, best_d = hi, g, hi - seed
            above = ring
        ring *= 2
    return best_w, 1 + below + above


def _dense_py(segments: np.ndarray, ts: np.ndarray) -> np.ndarray:
    # The (len(ts), 4) dense output of the segment rows at the 1-D ts: the
    # first step ending at or past t holds it; a t within covers()'s slack
    # past the last end falls to the last step.  hh_dense in _dp5.c is
    # this function in C.
    segments, ts = _dense_args(segments, ts)
    sgn = -1.0 if segments[0, 1] < segments[0, 0] else 1.0
    i = np.searchsorted(sgn * segments[:, 1], sgn * ts)
    return np.stack(_hermite(ts, segments[np.minimum(i, len(segments) - 1)].T), axis=1)


def _energy_py(stack: np.ndarray, a0: float, a2: float, a3: float, p: float,
               measure: float) -> np.ndarray:
    # energy.energy of a (4, k) stack of states, through the w^q map: the
    # measure times e = w3 w1 - w2^2/2 + a3 w2 w1 + a2 w1^2/2 + a0 w0^2/2
    # - w0^(p+1)/(p+1).  hh_energy in _dp5.c is this expression in C, in
    # one pass.
    w0, w1, w2, w3 = _read(np.asarray(stack).T, 4).T
    bracket = (
        w3 * w1
        - 0.5 * w2 * w2
        + a3 * w2 * w1
        + 0.5 * a2 * w1 * w1
        + 0.5 * a0 * w0 * w0
        - _wpow_py(w0, p + 1.0) / (p + 1.0)
    )
    return measure * bracket


def _audit_py(rows: np.ndarray, backward: bool, stencil: np.ndarray, first: int,
              a0: float, a1: float, a2: float, a3: float, p: float, measure: float,
              supercritical: bool) -> tuple[float, float]:
    """The monotonicity audit of energy.audit_monotonicity: (max_violation,
    rate_mismatch) of the (k, 4) sample rows, stored with t decreasing
    where backward is set, and of their stencil: the dense output at t +
    FD_STEP of the m samples from the first-th in increasing t on, then at
    t - FD_STEP of the same.  hh_audit in _dp5.c is this arithmetic in C."""
    rows, stencil, m = _audit_args(rows, stencil, first)
    # the law is stated for increasing t
    states = rows[::-1] if backward else rows
    evals = _energy_py(states.T, a0, a2, a3, p, measure)
    ea, eb = evals[:-1], evals[1:]
    inc = -(eb - ea) if supercritical else (eb - ea)
    allowance = ULP_ALLOWANCE * np.maximum(np.maximum(np.abs(ea), np.abs(eb)), 1.0)
    max_violation = float(np.max(inc - allowance, initial=0.0))

    plus, minus = stencil[:m].T, stencil[m:].T
    fd = (_energy_py(plus, a0, a2, a3, p, measure)
          - _energy_py(minus, a0, a2, a3, p, measure)) / (2.0 * FD_STEP)
    _, w1, w2, _ = states[first : first + m].T
    rate = measure * (a3 * w2 * w2 - a1 * w1 * w1)
    mismatch = float(np.max(np.abs(fd - rate) / (1.0 + np.abs(rate)), initial=0.0))
    return max_violation, mismatch


def _exp_py(x: np.ndarray) -> np.ndarray:
    # math.exp at each element; hh_exp in _dp5.c is this map in C.
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _log_py(x: np.ndarray) -> np.ndarray:
    # math.log at each element; hh_log in _dp5.c is this map in C.
    return np.fromiter(map(math.log, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _wpow_py(w: np.ndarray, q: float) -> np.ndarray:
    # w^q = exp(q log w) where w > 0, else 0, of an array, through the libm
    # maps: the formula of dynamics._wpow, on the Python twins.
    pos = w > 0.0
    return _exp_py(q * _log_py(np.where(pos, w, 1.0))) * pos


def _rows_py(*cols: np.ndarray) -> str:
    """The lines of the k >= 1 double columns: row i's cells, each repr()
    of its double, joined by commas.  hh_rows in _dp5.c writes the same
    bytes."""
    line = ",".join(["{!r}"] * len(cols)) + "\n"
    return "".join(map(line.format, *[c.tolist() for c in _rows_args(cols)]))


def _parse_py(data: bytes, start: int) -> None:
    """The Python twin of hh_parse reads no body: where the kernels are not
    compiled, np.loadtxt reads every field file."""
    _parse_args(data, start)


def _grid_py(triples, row) -> tuple[np.ndarray, np.ndarray]:
    """The (k, GRID_CODES) codes and (k, GRID_VALUES) values of the k triples
    (n, alpha, p), each row as row(n, alpha, p)[:2] gives it: the scalar
    path of record, in experiments.  hh_grid in _dp5.c is that path in C
    for the triples _grid_args reads as doubles."""
    _grid_args(triples)
    out = [row(*t)[:2] for t in triples]
    return (np.array([c for c, _ in out], np.int64).reshape(-1, GRID_CODES),
            np.array([v for _, v in out], np.float64).reshape(-1, GRID_VALUES))
