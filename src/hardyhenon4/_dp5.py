"""Loader of the compiled kernels in _dp5.c, built on first use.

load() compiles _dp5.c with the C compiler Python was built with into a
shared library cached under ~/.cache/hardyhenon4 (or the system temporary
directory where that is not writable), keyed by the sha256 of the source,
the compiler and the flags, and returns the two kernels with the
signatures of dynamics._steps_py and dynamics._scan_py.  It returns None,
without a word, where anything fails (no compiler, a compile error, a
target whose doubles carry excess precision, no writable cache), and
dynamics then runs the Python loops, which print the same bytes.  Nothing
is compiled, and no compiler module imported, before the first call.
"""

from __future__ import annotations

import ctypes
import functools
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
# reports an overflowing w^p as OVERFLOW; its wrapper raises the
# OverflowError that math.exp raises in the Python loop.
END, BLOW_UP, NON_POSITIVE, FULL, UNDERFLOW, OVERFLOW = range(6)


class Kernels(NamedTuple):
    steps: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int]
    scan: Callable[[float, float, float, float], tuple[float, int]]


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
        steps, scan = dll.hh_steps, dll.hh_scan
    # No compiler, no home directory, no os.getuid, a CC that will not
    # split, a library that will not load: each leaves the Python loops.
    except (OSError, RuntimeError, AttributeError, ValueError):
        return None
    steps.restype = ctypes.c_int
    steps.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64, ctypes.c_void_p]
    scan.restype = ctypes.c_int64
    scan.argtypes = [ctypes.c_double] * 4 + [ctypes.POINTER(ctypes.c_double)]

    def run_steps(st: np.ndarray, prm: np.ndarray, seg: np.ndarray, cnt: np.ndarray) -> int:
        _check(st, (11,), np.float64)
        _check(prm, (10,), np.float64)
        _check(seg, (len(seg), 18), np.float64)
        _check(cnt, (2,), np.int64)
        status = steps(st.ctypes.data, prm.ctypes.data, seg.ctypes.data, len(seg), cnt.ctypes.data)
        if status == OVERFLOW:
            raise OverflowError("math range error")
        return status

    def run_scan(seed: float, best_g: float, a0: float, p: float) -> tuple[float, int]:
        best = ctypes.c_double()
        evaluated = scan(seed, best_g, a0, p, ctypes.byref(best))
        if evaluated < 0:
            raise OverflowError("math range error")
        return best.value, evaluated

    return Kernels(run_steps, run_scan)


def _check(a: np.ndarray, shape: tuple[int, ...], dtype: type) -> None:
    # The kernel reads and writes these buffers through bare pointers.
    if a.shape != shape or a.dtype != dtype or not a.flags.c_contiguous or not a.flags.writeable:
        raise ValueError(f"kernel buffer of shape {a.shape} and dtype {a.dtype}, "
                         f"need a writable C-contiguous {shape} {np.dtype(dtype)}")
