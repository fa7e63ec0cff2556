import contextlib
import importlib.util
import signal
import sys
from pathlib import Path

import pytest

from hardyhenon4 import _dp5


class DeadlineExceeded(Exception):
    """Raised into a test whose code is still running at its deadline.

    Not an OSError or ValueError, so the CLI's exit-status mapping cannot
    turn it into an ordinary error exit.
    """


@pytest.fixture
def deadline():
    """deadline(seconds) guards a block that must return, not hang.

    Where the platform has no SIGALRM (Windows) the block runs unguarded:
    it is still checked, only a hang would stall the suite.
    """

    @contextlib.contextmanager
    def guard(seconds: int):
        if not hasattr(signal, "SIGALRM"):
            yield
            return

        def expire(signum, frame):
            raise DeadlineExceeded(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return guard


@pytest.fixture
def kernel_paths(monkeypatch):
    """kernel_paths() yields "compiled" where _dp5.c builds, then "python":
    until the next name, every kernel of _dp5 runs on that path."""

    def paths():
        if _dp5.load() is not None:
            yield "compiled"
        monkeypatch.setattr(_dp5, "load", lambda: None)
        yield "python"

    return paths


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's perfbench/workloads.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks the module up in sys.modules while the body runs.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module
