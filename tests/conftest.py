import contextlib
import signal

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
