import importlib
import os
import pkgutil
import signal

import pytest
from hypothesis import Phase, settings

import isogeo

# A failing property test reports its first failure, shrunk, and nothing
# more.  Errors raised in generated kernels carry line numbers that vary
# with the example; Hypothesis would count each line as a distinct bug and
# shrink each in turn, for up to five minutes, while its explain phase
# traced every step.  A defect in the row kernel so grew one test process
# past a gigabyte instead of failing in seconds.
settings.register_profile(
    "fail-fast", report_multiple_bugs=False, phases=[p for p in Phase if p is not Phase.explain]
)
settings.load_profile("fail-fast")

# Hypothesis draws a share of its values from the constants in the source of
# the project's modules loaded at the time, and a derandomized test so drew
# other examples after a test that had loaded more of them.  Every module of
# the package is loaded here, so that each test draws the same examples
# whatever ran before it.
for module in pkgutil.iter_modules(isogeo.__path__):
    if module.name != "__main__":
        importlib.import_module(f"isogeo.{module.name}")


# Far above the slowest test, about 5 s on a 2-vCPU VM.
TEST_TIME_LIMIT = 120.0


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than TEST_TIME_LIMIT seconds, such as one
    that waits for a pipe no process will close, and go on with the next.
    The limit is a real-time interval timer (SIGALRM), which forked children
    do not inherit.  Not faulthandler's timeout: its watchdog thread would
    make ``forkmap.worker_count`` return 1, so the fork tests would not fork."""

    def expired(signum, frame):
        pytest.fail(f"the test ran longer than {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process unreaped, such as a forked
    ``curvature`` worker: after each test this process has no children."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (waitpid gave pid {pid})")
