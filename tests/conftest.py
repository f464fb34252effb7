import importlib
import os
import pkgutil

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
