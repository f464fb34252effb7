import os

import pytest


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
