"""Suite-wide checks."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a live child process behind.

    double_chain forks a lane for large chains and must kill and reap it
    on every way out; a leaked lane would spin on a core until the suite
    ends.  Children that have already exited are reaped here.
    """
    yield
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no children at all
            return
        assert pid != 0, "the test left a live child process"
