"""Forked lanes: whether this process may fork one now, the fork that
gives it a CPU of its own, and split, which shares a list of independent
items between this process and a lane.

A lane is a child process that computes one share of a result while its
caller computes the rest: half of each doubling step (mont_curve) or
every other sieving prime (sieve).  A lane costs a fork, so each caller
opens one only above a measured size, and only where lane_obstacle finds
nothing in the way (search's pool, which forks too, asks it as well):

  * os.fork exists;
  * at least two CPUs are usable, read anew at each call, so a process
    pinned to one CPU opens no further lane;
  * the process has one thread, since the child could inherit a lock
    that another thread holds and hang on it;
  * multiprocessing did not start the process, as it starts a pool
    worker, whose siblings hold the other cores.  multiprocessing is
    looked up in sys.modules, never imported: a process that has not
    loaded it was not started by it;
  * the process is not a lane and has none open, so lanes never nest,
    whether or not the CPU pins below took hold.

In a fresh process the kernel often forks the child onto the caller's
CPU and leaves it there, and then both run on one CPU for the whole
computation.  So where os.sched_setaffinity exists, Lane pins the caller
to the CPU it last ran on and the child to the next usable CPU, and
restores the caller's CPU mask on every way out.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import signal
import sys
import threading
from collections.abc import Callable, Sequence
from typing import TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

# Whether this process is a lane or has one open.  Lane sets it before
# the fork, so the child inherits it, and the caller clears it on exit.
_in_lane = False


class LaneLost(RuntimeError):
    """A lane ended before it delivered its share, or sent a malformed one."""


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def lane_obstacle() -> str | None:
    """Why this process may not fork a lane now, or None."""
    if not hasattr(os, "fork"):
        return "os.fork is missing"
    if usable_cpus() < 2:
        return "only one usable CPU"
    if threading.active_count() != 1:
        return "a second thread is running"
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return "multiprocessing started this process"
    if _in_lane:
        return "this process is a lane, or has one open"
    return None


def _last_cpu() -> int | None:
    """The CPU this process last ran on, from /proc/self/stat, or None."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _pin(cpus: set[int]) -> None:
    # a CPU set that changed meanwhile only leaves the lane unplaced
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


class Lane:
    """A child process, forked on entry, that runs body() on its own CPU.

    The child leaves only through os._exit, with status 0 once body()
    has returned and 1 if it raised, so it never flushes stdio buffers
    or runs exit handlers that it inherited.  On exit from the with
    block the child is killed, unless done() or wait() has reaped it
    already, and reaped, and the caller's CPU mask is restored.  Until
    then lane_obstacle refuses a further lane, in the child as well.
    """

    def __init__(self, body: Callable[[], object]) -> None:
        self._body = body
        self._mask: set[int] | None = None
        self._pid = 0
        self._status: int | None = None  # waitpid status, once reaped

    def __enter__(self) -> "Lane":
        global _in_lane
        there = None
        if hasattr(os, "sched_setaffinity"):
            self._mask = os.sched_getaffinity(0)
            cpus = sorted(self._mask)
            here = _last_cpu()
            i = cpus.index(here) if here in self._mask else 0
            there = {cpus[(i + 1) % len(cpus)]}
            _pin({cpus[i]})
        _in_lane = True
        try:
            self._pid = os.fork()
        except BaseException:
            self._restore()
            raise
        if self._pid == 0:
            status = 1
            try:
                if there is not None:
                    _pin(there)
                self._body()
                status = 0
            finally:
                os._exit(status)
        return self

    def done(self) -> bool:
        """Whether the child has ended, reaping it if so; never blocks."""
        if self._status is None:
            pid, status = os.waitpid(self._pid, os.WNOHANG)
            if pid:
                self._status = status
        return self._status is not None

    def wait(self) -> int:
        """The child's exit code, waiting for it to end; -N after signal N."""
        if self._status is None:
            self._status = os.waitpid(self._pid, 0)[1]
        return os.waitstatus_to_exitcode(self._status)

    def __exit__(self, *exc) -> None:
        try:
            if self._status is None:
                os.kill(self._pid, signal.SIGKILL)
                self._status = os.waitpid(self._pid, 0)[1]
        finally:
            self._restore()

    def _restore(self) -> None:
        global _in_lane
        _in_lane = False
        if self._mask is not None:
            _pin(self._mask)


def split(work: Callable[[Sequence], _T], items: Sequence,
          dump: Callable[[_T], object],
          rebuild: Callable[[object], _R]) -> tuple[_T, _R]:
    """work(items[::2]) in this process and work(items[1::2]) in a Lane,
    computed at the same time.

    The lane sends dump(work(items[1::2])) through a pipe in one marshal
    message, so dump must return values that marshal writes; bytes-like
    ones, such as a bytearray or an array, arrive as bytes.  This process
    runs its share, then blocks on the pipe until the lane has sent all
    and exited.  rebuild turns the lane's message back into what work
    returns and raises ValueError or TypeError on one of the wrong shape.
    A lane that exits nonzero, or sends a message that marshal cannot
    read or that rebuild rejects, raises LaneLost: no partial result is
    returned.  A lane whose caller was killed runs its share to the end
    and exits when it finds the pipe closed.
    """
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as inbox, open(write_fd, "wb") as outbox:
        def lane() -> None:
            outbox.write(marshal.dumps(dump(work(items[1::2]))))
            outbox.flush()

        with Lane(lane) as other:
            outbox.close()  # so inbox ends when the lane does
            mine = work(items[::2])
            sent = inbox.read()  # retried after a signal handler (PEP 475)
            code = other.wait()
    lost = LaneLost(f"a lane exited with code {code} after sending "
                    f"{len(sent)} bytes")
    if code != 0:
        raise lost
    try:
        return mine, rebuild(marshal.loads(sent))
    except (EOFError, ValueError, TypeError) as e:
        raise lost from e
