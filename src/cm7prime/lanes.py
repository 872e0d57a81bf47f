"""Forked lanes: whether this process may fork one now, the fork that
gives it a CPU of its own, split, which shares a list of independent
items between this process and a lane, and pool, which shares them out
in chunks to several lanes while this process waits.

A lane is a child process that computes one share of a result while its
caller computes the rest (half of each doubling step in mont_curve,
every other sieving prime in sieve), or, in a pool, one of several
workers that test search's survivors chunk by chunk while the caller
hands out the chunks.  A lane costs a fork, so each caller opens lanes
only above a measured size, and only where lane_obstacle finds nothing
in the way:

  * os.fork exists;
  * at least two CPUs are usable, read anew at each call, so a process
    pinned to one CPU opens no further lane;
  * the process has one thread, since the child could inherit a lock
    that another thread holds and hang on it;
  * multiprocessing did not start the process, as it starts a worker of
    some other process pool, whose siblings hold the other cores.
    multiprocessing is looked up in sys.modules, never imported: a
    process that has not loaded it was not started by it;
  * the process is not a lane and has none open, so lanes never nest,
    whether or not the CPU pins below took hold.

In a fresh process the kernel often forks the child onto the caller's
CPU and leaves it there, and then both run on one CPU for the whole
computation.  So where os.sched_setaffinity exists, a Lane pins the
caller to the CPU it last ran on and the child to the next usable CPU,
and restores the caller's CPU mask on every way out.  A pool's workers
are not pinned: its caller sleeps while they work, so the kernel spreads
them, and each may move off a CPU that other work takes.

Lanes send their results through pipes as messages of plain values:
the length of the marshal data, in eight bytes, then the data (_send,
_receive).
"""

from __future__ import annotations

import contextlib
import marshal
import os
import signal
import sys
import threading
from collections.abc import Callable, Sequence
from functools import partial
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
    """A child process, forked on entry, that runs body() on its own CPU,
    or wherever the kernel places it if pin is false.

    The child leaves only through os._exit, with status 0 once body()
    has returned and 1 if it raised, so it never flushes stdio buffers
    or runs exit handlers that it inherited.  On exit from the with
    block the child is killed, unless done() or wait() has reaped it
    already, and reaped, and the caller's CPU mask is restored.  Until
    then lane_obstacle refuses a further lane, in the child as well.
    """

    def __init__(self, body: Callable[[], object], pin: bool = True) -> None:
        self._body = body
        self._placed = pin
        self._mask: set[int] | None = None
        self._pid = 0
        self._status: int | None = None  # waitpid status, once reaped

    def __enter__(self) -> "Lane":
        global _in_lane
        there = None
        if self._placed and hasattr(os, "sched_setaffinity"):
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


def _send(pipe, value: object) -> None:
    """Write value to pipe, an unbuffered binary file, as one message."""
    data = marshal.dumps(value)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[pipe.write(view):]


def _receive(pipe) -> object:
    """The next message that _send wrote to pipe, an unbuffered binary
    file.  A pipe that ends first, or a message that marshal cannot
    read, raises LaneLost."""
    data = _read(pipe, int.from_bytes(_read(pipe, 8), "little"))
    try:
        return marshal.loads(data)
    except (EOFError, ValueError, TypeError) as e:
        raise LaneLost("a lane sent a malformed message") from e


def _read(pipe, size: int) -> bytes:
    """size bytes from pipe, at most a pipe's capacity per read, which is
    as much as one read returns."""
    parts = []
    while size:
        part = pipe.read(min(size, 1 << 16))  # retried after a signal
        if not part:
            raise LaneLost("a lane ended before it sent all")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _pipe():
    """A new pipe's two ends as unbuffered binary files: (read, write)."""
    read_fd, write_fd = os.pipe()
    return open(read_fd, "rb", buffering=0), open(write_fd, "wb", buffering=0)


def split(work: Callable[[Sequence], _T], items: Sequence,
          dump: Callable[[_T], object],
          rebuild: Callable[[object], _R]) -> tuple[_T, _R]:
    """work(items[::2]) in this process and work(items[1::2]) in a Lane,
    computed at the same time.

    The lane sends dump(work(items[1::2])) through a pipe in one message
    (_send), so dump must return values that marshal writes; bytes-like
    ones, such as a bytearray or an array, arrive as bytes.  This process
    runs its share, then blocks on the pipe until the lane has sent all.
    rebuild turns the lane's message back into what work returns and
    raises ValueError or TypeError on one of the wrong shape.  A lane
    that ends before it has sent all, or sends a message that marshal
    cannot read or that rebuild rejects, raises LaneLost: no partial
    result is returned.  A lane whose caller was killed runs its share
    to the end and exits when it finds the pipe closed.
    """
    inbox, outbox = _pipe()
    with inbox, outbox:
        with Lane(lambda: _send(outbox, dump(work(items[1::2])))):
            outbox.close()  # so inbox ends when the lane does
            mine = work(items[::2])
            sent = _receive(inbox)
    try:
        return mine, rebuild(sent)
    except (ValueError, TypeError) as e:
        raise LaneLost("a lane sent a malformed share") from e


def pool(work: Callable[[_T], object], items: Sequence[_T], workers: int,
         chunk: int, rebuild: Callable[[object], _R]) -> list[_R]:
    """[rebuild(work(item)) for item in items], with work run by up to
    `workers` Lanes at once while this process hands out the items.

    Each worker inherits items, so this process sends it only the bounds
    of its next chunk of at most `chunk` indices, and the chunks go out
    from the end of items down: a caller that puts its costliest items
    last finishes on the cheapest.  The worker sends back what work
    returned for each item of the chunk in one message (_send), so work
    must return values that marshal writes.  This process waits on every
    worker's pipe at once, rebuilds each value in its item's place and
    gives that worker the next chunk.  rebuild raises ValueError or
    TypeError on a value of the wrong shape.  A worker that ends, or
    sends a message that marshal cannot read, with a value too many or
    too few, or one that rebuild rejects, raises LaneLost: no partial
    result is returned.  On every way out each worker is killed and
    reaped.  A worker whose caller was killed exits when it finds its
    pipe closed.
    """
    import select  # not at module level, to keep import cm7prime small

    chunks = [(start, min(start + chunk, len(items)))
              for start in range(0, len(items), chunk)]
    rows: list = [None] * len(items)
    pipes = {}  # the fd of a worker's replies: (replies, requests to it)
    given = {}  # the fd of a busy worker's replies: the chunk it works on
    waiting = select.poll()
    with contextlib.ExitStack() as stack:
        for _ in range(min(workers, len(chunks))):
            requests, ask = map(stack.enter_context, _pipe())
            replies, answer = map(stack.enter_context, _pipe())
            pipes[replies.fileno()] = replies, ask
            stack.enter_context(Lane(partial(_work, work, items, requests,
                                             answer, pipes), pin=False))
            requests.close()
            answer.close()
        for fd, (replies, ask) in pipes.items():
            waiting.register(replies, select.POLLIN)
            given[fd] = chunks.pop()
            _send(ask, given[fd])
        while given:
            for fd, _ in waiting.poll():  # retried after a signal
                replies, ask = pipes[fd]
                start, stop = given.pop(fd)
                sent = _receive(replies)
                try:
                    if len(sent) != stop - start:
                        raise ValueError(f"{len(sent)} values for "
                                         f"{stop - start} items")
                    rows[start:stop] = map(rebuild, sent)
                except (ValueError, TypeError) as e:
                    raise LaneLost("a worker sent a malformed chunk") from e
                if chunks:
                    given[fd] = chunks.pop()
                    _send(ask, given[fd])
                else:
                    waiting.unregister(fd)
    return rows


def _work(work: Callable[[_T], object], items: Sequence[_T], requests,
          answer, pipes: dict) -> None:
    """A pool worker: work over each chunk that requests brings, sent
    back through answer, until requests ends."""
    for ends in pipes.values():  # the caller's, of every worker so far
        for end in ends:
            end.close()
    while True:
        start, stop = _receive(requests)
        _send(answer, [work(items[i]) for i in range(start, stop)])
