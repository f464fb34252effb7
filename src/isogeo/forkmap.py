"""Text-producing work split across forked processes.

``fork_map(fn, blocks)`` returns ``[fn(b) for b in blocks]``.  The
calling process computes the first block while each other block runs in
a forked child, which sends its text back through a pipe, UTF-8 encoded
after an 8-byte length.  A block whose child fails, is killed, sends less
than its length says, or could not be forked at all is computed again in
the caller; so the results, and every exception and message, are those
of the plain loop, and the children only save time.  No child outlives
the call: if the caller's own block raises (KeyboardInterrupt included),
every child is killed and reaped before the exception propagates.  A
child never returns into the caller's code; any exception in it ends it
with exit status 1.
"""

from __future__ import annotations

import os
import threading
from typing import Callable


def worker_count(items: int) -> int:
    """Processes for ``items`` blocks' worth of work: one per CPU this
    process may run on, at most ``items``.  One where there is no
    ``os.fork``, or where other threads run: a child is a copy of the
    calling thread only, and a lock another thread holds at the fork
    stays held in it."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, items))


def _fork_block(fn: Callable[[object], str], block):
    """Fork a child that sends ``fn(block)`` and exits 0; returns (pid,
    the pipe's read end as a file)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = fn(block).encode("utf-8")
            with open(write_fd, "wb") as pipe:
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def fork_map(fn: Callable[[object], str], blocks: list) -> list[str]:
    """``[fn(b) for b in blocks]``, the blocks after the first computed in
    forked children at the same time as the first (see the module
    docstring)."""
    children = {}  # pid -> read end of its pipe, until reaped
    try:
        for block in blocks[1:]:
            try:
                pid, pipe = _fork_block(fn, block)
            except OSError:  # out of processes or descriptors: the rest run here
                break
            children[pid] = pipe
        texts = [fn(blocks[0])]
        for (pid, pipe), block in zip(list(children.items()), blocks[1:]):
            with pipe:
                header = pipe.read(8)
                size = int.from_bytes(header, "little")
                data = pipe.read(size)
            _, status = os.waitpid(pid, 0)
            del children[pid]
            sent = os.waitstatus_to_exitcode(status) == 0 and len(header) + len(data) == 8 + size
            texts.append(data.decode("utf-8") if sent else fn(block))
        texts += [fn(block) for block in blocks[len(texts):]]
        return texts
    finally:
        if children:
            import signal  # only on this path: no command's start-up loads it

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
