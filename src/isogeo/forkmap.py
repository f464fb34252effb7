"""Text-producing work split across forked processes, written to one file.

``fork_write(fn, blocks, path, head)`` writes ``head``, then the strings
of ``fn(b)`` for each block ``b``, UTF-8 encoded, to ``path``.  The
caller computes the first block while each other block runs in a forked
child, which writes its strings one at a time into an in-memory file
(``os.memfd_create``) and sends only the file's size through a pipe.  A
block whose child fails, is killed, sends no size or one other than its
file's, or could not be forked is computed again in the caller; so the
bytes, exceptions and messages are those of the plain loop.  ``path`` is
opened once every block is done, so an error leaves no file; the caller
writes the header and its own strings, then copies each child's file
with ``os.sendfile``.  Every child is killed where it still runs and
reaped after the copy, also where the caller raises (KeyboardInterrupt
included).  A child never returns: any exception ends it with status 1.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Callable, Iterable


def worker_count(items: int) -> int:
    """Processes for ``items`` blocks of work: one per CPU this process may
    run on, at most ``items``.  One without ``os.fork`` or ``memfd_create``,
    or where other threads run: a child is a copy of the calling thread
    only, and a lock another thread holds at the fork stays held in it."""
    if not (hasattr(os, "fork") and hasattr(os, "memfd_create")) or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, items))


def fork_write(fn: Callable[[object], Iterable[str]], blocks: list, path: str, head: str) -> None:
    """Write ``head`` and the strings of ``fn(b)`` for each block to
    ``path`` (see the module docstring)."""
    children = []  # (pid, its file, read end of its pipe), in block order
    try:
        for block in blocks[1:]:
            fds = []  # the child's file and both ends of its pipe
            try:
                fds.append(os.memfd_create("isogeo-block"))
                fds += os.pipe()
                pid = os.fork()
            except OSError:  # out of processes or descriptors: the rest run here
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:  # the child: exit 0 once it has sent its file's size, else 1
                status = 1
                try:
                    os.close(fds[1])
                    size = 0
                    for text in fn(block):
                        data = text.encode("utf-8")
                        size += len(data)
                        os.write(fds[0], data)  # a short write leaves the file shorter than size
                    os.write(fds[2], size.to_bytes(8, "little"))
                    status = 0
                finally:
                    os._exit(status)
            os.close(fds[2])
            children.append((pid, *fds[:2]))
        done = [list(fn(blocks[0]))]  # per block, its strings or (its child's file, size)
        for (_, file, pipe), block in zip(children, blocks[1:]):
            sent = os.read(pipe, 8)
            size = int.from_bytes(sent, "little")
            done.append((file, size) if len(sent) == 8 and size == os.fstat(file).st_size else list(fn(block)))
        done += [list(fn(block)) for block in blocks[len(done):]]
        with open(path, "wb") as fh:
            fh.write(head.encode("utf-8"))
            for texts in done:
                if isinstance(texts, list):
                    fh.writelines(text.encode("utf-8") for text in texts)
                    continue
                (file, size), offset = texts, 0
                fh.flush()
                while offset < size:  # sendfile may copy less than asked
                    copied = os.sendfile(fh.fileno(), file, offset, size - offset)
                    if not copied:  # the file has become shorter than its size
                        raise OSError(f"a worker's file ends at byte {offset} of {size}")
                    offset += copied
    finally:
        for pid, file, pipe in children:
            os.close(pipe)
            os.close(file)
            os.kill(pid, signal.SIGKILL)  # harmless on an exited child, a zombie until reaped
            os.waitpid(pid, 0)
