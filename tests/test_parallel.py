"""The fork-parallel curvature grid: the CSV bytes do not depend on the
number of worker processes, and a worker that fails costs time only."""

import errno
import json
import os
import signal
import threading
import time

import pytest

from isogeo import cli, forkmap
from isogeo.errors import WrongSpace

# m12 = u^2 - 1/4 vanishes on u = +-0.5, rows 2 and 6 of a 9-row grid on
# [-1, 1] (inadmissible); log(v + 0.5) has no value for v <= -0.5 (undefined)
SPEC = {
    "space": "i3",
    "surface": {"kind": "parametric", "x": "u", "y": "u^2*v - 0.25*v", "z": "log(v + 0.5) + u*v"},
    "domain": [-1, 1, -1, 1],
}
GRID = "9x8"


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


def force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def curvature(spec_path, out):
    return cli.main(["curvature", spec_path, "--grid", GRID, "--out", str(out)])


def serial_bytes(monkeypatch, spec_path, tmp_path):
    force_cpus(monkeypatch, 1)
    out = tmp_path / "serial.csv"
    assert curvature(spec_path, out) == 0
    return out.read_bytes()


def inject(monkeypatch, fault):
    """Make every u row of the curvature grid call ``fault(u)`` before its
    rows are computed, in whichever process computes them: the row kernel
    is wrapped where it is built, before the fork, so the children inherit
    the wrapper."""
    real_row_kernel = cli._row_kernel

    def faulty_row_kernel(patch):
        kernel = real_row_kernel(patch)

        def faulty(u, su, vs):
            fault(u)
            return kernel(u, su, vs)

        return faulty

    monkeypatch.setattr(cli, "_row_kernel", faulty_row_kernel)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 3, 16])
def test_bytes_do_not_depend_on_the_worker_count(monkeypatch, tmp_path, spec_path, cpus):
    serial = serial_bytes(monkeypatch, spec_path, tmp_path)
    force_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    out = tmp_path / "parallel.csv"
    assert curvature(spec_path, out) == 0
    assert out.read_bytes() == serial
    # at most one worker per u row
    assert forks == [os.getpid()] * (min(cpus, 9) - 1)
    rows = serial.decode().splitlines()[1:]
    classes = {row.split(",")[8] for row in rows}
    assert {"inadmissible", "undefined"} < classes and len(classes) >= 3
    # the inadmissible rows u = -0.5 and u = 0.5 lie in different blocks
    assert {row.split(",")[0] for row in rows if "inadmissible" in row} == {"-0.5", "0.5"}
    assert_no_children()


@pytest.mark.parametrize("cpus", [1, 3])
def test_each_block_calls_the_row_kernel_once_per_u_row(monkeypatch, tmp_path, spec_path, cpus):
    # every process appends (its pid, u) to one file for each kernel call
    log = tmp_path / "calls"

    def record(u):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {u!r}\n")

    inject(monkeypatch, record)
    force_cpus(monkeypatch, cpus)
    assert curvature(spec_path, tmp_path / "out.csv") == 0
    blocks = {}
    for line in log.read_text().splitlines():
        pid, u = line.split()
        blocks.setdefault(pid, []).append(u)
    us = [repr(u) for u in cli.grid_values(-1.0, 1.0, 9)]
    # one contiguous block of u rows per process, each row called once
    expected = [us[3 * i: 3 * i + 3] for i in range(3)] if cpus == 3 else [us]
    assert sorted(blocks.values()) == sorted(expected)
    assert_no_children()


def test_worker_count(monkeypatch):
    force_cpus(monkeypatch, 7)
    assert forkmap.worker_count(100) == 7
    assert forkmap.worker_count(3) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert forkmap.worker_count(100) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert forkmap.worker_count(100) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert forkmap.worker_count(100) == 1


def test_no_fork_while_other_threads_run(monkeypatch):
    force_cpus(monkeypatch, 4)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10.0,))
    thread.start()
    try:
        assert forkmap.worker_count(100) == 1
    finally:
        release.set()
        thread.join(10.0)
    assert not thread.is_alive()
    assert forkmap.worker_count(100) == 4


def _exit_zero_unsent():
    os._exit(0)  # a zero status with nothing sent: a short read


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


def _interrupted():
    raise KeyboardInterrupt


def _raised():
    raise RuntimeError("injected in a worker")


@pytest.mark.parametrize("failure", [_raised, _interrupted, _killed, _exit_zero_unsent])
def test_a_failing_child_has_its_block_recomputed(monkeypatch, tmp_path, spec_path, failure):
    serial = serial_bytes(monkeypatch, spec_path, tmp_path)
    parent = os.getpid()

    def failing_in_children(u):
        if os.getpid() != parent:
            failure()

    inject(monkeypatch, failing_in_children)
    force_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    out = tmp_path / "parallel.csv"
    assert curvature(spec_path, out) == 0
    assert out.read_bytes() == serial
    assert len(forks) == 2
    assert_no_children()


def test_a_fork_that_fails_leaves_its_block_to_the_parent(monkeypatch, tmp_path, spec_path):
    serial = serial_bytes(monkeypatch, spec_path, tmp_path)

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    force_cpus(monkeypatch, 3)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    out = tmp_path / "parallel.csv"
    assert curvature(spec_path, out) == 0
    assert out.read_bytes() == serial
    if fds is not None:  # both ends of the pipe were closed
        assert os.listdir("/proc/self/fd") == fds


@pytest.mark.parametrize(
    "error", [WrongSpace("no frame at u = 0.75"), RuntimeError("bug at u = 0.75")]
)
def test_an_error_in_every_process_is_the_serial_error(
    monkeypatch, tmp_path, spec_path, capsys, error
):
    def failing(u):
        if u == 0.75:  # row 7 of 9: the last block of any split
            raise error

    inject(monkeypatch, failing)
    outcomes = []
    for cpus in (1, 3):
        force_cpus(monkeypatch, cpus)
        out = tmp_path / f"w{cpus}.csv"
        try:
            code = curvature(spec_path, out)
        except RuntimeError as err:
            code = f"raised {err!r}"
        outcomes.append((code, capsys.readouterr().err, out.exists()))
        assert_no_children()
    assert outcomes[0] == outcomes[1]
    code, err, written = outcomes[0]
    assert not written
    if isinstance(error, WrongSpace):
        assert (code, err) == (2, "error: no frame at u = 0.75\n")
    else:
        assert code == "raised RuntimeError('bug at u = 0.75')"


def test_an_interrupt_in_the_parent_kills_and_reaps_every_child(monkeypatch, tmp_path, spec_path):
    parent = os.getpid()

    def interrupted_in_parent(u):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60.0)  # a child still busy: only a kill ends it soon

    inject(monkeypatch, interrupted_in_parent)
    force_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    out = tmp_path / "parallel.csv"
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        curvature(spec_path, out)
    assert time.monotonic() - start < 30.0
    assert len(forks) == 2
    assert not out.exists()
    assert_no_children()
