"""isogeo benchmark: end-to-end and per-layer metrics of the CLI pipeline.

    python3 perfbench/run.py --workload grid|trajectory|verify \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` it times whole workload
units through ``isogeo.cli.main(argv)`` and fresh set-up processes; with
``--trace 1`` it traces one unit of every workload per round and reports
per-layer call counts and self times.  Every metric is printed by name
and unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
in this directory for the design.
"""

from __future__ import annotations

import os

# OpenBLAS starts a worker thread at import unless told otherwise; the
# benchmark measures one thread of work, so pin it before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

import workloads  # this directory is sys.path[0] when run as a script
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# About the median of reference_seconds() on a 2-vCPU Intel Xeon VM;
# wall_s is given at that compute speed.
REFERENCE_S = 0.050
# About the median time of `python -c pass` on the same VM; setup_s is
# given at that process start-up speed.
BARE_START_S = 0.050
MIN_UNITS = 5
MIN_TRACE_ROUNDS = 2
PROBES_PER_UNIT = 1
MIN_PROBES = 20
PROBE_TIMEOUT_S = 60

# Interpreter start, import, spec parsing and patch construction: what a
# user pays on every CLI call before the first point is computed.
SETUP_PROBE = """\
import sys
import isogeo.cli as cli
for arg in sys.argv[1:]:
    if arg == "--all-catalog":
        cli.verify.verification_patches()
    else:
        cli.load_spec_file(arg)
"""


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v: float, d: float) -> None:
        self.v, self.d = v, d

    def __add__(self, o):
        return _Dual(self.v + o.v, self.d + o.d)

    def __mul__(self, o):
        return _Dual(self.v * o.v, self.v * o.d + self.d * o.v)


def reference_seconds() -> float:
    """Seconds for a fixed task that mixes the three kinds of work the
    program does: interpreter dispatch, small-object float arithmetic and
    2x2 numpy calls.  It runs no isogeo code, so only host speed moves it."""
    import numpy

    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    x = _Dual(0.0, 0.0)
    for i in range(6_000):
        y = _Dual(math.sin(i * 1e-3), 1.0)
        x = x + y * y
    m = numpy.eye(2)
    for i in range(3_000):
        g = numpy.array([[1.0 + i * 1e-6, 0.1], [0.1, 1.0]])
        m = (g @ m) / (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    return time.perf_counter() - start


def _reference_after_gc() -> float:
    # start each reference from the same heap state, whatever the call left
    gc.collect()
    return reference_seconds()


class Ledger:
    """Attempted and failed operations.  The first output of each call is
    checked in full; later repetitions must match it byte for byte and
    share its verdict."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, tuple[str, Optional[str]]] = {}

    def fail(self, label: str, reason: str) -> None:
        self.failures.append(f"{label}: {reason}")

    def check(self, call, code, error) -> int:
        """Record one call; returns the bytes it wrote."""
        self.attempted += 1
        if error is not None:
            self.fail(call.label, error)
            return 0
        if code != 0:
            self.fail(call.label, f"exit code {code}")
            return 0
        try:
            data = call.out.read_bytes()
        except OSError as err:
            self.fail(call.label, f"no output: {err}")
            return 0
        digest = hashlib.sha256(data).hexdigest()
        if call.label not in self.digests:
            self.digests[call.label] = (digest, call.check(data))
        first, reason = self.digests[call.label]
        if first != digest:
            self.fail(call.label, "output differs from the first repetition")
        elif reason:
            self.fail(call.label, reason)
        return len(data)


def run_unit(cli, calls, ledger: Ledger, refs: Optional[list] = None) -> tuple[float, float, int]:
    """Run every call of a unit in-process; returns (seconds, scaled
    seconds, bytes written).  Only ``cli.main`` is timed.  With ``refs``,
    the reference task runs before the first call and after each call,
    its timings are appended to ``refs``, and each call's seconds are
    scaled by REFERENCE_S over the mean of the timings on either side."""
    gc.collect()
    raw = scaled = 0.0
    written = 0
    before = _reference_after_gc() if refs is not None else None
    for call in calls:
        sink = io.StringIO()
        error = None
        code = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli.main(call.argv)
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
            except Exception:  # a crash is a failed operation, not a crashed benchmark
                error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            seconds = time.perf_counter() - start
        raw += seconds
        if refs is not None:
            after = _reference_after_gc()
            refs.append(after)
            scaled += seconds * REFERENCE_S / (0.5 * (before + after))
            before = after
        written += ledger.check(call, code, error) + len(sink.getvalue().encode("utf-8"))
    return raw, scaled, written


def _python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S,
    )


def _bare_start() -> float:
    start = time.perf_counter()
    _python(["-c", "pass"]).check_returncode()
    return time.perf_counter() - start


def setup_probes(args: list[str], count: int, ledger: Ledger, bares: list) -> list[float]:
    """Seconds of ``count`` set-up probes.  A bare interpreter start runs
    before the first probe and after each one (its timings are appended to
    ``bares``), and each probe is scaled by BARE_START_S over the mean of
    the bare starts on either side: process start-up speed varies with the
    host independently of compute speed."""
    before = _bare_start()
    out = []
    for _ in range(count):
        ledger.attempted += 1
        start = time.perf_counter()
        try:
            proc = _python(["-c", SETUP_PROBE, *args])
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            ledger.fail("setup probe", f"timed out after {PROBE_TIMEOUT_S} s")
            continue
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            ledger.fail("setup probe", proc.stderr.decode(errors="replace").strip()[-200:])
        after = _bare_start()
        bares.append(after)
        out.append(elapsed * BARE_START_S / (0.5 * (before + after)))
        before = after
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "isogeo").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def host_info() -> dict:
    import numpy

    threads = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ------------------------------------------------------------ untraced


def build_unit(name: str, seed: int) -> workloads.Unit:
    work = OUT / f"{name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, work)


def measure(cli, name: str, seed: int, seconds: float, ledger: Ledger):
    unit = build_unit(name, seed)
    run_unit(cli, unit.calls, ledger)  # warm-up: imports, caches, first file writes
    setup_probes(unit.setup_args, 1, ledger, [])  # warm-up: bytecode caches
    raws, walls, setups, refs, bares = [], [], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_UNITS or time.perf_counter() - start < seconds:
        raw, scaled, _ = run_unit(cli, unit.calls, ledger, refs)
        raws.append(raw)
        walls.append(scaled)
        setups += setup_probes(unit.setup_args, PROBES_PER_UNIT, ledger, bares)
    if len(setups) < MIN_PROBES:
        setups += setup_probes(unit.setup_args, MIN_PROBES - len(setups), ledger, bares)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # host drift beside the metrics: raw seconds and the reference task
    info = {
        "units": len(walls),
        "setup_probes": len(setups),
        "wall_s_unscaled": statistics.median(raws),
        "reference_s": statistics.median(refs),
        "reference_s_quartiles": statistics.quantiles(refs, n=4),
        "bare_start_s": statistics.median(bares),
    }
    return metrics, info


# -------------------------------------------------------------- traced


STENCIL = tuple(
    f"connection.{fn}"
    for fn in ("curvature_tensors_at", "codazzi_residual", "egregium_check", "gauss_equation_rhs")
)


def layer_metrics(name: str, calls, self_s, unit_calls, bytes_out: int) -> dict:
    """Per-layer metrics of one traced unit of workload ``name``, as
    {metric: (value, unit, is_count)}.  ``calls`` and ``self_s`` are the
    tracer's summary; ``unit_calls`` are the unit's CLI calls, whose
    outputs give the bases of the ratios."""
    out = {
        "expr.eval_jet2.calls": (calls["expr.eval_jet2"], "count", True),
        "expr.eval_jet2.self_s": (self_s["expr.eval_jet2"], "s", False),
        "surface.frame_at.calls": (calls["surface.frame_at"], "count", True),
        "surface.frame_at.self_s": (self_s["surface.frame_at"], "s", False),
        "cli.format.self_s": (sum(v for k, v in self_s.items() if k.startswith("cli.")), "s", False),
        "cli.bytes_out": (bytes_out, "bytes", True),
        "catalog.setup.self_s": (self_s["catalog.make"] + self_s["catalog.parse"], "s", False),
    }
    if name in ("grid", "verify"):
        out["surface.curvatures_of_frame.self_s"] = (self_s["surface.curvatures_of_frame"], "s", False)
    if name in ("trajectory", "verify"):
        out["connection.coeffs_of_frame.calls"] = (calls["connection.coeffs_of_frame"], "count", True)
        out["connection.coeffs_of_frame.self_s"] = (self_s["connection.coeffs_of_frame"], "s", False)
        out["connection.gamma_of_frame.self_s"] = (self_s["connection.gamma_of_frame"], "s", False)
    if name == "grid":
        points = len(unit_calls) * workloads.GRID_POINTS
        out["surface.frames_per_point"] = (calls["surface.frame_at"] / points, "frames/point", True)
    if name == "trajectory":
        # a trace of n steps is a header and n + 1 rows
        steps = sum(len(c.out.read_bytes().splitlines()) - 2 for c in unit_calls)
        out["geodesic.integrate.self_s"] = (self_s["geodesic.integrate"], "s", False)
        out["geodesic.rk4_steps"] = (steps, "count", True)
        out["geodesic.frames_per_step"] = (calls["surface.frame_at"] / steps, "frames/step", True)
    if name == "verify":
        points = sum(workloads.checked_points(c.out.read_bytes()) for c in unit_calls)
        out["connection.stencil.calls"] = (sum(calls[k] for k in STENCIL), "count", True)
        out["connection.stencil.self_s"] = (sum(self_s[k] for k in STENCIL), "s", False)
        out["verify.checked_points"] = (points, "count", True)
        out["verify.frames_per_point"] = (calls["surface.frame_at"] / points, "frames/point", True)
        for suite in workloads.VERIFY_SUITES:
            out[f"verify.suite.{suite}.self_s"] = (self_s[f"verify.suite.{suite}"], "s", False)
    return out


def trace(cli, seed: int, seconds: float, ledger: Ledger):
    units = {name: build_unit(name, seed).calls for name in workloads.WORKLOADS}
    for calls in units.values():
        run_unit(cli, calls, ledger)  # warm-up

    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    rounds: dict[str, list[dict]] = {name: [] for name in units}
    plain: dict[str, list[float]] = {name: [] for name in units}
    traced: dict[str, list[float]] = {name: [] for name in units}
    start = time.perf_counter()
    while len(rounds["grid"]) < MIN_TRACE_ROUNDS or time.perf_counter() - start < seconds:
        for name, calls in units.items():
            plain[name].append(run_unit(cli, calls, ledger)[0])
            tracer.reset()
            tracer.install()
            try:
                wall, _, written = run_unit(cli, calls, ledger)
            finally:
                tracer.uninstall()
            traced[name].append(wall)
            tracer.write_csv(trace_dir / f"spans-{name}-{seed}.csv")
            rounds[name].append(layer_metrics(name, *tracer.summary(), calls, written))

    metrics = {}
    counts = {}
    for name, per_round in rounds.items():
        for key, (_, unit, is_count) in per_round[0].items():
            values = [r[key][0] for r in per_round]
            if is_count:
                if len(set(values)) != 1:
                    raise CountMismatch(f"{name}.{key} changed between rounds: {values}")
                counts[f"{name}.{key}"] = values[0]
                metrics[f"{name}.{key}"] = (values[0], unit)
            else:
                metrics[f"{name}.{key}"] = (statistics.median(values), unit)
        overhead = statistics.median(traced[name]) / statistics.median(plain[name]) - 1.0
        metrics[f"{name}.trace.overhead_frac"] = (overhead, "ratio")
    check_counts_across_runs(seed, counts)
    return metrics, {"rounds": len(rounds["grid"])}


class CountMismatch(Exception):
    pass


def check_counts_across_runs(seed: int, counts: dict) -> None:
    """Counts depend only on the seed and the source: a mismatch with an
    earlier run of the same code means non-deterministic work."""
    path = OUT / "counts" / f"seed{seed}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        diff = {k: (earlier.get(k), v) for k, v in counts.items() if earlier.get(k) != v}
        if diff:
            raise CountMismatch(f"counts differ from an earlier run of this code: {diff}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "isogeo" / "cli.py").is_file():
        print(f"error: no isogeo sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import isogeo.cli as cli

    ledger = Ledger()
    try:
        if args.trace:
            metrics, info = trace(cli, args.seed, args.seconds, ledger)
        else:
            metrics, info = measure(cli, args.workload, args.seed, args.seconds, ledger)
    except CountMismatch as err:
        print(f"error: COUNT MISMATCH: {err}", file=sys.stderr)
        return 1

    failed = len(ledger.failures)
    for msg in ledger.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    info.update(
        workload=args.workload, seed=args.seed, trace=args.trace, host=host_info(),
        fail_frac=failed / max(1, ledger.attempted),
    )
    for key, (value, unit) in metrics.items():
        print(f"{key:<48} {value!r} {unit}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": ledger.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
