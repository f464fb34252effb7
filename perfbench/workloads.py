"""Benchmark workloads: CLI calls generated from a seed, and the checks
that decide whether each call's output is correct.

A workload builder writes its spec files and returns a ``Unit``: the
list of ``Call``s and the arguments of the set-up probe.  The program sees only the spec
files and argv written here; the seed never reaches it except as the
``verify --seed`` argument.  Curvatures and Levi-Civita lines are
checked against closed forms written out in this file; relative
geodesics on the sphere against the closed-form plane section.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

GRID = "100x100"
GRID_POINTS = 100 * 100
T_END = 1.0
STEP = 1e-3
RK4_STEPS = 1000
VERIFY_SUITES = ("flatness", "egregium", "codazzi", "umbilic", "minimal")
VERIFY_SAMPLES = 100

# Tolerances of the acceptance criteria for the same closed forms.
CURVATURE_TOL = 1e-10
HELICOID_H_TOL = 1e-12
PARALLEL_TOL = 1e-5
SECTION_TOL = 1e-6
LINE_TOL = 1e-9

CURVATURE_HEADER = "u,v,x,y,z,K,H,disc,class,xi1,xi2,xi3"
GEODESIC_HEADER = "t,u,v,du,dv,x,y,z,parallel_residual"


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check on the file it writes.  ``check``
    returns None when the output is correct, else a one-line reason."""

    label: str
    argv: list[str]
    out: Path
    check: Callable[[bytes], Optional[str]]


@dataclass(frozen=True)
class Unit:
    """The calls of one workload unit.  ``setup_args`` are the spec files
    the set-up probe parses; "--all-catalog" stands for verify's own
    catalog patches."""

    calls: list[Call]
    setup_args: list[str]


def _write_spec(work: Path, name: str, spec: dict) -> str:
    path = work / name
    path.write_text(json.dumps(spec, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _builtin(space: str, name: str, params: dict, domain=None) -> dict:
    spec = {"space": space, "surface": {"kind": "builtin", "name": name, "params": params}}
    if domain is not None:
        spec["domain"] = list(domain)
    return spec


def _rows(data: bytes, header: str, expected: int) -> tuple[Optional[str], list[list[str]]]:
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != header:
        return "unexpected CSV header", []
    if len(lines) - 1 != expected:
        return f"{len(lines) - 1} rows, expected {expected}", []
    return None, [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------- grid


def _check_curvature(oracle, h_tol: float, data: bytes) -> Optional[str]:
    err, rows = _rows(data, CURVATURE_HEADER, GRID_POINTS)
    if err:
        return err
    worst_k = worst_h = 0.0
    for row in rows:
        if row[8] == "inadmissible":
            return f"inadmissible row at u={row[0]}, v={row[1]}"
        k, h = oracle(float(row[0]), float(row[1]))
        worst_k = max(worst_k, abs(float(row[5]) - k))
        worst_h = max(worst_h, abs(float(row[6]) - h))
    if not worst_k <= CURVATURE_TOL:
        return f"K off its closed form by {worst_k!r}"
    if not worst_h <= h_tol:
        return f"H off its closed form by {worst_h!r}"
    return None


def grid(seed: int, work: Path) -> Unit:
    """curvature --grid 100x100 on a helicoid (ip3) and a parabolic
    sphere (i3) with seeded parameters."""
    rng = random.Random(f"grid:{seed}")
    c = rng.uniform(0.5, 1.5)
    p = rng.uniform(1.0, 3.0)
    surfaces = (
        ("helicoid", _builtin("ip3", "helicoid", {"c": c}),
         lambda u, v: (c * c / u**4, 0.0), HELICOID_H_TOL),
        ("sphere", _builtin("i3", "parabolic_sphere", {"p": p}),
         lambda u, v: (1.0 / (p * p), 1.0 / p), CURVATURE_TOL),
    )
    calls, specs = [], []
    for name, spec, oracle, h_tol in surfaces:
        spec_path = _write_spec(work, f"grid-{name}.json", spec)
        specs.append(spec_path)
        out = work / f"grid-{name}.csv"
        calls.append(
            Call(
                f"curvature {name}",
                ["curvature", spec_path, "--grid", GRID, "--out", str(out)],
                out,
                lambda data, o=oracle, t=h_tol: _check_curvature(o, t, data),
            )
        )
    return Unit(calls, specs)


# ---------------------------------------------------------- trajectory


def _check_trace(expected: Optional[Callable[[int], tuple[float, ...]]], tol: float,
                 columns: tuple[int, ...], data: bytes) -> Optional[str]:
    err, rows = _rows(data, GEODESIC_HEADER, RK4_STEPS + 1)
    if err:
        return err
    worst_parallel = max(float(row[8]) for row in rows)
    if not worst_parallel <= PARALLEL_TOL:
        return f"parallel_residual {worst_parallel!r} above {PARALLEL_TOL!r}"
    if expected is None:
        return None
    worst = 0.0
    for k, row in enumerate(rows):
        for col, want in zip(columns, expected(k)):
            worst = max(worst, abs(float(row[col]) - want))
    if not worst <= tol:
        return f"trace off its closed form by {worst!r}"
    return None


def trajectory(seed: int, work: Path) -> Unit:
    """geodesic --type r and lc, 1000 RK4 steps each, on a helicoid
    (ip3) and a parabolic sphere (i3).  Helicoid starts stay clear of the
    lightlike locus u = c; sphere starts lie on a seeded plane section,
    so the relative geodesic has a closed form."""
    from isogeo.geodesic import make_plane_section, plane_section
    from isogeo.isotropy import SpaceKind

    rng = random.Random(f"trajectory:{seed}")
    c = rng.uniform(0.5, 0.8)
    hu, hv = rng.uniform(1.9, 2.2), rng.uniform(-0.3, 0.3)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    hdu, hdv = 0.4 * math.cos(angle), 0.4 * math.sin(angle)

    p = rng.uniform(1.5, 2.5)
    a, b = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    theta0 = rng.uniform(0.0, 2.0 * math.pi)
    theta_dot0 = rng.uniform(0.6, 1.0)
    # the catalog sphere z = (u^2 + v^2)/2p - p/2 is the section sphere
    # z = P/2 - (x^2 + y^2)/2P of parameter P = -p
    section = make_plane_section(SpaceKind.SIMPLY_ISOTROPIC, -p, a, b, theta0, theta_dot0)
    closed = plane_section(section, [k * STEP for k in range(RK4_STEPS + 1)]).samples
    s0 = closed[0]

    def section_xyz(k: int) -> tuple[float, float, float]:
        pos = closed[k].position
        return pos.x, pos.y, pos.z

    def straight_uv(k: int) -> tuple[float, float]:
        t = k * STEP
        return s0.u + t * s0.du, s0.v + t * s0.dv

    helicoid = _write_spec(work, "traj-helicoid.json", _builtin("ip3", "helicoid", {"c": c}))
    sphere = _write_spec(
        work, "traj-sphere.json",
        _builtin("i3", "parabolic_sphere", {"p": p}, (-10.0, 10.0, -10.0, 10.0)),
    )
    # (label, spec, type, start, velocity, closed form, tolerance, CSV columns)
    cases = (
        ("helicoid r", helicoid, "r", (hu, hv), (hdu, hdv), None, 0.0, ()),
        ("helicoid lc", helicoid, "lc", (hu, hv), (hdu, hdv), None, 0.0, ()),
        ("sphere r", sphere, "r", (s0.u, s0.v), (s0.du, s0.dv), section_xyz, SECTION_TOL, (5, 6, 7)),
        # Levi-Civita geodesics of a graph are straight in the top view.
        ("sphere lc", sphere, "lc", (s0.u, s0.v), (s0.du, s0.dv), straight_uv, LINE_TOL, (1, 2)),
    )
    calls = []
    for label, spec, gtype, start, vel, expected, tol, columns in cases:
        out = work / f"traj-{label.replace(' ', '-')}.csv"
        argv = [
            "geodesic", spec, "--type", gtype,
            # "--opt=value": a value starting with "-" would read as an option
            f"--start={start[0]!r},{start[1]!r}",
            f"--velocity={vel[0]!r},{vel[1]!r}",
            "--t-end", repr(T_END), "--step", repr(STEP), "--out", str(out),
        ]
        calls.append(
            Call(
                f"geodesic {label}", argv, out,
                lambda data, e=expected, t=tol, cols=columns: _check_trace(e, t, cols, data),
            )
        )
    return Unit(calls, [helicoid, sphere])


# -------------------------------------------------------------- verify


def _check_report(data: bytes) -> Optional[str]:
    report = json.loads(data)
    if report.get("overall") != "pass":
        failing = [chk["name"] + " " + chk["surface"] for chk in report["checks"] if not chk["pass"]]
        return f"verify overall {report.get('overall')!r}: {failing}"
    return None


def checked_points(data: bytes) -> int:
    """Sample points a verify report checked.  The codazzi suite reports
    three checks on one point set, so its codazzi_lc and gauss_rhs rows
    are not counted again."""
    report = json.loads(data)
    return sum(
        chk["points"] for chk in report["checks"] if chk["name"] not in ("codazzi_lc", "gauss_rhs")
    )


def verify(seed: int, work: Path) -> Unit:
    """verify --all-catalog, one call per suite, seeded by the workload
    seed.  sphere-geodesics is left out: it is RK4 work that the
    trajectory workload already measures."""
    calls = []
    for suite in VERIFY_SUITES:
        out = work / f"verify-{suite}.json"
        argv = [
            "verify", "--all-catalog", "--suite", suite,
            "--samples", str(VERIFY_SAMPLES), "--seed", str(seed), "--out", str(out),
        ]
        calls.append(Call(f"verify {suite}", argv, out, _check_report))
    return Unit(calls, ["--all-catalog"])


WORKLOADS = {"grid": grid, "trajectory": trajectory, "verify": verify}
