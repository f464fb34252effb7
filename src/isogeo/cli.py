"""Command-line front end.

Subcommands:

    curvature  SPEC --grid NUxNV --out FILE.csv
    geodesic   SPEC --type r|lc --start u,v --velocity du,dv
               --t-end T [--step H] --out FILE.csv
    verify     SPEC | --all-catalog [--suite NAME] [--samples N]
               [--seed S] [--tol EPS] [--out FILE.json]
    sample     SPEC --grid NUxNV --format obj|csv --out FILE

SPEC is a JSON file:

    {"space": "i3" | "ip3",
     "surface": {"kind": "graph", "f": EXPR}
              | {"kind": "parametric", "x": EXPR, "y": EXPR, "z": EXPR}
              | {"kind": "builtin", "name": NAME, "params": {...}},
     "domain": [u0, u1, v0, v1]}          (optional for builtins)

Exit codes: 0 success, 2 spec/usage error, 3 output I/O error,
4 geodesic started on an invalid point (lightlike or inadmissible),
5 verification failure.  CSV and JSON floats use shortest round-trip
formatting, and verify sampling is splitmix64-seeded, so identical
invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import catalog, verify
from .errors import (
    BadParam,
    DomainError,
    ExprSyntaxError,
    IsoGeoError,
    LeftDomain,
    LightlikePointHit,
    NotAdmissible,
    SpecError,
)
from .geodesic import GeodesicKind, integrate
from .isotropy import SpaceKind
from .surface import (
    SurfacePatch,
    curvatures_of_frame,
    frame_at,
    graph_patch,
    grid_values,
    parametric_patch,
)

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_IO = 3
EXIT_BAD_START = 4
EXIT_VERIFY_FAIL = 5


def _fmt(x: float) -> str:
    return repr(float(x))


def parse_surface_spec(spec: dict) -> SurfacePatch:
    if not isinstance(spec, dict):
        raise SpecError("spec must be a JSON object")
    space = spec.get("space")
    if space not in ("i3", "ip3"):
        raise SpecError(f"spec field 'space' must be 'i3' or 'ip3', got {space!r}")
    kind = SpaceKind.SIMPLY_ISOTROPIC if space == "i3" else SpaceKind.PSEUDO_ISOTROPIC

    surface = spec.get("surface")
    if not isinstance(surface, dict) or "kind" not in surface:
        raise SpecError("spec field 'surface' must be an object with a 'kind'")

    domain = spec.get("domain")
    if domain is not None:
        if (
            not isinstance(domain, (list, tuple))
            or len(domain) != 4
            or not all(isinstance(x, (int, float)) for x in domain)
        ):
            raise SpecError("'domain' must be [u0, u1, v0, v1]")
        try:
            domain = tuple(float(x) for x in domain)
        except OverflowError:  # an int beyond the float range
            raise SpecError("'domain' entries must fit in a float") from None
        if not all(map(math.isfinite, domain)):
            raise SpecError(f"'domain' must be finite, got {domain!r}")
        if not (domain[0] < domain[1] and domain[2] < domain[3]):
            raise SpecError(f"empty domain {domain!r}")

    skind = surface["kind"]
    try:
        if skind == "graph":
            if domain is None:
                raise SpecError("graph surfaces need an explicit 'domain'")
            return graph_patch(kind, _spec_expr(surface, "f"), domain)
        if skind == "parametric":
            if domain is None:
                raise SpecError("parametric surfaces need an explicit 'domain'")
            return parametric_patch(
                kind,
                _spec_expr(surface, "x"),
                _spec_expr(surface, "y"),
                _spec_expr(surface, "z"),
                domain,
            )
        if skind == "builtin":
            name = surface.get("name")
            if not isinstance(name, str):
                raise SpecError("builtin surface needs a 'name'")
            params = surface.get("params", {})
            if not isinstance(params, dict):
                raise SpecError("'params' must be an object")
            return catalog.make(name, kind, params, domain)
    except (ExprSyntaxError, BadParam) as err:
        raise SpecError(str(err)) from err
    raise SpecError(f"unknown surface kind {skind!r}")


def _spec_expr(surface: dict, key: str) -> str:
    value = surface.get(key)
    if not isinstance(value, str):
        raise SpecError(f"surface field {key!r} must be an expression string")
    return value


def load_spec_file(path: str) -> SurfacePatch:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SpecError(f"cannot read spec {path!r}: {err}") from err
    return parse_surface_spec(data)


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise SpecError(f"grid must look like 20x20, got {text!r}")
    try:
        nu, nv = int(parts[0]), int(parts[1])
    except ValueError as err:
        raise SpecError(f"grid must look like 20x20, got {text!r}") from err
    if nu < 2 or nv < 2:
        raise SpecError("grid needs at least 2 points per axis")
    return nu, nv


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecError(f"{what} must look like '0.5,-1.2', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as err:
        raise SpecError(f"{what} must be two numbers, got {text!r}") from err


def cmd_curvature(patch: SurfacePatch, nu: int, nv: int, out_path: str) -> int:
    lines = ["u,v,x,y,z,K,H,disc,class,xi1,xi2,xi3"]
    u0, u1, v0, v1 = patch.domain
    for u in grid_values(u0, u1, nu):
        for v in grid_values(v0, v1, nv):
            try:
                f = frame_at(patch, u, v)
                rep = curvatures_of_frame(f)
            except NotAdmissible:
                lines.append(f"{_fmt(u)},{_fmt(v)},,,,,,,inadmissible,,,")
                continue
            except DomainError:
                lines.append(f"{_fmt(u)},{_fmt(v)},,,,,,,undefined,,,")
                continue
            lines.append(
                ",".join(
                    [
                        _fmt(u), _fmt(v), _fmt(f.p_x), _fmt(f.p_y), _fmt(f.p_z),
                        _fmt(rep.K), _fmt(rep.H), _fmt(rep.discriminant),
                        rep.label.value,
                        _fmt(f.xi_x), _fmt(f.xi_y), _fmt(f.xi_z),
                    ]
                )
            )
    _write_text(out_path, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_geodesic(
    patch: SurfacePatch,
    gkind: GeodesicKind,
    start: tuple[float, float],
    velocity: tuple[float, float],
    t_end: float,
    step: float,
    out_path: str,
) -> int:
    trace = integrate(
        patch, gkind, start[0], start[1], velocity[0], velocity[1], t_end, step
    )
    lines = ["t,u,v,du,dv,x,y,z,parallel_residual"]
    for smp, res in zip(trace.samples, trace.residuals["parallel"]):
        p = smp.position
        lines.append(
            ",".join(
                [
                    _fmt(smp.t), _fmt(smp.u), _fmt(smp.v), _fmt(smp.du), _fmt(smp.dv),
                    _fmt(p.x), _fmt(p.y), _fmt(p.z), _fmt(res),
                ]
            )
        )
    _write_text(out_path, "\n".join(lines) + "\n")
    if not trace.completed:
        print(
            f"warning: trace stopped at t={trace.stop_time!r} ({trace.stopped_reason})",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_sample(patch: SurfacePatch, nu: int, nv: int, fmt: str, out_path: str) -> int:
    u0, u1, v0, v1 = patch.domain
    us, vs = grid_values(u0, u1, nu), grid_values(v0, v1, nv)
    positions = [patch.evaluate(u, v).position() for u in us for v in vs]
    if fmt == "csv":
        lines = ["u,v,x,y,z"]
        idx = 0
        for u in us:
            for v in vs:
                p = positions[idx]
                idx += 1
                lines.append(
                    f"{_fmt(u)},{_fmt(v)},{_fmt(p.x)},{_fmt(p.y)},{_fmt(p.z)}"
                )
        _write_text(out_path, "\n".join(lines) + "\n")
        return EXIT_OK
    lines = [f"v {_fmt(p.x)} {_fmt(p.y)} {_fmt(p.z)}" for p in positions]
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1  # OBJ indices are 1-based
            b = a + nv
            lines.append(f"f {a} {b} {b + 1}")
            lines.append(f"f {a} {b + 1} {a + 1}")
    _write_text(out_path, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(
    patch: Optional[SurfacePatch],
    suite: str,
    samples: int,
    seed: int,
    tol: Optional[float],
    out_path: Optional[str],
) -> int:
    suites = list(verify.SUITES) if suite == "all" else [suite]
    report = verify.run_verify(None if patch is None else [patch], suites, samples, seed, tol)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out_path:
        _write_text(out_path, text)
    return EXIT_OK if report["overall"] == "pass" else EXIT_VERIFY_FAIL


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="isogeo",
        description="Curvature, connections and geodesics for admissible "
        "surfaces in simply and pseudo isotropic 3-space.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    cur = sub.add_parser("curvature", help="curvature grid to CSV")
    cur.add_argument("spec")
    cur.add_argument("--grid", default="20x20")
    cur.add_argument("--out", required=True)

    geo = sub.add_parser("geodesic", help="integrate a geodesic to CSV")
    geo.add_argument("spec")
    geo.add_argument("--type", choices=["r", "lc"], default="r")
    geo.add_argument("--start", required=True)
    geo.add_argument("--velocity", required=True)
    geo.add_argument("--t-end", type=float, required=True)
    geo.add_argument("--step", type=float, default=1e-3)
    geo.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="run identity-verification suites")
    ver.add_argument("spec", nargs="?")
    ver.add_argument("--all-catalog", action="store_true")
    ver.add_argument("--suite", choices=list(verify.SUITES) + ["all"], default="all")
    ver.add_argument("--samples", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--tol", type=float, default=None)
    ver.add_argument("--out", default=None)

    smp = sub.add_parser("sample", help="export a grid mesh (OBJ or CSV)")
    smp.add_argument("spec")
    smp.add_argument("--grid", default="20x20")
    smp.add_argument("--format", choices=["obj", "csv"], default="obj")
    smp.add_argument("--out", required=True)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "curvature":
            patch = load_spec_file(args.spec)
            nu, nv = _parse_grid(args.grid)
            return cmd_curvature(patch, nu, nv, args.out)
        if args.command == "geodesic":
            patch = load_spec_file(args.spec)
            gkind = GeodesicKind.RELATIVE if args.type == "r" else GeodesicKind.LEVI_CIVITA
            start = _parse_pair(args.start, "--start")
            velocity = _parse_pair(args.velocity, "--velocity")
            for flag, values in (
                ("--start", start), ("--velocity", velocity),
                ("--t-end", (args.t_end,)), ("--step", (args.step,)),
            ):
                if not all(math.isfinite(x) for x in values):
                    raise SpecError(f"{flag} must be finite, got {values!r}")
            if args.t_end <= 0.0:
                raise SpecError("--t-end must be positive")
            return cmd_geodesic(
                patch, gkind, start, velocity, args.t_end, args.step, args.out
            )
        if args.command == "verify":
            if args.all_catalog == (args.spec is not None):
                raise SpecError("verify needs exactly one of SPEC or --all-catalog")
            patch = None if args.all_catalog else load_spec_file(args.spec)
            if args.samples < 1:
                raise SpecError("--samples must be >= 1")
            return cmd_verify(patch, args.suite, args.samples, args.seed, args.tol, args.out)
        if args.command == "sample":
            patch = load_spec_file(args.spec)
            nu, nv = _parse_grid(args.grid)
            return cmd_sample(patch, nu, nv, args.format, args.out)
        raise SpecError(f"unknown command {args.command!r}")
    except (LightlikePointHit, LeftDomain) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_START
    except NotAdmissible as err:
        if args.command == "geodesic":
            print(f"error: {err}", file=sys.stderr)
            return EXIT_BAD_START
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SPEC
    except (SpecError, BadParam, ExprSyntaxError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SPEC
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except IsoGeoError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SPEC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
