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
4 geodesic started on an invalid point (lightlike, inadmissible, or
where the geodesic equation is not finite),
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

from . import catalog
from . import expr as ex
from .errors import (
    BadParam,
    DomainError,
    ExprSyntaxError,
    IsoGeoError,
    LeftDomain,
    LightlikePointHit,
    NonFiniteStart,
    NotAdmissible,
    SpecError,
)
from .isotropy import SpaceKind
from .surface import (
    CURVATURE_GLOBALS,
    CurvatureClass,
    SurfacePatch,
    curvature_lines,
    graph_patch,
    grid_values,
    parametric_patch,
    point_lines,
)

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_IO = 3
EXIT_BAD_START = 4
EXIT_VERIFY_FAIL = 5

# upper bounds on the grid points of curvature and sample and on verify's
# --samples, checked before any point is evaluated
MAX_GRID_POINTS = 1_000_000
MAX_SAMPLES = 1_000_000


def __getattr__(name: str):
    # geodesic and verify are imported by the commands that run them, so
    # that the others do not load them; ``cli.verify`` still resolves
    if name == "verify":
        from . import verify

        return verify
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in domain)
        ):
            raise SpecError("'domain' must be [u0, u1, v0, v1]")
        try:
            domain = tuple(float(x) for x in domain)
        except OverflowError:  # an int beyond the float range
            raise SpecError("'domain' entries must fit in a float") from None
        if not all(map(math.isfinite, domain)):
            raise SpecError(f"'domain' must be finite, got {domain!r}")
        # grid values are u0 + (u1 - u0) * i / (n - 1)
        if not (math.isfinite(domain[1] - domain[0]) and math.isfinite(domain[3] - domain[2])):
            raise SpecError(f"'domain' widths must be finite, got {domain!r}")
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
    if nu * nv > MAX_GRID_POINTS:
        raise SpecError(f"grid {nu}x{nv} has more than {MAX_GRID_POINTS} points")
    return nu, nv


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecError(f"{what} must look like '0.5,-1.2', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as err:
        raise SpecError(f"{what} must be two numbers, got {text!r}") from err


CURVATURE_HEADER = "u,v,x,y,z,K,H,disc,class,xi1,xi2,xi3"


# the names of the nine float columns of a row (x, y, z, K, H, disc and
# xi) in the frame and curvature lines
_ROW_FLOATS = ("px", "py", "pz", "k", "h_mean", "disc", "a", "b", "xi_z")


def _row_kernel(patch: SurfacePatch):
    """``(u, su, vs) ->`` the CSV rows of the grid points (u, v), su the
    repr of u and (v, sv) in ``vs`` with sv the repr of v, as one text with
    a newline after each row.  Each point runs the jet, frame and
    curvature lines of ``surface``, which raise what ``frame_at`` and
    ``curvatures_of_frame`` raise there: NotAdmissible gives the point an
    ``inadmissible`` row, DomainError an ``undefined`` one, and so does a
    position that is not finite; any other error propagates.

    Every value written is a Python float, so repr is its shortest
    round-trip form, and two equal floats that are not zeros (0.0 == -0.0;
    NaN equals nothing) have the same bits.  So a column whose value
    equals, and is not zero, the value it last wrote in the row writes
    that text again instead of a new repr, and the bytes are those of a
    repr per value."""
    w, namespace = point_lines(patch)
    curvature_lines(w)
    px, py, pz = w.get("px py pz")
    w.line(
        f"if not (isfinite({px}) and isfinite({py}) and isfinite({pz})):",
        "    raise DomainError(f'position not finite at ({u!r}, {v!r})')",
    )
    # column k keeps the value it last wrote in c{k} and its text in s{k};
    # a column that holds U or V (x and y on a graph) writes su or sv
    floats = w.get(" ".join(_ROW_FLOATS))
    cells = [{"U": "su", "V": "sv"}.get(str(x), f"s{k}") for k, x in enumerate(floats)]
    texts = [
        line
        for k, x in enumerate(floats) if cells[k] == f"s{k}"
        for line in (f"if {x} != c{k} or not {x}:", f"    c{k} = {x}", f"    s{k} = f'{{{x}!r}}'")
    ]
    point = w.lines(*texts)
    row = ",".join(f"{{{x}}}" for x in ["su", "sv", *cells[:6], "label", *cells[6:]])
    body = [
        "U = float(u)",  # u is the same along the row: its float is taken once per call
        f"{' = '.join(f'c{k}' for k in range(len(_ROW_FLOATS)))} = NAN",
        "rows = []",
        "row = rows.append",
        "for v, sv in vs:",
        "    try:",
        *(f"        {x}" for x in point),
        "    except NotAdmissible:",
        "        row(f'{su},{sv},,,,,,,inadmissible,,,\\n')",
        "        continue",
        "    except DomainError:",
        "        row(f'{su},{sv},,,,,,,undefined,,,\\n')",
        "        continue",
        *(f"    {x}" for x in texts),
        f'    row(f"{row}\\n")',
        "return ''.join(rows)",
    ]
    env = {**CURVATURE_GLOBALS, **{c.name: c.value for c in CurvatureClass}, "NAN": math.nan}
    return ex.compile_function("kernel(u, su, vs)", body, {**namespace, **env})


def cmd_curvature(patch: SurfacePatch, nu: int, nv: int, out_path: str) -> int:
    # imported here, so that only this command loads the fork machinery
    from .forkmap import fork_map, worker_count

    # the u rows are split into one contiguous block per worker process;
    # every block runs the same row loop, so the bytes do not depend on
    # the number of workers
    u0, u1, v0, v1 = patch.domain
    us = grid_values(u0, u1, nu)
    vs = [(v, repr(v)) for v in grid_values(v0, v1, nv)]
    workers = worker_count(nu)
    bounds = [nu * i // workers for i in range(workers + 1)]
    # compiled before the fork, so that every child inherits it
    kernel = _row_kernel(patch)
    texts = fork_map(
        lambda block: "".join([kernel(u, repr(u), vs) for u in block]),
        [us[a:b] for a, b in zip(bounds, bounds[1:])],
    )
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CURVATURE_HEADER + "\n")
        for text in texts:
            fh.write(text)
    return EXIT_OK


def cmd_geodesic(
    patch: SurfacePatch,
    gtype: str,
    start: tuple[float, float],
    velocity: tuple[float, float],
    t_end: float,
    step: float,
    out_path: str,
) -> int:
    """``gtype`` is the value of ``--type``: "r" or "lc"."""
    from .geodesic import GeodesicKind, csv_text, integrate

    trace = integrate(
        patch, GeodesicKind(gtype), start[0], start[1], velocity[0], velocity[1], t_end, step
    )
    _write_text(out_path, csv_text(trace))
    if not trace.completed:
        print(
            f"warning: trace stopped at t={trace.stop_time!r} ({trace.stopped_reason})",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_sample(patch: SurfacePatch, nu: int, nv: int, fmt: str, out_path: str) -> int:
    u0, u1, v0, v1 = patch.domain
    us, vs = grid_values(u0, u1, nu), grid_values(v0, v1, nv)
    # each grid point's position, u-major; None where it is undefined: its
    # jet raises DomainError or the position is not finite
    points: list[Optional[tuple[float, float, float]]] = []
    kernel = patch.jet_kernel
    for u in us:
        for v in vs:
            try:
                jet = kernel(u, v)
            except DomainError:
                points.append(None)
                continue
            x, y, z = jet[0], jet[6], jet[12]
            finite = math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
            points.append((x, y, z) if finite else None)
    if fmt == "csv":
        lines = ["u,v,x,y,z"]
        svs = [repr(v) for v in vs]
        rows = iter(points)
        for u in us:
            su = repr(u)
            for sv in svs:
                p = next(rows)
                lines.append(f"{su},{sv},{p[0]!r},{p[1]!r},{p[2]!r}" if p else f"{su},{sv},,,")
        _write_text(out_path, "\n".join(lines) + "\n")
        return EXIT_OK
    # an undefined point has no vertex, and no face uses it; index[k] is the
    # 1-based OBJ index of grid point k's vertex, 0 where it has none
    lines = []
    index = []
    for p in points:
        if p:
            lines.append(f"v {p[0]!r} {p[1]!r} {p[2]!r}")
        index.append(len(lines) if p else 0)
    for i in range(nu - 1):
        for j in range(nv - 1):
            k = i * nv + j
            a, b, c, d = index[k], index[k + nv], index[k + nv + 1], index[k + 1]
            if a and b and c:
                lines.append(f"f {a} {b} {c}")
            if a and c and d:
                lines.append(f"f {a} {c} {d}")
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
    from . import verify

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
    # argparse reads "-1,0" as an option, not as a value
    geo.add_argument("--start", required=True, help="u,v; write --start=-1,0 where u < 0")
    geo.add_argument("--velocity", required=True, help="du,dv; write --velocity=-1,0 where du < 0")
    geo.add_argument("--t-end", type=float, required=True)
    geo.add_argument("--step", type=float, default=1e-3)
    geo.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="run identity-verification suites")
    ver.add_argument("spec", nargs="?")
    ver.add_argument("--all-catalog", action="store_true")
    # checked by verify.run_verify, so that the parser does not load verify
    ver.add_argument("--suite", default="all")
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
                patch, args.type, start, velocity, args.t_end, args.step, args.out
            )
        if args.command == "verify":
            if args.all_catalog == (args.spec is not None):
                raise SpecError("verify needs exactly one of SPEC or --all-catalog")
            patch = None if args.all_catalog else load_spec_file(args.spec)
            if not 1 <= args.samples <= MAX_SAMPLES:
                raise SpecError(f"--samples must be in [1, {MAX_SAMPLES}], got {args.samples}")
            if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
                raise SpecError(f"--tol must be finite and non-negative, got {args.tol!r}")
            return cmd_verify(patch, args.suite, args.samples, args.seed, args.tol, args.out)
        if args.command == "sample":
            patch = load_spec_file(args.spec)
            nu, nv = _parse_grid(args.grid)
            return cmd_sample(patch, nu, nv, args.format, args.out)
        raise SpecError(f"unknown command {args.command!r}")
    except IsoGeoError as err:
        print(f"error: {err}", file=sys.stderr)
        bad_start = (LightlikePointHit, LeftDomain, NonFiniteStart)
        if isinstance(err, bad_start) or (isinstance(err, NotAdmissible) and args.command == "geodesic"):
            return EXIT_BAD_START
        return EXIT_SPEC
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
