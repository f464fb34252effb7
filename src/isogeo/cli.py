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

import json
import math
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from . import catalog
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
from .surface import SurfacePatch, checked_domain, graph_patch, grid_values, parametric_patch

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_IO = 3
EXIT_BAD_START = 4
EXIT_VERIFY_FAIL = 5

# upper bounds on the grid points of curvature and sample and on verify's
# --samples, checked before any point is evaluated
MAX_GRID_POINTS = 1_000_000
MAX_SAMPLES = 1_000_000


class Option(NamedTuple):
    """One option of a command: ``--name VALUE``, the value converted by
    ``type`` (kept as text where None) and checked against ``choices``; or,
    where ``flag``, a bare ``--name`` that stores True."""

    name: str
    default: object = None
    type: Optional[Callable[[str], object]] = None
    choices: Optional[tuple[str, ...]] = None
    required: bool = False
    flag: bool = False
    help: Optional[str] = None


# every command: its help line, the nargs of its SPEC (None: required, "?":
# optional) and its options, in the order of the help.  The recognizer and
# the parser both read this table
COMMANDS: dict[str, tuple[str, Optional[str], tuple[Option, ...]]] = {
    "curvature": ("curvature grid to CSV", None, (
        Option("--grid", "20x20"),
        Option("--out", required=True),
    )),
    "geodesic": ("integrate a geodesic to CSV", None, (
        Option("--type", "r", choices=("r", "lc")),
        # a token "-1,0" reads as an option, not as a value
        Option("--start", required=True, help="u,v; write --start=-1,0 where u < 0"),
        Option("--velocity", required=True, help="du,dv; write --velocity=-1,0 where du < 0"),
        Option("--t-end", type=float, required=True),
        Option("--step", 1e-3, float),
        Option("--out", required=True),
    )),
    "verify": ("run identity-verification suites", "?", (
        Option("--all-catalog", False, flag=True),
        # checked by verify.run_verify, so that reading argv loads no verify
        Option("--suite", "all"),
        Option("--samples", 100, int),
        Option("--seed", 0, int),
        Option("--tol", type=float),
        Option("--out"),
    )),
    "sample": ("export a grid mesh (OBJ or CSV)", None, (
        Option("--grid", "20x20"),
        Option("--format", "obj", choices=("obj", "csv")),
        Option("--out", required=True),
    )),
}


def __getattr__(name: str):
    # geodesic, verify and the row kernel are imported by the commands that run
    # them, so that the others do not load them; the attributes still resolve
    if name == "verify":
        from . import verify

        return verify
    if name == "_row_kernel":
        from .rows import row_kernel

        return row_kernel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_module = sys.modules[__name__]


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
    skind = surface["kind"]
    try:
        if domain is not None:
            domain = checked_domain(domain)
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
    # ValueError: bytes that are not UTF-8, malformed JSON or an integer
    # literal longer than int() reads; RecursionError: nesting too deep
    except (OSError, ValueError, RecursionError) as err:
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


def cmd_curvature(patch: SurfacePatch, nu: int, nv: int, out_path: str) -> int:
    # imported here, so that only this command loads the fork machinery
    from .forkmap import fork_write, worker_count

    # the u rows are split into one contiguous block per worker process;
    # every block runs the same row loop, one text per u row, so the bytes
    # do not depend on the number of workers
    u0, u1, v0, v1 = patch.domain
    us = grid_values(u0, u1, nu)
    vs = [(v, repr(v)) for v in grid_values(v0, v1, nv)]
    workers = worker_count(nu)
    bounds = [nu * i // workers for i in range(workers + 1)]
    # the kernel and its column table are built before the fork, so that
    # every child inherits them; where the table raises (anything), every
    # point runs every statement, in order, and raises what that raises
    columns, kernel, everywhere = _module._row_kernel(patch)
    try:
        table = columns(vs)
    except Exception:
        kernel, table = everywhere, ((), vs)
    # out_path is opened once every row is computed, so an error leaves no file
    fork_write(
        lambda block: (kernel(u, repr(u), *table) for u in block),
        [us[a:b] for a, b in zip(bounds, bounds[1:])],
        out_path, CURVATURE_HEADER + "\n",
    )
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
    """The parser of every command, built from ``COMMANDS``.  ``main`` runs
    it only on the argv that ``recognize`` declines: help and usage errors."""
    import argparse

    top = argparse.ArgumentParser(
        prog="isogeo",
        description="Curvature, connections and geodesics for admissible "
        "surfaces in simply and pseudo isotropic 3-space.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_line, spec_nargs, options) in COMMANDS.items():
        parser = sub.add_parser(command, help=help_line)
        parser.add_argument("spec", nargs=spec_nargs)
        for opt in options:
            if opt.flag:
                parser.add_argument(opt.name, action="store_true", help=opt.help)
            else:
                parser.add_argument(
                    opt.name, type=opt.type, default=opt.default, choices=opt.choices,
                    required=opt.required, help=opt.help,
                )
    return top


def recognize(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace that ``build_parser`` gives ``argv``, where argv is a
    command, then at most one SPEC and options by their exact names, as
    ``--name value`` (a value that does not start with "-") or
    ``--name=value``, every value converted by the option's type and among
    its choices, and every required argument present.  None for any other
    argv: the parser reads it, and writes its help and error text."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, spec_nargs, options = COMMANDS[argv[0]]
    by_name = {opt.name: opt for opt in options}
    spec, values = None, {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if spec is not None:
                return None
            spec = token
            continue
        name, eq, value = token.partition("=")
        opt = by_name.get(name)
        if opt is None:
            return None
        if opt.flag:
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    return None
            if opt.type is not None:
                try:
                    value = opt.type(value)
                except (TypeError, ValueError):
                    return None
            if opt.choices is not None and value not in opt.choices:
                return None
        values[opt.name] = value
    if spec is None and spec_nargs is None:
        return None
    args = {"command": argv[0], "spec": spec}
    for opt in options:
        if opt.name not in values and opt.required:
            return None
        args[opt.name[2:].replace("-", "_")] = values.get(opt.name, opt.default)
    return SimpleNamespace(**args)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = recognize(argv) or build_parser().parse_args(argv)
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
