"""Where the ``curvature`` row kernel runs each statement of its point body:
once per grid and once per v in its columns, once per row before the row's
loop, or at each point.  The rows are byte for byte those of the same
statements run at every point in their order, which the kernel falls back
to where a statement run before the loop raises; and each line lands in
the place that the loop variables it reads give it."""

import os
import re

import pytest

from genexpr import random_patches
from isogeo import catalog, cli
from isogeo import expr as ex
from isogeo import surface as srf
from isogeo.isotropy import SpaceKind
from test_kernel import CATALOG_CASES, CATALOG_PARAMS

I3, IP3 = SpaceKind.SIMPLY_ISOTROPIC, SpaceKind.PSEUDO_ISOTROPIC
BOX = (-1.0, 1.0, -1.0, 1.0)

# grids through u = 0 and v = 0, where these surfaces are undefined,
# inadmissible or swapped on part of the grid
HAND_WRITTEN = {
    # log(u): a guard that reads u only, undefined on the rows u <= 0, which
    # the kernel runs before the row's loop; m12 = 3 v^2 is 0 on v = 0,
    # inadmissible there in the other rows
    "u-guard": srf.parametric_patch(I3, "u", "v^3", "log(u) + u*v", BOX),
    # log(v): a guard that reads v only, undefined on the columns v <= 0,
    # which the column table runs
    "v-guard": srf.graph_patch(I3, "log(v) + u*v", BOX),
    # m12 = u + 3 v^2: the parameters swap where it is negative, on part of
    # the grid, and the points where it is 0 are inadmissible
    "swap": srf.parametric_patch(IP3, "u", "u*v + v^3", "u^2 - v^2 + u*v", BOX),
    # z = inf * u: the position is not finite, and the points where m12 =
    # u + 3 v^2 is 0 are inadmissible first, by the earlier admissibility test
    "position": srf.parametric_patch(I3, "u", "u*v + v^3", "1e200*1e200*u + v", BOX),
    # m12 = u^2 - 1/4 is 0 on u = +-0.5 (inadmissible rows); log(v + 0.5)
    # is undefined on the columns v <= -0.5
    "rows-and-columns": srf.parametric_patch(I3, "u", "u^2*v - 0.25*v", "log(v + 0.5) + u*v", BOX),
    # no line reads v: m12 = 0 everywhere, and every row falls back
    "no-v": srf.parametric_patch(I3, "exp(u)", "exp(u)", "exp(u)", BOX),
}
CATALOG = [catalog.make(name, kind, CATALOG_PARAMS[name]) for name, kind in (c.values for c in CATALOG_CASES)]


def placements(patch, nu, nv):
    """The rows of ``patch``'s nu x nv grid as ``curvature`` runs them, and
    from ``everywhere``, which runs every statement at every point; and how
    the first ran: "placed", "row" where a row fell back to ``everywhere``,
    or "grid" where the column table raised and every row did."""
    u0, u1, v0, v1 = patch.domain
    us = srf.grid_values(u0, u1, nu)
    vs = [(v, repr(v)) for v in srf.grid_values(v0, v1, nv)]
    columns, kernel, everywhere = cli._row_kernel(patch)
    reference = [everywhere(u, repr(u), (), vs) for u in us]
    try:
        table = columns(vs)
    except Exception:
        return [everywhere(u, repr(u), (), vs) for u in us], reference, "grid"
    fell = []
    kernel.__globals__["everywhere"] = lambda *args: fell.append(args) or everywhere(*args)
    return [kernel(u, repr(u), *table) for u in us], reference, "row" if fell else "placed"


def test_the_placed_rows_are_those_of_every_statement_at_every_point():
    # the catalog, 240 random graphs and parametric patches in both spaces
    # (every other one of them in I3) and the hand-written surfaces; the
    # three ways of running the rows all occur
    ran = set()
    for patch in [*CATALOG, *random_patches(7100, 240), *HAND_WRITTEN.values()]:
        placed, rows, how = placements(patch, 5, 5)
        assert placed == rows, patch
        ran.add(how)
    assert ran == {"placed", "row", "grid"}


@pytest.mark.parametrize("name, ran, classes", [
    ("u-guard", "row", {"inadmissible", "undefined", "diagonalizable"}),
    ("v-guard", "grid", {"undefined", "diagonalizable"}),
    ("swap", "placed", {"inadmissible", "diagonalizable", "complex_principal", "umbilic"}),
    ("position", "placed", {"inadmissible", "undefined"}),
    ("rows-and-columns", "grid", {"inadmissible", "undefined", "diagonalizable"}),
    ("no-v", "row", {"inadmissible"}),
])
def test_the_hand_written_grids_cross_their_regions(name, ran, classes):
    placed, rows, how = placements(HAND_WRITTEN[name], 9, 9)
    assert placed == rows and how == ran
    assert classes <= {row.split(",")[8] for row in "".join(placed).splitlines()}
    if name == "swap":
        grid = srf.grid_values(-1.0, 1.0, 9)
        swapped = {srf.frame_at(HAND_WRITTEN[name], u, v).swapped for u in grid for v in grid if u + 3 * v * v}
        assert swapped == {False, True}


def curvature_bytes(monkeypatch, tmp_path, patch, cpus, everywhere):
    """The CSV of ``curvature`` on patch's 9 x 7 grid with ``cpus`` worker
    processes; with ``everywhere``, every statement runs at every point."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if everywhere:
            real = cli._row_kernel
            m.setattr(cli, "_row_kernel", lambda p: (lambda vs: ((), vs), *[real(p)[2]] * 2))
        out = tmp_path / "out.csv"
        assert cli.cmd_curvature(patch, 9, 7, str(out)) == 0
        return out.read_bytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_curvature_writes_the_bytes_of_every_statement_at_every_point(monkeypatch, tmp_path, cpus):
    for patch in [*CATALOG, *random_patches(7400, 200), *HAND_WRITTEN.values()]:
        placed = curvature_bytes(monkeypatch, tmp_path, patch, cpus, False)
        assert placed == curvature_bytes(monkeypatch, tmp_path, patch, cpus, True), patch


def bodies(patch) -> tuple[list, list]:
    """The body lines of ``patch``'s row kernel and of its columns."""
    out = []
    real = ex.compile_function
    ex.compile_function = lambda *args: out.append(list(args[1])) or real(*args)
    try:
        cli._row_kernel(patch)
    finally:
        ex.compile_function = real
    kernel, columns = out
    return kernel, columns


def test_the_sphere_runs_at_each_point_only_lines_that_read_v():
    # K, H, disc and the class are constants of the parabolic sphere, and
    # xi_1 = -u/p reads u only: the columns compute the first once per
    # grid, the row's prelude the second; each statement of the loop reads
    # a name that v gives it, through the table or an earlier statement
    kernel, columns = bodies(catalog.make("parabolic_sphere", I3, {"p": 2.0}))
    header = next(line for line in kernel if line.startswith("for v, sv, "))
    start, end = kernel.index("    try:", kernel.index(header)) + 1, kernel.index("    except NotAdmissible:")
    loop = kernel[start:end]
    assert not [line for line in loop if "label" in line or "tol" in line]
    head = columns[: columns.index("cols = []")]
    assert "if disc > tol:" in head and "s3 = f'{k!r}'" in head and "s4 = f'{h_mean!r}'" in head
    assert "    s6 = f'{m23!r}'" in kernel[: kernel.index(header)]
    known = {"v", *re.findall(r"\w+", header.removesuffix(" in cols:"))} - {"for", "sv"}
    statements = []
    for line in loop:
        if line[8] == " " or line.lstrip().startswith(("elif ", "else:", "except")):
            statements[-1] += "\n" + line
        else:
            statements.append(line)
    for text in statements:
        assert known & set(re.findall(r"[A-Za-z_]\w*", text)), text
        known |= set(re.findall(r"\w+", " ".join(re.findall(r"^ *(?:\w+, )*\w+ = ", text, re.M))))


def test_the_helicoid_columns_hold_its_sinh_cosh_block_and_z():
    # sinh(v), cosh(v) and z = c v read v only: the table computes them and
    # z's text once per v; x = u cosh(v) and y = u sinh(v) are written at
    # each point
    kernel, columns = bodies(catalog.make("helicoid", IP3, {"c": 1.0}))
    loop = columns[columns.index("for v, sv in vs:") + 1:]
    (block,) = [i for i, line in enumerate(loop) if line == "    try:"]
    assert [re.sub(r"j\d+_", "", line) for line in loop[block + 1:block + 3]] == ["        s = sinh(V)", "        c = cosh(V)"]
    assert re.fullmatch(r"    s2 = f'\{j\d+_0!r\}'", loop[-3])
    assert not [line for line in kernel if "sinh" in line or "cosh" in line or "s2 = " in line]


def test_the_table_is_built_once_in_the_parent_before_any_fork(monkeypatch, tmp_path):
    events = []
    real_row_kernel, real_fork = cli._row_kernel, os.fork

    def recording_row_kernel(patch):
        columns, kernel, everywhere = real_row_kernel(patch)
        return (lambda vs: events.append(("columns", os.getpid())) or columns(vs)), kernel, everywhere

    monkeypatch.setattr(cli, "_row_kernel", recording_row_kernel)
    monkeypatch.setattr(os, "fork", lambda: events.append(("fork", os.getpid())) or real_fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    patch = catalog.make("helicoid", IP3, {"c": 1.0})
    assert cli.cmd_curvature(patch, 9, 9, str(tmp_path / "out.csv")) == 0
    assert events == [("columns", os.getpid()), ("fork", os.getpid()), ("fork", os.getpid())]
