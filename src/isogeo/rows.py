"""The row kernel of the ``curvature`` command, which only that command imports."""

import math

from . import expr as ex
from .surface import CURVATURE_GLOBALS, CurvatureClass, SurfacePatch, curvature_lines, point_lines

# the nine float columns of a row (x, y, z, K, H, disc and xi), as the lines name them
_ROW_FLOATS = ("px", "py", "pz", "k", "h_mean", "disc", "a", "b", "xi_z")


def row_kernel(patch: SurfacePatch):
    """``(columns, kernel, everywhere)``: ``kernel(u, su, *columns(vs))`` is
    the CSV rows of the grid points (u, v), su the repr of u and (v, sv) in
    ``vs`` with sv the repr of v, as one text with a newline after each
    row.  Each point runs the jet, frame and curvature lines of ``surface``,
    which raise what ``frame_at`` and ``curvatures_at`` raise there:
    NotAdmissible gives the point an ``inadmissible`` row, DomainError an
    ``undefined`` one, and so does a position that is not finite; any other
    error propagates.

    Each statement of those lines runs where what it reads stops changing:
    in ``columns`` once per grid if it reads neither u nor v, once per v if
    only v; once per row, before the row's loop, if only u; else at each
    point, in their order.  Where a statement run before the loop raises,
    ``columns`` raises, or the row's call returns ``everywhere(u, su,
    consts, cols)``, which runs each statement at each point in their order
    (compiled on first use), so the rows never depend on the placement.

    Every value written is a Python float, so repr is its shortest
    round-trip form, and two equal floats that are not zeros (0.0 == -0.0;
    NaN equals nothing) have the same bits.  So a column written at each
    point whose value equals, and is not zero, the value it last wrote in
    the row writes that text again instead of a new repr."""
    w, namespace = point_lines(patch)
    curvature_lines(w)
    px, py, pz = w.get("px py pz")
    w.line(
        f"if not (isfinite({px}) and isfinite({py}) and isfinite({pz})):",
        "    raise DomainError(f'position not finite at ({u!r}, {v!r})')",
    )
    # column k writes its text s{k} (at each point, keeping its last value in
    # c{k}); a column that holds U or V (x and y on a graph) writes su or sv
    floats = w.get(" ".join(_ROW_FLOATS))
    cells = [{"U": "su", "V": "sv"}.get(str(x), f"s{k}") for k, x in enumerate(floats)]
    own = {cell: str(x) for cell, x in zip(cells, floats) if cell not in ("su", "sv")}
    row = 'row(f"' + ",".join(f"{{{x}}}" for x in ["su", "sv", *cells[:6], "label", *cells[6:]]) + '\\n")'
    # the statements of the one liveness pass; a guard goes where the names
    # it tests go, not those of its message
    statements = w.statements(*own.values())
    # a statement's level is 1 where it reads u, 2 where v and 3 where both,
    # through the names it reads; a name's, the highest of its writers'
    level, last, at = {"u": 1, "U": 1, "v": 2}, None, []
    while at != last:
        last, at = at, []
        for x in statements:
            a = 0
            for name in x.reads:
                a |= level.get(name, 0)
            level.update(dict.fromkeys(x.writes, a))
            at.append(a)
    level.update({s: level.get(x, 0) for s, x in own.items()})
    named = [*dict.fromkeys(n for x in statements for n in x.writes), *own]
    env = {**namespace, **CURVATURE_GLOBALS, **{c.name: c.value for c in CurvatureClass}, "NAN": math.nan}

    def place(at, lev, env):
        """The ``columns`` and ``kernel`` that run each statement at its
        level in ``at``, and each text at ``lev`` of its name."""
        lines = [[y for x, a in zip(statements, at) if a == b for y in x.lines] for b in range(4)]
        texts = [[], [], [], []]
        for s, x in own.items():
            text = f"{s} = f'{{{x}!r}}'"
            loop = [f"if {x} != c{s[1:]} or not {x}:", f"    c{s[1:]} = {x}", f"    {text}"]
            texts[lev(s)] += loop if lev(s) == 3 else [text]
        prelude = lines[1] + texts[1]
        # what the kernel reads: its statements, messages too, and the row;
        # a text reads its column's value, at the value's own level
        read = {"label", *cells}.union(*(x.reads | x.message for x, a in zip(statements, at) if a in (1, 3)))
        consts, per_v = ([n for n in named if n in read and lev(n) == b] for b in (0, 2))
        kernel = ex.compile_function("kernel(u, su, consts, cols)", [
            *([f"{', '.join(consts)}, = consts"] if consts else []),
            "U = float(u)",
            *(["try:", *(f"    {x}" for x in prelude), "except Exception:",
               "    return everywhere(u, su, consts, cols)"] if prelude else []),
            *([" = ".join(f"c{s[1:]}" for s in own if lev(s) == 3) + " = NAN"] if texts[3] else []),
            "rows = []", "row = rows.append", f"for v, sv, {', '.join(per_v or ['*_'])} in cols:",
            "    try:",
            *(f"        {x}" for x in lines[3] or ["pass"]),
            "    except NotAdmissible:", "        row(f'{su},{sv},,,,,,,inadmissible,,,\\n')", "        continue",
            "    except DomainError:", "        row(f'{su},{sv},,,,,,,undefined,,,\\n')", "        continue",
            *(f"    {x}" for x in texts[3]),
            f"    {row}",
            "return ''.join(rows)",
        ], env)
        return ex.compile_function("columns(vs)", [
            *lines[0], *texts[0], "cols = []", "col = cols.append", "for v, sv in vs:",
            *(f"    {x}" for x in lines[2] + texts[2]), f"    col((v, sv, {''.join(f'{n}, ' for n in per_v)}))",
            f"return ({''.join(f'{n}, ' for n in consts)}), cols",
        ], {**env}), kernel

    def everywhere(*args):  # compiled on first use
        everywhere.kernel = getattr(everywhere, "kernel", None) or place([3] * len(at), lambda name: 3, env)[1]
        return everywhere.kernel(*args)

    return (*place(at, lambda name: level.get(name, 0), {**env, "everywhere": everywhere}), everywhere)
