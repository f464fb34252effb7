"""Reference for where a geodesic stage kernel puts its lines, and the
parts of a stage kernel that tests compare with it.

``sample_last`` is the pass that placed a stage kernel's lines before two
liveness passes of ``expr.Lines.statements`` did, kept as it was, on kernel
text.  Tests run it on a stage kernel's whole body (``stage``): the
writer's lines in its order, with the ``if not sample:`` return last
before the final one.
"""

from __future__ import annotations

import re

import pytest

from isogeo import expr as ex
from isogeo import geodesic as geo

# a kernel line's names; the indent, targets and operator of the assignment
# it is, if any
_NAMES = re.compile(r"[A-Za-z_]\w*").findall
_ASSIGNMENT = re.compile(r"( *)(\w+(?:, \w+)*) (\S*)= ").match


def sample_last(body: list[str]) -> list[str]:
    """``body`` with each one-line assignment before its ``if not sample:``
    return moved behind the return, in order, where neither the return nor
    a line kept before it reads its targets and no kept line after it
    assigns a name it reads."""
    cut = body.index("if not sample:")
    live, assigned, kept, moved = set(_NAMES(body[cut + 1])), set(), [], []
    for line in reversed(body[:cut]):
        names, match = _NAMES(line), _ASSIGNMENT(line)
        targets = match[2].split(", ") if match else ()
        if match and not match[1] + match[3] and live.isdisjoint(targets) and assigned.isdisjoint(names):
            moved.append(line)
        else:
            kept.append(line)
            live.update(names)
            assigned.update(targets)
    return [*kept[::-1], *body[cut:cut + 2], *moved[::-1], *body[cut + 2:]]


def assigned(line: str) -> list[str]:
    """The names that a kernel line assigns at its own indent, if it is an
    assignment (augmented ones included); else none."""
    match = _ASSIGNMENT(line)
    return match[2].split(", ") if match else []


def stage(patch, gkind):
    """The stage kernel of ``patch`` and ``gkind``, freshly compiled, with
    the body it was compiled from; the kernel's writer; and the whole
    body, the writer's lines unsplit, in order, followed by both returns,
    compiled with the same namespace."""
    seen = {}
    real_accel_lines, real_compile = geo._accel_lines, ex.compile_function

    def accel_lines(w, relative):
        seen["writer"], seen["returns"] = w, real_accel_lines(w, relative)
        return seen["returns"]

    def compile_function(signature, lines, namespace):
        seen["body"], seen["namespace"] = list(lines), dict(namespace)
        return real_compile(signature, lines, namespace)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(geo, "_accel_lines", accel_lines)
        m.setattr(ex, "compile_function", compile_function)
        patch.kernels.pop(gkind, None)
        kernel = geo._accel_kernel(patch, gkind)
    early, final = seen["returns"]
    body, w = seen["body"], seen["writer"]
    whole_body = [*body[:2], *w.lines(early, final), "if not sample:", f"    {early}", final]
    whole = real_compile("kernel(u, v, du, dv, sample=False)", whole_body, seen["namespace"])
    return kernel, body, w, whole, whole_body
