"""Reference for the statement records of ``expr.Lines``: the text parse
that ``rows.row_kernel`` ran on the lines of a liveness pass before the
writer kept each statement as a record, kept as it was.

``statements`` groups the lines into statements by indentation and by the
``elif``, ``else:`` and ``except`` lines that continue a block, and reads
each statement's names from its text.
"""

from __future__ import annotations

import re

_NAMES = re.compile(r"[A-Za-z_]\w*").findall
_TARGETS = re.compile(r"^ *(?:(?:\w+, )*\w+ (?:>>)?= )+", re.M).findall


def statements(lines) -> list[tuple]:
    """(lines, reads, writes, message) of each statement of ``lines``: the
    names of its lines but its raise lines, the names it assigns in their
    order (also m >>= 1), and the names of its raise lines."""
    groups: list[list[str]] = []
    for x in lines:
        if x[0] == " " or x.startswith(("elif ", "else:", "except")):
            groups[-1].append(x)
        else:
            groups.append([x])
    reads = [set(_NAMES(" ".join(x for x in s if not x.lstrip().startswith("raise ")))) for s in groups]
    writes = [tuple(_NAMES("".join(_TARGETS("\n".join(s))))) for s in groups]
    messages = [set(_NAMES(" ".join(x for x in s if x.lstrip().startswith("raise ")))) for s in groups]
    return list(zip(map(tuple, groups), reads, writes, messages))
