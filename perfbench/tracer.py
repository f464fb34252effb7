"""Spans around isogeo's public functions, installed from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` with a
wrapper at every place an isogeo module holds it (its defining module and
each ``from .x import f`` site), so internal calls are traced as well as
calls through the package.  ``uninstall`` puts the originals back.  Each
span records its name, start, end and parent; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function, span name).  Span names are "<layer>.<function>".
LAYERS = (
    ("isogeo.expr", "eval_jet2", "expr.eval_jet2"),
    ("isogeo.expr", "parse", "catalog.parse"),
    ("isogeo.catalog", "make", "catalog.make"),
    ("isogeo.surface", "frame_at", "surface.frame_at"),
    ("isogeo.surface", "curvatures_of_frame", "surface.curvatures_of_frame"),
    ("isogeo.connection", "coeffs_of_frame", "connection.coeffs_of_frame"),
    ("isogeo.connection", "gamma_of_frame", "connection.gamma_of_frame"),
    ("isogeo.connection", "curvature_tensors_at", "connection.curvature_tensors_at"),
    ("isogeo.connection", "codazzi_residual", "connection.codazzi_residual"),
    ("isogeo.connection", "egregium_check", "connection.egregium_check"),
    ("isogeo.connection", "gauss_equation_rhs", "connection.gauss_equation_rhs"),
    ("isogeo.geodesic", "integrate", "geodesic.integrate"),
    ("isogeo.geodesic", "plane_section", "geodesic.plane_section"),
    ("isogeo.verify", "run_verify", "verify.run_verify"),
    ("isogeo.verify", "suite_flatness", "verify.suite.flatness"),
    ("isogeo.verify", "suite_egregium", "verify.suite.egregium"),
    ("isogeo.verify", "suite_codazzi", "verify.suite.codazzi"),
    ("isogeo.verify", "suite_umbilic", "verify.suite.umbilic"),
    ("isogeo.verify", "suite_minimal", "verify.suite.minimal"),
    ("isogeo.verify", "suite_sphere_geodesics", "verify.suite.sphere-geodesics"),
    ("isogeo.cli", "cmd_curvature", "cli.cmd_curvature"),
    ("isogeo.cli", "cmd_geodesic", "cli.cmd_geodesic"),
    ("isogeo.cli", "cmd_verify", "cli.cmd_verify"),
    ("isogeo.cli", "cmd_sample", "cli.cmd_sample"),
)


class Tracer:
    def __init__(self) -> None:
        # span i is (name, parent index or -1, start, end); a span's slot is
        # taken on entry so that parents precede their children
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "isogeo" or n.startswith("isogeo.")]
        for module_name, attr, span_name in LAYERS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:  # renamed or removed: its metrics read 0
                continue
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()

    def summary(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self seconds per span name."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for (name, _, start, end), child in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += (end - start) - child
        return calls, self_s

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for idx, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{idx},{parent},{name},{start!r},{end!r}\n")
