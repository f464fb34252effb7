"""Fuzzing the CLI over spec JSON: every input ends in a documented exit
code, never in a traceback, a curvature row that carries a class carries
no nan, and a geodesic trace writes no nan.

Specs mix well-formed and malformed pieces: both spaces and unknown
ones; graph, parametric and builtin surfaces; expressions from
``genexpr.random_expr_full`` (division, log, sqrt, tan, powers) and
hand-picked overflowing ones; domains with ``Infinity``, ``NaN``, huge
integers and widths that overflow.  ``curvature`` runs its forked row
blocks on every example with more than one u row and more than one CPU.
``geodesic`` draws its start (inside the domain, mostly), velocity,
``--t-end`` and ``--step`` with the spec, for both connections.
``verify`` runs one spec-driven suite with a few samples, a seed and now
and then a ``--tol``.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import genexpr
from isogeo import catalog, cli
from isogeo.expr import to_source
from isogeo.rng import SplitMix64

CLASSES = {"diagonalizable", "non_diagonalizable_real", "complex_principal", "umbilic"}
DOCUMENTED_EXITS = {cli.EXIT_OK, cli.EXIT_SPEC}  # curvature and sample
GEODESIC_EXITS = {cli.EXIT_OK, cli.EXIT_SPEC, cli.EXIT_BAD_START}
VERIFY_EXITS = {cli.EXIT_OK, cli.EXIT_SPEC, cli.EXIT_VERIFY_FAIL}

# inputs that overflow, leave a function's domain or do not parse
_WILD_EXPRS = (
    "exp(u)", "exp(exp(u))", "sin(1e308*10*u)", "u^1e300", "1e200*u*1e200", "log(u)",
    "sqrt(v)", "1/u", "tan(u)", "abs(u - v)", "u^-2", "u +", "foo(u)", "", "u^(v^u)",
)
_HUGE_INT = 10**400

numbers = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.sampled_from([_HUGE_INT, -_HUGE_INT, 1e308, -1e308, 1e-300]),
)


@st.composite
def expressions(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(_WILD_EXPRS))
    rng = SplitMix64(draw(st.integers(0, 2**64 - 1)))
    return to_source(genexpr.random_expr_full(rng, draw(st.integers(0, 4))))


@st.composite
def domains(draw):
    shape = draw(st.integers(0, 9))
    if shape == 8:
        return None  # required for graph and parametric surfaces
    if shape == 9:
        return draw(st.lists(numbers, min_size=3, max_size=5))
    u0, v0 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    du, dv = draw(st.floats(1e-3, 4.0)), draw(st.floats(1e-3, 4.0))
    return [u0, u0 + du, v0, v0 + dv]


@st.composite
def surfaces(draw):
    kind = draw(st.sampled_from(["graph"] * 4 + ["parametric"] * 4 + ["builtin"] * 3 + ["cone"]))
    if kind == "graph":
        return {"kind": kind, "f": draw(expressions())}
    if kind == "parametric":
        return {"kind": kind, **{c: draw(expressions()) for c in ("x", "y", "z")}}
    if kind == "builtin":
        name = draw(st.sampled_from(catalog.catalog_names() + ["nope"]))
        required = catalog.CATALOG[name].required if name in catalog.CATALOG else ()
        params = {key: draw(expressions() if key in "fgz" else numbers) for key in required}
        # a missing, an unknown or a wrongly typed parameter now and then
        if required and draw(st.integers(0, 5)) == 0:
            del params[required[0]]
        if draw(st.integers(0, 5)) == 0:
            key = draw(st.sampled_from(["p", "a", "f", "q"]))
            params[key] = draw(st.one_of(numbers, expressions()))
        return {"kind": kind, "name": name, "params": params}
    return {"kind": kind}


@st.composite
def specs(draw):
    surface = draw(surfaces())
    spec = {"space": draw(st.sampled_from(["i3", "ip3"] * 3 + ["e3"])), "surface": surface}
    domain = draw(domains())
    # builtins carry default domains, which their own validity depends on
    if domain is not None and (surface["kind"] != "builtin" or draw(st.booleans())):
        spec["domain"] = domain
    return spec


def check_curvature_csv(text: str) -> None:
    lines = text.splitlines()
    assert lines[0] == "u,v,x,y,z,K,H,disc,class,xi1,xi2,xi3"
    for line in lines[1:]:
        row = line.split(",")
        assert len(row) == 12, line
        if row[8] in CLASSES:
            assert not any(math.isnan(float(x)) for x in row[:8] + row[9:]), line
        else:
            assert row[8] in ("inadmissible", "undefined") and set(row[2:8] + row[9:]) == {""}, line


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(specs(), st.integers(2, 6), st.integers(2, 6), st.sampled_from(["curvature", "csv", "obj"]))
def test_cli_on_fuzzed_specs(spec, nu, nv, command):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, out = Path(tmp) / "spec.json", Path(tmp) / "out"
        spec_path.write_text(json.dumps(spec))
        argv = [str(spec_path), "--grid", f"{nu}x{nv}", "--out", str(out)]
        if command == "curvature":
            argv = ["curvature", *argv]
        else:
            argv = ["sample", *argv, "--format", command]
        # an exception escaping main would be a traceback
        code = cli.main(argv)
        assert code in DOCUMENTED_EXITS
        if code != cli.EXIT_OK:
            assert not out.exists()
            return
        text = out.read_text()
        if command == "curvature":
            check_curvature_csv(text)
            assert len(text.splitlines()) == 1 + nu * nv


@st.composite
def geodesic_specs(draw):
    """The specs above, or (half the time) a well-formed one: a graph or
    parametric surface over a finite domain, so that most traces run."""
    if draw(st.booleans()):
        return draw(specs())
    if draw(st.integers(0, 3)):  # a graph is admissible everywhere
        surface = {"kind": "graph", "f": draw(expressions())}
    else:
        surface = {"kind": "parametric", **{c: draw(expressions()) for c in ("x", "y", "z")}}
    u0, v0 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    domain = [u0, u0 + draw(st.floats(0.1, 4.0)), v0, v0 + draw(st.floats(0.1, 4.0))]
    return {"space": draw(st.sampled_from(["i3", "ip3"])), "surface": surface, "domain": domain}


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and abs(x) < 1e308 and math.isfinite(x)


@st.composite
def geodesic_args(draw, spec):
    """--start, --velocity, --t-end and --step: mostly a start inside the
    spec's domain, where that is four finite numbers, and at most 40
    steps."""
    domain = spec.get("domain")
    start = [draw(numbers), draw(numbers)]
    if isinstance(domain, list) and len(domain) == 4 and all(map(_finite, domain)) and draw(st.integers(0, 4)):
        u0, u1, v0, v1 = map(float, domain)
        start = [lo + (hi - lo) * draw(st.floats(0.0, 1.0)) for lo, hi in ((u0, u1), (v0, v1))]
    # one value in six is wild
    tame = lambda lo, hi: draw(st.floats(lo, hi) if draw(st.integers(0, 5)) else numbers)
    velocity = [tame(-3.0, 3.0), tame(-3.0, 3.0)]
    t_end = tame(1e-3, 2.0)
    if isinstance(t_end, float) and draw(st.integers(0, 5)):
        step = t_end / draw(st.integers(1, 40))
    else:
        step = draw(st.one_of(numbers, st.sampled_from([0.0, -0.1, 1e-300])))
    pair = lambda xy: f"{xy[0]!r},{xy[1]!r}"
    return [f"--start={pair(start)}", f"--velocity={pair(velocity)}", f"--t-end={t_end!r}", f"--step={step!r}"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data(), geodesic_specs(), st.sampled_from(["r", "lc"]))
def test_geodesic_on_fuzzed_specs(data, spec, gtype):
    args = data.draw(geodesic_args(spec))
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, out = Path(tmp) / "spec.json", Path(tmp) / "out.csv"
        spec_path.write_text(json.dumps(spec))
        code = cli.main(["geodesic", str(spec_path), "--type", gtype, *args, "--out", str(out)])
        assert code in GEODESIC_EXITS
        if code != cli.EXIT_OK:
            assert not out.exists()
            return
        lines = out.read_text().splitlines()
        assert lines[0] == "t,u,v,du,dv,x,y,z,parallel_residual" and len(lines) >= 2
        for line in lines[1:]:
            row = [float(x) for x in line.split(",")]
            assert len(row) == 9 and not any(math.isnan(x) for x in row), line


def _numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


# the suites that read the spec; sphere-geodesics checks fixed spheres
# only, and costs more than the rest together
SPEC_SUITES = ["flatness", "egregium", "codazzi", "umbilic", "minimal"]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    specs(), st.sampled_from(SPEC_SUITES), st.integers(1, 6), st.integers(0, 2**64 - 1),
    st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1e-6)),
)
def test_verify_on_fuzzed_specs(spec, suite, samples, seed, tol):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, out = Path(tmp) / "spec.json", Path(tmp) / "report.json"
        spec_path.write_text(json.dumps(spec))
        argv = ["verify", str(spec_path), "--suite", suite, "--samples", str(samples),
                "--seed", str(seed), "--out", str(out)]
        if tol is not None:
            argv += ["--tol", repr(tol)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        assert code in VERIFY_EXITS
        if code == cli.EXIT_SPEC:
            assert not out.exists() and stdout.getvalue() == ""
            return
        text = out.read_text()
        assert stdout.getvalue() == text
        report = json.loads(text)
        assert report["overall"] == ("pass" if code == cli.EXIT_OK else "fail")
        assert not any(math.isnan(x) for x in _numbers(report)), text
