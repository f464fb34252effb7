import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isogeo
import jet2ref
from genexpr import random_expr_full
from isogeo import catalog, cli, expr, geodesic, verify
from isogeo import connection as con
from isogeo import surface as srf
from isogeo.errors import DomainError, IsoGeoError, NotAdmissible
from isogeo.expr import Binary, Var
from isogeo.isotropy import SpaceKind
from isogeo.rng import SplitMix64

SPHERE_SPEC = {
    "space": "i3",
    "surface": {"kind": "builtin", "name": "parabolic_sphere", "params": {"p": 2}},
    "domain": [-3, 3, -3, 3],
}


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_curvature_sphere_grid(tmp_path):
    spec = write_spec(tmp_path, SPHERE_SPEC)
    out = tmp_path / "curv.csv"
    assert cli.main(["curvature", spec, "--grid", "3x3", "--out", str(out)]) == 0
    assert out.read_text().split("\n")[0] == "u,v,x,y,z,K,H,disc,class,xi1,xi2,xi3"
    rows = read_rows(out)
    assert len(rows) == 9
    for row in rows:
        assert float(row["K"]) == 0.25
        assert float(row["H"]) == 0.5
        assert row["class"] == "umbilic"
        # xi caps the unit parabolic sphere
        x1, x2, x3 = (float(row[k]) for k in ("xi1", "xi2", "xi3"))
        assert abs(x3 - 0.5 * (1 - x1 * x1 - x2 * x2)) < 1e-12


def test_curvature_cylinder_inadmissible(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "space": "i3",
            "surface": {"kind": "builtin", "name": "cylindrical_sphere", "params": {"r": 1}},
        },
    )
    out = tmp_path / "cyl.csv"
    assert cli.main(["curvature", spec, "--grid", "4x4", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 16
    assert all(row["class"] == "inadmissible" for row in rows)
    assert all(row["K"] == "" for row in rows)


def test_a_structural_minor_of_one_keeps_the_admissibility_guard(tmp_path):
    # x = u, y = v + 1e13 u: m12 is the structural ONE, but the top view of
    # x_u is 1e13 long, so m12 = 1 is below 1e-12 times the guard's scale
    surface = {"kind": "parametric", "x": "u", "y": "v + 1e13*u", "z": "u*v"}
    spec = write_spec(tmp_path, {"space": "i3", "surface": surface, "domain": [-1, 1, -1, 1]})
    out = tmp_path / "curv.csv"
    assert cli.main(["curvature", spec, "--grid", "3x3", "--out", str(out)]) == 0
    assert [row["class"] for row in read_rows(out)] == ["inadmissible"] * 9


def test_curvature_helicoid_value(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "space": "ip3",
            "surface": {"kind": "builtin", "name": "helicoid", "params": {"c": 1}},
            "domain": [2, 3, 0, 1],
        },
    )
    out = tmp_path / "hel.csv"
    assert cli.main(["curvature", spec, "--grid", "3x3", "--out", str(out)]) == 0
    rows = [r for r in read_rows(out) if float(r["u"]) == 2.0]
    assert rows
    for row in rows:
        assert abs(float(row["K"]) - 0.0625) < 1e-10
        assert row["class"] == "complex_principal"


def test_geodesic_plane_rows(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "space": "i3",
            "surface": {"kind": "builtin", "name": "plane", "params": {"a": 0.2, "b": 0.1, "c": 0}},
        },
    )
    out = tmp_path / "geo.csv"
    code = cli.main(
        [
            "geodesic", spec, "--type", "r",
            "--start", "0,0", "--velocity", "0.5,-0.25",
            "--t-end", "1", "--step", "0.01", "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_text().split("\n")[0] == "t,u,v,du,dv,x,y,z,parallel_residual"
    rows = read_rows(out)
    assert len(rows) == 101
    last = rows[-1]
    assert abs(float(last["u"]) - 0.5) < 1e-12
    assert abs(float(last["v"]) + 0.25) < 1e-12
    assert all(float(r["parallel_residual"]) == 0.0 for r in rows)


def test_curvature_output_deterministic(tmp_path):
    spec = write_spec(tmp_path, SPHERE_SPEC)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["curvature", spec, "--grid", "5x5", "--out", str(out1)]) == 0
    assert cli.main(["curvature", spec, "--grid", "5x5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_geodesic_lightlike_start_exit_code(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "space": "ip3",
            "surface": {"kind": "builtin", "name": "parabolic_sphere", "params": {"p": 1}},
        },
    )
    out = tmp_path / "geo.csv"
    code = cli.main(
        [
            "geodesic", spec, "--type", "r",
            "--start", "0,1", "--velocity", "1,0",
            "--t-end", "1", "--out", str(out),
        ]
    )
    assert code == 4


def test_geodesic_missing_spec_file(tmp_path):
    out = tmp_path / "geo.csv"
    code = cli.main(
        [
            "geodesic", str(tmp_path / "nope.json"), "--start", "0,0",
            "--velocity", "1,0", "--t-end", "1", "--out", str(out),
        ]
    )
    assert code == 2


def test_verify_flatness_passes(tmp_path, capsys):
    code = cli.main(
        ["verify", "--all-catalog", "--suite", "flatness", "--samples", "18", "--seed", "7"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["overall"] == "pass"
    assert all(c["max_residual"] <= 1e-6 for c in report["checks"])


def test_verify_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "--all-catalog", "--suite", "umbilic", "--samples", "12", "--seed", "3"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_bytes_do_not_depend_on_the_process_or_its_hash_seed():
    # the in-process determinism tests share one hash seed; a set or dict
    # order that leaked into a report would differ between these processes
    argv = [sys.executable, "-m", "isogeo", "verify", "--all-catalog", "--suite", "all", "--samples", "20", "--seed", "7"]
    outs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONPATH=str(Path(isogeo.__file__).parents[1]), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, encoding="utf-8", timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] != ""


def test_verify_spec_umbilic_negative(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "space": "ip3",
            "surface": {"kind": "builtin", "name": "ruled_nondiag", "params": {"b": 2}},
        },
    )
    code = cli.main(["verify", spec, "--suite", "umbilic", "--samples", "10", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["checks"][0]["name"] == "umbilic(expected-negative)"
    assert report["checks"][0]["pass"] is True


def test_verify_spec_egregium(tmp_path, capsys):
    spec = write_spec(tmp_path, SPHERE_SPEC)
    code = cli.main(["verify", spec, "--suite", "egregium", "--samples", "10", "--seed", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    check = next(c for c in report["checks"] if c["name"] == "egregium")
    assert check["max_residual"] <= 1e-5


def test_verify_tol_override_can_force_failure(tmp_path, capsys):
    code = cli.main(
        ["verify", "--all-catalog", "--suite", "flatness", "--samples", "9",
         "--seed", "2", "--tol", "1e-30"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 5
    assert report["overall"] == "fail"
    assert all(c["tolerance"] == 1e-30 for c in report["checks"])


def _default_tolerance(check):
    """The tolerance that ``verify.TOLERANCES`` gives a report's check."""
    tol = verify.TOLERANCES[check["name"].split("(")[0]]
    return tol[check["surface"].split("[")[0]] if isinstance(tol, dict) else tol


def test_every_check_takes_its_default_tolerance_from_the_table(capsys):
    argv = ["verify", "--all-catalog", "--suite", "all", "--samples", "20", "--seed", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"].split("(")[0] for c in checks} == set(verify.TOLERANCES)
    assert all(c["tolerance"] == _default_tolerance(c) for c in checks)


def test_no_suite_takes_a_tolerance():
    # the defaults live only in verify.TOLERANCES, and --tol replaces them
    suites = [fn for name, fn in vars(verify).items() if name.startswith("suite_")]
    assert len(suites) == len(verify.SUITES)
    for fn in suites:
        assert not [p for p in inspect.signature(fn).parameters if "tol" in p], fn.__name__


def test_the_readme_lists_every_suite_and_every_default_tolerance():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert all(f"`{suite}`" in readme for suite in verify.SUITES)
    table = readme.split("| check | default tolerance |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        _, check, tol, _ = row.split("|")
        documented[check.strip()] = float(tol)
    expected = {}
    for name, tol in verify.TOLERANCES.items():
        for family, value in tol.items() if isinstance(tol, dict) else [(None, tol)]:
            expected[f"`{name}` on `{family}`" if family else f"`{name}`"] = value
    assert documented == expected


def test_sphere_geodesic_reports_the_samples_it_compares():
    # a step longer than t_end is one step, so each trace has two samples
    checks = verify.suite_sphere_geodesics(t_end=0.1, step=1.0)
    points = [c.points for c in checks if c.name == "sphere_geodesic"]
    assert points == [2] * len(verify.SPHERE_GEODESIC_CONFIGS)
    assert verify.suite_sphere_geodesics(t_end=1.0, step=1e-3)[0].points == 1001


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_verify_rejects_a_non_finite_or_negative_tol(capsys, tol):
    argv = ["verify", "--all-catalog", "--suite", "flatness", "--samples", "9", f"--tol={tol}"]
    assert cli.main(argv) == cli.EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --tol must be finite and non-negative, got {float(tol)!r}\n"


def test_verify_requires_one_target(tmp_path, capsys):
    assert cli.main(["verify"]) == 2
    spec = write_spec(tmp_path, SPHERE_SPEC)
    assert cli.main(["verify", spec, "--all-catalog"]) == 2


def test_verify_with_no_applicable_check_is_a_spec_error(tmp_path, capsys):
    # minimal checks only the minimal catalog entries: on any other
    # surface the run has nothing to report, and must not pass vacuously
    surface = {"kind": "graph", "f": "u^2 + v^2"}
    spec = write_spec(tmp_path, {"space": "i3", "surface": surface, "domain": [-1, 1, -1, 1]})
    out = tmp_path / "report.json"
    assert cli.main(["verify", spec, "--suite", "minimal", "--out", str(out)]) == cli.EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: no check of the suite(s) minimal applies to this surface\n"
    assert cli.main(["verify", spec, "--suite", "all", "--samples", "2"]) == cli.EXIT_OK


def test_sampler_gives_up_after_a_fixed_number_of_empty_draws(tmp_path, monkeypatch, capsys):
    # log(-1 - u^2) is defined nowhere: the sampler accepts no point, and
    # how long it tries must not grow with --samples
    surface = {"kind": "graph", "f": "log(-1 - u^2)"}
    spec = write_spec(tmp_path, {"space": "i3", "surface": surface, "domain": [-1, 1, -1, 1]})
    draws = []
    uniform = SplitMix64.uniform

    def counting(self, lo, hi):
        draws.append((lo, hi))
        return uniform(self, lo, hi)

    monkeypatch.setattr(SplitMix64, "uniform", counting)
    counts = []
    for samples in ("1", "1000000"):
        draws.clear()
        assert cli.main(["verify", spec, "--suite", "umbilic", "--samples", samples]) == cli.EXIT_SPEC
        assert capsys.readouterr().err == f"error: could not sample {samples} guarded points on graph[i3]\n"
        counts.append(len(draws))
    assert counts == [800, 800]  # 400 draws of (u, v)


@pytest.mark.parametrize("suite", ["flatness", "umbilic"])
def test_sampler_redraws_non_finite_draws(tmp_path, capsys, suite):
    # 1e200 * 1e200 is inf, so every frame holds inf or nan: no draw is a
    # point, where flatness used to pass on nan residuals and umbilic to
    # abort at the first one
    surface = {"kind": "graph", "f": "1e200*1e200*u*v"}
    spec = write_spec(tmp_path, {"space": "i3", "surface": surface, "domain": [-1, 1, -1, 1]})
    out = tmp_path / "report.json"
    argv = ["verify", spec, "--suite", suite, "--samples", "3", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: could not sample 3 guarded points on graph[i3]\n"


def test_sampler_redraws_draws_whose_third_partials_are_not_finite(monkeypatch):
    patch = verify.verification_patches()[0]
    jet3 = patch.jet3_kernel

    def kernel(u, v):
        jet = jet3(u, v)
        return (*jet[:18], math.inf, *jet[19:])

    monkeypatch.setitem(patch.__dict__, "jet3_kernel", kernel)
    with pytest.raises(IsoGeoError, match="could not sample 1 guarded points"):
        next(verify._sample(patch, 1, SplitMix64(1), 0.0, verify.BASIC_DENOM_GUARD))


def test_sampler_draws_inside_a_domain_narrower_than_its_border(tmp_path, monkeypatch, capsys):
    # border plus 2 % of a side 1e-4 wide is more than half of it: the
    # draws come from the middle half of each side instead of a reversed
    # interval that reaches outside the domain
    drawn = []

    def recording(patch, u, v):
        drawn.append((u, v))
        return con.sample_at(patch, u, v)

    monkeypatch.setattr(verify, "sample_at", recording)
    surface = {"kind": "graph", "f": "u*v + u^2"}
    spec = write_spec(tmp_path, {"space": "i3", "surface": surface, "domain": [0, 1e-4, 0, 1e-4]})
    out = tmp_path / "report.json"
    argv = ["verify", spec, "--suite", "flatness", "--samples", "5", "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["overall"] == "pass"
    assert len(drawn) == 5
    assert all(2.5e-5 <= u <= 7.5e-5 and 2.5e-5 <= v <= 7.5e-5 for u, v in drawn), drawn
    # a side with room for the margin keeps it, and so every earlier draw
    assert verify._margin(-2.0, 2.0, 2e-4) == 0.02 * 4.0 + 2e-4


@pytest.mark.parametrize("suite", ["codazzi", "umbilic"])
def test_verify_evaluates_each_draw_once(monkeypatch, capsys, suite):
    # one jet kernel call and one frame per sampler draw: the tensor suites
    # take the sampler's frames and order-3 jets, and no frame_at runs
    counts = {"kernel": 0, "uniform": 0, "frame_at": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    for patch in verify.verification_patches():
        for kernel in ("jet_kernel", "jet3_kernel"):
            monkeypatch.setitem(patch.__dict__, kernel, counted("kernel", getattr(patch, kernel)))
    monkeypatch.setattr(SplitMix64, "uniform", counted("uniform", SplitMix64.uniform))
    frame_at = counted("frame_at", srf.frame_at)
    for module in (srf, con, verify):
        monkeypatch.setattr(module, "frame_at", frame_at, raising=False)
    argv = ["verify", "--all-catalog", "--suite", suite, "--samples", "100", "--seed", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert counts["frame_at"] == 0
    assert counts["kernel"] == counts["uniform"] // 2 > 0


def test_sample_obj_counts(tmp_path):
    spec = write_spec(tmp_path, SPHERE_SPEC)
    out = tmp_path / "mesh.obj"
    assert cli.main(["sample", spec, "--grid", "2x2", "--format", "obj", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert sum(1 for l in lines if l.startswith("f ")) == 2


def test_sample_vertices_on_sphere(tmp_path):
    spec = write_spec(tmp_path, SPHERE_SPEC)
    out = tmp_path / "mesh.obj"
    assert cli.main(["sample", spec, "--grid", "10x10", "--out", str(out)]) == 0
    count = 0
    for line in out.read_text().strip().split("\n"):
        if not line.startswith("v "):
            continue
        count += 1
        _, x, y, z = line.split(" ")
        x, y, z = float(x), float(y), float(z)
        assert abs(z - ((x * x + y * y) / 4.0 - 1.0)) <= 1e-12
    assert count == 100


def test_sample_csv_format(tmp_path):
    spec = write_spec(tmp_path, SPHERE_SPEC)
    out = tmp_path / "points.csv"
    assert cli.main(["sample", spec, "--grid", "3x3", "--format", "csv", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 9 and set(rows[0]) == {"u", "v", "x", "y", "z"}


def test_sample_invalid_format_flag(tmp_path):
    spec = write_spec(tmp_path, SPHERE_SPEC)
    with pytest.raises(SystemExit) as exits:
        cli.main(["sample", spec, "--format", "stl", "--out", str(tmp_path / "x")])
    assert exits.value.code == 2


def test_spec_validation_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["curvature", str(bad), "--out", str(tmp_path / "o.csv")]) == 2

    cases = [
        {"space": "e3", "surface": {"kind": "graph", "f": "u"}, "domain": [0, 1, 0, 1]},
        {"space": "i3", "surface": {"kind": "graph", "f": "u +"}, "domain": [0, 1, 0, 1]},
        {"space": "i3", "surface": {"kind": "graph", "f": "u"}},  # graph needs domain
        {"space": "i3", "surface": {"kind": "builtin", "name": "nosuch"}},
        {"space": "i3", "surface": {"kind": "mystery"}, "domain": [0, 1, 0, 1]},
        {"space": "i3", "surface": {"kind": "graph", "f": "u"}, "domain": [1, 0, 0, 1]},
        {"space": "i3", "surface": {"kind": "parametric", "x": "u", "y": "v"}, "domain": [0, 1, 0, 1]},
        # JSON booleans are not numbers, as in catalog parameters
        {"space": "i3", "surface": {"kind": "graph", "f": "u"}, "domain": [False, True, 0, 1]},
        # a parameter the catalog entry does not have
        {"space": "i3", "surface": {"kind": "builtin", "name": "parabolic_sphere", "params": {"p": 2, "q": 1}}},
    ]
    for idx, spec in enumerate(cases):
        path = write_spec(tmp_path, spec, f"bad{idx}.json")
        assert cli.main(["curvature", path, "--out", str(tmp_path / "o.csv")]) == 2, spec


def test_a_spec_with_an_overflowing_literal_is_a_spec_error(tmp_path, capsys):
    # 1e400*u*0 was inf * u * 0 = nan at every point: a grid of undefined rows
    spec = write_spec(
        tmp_path, {"space": "i3", "surface": {"kind": "graph", "f": "1e400*u*0 + u^2"}, "domain": [0, 1, 0, 1]}
    )
    out = tmp_path / "o.csv"
    assert cli.main(["curvature", spec, "--grid", "3x3", "--out", str(out)]) == 2
    assert "number '1e400' overflows a float (at offset 0)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "f, message",
    [
        ("+".join(["u"] * 1000), "expression nested deeper than 100 levels (at offset 199)"),
        ("(" * 250 + "u" + ")" * 250, "expression nested deeper than 100 levels (at offset 99)"),
        ("u^\u00b2", "unexpected character '\u00b2' (at offset 2)"),
    ],
    ids=["long-sum", "parens", "superscript"],
)
def test_an_expression_the_parser_cannot_take_is_a_spec_error(tmp_path, f, message):
    # each once ended in a traceback and exit 1: a RecursionError, or a
    # ValueError from float("\u00b2")
    spec = write_spec(tmp_path, {"space": "i3", "surface": {"kind": "graph", "f": f}, "domain": [0, 1, 0, 1]})
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "isogeo", "curvature", spec, "--grid", "3x3", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(Path(isogeo.__file__).parents[1])),
        capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"
    assert not out.exists()


def test_output_io_error(tmp_path):
    spec = write_spec(tmp_path, SPHERE_SPEC)
    missing_dir = tmp_path / "no" / "such" / "dir" / "o.csv"
    assert cli.main(["curvature", spec, "--grid", "3x3", "--out", str(missing_dir)]) == 3


def test_graph_and_parametric_specs_work(tmp_path):
    graph = write_spec(
        tmp_path,
        {"space": "i3", "surface": {"kind": "graph", "f": "(u^2+v^2)/4 - 1"}, "domain": [-2, 2, -2, 2]},
        "graph.json",
    )
    out = tmp_path / "g.csv"
    assert cli.main(["curvature", graph, "--grid", "3x3", "--out", str(out)]) == 0
    assert all(float(r["K"]) == 0.25 for r in read_rows(out))

    parametric = write_spec(
        tmp_path,
        {
            "space": "ip3",
            "surface": {"kind": "parametric", "x": "u*cosh(v)", "y": "u*sinh(v)", "z": "v"},
            "domain": [0.5, 3, -1, 1],
        },
        "par.json",
    )
    out2 = tmp_path / "p.csv"
    assert cli.main(["curvature", parametric, "--grid", "4x4", "--out", str(out2)]) == 0
    for row in read_rows(out2):
        u = float(row["u"])
        assert abs(float(row["K"]) - 1.0 / u**4) < 1e-10


def test_geodesic_trace_stops_with_warning(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"space": "i3", "surface": {"kind": "graph", "f": "0.1*u"}, "domain": [-1, 1, -1, 1]},
    )
    out = tmp_path / "geo.csv"
    code = cli.main(
        [
            "geodesic", spec, "--start", "0,0", "--velocity", "1,0",
            "--t-end", "3", "--step", "0.01", "--out", str(out),
        ]
    )
    assert code == 0
    assert "stopped" in capsys.readouterr().err
    rows = read_rows(out)
    assert float(rows[-1]["t"]) <= 1.01


def test_geodesic_halts_where_the_surface_is_undefined(tmp_path, capsys):
    # a Levi-Civita geodesic of a graph in I^3 is a straight line in (u, v);
    # this one reaches u = 0, where log(u) has no value, at t = 0.5
    spec = write_spec(
        tmp_path, {"space": "i3", "surface": {"kind": "graph", "f": "log(u) + v"}, "domain": [-1, 1, 0, 1]}
    )
    out = tmp_path / "trace.csv"
    argv = ["geodesic", spec, "--type", "lc", "--velocity=-1,0", "--t-end", "1", "--step", "0.01",
            "--out", str(out)]
    assert cli.main(argv + ["--start", "0.5,0.5"]) == 0
    assert capsys.readouterr().err == "warning: trace stopped at t=0.49 (undefined)\n"
    rows = read_rows(out)
    assert len(rows) == 50 and rows[-1]["t"] == "0.49"
    out.unlink()
    # at the start point it is an error, and no file is written
    assert cli.main(argv + ["--start=-0.5,0.5"]) == 2
    assert capsys.readouterr().err == "error: log of non-positive value -0.5\n"
    assert not out.exists()


def test_negative_start_and_velocity_need_the_equals_form(tmp_path, capsys):
    spec = write_spec(tmp_path, SPHERE_SPEC)
    out = tmp_path / "trace.csv"
    argv = ["geodesic", spec, "--t-end", "0.1", "--step", "0.01", "--out", str(out)]
    assert cli.main(argv + ["--start=-0.5,-0.5", "--velocity=-1,-0.25"]) == 0
    assert read_rows(out)[0]["u"] == "-0.5" and read_rows(out)[0]["du"] == "-1.0"
    capsys.readouterr()
    # without "=", argparse reads "-1,0" as an option
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--start", "0.5,0.5", "--velocity", "-1,0"])
    assert exc.value.code == 2
    assert "argument --velocity: expected one argument" in capsys.readouterr().err


def test_geodesic_parallel_residual_is_finite_where_the_gauss_map_is_huge(tmp_path, capsys):
    # z = exp(u) at u = 354: |xi| ~ 1.5e307 and |gamma''| ~ 5.5e159, so the
    # unscaled cross product overflows; its residual was written as nan
    spec = write_spec(
        tmp_path, {"space": "i3", "surface": {"kind": "graph", "f": "exp(u)"}, "domain": [0, 400, 0, 1]}
    )
    out = tmp_path / "geo.csv"
    argv = ["geodesic", spec, "--type", "r", "--start", "354.0,0.5", "--velocity", "1000,0",
            "--t-end", "0.001", "--step", "1e-3", "--out", str(out)]
    assert cli.main(argv) == 0
    assert "(non_finite)" in capsys.readouterr().err
    rows = read_rows(out)
    assert len(rows) == 1 and math.isfinite(float(rows[0]["parallel_residual"]))


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--t-end", "inf"),
        ("--t-end", "nan"),
        ("--step", "nan"),
        ("--step", "inf"),
        ("--start", "nan,0"),
        ("--start", "0,-inf"),
        ("--velocity", "nan,0"),
        ("--velocity", "0,inf"),
    ],
)
def test_geodesic_rejects_non_finite_input(tmp_path, capsys, flag, value):
    spec = write_spec(tmp_path, SPHERE_SPEC)
    out = tmp_path / "geo.csv"
    args = {"--start": "0,0", "--velocity": "1,0", "--t-end": "1", "--step": "0.01"}
    args[flag] = value
    argv = ["geodesic", spec, "--out", str(out)]
    for key, text in args.items():
        argv.append(f"{key}={text}")
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not out.exists()


def _no_points(*args):
    raise AssertionError("a point was evaluated")


@pytest.mark.parametrize("step", ["1e-320", "5e-324", "1e-7"])
def test_geodesic_rejects_unbounded_step_count(tmp_path, capsys, monkeypatch, step):
    # 1/1e-320 overflows to inf; 1e7 steps is finite but above the bound.
    # The count is checked before the first point is evaluated.
    monkeypatch.setattr(geodesic, "_accel_kernel", _no_points)
    spec = write_spec(tmp_path, SPHERE_SPEC)
    out = tmp_path / "geo.csv"
    argv = [
        "geodesic", spec, "--start", "0,0", "--velocity", "1,0",
        "--t-end", "1", "--step", step, "--out", str(out),
    ]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_end/step = ") and "at most 1000000" in err
    assert not out.exists()


def test_curvature_domain_errors_give_undefined_rows(tmp_path):
    spec = write_spec(
        tmp_path,
        {"space": "i3", "surface": {"kind": "graph", "f": "log(u) + v^2"}, "domain": [-1, 1, -1, 1]},
    )
    out = tmp_path / "curv.csv"
    assert cli.main(["curvature", spec, "--grid", "5x5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 25
    for line in lines:
        u = float(line.split(",")[0])
        if u <= 0.0:  # log of a non-positive value
            assert line == f"{u!r},{line.split(',')[1]},,,,,,,undefined,,,"
        else:
            row = line.split(",")
            assert row[8] == "diagonalizable"  # K = -2/u^2 < 0
            assert all(row[k] != "" for k in range(12))


def test_verify_codazzi_seed_0_passes(capsys):
    # with second-order differences the wave surface's relative Codazzi
    # residual reached 1.85e-6 at this seed, above its tolerance of 1e-6
    code = cli.main(
        ["verify", "--all-catalog", "--suite", "codazzi", "--samples", "100", "--seed", "0"]
    )
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "pass"
    assert code == 0
    wave = next(
        c for c in report["checks"]
        if c["name"] == "codazzi" and c["surface"] == "minimal_wave[ip3]"
    )
    assert wave["max_residual"] <= 1e-7


@pytest.mark.parametrize("fn", ["sin", "cos", "tan"])
def test_trig_of_an_overflowing_argument_is_a_domain_error(tmp_path, capsys, fn):
    # 1e308 * 10 is inf, where math.sin and friends raise a bare ValueError
    spec = write_spec(
        tmp_path,
        {"space": "i3", "surface": {"kind": "graph", "f": f"{fn}(1e308*10*u)"}, "domain": [0.5, 2, 0, 1]},
    )
    out = tmp_path / "curv.csv"
    assert cli.main(["curvature", spec, "--grid", "3x3", "--out", str(out)]) == 0
    assert [row["class"] for row in read_rows(out)] == ["undefined"] * 9
    code = cli.main(
        ["geodesic", spec, "--start", "1,0.5", "--velocity", "1,0", "--t-end", "0.1",
         "--out", str(tmp_path / "geo.csv")]
    )
    assert code == 2
    assert f"{fn} of non-finite value inf" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_spec_numbers_are_rejected(tmp_path, capsys, value):
    # json writes and reads these as Infinity, -Infinity and NaN
    domain_spec = dict(SPHERE_SPEC, domain=[0, value, 0, 1])
    param_spec = dict(SPHERE_SPEC, surface=dict(SPHERE_SPEC["surface"], params={"p": value}))
    for spec, message in ((domain_spec, "'domain' must be finite"), (param_spec, "parameter 'p' must be finite")):
        path = write_spec(tmp_path, spec)
        assert "Infinity" in Path(path).read_text() or "NaN" in Path(path).read_text()
        out = tmp_path / "out.csv"
        for argv in (
            ["curvature", path, "--grid", "3x3", "--out", str(out)],
            ["geodesic", path, "--start", "0.5,0.5", "--velocity", "1,0", "--t-end", "0.1",
             "--out", str(out)],
        ):
            assert cli.main(argv) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()


def test_non_finite_curvature_gives_undefined_rows(tmp_path):
    # u^1e300 has a finite frame at u = 0.5 (z = 0) but z_uu = 0 * inf = nan,
    # so K and H are nan there; beyond u = 1 exp overflows
    spec = write_spec(
        tmp_path, {"space": "i3", "surface": {"kind": "graph", "f": "u^1e300"}, "domain": [0.5, 2, 0, 1]}
    )
    out = tmp_path / "curv.csv"
    assert cli.main(["curvature", spec, "--grid", "3x3", "--out", str(out)]) == 0
    assert [row["class"] for row in read_rows(out)] == ["undefined"] * 9


def test_verify_builds_the_catalog_patches_once(monkeypatch):
    args = (None, ["flatness", "egregium", "codazzi", "minimal"], 18, 4)
    first = verify.run_verify(*args)
    compiled = []
    real = expr.compile_jet

    def counting(exprs, order):
        compiled.append(exprs)
        return real(exprs, order)

    monkeypatch.setattr(expr, "compile_jet", counting)
    assert verify.run_verify(*args) == first
    catalog_exprs = {
        id(e) for p in verify.verification_patches() for e in (p.x_expr, p.y_expr, p.z_expr)
    }
    # only the minimal suite's seeded random waves are new patches
    assert len(compiled) == 5
    assert not any(id(e) in catalog_exprs for exprs in compiled for e in exprs)


def test_huge_json_integers_are_spec_errors(tmp_path, capsys):
    # json reads a 401-digit literal as an int that no float can hold
    huge = 10**400
    domain_spec = dict(SPHERE_SPEC, domain=[0, huge, 0, 1])
    param_spec = dict(SPHERE_SPEC, surface=dict(SPHERE_SPEC["surface"], params={"p": huge}))
    for spec, message in ((domain_spec, "'domain' entries must fit in a float"),
                          (param_spec, "parabolic_sphere parameter 'p' is out of range")):
        path = write_spec(tmp_path, spec)
        out = tmp_path / "out.csv"
        assert cli.main(["curvature", path, "--grid", "3x3", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000, "maximum recursion depth exceeded"),
    (b'{"space": "i3", "domain": [0, ' + b"9" * 5000 + b', 0, 1]}', "Exceeds the limit"),
], ids=["not-utf-8", "nested-too-deep", "integer-too-long"])
def test_a_spec_file_json_cannot_read_is_a_spec_error(tmp_path, capsys, data, message):
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    out = tmp_path / "out.csv"
    assert cli.main(["curvature", str(path), "--grid", "3x3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read spec {str(path)!r}: ") and message in err
    assert not out.exists()


_IMPORT_PATH_SCRIPT = """\
import contextlib, io, json, sys
steps = []
def step(name, code):
    loaded = sorted(m[len("isogeo."):] for m in sys.modules if m.startswith("isogeo."))
    parser = [m for m in ("argparse", "gettext") if m in sys.modules]
    steps.append([name, code, "numpy" in sys.modules, parser, loaded])
import isogeo
step("import isogeo", 0)
import isogeo.cli as cli
step("import isogeo.cli", 0)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    step(" ".join(argv), code)
print(json.dumps(steps))
"""


def _import_path(argvs):
    """[step, exit code, numpy loaded, argparse and gettext if loaded,
    isogeo modules loaded] after
    ``import isogeo``, ``import isogeo.cli`` and each of ``argvs``, run in
    order in one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(isogeo.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_SCRIPT, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    steps = json.loads(proc.stdout)
    assert len(steps) == 2 + len(argvs)
    assert all(code == 0 for _, code, *_ in steps), steps
    return steps


@pytest.fixture(scope="module")
def import_paths(tmp_path_factory):
    """The ``_import_path`` steps of the float-only commands, geodesic
    last, and of the verify suites, the tensor suite flatness last."""
    tmp_path = tmp_path_factory.mktemp("import_path")
    sphere = write_spec(tmp_path, SPHERE_SPEC, "sphere.json")
    helicoid = write_spec(
        tmp_path,
        {"space": "ip3", "surface": {"kind": "builtin", "name": "helicoid", "params": {"c": 1}}},
        "helicoid.json",
    )
    out = str(tmp_path / "out")
    geodesic_args = ["--start", "1.5,0.2", "--velocity", "0.3,0.1", "--t-end", "0.05",
                     "--step", "0.01", "--out", out]
    commands = [
        ["sample", helicoid, "--grid", "3x3", "--out", out],
        ["curvature", sphere, "--grid", "3x3", "--out", out],
        ["geodesic", sphere, "--type", "r", *geodesic_args],
        ["geodesic", sphere, "--type", "lc", *geodesic_args],
        ["geodesic", helicoid, "--type", "r", *geodesic_args],
    ]
    verify_commands = [
        ["verify", "--all-catalog", "--suite", suite, "--samples", "9"]
        for suite in ("umbilic", "minimal", "sphere-geodesics", "flatness")
    ]
    return _import_path(commands), _import_path(verify_commands)


def test_float_commands_never_import_numpy(import_paths):
    steps = [step for path in import_paths for step in path]
    assert not any(numpy for _, _, numpy, *_ in steps[:-1]), steps
    assert steps[-1][2]  # the tensor suites build arrays


def test_well_formed_argv_never_imports_argparse(import_paths):
    # the parser is built only for help and usage errors
    steps = [step for path in import_paths for step in path]
    assert not any(parser for _, _, _, parser, _ in steps), steps


def test_each_command_loads_only_the_modules_it_runs(import_paths):
    # the modules each step loads, on top of the steps before it
    commands, verify_commands = (
        [b - a for a, b in zip([set()] + loaded, loaded)]
        for loaded in ([set(modules) for *_, modules in path] for path in import_paths)
    )
    cli_modules = {"catalog", "cli", "errors", "expr", "isotropy", "surface"}
    assert commands[:4] == [set(), cli_modules, set(), {"forkmap", "rows"}]  # import isogeo, cli, sample, curvature
    assert commands[4:] == [{"connection", "geodesic"}, set(), set()]
    assert verify_commands[:2] == [set(), cli_modules]
    assert verify_commands[2:] == [{"connection", "rng", "verify"}, set(), {"geodesic"}, set()]


# the public names of the package, by the module that defines them
_PUBLIC_API = {
    "catalog": "CATALOG CurvatureOracles catalog_names make oracles_for",
    "connection": "CodazziResiduals ConnectionCoeffs CurvatureTensorSample EgregiumResult "
    "codazzi_residual coeffs_at curvature_tensors_at egregium_check gauss_equation_rhs",
    "expr": "Expr parse to_source",
    "geodesic": "GeodesicKind GeodesicTrace PlaneSection SectionBranch SphereGeodesicCheck "
    "cross_check_sphere_geodesic induced_speed_profile integrate line_pair "
    "make_plane_section plane_section",
    "isotropy": "Motion SpaceKind Vec3 apply_motion codistance compose cross_euclid "
    "cross_lorentz dot dot_euclid dot_lorentz norm top_view",
    "surface": "AdmissibilityReport CurvatureClass CurvatureReport PointFrame SurfacePatch "
    "curvatures_at frame_at graph_patch is_admissible lightlike_points normal_curvature "
    "parametric_patch transform_patch",
}


def test_the_lazy_namespace_keeps_the_public_api(capsys, monkeypatch):
    import importlib

    listed = dir(isogeo)
    for module, names in _PUBLIC_API.items():
        home = importlib.import_module(f"isogeo.{module}")
        for name in names.split():
            assert getattr(isogeo, name) is getattr(home, name), name
            assert name in listed, name
    assert isogeo.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        isogeo.no_such_name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cli.no_such_name
    assert cli.verify is isogeo.verify is verify
    # the parser leaves --suite to verify, which names the suites it knows
    # before it builds any catalog patch
    made = []
    real_make = catalog.make
    monkeypatch.setattr(catalog, "make", lambda *args: made.append(args) or real_make(*args))
    verify.verification_patches.cache_clear()
    assert cli.main(["verify", "--all-catalog", "--suite", "nope"]) == 2
    assert capsys.readouterr().err == f"error: unknown suite 'nope'; known: {verify.SUITES}\n"
    assert made == []


@pytest.mark.parametrize("domain", [[-1e308, 1e308, 0, 1], [0, 1, -1e308, 1e308]])
def test_domain_with_an_overflowing_width_is_rejected(tmp_path, capsys, domain):
    # every entry is finite, but u1 - u0 (or v1 - v0) overflows to inf, so
    # the grid values u0 + (u1 - u0) * i / (n - 1) would be inf and nan
    path = write_spec(tmp_path, dict(SPHERE_SPEC, domain=domain))
    out = tmp_path / "out.csv"
    for argv in (
        ["curvature", path, "--grid", "3x3", "--out", str(out)],
        ["sample", path, "--grid", "3x3", "--format", "csv", "--out", str(out)],
        ["geodesic", path, "--start", "0.5,0.5", "--velocity", "1,0", "--t-end", "0.1",
         "--out", str(out)],
    ):
        assert cli.main(argv) == 2
        assert "'domain' widths must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_grid_and_samples_are_bounded_before_any_point(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_row_kernel", _no_points)
    monkeypatch.setattr(cli, "grid_values", _no_points)
    monkeypatch.setattr(verify, "run_verify", _no_points)
    spec = write_spec(tmp_path, SPHERE_SPEC)
    out = tmp_path / "out"
    for grid in ("1001x1000", "2x500001", "1000000x1000000"):
        for command in ("curvature", "sample"):
            assert cli.main([command, spec, "--grid", grid, "--out", str(out)]) == 2
            assert f"more than {cli.MAX_GRID_POINTS} points" in capsys.readouterr().err
    assert cli._parse_grid("1000x1000") == (1000, 1000)  # the bound is inclusive
    for samples in ("1000001", "0"):
        assert cli.main(["verify", "--all-catalog", "--samples", samples]) == 2
        assert f"--samples must be in [1, {cli.MAX_SAMPLES}]" in capsys.readouterr().err
    assert not out.exists()

    seen = []
    monkeypatch.setattr(verify, "run_verify", lambda *args: seen.append(args) or {"overall": "pass"})
    assert cli.main(["verify", "--all-catalog", "--suite", "umbilic", "--samples", "1000000"]) == 0
    assert seen[0][2] == cli.MAX_SAMPLES


def _repr_row(values):
    return ",".join(repr(float(x)) for x in values)


def test_curvature_and_sample_rows_are_the_repr_of_each_float(tmp_path):
    # m12 = u + 1 vanishes on u = -1 (inadmissible) and log(v + 0.5) has
    # no value for v <= -0.5 (undefined); x = u and g12 = u (u + 1) v
    surface = {"kind": "parametric", "x": "u", "y": "u*v + v", "z": "log(v + 0.5) + u*v"}
    spec = {"space": "i3", "surface": surface, "domain": [-1, 1, -1, 1]}
    path = write_spec(tmp_path, spec)
    patch = cli.load_spec_file(path)
    out = tmp_path / "curv.csv"
    assert cli.main(["curvature", path, "--grid", "9x8", "--out", str(out)]) == 0
    expected = ["u,v,x,y,z,K,H,disc,class,xi1,xi2,xi3"]
    for u in srf.grid_values(-1.0, 1.0, 9):
        for v in srf.grid_values(-1.0, 1.0, 8):
            try:
                f = srf.frame_at(patch, u, v)
                rep = srf.curvatures_of_frame(f)
            except NotAdmissible:
                expected.append(_repr_row((u, v)) + ",,,,,,,inadmissible,,,")
                continue
            except DomainError:
                expected.append(_repr_row((u, v)) + ",,,,,,,undefined,,,")
                continue
            expected.append(
                ",".join([
                    _repr_row((u, v) + f.position.as_tuple() + (rep.K, rep.H, rep.discriminant)),
                    rep.label.value,
                    _repr_row(f.xi.as_tuple()),
                ])
            )
    assert out.read_text() == "\n".join(expected) + "\n"
    classes = {line.split(",")[8] for line in expected[1:]}
    assert {"inadmissible", "undefined"} < classes and len(classes) >= 3

    path = write_spec(tmp_path, dict(spec, domain=[-1, 1, -0.25, 1]))
    patch = cli.load_spec_file(path)
    points = [
        (u, v, patch.jet_kernel(u, v)[0:18:6])  # x, y, z
        for u in srf.grid_values(-1.0, 1.0, 7)
        for v in srf.grid_values(-0.25, 1.0, 5)
    ]
    assert cli.main(["sample", path, "--grid", "7x5", "--format", "csv", "--out", str(out)]) == 0
    rows = ["u,v,x,y,z"] + [_repr_row((u, v) + p) for u, v, p in points]
    assert out.read_text() == "\n".join(rows) + "\n"
    assert cli.main(["sample", path, "--grid", "7x5", "--format", "obj", "--out", str(out)]) == 0
    vertices = [f"v {' '.join(repr(float(x)) for x in p)}" for _, _, p in points]
    assert out.read_text().splitlines()[: len(points)] == vertices


def test_geodesic_where_the_equation_overflows(tmp_path, capsys):
    # z = exp(u): |xi|^2 overflows past u ~ 354.9 (see test_geodesic)
    spec = write_spec(
        tmp_path,
        {"space": "i3", "surface": {"kind": "graph", "f": "exp(u)"}, "domain": [0, 1000, 0, 1]},
    )
    out = tmp_path / "trace.csv"
    argv = ["geodesic", spec, "--type", "r", "--velocity", "1,0", "--t-end", "1", "--out", str(out)]
    assert cli.main(argv + ["--start", "356,0.5"]) == cli.EXIT_BAD_START
    assert "error: geodesic equation not finite at the start (356.0, 0.5)" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(argv + ["--start", "354.6,0.5"]) == 0
    assert capsys.readouterr().err == "warning: trace stopped at t=0.395 (non_finite)\n"
    rows = read_rows(out)
    assert len(rows) == 396
    assert all(math.isfinite(float(row[k])) for row in rows for k in ("u", "v", "du", "dv", "z"))


@pytest.mark.parametrize("f, z", [("1e308*10 + u*v", "inf"), ("1e308*10 - 1e308*10 + u*v", "nan")])
def test_no_command_writes_a_non_finite_position(tmp_path, capsys, f, z):
    # z is inf or nan everywhere, while its partials, and so the frame and
    # the curvatures, are finite
    spec = write_spec(tmp_path, {"space": "i3", "surface": {"kind": "graph", "f": f}, "domain": [0, 1, 0, 1]})
    out = tmp_path / "out.csv"
    assert cli.main(["curvature", spec, "--grid", "2x2", "--out", str(out)]) == 0
    assert [row["class"] for row in read_rows(out)] == ["undefined"] * 4
    assert cli.main(["sample", spec, "--grid", "2x2", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["0.0,0.0,,,", "0.0,1.0,,,", "1.0,0.0,,,", "1.0,1.0,,,"]
    trace = tmp_path / "trace.csv"
    for gtype in ("r", "lc"):
        argv = ["geodesic", spec, "--type", gtype, "--start", "0.5,0.5", "--velocity", "0.1,0",
                "--t-end", "0.01", "--step", "0.005", "--out", str(trace)]
        assert cli.main(argv) == cli.EXIT_BAD_START
        err = capsys.readouterr().err
        assert err.startswith("error: geodesic equation not finite at the start (0.5, 0.5): ")
        assert err.endswith(f", position (0.5, 0.5, {z})\n")
        assert not trace.exists()


def test_geodesic_inadmissible_start_reports_the_minor(tmp_path, capsys):
    surface = {"kind": "parametric", "x": "u + v", "y": "u + 1.0000000000001*v", "z": "u*v"}
    spec = write_spec(tmp_path, {"space": "i3", "surface": surface, "domain": [0, 1, 0, 1]})
    argv = ["geodesic", spec, "--start", "0.3,0.2", "--velocity", "1,0", "--t-end", "1"]
    assert cli.main(argv + ["--out", str(tmp_path / "trace.csv")]) == cli.EXIT_BAD_START
    assert capsys.readouterr().err == (
        "error: surface not admissible at (u=0.3, v=0.2): top-view minor 9.992007221626409e-14\n"
    )


def test_the_program_evaluates_points_through_the_jet_kernel_only(tmp_path, monkeypatch, capsys):
    # the compiled kernel is the program's one jet implementation: the
    # tree walk and the jet arithmetic it is checked against live in the
    # tests, and every command and catalog entry runs without them
    import functools
    import importlib

    from isogeo import catalog
    from isogeo.isotropy import SpaceKind

    assert not hasattr(expr, "eval_jet2")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("isogeo.jets")
    # a fresh cache, so that verify builds its catalog patches in this test
    fresh = functools.cache(verify.verification_patches.__wrapped__)
    monkeypatch.setattr(verify, "verification_patches", fresh)
    params = {
        "parabolic_sphere": {"p": 2.0},
        "cylindrical_sphere": {"r": 1.0},
        "plane": {"a": 0.3, "b": -0.2, "c": 0.7},
        "ruled_nondiag": {"b": 2.0},
        "helicoid": {"c": 1.0},
        "revolution": {"z": "log(u)"},
        "minimal_wave": {"f": "0.3*u^3", "g": "0.1*u^2"},
        "minimal_harmonic": {"f": "exp(u) * sin(v)"},
    }
    assert sorted(params) == catalog.catalog_names()
    for name, entry in catalog.CATALOG.items():
        for kind in entry.kinds:
            patch = catalog.make(name, kind, params[name])
            oracles = catalog.oracles_for(patch)
            if oracles is not None and oracles.discriminant is not None:
                assert math.isfinite(oracles.discriminant(1.5, 0.0))
    spec = write_spec(tmp_path, {"space": "ip3", "surface": {"kind": "builtin", "name": "helicoid", "params": {"c": 1}}})
    out = str(tmp_path / "out")
    assert cli.main(["curvature", spec, "--grid", "3x3", "--out", out]) == 0
    assert cli.main(["geodesic", spec, "--start", "1.5,0.1", "--velocity", "0.3,0.1", "--t-end", "0.1", "--out", out]) == 0
    for fmt in ("csv", "obj"):
        assert cli.main(["sample", spec, "--grid", "3x3", "--format", fmt, "--out", out]) == 0
    assert cli.main(["verify", "--all-catalog", "--suite", "all", "--samples", "10"]) == 0
    assert fresh.cache_info().currsize == 1
    capsys.readouterr()


def test_sample_leaves_out_undefined_points(tmp_path):
    # sqrt(v) is undefined (DomainError) at v <= 0: v = -1, -0.5 and 0 of
    # the 5 grid values
    spec = write_spec(tmp_path, {"space": "i3", "surface": {"kind": "graph", "f": "sqrt(v)"}, "domain": [0, 1, -1, 1]})
    out = tmp_path / "mesh"
    assert cli.main(["sample", spec, "--grid", "3x5", "--format", "csv", "--out", str(out)]) == 0
    rows = ["u,v,x,y,z"]
    for u in (0.0, 0.5, 1.0):
        rows += [f"{u!r},{v!r},,," for v in (-1.0, -0.5, 0.0)]
        rows += [f"{u!r},{v!r},{u!r},{v!r},{math.sqrt(v)!r}" for v in (0.5, 1.0)]
    assert out.read_text() == "\n".join(rows) + "\n"
    assert cli.main(["sample", spec, "--grid", "3x5", "--format", "obj", "--out", str(out)]) == 0
    vertices = [f"v {u!r} {v!r} {math.sqrt(v)!r}" for u in (0.0, 0.5, 1.0) for v in (0.5, 1.0)]
    # the only cells with four defined corners lie between v = 0.5 and 1
    faces = ["f 1 3 4", "f 1 4 2", "f 3 5 6", "f 3 6 4"]
    assert out.read_text() == "\n".join(vertices + faces) + "\n"

    # log(0) at the centre of a 3x3 grid: the vertices after it move down
    # by one, and of the 8 triangles only the 2 without it remain
    hole = {"space": "i3", "surface": {"kind": "graph", "f": "log((u-0.5)^2 + (v-0.5)^2)"}, "domain": [0, 1, 0, 1]}
    spec = write_spec(tmp_path, hole)
    assert cli.main(["sample", spec, "--grid", "3x3", "--format", "obj", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10 and lines[3] == f"v 0.5 0.0 {math.log(0.25)!r}"
    assert lines[8:] == ["f 2 5 3", "f 4 6 7"]


def test_sample_leaves_out_non_finite_positions(tmp_path):
    # (u * 1e300) * 1e300 is 0 at u = 0 and overflows to inf at u = 1
    spec = write_spec(tmp_path, {"space": "i3", "surface": {"kind": "graph", "f": "u * 1e300 * 1e300"}, "domain": [0, 1, 0, 1]})
    out = tmp_path / "mesh"
    assert cli.main(["sample", spec, "--grid", "2x2", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "u,v,x,y,z", "0.0,0.0,0.0,0.0,0.0", "0.0,1.0,0.0,1.0,0.0", "1.0,0.0,,,", "1.0,1.0,,,",
    ]
    assert cli.main(["sample", spec, "--grid", "2x2", "--format", "obj", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["v 0.0 0.0 0.0", "v 0.0 1.0 0.0"]


# ------------------------------------------------------- row kernel

I3, IP3 = SpaceKind.SIMPLY_ISOTROPIC, SpaceKind.PSEUDO_ISOTROPIC
_TOL = srf.CURVATURE_TOL
_ROOT_TOL = math.sqrt(_TOL)


def row_text(patch, u, vs):
    """The rows of the points (u, v), (v, sv) in ``vs``, as ``curvature``
    writes them: the row kernel over the table of ``vs``, or every line at
    every point where a line of the table raises."""
    columns, kernel, everywhere = cli._row_kernel(patch)
    try:
        table = columns(vs)
    except Exception:
        kernel, table = everywhere, ((), vs)
    return kernel(u, repr(u), *table)


def reference_rows(patch, u, vs):
    """The rows of the points (u, v), (v, sv) in ``vs``, one repr per value,
    from the structural frame of ``jet2ref`` and its curvature report; the
    class row of the error they raise, or ``undefined`` where the position
    is not finite."""
    su = repr(u)
    rows = []
    for v, sv in vs:
        try:
            f = jet2ref.frame(patch, u, v)
            rep = srf.curvatures_of_frame(f)
        except NotAdmissible:
            rows.append(f"{su},{sv},,,,,,,inadmissible,,,\n")
            continue
        except DomainError:
            rows.append(f"{su},{sv},,,,,,,undefined,,,\n")
            continue
        if not all(map(math.isfinite, (f.p_x, f.p_y, f.p_z))):
            rows.append(f"{su},{sv},,,,,,,undefined,,,\n")
            continue
        numbers = (f.p_x, f.p_y, f.p_z, rep.K, rep.H, rep.discriminant)
        xi = (f.xi_x, f.xi_y, f.xi_z)
        rows.append(",".join([su, sv, *map(repr, numbers), rep.label.value, *map(repr, xi)]) + "\n")
    return "".join(rows)


def _quadric(kind, a, b, c):
    """The graph z = (a u^2 + 2 b uv + c v^2) / 2; at the origin h = [[a, b],
    [b, c]] and g = diag(1, +/-1), so disc = (a - c)^2/4 + b^2 in I3 and
    (a + c)^2/4 - b^2 in Ip3."""
    return srf.graph_patch(kind, f"({a!r}*u^2 + 2*{b!r}*u*v + {c!r}*v^2)/2", (-2, 2, -2, 2))


def _graph(kind, f):
    return srf.graph_patch(kind, f, (-2, 2, -2, 2))


# the origin of surfaces built from a factor e within 1e-6 of 1, by the
# outcomes the point may have there: each class boundary approached from
# both sides, and the points where the kernel must raise what the frame
# or the report raises
_SPECIAL = {
    # disc = tol e^2 against tol; h - H g is far beyond its bound
    "diagonalizable|non_diagonalizable_real": lambda kind, e: (
        _quadric(kind, 1.0 + 2.0 * _ROOT_TOL * e, 0.0, 1.0) if kind is I3
        else _quadric(kind, _ROOT_TOL * e, 0.0, _ROOT_TOL * e)
    ),
    # disc = -tol e^2 against -tol (Ip3 only: in I3, disc >= 0)
    "complex_principal|non_diagonalizable_real": lambda kind, e: _quadric(IP3, 0.0, _ROOT_TOL * e, 0.0),
    # h = g + tol e [[0, 1], [1, 0]], so H = 1, disc = +/-(tol e)^2 is
    # within tol, and |h12 - H g12| = tol e is against its bound tol
    "umbilic|non_diagonalizable_real": lambda kind, e: _quadric(kind, 1.0, _TOL * e, 1.0 if kind is I3 else -1.0),
    # h12^2 overflows, so K = -inf
    "undefined:h12": lambda kind, e: _quadric(kind, 0.0, 1e200 * e, 0.0),
    # h11 h22 overflows, so K = inf
    "undefined:h11 h22": lambda kind, e: _quadric(kind, 1e300 * e, 0.0, 1e300),
    # A^2 overflows where K = H = 0, so xi is not finite
    "undefined:xi": lambda kind, e: _graph(kind, f"{1e160 * e!r}*(u + v)"),
    # the jet itself raises at u = 0
    "undefined:jet": lambda kind, e: _graph(kind, f"log(u) + {e!r}*v"),
    # m12 = e u vanishes at u = 0
    "inadmissible": lambda kind, e: srf.parametric_patch(kind, "u", f"{e!r}*u*v", "v^2", (-2, 2, -2, 2)),
}


@st.composite
def row_cases(draw):
    """(patch, u, v, the classes allowed there, or None for any): random
    graph and parametric patches from ``genexpr`` in both spaces, with
    both parameter orders, or the origin of a ``_SPECIAL`` surface."""
    kind = draw(st.sampled_from([I3, IP3]))
    if draw(st.integers(0, 3)) == 0:
        name = draw(st.sampled_from(sorted(_SPECIAL)))
        jitter = draw(st.floats(1e-12, 1e-6))
        patch = _SPECIAL[name](kind, 1.0 + jitter if draw(st.booleans()) else 1.0 - jitter)
        return patch, 0.0, 0.0, name.split(":")[0].split("|")
    rng = SplitMix64(draw(st.integers(0, 2**64 - 1)))
    if draw(st.booleans()):
        patch = _graph(kind, random_expr_full(rng, 4))
    else:
        s, t = (Var("u"), Var("v")) if draw(st.booleans()) else (Var("v"), Var("u"))
        x = Binary("+", random_expr_full(rng, 2), s)
        y = Binary("+", random_expr_full(rng, 2), t)
        patch = srf.parametric_patch(kind, x, y, random_expr_full(rng, 4), (-2, 2, -2, 2))
    # exact zeros hit log, sqrt, abs and division at their boundary
    coord = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    return patch, draw(coord), draw(coord), None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(row_cases())
def test_row_kernel_matches_the_frame_and_report_rows(case):
    patch, u, v, allowed = case
    vs = [(v, repr(v))]
    row = row_text(patch, u, vs)
    assert row == reference_rows(patch, u, vs), (patch, u, v)
    if allowed is not None:
        assert row.split(",")[8] in allowed, (patch, row)


# surfaces whose rows repeat values (x = u, constant K and H) or meet,
# mid-row, a point that is undefined, inadmissible or not finite
_ROW_SURFACES = [
    srf.graph_patch(I3, "(u^2 + v^2) / 2", (-2, 2, -2, 2)),
    srf.graph_patch(IP3, "0.5 - (u^2 - v^2) / 3", (-2, 2, -2, 2)),
    srf.parametric_patch(IP3, "u * cosh(v)", "u * sinh(v)", "v", (0.5, 2, -2, 2)),
    srf.graph_patch(I3, "0.25*u - 0.5*v", (-2, 2, -2, 2)),
    # undefined for v <= 0
    _graph(I3, "log(v) + u*v"),
    # m12 = 3 v^2: inadmissible at v = 0
    srf.parametric_patch(IP3, "u", "v^3", "u*v", (-2, 2, -2, 2)),
    # z = inf from v ~ 0.05 on, where the frame and curvatures are finite
    _graph(I3, "1e308*(0.9 + 0.9*tanh(100*v)) + u*v"),
    # on u = 0, H^2 - K overflows: disc = inf
    _graph(I3, "1e160*u^2 + v"),
]
_ROW_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.25]), st.floats(-2.0, 2.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_row_kernel_call_writes_the_rows_of_its_points(data):
    # rows with repeated values, 0.0 and -0.0, and error points among
    # defined ones: a value written again keeps the bytes of its repr
    if data.draw(st.booleans()):
        patch = data.draw(st.sampled_from(_ROW_SURFACES))
    else:
        patch = data.draw(row_cases())[0]
    u = data.draw(_ROW_VALUES)
    vs = [(v, repr(v)) for v in data.draw(st.lists(_ROW_VALUES, min_size=1, max_size=12))]
    assert row_text(patch, u, vs) == reference_rows(patch, u, vs), (patch, u, vs)


def test_curvature_compiles_once_and_calls_the_kernel_once_per_u_row(tmp_path, monkeypatch):
    calls, compiled = [], []
    real_row_kernel, real_compile = cli._row_kernel, expr.compile_function

    def counting_row_kernel(patch):
        columns, kernel, everywhere = real_row_kernel(patch)

        def counted(u, su, consts, cols):
            calls.append((u, su, consts, cols))
            return kernel(u, su, consts, cols)

        return columns, counted, everywhere

    def counting_compile(*args):
        compiled.append(args[0])
        return real_compile(*args)

    monkeypatch.setattr(cli, "_row_kernel", counting_row_kernel)
    monkeypatch.setattr(expr, "compile_function", counting_compile)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # every row in this process
    spec = write_spec(tmp_path, SPHERE_SPEC)
    out = tmp_path / "curv.csv"
    assert cli.main(["curvature", spec, "--grid", "7x5", "--out", str(out)]) == 0
    vs = [(v, repr(v)) for v in srf.grid_values(-3.0, 3.0, 5)]
    assert compiled == ["kernel(u, su, consts, cols)", "columns(vs)"]
    table = real_row_kernel(cli.load_spec_file(spec))[0](vs)
    assert calls == [(u, repr(u), *table) for u in srf.grid_values(-3.0, 3.0, 7)]


def test_curvature_keeps_the_admissibility_guard_of_an_overflowing_cylinder(tmp_path, capsys):
    # r = 1e308: the jet's structural zeros meet partials near overflow;
    # the frame lines' guard still decides u = 0, and K is undefined at
    # u = +-2, as before the jet lines skipped them
    surface = {"kind": "builtin", "name": "cylindrical_sphere", "params": {"r": 1e308}}
    spec = write_spec(tmp_path, {"space": "ip3", "surface": surface})
    out = tmp_path / "curv.csv"
    assert cli.main(["curvature", spec, "--grid", "3x3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [cli.CURVATURE_HEADER]
    for u, label in ((-2.0, "undefined"), (0.0, "inadmissible"), (2.0, "undefined")):
        rows += [f"{u!r},{v!r},,,,,,,{label},,," for v in (-1.0, 0.0, 1.0)]
    assert out.read_text() == "\n".join(rows) + "\n"


def test_a_zero_minor_is_inadmissible_where_a_top_view_length_overflows(tmp_path, capsys):
    # r = 1e308: at u = +-1 the top view of x_u is finite but its length is
    # not, and x_v's is 0, so the guard's scale is inf * 0 = nan; the minor
    # m12 = 0 must fail the guard there, as it does at r = 1, rather than
    # divide by zero (u = +-2 stay undefined: there m12 itself is nan)
    surface = {"kind": "builtin", "name": "cylindrical_sphere", "params": {"r": 1e308}}
    spec = write_spec(tmp_path, {"space": "ip3", "surface": surface})
    out = tmp_path / "curv.csv"
    assert cli.main(["curvature", spec, "--grid", "5x3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    labels = ["undefined"] + ["inadmissible"] * 3 + ["undefined"]
    assert [row["class"] for row in read_rows(out)] == [label for label in labels for _ in range(3)]

    trace = str(tmp_path / "trace.csv")
    argv = ["geodesic", spec, "--start=1.0,0.0", "--velocity=0.0,1.0", "--t-end", "0.1", "--out", trace]
    assert cli.main(argv) == cli.EXIT_BAD_START
    assert capsys.readouterr().err == (
        "error: surface not admissible at (u=1.0, v=0.0): top-view minor 0.0\n"
    )
    patch = cli.load_spec_file(spec)
    for gkind in geodesic.GeodesicKind:  # the RK4 stage kernels run the same guard
        with pytest.raises(NotAdmissible):
            geodesic._accel_kernel(patch, gkind)(-1.0, 0.5, 0.0, 1.0)

    assert cli.main(["verify", spec, "--suite", "umbilic", "--samples", "5"]) == cli.EXIT_SPEC
    assert capsys.readouterr().err == (
        "error: could not sample 5 guarded points on cylindrical_sphere[ip3]\n"
    )


def test_curvature_builds_no_frame(tmp_path, monkeypatch):
    # m12 = u^2 - 1/4 vanishes on u = +-0.5 (inadmissible); log(v + 0.5)
    # has no value for v <= -0.5 (undefined)
    surface = {"kind": "parametric", "x": "u", "y": "u^2*v - 0.25*v", "z": "log(v + 0.5) + u*v"}
    spec = write_spec(tmp_path, {"space": "ip3", "surface": surface, "domain": [-1, 1, -1, 1]})
    out = tmp_path / "curv.csv"
    argv = ["curvature", spec, "--grid", "9x8", "--out", str(out)]
    assert cli.main(argv) == 0
    before = out.read_bytes()
    out.unlink()

    def no_frame(*args):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(srf, "frame_of_jet", no_frame)
    assert cli.main(argv) == 0
    assert out.read_bytes() == before
    classes = {row["class"] for row in read_rows(out)}
    assert {"inadmissible", "undefined"} < classes and len(classes) >= 3


# ------------------------------------------------------------ geodesic text


def _reference_geodesic_csv(trace):
    """The CSV of a trace with one repr per value, joined by commas."""
    rows = ["t,u,v,du,dv,x,y,z,parallel_residual"]
    rows += [",".join(map(repr, (*smp, res))) for smp, res in zip(trace.samples, trace.residuals["parallel"])]
    return "\n".join(rows) + "\n"


HELICOID_SPEC = {"space": "ip3", "surface": {"kind": "builtin", "name": "helicoid", "params": {"c": 0.6}}}
# x = u + 0*v is 0.0 where u is -0.0: equal, but a zero, so its text is its own
SIGNED_ZERO_SPEC = {
    "space": "i3", "surface": {"kind": "parametric", "x": "u + 0*v", "y": "v", "z": "0.3*u + 0.2*v"},
    "domain": [-1, 1, -1, 1],
}
PLANE_SPEC = {"space": "i3", "surface": {"kind": "graph", "f": "0.3*u + 0.2*v"}, "domain": [-1, 1, -1, 1]}


@pytest.mark.parametrize("spec, gtype, start, velocity, t_end", [
    pytest.param(SPHERE_SPEC, "r", "0.3,-0.2", "0.7,0.4", "1", id="graph-r"),
    # du and dv keep their value in every row, and every residual is 0.0
    pytest.param(SPHERE_SPEC, "lc", "0.3,-0.2", "0.7,0.4", "1", id="graph-lc"),
    pytest.param(HELICOID_SPEC, "r", "2.0,0.1", "0.3,-0.25", "1", id="parametric-r"),
    pytest.param(HELICOID_SPEC, "lc", "2.0,0.1", "0.3,-0.25", "1", id="parametric-lc"),
    # the first step turns du = -0.0 into 0.0, which equals it
    pytest.param(PLANE_SPEC, "lc", "0.5,-0.5", "-0.0,1.0", "0.1", id="velocity-minus-zero"),
    pytest.param(SIGNED_ZERO_SPEC, "lc", "-0.0,0.5", "0.0,0.25", "0.1", id="x-minus-zero"),
    # leaves the domain u <= 1 and stops early
    pytest.param(PLANE_SPEC, "r", "0.5,0.5", "1.0,0.0", "1", id="stops-early"),
])
def test_geodesic_rows_are_the_repr_of_each_float(tmp_path, capsys, spec, gtype, start, velocity, t_end):
    # a value whose text a row takes from u, v or the row before is that
    # value's own repr, byte for byte
    path = write_spec(tmp_path, spec)
    out = tmp_path / "g.csv"
    argv = ["geodesic", path, "--type", gtype, f"--start={start}", f"--velocity={velocity}", "--t-end", t_end]
    assert cli.main(argv + ["--out", str(out)]) == 0
    pair = lambda text: tuple(map(float, text.split(",")))
    trace = geodesic.integrate(
        cli.load_spec_file(path), geodesic.GeodesicKind(gtype), *pair(start), *pair(velocity), float(t_end), 1e-3
    )
    assert out.read_text() == _reference_geodesic_csv(trace)
    rows = read_rows(out)
    if velocity.startswith("-0.0"):
        assert rows[0]["du"] == "-0.0" and rows[1]["du"] == "0.0"
    if start.startswith("-0.0"):
        assert (rows[0]["u"], rows[0]["x"]) == ("-0.0", "0.0")
    assert trace.completed == (capsys.readouterr().err == "")


def test_geodesic_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    spec = write_spec(tmp_path, SPHERE_SPEC)
    for gtype in ("r", "lc"):
        outs = []
        for hash_seed in ("0", "4242"):
            out = tmp_path / f"{gtype}-{hash_seed}.csv"
            argv = [sys.executable, "-m", "isogeo", "geodesic", spec, "--type", gtype, "--start=0.3,-0.2",
                    "--velocity=0.7,0.4", "--t-end", "1", "--out", str(out)]
            env = dict(os.environ, PYTHONPATH=str(Path(isogeo.__file__).parents[1]), PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, encoding="utf-8", timeout=120)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and len(outs[0].splitlines()) == 1002


def test_curvature_and_sample_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # the kernels' liveness pass keeps its names in sets: fresh processes
    # under two hash seeds write the same bytes, on a graph, the swapped
    # helicoid and a graph with a folded power and undefined points
    specs = {"sphere": SPHERE_SPEC, "helicoid": HELICOID_SPEC, "power": VV_SPEC}
    for name, spec in specs.items():
        path = write_spec(tmp_path, spec, f"{name}.json")
        for command, *options in (("curvature",), ("sample", "--format", "csv"), ("sample", "--format", "obj")):
            outs = []
            for hash_seed in ("0", "4242"):
                out = tmp_path / f"{name}-{command}-{options[-1:]}-{hash_seed}.txt"
                argv = [sys.executable, "-m", "isogeo", command, path, "--grid", "15x12", *options, "--out", str(out)]
                env = dict(os.environ, PYTHONPATH=str(Path(isogeo.__file__).parents[1]), PYTHONHASHSEED=hash_seed)
                proc = subprocess.run(argv, env=env, capture_output=True, text=True, encoding="utf-8", timeout=120)
                assert proc.returncode == 0, proc.stderr
                outs.append((out.read_bytes(), proc.stdout, proc.stderr))
            assert outs[0] == outs[1] and len(outs[0][0].splitlines()) > 100, (name, command)


def test_a_graph_row_writes_the_text_of_u_and_v_as_x_and_y(monkeypatch):
    # x and y of a graph are U and V themselves: their columns write su and
    # sv, with no compare and no repr of their own
    bodies = []
    real = expr.compile_function
    monkeypatch.setattr(expr, "compile_function", lambda *args: bodies.append(args[1]) or real(*args))
    cli._row_kernel(catalog.make("parabolic_sphere", SpaceKind.SIMPLY_ISOTROPIC, {"p": 2.0}))
    kernel, columns = bodies
    assert '    row(f"{su},{sv},{su},{sv},{s2},{s3},{s4},{s5},{label},{s6},{s7},{s8}\\n")' in kernel
    assert not [line for line in kernel + columns if "{U!r}" in line or "{V!r}" in line or "!= c0" in line or "!= c1" in line]


VV_SPEC = {"space": "i3", "surface": {"kind": "graph", "f": "u^(v/v) + v^2"}, "domain": [-2, -0.1, 0.1, 2]}


def test_an_exponent_constant_by_structure_takes_its_integer_power(tmp_path, capsys):
    # u^(v/v) + v^2 is z = u + v^2 with a negative base: v * (1/v), the
    # jet's v/v, rounds to 1 - 2^-53 at about half the points, where the
    # run-time test alone found no integer exponent and the power no value
    path = write_spec(tmp_path, VV_SPEC)
    same = write_spec(tmp_path, dict(VV_SPEC, surface={"kind": "graph", "f": "u + v^2"}), "same.json")
    for name, args in (("c", ["curvature", "--grid", "10x10"]),
                       ("g", ["geodesic", "--start=-1,1", "--velocity=0.1,0.1", "--t-end", "1"])):
        for spec, out in ((path, tmp_path / f"{name}.csv"), (same, tmp_path / f"{name}-same.csv")):
            assert cli.main([args[0], spec, *args[1:], "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""  # a completed trace
        rows, want = read_rows(tmp_path / f"{name}.csv"), read_rows(tmp_path / f"{name}-same.csv")
        assert len(rows) == (100 if name == "c" else 1001)
        assert not [row for row in rows if row.get("class") == "undefined"]
        # the same numbers as z = u + v^2, up to the signs of zeros
        numbers = lambda r: [float(x) if x else x for k, x in r.items() if k != "class"]
        assert [numbers(r) for r in rows] == [numbers(r) for r in want]


def test_a_geodesic_process_compiles_no_generic_frame_function(tmp_path):
    # the stage kernels read connection's and surface's templates only; the
    # generic functions over plain names compile on the first read of their
    # module attribute, which no geodesic command makes
    spec = write_spec(tmp_path, SPHERE_SPEC)
    script = (
        "import sys\nimport isogeo.cli as cli\n"
        "for gtype in ('r', 'lc'):\n"
        "    assert cli.main(['geodesic', sys.argv[1], '--type', gtype, '--start=0.3,-0.2', '--velocity=0.7,0.4',"
        " '--t-end', '0.1', '--out', sys.argv[2]]) == 0\n"
        "from isogeo import connection, surface\n"
        "names = ('coeffs_of_frame', 'denom_gradient_of_frame', 'frame_of_jet', 'curvatures_of_frame')\n"
        "print(sorted(n for n in names if n in vars(connection) or n in vars(surface)))\n"
        "connection.coeffs_of_frame\n"
        "print(sorted(n for n in names if n in vars(connection)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(isogeo.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, spec, str(tmp_path / "g.csv")],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines() == ["[]", "['coeffs_of_frame', 'denom_gradient_of_frame']"]


# argv on which the parser exits: help, usage errors at the top level and in
# each command, and "unrecognized arguments", which the top level reports
# after a command has parsed the rest
_COMMAND_ARGS = {
    "curvature": ["s.json", "--out", "o.csv"],
    "geodesic": ["s.json", "--start", "0,0", "--velocity", "1,0", "--t-end", "1", "--out", "o.csv"],
    "verify": ["--all-catalog"],
    "sample": ["s.json", "--out", "o.obj"],
}
_EXITING_ARGVS = [
    [], ["-h"], ["bogus"], ["bogus", "--out", "o.csv"], ["--suite", "all"],
    *([command, "-h"] for command in _COMMAND_ARGS),
    *([command, "--bogus"] for command in _COMMAND_ARGS),
    *([command, *args, "--bogus", "x"] for command, args in _COMMAND_ARGS.items()),
    ["geodesic", *_COMMAND_ARGS["geodesic"], "--type", "x"],
    ["sample", *_COMMAND_ARGS["sample"], "--format", "stl"],
    ["curvature", "s.json"],
    ["geodesic", "s.json", "--start", "0,0", "--velocity", "-1,0", "--t-end", "1", "--out", "o.csv"],
    ["verify", "--samples", "many"],
    # argv that ``cli.recognize`` declines: a flag given a value, a second
    # SPEC, an option without its value, a value its type rejects and one
    # outside the choices
    ["verify", "--all-catalog=yes"],
    ["curvature", "s.json", "t.json", "--out", "o.csv"],
    ["verify", "--all-catalog", "--out"],
    ["geodesic", "s.json", "--start", "0,0", "--velocity", "1,0", "--t-end", "x", "--out", "o.csv"],
    ["geodesic", *_COMMAND_ARGS["geodesic"], "--type=x"],
]


def _exit_of(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", _EXITING_ARGVS, ids=" ".join)
def test_main_exits_as_the_parser_of_every_command(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = _exit_of(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    assert want[0] in (0, 2) and (want[1] or want[2])
    assert _exit_of(cli.main, argv, capsys) == want


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--all-catalog", "--bogus"]], ids=" ".join)
def test_the_module_entry_point_parses_the_process_arguments(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit_of(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    env = dict(os.environ, PYTHONPATH=str(Path(isogeo.__file__).parents[1]), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "isogeo", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


# values for the recognizer's property: each option's valid values, drawn
# most often, and values any option may get: text int() or float() reads
# that a reader might not expect, values that start with "-", the empty
# string and tokens of the parser itself
_VALID_VALUES = {
    int: ("0", "7", "100", "1_0", " 5"),
    float: ("0.5", "1e-3", "nan", "inf", "1_0", " 5", "7"),
    None: ("s.json", "2x2", "0,0", "1,0", "all", "a=b", ""),
}
_ARGV_VALUES = (
    "x", "", "1.5", "2x2", "-1", "-1,0", "r", "lc", "obj", "csv", "stl", "-h", "--", "--out",
)


@st.composite
def _argvs(draw):
    """A command's argv: its SPEC and options, each absent, once or
    repeated, as ``--name value`` or ``--name=value``, in any order.  At a
    drawn rate, a token goes wrong: a second SPEC or none, an option
    missing, a prefix of its name, a value that is not valid or not there,
    a flag given a value, a stray token.  At rate 0 the argv is well formed."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, options = cli.COMMANDS[command]
    rate = draw(st.sampled_from([0, 0, 1, 2, 4]))

    def wrong():
        return draw(st.integers(0, 9)) < rate

    groups = [["s.json"]] + [[draw(st.sampled_from(["", "a b"]))] for _ in range(wrong())]
    if wrong():
        groups.pop(0)
    for opt in options:
        for _ in range(draw(st.sampled_from([1, 1, 2] if opt.required else [0, 1, 2]))):
            if wrong():
                continue
            name = draw(st.sampled_from([opt.name[:n] for n in (-1, 3, 4)])) if wrong() else opt.name
            values = _ARGV_VALUES if wrong() else opt.choices or _VALID_VALUES[opt.type]
            value = draw(st.sampled_from(values))
            if opt.flag != wrong():
                groups.append([name])
            else:
                groups.append(draw(st.sampled_from([[name, value], [f"{name}={value}"]])))
    if wrong():
        groups.append([draw(st.sampled_from(["-h", "--help", "--", "--bogus", "-1", "x"]))])
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_argvs())
def test_recognize_reads_argv_as_the_parser_of_every_command(argv):
    args = cli.recognize(argv)
    if args is None:  # the parser reads it
        return
    try:
        want = cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"recognized {argv!r}, on which the parser exits")
    assert repr(vars(args)) == repr(vars(want))


def test_recognize_reads_every_argv_of_the_benchmark_and_the_readme(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    argvs = [call.argv for build in workloads.WORKLOADS.values() for call in build(1, tmp_path).calls]
    # the argv of every isogeo command in the README's examples
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text().replace("\\\n    ", "")
    readme = [shlex.split(command) for command in re.findall(r"^isogeo (.+)$", text, re.M)]
    assert len(argvs) == 11 and len(readme) == 6
    for argv in argvs + readme:
        args = cli.recognize(argv)
        assert args is not None, argv
        assert repr(vars(args)) == repr(vars(cli.build_parser().parse_args(argv)))
