import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isogeo
from isogeo import cli, expr, geodesic, verify

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


def test_verify_requires_one_target(tmp_path, capsys):
    assert cli.main(["verify"]) == 2
    spec = write_spec(tmp_path, SPHERE_SPEC)
    assert cli.main(["verify", spec, "--all-catalog"]) == 2


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
    ]
    for idx, spec in enumerate(cases):
        path = write_spec(tmp_path, spec, f"bad{idx}.json")
        assert cli.main(["curvature", path, "--out", str(tmp_path / "o.csv")]) == 2, spec


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
    monkeypatch.setattr(geodesic, "frame_at", _no_points)
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
        assert "Infinity" in open(path).read() or "NaN" in open(path).read()
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


_IMPORT_PATH_SCRIPT = """\
import contextlib, io, json, sys
steps = []
import isogeo
steps.append(["import isogeo", 0, "numpy" in sys.modules])
import isogeo.cli as cli
steps.append(["import isogeo.cli", 0, "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_float_commands_never_import_numpy(tmp_path):
    sphere = write_spec(tmp_path, SPHERE_SPEC, "sphere.json")
    helicoid = write_spec(
        tmp_path,
        {"space": "ip3", "surface": {"kind": "builtin", "name": "helicoid", "params": {"c": 1}}},
        "helicoid.json",
    )
    out = str(tmp_path / "out")
    geodesic_args = ["--start", "1.5,0.2", "--velocity", "0.3,0.1", "--t-end", "0.05",
                     "--step", "0.01", "--out", out]
    float_only = [
        ["curvature", sphere, "--grid", "3x3", "--out", out],
        ["geodesic", sphere, "--type", "r", *geodesic_args],
        ["geodesic", sphere, "--type", "lc", *geodesic_args],
        ["geodesic", helicoid, "--type", "r", *geodesic_args],
        ["sample", helicoid, "--grid", "3x3", "--out", out],
        ["verify", "--all-catalog", "--suite", "umbilic", "--samples", "9"],
        ["verify", "--all-catalog", "--suite", "minimal", "--samples", "9"],
    ]
    flatness = ["verify", "--all-catalog", "--suite", "flatness", "--samples", "9"]
    env = dict(os.environ, PYTHONPATH=str(Path(isogeo.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_SCRIPT, json.dumps(float_only + [flatness])],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    steps = json.loads(proc.stdout)
    assert len(steps) == 2 + len(float_only) + 1
    assert all(code == 0 for _, code, _ in steps), steps
    assert not any(loaded for _, _, loaded in steps[:-1]), steps
    assert steps[-1][2]  # the tensor suites build arrays
