"""The record types of the package: their fields, immutability and
equality, and what ``import isogeo.cli`` loads to define them."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isogeo.expr import Binary, Const, Unary, Var, parse
from isogeo.isotropy import SpaceKind, Vec3
from isogeo.surface import SurfacePatch

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, record, field names in order), as the dataclasses had them
RECORDS = [
    ("catalog", "CurvatureOracles", ("k", "h", "discriminant")),
    ("catalog", "CatalogEntry", ("name", "kinds", "required", "default_domain", "build")),
    ("connection", "CurvatureTensorSample", ("r_lc", "r_rel", "r_lowered", "coeffs")),
    ("connection", "EgregiumResult", ("k_from_tensor", "k_extrinsic", "rel_err", "abs_err")),
    ("connection", "CodazziResiduals", ("relative", "levi_civita")),
    ("expr", "Const", ("value",)),
    ("expr", "Var", ("name",)),
    ("expr", "Unary", ("op", "arg")),
    ("expr", "Binary", ("op", "left", "right")),
    ("expr", "_Token", ("kind", "text", "pos")),
    ("geodesic", "GeodesicTrace", ("kind", "samples", "residuals", "stopped_reason", "stop_time")),
    ("geodesic", "PlaneSection", ("kind", "p", "a", "b", "branch", "r_value", "theta0", "theta_dot0")),
    (
        "geodesic",
        "SphereGeodesicCheck",
        (
            "max_deviation",
            "integrated_plane_residual",
            "integrated_sphere_residual",
            "section_plane_residual",
            "section_sphere_residual",
            "max_parallel_residual",
            "integrated_completed",
        ),
    ),
    ("isotropy", "Vec3", ("x", "y", "z")),
    ("isotropy", "Motion", ("kind", "a", "b", "c", "c1", "c2", "phi")),
    ("surface", "SurfacePatch", ("kind", "x_expr", "y_expr", "z_expr", "domain", "name", "params")),
    (
        "surface",
        "AdmissibilityReport",
        ("admissible_everywhere", "min_abs_m12", "points", "inadmissible", "timelike_everywhere"),
    ),
    ("verify", "CheckResult", ("name", "surface", "points", "max_residual", "tolerance", "passed")),
]

# the defaults of the fields that have one
DEFAULTS = {
    "CurvatureOracles": {"discriminant": None},
    "GeodesicTrace": {"stopped_reason": None, "stop_time": None},
    "PlaneSection": {"theta0": 0.0, "theta_dot0": 1.0},
    "Motion": {"a": 0.0, "b": 0.0, "c": 0.0, "c1": 0.0, "c2": 0.0, "phi": 0.0},
    "SurfacePatch": {"name": "parametric", "params": {}},
}


def _record(module: str, name: str):
    return getattr(importlib.import_module(f"isogeo.{module}"), name)


@pytest.mark.parametrize("module, name, fields", RECORDS, ids=[r[1] for r in RECORDS])
def test_record_keeps_its_fields_in_order(module, name, fields):
    cls = _record(module, name)
    params = inspect.signature(cls).parameters
    assert tuple(params) == fields
    assert cls.__match_args__ == fields  # class patterns bind positionally
    defaults = {k: p.default for k, p in params.items() if p.default is not inspect.Parameter.empty}
    assert set(defaults) == set(DEFAULTS.get(name, {}))

    values = [object() for _ in fields]
    record = cls(*values)
    assert all(getattr(record, f) is value for f, value in zip(fields, values))
    required = cls(*values[: len(fields) - len(defaults)])
    assert {k: getattr(required, k) for k in defaults} == DEFAULTS.get(name, {})


@pytest.mark.parametrize("module, name, fields", RECORDS, ids=[r[1] for r in RECORDS])
def test_records_are_immutable(module, name, fields):
    # all of them, GeodesicTrace and CheckResult too: verify's --tol
    # replaces its checks, and integrate builds its trace once
    record = _record(module, name)(*(object() for _ in fields))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_surface_patch_keeps_a_fresh_params_dict_and_rejects_new_attributes():
    a, b = (SurfacePatch(SpaceKind.SIMPLY_ISOTROPIC, *"uvw", ()) for _ in "ab")
    assert a.params == {} and a.params is not b.params
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        del a.kind
    assert a == b and a != (SpaceKind.SIMPLY_ISOTROPIC, *"uvw", (), "parametric", {})
    with pytest.raises(TypeError):
        hash(a)
    # the record checks no field: the domain is kept as given
    placeholder = (0, float("nan"), "v0")
    assert SurfacePatch(SpaceKind.SIMPLY_ISOTROPIC, *"uvw", placeholder).domain is placeholder


def test_expr_nodes_compare_by_type_and_fields():
    e = parse("sin(u*v) + 2^u - v")
    assert e == parse("sin(u*v) + 2^u - v") and hash(e) == hash(parse("sin(u*v) + 2^u - v"))
    assert {e: 1}[parse("sin(u*v) + 2^u - v")] == 1
    assert e != parse("sin(u*v) + 2^v - v")
    assert Var("u") != ("u",) and ("u",) != Var("u") and not Var("u") == ("u",)
    assert Const(1.0) != (1.0,) and (1.0,) != Const(1.0) and not (1.0,) == Const(1.0)
    assert Unary("neg", Var("u")) != ("neg", Var("u"))
    # nodes of different types never compare equal, even with equal fields
    assert Const("u") != Var("u") and Var("u") != Const("u") and not Const("u") == Var("u")
    assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))


def test_reprs_are_unchanged():
    assert repr(Const(1.0)) == "Const(value=1.0)"
    assert repr(Var("u")) == "Var(name='u')"
    assert repr(Unary("neg", Var("v"))) == "Unary(op='neg', arg=Var(name='v'))"
    assert repr(Vec3(1.0, -2.5, 3.0)) == "Vec3(x=1.0, y=-2.5, z=3.0)"


def test_importing_the_cli_loads_no_dataclasses():
    probe = "import sys; before = set(sys.modules); import isogeo.cli; print(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    added = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "isogeo.cli" in added
    assert "dataclasses" not in added and "inspect" not in added


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "isogeo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) else []
            )
            assert "dataclasses" not in names, path.name
