import json
import math

import pytest

from isogeo import catalog, cli
from isogeo import surface as srf
from isogeo.errors import BadParam, SpecError
from isogeo.isotropy import SpaceKind
from isogeo.rng import SplitMix64

I3 = SpaceKind.SIMPLY_ISOTROPIC
IP3 = SpaceKind.PSEUDO_ISOTROPIC


def _grid(patch, n=20, margin=0.02):
    u0, u1, v0, v1 = patch.domain
    mu, mv = margin * (u1 - u0), margin * (v1 - v0)
    for i in range(n):
        for j in range(n):
            yield (
                u0 + mu + (u1 - u0 - 2 * mu) * i / (n - 1),
                v0 + mv + (v1 - v0 - 2 * mv) * j / (n - 1),
            )


ORACLE_CASES = [
    ("parabolic_sphere", I3, {"p": 2.0}),
    ("parabolic_sphere", IP3, {"p": 0.5}),
    ("plane", I3, {"a": 0.3, "b": -0.4, "c": 1.0}),
    ("plane", IP3, {"a": -0.2, "b": 0.6, "c": -0.5}),
    ("ruled_nondiag", IP3, {"b": 2.0}),
    ("helicoid", IP3, {"c": 1.0}),
    ("revolution", IP3, {"z": "log(u)"}),
    ("revolution", IP3, {"z": "0.2*u^2 + 0.7"}),
    ("minimal_wave", IP3, {"f": "0.3*u^3 - 0.1*u", "g": "0.2*u^3 + 0.4*u^2"}),
    ("minimal_harmonic", I3, {"f": "u^3 - 3*u*v^2"}),
]


@pytest.mark.parametrize("name, kind, params", ORACLE_CASES)
def test_oracles_match_pipeline_on_grid(name, kind, params):
    patch = catalog.make(name, kind, params)
    oracles = catalog.oracles_for(patch)
    assert oracles is not None
    for u, v in _grid(patch):
        rep = srf.curvatures_at(patch, u, v)
        if oracles.k is not None:
            k_ref = oracles.k(u, v)
            assert abs(rep.K - k_ref) <= 1e-10 * (1.0 + abs(k_ref))
        if oracles.h is not None:
            h_ref = oracles.h(u, v)
            assert abs(rep.H - h_ref) <= 1e-10 * (1.0 + abs(h_ref))
        if oracles.discriminant is not None:
            d_ref = oracles.discriminant(u, v)
            assert abs(rep.discriminant - d_ref) <= 1e-9 * (1.0 + abs(d_ref))


def test_revolution_sphere_case_is_umbilic():
    # quadratic profile makes the revolution surface a sphere of
    # parabolic type: discriminant oracle collapses to zero
    patch = catalog.make("revolution", IP3, {"z": "0.25*u^2 + 1"})
    for u, v in _grid(patch, n=6):
        rep = srf.curvatures_at(patch, u, v)
        assert abs(rep.discriminant) < 1e-9
        assert rep.label is srf.CurvatureClass.UMBILIC


@pytest.mark.parametrize("kind", [I3, IP3])
def test_cylindrical_sphere_is_the_inadmissible_witness(kind):
    patch = catalog.make("cylindrical_sphere", kind, {"r": 2.0})
    report = srf.is_admissible(patch, 10, 10)
    assert len(report.inadmissible) == report.points


def test_random_waves_are_minimal():
    rng = SplitMix64(31415)
    for _ in range(5):
        coef = [rng.uniform(-0.5, 0.5) for _ in range(6)]
        patch = catalog.make(
            "minimal_wave",
            IP3,
            {
                "f": f"{coef[0]!r}*u^3 + {coef[1]!r}*u^2 + {coef[2]!r}*u",
                "g": f"{coef[3]!r}*u^3 + {coef[4]!r}*u^2 + {coef[5]!r}*u",
            },
        )
        for _ in range(15):
            u, v = rng.uniform(-1.9, 1.9), rng.uniform(-1.9, 1.9)
            assert abs(srf.curvatures_at(patch, u, v).H) <= 1e-10


def test_an_overflowing_literal_in_an_expression_parameter_is_a_bad_param():
    # it was kept as the source "inf * u + u ^ 2.0", which oracles_for
    # could not parse back
    with pytest.raises(BadParam, match=r"'z': number '1e400' overflows a float \(at offset 0\)"):
        catalog.make("revolution", IP3, {"z": "1e400*u + u^2"})


def test_bad_params():
    with pytest.raises(BadParam):
        catalog.make("parabolic_sphere", I3, {"p": 0.0})
    with pytest.raises(BadParam):
        catalog.make("parabolic_sphere", I3, {})
    with pytest.raises(BadParam):
        catalog.make("cylindrical_sphere", I3, {"r": -1.0})
    with pytest.raises(BadParam):
        catalog.make("helicoid", IP3, {"c": 0.0})
    with pytest.raises(BadParam):
        catalog.make("helicoid", I3, {"c": 1.0})  # pseudo-only entry
    with pytest.raises(BadParam):
        catalog.make("nosuch", I3, {})
    with pytest.raises(BadParam):
        catalog.make("revolution", IP3, {"z": "log(u) + v"})  # profile must be u-only
    with pytest.raises(BadParam):
        catalog.make("minimal_wave", IP3, {"f": "u + v", "g": "u"})
    with pytest.raises(BadParam):
        catalog.make("minimal_wave", IP3, {"f": "u^2 +", "g": "u"})  # parse error
    # an unknown name is rejected before the builder reads any parameter
    with pytest.raises(BadParam, match=r"^unknown parabolic_sphere parameter 'q'; known: \['p'\]$"):
        catalog.make("parabolic_sphere", I3, {"p": 0.0, "q": 1})
    with pytest.raises(BadParam):
        catalog.make("minimal_harmonic", I3, {"f": "u^2"})  # not harmonic
    with pytest.raises(BadParam):
        catalog.make("parabolic_sphere", I3, {"p": "two"})
    with pytest.raises(BadParam):
        catalog.make("helicoid", IP3, {"c": 1.0}, domain=(-1.0, 3.0, -1.0, 1.0))
    with pytest.raises(BadParam):
        catalog.make("plane", I3, {"a": 0, "b": 0, "c": 0}, domain=(2.0, 1.0, 0.0, 1.0))


# f_uu + f_vv overflows to inf - inf = NaN at every grid point
NAN_LAPLACIAN = "1e300*1e300*(u*u - v*v) + u*u"


def test_minimal_harmonic_rejects_a_laplacian_that_is_not_finite():
    with pytest.raises(BadParam, match="not harmonic: laplacian nan at"):
        catalog.make("minimal_harmonic", I3, {"f": NAN_LAPLACIAN})


# one patch constructor per entry, each given only the domain
CONSTRUCTORS = {
    "graph_patch": lambda domain: srf.graph_patch(I3, "u^2 + v^2", domain),
    "parametric_patch": lambda domain: srf.parametric_patch(IP3, "u", "v", "u*v", domain),
    "catalog.make": lambda domain: catalog.make("parabolic_sphere", I3, {"p": 1.0}, domain),
}


def test_domain_override():
    patch = catalog.make("parabolic_sphere", I3, {"p": 1.0}, domain=(-1, 1, -1, 1))
    assert patch.domain == (-1.0, 1.0, -1.0, 1.0)
    # every constructor stores four floats, from a list or a tuple of ints
    for make in CONSTRUCTORS.values():
        for domain in ([-1, 1, -1, 1], (-1, 1.0, -1, 1)):
            patch = make(domain)
            assert patch.domain == (-1.0, 1.0, -1.0, 1.0) and all(type(x) is float for x in patch.domain)


# each fault of the domain rule, with the message a spec with it gets
DOMAIN_FAULTS = [
    ((0.0, math.nan, 0.0, 1.0), "'domain' must be finite, got (0.0, nan, 0.0, 1.0)"),
    ((0, math.inf, 0, 1), "'domain' must be finite, got (0.0, inf, 0.0, 1.0)"),
    ((-math.inf, 1, 0, 1), "'domain' must be finite, got (-inf, 1.0, 0.0, 1.0)"),
    ((0, 10**400, 0, 1), "'domain' entries must fit in a float"),
    ((0, 1, -(10**400), 1), "'domain' entries must fit in a float"),
    ((1, 0, 0, 1), "empty domain (1.0, 0.0, 0.0, 1.0)"),
    ((0, 1, 1, 1), "empty domain (0.0, 1.0, 1.0, 1.0)"),
    ((-1e308, 1e308, 0, 1), "'domain' widths must be finite, got (-1e+308, 1e+308, 0.0, 1.0)"),
    ((0, 1, -1e308, 1e308), "'domain' widths must be finite, got (0.0, 1.0, -1e+308, 1e+308)"),
    ((False, True, 0, 1), "'domain' must be [u0, u1, v0, v1]"),
    ((0, 1, 0), "'domain' must be [u0, u1, v0, v1]"),
    ((0, 1, 0, "1"), "'domain' must be [u0, u1, v0, v1]"),
    ("0101", "'domain' must be [u0, u1, v0, v1]"),
]


@pytest.mark.parametrize("domain, message", DOMAIN_FAULTS, ids=[
    "nan", "inf", "-inf", "huge", "-huge", "u1<u0", "v1=v0", "u-width", "v-width", "bools", "three", "text-entry", "text"
])
@pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS)
def test_a_bad_domain_is_a_bad_param_of_every_constructor(make, domain, message):
    with pytest.raises(BadParam) as err:
        make(domain)
    assert str(err.value) == message
    # a spec file with this domain gets the same message
    spec = json.loads(json.dumps({"space": "i3", "surface": {"kind": "graph", "f": "u"}, "domain": domain}))
    with pytest.raises(SpecError) as err:
        cli.parse_surface_spec(spec)
    assert str(err.value) == message


def test_a_builtin_reports_its_domain_before_its_parameters():
    with pytest.raises(BadParam, match=r"^'domain' must be finite"):
        catalog.make("parabolic_sphere", I3, {"p": 0.0}, (0, math.nan, 0, 1))
    with pytest.raises(BadParam, match=r"^empty domain"):
        catalog.make("helicoid", IP3, {"c": 1.0}, (-1, -2, -1, 1))


def test_a_domain_that_is_not_finite_no_longer_builds_a_patch():
    nan = math.nan
    # every frame of the scan was taken at u = nan and none was inadmissible
    with pytest.raises(BadParam, match="must be finite"):
        srf.is_admissible(srf.graph_patch(I3, "u^2+v^2", (0, nan, 0, 1)), 3, 3)
    # the helicoid's lightlike locus u = 1 lies inside, yet none was found
    with pytest.raises(BadParam, match="must be finite"):
        srf.lightlike_points(srf.parametric_patch(IP3, "u * cosh(v)", "u * sinh(v)", "1.0 * v", (0.5, nan, -1, 1)))
    # verify then failed with "could not sample 10 guarded points"
    with pytest.raises(BadParam, match="must be finite"):
        catalog.make("parabolic_sphere", I3, {"p": 2.0}, (0, math.inf, 0, 1))


def test_catalog_names():
    names = catalog.catalog_names()
    assert "parabolic_sphere" in names and "helicoid" in names
    assert names == sorted(names)


def test_make_is_deterministic():
    a = catalog.make("helicoid", IP3, {"c": 1.0})
    b = catalog.make("helicoid", IP3, {"c": 1.0})
    assert a == b
