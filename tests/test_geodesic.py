import math

import pytest

from isogeo import catalog
from isogeo import geodesic as geo
from isogeo import surface as srf
from isogeo.errors import (
    DegenerateBranch,
    LeftDomain,
    LightlikePointHit,
    StepNotPositive,
    TooManySteps,
)
from isogeo.geodesic import GeodesicKind
from isogeo.isotropy import SpaceKind, norm_euclid

I3 = SpaceKind.SIMPLY_ISOTROPIC
IP3 = SpaceKind.PSEUDO_ISOTROPIC

RELATIVE = GeodesicKind.RELATIVE
LEVI_CIVITA = GeodesicKind.LEVI_CIVITA


@pytest.mark.parametrize("gkind", [RELATIVE, LEVI_CIVITA])
def test_plane_geodesics_are_straight(gkind):
    plane = catalog.make("plane", I3, {"a": 0.4, "b": -0.7, "c": 1.0})
    trace = geo.integrate(plane, gkind, 0.1, -0.2, 0.5, 0.25, 1.0, 1e-2)
    assert trace.completed
    for smp in trace.samples:
        assert abs(smp.u - (0.1 + 0.5 * smp.t)) < 1e-12
        assert abs(smp.v - (-0.2 + 0.25 * smp.t)) < 1e-12
    assert max(trace.residuals["parallel"]) == 0.0


def test_levi_civita_on_graph_has_straight_top_view():
    # in the normal form the induced metric is flat, so parameters move
    # linearly at constant speed
    sphere = catalog.make("parabolic_sphere", I3, {"p": 2.0})
    trace = geo.integrate(sphere, LEVI_CIVITA, 0.3, -0.2, 0.7, 0.4, 2.0, 1e-2)
    assert trace.completed
    for smp in trace.samples:
        assert abs(smp.u - (0.3 + 0.7 * smp.t)) < 1e-10
        assert abs(smp.v - (-0.2 + 0.4 * smp.t)) < 1e-10
        assert abs(smp.du - 0.7) < 1e-12 and abs(smp.dv - 0.4) < 1e-12
    assert max(trace.residuals["parallel"]) < 1e-10


def test_equator_relative_geodesic_stays_on_equator():
    sphere = catalog.make("parabolic_sphere", I3, {"p": 2.0})
    trace = geo.integrate(sphere, RELATIVE, 2.0, 0.0, 0.0, 1.0, 1.0, 1e-3)
    assert trace.completed
    for smp in trace.samples:
        assert abs(math.hypot(smp.u, smp.v) - 2.0) < 1e-9
        assert abs(smp.position.z) < 1e-12
    assert max(trace.residuals["parallel"]) <= 1e-6


def test_trig_section_circle():
    ps = geo.make_plane_section(I3, 2.0, 0.0, 0.0)
    assert ps.branch is geo.SectionBranch.TRIG and abs(ps.r_value - 1.0) < 1e-15
    grid = [k * 1e-2 for k in range(101)]
    trace = geo.plane_section(ps, grid)
    # a = b = 0 makes the angular speed constant: theta(t) = t
    for smp in trace.samples:
        assert abs(smp.u - 2.0 * math.cos(smp.t)) < 1e-12
        assert abs(smp.v - 2.0 * math.sin(smp.t)) < 1e-12
        assert abs(smp.position.z) < 1e-15
    assert max(trace.residuals["plane"]) <= 1e-9
    assert max(trace.residuals["sphere"]) <= 1e-9


def test_tilted_section_residuals():
    ps = geo.make_plane_section(I3, 1.0, 1.0, 0.0)
    grid = [k * 1e-3 for k in range(1001)]
    trace = geo.plane_section(ps, grid)
    assert max(trace.residuals["plane"]) <= 1e-9
    assert max(trace.residuals["sphere"]) <= 1e-9
    # gamma x gamma'' = 0 along the section, i.e. acceleration stays
    # parallel to the Gauss map
    assert max(trace.residuals["parallel"]) <= 1e-6


def test_branch_selection():
    assert geo.make_plane_section(IP3, 1.0, 2.0, 0.0).branch is geo.SectionBranch.HYPERBOLIC_COSH
    assert geo.make_plane_section(IP3, 1.0, 0.0, 2.0).branch is geo.SectionBranch.HYPERBOLIC_SINH
    lp = geo.make_plane_section(IP3, 1.0, 1.0, math.sqrt(2.0))
    assert lp.branch is geo.SectionBranch.LINE_PAIR
    assert geo.make_plane_section(I3, 1.0, 5.0, 5.0).branch is geo.SectionBranch.TRIG


def test_degenerate_branch_errors():
    lp = geo.make_plane_section(IP3, 1.0, 1.0, math.sqrt(2.0))
    with pytest.raises(DegenerateBranch):
        geo.plane_section(lp, [0.0, 1.0])
    ok = geo.make_plane_section(IP3, 1.0, 2.0, 0.0)
    with pytest.raises(DegenerateBranch):
        geo.line_pair(ok, [0.0, 1.0])
    with pytest.raises(DegenerateBranch):
        geo.make_plane_section(I3, 0.0, 1.0, 0.0)


def test_line_pair_lies_on_sphere_and_plane():
    lp = geo.make_plane_section(IP3, 1.5, 1.0, math.sqrt(2.0))
    grid = [k * 0.05 - 1.0 for k in range(41)]
    first, second = geo.line_pair(lp, grid)
    for trace in (first, second):
        assert max(trace.residuals["plane"]) <= 1e-12
        assert max(trace.residuals["sphere"]) <= 1e-12
        assert max(trace.residuals["parallel"]) == 0.0
    # two distinct lines
    assert norm_euclid(first.samples[0].position - second.samples[0].position) > 0.1


SPHERE_CONFIGS = [
    (2.0, 0.0, 0.0, I3),
    (1.0, 1.0, 0.0, I3),
    (1.0, 1.0, 1.0, I3),
    (1.0, 2.0, 0.0, IP3),
    (1.0, 0.0, 2.0, IP3),
]


@pytest.mark.parametrize("p,a,b,kind", SPHERE_CONFIGS)
def test_cross_check_sphere_geodesics(p, a, b, kind):
    chk = geo.cross_check_sphere_geodesic(p, a, b, kind, 1.0, 1e-3)
    assert chk.integrated_completed
    assert chk.max_deviation <= 1e-6
    assert chk.integrated_plane_residual <= 1e-6
    assert chk.integrated_sphere_residual <= 1e-6
    assert chk.section_plane_residual <= 1e-6
    assert chk.section_sphere_residual <= 1e-6
    assert chk.max_parallel_residual <= 1e-5


def _sphere_patch_for(ps, pad=6.0):
    base = geo.section_sphere_patch(ps)
    return srf.SurfacePatch(
        base.kind, base.x_expr, base.y_expr, base.z_expr,
        (-pad, pad, -pad, pad), base.name,
    )


def test_rk4_step_halving_ratio():
    ps = geo.make_plane_section(I3, 1.0, 1.0, 1.0)
    section = geo.plane_section(ps, [0.0])
    start = section.samples[0]
    patch = _sphere_patch_for(ps)

    def endpoint(h):
        tr = geo.integrate(patch, RELATIVE, start.u, start.v, start.du, start.dv, 1.0, h)
        assert tr.completed
        return tr.samples[-1].position

    e1 = norm_euclid(endpoint(0.05) - endpoint(0.025))
    e2 = norm_euclid(endpoint(0.025) - endpoint(0.0125))
    assert 8.0 <= e1 / e2 <= 32.0


def test_arc_length_not_preserved_on_tilted_section():
    ps = geo.make_plane_section(I3, 1.0, 1.0, 0.0)
    grid = [k * 1e-3 for k in range(1001)]
    trace = geo.plane_section(ps, grid)
    speeds = geo.induced_speed_profile(I3, trace)
    assert (max(speeds) - min(speeds)) / max(speeds) >= 0.01


def test_speed_constant_on_centershifted_circle():
    ps = geo.make_plane_section(I3, 2.0, 0.0, 0.0)
    grid = [k * 1e-2 for k in range(101)]
    speeds = geo.induced_speed_profile(I3, geo.plane_section(ps, grid))
    assert max(speeds) - min(speeds) < 1e-12


def test_integration_guards():
    plane = catalog.make("plane", I3, {"a": 0.0, "b": 0.0, "c": 0.0})
    with pytest.raises(StepNotPositive):
        geo.integrate(plane, RELATIVE, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(LeftDomain):
        geo.integrate(plane, RELATIVE, 99.0, 0.0, 1.0, 0.0, 1.0, 1e-2)


@pytest.mark.parametrize("t_end, step", [(1.0, 1e-320), (1.0, 1e-7), (math.nan, 1e-3)])
def test_step_count_is_bounded_before_integrating(t_end, step):
    sphere = catalog.make("parabolic_sphere", I3, {"p": 2.0})
    with pytest.raises(TooManySteps):
        geo.integrate(sphere, RELATIVE, 0.0, 0.0, 1.0, 0.0, t_end, step)
    with pytest.raises(TooManySteps):
        geo.cross_check_sphere_geodesic(2.0, 0.0, 0.0, I3, t_end, step)


def test_step_count_bound_is_inclusive():
    assert geo._step_count(1.0, 1.0 / geo.MAX_STEPS) == geo.MAX_STEPS
    with pytest.raises(TooManySteps):
        geo._step_count(1.0, 0.99 / geo.MAX_STEPS)
    assert geo._step_count(1.0, 3.0) == 1  # at least one step


def test_trace_flags_domain_exit():
    plane = srf.graph_patch(I3, "0.1*u", (-1.0, 1.0, -1.0, 1.0))
    trace = geo.integrate(plane, RELATIVE, 0.0, 0.0, 1.0, 0.0, 3.0, 1e-2)
    assert not trace.completed
    assert trace.stopped_reason == "left_domain"
    assert trace.stop_time is not None and trace.stop_time <= 1.01
    assert all(-1.0 <= smp.u <= 1.0 for smp in trace.samples)


def test_swapped_parameterization_integrates_the_same_curve():
    normal = catalog.make("parabolic_sphere", I3, {"p": 2.0})
    swapped = srf.parametric_patch(I3, "v", "u", "(v^2 + u^2)/4 - 1", (-8, 8, -8, 8))
    ref = geo.integrate(normal, RELATIVE, 2.0, 0.0, 0.0, 1.0, 1.0, 1e-3)
    alt = geo.integrate(swapped, RELATIVE, 0.0, 2.0, 1.0, 0.0, 1.0, 1e-3)
    assert ref.completed and alt.completed
    for a, b in zip(ref.samples, alt.samples):
        assert abs(a.u - b.v) < 1e-9 and abs(a.v - b.u) < 1e-9
        assert norm_euclid(a.position - b.position) < 1e-9
    assert max(alt.residuals["parallel"]) <= 1e-6


def test_lightlike_start_raises_for_relative_only():
    # on the pseudo-isotropic unit sphere the locus u^2 - v^2 = -p^2 is
    # lightlike; (0, 1) sits exactly on it
    sphere = catalog.make("parabolic_sphere", IP3, {"p": 1.0})
    with pytest.raises(LightlikePointHit):
        geo.integrate(sphere, RELATIVE, 0.0, 1.0, 1.0, 0.0, 0.5, 1e-2)
    trace = geo.integrate(sphere, LEVI_CIVITA, 0.0, 1.0, 1.0, 0.0, 0.5, 1e-2)
    assert trace.completed


def test_relative_trace_halts_at_lightlike_locus():
    sphere = catalog.make("parabolic_sphere", IP3, {"p": 1.0})
    # run towards the lightlike hyperbola from a healthy start
    trace = geo.integrate(sphere, RELATIVE, 0.0, 0.0, 0.0, 1.0, 3.0, 1e-2)
    assert not trace.completed
    assert trace.stopped_reason == "lightlike"
