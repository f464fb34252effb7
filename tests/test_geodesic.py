import math

import pytest

import rk4ref
from isogeo import catalog
from isogeo import geodesic as geo
from isogeo import surface as srf
from isogeo.errors import (
    DegenerateBranch,
    LeftDomain,
    LightlikePointHit,
    NonFiniteStart,
    NotAdmissible,
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


def _rk4_cases():
    helicoid = catalog.make("helicoid", IP3, {"c": 0.6})
    sphere = catalog.make("parabolic_sphere", I3, {"p": 2.0})
    sheared = ("u + 0.3*v", "v + 0.2*u*v", "sin(u)*cos(v)")  # g12 != 0
    box = (-2.0, 2.0, -2.0, 2.0)
    walk = (0.1, 0.2, 0.5, 0.3, 1.0, 1e-2)
    cases = []
    for gkind in (RELATIVE, LEVI_CIVITA):
        cases += [
            ("helicoid", helicoid, gkind, (2.0, 0.1, 0.3, -0.25, 1.0, 1e-2), None),
            ("sphere", sphere, gkind, (0.3, -0.2, 0.7, 0.4, 1.0, 1e-2), None),
            ("sheared-i3", srf.parametric_patch(I3, *sheared, box), gkind, walk, None),
            ("sheared-ip3", srf.parametric_patch(IP3, *sheared, box), gkind, walk, None),
            # m12 = -1, so the frame swaps the parameters; g12 = 0.3
            ("swapped", srf.parametric_patch(I3, "v + 0.3*u", "u", "u^2/3 + u*v/5", box), gkind, walk, None),
            # the fourth stage of the step from u = 0.95 lands on u = 1.05
            ("left", srf.graph_patch(I3, "0.1*u", (0.0, 1.0, 0.0, 1.0)), gkind,
             (0.55, 0.5, 1.0, 0.0, 1.0, 0.1), "left_domain"),
        ]
    # the second stage of the first step lands on (0, 1), on the lightlike
    # locus u^2 - v^2 = -1, where the relative connection is singular
    lightlike = catalog.make("parabolic_sphere", IP3, {"p": 1.0})
    cases.append(("lightlike", lightlike, RELATIVE, (0.0, 0.5, 0.0, 1.0, 1.0, 1.0), "lightlike"))
    return cases


@pytest.mark.parametrize(
    "patch, gkind, args, reason",
    [case[1:] for case in _rk4_cases()],
    ids=[f"{case[0]}-{case[2].value}" for case in _rk4_cases()],
)
def test_integrate_matches_the_tuple_form_reference(patch, gkind, args, reason):
    got = geo.integrate(patch, gkind, *args)
    rows, residuals, ref_reason, ref_stop = rk4ref.trace(patch, gkind, *args)
    assert got.stopped_reason == ref_reason == reason
    assert repr(got.stop_time) == repr(ref_stop)
    assert len(got.samples) == len(rows) >= 1
    for smp, row in zip(got.samples, rows):
        values = (smp.t, smp.u, smp.v, smp.du, smp.dv) + smp.position.as_tuple()
        assert list(map(repr, values)) == list(map(repr, row))
    assert list(map(repr, got.residuals["parallel"])) == list(map(repr, residuals))
    if reason is not None:  # the halt came inside a step, after a sample
        assert len(rows) >= 1 and got.stop_time == rows[-1][0]


def test_relative_trace_halts_where_the_connection_overflows():
    # z = exp(u): |xi|^2 overflows past u ~ 354.9, and the relative
    # coefficients there are nan; u'' = -2 u'^2 carries the trace across
    steep = srf.graph_patch(I3, "exp(u)", (0.0, 1000.0, 0.0, 1.0))
    trace = geo.integrate(steep, RELATIVE, 354.6, 0.5, 1.0, 0.0, 1.0, 1e-3)
    assert trace.stopped_reason == "non_finite"
    assert 0.3 < trace.stop_time < 0.5
    # a stage of the step from stop_time overflowed; its samples are finite
    assert len(trace.samples) == round(trace.stop_time / 1e-3) + 1
    assert all(math.isfinite(x) for smp in trace.samples for x in smp[:5])
    # the Levi-Civita connection does not involve xi
    assert geo.integrate(steep, LEVI_CIVITA, 354.6, 0.5, 1.0, 0.0, 1.0, 1e-3).completed
    with pytest.raises(NonFiniteStart, match=r"not finite at the start \(356.0, 0.5\)"):
        geo.integrate(steep, RELATIVE, 356.0, 0.5, 1.0, 0.0, 1.0, 1e-3)


def test_non_finite_start_velocity_is_rejected():
    plane = catalog.make("plane", I3, {"a": 0.4, "b": -0.7, "c": 1.0})
    for velocity in ((math.inf, 0.0), (0.0, math.nan)):
        for gkind in (RELATIVE, LEVI_CIVITA):
            with pytest.raises(NonFiniteStart):
                geo.integrate(plane, gkind, 0.1, 0.2, *velocity, 1.0, 1e-2)


def test_a_stage_that_overflows_the_position_halts_as_non_finite(monkeypatch):
    # a stage position of inf or nan is outside the domain, but says more
    plane = catalog.make("plane", I3, {"a": 0.4, "b": -0.7, "c": 1.0})
    with pytest.raises(geo._Halt) as halt:
        geo._rhs(plane, RELATIVE, math.nan, 0.2, 1.0, 0.0)
    assert halt.value.reason == "non_finite"
    with pytest.raises(geo._Halt) as halt:
        geo._rhs(plane, RELATIVE, 1e300, 0.2, 1.0, 0.0)
    assert halt.value.reason == "left_domain"


def test_inadmissible_start_reports_the_frame_minor():
    # m12 = 1e-13 (rounded) against a top-view scale of about 3
    patch = srf.parametric_patch(
        I3, "u + v", "u + 1.0000000000001*v", "u*v", (0.0, 1.0, 0.0, 1.0)
    )
    with pytest.raises(NotAdmissible) as err:
        geo.integrate(patch, RELATIVE, 0.3, 0.2, 1.0, 0.0, 1.0, 1e-2)
    assert err.value.minor == 1.0000000000001 - 1.0
    assert "top-view minor 9.992007221626409e-14" in str(err.value)


def test_a_non_finite_stage_acceleration_halts_before_its_sample(monkeypatch):
    # the last stage of the step from u = 0.55 reaches u = 0.56, where the
    # acceleration is nan: u stays finite, u' does not
    plane = catalog.make("plane", I3, {"a": 0.4, "b": -0.7, "c": 1.0})
    real_rhs = geo._rhs

    def overflowing_past(s, gkind, u, v, du, dv):
        au, av, f = real_rhs(s, gkind, u, v, du, dv)
        return (math.nan, av, f) if u > 0.5575 else (au, av, f)

    monkeypatch.setattr(geo, "_rhs", overflowing_past)
    trace = geo.integrate(plane, RELATIVE, 0.1, 0.2, 1.0, 0.0, 1.0, 1e-2)
    assert (trace.stopped_reason, len(trace.samples)) == ("non_finite", 46)
    assert all(math.isfinite(x) for smp in trace.samples for x in smp[:5])


def test_a_start_inside_the_guard_band_is_a_lightlike_start():
    # denom = -1e-7 at (0, 1 + 1e-7): the coefficients exist, but the start
    # is inside the band in which a trace would halt as lightlike
    sphere = catalog.make("parabolic_sphere", IP3, {"p": 1.0})
    with pytest.raises(LightlikePointHit, match=r"lightlike point at \(0.0, 1.0000001\)"):
        geo.integrate(sphere, RELATIVE, 0.0, 1.0 + 1e-7, 1.0, 0.0, 0.5, 1e-2)


@pytest.mark.parametrize("gkind", [RELATIVE, LEVI_CIVITA])
def test_a_completed_trace_builds_four_frames_per_step_and_one_more(monkeypatch, gkind):
    # the start point is the first stage of the first step, evaluated once
    calls = []
    real = geo.frame_at

    def counting(s, u, v):
        calls.append((u, v))
        return real(s, u, v)

    monkeypatch.setattr(geo, "frame_at", counting)
    helicoid = catalog.make("helicoid", IP3, {"c": 0.6})
    trace = geo.integrate(helicoid, gkind, 2.0, 0.1, 0.3, -0.25, 1.0, 1e-3)
    assert trace.completed and len(trace.samples) == 1001
    assert len(calls) == 4 * 1000 + 1
    assert calls[0] == (2.0, 0.1)
