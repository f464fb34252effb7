import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genexpr
import rk4ref
import sectionref
import stageref
from isogeo import catalog
from isogeo import expr as ex
from isogeo import connection as con
from isogeo import geodesic as geo
from isogeo import surface as srf
from isogeo.errors import (
    DegenerateBranch,
    DomainError,
    LeftDomain,
    LightlikePointHit,
    NonFiniteStart,
    NotAdmissible,
    StepNotPositive,
    TooManySteps,
)
from isogeo.geodesic import GeodesicKind
from isogeo.isotropy import SpaceKind, Vec3, norm_euclid
from isogeo.rng import SplitMix64

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


@pytest.mark.parametrize("kind", [I3, IP3])
@pytest.mark.parametrize("index", range(5))
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_section_parameter_is_a_degenerate_branch(kind, index, bad):
    # p, a, b, theta0, theta_dot0 of a trig, cosh and sinh section; with
    # one of them not finite, plane_section gave samples of nan or inf
    for params in ([1.0, 0.5, 0.2, 0.0, 1.0], [1.0, 2.0, 0.0, 0.3, 1.0], [1.0, 0.0, 2.0, 0.3, 1.0]):
        params[index] = bad
        with pytest.raises(DegenerateBranch, match="must be finite"):
            geo.make_plane_section(kind, *params)


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



def test_a_line_pair_stops_where_its_point_or_a_residual_overflows():
    # x^2 overflows a float ** past |x| ~ 1.3e154, and t = inf gives an
    # infinite point; each line keeps the samples before either
    lp = geo.make_plane_section(IP3, 1.0, 1.0, math.sqrt(2.0))
    for grid, stop in (([0.0, 1.0, 1e155, 2.0], 1e155), ([0.0, 1.0, math.inf], math.inf)):
        for trace in geo.line_pair(lp, grid):
            assert (trace.stopped_reason, trace.stop_time, len(trace.samples)) == ("non_finite", stop, 2)
            assert [len(res) for res in trace.residuals.values()] == [2, 2, 2]
            assert all(math.isfinite(x) for smp in trace.samples for x in smp)
            assert max(trace.residuals["sphere"]) <= 1e-12


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


def test_plane_sections_match_the_per_branch_reference():
    # seeded sections in both spaces, over all three branches, against the
    # helpers that each repeated the branch: the same samples and
    # residuals, by repr, over the times the section kept (a cosh section
    # stops where an RK4 stage reaches a zero of D)
    rng = SplitMix64(20181)
    branches, completed = [], 0
    for k in range(300):
        kind = (I3, IP3)[k % 2]
        p = rng.uniform(0.2, 3.0) * (1.0 if rng.random() < 0.5 else -1.0)
        a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        ps = geo.make_plane_section(kind, p, a, b, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if ps.branch is geo.SectionBranch.LINE_PAIR:
            continue
        branches.append(ps.branch)
        grid = [j * 0.02 for j in range(40)]
        got = geo.plane_section(ps, grid)
        expected = sectionref.plane_section(ps, grid[: len(got.samples)])
        assert repr((got.samples, got.residuals)) == repr((expected.samples, expected.residuals))
        completed += got.completed
    assert min(branches.count(branch) for branch in geo._BRANCHES) >= 50
    assert completed >= 0.9 * len(branches)


@pytest.mark.parametrize(
    "params",
    [
        # p, a, b, theta0, theta_dot0 of two cosh sections (ip3) whose RK4
        # stages reach D = 0; traced on past the zero, the first overflows
        # math.cosh and the second's top-view speed jumps from 4.8 to 9.9e4
        (2.3324852225222275, -1.82879672495492, -1.3403367904991015, -1.3203341922413658, 1.787602460866716),
        (-1.2789319094662126, -2.889209549134061, 1.2173826762034974, 0.8199429631116946, -0.8109068093377738),
    ],
)
def test_a_section_stops_before_a_zero_of_its_denominator(params):
    ps = geo.make_plane_section(IP3, *params)
    trace = geo.plane_section(ps, [j * 0.02 for j in range(40)])
    assert trace.stopped_reason == "lightlike"
    assert 1 < len(trace.samples) < 40 and trace.stop_time >= trace.samples[-1].t
    # theta' D(theta) is constant and dv = p r cosh(theta) theta' on this
    # branch, so D keeps the sign of D(theta0) where dv / p keeps theta_dot0's
    assert all(smp.dv / ps.p * ps.theta_dot0 > 0.0 for smp in trace.samples)


def test_a_section_that_overflows_stops_non_finite():
    # the first step's RK4 stage puts theta past the range of cosh
    ps = geo.make_plane_section(IP3, 1.0, 2.0, 0.0, theta0=0.0, theta_dot0=1e5)
    trace = geo.plane_section(ps, [0.0, 0.02, 0.04])
    assert (len(trace.samples), trace.stopped_reason, trace.stop_time) == (1, "non_finite", 0.0)
    assert [len(res) for res in trace.residuals.values()] == [1, 1, 1]
    # the sum of a trig section's RK4 stages overflows, and cos(inf) is a
    # ValueError
    trace = geo.plane_section(geo.make_plane_section(I3, 1.0, 0.1, 0.0, theta_dot0=8e307), [0.0, 0.5, 1.0])
    assert (len(trace.samples), trace.stopped_reason, trace.stop_time) == (1, "non_finite", 0.5)
    # where the section or its law overflows at theta0, nothing can be traced
    for theta0, theta_dot0 in ((709.0, 1.0), (800.0, 1.0), (0.0, 1e308)):
        ps = geo.make_plane_section(IP3, 1.0, 2.0, 0.0, theta0, theta_dot0)
        with pytest.raises(DegenerateBranch):
            geo.plane_section(ps, [0.0])


def test_a_trig_section_far_from_theta_zero_is_traced():
    # theta past the range of cosh: only the trig functions are evaluated
    ps = geo.make_plane_section(I3, 1.0, 1.0, 0.5, theta0=800.0)
    trace = geo.plane_section(ps, [k * 1e-2 for k in range(11)])
    assert max(trace.residuals["plane"]) <= 1e-9 and max(trace.residuals["sphere"]) <= 1e-9


@pytest.mark.parametrize("kind, sign", [(I3, "+"), (IP3, "-")])
def test_the_section_sphere_patch_keeps_its_fields(kind, sign):
    # (0, 0, 0, 0) is a placeholder, which no patch constructor would take
    patch = geo.section_sphere_patch(geo.make_plane_section(kind, 2.0, 1.0, 0.5))
    f = ex.parse(f"1.0 - (u^2 {sign} v^2)/4.0")
    assert patch == srf.SurfacePatch(kind, ex.Var("u"), ex.Var("v"), f, (0.0, 0.0, 0.0, 0.0), "section_sphere", {})


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


def test_speed_constant_on_a_levi_civita_geodesic_of_the_helicoid():
    # the Levi-Civita connection is metric: with the patch, the speed is
    # that of the start, 0.2598076211353..., at every sample; read off
    # (du, dv) alone, it drifted from 0.2828 to 0.2799
    patch = catalog.make("helicoid", IP3, {"c": 1.0})
    trace = geo.integrate(patch, LEVI_CIVITA, 1.5, 0.1, 0.3, 0.1, 1.0, 1e-3)
    assert trace.completed and len(trace.samples) == 1001
    speeds = geo.induced_speed_profile(IP3, trace, patch)
    assert all(abs(s - 0.2598076211353) <= 1e-12 * 0.2598076211353 for s in speeds), (min(speeds), max(speeds))
    # a graph's top view is (du, dv): the patch leaves the numbers as they were
    ps = geo.make_plane_section(I3, 1.0, 1.0, 0.0)
    section = geo.plane_section(ps, [k * 1e-2 for k in range(101)])
    plain = geo.induced_speed_profile(I3, section)
    assert list(map(repr, geo.induced_speed_profile(I3, section, geo.section_sphere_patch(ps)))) == list(map(repr, plain))


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


@pytest.mark.parametrize("t_end", [-1.0, 0.0, -0.0, -math.inf])
def test_a_non_positive_end_time_is_rejected(t_end):
    # these once gave a trace ending at t = -1.0, two equal samples at
    # t = 0, or an OverflowError from round(-inf)
    plane = catalog.make("plane", I3, {"a": 0.4, "b": -0.7, "c": 1.0})
    with pytest.raises(StepNotPositive, match=r"t_end must be > 0"):
        geo.integrate(plane, RELATIVE, 0.0, 0.0, 1.0, 0.0, t_end, 0.1)
    # a positive end time whose ratio to the step underflows is one step
    assert [smp.t for smp in geo.integrate(plane, RELATIVE, 0.0, 0.0, 1.0, 0.0, 5e-324, 1.0).samples] == [0.0, 5e-324]


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
            # m12 = -1, which the frame keeps with its sign; g12 = 0.3
            ("swapped", srf.parametric_patch(I3, "v + 0.3*u", "u", "u^2/3 + u*v/5", box), gkind, walk, None),
            # the fourth stage of the step from u = 0.95 lands on u = 1.05
            ("left", srf.graph_patch(I3, "0.1*u", (0.0, 1.0, 0.0, 1.0)), gkind,
             (0.55, 0.5, 1.0, 0.0, 1.0, 0.1), "left_domain"),
        ]
    # the second stage of the first step lands on (0, 1), on the lightlike
    # locus u^2 - v^2 = -1, where the relative connection is singular
    lightlike = catalog.make("parabolic_sphere", IP3, {"p": 1.0})
    cases.append(("lightlike", lightlike, RELATIVE, (0.0, 0.5, 0.0, 1.0, 1.0, 1.0), "lightlike"))
    # a Levi-Civita geodesic of a graph in I^3 is a straight line in (u, v):
    # the step from u = 0.01 has a stage at u < 0, where log(u) has no value
    undefined = srf.graph_patch(I3, "log(u) + v", (-1.0, 1.0, 0.0, 1.0))
    cases.append(("undefined", undefined, LEVI_CIVITA, (0.5, 0.5, -1.0, 0.0, 1.0, 1e-2), "undefined"))
    # a stage of the last step lands past u = 1, where sqrt(1 - u) has no
    # value; the position reads the square root, the Levi-Civita return not
    for gkind in (RELATIVE, LEVI_CIVITA):
        cases.append(("undefined-stage", SQRT_GRAPH, gkind, (0.5, 0.25, 2.0, 0.0, 1.0, 1e-2), "undefined"))
    return cases


SQRT_GRAPH = srf.graph_patch(I3, "sqrt(1 - u) + v*v", (-1.0, 2.0, -1.0, 1.0))


@pytest.mark.parametrize("gkind, stop_time, samples", [(RELATIVE, 0.67, 68), (LEVI_CIVITA, 0.24, 25)])
def test_a_stage_where_the_jet_has_no_value_halts_the_trace_where_it_did(gkind, stop_time, samples):
    # the stop times and sample counts of the kernels that computed the
    # position at every stage: the sample point of the last step has a
    # value, a stage point of that step has none
    trace = geo.integrate(SQRT_GRAPH, gkind, 0.5, 0.25, 2.0, 0.0, 1.0, 1e-2)
    assert (trace.stopped_reason, repr(trace.stop_time), len(trace.samples)) == ("undefined", repr(stop_time), samples)
    assert trace.samples[-1].u < 1.0


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


def test_parallel_residual_scales_before_it_multiplies():
    # |gamma''| |reference| overflows here, and the unscaled form gave nan.
    # The residual is of degree 1 in the reference, where a power of two
    # scales exactly, and of degree 0 in gamma''; the unscaled form, with
    # either space's vector product, holds on vectors small enough for it
    gdd = Vec3(3.0e159, -2.0e158, 5.5e159)
    for ref in (Vec3(-5.5e153, 0.25, -1.5e307), Vec3(7.0e153, -3.0e153, -1.2e307)):
        got = geo._parallel_residual(*gdd.as_tuple(), *ref.as_tuple())
        assert math.isfinite(got)
        assert got == geo._parallel_residual(*gdd.as_tuple(), *ref.scaled(2.0**-900).as_tuple()) * 2.0**900
        g, r = gdd.scaled(2.0**-500), ref.scaled(2.0**-900)
        for kind in (I3, IP3):
            unscaled = norm_euclid(rk4ref.cross_background(kind, g, r)) / norm_euclid(g)
            assert got == pytest.approx(unscaled * 2.0**900, rel=1e-15)


def test_a_gamma_dd_that_overflows_reads_an_infinite_residual():
    # (v')^2 overflows where x22 = 0 at run time, so gamma'' = 0 * inf has no
    # direction; the acceleration itself is finite (its coefficients are 0)
    steep = srf.parametric_patch(I3, "u + 0*v^2", "v", "exp(u)", (0.0, 1.0, 0.0, 1.0))
    trace = geo.integrate(steep, RELATIVE, 0.0, 0.0, 0.0, 1.3407807929942597e154, 1.0, 1.0)
    assert trace.stopped_reason == "left_domain" and trace.residuals["parallel"] == [math.inf]
    # on the graph x22 is the structural 0: its product is never formed,
    # and gamma'' = 0 has no direction to be off by
    graph = srf.graph_patch(I3, "exp(u)", (0.0, 1.0, 0.0, 1.0))
    trace = geo.integrate(graph, RELATIVE, 0.0, 0.0, 0.0, 1.3407807929942597e154, 1.0, 1.0)
    assert trace.stopped_reason == "left_domain" and trace.residuals["parallel"] == [0.0]


def test_non_finite_start_velocity_is_rejected():
    # the plane's Levi-Civita acceleration is the structural 0, which no
    # velocity makes NaN: the velocity is checked itself
    plane = catalog.make("plane", I3, {"a": 0.4, "b": -0.7, "c": 1.0})
    for velocity in ((math.inf, 0.0), (0.0, math.nan)):
        for gkind in (RELATIVE, LEVI_CIVITA):
            with pytest.raises(NonFiniteStart, match=rf"velocity \({velocity[0]!r}, {velocity[1]!r}\)"):
                geo.integrate(plane, gkind, 0.1, 0.2, *velocity, 1.0, 1e-2)



def test_a_position_that_overflows_halts_the_trace():
    # z = (1e308 u) 2 passes the float range at u ~ 0.899, where the
    # Levi-Civita acceleration, which reads only the top view, stays finite;
    # the relative connection has xi = inf everywhere, so its start fails
    steep = srf.graph_patch(I3, "1e308*u*2", (0.0, 1.0, 0.0, 1.0))
    trace = geo.integrate(steep, LEVI_CIVITA, 0.5, 0.5, 1.0, 0.0, 1.0, 1e-2)
    assert (trace.stopped_reason, trace.stop_time, len(trace.samples)) == ("non_finite", 0.4, 40)
    assert all(math.isfinite(x) for smp in trace.samples for x in smp)
    with pytest.raises(NonFiniteStart, match=r"position \(0.95, 0.5, inf\)"):
        geo.integrate(steep, LEVI_CIVITA, 0.95, 0.5, 1.0, 0.0, 1.0, 1e-2)


def test_a_stage_that_overflows_the_position_halts_as_non_finite():
    # a stage position of inf or nan is outside the domain, but says more;
    # the stage kernel halts alike at a step's sample (sample=True) and at
    # its other three stages
    plane = catalog.make("plane", I3, {"a": 0.4, "b": -0.7, "c": 1.0})
    for gkind, sample in itertools.product((RELATIVE, LEVI_CIVITA), (True, False)):
        kernel = geo._accel_kernel(plane, gkind)
        for u, reason in [(math.nan, "non_finite"), (1e300, "left_domain")]:
            with pytest.raises(geo._Halt) as halt:
                kernel(u, 0.2, 1.0, 0.0, sample)
            assert halt.value.reason == reason


def test_inadmissible_start_reports_the_frame_minor():
    # m12 = 1e-13 (rounded) against a top-view scale of about 3
    patch = srf.parametric_patch(
        I3, "u + v", "u + 1.0000000000001*v", "u*v", (0.0, 1.0, 0.0, 1.0)
    )
    with pytest.raises(NotAdmissible) as err:
        geo.integrate(patch, RELATIVE, 0.3, 0.2, 1.0, 0.0, 1.0, 1e-2)
    assert err.value.minor == 1.0000000000001 - 1.0
    assert "top-view minor 9.992007221626409e-14" in str(err.value)


def test_a_non_finite_stage_acceleration_halts_before_its_sample():
    # the plane z = 0.4 u - 0.7 v + 1 plus 0 * t, where t overflows to inf
    # between u = 0.555 and u = 0.56: there the jet, and so the relative
    # acceleration, is nan.  The last stage of the step from u = 0.55
    # reaches u = 0.56: u stays finite, u' does not
    plane = srf.graph_patch(I3, "0.4*u - 0.7*v + 1 + 0*((u/0.538)^1000)^20", (0.0, 1.0, 0.0, 1.0))
    stage = geo._accel_kernel(plane, RELATIVE)
    assert stage(0.555, 0.2, 1.0, 0.0) == (-0.0, -0.0)
    assert all(math.isnan(a) for a in stage(0.56, 0.2, 1.0, 0.0))
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
def test_a_trace_calls_the_stage_kernel_4n_plus_1_times(monkeypatch, gkind):
    # four stage kernel calls per step and one more (the start point is the
    # first stage of the first step, evaluated once); the first stage of
    # each step, and the end point, also return the sample.  No frame is built
    helicoid = catalog.make("helicoid", IP3, {"c": 0.6})
    frames, stages = [], []
    real_frame_at, real_kernel = srf.frame_at, geo._accel_kernel

    def counting_frame_at(s, u, v):
        frames.append((u, v))
        return real_frame_at(s, u, v)

    def counting_kernel(s, g):
        kernel = real_kernel(s, g)

        def stage(u, v, du, dv, sample=False):
            stages.append((u, v, sample))
            return kernel(u, v, du, dv, sample)

        return stage

    for module in (srf, con, geo):
        monkeypatch.setattr(module, "frame_at", counting_frame_at, raising=False)
    monkeypatch.setattr(geo, "_accel_kernel", counting_kernel)
    trace = geo.integrate(helicoid, gkind, 2.0, 0.1, 0.3, -0.25, 1.0, 1e-3)
    assert trace.completed and len(trace.samples) == 1001
    assert len(stages) == 4 * 1000 + 1 and sum(sample for _, _, sample in stages) == 1000 + 1
    assert frames == [] and stages[0] == (2.0, 0.1, True)
    assert "kernels" not in vars(pickle.loads(pickle.dumps(helicoid)))


_SHAPES = {
    # lightlike where u^2 - v^2 = -1 in ip3
    "sphere": lambda space, z: ("u", "v", "(u^2 + v^2)/2" if space is I3 else "(u^2 - v^2)/2"),
    # m12 = 3 u^2: inadmissible near u = 0
    "fold": lambda space, z: ("u^3", "v", z),
    # |xi|^2 overflows past u ~ 0.95, where the relative acceleration is nan
    "steep": lambda space, z: ("u", "v", "1e153*exp(2*u)"),
}


@st.composite
def _stage_cases(draw):
    rng = SplitMix64(draw(st.integers(0, 2**64 - 1)))
    space = draw(st.sampled_from([I3, IP3]))
    x, y, z = (genexpr.random_expr_full(rng, 3) for _ in range(3))
    shape = draw(st.sampled_from(["graph", "parametric", *_SHAPES]))
    if shape == "graph":
        x, y = "u", "v"
    elif shape != "parametric":
        x, y, z = _SHAPES[shape](space, z)
    patch = srf.parametric_patch(space, x, y, z, (-2.0, 2.0, -2.0, 2.0))
    # dyadic values, and a second stage aimed at (0, 0) or (0, +-1), put
    # stages exactly where a jet raises (log, sqrt, abs and division at
    # 0), where m12 vanishes or where the sphere is lightlike
    coords = st.one_of(st.floats(-1.5, 1.5), st.integers(-12, 12).map(lambda k: k / 8.0))
    u0, v0, du0, dv0 = (draw(coords) for _ in range(4))
    step = draw(st.sampled_from([0.02, 0.1, 0.125, 0.25, 0.5, 1.0]))
    half = 0.5 * step
    target = draw(st.sampled_from([None, 0.0, 1.0, -1.0]))
    if target is not None:
        u0, v0 = -(half * du0), target - half * dv0
    t_end = step * draw(st.integers(1, 12))
    return patch, draw(st.sampled_from([RELATIVE, LEVI_CIVITA])), (u0, v0, du0, dv0, t_end, step)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_stage_cases())
def test_compiled_stages_match_the_tuple_form_reference(case):
    # the stage kernel against the reference's frame-building stages, on
    # random surfaces: the same rows and residuals, and the same halt at
    # the same time, an ``undefined`` one where a stage's jet raises
    patch, gkind, args = case
    ref = rk4ref.trace(patch, gkind, *args)
    try:
        got = geo.integrate(patch, gkind, *args)
    except (LightlikePointHit, NotAdmissible, NonFiniteStart):
        return  # the start checks, which the reference leaves out
    except DomainError:
        # at the start point it is an error; the reference halts there
        assert ref[:3] == ([], [], "undefined")
        return
    if got.stopped_reason == "non_finite":
        # the reference has no non-finite halt, and agrees up to it
        ref = (ref[0][: len(got.samples)], ref[1][: len(got.samples)], "non_finite", got.stop_time)
    rows, residuals, reason, stop_time = ref
    assert (got.stopped_reason, repr(got.stop_time)) == (reason, repr(stop_time))
    values = [(smp.t, smp.u, smp.v, smp.du, smp.dv) + smp.position.as_tuple() for smp in got.samples]
    assert [list(map(repr, row)) for row in values] == [list(map(repr, row)) for row in rows]
    assert list(map(repr, got.residuals["parallel"])) == list(map(repr, residuals))


def _stage_outcome(kernel, *args):
    try:
        return "ok", list(map(repr, kernel(*args)))
    except geo._Halt as halt:
        return "halt", halt.reason
    except (DomainError, NotAdmissible, LightlikePointHit, con.LightlikePoint) as err:
        return type(err), str(err)


def _split_against_whole(patch, rng, points):
    """The outcomes of ``patch``'s stage kernels, each against its whole
    body (``stageref.stage``), at ``points`` random stage arguments with
    and without the sample, inside and outside the domain; returns what
    kinds of outcome were seen."""
    kernels = {g: stageref.stage(patch, g) for g in GeodesicKind}
    seen = set()
    for _ in range(points):
        u, v = rng.uniform(-2.2, 3.2), rng.uniform(-2.2, 2.2)
        if rng.random() < 0.2:  # exact zeros of log, sqrt and the minors
            u, v = rng.randint(5) * 0.5 - 1.0, rng.randint(5) * 0.5 - 1.0
        args = (u, v, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.random() < 0.3)
        for g, (split, _, _, whole, _) in kernels.items():
            got = _stage_outcome(split, *args)
            assert got == _stage_outcome(whole, *args), (patch, g, args)
            seen.add(got[0] if got[0] in ("ok", "halt") else "error")
    return seen


@pytest.mark.parametrize("build", [
    lambda: catalog.make("parabolic_sphere", I3, {"p": 2.0}, (-2.0, 2.0, -2.0, 2.0)),
    lambda: catalog.make("parabolic_sphere", IP3, {"p": 1.0}, (-2.0, 2.0, -2.0, 2.0)),
    lambda: catalog.make("helicoid", IP3, {"c": 0.6}),
    lambda: catalog.make("minimal_harmonic", I3, {"f": "exp(u) * sin(v)"}),
    lambda: srf.graph_patch(I3, "sqrt(1 - u) + v*v", (-1.0, 2.0, -1.0, 1.0)),
    lambda: srf.graph_patch(IP3, "log(u) * (u - v)^(v/v + 1) + u^(v - u)", (-1.0, 2.0, -1.0, 1.0)),
    lambda: srf.parametric_patch(I3, "v + 0.3*u", "u^3", "sqrt(u + 1) * v", (-1.5, 1.5, -1.5, 1.5)),
], ids=["sphere-i3", "sphere-ip3", "helicoid", "harmonic", "sqrt", "powers", "swapped-fold"])
def test_a_stage_returns_and_raises_what_its_whole_body_does(build):
    # the stage kernel, whose lines that only the sample reads come after
    # its return, against its writer's lines compiled in order with both
    # returns after them: the same floats, halts and errors
    assert {"ok", "halt"} <= _split_against_whole(build(), SplitMix64(27), 400)


def test_a_genexpr_stage_returns_and_raises_what_its_whole_body_does():
    # the same on 32 random graph and parametric patches in both spaces:
    # the split rests on no block re-assigning a name that a line before
    # it reads, which no template may break
    seen = set()
    for patch in genexpr.random_patches(2800, 32):
        seen |= _split_against_whole(patch, SplitMix64(28), 100)
    assert seen == {"ok", "halt", "error"}


def test_the_sample_only_lines_move_behind_the_return_in_order():
    # the two liveness passes that place a stage kernel's lines, on a
    # writer of lets and guards: the pass from the early return keeps every
    # guard and block, with the lets that they and the return read; the
    # pass from the final return adds, in order, the lets only it reads;
    # a let keeps the names of its pairs that a later line reads
    w = ex.Lines()
    w.let("x", "u * 2.0")
    w.let("g", "v - 1.0")
    w.let("y, p", "x + 1.0", "x * g")
    w.line("if g <= 0.0:", "    raise DomainError('g')")
    w.let("a", "x * x")
    w.let("q, unread", "p + 1.0", "q + 1.0")
    head = w.lines("return a")
    assert head == ["x = u * 2.0", "g = v - 1.0", "if g <= 0.0:", "    raise DomainError('g')", "a = x * x"]
    full = w.lines("return a, y, q")
    assert [x for x in full if x not in head] == ["y, p = x + 1.0, x * g", "q = p + 1.0"]
    assert w.lines("return a, p")[2] == "p = x * g"
    assert w.lines("return q, unread")[-1] == "q, unread = p + 1.0, q + 1.0"
    assert w.lines() == ["g = v - 1.0", "if g <= 0.0:", "    raise DomainError('g')"]
    # each statement's record: a guard reads what it tests, and its message
    # what its raise line names; a let reads its own targets too
    guard = ex.Statement(("if g <= 0.0:", "    raise DomainError('g')"), {"if", "g"}, (), {"raise", "DomainError", "g"})
    assert w.statements("return q") == [
        ex.Statement(("x = u * 2.0",), {"x", "u"}, ("x",), set()),
        ex.Statement(("g = v - 1.0",), {"g", "v"}, ("g",), set()),
        ex.Statement(("p = x * g",), {"p", "x", "g"}, ("p",), set()),
        guard,
        ex.Statement(("q = p + 1.0",), {"q", "p"}, ("q",), set()),
    ]
