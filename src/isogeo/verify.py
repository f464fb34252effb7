"""Identity-verification suites behind the ``verify`` subcommand.

Every suite samples seeded random points (splitmix64, so reports are
bit-reproducible) and checks one family of identities:

    flatness          Levi-Civita curvature tensor vanishes
    egregium          K equals denom * R_2112 / det g (relative tensor)
    codazzi           relative and Levi-Civita Codazzi residuals, plus
                      pairwise agreement of the three Gauss-equation
                      right-hand sides
    umbilic           totally-umbilical classification matches the known
                      answer per catalog entry
    minimal           wave-form and harmonic graphs have zero mean
                      curvature
    sphere-geodesics  integrated autoparallels match closed-form plane
                      sections on spheres of parabolic type

The tensor suites differentiate the coefficients exactly (see
``connection``).  Sampling near the lightlike locus is still excluded for
the relative-connection suites: rho and xi grow like 1/denom there and
their partials like 1/denom^2, so rounding in the residuals grows with
them and a fixed absolute tolerance stops meaning the same thing.
Closeness to the locus is measured in gradient units,
|denom| / max(1, |grad denom|), since a small denom with a steep
gradient means the singular set is a short parameter distance away; the
gradient is exact, from the 2-jet at the candidate point.  Each draw is
evaluated once: the suites take the frame and jet the sampler built.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import catalog
from .connection import (
    codazzi_residuals,
    coeff_derivatives,
    denom_gradient_of_frame,
    denom_of_frame,
    egregium_checks,
    flatness_residuals,
    gauss_residuals,
)
from .errors import IsoGeoError, SpecError
from .geodesic import cross_check_sphere_geodesic
from .isotropy import SpaceKind
from .rng import SplitMix64
from .surface import CurvatureClass, PointFrame, SurfacePatch, curvatures_of_frame, frame_of_jet

# The ``fd_step`` of every suite and of the report.  It only widens the
# sampler's border margin (see ``_sample``), so it decides which
# points a seeded run draws and nothing else.
DEFAULT_FD_STEP = 1e-4

# The relative coefficients grow like 1/denom near the lightlike locus.
# The guard excludes points whose denom is small measured in units of its
# own gradient, i.e. points close to the singular locus in parameter
# distance, not just in denom value.
RELATIVE_DENOM_GUARD = 0.3

# Light guard for suites that only need the coefficients to exist.
BASIC_DENOM_GUARD = 1e-3

# Points per batch of the tensor suites: their memory does not grow with
# --samples, and their bits do not depend on it.
POINT_BLOCK = 256

# Random wave-form graphs the minimal suite adds to the catalog's; a
# user-supplied surface gets none.
RANDOM_WAVES = 5

SUITES = ("flatness", "egregium", "codazzi", "umbilic", "minimal", "sphere-geodesics")


class CheckResult(NamedTuple):
    name: str
    surface: str
    points: int
    max_residual: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "surface": self.surface,
            "points": int(self.points),
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }


@functools.cache
def verification_patches() -> tuple[SurfacePatch, ...]:
    """Fixed instantiation of the catalog used by --all-catalog runs,
    built (and its kernels compiled) once per process.  The cylindrical
    sphere is omitted: it is nowhere admissible, so no pointwise identity
    applies (its role is covered by admissibility tests)."""
    i3, ip3 = SpaceKind.SIMPLY_ISOTROPIC, SpaceKind.PSEUDO_ISOTROPIC
    return (
        catalog.make("parabolic_sphere", i3, {"p": 2.0}),
        catalog.make("parabolic_sphere", ip3, {"p": 1.5}),
        catalog.make("plane", i3, {"a": 0.3, "b": -0.2, "c": 0.7}),
        catalog.make("plane", ip3, {"a": -0.4, "b": 0.25, "c": -1.0}),
        catalog.make("ruled_nondiag", ip3, {"b": 2.0}),
        catalog.make("helicoid", ip3, {"c": 1.0}),
        catalog.make("revolution", ip3, {"z": "log(u)"}),
        catalog.make(
            "minimal_wave", ip3,
            {"f": "0.3*u^3 - 0.2*u", "g": "0.25*u^3 + 0.1*u^2"},
        ),
        catalog.make("minimal_harmonic", i3, {"f": "exp(u) * sin(v)"}),
    )


def _label(patch: SurfacePatch) -> str:
    return f"{patch.name}[{patch.kind.value}]"


def _margin(lo: float, hi: float, border: float) -> float:
    """``border`` plus 2 % of the side [lo, hi], or a quarter of the side
    where that would leave no interval to draw from (a side narrower than
    about border / 0.48): the draws stay inside the domain."""
    margin = 0.02 * (hi - lo) + border
    return margin if lo + margin <= hi - margin else 0.25 * (hi - lo)


def _sample(
    patch: SurfacePatch,
    count: int,
    rng: SplitMix64,
    border: float,
    denom_guard: Optional[float],
    kernel: Callable,
) -> Iterator[tuple[PointFrame, tuple]]:
    """``count`` seeded points, ``_margin`` inside each side of the domain,
    as (frame, jet) pairs: one ``kernel`` call and one frame per draw.  A
    draw is redrawn where the jet is undefined, the frame is not
    admissible, a float of either is not finite, or |denom| < denom_guard,
    in units of max(1, |grad denom|) for a guard above BASIC_DENOM_GUARD.
    Gives up after 200 * count + 200 draws, or after 400 if none was
    accepted."""
    u0, u1, v0, v1 = patch.domain
    mu = _margin(u0, u1, border)
    mv = _margin(v0, v1, border)
    accepted = draws = 0
    while accepted < count:
        draws += 1
        if draws > 200 * count + 200 or (draws > 400 and not accepted):
            raise IsoGeoError(f"could not sample {count} guarded points on {_label(patch)}")
        u = rng.uniform(u0 + mu, u1 - mu)
        v = rng.uniform(v0 + mv, v1 - mv)
        try:
            jet = kernel(u, v)
            f = frame_of_jet(patch.kind, u, v, jet[:18])
        except IsoGeoError:
            continue
        if not all(map(math.isfinite, (*f[4:], *jet[18:]))):
            continue
        if denom_guard is not None:
            grad = math.hypot(*denom_gradient_of_frame(f)) if denom_guard > BASIC_DENOM_GUARD else 0.0
            if not abs(denom_of_frame(f)) >= denom_guard * max(1.0, grad):
                continue
        accepted += 1
        yield f, jet


def _blocks(sampled: Iterator[tuple[PointFrame, tuple]]):
    """``coeff_derivatives`` of the sampled pairs, POINT_BLOCK at a time."""
    while block := list(itertools.islice(sampled, POINT_BLOCK)):
        yield coeff_derivatives(block)


def _per_patch(total: int, n_patches: int) -> int:
    return max(1, math.ceil(total / n_patches))


def suite_flatness(
    patches: Sequence[SurfacePatch], samples: int, seed: int, fd_step: float, tol: float = 1e-6
) -> list[CheckResult]:
    rng = SplitMix64(seed)
    out = []
    n = _per_patch(samples, len(patches))
    for patch in patches:
        worst = 0.0
        for b in _blocks(_sample(patch, n, rng, 2.0 * fd_step, BASIC_DENOM_GUARD, patch.jet3_kernel)):
            worst = max(worst, *flatness_residuals(b).tolist())
        out.append(CheckResult("flatness", _label(patch), n, worst, tol, worst <= tol))
    return out


def suite_egregium(
    patches: Sequence[SurfacePatch],
    samples: int,
    seed: int,
    fd_step: float,
    rel_tol: float = 1e-5,
    abs_tol: float = 1e-6,
) -> list[CheckResult]:
    rng = SplitMix64(seed)
    out = []
    n = _per_patch(samples, len(patches))
    for patch in patches:
        worst_rel = 0.0
        worst_abs = 0.0
        n_rel = n_abs = 0
        sampled = _sample(patch, n, rng, 0.5 * fd_step, RELATIVE_DENOM_GUARD, patch.jet3_kernel)
        for res in (res for b in _blocks(sampled) for res in egregium_checks(b)):
            if abs(res.k_extrinsic) > 1e-6:
                worst_rel = max(worst_rel, res.rel_err)
                n_rel += 1
            else:
                worst_abs = max(worst_abs, res.abs_err)
                n_abs += 1
        if n_rel:
            out.append(
                CheckResult("egregium", _label(patch), n_rel, worst_rel, rel_tol, worst_rel <= rel_tol)
            )
        if n_abs:
            out.append(
                CheckResult("egregium_flat", _label(patch), n_abs, worst_abs, abs_tol, worst_abs <= abs_tol)
            )
    return out


def suite_codazzi(
    patches: Sequence[SurfacePatch],
    samples: int,
    seed: int,
    fd_step: float,
    tol: float = 1e-6,
    gauss_tol: float = 1e-8,
) -> list[CheckResult]:
    rng = SplitMix64(seed)
    out = []
    n = _per_patch(samples, len(patches))
    for patch in patches:
        worst_rel = worst_lc = worst_gauss = 0.0
        sampled = _sample(patch, n, rng, 0.5 * fd_step, RELATIVE_DENOM_GUARD, patch.jet3_kernel)
        for b in _blocks(sampled):
            relative, levi_civita = codazzi_residuals(b)
            worst_rel = max(worst_rel, *relative.tolist())
            worst_lc = max(worst_lc, *levi_civita.tolist())
            worst_gauss = max(worst_gauss, *gauss_residuals(b).ravel().tolist())
        label = _label(patch)
        out.append(CheckResult("codazzi", label, n, worst_rel, tol, worst_rel <= tol))
        out.append(CheckResult("codazzi_lc", label, n, worst_lc, tol, worst_lc <= tol))
        out.append(
            CheckResult("gauss_rhs", label, n, worst_gauss, gauss_tol, worst_gauss <= gauss_tol)
        )
    return out


UMBILIC_EXPECTATION = {
    "parabolic_sphere": True,
    "plane": True,
    "helicoid": False,
    "ruled_nondiag": False,
}


def suite_umbilic(
    patches: Sequence[SurfacePatch], samples: int, seed: int, fd_step: float
) -> list[CheckResult]:
    rng = SplitMix64(seed)
    out = []
    n = _per_patch(samples, len(patches))
    for patch in patches:
        expected = UMBILIC_EXPECTATION.get(patch.name)
        umbilic_count = 0
        for f, _ in _sample(patch, n, rng, 2.0 * fd_step, None, patch.jet_kernel):
            if curvatures_of_frame(f).label is CurvatureClass.UMBILIC:
                umbilic_count += 1
        if expected is None:
            # informational for user-supplied surfaces
            finding = (
                "totally umbilical" if umbilic_count == n
                else "not totally umbilical" if umbilic_count == 0
                else "mixed"
            )
            out.append(
                CheckResult(f"umbilic({finding})", _label(patch), n, 0.0, 0.0, True)
            )
            continue
        mismatches = (n - umbilic_count) if expected else umbilic_count
        name = "umbilic(expected)" if expected else "umbilic(expected-negative)"
        out.append(
            CheckResult(name, _label(patch), n, float(mismatches), 0.0, mismatches == 0)
        )
    return out


def _random_cubic(rng: SplitMix64) -> str:
    c3 = rng.uniform(-0.5, 0.5)
    c2 = rng.uniform(-0.5, 0.5)
    c1 = rng.uniform(-0.5, 0.5)
    return f"{c3!r}*u^3 + {c2!r}*u^2 + {c1!r}*u"


def suite_minimal(
    patches: Sequence[SurfacePatch],
    samples: int,
    seed: int,
    fd_step: float,
    wave_tol: float = 1e-10,
    harmonic_tol: float = 1e-8,
    n_random_waves: int = RANDOM_WAVES,
) -> list[CheckResult]:
    rng = SplitMix64(seed)
    out = []
    n = _per_patch(samples, max(1, n_random_waves))
    targets = [p for p in patches if p.name in ("minimal_wave", "minimal_harmonic")]
    for k in range(n_random_waves):
        targets.append(
            catalog.make(
                "minimal_wave",
                SpaceKind.PSEUDO_ISOTROPIC,
                {"f": _random_cubic(rng), "g": _random_cubic(rng)},
            )
        )
    for idx, patch in enumerate(targets):
        tol = wave_tol if patch.name == "minimal_wave" else harmonic_tol
        worst = 0.0
        for f, _ in _sample(patch, n, rng, 2.0 * fd_step, None, patch.jet_kernel):
            worst = max(worst, abs(curvatures_of_frame(f).H))
        out.append(
            CheckResult("minimal", f"{_label(patch)}#{idx}", n, worst, tol, worst <= tol)
        )
    return out


SPHERE_GEODESIC_CONFIGS = (
    (2.0, 0.0, 0.0, SpaceKind.SIMPLY_ISOTROPIC),
    (1.0, 1.0, 0.0, SpaceKind.SIMPLY_ISOTROPIC),
    (1.0, 1.0, 1.0, SpaceKind.SIMPLY_ISOTROPIC),
    (1.0, 2.0, 0.0, SpaceKind.PSEUDO_ISOTROPIC),
    (1.0, 0.0, 2.0, SpaceKind.PSEUDO_ISOTROPIC),
)


def suite_sphere_geodesics(
    t_end: float = 1.0,
    step: float = 1e-3,
    tol: float = 1e-6,
    parallel_tol: float = 1e-5,
) -> list[CheckResult]:
    out = []
    worst_parallel = 0.0
    for p, a, b, kind in SPHERE_GEODESIC_CONFIGS:
        chk = cross_check_sphere_geodesic(p, a, b, kind, t_end, step)
        worst = max(
            chk.max_deviation,
            chk.integrated_plane_residual,
            chk.integrated_sphere_residual,
            chk.section_plane_residual,
            chk.section_sphere_residual,
        )
        worst_parallel = max(worst_parallel, chk.max_parallel_residual)
        n = round(t_end / step) + 1
        out.append(
            CheckResult(
                "sphere_geodesic",
                f"parabolic_sphere(p={p!r},a={a!r},b={b!r})[{kind.value}]",
                n,
                worst,
                tol,
                worst <= tol and chk.integrated_completed,
            )
        )
    out.append(
        CheckResult(
            "sphere_geodesic_parallel", "all-configs",
            len(SPHERE_GEODESIC_CONFIGS), worst_parallel, parallel_tol,
            worst_parallel <= parallel_tol,
        )
    )
    return out


def run_verify(
    patches: Optional[Sequence[SurfacePatch]],
    suites: list[str],
    samples: int,
    seed: int,
    tol_override: Optional[float] = None,
) -> dict:
    """Run the requested suites and assemble the report dict.  A tolerance
    override replaces every check's default tolerance (blunt, but gives a
    single reproducibility knob).  Suites that produce no check, such as
    ``minimal`` on a surface that is not a minimal catalog entry, raise
    SpecError rather than pass vacuously."""
    target = verification_patches() if patches is None else patches
    fd_step = DEFAULT_FD_STEP
    per_patch = {
        "flatness": suite_flatness, "egregium": suite_egregium,
        "codazzi": suite_codazzi, "umbilic": suite_umbilic,
    }
    checks: list[CheckResult] = []
    for suite in suites:
        if suite in per_patch:
            checks += per_patch[suite](target, samples, seed, fd_step)
        elif suite == "minimal":
            waves = RANDOM_WAVES if patches is None else 0
            checks += suite_minimal(target, samples, seed, fd_step, n_random_waves=waves)
        elif suite == "sphere-geodesics":
            checks += suite_sphere_geodesics()
        else:
            raise IsoGeoError(f"unknown suite {suite!r}; known: {SUITES}")
    if not checks:
        raise SpecError(f"no check of the suite(s) {', '.join(suites)} applies to this surface")
    if tol_override is not None:
        tol = tol_override
        checks = [c._replace(tolerance=tol, passed=c.max_residual <= tol) for c in checks]
    overall = all(chk.passed for chk in checks)
    return {
        "overall": "pass" if overall else "fail",
        "seed": seed,
        "samples": samples,
        "fd_step": fd_step,
        "suites": list(suites),
        "checks": [chk.to_json() for chk in checks],
    }
