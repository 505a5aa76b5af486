"""Ready-made benchmark problems with closed-form references.

Each builder returns a fully validated :class:`~xfem2d.config.RunConfig`
holding an in-memory mesh, so the problems can run through the ordinary
driver entry points.  The geometries are pinned: meshes are graded
tensor grids whose uniform windows keep the crack rows away from node
lines, and every literal below is part of the regression contract.

Benchmark families
------------------
* center-crack tension plate at several refinements (``table1_config``),
  against ``K_I = sigma * sqrt(pi * a)``;
* the same plate with the crack inclined (``inclined_config``), against
  the closed-form mixed-mode pair;
* an energy-norm convergence ladder (``convergence_ladder``);
* a growing edge crack attracted by an off-axis hole
  (``hole_attraction_config``);
* two antisymmetric edge cracks among two holes (``twin_holes_config``);
* a field of seventeen random stationary cracks (``many_cracks_config``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from xfem2d.assembly import BoundaryCondition, MaterialModel
from xfem2d.config import ContourSpec, OutputSpec, RunConfig
from xfem2d.cracks import CrackPath
from xfem2d.driver import (
    LoadSchedule,
    PropagationParams,
    energy_error_norm,
    run_stationary,
    setup_problem,
    strain_evaluator,
)
from xfem2d.mesh import Mesh
from xfem2d.meshgen import punch_holes, uniform_rect, windowed_rect

__all__ = [
    "TABLE1_RATIOS",
    "TABLE1_SIGMA",
    "TABLE1_HALF_LENGTH",
    "center_crack_exact_ki",
    "table1_config",
    "INCLINED_BETAS",
    "inclined_config",
    "inclined_exact",
    "LADDER_SIZES",
    "LADDER_REFERENCE_SIZE",
    "ladder_config",
    "ConvergenceResult",
    "convergence_ladder",
    "hole_attraction_config",
    "twin_holes_config",
    "many_cracks_config",
]

STEEL = MaterialModel(E=200e9, nu=0.3, plane_strain=True)
ALUMINUM = MaterialModel(E=71.7e9, nu=0.33, plane_strain=True)

TABLE1_SIGMA = 1e6
TABLE1_HALF_LENGTH = 0.1
_TABLE1_HALF_WIDTH = 2.5

# Refinement ladder: crack-to-element-size ratio -> element size inside
# the uniform window.  Window bounds keep the crack row at element-center
# height (odd row count) and pin the tip's position inside its element,
# which fixes the effective half length a_eff reported for each rung.
TABLE1_RATIOS = (2.0, 5.0, 6.7, 9.1, 12.5)
_TABLE1_CASES = {
    2.0: (0.05, (-0.525, 0.525), (-0.525, 0.525)),
    5.0: (0.02, (-0.51, 0.51), (-0.51, 0.51)),
    6.7: (0.015, (-0.495, 0.495), (-0.5025, 0.5025)),
    9.1: (0.011, (-0.495, 0.495), (-0.5005, 0.5005)),
    12.5: (0.008, (-0.504, 0.504), (-0.5, 0.5)),
}

INCLINED_BETAS = tuple(range(10, 81, 10))
_INCLINED_SPACING = 1.0 / 120.0

LADDER_SIZES = (0.048, 0.024, 0.012)
LADDER_REFERENCE_SIZE = 0.004
_LADDER_EXTENT = 0.96
_LADDER_CRACK = ((0.2976, 0.4416), (0.5856, 0.4416))
_LADDER_MASK_RADIUS = 0.12

# Frozen random layout: seventeen segments of length 0.2 in the unit
# square, kept at least 0.045 apart and 0.06 off the boundary.
_MANY_CRACK_SEGMENTS = (
    ((0.563215, 0.223129), (0.675916, 0.388351)),
    ((0.613455, 0.793934), (0.793819, 0.880357)),
    ((0.170855, 0.192525), (0.256212, 0.373396)),
    ((0.311219, 0.467014), (0.239463, 0.653699)),
    ((0.557077, 0.764499), (0.395485, 0.882347)),
    ((0.486125, 0.320859), (0.645553, 0.441617)),
    ((0.350690, 0.586242), (0.358703, 0.786081)),
    ((0.736487, 0.444625), (0.814959, 0.628587)),
    ((0.373066, 0.094621), (0.257491, 0.257845)),
    ((0.324316, 0.316343), (0.453804, 0.468767)),
    ((0.749919, 0.107345), (0.853843, 0.278224)),
    ((0.413755, 0.553700), (0.611992, 0.580197)),
    ((0.155682, 0.547953), (0.182646, 0.746127)),
    ((0.574107, 0.151427), (0.701825, 0.305336)),
    ((0.714374, 0.711242), (0.895114, 0.796874)),
    ((0.414159, 0.122506), (0.400072, 0.322010)),
    ((0.097761, 0.776138), (0.282016, 0.853920)),
)


def _with_pin(mesh: Mesh) -> Mesh:
    """Add a single-node tag for pinning the in-plane rigid translation."""
    tags = dict(mesh.boundary_tags)
    tags["pin"] = np.array([0])
    return Mesh(nodes=mesh.nodes, elements=mesh.elements, boundary_tags=tags)


def _tension_bcs(sigma: float):
    return (
        BoundaryCondition("bottom", "displacement", (None, 0.0)),
        BoundaryCondition("pin", "displacement", (0.0, None)),
        BoundaryCondition("top", "traction", (0.0, sigma), scaled=True),
    )


def center_crack_exact_ki(sigma: float, a: float) -> float:
    """Opening-mode intensity of a center crack under remote tension."""
    return sigma * math.sqrt(math.pi * a)


def _table1_case(ratio: float):
    for known, case in _TABLE1_CASES.items():
        if abs(known - ratio) < 1e-9:
            return case
    choices = ", ".join(f"{r:g}" for r in TABLE1_RATIOS)
    raise ValueError(f"unknown refinement ratio {ratio:g} (choose from {choices})")


def table1_config(ratio: float, with_tip: bool = True) -> RunConfig:
    """Center-crack plate at one refinement of the comparison ladder.

    ``ratio`` is crack half length over element size; the mesh is a
    5 m x 5 m plate graded from a uniform window around the crack, under
    1 MPa remote tension, with the extraction domain's radius fixed at the
    crack half length.
    """
    spacing, window_x, window_y = _table1_case(ratio)
    mesh = _with_pin(windowed_rect(
        (-_TABLE1_HALF_WIDTH, _TABLE1_HALF_WIDTH),
        (-_TABLE1_HALF_WIDTH, _TABLE1_HALF_WIDTH),
        window_x, window_y, spacing,
    ))
    crack = CrackPath(
        vertices=np.array([[-TABLE1_HALF_LENGTH, 0.0],
                           [TABLE1_HALF_LENGTH, 0.0]]),
        id=0,
    )
    return RunConfig(
        material=STEEL,
        mesh=mesh,
        cracks=(crack,),
        bcs=_tension_bcs(TABLE1_SIGMA),
        tip_enrichment=with_tip,
        contour=ContourSpec("absolute", TABLE1_HALF_LENGTH),
        outputs=OutputSpec(),
    )


def inclined_exact(beta_deg: float, sigma: float = TABLE1_SIGMA,
                   a: float = TABLE1_HALF_LENGTH):
    """Mixed-mode intensities of a crack inclined to the tension axis.

    ``beta_deg`` is the angle between the crack line and the horizontal
    axis; the load pulls vertically.
    """
    beta = math.radians(beta_deg)
    k = sigma * math.sqrt(math.pi * a)
    return k * math.cos(beta) ** 2, k * math.sin(beta) * math.cos(beta)


def inclined_config(beta_deg: float, with_tip: bool = True) -> RunConfig:
    """Inclined center crack in the graded tension plate."""
    spacing = _INCLINED_SPACING
    half = 60.5 * spacing
    mesh = _with_pin(windowed_rect(
        (-_TABLE1_HALF_WIDTH, _TABLE1_HALF_WIDTH),
        (-_TABLE1_HALF_WIDTH, _TABLE1_HALF_WIDTH),
        (-half, half), (-half, half), spacing,
    ))
    beta = math.radians(beta_deg)
    d = TABLE1_HALF_LENGTH * np.array([math.cos(beta), math.sin(beta)])
    crack = CrackPath(vertices=np.array([-d, d]), id=0)
    return RunConfig(
        material=STEEL,
        mesh=mesh,
        cracks=(crack,),
        bcs=_tension_bcs(TABLE1_SIGMA),
        tip_enrichment=with_tip,
        contour=ContourSpec("relative", 0.9),
        outputs=OutputSpec(),
    )


def ladder_config(spacing: float) -> RunConfig:
    """Center-crack square plate meshed uniformly at one ladder spacing.

    The plate side is a common multiple of every ladder spacing, and the
    crack endpoints sit 0.2 cells inside their elements at the coarsest
    rung.  Halving the spacing cycles that offset through 0.4, 0.8 and
    0.6 cells, so every rung cuts its elements well away from node lines
    and the measured error reflects resolution, not cut-pattern phase.
    """
    n = round(_LADDER_EXTENT / spacing)
    if abs(n * spacing - _LADDER_EXTENT) > 1e-9:
        raise ValueError(
            f"spacing {spacing:g} does not divide the plate side "
            f"{_LADDER_EXTENT:g}"
        )
    mesh = _with_pin(uniform_rect(_LADDER_EXTENT, _LADDER_EXTENT, n, n))
    crack = CrackPath(vertices=np.array(_LADDER_CRACK), id=0)
    return RunConfig(
        material=STEEL,
        mesh=mesh,
        cracks=(crack,),
        bcs=_tension_bcs(TABLE1_SIGMA),
        tip_enrichment=True,
        outputs=OutputSpec(),
    )


@dataclass(frozen=True)
class ConvergenceResult:
    """Energy-norm ladder outcome with its log-log line fit."""

    sizes: tuple
    errors: tuple
    slope: float
    r_squared: float


def _ladder_region_mask():
    """Weight ramping smoothly from 0 on the crack band to 1 far away.

    Zero within one mask radius of the crack segment, one beyond two
    radii, with a C1 ramp between; a hard cutoff would re-select nearby
    quadrature points at every rung and add noise right where the error
    density is largest.
    """
    a = np.array(_LADDER_CRACK[0])
    b = np.array(_LADDER_CRACK[1])
    ab = b - a
    ab2 = float(ab @ ab)

    def mask(xs: np.ndarray) -> np.ndarray:
        t = np.clip((xs - a) @ ab / ab2, 0.0, 1.0)
        d = np.linalg.norm(xs - (a + t[:, None] * ab), axis=1)
        ramp = np.clip(d / _LADDER_MASK_RADIUS - 1.0, 0.0, 1.0)
        return ramp * ramp * (3.0 - 2.0 * ramp)

    return mask


def convergence_ladder(sizes=None, reference_size=None, progress=None):
    """Energy error of each ladder rung against a deep reference solve.

    Returns a :class:`ConvergenceResult`; the error region excludes a
    band around the whole crack (faces and tips) so the comparison
    measures the smooth part of the field, where bilinear elements
    should lose accuracy linearly in the spacing.
    """
    sizes = tuple(sizes) if sizes is not None else LADDER_SIZES
    reference_size = (reference_size if reference_size is not None
                      else LADDER_REFERENCE_SIZE)
    log = progress if progress is not None else (lambda text: None)

    log(f"[converge] reference solve at h = {reference_size:g}")
    ref_config = ladder_config(reference_size)
    ref_problem = setup_problem(ref_config)
    ref_state, _ = run_stationary(ref_config, problem=ref_problem)
    reference = strain_evaluator(ref_state, ref_problem.mesh,
                                 ref_problem.emap)

    mask = _ladder_region_mask()
    errors = []
    for spacing in sizes:
        log(f"[converge] rung at h = {spacing:g}")
        config = ladder_config(spacing)
        problem = setup_problem(config)
        state, _ = run_stationary(config, problem=problem)
        err = energy_error_norm(state, problem.mesh, problem.emap,
                                config.material, reference, region=mask,
                                rules=problem.rules)
        errors.append(err)

    logs = np.log(np.asarray(sizes, dtype=float))
    loge = np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(logs, loge, 1)
    fitted = slope * logs + intercept
    ss_res = float(np.sum((loge - fitted) ** 2))
    ss_tot = float(np.sum((loge - loge.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return ConvergenceResult(
        sizes=tuple(float(s) for s in sizes),
        errors=tuple(float(e) for e in errors),
        slope=float(slope),
        r_squared=float(r_squared),
    )


def hole_attraction_config() -> RunConfig:
    """Edge crack growing across a plate toward an off-axis hole.

    A 100 mm square plate with a millimeter grid and a staircase hole of
    radius 8 mm centered at (50, 72) mm; the initial 10.5 mm edge crack
    lies on the horizontal midline under vertical tension.  Growth runs
    without a toughness gate, so each load step extends the live tip.
    """
    mesh = _with_pin(punch_holes(
        uniform_rect(0.1, 0.1, 100, 100),
        [(0.05, 0.072, 0.008)],
    ))
    crack = CrackPath(
        vertices=np.array([[0.0, 0.0505], [0.0105, 0.0505]]),
        tip_start=False,
        id=0,
    )
    return RunConfig(
        material=ALUMINUM,
        mesh=mesh,
        cracks=(crack,),
        bcs=_tension_bcs(15e3),
        tip_enrichment=True,
        propagation=PropagationParams(delta_a=0.003),
        schedule=LoadSchedule.uniform(20),
        outputs=OutputSpec(),
    )


def twin_holes_config() -> RunConfig:
    """Two antisymmetric edge cracks in a stretched two-hole plate.

    A 10 mm x 20 mm plate on a 0.125 mm grid with staircase holes of
    radius 1 mm at (3.5, 12.5) mm and (6.5, 7.5) mm.  Opposite edge
    cracks start at mirrored heights; the plate is stretched by equal
    and opposite prescribed vertical displacements, and growth is gated
    by a fracture toughness.
    """
    mm = 1e-3
    mesh = punch_holes(
        uniform_rect(0.01, 0.02, 80, 160),
        [(3.5 * mm, 12.5 * mm, 1.0 * mm), (6.5 * mm, 7.5 * mm, 1.0 * mm)],
    )
    cracks = (
        CrackPath(
            vertices=np.array([[0.0, 11.0625 * mm],
                               [1.03125 * mm, 11.0625 * mm]]),
            tip_start=False,
            id=0,
        ),
        CrackPath(
            vertices=np.array([[10.0 * mm, 8.9375 * mm],
                               [8.96875 * mm, 8.9375 * mm]]),
            tip_start=False,
            id=1,
        ),
    )
    delta = 0.05 * mm
    bcs = (
        BoundaryCondition("bottom", "displacement", (0.0, -delta),
                          scaled=True),
        BoundaryCondition("top", "displacement", (0.0, delta), scaled=True),
    )
    return RunConfig(
        material=ALUMINUM,
        mesh=mesh,
        cracks=cracks,
        bcs=bcs,
        tip_enrichment=True,
        propagation=PropagationParams(delta_a=0.5 * mm, k_ic=47.4e6),
        schedule=LoadSchedule.uniform(12),
        outputs=OutputSpec(),
    )


def many_cracks_config() -> RunConfig:
    """Seventeen stationary random cracks in a uniformly meshed plate."""
    mesh = _with_pin(uniform_rect(1.0, 1.0, 120, 120))
    cracks = tuple(
        CrackPath(vertices=np.array(seg), id=i)
        for i, seg in enumerate(_MANY_CRACK_SEGMENTS)
    )
    return RunConfig(
        material=STEEL,
        mesh=mesh,
        cracks=cracks,
        bcs=_tension_bcs(TABLE1_SIGMA),
        tip_enrichment=True,
        outputs=OutputSpec(),
    )
