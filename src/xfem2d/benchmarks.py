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
* an edge crack to half the width of a plate in tension
  (``edge_tension_config``), against Tada, Paris & Irwin's
  ``K_I = sigma * sqrt(pi * a) * F(a / W)`` (``edge_tension_exact_ki``);
* an edge crack ending at the centre of a square whose boundary carries
  the exact mode-I Williams displacement (``convergence_ladder``),
  against that closed form everywhere: energy-norm error and K_I;
* a growing edge crack attracted by an off-axis hole
  (``hole_attraction_config``);
* two antisymmetric edge cracks among two holes (``twin_holes_config``);
* a field of seventeen random stationary cracks (``many_cracks_config``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from xfem2d.assembly import (BoundaryCondition, MaterialModel, apply_constraints, assemble,
                             solve, voigt_strain)
from xfem2d.config import ContourSpec, OutputSpec, RunConfig
from xfem2d.cracks import CrackPath
from xfem2d.driver import (
    LoadSchedule,
    PropagationParams,
    energy_error_norm,
    setup_problem,
)
from xfem2d.fracture import auxiliary_fields, extract_sifs, williams_displacement
from xfem2d.mesh import Mesh, _distinct
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
    "edge_tension_config",
    "edge_tension_exact_ki",
    "LADDER_SIZES",
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

# Edge-crack plate: width W and crack depth a, at a / W = 0.5.
_EDGE_WIDTH = 1.0
_EDGE_DEPTH = 0.5

INCLINED_BETAS = tuple(range(10, 81, 10))
_INCLINED_SPACING = 1.0 / 120.0

# Convergence ladder: the square [-1, 1]^2 meshed n x n with n odd, so the
# crack row and the tip at the centre sit at element centres on every
# rung; the element size is h = 2 / n.
LADDER_SIZES = tuple(2.0 / n for n in (11, 21, 41, 81))
_LADDER_MATERIAL = MaterialModel(E=1.0, nu=0.3, plane_strain=True)
_LADDER_RADIUS = 0.5  # of the K_I extraction domain

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


def edge_tension_exact_ki() -> float:
    """Opening-mode intensity of :func:`edge_tension_config`'s crack,
    sigma sqrt(pi a) F(a / W) with the F of Tada, Paris & Irwin (The Stress
    Analysis of Cracks Handbook, 2000), stated accurate to 0.5 % for
    a / W <= 0.6."""
    s = _EDGE_DEPTH / _EDGE_WIDTH
    return TABLE1_SIGMA * math.sqrt(math.pi * _EDGE_DEPTH) * (
        1.12 - 0.231 * s + 10.55 * s**2 - 21.72 * s**3 + 30.39 * s**4)


def edge_tension_config(cells: int = 41) -> RunConfig:
    """Edge crack to half the width of a plate in tension.

    A 1 m wide, 2 m tall plate meshed ``cells`` elements across and
    2 ``cells`` + 1 high, both odd, so the crack row at mid-height and the
    tip at mid-width sit at element centres.  The crack runs from the left
    edge to a / W = 0.5, the bottom rests on rollers and the top carries
    1 MPa of tension; the domain takes the ``auto`` radius.
    """
    if cells < 3 or cells % 2 == 0:
        raise ValueError(f"the edge-crack plate needs an odd cell count of 3 or more, got {cells}")
    height = 2.0 * _EDGE_WIDTH
    mesh = _with_pin(uniform_rect(_EDGE_WIDTH, height, cells, 2 * cells + 1))
    crack = CrackPath(vertices=np.array([[0.0, 0.5 * height], [_EDGE_DEPTH, 0.5 * height]]),
                      tip_start=False, id=0)
    return RunConfig(
        material=STEEL,
        mesh=mesh,
        cracks=(crack,),
        bcs=_tension_bcs(TABLE1_SIGMA),
        tip_enrichment=True,
        contour=ContourSpec("auto"),
        outputs=OutputSpec(),
    )


@dataclass(frozen=True)
class ConvergenceResult:
    """Ladder outcome: each rung's energy error and K_I - 1, with the
    log-log line fit of the energy errors."""

    sizes: tuple
    errors: tuple
    ki_errors: tuple
    slope: float
    r_squared: float


def _ladder_cells(size: float) -> int:
    """The odd cell count n = 2 / h of the ladder square at element size h,
    which may carry the rounding of six significant digits."""
    n = 2.0 / size if size > 0.0 else 0.0
    cells = round(n) if math.isfinite(n) else 0
    if cells % 2 == 0 or abs(n - cells) > 1e-5 * cells:
        raise ValueError(f"element size {size:g} does not make 2/h an odd whole number "
                         f"(the default sizes are {', '.join(f'{h:g}' for h in LADDER_SIZES)})")
    return cells


def _ladder_rung(cells: int):
    """Energy error and K_I - 1 of one rung against the exact field.

    The crack runs from the middle of the left side to the tip at the
    origin, so the tip frame is the global one.  Every boundary node's
    standard dofs carry the exact unit mode-I displacement; the jump dofs
    of the crack mouth's nodes stay free.
    """
    mesh = uniform_rect(2.0, 2.0, cells, cells, origin=(-1.0, -1.0))
    crack = CrackPath(vertices=np.array([[-1.0, 0.0], [0.0, 0.0]]), tip_start=False, id=0)
    material = _LADDER_MATERIAL
    problem = setup_problem(RunConfig(material=material, mesh=mesh, cracks=(crack,),
                                      tip_enrichment=True))
    nodes = _distinct(mesh.boundary_edges[:, :2])
    x, y = mesh.nodes[nodes].T
    u = williams_displacement(1, np.hypot(x, y), np.arctan2(y, x), material)
    dofs = 2 * nodes[:, None] + np.arange(2)
    system = apply_constraints(
        assemble(mesh, problem.emap, material, cache=problem.stiffness),
        dict(zip(dofs.ravel().tolist(), u.ravel().tolist())))
    state = solve(system)

    def exact_strain(xs):
        _, grad = auxiliary_fields(1, np.hypot(*xs.T), np.arctan2(xs[:, 1], xs[:, 0]),
                                   material)
        return voigt_strain(grad)

    error = energy_error_norm(state, mesh, problem.emap, material, exact_strain)
    sif = extract_sifs(state, mesh, problem.emap, material, 0, 1, radius=_LADDER_RADIUS)
    return error, float(sif.K_I) - 1.0


def convergence_ladder(sizes=None, progress=None):
    """Each rung's error against the closed-form unit mode-I field.

    ``sizes`` are element sizes h (default :data:`LADDER_SIZES`); each
    must make 2/h odd, and at least two must differ, which is checked
    before the first solve.  The energy error covers the whole square,
    tip included, so with the tip element alone enriched it falls like
    h^(1/2); the K_I error falls like h.  Returns a
    :class:`ConvergenceResult` whose slope fits the energy errors.
    """
    cells = [_ladder_cells(float(h)) for h in (sizes if sizes is not None else LADDER_SIZES)]
    if len(set(cells)) < 2:
        raise ValueError("the convergence ladder needs at least two distinct element sizes")
    sizes = tuple(2.0 / n for n in cells)
    log = progress if progress is not None else (lambda text: None)

    errors, ki_errors = [], []
    for h, n in zip(sizes, cells):
        log(f"[converge] rung at h = {h:g} ({n} x {n} elements)")
        error, ki_error = _ladder_rung(n)
        errors.append(error)
        ki_errors.append(ki_error)

    logs = np.log(sizes)
    loge = np.log(errors)
    slope, intercept = np.polyfit(logs, loge, 1)
    fitted = slope * logs + intercept
    ss_res = float(np.sum((loge - fitted) ** 2))
    ss_tot = float(np.sum((loge - loge.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return ConvergenceResult(sizes=sizes, errors=tuple(errors), ki_errors=tuple(ki_errors),
                             slope=float(slope), r_squared=float(r_squared))


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
