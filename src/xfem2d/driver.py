"""Quasi-static run orchestration: solve, extract intensities, grow, re-solve.

Linear elastic fracture carries no path memory, so every load step's
solution depends on the current crack geometry alone; growth decided after a
step's extraction simply changes the geometry the next step classifies.
A tip that comes within one element size (or one growth increment, if
that is larger) of the domain boundary or of another crack is
deactivated: its extraction contour would be invalid and a further
increment could leave the domain, so it stops producing intensity
factors and stops growing, while keeping its enrichment so the
displacement field stays well posed.

The background mesh is never remeshed as a crack grows; only the
enrichment changes from step to step.  So a propagation run builds the
mesh-invariant part of its :class:`Problem` once, at the first step: it
reads the mesh (whose adjacency, bounding boxes, boundary edges and
spatial index are cached on the :class:`~xfem2d.mesh.Mesh`) and checks
the boundary tags.  From step to step the run carries:

- the mesh, the rules and the boundary conditions;
- its :class:`~xfem2d.assembly.StiffnessCache`: the standard stiffness,
  summed once, the cut elements' matrices of the last step, and a change
  stamp per node.  A step integrates only the cut elements whose
  enrichment or surrounding crack changed, and the tip class;
- the sparse factor (:class:`~xfem2d.cholesky.FrontalCholesky`): a step
  refactors only the fronts of the mesh's nested-dissection tree that an
  element it integrated or dropped touches, or whose nodes' dof layout
  changed, and their ancestors, and reuses the rest unchanged;
- the last step's :class:`~xfem2d.enrichment.EnrichmentMap`: a step
  classifies again only what the features its cracks changed by can
  reach (the narrow band of :mod:`xfem2d.enrichment`);
- the current cracks, as the coincidence remedy left them and grown after
  the last extraction.

Every step then classifies its cracks on that same mesh, assembles,
solves, and extracts.  The last solved step's problem stays on the
:class:`RunHistory` for the output writers.

Errors raised by the underlying modules are re-raised with a pipeline
stage prefix (``[mesh]``, ``[classification]``, ``[assembly]``,
``[solve]``, ``[fracture]``) so a failing run names the phase at fault.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from xfem2d.assembly import (
    AssemblyError,
    BoundaryCondition,
    MaterialModel,
    QuadratureSet,
    SolutionState,
    SolverError,
    StiffnessCache,
    apply_constraints,
    assemble,
    elasticity_matrix,
    solve,
    voigt_strain,
)
from xfem2d.cholesky import FactorStats, FrontalCholesky
from xfem2d.cracks import CrackGeometryError, CrackPath, extend_crack
from xfem2d.enrichment import (
    BandStats,
    EnrichmentError,
    EnrichmentMap,
    classify_with_remedy,
    crack_opening,
    element_fields,
    evaluate_fields,
)
from xfem2d.fracture import (
    FractureError,
    SifResult,
    extract_sifs,
    k_equivalent,
    tip_clearance,
)
from xfem2d.mesh import Mesh, MeshFormatError, element_geometry, read_mesh

if TYPE_CHECKING:  # config imports this module
    from xfem2d.config import ContourSpec, RunConfig

__all__ = [
    "LoadSchedule",
    "PropagationParams",
    "ExtensionEvent",
    "FreezeEvent",
    "StepRecord",
    "RunHistory",
    "Problem",
    "setup_problem",
    "run_stationary",
    "run_propagation",
    "stationary_history",
    "cod_profile",
    "energy_error_norm",
    "strain_evaluator",
    "tip_trajectory",
]

_STAGE_ERRORS = (
    OSError,
    MeshFormatError,
    CrackGeometryError,
    EnrichmentError,
    AssemblyError,
    SolverError,
    FractureError,
)


@contextmanager
def _stage(name: str):
    """Re-raise module errors with the pipeline stage spelled out.

    The exception itself is re-raised with its message prefixed, so its
    type and attributes (such as a degeneracy error's ``crack_ids``) are
    kept whatever its constructor takes.
    """
    try:
        yield
    except _STAGE_ERRORS as exc:
        message = str(exc)
        if not message.startswith("["):
            exc.args = (f"[{name}] {message}",)
        raise


@dataclass(frozen=True)
class LoadSchedule:
    """Strictly increasing load factors applied to the scaled conditions."""

    steps: tuple

    def __post_init__(self):
        steps = tuple(float(s) for s in self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ValueError("load schedule needs at least one step")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("load factors must be strictly increasing")

    @classmethod
    def uniform(cls, n_steps: int, final: float = 1.0) -> "LoadSchedule":
        if n_steps < 1:
            raise ValueError("schedule needs at least one step")
        return cls(tuple(final * (k + 1) / n_steps for k in range(n_steps)))


@dataclass(frozen=True)
class PropagationParams:
    """Growth increment, optional toughness gate, and increment budget.

    Without ``k_ic`` every live tip grows each load step; with it a tip
    grows only when its equivalent intensity factor reaches the gate.
    """

    delta_a: float
    k_ic: float | None = None
    max_increments: int = 1000

    def __post_init__(self):
        if not self.delta_a > 0.0:
            raise ValueError("growth increment delta_a must be positive")
        if self.k_ic is not None and not self.k_ic > 0.0:
            raise ValueError("toughness k_ic must be positive when given")
        if self.max_increments < 0:
            raise ValueError("max_increments cannot be negative")


@dataclass(frozen=True)
class ExtensionEvent:
    """One applied growth increment."""

    crack_id: int
    tip_id: int
    theta_c: float
    delta_a: float
    new_tip: tuple


@dataclass(frozen=True)
class FreezeEvent:
    """One tip deactivation with its reason."""

    crack_id: int
    tip_id: int
    reason: str


@dataclass
class StepRecord:
    """Everything one load step produced.

    ``cracks`` is the geometry this step's solve used, as the coincidence
    remedy left it; ``extensions`` were applied to it after extraction
    and shape the next step's geometry.  ``classification`` tells how much
    of the step's classification was worked out afresh.
    """

    step: int
    load_factor: float
    cracks: tuple
    sifs: tuple
    extensions: tuple = ()
    frozen: tuple = ()
    n_dofs: int = 0
    n_heaviside: int = 0
    n_tip: int = 0
    residual: float = 0.0
    demotions: tuple = ()
    factor: FactorStats | None = None
    classification: BandStats | None = None


@dataclass
class RunHistory:
    """Append-only record of a propagation run.

    ``final_problem`` is the classified problem ``final_state`` was solved
    on (the first step's problem when no step was solved).
    """

    steps: list = field(default_factory=list)
    final_state: SolutionState | None = None
    final_problem: Problem | None = None
    final_cracks: tuple = ()
    stop_reason: str = "schedule exhausted"
    error: str | None = None

    @property
    def n_increments(self) -> int:
        """Load steps that applied at least one growth increment."""
        return sum(1 for rec in self.steps if rec.extensions)


@dataclass(frozen=True)
class Problem:
    """One classified configuration, ready to assemble.

    ``emap`` and ``cracks`` belong to one crack geometry; the other fields
    depend only on the mesh and the configuration and are shared by every
    step of a run, ``stiffness`` carrying what one step's assembly leaves
    to the next.
    """

    mesh: Mesh
    material: MaterialModel
    rules: QuadratureSet
    bcs: tuple
    emap: EnrichmentMap
    cracks: tuple
    stiffness: StiffnessCache


def setup_problem(config: RunConfig, cracks=None, base: Problem | None = None) -> Problem:
    """Load the mesh, validate tags, and classify the crack set.

    ``cracks`` overrides the configured cracks.  ``base`` is a problem set
    up earlier from the same config (the previous step of a propagation
    run): its mesh, rules, conditions and stiffness cache are reused, and
    the cracks are classified against its map, so only what their change
    can reach is classified again.  Without it, an in-memory
    ``config.mesh`` takes precedence over ``config.mesh_path``.
    """
    if base is None:
        with _stage("mesh"):
            mesh = config.mesh if config.mesh is not None else read_mesh(config.mesh_path)
        bcs = tuple(config.bcs)
        for bc in bcs:
            if bc.boundary not in mesh.boundary_tags:
                raise ValueError(
                    f"[mesh] boundary tag '{bc.boundary}' does not exist in the mesh "
                    f"(available: {', '.join(sorted(mesh.boundary_tags))})"
                )
        standard_points, cut_points, tip_points = config.quadrature
        rules = QuadratureSet.from_targets(standard_points, cut_points, tip_points)
        stiffness = StiffnessCache(mesh, config.material, rules)
    else:
        mesh, bcs, rules, stiffness = base.mesh, base.bcs, base.rules, base.stiffness
    with _stage("classification"):
        # Demotion counts the points each class's rule integrates the jump
        # at, so classification takes the rules the assembly uses.
        emap, used = classify_with_remedy(
            mesh,
            cracks if cracks is not None else config.cracks,
            delta=config.delta,
            rules=rules,
            tip_enrichment=config.tip_enrichment,
            base=base.emap if base is not None else None,
        )
    return Problem(
        mesh=mesh,
        material=config.material,
        rules=rules,
        bcs=bcs,
        emap=emap,
        cracks=tuple(used),
        stiffness=stiffness,
    )


def _contour_radius(contour: ContourSpec, emap: EnrichmentMap, crack_id: int) -> float | None:
    if contour.rule == "auto":
        return None
    if contour.rule == "absolute":
        return float(contour.value)
    if contour.rule == "relative":
        return float(contour.value) * emap.effective_half_length(crack_id)
    raise ValueError(f"unknown contour radius rule '{contour.rule}'")


def _solve_step(problem: Problem, lam: float,
                factor: FrontalCholesky | None = None) -> SolutionState:
    bcs = [bc.at_load_factor(lam) for bc in problem.bcs]
    with _stage("assembly"):
        system = apply_constraints(
            assemble(problem.mesh, problem.emap, problem.material,
                     problem.rules, bcs, cache=problem.stiffness)
        )
    with _stage("solve"):
        return solve(system, load_factor=lam, factor=factor)


def _extract_step(problem: Problem, state: SolutionState, contour: ContourSpec,
                  skip=frozenset()):
    results = []
    with _stage("fracture"):
        for tinfo in problem.emap.tips:
            if (tinfo.crack_id, tinfo.tip_id) in skip:
                continue
            radius = _contour_radius(contour, problem.emap, tinfo.crack_id)
            results.append(
                extract_sifs(
                    state, problem.mesh, problem.emap, problem.material,
                    tinfo.crack_id, tinfo.tip_id,
                    radius=radius, n_points=contour.n_points,
                )
            )
    return tuple(results)


def run_stationary(config: RunConfig, problem: Problem | None = None):
    """Single solve at the final load factor plus one extraction per tip.

    Returns ``(state, results)``; pass a prepared ``problem`` to skip the
    mesh/classification phase (the command-line driver reuses it for
    output generation).
    """
    if problem is None:
        problem = setup_problem(config)
    lam = config.schedule.steps[-1] if config.schedule is not None else 1.0
    state = _solve_step(problem, lam)
    results = _extract_step(problem, state, config.contour)
    return state, results


def stationary_history(problem: Problem, state: SolutionState,
                       results) -> RunHistory:
    """Package one stationary solve as a single-step run history.

    The output writers consume histories; this adapter lets a plain
    solve share the same emission path as a propagation run.
    """
    record = StepRecord(
        step=0,
        load_factor=state.load_factor,
        cracks=problem.cracks,
        sifs=tuple(results),
        n_dofs=state.layout.total_dofs,
        n_heaviside=problem.emap.n_heaviside,
        n_tip=problem.emap.n_tip,
        residual=state.residual,
        demotions=problem.emap.demotions,
        factor=state.factor,
        classification=problem.emap.band,
    )
    return RunHistory(steps=[record], final_state=state,
                      final_problem=problem, final_cracks=problem.cracks,
                      stop_reason="stationary solve")


def _element_size(mesh: Mesh, eid: int) -> float:
    xy = mesh.nodes[mesh.elements[eid]]
    return float((xy.max(axis=0) - xy.min(axis=0)).max())


def _replace_crack(cracks: list, crack_id: int, new: CrackPath) -> None:
    for i, c in enumerate(cracks):
        if c.id == crack_id:
            cracks[i] = new
            return
    raise KeyError(f"no crack with id {crack_id}")


def run_propagation(config: RunConfig) -> RunHistory:
    """Load sweep with at most one growth increment per tip per step.

    Stops on schedule exhaustion, on reaching the increment budget, or
    when every tip has been deactivated; a solver failure ends the run
    early with the history collected so far and the failure recorded on
    ``history.error``.
    """
    prop, schedule, contour = config.propagation, config.schedule, config.contour
    if prop is None or schedule is None:
        raise ValueError(
            "[config] a propagation run needs propagation parameters "
            "and a load schedule"
        )

    problem = setup_problem(config)
    factor = FrontalCholesky()
    history = RunHistory(final_problem=problem)
    frozen: set = set()
    increments = 0

    for k, lam in enumerate(schedule.steps):
        if k > 0:
            problem = setup_problem(config, cracks=cracks, base=problem)
        cracks = problem.cracks  # as the coincidence remedy left them
        try:
            state = _solve_step(problem, lam, factor)
        except SolverError as exc:
            history.error = str(exc)
            history.stop_reason = "solver failure"
            break

        freezes = []
        for tinfo in problem.emap.tips:
            key = (tinfo.crack_id, tinfo.tip_id)
            if key in frozen:
                continue
            reach = max(_element_size(problem.mesh, tinfo.element), prop.delta_a)
            clearance = tip_clearance(problem.mesh, problem.emap, *key)
            if clearance <= reach:
                frozen.add(key)
                freezes.append(FreezeEvent(
                    key[0], key[1],
                    f"clearance {clearance:.4g} m within reach {reach:.4g} m "
                    "of the boundary or another crack",
                ))

        sifs = _extract_step(problem, state, contour, skip=frozen)
        record = StepRecord(
            step=k,
            load_factor=lam,
            cracks=cracks,
            sifs=sifs,
            frozen=tuple(freezes),
            n_dofs=state.layout.total_dofs,
            n_heaviside=problem.emap.n_heaviside,
            n_tip=problem.emap.n_tip,
            residual=state.residual,
            demotions=problem.emap.demotions,
            factor=state.factor,
            classification=problem.emap.band,
        )
        history.steps.append(record)
        history.final_state = state
        history.final_problem = problem
        history.final_cracks = cracks

        if increments >= prop.max_increments:
            history.stop_reason = "increment budget exhausted"
            break

        events = []
        new_cracks = list(cracks)
        for res in sifs:
            if prop.k_ic is not None:
                if k_equivalent(res.K_I, res.K_II, res.theta_c) < prop.k_ic:
                    continue
            try:
                grown = extend_crack(
                    next(c for c in new_cracks if c.id == res.crack_id),
                    res.tip_id, res.theta_c, prop.delta_a,
                )
            except CrackGeometryError as exc:
                frozen.add((res.crack_id, res.tip_id))
                freezes.append(FreezeEvent(res.crack_id, res.tip_id, str(exc)))
                continue
            _replace_crack(new_cracks, res.crack_id, grown)
            tip_vertex = grown.vertices[0 if res.tip_id == 0 else -1]
            events.append(ExtensionEvent(
                res.crack_id, res.tip_id, res.theta_c, prop.delta_a,
                (float(tip_vertex[0]), float(tip_vertex[1])),
            ))
        record.extensions = tuple(events)
        record.frozen = tuple(freezes)
        if events:
            increments += 1
            cracks = tuple(new_cracks)
            history.final_cracks = cracks

        live = [t for t in problem.emap.tips
                if (t.crack_id, t.tip_id) not in frozen]
        if not live:
            history.stop_reason = "all tips deactivated"
            break

    return history


def tip_trajectory(history: RunHistory, crack_id: int, tip_id: int) -> np.ndarray:
    """Successive positions of one tip over a propagation run."""
    index = 0 if tip_id == 0 else -1
    points = []
    sources = [rec.cracks for rec in history.steps]
    if history.final_cracks:
        sources.append(history.final_cracks)
    for cracks in sources:
        for c in cracks:
            if c.id == crack_id:
                v = np.asarray(c.vertices[index], dtype=float)
                if not points or not np.allclose(v, points[-1]):
                    points.append(v)
    if not points:
        raise KeyError(f"no crack with id {crack_id} in the history")
    return np.array(points)


def cod_profile(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                crack_id: int, n_samples: int = 101) -> np.ndarray:
    """Opening versus arc length along the physical crack polyline.

    Returns an ``(n_samples, 4)`` array of rows (s, x, y, opening): samples
    uniform in the arc length s from one end of the crack to the other,
    their positions and the openings there, evaluated in one batch.
    """
    if n_samples < 2:
        raise ValueError("an opening profile needs at least two samples")
    source = {c.id: c for c in emap.source_cracks}
    if crack_id not in source:
        raise ValueError(f"unknown crack id {crack_id}")
    if crack_id not in set(emap.cut_elements.values()):
        raise ValueError(
            f"crack {crack_id} bisects no element (it lies within a single "
            "element), so no opening profile exists"
        )
    vertices = source[crack_id].vertices
    seg = np.linalg.norm(np.diff(vertices, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = np.linspace(0.0, float(cum[-1]), n_samples)
    xs = np.column_stack([np.interp(s, cum, vertices[:, 0]),
                          np.interp(s, cum, vertices[:, 1])])
    opening = crack_opening(xs, state.fields, mesh, emap, crack_id)
    return np.column_stack([s, xs, opening])


def strain_evaluator(state: SolutionState, mesh: Mesh, emap: EnrichmentMap):
    """Callable mapping points to engineering strains of a solved state."""

    def evaluate(xs):
        return voigt_strain(evaluate_fields(xs, mesh, emap, state.fields)[1])

    return evaluate


def energy_error_norm(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                      material: MaterialModel, reference, region=None,
                      rules: QuadratureSet | None = None) -> float:
    """Region-averaged energy norm of the strain error against a reference.

    ``reference`` maps points (n, 2) to engineering strains (n, 3);
    ``region`` optionally weights quadrature points: it may return
    booleans (hard mask) or floats in [0, 1] (a smooth weight keeps the
    measured quantity continuous under mesh refinement).  The integral
    runs over each element's own quadrature class and is normalized by
    the measured region area.
    """
    rules = rules if rules is not None else QuadratureSet.from_targets()
    D = elasticity_matrix(material)
    total = 0.0
    area = 0.0
    for eids, rule in rules.classes(emap.element_kinds(mesh)):
        _, _, wdet, phys = element_geometry(mesh.element_coords(eids), rule)
        wdet, phys = wdet.ravel(), phys.reshape(-1, 2)
        w = (np.asarray(region(phys), dtype=float) if region is not None
             else np.ones(phys.shape[0]))
        keep = np.nonzero(w > 0.0)[0]
        if keep.size == 0:
            continue
        local = np.tile(rule.points, (eids.size, 1))[keep]
        _, grad = element_fields(mesh, emap, state.fields,
                                 np.repeat(eids, rule.n_points)[keep], local, phys[keep])
        diff = voigt_strain(grad) - np.asarray(reference(phys[keep]), dtype=float)
        wk = wdet[keep] * w[keep]
        total += float(np.einsum("n,ni,ij,nj->", wk, diff, D, diff))
        area += float(wk.sum())
    if area <= 0.0:
        raise ValueError("the region excludes every quadrature point")
    return math.sqrt(max(total, 0.0)) / area
