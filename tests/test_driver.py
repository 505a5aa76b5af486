"""Run orchestration: stationary solves, load sweeps, growth, and norms."""

import math

import numpy as np
import pytest

from xfem2d import assembly
from xfem2d.assembly import (
    AssemblyError,
    BoundaryCondition,
    DofLayout,
    MaterialModel,
    SolverError,
    StiffnessCache,
    apply_constraints,
    stress_strain_batch,
)
from xfem2d.config import ContourSpec, RunConfig
from xfem2d.cracks import CrackGeometryError, CrackPath, extend_crack, signed_distance_batch
from xfem2d.driver import (
    LoadSchedule,
    PropagationParams,
    cod_profile,
    energy_error_norm,
    run_propagation,
    run_stationary,
    setup_problem,
    tip_trajectory,
    _stage,
)
from xfem2d import driver, enrichment
from xfem2d.assembly import solve
from xfem2d.enrichment import CrackMeshDegeneracyError, evaluate_fields
from xfem2d.fracture import FractureError
from xfem2d.mesh import Mesh, locate_points
from xfem2d.meshgen import uniform_rect

STEEL = MaterialModel(E=200e9, nu=0.3, plane_strain=True)
SIGMA = 1e6


def pinned_mesh(nx=21, ny=21):
    """Unit square with an extra single-node tag for the x-direction pin."""
    m = uniform_rect(1.0, 1.0, nx, ny)
    tags = dict(m.boundary_tags)
    tags["pin"] = np.array([0])
    return Mesh(nodes=m.nodes, elements=m.elements, boundary_tags=tags)


def tension_bcs(traction=(0.0, SIGMA)):
    return (
        BoundaryCondition("bottom", "displacement", (None, 0.0)),
        BoundaryCondition("pin", "displacement", (0.0, None)),
        BoundaryCondition("top", "traction", traction, scaled=True),
    )


def make_config(mesh=None, cracks=(), bcs=None, schedule=None, propagation=None,
                contour=None, tip_enrichment=True, material=STEEL):
    return RunConfig(
        mesh=mesh,
        material=material,
        cracks=tuple(cracks),
        bcs=tension_bcs() if bcs is None else tuple(bcs),
        quadrature=(4, 35, 40),
        delta=0.002,
        tip_enrichment=tip_enrichment,
        contour=ContourSpec() if contour is None else contour,
        propagation=propagation,
        schedule=schedule,
    )


def center_crack(a=0.15, y=0.5):
    return CrackPath(vertices=np.array([[0.5 - a, y], [0.5 + a, y]]), id=0)


class TestLoadSchedule:
    def test_uniform(self):
        s = LoadSchedule.uniform(4)
        assert s.steps == (0.25, 0.5, 0.75, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            LoadSchedule(())

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            LoadSchedule((0.5, 0.5, 1.0))

    def test_uniform_needs_a_step(self):
        with pytest.raises(ValueError, match="at least one"):
            LoadSchedule.uniform(0)


class TestPropagationParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="delta_a"):
            PropagationParams(delta_a=0.0)
        with pytest.raises(ValueError, match="k_ic"):
            PropagationParams(delta_a=0.01, k_ic=-1.0)
        with pytest.raises(ValueError, match="max_increments"):
            PropagationParams(delta_a=0.01, max_increments=-1)


@pytest.fixture(scope="module")
def stationary_run():
    config = make_config(mesh=pinned_mesh(), cracks=[center_crack()])
    problem = setup_problem(config)
    state, sifs = run_stationary(config, problem=problem)
    return config, problem, state, sifs


@pytest.fixture(scope="module")
def grown():
    config = make_config(
        mesh=pinned_mesh(), cracks=[center_crack(a=0.1)],
        schedule=LoadSchedule.uniform(3),
        propagation=PropagationParams(delta_a=0.05),
    )
    return config, run_propagation(config)


@pytest.fixture(scope="module")
def grown_solves(grown):
    """Every (system, state) pair the solves of the grown run produce."""
    config, _ = grown
    solves = []

    def recording(system, load_factor=1.0, factor=None):
        state = solve(system, load_factor, factor)
        solves.append((system, state))
        return state

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "solve", recording)
        run_propagation(config)
    return solves


def edge_crack(length=0.3, y=0.52):
    return CrackPath(vertices=np.array([[0.0, y], [length, y]]), tip_start=False, id=0)


def snapped_growth(mesh, at_call):
    """``extend_crack`` whose growth number ``at_call`` puts the new end
    tip on the nearest vertical mesh line, where the coincidence remedy of
    the next classification must perturb the crack."""
    columns = np.unique(mesh.nodes[:, 0])
    calls = []

    def grow(crack, tip_id, theta_c, delta_a):
        grown = extend_crack(crack, tip_id, theta_c, delta_a)
        calls.append(tip_id)
        if len(calls) != at_call:
            return grown
        v = grown.vertices.copy()
        v[-1, 0] = columns[np.argmin(np.abs(columns - v[-1, 0]))]
        return CrackPath(vertices=v, tip_start=crack.tip_start, tip_end=crack.tip_end,
                         id=crack.id)
    return grow


INCREMENTAL_RUNS = {
    # grown at its end only: the cut elements behind the tip are reused
    "end growth": (lambda: edge_crack(), 4, None),
    # grown at both ends: the start tip shifts every arc length, and the
    # cut elements between the tips are reused
    "both ends": (lambda: center_crack(a=0.1), 3, None),
    # the second growth lands the tip on a mesh edge
    "remedy": (lambda: edge_crack(), 4, 2),
}


@pytest.fixture(scope="module", params=sorted(INCREMENTAL_RUNS))
def incremental_run(request):
    """Every assembly, solve and cut-element integration count (per
    assembly) of a propagation run, and per step whether each
    classification attempt raised."""
    make_crack, steps, snap_at = INCREMENTAL_RUNS[request.param]
    mesh = pinned_mesh()
    config = make_config(mesh=mesh, cracks=[make_crack()],
                         schedule=LoadSchedule.uniform(steps),
                         propagation=PropagationParams(delta_a=0.05))
    steps, integrated, attempts = [], [], []

    def assembling(mesh, emap, material, bcs, cache):
        integrated.append(0)
        system = assembly.assemble(mesh, emap, material, bcs, cache=cache)
        steps.append([(mesh, emap, material, bcs), system])
        return system

    def solving(system, load_factor=1.0, factor=None):
        state = solve(system, load_factor, factor)
        steps[-1].append(state)
        return state

    def integrating(mesh, emap, D, standard, eids, rule, used=None):
        if used is not None:  # the cut class
            integrated[-1] += len(eids)
        return real_integrate(mesh, emap, D, standard, eids, rule, used)

    def remedying(*args, **kwargs):
        attempts.append([])
        return real_remedy(*args, **kwargs)

    def classifying(*args, **kwargs):
        try:
            emap = real_classify(*args, **kwargs)
        except enrichment.EnrichmentError:
            attempts[-1].append(True)
            raise
        attempts[-1].append(False)
        return emap

    real_integrate = assembly._integrate
    real_remedy, real_classify = driver.classify_with_remedy, enrichment.classify_enrichment
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "assemble", assembling)
        patch.setattr(driver, "solve", solving)
        patch.setattr(assembly, "_integrate", integrating)
        patch.setattr(driver, "classify_with_remedy", remedying)
        patch.setattr(enrichment, "classify_enrichment", classifying)
        if snap_at is not None:
            patch.setattr(driver, "extend_crack", snapped_growth(mesh, snap_at))
        history = run_propagation(config)
    return request.param, history, steps, integrated, attempts


class TestIncrementalStep:
    """Each step of a run against an assembly with an empty cache and a
    fresh factorization on the same cracks."""

    def test_every_step_matches_a_fresh_one(self, incremental_run):
        name, history, steps, *_ = incremental_run
        assert len(steps) == len(history.steps) >= 3
        assert history.n_increments >= 3
        for (mesh, emap, material, bcs), system, state in steps:
            fresh = assembly.assemble(mesh, emap, material, bcs,
                                      cache=StiffnessCache(mesh, material, emap.rules))
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(system.K, part), getattr(fresh.K, part))
            np.testing.assert_array_equal(system.f, fresh.f)
            again = solve(apply_constraints(fresh), state.load_factor)
            assert np.abs(state.u - again.u).max() <= 1e-12 * np.abs(again.u).max()

    def test_remedy_fires_at_the_snapped_step_only(self, incremental_run):
        name, history, steps, _, attempts = incremental_run
        assert len(attempts) == len(steps)
        raised = [k for k, outcomes in enumerate(attempts) if any(outcomes)]
        assert raised == ([2] if name == "remedy" else [])
        assert all(outcomes[-1] is False for outcomes in attempts)
        # every step solves and grows the cracks the remedy returned
        for ((_, emap, *_), *_), record in zip(steps, history.steps):
            assert len(record.cracks) == len(emap.source_cracks)
            assert all(a is b for a, b in zip(record.cracks, emap.source_cracks))

    def test_cut_elements_integrated_only_when_changed(self, incremental_run):
        # A cut matrix is reused exactly where the element kept its key
        # (test_every_step_matches_a_fresh_one pins K bit for bit), so also
        # after the remedy's 1e-9 nudge; plain growth integrates the new cut
        # elements and reuses some of the rest.
        name, history, steps, integrated, attempts = incremental_run
        perturbed = [any(outcomes) for outcomes in attempts]
        assert any(perturbed) == (name == "remedy")
        last = np.empty(0, dtype=np.int64), None
        for k, ((mesh, emap, *_), *_) in enumerate(steps):
            cut = np.flatnonzero(emap.kinds == 2)
            # no tip node in a cut element, so its key needs no tip column
            assert not (emap.status[mesh.elements[cut]] == enrichment.TIP).any()
            keys = assembly._cut_keys(mesh, emap, cut)
            _, at, old = np.intersect1d(cut, last[0], return_indices=True)
            kept = np.count_nonzero(np.all(keys[at] == last[1][old], axis=1)) if k else 0
            assert cut.size - integrated[k] == kept
            if k and not perturbed[k]:
                assert 0 < integrated[k] < cut.size
            last = cut, keys


class TestRunStationary:
    def test_two_tips_extracted(self, stationary_run):
        _, _, state, sifs = stationary_run
        assert state.load_factor == 1.0
        assert [(r.crack_id, r.tip_id) for r in sifs] == [(0, 0), (0, 1)]

    def test_opening_dominates(self, stationary_run):
        _, _, _, sifs = stationary_run
        exact = SIGMA * math.sqrt(math.pi * 0.15)
        for r in sifs:
            # coarse mesh and a finite plate: only a sanity band
            assert r.K_I == pytest.approx(exact, rel=0.2)
            assert abs(r.K_II) < 0.05 * r.K_I
            assert r.load_factor == 1.0

    def test_schedule_selects_final_factor(self, stationary_run):
        config, _, _, sifs_full = stationary_run
        half = make_config(mesh=config.mesh, cracks=[center_crack()],
                           schedule=LoadSchedule((0.25, 0.5)))
        state, sifs = run_stationary(half)
        assert state.load_factor == 0.5
        for r_half, r_full in zip(sifs, sifs_full):
            assert r_half.K_I == pytest.approx(0.5 * r_full.K_I, rel=1e-9)
            assert r_half.K_II == pytest.approx(0.5 * r_full.K_II, rel=1e-9,
                                                abs=1e-9 * abs(r_full.K_I))

    def test_zero_load_zero_everything(self, stationary_run):
        config, _, _, _ = stationary_run
        quiet = make_config(mesh=config.mesh, cracks=[center_crack()],
                            bcs=tension_bcs(traction=(0.0, 0.0)))
        state, sifs = run_stationary(quiet)
        assert np.abs(state.u).max() == 0.0
        for r in sifs:
            assert r.K_I == 0.0
            assert r.K_II == 0.0
            assert r.J == 0.0

    def test_unknown_tag_named(self):
        config = make_config(
            mesh=pinned_mesh(5, 5), cracks=[center_crack()],
            bcs=[BoundaryCondition("lid", "traction", (0.0, 1.0))],
        )
        with pytest.raises(ValueError, match=r"\[mesh\].*'lid'"):
            setup_problem(config)

    def test_stage_prefix_on_assembly_error(self):
        mesh = pinned_mesh(5, 5)
        config = make_config(
            mesh=mesh, cracks=[],
            bcs=(
                BoundaryCondition("bottom", "displacement", (None, 0.0)),
                BoundaryCondition("left", "displacement", (None, 0.1)),
            ),
        )
        with pytest.raises(AssemblyError, match=r"\[assembly\]"):
            run_stationary(config)

    def test_stage_prefix_keeps_error_type_and_crack_ids(self):
        with pytest.raises(CrackMeshDegeneracyError) as info:
            with _stage("classification"):
                raise CrackMeshDegeneracyError(
                    "crack/mesh coincidence: crack 3 vertex 0 lies on mesh "
                    "edge (4,5)", crack_ids={3})
        assert type(info.value) is CrackMeshDegeneracyError
        assert str(info.value).startswith("[classification] crack/mesh")
        assert info.value.crack_ids == {3}

    def test_contour_override_absolute(self, stationary_run):
        config, _, _, sifs_auto = stationary_run
        fixed = make_config(
            mesh=config.mesh, cracks=[center_crack()],
            contour=ContourSpec(rule="absolute", value=0.12),
        )
        _, sifs = run_stationary(fixed)
        # same solve, slightly different contour: close but not identical
        assert sifs[0].K_I == pytest.approx(sifs_auto[0].K_I, rel=0.05)
        assert sifs[0].K_I != sifs_auto[0].K_I

    def test_contour_relative_matches_absolute(self, stationary_run):
        config, _, _, _ = stationary_run
        rel = make_config(
            mesh=config.mesh, cracks=[center_crack()],
            contour=ContourSpec(rule="relative", value=0.8),
        )
        ab = make_config(
            mesh=config.mesh, cracks=[center_crack()],
            contour=ContourSpec(rule="absolute", value=0.8 * 0.15),
        )
        _, sr = run_stationary(rel)
        _, sa = run_stationary(ab)
        # identical up to the rounding of the stored effective length
        assert sr[0].K_I == pytest.approx(sa[0].K_I, rel=1e-12)

    def test_set_radius_fails_at_the_first_rejected_tip(self, stationary_run):
        # crack 0's domains hold; every circle of radius 0.1 around either
        # tip of the shorter crack 1 holds its other end, and a set radius
        # fails the run at the first of them, even with unresolved tips asked for
        config, _, _, _ = stationary_run
        short = CrackPath(vertices=np.array([[0.45, 0.8], [0.53, 0.8]]), id=1)
        fixed = make_config(mesh=config.mesh, cracks=[center_crack(), short],
                            contour=ContourSpec(rule="absolute", value=0.1))
        with pytest.raises(FractureError) as info:
            run_stationary(fixed, unresolved=[])
        assert str(info.value) == ("[fracture] domain of radius 0.1 around crack 1 tip 0 "
                                   "reaches the crack's other end")


class TestRunPropagation:
    def test_requires_schedule_and_params(self):
        config = make_config(mesh=pinned_mesh(5, 5), cracks=[center_crack()])
        with pytest.raises(ValueError, match=r"\[config\]"):
            run_propagation(config)

    def test_every_step_extends_both_tips(self, grown):
        _, history = grown
        assert len(history.steps) == 3
        assert history.n_increments == 3
        for rec in history.steps:
            assert len(rec.extensions) == 2
            assert rec.n_dofs > 0
            assert rec.residual < 1e-9

    def test_final_problem_matches_final_state(self, grown):
        _, history = grown
        layout = DofLayout.build(history.final_problem.emap)
        assert layout.total_dofs == history.final_state.layout.total_dofs
        assert history.final_problem.emap.n_tip == history.steps[-1].n_tip

    def test_length_grows_by_increment(self, grown):
        _, history = grown
        lengths = [sum(c.length for c in rec.cracks) for rec in history.steps]
        for prev, cur in zip(lengths, lengths[1:]):
            assert cur == pytest.approx(prev + 2 * 0.05, rel=1e-12)
        final = sum(c.length for c in history.final_cracks)
        assert final == pytest.approx(lengths[-1] + 2 * 0.05, rel=1e-12)

    def test_snapshots_chain(self, grown):
        _, history = grown
        for prev, cur in zip(history.steps, history.steps[1:]):
            assert cur.cracks[0].vertices.shape[0] == \
                prev.cracks[0].vertices.shape[0] + 2

    def test_mode_one_growth_stays_near_axis(self, grown):
        _, history = grown
        for c in history.final_cracks:
            assert np.abs(c.vertices[:, 1] - 0.5).max() < 0.02

    def test_trajectory_helper(self, grown):
        _, history = grown
        path = tip_trajectory(history, 0, 1)
        assert path.shape == (4, 2)
        assert np.all(np.diff(path[:, 0]) > 0)  # end tip keeps moving right
        with pytest.raises(KeyError):
            tip_trajectory(history, 9, 1)

    def test_resolve_purity(self, grown):
        config, history = grown
        last = history.steps[-1]
        again = make_config(
            mesh=config.mesh, cracks=last.cracks,
            schedule=LoadSchedule((last.load_factor,)),
        )
        _, sifs = run_stationary(again)
        for r_new, r_old in zip(sifs, last.sifs):
            assert r_new.K_I == pytest.approx(r_old.K_I, rel=1e-10)
            assert r_new.K_II == pytest.approx(r_old.K_II, rel=1e-10,
                                               abs=1e-10 * r_old.K_I)

    def test_determinism(self, grown):
        config, history = grown
        repeat = run_propagation(config)
        for a, b in zip(history.steps, repeat.steps):
            for ra, rb in zip(a.sifs, b.sifs):
                assert ra.K_I == rb.K_I
                assert ra.K_II == rb.K_II

    def test_factor_reuse_matches_fresh_factorization(self, grown_solves):
        assert len(grown_solves) == 3
        for k, (system, state) in enumerate(grown_solves):
            fresh = solve(system, state.load_factor)
            assert np.abs(state.u - fresh.u).max() <= 1e-12 * np.abs(fresh.u).max()
            stats = state.factor
            assert stats.fronts == system.tree.n_fronts > 1
            if k == 0:
                assert stats.fronts_refactored == stats.fronts
            else:
                assert 0 < stats.fronts_refactored < stats.fronts

    def test_increment_budget(self):
        config = make_config(
            mesh=pinned_mesh(11, 11), cracks=[center_crack(a=0.2)],
            schedule=LoadSchedule.uniform(4),
            propagation=PropagationParams(delta_a=0.04, max_increments=2),
        )
        history = run_propagation(config)
        assert history.n_increments == 2
        assert len(history.steps) == 3
        assert history.stop_reason == "increment budget exhausted"
        assert not history.steps[-1].extensions

    def test_high_toughness_blocks_growth(self):
        config = make_config(
            mesh=pinned_mesh(11, 11), cracks=[center_crack(a=0.2)],
            schedule=LoadSchedule.uniform(3),
            propagation=PropagationParams(delta_a=0.04, k_ic=1e12),
        )
        history = run_propagation(config)
        assert len(history.steps) == 3
        assert history.n_increments == 0
        assert history.stop_reason == "schedule exhausted"
        assert sum(c.length for c in history.final_cracks) == \
            pytest.approx(0.4, rel=1e-12)

    def test_boundary_freeze(self):
        crack = CrackPath(vertices=np.array([[0.35, 0.5], [0.75, 0.5]]), id=0)
        config = make_config(
            mesh=pinned_mesh(), cracks=[crack],
            schedule=LoadSchedule.uniform(5),
            propagation=PropagationParams(delta_a=0.1),
        )
        history = run_propagation(config)
        events = [e for rec in history.steps for e in rec.frozen]
        assert any(e.crack_id == 0 and e.tip_id == 1 for e in events)
        # once frozen, the end tip neither reports SIFs nor grows
        frozen_at = next(rec.step for rec in history.steps
                         if any(e.tip_id == 1 for e in rec.frozen))
        for rec in history.steps[frozen_at:]:
            assert all(r.tip_id != 1 for r in rec.sifs)
            assert all(e.tip_id != 1 for e in rec.extensions)
        # geometry stays inside the unit square
        for c in history.final_cracks:
            assert c.vertices[:, 0].max() < 1.0
        assert history.stop_reason in ("schedule exhausted",
                                       "all tips deactivated")

    def test_tip_without_a_domain_freezes(self):
        # Steps shorter than an element bring the end tip nearer the
        # boundary (0.1 off) than its smallest ring reaches, but not within
        # the clearance rule's reach (one element, 0.048): the rejected
        # domain freezes it, with the reason, and the run goes on.
        crack = CrackPath(vertices=np.array([[0.4013, 0.5013], [0.7013, 0.5013]]), id=0)
        config = make_config(
            mesh=pinned_mesh(), cracks=[crack],
            schedule=LoadSchedule.uniform(6),
            propagation=PropagationParams(delta_a=0.04),
        )
        history = run_propagation(config)
        events = [e for rec in history.steps for e in rec.frozen]
        assert [(e.crack_id, e.tip_id) for e in events] == [(0, 1)]
        assert events[0].reason.startswith("no domain around crack 0 tip 1 holds its tip element")
        assert history.n_increments == 6
        assert history.final_cracks[0].vertices[-1, 0] == pytest.approx(0.9011, abs=1e-3)

    @staticmethod
    def small_growth(steps):
        return make_config(mesh=pinned_mesh(11, 11), cracks=[center_crack(a=0.2)],
                           schedule=LoadSchedule.uniform(steps),
                           propagation=PropagationParams(delta_a=0.04))

    def test_solver_failure_ends_the_run_with_the_history_so_far(self, monkeypatch):
        calls = []

        def failing_second(system, load_factor=1.0, factor=None):
            calls.append(load_factor)
            if len(calls) == 2:
                raise SolverError("factorization broke down")
            return solve(system, load_factor, factor)

        monkeypatch.setattr(driver, "solve", failing_second)
        history = run_propagation(self.small_growth(3))
        assert calls == [1 / 3, 2 / 3]
        assert history.error == "[solve] factorization broke down"
        assert history.stop_reason == "solver failure"
        assert [rec.step for rec in history.steps] == [0]
        assert history.final_state.load_factor == 1 / 3
        # the first step's growth stands
        assert history.n_increments == 1
        assert history.final_cracks[0].length == pytest.approx(0.48, rel=1e-12)

    def test_refused_extension_freezes_its_tip_and_the_run_goes_on(self, monkeypatch):
        # The third growth (step 1, tip 0) is refused: that tip freezes with
        # the refusal as its reason, and the other tip grows to the end.
        calls = []

        def refusing_third(crack, tip_id, theta_c, delta_a):
            calls.append((crack.id, tip_id))
            if len(calls) == 3:
                raise CrackGeometryError(f"crack {crack.id}: extension at tip {tip_id} refused")
            return extend_crack(crack, tip_id, theta_c, delta_a)

        monkeypatch.setattr(driver, "extend_crack", refusing_third)
        history = run_propagation(self.small_growth(3))
        assert calls == [(0, 0), (0, 1), (0, 0), (0, 1), (0, 1)]
        assert [[(e.tip_id, e.reason) for e in rec.frozen] for rec in history.steps] == \
            [[], [(0, "crack 0: extension at tip 0 refused")], []]
        assert [[e.tip_id for e in rec.extensions] for rec in history.steps] == \
            [[0, 1], [1], [1]]
        assert [[r.tip_id for r in rec.sifs] for rec in history.steps] == [[0, 1], [0, 1], [1]]
        assert history.stop_reason == "schedule exhausted" and history.error is None
        assert history.final_cracks[0].n_segments == 5
        np.testing.assert_array_equal(tip_trajectory(history, 0, 0)[-1],
                                      history.final_cracks[0].vertices[0])

    def test_set_radius_too_small_fails(self):
        # a configured radius short of the tip element is an input error,
        # not a tip without a domain
        config = make_config(
            mesh=pinned_mesh(), cracks=[center_crack()],
            contour=ContourSpec(rule="absolute", value=0.01),
            schedule=LoadSchedule.uniform(2),
            propagation=PropagationParams(delta_a=0.04),
        )
        with pytest.raises(FractureError, match="radius 0.01 .* does not hold its tip element"):
            run_propagation(config)


class TestCodProfile:
    @pytest.fixture()
    def solved(self, stationary_run):
        _, problem, state, _ = stationary_run
        return problem, state

    def test_profile_shape_and_symmetry(self, solved):
        problem, state = solved
        prof = cod_profile(state, problem.mesh, problem.emap, 0, n_samples=81)
        assert prof.shape == (81, 4)
        assert prof[0, 0] == 0.0
        assert prof[-1, 0] == pytest.approx(0.3)
        mid = prof[40, 3]
        assert mid > 0.0
        # opening profile symmetric about the crack center
        sym_err = np.abs(prof[:, 3] - prof[::-1, 3]).max()
        assert sym_err < 0.02 * mid
        # largest near the middle, smallest near the tips
        assert mid == pytest.approx(prof[:, 3].max(), rel=0.02)
        assert prof[2, 3] < 0.5 * mid

    def test_opening_is_the_jump_of_the_evaluated_field(self, solved):
        # Across the face the evaluated displacement jumps by the opening,
        # also where the corners carry branch functions and no Heaviside jump.
        # The probes sit where crack_opening puts its own, 1e-9 element sizes
        # off the crack, so the branch functions take the same r there.
        problem, state = solved
        mesh, emap = problem.mesh, problem.emap
        profile = cod_profile(state, mesh, emap, 0, n_samples=61)
        xs, normal = profile[:, 1:3], np.array([0.0, 1.0])  # the crack runs along +x
        probe = 1e-9 * mesh.element_sizes.max() * normal
        up, down = (evaluate_fields(xs + d, mesh, emap, state.fields, want_grad=False)[0]
                    for d in (probe, -probe))
        assert np.count_nonzero(emap.kinds[locate_points(mesh, xs)[0]] == 3) >= 4
        np.testing.assert_allclose(profile[:, 3], (up - down) @ normal, rtol=0.0,
                                   atol=1e-6 * profile[:, 3].max())

    def test_positions_follow_the_arc_length(self):
        # A kinked crack: each sample sits on the polyline, its arc length
        # from the start vertex away.
        vertices = np.array([[0.35, 0.46], [0.5, 0.5], [0.65, 0.465]])
        config = make_config(mesh=pinned_mesh(), cracks=[CrackPath(vertices=vertices, id=0)])
        problem = setup_problem(config)
        state, _ = run_stationary(config, problem=problem)
        prof = cod_profile(state, problem.mesh, problem.emap, 0, n_samples=9)
        crack = problem.emap.cracks[0]
        np.testing.assert_array_equal(crack.vertices, vertices)  # not perturbed
        first = np.linalg.norm(vertices[1] - vertices[0])
        np.testing.assert_allclose(prof[[0, -1], 1:3], vertices[[0, -1]], atol=1e-15)
        np.testing.assert_allclose(signed_distance_batch(crack, prof[:, 1:3]), 0.0, atol=1e-15)
        along = np.where(prof[:, 0] <= first,
                         np.linalg.norm(prof[:, 1:3] - vertices[0], axis=1),
                         first + np.linalg.norm(prof[:, 1:3] - vertices[1], axis=1))
        np.testing.assert_allclose(along, prof[:, 0], rtol=0.0, atol=1e-15)

    def test_linearity(self, solved):
        problem, state = solved
        config = make_config(mesh=problem.mesh, cracks=[center_crack()],
                             schedule=LoadSchedule((0.25, 0.5)))
        state_half, _ = run_stationary(config)
        full = cod_profile(state, problem.mesh, problem.emap, 0, n_samples=11)
        half = cod_profile(state_half, problem.mesh, problem.emap, 0,
                           n_samples=11)
        np.testing.assert_allclose(half[:, 3], 0.5 * full[:, 3], rtol=1e-9,
                                   atol=1e-9 * full[:, 3].max())

    def test_zero_state_zero_profile(self, solved):
        problem, _ = solved
        config = make_config(mesh=problem.mesh, cracks=[center_crack()],
                             bcs=tension_bcs(traction=(0.0, 0.0)))
        state, _ = run_stationary(config)
        prof = cod_profile(state, problem.mesh, problem.emap, 0)
        assert np.all(prof[:, 3] == 0.0)

    def test_unknown_crack(self, solved):
        problem, state = solved
        with pytest.raises(ValueError, match="unknown crack"):
            cod_profile(state, problem.mesh, problem.emap, 7)

    def test_tiny_crack_rejected(self):
        h = 1.0 / 5
        tiny = CrackPath(
            vertices=np.array([[2.2 * h, 2.4 * h], [2.8 * h, 2.6 * h]]), id=0)
        config = make_config(mesh=pinned_mesh(5, 5), cracks=[tiny])
        problem = setup_problem(config)
        # no domain around either tip fits in the crack: both go unresolved
        unresolved = []
        state, sifs = run_stationary(config, problem=problem, unresolved=unresolved)
        assert sifs == ()
        assert [(e.crack_id, e.tip_id) for e in unresolved] == [(0, 0), (0, 1)]
        assert all(e.reason.startswith(f"no domain around crack 0 tip {e.tip_id} holds "
                                       "its tip element") for e in unresolved)
        with pytest.raises(ValueError, match="single"):
            cod_profile(state, problem.mesh, problem.emap, 0)

    def test_sample_count_guard(self, solved):
        problem, state = solved
        with pytest.raises(ValueError, match="two samples"):
            cod_profile(state, problem.mesh, problem.emap, 0, n_samples=1)


class TestEnergyErrorNorm:
    @pytest.fixture()
    def solved(self, stationary_run):
        _, problem, state, _ = stationary_run
        return problem, state

    def test_self_reference_is_zero(self, solved):
        problem, state = solved
        # the solved strain, evaluated by point location off the crack faces
        def ref(xs):
            return stress_strain_batch(xs, state, problem.mesh, problem.emap, STEEL)[0]

        err = energy_error_norm(state, problem.mesh, problem.emap, STEEL, ref)
        scale = energy_error_norm(state, problem.mesh, problem.emap, STEEL,
                                  lambda xs: np.zeros((len(xs), 3)))
        assert err < 1e-10 * scale

    def test_exact_constant_strain_reference(self):
        # uniaxial stretch on an uncracked mesh against its exact strain
        mesh = pinned_mesh(8, 8)
        delta = 1e-4
        config = make_config(
            mesh=mesh, cracks=[],
            bcs=(
                BoundaryCondition("bottom", "displacement", (None, 0.0)),
                BoundaryCondition("pin", "displacement", (0.0, None)),
                BoundaryCondition("top", "displacement", (None, delta)),
            ),
        )
        problem = setup_problem(config)
        state, _ = run_stationary(config, problem=problem)
        eyy = delta / 1.0
        exx = -STEEL.nu / (1.0 - STEEL.nu) * eyy

        def exact(xs):
            out = np.zeros((len(xs), 3))
            out[:, 0] = exx
            out[:, 1] = eyy
            return out

        err = energy_error_norm(state, problem.mesh, problem.emap, STEEL,
                                exact)
        scale = energy_error_norm(state, problem.mesh, problem.emap, STEEL,
                                  lambda xs: np.zeros((len(xs), 3)))
        assert err < 1e-10 * scale

    def test_constant_reference_integrates_the_whole_area(self):
        # an unloaded state against a constant strain: the norm squared is
        # the energy density times the area, 3 here, whatever the rules of
        # the cut and tip elements
        grid = uniform_rect(2.0, 1.5, 20, 15)
        mesh = Mesh(nodes=grid.nodes, elements=grid.elements,
                    boundary_tags={**grid.boundary_tags, "pin": np.array([0])})
        config = make_config(mesh=mesh, cracks=[center_crack(a=0.25, y=0.75)],
                             bcs=tension_bcs(traction=(0.0, 0.0)))
        problem = setup_problem(config)
        state, _ = run_stationary(config, problem=problem)
        const = np.array([1e-4, -2e-4, 3e-4])
        err = energy_error_norm(state, problem.mesh, problem.emap, STEEL,
                                lambda xs: np.broadcast_to(const, (len(xs), 3)))
        density = const @ assembly.elasticity_matrix(STEEL) @ const
        assert err == pytest.approx(math.sqrt(3.0 * density), rel=1e-12)
