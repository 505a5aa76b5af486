"""Result emission: SIF/COD tables, field dumps, and run logs."""

import math

import numpy as np
import pytest

from xfem2d.assembly import (
    BoundaryCondition,
    DofLayout,
    MaterialModel,
    SolutionState,
    elasticity_matrix,
    voigt_strain,
)
from xfem2d.config import ContourSpec, RunConfig
from xfem2d.cracks import CrackPath, signed_distance_batch
from xfem2d.driver import (
    LoadSchedule,
    PropagationParams,
    RunHistory,
    StepRecord,
    run_propagation,
    run_stationary,
    setup_problem,
    stationary_history,
)
from xfem2d.enrichment import (
    TIP,
    FieldTriplet,
    classify_with_remedy,
    crack_opening,
    element_fields,
    evaluate_fields,
)
from xfem2d.mesh import Mesh, element_geometry
from xfem2d.meshgen import uniform_rect
from xfem2d.output import (
    COD_HEADER,
    SIF_HEADER,
    read_sif_csv,
    write_cod_csv,
    write_field_dump,
    write_run_log,
    write_sif_csv,
    _cell_stresses,
    _fmt,
    _node_displacements,
)

STEEL = MaterialModel(E=200e9, nu=0.3, plane_strain=True)
SIGMA = 1e6


def pinned_mesh(nx=21, ny=21):
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


@pytest.fixture(scope="module")
def stationary_run():
    config = make_config(mesh=pinned_mesh(), cracks=[center_crack()])
    problem = setup_problem(config)
    state, sifs = run_stationary(config, problem=problem)
    return config, problem, state, sifs


@pytest.fixture(scope="module")
def one_step_history(stationary_run):
    config, problem, state, sifs = stationary_run
    return stationary_history(problem, state, sifs)


@pytest.fixture(scope="module")
def grown():
    config = make_config(
        mesh=pinned_mesh(), cracks=[center_crack(a=0.1)],
        schedule=LoadSchedule.uniform(3),
        propagation=PropagationParams(delta_a=0.05),
    )
    return config, run_propagation(config)


# ---------------------------------------------------------------------------
# SIF table
# ---------------------------------------------------------------------------

class TestSifCsv:
    def test_header_and_row_count(self, one_step_history, tmp_path):
        path = tmp_path / "sif.csv"
        write_sif_csv(one_step_history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == SIF_HEADER
        assert len(lines) == 1 + 2  # one crack, both tips

    def test_lf_line_endings(self, one_step_history, tmp_path):
        path = tmp_path / "sif.csv"
        write_sif_csv(one_step_history, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_round_trip_to_nine_digits(self, one_step_history, tmp_path):
        path = tmp_path / "sif.csv"
        write_sif_csv(one_step_history, path)
        rows = read_sif_csv(path)
        rec = one_step_history.steps[0]
        assert len(rows) == len(rec.sifs)
        for row, res in zip(rows, rec.sifs):
            assert row["step"] == rec.step
            assert row["crack_id"] == res.crack_id
            assert row["tip_id"] == res.tip_id
            assert row["K_I"] == pytest.approx(res.K_I, rel=1e-8)
            assert row["K_II"] == pytest.approx(res.K_II, rel=1e-8, abs=1e-8)
            assert row["J"] == pytest.approx(res.J, rel=1e-8)
            assert row["theta_c_deg"] == pytest.approx(
                math.degrees(res.theta_c), rel=1e-8, abs=1e-8)
            assert row["a_eff"] == pytest.approx(res.a_eff, rel=1e-8)

    def test_propagation_rows_and_order(self, grown, tmp_path):
        _, history = grown
        path = tmp_path / "sif.csv"
        write_sif_csv(history, path)
        rows = read_sif_csv(path)
        assert len(rows) == sum(len(rec.sifs) for rec in history.steps)
        steps = [row["step"] for row in rows]
        assert steps == sorted(steps)
        factors = {row["step"]: row["load_factor"] for row in rows}
        assert factors[0] == pytest.approx(1.0 / 3.0, rel=1e-8)
        assert factors[2] == pytest.approx(1.0)

    def test_byte_identical_rewrites(self, grown, tmp_path):
        _, history = grown
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sif_csv(history, a)
        write_sif_csv(history, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no solved steps"):
            write_sif_csv(RunHistory(), tmp_path / "sif.csv")

    def test_reader_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("alpha,beta\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_sif_csv(path)


# ---------------------------------------------------------------------------
# COD table
# ---------------------------------------------------------------------------

class TestCodCsv:
    def test_schema_and_sample_count(self, stationary_run, tmp_path):
        config, problem, state, _ = stationary_run
        path = tmp_path / "cod.csv"
        write_cod_csv(state, problem.mesh, problem.emap, path, n_samples=41)
        lines = path.read_text().splitlines()
        assert lines[0] == COD_HEADER
        assert len(lines) == 1 + 41
        first = lines[1].split(",")
        assert len(first) == 7
        assert int(first[0]) == 0
        assert int(first[2]) == 0

    def test_positions_follow_the_crack(self, stationary_run, tmp_path):
        config, problem, state, _ = stationary_run
        path = tmp_path / "cod.csv"
        write_cod_csv(state, problem.mesh, problem.emap, path, n_samples=21)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        s, xs, ys, opening = data[:, 3], data[:, 4], data[:, 5], data[:, 6]
        assert xs[0] == pytest.approx(0.35)
        assert xs[-1] == pytest.approx(0.65)
        assert np.allclose(ys, 0.5)
        assert np.allclose(np.diff(s), s[1] - s[0])
        assert opening.max() > 0.0
        assert opening[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_element_crack_skipped(self, tmp_path):
        tiny = CrackPath(vertices=np.array([[0.51, 0.21], [0.54, 0.21]]), id=7)
        config = make_config(mesh=pinned_mesh(),
                             cracks=[center_crack(), tiny],
                             tip_enrichment=True)
        problem = setup_problem(config)
        state, _ = run_stationary(config, problem=problem)
        path = tmp_path / "cod.csv"
        write_cod_csv(state, problem.mesh, problem.emap, path, n_samples=11)
        ids = {int(line.split(",")[2])
               for line in path.read_text().splitlines()[1:]}
        assert ids == {0}

    def test_byte_identical_rewrites(self, stationary_run, tmp_path):
        config, problem, state, _ = stationary_run
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cod_csv(state, problem.mesh, problem.emap, a)
        write_cod_csv(state, problem.mesh, problem.emap, b)
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# field dump
# ---------------------------------------------------------------------------

def parse_vtk(text: str) -> dict:
    """Minimal legacy-file reader good enough for the assertions here."""
    lines = text.splitlines()
    out = {"points": [], "cells": [], "types": [], "vectors": [],
           "scalars": {}}
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("POINTS"):
            count = int(line.split()[1])
            for j in range(count):
                out["points"].append([float(v) for v in lines[i + 1 + j].split()])
            i += count
        elif line.startswith("CELLS"):
            count, total = int(line.split()[1]), int(line.split()[2])
            consumed = 0
            for j in range(count):
                parts = [int(v) for v in lines[i + 1 + j].split()]
                assert parts[0] == len(parts) - 1
                consumed += len(parts)
                out["cells"].append(parts[1:])
            assert consumed == total
            i += count
        elif line.startswith("CELL_TYPES"):
            count = int(line.split()[1])
            out["types"] = [int(lines[i + 1 + j]) for j in range(count)]
            i += count
        elif line.startswith("VECTORS"):
            count = len(out["points"])
            out["vectors"] = [
                [float(v) for v in lines[i + 1 + j].split()]
                for j in range(count)
            ]
            i += count
        elif line.startswith("SCALARS"):
            name = line.split()[1]
            count = len(out["cells"])
            out["scalars"][name] = [
                float(lines[i + 2 + j]) for j in range(count)
            ]
            i += count + 1
        i += 1
    out["points"] = np.array(out["points"])
    out["vectors"] = np.array(out["vectors"]) if out["vectors"] else None
    return out


@pytest.fixture(scope="module")
def dumped(stationary_run, tmp_path_factory):
    config, problem, state, _ = stationary_run
    path = tmp_path_factory.mktemp("dump") / "field.vtk"
    write_field_dump(state, problem.mesh, problem.emap, config.material, path)
    return problem, state, parse_vtk(path.read_text()), path


class TestFieldDump:
    def test_uncracked_dump_is_one_quad_per_element(self, tmp_path):
        mesh = pinned_mesh(6, 6)
        emap, _ = classify_with_remedy(mesh, ())
        layout = DofLayout.build(emap)
        fields = FieldTriplet.zeros(mesh.n_nodes)
        state = SolutionState(fields=fields, load_factor=1.0, layout=layout,
                              u=np.zeros(layout.total_dofs), residual=0.0)
        path = tmp_path / "flat.vtk"
        write_field_dump(state, mesh, emap, STEEL, path)
        data = parse_vtk(path.read_text())
        assert data["points"].shape[0] == mesh.n_nodes
        assert len(data["cells"]) == mesh.n_elements
        assert set(data["types"]) == {9}

    def test_rigid_translation_has_no_stress(self, tmp_path):
        mesh = pinned_mesh()
        emap, _ = classify_with_remedy(mesh, (center_crack(),))
        layout = DofLayout.build(emap)
        fields = FieldTriplet.zeros(mesh.n_nodes)
        fields.u_cont[:] = (0.003, -0.001)
        state = SolutionState(fields=fields, load_factor=1.0, layout=layout,
                              u=np.zeros(layout.total_dofs), residual=0.0)
        path = tmp_path / "rigid.vtk"
        write_field_dump(state, mesh, emap, STEEL, path)
        data = parse_vtk(path.read_text())
        assert np.all(np.abs(data["scalars"]["von_mises"]) < 1e-6)
        assert np.allclose(data["vectors"][:, 0], 0.003, atol=1e-12)
        assert np.allclose(data["vectors"][:, 1], -0.001, atol=1e-12)

    def test_cut_elements_become_two_polygons(self, dumped):
        problem, state, data, _ = dumped
        n_cut = len(problem.emap.cut_elements)
        assert n_cut > 0
        assert len(data["cells"]) == problem.mesh.n_elements + n_cut
        assert data["types"].count(7) == 2 * n_cut
        assert data["types"].count(9) == problem.mesh.n_elements - n_cut

    def test_crack_face_points_are_duplicated(self, dumped):
        problem, state, data, _ = dumped
        extras = data["points"][problem.mesh.n_nodes:, :2]
        assert extras.shape[0] == 4 * len(problem.emap.cut_elements)
        # Every private position appears an even number of times: one copy
        # per crack side.
        rounded = {}
        for p in extras:
            key = (round(p[0], 12), round(p[1], 12))
            rounded[key] = rounded.get(key, 0) + 1
        assert all(count % 2 == 0 for count in rounded.values())

    def test_displacement_jump_matches_opening(self, dumped):
        problem, state, data, _ = dumped
        base = problem.mesh.n_nodes
        eid = sorted(problem.emap.cut_elements)[2]
        k = sorted(problem.emap.cut_elements).index(eid)
        # Each cut element appends 4 points: chunk ends on the positive
        # side then the same two on the negative side.
        plus = data["vectors"][base + 4 * k: base + 4 * k + 2]
        minus = data["vectors"][base + 4 * k + 2: base + 4 * k + 4]
        pts = data["points"][base + 4 * k: base + 4 * k + 2, :2]
        # Negative-side points walk the chunk in reverse order.
        jump = plus[:, 1] - minus[::-1, 1]
        for point, value in zip(pts, jump):
            expected = crack_opening(point, state.fields, problem.mesh,
                                     problem.emap, 0)
            assert value == pytest.approx(expected, rel=2e-2, abs=1e-12)

    def test_all_cell_indices_valid(self, dumped):
        _, _, data, _ = dumped
        n_points = data["points"].shape[0]
        for cell in data["cells"]:
            assert all(0 <= i < n_points for i in cell)
        assert set(data["types"]) <= {7, 9}

    def test_stress_fields_attached_and_loaded(self, dumped):
        _, _, data, _ = dumped
        assert set(data["scalars"]) == {
            "stress_xx", "stress_yy", "stress_xy", "von_mises"}
        vm = np.array(data["scalars"]["von_mises"])
        assert np.all(vm >= 0.0)
        assert vm.max() > SIGMA  # concentration near the tips

    def test_uniform_tension_stress_values(self, tmp_path):
        config = make_config(mesh=pinned_mesh(6, 6))
        problem = setup_problem(config)
        state, _ = run_stationary(config, problem=problem)
        path = tmp_path / "plain.vtk"
        write_field_dump(state, problem.mesh, problem.emap,
                         config.material, path)
        data = parse_vtk(path.read_text())
        syy = np.array(data["scalars"]["stress_yy"])
        sxx = np.array(data["scalars"]["stress_xx"])
        sxy = np.array(data["scalars"]["stress_xy"])
        assert np.allclose(syy, SIGMA, rtol=1e-8)
        assert np.all(np.abs(sxx) < 1e-6 * SIGMA)
        assert np.all(np.abs(sxy) < 1e-6 * SIGMA)

    def test_byte_identical_rewrites(self, dumped, tmp_path):
        problem, state, _, path = dumped
        again = tmp_path / "again.vtk"
        write_field_dump(state, problem.mesh, problem.emap, STEEL, again)
        assert again.read_bytes() == path.read_bytes()


def node_lines(path, n_nodes):
    """The dump's displacement lines of the first ``n_nodes`` points."""
    lines = path.read_text().splitlines()
    at = lines.index("VECTORS displacement double") + 1
    return lines[at:at + n_nodes]


class TestNodeDisplacements:
    """Mesh-node displacements are read from the coefficients, not evaluated."""

    def test_equal_to_field_evaluation(self, dumped):
        problem, state, _, path = dumped
        mesh, emap = problem.mesh, problem.emap
        assert emap.n_tip > 0
        disp = _node_displacements(state.fields, mesh, emap)
        expected, _ = evaluate_fields(mesh.nodes, mesh, emap, state.fields, want_grad=False)
        assert np.abs(disp - expected).max() <= 1e-12 * np.abs(expected).max()
        assert node_lines(path, mesh.n_nodes) == [f"{_fmt(x)} {_fmt(y)} 0"
                                                  for x, y in disp.tolist()]

    def test_standard_coefficient_off_tip_nodes(self, dumped):
        problem, state, _, _ = dumped
        disp = _node_displacements(state.fields, problem.mesh, problem.emap)
        off = problem.emap.status != TIP
        np.testing.assert_array_equal(disp[off], state.fields.u_cont[off])
        assert np.all(disp[~off] != state.fields.u_cont[~off])

    def test_constrained_nodes_dump_exact_zero(self, dumped):
        problem, _, data, _ = dumped
        # tension_bcs: u_y = 0 along the bottom, u_x = 0 at the pin (node 0)
        assert np.all(data["vectors"][problem.mesh.boundary_tags["bottom"], 1] == 0.0)
        assert data["vectors"][0, 0] == 0.0


def _von_mises_oracle(sig, material):
    sxx, syy, sxy = sig.T
    szz = material.nu * (sxx + syy) if material.plane_strain else 0.0
    return np.sqrt(((sxx - syy) ** 2 + (syy - szz) ** 2 + (szz - sxx) ** 2) / 2.0
                   + 3.0 * sxy ** 2)


def element_by_element_stresses(state, mesh, emap, material, rules):
    """Oracle for the dumped cell stresses: each element on its own, at the
    points of its class's rule, through ``element_fields``; whole-element
    means and, for a bisected element, the means on each side."""
    fields = FieldTriplet(u_cont=state.fields.u_cont - state.fields.u_cont.mean(axis=0),
                          u_disc=state.fields.u_disc, u_tip=state.fields.u_tip)
    D = elasticity_matrix(material)
    rule_of = (rules.standard, rules.standard, rules.cut, rules.tip)
    m = mesh.n_elements
    sig_mean, vm_mean = np.empty((m, 3)), np.empty(m)
    side_sig, side_vm = np.empty((2, m, 3)), np.empty((2, m))
    for eid, kind in enumerate(emap.element_kinds(mesh).tolist()):
        rule = rule_of[kind]
        _, _, wdet, phys = element_geometry(mesh.element_coords([eid])[0], rule)
        _, grad = element_fields(mesh, emap, fields, np.full(rule.n_points, eid),
                                 rule.points, phys)
        sig = voigt_strain(grad) @ D.T
        vm = _von_mises_oracle(sig, material)
        sig_mean[eid], vm_mean[eid] = wdet @ sig / wdet.sum(), wdet @ vm / wdet.sum()
        plus = np.ones(rule.n_points, dtype=bool)
        if eid in emap.cut_elements:
            crack = emap.crack_by_id(emap.cut_elements[eid])
            plus = signed_distance_batch(crack, phys) > 0.0
        for side, mask in enumerate((plus, ~plus)):
            w = wdet * mask if mask.any() else wdet
            side_sig[side, eid], side_vm[side, eid] = w @ sig / w.sum(), w @ vm / w.sum()
    return sig_mean, vm_mean, side_sig, side_vm


class TestCellStresses:
    def test_every_class_matches_element_by_element(self, stationary_run):
        config, problem, state, _ = stationary_run
        mesh, emap = problem.mesh, problem.emap
        kinds = emap.element_kinds(mesh)
        assert set(kinds.tolist()) == {0, 1, 2, 3}
        # kind 3 also holds elements that only have tip-enriched corners
        assert np.count_nonzero(kinds == 3) > len(emap.tip_elements)
        got = _cell_stresses(state, mesh, emap, config.material, problem.rules)
        want = element_by_element_stresses(state, mesh, emap, config.material,
                                           problem.rules)
        for name, a, b in zip(("stress", "von Mises", "side stress", "side von Mises"),
                              got, want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


# ---------------------------------------------------------------------------
# run log
# ---------------------------------------------------------------------------

class TestRunLog:
    def test_stationary_log_contents(self, stationary_run, one_step_history,
                                     tmp_path):
        config, problem, state, _ = stationary_run
        path = tmp_path / "run.log"
        write_run_log(config, problem.mesh, one_step_history, path)
        text = path.read_text()
        assert f"{problem.mesh.n_nodes} nodes" in text
        assert f"{problem.mesh.n_elements} elements" in text
        assert f"|m_disc| = {problem.emap.n_heaviside}" in text
        assert f"|m_tip| = {problem.emap.n_tip}" in text
        assert f"dofs: {state.layout.total_dofs}" in text
        assert "residual:" in text
        assert "tip enrichment on" in text
        assert "crack 0 tip 0: K_I" in text
        assert "crack 0 tip 1: K_I" in text

    def test_propagation_log_has_step_blocks(self, grown, tmp_path):
        config, history = grown
        path = tmp_path / "run.log"
        write_run_log(config, pinned_mesh(), history, path)
        text = path.read_text()
        for rec in history.steps:
            assert f"step {rec.step}: load factor" in text
            f = rec.factor
            assert (f"  factor: {f.free_dofs} free dofs, {f.factor_entries} entries in L, "
                    f"{f.fronts_refactored} of {f.fronts} fronts refactored") in text
        assert text.count("  factor: ") == len(history.steps)
        for rec in history.steps:
            band = rec.classification
            assert (f"  classification: {band.clipped} of {band.crossed} crossed elements "
                    f"clipped and {band.measured} of {band.candidates} cut elements measured") in text
        assert text.count("  classification: ") == len(history.steps)
        assert text.count("extension: crack 0") == sum(
            len(rec.extensions) for rec in history.steps)
        assert "stop: schedule exhausted" in text
        assert f"growth steps applied: {history.n_increments}" in text

    def test_demotion_audit_lines(self, tmp_path):
        config = make_config(mesh=pinned_mesh(4, 4))
        record = StepRecord(
            step=0, load_factor=1.0, cracks=(), sifs=(),
            n_dofs=32, n_heaviside=0, n_tip=0, residual=3.5e-15,
            demotions=((7, 0.0013, "support area ratio below delta"),),
        )
        history = RunHistory(steps=[record], stop_reason="schedule exhausted")
        path = tmp_path / "run.log"
        write_run_log(config, config.mesh, history, path)
        text = path.read_text()
        assert "demotions: 1" in text
        assert "node 7: support area ratio below delta (ratio = 0.0013)" in text

    def test_byte_identical_rewrites(self, grown, tmp_path):
        config, history = grown
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        write_run_log(config, pinned_mesh(), history, a)
        write_run_log(config, pinned_mesh(), history, b)
        assert a.read_bytes() == b.read_bytes()


class TestStationaryHistory:
    def test_single_step_with_solver_metadata(self, stationary_run,
                                              one_step_history):
        config, problem, state, sifs = stationary_run
        history = one_step_history
        assert len(history.steps) == 1
        rec = history.steps[0]
        assert rec.sifs == tuple(sifs)
        assert rec.load_factor == state.load_factor
        assert rec.n_dofs == state.layout.total_dofs
        assert rec.n_heaviside == problem.emap.n_heaviside
        assert rec.n_tip == problem.emap.n_tip
        assert rec.factor is state.factor
        assert rec.classification is problem.emap.band
        assert rec.factor.fronts_refactored == rec.factor.fronts
        assert history.final_state is state
        assert history.final_cracks == problem.cracks
