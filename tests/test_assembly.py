"""Stiffness assembly and solver checks against closed-form states."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xfem2d.assembly import (
    AssemblyError,
    BoundaryCondition,
    DofLayout,
    ElementBlocks,
    LinearSystem,
    MaterialModel,
    QuadratureSet,
    ShapeTable,
    SolverError,
    StiffnessCache,
    apply_constraints,
    assemble,
    elasticity_matrix,
    solve,
    stress_strain_batch,
    _element_matrices,
)
from xfem2d import assembly, cholesky, enrichment
from xfem2d.benchmarks import hole_attraction_config, many_cracks_config, table1_config
from xfem2d.cholesky import FrontalCholesky, NodePairs, _extend_add_plan
from xfem2d.cracks import CrackGeometryError, CrackPath, extend_crack
from xfem2d.enrichment import (
    BASIS_FIELD,
    HEAVISIDE,
    TIP,
    EnrichmentError,
    FieldTriplet,
    classify_enrichment,
    classify_with_remedy,
    crack_opening,
    enriched_basis,
)
from xfem2d import mesh as mesh_module
from xfem2d import output
from xfem2d.driver import energy_error_norm
from xfem2d.fracture import tip_rings
from xfem2d.mesh import DissectionTree, Mesh, element_geometry, gauss_rule
from xfem2d.meshgen import uniform_rect
from xfem2d.output import write_field_dump

STEEL = MaterialModel(E=200e9, nu=0.3, plane_strain=True)


def uncracked(mesh):
    return classify_enrichment(mesh, [])


def assert_bit_equal(A, B):
    """Two CSR matrices with the same stored entries, bit for bit."""
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(A, name), getattr(B, name))


def solve_with(mesh, emap, material, bcs, extra_fixed=None):
    system = assemble(mesh, emap, material, bcs=bcs)
    constrained = apply_constraints(system, extra_fixed or {})
    return solve(constrained), system


class TestElasticityMatrix:
    def test_unit_modulus_zero_poisson(self):
        for plane_strain in (True, False):
            D = elasticity_matrix(MaterialModel(E=1.0, nu=0.0, plane_strain=plane_strain))
            np.testing.assert_allclose(D, np.diag([1.0, 1.0, 0.5]), atol=1e-15)

    def test_plane_strain_first_entry(self):
        D = elasticity_matrix(STEEL)
        expected = 200e9 * 0.7 / (1.3 * 0.4)
        assert D[0, 0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.6923e11, rel=1e-4)

    def test_symmetric_isotropic(self):
        D = elasticity_matrix(MaterialModel(E=71.7e9, nu=0.33, plane_strain=False))
        np.testing.assert_allclose(D, D.T, rtol=1e-15)
        assert D[0, 0] == D[1, 1]

    def test_material_validation(self):
        with pytest.raises(ValueError, match="positive"):
            MaterialModel(E=0.0, nu=0.3)
        with pytest.raises(ValueError, match="Poisson"):
            MaterialModel(E=1.0, nu=0.5)


class TestDofLayout:
    def test_counts_and_slots(self):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.15, 0.55], [0.85, 0.55]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        layout = DofLayout.build(emap)
        assert layout.total_dofs == 2 * 121 + 2 * 10 + 8 * 8
        hs = np.nonzero(layout.disc_slot >= 0)[0]
        assert np.all(np.diff(layout.disc_slot[hs]) > 0)  # ascending node order
        # node 0 has neither jump nor branch dofs
        np.testing.assert_array_equal(layout.column_dofs(np.zeros(2, dtype=int), np.array([1, 2])),
                                      -1)

    def test_scatter_round_trip(self):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.15, 0.55], [0.85, 0.55]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        layout = DofLayout.build(emap)
        rng = np.random.default_rng(5)
        u = rng.normal(size=layout.total_dofs)
        fields = layout.scatter(u)
        n = 121
        np.testing.assert_array_equal(fields.u_cont.ravel(), u[: 2 * n])
        # a specific enriched node round-trips
        node = int(np.nonzero(layout.disc_slot >= 0)[0][3])
        assert fields.u_disc[node, 1] == u[layout.column_dofs(node, 1)[1]]
        tnode = int(np.nonzero(layout.tip_slot >= 0)[0][2])
        assert fields.u_tip[tnode, 3, 0] == u[layout.column_dofs(tnode, 2 + 3)[0]]
        # zero rows where enrichment is absent
        assert np.all(fields.u_disc[layout.disc_slot < 0] == 0.0)


def patch_mesh():
    """2x2-element patch with a displaced interior node and bent edges."""
    nodes = np.array(
        [
            [0.0, 0.0], [0.55, 0.0], [1.0, 0.0],
            [0.0, 0.45], [0.52, 0.58], [1.0, 0.5],
            [0.0, 1.0], [0.47, 1.0], [1.0, 1.0],
        ]
    )
    elements = np.array([[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7]])
    tags = {
        "left": np.array([0, 3, 6]),
        "right": np.array([2, 5, 8]),
        "bottom": np.array([0, 1, 2]),
        "top": np.array([6, 7, 8]),
    }
    return Mesh(nodes=nodes, elements=elements, boundary_tags=tags)


class TestPatchTest:
    def test_constant_stress_reproduced(self):
        mesh = patch_mesh()
        emap = uncracked(mesh)
        sigma = np.array([1.3e6, 0.8e6, 0.4e6])  # xx, yy, xy
        bcs = [
            BoundaryCondition("left", "traction", (-sigma[0], -sigma[2])),
            BoundaryCondition("right", "traction", (sigma[0], sigma[2])),
            BoundaryCondition("bottom", "traction", (-sigma[2], -sigma[1])),
            BoundaryCondition("top", "traction", (sigma[2], sigma[1])),
        ]
        # gauge: pin node 0 fully and u_y of node 2 (consistent with the
        # exact field u_x = exx x + gxy y, u_y = eyy y)
        extra = {0: 0.0, 1: 0.0, 5: 0.0}
        state, system = solve_with(mesh, emap, STEEL, bcs, extra)

        eps = np.linalg.solve(elasticity_matrix(STEEL), sigma)
        exact = np.column_stack(
            [
                eps[0] * mesh.nodes[:, 0] + eps[2] * mesh.nodes[:, 1],
                eps[1] * mesh.nodes[:, 1],
            ]
        )
        scale = np.abs(exact).max()
        assert np.abs(state.fields.u_cont - exact).max() < 1e-10 * scale

        _, sig = stress_strain_batch([(0.3, 0.3), (0.7, 0.6), (0.51, 0.52)], state, mesh, emap,
                                     STEEL)
        for row in sig:
            np.testing.assert_allclose(row, sigma, rtol=1e-9)

    def test_work_balance(self):
        mesh = uniform_rect(1.0, 1.0, 8, 8)
        emap = uncracked(mesh)
        bcs = [
            BoundaryCondition("bottom", "displacement", (None, 0.0)),
            BoundaryCondition("top", "traction", (0.0, 2e6)),
        ]
        pin = {0: 0.0}
        state, system = solve_with(mesh, emap, STEEL, bcs, pin)
        external = float(system.f @ state.u)
        internal = float(state.u @ (system.K @ state.u))
        assert external == pytest.approx(internal, rel=1e-9)


class TestUniaxialOracle:
    def test_prescribed_stretch_gives_plane_strain_modulus(self):
        mesh = uniform_rect(1.0, 1.0, 8, 8)
        emap = uncracked(mesh)
        delta = 1e-3
        bcs = [
            BoundaryCondition("bottom", "displacement", (None, 0.0)),
            BoundaryCondition("top", "displacement", (None, delta)),
        ]
        pin = {0: 0.0}  # u_x of node 0
        state, _ = solve_with(mesh, emap, STEEL, bcs, pin)
        e_prime = STEEL.E / (1.0 - STEEL.nu**2)
        expected = e_prime * delta  # height H = 1
        _, sig = stress_strain_batch([(0.31, 0.42), (0.77, 0.18), (0.5, 0.93)], state, mesh,
                                     emap, STEEL)
        np.testing.assert_allclose(sig[:, 1], expected, rtol=1e-9)
        assert np.abs(sig[:, [0, 2]]).max() < 1e-9 * expected


class TestRigidBodyStrain:
    def test_translation_and_rotation_give_zero_strain(self):
        mesh = uniform_rect(1.0, 1.0, 6, 6)
        crack = CrackPath(vertices=np.array([[0.22, 0.41], [0.71, 0.44]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        layout = DofLayout.build(emap)
        fields = FieldTriplet.zeros(mesh.n_nodes)
        omega = 0.5
        fields.u_cont[:, 0] = 0.37 - omega * mesh.nodes[:, 1]
        fields.u_cont[:, 1] = -0.81 + omega * mesh.nodes[:, 0]
        state = type("S", (), {})()
        state.fields = fields
        probes = np.array([[0.1, 0.1], [0.55, 0.6], [0.9, 0.2]])
        eps, _ = stress_strain_batch(probes, state, mesh, emap, STEEL)
        assert np.abs(eps).max() < 1e-12


class TestCutStrip:
    def test_opening_equals_prescribed_displacement(self):
        mesh = uniform_rect(1.0, 3.0, 1, 3)
        crack = CrackPath(
            vertices=np.array([[-0.01, 1.55], [1.01, 1.55]]),
            tip_start=False,
            tip_end=False,
            id=0,
        )
        emap = classify_enrichment(mesh, [crack])
        delta = 2e-4
        bcs = [
            BoundaryCondition("bottom", "displacement", (0.0, 0.0)),
            BoundaryCondition("top", "displacement", (0.0, delta)),
        ]
        state, system = solve_with(mesh, emap, STEEL, bcs)
        # both halves move rigidly: no stored energy, full opening
        energy = 0.5 * float(state.u @ (system.K @ state.u))
        assert energy < 1e-9 * STEEL.E * delta**2
        for x in (0.2, 0.5, 0.8):
            opening = crack_opening((x, 1.55), state.fields, mesh, emap, 0)
            assert opening == pytest.approx(delta, rel=1e-8)
        _, sig = stress_strain_batch([(0.5, 0.4)], state, mesh, emap, STEEL)
        assert np.abs(sig).max() < 1e-6 * STEEL.E * delta

    def test_crack_parallel_to_load_is_transparent(self):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.55, 0.15], [0.55, 0.85]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        sigma = 1e6
        bcs = [
            BoundaryCondition("bottom", "displacement", (None, 0.0)),
            BoundaryCondition("top", "traction", (0.0, sigma)),
        ]
        pin = {0: 0.0}
        state, system = solve_with(mesh, emap, STEEL, bcs, pin)
        # The non-conforming quadrature leaves a small residual coupling,
        # so the enriched share is small but not machine zero.
        scale = np.abs(state.fields.u_cont).max()
        assert np.abs(state.fields.u_disc).max() < 1e-2 * scale
        # branch coefficients scale like displacement / sqrt(length)
        assert np.abs(state.fields.u_tip).max() < 5e-2 * scale
        _, sig = stress_strain_batch([(0.2, 0.3), (0.8, 0.7), (0.53, 0.5)], state, mesh, emap,
                                     STEEL)
        np.testing.assert_allclose(sig[:, 1], sigma, rtol=1e-3)
        e_prime = STEEL.E / (1.0 - STEEL.nu**2)
        energy = 0.5 * float(state.u @ (system.K @ state.u))
        assert energy == pytest.approx(sigma**2 / (2 * e_prime), rel=1e-3)


class TestEnrichedLoads:
    def test_jump_load_of_a_crossed_traction_edge(self):
        # The crack leaves through the top edge at x_c.  Node n's jump
        # factor is H_other - H_n beyond the crossing and zero before it,
        # so its load is t_y L (H_other - H_n) (1 - t_c)^2 / 2, with t_c
        # the crossing's distance from n over the edge length L.
        mesh = uniform_rect(1.0, 1.0, 8, 8)
        x_c, ty, L = 0.537, 2.5e6, 1.0 / 8
        crack = CrackPath(vertices=np.array([[x_c, 1.01], [x_c, 0.6]]),
                          tip_start=False, id=0)
        emap = classify_enrichment(mesh, [crack])
        system = assemble(mesh, emap, STEEL,
                          bcs=[BoundaryCondition("top", "traction", (0.0, ty))])
        top = [n for n in mesh.boundary_tags["top"].tolist()
               if emap.status[n] == HEAVISIDE]
        assert sorted(mesh.nodes[top, 0].tolist()) == [0.5, 0.625]
        for n, other in (top, top[::-1]):
            t_c = abs(x_c - mesh.nodes[n, 0]) / L
            expected = ty * L * (emap.node_sign[other] - emap.node_sign[n]) * (1 - t_c) ** 2 / 2
            assert expected != 0.0
            x, y = system.layout.column_dofs(n, 1)
            assert system.f[y] == pytest.approx(expected, rel=1e-12)
            assert system.f[x] == 0.0

    def test_gravity_column_nodal_values_exact(self):
        # Rollers on both sides and a fixed base leave a uniaxial-strain
        # column: sigma_yy = b (H - y), so u_y = (b / D11)(H y - y^2 / 2),
        # which bilinear elements reproduce at the nodes.
        height, b = 2.0, -7.5e4
        material = MaterialModel(E=200e9, nu=0.3, body_force=(0.0, b))
        mesh = uniform_rect(1.0, height, 3, 8)
        bcs = [
            BoundaryCondition("left", "displacement", (0.0, None)),
            BoundaryCondition("right", "displacement", (0.0, None)),
            BoundaryCondition("bottom", "displacement", (None, 0.0)),
        ]
        state, _ = solve_with(mesh, uncracked(mesh), material, bcs)
        y = mesh.nodes[:, 1]
        expected = b / elasticity_matrix(material)[1, 1] * (height * y - y**2 / 2)
        err = np.abs(state.fields.u_cont[:, 1] - expected).max()
        assert err <= 1e-12 * np.abs(expected).max()

    def test_body_force_on_a_cracked_mesh_sums_to_the_total(self):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.15, 0.55], [0.85, 0.55]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        body = (3.0e3, -7.0e4)
        material = MaterialModel(E=200e9, nu=0.3, body_force=body)
        system = assemble(mesh, emap, material)
        f = system.f[:2 * mesh.n_nodes].reshape(-1, 2)
        np.testing.assert_allclose(f.sum(axis=0), body, rtol=1e-12)  # area 1
        assert np.abs(system.f[2 * mesh.n_nodes:]).max() > 0.0


class TestEnrichmentConsistency:
    def test_zeroed_enrichment_matches_plain_fem(self):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.15, 0.55], [0.85, 0.55]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        layout = DofLayout.build(emap)
        bcs = [
            BoundaryCondition("bottom", "displacement", (None, 0.0)),
            BoundaryCondition("top", "traction", (0.0, 1e6)),
        ]
        pin = {0: 0.0}
        frozen = dict(pin)
        frozen.update(
            {d: 0.0 for d in range(2 * mesh.n_nodes, layout.total_dofs)}
        )
        cracked_state, _ = solve_with(mesh, emap, STEEL, bcs, frozen)
        plain_state, _ = solve_with(mesh, uncracked(mesh), STEEL, bcs, pin)
        scale = np.abs(plain_state.fields.u_cont).max()
        diff = np.abs(cracked_state.fields.u_cont - plain_state.fields.u_cont).max()
        assert diff < 1e-10 * scale


class TestSystemStructure:
    def test_stiffness_symmetric(self):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.15, 0.55], [0.85, 0.55]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        system = assemble(mesh, emap, STEEL)
        asym = sp.csr_matrix(abs(system.K - system.K.T))
        assert asym.max() < 1e-9 * abs(system.K).max()

    def test_csr_arrays_hold_only_the_stored_entries(self):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.15, 0.55], [0.85, 0.55]]), id=0)
        K = assemble(mesh, classify_enrichment(mesh, [crack]), STEEL).K
        for a in (K.data, K.indices):
            assert (a if a.base is None else a.base).size == K.nnz

    def test_rigid_body_mode_counts(self):
        mesh = uniform_rect(1.0, 1.0, 4, 4)
        plain = assemble(mesh, uncracked(mesh), STEEL)
        ev = np.linalg.eigvalsh(plain.K.toarray())
        assert ev[2] / ev[3] < 1e-8  # three rigid modes

        crack = CrackPath(
            vertices=np.array([[-0.01, 0.625], [1.01, 0.625]]),
            tip_start=False,
            tip_end=False,
            id=0,
        )
        emap = classify_enrichment(mesh, [crack])
        cut = assemble(mesh, emap, STEEL)
        ev = np.linalg.eigvalsh(cut.K.toarray())
        assert ev[5] / ev[6] < 1e-8  # each half contributes three


class TestStandardStiffness:
    def test_prebuilt_block_gives_the_same_system(self):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.15, 0.55], [0.85, 0.55]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        rules = QuadratureSet.from_targets()
        cache = StiffnessCache(mesh, STEEL, rules)
        fresh = assemble(mesh, emap, STEEL)
        for _ in range(2):  # the second assembly reuses every cut element
            reused = assemble(mesh, emap, STEEL, cache=cache)
            assert_bit_equal(reused.K, fresh.K)
            np.testing.assert_array_equal(fresh.f, reused.f)

    def test_non_finite_standard_stiffness_is_refused_by_the_cache(self):
        # A modulus whose element matrices overflow: the cache's standard
        # pairs, summed and checked once per mesh, refuse it, and so does
        # an assembly at that cache.
        mesh = uniform_rect(1.0, 1.0, 4, 4)
        material = MaterialModel(E=1e308, nu=0.3)
        cache = StiffnessCache(mesh, material, QuadratureSet.from_targets())
        with pytest.raises(AssemblyError, match="^non-finite stiffness entry$"):
            cache.pairs
        with pytest.raises(AssemblyError, match="^non-finite stiffness entry$"):
            assemble(mesh, classify_enrichment(mesh, []), material, cache=cache)

    def test_elements_of_one_shape_share_bits(self):
        # The table holds one matrix per distinct corner-offset pattern, and
        # elements share an id exactly when their offsets are equal bit for bit.
        mesh = table1_config(5.0).mesh
        table = StiffnessCache(mesh, STEEL, QuadratureSet.from_targets()).standard
        xy = mesh.element_coords()
        offsets = (xy - xy[:, :1]).reshape(-1, 8).view(np.int64)
        shapes, inverse = np.unique(offsets, axis=0, return_inverse=True)
        assert len(shapes) < mesh.n_elements // 10
        assert table.matrices.shape == (len(shapes), 8, 8)
        inverse = inverse.ravel()
        np.testing.assert_array_equal(np.unique(inverse * len(shapes) + table.ids).size,
                                      len(shapes))
        assert np.unique(table.ids).size == len(shapes)

    def test_cache_holds_nothing_per_element_matrix(self):
        # After an assembly and a solve, no array of the cache or of its
        # table grows with the element count times 64.
        config = table1_config(5.0)
        mesh, rules = config.mesh, QuadratureSet.from_targets()
        cache = StiffnessCache(mesh, config.material, rules)
        emap = classify_enrichment(mesh, list(config.cracks))
        solve(assemble(mesh, emap, config.material, config.bcs, cache=cache))
        held = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
        held += [v for v in vars(cache.standard).values() if isinstance(v, np.ndarray)]
        held += [getattr(cache.pairs, name) for name in ("row", "col", "slot", "blocks", "ptr")]
        assert all(a.size < 64 * mesh.n_elements for a in held)
        assert not any(a.shape == (mesh.n_elements, 8, 8) for a in held)
        assert cache.standard.elements is mesh.elements  # the mesh's own array

    def test_exact_translation_keeps_every_bit(self):
        # Corners on a 2**-20 grid, so adding (1e3, -7e2) is exact; every
        # element has its own shape.
        mesh = uniform_rect(1.0, 0.5, 16, 8)
        rng = np.random.default_rng(4)
        nodes = mesh.nodes + rng.integers(-600, 601, size=mesh.nodes.shape) * 2.0**-20
        rules = QuadratureSet.from_targets()
        a, b = (StiffnessCache(Mesh(nodes + shift, mesh.elements), STEEL, rules).standard
                for shift in ([0.0, 0.0], [1e3, -7e2]))
        assert len(np.unique(a.matrices.reshape(len(a.matrices), -1), axis=0)) == mesh.n_elements
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.matrices.view(np.int64), b.matrices.view(np.int64))

    @pytest.mark.parametrize("name", ["plate", "hole", "perturbed plate"])
    def test_match_each_element_integrated_alone(self, name):
        mesh = hole_attraction_config().mesh if name == "hole" else table1_config(12.5).mesh
        if name == "perturbed plate":  # interior nodes moved by up to 1 % of the least size
            rng = np.random.default_rng(9)
            inside = np.ones(mesh.n_nodes, dtype=bool)
            inside[np.concatenate(list(mesh.boundary_tags.values()))] = False
            nodes = mesh.nodes + inside[:, None] * rng.uniform(
                -0.01, 0.01, size=mesh.nodes.shape) * mesh.element_sizes.min()
            mesh = Mesh(nodes, mesh.elements)
        rules = QuadratureSet.from_targets()
        _, dN, wdet, _ = element_geometry(mesh.element_coords(), rules.standard)
        expected = _element_matrices(dN, wdet, elasticity_matrix(STEEL))
        got = StiffnessCache(mesh, STEEL, rules).standard.take(np.arange(mesh.n_elements))
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_block_of_another_material_rejected(self):
        mesh = uniform_rect(1.0, 1.0, 4, 4)
        rules = QuadratureSet.from_targets()
        soft = MaterialModel(E=1e9, nu=0.3)
        cache = StiffnessCache(mesh, soft, rules)
        with pytest.raises(AssemblyError, match="another mesh"):
            assemble(mesh, uncracked(mesh), STEEL, cache=cache)


class TestConstraints:
    def test_enriched_node_on_a_fixed_edge_keeps_no_enrichment(self):
        # An edge crack's mouth lies on the fixed left edge: the jump dofs
        # of the two mouth nodes are prescribed at 0 and solve to 0, while
        # the crack still opens through the other jump nodes.
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.0, 0.55], [0.45, 0.55]]), tip_start=False,
                          id=0)
        emap = classify_enrichment(mesh, [crack])
        left = mesh.boundary_tags["left"]
        mouth = left[emap.status[left] == HEAVISIDE]
        np.testing.assert_allclose(mesh.nodes[mouth], [[0.0, 0.5], [0.0, 0.6]], atol=1e-15)
        bcs = [BoundaryCondition("left", "displacement", (0.0, 0.0)),
               BoundaryCondition("top", "traction", (0.0, 1e6))]
        system = assemble(mesh, emap, STEEL, bcs)
        jump = np.concatenate([system.layout.node_dofs([n])[0][2:] for n in mouth])
        assert jump.size == 4
        assert [system.fixed.get(d) for d in jump.tolist()] == [0.0] * 4
        state = solve(system)
        assert not state.u[jump].any() and not state.fields.u_disc[mouth].any()
        assert np.abs(state.fields.u_disc).max() > 0.0

    def test_all_fixed_to_zero(self):
        mesh = uniform_rect(1.0, 1.0, 4, 4)
        system = assemble(mesh, uncracked(mesh), STEEL)
        fixed = {d: 0.0 for d in range(system.layout.total_dofs)}
        state = solve(apply_constraints(system, fixed))
        assert np.abs(state.u).max() == 0.0

    def test_conflicting_prescriptions_rejected(self):
        mesh = uniform_rect(1.0, 1.0, 4, 4)
        emap = uncracked(mesh)
        bcs = [
            BoundaryCondition("left", "displacement", (0.0, None)),
            BoundaryCondition("bottom", "displacement", (1e-3, None)),
        ]
        # the corner node belongs to both tags with different u_x values
        with pytest.raises(AssemblyError, match="conflicting"):
            assemble(mesh, emap, STEEL, bcs=bcs)

    def test_conflict_in_extra_fixed(self):
        mesh = uniform_rect(1.0, 1.0, 2, 2)
        system = assemble(mesh, uncracked(mesh), STEEL)
        system.fixed[0] = 1.0
        with pytest.raises(AssemblyError, match="conflicting"):
            apply_constraints(system, {0: 2.0})

    def test_prescribed_values_returned_exactly(self):
        mesh = uniform_rect(1.0, 1.0, 4, 4)
        emap = uncracked(mesh)
        delta = 3.7e-4
        bcs = [
            BoundaryCondition("bottom", "displacement", (0.0, 0.0)),
            BoundaryCondition("top", "displacement", (None, delta)),
        ]
        state, _ = solve_with(mesh, emap, STEEL, bcs)
        top = mesh.boundary_tags["top"]
        np.testing.assert_allclose(state.fields.u_cont[top, 1], delta, rtol=1e-14)


def one_front(n_nodes):
    """Elimination tree with all nodes in one front, which any matrix fits."""
    return DissectionTree(order=np.arange(n_nodes), start=np.array([0, n_nodes]),
                          parent=np.array([-1]), row_start=np.array([0, 0]),
                          rows=np.empty(0, dtype=np.int64), lead=np.array([0]))


def plain_layout(n_nodes):
    return DofLayout(
        n_nodes=n_nodes,
        disc_slot=np.full(n_nodes, -1),
        tip_slot=np.full(n_nodes, -1),
        n_disc=0,
        n_tip=0,
    )


NO_ELEMENTS = ShapeTable(np.empty((0, 8, 8)), np.empty(0, dtype=np.int64),
                         np.empty((0, 4), dtype=np.int64))


def block(matrices, dofs):
    """Element matrices (e, m, m) over ``dofs`` (e, m) as one class of
    blocks: a single group, the elements numbered in order, each over m/2
    columns of its own."""
    return ElementBlocks(((matrices, dofs, np.arange(len(dofs))),),
                         (np.arange(dofs.shape[1] // 2)[None],))


def one_block(K, tree):
    """A dense matrix as one element block over all of its dofs, two per
    node of ``tree``, with no standard stiffness."""
    K = np.asarray(K, dtype=float)[None]
    blocks = (block(K, np.arange(K.shape[1])[None]),)
    pairs = NodePairs.sum(tree, [], (2 * tree.order[:, None] + [0, 1]).ravel(),
                          np.repeat(np.arange(tree.order.size), 2))
    return dict(standard=NO_ELEMENTS, blocks=blocks, pairs=pairs, tree=tree)


class TestSolver:
    def test_dense_oracle(self):
        rng = np.random.default_rng(42)
        A = rng.normal(size=(50, 50))
        K = A.T @ A + 50 * np.eye(50)
        f = rng.normal(size=50)
        system = LinearSystem(**one_block(K, one_front(25)), f=f, fixed={},
                              layout=plain_layout(25), stamps=np.zeros(25, dtype=np.int64))
        state = solve(system)
        expected = np.linalg.solve(K, f)
        assert np.abs(state.u - expected).max() < 1e-9 * np.abs(expected).max()

    def test_singular_system_reported(self):
        # Singular with a positive diagonal, so the factorization meets it.
        system = LinearSystem(**one_block(np.ones((2, 2)), one_front(1)),
                              f=np.array([1.0, 0.0]), fixed={}, layout=plain_layout(1),
                              stamps=np.zeros(1, dtype=np.int64))
        with pytest.raises(SolverError):
            solve(system)

    def test_indefinite_system_reported(self):
        # Nonsingular, eigenvalues 3 and -1: elimination without pivoting
        # gets through it, Cholesky must not.
        system = LinearSystem(**one_block([[1.0, 2.0], [2.0, 1.0]], one_front(1)),
                              f=np.array([1.0, 0.0]), fixed={}, layout=plain_layout(1),
                              stamps=np.zeros(1, dtype=np.int64))
        with pytest.raises(SolverError, match="positive definite"):
            solve(system)


def center_crack_with_tips():
    """Constrained system of a center crack whose two tips are enriched."""
    mesh = uniform_rect(1.0, 1.0, 20, 20)
    crack = CrackPath(vertices=np.array([[0.31, 0.52], [0.69, 0.52]]), id=0)
    emap = classify_enrichment(mesh, [crack])
    assert emap.n_tip == 8 and emap.n_heaviside > 0
    bcs = [
        BoundaryCondition("bottom", "displacement", (None, 0.0)),
        BoundaryCondition("top", "traction", (0.0, 1e6)),
    ]
    system = apply_constraints(assemble(mesh, emap, STEEL, bcs=bcs), {0: 0.0})
    return mesh, emap, system


class TestOrderedSolve:
    def test_agrees_with_spsolve(self):
        _, _, system = center_crack_with_tips()
        state = solve(system)
        # The fixed dofs are eliminated: they keep their values exactly and
        # the free ones solve the free-free block with the lifted load.
        fixed = np.array(sorted(system.fixed))
        free = np.setdiff1d(np.arange(system.layout.total_dofs), fixed)
        np.testing.assert_array_equal(state.u[fixed], [system.fixed[d] for d in fixed])
        assert state.factor.free_dofs == free.size
        lifted = system.f - system.K[:, fixed] @ state.u[fixed]
        expected = spla.spsolve(system.K[free][:, free].tocsc(), lifted[free])
        assert np.abs(state.u[free] - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_permutation_follows_node_order_with_dofs_together(self):
        mesh, emap, system = center_crack_with_tips()
        layout = system.layout
        perm = layout.node_dofs(system.tree.order)[0]
        np.testing.assert_array_equal(np.sort(perm), np.arange(layout.total_dofs))
        # standard pairs first, then jump pairs, then eight branch dofs per node
        jump, branch = 2 * mesh.n_nodes, 2 * mesh.n_nodes + 2 * layout.n_disc
        expected = []
        for n in mesh.nested_dissection_tree.order.tolist():
            expected += [2 * n, 2 * n + 1]
            if layout.disc_slot[n] >= 0:
                expected += [jump + 2 * layout.disc_slot[n] + c for c in (0, 1)]
            if layout.tip_slot[n] >= 0:
                expected += [branch + 8 * layout.tip_slot[n] + k for k in range(8)]
        np.testing.assert_array_equal(perm, expected)


class TestFactorReuse:
    def test_perturbed_element_refactors_its_path_to_the_root(self):
        mesh, _, system = center_crack_with_tips()
        tree = system.tree
        factor = FrontalCholesky()
        first = solve(system, factor=factor)
        assert first.factor.fronts_refactored == tree.n_fronts > 1
        # An element far from the crack and the constrained edges, stiffened
        # by a positive semidefinite block.
        eid = int(np.argmin(np.linalg.norm(mesh.element_centroids() - [0.1, 0.85], axis=1)))
        dofs = np.ravel(np.column_stack([2 * mesh.elements[eid], 2 * mesh.elements[eid] + 1]))
        stiffening = np.full((1, 8, 8), 1e-3 * abs(system.K).max())
        stamps = system.stamps.copy()  # as an assembly that changed the element
        stamps[mesh.elements[eid]] += 1
        stiffer = replace(system, blocks=system.blocks + (block(stiffening, dofs[None]),),
                          stamps=stamps)
        state = solve(stiffer, factor=factor)
        position = np.empty(mesh.n_nodes, dtype=np.int64)
        position[tree.order] = np.arange(mesh.n_nodes)
        front = np.searchsorted(tree.start, position[mesh.elements[eid]].min(), side="right") - 1
        path = [front]
        while tree.parent[path[-1]] >= 0:
            path.append(tree.parent[path[-1]])
        np.testing.assert_array_equal(factor.refactored, path)
        assert state.factor.fronts_refactored == len(path) < tree.n_fronts
        # The flops count the refactored fronts alone, each by its p pivots
        # and its panel's r rows and c columns.
        r, c = np.array([factor._panels[f][1].shape for f in path]).T
        p = np.diff(factor._pivots)[path]
        assert state.factor.flops == pytest.approx(np.sum(p**3 / 3 + c * c * r + c * r * r), abs=1)
        assert 0 < state.factor.flops < first.factor.flops
        fresh = solve(stiffer)
        assert np.abs(state.u - fresh.u).max() <= 1e-12 * np.abs(fresh.u).max()

    def test_failed_factorization_is_not_reused(self):
        _, _, system = center_crack_with_tips()
        factor = FrontalCholesky()
        first = solve(system, factor=factor)
        couple = np.zeros((1, 2, 2))  # no longer positive definite, the diagonal kept
        couple[0, 0, 1] = couple[0, 1, 0] = 3.0 * np.sqrt(system.K[100, 100] * system.K[101, 101])
        stamps = system.stamps.copy()
        stamps[50] += 1  # the node of dofs 100 and 101
        broken = replace(system, blocks=system.blocks + (block(couple, np.array([[100, 101]])),),
                         stamps=stamps)
        for _ in range(2):  # nothing of the failed attempt is kept
            with pytest.raises(SolverError, match=r"positive definite \(node 50, standard y\)"):
                solve(broken, factor=factor)
        again = solve(system, factor=factor)
        assert again.factor.fronts_refactored == again.factor.fronts
        np.testing.assert_array_equal(again.u, first.u)

    def test_same_system_refactors_nothing(self):
        _, _, system = center_crack_with_tips()
        factor = FrontalCholesky()
        first = solve(system, factor=factor)
        same = replace(system, blocks=tuple(
            ElementBlocks(tuple((m.copy(), d.copy(), e.copy()) for m, d, e in b.groups), b.columns)
            for b in system.blocks), stamps=system.stamps.copy())  # unchanged stamps
        again = solve(same, factor=factor)
        assert again.factor.fronts_refactored == again.factor.flops == 0
        np.testing.assert_array_equal(again.u, first.u)

    def test_residual_catches_a_stale_front(self):
        # A far element made twice as stiff while its nodes keep their
        # stamps: every front is kept, so only the residual, taken over the
        # element blocks and not the fronts, sees the change.
        mesh, _, system = center_crack_with_tips()
        factor = FrontalCholesky()
        solve(system, factor=factor)
        eid = int(np.argmin(np.linalg.norm(mesh.element_centroids() - [0.1, 0.85], axis=1)))
        table = system.standard
        ids = table.ids.copy()
        ids[eid] = len(table.matrices)  # a shape of its own
        stale = replace(system, standard=replace(
            table, matrices=np.concatenate([table.matrices, 2.0 * table.take([eid])]), ids=ids))
        with pytest.raises(SolverError, match="residual"):
            solve(stale, factor=factor)
        assert factor.refactored.size == 0


class TestSolvePath:
    def test_growth_steps_build_no_sparse_matrix(self, monkeypatch):
        # Assembly and solve go from element matrices to the fronts: with
        # every scipy.sparse constructor and LinearSystem.K refusing, three
        # growth steps of a centre crack still assemble, factor and solve.
        def refuse(*args, **kwargs):
            raise AssertionError("the solve path built a sparse matrix")

        for name in dir(sp):
            if name.endswith(("_matrix", "_array")):
                monkeypatch.setattr(sp, name, refuse)
        monkeypatch.setattr(LinearSystem, "K", property(refuse), raising=False)
        mesh, rules = uniform_rect(1.0, 1.0, 20, 20), QuadratureSet.from_targets()
        cache, factor = StiffnessCache(mesh, STEEL, rules), FrontalCholesky()
        crack = CrackPath(vertices=np.array([[0.36, 0.52], [0.62, 0.52]]), id=0)
        for _ in range(3):
            emap, (crack,) = classify_with_remedy(mesh, [crack], rules=rules)
            system = apply_constraints(assemble(mesh, emap, STEEL, STAMP_BCS, cache=cache),
                                       {0: 0.0})
            state = solve(system, factor=factor)
            crack = extend_crack(extend_crack(crack, 0, 0.3, 0.05), 1, -0.3, 0.05)
        assert state.residual <= 1e-9
        assert 0 < state.factor.fronts_refactored < state.factor.fronts

    def test_element_products_match_the_assembled_matrix(self):
        _, _, system = center_crack_with_tips()
        u = np.random.default_rng(3).normal(size=system.layout.total_dofs)
        expected = system.K @ u
        got = assembly._product(system, u)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def padded(blocks):
    """A class of blocks as one padded block: every element, by id, over
    all the columns the class uses, zero and dof -1 where it lacks one.
    Returns the matrices, dofs, element ids and columns."""
    used = np.unique(np.concatenate([c.ravel() for c in blocks.columns]))
    eids = np.concatenate([e for _, _, e in blocks.groups])
    width = 2 * used.size
    matrices, dofs = np.zeros((eids.size, width, width)), np.full((eids.size, width), -1)
    k = 0
    for (m, d, e), columns in zip(blocks.groups, blocks.columns):
        at = 2 * np.searchsorted(used, np.broadcast_to(columns, (e.size, columns.shape[1])))
        at = (at[:, :, None] + [0, 1]).reshape(e.size, -1)
        rows = np.arange(k, k + e.size)[:, None]
        matrices[rows[:, :, None], at[:, :, None], at[:, None, :]] = m
        dofs[rows, at] = d
        k += e.size
    order = np.argsort(eids)
    return matrices[order], dofs[order], eids[order], used


def product_reference(system, u):
    """K u as each element's K_e u_e, the standard matrices of every element
    gathered at once, each class padded to one block, summed by one pass
    per block over its element-ordered dofs."""
    every = np.arange(system.standard.ids.size)
    out = np.zeros(u.size)
    for matrices, dofs in ((system.standard.take(every), system.standard.dofs(every)),
                           *(padded(b)[:2] for b in system.blocks)):
        ue = np.where(dofs >= 0, u[dofs], 0.0)
        out += np.bincount(dofs[dofs >= 0], minlength=u.size,
                           weights=np.einsum("eij,ej->ei", matrices, ue)[dofs >= 0])
    return out


@pytest.fixture(scope="module")
def tipped_system():
    return center_crack_with_tips()


class TestBatches:
    """Bounded batches give the bits of one batch over everything."""

    @settings(max_examples=15, deadline=None)
    @given(batch=st.integers(1, 401), seed=st.integers(0, 2**32 - 1))
    def test_batched_product_equals_the_per_element_reference(self, tipped_system, batch, seed):
        _, _, system = tipped_system  # 400 elements
        u = np.random.default_rng(seed).normal(size=system.layout.total_dofs)
        with mock.patch.object(assembly, "_PRODUCT_BATCH", batch):
            got = assembly._product(system, u)
        np.testing.assert_array_equal(got.view(np.int64),
                                      product_reference(system, u).view(np.int64))

    @settings(max_examples=10, deadline=None)
    @given(batch=st.integers(1, 40))
    def test_factor_by_entry_batches_equals_all_fronts_at_once(self, tipped_system, batch):
        # A fresh factorization, then one that redoes a path to the root.
        mesh, _, system = tipped_system
        eid = int(np.argmin(np.linalg.norm(mesh.element_centroids() - [0.1, 0.85], axis=1)))
        stamps = system.stamps.copy()
        stamps[mesh.elements[eid]] += 1
        stiffer = replace(system, stamps=stamps, blocks=system.blocks + (
            block(np.full((1, 8, 8), 1e8), system.standard.dofs([eid])),))
        runs = []
        for size in (batch, system.tree.n_fronts):
            factor, solved = FrontalCholesky(), []
            with mock.patch.object(cholesky, "_ENTRY_BATCH", size):
                for s in (system, stiffer):
                    solved.append(solve(s, factor=factor).u)
            assert 0 < factor.refactored.size < system.tree.n_fronts
            runs.append((solved, [np.concatenate(panel, axis=None)
                                  for panel in factor._panels]))
        (u, panels), (u_all, panels_all) = runs
        for a, b in zip(u + panels, u_all + panels_all):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestPeakMemory:
    @pytest.mark.parametrize("build", [lambda: table1_config(5.0), many_cracks_config],
                             ids=["table1", "many cracks"])
    def test_peak_is_the_factor_plus_what_is_distinct(self, build):
        # tracemalloc's peak over assemble + solve against what the design
        # holds at once, each term computed from the system, not measured:
        # F the factor; P the standard stiffness's node-pair sums; E one
        # batch of front entries: for the largest run of _ENTRY_BATCH fronts,
        # four entries per pair of both pair sets, a place and a value each,
        # twice over for the arrays they are built from; S the multifrontal
        # stack (Liu 1992): the update matrices waiting for their parents and
        # the dense front being assembled; C the correction blocks and their
        # pair sums; V 24 eight-byte vectors per dof, the solve's own (about
        # 16: values, places and masks of the dofs, the lift, the residual)
        # and the factorization's (about 8).  The standard matrices of every
        # element, at 512 bytes each (2.6 MiB on Table 1's plate), or the
        # entries of every front at once would not fit.  On the many-cracks
        # plate the tip blocks are the largest part of C: each tip-class
        # element holds (2 S)^2 eight-byte entries, S the columns its
        # corners carry, read here from their status.
        config = build()
        mesh = config.mesh
        emap = classify_enrichment(mesh, list(config.cracks))
        tree = mesh.nested_dissection_tree  # the mesh's own, built before
        tracemalloc.start()
        try:
            system = assemble(mesh, emap, config.material, config.bcs)
            factor = FrontalCholesky(keep=False)
            stats = solve(system, factor=factor).factor
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = system.layout.total_dofs
        standard = system.pairs
        corrections = NodePairs.sum(tree, [b.groups for b in system.blocks],
                                    *system.layout.node_dofs(tree.order))

        def nbytes(pairs):
            return sum(a.nbytes for a in (pairs.row, pairs.col, pairs.slot, pairs.blocks,
                                          pairs.ptr))

        per_front = np.diff(standard.ptr) + np.diff(corrections.ptr)
        batch = cholesky._ENTRY_BATCH
        E = 2 * 4 * 16 * max(per_front[k:k + batch].sum()
                             for k in range(0, tree.n_fronts, batch))
        p, r = np.diff(factor._pivots), np.diff(factor._row_ptr)
        pending, S = {}, 0
        for f in range(tree.n_fronts):  # children first, as factored
            children = sum(pending.pop(c) for c in tree.children[f])
            S = max(S, sum(pending.values()) + children + 8 * (p[f] + r[f]) ** 2)
            if tree.parent[f] >= 0:
                pending[f] = 8 * r[f] ** 2
        C = nbytes(corrections) + sum(m.nbytes + d.nbytes + e.nbytes
                                      for b in system.blocks for m, d, e in b.groups)
        bound = 8 * stats.factor_entries + nbytes(standard) + E + S + C + 24 * 8 * n
        assert peak <= bound
        status = emap.status[mesh.elements[emap.kinds == 3]]
        columns = 4 + np.sum(status == HEAVISIDE, axis=1) + 4 * np.sum(status == TIP, axis=1)
        held = sum(m.nbytes for b in system.blocks[1:] for m, _, _ in b.groups)
        assert held == np.sum((2 * columns) ** 2 * 8)


def dense_sum(blocks, n):
    """The element blocks summed into a dense n x n matrix, element by element."""
    K = np.zeros((n, n))
    for matrices, dofs in blocks:
        for Ke, d in zip(matrices, dofs):
            has = d >= 0
            K[np.ix_(d[has], d[has])] += Ke[np.ix_(has, has)]
    return K


def classes(blocks):
    """Blocks (matrices, dofs) or (matrices, dofs, rows) as classes of one
    group each, for :meth:`NodePairs.sum`, the elements numbered in order."""
    return [[(m, d, np.arange(len(d)), *rows)] for m, d, *rows in blocks]


def masked_pair_sum(blocks, position):
    """Reference for :meth:`NodePairs.sum`: each element's upper pairs
    taken by an (e, s, s) mask of its columns in elimination order."""
    rank = np.empty_like(position)
    rank[np.argsort(position, kind="stable")] = np.arange(position.size)
    key, first, entries = [np.empty(0, int)], [np.empty((2, 0), int)], [np.empty((4, 0))]
    for matrices, dofs in blocks:
        s = dofs.shape[1] // 2
        column = np.where(dofs[:, ::2] >= 0, rank[dofs[:, ::2]], -1)
        e, a, b = np.nonzero((column[:, :, None] >= 0)
                             & (column[:, :, None] <= column[:, None, :]))
        ea, eb = e * s + a, e * s + b
        key.append(column.reshape(-1)[ea] * rank.size + column.reshape(-1)[eb])
        first.append(dofs.reshape(-1)[2 * np.stack([ea, eb])])
        corner = 4 * s * ea + 2 * b
        entries.append(matrices.reshape(-1)[corner + [[0], [1], [2 * s], [2 * s + 1]]])
    key = np.concatenate(key)
    order = np.argsort(key, kind="stable")
    new = np.diff(key[order], prepend=-1) != 0
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    sums = [np.bincount(inverse, weights=w) for w in np.concatenate(entries, axis=1)]
    row, col = np.concatenate(first, axis=1)[:, order[new]]
    return row, col, np.stack(sums, axis=1).reshape(-1, 2, 2)


class TestNodePairs:
    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(1, 6), ny=st.integers(1, 6), share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_sums_match_the_masked_reference(self, nx, ny, share, seed):
        # A standard block of every element and a block of standard and
        # jump columns on some, the jump columns absent (-1) off jump nodes.
        mesh = uniform_rect(1.0, 1.0, nx, ny)
        tree, n = mesh.nested_dissection_tree, mesh.n_nodes
        rng = np.random.default_rng(seed)
        jump = rng.random(n) < share
        node = np.concatenate([np.repeat(np.arange(n), 2), np.repeat(np.flatnonzero(jump), 2)])
        position = np.argsort(tree.order)[node]
        x = np.where(jump, 2 * n + 2 * (np.cumsum(jump) - 1), -1)[mesh.elements]
        jump_dofs = np.where(x[:, :, None] >= 0, x[:, :, None] + [0, 1], -1).reshape(-1, 8)
        std_dofs = (2 * mesh.elements[:, :, None] + [0, 1]).reshape(-1, 8)
        some = rng.random(mesh.n_elements) < 0.5
        standard = (rng.normal(size=(mesh.n_elements, 8, 8)), std_dofs)
        correction = (rng.normal(size=(int(some.sum()), 16, 16)),
                      np.concatenate([std_dofs[some], jump_dofs[some]], axis=1))
        # A table of three matrices, element e's chosen by its row.
        table, rows = rng.normal(size=(3, 8, 8)), rng.integers(0, 3, mesh.n_elements)
        for blocks, reference in (([standard], None), ([correction], None),
                                  ([standard, correction], None), ([], None),
                                  ([(table, std_dofs, rows)], [(table[rows], std_dofs)]),
                                  ([(table, std_dofs, rows), correction],
                                   [(table[rows], std_dofs), correction])):
            order = np.argsort(position, kind="stable")
            pairs = NodePairs.sum(tree, classes(blocks), order, position[order])
            row, col, sums = masked_pair_sum(reference or blocks, position)
            np.testing.assert_array_equal(pairs.row, row)
            np.testing.assert_array_equal(pairs.col, col)
            np.testing.assert_array_equal(pairs.blocks.view(np.int64), sums.view(np.int64))

    def test_upper_pairs_sum_the_element_matrices(self):
        mesh, _, system = center_crack_with_tips()
        pairs, tree = system.pairs, system.tree
        every = np.arange(mesh.n_elements)
        K = dense_sum([(system.standard.take(every), system.standard.dofs(every))],
                      system.layout.total_dofs)
        rows, cols = pairs.row[:, None] + [0, 1], pairs.col[:, None] + [0, 1]
        np.testing.assert_array_equal(pairs.blocks.view(np.int64),
                                      K[rows[:, :, None], cols[:, None, :]].view(np.int64))
        # each node pair that shares an element once, its first node first
        position = np.empty(mesh.n_nodes, dtype=np.int64)
        position[tree.order] = np.arange(mesh.n_nodes)
        a, b = position[pairs.row // 2], position[pairs.col // 2]
        assert np.all(a <= b)
        linked = (K[::2, ::2] != 0) | (K[1::2, 1::2] != 0)
        assert np.unique(a * mesh.n_nodes + b).size == a.size == np.count_nonzero(np.triu(
            linked[np.ix_(tree.order, tree.order)]))
        # in front order, the later node in its slot of the first one's front
        front = np.searchsorted(tree.start, a, side="right") - 1
        np.testing.assert_array_equal(np.repeat(np.arange(tree.n_fronts), np.diff(pairs.ptr)),
                                      front)
        pivot = pairs.slot < mesh.n_nodes
        np.testing.assert_array_equal(pairs.slot[pivot], b[pivot])
        assert np.all(b[pivot] < tree.start[front[pivot] + 1])
        m, f = pairs.slot[~pivot] - mesh.n_nodes, front[~pivot]
        np.testing.assert_array_equal(tree.rows[m], b[~pivot])
        assert np.all((tree.row_start[f] <= m) & (m < tree.row_start[f + 1]))

    def test_coupling_outside_the_tree_is_refused(self):
        # Two nodes in two fronts that share no rows: a block coupling them
        # has no place in any front.
        tree = DissectionTree(order=np.arange(2), start=np.array([0, 1, 2]),
                              parent=np.array([-1, -1]), row_start=np.array([0, 0, 0]),
                              rows=np.empty(0, dtype=np.int64), lead=np.zeros(2, dtype=np.int64))
        own = block(np.stack([np.eye(2)] * 2), np.array([[0, 1], [2, 3]]))  # one per node
        coupling = block(np.full((1, 4, 4), 0.1), np.arange(4)[None])
        system = LinearSystem(standard=NO_ELEMENTS, blocks=(own, coupling),
                              pairs=NodePairs.sum(tree, [], np.arange(4), np.repeat([0, 1], 2)),
                              f=np.ones(4), fixed={}, layout=plain_layout(2), tree=tree,
                              stamps=np.zeros(2, dtype=np.int64))
        with pytest.raises(SolverError, match="keeps apart"):
            solve(system)

    def test_row_coupled_to_a_lead_pivot_is_refused(self):
        # Front 0 eliminates nodes 0 and 1 and stores the panel column of
        # node 1 alone; its row is node 2.  Coupling node 1 to node 2 fits,
        # coupling node 0 to node 2 has no panel column to go to.
        tree = DissectionTree(order=np.arange(3), start=np.array([0, 2, 3]),
                              parent=np.array([1, -1]), row_start=np.array([0, 1, 1]),
                              rows=np.array([2]), lead=np.array([1, 0]))
        own = block(np.stack([np.eye(2)] * 3), np.arange(6).reshape(3, 2))
        pairs = NodePairs.sum(tree, [], np.arange(6), np.repeat(np.arange(3), 2))
        for nodes, fits in (([1, 2], True), ([0, 2], False)):
            dofs = np.ravel([[2 * n, 2 * n + 1] for n in nodes])
            system = LinearSystem(standard=NO_ELEMENTS,
                                  blocks=(own, block(np.full((1, 4, 4), 0.1), dofs[None])),
                                  pairs=pairs, f=np.ones(6), fixed={}, layout=plain_layout(3),
                                  tree=tree, stamps=np.zeros(3, dtype=np.int64))
            if fits:
                assert np.all(np.isfinite(solve(system).u))
            else:
                with pytest.raises(SolverError, match="keeps apart"):
                    solve(system)


def padded_tip_block(mesh, emap, material, standard, layout):
    """The tip-class elements' stiffness as one padded batch: every
    element over the columns that the corners of some tip-class element
    carry, zero where its own corners do not, dof -1 there."""
    eids = np.flatnonzero(emap.kinds == 3)
    rule = emap.rules.tip
    q = rule.n_points
    N, dN, wdet, xs = element_geometry(mesh.element_coords(eids), rule)
    _, grads, nodes = enriched_basis(mesh, emap, np.repeat(eids, q), np.tile(N, (eids.size, 1)),
                                     dN.reshape(-1, 4, 2), xs.reshape(-1, 2))
    nodes = nodes[::q]
    kind = np.minimum(BASIS_FIELD, TIP)
    used = np.flatnonzero((kind == 0) | (emap.status[nodes] == kind).any(axis=0))
    Ke = _element_matrices(grads.reshape(eids.size, q, 24, 2)[:, :, used], wdet,
                           elasticity_matrix(material))
    Ke[:, :8, :8] -= standard.take(eids)
    dofs = layout.column_dofs(nodes[:, used], BASIS_FIELD[used]).reshape(eids.size, -1)
    return ElementBlocks(((Ke, dofs, eids),), (used[None],))


def compact_case(name):
    """A map whose tip-class elements differ in the columns they carry."""
    mesh = uniform_rect(1.0, 1.0, 10, 10)
    if name == "many cracks":
        config = many_cracks_config()
        return config.mesh, classify_enrichment(config.mesh, list(config.cracks)), config.bcs
    if name == "two tips in one element":  # tips one element apart
        crack = CrackPath(vertices=np.array([[0.33, 0.55], [0.47, 0.55]]), id=0)
        return mesh, classify_enrichment(mesh, [crack]), STAMP_BCS
    if name == "tip enrichment off":
        crack = CrackPath(vertices=np.array([[0.31, 0.52], [0.69, 0.52]]), id=0)
        return mesh, classify_enrichment(mesh, [crack], tip_enrichment=False), STAMP_BCS
    # a crack just above a node row: the row's upper neighbours are demoted
    crack = CrackPath(vertices=np.array([[0.15, 0.5002], [0.85, 0.5002]]), id=0)
    return mesh, classify_enrichment(mesh, [crack], delta=0.002), STAMP_BCS


class TestCompactTipBlocks:
    """Each tip-class element is held over only the columns its corners
    carry, and gives the bits of the padded batch it replaces."""

    @pytest.mark.parametrize("name", ["many cracks", "two tips in one element",
                                      "tip enrichment off", "demoted corner"])
    def test_sums_products_and_matrix_equal_the_padded_reference(self, name):
        mesh, emap, bcs = compact_case(name)
        system = assemble(mesh, emap, STEEL, bcs)
        status = emap.status[mesh.elements[emap.kinds == 3]]
        if name == "many cracks":  # the tip class in several groups
            assert len(system.blocks[1].groups) > 2
        elif name == "two tips in one element":
            tips = emap.node_tip[mesh.elements[emap.kinds == 3]]
            assert ((tips == 0).any(axis=1) & (tips == 1).any(axis=1)).any()
        elif name == "tip enrichment off":
            assert emap.n_tip == 0 and not (status == TIP).any()
        else:  # a tip-class element with a corner demoted off the crack's support
            demoted = np.zeros(mesh.n_nodes, dtype=bool)
            demoted[[n for n, _, _ in emap.demotions]] = True
            corner = demoted[mesh.elements[emap.kinds == 3]]
            assert (corner & (status == 0)).any() and (status == HEAVISIDE).any()
        tip = np.flatnonzero(emap.kinds == 3)
        reference = replace(system, blocks=system.blocks[:1] + (
            (padded_tip_block(mesh, emap, STEEL, system.standard, system.layout),)
            if tip.size else ()))
        assert len(system.blocks) == len(reference.blocks)
        perm, owner = system.layout.node_dofs(system.tree.order)
        got, want = (NodePairs.sum(system.tree, [b.groups for b in s.blocks], perm, owner)
                     for s in (system, reference))
        np.testing.assert_array_equal(got.row, want.row)
        np.testing.assert_array_equal(got.col, want.col)
        assert list(map(float.hex, got.blocks.ravel())) == list(map(float.hex,
                                                                    want.blocks.ravel()))
        u = np.random.default_rng(8).normal(size=system.layout.total_dofs)
        assert list(map(float.hex, assembly._product(system, u))) == \
            list(map(float.hex, assembly._product(reference, u)))
        assert_bit_equal(system.K, reference.K)


class TestPivotReport:
    def test_zeroed_jump_dof_names_its_node(self):
        # A zero diagonal is refused before the factorization starts.
        _, _, system = center_crack_with_tips()
        node = int(np.flatnonzero(system.layout.disc_slot >= 0)[3])
        dof = system.layout.column_dofs(node, 1)[1]
        blocks = []
        for b in system.blocks:
            hit = [dofs == dof for _, dofs, _ in b.groups]
            blocks.append(ElementBlocks(tuple(
                (np.where(h[:, :, None] | h[:, None, :], 0.0, matrices), dofs, eids)
                for h, (matrices, dofs, eids) in zip(hit, b.groups)), b.columns))
        broken = replace(system, blocks=tuple(blocks))
        with pytest.raises(AssemblyError,
                           match=rf"diagonal 0 on a free dof \(node {node}, jump y\)"):
            solve(broken)

    @pytest.mark.parametrize("field, component", [(0, 1), (1, 0), (1, 1), (3, 1)])
    def test_negative_diagonal_is_refused_before_the_factorization(self, field, component):
        # A hand-made correction block that turns one dof's diagonal
        # negative, a standard dof's (whose diagonal sums the standard
        # pairs' with the corrections') or an enrichment dof's: the staged
        # error names the dof, and no front is factored.
        _, _, system = center_crack_with_tips()
        status = system.layout.tip_slot if field == 3 else system.layout.disc_slot
        node = int(np.flatnonzero(status >= 0)[1])
        pair = system.layout.column_dofs(node, field)
        negate = np.zeros((1, 2, 2))
        negate[0, component, component] = -2.0 * system.K[pair[component], pair[component]]
        broken = replace(system, blocks=system.blocks + (block(negate, pair[None]),))
        factor = FrontalCholesky()
        name = {0: "standard", 1: "jump"}.get(field, f"branch {field - 2}")
        with pytest.raises(AssemblyError, match=rf"non-positive stiffness diagonal -\S+ on a free "
                                                rf"dof \(node {node}, {name} {'xy'[component]}\)"):
            solve(broken, factor=factor)
        assert factor.refactored.size == 0

    def test_indefinite_jump_pair_names_its_pivot(self):
        # Positive diagonals, an indefinite 2 x 2 block: the pivot of the
        # jump y dof is the first that fails.
        _, _, system = center_crack_with_tips()
        node = int(np.flatnonzero(system.layout.disc_slot >= 0)[3])
        pair = system.layout.column_dofs(node, 1)
        couple = np.zeros((1, 2, 2))
        couple[0, 0, 1] = couple[0, 1, 0] = 3.0 * np.sqrt(system.K[pair[0], pair[0]]
                                                          * system.K[pair[1], pair[1]])
        broken = replace(system, blocks=system.blocks + (block(couple, pair[None]),))
        with pytest.raises(SolverError, match=rf"not positive definite \(node {node}, jump y\)"):
            solve(broken)


def run_child(script):
    """Last line ``script`` prints in a child interpreter that imports
    this xfem2d."""
    src = os.path.dirname(os.path.dirname(assembly.__file__))
    result = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
                             + script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


class TestScipyWrappers:
    """The factorization calls scipy's own BLAS/LAPACK wrapper objects in
    either import order, so no routine is loaded twice."""

    def test_scipy_linalg_first(self):
        assert run_child(
            "import scipy.linalg, xfem2d.cholesky as c\n"
            "print(c.blas is sys.modules['scipy.linalg._fblas'],"
            " c.lapack is sys.modules['scipy.linalg._flapack'])") == "True True"

    def test_xfem2d_first(self):
        assert run_child(
            "import xfem2d.cholesky as c\n"
            "from scipy.linalg import blas, lapack\n"
            "print(all(getattr(blas, n) is getattr(c.blas, n) for n in ('dtrsm', 'dsyrk', 'dtpsv')),"
            " lapack.dpotrf is c.lapack.dpotrf)") == "True True"


def reference_places(factor, c):
    """Child c's places in its parent's front and the cuts between its
    runs, computed per child as the factorization first did."""
    tree, pivots, rowdofs, row_ptr = factor._tree, factor._pivots, factor._rowdofs, factor._row_ptr
    f = tree.parent[c]
    a, b = pivots[f], pivots[f + 1]
    p = b - a
    rows = rowdofs[row_ptr[f]:row_ptr[f + 1]]
    crows = rowdofs[row_ptr[c]:row_ptr[c + 1]]
    split = np.searchsorted(crows, b)
    local = np.concatenate([crows[:split] - a, p + np.searchsorted(rows, crows[split:])])
    cuts = np.union1d(np.flatnonzero(np.diff(local) != 1) + 1,
                      [0, np.searchsorted(local, p), local.size])
    return local, cuts


def assert_plan_matches_reference(factor):
    tree, pivots, rowdofs, row_ptr = factor._tree, factor._pivots, factor._rowdofs, factor._row_ptr
    runs, run_ptr = _extend_add_plan(tree, factor.refactored, factor._ptr, factor._shift)
    planned = 0
    for f in factor.refactored.tolist():
        for c in tree.children[f]:
            local, cuts = reference_places(factor, c)
            mine = runs[run_ptr[c]:run_ptr[c + 1]]
            np.testing.assert_array_equal(
                np.concatenate([np.arange(at, at + end - first) for first, end, at in mine]
                               + [np.empty(0, dtype=np.int64)]), local)
            np.testing.assert_array_equal([first for first, _, _ in mine]
                                          + [mine[-1][1] if mine else 0], cuts)
            planned += 1
    # The planned children are exactly those of the refactored fronts.
    assert run_ptr[-1] == len(runs) and planned == np.isin(tree.parent, factor.refactored).sum()
    return planned


class TestExtendAddPlan:
    def test_tip_enriched_layout(self):
        _, _, system = center_crack_with_tips()
        factor = FrontalCholesky()
        solve(system, factor=factor)
        assert assert_plan_matches_reference(factor) == system.tree.n_fronts - 1

    def test_growth_step_with_kept_fronts(self):
        mesh = uniform_rect(1.0, 1.0, 20, 20)
        rules = QuadratureSet.from_targets()
        cache, factor = StiffnessCache(mesh, STEEL, rules), FrontalCholesky()
        bcs = [BoundaryCondition("bottom", "displacement", (None, 0.0)),
               BoundaryCondition("top", "traction", (0.0, 1e6))]
        crack = CrackPath(vertices=np.array([[0.0, 0.52], [0.31, 0.52]]), tip_start=False, id=0)
        for _ in range(2):
            emap = classify_enrichment(mesh, [crack], rules=rules)
            system = apply_constraints(assemble(mesh, emap, STEEL, bcs, cache=cache),
                                       {0: 0.0})
            solve(system, factor=factor)
            crack = extend_crack(crack, 1, 0.2, 0.06)
        kept = np.setdiff1d(np.arange(system.tree.n_fronts), factor.refactored)
        assert kept.size and np.isin(system.tree.parent[kept], factor.refactored).any()
        assert 0 < assert_plan_matches_reference(factor) < system.tree.n_fronts - 1


def substitute_every_front(factor, rhs):
    """L L^T x = rhs by forward and back substitution through every front,
    none skipped: the reference for :meth:`FrontalCholesky.solve`.  A
    front's panel holds the columns of its pivots from its first with a
    panel column, ``m - a`` into the front's block."""
    x = np.array(rhs, dtype=float)
    pivots, trail, row_ptr = factor._pivots, factor._trail, factor._row_ptr
    steps = [(pivots[f], trail[f], pivots[f + 1], factor._rowdofs[row_ptr[f]:row_ptr[f + 1]],
              *factor._panels[f]) for f in range(pivots.size - 1) if pivots[f + 1] > pivots[f]]
    for a, m, b, rows, L11, L21 in steps:
        x[a:b] = xp = blas.dtpsv(b - a, L11, x[a:b], lower=1)
        if rows.size:
            x[rows] -= L21 @ xp[m - a:]
    for a, m, b, rows, L11, L21 in reversed(steps):
        xp = x[a:b].copy()
        if rows.size:
            xp[m - a:] -= x[rows] @ L21
        x[a:b] = blas.dtpsv(b - a, L11, xp, lower=1, trans=1)
    return x


class TestForwardSkip:
    def test_bit_equal_to_the_full_walk(self):
        # The forward sweep skips fronts whose incoming block is +0.0; the
        # result must be the full walk's to the last bit, signed zeros too.
        _, _, system = center_crack_with_tips()
        factor = FrontalCholesky()
        solve(system, factor=factor)
        pivots, tree = factor._pivots, factor._tree
        leaf = next(f for f in range(tree.n_fronts)
                    if not tree.children[f] and pivots[f + 1] > pivots[f])
        a, b = pivots[leaf], pivots[leaf + 1]
        rng = np.random.default_rng(7)
        one_leaf, one_dof = np.zeros(pivots[-1]), np.zeros(pivots[-1])
        one_leaf[a:b] = rng.normal(size=b - a)
        one_dof[b - 1] = 1.0
        for name, rhs in {"one leaf": one_leaf, "last dof of one leaf": one_dof,
                          "one leaf, -0.0 elsewhere": np.where(one_leaf == 0.0, -0.0, one_leaf),
                          "dense": rng.normal(size=pivots[-1])}.items():
            assert factor.solve(rhs).tobytes() == \
                substitute_every_front(factor, rhs).tobytes(), name


class TestTrimmedPanels:
    def test_dense_factor_is_zero_where_a_panel_is_trimmed(self):
        # The dense Cholesky factor of the free-free block, in the factor's
        # dof order.  Each front stores its panel from its first pivot with
        # a panel column; the columns of the pivots before it are those of
        # a leaf's interior, which couple to no row, and the dense factor
        # holds exact zeros there.
        _, _, system = center_crack_with_tips()
        factor = FrontalCholesky()
        solve(system, factor=factor)
        tree = system.tree
        perm = system.layout.node_dofs(tree.order)[0]
        dofs = perm[~np.isin(perm, list(system.fixed))]
        L = np.linalg.cholesky(system.K[dofs][:, dofs].toarray())
        pivots, trail, row_ptr = factor._pivots, factor._trail, factor._row_ptr
        trimmed, dropped = 0, 0
        for f in range(tree.n_fronts):
            a, m, b = pivots[f], trail[f], pivots[f + 1]
            rows = factor._rowdofs[row_ptr[f]:row_ptr[f + 1]]
            assert np.all(L[np.ix_(rows, np.arange(a, m))] == 0.0), f
            trimmed += m > a
            dropped += rows.size * (m - a)
            # An entry of the panel is (K_ij - sum_k L_ik L_jk) / L_jj, whose
            # sum runs over at most the b columns eliminated up to the
            # front's last pivot, and the two factorizations round it in
            # different orders.  The classical bound of such a sum is b eps
            # times the sum of its terms' magnitudes (Higham, Accuracy and
            # Stability of Numerical Algorithms, 2002, section 3.1), and the
            # terms here are of the size of L's entries: b eps max|L|.
            np.testing.assert_allclose(factor._panels[f][1], L[np.ix_(rows, np.arange(m, b))],
                                       rtol=0, atol=b * np.finfo(float).eps * np.abs(L).max(),
                                       err_msg=str(f))
        assert (tree.n_fronts, trimmed, dropped) == (15, 8, 19962)


_RANKS = 16  # a dof is named position * _RANKS + rank; a node has at most ten dofs


def named_upper_entries(system):
    """The upper-triangle entries of the free-free block, by row, as the
    factorization orders it: each entry's name, its value and the offset of
    each front's first entry.

    A dof is named ``_RANKS * position + rank``: its node's position in the
    elimination order and its rank among the node's free dofs, a name that
    does not change when dofs elsewhere are renumbered; an entry (i, j) is
    named ``name(i) * _RANKS * n_positions + name(j)``.
    """
    tree, K = system.tree, system.K
    perm, owner = system.layout.node_dofs(tree.order)
    free = ~np.isin(perm, list(system.fixed))
    dofs = perm[free]
    ptr = np.concatenate([[0], np.cumsum(np.bincount(owner[free], minlength=tree.order.size))])
    n = dofs.size
    column = np.full(K.shape[0], -1, dtype=np.int64)
    column[dofs] = np.arange(n)
    rows = K[dofs]
    i = np.repeat(np.arange(n), np.diff(rows.indptr))
    j = column[rows.indices]
    upper = j >= i
    i, j, values = i[upper], j[upper], rows.data[upper]
    position = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
    name = _RANKS * position + np.arange(n) - ptr[position]
    entries = name[i] * (_RANKS * (ptr.size - 1)) + name[j]
    return entries, values, np.searchsorted(i, ptr[tree.start])


def random_kinked_crack(rng):
    """A crack of two or three segments in the middle of the unit square."""
    start = rng.uniform(0.3, 0.7, size=2)
    angles = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(rng.uniform(-0.7, 0.7, rng.integers(2, 4)))
    steps = rng.uniform(0.05, 0.1, size=(angles.size, 1)) * np.column_stack(
        [np.cos(angles), np.sin(angles)])
    return CrackPath(vertices=np.vstack([start, start + np.cumsum(steps, axis=0)]),
                     tip_start=bool(rng.integers(2)), id=0)


STAMP_MESH = uniform_rect(1.0, 1.0, 16, 16)
STAMP_BCS = [BoundaryCondition("bottom", "displacement", (None, 0.0)),
             BoundaryCondition("top", "traction", (0.0, 1e6))]


def growth_steps(seed, tip_enrichment, rules, delta=0.002, cache=None):
    """A random kinked crack on ``STAMP_MESH``, grown by a random kink at a
    random tip, up to four steps: each step's map and constrained system,
    until the crack leaves the mesh."""
    rng = np.random.default_rng(seed)
    crack = random_kinked_crack(rng)
    for _ in range(4):
        try:
            emap, (crack,) = classify_with_remedy(STAMP_MESH, [crack], delta, rules,
                                                  tip_enrichment)
            system = apply_constraints(assemble(STAMP_MESH, emap, STEEL, STAMP_BCS,
                                                cache=cache), {0: 0.0})
        except (EnrichmentError, AssemblyError):  # the crack left the mesh
            return
        yield emap, system
        try:
            crack = extend_crack(crack, int(rng.choice(crack.active_tips())),
                                 rng.uniform(-0.6, 0.6), rng.uniform(0.02, 0.08))
        except CrackGeometryError:
            return


class TestStampRule:
    """The change stamps against the rule they replace: a front is kept
    only when its gathered entries are bit-equal to the last ones."""

    # The pinned draws below whose cache reuses cut matrices: all of them.
    REUSING = ((254, False), (533, False), (574, False), (592, False), (592, True))

    @staticmethod
    def check(seed, tip_enrichment):
        """Returns how many cut matrices the run's cache reused."""
        rules = QuadratureSet.from_targets()
        cache, factor = StiffnessCache(STAMP_MESH, STEEL, rules), FrontalCholesky()
        last, reused, integrated, real = None, 0, [], assembly._integrate

        def counting(mesh, emap, D, standard, eids, rule, used=None):
            if used is not None and standard is cache.standard:  # the run's cut class
                integrated.append(eids.size)
            return real(mesh, emap, D, standard, eids, rule, used)

        with mock.patch.object(assembly, "_integrate", counting):
            for emap, system in growth_steps(seed, tip_enrichment, rules, cache=cache):
                cut, Ke = StiffnessCache(STAMP_MESH, STEEL, rules).cut_matrices(emap)
                reused += cut.size - sum(integrated)
                integrated.clear()
                np.testing.assert_array_equal(cache._cut, cut)
                np.testing.assert_array_equal(cache._cut_matrices, Ke)
                solve(system, factor=factor)
                entries, values, ptr = named_upper_entries(system)
                if last is not None:
                    old_entries, old_values, old_ptr = last
                    kept = np.setdiff1d(np.arange(system.tree.n_fronts), factor.refactored)
                    for f in kept.tolist():
                        new, old = slice(ptr[f], ptr[f + 1]), slice(old_ptr[f], old_ptr[f + 1])
                        np.testing.assert_array_equal(entries[new], old_entries[old])
                        np.testing.assert_array_equal(values[new].view(np.int64),
                                                      old_values[old].view(np.int64))
                last = entries, values, np.append(ptr, entries.size)
        return reused

    # In each draw below a Heaviside candidate has fewer than two rule points
    # on its far side (node 75, 113, 231, or 123 and 140 sharing one), and
    # keeping it would leave K singular.
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tip_enrichment=st.booleans())
    @example(seed=254, tip_enrichment=False)
    @example(seed=533, tip_enrichment=False)
    @example(seed=574, tip_enrichment=False)
    @example(seed=592, tip_enrichment=False)
    @example(seed=592, tip_enrichment=True)
    def test_kept_fronts_and_cached_matrices_are_unchanged(self, seed, tip_enrichment):
        reused = self.check(seed, tip_enrichment)
        if (seed, tip_enrichment) in self.REUSING:
            assert reused > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("tip_enrichment", [False, True])
    def test_kept_fronts_over_300_seeds(self, tip_enrichment):
        for seed in range(300):
            self.check(seed, tip_enrichment)


class TestJumpStiffness:
    """Every jump dof classification keeps is integrated at two or more
    points on its far side, so the free block of K is positive definite."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tip_enrichment=st.booleans(),
           delta=st.sampled_from([0.0, 0.002]))
    @example(seed=592, tip_enrichment=False, delta=0.002)
    @example(seed=592, tip_enrichment=True, delta=0.0)
    def test_every_growth_step_solves(self, seed, tip_enrichment, delta):
        rules = QuadratureSet.from_targets()
        for _, system in growth_steps(seed, tip_enrichment, rules, delta):
            solve(system)

    def test_point_floor_demotes_without_delta(self):
        # Seed 254's third step: node 75's one cut element holds a sliver
        # with no rule point on its far side, so at delta = 0 only the
        # point floor drops it.
        rules = QuadratureSet.from_targets()
        steps = list(growth_steps(254, False, rules, delta=0.0))
        emap = steps[2][0]
        assert (75, 0.0, "fewer than two far-side rule points") in emap.demotions
        assert emap.status[75] == 0


def recording_cut_integrations(monkeypatch):
    """The element ids of the cut-class batches ``assembly._integrate``
    integrates from now on, in a list the caller may clear."""
    batches, real = [], assembly._integrate

    def recording(mesh, emap, D, standard, eids, rule, columns=None):
        if columns is not None:
            batches.append(eids)
        return real(mesh, emap, D, standard, eids, rule, columns)

    monkeypatch.setattr(assembly, "_integrate", recording)
    return batches


class TestCutCacheRules:
    @pytest.mark.parametrize("tip_enrichment", [True, False])
    def test_segment_near_an_unflipped_element_reuses_it(self, tip_enrichment, monkeypatch):
        # The edge crack grows straight on from x = 0.31 to 0.45.  The new
        # segment passes 0.11 from the cut element [0.1, 0.2] x [0.5, 0.6],
        # inside its diameter 0.14, but flips none of its rule points'
        # sides, so its key and its matrix stay.
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        rules = QuadratureSet.from_targets()
        crack = CrackPath(vertices=np.array([[0.0, 0.512], [0.31, 0.512]]), tip_start=False, id=0)
        before, after = (classify_enrichment(mesh, [c], rules=rules, tip_enrichment=tip_enrichment)
                         for c in (crack, extend_crack(crack, 1, 0.0, 0.14)))
        eid = int(np.argmin(np.linalg.norm(mesh.element_centroids() - [0.15, 0.55], axis=1)))
        assert before.kinds[eid] == after.kinds[eid] == 2
        keys = []
        for emap in (before, after):
            cut = np.flatnonzero(emap.kinds == 2)
            keys.append(assembly._cut_keys(mesh, emap, cut)[np.searchsorted(cut, eid)])
        np.testing.assert_array_equal(keys[0], keys[1])
        cache = StiffnessCache(mesh, STEEL, rules)
        assemble(mesh, before, STEEL, cache=cache)
        integrated = recording_cut_integrations(monkeypatch)
        K = assemble(mesh, after, STEEL, cache=cache).K
        assert len(integrated) == 1 and eid not in integrated[0]
        assert 0 < integrated[0].size < np.count_nonzero(after.kinds == 2)
        assert_bit_equal(K, assemble(mesh, after, STEEL).K)

    def test_node_that_gains_a_jump_is_integrated_again(self, monkeypatch):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.13, 0.512], [0.87, 0.512]]), id=0)
        rules = QuadratureSet.from_targets()
        cache = StiffnessCache(mesh, STEEL, rules)
        # the same crack, with and without the nodes of small support
        # shares: the point sides are the same, so the signatures alone
        # force the integration
        coarse, fine, again = (classify_enrichment(mesh, [crack], delta=delta, rules=rules)
                               for delta in (0.3, 0.002, 0.3))
        assert fine.n_heaviside > coarse.n_heaviside
        integrated = recording_cut_integrations(monkeypatch)
        for emap in (coarse, fine, again):
            integrated.clear()
            reused = assemble(mesh, emap, STEEL, cache=cache)
            np.testing.assert_array_equal(emap.cut_sides, coarse.cut_sides)
            np.testing.assert_array_equal(np.concatenate(integrated),
                                          np.flatnonzero(emap.kinds == 2))
            assert_bit_equal(reused.K, assemble(mesh, emap, STEEL).K)

    def test_reuse_follows_the_keys_not_the_lineage(self, monkeypatch):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        rules = QuadratureSet.from_targets()
        crack = CrackPath(vertices=np.array([[0.13, 0.512], [0.57, 0.512]]), id=0)
        first, other = (classify_enrichment(mesh, [crack], rules=rules) for _ in range(2))
        grown = classify_enrichment(mesh, [extend_crack(crack, 1, 0.0, 0.1)], rules=rules)
        cut = np.count_nonzero(grown.kinds == 2)
        integrated = recording_cut_integrations(monkeypatch)
        # two classifications of the same cracks leave the cache the same
        # keys, so it reuses the same matrices after either
        counts = []
        for last in (other, first):
            cache = StiffnessCache(mesh, STEEL, rules)
            assemble(mesh, last, STEEL, cache=cache)
            integrated.clear()
            K = assemble(mesh, grown, STEEL, cache=cache).K
            counts.append(integrated[0].size)
            assert_bit_equal(K, assemble(mesh, grown, STEEL).K)
        assert counts[0] == counts[1] < cut

    def test_map_of_another_cut_rule_is_refused(self, monkeypatch):
        # Sides measured at a 16-point cut rule say nothing of the cache's
        # 36 points: the cache refuses the map, in assemble and when asked
        # for the cut matrices directly, before it integrates anything.
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.13, 0.512], [0.57, 0.512]]), id=0)
        emap = classify_enrichment(mesh, [crack], rules=QuadratureSet.from_targets(cut=16))
        cache = StiffnessCache(mesh, STEEL, QuadratureSet.from_targets())
        integrated = recording_cut_integrations(monkeypatch)
        with pytest.raises(AssemblyError, match="classified at other quadrature rules"):
            assemble(mesh, emap, STEEL, cache=cache)
        with pytest.raises(AssemblyError, match="classified at other quadrature rules"):
            cache.cut_matrices(emap)
        assert integrated == [] and cache._cut.size == 0

    def test_rules_are_compared_rule_by_rule(self):
        # Equal targets give the same rule objects, so a map and a cache that
        # each built the default rules agree; a set that differs in one rule
        # alone, even the standard one, is refused.
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.13, 0.512], [0.57, 0.512]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        cache = StiffnessCache(mesh, STEEL, QuadratureSet.from_targets())
        assert emap.rules is not cache.rules
        assert_bit_equal(assemble(mesh, emap, STEEL, cache=cache).K,
                         assemble(mesh, emap, STEEL).K)
        default = QuadratureSet.from_targets()
        for other in (QuadratureSet.from_targets(standard=9), QuadratureSet.from_targets(tip=36),
                      QuadratureSet(gauss_rule(4), gauss_rule(36), default.tip)):
            with pytest.raises(AssemblyError, match="classified at other quadrature rules"):
                StiffnessCache(mesh, STEEL, other).cut_matrices(emap)

    def test_every_consumer_integrates_at_the_maps_rules(self, monkeypatch, tmp_path):
        # A map classified at a 16-point cut rule and a 36-point tip rule,
        # neither of them the default's, through assembly, solve, the
        # extraction rings, the energy norm and the field dump: every point
        # they make is one of the map's rules, and each class's rule is used.
        mesh = uniform_rect(1.0, 1.0, 20, 20)
        crack = CrackPath(vertices=np.array([[0.31, 0.512], [0.69, 0.512]]), id=0)
        rules = QuadratureSet.from_targets(cut=16, tip=36)
        emap = classify_enrichment(mesh, [crack], rules=rules)
        default = QuadratureSet.from_targets()
        assert rules.cut.n_points == 16 and rules.tip.n_points == 36
        assert rules.cut is not default.cut and rules.tip is not default.tip
        points = {}
        real = element_geometry

        def counting(xy, rule):
            points[id(rule)] = points.get(id(rule), 0) + xy[..., 0, 0].size * rule.n_points
            return real(xy, rule)

        for module in (mesh_module, assembly, output):
            monkeypatch.setattr(module, "element_geometry", counting)
        system = apply_constraints(assemble(mesh, emap, STEEL, STAMP_BCS), {0: 0.0})
        state = solve(system)
        rings = tip_rings(state, mesh, emap, STEEL, emap.tips, [None] * len(emap.tips))
        assert rings.failures == [None, None]
        energy_error_norm(state, mesh, emap, STEEL, lambda xs: np.zeros((len(xs), 3)))
        write_field_dump(state, mesh, emap, STEEL, tmp_path / "dump.vtk")
        assert set(points) == {id(rules.standard), id(rules.cut), id(rules.tip)}
        n_cut, n_tip = (np.count_nonzero(emap.kinds == k) for k in (2, 3))
        # assembly, the energy norm and the dump each take every cut and tip
        # element once; the rings take those of theirs
        assert points[id(rules.cut)] >= 3 * 16 * n_cut > 0
        assert points[id(rules.tip)] >= 3 * 36 * n_tip > 0


class TestElementMatrix:
    def test_tip_element_matches_full_contraction(self):
        mesh, emap, _ = center_crack_with_tips()
        eid = emap.tips[0].element
        rule = QuadratureSet.from_targets().tip
        N, dN, wdet, phys = element_geometry(mesh.element_coords(eid), rule)
        _, grads, nodes = enriched_basis(mesh, emap, np.full(rule.n_points, eid), N, dN, phys)
        grads = grads[:, DofLayout.build(emap).column_dofs(nodes[0], BASIS_FIELD)[:, 0] >= 0]
        B = np.zeros((rule.n_points, 3, 2 * grads.shape[1]))  # Voigt strain matrix
        B[:, 0, 0::2] = B[:, 2, 1::2] = grads[..., 0]
        B[:, 1, 1::2] = B[:, 2, 0::2] = grads[..., 1]
        D = elasticity_matrix(STEEL)
        expected = np.einsum("qri,rs,qsj,q->ij", B, D, B, wdet, optimize=True)
        Ke = _element_matrices(grads, wdet, D)
        assert Ke.shape == (40, 40)
        assert np.abs(Ke - expected).max() <= 1e-13 * np.abs(expected).max()


class TestEnrichedBasis:
    def test_crack_distance_and_branch_functions_once_per_call(self, monkeypatch):
        mesh, emap, _ = center_crack_with_tips()
        calls = []

        def counting(name):
            real = getattr(enrichment, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for name in ("signed_distance_batch", "branch_functions"):
            monkeypatch.setattr(enrichment, name, counting(name))
        eids = np.nonzero(emap.kinds >= 2)[0]
        rule = QuadratureSet.from_targets().tip
        N, dN, _, phys = element_geometry(mesh.element_coords(eids), rule)
        nodes = mesh.elements[eids]
        assert np.any((emap.status[nodes] == HEAVISIDE).sum(axis=1) >= 2)
        enriched_basis(mesh, emap, np.repeat(eids, rule.n_points), np.tile(N, (eids.size, 1)),
                       dN.reshape(-1, 4, 2), phys.reshape(-1, 2))
        # One evaluation per tip, each taking the crack side of its angle
        # from one distance, and one distance for the jump part.
        assert calls.count("branch_functions") == len(emap.tips) == 2
        assert calls.count("signed_distance_batch") == 1 + 2


class TestAssemblyErrors:
    def test_unknown_traction_boundary(self):
        mesh = uniform_rect(1.0, 1.0, 2, 2)
        with pytest.raises(AssemblyError, match="unknown boundary"):
            assemble(
                mesh,
                uncracked(mesh),
                STEEL,
                bcs=[BoundaryCondition("lid", "traction", (0.0, 1.0))],
            )

    def test_one_sided_cut_element_is_harmless(self):
        mesh = uniform_rect(1.0, 1.0, 4, 4)
        crack = CrackPath(vertices=np.array([[0.3, 0.55], [0.7, 0.55]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        reference = assemble(mesh, emap, STEEL)
        # claim an uncut far-corner element as cut: every quadrature point
        # sits on one side, its nodes are unenriched, and the elevated rule
        # reproduces the standard block on an affine element
        emap.cut_elements[0] = 0
        tampered = assemble(mesh, emap, STEEL)
        diff = (tampered.K - reference.K).toarray()
        assert np.abs(diff).max() < 1e-9 * np.abs(reference.K.data).max()

    def test_corner_graze_below_rule_resolution(self):
        # shallow crack passing 1e-6 under a mesh corner: the grazed
        # element is bisected geometrically but every quadrature point
        # lands on one side; the solve must still go through with the
        # corner node's jump resolved by the neighbouring elements
        mesh = uniform_rect(1.0, 1.0, 8, 8)
        slope = 0.17633
        x = np.array([0.2, 0.8])
        y = 0.5 - 1e-6 + slope * (x - 0.5)
        crack = CrackPath(vertices=np.column_stack([x, y]), id=0)
        emap = classify_enrichment(mesh, [crack])

        graze = None
        corners = {
            eid: mesh.element_coords([eid])[0] for eid in emap.cut_elements
        }
        for eid, quad in corners.items():
            if np.allclose(quad[0], [0.5, 0.375]):
                graze = eid
        assert graze is not None, "grazed element should still classify as cut"

        corner_node = int(
            np.nonzero(np.all(np.isclose(mesh.nodes, [0.5, 0.5]), axis=1))[0][0]
        )
        assert emap.status[corner_node] != 0  # jump survives via neighbours

        bcs = [
            BoundaryCondition("bottom", "displacement", (None, 0.0)),
            BoundaryCondition("top", "traction", (0.0, 1e6)),
        ]
        state, _ = solve_with(mesh, emap, STEEL, bcs, {0: 0.0})
        assert np.all(np.isfinite(state.u))
        opening = crack_opening((0.45, 0.5 - 1e-6 + slope * -0.05), state.fields, mesh, emap, 0)
        assert opening > 0.0

    def test_tip_on_quadrature_point_rejected(self):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        _, _, _, phys = element_geometry(mesh.element_coords([55]),
                                         QuadratureSet.from_targets().tip)
        tip = phys[0, 27]
        crack = CrackPath(vertices=np.array([[-0.01, tip[1]], tip]),
                          tip_start=False, id=0)
        emap = classify_enrichment(mesh, [crack])
        assert [t.element for t in emap.tips] == [55]
        with pytest.raises(AssemblyError, match="quadrature point of element 55 "
                           "coincides with the tip of crack 0"):
            assemble(mesh, emap, STEEL)

    def test_bc_validation(self):
        with pytest.raises(ValueError, match="kind"):
            BoundaryCondition("top", "pressure", (0.0, 1.0))
        with pytest.raises(ValueError, match="free"):
            BoundaryCondition("top", "traction", (None, 1.0))


class TestStressOnFace:
    def test_face_point_rejected(self):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.15, 0.55], [0.85, 0.55]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        fields = FieldTriplet.zeros(mesh.n_nodes)
        state = type("S", (), {"fields": fields})()
        with pytest.raises(ValueError, match="face"):
            stress_strain_batch([(0.45, 0.55)], state, mesh, emap, STEEL)
        # off-face probes work
        stress_strain_batch([(0.45, 0.56)], state, mesh, emap, STEEL)
