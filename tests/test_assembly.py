"""Stiffness assembly and solver checks against closed-form states."""

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
    LinearSystem,
    MaterialModel,
    QuadratureSet,
    SolverError,
    StiffnessCache,
    apply_constraints,
    assemble,
    elasticity_matrix,
    solve,
    stress_strain_at,
    stress_strain_batch,
    _element_matrices,
)
from xfem2d import assembly, enrichment
from xfem2d.cholesky import FrontalCholesky, _extend_add_plan
from xfem2d.cracks import CrackGeometryError, CrackPath, extend_crack
from xfem2d.enrichment import (
    BASIS_FIELD,
    HEAVISIDE,
    EnrichmentError,
    FieldTriplet,
    classify_enrichment,
    classify_with_remedy,
    crack_opening,
    enriched_basis,
    _changed_segments,
    _near,
)
from xfem2d.mesh import DissectionTree, Mesh, element_geometry
from xfem2d.meshgen import uniform_rect

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
        with pytest.raises(KeyError):
            layout.disc_dof(0, 0)

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
        assert fields.u_disc[node, 1] == u[layout.disc_dof(node, 1)]
        tnode = int(np.nonzero(layout.tip_slot >= 0)[0][2])
        assert fields.u_tip[tnode, 3, 0] == u[layout.tip_dof(tnode, 3, 0)]
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

        for probe in [(0.3, 0.3), (0.7, 0.6), (0.51, 0.52)]:
            _, sig = stress_strain_at(probe, state, mesh, emap, STEEL)
            np.testing.assert_allclose(sig, sigma, rtol=1e-9)

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
        for probe in [(0.31, 0.42), (0.77, 0.18), (0.5, 0.93)]:
            _, sig = stress_strain_at(probe, state, mesh, emap, STEEL)
            assert sig[1] == pytest.approx(expected, rel=1e-9)
            assert abs(sig[0]) < 1e-9 * expected
            assert abs(sig[2]) < 1e-9 * expected


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
        _, sig = stress_strain_at((0.5, 0.4), state, mesh, emap, STEEL)
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
        for probe in [(0.2, 0.3), (0.8, 0.7), (0.53, 0.5)]:
            _, sig = stress_strain_at(probe, state, mesh, emap, STEEL)
            assert sig[1] == pytest.approx(sigma, rel=1e-3)
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
            assert system.f[system.layout.disc_dof(n, 1)] == pytest.approx(expected, rel=1e-12)
            assert system.f[system.layout.disc_dof(n, 0)] == 0.0

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
        fresh = assemble(mesh, emap, STEEL, rules)
        for _ in range(2):  # the second assembly reuses every cut element
            reused = assemble(mesh, emap, STEEL, rules, cache=cache)
            assert_bit_equal(reused.K, fresh.K)
            np.testing.assert_array_equal(fresh.f, reused.f)

    def test_block_of_another_material_rejected(self):
        mesh = uniform_rect(1.0, 1.0, 4, 4)
        rules = QuadratureSet.from_targets()
        soft = MaterialModel(E=1e9, nu=0.3)
        cache = StiffnessCache(mesh, soft, rules)
        with pytest.raises(AssemblyError, match="another mesh"):
            assemble(mesh, uncracked(mesh), STEEL, rules, cache=cache)


class TestConstraints:
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
                          rows=np.empty(0, dtype=np.int64))


def plain_layout(n_nodes):
    return DofLayout(
        n_nodes=n_nodes,
        disc_slot=np.full(n_nodes, -1),
        tip_slot=np.full(n_nodes, -1),
        n_disc=0,
        n_tip=0,
    )


class TestSolver:
    def test_dense_oracle(self):
        rng = np.random.default_rng(42)
        A = rng.normal(size=(50, 50))
        K = A.T @ A + 50 * np.eye(50)
        f = rng.normal(size=50)
        system = LinearSystem(K=sp.csr_matrix(K), f=f, fixed={},
                              layout=plain_layout(25), tree=one_front(25),
                              stamps=np.zeros(25, dtype=np.int64))
        state = solve(system)
        expected = np.linalg.solve(K, f)
        assert np.abs(state.u - expected).max() < 1e-9 * np.abs(expected).max()

    def test_singular_system_reported(self):
        K = sp.csr_matrix(np.zeros((2, 2)))
        system = LinearSystem(K=K, f=np.array([1.0, 0.0]), fixed={},
                              layout=plain_layout(1), tree=one_front(1),
                              stamps=np.zeros(1, dtype=np.int64))
        with pytest.raises(SolverError):
            solve(system)

    def test_indefinite_system_reported(self):
        # Nonsingular, eigenvalues 3 and -1: elimination without pivoting
        # gets through it, Cholesky must not.
        K = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        system = LinearSystem(K=K, f=np.array([1.0, 0.0]), fixed={},
                              layout=plain_layout(1), tree=one_front(1),
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
        perm = system.perm
        np.testing.assert_array_equal(np.sort(perm), np.arange(layout.total_dofs))
        expected = []
        for n in mesh.nested_dissection_tree.order.tolist():
            expected += [layout.cont_dof(n, 0), layout.cont_dof(n, 1)]
            if layout.disc_slot[n] >= 0:
                expected += [layout.disc_dof(n, c) for c in (0, 1)]
            if layout.tip_slot[n] >= 0:
                expected += [layout.tip_dof(n, j, c) for j in range(4) for c in (0, 1)]
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
        K = system.K.copy()  # keeps the explicit zeros of the pattern
        K[np.ix_(dofs, dofs)] = (system.K[np.ix_(dofs, dofs)].toarray()
                                 + 1e-3 * abs(system.K).max())
        stamps = system.stamps.copy()  # as an assembly that changed the element
        stamps[mesh.elements[eid]] += 1
        stiffer = LinearSystem(K=K, f=system.f, fixed=system.fixed,
                               layout=system.layout, tree=tree, stamps=stamps)
        state = solve(stiffer, factor=factor)
        position = np.empty(mesh.n_nodes, dtype=np.int64)
        position[tree.order] = np.arange(mesh.n_nodes)
        front = np.searchsorted(tree.start, position[mesh.elements[eid]].min(), side="right") - 1
        path = [front]
        while tree.parent[path[-1]] >= 0:
            path.append(tree.parent[path[-1]])
        np.testing.assert_array_equal(factor.refactored, path)
        assert state.factor.fronts_refactored == len(path) < tree.n_fronts
        fresh = solve(stiffer)
        assert np.abs(state.u - fresh.u).max() <= 1e-12 * np.abs(fresh.u).max()

    def test_failed_factorization_is_not_reused(self):
        _, _, system = center_crack_with_tips()
        factor = FrontalCholesky()
        first = solve(system, factor=factor)
        K = system.K.copy()
        K[100, 100] = -K[100, 100]  # no longer positive definite
        stamps = system.stamps.copy()
        stamps[50] += 1  # the node of dof 100
        broken = LinearSystem(K=K, f=system.f, fixed=system.fixed,
                              layout=system.layout, tree=system.tree, stamps=stamps)
        for _ in range(2):  # nothing of the failed attempt is kept
            with pytest.raises(SolverError, match=r"positive definite \(node 50, standard x\)"):
                solve(broken, factor=factor)
        again = solve(system, factor=factor)
        assert again.factor.fronts_refactored == again.factor.fronts
        np.testing.assert_array_equal(again.u, first.u)

    def test_same_system_refactors_nothing(self):
        _, _, system = center_crack_with_tips()
        factor = FrontalCholesky()
        first = solve(system, factor=factor)
        same = LinearSystem(K=system.K.copy(), f=system.f, fixed=system.fixed,
                            layout=system.layout, tree=system.tree,
                            stamps=system.stamps.copy())  # unchanged stamps
        again = solve(same, factor=factor)
        assert again.factor.fronts_refactored == 0
        np.testing.assert_array_equal(again.u, first.u)


class TestPivotReport:
    def test_zeroed_jump_dof_names_its_node(self):
        _, _, system = center_crack_with_tips()
        node = int(np.flatnonzero(system.layout.disc_slot >= 0)[3])
        dof = system.layout.disc_dof(node, 1)
        K = system.K.tocoo()
        zero = (K.row == dof) | (K.col == dof)
        K = sp.csr_matrix((np.where(zero, 0.0, K.data), (K.row, K.col)), shape=K.shape)
        broken = LinearSystem(K=K, f=system.f, fixed=system.fixed, layout=system.layout,
                              tree=system.tree, stamps=system.stamps)
        with pytest.raises(SolverError, match=rf"not positive definite \(node {node}, jump y\)"):
            solve(broken)


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
    keys = np.repeat(np.arange(tree.n_fronts), np.diff(row_ptr)) * pivots[-1] + rowdofs
    runs, run_ptr = _extend_add_plan(tree, factor.refactored, pivots, row_ptr, rowdofs, keys)
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
            system = apply_constraints(assemble(mesh, emap, STEEL, rules, bcs, cache=cache),
                                       {0: 0.0})
            solve(system, factor=factor)
            crack = extend_crack(crack, 1, 0.2, 0.06)
        kept = np.setdiff1d(np.arange(system.tree.n_fronts), factor.refactored)
        assert kept.size and np.isin(system.tree.parent[kept], factor.refactored).any()
        assert 0 < assert_plan_matches_reference(factor) < system.tree.n_fronts - 1


def plus_entries_by_insert(A, values, rows, cols, n):
    """``A`` padded to n x n plus the COO triplets, by two ``np.insert``
    into A's arrays: the reference for ``assembly._plus_entries``."""
    keys, inverse = np.unique(rows.astype(np.int64) * n + cols, return_inverse=True)
    values = np.bincount(inverse.ravel(), weights=values, minlength=keys.size)
    a_keys = np.repeat(np.arange(A.shape[0], dtype=np.int64) * n, np.diff(A.indptr)) + A.indices
    at = np.searchsorted(a_keys, keys)
    hit = a_keys[np.minimum(at, a_keys.size - 1)] == keys
    data = A.data.copy()
    data[at[hit]] += values[hit]
    data = np.insert(data, at[~hit], values[~hit])
    indices = np.insert(A.indices, at[~hit], (keys[~hit] % n).astype(A.indices.dtype))
    indptr = np.concatenate([A.indptr, np.full(n - A.shape[0], A.indptr[-1])])
    indptr[1:] += np.cumsum(np.bincount(keys[~hit] // n, minlength=n)).astype(indptr.dtype)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def assert_same_bytes(A, B):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestPlusEntries:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_triplets_match_the_insert_reference(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 30, 30 + int(rng.integers(0, 12))
        A = sp.random(m, m, density=0.2, random_state=seed, format="csr")
        A = (A + A.T).tocsr()
        A.data[rng.random(A.nnz) < 0.1] = 0.0  # explicit zeros stay stored
        a_keys = np.repeat(np.arange(m) * m, np.diff(A.indptr)) + A.indices
        hits = rng.choice(a_keys, size=int(rng.integers(0, 40)))
        rows = np.concatenate([hits // m, rng.integers(0, n, 30), rng.integers(m, n + 1, 10) - 1])
        cols = np.concatenate([hits % m, rng.integers(m, n + 1, 30) - 1, rng.integers(0, n, 10)])
        keep = (rows >= m) | (cols >= m) | np.isin(rows * m + cols, a_keys)
        rows, cols = rows[keep], cols[keep]
        values = rng.normal(size=rows.size)
        assert_same_bytes(assembly._plus_entries(A, values, rows, cols, n),
                          plus_entries_by_insert(A, values, rows, cols, n))

    def test_growth_steps_match_the_insert_reference(self, monkeypatch):
        seen, real = [], assembly._plus_entries

        def spy(A, *triplets):
            K = real(A, *triplets)
            seen.append((K, plus_entries_by_insert(A, *triplets)))
            return K

        monkeypatch.setattr(assembly, "_plus_entries", spy)
        mesh, rules = uniform_rect(1.0, 1.0, 20, 20), QuadratureSet.from_targets()
        cache = StiffnessCache(mesh, STEEL, rules)
        crack = CrackPath(vertices=np.array([[0.31, 0.52], [0.47, 0.52]]), id=0)
        for _ in range(3):
            emap, (crack,) = classify_with_remedy(mesh, [crack], rules=rules)
            assemble(mesh, emap, STEEL, rules, cache=cache)
            crack = extend_crack(crack, 1, -0.3, 0.07)
        assert len(seen) == 3
        for K, expected in seen:
            assert_same_bytes(K, expected)


def substitute_every_front(factor, rhs):
    """L L^T x = rhs by forward and back substitution through every front,
    none skipped: the reference for :meth:`FrontalCholesky.solve`."""
    x = np.array(rhs, dtype=float)
    pivots, row_ptr = factor._pivots, factor._row_ptr
    steps = [(pivots[f], pivots[f + 1], factor._rowdofs[row_ptr[f]:row_ptr[f + 1]],
              *factor._panels[f]) for f in range(pivots.size - 1) if pivots[f + 1] > pivots[f]]
    for a, b, rows, L11, L21 in steps:
        x[a:b] = xp = blas.dtpsv(b - a, L11, x[a:b], lower=1)
        if rows.size:
            x[rows] -= L21 @ xp
    for a, b, rows, L11, L21 in reversed(steps):
        xp = x[a:b] - x[rows] @ L21 if rows.size else x[a:b]
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
    perm, owner, _ = system.layout.node_dofs(tree.order)
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
            system = apply_constraints(assemble(STAMP_MESH, emap, STEEL, rules, STAMP_BCS,
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

    @staticmethod
    def check(seed, tip_enrichment):
        rules = QuadratureSet.from_targets()
        cache, factor = StiffnessCache(STAMP_MESH, STEEL, rules), FrontalCholesky()
        last = None
        for emap, system in growth_steps(seed, tip_enrichment, rules, cache=cache):
            kinds = emap.element_kinds(STAMP_MESH)
            cut, Ke = StiffnessCache(STAMP_MESH, STEEL, rules).cut_matrices(emap, kinds)
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
        self.check(seed, tip_enrichment)

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


class TestCutCacheRules:
    def test_changed_segments_of_growth(self):
        a, b, c, d = np.array([[0.1, 0.5], [0.3, 0.52], [0.5, 0.5], [0.6, 0.55]])
        old = CrackPath(vertices=np.array([a, b, c]), id=0)
        at_end = CrackPath(vertices=np.array([a, b, c, d]), id=0)
        # the new segment and the old tip vertex, now interior
        np.testing.assert_array_equal(_changed_segments([old], [at_end]), [[c, c], [c, d]])
        z = np.array([0.02, 0.45])
        at_start = CrackPath(vertices=np.array([z, a, b, c]), id=0)
        np.testing.assert_array_equal(_changed_segments([old], [at_start]), [[a, a], [z, a]])
        assert _changed_segments([old], [old]).shape == (0, 2, 2)
        other = CrackPath(vertices=np.array([a, d]), id=1)
        np.testing.assert_array_equal(_changed_segments([old], [old, other]), [[a, d]])

    def test_near_within_the_element_diameter(self):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        eid = int(np.argmin(np.linalg.norm(mesh.element_centroids() - [0.55, 0.55], axis=1)))
        diam = 0.1 * np.sqrt(2.0)  # the element is [0.5, 0.6]^2
        for gap, near in ((0.99 * diam, True), (1.01 * diam, False)):
            point = np.array([0.6 + gap, 0.55])  # a lone vertex
            vertical = np.array([[0.6 + gap, -1.0], [0.6 + gap, 2.0]])
            through = np.array([[0.55, 0.55], [0.6 + 2 * gap, 0.55]])
            segments = np.array([[point, point], vertical, through])
            np.testing.assert_array_equal(
                [_near(mesh, np.array([eid]), segments[k:k + 1])[0] for k in range(3)],
                [near, near, True])

    def test_node_that_gains_a_jump_is_integrated_again(self):
        mesh = uniform_rect(1.0, 1.0, 10, 10)
        crack = CrackPath(vertices=np.array([[0.13, 0.512], [0.87, 0.512]]), id=0)
        rules = QuadratureSet.from_targets()
        cache = StiffnessCache(mesh, STEEL, rules)
        # the same crack, with and without the nodes of small support shares
        coarse, fine = (classify_enrichment(mesh, [crack], delta=delta, rules=rules)
                        for delta in (0.3, 0.002))
        assert fine.n_heaviside > coarse.n_heaviside
        for emap in (coarse, fine, coarse):
            reused = assemble(mesh, emap, STEEL, rules, cache=cache)
            assert_bit_equal(reused.K, assemble(mesh, emap, STEEL, rules).K)


class TestElementMatrix:
    def test_tip_element_matches_full_contraction(self):
        mesh, emap, _ = center_crack_with_tips()
        eid = emap.tips[0].element
        rule = QuadratureSet.from_targets().tip
        _, _, wdet, phys = element_geometry(mesh.element_coords(eid), rule)
        _, grads, nodes = enriched_basis(mesh, emap, np.full(rule.n_points, eid),
                                         rule.points, phys)
        grads = grads[:, DofLayout.build(emap).column_dofs(nodes[0], BASIS_FIELD) >= 0]
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
        eids = np.nonzero(emap.element_kinds(mesh) >= 2)[0]
        rule = QuadratureSet.from_targets().tip
        _, _, _, phys = element_geometry(mesh.element_coords(eids), rule)
        nodes = mesh.elements[eids]
        assert np.any((emap.status[nodes] == HEAVISIDE).sum(axis=1) >= 2)
        enriched_basis(mesh, emap, np.repeat(eids, rule.n_points),
                       np.tile(rule.points, (eids.size, 1)), phys.reshape(-1, 2))
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
            stress_strain_at((0.45, 0.55), state, mesh, emap, STEEL)
        # off-face probes work
        stress_strain_at((0.45, 0.56), state, mesh, emap, STEEL)
