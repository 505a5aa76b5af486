"""Stiffness assembly, boundary conditions, and the sparse solve.

The global system couples three nodal fields: the standard bilinear
displacement, the shifted-Heaviside jump field, and the four-fold branch
field at crack tips.  Degrees of freedom exist only where the enrichment
map grants them, so the jump/branch constraint is structural rather than
penalized.

Integration strategy: every element is first integrated with the plain
2x2 rule in one vectorized pass, and summed into one sparse matrix, once
per mesh (:class:`StiffnessCache`).  The cut elements and the tip
elements are then integrated as two batches, one elevated rule per class,
from the gradients of :func:`~xfem2d.enrichment.enriched_basis`; each
replaces its elements' whole block (all field couplings including the
standard one).  A run keeps the cut elements' matrices from step to step
and integrates only those whose enrichment or crack changed.
Uncut elements holding a Heaviside node need no correction at all: the
shifted factor M = H(phi(x)) - H(phi(node)) is identically zero on them,
since the node and the whole element sit on the same side of the crack.
Traction and body-force loads are weighted sums of the same basis at
points of the loaded edges and of each integration class, so the
stiffness, the loads and the evaluated fields share one definition of
the enriched basis.

Solve: the fixed dofs are eliminated, not pinned: the free-free block of
the stiffness is symmetric positive definite, and a supernodal
multifrontal Cholesky factorization (:mod:`xfem2d.cholesky`) factors it
front by front on the mesh's nested-dissection tree
(:attr:`~xfem2d.mesh.Mesh.nested_dissection_tree`, computed once per
mesh), with each node's jump and branch dofs right after its two standard
dofs.  The fixed dofs take their prescribed values exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from xfem2d.cholesky import FactorStats, FrontalCholesky, _ranges
from xfem2d.cracks import signed_distance_batch
from xfem2d.enrichment import (
    BASIS_FIELD,
    HEAVISIDE,
    TIP,
    EnrichmentMap,
    FieldTriplet,
    _changed_segments,
    _near,
    basis_batches,
    enriched_basis,
    evaluate_fields,
)
from xfem2d.mesh import (
    DissectionTree,
    Mesh,
    QuadratureRule,
    QuadratureSet,
    edge_points,
    element_geometry,
)

__all__ = [
    "AssemblyError",
    "SolverError",
    "MaterialModel",
    "BoundaryCondition",
    "QuadratureSet",
    "StiffnessCache",
    "DofLayout",
    "LinearSystem",
    "SolutionState",
    "elasticity_matrix",
    "voigt_strain",
    "assemble",
    "apply_constraints",
    "solve",
    "stress_strain_at",
    "stress_strain_batch",
]


class AssemblyError(ValueError):
    """Inconsistent discretization detected during assembly."""


class SolverError(RuntimeError):
    """Linear solve failed or did not meet the residual contract."""


@dataclass(frozen=True)
class MaterialModel:
    """Isotropic linear elastic material under plane strain or stress."""

    E: float
    nu: float
    plane_strain: bool = True
    body_force: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not self.E > 0.0:
            raise ValueError(f"Young's modulus must be positive, got {self.E}")
        if not -1.0 < self.nu < 0.5:
            raise ValueError(f"Poisson ratio must be in (-1, 0.5), got {self.nu}")

    @property
    def E_effective(self) -> float:
        """Modulus relating energy release rate and SIFs: E/(1-nu^2) or E."""
        return self.E / (1.0 - self.nu**2) if self.plane_strain else self.E

    @property
    def kolosov(self) -> float:
        return 3.0 - 4.0 * self.nu if self.plane_strain else (3.0 - self.nu) / (1.0 + self.nu)

    @property
    def shear_modulus(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))


@dataclass(frozen=True)
class BoundaryCondition:
    """One condition on a tagged boundary node set.

    ``kind`` is 'traction' (value = force per unit length vector) or
    'displacement' (value components may be None for unconstrained /
    roller directions).  ``scaled`` marks values that the load schedule
    multiplies by the current load factor before assembly.
    """

    boundary: str
    kind: str
    value: tuple
    scaled: bool = False

    def __post_init__(self):
        if self.kind not in ("traction", "displacement"):
            raise ValueError(f"unknown boundary condition kind '{self.kind}'")
        if len(self.value) != 2:
            raise ValueError("boundary condition value needs two components")
        if self.kind == "traction" and any(v is None for v in self.value):
            raise ValueError("traction components cannot be free")

    def at_load_factor(self, lam: float) -> "BoundaryCondition":
        if not self.scaled:
            return self
        value = tuple(None if v is None else v * lam for v in self.value)
        return BoundaryCondition(self.boundary, self.kind, value, scaled=False)


@dataclass(frozen=True)
class DofLayout:
    """Global indexing: standard pairs first, then jump pairs, then branch."""

    n_nodes: int
    disc_slot: np.ndarray  # (n_nodes,) slot id or -1
    tip_slot: np.ndarray  # (n_nodes,) slot id or -1
    n_disc: int
    n_tip: int

    @classmethod
    def build(cls, emap: EnrichmentMap) -> "DofLayout":
        n = emap.status.shape[0]
        disc_slot = np.full(n, -1, dtype=np.int64)
        tip_slot = np.full(n, -1, dtype=np.int64)
        hs = np.nonzero(emap.status == HEAVISIDE)[0]
        ts = np.nonzero(emap.status == TIP)[0]
        disc_slot[hs] = np.arange(hs.size)
        tip_slot[ts] = np.arange(ts.size)
        return cls(n_nodes=n, disc_slot=disc_slot, tip_slot=tip_slot,
                   n_disc=hs.size, n_tip=ts.size)

    @property
    def total_dofs(self) -> int:
        return 2 * self.n_nodes + 2 * self.n_disc + 8 * self.n_tip

    def cont_dof(self, node: int, comp: int) -> int:
        return 2 * node + comp

    def disc_dof(self, node: int, comp: int) -> int:
        slot = self.disc_slot[node]
        if slot < 0:
            raise KeyError(f"node {node} has no jump degrees of freedom")
        return 2 * self.n_nodes + 2 * int(slot) + comp

    def tip_dof(self, node: int, branch: int, comp: int) -> int:
        slot = self.tip_slot[node]
        if slot < 0:
            raise KeyError(f"node {node} has no branch degrees of freedom")
        return 2 * self.n_nodes + 2 * self.n_disc + 8 * int(slot) + 2 * branch + comp

    def column_dofs(self, nodes: np.ndarray, field: np.ndarray) -> np.ndarray:
        """First dof of the x/y pair of each basis column of
        :func:`~xfem2d.enrichment.enriched_basis`, given its node and field
        (0 standard, 1 jump, 2 + j branch j); -1 where the node lacks it."""
        disc, tip = self.disc_slot[nodes], self.tip_slot[nodes]
        base_disc = 2 * self.n_nodes
        base_tip = base_disc + 2 * self.n_disc
        return np.where(field == 0, 2 * nodes,
                        np.where(field == 1, np.where(disc >= 0, base_disc + 2 * disc, -1),
                                 np.where(tip >= 0, base_tip + 8 * tip + 2 * (field - 2), -1)))

    def node_dofs(self, node_order: np.ndarray):
        """Dof order that follows ``node_order`` with each node's dofs
        together: entry k is the dof placed k-th, a node's two standard
        dofs, then its jump pair or its eight branch dofs (a node has one
        status), for the nodes in turn.  Also returns the position in
        ``node_order`` of each entry's node and the entry's place (0-9)
        among that node's dofs."""
        node_order = np.asarray(node_order, dtype=np.int64)
        disc = self.disc_slot[node_order]
        tip = self.tip_slot[node_order]
        counts = 2 + 2 * (disc >= 0) + 8 * (tip >= 0)
        owner = np.repeat(np.arange(node_order.size), counts)
        local = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        node, disc, tip = node_order[owner], disc[owner], tip[owner]
        ext = local - 2  # position among the node's enrichment dofs
        base_disc = 2 * self.n_nodes
        base_tip = base_disc + 2 * self.n_disc
        perm = np.where(ext < 0, 2 * node + local,
                        np.where(disc >= 0, base_disc + 2 * disc + ext,
                                 base_tip + 8 * tip + ext))
        return perm, owner, local

    def scatter(self, u: np.ndarray) -> FieldTriplet:
        """Spread a flat solution vector into dense per-node field arrays."""
        fields = FieldTriplet.zeros(self.n_nodes)
        fields.u_cont[:] = u[: 2 * self.n_nodes].reshape(-1, 2)
        hs = np.nonzero(self.disc_slot >= 0)[0]
        base = 2 * self.n_nodes
        fields.u_disc[hs] = u[base: base + 2 * self.n_disc].reshape(-1, 2)
        ts = np.nonzero(self.tip_slot >= 0)[0]
        base += 2 * self.n_disc
        fields.u_tip[ts] = u[base: base + 8 * self.n_tip].reshape(-1, 4, 2)
        return fields


@dataclass
class LinearSystem:
    """Assembled stiffness, load vector, and prescribed-value map.

    ``tree`` is the node-level elimination tree :func:`solve` factors
    ``K`` on; its order, expanded to dofs, is :attr:`perm`.  ``stamps``
    holds the change stamp of each node (:class:`StiffnessCache`): a
    factor kept from a system of the same cache reuses the fronts whose
    nodes kept theirs.
    """

    K: sp.csr_matrix
    f: np.ndarray
    fixed: dict[int, float]
    layout: DofLayout
    tree: DissectionTree
    stamps: np.ndarray

    @property
    def perm(self) -> np.ndarray:
        """Dof order of the factorization: entry k is the dof eliminated
        k-th, fixed dofs included."""
        return self.layout.node_dofs(self.tree.order)[0]


@dataclass
class SolutionState:
    """Solved displacement fields at one load factor.

    ``factor`` records the size of the factorization and the fronts it
    refactored.
    """

    fields: FieldTriplet
    load_factor: float
    layout: DofLayout
    u: np.ndarray
    residual: float
    factor: FactorStats | None = None


def elasticity_matrix(material: MaterialModel) -> np.ndarray:
    """3x3 Voigt constitutive matrix (order: xx, yy, xy with engineering shear)."""
    E, nu = material.E, material.nu
    if material.plane_strain:
        c = E / ((1.0 + nu) * (1.0 - 2.0 * nu))
        return np.array(
            [
                [c * (1.0 - nu), c * nu, 0.0],
                [c * nu, c * (1.0 - nu), 0.0],
                [0.0, 0.0, c * (1.0 - 2.0 * nu) / 2.0],
            ]
        )
    c = E / (1.0 - nu**2)
    return np.array(
        [
            [c, c * nu, 0.0],
            [c * nu, c, 0.0],
            [0.0, 0.0, c * (1.0 - nu) / 2.0],
        ]
    )


# Voigt strain of a displacement gradient: eps[v] = _VOIGT[v, a, b] du_a/dx_b.
_VOIGT = np.zeros((3, 2, 2))
_VOIGT[0, 0, 0] = _VOIGT[1, 1, 1] = _VOIGT[2, 0, 1] = _VOIGT[2, 1, 0] = 1.0


def voigt_strain(grad: np.ndarray) -> np.ndarray:
    """Engineering strains (..., 3), order xx, yy, xy, from displacement
    gradients ``grad[..., a, b] = du_a/dx_b``."""
    return np.einsum("vab,...ab->...v", _VOIGT, grad)


# ---------------------------------------------------------------------------
# element-level machinery
# ---------------------------------------------------------------------------

def _element_matrices(grads: np.ndarray, wdet: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Stiffness (..., 2S, 2S) of S scalar basis functions whose gradients
    ``grads`` (..., q, S, 2) are sampled at points of weight ``wdet`` (..., q).

    Dof 2s + a is component a of scalar s.  The weighted gradient products
    are summed over the points first, then contracted with the elasticity
    tensor, so no strain matrix is formed.
    """
    S = grads.shape[-2]
    G = grads.reshape(grads.shape[:-2] + (2 * S,))
    P = (np.swapaxes(G * wdet[..., None], -1, -2) @ G).reshape(G.shape[:-2] + (S, 2, S, 2))
    # K[s, a, t, c] = sum over b, d of P[s, b, t, d] C[a, b, c, d]
    C = np.einsum("vab,vw,wcd->bdac", _VOIGT, D, _VOIGT).reshape(4, 4)
    K = (np.swapaxes(P, -3, -2).reshape(P.shape[:-4] + (S, S, 4)) @ C)
    K = np.swapaxes(K.reshape(P.shape[:-4] + (S, S, 2, 2)), -3, -2)
    return K.reshape(K.shape[:-4] + (2 * S, 2 * S))


def _add_point_loads(mesh: Mesh, emap: EnrichmentMap, layout: DofLayout, eids,
                     local, xs, load: np.ndarray, f: np.ndarray) -> None:
    """Add to ``f`` the work of point forces ``load`` (n, 2) at the given
    points on every basis function."""
    for run, values, _, nodes in basis_batches(mesh, emap, eids, local, xs):
        dofs = layout.column_dofs(nodes, BASIS_FIELD)
        has = dofs >= 0
        for comp in (0, 1):
            f += np.bincount(dofs[has] + comp, weights=(values * load[run, None, comp])[has],
                             minlength=f.size)


def _traction_points(mesh: Mesh, emap: EnrichmentMap, bcs):
    """Quadrature points of the loaded boundary edges and their forces.

    Each edge is split where any crack segment crosses it, so the
    piecewise-constant jump factor is integrated exactly: the crossings
    of every (edge, segment) pair are found at once.  Returns the points'
    elements, reference and physical coordinates and forces (n, 2).
    """
    edges = mesh.boundary_edges
    loaded, force = [np.empty(0, dtype=np.int64)], [np.empty((0, 2))]
    for bc in bcs:
        if bc.kind != "traction":
            continue
        if bc.boundary not in mesh.boundary_tags:
            raise AssemblyError(f"unknown boundary tag '{bc.boundary}'")
        tagged = np.isin(edges[:, :2], mesh.boundary_tags[bc.boundary]).all(axis=1)
        if not tagged.any():
            raise AssemblyError(
                f"traction on '{bc.boundary}' matched no boundary edges"
            )
        loaded.append(np.nonzero(tagged)[0])
        force.append(np.broadcast_to(np.asarray(bc.value, dtype=float), (loaded[-1].size, 2)))
    loaded, force = np.concatenate(loaded), np.concatenate(force)
    eid, side = edges[loaded, 2], edges[loaded, 3]
    pa = mesh.nodes[mesh.elements[eid, side]]
    pb = mesh.nodes[mesh.elements[eid, (side + 1) % 4]]
    # Crossing parameters t along pa->pb of every crack segment c0->c1.
    c0 = np.concatenate([np.empty((0, 2))] + [c.vertices[:-1] for c in emap.cracks])
    c1 = np.concatenate([np.empty((0, 2))] + [c.vertices[1:] for c in emap.cracks])
    d, e = (pb - pa)[:, None], (c1 - c0)[None]
    rel = c0[None] - pa[:, None]
    denom = d[..., 0] * e[..., 1] - d[..., 1] * e[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rel[..., 0] * e[..., 1] - rel[..., 1] * e[..., 0]) / denom
        s = (rel[..., 0] * d[..., 1] - rel[..., 1] * d[..., 0]) / denom
        cross = (np.abs(denom) >= 1e-300) & (t > 0.0) & (t < 1.0) & (s >= 0.0) & (s <= 1.0)
    knots = np.sort(np.column_stack([np.zeros(eid.size), np.where(cross, t, 1.0),
                                     np.ones(eid.size)]), axis=1)
    edge, k = np.nonzero(np.diff(knots, axis=1) >= 1e-14)
    t0, t1 = knots[edge, k], knots[edge, k + 1]
    gp, gw = np.polynomial.legendre.leggauss(6)
    ts = (0.5 * (t0 + t1))[:, None] + (0.5 * (t1 - t0))[:, None] * gp  # (pieces, 6)
    length = np.linalg.norm(pb - pa, axis=1)[edge]
    ws = ((0.5 * (t1 - t0) * length)[:, None] * gw).ravel()
    edge, ts = np.repeat(edge, gp.size), ts.ravel()
    local, xs = edge_points(side[edge], ts, pa[edge], pb[edge])
    return eid[edge], local, xs, ws[:, None] * force[edge]


def _integrate(mesh: Mesh, emap: EnrichmentMap, D: np.ndarray, K_std: np.ndarray,
               eids: np.ndarray, rule: QuadratureRule, used=None):
    """Stiffness of the elements ``eids`` under ``rule`` over all coupled
    fields, less their plain-rule stiffness: one batch for the whole class.

    The matrices (n, 2S, 2S) run over the basis columns ``used`` of
    :func:`~xfem2d.enrichment.enriched_basis`, by default those some
    element's nodes carry, the standard ones first.  Returns them with
    each column's node (n, S) and the columns.  With ``used`` given, an
    element's matrix does not depend on the other elements of the batch,
    so a matrix kept from an earlier batch is bit-equal to a fresh one.

    A cut element whose quadrature points all sample one side (the crack
    clips a corner sliver below rule resolution) is still integrated: the
    jump factors are then constant over the element, which is exactly the
    limit of a vanishing sliver.  Classification keeps a Heaviside node
    only when its cut- and tip-class elements hold two or more points of
    their class's rule on the far side of the crack from it, where M is
    not zero, so each jump dof is integrated at two points at least.
    """
    q = rule.n_points
    _, _, wdet, phys = element_geometry(mesh.element_coords(eids), rule)
    node_tip = emap.node_tip[mesh.elements[eids]]  # branch gradients are singular at a tip
    for gti in np.unique(node_tip[node_tip >= 0]).tolist():
        tinfo = emap.tips[gti]
        own = np.nonzero((node_tip == gti).any(axis=1))[0]
        on = own[(np.linalg.norm(phys[own] - tinfo.frame.origin, axis=-1) < 1e-14).any(axis=1)]
        if on.size:
            raise AssemblyError(
                f"a quadrature point of element {eids[on[0]]} coincides with the "
                f"tip of crack {tinfo.crack_id}; change the rule or mesh"
            )
    basis = enriched_basis(mesh, emap, np.repeat(eids, q), np.tile(rule.points, (eids.size, 1)),
                           phys.reshape(-1, 2))
    nodes = basis[2][::q]  # an element's columns are those of its first point
    if used is None:
        kind = np.minimum(BASIS_FIELD, TIP)  # the node status each column needs
        used = np.nonzero((kind == 0) | (emap.status[nodes] == kind).any(axis=0))[0]
    grads = basis[1].reshape(eids.size, q, 24, 2)[:, :, used]
    del basis  # the padded arrays, about as large as the integration's own
    Ke = _element_matrices(grads, wdet, D)
    Ke[:, :8, :8] -= K_std[eids]
    return Ke, nodes[:, used], used


def _entries(layout: DofLayout, Ke: np.ndarray, nodes: np.ndarray, fields: np.ndarray):
    """COO triplets (values, rows, cols) of element matrices ``Ke`` whose
    basis column s is field ``fields[s]`` of node ``nodes[:, s]``; the
    columns a node lacks are left out."""
    pair = np.repeat(layout.column_dofs(nodes, fields), 2, axis=1).astype(np.int32)
    pair[:, 1::2] += pair[:, 1::2] >= 0
    keep = (pair[:, :, None] >= 0) & (pair[:, None, :] >= 0)
    return (Ke[keep], np.broadcast_to(pair[:, :, None], Ke.shape)[keep],
            np.broadcast_to(pair[:, None, :], Ke.shape)[keep])


_CUT_COLUMNS = np.arange(8)  # standard and jump columns: a cut element has no tip node
# Change stamps, distinct across the caches of a process: a factor kept
# from one cache's systems cannot take another's stamps for its own.
_STAMPS = itertools.count(1)


def _cut_signature(mesh: Mesh, emap: EnrichmentMap, eids: np.ndarray) -> np.ndarray:
    """What a cut element's matrix depends on besides the crack around it
    (n, 24): each node's status, crack, sign and tip, and the element's
    :class:`~xfem2d.enrichment.CutPiece`."""
    conn = mesh.elements[eids]
    nodes = np.column_stack([emap.status[conn], emap.node_crack[conn], emap.node_sign[conn],
                             emap.node_tip[conn]])
    pieces = [(p.s0, p.s1, *p.p0, *p.p1, p.edge0, p.edge1)
              for p in map(emap.cut_pieces.__getitem__, eids.tolist())]
    return np.column_stack([nodes, np.array(pieces, dtype=float).reshape(-1, 8)])


class StiffnessCache:
    """The stiffness of one mesh, material and rule set across the steps of a run.

    None of these changes while a crack grows, so a run builds one and
    passes it to :func:`assemble` at every step.  It holds:

    - :attr:`matrices`, the plain-rule stiffness of every element, and
      :attr:`standard`, their sum as one CSR matrix, both computed on
      first use;
    - the cut-class element matrices of the last assembly, by basis
      column (node, field), so a renumbered dof layout costs nothing.  A
      matrix is reused while its element is still cut with the same
      signature (:func:`_cut_signature`) and no segment or vertex by which
      the cracks changed (:func:`~xfem2d.enrichment._changed_segments`, the
      rule classification's band follows too) comes within its diameter
      (:func:`~xfem2d.enrichment._near`);
    - :attr:`stamps`, a change stamp per node, renewed on the four nodes
      of every element an assembly integrates or evicts: the fronts of the
      factorization whose nodes kept their stamps kept their entries of K.
    """

    def __init__(self, mesh: Mesh, material: MaterialModel, rules: QuadratureSet):
        self.mesh, self.material, self.rules = mesh, material, rules
        self.stamps = np.full(mesh.n_nodes, next(_STAMPS))
        self._emap: EnrichmentMap | None = None  # the map last assembled
        self._cut = np.empty(0, dtype=np.int64)  # its cut elements, ascending
        self._cut_matrices = np.empty((0, 16, 16))
        self._enriched = np.empty(0, dtype=np.int64)  # its cut and tip elements

    @cached_property
    def matrices(self) -> np.ndarray:
        """Element stiffness of the standard field, shape (m, 8, 8)."""
        _, dN, wdet, _ = element_geometry(self.mesh.element_coords(), self.rules.standard)
        return _element_matrices(dN, wdet, elasticity_matrix(self.material))

    @cached_property
    def standard(self) -> sp.csr_matrix:
        """Sum of :attr:`matrices` over the standard dofs, explicit zeros kept."""
        dofs = np.empty((self.mesh.n_elements, 8), dtype=np.int32)
        dofs[:, 0::2] = 2 * self.mesh.elements
        dofs[:, 1::2] = 2 * self.mesh.elements + 1
        shape = dofs.shape + (8,)
        n = 2 * self.mesh.n_nodes
        K = sp.coo_matrix((self.matrices.ravel(), (np.broadcast_to(dofs[:, :, None], shape).ravel(),
                                                   np.broadcast_to(dofs[:, None, :], shape).ravel())),
                          shape=(n, n)).tocsr()
        # The conversion leaves the index and value arrays as views into
        # buffers sized for every triplet; keep only the stored entries.
        K.data, K.indices = K.data.copy(), K.indices.copy()
        return K

    def cut_matrices(self, emap: EnrichmentMap, kinds: np.ndarray):
        """The cut elements of ``emap`` (``kinds`` 2) and their stiffness
        corrections (n, 16, 16) over the standard and jump columns.

        Matrices still valid from the last call are reused and the rest
        integrated in one batch.  The nodes of every integrated element, of
        every tip-class element (never reused) and of every element that
        left the cut or tip class get new stamps.
        """
        cut = np.flatnonzero(kinds == 2)
        Ke = np.empty((cut.size, 16, 16))
        reused = np.zeros(cut.size, dtype=bool)
        if self._emap is not None:
            common, at, old = np.intersect1d(cut, self._cut, assume_unique=True,
                                             return_indices=True)
            keep = (np.all(_cut_signature(self.mesh, emap, common)
                           == _cut_signature(self.mesh, self._emap, common), axis=1)
                    & ~_near(self.mesh, common, _changed_segments(self._emap.cracks, emap.cracks)))
            reused[at[keep]] = True
            Ke[at[keep]] = self._cut_matrices[old[keep]]
        if not reused.all():
            Ke[~reused] = _integrate(self.mesh, emap, elasticity_matrix(self.material),
                                     self.matrices, cut[~reused], self.rules.cut, _CUT_COLUMNS)[0]
        enriched = np.flatnonzero(kinds >= 2)
        changed = np.setdiff1d(np.union1d(self._enriched, enriched), cut[reused])
        self.stamps = self.stamps.copy()  # systems assembled earlier keep theirs
        self.stamps[self.mesh.elements[changed]] = next(_STAMPS)
        self._emap, self._cut, self._cut_matrices, self._enriched = emap, cut, Ke, enriched
        return cut, Ke


def _plus_entries(A: sp.csr_matrix, values, rows, cols, n: int) -> sp.csr_matrix:
    """``A`` (m x m) padded to n x n plus the COO triplets, as CSR.

    Triplets on one entry are summed in their order, and the sum is added
    to A's entry once; A's explicit zeros stay stored.  A triplet in A's
    rows and columns must hit a stored entry, so new entries go after A's
    entries of their row or into the new rows: both in one pass."""
    keys, inverse = np.unique(rows.astype(np.int64) * n + cols, return_inverse=True)
    values = np.bincount(inverse.ravel(), weights=values, minlength=keys.size)
    m = A.shape[0]
    r, c = keys // n, keys % n
    new = (r >= m) | (c >= m)
    hit = r[~new]  # ascending; A's keys are built for these rows only
    hit_rows = hit[np.diff(hit, prepend=-1) != 0]
    span = _ranges(A.indptr[hit_rows], np.diff(A.indptr)[hit_rows])
    at = span[np.searchsorted(np.repeat(hit_rows * m, np.diff(A.indptr)[hit_rows])
                              + A.indices[span], hit * m + c[~new])]
    indptr = np.concatenate([A.indptr, np.full(n - m, A.indptr[-1])])
    slot = np.zeros(A.nnz + np.count_nonzero(new), dtype=bool)
    slot[indptr[r[new] + 1] + np.arange(np.count_nonzero(new))] = True
    indptr[1:] += np.cumsum(np.bincount(r[new], minlength=n)).astype(indptr.dtype)
    data, indices = np.empty(slot.size), np.empty(slot.size, dtype=A.indices.dtype)
    data[~slot], indices[~slot] = A.data, A.indices
    data[slot], indices[slot] = values[new], c[new]
    data[at + indptr[hit] - A.indptr[hit]] += values[~new]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble(mesh: Mesh, emap: EnrichmentMap, material: MaterialModel,
             rules: QuadratureSet | None = None, bcs=(),
             cache: StiffnessCache | None = None) -> LinearSystem:
    """Build the global stiffness, load vector, and prescribed-value map.

    Traction conditions enter the load vector here; displacement
    conditions populate ``fixed`` (standard dof values, plus zeros on all
    enrichment dofs of constrained nodes — the constrained boundary is
    assumed uncracked).  Apply them with :func:`apply_constraints`.
    ``cache`` is the run's stiffness for this mesh, material and
    ``rules``; a new one is built when not given.  K is its standard
    matrix plus the cut and tip elements' corrections, which the same
    cracks give bit for bit whatever the cache held.
    """
    rules = rules if rules is not None else QuadratureSet.from_targets()
    if cache is None:
        cache = StiffnessCache(mesh, material, rules)
    elif cache.mesh is not mesh or cache.material != material or cache.rules is not rules:
        raise AssemblyError("stiffness cache was built for another mesh, material or rules")
    layout = DofLayout.build(emap)
    kinds = emap.element_kinds(mesh)

    cut, Ke = cache.cut_matrices(emap, kinds)
    parts = [_entries(layout, Ke, np.tile(mesh.elements[cut], 2), BASIS_FIELD[_CUT_COLUMNS])]
    tip = np.flatnonzero(kinds == 3)
    if tip.size:
        Ke, nodes, used = _integrate(mesh, emap, elasticity_matrix(material), cache.matrices,
                                     tip, rules.tip)
        parts.append(_entries(layout, Ke, nodes, BASIS_FIELD[used]))
    K = _plus_entries(cache.standard, *(np.concatenate(a) for a in zip(*parts)),
                      layout.total_dofs)
    if not np.all(np.isfinite(K.data)):
        raise AssemblyError("non-finite stiffness entry")

    f = np.zeros(layout.total_dofs)
    _add_point_loads(mesh, emap, layout, *_traction_points(mesh, emap, bcs), f)
    if any(material.body_force):
        for eids, rule in rules.classes(kinds):
            _, _, wdet, phys = element_geometry(mesh.element_coords(eids), rule)
            _add_point_loads(mesh, emap, layout, np.repeat(eids, rule.n_points),
                             np.tile(rule.points, (eids.size, 1)), phys.reshape(-1, 2),
                             wdet.reshape(-1, 1) * np.asarray(material.body_force), f)

    fixed: dict[int, float] = {}
    for bc in bcs:
        if bc.kind != "displacement":
            continue
        if bc.boundary not in mesh.boundary_tags:
            raise AssemblyError(f"unknown boundary tag '{bc.boundary}'")
        for n in mesh.boundary_tags[bc.boundary]:
            n = int(n)
            for comp in (0, 1):
                v = bc.value[comp]
                if v is None:
                    continue
                dof = layout.cont_dof(n, comp)
                if dof in fixed and fixed[dof] != v:
                    raise AssemblyError(
                        f"conflicting prescribed values on node {n} "
                        f"component {comp}: {fixed[dof]} vs {v}"
                    )
                fixed[dof] = float(v)
            if emap.status[n] == HEAVISIDE:
                for comp in (0, 1):
                    fixed.setdefault(layout.disc_dof(n, comp), 0.0)
            elif emap.status[n] == TIP:
                for j in range(4):
                    for comp in (0, 1):
                        fixed.setdefault(layout.tip_dof(n, j, comp), 0.0)
    return LinearSystem(K=K, f=f, fixed=fixed, layout=layout,
                        tree=mesh.nested_dissection_tree, stamps=cache.stamps)


def apply_constraints(system: LinearSystem, extra=None) -> LinearSystem:
    """The system with ``extra`` prescribed dof values added to its own.

    :func:`solve` eliminates every prescribed dof: it solves for the free
    dofs alone, with the load lifted by the prescribed values, and returns
    those values exactly.  Conflicting or out-of-range prescriptions raise
    :class:`AssemblyError`.
    """
    fixed = dict(system.fixed)
    for dof, value in (extra or {}).items():
        if dof in fixed and fixed[dof] != value:
            raise AssemblyError(f"conflicting prescribed values on dof {dof}")
        fixed[dof] = float(value)
    if fixed and (min(fixed) < 0 or max(fixed) >= system.layout.total_dofs):
        raise AssemblyError("prescribed dof index out of range")
    return replace(system, fixed=fixed)


def solve(system: LinearSystem, load_factor: float = 1.0,
          factor: FrontalCholesky | None = None) -> SolutionState:
    """Direct sparse solve of the free dofs, with a residual check.

    The prescribed dofs of ``system.fixed`` are eliminated: the free-free
    block of ``K``, symmetric positive definite once enough dofs are
    fixed, is factored by supernodal Cholesky on ``system.tree`` in its
    dof order, the load is lifted by ``K`` times the prescribed values,
    and the fixed dofs take those values exactly.  A non-positive pivot
    (an indefinite or singular system) raises :class:`SolverError` naming
    the node, field and component of its dof, as do
    a non-finite solution and an infinity-norm residual above 1e-9 of the
    lifted load.  ``factor`` is the previous solve's factor on the same
    tree, kept by a propagation run: it reuses the fronts that no changed
    element touches (``system.stamps``) and whose nodes kept their layout.
    A stale front cannot pass silently, since the residual is taken
    against ``K`` itself.
    """
    layout, tree = system.layout, system.tree
    n = layout.total_dofs
    idx = np.fromiter(system.fixed.keys(), dtype=np.int64, count=len(system.fixed))
    u = np.zeros(n)
    u[idx] = np.fromiter(system.fixed.values(), dtype=float, count=idx.size)
    is_free = np.ones(n, dtype=bool)
    is_free[idx] = False
    perm, owner, local = layout.node_dofs(tree.order)
    free = is_free[perm]
    q = perm[free]
    # A node's layout: its dof count and which of its dofs are free.
    n_nodes = tree.order.size
    counts = np.bincount(owner[free], minlength=n_nodes)
    signature = 1024 * np.bincount(owner, minlength=n_nodes) + np.bincount(
        owner[free], weights=2.0 ** local[free], minlength=n_nodes).astype(np.int64)

    stamps = system.stamps[tree.order]

    lifted = system.f - system.K @ u
    rhs = lifted[q]
    factor = factor if factor is not None else FrontalCholesky(keep=False)
    try:
        stats = factor.factorize(tree, counts, signature, stamps, system.K, q)
    except np.linalg.LinAlgError as exc:
        if hasattr(exc, "pivot"):  # name the dof: its node, field and component
            k = np.flatnonzero(free)[exc.pivot]
            node, ext = int(tree.order[owner[k]]), int(local[k]) - 2
            field = ("standard" if ext < 0 else "jump" if layout.disc_slot[node] >= 0
                     else f"branch {ext // 2}")
            exc.args = (f"{exc} (node {node}, {field} {'xy'[ext % 2]})",)
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    u[q] = factor.solve(rhs)
    if not np.all(np.isfinite(u)):
        raise SolverError(
            "linear solve produced non-finite values (singular or "
            "indefinite system; check constraints and enrichment)"
        )
    rmax = float(np.abs((system.K @ u - system.f)[q]).max(initial=0.0))
    fmax = float(np.abs(rhs).max(initial=0.0))
    residual = rmax / fmax if fmax > 0.0 else rmax
    if residual > 1e-9:
        raise SolverError(f"solver residual {residual:.3e} exceeds 1e-9")
    return SolutionState(
        fields=layout.scatter(u),
        load_factor=load_factor,
        layout=layout,
        u=u,
        residual=residual,
        factor=stats,
    )


def stress_strain_at(x, state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                     material: MaterialModel):
    """Voigt strain and stress at one point (not on a crack face)."""
    eps, sig = stress_strain_batch(np.asarray(x, dtype=float)[None, :], state,
                                   mesh, emap, material)
    return eps[0], sig[0]


def stress_strain_batch(xs, state: SolutionState, mesh: Mesh,
                        emap: EnrichmentMap, material: MaterialModel):
    """Voigt strains (n,3) and stresses (n,3) at arbitrary points."""
    xs = np.asarray(xs, dtype=float)
    for crack in emap.cracks:
        dist = np.abs(signed_distance_batch(crack, xs))
        if np.any(dist < 1e-12 * max(1.0, crack.length)):
            raise ValueError(
                "stress evaluation point lies on a crack face where the "
                "side is ambiguous; offset it off the face"
            )
    _, grad = evaluate_fields(xs, mesh, emap, state.fields)
    eps = voigt_strain(grad)
    sig = eps @ elasticity_matrix(material).T
    return eps, sig
