"""Stiffness assembly, boundary conditions, and the sparse solve.

The global system couples three nodal fields: the standard bilinear
displacement, the shifted-Heaviside jump field, and the four-fold branch
field at crack tips.  Degrees of freedom exist only where the enrichment
map grants them, so the jump/branch constraint is structural rather than
penalized.

Integration strategy: every element is first integrated with the plain
2x2 rule in one vectorized pass, once per mesh and distinct element shape,
and only the table of those matrices is kept (:class:`ShapeTable`).
The cut elements and the tip elements are then integrated as two
classes, one elevated rule per class, from the gradients of
:func:`~xfem2d.enrichment.enriched_basis`; each corrects its elements'
whole block (all field couplings including the standard one), a tip
element's over only the basis columns its corners carry.  A run
keeps the cut elements' matrices from step to step and integrates only
those whose corners' enrichment changed or one of whose rule points
changed sides of the crack.  Uncut elements holding a
Heaviside node need no correction at all: the shifted factor
M = H(phi(x)) - H(phi(node)) is identically zero on them, since the node
and the whole element sit on the same side of the crack.  Traction and
body-force loads are weighted sums of the same basis at points of the
loaded edges and of each integration class, so the stiffness, the loads
and the evaluated fields share one definition of the enriched basis.

Solve: no global matrix is formed.  The fixed dofs are eliminated, not
pinned, and the element matrices go straight into the fronts of a
supernodal multifrontal Cholesky factorization (:mod:`xfem2d.cholesky`)
on the mesh's nested-dissection tree, with each node's jump and branch
dofs right after its two standard dofs.  The fixed dofs take their
prescribed values exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from xfem2d.cholesky import FactorStats, FrontalCholesky, NodePairs, _by_element
from xfem2d.cracks import signed_distance_batch
from xfem2d.enrichment import (
    BASIS_FIELD,
    HEAVISIDE,
    TIP,
    EnrichmentMap,
    FieldTriplet,
    basis_batches,
    enriched_basis,
    evaluate_fields,
)
from xfem2d.mesh import (
    DissectionTree,
    Mesh,
    QuadratureRule,
    QuadratureSet,
    _distinct,
    _gauss_1d,
    _runs,
    edge_points,
    element_geometry,
    shape_functions,
)

__all__ = [
    "AssemblyError",
    "SolverError",
    "MaterialModel",
    "BoundaryCondition",
    "QuadratureSet",
    "ShapeTable",
    "ElementBlocks",
    "StiffnessCache",
    "DofLayout",
    "LinearSystem",
    "SolutionState",
    "elasticity_matrix",
    "voigt_strain",
    "assemble",
    "apply_constraints",
    "solve",
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

    def column_dofs(self, nodes: np.ndarray, field: np.ndarray) -> np.ndarray:
        """The x and y dofs (..., 2) of each basis column of
        :func:`~xfem2d.enrichment.enriched_basis`, given its node and field
        (0 standard, 1 jump, 2 + j branch j); -1 where the node lacks it."""
        disc, tip = self.disc_slot[nodes], self.tip_slot[nodes]
        base_disc = 2 * self.n_nodes
        base_tip = base_disc + 2 * self.n_disc
        x = np.where(field == 0, 2 * nodes,
                     np.where(field == 1, np.where(disc >= 0, base_disc + 2 * disc, -1),
                              np.where(tip >= 0, base_tip + 8 * tip + 2 * (field - 2), -1)))
        return np.stack([x, np.where(x >= 0, x + 1, -1)], axis=-1)

    def node_dofs(self, node_order: np.ndarray):
        """Dof order that follows ``node_order`` with each node's dofs
        together: entry k is the dof placed k-th, a node's two standard
        dofs, then its jump pair or its eight branch dofs (a node has one
        status), for the nodes in turn.  Also returns the position in
        ``node_order`` of each entry's node."""
        order = np.asarray(node_order, dtype=np.int64)
        disc, tip = self.disc_slot[order] >= 0, self.tip_slot[order] >= 0
        owner, rank = _runs(1 + disc + 4 * tip)  # standard, then the jump or the four branches
        dofs = self.column_dofs(order[owner], np.where(disc[owner], rank, rank + (rank > 0)))
        return dofs.reshape(-1), np.repeat(owner, 2)

    def scatter(self, u: np.ndarray) -> FieldTriplet:
        """Spread a flat solution vector into dense per-node field arrays."""
        fields, n, n_disc = FieldTriplet.zeros(self.n_nodes), 2 * self.n_nodes, 2 * self.n_disc
        fields.u_cont[:] = u[:n].reshape(-1, 2)
        fields.u_disc[self.disc_slot >= 0] = u[n:n + n_disc].reshape(-1, 2)
        fields.u_tip[self.tip_slot >= 0] = u[n + n_disc:].reshape(-1, 4, 2)
        return fields


@dataclass(frozen=True)
class ShapeTable:
    """The standard stiffness of every element, one matrix per element shape.

    Element e's matrix (8, 8), over its standard dofs, is
    ``matrices[ids[e]]``: nothing of size (m, 8, 8) is held, only the
    table (s, 8, 8) and the ids (m,).  Its dofs, 2 n + a for component a
    of corner node n, follow from ``elements`` (m, 4), the mesh's own array.
    """

    matrices: np.ndarray
    ids: np.ndarray
    elements: np.ndarray

    def take(self, eids) -> np.ndarray:
        """The matrices (e, 8, 8) of the elements ``eids``."""
        return self.matrices[self.ids[eids]]

    def dofs(self, eids) -> np.ndarray:
        """The standard dofs (e, 8) of the elements ``eids``."""
        return (2 * self.elements[eids, :, None] + [0, 1]).reshape(-1, 8)


@dataclass(frozen=True)
class ElementBlocks:
    """The stiffness corrections of one class of elements, a group per size.

    Group g is ``groups[g]``, (matrices (e, 2S, 2S), dofs (e, 2S), eids
    (e,)): the matrices of the elements ``eids``, ascending, over their
    basis columns ``columns[g]`` (e, S), or (1, S) for all of them, of
    :func:`~xfem2d.enrichment.enriched_basis`, ascending, and the dofs of
    those columns, -1 where a node lacks one.  Every sum over the class
    adds its elements in element order, whichever group holds them, and
    each element's product K_e u_e runs over the columns of the whole
    class (:func:`_product`), so no result depends on the grouping.
    """

    groups: tuple
    columns: tuple


@dataclass
class LinearSystem:
    """Stiffness as element blocks, load vector, and prescribed-value map.

    K is the standard stiffness ``standard`` plus the corrections
    ``blocks``, one :class:`ElementBlocks` per class: assembled, the cut
    elements' (one group over the standard and jump columns, -1 where a
    corner lacks its jump) and then the tip-class elements', each over
    only the columns its corners carry, grouped by their count.  Every sum
    over the blocks adds the classes in that order and each class's
    elements in element order.  ``pairs`` is the standard stiffness summed
    over node pairs, which :func:`solve` factors in its place on ``tree``.
    ``stamps`` holds each node's change stamp: a factor kept from a system
    of the same cache reuses the fronts whose nodes kept theirs.
    """

    standard: ShapeTable
    blocks: tuple
    pairs: NodePairs
    f: np.ndarray
    fixed: dict[int, float]
    layout: DofLayout
    tree: DissectionTree
    stamps: np.ndarray

    @property
    def K(self):
        """The standard matrix of every element and then the blocks, summed
        into a ``scipy.sparse.csr_matrix``, explicit zeros kept, by class
        and then by element: built on each call, off the path of
        :func:`solve`, and the one place a matrix per element is gathered.
        It is the one path of the package that imports ``scipy.sparse``, and
        through it scipy's array-API layer (``numpy.f2py`` and more, about
        0.16 s on the first call), which is why the import is here."""
        import scipy.sparse as sp

        n = self.layout.total_dofs
        every = np.arange(self.standard.ids.size)
        keys, values = [], []
        standard = ((self.standard.take(every), self.standard.dofs(every), every),)
        for groups in (standard, *(blocks.groups for blocks in self.blocks)):
            eids = [ids for _, _, ids in groups]
            key = _by_element(eids, [np.where((dofs[:, :, None] >= 0) & (dofs[:, None, :] >= 0),
                                              dofs[:, :, None] * n + dofs[:, None, :], -1)
                                     .reshape(len(dofs), dofs.shape[1] ** 2)
                                     for _, dofs, _ in groups])
            value = _by_element(eids, [m.reshape(len(m), m.shape[1] ** 2) for m, _, _ in groups])
            keys.append(key[key >= 0])
            values.append(value[key >= 0])
        keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        data = np.bincount(inverse, weights=np.concatenate(values), minlength=keys.size)
        return sp.csr_matrix((data, keys % n, np.searchsorted(keys // n, np.arange(n + 1))),
                             shape=(n, n))


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
                     N, dN, xs, load: np.ndarray, f: np.ndarray) -> None:
    """Add to ``f`` the work of point forces ``load`` (n, 2) at the given
    points on every basis function."""
    for run, values, _, nodes in basis_batches(mesh, emap, eids, N, dN, xs):
        dofs = layout.column_dofs(nodes, BASIS_FIELD)
        weights = values[:, :, None] * load[run, None, :]
        f += np.bincount(dofs[dofs >= 0], weights=weights[dofs >= 0], minlength=f.size)


def _traction_points(mesh: Mesh, emap: EnrichmentMap, bcs):
    """Quadrature points of the loaded boundary edges and their forces.

    Each edge is split where any crack segment crosses it, so the
    piecewise-constant jump factor is integrated exactly: the crossings
    of every (edge, segment) pair are found at once.  Returns the points'
    elements, shape values and gradients, positions and forces (n, 2).
    """
    edges = mesh.boundary_edges
    loaded, force = [np.empty(0, dtype=np.int64)], [np.empty((0, 2))]
    for bc in bcs:
        if bc.kind != "traction":
            continue
        if bc.boundary not in mesh.boundary_tags:
            raise AssemblyError(f"unknown boundary tag '{bc.boundary}'")
        on = np.zeros(mesh.n_nodes, dtype=bool)
        on[mesh.boundary_tags[bc.boundary]] = True
        tagged = on[edges[:, :2]].all(axis=1)
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
    gp, gw = _gauss_1d(6)
    ts = (0.5 * (t0 + t1))[:, None] + (0.5 * (t1 - t0))[:, None] * gp  # (pieces, 6)
    length = np.linalg.norm(pb - pa, axis=1)[edge]
    ws = ((0.5 * (t1 - t0) * length)[:, None] * gw).ravel()
    edge, ts = np.repeat(edge, gp.size), ts.ravel()
    local, xs = edge_points(side[edge], ts, pa[edge], pb[edge])
    N, dN, _ = shape_functions(mesh.element_coords(eid[edge]), local)
    return eid[edge], N, dN, xs, ws[:, None] * force[edge]


def _integrate(mesh: Mesh, emap: EnrichmentMap, D: np.ndarray, standard: ShapeTable,
               eids: np.ndarray, rule: QuadratureRule, columns=None):
    """Stiffness of the elements ``eids`` under ``rule`` over all coupled
    fields, less their plain-rule stiffness, from one evaluation of the basis.

    An element's matrix (2S, 2S) runs over basis columns of
    :func:`~xfem2d.enrichment.enriched_basis`, ascending: ``columns`` (S,)
    for every element, or by default its live ones, those its corners
    carry: the four standard columns, the jump column of each Heaviside
    corner and the four branch columns of each tip corner, of that
    corner's own tip.  The elements are integrated in one
    :func:`_element_matrices` call per distinct S.  Returns, per S, the
    elements (rows of ``eids``, ascending), their columns (e, S) and their
    matrices.  An element's matrix does not depend on the other elements
    of the batch, nor on the columns it lacks, so a matrix kept from an
    earlier batch, or one over more columns, holds the same bits.

    A cut element whose quadrature points all sample one side (the crack
    clips a corner sliver below rule resolution) is still integrated: the
    jump factors are then constant over the element, which is exactly the
    limit of a vanishing sliver.  Classification keeps a Heaviside node
    only when its cut- and tip-class elements hold two or more points of
    their class's rule on the far side of the crack from it, where M is
    not zero, so each jump dof is integrated at two points at least.
    """
    q = rule.n_points
    N, dN, wdet, phys = element_geometry(mesh.element_coords(eids), rule)
    node_tip = emap.node_tip[mesh.elements[eids]]  # branch gradients are singular at a tip
    for gti in _distinct(node_tip[node_tip >= 0]).tolist():
        tinfo = emap.tips[gti]
        own = np.nonzero((node_tip == gti).any(axis=1))[0]
        on = own[(np.linalg.norm(phys[own] - tinfo.frame.origin, axis=-1) < 1e-14).any(axis=1)]
        if on.size:
            raise AssemblyError(
                f"a quadrature point of element {eids[on[0]]} coincides with the "
                f"tip of crack {tinfo.crack_id}; change the rule or mesh"
            )
    grads = enriched_basis(mesh, emap, np.repeat(eids, q), np.tile(N, (eids.size, 1)),
                           dN.reshape(-1, 4, 2), phys.reshape(-1, 2))[1].reshape(-1, q, 24, 2)
    if columns is None:
        live = np.tile(emap.status[mesh.elements[eids]], 6) == np.minimum(BASIS_FIELD, TIP)
        live[:, :4] = True  # column 4 f + i needs status min(f, TIP) at corner i
    else:
        live = np.zeros((eids.size, 24), dtype=bool)
        live[:, columns] = True
    count = live.sum(axis=1)
    groups = []
    for S in _distinct(count).tolist():
        rows = np.flatnonzero(count == S)
        cols = np.nonzero(live[rows])[1].reshape(-1, S)
        Ke = _element_matrices(grads[rows[:, None, None], np.arange(q)[:, None], cols[:, None]],
                               wdet[rows], D)
        Ke[:, :8, :8] -= standard.take(eids[rows])
        groups.append((rows, cols, Ke))
    return groups


_PRODUCT_BATCH = 1024  # elements per gather of the shape table in _product


def _product(system: LinearSystem, u: np.ndarray) -> np.ndarray:
    """K u, as the sum over the elements of K_e u_e: the standard part
    first, then each class of blocks.

    The standard K_e u_e of all elements are gathered from the shape table
    in runs of ``_PRODUCT_BATCH`` elements, so no (m, 8, 8) array is formed,
    and summed by one pass in element order per component, as one pass over
    the element-ordered dofs would: the residual's bits depend on the order.
    A class is summed likewise, by one pass over its elements in element
    order, and each of its rows K_e u_e runs over all the columns its class
    uses, zero where the element lacks one, as if its matrix were padded to
    them (a run of the padded rows at a time): the bits of a row's sum
    depend on where its terms stand."""
    standard = system.standard
    elements = standard.elements
    Ku = np.empty((2, elements.shape[0], 4))  # by component, element and corner
    for lo in range(0, elements.shape[0], _PRODUCT_BATCH):
        run = slice(lo, lo + _PRODUCT_BATCH)
        Ku[:, run] = np.einsum("eij,ej->ei", standard.take(run),
                               u[standard.dofs(run)]).reshape(-1, 4, 2).transpose(2, 0, 1)
    out = np.zeros(u.size)
    n = system.layout.n_nodes
    for a in (0, 1):  # dof 2 k + a of each corner node k
        out[a:2 * n:2] += np.bincount(elements.reshape(-1), weights=Ku[a].reshape(-1),
                                      minlength=n)
    for blocks in system.blocks:
        used = _distinct(np.concatenate([c.reshape(-1) for c in blocks.columns]))
        width = 2 * used.size
        products = []
        for (matrices, dofs, _), columns in zip(blocks.groups, blocks.columns):
            ue = np.where(dofs >= 0, u[dofs], 0.0)
            if dofs.shape[1] == width:  # the element has every column of its class
                products.append(np.einsum("eij,ej->ei", matrices, ue))
                continue
            at = np.broadcast_to((2 * np.searchsorted(used, columns)[:, :, None] + [0, 1])
                                 .reshape(len(columns), -1), dofs.shape)
            products.append(np.empty(dofs.shape))
            step = max(1, _PRODUCT_BATCH * 64 // (dofs.shape[1] * width))
            for lo in range(0, len(dofs), step):
                run = slice(lo, lo + step)
                padded = np.zeros(matrices[run].shape[:2] + (width,))
                np.put_along_axis(padded, at[run, None], matrices[run], axis=2)
                up = np.zeros((len(padded), width))
                np.put_along_axis(up, at[run], ue[run], axis=1)
                products[-1][run] = np.einsum("eij,ej->ei", padded, up)
        eids = [ids for _, _, ids in blocks.groups]
        dofs = _by_element(eids, [dofs for _, dofs, _ in blocks.groups])
        products = _by_element(eids, products)
        out += np.bincount(dofs[dofs >= 0], minlength=u.size, weights=products[dofs >= 0])
    return out


_CUT_COLUMNS = np.arange(8)  # standard and jump columns: a cut element has no tip node
# Change stamps, distinct across the caches of a process: a factor kept
# from one cache's systems cannot take another's stamps for its own.
_STAMPS = itertools.count(1)


def _cut_keys(mesh: Mesh, emap: EnrichmentMap, cut: np.ndarray) -> np.ndarray:
    """All a cut-class element's matrix depends on besides the element
    itself (n, 12 + q), for the map's cut-class elements ``cut``: each
    corner's status, crack and sign, and the side of its crack each
    cut-rule point lies on (:attr:`~xfem2d.enrichment.EnrichmentMap.cut_sides`),
    which fixes the jump factor M there.  No corner is a tip node: the
    support of every tip node is in the tip class."""
    conn = mesh.elements[cut]
    return np.column_stack([emap.status[conn], emap.node_crack[conn], emap.node_sign[conn],
                            emap.cut_sides])


class StiffnessCache:
    """The stiffness of one mesh, material and rule set across the steps of a run.

    None of these changes while a crack grows, so a run builds one and
    passes it to :func:`assemble` at every step.  It holds:

    - :attr:`standard`, the plain-rule stiffness of every element as a
      :class:`ShapeTable`, integrated and held once per distinct shape (a
      structured mesh has a few hundred), and :attr:`pairs`, its sums over
      the mesh's node pairs, placed in the fronts of its nested-dissection
      tree, both computed on first use;
    - the cut-class elements of the last assembly, their matrices by
      basis column (node, field), so a renumbered dof layout costs
      nothing, and their keys (:func:`_cut_keys`).  A matrix is reused
      exactly where the element is cut-class in both maps and its key row
      is equal, whichever maps they are: the key holds all the matrix
      depends on;
    - :attr:`stamps`, a change stamp per node, renewed on the four nodes
      of every element an assembly integrates or evicts: the fronts of the
      factorization whose nodes kept their stamps kept their entries.
    """

    def __init__(self, mesh: Mesh, material: MaterialModel, rules: QuadratureSet):
        self.mesh, self.material, self.rules = mesh, material, rules
        self.stamps = np.full(mesh.n_nodes, next(_STAMPS))
        # The last assembly's cut elements, ascending, their matrices and
        # keys, and its cut and tip elements.
        self._cut = np.empty(0, dtype=np.int64)
        self._cut_matrices = np.empty((0, 16, 16))
        self._keys = np.empty((0, 12 + rules.cut.n_points))
        self._enriched = np.empty(0, dtype=np.int64)

    @cached_property
    def standard(self) -> ShapeTable:
        """Element stiffness of the standard field, one (8, 8) matrix per shape.

        It is integrated from the corners' offsets from corner 0, once per
        distinct shape (offsets equal bit for bit), so the elements of one
        shape, and those of a mesh translated exactly, share its bits."""
        xy = self.mesh.element_coords()
        offsets = xy - xy[:, :1]
        bits = offsets[:, 1:].reshape(-1, 6).view(np.uint64)
        mix = np.zeros(len(bits), dtype=np.uint64)
        for word in bits.T:
            mix = (mix ^ word) * np.uint64(0x100000001B3)  # the 64-bit FNV prime
        order = np.argsort(mix)  # any element of a shape may stand for it
        bits = bits[order]
        new = np.ones(order.size, dtype=bool)  # a new shape wherever neighbours differ,
        new[1:] = (bits[1:] != bits[:-1]).any(axis=1)  # so equal mixes merge nothing
        ids = np.empty_like(order)
        ids[order] = np.cumsum(new) - 1
        _, dN, wdet, _ = element_geometry(offsets[order[new]], self.rules.standard)
        return ShapeTable(_element_matrices(dN, wdet, elasticity_matrix(self.material)), ids,
                          self.mesh.elements)

    @cached_property
    def pairs(self) -> NodePairs:
        """:attr:`standard` summed over the node pairs of the mesh's tree;
        a non-finite sum raises :class:`AssemblyError`."""
        tree = self.mesh.nested_dissection_tree
        every = np.arange(self.mesh.n_elements)
        table = self.standard
        pairs = NodePairs.sum(tree, [[(table.matrices, table.dofs(every), every, table.ids)]],
                              (2 * tree.order[:, None] + [0, 1]).ravel(),
                              np.repeat(np.arange(tree.order.size), 2))
        if not np.isfinite(pairs.blocks).all():
            raise AssemblyError("non-finite stiffness entry")
        return pairs

    def cut_matrices(self, emap: EnrichmentMap):
        """The cut elements of ``emap`` (kind 2) and their stiffness
        corrections (n, 16, 16) over the standard and jump columns.

        A map classified at other rules than the cache's (not the same three
        rule objects; equal targets give the same ones) raises
        :class:`AssemblyError`.  The matrix of an element whose key row equals
        the last call's is reused, and the rest integrated in one batch.  The
        nodes of every integrated element, of every tip-class element (never
        reused) and of every element that left the cut or tip class get new
        stamps.
        """
        if any(getattr(emap.rules, c) is not getattr(self.rules, c)
               for c in ("standard", "cut", "tip")):
            raise AssemblyError("the enrichment map was classified at other quadrature rules "
                                "than the stiffness cache's")
        cut = np.flatnonzero(emap.kinds == 2)
        keys = _cut_keys(self.mesh, emap, cut)
        Ke = np.empty((cut.size, 16, 16))
        reused = np.zeros(cut.size, dtype=bool)
        _, at, old = np.intersect1d(cut, self._cut, assume_unique=True, return_indices=True)
        same = np.all(keys[at] == self._keys[old], axis=1)
        reused[at[same]] = True
        Ke[at[same]] = self._cut_matrices[old[same]]
        if not reused.all():
            Ke[~reused] = _integrate(self.mesh, emap, elasticity_matrix(self.material),
                                     self.standard, cut[~reused], self.rules.cut,
                                     _CUT_COLUMNS)[0][2]
        enriched = np.flatnonzero(emap.kinds >= 2)
        changed = np.zeros(self.mesh.n_elements, dtype=bool)
        changed[self._enriched] = changed[enriched] = True
        changed[cut[reused]] = False
        self.stamps = self.stamps.copy()  # systems assembled earlier keep theirs
        self.stamps[self.mesh.elements[changed]] = next(_STAMPS)
        self._cut, self._cut_matrices, self._keys, self._enriched = cut, Ke, keys, enriched
        return cut, Ke


def assemble(mesh: Mesh, emap: EnrichmentMap, material: MaterialModel, bcs=(),
             cache: StiffnessCache | None = None) -> LinearSystem:
    """Build the stiffness blocks, load vector, and prescribed-value map.

    Each class is integrated at its rule of ``emap.rules``.  Traction
    conditions enter the load vector here; displacement conditions populate
    ``fixed`` (standard dof values, plus zeros on all enrichment dofs of
    constrained nodes — the constrained boundary is assumed uncracked).
    Apply them with :func:`apply_constraints`.  ``cache`` is the run's
    stiffness for this mesh, material and rules, built when not given.  The
    system's standard stiffness is the cache's shape table, and its blocks
    the cut and tip elements' corrections, which the same cracks give bit
    for bit whatever the cache held: the cut class over the standard and
    jump columns, and the tip class with each element over its live
    columns only (:func:`_integrate`), a group per column count, so a tip
    block holds (2 S)^2 entries for an element whose corners carry S
    columns.  Every sum over the blocks adds the cut class and then the
    tip class, each by element (:class:`ElementBlocks`).
    """
    if cache is None:
        cache = StiffnessCache(mesh, material, emap.rules)
    elif cache.mesh is not mesh or cache.material != material:
        raise AssemblyError("stiffness cache was built for another mesh or material")
    layout = DofLayout.build(emap)
    kinds = emap.kinds

    cut, Ke = cache.cut_matrices(emap)
    dofs = layout.column_dofs(np.tile(mesh.elements[cut], 2), BASIS_FIELD[_CUT_COLUMNS])
    blocks = [ElementBlocks(((Ke, dofs.reshape(cut.size, 16), cut),), (_CUT_COLUMNS[None],))]
    tip = np.flatnonzero(kinds == 3)
    if tip.size:
        groups = _integrate(mesh, emap, elasticity_matrix(material), cache.standard, tip,
                            emap.rules.tip)
        blocks.append(ElementBlocks(tuple(
            (Ke, layout.column_dofs(np.take_along_axis(mesh.elements[tip[rows]], cols % 4, axis=1),
                                    BASIS_FIELD[cols]).reshape(rows.size, -1), tip[rows])
            for rows, cols, Ke in groups), tuple(cols for _, cols, _ in groups)))
    # The standard matrices are summed and checked once per mesh, by the cache.
    pairs = cache.pairs
    if not all(np.isfinite(m).all() for b in blocks for m, _, _ in b.groups):
        raise AssemblyError("non-finite stiffness entry")

    f = np.zeros(layout.total_dofs)
    _add_point_loads(mesh, emap, layout, *_traction_points(mesh, emap, bcs), f)
    if any(material.body_force):
        eids, N, dN, wdet, phys = emap.rules.rule_points(mesh, np.arange(mesh.n_elements), kinds)
        _add_point_loads(mesh, emap, layout, eids, N, dN, phys,
                         wdet[:, None] * np.asarray(material.body_force), f)

    fixed: dict[int, float] = {}
    for bc in bcs:
        if bc.kind != "displacement":
            continue
        if bc.boundary not in mesh.boundary_tags:
            raise AssemblyError(f"unknown boundary tag '{bc.boundary}'")
        for n in mesh.boundary_tags[bc.boundary].tolist():
            for dof, v in zip((2 * n, 2 * n + 1), bc.value):
                if v is not None and dof in fixed and fixed[dof] != v:
                    raise AssemblyError(f"conflicting prescribed values on node {n} component "
                                        f"{dof - 2 * n}: {fixed[dof]} vs {v}")
                if v is not None:
                    fixed[dof] = float(v)
            if emap.status[n]:  # its enrichment dofs
                for dof in layout.node_dofs([n])[0][2:].tolist():
                    fixed.setdefault(dof, 0.0)
    return LinearSystem(standard=cache.standard, blocks=tuple(blocks), pairs=pairs, f=f,
                        fixed=fixed, layout=layout, tree=mesh.nested_dissection_tree,
                        stamps=cache.stamps)


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
    block of K, symmetric positive definite once enough dofs are fixed, is
    factored by supernodal Cholesky on ``system.tree`` in its dof order,
    straight from the standard node pairs and the other blocks summed over
    theirs; the load is lifted by K times the prescribed values, and the
    fixed dofs take those values exactly.  A free dof whose diagonal entry,
    the standard node pairs' plus the other blocks', is not positive raises
    :class:`AssemblyError` before the factorization starts, and a
    non-positive pivot (an indefinite or singular system) raises
    :class:`SolverError`, both naming the node, field and component of the
    dof; so do a non-finite solution and an infinity-norm residual above
    1e-9 of the lifted load.  ``factor`` is the previous solve's factor on
    the same tree, kept by a propagation run: it reuses the fronts that no
    changed element touches (``system.stamps``) and whose nodes kept their
    layout.  A stale front cannot pass silently: the lift and the residual
    are sums of K_e u_e over the elements, independent of the fronts.
    """
    layout, tree = system.layout, system.tree
    n = layout.total_dofs
    idx = np.fromiter(system.fixed.keys(), dtype=np.int64, count=len(system.fixed))
    u = np.zeros(n)
    u[idx] = np.fromiter(system.fixed.values(), dtype=float, count=idx.size)
    is_free = np.ones(n, dtype=bool)
    is_free[idx] = False
    perm, owner = layout.node_dofs(tree.order)
    free = is_free[perm]
    q = perm[free]
    # A node's layout: its dof count and which of its dofs are free.
    n_nodes = tree.order.size
    sizes = np.bincount(owner, minlength=n_nodes)
    counts = np.bincount(owner[free], minlength=n_nodes)
    signature = 1024 * sizes + np.bincount(  # bit j: the node's dof j is free
        owner[free], weights=2.0 ** _runs(sizes)[1][free], minlength=n_nodes).astype(np.int64)
    index = np.full(n, -1, dtype=np.int64)  # each dof's place among the free ones
    index[q] = np.arange(q.size)

    def name(k: int) -> str:
        """The node, field and component of dof ``perm[k]``, whose node is
        found again here, so the solve does not hold each dof's node."""
        owner = layout.node_dofs(tree.order)[1]
        node, ext = int(tree.order[owner[k]]), k - int(np.searchsorted(owner, owner[k])) - 2
        field = ("standard" if ext < 0 else "jump" if layout.disc_slot[node] >= 0
                 else f"branch {ext // 2}")
        return f"node {node}, {field} {'xy'[ext % 2]}"

    lifted = system.f - _product(system, u) if u.any() else system.f
    rhs = lifted[q]
    factor = factor if factor is not None else FrontalCholesky(keep=False)
    try:
        corrections = NodePairs.sum(tree, [b.groups for b in system.blocks], perm, owner)
        del owner
        diagonal = corrections.diagonal(n)
        standard = system.pairs.leading_diagonal  # every layout numbers standard dofs first
        diagonal[:standard.size] += standard
        diagonal = diagonal[perm]
        bad = np.flatnonzero(free & ~(diagonal > 0.0))
        if bad.size:
            raise AssemblyError(f"non-positive stiffness diagonal {diagonal[bad[0]]:.6g} on a "
                                f"free dof ({name(bad[0])})")
        stats = factor.factorize(tree, counts, signature, system.stamps[tree.order], index,
                                 (system.pairs, corrections))
    except np.linalg.LinAlgError as exc:
        if hasattr(exc, "pivot"):  # name the dof
            exc.args = (f"{exc} ({name(np.flatnonzero(free)[exc.pivot])})",)
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    u[q] = factor.solve(rhs)
    if not np.all(np.isfinite(u)):
        raise SolverError(
            "linear solve produced non-finite values (singular or "
            "indefinite system; check constraints and enrichment)"
        )
    rmax = float(np.abs((_product(system, u) - system.f)[q]).max(initial=0.0))
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
