"""Stiffness assembly, boundary conditions, and the sparse solve.

The global system couples three nodal fields: the standard bilinear
displacement, the shifted-Heaviside jump field, and the four-fold branch
field at crack tips.  Degrees of freedom exist only where the enrichment
map grants them, so the jump/branch constraint is structural rather than
penalized.

Integration strategy: every element is first integrated with the plain
2x2 rule in one vectorized pass; elements that carry a jump or branch
contribution are then corrected in place so that their full block (all
field couplings including the standard one) is integrated with a single
elevated rule — one rule per element class.  Uncut elements holding a
Heaviside node need no correction at all: the shifted factor
M = H(phi(x)) - H(phi(node)) is identically zero on them, since the node
and the whole element sit on the same side of the crack.

Solve: the fixed dofs are eliminated, not pinned: the free-free block of
the stiffness is symmetric positive definite, and a supernodal
multifrontal Cholesky factorization (:mod:`xfem2d.cholesky`) factors it
front by front on the mesh's nested-dissection tree
(:attr:`~xfem2d.mesh.Mesh.nested_dissection_tree`, computed once per
mesh), with each node's jump and branch dofs right after its two standard
dofs.  The fixed dofs take their prescribed values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from xfem2d.cholesky import FactorStats, FrontalCholesky
from xfem2d.cracks import signed_distance_batch
from xfem2d.enrichment import (
    HEAVISIDE,
    TIP,
    EnrichmentMap,
    FieldTriplet,
    branch_functions,
    branch_shape,
    evaluate_fields,
    shifted_heaviside,
)
from xfem2d.mesh import DissectionTree, Mesh, QuadratureRule, element_geometry, gauss_rule

__all__ = [
    "AssemblyError",
    "SolverError",
    "MaterialModel",
    "BoundaryCondition",
    "QuadratureSet",
    "StandardStiffness",
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
class QuadratureSet:
    """Element rules per class: plain, cut (jump), and tip (branch).

    The tip rule is always a tensor rule with an even per-axis count:
    odd rules sample the element center, which coincides with the crack
    tip whenever a crack is aligned with element-center rows, and the
    branch gradient is singular there.
    """

    standard: QuadratureRule
    cut: QuadratureRule
    tip: QuadratureRule

    @classmethod
    def from_targets(cls, standard: int = 4, cut: int = 35,
                     tip: int = 40) -> "QuadratureSet":
        n = int(np.ceil(np.sqrt(tip)))
        n += n % 2
        return cls(
            standard=gauss_rule(standard),
            cut=gauss_rule(cut),
            tip=gauss_rule(n * n),
        )

    def classes(self, kinds: np.ndarray) -> list:
        """``(element ids, rule)`` of each non-empty integration class of
        :meth:`~xfem2d.enrichment.EnrichmentMap.element_kinds`: plain and
        blending elements, cut elements, tip elements."""
        pairs = ((np.nonzero(kinds < 2)[0], self.standard),
                 (np.nonzero(kinds == 2)[0], self.cut),
                 (np.nonzero(kinds == 3)[0], self.tip))
        return [(eids, rule) for eids, rule in pairs if eids.size]


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

    def permutation(self, node_order: np.ndarray) -> np.ndarray:
        """Dof order that follows ``node_order`` with each node's dofs together.

        Entry k is the dof placed k-th: a node's two standard dofs, then
        its jump pair or its eight branch dofs (a node has one status),
        for the nodes in turn.
        """
        return self.node_dofs(node_order)[0]

    def node_dofs(self, node_order: np.ndarray):
        """:meth:`permutation` of ``node_order``, with the position in
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
    ``K`` on; its order, expanded to dofs, is :attr:`perm`.
    """

    K: sp.csr_matrix
    f: np.ndarray
    fixed: dict[int, float]
    layout: DofLayout
    tree: DissectionTree

    @property
    def perm(self) -> np.ndarray:
        """Dof order of the factorization: entry k is the dof eliminated
        k-th, fixed dofs included."""
        return self.layout.permutation(self.tree.order)


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


def voigt_strain(grad: np.ndarray) -> np.ndarray:
    """Engineering strains (..., 3), order xx, yy, xy, from displacement
    gradients ``grad[..., a, b] = du_a/dx_b``."""
    return np.stack([grad[..., 0, 0], grad[..., 1, 1],
                     grad[..., 0, 1] + grad[..., 1, 0]], axis=-1)


# ---------------------------------------------------------------------------
# element-level machinery
# ---------------------------------------------------------------------------

def _element_scalars(mesh: Mesh, emap: EnrichmentMap, layout: DofLayout, eid: int,
                     values: np.ndarray, dN: np.ndarray, phys: np.ndarray):
    """Scalar shape functions of one element, one per dof pair.

    Returns (dofs, vals (q, S), grads (q, S, 2)) where scalar k spawns the
    x/y dof pair dofs[2k], dofs[2k+1].  The signed distance to a crack and
    the branch functions of a tip are evaluated once per element, however
    many of its nodes they enrich.
    """
    conn = mesh.elements[eid]
    vals = [values[:, li] for li in range(4)]
    grads = [dN[:, li, :] for li in range(4)]
    dofs: list[int] = []
    for li in range(4):
        n = int(conn[li])
        dofs += [layout.cont_dof(n, 0), layout.cont_dof(n, 1)]
    phi: dict[int, np.ndarray] = {}  # crack id -> signed distance at phys
    branch: dict[int, tuple] = {}  # tip index -> (F, dF) at phys
    for li in range(4):
        n = int(conn[li])
        status = emap.status[n]
        if status == HEAVISIDE:
            cid = int(emap.node_crack[n])
            if cid not in phi:
                phi[cid] = signed_distance_batch(emap.crack_by_id(cid), phys)
            M = shifted_heaviside(emap.node_sign[n], phi[cid])
            vals.append(values[:, li] * M)
            grads.append(M[:, None] * dN[:, li, :])
            dofs += [layout.disc_dof(n, 0), layout.disc_dof(n, 1)]
        elif status == TIP:
            gti = int(emap.node_tip[n])
            if gti not in branch:
                tinfo = emap.tips[gti]
                r, F, dF = branch_functions(tinfo, emap.crack_by_id(tinfo.crack_id), phys)
                if np.any(r < 1e-14):
                    raise AssemblyError(
                        f"a quadrature point of element {eid} coincides with the "
                        f"tip of crack {tinfo.crack_id}; change the rule or mesh"
                    )
                branch[gti] = F, dF
            NF, G = branch_shape(values[:, li], dN[:, li, :], *branch[gti])
            for j in range(4):
                vals.append(NF[:, j])
                grads.append(G[:, j, :])
                dofs += [layout.tip_dof(n, j, 0), layout.tip_dof(n, j, 1)]
    return dofs, np.stack(vals, axis=1), np.stack(grads, axis=1)


def _strain_matrix(grads: np.ndarray) -> np.ndarray:
    """Voigt B matrix (..., 3, 2S) from scalar gradients (..., S, 2)."""
    B = np.zeros(grads.shape[:-2] + (3, 2 * grads.shape[-2]))
    B[..., 0, 0::2] = grads[..., 0]
    B[..., 1, 1::2] = grads[..., 1]
    B[..., 2, 0::2] = grads[..., 1]
    B[..., 2, 1::2] = grads[..., 0]
    return B


def _element_matrix(B: np.ndarray, D: np.ndarray, wdet: np.ndarray) -> np.ndarray:
    """Sum over points q of wdet_q B_q^T D B_q, for B of shape (..., q, 3, n)."""
    n = B.shape[-1]
    BW = (B * wdet[..., None, None]).reshape(B.shape[:-3] + (-1, n))
    DB = (D @ B).reshape(BW.shape)
    return BW.swapaxes(-1, -2) @ DB


@dataclass(frozen=True, eq=False)
class StandardStiffness:
    """Plain-rule stiffness of every element and its COO pattern.

    It depends only on the mesh, the material and the standard rule, none
    of which changes while a crack grows, so a run builds one and passes
    it to :func:`assemble` at every load step.  The arrays are computed on
    first use.
    """

    mesh: Mesh
    material: MaterialModel
    rule: QuadratureRule

    @cached_property
    def matrices(self) -> np.ndarray:
        """Element stiffness of the standard field, shape (m, 8, 8)."""
        _, dN, wdet, _ = element_geometry(self.mesh.element_coords(), self.rule)
        B = _strain_matrix(dN)  # (m, q, 3, 8)
        return _element_matrix(B, elasticity_matrix(self.material), wdet)

    @cached_property
    def dofs(self) -> np.ndarray:
        """Standard dofs of every element, shape (m, 8), in matrix order."""
        d = np.empty((self.mesh.n_elements, 8), dtype=np.int32)
        d[:, 0::2] = 2 * self.mesh.elements
        d[:, 1::2] = 2 * self.mesh.elements + 1
        return d

    def pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """Global (rows, cols) of every entry of ``matrices``, shape (m, 8, 8).

        Read-only broadcast views of :attr:`dofs`: the two index arrays
        would be eight times its size.
        """
        dofs = self.dofs
        shape = dofs.shape + (8,)
        return np.broadcast_to(dofs[:, :, None], shape), np.broadcast_to(dofs[:, None, :], shape)


def _crossing_params(pa: np.ndarray, pb: np.ndarray, crack) -> list[float]:
    """Parameters t in (0,1) where segment pa->pb crosses the crack."""
    out = []
    d = pb - pa
    v = crack.vertices
    for j in range(crack.n_segments):
        c0, c1 = v[j], v[j + 1]
        e = c1 - c0
        denom = d[0] * e[1] - d[1] * e[0]
        if abs(denom) < 1e-300:
            continue
        rel = c0 - pa
        t = (rel[0] * e[1] - rel[1] * e[0]) / denom
        s = (rel[0] * d[1] - rel[1] * d[0]) / denom
        if 0.0 < t < 1.0 and 0.0 <= s <= 1.0:
            out.append(float(t))
    return out


def _traction_contributions(mesh: Mesh, emap: EnrichmentMap, layout: DofLayout,
                            bcs, f: np.ndarray) -> None:
    """Accumulate edge tractions, including jump/branch edge terms.

    Integration splits each loaded edge at crack crossings so the
    piecewise-constant jump factor is integrated exactly.
    """
    gp, gw = np.polynomial.legendre.leggauss(6)
    boundary = mesh.boundary_edges.tolist()
    for bc in bcs:
        if bc.kind != "traction":
            continue
        if bc.boundary not in mesh.boundary_tags:
            raise AssemblyError(f"unknown boundary tag '{bc.boundary}'")
        tagged = set(int(n) for n in mesh.boundary_tags[bc.boundary])
        tvec = np.asarray(bc.value, dtype=float)
        n_loaded = 0
        for a, b in boundary:
            if a not in tagged or b not in tagged:
                continue
            n_loaded += 1
            pa, pb = mesh.nodes[a], mesh.nodes[b]
            length = float(np.linalg.norm(pb - pa))
            breaks = {0.0, 1.0}
            for crack in emap.cracks:
                breaks.update(_crossing_params(pa, pb, crack))
            knots = sorted(breaks)
            for t0, t1 in zip(knots[:-1], knots[1:]):
                if t1 - t0 < 1e-14:
                    continue
                ts = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * gp
                ws = 0.5 * (t1 - t0) * gw * length
                xs = pa[None, :] + ts[:, None] * (pb - pa)[None, :]
                for node, shape in ((a, 1.0 - ts), (b, ts)):
                    base = np.sum(shape * ws)
                    f[layout.cont_dof(node, 0)] += base * tvec[0]
                    f[layout.cont_dof(node, 1)] += base * tvec[1]
                    status = emap.status[node]
                    if status == HEAVISIDE:
                        crack = emap.crack_by_id(int(emap.node_crack[node]))
                        M = shifted_heaviside(
                            emap.node_sign[node], signed_distance_batch(crack, xs)
                        )
                        w_enr = np.sum(shape * M * ws)
                        f[layout.disc_dof(node, 0)] += w_enr * tvec[0]
                        f[layout.disc_dof(node, 1)] += w_enr * tvec[1]
                    elif status == TIP:
                        tinfo = emap.tips[int(emap.node_tip[node])]
                        crack = emap.crack_by_id(tinfo.crack_id)
                        _, F, _ = branch_functions(tinfo, crack, xs)
                        for j in range(4):
                            w_enr = np.sum(shape * F[:, j] * ws)
                            f[layout.tip_dof(node, j, 0)] += w_enr * tvec[0]
                            f[layout.tip_dof(node, j, 1)] += w_enr * tvec[1]
        if n_loaded == 0:
            raise AssemblyError(
                f"traction on '{bc.boundary}' matched no boundary edges"
            )


def _body_force_contributions(mesh: Mesh, emap: EnrichmentMap, layout: DofLayout,
                              material: MaterialModel, rules: QuadratureSet,
                              kinds: np.ndarray, f: np.ndarray) -> None:
    b = np.asarray(material.body_force, dtype=float)
    rule_of_kind = {0: rules.standard, 1: rules.standard, 2: rules.cut, 3: rules.tip}
    for eid in range(mesh.n_elements):
        rule = rule_of_kind[int(kinds[eid])]
        values, dN, wdet, phys = element_geometry(mesh.element_coords(eid), rule)
        dofs, vals, _ = _element_scalars(mesh, emap, layout, eid, values, dN, phys)
        weights = vals.T @ wdet  # (S,)
        fe = np.empty(2 * weights.size)
        fe[0::2] = weights * b[0]
        fe[1::2] = weights * b[1]
        np.add.at(f, np.asarray(dofs), fe)


def assemble(mesh: Mesh, emap: EnrichmentMap, material: MaterialModel,
             rules: QuadratureSet | None = None, bcs=(),
             standard: StandardStiffness | None = None) -> LinearSystem:
    """Build the global stiffness, load vector, and prescribed-value map.

    Traction conditions enter the load vector here; displacement
    conditions populate ``fixed`` (standard dof values, plus zeros on all
    enrichment dofs of constrained nodes — the constrained boundary is
    assumed uncracked).  Apply them with :func:`apply_constraints`.
    ``standard`` is the mesh's plain-rule stiffness for this material and
    ``rules.standard``; it is built here when not given.
    """
    rules = rules if rules is not None else QuadratureSet.from_targets()
    if standard is None:
        standard = StandardStiffness(mesh, material, rules.standard)
    elif (standard.mesh is not mesh or standard.material != material
          or standard.rule is not rules.standard):
        raise AssemblyError(
            "standard stiffness was built for another mesh, material or rule")
    layout = DofLayout.build(emap)
    D = elasticity_matrix(material)
    kinds = emap.element_kinds(mesh)

    K_std = standard.matrices
    # Correct cut/tip elements: replace their whole block with the
    # elevated-rule integral over all coupled fields.
    blocks = []
    for eid in np.nonzero(kinds >= 2)[0].tolist():
        rule = rules.cut if kinds[eid] == 2 else rules.tip
        values, dN, wdet, phys = element_geometry(mesh.element_coords(eid), rule)
        # A cut element whose quadrature points all sample one side (the
        # crack clips a corner sliver below rule resolution) is still
        # integrated: the jump factors are then constant over the element,
        # which is exactly the limit of a vanishing sliver.  Nodes whose
        # whole support samples one-sided are removed during
        # classification, so no dof can end up without jump stiffness.
        dofs, vals, grads = _element_scalars(mesh, emap, layout, eid, values, dN, phys)
        B = _strain_matrix(grads)
        Ke = _element_matrix(B, D, wdet)
        Ke[:8, :8] -= K_std[eid]
        blocks.append((np.asarray(dofs, dtype=np.int32), Ke))

    # One preallocated triplet list, standard entries first: the standard
    # part is most of it and is not copied twice.
    total = K_std.size + sum(Ke.size for _, Ke in blocks)
    data = np.empty(total)
    rows = np.empty(total, dtype=np.int32)
    cols = np.empty(total, dtype=np.int32)
    data[:K_std.size] = K_std.ravel()
    std_rows, std_cols = standard.pattern()
    rows[:K_std.size].reshape(K_std.shape)[...] = std_rows
    cols[:K_std.size].reshape(K_std.shape)[...] = std_cols
    at = K_std.size
    for dofs, Ke in blocks:
        rows[at:at + Ke.size] = np.repeat(dofs, dofs.size)
        cols[at:at + Ke.size] = np.tile(dofs, dofs.size)
        data[at:at + Ke.size] = Ke.ravel()
        at += Ke.size
    K = sp.coo_matrix((data, (rows, cols)),
                      shape=(layout.total_dofs, layout.total_dofs)).tocsr()
    if not np.all(np.isfinite(K.data)):
        raise AssemblyError("non-finite stiffness entry")

    f = np.zeros(layout.total_dofs)
    _traction_contributions(mesh, emap, layout, bcs, f)
    if any(material.body_force):
        _body_force_contributions(mesh, emap, layout, material, rules, kinds, f)

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
                        tree=mesh.nested_dissection_tree)


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
    return LinearSystem(K=system.K, f=system.f, fixed=fixed,
                        layout=system.layout, tree=system.tree)


def solve(system: LinearSystem, load_factor: float = 1.0,
          factor: FrontalCholesky | None = None) -> SolutionState:
    """Direct sparse solve of the free dofs, with a residual check.

    The prescribed dofs of ``system.fixed`` are eliminated: the free-free
    block of ``K``, symmetric positive definite once enough dofs are
    fixed, is factored by supernodal Cholesky on ``system.tree`` in its
    dof order, the load is lifted by ``K`` times the prescribed values,
    and the fixed dofs take those values exactly.  A non-positive pivot
    (an indefinite or singular system) raises :class:`SolverError`, as do
    a non-finite solution and an infinity-norm residual above 1e-9 of the
    lifted load.  ``factor`` is the previous solve's factor on the same
    tree, kept by a propagation run: the fronts whose inputs did not
    change are reused.
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

    lifted = system.f - system.K @ u
    rhs = lifted[q]
    factor = factor if factor is not None else FrontalCholesky(keep=False)
    try:
        stats = factor.factorize(tree, counts, signature, system.K, q)
    except np.linalg.LinAlgError as exc:
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
