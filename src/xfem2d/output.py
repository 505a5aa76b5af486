"""Result emission: SIF/COD tables, visualization dumps, and run logs.

All writers are deterministic: identical inputs produce byte-identical
files.  Tables use comma separators, ``.`` decimals, LF line endings,
and 9 significant digits; the field dump is a legacy-ASCII
unstructured-grid file in which every bisected element is split into
two polygons with private copies of the points on the crack faces, so
the displacement jump renders as an actual gap.  The split reads where
the crack crosses the element from the classification's record
(:attr:`~xfem2d.enrichment.EnrichmentMap.cut_pieces`); it clips nothing.
A mesh node's displacement is read from its own coefficients and a plain
element's stresses from ``u_cont``; only enriched elements and the
crack-face points go through the enriched basis.  Each class of cells takes
its points' shape gradients from one :func:`~xfem2d.mesh.element_geometry` call.
"""

from __future__ import annotations

import math
import os

import numpy as np

from xfem2d.assembly import MaterialModel, SolutionState, elasticity_matrix, voigt_strain
from xfem2d.config import RunConfig
from xfem2d.cracks import heaviside, nearest_point, signed_distance_batch
from xfem2d.driver import RunHistory, cod_profile
from xfem2d.enrichment import (
    EnrichmentMap,
    FieldTriplet,
    branch_functions,
    element_fields,
    evaluate_fields,
)
from xfem2d.mesh import Mesh, _distinct, element_geometry

__all__ = [
    "write_sif_csv",
    "read_sif_csv",
    "write_cod_csv",
    "write_field_dump",
    "write_run_log",
]

SIF_HEADER = "step,load_factor,crack_id,tip_id,K_I,K_II,J,theta_c_deg,a_eff"
COD_HEADER = "step,load_factor,crack_id,s,x,y,opening"


def _fmt(value: float) -> str:
    """Number at 9 significant digits without trailing noise."""
    return format(float(value), ".9g")


def _fmt_rows(values: np.ndarray, row: str) -> str:
    """The rows of ``values`` (n, k) as n lines of ``row``, whose k ``{}``
    fields each take a number as :func:`_fmt` writes it, in one pass."""
    values = np.asarray(values, dtype=float)
    return "\n".join([row.replace("{}", "%.9g")] * len(values)) % tuple(values.ravel().tolist())


# ---------------------------------------------------------------------------
# tabular artifacts
# ---------------------------------------------------------------------------

def write_sif_csv(history: RunHistory, path) -> None:
    """Stress intensity table: one row per extracted tip per load step.

    Columns: step, load_factor, crack_id, tip_id, K_I, K_II, J,
    theta_c_deg (kink angle in degrees), a_eff (effective half length
    in meters).  All values SI.
    """
    if not history.steps:
        raise ValueError("the run history holds no solved steps")
    lines = [SIF_HEADER]
    for rec in history.steps:
        for res in rec.sifs:
            lines.append(",".join([
                str(rec.step),
                _fmt(rec.load_factor),
                str(res.crack_id),
                str(res.tip_id),
                _fmt(res.K_I),
                _fmt(res.K_II),
                _fmt(res.J),
                _fmt(math.degrees(res.theta_c)),
                _fmt(res.a_eff),
            ]))
    with open(os.fspath(path), "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_sif_csv(path) -> list[dict]:
    """Parse a stress intensity table back into one dict per row."""
    import csv  # here, not with the package: a run writes the table but never reads it

    with open(os.fspath(path), "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != SIF_HEADER.split(","):
            raise ValueError(
                f"unexpected header {reader.fieldnames}; "
                f"expected {SIF_HEADER.split(',')}"
            )
        rows = []
        for raw in reader:
            row: dict = {}
            for key, text in raw.items():
                if key in ("step", "crack_id", "tip_id"):
                    row[key] = int(text)
                else:
                    row[key] = float(text)
            rows.append(row)
    return rows


def write_cod_csv(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                  path, step: int = 0, n_samples: int = 101) -> None:
    """Opening profiles for every crack that bisects at least one element.

    Columns: step, load_factor, crack_id, s (arc length from the crack
    start), x, y (sample position), opening (normal displacement jump).
    Cracks that bisect no element (contained in a single element) have no
    opening profile and are skipped; any other failure of a profile raises.
    """
    lines = [COD_HEADER]
    bisecting = set(emap.cut_elements.values())
    for crack in sorted(emap.source_cracks, key=lambda c: c.id):
        if crack.id not in bisecting:
            continue
        profile = cod_profile(state, mesh, emap, crack.id, n_samples=n_samples)
        for row in profile.tolist():
            lines.append(",".join([str(step), _fmt(state.load_factor), str(crack.id)]
                                  + [_fmt(value) for value in row]))
    with open(os.fspath(path), "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# visualization dump
# ---------------------------------------------------------------------------

def _corners_between(start: float, stop: float) -> list[int]:
    """Corner indices strictly inside the CCW perimeter arc start->stop."""
    span = (stop - start) % 4.0
    offsets = sorted(((j - start) % 4.0, j) for j in range(4))
    return [j for off, j in offsets if 1e-9 < off < span - 1e-9]


def _split_cut_elements(mesh: Mesh, emap: EnrichmentMap) -> dict:
    """The two CCW polygons of each bisected element, split along its crack.

    Returns ``{eid: (chain, normals, poly_plus, poly_minus)}``: ``chain``
    (c, 2) is the crack polyline inside the element, ``normals`` its face
    normals there, and a polygon lists local points, 0-3 the corners and
    4 + i chain point i.  An element with no corner on one side is left
    out.  Each crack's face normals and side tests take one batched call.
    """
    found = {}
    for crack in emap.cracks:
        v = crack.vertices
        cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(v, axis=0), axis=1))])
        slack = 1e-12 * max(1.0, float(cum[-1]))
        parts = []  # eid, quad, chain, corners on the arc start->stop, the others
        for eid in sorted(e for e in emap.cut_pieces if emap.cut_elements[e] == crack.id):
            quad, piece = mesh.nodes[mesh.elements[eid]], emap.cut_pieces[eid]
            # Perimeter coordinates of the chain ends: edge index plus edge fraction.
            edges = np.array([piece.edge0, piece.edge1])
            a, e = quad[edges], quad[(edges + 1) % 4] - quad[edges]
            t = np.clip(np.sum((np.array([piece.p0, piece.p1]) - a) * e, axis=1)
                        / np.sum(e * e, axis=1), 0.0, 1.0)
            start, stop = (edges + t).tolist()
            ab, ba = _corners_between(start, stop), _corners_between(stop, start)
            if ab and ba:
                inner = v[1:-1][(piece.s0 + slack < cum[1:-1]) & (cum[1:-1] < piece.s1 - slack)]
                parts.append((eid, quad, np.vstack([piece.p0, inner, piece.p1]), ab, ba))
        if not parts:
            continue
        normals = nearest_point(crack, np.vstack([part[2] for part in parts]))[1]
        sides = signed_distance_batch(crack, np.vstack([quad[ab] for _, quad, _, ab, _ in parts]))
        for eid, _, chain, ab, ba in parts:
            last = len(chain) + 3  # the local point of the chain's end
            d, sides = sides[:len(ab)], sides[len(ab):]
            # Walking the perimeter CCW and returning along the crack keeps
            # both polygons counter-clockwise.
            polys = [4] + ab + list(range(last, 4, -1)), [last] + ba + list(range(4, last))
            plus_first = d[np.argmax(np.abs(d))] > 0.0
            found[eid] = (chain, normals[:len(chain)], *(polys if plus_first else polys[::-1]))
            normals = normals[len(chain):]
    return found


def _von_mises(sig: np.ndarray, material: MaterialModel) -> np.ndarray:
    sxx, syy, sxy = sig[..., 0], sig[..., 1], sig[..., 2]
    szz = material.nu * (sxx + syy) if material.plane_strain else 0.0
    return np.sqrt(
        0.5 * ((sxx - syy) ** 2 + (syy - szz) ** 2 + (szz - sxx) ** 2)
        + 3.0 * sxy ** 2
    )


def _weighted_means(sig: np.ndarray, vm: np.ndarray, w: np.ndarray):
    total = w.sum(axis=1)  # weights (e, q): means over each element's points
    return ((w[..., None] * sig).sum(axis=1) / total[:, None],
            (w * vm).sum(axis=1) / total)


def _node_displacements(fields: FieldTriplet, mesh: Mesh, emap: EnrichmentMap) -> np.ndarray:
    """Total displacement (n_nodes, 2) of the mesh nodes: at its node only a
    node's own shape function is nonzero (1) and its shifted Heaviside
    vanishes, so only a tip node adds to its standard coefficient."""
    disp = fields.u_cont.copy()
    for gti, tinfo in enumerate(emap.tips):
        nodes = np.nonzero(emap.node_tip == gti)[0]
        if nodes.size:
            _, F, _ = branch_functions(tinfo, emap.crack_by_id(tinfo.crack_id),
                                       mesh.nodes[nodes])
            disp[nodes] += np.einsum("kj,kja->ka", F, fields.u_tip[nodes])
    return disp


def _cell_stresses(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                   material: MaterialModel):
    """Quadrature-weighted mean stress and von Mises stress of every element,
    one batch per integration class at its rule of the map's rules; a plain
    element (no enriched corner) differentiates ``u_cont`` alone.

    Returns whole-element means (m, 3) and (m,), and side means (2, m, 3)
    and (2, m) over a bisected element's points on the positive (0) and
    negative (1) side of its crack, or the whole-element means if none.  A
    point's side is :func:`~xfem2d.cracks.heaviside`'s, so a point on the
    crack is on the positive side, as for the enriched basis.
    """
    # Differentiate against the mean-shifted field: gradients are invariant
    # under a constant translation, but the shift removes the cancellation
    # noise that the stiffness scale would otherwise amplify into spurious
    # stresses (a rigid translation must dump as exactly stress-free).
    fields = FieldTriplet(
        u_cont=state.fields.u_cont - state.fields.u_cont.mean(axis=0),
        u_disc=state.fields.u_disc,
        u_tip=state.fields.u_tip,
    )
    D = elasticity_matrix(material)
    m = mesh.n_elements
    sig_mean, vm_mean = np.empty((m, 3)), np.empty(m)
    side_sig, side_vm = np.empty((2, m, 3)), np.empty((2, m))
    cut_crack = np.full(m, -1, dtype=np.int64)
    cut_crack[list(emap.cut_elements)] = list(emap.cut_elements.values())
    kinds = emap.kinds
    for eids, rule in emap.rules.classes(kinds):
        N, dN, wdet, phys = element_geometry(mesh.element_coords(eids), rule)
        # u_cont gathered per element: element_fields gathers it per point,
        # which takes 1.4 times as long on hole-growth's dump gradients
        grad = np.einsum("eqcb,eca->eqab", dN, fields.u_cont[mesh.elements[eids]])
        rich = np.nonzero(kinds[eids] > 0)[0]
        if rich.size:
            grad[rich] = element_fields(mesh, emap, fields, np.repeat(eids[rich], len(N)),
                                        np.tile(N, (rich.size, 1)), dN[rich].reshape(-1, 4, 2),
                                        phys[rich].reshape(-1, 2))[1].reshape(-1, len(N), 2, 2)
        sig = voigt_strain(grad) @ D.T
        vm = _von_mises(sig, material)
        sig_mean[eids], vm_mean[eids] = _weighted_means(sig, vm, wdet)
        side_sig[:, eids], side_vm[:, eids] = sig_mean[eids], vm_mean[eids]
        for cid in _distinct(cut_crack[eids][cut_crack[eids] >= 0]).tolist():
            rows = np.nonzero(cut_crack[eids] == cid)[0]
            plus = heaviside(signed_distance_batch(emap.crack_by_id(cid),
                                                   phys[rows].reshape(-1, 2))) > 0.0
            plus = plus.reshape(rows.size, -1)
            for side, mask in enumerate((plus, ~plus)):
                some = mask.any(axis=1)
                r = rows[some]
                side_sig[side, eids[r]], side_vm[side, eids[r]] = _weighted_means(
                    sig[r], vm[r], wdet[r] * mask[some])
    return sig_mean, vm_mean, side_sig, side_vm


def write_field_dump(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                     material: MaterialModel, path) -> None:
    """Legacy-ASCII unstructured-grid file of the solved configuration.

    Plain elements appear as quads; every bisected element is split into
    the two polygons on either side of the crack, each with its own
    copies of the crack-face points, so the displacement jump renders.
    Nodal total displacement plus per-cell averaged stress components
    and von Mises stress, over each class's rule points of the map's
    rules (:attr:`~xfem2d.enrichment.EnrichmentMap.rules`), are attached.
    Only the private crack-face points are located; the mesh nodes move by
    :func:`_node_displacements`.
    """
    node_disp = _node_displacements(state.fields, mesh, emap)
    sig_mean, vm_mean, side_sig, side_vm = _cell_stresses(state, mesh, emap, material)

    # Plain elements are quads; a bisected element becomes its two sides'
    # polygons, in its place, with private copies of the crack-face points.
    cells = ["4 %d %d %d %d"] * mesh.n_elements
    cell_size = 5 * mesh.n_elements  # the point counts and points of all cells
    split = np.zeros(mesh.n_elements, dtype=bool)
    extra_pos: list[np.ndarray] = []   # geometric position of private points
    extra_probe: list[np.ndarray] = []  # offset position for evaluation
    for eid, (chain, normals, poly_plus, poly_minus) in sorted(
            _split_cut_elements(mesh, emap).items()):
        conn = mesh.elements[eid].tolist()
        eps = 1e-6 * float(np.ptp(mesh.nodes[conn], axis=0).max())
        polys = []
        for sign, poly in ((1.0, poly_plus), (-1.0, poly_minus)):
            ids = []
            for k in poly:
                if k < 4:
                    ids.append(conn[k])
                    continue
                ids.append(mesh.n_nodes + len(extra_pos))
                extra_pos.append(chain[k - 4])
                extra_probe.append(chain[k - 4] + sign * eps * normals[k - 4])
            polys.append([len(ids)] + ids)
        cells[eid] = "\n".join(" ".join(map(str, poly)) for poly in polys)
        cell_size += len(polys[0]) + len(polys[1]) - 5
        split[eid] = True
    # Cell k belongs to element owner[k]; the second cell of a split element
    # is its negative side.
    owner = np.repeat(np.arange(mesh.n_elements), np.where(split, 2, 1))
    side = np.zeros(owner.size, dtype=np.int64)
    side[1:] = owner[1:] == owner[:-1]
    cell_split = split[owner]
    cell_types = np.where(cell_split, 7, 9)
    cell_sig = np.where(cell_split[:, None], side_sig[side, owner], sig_mean[owner])
    cell_vm = np.where(cell_split, side_vm[side, owner], vm_mean[owner])

    if extra_probe:
        extra_disp, _ = evaluate_fields(np.array(extra_probe), mesh, emap,
                                        state.fields, want_grad=False)
        points = np.vstack([mesh.nodes, np.array(extra_pos)])
        disp = np.vstack([node_disp, extra_disp])
    else:
        points = mesh.nodes
        disp = node_disp

    lines = [
        "# vtk DataFile Version 3.0",
        "xfem2d field dump",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {points.shape[0]} double",
    ]
    lines.append(_fmt_rows(points, "{} {} 0"))
    n_cells = owner.size
    lines.append(f"CELLS {n_cells} {cell_size}")
    lines.append("\n".join(cells) % tuple(mesh.elements[~split].ravel().tolist()))
    lines.append(f"CELL_TYPES {n_cells}")
    lines.extend(map(str, cell_types.tolist()))
    lines.append(f"POINT_DATA {points.shape[0]}")
    lines.append("VECTORS displacement double")
    lines.append(_fmt_rows(disp, "{} {} 0"))
    lines.append(f"CELL_DATA {n_cells}")
    for name, values in (
        ("stress_xx", cell_sig[:, 0]),
        ("stress_yy", cell_sig[:, 1]),
        ("stress_xy", cell_sig[:, 2]),
        ("von_mises", cell_vm),
    ):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.append(_fmt_rows(values[:, None], "{}"))
    with open(os.fspath(path), "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# run log
# ---------------------------------------------------------------------------

def _log_float(value: float) -> str:
    return format(float(value), ".6g")


def write_run_log(config: RunConfig, mesh: Mesh, history: RunHistory, path) -> None:
    """Structured text audit of one run.

    Records mesh statistics, the material, per-step enriched-node counts
    (|m_disc| jump-enriched, |m_tip| branch-enriched), degree-of-freedom
    totals, solver residuals, the factorization's size (free dofs, entries
    of L) and the fronts it refactored, the nodes demoted to standard
    approximation with the measured support ratios, every extraction with
    the radius R of its domain, every growth increment and tip
    deactivation, and the stop reason.
    """
    material = config.material
    lo, hi = mesh.bbox()
    lines = [
        f"mesh: {mesh.n_nodes} nodes, {mesh.n_elements} elements, "
        f"bbox [{_log_float(lo[0])}, {_log_float(hi[0])}] x "
        f"[{_log_float(lo[1])}, {_log_float(hi[1])}]",
        "boundary tags: " + ", ".join(
            f"{tag}({mesh.boundary_tags[tag].size})"
            for tag in sorted(mesh.boundary_tags)
        ),
        f"material: E = {_log_float(material.E)} Pa, "
        f"nu = {_log_float(material.nu)}, "
        + ("plane strain" if material.plane_strain else "plane stress"),
        f"enrichment: delta = {_log_float(config.delta)}, "
        "tip enrichment " + ("on" if config.tip_enrichment else "off"),
        "quadrature targets: standard "
        f"{config.quadrature[0]}, cut {config.quadrature[1]}, tip {config.quadrature[2]}",
    ]
    for rec in history.steps:
        lines.append("")
        lines.append(f"step {rec.step}: load factor {_log_float(rec.load_factor)}")
        lines.append(
            f"  enriched nodes: |m_disc| = {rec.n_heaviside}, "
            f"|m_tip| = {rec.n_tip}"
        )
        lines.append(f"  dofs: {rec.n_dofs}")
        lines.append(f"  residual: {rec.residual:.6e}")
        if rec.factor is not None:
            lines.append(
                f"  factor: {rec.factor.free_dofs} free dofs, "
                f"{rec.factor.factor_entries} entries in L, "
                f"{rec.factor.fronts_refactored} of {rec.factor.fronts} fronts refactored"
            )
        if rec.demotions:
            lines.append(f"  demotions: {len(rec.demotions)}")
            for node, ratio, reason in rec.demotions:
                lines.append(
                    f"    node {node}: {reason} (ratio = {_log_float(ratio)})"
                )
        else:
            lines.append("  demotions: none")
        for res in rec.sifs:
            lines.append(
                f"  crack {res.crack_id} tip {res.tip_id}: "
                f"K_I = {_log_float(res.K_I)}, K_II = {_log_float(res.K_II)}, "
                f"J = {_log_float(res.J)}, "
                f"theta_c = {_log_float(math.degrees(res.theta_c))} deg, "
                f"a_eff = {_log_float(res.a_eff)}, R = {_log_float(res.radius)}"
            )
        for ev in rec.extensions:
            lines.append(
                f"  extension: crack {ev.crack_id} tip {ev.tip_id} grew "
                f"{_log_float(ev.delta_a)} m at "
                f"{_log_float(math.degrees(ev.theta_c))} deg -> "
                f"({_log_float(ev.new_tip[0])}, {_log_float(ev.new_tip[1])})"
            )
        for ev in rec.frozen:
            lines.append(
                f"  deactivated: crack {ev.crack_id} tip {ev.tip_id} -- "
                f"{ev.reason}"
            )
    lines.append("")
    lines.append(f"stop: {history.stop_reason}")
    if history.error:
        lines.append(f"error: {history.error}")
    lines.append(f"growth steps applied: {history.n_increments}")
    with open(os.fspath(path), "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
