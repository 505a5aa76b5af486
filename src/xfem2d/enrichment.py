"""Enrichment classification and enriched-field evaluation.

Takes the fixed background mesh plus the crack set and decides, node by
node, which extra discontinuous (Heaviside) and singular (branch) degrees
of freedom exist.  Also provides the enrichment functions themselves —
the shifted Heaviside factor M and the four crack-tip branch functions at
the one branch angle, :func:`tip_polar`'s, which the SIF pass shares —
and the reconstruction of displacements/gradients from solved fields.

Two enrichment modes are supported.  With tip enrichment, the element
containing each live tip carries branch functions.  Without it, each
crack is virtually extended along its tangent to the far edge of the
element containing the tip, so the modeled crack is fully fractured up to
element edges; the resulting effective half-length is reported so results
can be compared against the matching closed-form value.

Where each crack crosses each element is decided here, once per
classification: the (segment, element) pairs of every crack, from one
grid query of each segment's box (:meth:`~xfem2d.mesh.Mesh.box_query`),
are clipped in one batch, and every bisected element keeps its piece of the
crack (:class:`CutPiece`: arc lengths, end points, entry and exit edges)
in :attr:`EnrichmentMap.cut_pieces` for the field dump to read.

Every classification works from scratch on the cracks it is given, as
the paper redoes its level-set update and enrichment choice at each
propagation step.  The map owns the rule of each integration class
(:attr:`EnrichmentMap.rules`), at which every consumer integrates, and
keeps the side of its crack each cut-rule point of every cut-class element
lies on (:attr:`EnrichmentMap.cut_sides`).  With the element and its
corners' enrichment, that is all the element's stiffness depends on, so a
growth run's assembly reuses a cut element's matrix exactly where these agree.

The enriched basis is defined once, in one batched kernel,
:func:`enriched_basis`: at points given by element, standard N_i and
grad N_i, and physical position, it returns every corner's standard, jump
and branch functions, padded to 24 columns, their gradients and each
column's node.  It computes no Jacobian: the caller that makes a point
takes its N_i and grad N_i from :func:`~xfem2d.mesh.shape_functions`.
Assembly integrates the stiffness and both loads from it;
:func:`element_fields` contracts it with the nodal coefficients, and
:func:`evaluate_fields` is :func:`~xfem2d.mesh.locate_points`, the shape
functions there and that contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from xfem2d.cracks import (
    CrackPath,
    TipFrame,
    extend_crack,
    heaviside,
    nearest_point,
    signed_distance_batch,
    tip_frame,
    vertex_tangents,
)
from xfem2d.mesh import (
    Mesh,
    QuadratureSet,
    _member,
    _runs,
    element_geometry,
    locate_hits,
    locate_points,
    point_segment_distance,
    shape_functions,
)

__all__ = [
    "STANDARD",
    "HEAVISIDE",
    "TIP",
    "EnrichmentError",
    "CrackMeshDegeneracyError",
    "TipInfo",
    "CutPiece",
    "FieldTriplet",
    "EnrichmentMap",
    "classify_enrichment",
    "classify_with_remedy",
    "shifted_heaviside",
    "branch_eval",
    "tip_polar",
    "branch_functions",
    "crack_opening",
    "evaluate_fields",
    "BASIS_FIELD",
    "enriched_basis",
    "basis_batches",
    "element_fields",
]

STANDARD, HEAVISIDE, TIP = 0, 1, 2

_COINCIDENCE_TOL = 1e-12  # meters; crack feature on mesh feature
_PERTURB = 1e-9  # meters; remedy displacement


class EnrichmentError(ValueError):
    """Raised for unsupported crack/mesh configurations (junctions etc.)."""


class CrackMeshDegeneracyError(EnrichmentError):
    """A crack vertex/segment coincides with a mesh node or element edge."""

    def __init__(self, message: str, crack_ids: set[int]):
        super().__init__(message)
        self.crack_ids = crack_ids


@dataclass(frozen=True)
class TipInfo:
    """One live crack tip: owning crack, endpoint id, local frame, element.

    ``virtual_extension`` is the extra length added when running without
    tip enrichment (zero otherwise); the frame origin then sits at the
    virtually extended endpoint on the element edge.
    """

    crack_id: int
    tip_id: int
    frame: TipFrame
    element: int
    virtual_extension: float = 0.0


class CutPiece(NamedTuple):
    """Where one crack crosses one element.

    ``s0 < s1`` are arc lengths from the crack start, ``p0`` and ``p1``
    the points there, on the element's local edges ``edge0`` and
    ``edge1`` (edge k runs from corner k to corner k + 1).
    """

    s0: float
    s1: float
    p0: np.ndarray
    p1: np.ndarray
    edge0: int
    edge1: int


@dataclass
class FieldTriplet:
    """Nodal coefficients of the three displacement fields.

    Arrays are dense over all nodes; rows where the corresponding
    enrichment is absent are exactly zero.
    """

    u_cont: np.ndarray  # (n_nodes, 2)
    u_disc: np.ndarray  # (n_nodes, 2)
    u_tip: np.ndarray  # (n_nodes, 4, 2)

    @classmethod
    def zeros(cls, n_nodes: int) -> "FieldTriplet":
        return cls(
            u_cont=np.zeros((n_nodes, 2)),
            u_disc=np.zeros((n_nodes, 2)),
            u_tip=np.zeros((n_nodes, 4, 2)),
        )

    def by_column(self) -> np.ndarray:
        """The coefficients (n_nodes, 6, 2) of each field, by ``BASIS_FIELD``."""
        return np.concatenate([self.u_cont[:, None], self.u_disc[:, None], self.u_tip], axis=1)


@dataclass
class EnrichmentMap:
    """Result of enrichment classification over one mesh + crack set.

    Attributes
    ----------
    status : ndarray of int8
        Per-node enrichment kind: STANDARD, HEAVISIDE, or TIP.
    node_crack : ndarray of int
        Enriching crack id per node (-1 for standard nodes).
    node_tip : ndarray of int
        Index into ``tips`` for TIP nodes (-1 otherwise).
    node_sign : ndarray
        Heaviside of the signed distance at each enriched node.
    cut_elements : dict
        Element id -> crack id for fully bisected elements.
    cut_pieces : dict
        Element id -> :class:`CutPiece`, where its crack crosses each
        bisected element; found once, here, and read by the field dump.
    tip_elements : dict
        Element id -> tuple of tip indices (an element may hold both tips
        of one short crack; empty without tip enrichment).
    tips : tuple of TipInfo
        All live tips (present in both enrichment modes).
    cracks : tuple of CrackPath
        Effective cracks used for field evaluation; these include the
        virtual tip extensions when tip enrichment is off.
    source_cracks : tuple of CrackPath
        The cracks as supplied (after any degeneracy perturbation).
    demotions : tuple
        (node, ratio, reason) records for the run log.
    kinds : ndarray of int8
        Per-element integration class: 0 plain 2x2, 1 enriched at standard
        order (Heaviside blending: M is constant on uncut elements), 2 cut
        (bisected), 3 singular (holds a tip or a branch-enriched node).
    cut_sides : ndarray of bool
        Per cut-class element (kind 2), ascending, and per point of the cut
        rule (n, q): whether the point lies on the +1 side of the element's
        crack, where :func:`enriched_basis` evaluates M.
    rules : QuadratureSet
        Each integration class's rule: the demotion counted and
        :attr:`cut_sides` were taken at it, and every consumer integrates at it.
    """

    status: np.ndarray
    node_crack: np.ndarray
    node_tip: np.ndarray
    node_sign: np.ndarray
    cut_elements: dict[int, int]
    cut_pieces: dict[int, CutPiece]
    tip_elements: dict[int, tuple[int, ...]]
    tips: tuple[TipInfo, ...]
    cracks: tuple[CrackPath, ...]
    source_cracks: tuple[CrackPath, ...]
    kinds: np.ndarray
    cut_sides: np.ndarray
    rules: QuadratureSet
    demotions: tuple = ()
    _crack_index: dict[int, CrackPath] = field(default=None, repr=False)

    def __post_init__(self):
        self._crack_index = {c.id: c for c in self.cracks}

    def crack_by_id(self, crack_id: int) -> CrackPath:
        return self._crack_index[crack_id]

    @property
    def n_heaviside(self) -> int:
        return int(np.count_nonzero(self.status == HEAVISIDE))

    @property
    def n_tip(self) -> int:
        return int(np.count_nonzero(self.status == TIP))

    def effective_half_length(self, crack_id: int) -> float:
        """Half of the crack's total length including virtual extensions."""
        return self.crack_by_id(crack_id).length / 2.0

    def element_kinds(self, mesh: Mesh | None = None) -> np.ndarray:
        """:attr:`kinds`, for callers that pass the mesh."""
        return self.kinds


def _supports(mesh: Mesh, nodes: np.ndarray):
    """The supports of ``nodes`` one after another: each element's node, as
    a place in ``nodes``, and the element, ascending per node."""
    ptr, ids = mesh.node_to_elements
    owner, k = _runs(np.diff(ptr)[nodes])
    return owner, ids[ptr[nodes][owner] + k]


def _element_kinds(mesh: Mesh, status, cut_elements, tip_elements) -> np.ndarray:
    """:attr:`EnrichmentMap.kinds` of these node statuses, marked through
    the supports of the few enriched nodes."""
    kinds = np.zeros(mesh.n_elements, dtype=np.int8)
    kinds[_supports(mesh, np.flatnonzero(status != STANDARD))[1]] = 1
    kinds[list(cut_elements)] = 2
    kinds[_supports(mesh, np.flatnonzero(status == TIP))[1]] = 3
    kinds[list(tip_elements)] = 3
    return kinds


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def _clip_segments(quads: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Cyrus-Beck clip of segments a->b (n, 2) to convex CCW quads (n, 4, 2).

    Returns the parameter interval ``t0``, ``t1`` (n,) of each segment
    inside its quad and whether that interval is non-empty.
    """
    d = (b - a)[:, None]
    edge = np.roll(quads, -1, axis=1) - quads
    rel = a[:, None] - quads
    # inside an edge: cross(edge, x - corner) >= 0
    c = edge[..., 0] * rel[..., 1] - edge[..., 1] * rel[..., 0]
    m = edge[..., 0] * d[..., 1] - edge[..., 1] * d[..., 0]
    parallel = np.abs(m) < 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -c / m
    t0 = np.where(~parallel & (m > 0.0), t, 0.0).max(axis=1)
    t1 = np.where(~parallel & (m < 0.0), t, 1.0).min(axis=1)
    return t0, t1, (t0 <= t1) & ~(parallel & (c < 0.0)).any(axis=1)


def _ray_exit_distance(quad: np.ndarray, origin: np.ndarray, direction: np.ndarray) -> float:
    """Distance from origin (inside quad) to the quad boundary along direction."""
    diam = float(np.max(quad.max(axis=0) - quad.min(axis=0))) * 4.0
    _, t1, inside = _clip_segments(quad[None], origin[None], (origin + diam * direction)[None])
    return float(t1[0]) * diam if inside[0] else 0.0


def _segments(cracks):
    """The vertices of ``cracks`` stacked (n, 2), each one's crack index and
    index in its crack, and each segment as the index of its first vertex."""
    v = np.concatenate([np.empty((0, 2))] + [c.vertices for c in cracks])
    crack, local = _runs(np.array([c.vertices.shape[0] for c in cracks], dtype=np.int64))
    return v, crack, local, np.flatnonzero(crack[1:] == crack[:-1])


def _clips(mesh: Mesh, cracks, size_tol: float) -> dict:
    """Where the segments of each crack run inside elements.

    Each segment is clipped to the elements whose padded boxes meet its
    box, padded by twice ``size_tol``: one grid query and one clip for all
    the cracks.  Returns by crack id, by element and then segment, each
    non-empty clip's element, segment and parameter interval (n, 2) along
    the segment.
    """
    v, crack, local, g = _segments(cracks)
    a, b = v[g], v[g + 1]
    j, eids = mesh.box_query(np.minimum(a, b) - 2.0 * size_tol, np.maximum(a, b) + 2.0 * size_tol)
    j = g[j]
    order = np.lexsort((j, eids, crack[j]))
    j, eids = j[order], eids[order]
    t0, t1, inside = _clip_segments(mesh.element_coords(eids), v[j], v[j + 1])
    keep = inside & (t1 - t0 > 0.0)
    j, eids, t = j[keep], eids[keep], np.column_stack([t0[keep], t1[keep]])
    ends = np.searchsorted(crack[j], np.arange(len(cracks) + 1))
    return {c.id: (eids[lo:hi], local[j[lo:hi]], t[lo:hi])
            for c, lo, hi in zip(cracks, ends[:-1], ends[1:])}


def _crack_pieces(mesh: Mesh, crack: CrackPath, clips, size_tol: float):
    """Every maximal piece of the crack polyline inside an element.

    ``clips`` are the crack's :func:`_clips`.  Returns per piece longer
    than ``_COINCIDENCE_TOL``, elements ascending: the element, arc
    lengths (n, 2), end points (n, 2, 2) and the local edge each end lies
    on within ``size_tol`` (n, 2), else -1; of two equally near, the later.
    """
    v = crack.vertices
    seg = np.diff(v, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    eids, j, t = clips
    s = cum[j, None] + t * lens[j, None]
    p = v[j, None] + t[..., None] * seg[j, None]
    # A piece continues the one before it in the same element when it starts
    # where that one ends, up to join_tol.
    join_tol = 1e-12 * max(1.0, float(cum[-1]))
    starts = np.ones(eids.size, dtype=bool)
    starts[1:] = (eids[1:] != eids[:-1]) | (s[1:, 0] - s[:-1, 1] > join_tol)
    first, last = np.flatnonzero(starts), np.flatnonzero(np.roll(starts, -1))
    eids = eids[first]
    s = np.column_stack([s[first, 0], s[last, 1]])
    p = np.stack([p[first, 0], p[last, 1]], axis=1)
    long = s[:, 1] - s[:, 0] > _COINCIDENCE_TOL
    eids, s, p = eids[long], s[long], p[long]
    quads = mesh.element_coords(eids)[:, None]
    d = point_segment_distance(p[:, :, None], quads, np.roll(quads, -1, axis=2))  # (n, 2, 4)
    edge = 3 - np.argmin(d[..., ::-1], axis=2)
    edge[np.take_along_axis(d, edge[..., None], axis=2)[..., 0] > size_tol] = -1
    return eids, s, p, edge


def _distinct_pairs(i: np.ndarray, k: np.ndarray):
    """The distinct pairs (i, k), by i and then k."""
    order = np.lexsort((k, i))
    i, k = i[order], k[order]
    new = np.ones(i.size, dtype=bool)
    new[1:] = (i[1:] != i[:-1]) | (k[1:] != k[:-1])
    return i[new], k[new]


def _detect_coincidences(mesh: Mesh, cracks) -> None:
    """Raise when crack features sit on mesh features within tolerance.

    Each crack segment is checked against the corner nodes and edges of
    the elements whose padded boxes meet its box, from one grid query for
    all the cracks (:meth:`Mesh.box_query`), one batch of (feature, mesh
    feature) pairs per check: a mesh node on a segment, a vertex on an
    edge (a vertex meets the elements of both its segments), and a segment
    running along an edge over a finite length.  A crack end that is not a
    tip (a crack mouth) may sit on a boundary edge.  Problems are listed
    crack by crack, in that order of checks, by segment or vertex and then
    by node or edge.
    """
    cracks = list(cracks)
    tol = _COINCIDENCE_TOL
    n_nodes = mesh.n_nodes
    boundary = mesh.boundary_edges
    boundary_keys = np.sort(boundary[:, 0] * n_nodes + boundary[:, 1])
    # An edge along a segment comes within tol * (1 + its length) of it, and
    # no side of a convex quad is as long as twice its longer diagonal.
    pad = tol * (1.0 + 2.0 * float(np.max(mesh.element_sizes, initial=0.0)))
    v, crack, local, g = _segments(cracks)
    a, b = v[g], v[g + 1]
    seg, near = mesh.box_query(np.minimum(a, b) - pad, np.maximum(a, b) + pad)
    seg = g[seg]  # the first vertex of each pair's segment
    quads = mesh.elements[near]
    # each pair's edges as sorted node pairs, keyed lo * n + hi
    ends = np.sort(np.stack([quads, np.roll(quads, -1, axis=1)], axis=2), axis=2)
    edge_keys = (ends[..., 0] * n_nodes + ends[..., 1]).ravel()
    found = []  # (crack, check, text), each check by segment or vertex
    # mesh node on a crack segment (level-set sign would be ambiguous)
    j, node = _distinct_pairs(np.repeat(seg, 4), quads.ravel())
    on = point_segment_distance(mesh.nodes[node], v[j], v[j + 1]) <= tol
    found += [(c, 0, f"segment {jj} passes through mesh node {nn}") for c, jj, nn in
              zip(crack[j[on]].tolist(), local[j[on]].tolist(), node[on].tolist())]
    # crack vertex on an element edge; endpoints that are not tips may
    # legitimately sit on the domain boundary (crack mouths)
    i, key = _distinct_pairs(np.concatenate([np.repeat(seg, 4), np.repeat(seg + 1, 4)]),
                             np.tile(edge_keys, 2))
    e0, e1 = np.divmod(key, n_nodes)
    first_vertex = local == 0
    mouth = np.zeros(len(v), dtype=bool)
    mouth[first_vertex] = [not c.tip_start for c in cracks]
    mouth[np.roll(first_vertex, -1)] = [not c.tip_end for c in cracks]
    hits = ((point_segment_distance(v[i], mesh.nodes[e0], mesh.nodes[e1]) <= tol)
            & ~(mouth[i] & _member(key, boundary_keys)))
    iv, first = np.unique(i[hits], return_index=True)
    found += [(c, 1, f"vertex {vv} lies on mesh edge ({n0},{n1})") for c, vv, n0, n1 in
              zip(crack[iv].tolist(), local[iv].tolist(), e0[hits][first].tolist(),
                  e1[hits][first].tolist())]
    # segment collinear with an edge over a finite overlap: an edge within
    # tol of the segment's line, at an angle whose sine is within tol
    j, key = _distinct_pairs(np.repeat(seg, 4), edge_keys)
    e0, e1 = np.divmod(key, n_nodes)
    p0, p1 = mesh.nodes[e0], mesh.nodes[e1]
    ed = p1 - p0
    Le = np.linalg.norm(ed, axis=1)
    ab = v[j + 1] - v[j]
    Ls = np.linalg.norm(ab, axis=1)
    parallel = (np.abs(ab[:, 0] * ed[:, 1] - ab[:, 1] * ed[:, 0])
                <= tol * Ls * Le)
    # perpendicular distance of the edge from the segment line
    off = p0 - v[j]
    dist = np.abs(ab[:, 0] * off[:, 1] - ab[:, 1] * off[:, 0]) / Ls
    t0 = np.sum(off * ab, axis=1) / (Ls * Ls)
    t1 = np.sum((p1 - v[j]) * ab, axis=1) / (Ls * Ls)
    overlap = (np.minimum(np.maximum(t0, t1), 1.0)
               - np.maximum(np.minimum(t0, t1), 0.0))
    along = parallel & (dist <= tol) & (overlap > tol / Ls)
    js, first = np.unique(j[along], return_index=True)
    found += [(c, 2, f"segment {jj} runs along mesh edge ({n0},{n1})") for c, jj, n0, n1 in
              zip(crack[js].tolist(), local[js].tolist(), e0[along][first].tolist(),
                  e1[along][first].tolist())]
    if found:
        found.sort(key=lambda f: f[:2])  # stable: crack by crack, check by check
        raise CrackMeshDegeneracyError(
            "crack/mesh coincidence: " + "; ".join(f"crack {cracks[c].id} {text}"
                                                   for c, _, text in found[:5]),
            crack_ids={cracks[c].id for c, _, _ in found},
        )


def _perturbed(crack: CrackPath, attempt: int) -> CrackPath:
    """Remedy displacement of all vertices: off the coincident feature."""
    vt = vertex_tangents(crack)
    vn = np.column_stack([-vt[:, 1], vt[:, 0]])
    shift = _PERTURB * (vn if attempt == 0 else (vn - vt) / np.sqrt(2.0))
    return CrackPath(
        vertices=crack.vertices + shift,
        tip_start=crack.tip_start,
        tip_end=crack.tip_end,
        id=crack.id,
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

# Two nodes whose only far-side rule point is the same one share its three
# strain rows among their four jump dofs, and K is singular; so a node
# needs two far-side points, whatever share of its support they weigh.
_MIN_FAR_POINTS = 2


def _point_sides(mesh: Mesh, crack: CrackPath, batches) -> list:
    """For each ``(eids, rule)`` of ``batches``, per element and rule point
    (n, q): whether ``heaviside`` of the signed distance to ``crack`` is +1
    there, at the points :func:`enriched_basis` evaluates M at, and the
    point's ``w detJ`` weight.  An element's rows depend on it alone."""
    geometry = [element_geometry(mesh.element_coords(eids), rule)[2:] for eids, rule in batches]
    phi = signed_distance_batch(crack, np.concatenate([phys.reshape(-1, 2)
                                                       for _, phys in geometry]))
    sides, at = [], 0
    for w, _ in geometry:  # w: (elements, q)
        sides.append((heaviside(phi[at:at + w.size]).reshape(w.shape) > 0.0, w))
        at += w.size
    return sides


def _side_sums(pos: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per element (n, 4) of :func:`_point_sides`' ``pos`` and ``w``: the
    weight of the points on the +1 side, of those on the -1 side, and the
    counts of each."""
    return np.column_stack([np.where(pos, w, 0.0).sum(axis=1), np.where(pos, 0.0, w).sum(axis=1),
                            pos.sum(axis=1), (~pos).sum(axis=1)])


def _cut_elements(mesh: Mesh, cracks, tips, tip_elements, size_tol: float, clips):
    """``cut_elements`` and ``cut_pieces`` of :class:`EnrichmentMap`.

    ``clips`` are the cracks' :func:`_clips`, by crack id.  Apart from
    its own tip elements, an element a crack enters must hold one piece of
    it, which bisects it when its ends lie on distinct edges more than
    ``size_tol`` apart (not a piece ending inside or leaving by its entry
    edge).  Errors name the first offending element, crack by crack in
    ascending element id.
    """
    tip_crack = np.full(mesh.n_elements, -1)
    for eid, owners in tip_elements.items():
        tip_crack[eid] = tips[owners[0]].crack_id
    cut_crack = np.full(mesh.n_elements, -1)
    cut_elements: dict[int, int] = {}
    cut_pieces: dict[int, CutPiece] = {}
    for crack in cracks:
        eids, s, p, edge = _crack_pieces(mesh, crack, clips[crack.id], size_tol)
        elems, first, count = np.unique(eids, return_index=True, return_counts=True)
        owner, earlier = tip_crack[elems], cut_crack[elems]
        s, p, edge = s[first], p[first], edge[first]
        crossed_tip = (owner >= 0) & (owner != crack.id)
        crossed_twice = (owner < 0) & (count > 1)
        cut = ((owner < 0) & (count == 1) & (edge >= 0).all(axis=1)
               & (edge[:, 0] != edge[:, 1])
               & (np.linalg.norm(p[:, 1] - p[:, 0], axis=1) > size_tol))
        bad = crossed_tip | crossed_twice | (cut & (earlier >= 0))
        if bad.any():
            k = int(np.argmax(bad))
            eid = elems[k]
            if crossed_tip[k]:
                raise EnrichmentError(
                    f"element {eid} is the tip element of crack {owner[k]} "
                    f"but is also crossed by crack {crack.id} (junctions unsupported)"
                )
            if crossed_twice[k]:
                raise EnrichmentError(
                    f"crack {crack.id} crosses element {eid} more than once; "
                    "refine the mesh or coarsen the crack"
                )
            raise EnrichmentError(
                f"element {eid} is cut by cracks {earlier[k]} "
                f"and {crack.id} (junctions unsupported)"
            )
        cut_crack[elems[cut]] = crack.id
        for k in np.flatnonzero(cut).tolist():
            eid = int(elems[k])
            cut_elements[eid] = crack.id
            cut_pieces[eid] = CutPiece(float(s[k, 0]), float(s[k, 1]), p[k, 0], p[k, 1],
                                       int(edge[k, 0]), int(edge[k, 1]))
    return cut_elements, cut_pieces


def classify_enrichment(
    mesh: Mesh,
    cracks,
    delta: float = 0.002,
    rules: QuadratureSet | None = None,
    tip_enrichment: bool = True,
) -> EnrichmentMap:
    """Classify nodes and elements for the given crack set.

    An element is *cut* when a crack polyline enters and leaves it through
    two distinct boundary points away from live tips; the element holding
    a live tip is a *tip element*.  Nodes of cut elements become Heaviside
    candidates.  A candidate is dropped when a crack endpoint lies
    strictly inside its support (the jump must close there), or by its
    far side: the points of ``rules`` at which the stiffness integrates its
    jump, those of its cut- and tip-class elements at their class's rule,
    on the other side of the crack.  When their ``w detJ`` weight, or the
    rest of its support area, is below ``delta`` times that area (Moës,
    Dolbow & Belytschko, IJNME 46, 1999), or they are fewer than two.

    Raises :class:`CrackMeshDegeneracyError` for crack features coincident
    with mesh features (see :func:`classify_with_remedy`) and
    :class:`EnrichmentError` for unsupported topologies (two cracks
    claiming one node, multiple crossings of one element, ...).

    It carries nothing from an earlier call: a growth step classifies its
    cracks from scratch, and its map records ``rules`` (by default the default
    targets') and the cut-rule point sides the assembly's reuse keys on.
    """
    if not 0.0 <= delta < 0.5:
        raise EnrichmentError(f"delta must be in [0, 0.5), got {delta}")
    rules = rules if rules is not None else QuadratureSet.from_targets()
    cracks = list(cracks)
    ids = [c.id for c in cracks]
    if len(set(ids)) != len(ids):
        raise EnrichmentError("crack ids must be unique")
    _detect_coincidences(mesh, cracks)

    size_tol = 1e-9 * float(np.max(mesh.element_sizes, initial=1.0))

    # The crack ends, located once: every element holding each, ascending.
    # A live tip is homed in the lowest-id one; without tip enrichment each
    # crack grows virtually to the far edge of that element.
    ends = np.array([crack.vertices[[0, -1]] for crack in cracks]).reshape(-1, 2)
    hit_pt, hit_eid, _ = locate_hits(mesh, ends)
    lowest = dict(zip(hit_pt[::-1].tolist(), hit_eid[::-1].tolist()))
    home = {}
    for k, crack in enumerate(cracks):
        for tid in crack.active_tips():
            if 2 * k + tid not in lowest:
                x, y = ends[2 * k + tid]
                raise EnrichmentError(
                    f"crack {crack.id} tip {tid} at ({x:g}, {y:g}) lies outside the mesh")
            home[crack.id, tid] = lowest[2 * k + tid]
    eff_cracks: list[CrackPath] = []
    tips: list[TipInfo] = []
    for crack in cracks:
        effective, extensions = crack, {}
        for tid in crack.active_tips() if not tip_enrichment else ():
            quad = mesh.element_coords([home[crack.id, tid]])[0]
            t_exit = _ray_exit_distance(quad, crack.tip_coord(tid), tip_frame(crack, tid).tangent)
            extensions[tid] = t_exit
            if t_exit > _COINCIDENCE_TOL:
                effective = extend_crack(effective, tid, 0.0, t_exit)
        eff_cracks.append(effective)
        tips += [TipInfo(crack.id, tid, tip_frame(effective, tid), home[crack.id, tid],
                         extensions.get(tid, 0.0)) for tid in crack.active_tips()]

    # Tip elements (only with tip enrichment) and cut elements.  An
    # element may host both tips of one short crack; tips of different
    # cracks in one element are a junction-scale configuration we reject.
    tip_elements: dict[int, tuple[int, ...]] = {}
    for gti, tinfo in enumerate(tips if tip_enrichment else ()):
        existing = tip_elements.get(tinfo.element, ())
        if existing and tips[existing[0]].crack_id != tinfo.crack_id:
            raise EnrichmentError(
                f"element {tinfo.element} contains tips of cracks "
                f"{tips[existing[0]].crack_id} and {tinfo.crack_id}; refine the mesh"
            )
        tip_elements[tinfo.element] = existing + (gti,)

    clips = _clips(mesh, eff_cracks, size_tol)
    cut_elements, cut_pieces = _cut_elements(mesh, eff_cracks, tips, tip_elements, size_tol,
                                             clips)

    # Heaviside candidates: nodes of cut elements.
    candidates: dict[int, int] = {}
    for eid, cid in sorted(cut_elements.items()):
        for n in mesh.elements[eid].tolist():
            if candidates.setdefault(n, cid) != cid:
                raise EnrichmentError(
                    f"node {n} has its support cut by cracks {candidates[n]} and {cid} "
                    "(junction enrichment unsupported)"
                )

    # Tip statuses win over Heaviside candidacy for the same crack.  When
    # two tips of one crack reach the same node, the lower tip index keeps
    # it; tips of different cracks meeting at a node are rejected.
    tip_claim: dict[int, int] = {}
    for eid in sorted(tip_elements):
        for gti in tip_elements[eid]:
            tinfo = tips[gti]
            for n in mesh.elements[eid].tolist():
                prev = tip_claim.get(n)
                if prev is not None:
                    other = tips[prev]
                    if other.crack_id != tinfo.crack_id:
                        raise EnrichmentError(
                            f"node {n} belongs to tip elements of cracks "
                            f"{other.crack_id} and {tinfo.crack_id}; refine the mesh"
                        )
                    continue
                if n in candidates and candidates[n] != tinfo.crack_id:
                    raise EnrichmentError(
                        f"node {n} is claimed by crack {candidates[n]} (Heaviside) and "
                        f"crack {tinfo.crack_id} (tip); junctions unsupported"
                    )
                tip_claim[n] = gti
                candidates.pop(n, None)

    demotions: list[tuple[int, float, str]] = []

    # A candidate whose support strictly contains a crack endpoint cannot
    # carry a full jump; the opening must close at that endpoint.  Its
    # support holds the endpoint's every element when it is a corner of
    # each.  An endpoint outside the mesh or on its boundary is not
    # interior.  A virtual extension moves a live end to the far edge of
    # its element, so then the ends are located again.
    moved_to = np.array([crack.vertices[[0, -1]] for crack in eff_cracks]).reshape(-1, 2)
    if np.any(moved_to != ends):
        ends = moved_to
        hit_pt, hit_eid, _ = locate_hits(mesh, ends)
    closing: set[int] = set()
    for i, p in enumerate(ends):
        owners = hit_eid[hit_pt == i].tolist()
        if owners:
            inner = set.intersection(*(set(mesh.elements[e].tolist()) for e in owners))
            if inner & candidates.keys() and mesh.boundary_distance(p) > size_tol:
                closing |= inner
    for n in sorted(closing.intersection(candidates)):
        demotions.append((n, 0.0, "crack endpoint inside support"))
        del candidates[n]

    # The per-node arrays before the far-side demotion below; the cut- and
    # tip-class elements, where the assembly integrates the jump, do not
    # depend on it.
    status = np.zeros(mesh.n_nodes, dtype=np.int8)
    node_crack = np.full(mesh.n_nodes, -1, dtype=np.int64)
    node_tip = np.full(mesh.n_nodes, -1, dtype=np.int64)
    node_sign = np.zeros(mesh.n_nodes)
    for n, cid in candidates.items():
        status[n] = HEAVISIDE
        node_crack[n] = cid
    for n, gti in tip_claim.items():
        status[n] = TIP
        node_crack[n] = tips[gti].crack_id
        node_tip[n] = gti
    for crack in eff_cracks:
        mine = np.flatnonzero(node_crack == crack.id)
        node_sign[mine] = heaviside(signed_distance_batch(crack, mesh.nodes[mine]))
    kinds = _element_kinds(mesh, status, cut_elements, tip_elements)

    # The point sides of the cut- and tip-class elements.
    cut = np.flatnonzero(kinds == 2)
    cut_sides = np.empty((cut.size, rules.cut.n_points), dtype=bool)
    sides = np.empty((cut.size, 4))
    cut_crack = np.array([cut_elements[e] for e in cut.tolist()], dtype=np.int64)
    nodes = np.array(sorted(candidates), dtype=np.int64)
    pair_node, pair_elem = _supports(mesh, nodes)
    pair_sides = np.zeros((pair_elem.size, 4))
    is_cut, is_tip = kinds[pair_elem] == 2, kinds[pair_elem] == 3
    for crack in eff_cracks:
        at_cut = cut_crack == crack.id
        at_tip = is_tip & (node_crack[nodes[pair_node]] == crack.id)
        if at_cut.any() or at_tip.any():
            elems, inv = np.unique(pair_elem[at_tip], return_inverse=True)
            (pos, w), tip_sides = _point_sides(mesh, crack, [(cut[at_cut], rules.cut),
                                                             (elems, rules.tip)])
            cut_sides[at_cut], sides[at_cut] = pos, _side_sums(pos, w)
            pair_sides[at_tip] = _side_sums(*tip_sides)[inv]
    pair_sides[is_cut] = sides[np.searchsorted(cut, pair_elem[is_cut])]

    # Demotion by the far side of each candidate: its points in the
    # cut- and tip-class elements of its support, where M is not zero.
    above = node_sign[nodes[pair_node]] > 0.0
    far_side = np.where(above[:, None], pair_sides[:, 1::2], pair_sides[:, ::2])  # weight, count
    xy = mesh.element_coords(pair_elem)
    d1, d2 = xy[:, 2] - xy[:, 0], xy[:, 3] - xy[:, 1]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])  # of each quad, by its diagonals
    far, points, area = (np.bincount(pair_node, x, minlength=nodes.size)
                         for x in (far_side[:, 0], far_side[:, 1], areas))
    ratio = np.minimum(far, area - far) / area
    for n, r, k in zip(nodes.tolist(), ratio.tolist(), points.tolist()):
        if r < delta or k < _MIN_FAR_POINTS:
            demotions.append((n, r, "support area ratio below delta" if r < delta
                              else "fewer than two far-side rule points"))
            status[n], node_crack[n], node_sign[n] = STANDARD, -1, 0.0
    # Of the element kinds, only blending depends on the demotion above.
    blend = np.flatnonzero(kinds == 1)
    kinds[blend[(status[mesh.elements[blend]] == STANDARD).all(axis=1)]] = 0

    return EnrichmentMap(
        status=status,
        node_crack=node_crack,
        node_tip=node_tip,
        node_sign=node_sign,
        cut_elements=cut_elements,
        cut_pieces=cut_pieces,
        tip_elements=tip_elements,
        tips=tuple(tips),
        cracks=tuple(eff_cracks),
        source_cracks=tuple(cracks),
        kinds=kinds,
        cut_sides=cut_sides,
        rules=rules,
        demotions=tuple(demotions),
    )


def classify_with_remedy(
    mesh: Mesh,
    cracks,
    delta: float = 0.002,
    rules: QuadratureSet | None = None,
    tip_enrichment: bool = True,
):
    """Classification with the standard coincidence remedy.

    When a crack feature coincides with a mesh feature, the offending
    cracks are nudged off it (first along the local normal, then along
    normal-minus-tangent) and classification is retried.  Returns
    ``(map, cracks)`` where ``cracks`` are the possibly perturbed inputs.
    A nudge moves every vertex of its crack.
    """
    original = {c.id: c for c in cracks}
    current = list(cracks)
    for attempt in range(2):
        try:
            return classify_enrichment(mesh, current, delta, rules, tip_enrichment), current
        except CrackMeshDegeneracyError as exc:
            current = [
                _perturbed(original[c.id], attempt) if c.id in exc.crack_ids else c
                for c in current
            ]
    return classify_enrichment(mesh, current, delta, rules, tip_enrichment), current


# ---------------------------------------------------------------------------
# enrichment functions
# ---------------------------------------------------------------------------

def shifted_heaviside(node_sign, phi_at_x):
    """Shifted Heaviside factor M = H(phi(x)) - H(phi(node)), in {-2, 0, +2}."""
    return heaviside(phi_at_x) - np.asarray(node_sign)


def branch_eval(r, theta):
    """Four crack-tip branch functions and their tip-local gradients.

    Parameters
    ----------
    r, theta : array_like
        Polar coordinates in the tip frame, r > 0, theta in (-pi, pi]
        with +/-pi on the crack faces.

    Returns
    -------
    values : ndarray (..., 4)
        sqrt(r) * {sin(t/2), cos(t/2), sin(t/2) sin t, cos(t/2) sin t}.
    gradients : ndarray (..., 4, 2)
        d F / d(x', y') in tip-local Cartesian coordinates.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("branch functions are singular at r = 0")
    r, theta = np.broadcast_arrays(r, theta)
    sr = np.sqrt(r)
    s2, c2 = np.sin(theta / 2.0), np.cos(theta / 2.0)
    st, ct = np.sin(theta), np.cos(theta)

    values = np.stack([sr * s2, sr * c2, sr * s2 * st, sr * c2 * st], axis=-1)

    f_r = np.stack([s2, c2, s2 * st, c2 * st], axis=-1) / (2.0 * sr[..., None])
    f_t = np.stack(
        [
            sr * c2 / 2.0,
            -sr * s2 / 2.0,
            sr * (c2 * st / 2.0 + s2 * ct),
            sr * (-s2 * st / 2.0 + c2 * ct),
        ],
        axis=-1,
    )
    dx = f_r * ct[..., None] - f_t * (st / r)[..., None]
    dy = f_r * st[..., None] + f_t * (ct / r)[..., None]
    return values, np.stack([dx, dy], axis=-1)


def tip_polar(tinfo: TipInfo, xs: np.ndarray, side):
    """Distance r from the tip and branch angle theta, each (k,), at points
    ``xs`` (k, 2) on ``side`` (k,) of the tip's crack (+1 or -1, the
    :func:`~xfem2d.cracks.heaviside` of the signed distance).

    The angle's size comes from the tip frame and its sign from the crack
    side, so theta = +/-pi falls exactly on the faces of a kinked crack as
    well.  It grows toward the frame normal: the crack's positive side at
    the end tip (1), its negative side at the start tip (0), whose tangent
    reverses the first segment.  Its local axes are
    :attr:`~xfem2d.cracks.TipFrame.axes`.
    """
    rel = np.atleast_2d(xs) - tinfo.frame.origin
    xp = rel @ tinfo.frame.tangent
    yp = rel @ tinfo.frame.normal
    sign = side if tinfo.tip_id == 1 else -side
    return np.hypot(xp, yp), sign * np.abs(np.arctan2(yp, xp))


def branch_functions(tinfo: TipInfo, crack: CrackPath, xs: np.ndarray):
    """Tip radius r (k,), branch functions F (k, 4) and their global
    gradients dF (k, 4, 2) at points ``xs``."""
    xs = np.atleast_2d(xs)
    r, theta = tip_polar(tinfo, xs, heaviside(signed_distance_batch(crack, xs)))
    F, dF_local = branch_eval(np.maximum(r, 1e-30), theta)
    return r, F, np.einsum("kjb,ab->kja", dF_local, tinfo.frame.axes)


# ---------------------------------------------------------------------------
# the enriched basis and field evaluation
# ---------------------------------------------------------------------------

BASIS_FIELD = np.repeat(np.arange(6), 4)  # field of each basis column
_BASIS_BATCH = 4096  # points per run of basis_batches


def _label_rows(labels: np.ndarray):
    """Each label >= 0 in ``labels`` (n, 4), ascending, with the rows that
    hold it, ascending: one sort of the (label, row) pairs."""
    hit = labels >= 0
    label, row = _distinct_pairs(labels[hit], np.nonzero(hit)[0])
    start = np.flatnonzero(np.diff(label, prepend=-1))
    return zip(label[start].tolist(), np.split(row, start[1:]))


def enriched_basis(mesh: Mesh, emap: EnrichmentMap, eids, N, dN, xs):
    """The enriched scalar basis at points of known elements, padded.

    Point k lies in element ``eids[k]``, with shape values ``N[k]`` (4,) and
    gradients ``dN[k]`` (4, 2), at ``xs[k]``.  Column ``4 f + i`` is field f
    (``BASIS_FIELD`` of the column) of the element's corner i: 0 the standard
    N_i, 1 the jump N_i M_i, 2 + j the branch N_i F_j.  A column is zero where
    the corner node lacks its field.  Returns the values (n, 24), their
    physical gradients (n, 24, 2) and the node of each column (n, 24).  The
    jump part takes one signed distance per crack, over the points whose
    element holds its jump nodes, the branch part one evaluation per tip.
    """
    conn = mesh.elements[eids]
    values, grads = np.zeros((conn.shape[0], 6, 4)), np.zeros((conn.shape[0], 6, 4, 2))
    values[:, 0], grads[:, 0] = N, dN
    jump_crack = np.where(emap.status[conn] == HEAVISIDE, emap.node_crack[conn], -1)
    for cid, rows in _label_rows(jump_crack):
        phi = signed_distance_batch(emap.crack_by_id(cid), xs[rows])
        M = shifted_heaviside(emap.node_sign[conn[rows]], phi[:, None]) * (jump_crack[rows] == cid)
        values[rows, 1] = N[rows] * M
        grads[rows, 1] = M[..., None] * dN[rows]
    node_tip = emap.node_tip[conn]  # -1 off TIP nodes
    for gti, rows in _label_rows(node_tip):
        tinfo = emap.tips[gti]
        _, F, dF = branch_functions(tinfo, emap.crack_by_id(tinfo.crack_id), xs[rows])
        # Only this tip's corners: an element may hold the nodes of two tips.
        at, corner = np.nonzero(node_tip[rows] == gti)
        k = rows[at]
        values[k, 2:, corner] = N[k, corner, None] * F[at]
        grads[k, 2:, corner] = (F[at, :, None] * dN[k, corner, None]
                                + N[k, corner, None, None] * dF[at])
    return values.reshape(-1, 24), grads.reshape(-1, 24, 2), np.tile(conn, 6)


def basis_batches(mesh: Mesh, emap: EnrichmentMap, eids, N, dN, xs):
    """:func:`enriched_basis` over consecutive runs of at most a few
    thousand points, so the padded arrays stay a few MB however many points
    there are: yields each run's slice, values, gradients and nodes."""
    for start in range(0, len(eids), _BASIS_BATCH):
        run = slice(start, start + _BASIS_BATCH)
        yield (run, *enriched_basis(mesh, emap, eids[run], N[run], dN[run], xs[run]))


def element_fields(mesh: Mesh, emap: EnrichmentMap, fields: FieldTriplet,
                   eids, N, dN, xs, want_grad: bool = True):
    """Total displacement (n, 2) and gradient (n, 2, 2) at points of known elements.

    Point k lies in element ``eids[k]``, with shape values ``N[k]`` and
    gradients ``dN[k]``, at ``xs[k]``.  A plain element's points (no
    enriched corner) take the standard basis with ``u_cont`` alone; the
    others, the enriched basis contracted with each column's field
    coefficients, only the columns whose node carries their field at some
    point of a run contracted.  ``grad`` is ``None`` when not wanted.
    """
    u = np.empty((len(eids), 2))
    grad = np.empty((len(eids), 2, 2)) if want_grad else None
    rich = emap.kinds[eids] > 0
    plain = np.flatnonzero(~rich)
    c = fields.u_cont[mesh.elements[eids[plain]]]
    u[plain] = np.einsum("ki,kia->ka", N[plain], c)
    if want_grad:
        grad[plain] = np.einsum("kib,kia->kab", dN[plain], c)
    rich = np.flatnonzero(rich)
    coef = fields.by_column()
    kind = np.minimum(BASIS_FIELD, TIP)  # the node status each column needs
    for run, values, grads, nodes in basis_batches(mesh, emap, eids[rich], N[rich], dN[rich],
                                                   xs[rich]):
        used = np.nonzero((kind == STANDARD) | (emap.status[nodes] == kind).any(axis=0))[0]
        c = coef[nodes[:, used], BASIS_FIELD[used]]
        u[rich[run]] = np.einsum("kc,kca->ka", values[:, used], c)
        if want_grad:
            grad[rich[run]] = np.einsum("kcb,kca->kab", grads[:, used], c)
    return u, grad


def evaluate_fields(xs, mesh: Mesh, emap: EnrichmentMap, fields: FieldTriplet,
                    want_grad: bool = True):
    """Total displacement and displacement gradient at arbitrary points.

    Returns ``(u, grad)`` with shapes (n, 2) and (n, 2, 2); ``grad`` is
    ``None`` when not requested.  Points must lie inside the mesh.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    eids, locs = locate_points(mesh, xs)
    if np.any(eids < 0):
        bad = xs[eids < 0][0]
        raise ValueError(f"point ({bad[0]:g}, {bad[1]:g}) is outside the mesh")
    N, dN, _ = shape_functions(mesh.element_coords(eids), locs)
    return element_fields(mesh, emap, fields, eids, N, dN, xs, want_grad)


def crack_opening(x_on_crack, fields: FieldTriplet, mesh: Mesh, emap: EnrichmentMap,
                  crack_id: int):
    """Opening displacement (normal jump) at points of the crack polyline.

    One point (2,) gives a float, points (n, 2) an array (n,).  The jump is
    that of :func:`enriched_basis`, branch functions (F_1 jumps by 2 sqrt(r))
    and Heaviside alike: the point's shape functions with the enrichment
    functions 1e-9 element sizes to either side along the face normal of
    :func:`~xfem2d.cracks.nearest_point` (the bisector at a vertex), so the
    standard columns cancel exactly, projected on that normal.  Only the
    point itself is located: a crack mouth on the boundary has its opening.
    """
    x = np.asarray(x_on_crack, dtype=float)
    xs = np.atleast_2d(x)
    crack = emap.crack_by_id(crack_id)
    if np.any(np.abs(signed_distance_batch(crack, xs)) > 1e-6 * max(1.0, crack.length)):
        raise ValueError("point does not lie on the crack polyline")
    eids, locs = locate_points(mesh, xs)
    if np.any(eids < 0):
        raise ValueError("point is outside the mesh")
    N, dN, _ = shape_functions(mesh.element_coords(eids), locs)
    feet, normal, _ = nearest_point(crack, xs)
    probe = (1e-9 * mesh.element_sizes[eids])[:, None] * normal
    (plus, _, nodes), (minus, _, _) = (enriched_basis(mesh, emap, eids, N, dN, feet + d)
                                       for d in (probe, -probe))
    jump = np.einsum("kc,kca->ka", plus - minus, fields.by_column()[nodes, BASIS_FIELD])
    opening = np.sum(jump * normal, axis=1)
    return float(opening[0]) if x.ndim == 1 else opening
