"""Enrichment classification and enriched-field evaluation.

Takes the fixed background mesh plus the crack set and decides, node by
node, which extra discontinuous (Heaviside) and singular (branch) degrees
of freedom exist.  Also provides the enrichment functions themselves —
the shifted Heaviside factor M and the four crack-tip branch functions —
and the reconstruction of displacements/gradients from a solved triplet
of nodal fields.

Two enrichment modes are supported.  With tip enrichment, the element
containing each live tip carries branch functions.  Without it, each
crack is virtually extended along its tangent to the far edge of the
element containing the tip, so the modeled crack is fully fractured up to
element edges; the resulting effective half-length is reported so results
can be compared against the matching closed-form value.

Where each crack crosses each element is decided here, once per
classification: all candidate (element, segment) pairs of a crack are
clipped in one batch, and every bisected element keeps its piece of the
crack (:class:`CutPiece`: arc lengths, end points, entry and exit edges)
in :attr:`EnrichmentMap.cut_pieces` for the field dump to read.

A propagation step classifies against the last step's map, in a narrow
band around what changed (after the narrow-band level-set update of
Stolarska, Chopp, Moës & Belytschko, IJNME 51, 2001).  The changed
features of a crack are its vertices outside the longest common start
and end of its old and new polylines, with the last common vertex on
either side, and the segments between them (:func:`_changed_segments`,
the rule the assembly's cut-element cache follows too): for growth at an
end, the new segment and the old tip vertex.  Then:

- the coincidence checks run on the changed features only, since the
  others passed them before;
- only the changed segments are clipped against the elements; the clips
  of the others are kept, by segment, so a crack grown at its start gets
  its arc lengths from its new vertex numbering;
- the tips, tip elements, cut pieces, Heaviside candidates and endpoint
  demotions are then derived again from all clips, which is cheap;
- a cut-class element's :func:`_point_sides` are carried over while it
  stays cut-class and no changed feature comes within its diameter
  (:func:`_near`, the rule of the assembly's cut-element cache); the
  tip-class elements and the enriched nodes' signs are measured afresh.

Without a map, or once the coincidence remedy has moved every vertex of
a crack, every feature has changed and the band is the whole crack, so
classification from scratch is the same routine.  The result is the same
map, bit for bit, and the same error.

The enriched basis is defined once, in one batched kernel,
:func:`enriched_basis`: at points given by element, reference and
physical coordinates it returns every corner's standard, jump and branch
functions, padded to 24 columns, their gradients and each column's node.
Assembly integrates the stiffness and both loads from it;
:func:`element_fields` contracts it with the nodal coefficients, and
:func:`evaluate_fields` is :func:`~xfem2d.mesh.locate_points` plus that
contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from xfem2d.cracks import (
    CrackGeometryError,
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
    QuadratureRule,
    QuadratureSet,
    _distinct,
    element_geometry,
    jacobian,
    locate_hits,
    locate_points,
    point_segment_distance,
    reference_shape,
)

__all__ = [
    "STANDARD",
    "HEAVISIDE",
    "TIP",
    "EnrichmentError",
    "CrackMeshDegeneracyError",
    "TipInfo",
    "CutPiece",
    "BandStats",
    "FieldTriplet",
    "EnrichmentMap",
    "classify_enrichment",
    "classify_with_remedy",
    "shifted_heaviside",
    "branch_eval",
    "branch_theta",
    "branch_frame",
    "branch_functions",
    "total_displacement",
    "crack_opening",
    "psi_at",
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


@dataclass(frozen=True)
class BandStats:
    """How much of one classification was worked out afresh.

    ``clipped`` of the ``crossed`` elements the cracks enter were clipped
    against a segment that changed since the map classified against, and
    ``measured`` of the ``candidates`` cut-class elements had the sides of
    their rule points measured; from scratch, all of them.
    """

    clipped: int
    crossed: int
    measured: int
    candidates: int


@dataclass(frozen=True, eq=False)
class _Carry:
    """What a later classification on the same mesh and cut rule carries
    over: each effective crack's :func:`_clips` by id, and the cut-class
    elements, ascending, with their :func:`_point_sides`."""

    mesh: Mesh
    rule: QuadratureRule
    clips: dict
    cut: np.ndarray
    sides: np.ndarray


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
    band : BandStats
        What this classification worked out afresh.
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
    tip_enrichment: bool
    delta: float
    demotions: tuple = ()
    band: BandStats | None = None
    _crack_index: dict[int, CrackPath] = field(default=None, repr=False)
    _carry: _Carry | None = field(default=None, repr=False)

    def __post_init__(self):
        self._crack_index = {c.id: c for c in self.cracks}

    @property
    def psi(self) -> np.ndarray:
        """0/1 indicator of enriched nodes."""
        return (self.status != STANDARD).astype(float)

    def crack_by_id(self, crack_id: int) -> CrackPath:
        return self._crack_index[crack_id]

    @property
    def n_heaviside(self) -> int:
        return int(np.count_nonzero(self.status == HEAVISIDE))

    @property
    def n_tip(self) -> int:
        return int(np.count_nonzero(self.status == TIP))

    def heaviside_nodes(self) -> np.ndarray:
        return np.nonzero(self.status == HEAVISIDE)[0]

    def tip_nodes(self) -> np.ndarray:
        return np.nonzero(self.status == TIP)[0]

    def effective_half_length(self, crack_id: int) -> float:
        """Half of the crack's total length including virtual extensions."""
        return self.crack_by_id(crack_id).length / 2.0

    def element_kinds(self, mesh: Mesh):
        """Per-element integration class.

        Returns an int array: 0 = plain 2x2, 1 = enriched at standard
        order (Heaviside blending: M is piecewise constant and vanishes on
        uncut elements, so no elevation is needed), 2 = cut (bisected),
        3 = singular (contains a tip or any branch-enriched node).
        """
        return _element_kinds(mesh, self.status, self.cut_elements, self.tip_elements)


def _element_kinds(mesh: Mesh, status, cut_elements, tip_elements) -> np.ndarray:
    """:meth:`EnrichmentMap.element_kinds` of these node statuses, marked
    through the supports of the few enriched nodes."""
    def support(nodes):
        return np.concatenate([np.empty(0, dtype=np.int64)]
                              + [mesh.node_to_elements[n] for n in nodes.tolist()])
    kinds = np.zeros(mesh.n_elements, dtype=np.int8)
    kinds[support(np.flatnonzero(status != STANDARD))] = 1
    kinds[list(cut_elements)] = 2
    kinds[support(np.flatnonzero(status == TIP))] = 3
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


def _clips(mesh: Mesh, v: np.ndarray, js: np.ndarray, size_tol: float):
    """Where the segments ``js`` of the polyline ``v`` run inside elements.

    All (element, segment) pairs whose bounding boxes, padded by
    ``size_tol``, meet are clipped together.  Returns, by element and then
    segment, each non-empty clip's element, segment and parameter interval
    (n, 2) along the segment.  A clip depends on its element and segment
    alone, so the clips of a polyline are those of its segments.
    """
    if js.size == 0:
        return np.empty(0, dtype=np.int64), js, np.empty((0, 2))
    a, b = v[js], v[js + 1]
    slo, shi = np.minimum(a, b), np.maximum(a, b)
    near = mesh.elements_meeting(slo.min(axis=0) - size_tol, shi.max(axis=0) + size_tol)
    lo, hi = (bound[near, None] for bound in mesh.element_bboxes)
    meet = np.all((lo - size_tol <= shi + size_tol) & (hi + size_tol >= slo - size_tol), axis=2)
    el, k = np.nonzero(meet)  # by element, then segment
    eids, j = near[el], js[k]
    t0, t1, inside = _clip_segments(mesh.element_coords(eids), v[j], v[j + 1])
    keep = inside & (t1 - t0 > 0.0)
    return eids[keep], j[keep], np.column_stack([t0[keep], t1[keep]])


def _crack_clips(mesh: Mesh, crack: CrackPath, old: CrackPath | None, old_clips,
                 size_tol: float):
    """:func:`_clips` of every segment of ``crack``, and the elements clipped
    afresh.

    The clips of the segments ``crack`` shares with ``old`` (of
    :func:`_changed_span`) are taken from ``old_clips``, renumbered when
    the crack grew at its start; only the other segments are clipped.
    """
    v = crack.vertices
    if old is None:
        clips = _clips(mesh, v, np.arange(len(v) - 1), size_tol)
        return clips, clips[0]
    span, old_span = _changed_span(old.vertices, v), _changed_span(v, old.vertices)
    eids, j, t = old_clips
    tail = j >= old_span.stop - 1  # segments of the common end
    kept = tail | (j < span.start)
    j = np.where(tail, j + (span.stop - old_span.stop), j)
    fresh = _clips(mesh, v, np.arange(span.start, max(span.stop - 1, span.start)), size_tol)
    eids, j, t = (np.concatenate([a[kept], b]) for a, b in zip((eids, j, t), fresh))
    order = np.lexsort((j, eids))
    return (eids[order], j[order], t[order]), fresh[0]


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


# ---------------------------------------------------------------------------
# what changed between two crack sets
# ---------------------------------------------------------------------------

def _changed_span(old: np.ndarray | None, new: np.ndarray) -> slice:
    """The vertices of the polyline ``new`` that differ from ``old``.

    Those outside the longest common start and end of the two vertex
    lists, with the last common vertex on either side, whose neighbours
    moved; all of them without ``old``, none when the two are equal.  A
    crack grown at its end changes by its new tip and its old one.
    """
    if old is None:
        return slice(0, len(new))
    if old.shape == new.shape and np.array_equal(old, new):
        return slice(0, 0)
    n = min(len(old), len(new))
    head = int(np.cumprod(np.all(old[:n] == new[:n], axis=1)).sum())
    tail = min(int(np.cumprod(np.all(old[::-1][:n] == new[::-1][:n], axis=1)).sum()), n - head)
    return slice(max(head - 1, 0), len(new) - max(tail - 1, 0))


def _changed_segments(old, new) -> np.ndarray:
    """Segments (k, 2, 2) by which two crack sets differ, a lone vertex as
    a zero-length segment: of each crack, the :func:`_changed_span` of its
    old and of its new polyline.  A crack grown at its end changes by its
    new segment and by its old tip vertex, now interior.
    """
    before = {c.id: c.vertices for c in old}
    after = {c.id: c.vertices for c in new}
    pieces = []
    for cid in before.keys() | after.keys():
        u, v = before.get(cid), after.get(cid)
        for w, other in ((u, v), (v, u)):
            piece = w[_changed_span(other, w)] if w is not None else ()
            if len(piece):
                pieces.append(np.stack([piece[:max(len(piece) - 1, 1)],
                                        piece[min(len(piece) - 1, 1):]], axis=1))
    return np.concatenate([np.empty((0, 2, 2))] + pieces)


def _near(mesh: Mesh, eids: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Whether a segment comes within each element's diameter of it.

    Every point of a cut element lies within its diameter of its own piece
    of crack, so beyond that a segment cannot be the nearest to any of its
    points, and the side of the crack they lie on stands.
    """
    quads = mesh.element_coords(eids)[:, None]  # (n, 1, 4, 2)
    diam = mesh.element_sizes[eids]
    a, b = segments[None, :, 0], segments[None, :, 1]  # (1, k, 2)
    corners = point_segment_distance(quads, a[:, :, None], b[:, :, None]).min(axis=2)
    ends = point_segment_distance(segments[None, :, :, None], quads[:, :, None],
                                  np.roll(quads, -1, axis=2)[:, :, None]).min(axis=(2, 3))
    return (np.minimum(corners, ends) <= diam[:, None]).any(axis=1)


def _box_pairs(lo, hi, lo2, hi2, pad: float):
    """Index pairs (i, k), by i then k, of boxes ``lo[i]..hi[i]`` and
    ``lo2[k]..hi2[k]`` that meet once one is padded by ``pad``."""
    meet = np.ones((len(lo), len(lo2)), dtype=bool)
    for axis in (0, 1):
        meet &= lo[:, None, axis] - pad <= hi2[None, :, axis]
        meet &= hi[:, None, axis] + pad >= lo2[None, :, axis]
    return np.nonzero(meet)


def _detect_coincidences(mesh: Mesh, cracks, spans=None) -> None:
    """Raise when crack features sit on mesh features within tolerance.

    Each crack's features are checked against the nodes and edges of the
    elements near it, one batch of (feature, mesh feature) pairs per
    check, taking only pairs whose bounding boxes meet: a mesh node on a
    segment, a vertex on an edge, and a segment running along an edge over
    a finite length.  A crack end that is not a tip (a crack mouth) may
    sit on a boundary edge.  Problems are listed crack by crack, in that
    order of checks, by segment or vertex.  ``spans`` limits the check to
    a slice of each crack's vertices and the segments between them; a
    feature's problems do not depend on the rest of its crack.
    """
    tol = _COINCIDENCE_TOL
    n_nodes = mesh.n_nodes
    boundary = mesh.boundary_edges
    boundary_keys = boundary[:, 0] * n_nodes + boundary[:, 1]
    problems = []
    bad_cracks: set[int] = set()
    if spans is None:
        spans = [slice(0, len(c.vertices)) for c in cracks]
    for crack, span in zip(cracks, spans):
        v = crack.vertices[span]
        if len(v) == 0:
            continue
        near = mesh.elements_meeting(v.min(axis=0) - 1e-9, v.max(axis=0) + 1e-9)
        if near.size == 0:
            continue
        first_vertex = span.start
        a, b = v[:-1], v[1:]
        slo, shi = np.minimum(a, b), np.maximum(a, b)
        # edges of the near elements as sorted node pairs, keyed lo * n + hi
        quads = mesh.elements[near]
        pairs = np.sort(np.stack([quads, np.roll(quads, -1, axis=1)], axis=2), axis=2)
        keys = _distinct(pairs[..., 0] * n_nodes + pairs[..., 1])
        e0, e1 = np.divmod(keys, n_nodes)
        p0, p1 = mesh.nodes[e0], mesh.nodes[e1]
        elo, ehi = np.minimum(p0, p1), np.maximum(p0, p1)
        ed = p1 - p0
        Le = np.linalg.norm(ed, axis=1)
        found = []
        # mesh node on a crack segment (level-set sign would be ambiguous)
        near_nodes = _distinct(quads)
        xy = mesh.nodes[near_nodes]
        j, k = _box_pairs(slo, shi, xy, xy, tol)
        on = point_segment_distance(xy[k], a[j], b[j]) <= tol
        found += [f"segment {jj + first_vertex} passes through mesh node {node}"
                  for jj, node in zip(j[on].tolist(), near_nodes[k[on]].tolist())]
        # crack vertex on an element edge; endpoints that are not tips may
        # legitimately sit on the domain boundary (crack mouths)
        i, k = _box_pairs(v, v, elo, ehi, tol)
        mouth = np.zeros(len(crack.vertices), dtype=bool)
        mouth[[0, -1]] = not crack.tip_start, not crack.tip_end
        mouth = mouth[span]
        hits = ((point_segment_distance(v[i], p0[k], p1[k]) <= tol)
                & ~(mouth[i] & np.isin(keys[k], boundary_keys)))
        vi, first = np.unique(i[hits], return_index=True)
        found += [f"vertex {vv + first_vertex} lies on mesh edge ({n0},{n1})" for vv, n0, n1 in
                  zip(vi.tolist(), e0[k[hits]][first].tolist(), e1[k[hits]][first].tolist())]
        # segment collinear with an edge over a finite overlap: an edge within
        # tol of the segment's line, at an angle whose sine is within tol,
        # comes within tol * (1 + Le) of the segment where they overlap
        j, k = _box_pairs(slo, shi, elo, ehi, tol * (1.0 + Le.max()))
        ab = b[j] - a[j]
        Ls = np.linalg.norm(ab, axis=1)
        parallel = (np.abs(ab[:, 0] * ed[k, 1] - ab[:, 1] * ed[k, 0])
                    <= tol * Ls * Le[k])
        # perpendicular distance of the edge from the segment line
        off = p0[k] - a[j]
        dist = np.abs(ab[:, 0] * off[:, 1] - ab[:, 1] * off[:, 0]) / Ls
        t0 = np.sum(off * ab, axis=1) / (Ls * Ls)
        t1 = np.sum((p1[k] - a[j]) * ab, axis=1) / (Ls * Ls)
        overlap = (np.minimum(np.maximum(t0, t1), 1.0)
                   - np.maximum(np.minimum(t0, t1), 0.0))
        along = parallel & (dist <= tol) & (overlap > tol / Ls)
        js, first = np.unique(j[along], return_index=True)
        found += [f"segment {jj + first_vertex} runs along mesh edge ({n0},{n1})" for jj, n0, n1 in
                  zip(js.tolist(), e0[k[along]][first].tolist(), e1[k[along]][first].tolist())]
        if found:
            problems += [f"crack {crack.id} {text}" for text in found]
            bad_cracks.add(crack.id)
    if problems:
        raise CrackMeshDegeneracyError(
            "crack/mesh coincidence: " + "; ".join(problems[:5]),
            crack_ids=bad_cracks,
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
    """For each ``(eids, rule)`` of ``batches``, per element (n, 4): the
    ``w detJ`` weight of the rule points with ``heaviside`` of the signed
    distance to ``crack`` +1, of those with -1, and the counts of each, at
    the points :func:`enriched_basis` evaluates M at.  An element's row
    depends on it alone."""
    geometry = [element_geometry(mesh.element_coords(eids), rule)[2:] for eids, rule in batches]
    phi = signed_distance_batch(crack, np.concatenate([phys.reshape(-1, 2)
                                                       for _, phys in geometry]))
    sides, at = [], 0
    for w, _ in geometry:  # w: (elements, q)
        pos = heaviside(phi[at:at + w.size]).reshape(w.shape) > 0.0
        at += w.size
        sides.append(np.column_stack([np.where(pos, w, 0.0).sum(axis=1),
                                      np.where(pos, 0.0, w).sum(axis=1),
                                      pos.sum(axis=1), (~pos).sum(axis=1)]))
    return sides


def _cut_elements(mesh: Mesh, cracks, tips, tip_elements, size_tol: float, clips):
    """``cut_elements`` and ``cut_pieces`` of :class:`EnrichmentMap`.

    ``clips`` holds each crack's :func:`_clips` by crack id.  Apart from
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
    base: EnrichmentMap | None = None,
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

    ``base`` is an earlier classification on the same mesh with the same
    cut rule object, such as the last step's of a propagation run; any
    other is ignored.  Only what the features by which the cracks changed
    since then can reach is worked out again, the rest carried over (the
    band rule of the module notes).  The map and any error are the same
    as without it.
    """
    if not 0.0 <= delta < 0.5:
        raise EnrichmentError(f"delta must be in [0, 0.5), got {delta}")
    rules = rules if rules is not None else QuadratureSet.from_targets()
    cracks = list(cracks)
    ids = [c.id for c in cracks]
    if len(set(ids)) != len(ids):
        raise EnrichmentError("crack ids must be unique")
    prior = base._carry if base is not None else None
    if prior is None or prior.mesh is not mesh or prior.rule is not rules.cut:
        base = prior = None
    old_sources = {c.id: c for c in base.source_cracks} if base is not None else {}
    old_cracks = {c.id: c for c in base.cracks} if base is not None else {}
    spans = []
    for crack in cracks:
        old = old_sources.get(crack.id)
        same = old is not None and old.active_tips() == crack.active_tips()
        spans.append(_changed_span(old.vertices if same else None, crack.vertices))
    _detect_coincidences(mesh, cracks, spans)

    size_tol = 1e-9 * float(np.max(mesh.element_sizes, initial=1.0))

    # Live tips, each homed in its lowest-id containing element; without
    # tip enrichment each crack grows virtually to the far edge of that
    # element.
    live = [(crack, tid) for crack in cracks for tid in crack.active_tips()]
    origins = np.array([crack.tip_coord(tid) for crack, tid in live]).reshape(-1, 2)
    owners, _ = locate_points(mesh, origins)
    if np.any(owners < 0):
        k = int(np.argmax(owners < 0))
        crack, tid = live[k]
        raise EnrichmentError(
            f"crack {crack.id} tip {tid} at ({origins[k, 0]:g}, {origins[k, 1]:g}) "
            "lies outside the mesh"
        )
    home = {(crack.id, tid): int(e) for (crack, tid), e in zip(live, owners)}
    eff_cracks: list[CrackPath] = []
    tips: list[TipInfo] = []
    for crack in cracks:
        effective = crack
        extensions = {}
        for tid in crack.active_tips():
            origin = crack.tip_coord(tid)
            if not tip_enrichment:
                frame = tip_frame(crack, tid)
                quad = mesh.element_coords([home[crack.id, tid]])[0]
                t_exit = _ray_exit_distance(quad, origin, frame.tangent)
                extensions[tid] = t_exit
                if t_exit > _COINCIDENCE_TOL:
                    effective = extend_crack(effective, tid, 0.0, t_exit)
        eff_cracks.append(effective)
        for tid in crack.active_tips():
            tips.append(
                TipInfo(
                    crack_id=crack.id,
                    tip_id=tid,
                    frame=tip_frame(effective, tid),
                    element=home[crack.id, tid],
                    virtual_extension=extensions.get(tid, 0.0),
                )
            )

    # Tip elements (only with tip enrichment) and cut elements.  An
    # element may host both tips of one short crack; tips of different
    # cracks in one element are a junction-scale configuration we reject.
    tip_elements: dict[int, tuple[int, ...]] = {}
    if tip_enrichment:
        for gti, tinfo in enumerate(tips):
            existing = tip_elements.get(tinfo.element)
            if existing is not None:
                other = tips[existing[0]]
                if other.crack_id != tinfo.crack_id:
                    raise EnrichmentError(
                        f"element {tinfo.element} contains tips of cracks "
                        f"{other.crack_id} and {tinfo.crack_id}; refine the mesh"
                    )
                tip_elements[tinfo.element] = existing + (gti,)
            else:
                tip_elements[tinfo.element] = (gti,)

    clips, clipped = {}, [np.empty(0, dtype=np.int64)]
    for crack in eff_cracks:
        old = old_cracks.get(crack.id)
        old_clips = prior.clips[crack.id] if old is not None else None
        clips[crack.id], fresh = _crack_clips(mesh, crack, old, old_clips, size_tol)
        clipped.append(fresh)
    cut_elements, cut_pieces = _cut_elements(mesh, eff_cracks, tips, tip_elements, size_tol,
                                             clips)

    # Heaviside candidates: nodes of cut elements.
    candidates: dict[int, int] = {}
    for eid in sorted(cut_elements):
        cid = cut_elements[eid]
        for n in mesh.elements[eid]:
            n = int(n)
            if n in candidates and candidates[n] != cid:
                raise EnrichmentError(
                    f"node {n} has its support cut by cracks {candidates[n]} and {cid} "
                    "(junction enrichment unsupported)"
                )
            candidates[n] = cid

    # Tip statuses win over Heaviside candidacy for the same crack.  When
    # two tips of one crack reach the same node, the lower tip index keeps
    # it; tips of different cracks meeting at a node are rejected.
    tip_claim: dict[int, int] = {}
    for eid in sorted(tip_elements):
        for gti in tip_elements[eid]:
            tinfo = tips[gti]
            for n in mesh.elements[eid]:
                n = int(n)
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
    # interior.
    ends = np.array([p for crack in eff_cracks
                     for p in (crack.vertices[0], crack.vertices[-1])]).reshape(-1, 2)
    pt, eid, _ = locate_hits(mesh, ends)
    closing: set[int] = set()
    for i, p in enumerate(ends):
        owners = eid[pt == i].tolist()
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

    # The point sides of the cut-class elements, carried over from ``base``
    # where no changed feature comes near (the band); the tip class afresh.
    cut = np.flatnonzero(kinds == 2)
    sides = np.empty((cut.size, 4))
    fresh = np.ones(cut.size, dtype=bool)
    if prior is not None:
        common, at, old = np.intersect1d(cut, prior.cut, assume_unique=True, return_indices=True)
        keep = ~_near(mesh, common, _changed_segments(base.cracks, eff_cracks))
        sides[at[keep]] = prior.sides[old[keep]]
        fresh[at[keep]] = False
    cut_crack = np.array([cut_elements[e] for e in cut.tolist()], dtype=np.int64)
    nodes = np.array(sorted(candidates), dtype=np.int64)
    support = [mesh.node_to_elements[n] for n in nodes]
    pair_node = np.repeat(np.arange(nodes.size), [e.size for e in support])
    pair_elem = np.concatenate([np.empty(0, dtype=np.int64)] + support)
    pair_sides = np.zeros((pair_elem.size, 4))
    is_cut, is_tip = kinds[pair_elem] == 2, kinds[pair_elem] == 3
    for crack in eff_cracks:
        at_cut = fresh & (cut_crack == crack.id)
        at_tip = is_tip & (node_crack[nodes[pair_node]] == crack.id)
        if at_cut.any() or at_tip.any():
            elems, inv = np.unique(pair_elem[at_tip], return_inverse=True)
            sides[at_cut], tip_sides = _point_sides(mesh, crack, [(cut[at_cut], rules.cut),
                                                                  (elems, rules.tip)])
            pair_sides[at_tip] = tip_sides[inv]
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

    crossed = _distinct(np.concatenate([np.empty(0, dtype=np.int64)]
                                       + [c[0] for c in clips.values()]))

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
        tip_enrichment=tip_enrichment,
        delta=delta,
        demotions=tuple(demotions),
        band=BandStats(clipped=_distinct(np.concatenate(clipped)).size, crossed=crossed.size,
                       measured=int(fresh.sum()), candidates=cut.size),
        _carry=_Carry(mesh=mesh, rule=rules.cut, clips=clips, cut=cut, sides=sides),
    )


def classify_with_remedy(
    mesh: Mesh,
    cracks,
    delta: float = 0.002,
    rules: QuadratureSet | None = None,
    tip_enrichment: bool = True,
    base: EnrichmentMap | None = None,
):
    """Classification with the standard coincidence remedy.

    When a crack feature coincides with a mesh feature, the offending
    cracks are nudged off it (first along the local normal, then along
    normal-minus-tangent) and classification is retried.  Returns
    ``(map, cracks)`` where ``cracks`` are the possibly perturbed inputs.
    Every attempt is classified against ``base`` (see
    :func:`classify_enrichment`); a nudge moves every vertex of its crack.
    """
    original = {c.id: c for c in cracks}
    current = list(cracks)
    for attempt in range(2):
        try:
            return classify_enrichment(mesh, current, delta, rules, tip_enrichment, base), current
        except CrackMeshDegeneracyError as exc:
            current = [
                _perturbed(original[c.id], attempt) if c.id in exc.crack_ids else c
                for c in current
            ]
    return classify_enrichment(mesh, current, delta, rules, tip_enrichment, base), current


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


def branch_theta(tinfo: TipInfo, crack: CrackPath, xs: np.ndarray):
    """Tip-polar coordinates with theta's sign taken from the crack side.

    The branch discontinuity must fall exactly on the crack face, so the
    angle magnitude comes from the tip frame while its sign comes from the
    signed distance to the (possibly kinked) crack polyline.
    """
    xs = np.atleast_2d(xs)
    rel = xs - tinfo.frame.origin
    xp = rel @ tinfo.frame.tangent
    yp = rel @ tinfo.frame.normal
    r = np.hypot(xp, yp)
    theta = np.abs(np.arctan2(yp, xp))
    side = heaviside(signed_distance_batch(crack, xs))
    return r, side * theta


def branch_frame(tinfo: TipInfo) -> np.ndarray:
    """Local-to-global rotation of the axes the branch angle is measured in.

    The signed angle of :func:`branch_theta` is positive on the crack's
    positive-distance side.  At the end tip that side coincides with the
    frame normal; at the start tip (whose tangent reverses the first
    segment) it is the opposite of the frame normal, so the local y axis
    used for gradients must be mirrored there.
    """
    flip = 1.0 if tinfo.tip_id == 1 else -1.0
    return np.column_stack([tinfo.frame.tangent, flip * tinfo.frame.normal])


def branch_functions(tinfo: TipInfo, crack: CrackPath, xs: np.ndarray):
    """Tip radius r (k,), branch functions F (k, 4) and their global
    gradients dF (k, 4, 2) at points ``xs``."""
    r, theta = branch_theta(tinfo, crack, xs)
    F, dF_local = branch_eval(np.maximum(r, 1e-30), theta)
    return r, F, np.einsum("kjb,ab->kja", dF_local, branch_frame(tinfo))


# ---------------------------------------------------------------------------
# the enriched basis and field evaluation
# ---------------------------------------------------------------------------

BASIS_FIELD = np.repeat(np.arange(6), 4)  # field of each basis column
_BASIS_BATCH = 4096  # points per enriched_basis call of basis_batches


def enriched_basis(mesh: Mesh, emap: EnrichmentMap, eids, local, xs):
    """The enriched scalar basis at points of known elements, padded.

    Point k lies in element ``eids[k]`` at reference coordinates
    ``local[k]`` and physical position ``xs[k]``.  Column ``4 f + i`` is
    field f (``BASIS_FIELD`` of the column) of the element's corner i: 0 the
    standard N_i, 1 the jump N_i M_i, 2 + j the branch N_i F_j.  A column
    is zero where the corner node lacks its field.  Returns the
    values (n, 24), their physical gradients (n, 24, 2) and the node of
    each column (n, 24).  The jump part takes one signed distance per
    crack, over the points whose element holds its jump nodes, the branch
    part one evaluation per tip.
    """
    conn = mesh.elements[eids]
    N, dref = reference_shape(local[:, 0], local[:, 1])  # (n, 4), (n, 4, 2)
    dN = dref @ jacobian(mesh.nodes[conn], dref)[1]  # physical gradients
    values, grads = np.zeros((conn.shape[0], 6, 4)), np.zeros((conn.shape[0], 6, 4, 2))
    values[:, 0], grads[:, 0] = N, dN
    status, node_crack = emap.status[conn], emap.node_crack[conn]
    jump = status == HEAVISIDE
    for cid in np.unique(node_crack[jump]).tolist():
        own = jump & (node_crack == cid)
        rows = np.nonzero(own.any(axis=1))[0]
        phi = signed_distance_batch(emap.crack_by_id(cid), xs[rows])
        M = shifted_heaviside(emap.node_sign[conn[rows]], phi[:, None]) * own[rows]
        values[rows, 1] = N[rows] * M
        grads[rows, 1] = M[..., None] * dN[rows]
    node_tip = emap.node_tip[conn]  # -1 off TIP nodes
    for gti in np.unique(node_tip[node_tip >= 0]).tolist():
        own = node_tip == gti
        rows = np.nonzero(own.any(axis=1))[0]
        tinfo = emap.tips[gti]
        _, F, dF = branch_functions(tinfo, emap.crack_by_id(tinfo.crack_id), xs[rows])
        mask = own[rows][:, None, :]  # (points, branch, corner)
        values[rows, 2:] = N[rows, None, :] * F[:, :, None] * mask
        grads[rows, 2:] = (F[:, :, None, None] * dN[rows, None]
                           + N[rows, None, :, None] * dF[:, :, None, :]) * mask[..., None]
    return values.reshape(-1, 24), grads.reshape(-1, 24, 2), np.tile(conn, 6)


def basis_batches(mesh: Mesh, emap: EnrichmentMap, eids, local, xs):
    """:func:`enriched_basis` over consecutive runs of at most a few
    thousand points, so the padded arrays stay a few MB however many points
    there are: yields each run's slice, values, gradients and nodes."""
    for start in range(0, len(eids), _BASIS_BATCH):
        run = slice(start, start + _BASIS_BATCH)
        yield (run, *enriched_basis(mesh, emap, eids[run], local[run], xs[run]))


def element_fields(mesh: Mesh, emap: EnrichmentMap, fields: FieldTriplet,
                   eids, local, xs, want_grad: bool = True):
    """Total displacement (n, 2) and gradient (n, 2, 2) at points of known elements.

    Point k lies in element ``eids[k]`` at reference coordinates ``local[k]``
    and physical position ``xs[k]``: the enriched basis contracted with
    each column's field coefficients.  Only the columns whose node carries
    their field at some point of a run are contracted.  ``grad`` is
    ``None`` when not wanted.
    """
    coef = np.concatenate([fields.u_cont[:, None], fields.u_disc[:, None], fields.u_tip],
                          axis=1)  # (n_nodes, 6, 2), by BASIS_FIELD
    kind = np.minimum(BASIS_FIELD, TIP)  # the node status each column needs
    u = np.empty((len(eids), 2))
    grad = np.empty((len(eids), 2, 2)) if want_grad else None
    for run, values, grads, nodes in basis_batches(mesh, emap, eids, local, xs):
        used = np.nonzero((kind == STANDARD) | (emap.status[nodes] == kind).any(axis=0))[0]
        c = coef[nodes[:, used], BASIS_FIELD[used]]
        u[run] = np.einsum("kc,kca->ka", values[:, used], c)
        if want_grad:
            grad[run] = np.einsum("kcb,kca->kab", grads[:, used], c)
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
    return element_fields(mesh, emap, fields, eids, locs, xs, want_grad)


def total_displacement(x, fields: FieldTriplet, mesh: Mesh, emap: EnrichmentMap):
    """Total displacement vector at one point."""
    u, _ = evaluate_fields(np.asarray(x, dtype=float)[None, :], mesh, emap, fields,
                           want_grad=False)
    return u[0]


def _shape_at(mesh: Mesh, xs):
    """Corner nodes (n, 4) and shape values (n, 4) of the elements holding
    the points ``xs`` (n, 2)."""
    eids, locs = locate_points(mesh, xs)
    if np.any(eids < 0):
        raise ValueError("point is outside the mesh")
    return mesh.elements[eids], reference_shape(locs[:, 0], locs[:, 1])[0]


def crack_opening(x_on_crack, fields: FieldTriplet, mesh: Mesh, emap: EnrichmentMap,
                  crack_id: int):
    """Opening displacement (normal jump) at points of the crack polyline.

    One point (2,) gives a float, points (n, 2) an array (n,).  The jump
    is carried entirely by the discontinuous field: every shifted
    Heaviside factor changes by exactly 2 across the face, so the jump is
    2 * sum(N_i * u_disc_i) projected on the face normal of
    :func:`~xfem2d.cracks.nearest_point` (the bisector at a vertex).
    """
    x = np.asarray(x_on_crack, dtype=float)
    xs = np.atleast_2d(x)
    crack = emap.crack_by_id(crack_id)
    if np.any(np.abs(signed_distance_batch(crack, xs)) > 1e-6 * max(1.0, crack.length)):
        raise ValueError("point does not lie on the crack polyline")
    conn, values = _shape_at(mesh, xs)
    own = (emap.status[conn] == HEAVISIDE) & (emap.node_crack[conn] == crack_id)
    jump = 2.0 * ((values * own)[:, None] @ fields.u_disc[conn])[:, 0]
    _, normal, _ = nearest_point(crack, xs)
    opening = np.sum(jump * normal, axis=1)
    return float(opening[0]) if x.ndim == 1 else opening


def psi_at(emap: EnrichmentMap, mesh: Mesh, x) -> float:
    """Bilinear interpolation of the 0/1 enriched-node indicator."""
    conn, values = _shape_at(mesh, np.asarray(x, dtype=float)[None])
    return float(values[0] @ emap.psi[conn[0]])
