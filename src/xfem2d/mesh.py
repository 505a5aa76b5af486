"""Background mesh of bilinear quadrilaterals.

Provides the immutable :class:`Mesh` container, bilinear shape-function
evaluation, tensor-product Gauss-Legendre quadrature rules, and point
location.  Every point's shape data come from one kernel,
:func:`shape_functions`, where the point is made.  Every search for the
elements near some place is one batched grid query,
:meth:`Mesh.box_query`: it takes k boxes and returns their (box, element)
pairs from a uniform grid of padded element bounding boxes
(:attr:`Mesh.point_grid`, built once per mesh).  Point location,
:func:`locate_hits`, asks it about the points and inverts the bilinear map
of each candidate in one batched Newton iteration; :func:`locate_points`
keeps each point's lowest-id hit.  The mesh never changes during a
simulation; cracks live on top of it as independent geometry.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Mesh",
    "DissectionTree",
    "QuadratureRule",
    "QuadratureSet",
    "MeshFormatError",
    "load_mesh",
    "dump_mesh",
    "read_mesh",
    "write_mesh",
    "gauss_rule",
    "jacobian",
    "edge_points",
    "element_geometry",
    "locate_hits",
    "locate_points",
    "point_segment_distance",
    "reference_shape",
    "shape_functions",
]

# Reference-square corner coordinates in CCW connectivity order.
_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


class MeshFormatError(ValueError):
    """Raised when a mesh document is malformed or describes a bad mesh."""


def reference_shape(xi, eta):
    """Bilinear shape values and reference-coordinate gradients.

    Parameters
    ----------
    xi, eta : array_like
        Reference coordinates; any broadcastable shape.

    Returns
    -------
    values : ndarray, shape (..., 4)
    grads : ndarray, shape (..., 4, 2)
        d(N_i)/d(xi, eta).
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    xi, eta = np.broadcast_arrays(xi, eta)
    sx = _CORNERS[:, 0]
    sy = _CORNERS[:, 1]
    values = 0.25 * (1.0 + xi[..., None] * sx) * (1.0 + eta[..., None] * sy)
    grads = np.empty(values.shape + (2,))
    grads[..., 0] = 0.25 * sx * (1.0 + eta[..., None] * sy)
    grads[..., 1] = 0.25 * sy * (1.0 + xi[..., None] * sx)
    return values, grads


def jacobian(xy, dref):
    """Determinant (...) and inverse (..., 2, 2) of the bilinear map's Jacobian.

    ``xy`` holds element corners (..., 4, 2) and ``dref`` the reference
    gradients of :func:`reference_shape` (..., 4, 2); their leading shapes
    broadcast.  J[a, b] = d x_a / d xi_b; ``inv`` is non-finite where ``det`` is zero.
    """
    J = np.swapaxes(xy, -1, -2) @ dref
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    adj = np.empty_like(J)
    adj[..., 0, 0] = J[..., 1, 1]
    adj[..., 0, 1] = -J[..., 0, 1]
    adj[..., 1, 0] = -J[..., 1, 0]
    adj[..., 1, 1] = J[..., 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return det, adj / det[..., None, None]


def shape_functions(xy, local):
    """Shape values ``N`` (..., 4), physical gradients ``dN`` (..., 4, 2) and
    Jacobian determinants ``det`` (...) at reference coordinates ``local``
    (..., 2) of elements with corners ``xy`` (..., 4, 2); leading shapes broadcast."""
    N, dref = reference_shape(local[..., 0], local[..., 1])
    det, Jinv = jacobian(xy, dref)
    return N, dref @ Jinv, det


def edge_points(side, t, a, b):
    """Reference and physical coordinates (n, 2) of the points at parameter
    ``t`` (n,) along local edges ``side`` (n,), each running from corner k,
    at ``a`` (n, 2), to corner k + 1, at ``b``."""
    t = t[:, None]
    return (1.0 - t) * _CORNERS[side] + t * _CORNERS[(side + 1) % 4], a + t * (b - a)


def element_geometry(xy: np.ndarray, rule: QuadratureRule):
    """Shape data at ``rule``'s points of elements with corners ``xy`` (..., 4, 2).

    Returns ``values`` (q, 4), physical shape gradients ``dN`` (..., q, 4, 2),
    weights times Jacobian determinants ``wdet`` (..., q) and the physical
    points ``phys`` (..., q, 2); ``...`` is the leading shape of ``xy``.
    """
    values, dN, det = shape_functions(xy[..., None, :, :], rule.points)
    return values, dN, rule.weights * det, values @ xy


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Gauss-Legendre rule on the reference square [-1,1]^2."""

    points: np.ndarray  # (n, 2)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)
        if abs(self.weights.sum() - 4.0) > 1e-12:
            raise ValueError("quadrature weights must sum to the reference area 4.0")
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _legendre_series(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Legendre series of coefficients ``c`` at ``x``, by Clenshaw's
    recursion, operation for operation as NumPy's ``legval``."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        nd = len(c) + 2 - i
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _gauss_1d(n: int):
    """Gauss-Legendre nodes and weights of order n on [-1, 1].

    These are NumPy's ``leggauss(n)`` bit for bit, by its own steps, but
    without importing ``numpy.polynomial`` and its six series classes
    (2-5 ms of every start): the eigenvalues of the symmetric companion
    matrix of L_n, one Newton step on L_n, then the weights
    1 / (L_{n-1} L_n') symmetrised and scaled to sum to 2.
    """
    scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    companion = np.zeros((n, n))
    k = np.arange(1, n)
    companion[k, k - 1] = companion[k - 1, k] = k * scale[:n - 1] * scale[1:]
    x = np.linalg.eigvalsh(companion)
    c = np.zeros(n + 1)
    c[-1] = 1.0  # L_n
    dc, rest = np.empty(n), c.copy()  # L_n' as a Legendre series, as NumPy's legder
    for j in range(n, 2, -1):
        dc[j - 1] = (2 * j - 1) * rest[j]
        rest[j - 2] += rest[j]
    if n > 1:
        dc[1] = 3 * rest[2]
    dc[0] = rest[1]
    df = _legendre_series(x, dc)
    x -= _legendre_series(x, c) / df
    fm = _legendre_series(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


@lru_cache(maxsize=None)
def gauss_rule(points_target: int) -> QuadratureRule:
    """Smallest tensor-product Gauss-Legendre rule with >= ``points_target`` points.

    A target of 35 yields the 36-point (6x6) rule; 40 yields 49 (7x7);
    4 yields the plain 2x2 rule.
    """
    if points_target < 1:
        raise ValueError("points_target must be >= 1")
    n = int(np.ceil(np.sqrt(points_target)))
    x, w = _gauss_1d(n)
    xi, eta = np.meshgrid(x, x, indexing="ij")
    wi, wj = np.meshgrid(w, w, indexing="ij")
    points = np.column_stack([xi.ravel(), eta.ravel()])
    weights = (wi * wj).ravel()
    return QuadratureRule(points=points, weights=weights)


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
        :attr:`~xfem2d.enrichment.EnrichmentMap.kinds`: plain and
        blending elements, cut elements, tip elements."""
        pairs = ((np.nonzero(kinds < 2)[0], self.standard),
                 (np.nonzero(kinds == 2)[0], self.cut),
                 (np.nonzero(kinds == 3)[0], self.tip))
        return [(eids, rule) for eids, rule in pairs if eids.size]

    def rule_points(self, mesh: "Mesh", eids: np.ndarray, kinds: np.ndarray):
        """Each point's place in ``eids`` (n,), shape values (n, 4), shape
        gradients (n, 4, 2), w·detJ (n,) and position (n, 2) over the
        elements ``eids`` of kinds ``kinds``, each class at its own rule, by
        class and then by place."""
        parts = []
        for k, rule in self.classes(kinds):
            N, dN, wdet, phys = element_geometry(mesh.element_coords(eids[k]), rule)
            parts.append((np.repeat(k, rule.n_points), np.tile(N, (k.size, 1)),
                          dN.reshape(-1, 4, 2), wdet.ravel(), phys.reshape(-1, 2)))
        return tuple(np.concatenate(a) for a in zip(*parts))


@dataclass
class Mesh:
    """Immutable background mesh of counter-clockwise bilinear quads.

    The mesh never changes during a run: a growing crack changes only the
    enrichment classified on top of it.  So everything derived from the
    mesh alone is a cached property, built on first use and kept for the
    mesh's life: the :attr:`element_sizes`, the node adjacency
    :attr:`node_to_elements`, the :attr:`boundary_edges` array with their
    owners, the :attr:`point_grid` (cell offsets, ascending element ids and
    padded element bounding boxes, built with array operations) that
    :meth:`box_query`, the one query of the elements near a place, reads,
    and the :attr:`nested_dissection_tree` whose fronts the sparse solve
    factors.
    A propagation run reads its mesh once and reuses all of these at
    every load step.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, 2)
        Node coordinates in meters.
    elements : ndarray, shape (n_elements, 4)
        Node indices per element, counter-clockwise.
    boundary_tags : dict[str, ndarray]
        Named groups of boundary node indices.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_tags: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise MeshFormatError("nodes must be an (n, 2) array")
        if self.elements.ndim != 2 or self.elements.shape[1] != 4:
            raise MeshFormatError("elements must be an (m, 4) array")
        if not np.all(np.isfinite(self.nodes)):
            raise MeshFormatError("node coordinates must be finite")
        bad = (self.elements < 0) | (self.elements >= self.n_nodes)
        if np.any(bad):
            eid = int(np.nonzero(bad.any(axis=1))[0][0])
            raise MeshFormatError(
                f"element {eid} references node index outside 0..{self.n_nodes - 1}"
            )
        tags = {}
        for name, ids in self.boundary_tags.items():
            ids = np.ascontiguousarray(ids, dtype=np.int64)
            if ids.size and (ids.min() < 0 or ids.max() >= self.n_nodes):
                raise MeshFormatError(f"boundary '{name}' references an invalid node index")
            ids.setflags(write=False)
            tags[name] = ids
        self.boundary_tags = tags
        # Finite, positive corner Jacobians rule out overflowing, inverted
        # and degenerate quads; a NaN would pass the sign check alone.
        jdet = _corner_jacobians(self.nodes, self.elements)
        for bad, what in ((~np.isfinite(jdet).all(axis=1), "has a non-finite Jacobian"),
                          (jdet.min(axis=1) <= 0.0,
                           "is degenerate or inverted (non-positive Jacobian)")):
            if bad.any():
                raise MeshFormatError(f"element {int(np.flatnonzero(bad)[0])} {what}")
        self.nodes.setflags(write=False)
        self.elements.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def element_coords(self, eids=None) -> np.ndarray:
        """Corner coordinates, shape (len(eids), 4, 2)."""
        if eids is None:
            return self.nodes[self.elements]
        return self.nodes[self.elements[np.asarray(eids, dtype=np.int64)]]

    def element_centroids(self) -> np.ndarray:
        return self.element_coords().mean(axis=1)

    def bbox(self):
        return self.nodes.min(axis=0), self.nodes.max(axis=0)

    # -- derived data: built on first use, then kept for the mesh's life ---
    @cached_property
    def element_sizes(self) -> np.ndarray:
        """Per-element diameter (max of the two diagonals), read-only."""
        xy = self.element_coords()
        d1 = np.linalg.norm(xy[:, 2] - xy[:, 0], axis=1)
        d2 = np.linalg.norm(xy[:, 3] - xy[:, 1], axis=1)
        sizes = np.maximum(d1, d2)
        sizes.setflags(write=False)
        return sizes

    @cached_property
    def node_to_elements(self) -> tuple[np.ndarray, np.ndarray]:
        """Incident element ids per node (the node's support), ascending, as
        read-only arrays ``(ptr, ids)``: node n's are ``ids[ptr[n]:ptr[n + 1]]``."""
        flat = self.elements.ravel()
        ids = np.argsort(flat, kind="stable") // 4  # element-major, so ids ascend
        ptr = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=self.n_nodes))])
        ptr.setflags(write=False)
        ids.setflags(write=False)
        return ptr, ids

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """Edges owned by exactly one element (outer and hole boundaries).

        Shape (k, 4), in order of first element: the sorted corner-node
        pair, the owning element and the edge's local index k in it (edge
        k runs from corner k to corner k + 1).
        """
        a, b = self.elements, np.roll(self.elements, -1, axis=1)
        keys = (np.minimum(a, b) * self.n_nodes + np.maximum(a, b)).ravel()
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        flat = np.sort(first[counts == 1])  # element-major, then local edge
        lo, hi = np.divmod(keys[flat], self.n_nodes)
        edges = np.column_stack([lo, hi, flat // 4, flat % 4])
        edges.setflags(write=False)
        return edges

    def box_query(self, lo, hi):
        """Every (box, element) pair of the boxes ``lo[i]``..``hi[i]`` (k, 2)
        and the elements whose padded :attr:`point_grid` box meets them.

        The one reader of the grid's cells: each box, grown by the grid's
        ``reach``, gathers the elements listed in the cells it covers, and
        keeps those whose padded box meets it.  Returns ``(boxes,
        elements)``, by box and then element id; a point is the box with
        ``lo == hi``.
        """
        origin, cell, (nx, ny), start, listed, elo, ehi, reach = self.point_grid
        lo = np.asarray(lo, dtype=float).reshape(-1, 2)
        hi = np.asarray(hi, dtype=float).reshape(-1, 2)
        # The cell coordinate g(v) = (v - origin) / cell is monotone in v.  A
        # box [lo, hi] meeting an element's padded box, grown to [a, b] by
        # the reach, meets its unpadded box [x0, x1]: a <= x1 and b >= x0.
        # So the box's lowest cell ceil(g(a)) - 1 is at most the element's
        # highest, max(floor(g(x0)), ceil(g(x1)) - 1), and the box's highest
        # floor(g(b)) at least the element's lowest, floor(g(x0)).
        finite = (np.isfinite(lo) & np.isfinite(hi)).all(axis=1, keepdims=True)  # else no cell
        a, b = ((np.where(finite, v, origin) - origin) / cell for v in (lo - reach, hi + reach))
        ilo, ihi = (np.clip(v, 0, (nx - 1, ny - 1)).astype(np.int64)
                    for v in (np.ceil(a) - 1.0, np.floor(b)))
        ext = np.maximum(ihi - ilo + 1, 0) * finite  # cells covered along x and y
        box, k = _runs(ext[:, 0] * ext[:, 1])
        cells = (ilo[box, 0] + k // ext[box, 1]) * ny + ilo[box, 1] + k % ext[box, 1]
        at, k = _runs(start[cells + 1] - start[cells])
        key = _distinct(box[at] * self.n_elements + listed[start[cells[at]] + k])
        box, eid = np.divmod(key, self.n_elements)
        meet = np.all(elo[eid] <= hi[box], axis=1) & np.all(ehi[eid] >= lo[box], axis=1)
        return box[meet], eid[meet]

    def boundary_distance(self, points):
        """Distance (...) from each of ``points`` (..., 2) to the nearest
        boundary edge."""
        edges = self.boundary_edges
        d = point_segment_distance(np.asarray(points, dtype=float)[..., None, :],
                                   self.nodes[edges[:, 0]], self.nodes[edges[:, 1]])
        return np.min(d, axis=-1, initial=np.inf)

    @cached_property
    def nested_dissection_tree(self) -> DissectionTree:
        """Fronts of the node order the sparse solve factors in.

        Geometric nested dissection (George, SIAM J. Numer. Anal. 10,
        1973) of the graph joining nodes that share an element: each part
        is split at the median along the longer side of its bounding box,
        the upper-side endpoint of every edge crossing the split forms the
        separator, and the order lists the lower half, the upper half and
        then the separator, recursively, down to parts of ``_ND_LEAF``
        nodes, which keep their index order.  Each leaf part and each
        separator is one front of the tree.  Each level is one array pass
        over all parts, kept sorted in x and in y, and the row sets are
        merged by sorting (:func:`_distinct`: ``np.unique`` is slower here).
        """
        n = self.n_nodes
        pairs = _element_node_pairs(self.elements, n)
        key = np.zeros(n, dtype=np.int64)  # base-3 digits: 0 lower, 1 upper, 2 separator
        part = np.zeros(n, dtype=np.int64)  # -1 once a node's place is fixed
        height = np.full(n, -n - 1)  # -level of a separator, below all of them in a leaf
        by_axis = np.argsort(self.nodes, axis=0, kind="stable").T  # nodes by x, by y
        ends = np.ascontiguousarray(pairs.T, dtype=np.int32)
        for level in itertools.count(1):
            live = np.nonzero(part >= 0)[0]
            small = np.bincount(part[live])[part[live]] <= _ND_LEAF
            part[live[small]] = -1
            if small.all():
                break
            by_axis = by_axis[part[by_axis] >= 0].reshape(2, -1)
            side, sep, by_axis = _dissect_level(self.nodes, ends, part, by_axis)
            key *= 3
            key += np.maximum(side, 0) + sep
            part = np.where(side >= 0, 2 * part + side, -1)
            part[sep], height[sep] = -1, -level
        order = np.argsort(key, kind="stable")
        return DissectionTree.build(order, key[order], pairs, height[order])

    @cached_property
    def point_grid(self) -> tuple:
        """Uniform grid of element bounding boxes that :meth:`box_query`
        reads (Franklin et al., Auto-Carto 9, 1989).

        Returns ``(origin, cell, shape, start, elements, lo, hi, reach)``:
        cell (ix, iy) is flat index ``ix * shape[1] + iy``, and the ids of the
        elements whose unpadded box meets its interior (its one cell, if the
        box is thinner than rounding) are ``elements[start[c]:start[c + 1]]``,
        ascending.  So an element of a mesh that matches the grid is listed
        in one to four cells, not the nine its padded box would reach.
        There are about as many cells as elements.  ``lo`` and ``hi``
        (n_elements, 2) are each element's bounding box padded by
        ``_LOCATE_TOL`` times its extent, so a point that
        :func:`locate_hits` accepts an ulp outside a box still finds the
        element; ``reach``, twice the largest pad plus the coordinates'
        largest rounding step, is how far :meth:`box_query` grows a box
        before it picks cells.
        """
        xy = self.element_coords()
        lo, hi = xy.min(axis=1), xy.max(axis=1)
        pad = _LOCATE_TOL * np.max(hi - lo, axis=1, keepdims=True)
        reach = 2.0 * (pad.max(initial=0.0) + np.spacing(np.abs(xy).max(initial=0.0)))
        gmin, gmax = self.bbox()
        span = np.maximum(gmax - gmin, 1e-300)
        ncell = max(1, int(np.sqrt(self.n_elements)))
        nx = max(1, int(round(ncell * np.sqrt(span[0] / span[1]))))
        ny = max(1, int(round(ncell * np.sqrt(span[1] / span[0]))))
        cell = span / (nx, ny)
        first = np.floor((lo - gmin) / cell)
        last = np.maximum(first, np.ceil((hi - gmin) / cell) - 1.0)
        ilo, ihi = (np.clip(v, 0, (nx - 1, ny - 1)).astype(np.int64) for v in (first, last))
        ext = ihi - ilo + 1
        eid, k = _runs(ext[:, 0] * ext[:, 1])
        flat = (ilo[eid, 0] + k // ext[eid, 1]) * ny + ilo[eid, 1] + k % ext[eid, 1]
        start = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=nx * ny))])
        return (gmin, cell, (nx, ny), start, eid[np.argsort(flat, kind="stable")],
                lo - pad, hi + pad, reach)


def _corner_jacobians(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Jacobian determinants at the four reference corners of every element,
    not finite where they overflow: at corner k, 0.25 * cross(x[k+1] - x[k], x[k-1] - x[k])."""
    x, y = nodes[:, 0][elements], nodes[:, 1][elements]
    with np.errstate(over="ignore", invalid="ignore"):
        ox, oy = np.roll(x, -1, axis=1) - x, np.roll(y, -1, axis=1) - y  # edge k, leaving corner k
        ix, iy = np.roll(ox, 1, axis=1), np.roll(oy, 1, axis=1)  # edge k-1, entering corner k
        return 0.25 * (ix * oy - iy * ox)


_ND_LEAF = 64  # nodes; nested dissection stops splitting parts this small
_LOCATE_TOL = 1e-9  # reference-square slack of point location


def _runs(counts: np.ndarray):
    """Owner and rank of each item when owner i has ``counts[i]`` items:
    ``np.repeat(np.arange(len(counts)), counts)`` and each item's position
    in its owner's run."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` of an integer array, by a sort and a neighbour mask."""
    # NumPy 2 sends a value-only np.unique through a hash table: 13.8 ms on
    # the 141k node-pair keys of the Table 1 plate, against 1.0 ms here.
    # It also imports numpy.ma (8-17 ms) to ask whether its input is masked.
    a = np.sort(a, axis=None)
    return a[np.concatenate([[True], a[1:] != a[:-1]])] if a.size else a


def _member(a: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.isin(a, values)`` of integers, ``values`` ascending, by a binary search."""
    if not values.size:
        return np.zeros(np.shape(a), dtype=bool)
    return values[np.minimum(np.searchsorted(values, a), values.size - 1)] == a


def _element_node_pairs(elements: np.ndarray, n_nodes: int) -> np.ndarray:
    """Distinct node pairs that share an element, shape (k, 2), ascending.

    These are the off-diagonal couplings of the stiffness matrix, quad
    diagonals included.
    """
    i, j = np.triu_indices(4, 1)
    a, b = elements[:, i].ravel(), elements[:, j].ravel()
    key = _distinct(np.minimum(a, b) * n_nodes + np.maximum(a, b))
    return np.column_stack([key // n_nodes, key % n_nodes])


def _dissect_level(nodes: np.ndarray, ends: np.ndarray, part: np.ndarray,
                   by_axis: np.ndarray):
    """Split every open part once, as one level of nested dissection.

    ``part`` holds each node's part id, or -1 for nodes already placed;
    ``by_axis`` (2, k) lists the open nodes part by part, ascending in x
    and in y, ties going by node index.  Each part is cut at the median
    rank along the longer side of its bounding box.  Returns ``side``
    (n,), -1 for placed nodes, 0 for the lower half and 1 for the upper,
    the separator mask (n,): the upper end of every pair ``ends`` (2, m)
    that crosses a cut, and ``by_axis`` with each lower half moved first.
    """
    starts = np.flatnonzero(np.diff(part[by_axis[0]], prepend=-1))
    sizes = np.diff(starts, append=by_axis.shape[1])
    p = np.repeat(np.arange(starts.size), sizes)  # the part's rank
    span = [nodes[by_axis[a, starts + sizes - 1], a] - nodes[by_axis[a, starts], a]
            for a in (0, 1)]  # a part's first and last nodes are its extremes
    side = np.full(nodes.shape[0], -1, dtype=np.int8)
    side[np.where((span[1] > span[0])[p], by_axis[1], by_axis[0])] = (
        np.arange(p.size) - starts[p] >= sizes[p] // 2)
    sa, sb = side[ends[0]], side[ends[1]]
    cross = (sa ^ sb) == 1  # one end 0 and the other 1; -1 marks placed nodes
    sep = np.zeros(nodes.shape[0], dtype=bool)
    sep[np.where(sa[cross] == 1, ends[0, cross], ends[1, cross])] = True
    halves = (2 * p + side[by_axis]).astype(np.min_scalar_type(2 * p[-1] + 1))
    return side, sep, by_axis[[[0], [1]], np.argsort(halves, axis=1, kind="stable")]


@dataclass(frozen=True, eq=False)
class DissectionTree:
    """Supernodal elimination tree of a node order, at node level.

    Front f eliminates the nodes ``order[start[f]:start[f + 1]]`` (its
    pivots).  Its rows, ``rows[row_start[f]:row_start[f + 1]]``, are the
    positions in ``order``, ascending, of the later nodes its subtree
    couples to: the nodes outside the subtree that share an element with
    a node in it.  ``parent[f]`` is the front holding the first of them,
    -1 for a root.  Fronts are numbered in elimination order, so every
    parent comes after its children.
    """

    order: np.ndarray
    start: np.ndarray
    parent: np.ndarray
    row_start: np.ndarray
    rows: np.ndarray

    @classmethod
    def build(cls, order: np.ndarray, keys: np.ndarray, pairs: np.ndarray,
              height: np.ndarray) -> "DissectionTree":
        """Tree of ``order`` whose fronts are its runs of equal ``keys``,
        for the node coupling ``pairs`` (k, 2).  ``height`` (per position)
        grows from each front to those its rows lie in, as in nested
        dissection; all fronts of one height are built in one pass."""
        n = order.size
        start = np.concatenate([[0], np.flatnonzero(np.diff(keys)) + 1, [n]])
        n_fronts = start.size - 1
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        front = np.repeat(np.arange(n_fronts), np.diff(start))  # per position
        ends = np.sort(position[pairs], axis=1)
        owner = front[ends[:, 0]]
        out = ends[:, 1] >= start[owner + 1]
        direct = _distinct(owner[out] * n + ends[out, 1])  # front * n + row
        level = np.append(height, 0)[start[:-1]]  # a mesh without nodes has one empty front
        parent = np.full(n_fronts, -1, dtype=np.int64)
        inherited = np.empty(0, dtype=np.int64)  # parent * n + row of a child
        done = []
        for h in _distinct(level).tolist():
            mine = level[inherited // n] == h
            rows = _distinct(np.concatenate([direct[level[direct // n] == h], inherited[mine]]))
            f, r = rows // n, rows % n
            first = np.flatnonzero(np.diff(f, prepend=-1))
            parent[f[first]] = front[r[first]]
            up = r >= start[parent[f] + 1]
            inherited = np.concatenate([inherited[~mine], parent[f[up]] * n + r[up]])
            done.append(rows)
        rows = np.sort(np.concatenate([direct[:0], *done]))
        counts = np.bincount(rows // n, minlength=n_fronts)
        return cls(order=order, start=start, parent=parent,
                   row_start=np.concatenate([[0], np.cumsum(counts)]), rows=rows % n)

    def __post_init__(self):
        for a in (self.order, self.start, self.parent, self.row_start, self.rows):
            a.setflags(write=False)

    @property
    def n_fronts(self) -> int:
        return self.parent.size

    @cached_property
    def children(self) -> tuple:
        """Child fronts of each front, ascending."""
        kids: list[list[int]] = [[] for _ in range(self.n_fronts)]
        for f, p in enumerate(self.parent.tolist()):
            if p >= 0:
                kids[p].append(f)
        return tuple(kids)


def point_segment_distance(p, a, b) -> np.ndarray:
    """Distance from points ``p`` to segments ``a``->``b``.

    All three are arrays of shape (..., 2) that broadcast against each
    other, e.g. many points against one segment or one point against many.
    A segment of zero length is its one point.
    """
    p = np.asarray(p, dtype=float)
    ab = b - a
    rel = p - a
    length2 = np.sum(ab * ab, axis=-1)
    t = np.sum(rel * ab, axis=-1) / np.where(length2 > 0.0, length2, 1.0)
    return np.linalg.norm(rel - np.clip(t, 0.0, 1.0)[..., None] * ab, axis=-1)


def _newton_invert(xy: np.ndarray, targets: np.ndarray, max_iter: int = 30,
                   tol: float = 1e-12):
    """Invert the bilinear map for a batch of (element corners, target) pairs.

    Parameters
    ----------
    xy : ndarray, shape (p, 4, 2)
        Corner coordinates per pair.
    targets : ndarray, shape (p, 2)
        Physical points to invert.

    Returns
    -------
    local : ndarray, shape (p, 2)
    converged : ndarray of bool, shape (p,)
    """
    p = targets.shape[0]
    local = np.zeros((p, 2))
    converged = np.zeros(p, dtype=bool)
    live = np.arange(p)  # each pair stops at its own convergence
    for _ in range(max_iter):
        values, dref = reference_shape(local[live, 0], local[live, 1])
        pos = np.einsum("pi,pia->pa", values, xy[live])
        _, Jinv = jacobian(xy[live], dref)
        # A singular Jacobian gives a non-finite step, which never converges.
        step = np.einsum("pab,pb->pa", Jinv, pos - targets[live])
        local[live] -= step
        done = np.max(np.abs(step), axis=1) < tol
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break
    return local, converged


def locate_hits(mesh: Mesh, xs, tol: float = _LOCATE_TOL):
    """Every (point, element) pair whose element's closed hull holds the point.

    Candidates for the points ``xs`` (n, 2) are the elements whose padded
    box holds them (:meth:`Mesh.box_query`); one is a hit when Newton
    inversion of its bilinear map converges within ``1 + tol`` of the
    reference square.  Returns ``(points, elements, local)``: point indices
    ascending, each point's element ids ascending, and the reference
    coordinates (k, 2) of each hit.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    pt, eid = mesh.box_query(xs, xs)
    local, ok = _newton_invert(mesh.element_coords(eid), xs[pt])
    inside = ok & (np.max(np.abs(local), axis=1) <= 1.0 + tol)
    return pt[inside], eid[inside], local[inside]


def locate_points(mesh: Mesh, xs, tol: float = _LOCATE_TOL):
    """Element and reference coordinates of each point: its lowest-id hit.

    Returns ``(eids, locals)``; ``eids[i] == -1`` marks a point in no
    element, and points on shared edges resolve to the lowest element id.
    """
    n = np.asarray(xs).reshape(-1, 2).shape[0]
    pt, eid, local = locate_hits(mesh, xs, tol)
    first = np.unique(pt, return_index=True)[1]  # hits are grouped by point
    eids_out, locals_out = np.full(n, -1, dtype=np.int64), np.zeros((n, 2))
    eids_out[pt[first]], locals_out[pt[first]] = eid[first], local[first]
    return eids_out, locals_out


# -- mesh document I/O -----------------------------------------------------

def _index(token: str) -> int:
    """``int(token)``, with an index past the int64 range read as -1: outside
    ``0..n-1`` either way, so the range check names its line."""
    value = int(token)
    return value if -2**63 <= value < 2**63 else -1


def load_mesh(source: str) -> Mesh:
    """Parse a mesh document.

    The document is UTF-8 text: a ``xfem-mesh 1`` magic line, a
    ``<node_count> <element_count>`` line, node coordinate lines, element
    connectivity lines (0-based, counter-clockwise), then optional
    ``boundary <name> <k>`` blocks each followed by ``k`` node indices.
    ``#`` starts a comment.

    The node block and the element block are each parsed by one
    ``np.loadtxt`` over their lines.  NumPy's parser rejects some tokens
    that Python's ``float``/``int`` accept (``1_0``, ``٣``, integers past
    int64), so a block it refuses, or reads to the wrong shape, is parsed
    again line by line with ``float``/``int``, which names the first
    offending line.
    """
    lines = source.splitlines()
    if "#" in source:
        lines = [line.split("#", 1)[0] for line in lines]
    texts = list(map(str.strip, lines))
    numbers = list(itertools.compress(itertools.count(1), texts))  # of the non-blank lines
    texts = list(filter(None, texts))
    if not texts:
        raise MeshFormatError("empty mesh document")
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(texts):
            raise MeshFormatError("unexpected end of mesh document")
        pos += 1
        return numbers[pos - 1], texts[pos - 1].split()

    def block(rows, width, convert, dtype, bad_width, bad_token):
        """The next ``rows`` lines as a (rows, width) array, parsed at once."""
        nonlocal pos
        lines = texts[pos:pos + rows]
        if rows and len(lines) == rows:
            try:
                with warnings.catch_warnings():
                    # NumPy 1.x reads "3.0" as an integer, with this warning
                    warnings.simplefilter("error", DeprecationWarning)
                    values = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
                if values.shape == (rows, width):
                    pos += rows
                    return values
            except (ValueError, DeprecationWarning):
                pass
        values = []
        for i, row in enumerate(map(str.split, lines)):
            if len(row) != width:
                raise MeshFormatError(f"line {numbers[pos + i]}: {bad_width.format(i)}")
            try:
                values += map(convert, row)
            except ValueError:
                raise MeshFormatError(f"line {numbers[pos + i]}: {bad_token.format(i)}") from None
        if len(lines) < rows:
            raise MeshFormatError("unexpected end of mesh document")
        pos += rows
        return np.array(values, dtype=dtype).reshape(rows, width)

    lineno, tokens = take()
    if tokens != ["xfem-mesh", "1"]:
        raise MeshFormatError(f"line {lineno}: expected magic 'xfem-mesh 1'")
    lineno, tokens = take()
    try:
        n_nodes, n_elems = (int(t) for t in tokens)
    except ValueError:
        raise MeshFormatError(f"line {lineno}: expected '<node_count> <element_count>'") from None
    if n_nodes < 0 or n_elems < 0:
        raise MeshFormatError(f"line {lineno}: counts must be non-negative")

    first_node = pos
    nodes = block(n_nodes, 2, float, float, "node {} needs exactly two coordinates",
                  "node {} has a non-numeric coordinate")
    bad = np.nonzero(~np.isfinite(nodes).all(axis=1))[0]
    if bad.size:
        v = int(bad[0])
        raise MeshFormatError(f"line {numbers[first_node + v]}: node {v} has a non-finite coordinate")
    first_element = pos
    elements = block(n_elems, 4, _index, np.int64, "element {} needs exactly four node indices",
                     "element {} has a non-integer index")
    bad = np.nonzero(((elements < 0) | (elements >= n_nodes)).any(axis=1))[0]
    if bad.size:
        e = int(bad[0])
        raise MeshFormatError(
            f"line {numbers[first_element + e]}: element {e} references node index "
            f"outside 0..{n_nodes - 1}"
        )

    boundary_tags: dict[str, np.ndarray] = {}
    while pos < len(texts):
        lineno, tokens = take()
        if tokens[0] != "boundary" or len(tokens) != 3:
            raise MeshFormatError(f"line {lineno}: expected 'boundary <name> <count>'")
        name = tokens[1]
        try:
            k = int(tokens[2])
        except ValueError:
            raise MeshFormatError(f"line {lineno}: boundary '{name}' has a non-integer count") from None
        if name in boundary_tags:
            raise MeshFormatError(f"line {lineno}: duplicate boundary '{name}'")
        ids: list[int] = []
        while len(ids) < k:
            lineno, tokens = take()
            try:
                row = list(map(int, tokens))
            except ValueError:
                raise MeshFormatError(
                    f"line {lineno}: boundary '{name}' has a non-integer node index"
                ) from None
            if min(row) < 0 or max(row) >= n_nodes:
                raise MeshFormatError(
                    f"line {lineno}: boundary '{name}' references node index "
                    f"outside 0..{n_nodes - 1}"
                )
            ids += row
        if len(ids) != k:
            raise MeshFormatError(f"line {lineno}: boundary '{name}' lists more than {k} indices")
        boundary_tags[name] = np.array(ids, dtype=np.int64)

    return Mesh(nodes=nodes, elements=elements, boundary_tags=boundary_tags)


def dump_mesh(mesh: Mesh) -> str:
    """Serialize a mesh to document text that :func:`load_mesh` round-trips.

    The node and the element block are each written by one ``%`` over a
    row template repeated once per line; ``%.17g`` keeps every coordinate
    exact.  Boundary blocks list 16 indices a line.
    """
    parts = [
        f"xfem-mesh 1\n{mesh.n_nodes} {mesh.n_elements}\n",
        ("%.17g %.17g\n" * mesh.n_nodes) % tuple(mesh.nodes.ravel().tolist()),
        ("%d %d %d %d\n" * mesh.n_elements) % tuple(mesh.elements.ravel().tolist()),
    ]
    for name, ids in mesh.boundary_tags.items():
        ids = ids.tolist()
        parts.append(f"boundary {name} {len(ids)}\n")
        parts += [" ".join(map(str, ids[start:start + 16])) + "\n"
                  for start in range(0, len(ids), 16)]
    return "".join(parts)


def read_mesh(path) -> Mesh:
    """Load a mesh document from a file; text that is not UTF-8 raises
    :class:`MeshFormatError` naming the file."""
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            return load_mesh(handle.read())
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"'{os.fspath(path)}' is not UTF-8 text: {exc}") from None


def write_mesh(mesh: Mesh, path) -> None:
    """Write a mesh document to a file."""
    with open(os.fspath(path), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dump_mesh(mesh))
