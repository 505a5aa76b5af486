"""Background mesh of bilinear quadrilaterals.

Provides the immutable :class:`Mesh` container, bilinear shape-function
evaluation, tensor-product Gauss-Legendre quadrature rules, and point
location.  Location is one batched routine, :func:`locate_hits`: it looks
every point up in an array grid of element bounding boxes
(:attr:`Mesh.point_grid`, built once per mesh) and inverts the bilinear
map of all its candidate elements in one batched Newton iteration;
:func:`locate_points` keeps each point's lowest-id hit.  The mesh never
changes during a simulation; cracks live on top of it as independent
geometry.
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
    "ShapeEval",
    "MeshFormatError",
    "load_mesh",
    "dump_mesh",
    "read_mesh",
    "write_mesh",
    "shape_eval",
    "gauss_rule",
    "jacobian",
    "edge_points",
    "element_geometry",
    "locate_hits",
    "locate_points",
    "point_segment_distance",
    "reference_shape",
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
    broadcast.  J[a, b] = d x_a / d xi_b, so physical shape gradients are
    ``dref @ inv``; ``inv`` is non-finite where ``det`` is zero.
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
    values, dref = reference_shape(rule.points[:, 0], rule.points[:, 1])
    det, Jinv = jacobian(xy[..., None, :, :], dref)
    return values, dref @ Jinv, rule.weights * det, values @ xy


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


@lru_cache(maxsize=None)
def _gauss_1d(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
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
        """Each point's element (n,), reference coordinates (n, 2), shape
        gradients (n, 4, 2), w·detJ (n,) and position (n, 2) over the elements
        ``eids`` of kinds ``kinds``, each class at its own rule, by class."""
        parts = []
        for k, rule in self.classes(kinds):
            _, dN, wdet, phys = element_geometry(mesh.element_coords(eids[k]), rule)
            parts.append((np.repeat(eids[k], rule.n_points), np.tile(rule.points, (k.size, 1)),
                          dN.reshape(-1, 4, 2), wdet.ravel(), phys.reshape(-1, 2)))
        return tuple(np.concatenate(a) for a in zip(*parts))


@dataclass(frozen=True)
class ShapeEval:
    """Shape-function data at one point of one element.

    Attributes
    ----------
    values : ndarray, shape (4,)
        Bilinear shape-function values; sum to 1.
    gradients : ndarray, shape (4, 2)
        Physical-coordinate gradients d(N_i)/d(x, y); rows sum to zero.
    jacobian_det : float
        Determinant of the reference-to-physical Jacobian; positive for
        valid elements.
    """

    values: np.ndarray
    gradients: np.ndarray
    jacobian_det: float


@dataclass
class Mesh:
    """Immutable background mesh of counter-clockwise bilinear quads.

    The mesh never changes during a run: a growing crack changes only the
    enrichment classified on top of it.  So everything derived from the
    mesh alone is a cached property, built on first use and kept for the
    mesh's life: the :attr:`element_sizes`, the node adjacency
    :attr:`node_to_elements`, the :attr:`boundary_edges` array with their
    owners, the :attr:`element_bboxes`, the :attr:`point_grid` point
    location reads (cell offsets and ascending element ids, built with
    array operations) and the :attr:`nested_dissection_tree` whose fronts
    the sparse solve factors.
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
        # Positive corner Jacobians rule out inverted and degenerate quads.
        jdet = _corner_jacobians(self.nodes, self.elements)
        bad = jdet.min(axis=1) <= 0.0
        if np.any(bad):
            eid = int(np.nonzero(bad)[0][0])
            raise MeshFormatError(f"element {eid} is degenerate or inverted (non-positive Jacobian)")
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
    def node_to_elements(self) -> list[np.ndarray]:
        """Incident element ids per node (the node's support), ascending."""
        flat = self.elements.ravel()
        order = np.argsort(flat, kind="stable") // 4  # element-major, so ids ascend
        ends = np.cumsum(np.bincount(flat, minlength=self.n_nodes)).tolist()
        return [order[a:b] for a, b in zip([0] + ends[:-1], ends)]

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

    @cached_property
    def element_bboxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-element coordinate minima and maxima, each (n_elements, 2)."""
        xy = self.element_coords()
        return xy.min(axis=1), xy.max(axis=1)

    def elements_meeting(self, lo, hi) -> np.ndarray:
        """Ids, ascending, of the elements whose bounding box meets the box
        ``lo``..``hi``: those :attr:`point_grid` lists in the cells the box
        covers, one cell wider on each side, filtered by their boxes."""
        origin, cell, (nx, ny), start, elements = self.point_grid
        top = (nx - 1, ny - 1)
        ilo = np.clip(np.floor((np.asarray(lo) - origin) / cell) - 1, 0, top).astype(np.int64)
        ihi = np.clip(np.floor((np.asarray(hi) - origin) / cell) + 1, 0, top).astype(np.int64)
        columns = np.arange(ilo[0], ihi[0] + 1) * ny  # each a run of cells in ``start``
        runs = zip(start[columns + ilo[1]].tolist(), start[columns + ihi[1] + 1].tolist())
        near = _distinct(np.concatenate([elements[a:b] for a, b in runs]))
        elo, ehi = self.element_bboxes
        return near[np.all(elo[near] <= hi, axis=1) & np.all(ehi[near] >= lo, axis=1)]

    def boundary_distance(self, point) -> float:
        """Distance from ``point`` to the nearest boundary edge."""
        edges = self.boundary_edges
        d = point_segment_distance(point, self.nodes[edges[:, 0]],
                                   self.nodes[edges[:, 1]])
        return float(np.min(d, initial=np.inf))

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
        """Uniform grid of element bounding boxes that point location and
        :meth:`elements_meeting` read.

        Returns ``(origin, cell, shape, start, elements)``: cell (ix, iy)
        is flat index ``ix * shape[1] + iy``, and the ids of the elements
        whose bounding box meets it are ``elements[start[c]:start[c + 1]]``,
        ascending.  There are about as many cells as elements.  Each box is
        padded by ``_LOCATE_TOL`` times the element's extent, so a point
        that :func:`locate_hits` accepts an ulp outside a box, or on the
        border of two cells, still finds the element.
        """
        lo, hi = self.element_bboxes
        pad = _LOCATE_TOL * np.max(hi - lo, axis=1, keepdims=True)
        lo, hi = lo - pad, hi + pad
        gmin, gmax = self.bbox()
        span = np.maximum(gmax - gmin, 1e-300)
        ncell = max(1, int(np.sqrt(self.n_elements)))
        nx = max(1, int(round(ncell * np.sqrt(span[0] / span[1]))))
        ny = max(1, int(round(ncell * np.sqrt(span[1] / span[0]))))
        cell = span / (nx, ny)
        ilo = np.clip(((lo - gmin) / cell).astype(int), 0, (nx - 1, ny - 1))
        ihi = np.clip(((hi - gmin) / cell).astype(int), 0, (nx - 1, ny - 1))
        ext = ihi - ilo + 1  # cells covered along x and y
        counts = ext[:, 0] * ext[:, 1]
        eid = np.repeat(np.arange(self.n_elements), counts)
        k = np.arange(eid.size) - np.repeat(np.cumsum(counts) - counts, counts)
        flat = (ilo[eid, 0] + k // ext[eid, 1]) * ny + ilo[eid, 1] + k % ext[eid, 1]
        start = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=nx * ny))])
        return gmin, cell, (nx, ny), start, eid[np.argsort(flat, kind="stable")]


def _corner_jacobians(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Jacobian determinants at the four reference corners of every element:
    at corner k, 0.25 * cross(x[k+1] - x[k], x[k-1] - x[k])."""
    x = nodes[elements]
    out = x[:, [1, 2, 3, 0]] - x  # edge k, leaving corner k
    into = out[:, [3, 0, 1, 2]]  # edge k-1, entering corner k
    return 0.25 * (into[..., 0] * out[..., 1] - into[..., 1] * out[..., 0])


_ND_LEAF = 64  # nodes; nested dissection stops splitting parts this small
_LOCATE_TOL = 1e-9  # reference-square slack of point location


def _distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` of an integer array, by a sort and a neighbour mask."""
    # NumPy 2 sends a value-only np.unique through a hash table: 13.8 ms on
    # the 141k node-pair keys of the Table 1 plate, against 1.0 ms here.
    a = np.sort(a, axis=None)
    return a[np.concatenate([[True], a[1:] != a[:-1]])] if a.size else a


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


def shape_eval(mesh: Mesh, element_id: int, local) -> ShapeEval:
    """Evaluate shape functions of one element at reference point ``local``.

    Returns values, physical-coordinate gradients, and the Jacobian
    determinant of the bilinear map.
    """
    xi, eta = float(local[0]), float(local[1])
    values, dref = reference_shape(xi, eta)
    det, Jinv = jacobian(mesh.nodes[mesh.elements[element_id]], dref)
    if det <= 0.0:
        raise MeshFormatError(
            f"element {element_id} has non-positive Jacobian {det:g} at ({xi:g}, {eta:g})"
        )
    gradients = dref @ Jinv  # dN_i/dx_a = dN_i/dxi_b * dxi_b/dx_a
    return ShapeEval(values=values, gradients=gradients, jacobian_det=float(det))


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
    for _ in range(max_iter):
        values, dref = reference_shape(local[:, 0], local[:, 1])
        pos = np.einsum("pi,pia->pa", values, xy)
        _, Jinv = jacobian(xy, dref)
        # A singular Jacobian gives a non-finite step, which never converges.
        step = np.einsum("pab,pb->pa", Jinv, pos - targets)
        local -= step
        converged = np.max(np.abs(step), axis=1) < tol
        if converged.all():
            break
    return local, converged


def locate_hits(mesh: Mesh, xs, tol: float = _LOCATE_TOL):
    """Every (point, element) pair whose element's closed hull holds the point.

    Candidates for the points ``xs`` (n, 2) come from :attr:`Mesh.point_grid`;
    one is a hit when Newton inversion of its bilinear map converges within
    ``1 + tol`` of the reference square.  Returns ``(points, elements,
    local)``: point indices ascending, each point's element ids ascending,
    and the reference coordinates (k, 2) of each hit.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    origin, cell, (nx, ny), start, grid_elements = mesh.point_grid
    rel = (xs - origin) / cell
    ix = np.clip(np.floor(rel[:, 0]), 0, nx - 1).astype(np.int64)
    iy = np.clip(np.floor(rel[:, 1]), 0, ny - 1).astype(np.int64)
    first = start[ix * ny + iy]
    counts = start[ix * ny + iy + 1] - first
    pt = np.repeat(np.arange(xs.shape[0]), counts)
    k = np.arange(pt.size) - np.repeat(np.cumsum(counts) - counts, counts)
    eid = grid_elements[first[pt] + k]
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
    again token by token with ``float``/``int``; only when that fails too
    are its lines checked one by one for the first offending line.
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
        tokens = list(map(str.split, lines))
        if len(tokens) == rows and set(map(len, tokens)) <= {width}:
            try:
                values = np.fromiter(map(convert, itertools.chain.from_iterable(tokens)),
                                     dtype=dtype, count=rows * width)
                pos += rows
                return values.reshape(rows, width)
            except ValueError:
                pass
        for i, row in enumerate(tokens):
            if len(row) != width:
                raise MeshFormatError(f"line {numbers[pos + i]}: {bad_width.format(i)}")
            try:
                list(map(convert, row))
            except ValueError:
                raise MeshFormatError(f"line {numbers[pos + i]}: {bad_token.format(i)}") from None
        raise MeshFormatError("unexpected end of mesh document")

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
    """Load a mesh document from a file."""
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        return load_mesh(handle.read())


def write_mesh(mesh: Mesh, path) -> None:
    """Write a mesh document to a file."""
    with open(os.fspath(path), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dump_mesh(mesh))
