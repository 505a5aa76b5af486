"""Crack geometry: directed polylines, signed distances, and tip frames.

A crack is an ordered polyline with two endpoint flags marking which ends
are live (growing) tips.  The signed distance to the polyline is positive
on the left of the walking direction; the sign only matters up to a global
flip because the discontinuous enrichment is shifted per node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CrackPath",
    "TipFrame",
    "CrackGeometryError",
    "heaviside",
    "signed_distance_batch",
    "nearest_point",
    "vertex_tangents",
    "tip_frame",
    "extend_crack",
]


class CrackGeometryError(ValueError):
    """Raised for invalid crack polylines or refused extensions."""


_MIN_SEGMENT = 1e-12
_ORIENT_TOL = 1e-12  # relative; see _polyline_self_intersects


@dataclass(frozen=True)
class CrackPath:
    """Directed crack polyline.

    Attributes
    ----------
    vertices : ndarray, shape (k, 2)
        Ordered polyline vertices in meters.
    tip_start, tip_end : bool
        Whether the first/last vertex is a live crack tip (an endpoint on
        the domain boundary, e.g. a crack mouth, is not a tip).
    id : int
        Stable crack identifier used in outputs.
    """

    vertices: np.ndarray
    tip_start: bool = True
    tip_end: bool = True
    id: int = 0

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise CrackGeometryError(f"crack {self.id}: need at least 2 vertices of dimension 2")
        if not np.all(np.isfinite(v)):
            raise CrackGeometryError(f"crack {self.id}: non-finite vertex")
        seg = np.diff(v, axis=0)
        if np.any(np.linalg.norm(seg, axis=1) <= _MIN_SEGMENT):
            raise CrackGeometryError(f"crack {self.id}: zero-length segment")
        if _polyline_self_intersects(v):
            raise CrackGeometryError(f"crack {self.id}: polyline self-intersects")
        v.setflags(write=False)

    @property
    def n_segments(self) -> int:
        return self.vertices.shape[0] - 1

    @property
    def length(self) -> float:
        return float(np.linalg.norm(np.diff(self.vertices, axis=0), axis=1).sum())

    def active_tips(self) -> list[int]:
        """Live tip ids: 0 = start vertex, 1 = end vertex."""
        tips = []
        if self.tip_start:
            tips.append(0)
        if self.tip_end:
            tips.append(1)
        return tips

    def tip_coord(self, tip_id: int) -> np.ndarray:
        return self.vertices[0] if tip_id == 0 else self.vertices[-1]


@dataclass(frozen=True)
class TipFrame:
    """Local coordinate frame at a crack tip.

    ``tangent`` points out of the crack body (the direction of growth);
    ``normal`` is the tangent rotated by +90 degrees.
    """

    origin: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        for name in ("origin", "tangent", "normal"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if abs(np.linalg.norm(self.tangent) - 1.0) > 1e-12:
            raise CrackGeometryError("tip tangent must be a unit vector")
        if abs(np.linalg.norm(self.normal) - 1.0) > 1e-12:
            raise CrackGeometryError("tip normal must be a unit vector")
        if abs(float(self.tangent @ self.normal)) > 1e-12:
            raise CrackGeometryError("tip frame must be orthogonal")

    @property
    def axes(self) -> np.ndarray:
        """Local-to-global rotation (2, 2): columns ``tangent`` and ``normal``."""
        return np.column_stack([self.tangent, self.normal])


def heaviside(phi):
    """Generalized Heaviside of the signed distance: +1 for phi >= 0, else -1."""
    return np.where(np.asarray(phi) >= 0.0, 1.0, -1.0)[()]


def _closest_on_segments(vertices: np.ndarray, xs: np.ndarray):
    """Squared distance and side data from points to every polyline segment.

    Returns (d2, t, cross) each of shape (n_points, n_segments): squared
    distance, clamped segment parameter, and the cross product of the
    segment direction with the point offset (positive = left side).
    """
    a = vertices[:-1]  # (k, 2)
    seg = np.diff(vertices, axis=0)
    sx, sy = seg[:, 0], seg[:, 1]
    rx = xs[:, 0, None] - a[:, 0]  # (n, k), the point relative to each segment start
    ry = xs[:, 1, None] - a[:, 1]
    t = np.clip((rx * sx + ry * sy) / (sx * sx + sy * sy), 0.0, 1.0)
    dx = xs[:, 0, None] - (a[:, 0] + t * sx)  # the point relative to its foot
    dy = xs[:, 1, None] - (a[:, 1] + t * sy)
    # cross = seg_x * rel_y - seg_y * rel_x, positive on the left of the segment
    return dx * dx + dy * dy, t, sx * ry - sy * rx


def signed_distance_batch(crack: CrackPath, xs: np.ndarray) -> np.ndarray:
    """Signed distance from each point to the crack polyline.

    Positive on the left of the directed polyline.  Near a shared vertex of
    two segments the side is decided against the averaged tangent, which
    keeps the sign field consistent around kinks.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    v = crack.vertices
    d2, t, cross = _closest_on_segments(v, xs)
    j = np.argmin(d2, axis=1)  # nearest segment per point
    n = xs.shape[0]
    idx = np.arange(n)
    dist = np.sqrt(d2[idx, j])
    tj = t[idx, j]
    sign = np.where(cross[idx, j] >= 0.0, 1.0, -1.0)
    # Vertex regions: the nearest feature is a polyline vertex shared by two
    # segments; decide the side against the average of the two tangents.
    seg = np.diff(v, axis=0)
    unit = seg / np.linalg.norm(seg, axis=1, keepdims=True)
    at = np.nonzero(((tj <= 0.0) & (j > 0)) | ((tj >= 1.0) & (j < crack.n_segments - 1)))[0]
    jv = np.where(tj[at] <= 0.0, j[at], j[at] + 1)  # vertex index
    bisect = unit[jv - 1] + unit[jv]
    rel = xs[at] - v[jv]
    c = bisect[:, 0] * rel[:, 1] - bisect[:, 1] * rel[:, 0]
    sign[at] = np.where(c >= 0.0, 1.0, -1.0)
    return sign * dist


def vertex_tangents(crack: CrackPath) -> np.ndarray:
    """Unit tangent (k, 2) at each vertex: an end segment's own at the ends,
    the unit bisector of the two adjacent segments' at interior vertices."""
    seg = np.diff(crack.vertices, axis=0)
    unit = seg / np.linalg.norm(seg, axis=1, keepdims=True)
    tangents = np.vstack([unit[:1], unit[:-1] + unit[1:], unit[-1:]])
    return tangents / np.linalg.norm(tangents, axis=1, keepdims=True)


def nearest_point(crack: CrackPath, xs):
    """Closest points on the polyline and the unit face normals there.

    For points ``xs`` (n, 2) returns ``(points, normals, segments)``: the
    foot on the nearest segment, that segment's tangent rotated by +90
    degrees (the positive-phi side) and its index.  Within ``1e-12`` of the
    crack length of an interior vertex the normal is that of
    :func:`vertex_tangents`, the vertex rule of :func:`signed_distance_batch`,
    so it does not flip between the two segments on the last bits of the point.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    v = crack.vertices
    d2, t, _ = _closest_on_segments(v, xs)
    j = np.argmin(d2, axis=1)
    seg = np.diff(v, axis=0)
    tangent = (seg / np.linalg.norm(seg, axis=1, keepdims=True))[j]
    at, vertex = np.nonzero(np.linalg.norm(xs[:, None] - v[1:-1], axis=2)
                            <= 1e-12 * crack.length)
    tangent[at] = vertex_tangents(crack)[1 + vertex]
    feet = v[j] + t[np.arange(j.size), j, None] * seg[j]
    return feet, np.column_stack([-tangent[:, 1], tangent[:, 0]]), j


def tip_frame(crack: CrackPath, tip_id: int) -> TipFrame:
    """Local frame of tip 0 (start vertex) or 1 (end vertex)."""
    if tip_id == 0:
        origin = crack.vertices[0]
        tangent = crack.vertices[0] - crack.vertices[1]
    elif tip_id == 1:
        origin = crack.vertices[-1]
        tangent = crack.vertices[-1] - crack.vertices[-2]
    else:
        raise CrackGeometryError(f"tip id must be 0 or 1, got {tip_id}")
    tangent = tangent / np.linalg.norm(tangent)
    normal = np.array([-tangent[1], tangent[0]])
    return TipFrame(origin=origin.copy(), tangent=tangent, normal=normal)


def extend_crack(crack: CrackPath, tip_id: int, theta_c: float, delta_a: float) -> CrackPath:
    """Grow one live tip by ``delta_a`` at kink angle ``theta_c``.

    The kink angle is measured in the tip frame (positive toward the
    normal).  Raises when the tip is inactive or the grown polyline would
    self-intersect.
    """
    if delta_a <= 0.0:
        raise CrackGeometryError("delta_a must be positive")
    if tip_id == 0 and not crack.tip_start:
        raise CrackGeometryError(f"crack {crack.id}: start tip is not active")
    if tip_id == 1 and not crack.tip_end:
        raise CrackGeometryError(f"crack {crack.id}: end tip is not active")
    frame = tip_frame(crack, tip_id)
    direction = np.cos(theta_c) * frame.tangent + np.sin(theta_c) * frame.normal
    new_vertex = frame.origin + delta_a * direction
    if tip_id == 0:
        vertices = np.vstack([new_vertex, crack.vertices])
    else:
        vertices = np.vstack([crack.vertices, new_vertex])
    try:
        return replace(crack, vertices=vertices)
    except CrackGeometryError as exc:
        raise CrackGeometryError(
            f"crack {crack.id}: extension at tip {tip_id} refused ({exc})"
        ) from None


def _polyline_self_intersects(vertices: np.ndarray) -> bool:
    """Whether two segments of the polyline meet, other than adjacent ones
    at their shared vertex: one array pass over the pairs whose boxes meet.

    Two other segments meet when each straddles the other's line, or an
    end of one lies on the other (touches and collinear overlaps count).
    An orientation is zero within ``_ORIENT_TOL`` of the product of the two
    lengths it multiplies: on a straight polyline rounding leaves a noise
    of about 1e-19 whose sign means nothing.  A segment meets the one
    before it only where it folds back along it.
    """
    a, b = vertices[:-1], vertices[1:]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    i, j = np.nonzero(np.triu(np.all((lo[:, None] <= hi[None]) & (lo[None] <= hi[:, None]),
                                     axis=2), 1))
    p0, p1, q0, q1 = a[i], b[i], a[j], b[j]

    def orient(o, d, x):
        u, w = d - o, x - o
        cross = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
        zero = np.abs(cross) <= _ORIENT_TOL * np.hypot(*u.T) * np.hypot(*w.T)
        return np.where(zero, 0.0, np.sign(cross))

    def on(k, x):  # x within the box of segment k, so on it when collinear
        return np.all((lo[k] <= x) & (x <= hi[k]), axis=1)

    o1, o2, o3, o4 = orient(p0, p1, q0), orient(p0, p1, q1), orient(q0, q1, p0), orient(q0, q1, p1)
    meet = (((o1 != o2) & (o3 != o4)) | ((o1 == 0) & on(i, q0)) | ((o2 == 0) & on(i, q1))
            | ((o3 == 0) & on(j, p0)) | ((o4 == 0) & on(j, p1)))
    # adjacent: q0 is p1, and q folds back when q1 lies on p's line behind p1
    folds = (o2 == 0) & (np.sum((q1 - p1) * (p1 - p0), axis=1) < 0.0)
    return bool(np.any(np.where(j == i + 1, folds, meet)))
