"""Structured quadrilateral mesh generators.

All solver meshes are tensor-product grids of bilinear quads, optionally
graded away from a uniformly refined window and optionally with circular
holes approximated by removing whole elements (staircase boundary).
Boundary node sets are tagged ``left``, ``right``, ``bottom``, ``top``.
"""

from __future__ import annotations

import numpy as np

from xfem2d.mesh import Mesh, _distinct

__all__ = [
    "tensor_mesh",
    "uniform_rect",
    "graded_axis",
    "windowed_rect",
    "punch_holes",
]


def tensor_mesh(xs, ys) -> Mesh:
    """Mesh from 1D node coordinate arrays.

    Nodes are ordered row-major (x fastest); element (ix, iy) has id
    ``iy * (len(xs) - 1) + ix`` with counter-clockwise connectivity.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1 or xs.size < 2 or ys.size < 2:
        raise ValueError("need at least 2 coordinates per axis")
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
        raise ValueError("axis coordinates must be strictly increasing")
    nx, ny = xs.size - 1, ys.size - 1
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    ix, iy = ix.ravel(), iy.ravel()
    n0 = iy * (nx + 1) + ix
    elements = np.column_stack([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])

    node_ids = np.arange(nodes.shape[0]).reshape(ny + 1, nx + 1)
    tags = {
        "left": node_ids[:, 0].copy(),
        "right": node_ids[:, -1].copy(),
        "bottom": node_ids[0, :].copy(),
        "top": node_ids[-1, :].copy(),
    }
    return Mesh(nodes=nodes, elements=elements, boundary_tags=tags)


def uniform_rect(lx: float, ly: float, nx: int, ny: int, origin=(0.0, 0.0)) -> Mesh:
    """Uniform nx-by-ny grid over a rectangle with lower-left ``origin``."""
    x0, y0 = origin
    return tensor_mesh(
        x0 + np.linspace(0.0, lx, nx + 1),
        y0 + np.linspace(0.0, ly, ny + 1),
    )


def graded_axis(domain_lo: float, domain_hi: float, window_lo: float,
                window_hi: float, spacing: float, ratio: float = 1.35) -> np.ndarray:
    """1D node coordinates: uniform ``spacing`` inside the window, graded outside.

    Outside the window, step sizes grow geometrically by ``ratio`` and are
    then rescaled so the outermost node lands exactly on the domain bound.
    The window bounds must align with the spacing (within 1e-9 of a
    multiple) so the window itself is meshed exactly.
    """
    if not domain_lo <= window_lo < window_hi <= domain_hi:
        raise ValueError("window must lie inside the domain")
    n_win = (window_hi - window_lo) / spacing
    if abs(n_win - round(n_win)) > 1e-9:
        raise ValueError("window length must be a multiple of the spacing")
    n_win = int(round(n_win))
    inner = window_lo + spacing * np.arange(n_win + 1)

    def graded_block(span: float) -> np.ndarray:
        """Increasing step offsets filling ``span``, starting near ``spacing``."""
        if span <= 1e-12:
            return np.empty(0)
        steps = []
        total, step = 0.0, spacing
        while total < span:
            step *= ratio
            steps.append(step)
            total += step
        arr = np.array(steps) * (span / total)
        return np.cumsum(arr)

    left = window_lo - graded_block(window_lo - domain_lo)[::-1]
    right = window_hi + graded_block(domain_hi - window_hi)
    xs = np.concatenate([left, inner, right])
    xs[0] = domain_lo if left.size else xs[0]
    xs[-1] = domain_hi if right.size else xs[-1]
    return xs


def windowed_rect(domain_x, domain_y, window_x, window_y, spacing: float,
                  ratio: float = 1.35) -> Mesh:
    """Rectangle mesh uniformly refined inside a window, graded outside."""
    return tensor_mesh(
        graded_axis(domain_x[0], domain_x[1], window_x[0], window_x[1], spacing, ratio),
        graded_axis(domain_y[0], domain_y[1], window_y[0], window_y[1], spacing, ratio),
    )


def punch_holes(mesh: Mesh, circles) -> Mesh:
    """Remove elements whose centroid falls inside any circle.

    ``circles`` is a sequence of (center_x, center_y, radius).  Nodes no
    longer referenced are dropped and boundary tags are remapped; the
    staircase hole boundary is discoverable via ``Mesh.boundary_edges``.
    """
    centroids = mesh.element_centroids()
    keep = np.ones(mesh.n_elements, dtype=bool)
    for cx, cy, r in circles:
        d2 = (centroids[:, 0] - cx) ** 2 + (centroids[:, 1] - cy) ** 2
        keep &= d2 > r * r
    if keep.all():
        return mesh
    elements = mesh.elements[keep]
    used = _distinct(elements)
    remap = np.full(mesh.n_nodes, -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    tags = {}
    for name, ids in mesh.boundary_tags.items():
        kept_ids = remap[ids]
        tags[name] = kept_ids[kept_ids >= 0].copy()
    return Mesh(nodes=mesh.nodes[used], elements=remap[elements], boundary_tags=tags)
