"""Structured mesh generator checks."""

import numpy as np
import pytest

from xfem2d.mesh import locate_points
from xfem2d.meshgen import (
    graded_axis,
    punch_holes,
    tensor_mesh,
    uniform_rect,
    windowed_rect,
)


class TestTensorMesh:
    def test_counts_and_connectivity(self):
        mesh = uniform_rect(1.0, 2.0, 4, 5)
        assert mesh.n_nodes == 5 * 6
        assert mesh.n_elements == 4 * 5
        # element (ix=1, iy=2) is id 2*4+1 with CCW corners
        quad = mesh.nodes[mesh.elements[9]]
        np.testing.assert_allclose(
            quad, [[0.25, 0.8], [0.5, 0.8], [0.5, 1.2], [0.25, 1.2]]
        )

    def test_boundary_tags(self):
        mesh = uniform_rect(1.0, 1.0, 3, 3)
        assert np.all(mesh.nodes[mesh.boundary_tags["left"], 0] == 0.0)
        assert np.all(mesh.nodes[mesh.boundary_tags["right"], 0] == 1.0)
        assert np.all(mesh.nodes[mesh.boundary_tags["bottom"], 1] == 0.0)
        assert np.all(mesh.nodes[mesh.boundary_tags["top"], 1] == 1.0)
        assert mesh.boundary_tags["left"].size == 4

    def test_total_area(self):
        mesh = uniform_rect(2.0, 3.0, 7, 5)
        corners = mesh.element_coords()
        x, y = corners[..., 0], corners[..., 1]
        area = 0.5 * np.abs(
            np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
        ).sum()
        assert area == pytest.approx(6.0, abs=1e-12)

    def test_rejects_decreasing_axis(self):
        with pytest.raises(ValueError, match="increasing"):
            tensor_mesh([0.0, 1.0, 0.5], [0.0, 1.0])


class TestGradedAxis:
    def test_window_is_uniform_and_exact(self):
        xs = graded_axis(-2.5, 2.5, -0.5, 0.5, 0.05)
        inside = xs[(xs >= -0.5 - 1e-12) & (xs <= 0.5 + 1e-12)]
        assert inside.size == 21
        np.testing.assert_allclose(np.diff(inside), 0.05, atol=1e-12)
        assert xs[0] == -2.5 and xs[-1] == 2.5

    def test_grading_monotone_growth(self):
        xs = graded_axis(0.0, 10.0, 0.0, 1.0, 0.1, ratio=1.4)
        steps = np.diff(xs)
        outside = steps[10:]
        assert np.all(np.diff(outside) > 0)
        ratios = outside[1:] / outside[:-1]
        np.testing.assert_allclose(ratios, 1.4, rtol=1e-9)

    def test_misaligned_window_rejected(self):
        with pytest.raises(ValueError, match="multiple of the spacing"):
            graded_axis(0.0, 1.0, 0.0, 0.55, 0.1)

    def test_degenerate_outer_block(self):
        xs = graded_axis(0.0, 1.0, 0.0, 1.0, 0.25)
        np.testing.assert_allclose(xs, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_windowed_rect_positive_jacobians(self):
        mesh = windowed_rect((-2.5, 2.5), (-2.5, 2.5), (-0.5, 0.5), (-0.5, 0.5), 0.1)
        assert mesh.n_elements > 100  # constructor validated all Jacobians


class TestPunchHoles:
    def test_removes_centroids_inside(self):
        mesh = uniform_rect(10.0, 10.0, 10, 10)
        holed = punch_holes(mesh, [(5.0, 5.0, 1.6)])
        # centroids within 1.6 of (5,5): the central 2x2 block plus the four
        # edge-adjacent pairs at distance sqrt(2.5)
        assert holed.n_elements == mesh.n_elements - 12
        cents = holed.element_centroids()
        d = np.hypot(cents[:, 0] - 5.0, cents[:, 1] - 5.0)
        assert np.all(d > 1.6)

    def test_hole_creates_interior_boundary(self):
        mesh = uniform_rect(10.0, 10.0, 10, 10)
        holed = punch_holes(mesh, [(5.0, 5.0, 1.6)])
        # the outer rectangle contributes 40 single-owner edges; the
        # 12-element plus-shaped hole adds a 16-edge staircase ring
        assert len(holed.boundary_edges) == 40 + 16

    def test_tags_remapped(self):
        mesh = uniform_rect(10.0, 10.0, 10, 10)
        holed = punch_holes(mesh, [(5.0, 5.0, 1.6)])
        for name in ("left", "right", "bottom", "top"):
            ids = holed.boundary_tags[name]
            assert ids.size == 11  # outer boundary untouched by a central hole
            assert np.all(ids < holed.n_nodes)
        np.testing.assert_allclose(
            np.sort(holed.nodes[holed.boundary_tags["left"], 1]), np.arange(11.0)
        )

    def test_noop_without_hits(self):
        mesh = uniform_rect(1.0, 1.0, 4, 4)
        assert punch_holes(mesh, [(10.0, 10.0, 0.5)]) is mesh

    def test_locate_still_works(self):
        mesh = punch_holes(uniform_rect(10.0, 10.0, 10, 10), [(5.0, 5.0, 1.6)])
        eids, _ = locate_points(mesh, np.array([[5.0, 5.0], [0.5, 0.5]]))
        assert eids[0] == -1
        assert eids[1] >= 0
