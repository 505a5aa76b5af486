"""Tests for crack polylines: signed distance, tip frames, extension."""

from __future__ import annotations

import numpy as np
import pytest

from xfem2d.cracks import (
    CrackGeometryError,
    CrackPath,
    _polyline_self_intersects,
    extend_crack,
    heaviside,
    nearest_point,
    signed_distance_batch,
    tip_frame,
)


def horizontal_crack():
    return CrackPath(vertices=np.array([[0.4, 0.0], [0.6, 0.0]]), id=1)


def kinked_crack():
    return CrackPath(vertices=np.array([[0.0, 0.0], [0.5, 0.0], [0.8, 0.25]]), id=2)


class TestCrackPath:
    def test_rejects_single_vertex(self):
        with pytest.raises(CrackGeometryError):
            CrackPath(vertices=np.array([[0.0, 0.0]]))

    def test_rejects_zero_segment(self):
        with pytest.raises(CrackGeometryError, match="zero-length"):
            CrackPath(vertices=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))

    def test_rejects_self_intersection(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, -0.5]])
        with pytest.raises(CrackGeometryError, match="self-intersect"):
            CrackPath(vertices=vertices)

    @pytest.mark.parametrize("vertices", [
        [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 0.0]],  # end on a segment
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],  # end on a vertex
        [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]],  # folds back along the segment before
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.5, 1.0], [1.5, 0.0], [0.5, 0.0]],  # overlap
    ])
    def test_rejects_touches_fold_backs_and_overlaps(self, vertices):
        with pytest.raises(CrackGeometryError, match="self-intersect"):
            CrackPath(vertices=np.array(vertices))

    @pytest.mark.parametrize("degrees", [13.0, 30.0, 77.0])
    def test_rejects_touch_and_fold_back_within_rounding_noise(self, degrees):
        # Each computed end lies on an earlier segment up to an orientation
        # of about 1e-20, of either sign.
        t = np.deg2rad(degrees)
        d, n = np.array([np.cos(t), np.sin(t)]), np.array([-np.sin(t), np.cos(t)])
        p = np.array([0.0513, 0.0527])
        m = p + 0.0074 * d
        for v in ([p, p + 0.01 * d, p + 0.004 * d],
                  [p, p + 0.02 * d, p + 0.02 * d + 0.01 * n, m + 0.01 * n, m]):
            with pytest.raises(CrackGeometryError, match="self-intersect"):
                CrackPath(vertices=np.array(v))

    def test_accepts_straight_polyline_with_rounding_noise(self):
        # Orientations of its far-apart segments are +-2e-19 of noise.
        v = np.array([0.0513, 0.0527]) + np.arange(41)[:, None] * 0.01 * np.array(
            [1.0, 1.0]) / np.sqrt(2.0)
        assert not _polyline_self_intersects(v)
        assert CrackPath(vertices=v).n_segments == 40

    @pytest.mark.parametrize("degrees", [30.0, 60.0, 77.0])
    def test_straight_growth_is_not_refused(self, degrees):
        t = np.deg2rad(degrees)
        start = np.array([0.0513, 0.0527])
        crack = CrackPath(vertices=np.array([start, start + 0.2 * np.array([np.cos(t), np.sin(t)])]))
        for _ in range(10):
            crack = extend_crack(crack, 1, 0.0, 0.003)
        assert crack.n_segments == 11

    def test_matches_pair_loop_on_random_polylines(self):
        rng = np.random.default_rng(5)
        outcomes = []
        for _ in range(300):
            n = int(rng.integers(2, 30))
            turns = np.cumsum(rng.normal(0.0, rng.uniform(0.2, 2.0), n))
            steps = rng.uniform(0.01, 0.1, n)[:, None] * np.column_stack([np.cos(turns),
                                                                         np.sin(turns)])
            v = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
            outcomes.append(_polyline_self_intersects(v))
            assert outcomes[-1] == loop_self_intersects(v)
        assert 30 < sum(outcomes) < 270

    def test_length(self):
        # positions at given arc lengths: TestCodProfile in test_driver
        crack = kinked_crack()
        assert crack.length == pytest.approx(0.5 + np.hypot(0.3, 0.25))


def segments_intersect(p0, p1, q0, q1):
    """Whether closed segments [p0,p1] and [q0,q1] meet, by orientation
    tests with an exact zero; right where no orientation is rounding noise."""
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if v == 0.0 else (1 if v > 0 else -1)

    def on_segment(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    o1, o2, o3, o4 = orient(p0, p1, q0), orient(p0, p1, q1), orient(q0, q1, p0), orient(q0, q1, p1)
    return ((o1 != o2 and o3 != o4) or (o1 == 0 and on_segment(p0, p1, q0))
            or (o2 == 0 and on_segment(p0, p1, q1)) or (o3 == 0 and on_segment(q0, q1, p0))
            or (o4 == 0 and on_segment(q0, q1, p1)))


def loop_self_intersects(vertices):
    """Pair-by-pair reference for ``cracks._polyline_self_intersects`` on
    polylines without collinear or touching segments: adjacent segments
    meet only at their shared vertex unless the later folds back."""
    k = vertices.shape[0] - 1
    for i in range(k):
        for j in range(i + 1, k):
            if segments_intersect(vertices[i], vertices[i + 1], vertices[j], vertices[j + 1]):
                if j == i + 1:
                    a, b, c = vertices[i], vertices[i + 1], vertices[j + 1]
                    ab = b - a
                    t = np.dot(c - a, ab) / np.dot(ab, ab)
                    cross = ab[0] * (c[1] - a[1]) - ab[1] * (c[0] - a[0])
                    if abs(cross) < 1e-14 * np.linalg.norm(ab) and t < 1.0:
                        return True
                    continue
                return True
    return False


class TestSignedDistance:
    def test_above_and_below_horizontal(self):
        crack = horizontal_crack()
        phi = signed_distance_batch(crack, [(0.5, 0.01), (0.5, -0.02)])
        np.testing.assert_allclose(phi, [0.01, -0.02])

    def test_beyond_endpoint(self):
        crack = horizontal_crack()
        phi = signed_distance_batch(crack, [(0.7, 0.0), (0.3, 0.04)])
        np.testing.assert_allclose(np.abs(phi), [0.1, np.hypot(0.1, 0.04)])

    def test_matches_dense_sampling_oracle(self):
        crack = kinked_crack()
        # Dense polyline sampling as an unsigned-distance oracle.
        dense = []
        for a, b in zip(crack.vertices[:-1], crack.vertices[1:]):
            ts = np.linspace(0.0, 1.0, 20001)[:, None]
            dense.append(a + ts * (b - a))
        dense = np.vstack(dense)
        rng = np.random.default_rng(11)
        probes = rng.uniform([-0.3, -0.5], [1.1, 0.7], size=(200, 2))
        phi = signed_distance_batch(crack, probes)
        for x, p in zip(probes, phi):
            brute = np.min(np.linalg.norm(dense - x, axis=1))
            # The discrete sampling can only overestimate the distance, and
            # its chord error grows as the probe approaches the polyline.
            assert abs(p) <= brute + 1e-12
            if brute > 0.01:
                assert abs(p) == pytest.approx(brute, abs=1e-8)

    def test_sign_consistent_around_kink(self):
        crack = kinked_crack()
        # Points clearly above (left of travel) vs below the polyline, then
        # near the kink vertex on both sides.
        phi = signed_distance_batch(crack, [(0.25, 0.1), (0.6, 0.3), (0.25, -0.1),
                                            (0.65, -0.1), (0.5, 0.05), (0.52, -0.05)])
        np.testing.assert_array_equal(np.sign(phi), [1, 1, -1, -1, 1, -1])

    def test_lipschitz(self):
        crack = kinked_crack()
        rng = np.random.default_rng(5)
        xs = rng.uniform([-0.5, -0.5], [1.5, 1.0], size=(1000, 2))
        ys = xs + rng.normal(scale=0.05, size=xs.shape)
        px = signed_distance_batch(crack, xs)
        py = signed_distance_batch(crack, ys)
        steps = np.linalg.norm(xs - ys, axis=1)
        # The magnitude is 1-Lipschitz everywhere; the signed value is
        # 1-Lipschitz for pairs that do not straddle the discontinuity.
        assert np.all(np.abs(np.abs(px) - np.abs(py)) <= steps + 1e-12)
        same_side = np.sign(px) == np.sign(py)
        assert np.all(np.abs(px - py)[same_side] <= steps[same_side] + 1e-12)

    def test_heaviside_convention(self):
        assert heaviside(0.3) == 1.0
        assert heaviside(0.0) == 1.0
        assert heaviside(-1e-15) == -1.0
        np.testing.assert_array_equal(heaviside(np.array([-1.0, 0.0, 2.0])), [-1.0, 1.0, 1.0])

    def test_nearest_point_normal(self):
        crack = horizontal_crack()
        foot, normal, seg = nearest_point(crack, (0.45, -0.2))
        np.testing.assert_allclose(foot, [[0.45, 0.0]])
        np.testing.assert_allclose(normal, [[0.0, 1.0]])
        assert seg.tolist() == [0]

    def test_nearest_point_normal_at_a_kink_is_the_bisector(self):
        crack = kinked_crack()
        vertex = crack.vertices[1]
        _, normal, seg = nearest_point(crack, [vertex, vertex + [1e-15, 0.0], [0.3, -0.1]])
        first, second = np.diff(crack.vertices, axis=0)
        bisector = first / np.linalg.norm(first) + second / np.linalg.norm(second)
        bisector /= np.linalg.norm(bisector)
        np.testing.assert_allclose(normal[:2], [[-bisector[1], bisector[0]]] * 2, atol=1e-15)
        # away from the vertex the nearest segment's own normal
        assert seg[2] == 0
        np.testing.assert_allclose(normal[2], [0.0, 1.0])


class TestTipFrame:
    def test_end_tip_frame(self):
        frame = tip_frame(horizontal_crack(), 1)
        np.testing.assert_allclose(frame.origin, [0.6, 0.0])
        np.testing.assert_allclose(frame.tangent, [1.0, 0.0])
        np.testing.assert_allclose(frame.normal, [0.0, 1.0])

    def test_start_tip_frame_points_outward(self):
        frame = tip_frame(horizontal_crack(), 0)
        np.testing.assert_allclose(frame.origin, [0.4, 0.0])
        np.testing.assert_allclose(frame.tangent, [-1.0, 0.0])
        np.testing.assert_allclose(frame.normal, [0.0, -1.0])


class TestExtendCrack:
    def test_straight_extension(self):
        crack = horizontal_crack()
        grown = extend_crack(crack, 1, 0.0, 0.003)
        np.testing.assert_allclose(grown.vertices[-1], [0.603, 0.0])
        assert grown.length == pytest.approx(crack.length + 0.003, abs=1e-12)

    def test_perpendicular_extension(self):
        crack = horizontal_crack()
        grown = extend_crack(crack, 1, np.pi / 2, 0.05)
        np.testing.assert_allclose(grown.vertices[-1], [0.6, 0.05], atol=1e-15)
        frame = tip_frame(grown, 1)
        np.testing.assert_allclose(frame.tangent, [0.0, 1.0], atol=1e-15)

    def test_opposite_kinks_restore_direction(self):
        crack = horizontal_crack()
        grown = extend_crack(crack, 1, np.deg2rad(30.0), 0.01)
        grown = extend_crack(grown, 1, np.deg2rad(-30.0), 0.01)
        frame = tip_frame(grown, 1)
        np.testing.assert_allclose(frame.tangent, [1.0, 0.0], atol=1e-12)

    def test_start_tip_prepends(self):
        crack = horizontal_crack()
        grown = extend_crack(crack, 0, 0.0, 0.01)
        np.testing.assert_allclose(grown.vertices[0], [0.39, 0.0])
        assert grown.tip_start and grown.tip_end

    def test_inactive_tip_refused(self):
        crack = CrackPath(vertices=np.array([[0.0, 0.5], [0.2, 0.5]]), tip_start=False)
        with pytest.raises(CrackGeometryError, match="not active"):
            extend_crack(crack, 0, 0.0, 0.01)

    def test_self_intersecting_extension_refused(self):
        crack = CrackPath(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5]]))
        # A hard kink that sends the new segment back through the first one.
        with pytest.raises(CrackGeometryError, match="refused"):
            extend_crack(crack, 1, np.deg2rad(162.5), 2.0)

    def test_length_growth_per_extension(self):
        crack = kinked_crack()
        total = crack.length
        for k in range(5):
            crack = extend_crack(crack, 1, np.deg2rad(10.0), 0.02)
            total += 0.02
            assert crack.length == pytest.approx(total, abs=1e-12)
