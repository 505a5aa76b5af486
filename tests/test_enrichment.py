"""Enrichment classification and enrichment-function checks.

The workhorse geometry is a 10x10 unit grid (element size 0.1) with a
horizontal crack threading the element row 0.5 < y < 0.6 at mid height,
so every classification count can be stated by hand.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xfem2d import enrichment
from xfem2d.assembly import (
    MaterialModel,
    QuadratureSet,
    assemble,
    elasticity_matrix,
    voigt_strain,
)
from xfem2d.benchmarks import many_cracks_config
from xfem2d.cracks import (
    CrackGeometryError,
    CrackPath,
    heaviside,
    signed_distance,
    signed_distance_batch,
    tip_frame,
)
from xfem2d.enrichment import (
    HEAVISIDE,
    STANDARD,
    TIP,
    CrackMeshDegeneracyError,
    CutPiece,
    EnrichmentError,
    FieldTriplet,
    TipInfo,
    branch_eval,
    branch_theta,
    classify_enrichment,
    classify_with_remedy,
    crack_opening,
    element_fields,
    evaluate_fields,
    psi_at,
    shifted_heaviside,
    total_displacement,
)
from xfem2d.mesh import (
    element_geometry,
    jacobian,
    locate_points,
    point_segment_distance,
    reference_shape,
)
from xfem2d.meshgen import punch_holes, uniform_rect


def grid():
    return uniform_rect(1.0, 1.0, 10, 10)


def node_at(mesh, x, y):
    d = np.linalg.norm(mesh.nodes - np.array([x, y]), axis=1)
    n = int(np.argmin(d))
    assert d[n] < 1e-9
    return n


def element_at(mesh, x, y):
    eids, _ = locate_points(mesh, np.array([[x, y]]))
    assert eids[0] >= 0
    return int(eids[0])


def center_crack(y=0.55):
    return CrackPath(vertices=np.array([[0.15, y], [0.85, y]]), id=0)


class TestShiftedHeaviside:
    @pytest.mark.parametrize(
        "sign,phi,expected",
        [(+1, 0.1, 0.0), (+1, -0.1, -2.0), (-1, 0.1, 2.0), (-1, 0.0, 2.0), (+1, 0.0, 0.0)],
    )
    def test_values(self, sign, phi, expected):
        assert shifted_heaviside(sign, phi) == expected

    def test_array_input(self):
        out = shifted_heaviside(+1, np.array([0.5, -0.5, 0.0]))
        np.testing.assert_array_equal(out, [0.0, -2.0, 0.0])


class TestBranchEval:
    def test_values_on_tangent(self):
        values, _ = branch_eval(1.0, 0.0)
        np.testing.assert_allclose(values, [0.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_values_on_face(self):
        values, _ = branch_eval(0.25, np.pi)
        np.testing.assert_allclose(values, [0.5, 0.0, 0.0, 0.0], atol=1e-15)

    def test_sqrt_r_scaling(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(-3.0, 3.0, 50)
        r = rng.uniform(0.01, 2.0, 50)
        v1, _ = branch_eval(r, theta)
        v4, _ = branch_eval(4.0 * r, theta)
        np.testing.assert_allclose(v4, 2.0 * v1, rtol=1e-12)

    def test_first_function_jumps_others_continuous(self):
        r = 0.3
        up, _ = branch_eval(r, np.pi)
        dn, _ = branch_eval(r, -np.pi)
        assert up[0] - dn[0] == pytest.approx(2.0 * np.sqrt(r), abs=1e-10)
        np.testing.assert_allclose(up[1:], dn[1:], atol=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        h = 1e-7
        for _ in range(20):
            r = rng.uniform(0.05, 1.5)
            th = rng.uniform(-2.9, 2.9)
            x, y = r * np.cos(th), r * np.sin(th)
            _, grad = branch_eval(r, th)

            def val(px, py):
                v, _ = branch_eval(np.hypot(px, py), np.arctan2(py, px))
                return v

            fd_x = (val(x + h, y) - val(x - h, y)) / (2 * h)
            fd_y = (val(x, y + h) - val(x, y - h)) / (2 * h)
            np.testing.assert_allclose(grad[:, 0], fd_x, rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(grad[:, 1], fd_y, rtol=1e-5, atol=1e-8)

    def test_singular_origin_rejected(self):
        with pytest.raises(ValueError, match="r = 0"):
            branch_eval(0.0, 0.3)


class TestBranchTheta:
    def setup_method(self):
        self.crack = CrackPath(vertices=np.array([[0.2, 0.5], [0.6, 0.5]]), id=0)
        self.tinfo = TipInfo(
            crack_id=0, tip_id=1, frame=tip_frame(self.crack, 1), element=0
        )

    def test_ahead_of_tip(self):
        r, th = branch_theta(self.tinfo, self.crack, np.array([[0.7, 0.5]]))
        assert r[0] == pytest.approx(0.1)
        assert th[0] == pytest.approx(0.0, abs=1e-12)

    def test_signs_follow_crack_side(self):
        _, th_up = branch_theta(self.tinfo, self.crack, np.array([[0.5, 0.51]]))
        _, th_dn = branch_theta(self.tinfo, self.crack, np.array([[0.5, 0.49]]))
        assert th_up[0] > np.pi / 2
        assert th_dn[0] == pytest.approx(-th_up[0])

    def test_on_face_maps_to_positive_pi(self):
        _, th = branch_theta(self.tinfo, self.crack, np.array([[0.45, 0.5]]))
        assert th[0] == pytest.approx(np.pi)

    def test_continuous_across_forward_extension(self):
        up, _ = branch_eval(*branch_theta(self.tinfo, self.crack, np.array([[0.7, 0.5 + 1e-9]])))
        dn, _ = branch_eval(*branch_theta(self.tinfo, self.crack, np.array([[0.7, 0.5 - 1e-9]])))
        np.testing.assert_allclose(up, dn, atol=1e-6)


class TestClassifyCenterCrack:
    def setup_method(self):
        self.mesh = grid()
        self.crack = center_crack()
        self.emap = classify_enrichment(self.mesh, [self.crack])

    def test_cut_and_tip_elements(self):
        expected_cut = {
            element_at(self.mesh, 0.25 + 0.1 * k, 0.55) for k in range(6)
        }
        assert set(self.emap.cut_elements) == expected_cut
        assert all(cid == 0 for cid in self.emap.cut_elements.values())
        e_left = element_at(self.mesh, 0.15, 0.55)
        e_right = element_at(self.mesh, 0.85, 0.55)
        assert self.emap.tip_elements == {e_left: (0,), e_right: (1,)}

    def test_node_counts(self):
        assert self.emap.n_tip == 8
        assert self.emap.n_heaviside == 10

    def test_statuses_at_named_nodes(self):
        assert self.emap.status[node_at(self.mesh, 0.2, 0.5)] == TIP
        assert self.emap.status[node_at(self.mesh, 0.3, 0.5)] == HEAVISIDE
        assert self.emap.status[node_at(self.mesh, 0.3, 0.4)] == STANDARD

    def test_node_signs(self):
        assert self.emap.node_sign[node_at(self.mesh, 0.3, 0.5)] == -1.0
        assert self.emap.node_sign[node_at(self.mesh, 0.3, 0.6)] == +1.0

    def test_cut_elements_have_both_signs(self):
        for eid in self.emap.cut_elements:
            signs = {
                self.emap.node_sign[n]
                for n in self.mesh.elements[eid]
                if self.emap.status[n] != STANDARD
            }
            assert signs == {-1.0, +1.0}

    def test_enriched_nodes_touch_enriched_elements(self):
        marked = set(self.emap.cut_elements) | set(self.emap.tip_elements)
        incidence = self.mesh.node_to_elements
        for n in np.nonzero(self.emap.status != STANDARD)[0]:
            assert marked & set(int(e) for e in incidence[n])

    def test_psi_indicator(self):
        assert psi_at(self.emap, self.mesh, (0.3, 0.5)) == pytest.approx(1.0)
        assert psi_at(self.emap, self.mesh, (0.3, 0.4)) == pytest.approx(0.0)
        # centroid above an edge whose two lower nodes are the only
        # enriched nodes of that element
        assert psi_at(self.emap, self.mesh, (0.45, 0.65)) == pytest.approx(0.5)

    def test_psi_matches_status(self):
        np.testing.assert_array_equal(
            self.emap.psi == 1.0, self.emap.status != STANDARD
        )

    def test_element_kinds(self):
        kinds = self.emap.element_kinds(self.mesh)
        assert kinds[element_at(self.mesh, 0.15, 0.55)] == 3  # tip element
        assert kinds[element_at(self.mesh, 0.25, 0.55)] == 3  # cut, shares tip nodes
        assert kinds[element_at(self.mesh, 0.45, 0.55)] == 2  # plain cut
        assert kinds[element_at(self.mesh, 0.45, 0.65)] == 1  # blending
        assert kinds[element_at(self.mesh, 0.45, 0.95)] == 0


class TestThroughCrack:
    def test_two_bounding_node_rows(self):
        mesh = grid()
        crack = CrackPath(
            vertices=np.array([[-0.01, 0.55], [1.01, 0.55]]),
            tip_start=False,
            tip_end=False,
            id=0,
        )
        emap = classify_enrichment(mesh, [crack], delta=0.0)
        assert len(emap.cut_elements) == 10
        assert emap.tip_elements == {}
        assert emap.n_heaviside == 22
        ys = mesh.nodes[emap.heaviside_nodes(), 1]
        assert set(np.round(ys, 12)) == {0.5, 0.6}
        assert all(
            psi_at(emap, mesh, tuple(mesh.nodes[n])) == pytest.approx(1.0)
            for n in emap.heaviside_nodes()[:5]
        )


class TestSingleElementCrack:
    def test_both_tips_share_the_element(self):
        mesh = grid()
        crack = CrackPath(vertices=np.array([[0.42, 0.55], [0.47, 0.55]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        e = element_at(mesh, 0.45, 0.55)
        assert emap.tip_elements == {e: (0, 1)}
        assert emap.cut_elements == {}
        assert emap.n_tip == 4
        assert emap.n_heaviside == 0


class TestDemotion:
    def test_sliver_support_demoted(self):
        mesh = grid()
        crack = CrackPath(vertices=np.array([[0.15, 0.5002], [0.85, 0.5002]]), id=0)
        emap = classify_enrichment(mesh, [crack], delta=0.002)
        hs = emap.heaviside_nodes()
        np.testing.assert_allclose(mesh.nodes[hs, 1], 0.5)
        reasons = {r for (_, _, r) in emap.demotions}
        assert "support area ratio below delta" in reasons
        # upper-row candidates away from the tips were all demoted
        for x in (0.3, 0.4, 0.5, 0.6, 0.7):
            assert emap.status[node_at(mesh, x, 0.6)] == STANDARD

    def test_demotion_monotone_in_delta(self):
        mesh = grid()
        crack = CrackPath(vertices=np.array([[0.15, 0.52], [0.85, 0.52]]), id=0)
        loose = classify_enrichment(mesh, [crack], delta=0.0)
        tight = classify_enrichment(mesh, [crack], delta=0.3)
        enriched_loose = set(np.nonzero(loose.status != STANDARD)[0])
        enriched_tight = set(np.nonzero(tight.status != STANDARD)[0])
        assert enriched_tight <= enriched_loose
        assert len(enriched_tight) < len(enriched_loose)

    def test_delta_bounds_rejected(self):
        mesh = grid()
        with pytest.raises(EnrichmentError, match="delta"):
            classify_enrichment(mesh, [center_crack()], delta=0.5)


def loop_far_side(mesh, emap, rules, node, crack):
    """Element-by-element reference for the measure classification demotes
    a Heaviside candidate by: the ``w detJ`` weight and the count of the
    rule points of its cut- and tip-class elements, each at its class's
    rule, on the other side of ``crack`` from it, and its support area,
    the sum of its elements' areas."""
    kinds = emap.element_kinds(mesh)
    sign = heaviside(signed_distance_batch(crack, mesh.nodes[node][None]))[0]
    far = area = 0.0
    points = 0
    for eid in mesh.node_to_elements[node]:
        xy = mesh.element_coords([eid])
        d1, d2 = xy[0, 2] - xy[0, 0], xy[0, 3] - xy[0, 1]
        area += 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
        if kinds[eid] >= 2:
            _, _, w, phys = element_geometry(xy, rules.cut if kinds[eid] == 2 else rules.tip)
            other = heaviside(signed_distance_batch(crack, phys[0])) != sign
            far += np.where(other, w[0], 0.0).sum()
            points += int(np.count_nonzero(other))
    return far, points, area


def loop_demotions(mesh, emap, rules, delta):
    """The area and point-floor demotions of ``emap`` by :func:`loop_far_side`,
    over the nodes of its cut elements that are neither tip nodes nor
    demoted for a crack endpoint."""
    crack_of = {int(n): cid for eid, cid in emap.cut_elements.items()
                for n in mesh.elements[eid]}
    ends = {n for n, _, why in emap.demotions if why == "crack endpoint inside support"}
    records = []
    for n in sorted(set(crack_of) - ends - set(emap.tip_nodes().tolist())):
        far, points, area = loop_far_side(mesh, emap, rules, n, emap.crack_by_id(crack_of[n]))
        ratio = min(far, area - far) / area
        if ratio < delta:
            records.append((n, ratio, "support area ratio below delta"))
        elif points < 2:
            records.append((n, ratio, "fewer than two far-side rule points"))
    return records


def random_polyline(rng, crack_id):
    """A short kinked crack inside the unit square, or None if it self-intersects."""
    start = rng.uniform(0.15, 0.85, size=2)
    angles = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(rng.uniform(-0.6, 0.6, 3))
    steps = rng.uniform(0.05, 0.15, size=(3, 1)) * np.column_stack(
        [np.cos(angles), np.sin(angles)])
    vertices = np.clip(np.vstack([start, start + np.cumsum(steps, axis=0)]), 0.03, 0.97)
    try:
        return CrackPath(vertices=vertices, id=crack_id)
    except CrackGeometryError:
        return None


SUPPORT_MESHES = {
    "plain": lambda: uniform_rect(1.0, 1.0, 16, 16),
    "holed": lambda: punch_holes(uniform_rect(1.0, 1.0, 16, 16), [(0.5, 0.5, 0.2)]),
}


class TestFarSide:
    """The batched far-side measure against the element-by-element loop."""

    @pytest.mark.parametrize("name", sorted(SUPPORT_MESHES))
    def test_demotions_match_element_loop(self, name):
        mesh = SUPPORT_MESHES[name]()
        rules = QuadratureSet.from_targets()
        rng = np.random.default_rng(43)
        classified = tip_class = 0
        reasons = set()
        for k in range(60):
            cracks = [c for c in (random_polyline(rng, i) for i in range(2)) if c]
            tip_enrichment = k % 2 == 0
            try:
                classify_enrichment(mesh, cracks, rules=rules, tip_enrichment=tip_enrichment)
            except EnrichmentError:  # junctions, tips off the mesh, coincidences
                continue
            # delta just below 1/2 records the ratio of nearly every candidate
            for delta in (0.0, 0.05, 0.4999):
                emap = classify_enrichment(mesh, cracks, delta=delta, rules=rules,
                                           tip_enrichment=tip_enrichment)
                got = [(n, r, why) for n, r, why in emap.demotions
                       if why != "crack endpoint inside support"]
                expected = loop_demotions(mesh, emap, rules, delta)
                assert [(n, bits(r), why) for n, r, why in got] == \
                    [(n, bits(r), why) for n, r, why in expected]
                reasons |= {why for _, _, why in got}
            kinds = emap.element_kinds(mesh)
            # a candidate of a cut element of the tip class
            cut_tip = {int(n) for e in emap.cut_elements if kinds[e] == 3 for n in mesh.elements[e]}
            tip_class += any(n in cut_tip for n, _, _ in got)
            classified += 1
        assert classified >= 15 and tip_class > 0
        assert reasons == {"support area ratio below delta",
                           "fewer than two far-side rule points"}

    def test_cut_element_of_the_tip_class_is_measured_at_the_tip_rule(self):
        # Node 3045 of `many_cracks_config` has its far side in a cut element
        # that shares a tip node: one point of the cut rule falls there, two
        # of the tip rule the assembly integrates it with, so it keeps its jump.
        config = many_cracks_config()
        rules = QuadratureSet.from_targets(*config.quadrature)
        emap = classify_enrichment(config.mesh, config.cracks, config.delta, rules)
        node = 3045
        assert emap.status[node] == HEAVISIDE
        crack = emap.crack_by_id(int(emap.node_crack[node]))
        far, points, area = loop_far_side(config.mesh, emap, rules, node, crack)
        assert points == 2 and config.delta * area <= far
        as_cut = QuadratureSet(rules.standard, rules.cut, rules.cut)
        far, points, area = loop_far_side(config.mesh, emap, as_cut, node, crack)
        assert points == 1 and far < config.delta * area


def loop_clip_segment_to_quad(quad, a, b):
    """Parameter interval of segment a->b inside a convex CCW quad, or None."""
    d = b - a
    t0, t1 = 0.0, 1.0
    for k in range(4):
        v0 = quad[k]
        e = quad[(k + 1) % 4] - v0
        # inside condition: cross(e, x - v0) >= 0
        c = e[0] * (a[1] - v0[1]) - e[1] * (a[0] - v0[0])
        m = e[0] * d[1] - e[1] * d[0]
        if abs(m) < 1e-300:
            if c < 0.0:
                return None
            continue
        t = -c / m
        if m > 0.0:
            t0 = max(t0, t)
        else:
            t1 = min(t1, t)
        if t0 > t1:
            return None
    return t0, t1


def loop_crack_chunks(quad, crack):
    """Maximal arc-length intervals (s0, s1, p0, p1) of the crack inside one
    quad, segment by segment: the reference for the batched clip."""
    v = crack.vertices
    seg = np.diff(v, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    raw = []
    for j in range(len(lens)):
        clip = loop_clip_segment_to_quad(quad, v[j], v[j + 1])
        if clip is None:
            continue
        t0, t1 = clip
        if t1 - t0 <= 0.0:
            continue
        raw.append((cum[j] + t0 * lens[j], cum[j] + t1 * lens[j],
                    v[j] + t0 * seg[j], v[j] + t1 * seg[j]))
    if not raw:
        return []
    # Merge chunks that continue through a polyline vertex inside the quad.
    merged = [list(raw[0])]
    join_tol = 1e-12 * max(1.0, float(cum[-1]))
    for s0, s1, p0, p1 in raw[1:]:
        if s0 - merged[-1][1] <= join_tol:
            merged[-1][1] = s1
            merged[-1][3] = p1
        else:
            merged.append([s0, s1, p0, p1])
    return [tuple(c) for c in merged]


def loop_edge_of_point(quad, p, tol):
    """Index of the quad edge the point sits on (within tol), else None."""
    d = np.array([point_segment_distance(p, quad[k], quad[(k + 1) % 4]) for k in range(4)])
    k = 3 - int(np.argmin(d[::-1]))  # of two equally near edges, the later
    return k if d[k] <= tol else None


def loop_cut_elements(mesh, cracks, tips, tip_elements, size_tol, clips):
    """Element-by-element reference for ``enrichment._cut_elements``, which
    finds the crossings itself instead of reading the batched ``clips``."""
    cut_elements, cut_pieces = {}, {}
    for crack in cracks:
        v = crack.vertices
        for eid in mesh.elements_meeting(v.min(axis=0) - size_tol, v.max(axis=0) + size_tol):
            quad = mesh.element_coords([eid])[0]
            chunks = [c for c in loop_crack_chunks(quad, crack)
                      if c[1] - c[0] > enrichment._COINCIDENCE_TOL]
            if not chunks:
                continue
            if int(eid) in tip_elements:
                owner = tips[tip_elements[int(eid)][0]]
                if owner.crack_id != crack.id:
                    raise EnrichmentError(
                        f"element {eid} is the tip element of crack {owner.crack_id} "
                        f"but is also crossed by crack {crack.id} (junctions unsupported)"
                    )
                continue
            if len(chunks) > 1:
                raise EnrichmentError(
                    f"crack {crack.id} crosses element {eid} more than once; "
                    "refine the mesh or coarsen the crack"
                )
            s0, s1, p0, p1 = chunks[0]
            edge0 = loop_edge_of_point(quad, p0, size_tol)
            edge1 = loop_edge_of_point(quad, p1, size_tol)
            if (edge0 is None or edge1 is None or edge0 == edge1
                    or np.linalg.norm(p1 - p0) <= size_tol):
                continue
            if int(eid) in cut_elements and cut_elements[int(eid)] != crack.id:
                raise EnrichmentError(
                    f"element {eid} is cut by cracks {cut_elements[int(eid)]} "
                    f"and {crack.id} (junctions unsupported)"
                )
            cut_elements[int(eid)] = crack.id
            cut_pieces[int(eid)] = CutPiece(s0, s1, p0, p1, edge0, edge1)
    return cut_elements, cut_pieces


def classify_or_error(mesh, cracks, tip_enrichment):
    try:
        return classify_enrichment(mesh, cracks, tip_enrichment=tip_enrichment)
    except EnrichmentError as exc:
        return exc


class TestCutElements:
    """The batched crack-element clip against the element-by-element loop."""

    @pytest.mark.parametrize("tip_enrichment", [True, False])
    @pytest.mark.parametrize("name", sorted(SUPPORT_MESHES))
    def test_same_classification_as_element_loop(self, name, tip_enrichment, monkeypatch):
        mesh = SUPPORT_MESHES[name]()
        rng = np.random.default_rng(59)
        cut = junctions = 0
        for _ in range(60):
            cracks = [c for c in (random_polyline(rng, i) for i in range(2)) if c]
            got = classify_or_error(mesh, cracks, tip_enrichment)
            with monkeypatch.context() as patch:
                patch.setattr(enrichment, "_cut_elements", loop_cut_elements)
                expected = classify_or_error(mesh, cracks, tip_enrichment)
            if isinstance(expected, Exception):
                assert type(got) is type(expected)
                assert str(got) == str(expected)
                junctions += "unsupported" in str(expected) or "more than once" in str(expected)
                continue
            assert list(got.cut_elements.items()) == list(expected.cut_elements.items())
            assert list(got.cut_pieces) == list(expected.cut_pieces)
            for eid, piece in expected.cut_pieces.items():
                mine = got.cut_pieces[eid]
                assert (mine.s0, mine.s1, mine.edge0, mine.edge1) == \
                    (piece.s0, piece.s1, piece.edge0, piece.edge1)
                np.testing.assert_array_equal(mine.p0, piece.p0)
                np.testing.assert_array_equal(mine.p1, piece.p1)
            np.testing.assert_array_equal(got.status, expected.status)
            assert got.demotions == expected.demotions
            cut += len(expected.cut_elements)
        assert cut > 0 and junctions > 0


class TestWithoutTipEnrichment:
    def setup_method(self):
        self.mesh = grid()
        self.emap = classify_enrichment(
            self.mesh, [center_crack()], tip_enrichment=False
        )

    def test_virtual_extension_reaches_far_edges(self):
        eff = self.emap.cracks[0]
        np.testing.assert_allclose(eff.vertices[0], [0.1, 0.55], atol=1e-9)
        np.testing.assert_allclose(eff.vertices[-1], [0.9, 0.55], atol=1e-9)
        assert self.emap.effective_half_length(0) == pytest.approx(0.4, abs=1e-9)

    def test_tips_registered_without_tip_elements(self):
        assert self.emap.tip_elements == {}
        assert len(self.emap.tips) == 2
        t0, t1 = self.emap.tips
        assert t0.virtual_extension == pytest.approx(0.05, abs=1e-9)
        np.testing.assert_allclose(t0.frame.origin, [0.1, 0.55], atol=1e-9)
        np.testing.assert_allclose(t1.frame.origin, [0.9, 0.55], atol=1e-9)
        assert t1.frame.tangent @ np.array([1.0, 0.0]) == pytest.approx(1.0)

    def test_far_edge_nodes_demoted(self):
        assert len(self.emap.cut_elements) == 8
        assert self.emap.n_tip == 0
        assert self.emap.n_heaviside == 14
        for x, y in [(0.1, 0.5), (0.1, 0.6), (0.9, 0.5), (0.9, 0.6)]:
            assert self.emap.status[node_at(self.mesh, x, y)] == STANDARD
        demoted = {n for (n, _, r) in self.emap.demotions
                   if r == "crack endpoint inside support"}
        assert node_at(self.mesh, 0.1, 0.5) in demoted


class TestEndpointHandling:
    def test_boundary_mouth_nodes_stay_enriched(self):
        mesh = grid()
        crack = CrackPath(
            vertices=np.array([[0.0, 0.55], [0.35, 0.55]]), tip_start=False, id=0
        )
        emap = classify_enrichment(mesh, [crack])
        assert emap.status[node_at(mesh, 0.0, 0.5)] == HEAVISIDE
        assert emap.status[node_at(mesh, 0.0, 0.6)] == HEAVISIDE
        assert len(emap.cut_elements) == 3
        assert len(emap.tip_elements) == 1

    def test_interior_dead_end_closes_the_jump(self):
        mesh = grid()
        crack = CrackPath(
            vertices=np.array([[0.15, 0.55], [0.85, 0.55]]), tip_end=False, id=0
        )
        emap = classify_enrichment(mesh, [crack])
        # the element holding the dead end is not cut and nodes whose whole
        # support surrounds the endpoint are demoted
        assert element_at(mesh, 0.85, 0.55) not in emap.cut_elements
        assert emap.status[node_at(mesh, 0.8, 0.5)] == STANDARD
        assert emap.status[node_at(mesh, 0.8, 0.6)] == STANDARD
        reasons = {r for (_, _, r) in emap.demotions}
        assert "crack endpoint inside support" in reasons


class TestRejectedConfigurations:
    def test_duplicate_ids(self):
        mesh = grid()
        a = CrackPath(vertices=np.array([[0.15, 0.35], [0.85, 0.35]]), id=1)
        b = CrackPath(vertices=np.array([[0.15, 0.75], [0.85, 0.75]]), id=1)
        with pytest.raises(EnrichmentError, match="unique"):
            classify_enrichment(mesh, [a, b])

    def test_tip_outside_mesh(self):
        mesh = grid()
        crack = CrackPath(vertices=np.array([[0.45, 0.55], [1.2, 0.55]]), id=0)
        with pytest.raises(EnrichmentError, match="outside the mesh"):
            classify_enrichment(mesh, [crack])

    def test_two_cracks_cutting_one_element(self):
        mesh = grid()
        a = CrackPath(vertices=np.array([[0.15, 0.53], [0.85, 0.53]]), id=0)
        b = CrackPath(vertices=np.array([[0.15, 0.57], [0.85, 0.57]]), id=1)
        with pytest.raises(EnrichmentError, match="cracks 0 and 1"):
            classify_enrichment(mesh, [a, b])

    def test_heaviside_and_tip_claims_collide(self):
        mesh = grid()
        a = CrackPath(
            vertices=np.array([[-0.01, 0.55], [1.01, 0.55]]),
            tip_start=False,
            tip_end=False,
            id=0,
        )
        b = CrackPath(
            vertices=np.array([[0.35, 0.15], [0.35, 0.48]]), tip_start=False, id=1
        )
        with pytest.raises(EnrichmentError, match="junction"):
            classify_enrichment(mesh, [a, b])

    def test_double_crossing_of_one_element(self):
        mesh = grid()
        crack = CrackPath(
            vertices=np.array(
                [[0.45, 0.55], [0.25, 0.55], [0.25, 0.58], [0.45, 0.58]]
            ),
            id=0,
        )
        with pytest.raises(EnrichmentError, match="more than once"):
            classify_enrichment(mesh, [crack])


class TestDegeneracyRemedy:
    def test_crack_through_nodes_detected(self):
        mesh = grid()
        crack = CrackPath(vertices=np.array([[0.15, 0.5], [0.85, 0.5]]), id=0)
        with pytest.raises(CrackMeshDegeneracyError, match="node"):
            classify_enrichment(mesh, [crack])

    def test_vertex_on_interior_edge_detected(self):
        mesh = grid()
        crack = CrackPath(
            vertices=np.array([[0.15, 0.45], [0.45, 0.5], [0.75, 0.45]]), id=0
        )
        with pytest.raises(CrackMeshDegeneracyError, match="edge"):
            classify_enrichment(mesh, [crack])

    def test_segment_along_edge_detected(self):
        mesh = grid()
        # segment 1 lies on the edge (0.4, 0.5)-(0.5, 0.5) without
        # reaching a node; a clean crack alongside is not flagged
        along = CrackPath(
            vertices=np.array([[0.25, 0.45], [0.42, 0.5], [0.48, 0.5],
                               [0.65, 0.45]]), id=0
        )
        clean = CrackPath(vertices=np.array([[0.15, 0.25], [0.85, 0.25]]), id=1)
        with pytest.raises(CrackMeshDegeneracyError,
                           match="segment 1 runs along mesh edge") as info:
            classify_enrichment(mesh, [along, clean])
        assert info.value.crack_ids == {0}

    def test_mouth_on_boundary_edge_exempt_but_tip_flagged(self):
        mesh = grid()
        mouth = CrackPath(vertices=np.array([[0.0, 0.45], [0.35, 0.45]]),
                          tip_start=False, id=0)
        emap = classify_enrichment(mesh, [mouth])
        assert [t.tip_id for t in emap.tips] == [1]
        tip = CrackPath(vertices=mouth.vertices, id=0)
        with pytest.raises(CrackMeshDegeneracyError,
                           match="vertex 0 lies on mesh edge") as info:
            classify_enrichment(mesh, [tip])
        assert info.value.crack_ids == {0}
        # the exemption covers boundary edges only, not interior ones
        inner = CrackPath(vertices=np.array([[0.3, 0.45], [0.65, 0.45]]),
                          tip_start=False, id=0)
        with pytest.raises(CrackMeshDegeneracyError,
                           match="vertex 0 lies on mesh edge"):
            classify_enrichment(mesh, [inner])

    def test_remedy_perturbs_and_classifies(self):
        mesh = grid()
        crack = CrackPath(vertices=np.array([[0.15, 0.5], [0.85, 0.5]]), id=0)
        emap, used = classify_with_remedy(mesh, [crack])
        shift = np.abs(used[0].vertices - crack.vertices).max()
        assert 0.0 < shift < 1e-8
        assert emap.n_tip == 8
        assert emap.n_heaviside > 0

    def test_clean_input_passes_through_unchanged(self):
        mesh = grid()
        crack = center_crack()
        emap, used = classify_with_remedy(mesh, [crack])
        assert used[0] is crack
        assert emap.n_heaviside == 10


def loop_detect_coincidences(mesh, cracks):
    """Segment-by-segment and vertex-by-vertex reference for
    ``enrichment._detect_coincidences``."""
    tol = enrichment._COINCIDENCE_TOL
    n_nodes = mesh.n_nodes
    boundary = mesh.boundary_edges
    boundary_keys = boundary[:, 0] * n_nodes + boundary[:, 1]
    problems = []
    bad_cracks = set()
    for crack in cracks:
        near = mesh.elements_meeting(crack.vertices.min(axis=0) - 1e-9,
                                     crack.vertices.max(axis=0) + 1e-9)
        if near.size == 0:
            continue
        v = crack.vertices
        quads = mesh.elements[near]
        pairs = np.sort(np.stack([quads, np.roll(quads, -1, axis=1)], axis=2), axis=2)
        keys = np.unique(pairs[..., 0] * n_nodes + pairs[..., 1])
        e0, e1 = np.divmod(keys, n_nodes)
        p0, p1 = mesh.nodes[e0], mesh.nodes[e1]
        ed = p1 - p0
        Le = np.linalg.norm(ed, axis=1)
        near_nodes = np.unique(quads)
        for j in range(crack.n_segments):
            d = point_segment_distance(mesh.nodes[near_nodes], v[j], v[j + 1])
            for node in near_nodes[d <= tol]:
                problems.append(f"crack {crack.id} segment {j} passes through mesh node {node}")
                bad_cracks.add(crack.id)
        boundary_edge = np.isin(keys, boundary_keys)
        for vi in range(v.shape[0]):
            hits = point_segment_distance(v[vi], p0, p1) <= tol
            if (vi == 0 and not crack.tip_start) or (vi == v.shape[0] - 1 and not crack.tip_end):
                hits &= ~boundary_edge
            if hits.any():
                k = np.argmax(hits)
                problems.append(f"crack {crack.id} vertex {vi} lies on mesh edge ({e0[k]},{e1[k]})")
                bad_cracks.add(crack.id)
        for j in range(crack.n_segments):
            a = v[j]
            ab = v[j + 1] - a
            Ls = float(np.linalg.norm(ab))
            parallel = np.abs(ab[0] * ed[:, 1] - ab[1] * ed[:, 0]) <= tol * Ls * Le
            off = p0 - a
            dist = np.abs(ab[0] * off[:, 1] - ab[1] * off[:, 0]) / Ls
            t0 = (off @ ab) / (Ls * Ls)
            t1 = ((p1 - a) @ ab) / (Ls * Ls)
            overlap = np.minimum(np.maximum(t0, t1), 1.0) - np.maximum(np.minimum(t0, t1), 0.0)
            along = parallel & (dist <= tol) & (overlap > tol / Ls)
            if along.any():
                k = np.argmax(along)
                problems.append(f"crack {crack.id} segment {j} runs along mesh edge ({e0[k]},{e1[k]})")
                bad_cracks.add(crack.id)
    if problems:
        raise CrackMeshDegeneracyError(
            "crack/mesh coincidence: " + "; ".join(problems[:5]), crack_ids=bad_cracks)


def planted_crack(rng, mesh, kind, crack_id):
    """A random crack with a planted coincidence of the given kind, or None."""
    turn = rng.uniform(0.05, 0.1) * np.array([np.cos(t := rng.uniform(0, 2 * np.pi)), np.sin(t)])
    if kind == "mouth":  # a crack end on a boundary edge, a mouth or a tip
        n0, n1 = mesh.boundary_edges[rng.integers(len(mesh.boundary_edges)), :2]
        q = mesh.nodes[n0] + rng.uniform(0.2, 0.8) * (mesh.nodes[n1] - mesh.nodes[n0])
        inward = 0.5 - q
        vertices = np.array([q, q + 0.2 * inward, q + 0.2 * inward + turn])
        tip_start = bool(rng.integers(2))
    else:
        quad = mesh.elements[rng.integers(mesh.n_elements)]
        c = rng.integers(4)
        p0, p1 = mesh.nodes[quad[c]], mesh.nodes[quad[(c + 1) % 4]]
        if kind == "node":  # a segment through a mesh node
            vertices = np.array([p0 - turn, p0 + 0.7 * turn, p0 + 0.7 * turn + turn[::-1]])
        elif kind == "vertex":  # a vertex on an element edge
            q = p0 + rng.uniform(0.2, 0.8) * (p1 - p0)
            vertices = np.array([q - turn, q, q + turn[::-1]])
        else:  # a segment along an element edge, between its nodes
            x0, x1 = p0 + 0.2 * (p1 - p0), p0 + 0.7 * (p1 - p0)
            vertices = np.array([x0 + turn, x0, x1, x1 + turn[::-1]])
        tip_start = True
    try:
        return CrackPath(vertices=vertices, tip_start=tip_start, id=crack_id)
    except CrackGeometryError:
        return None


def coincidence_outcome(detect, mesh, cracks):
    try:
        detect(mesh, cracks)
    except CrackMeshDegeneracyError as exc:
        return str(exc), exc.crack_ids
    return None


class TestCoincidences:
    """The batched coincidence checks against the feature-by-feature loop."""

    @pytest.mark.parametrize("name", sorted(SUPPORT_MESHES))
    def test_same_problems_as_feature_loop(self, name):
        mesh = SUPPORT_MESHES[name]()
        rng = np.random.default_rng(71)
        kinds = ("node", "vertex", "along", "mouth")
        seen = dict.fromkeys(kinds + ("exempt mouth", "clean", "more than five"), 0)
        for _ in range(120):
            cracks = [random_polyline(rng, i) for i in range(2)]
            cracks += [planted_crack(rng, mesh, kinds[k], 2 + i)
                       for i, k in enumerate(rng.choice(4, size=rng.integers(4)))]
            cracks = [c for c in cracks if c is not None]
            got = coincidence_outcome(enrichment._detect_coincidences, mesh, cracks)
            expected = coincidence_outcome(loop_detect_coincidences, mesh, cracks)
            assert got == expected
            if expected is None:
                seen["clean"] += 1
                seen["exempt mouth"] += any(not c.tip_start for c in cracks)
                continue
            message = expected[0]
            seen["node"] += "passes through mesh node" in message
            seen["vertex"] += "vertex 0 lies" not in message and "lies on mesh edge" in message
            seen["along"] += "runs along mesh edge" in message
            seen["mouth"] += "vertex 0 lies on mesh edge" in message
            seen["more than five"] += message.count(";") == 4
        assert all(seen.values()), seen


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_same_cracks(got, expected):
    assert [(c.id, c.tip_start, c.tip_end) for c in got] == \
        [(c.id, c.tip_start, c.tip_end) for c in expected]
    assert [bits(c.vertices) for c in got] == [bits(c.vertices) for c in expected]


def assert_same_map(got, expected):
    """Two classifications equal field by field, floats bit for bit."""
    for name in ("status", "node_crack", "node_tip"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))
    assert bits(got.node_sign) == bits(expected.node_sign)
    assert list(got.cut_elements.items()) == list(expected.cut_elements.items())
    assert list(got.cut_pieces) == list(expected.cut_pieces)
    for eid, piece in expected.cut_pieces.items():
        mine = got.cut_pieces[eid]
        assert (mine.edge0, mine.edge1) == (piece.edge0, piece.edge1)
        assert bits([mine.s0, mine.s1, *mine.p0, *mine.p1]) == \
            bits([piece.s0, piece.s1, *piece.p0, *piece.p1])
    assert list(got.tip_elements.items()) == list(expected.tip_elements.items())
    assert [(t.crack_id, t.tip_id, t.element, bits(t.virtual_extension),
             bits([t.frame.origin, t.frame.tangent, t.frame.normal])) for t in got.tips] == \
        [(t.crack_id, t.tip_id, t.element, bits(t.virtual_extension),
          bits([t.frame.origin, t.frame.tangent, t.frame.normal])) for t in expected.tips]
    assert_same_cracks(got.cracks, expected.cracks)
    assert_same_cracks(got.source_cracks, expected.source_cracks)
    assert [(n, bits(r), why) for n, r, why in got.demotions] == \
        [(n, bits(r), why) for n, r, why in expected.demotions]
    # the point sides a later step may carry over
    np.testing.assert_array_equal(got._carry.cut, expected._carry.cut)
    assert bits(got._carry.sides) == bits(expected._carry.sides)


def remedy_outcome(mesh, cracks, tip_enrichment, base=None):
    try:
        return classify_with_remedy(mesh, cracks, tip_enrichment=tip_enrichment, base=base)
    except (EnrichmentError, CrackGeometryError) as exc:  # a virtual extension may cross its crack
        return exc


BAND_MESH = uniform_rect(1.0, 1.0, 16, 16)
BAND_COLUMNS = np.unique(BAND_MESH.nodes[:, 0])
# a straight crack the growing one may run into
BAND_OBSTACLE = CrackPath(vertices=np.array([[0.08, 0.13], [0.3, 0.13]]), id=1)


def grown_tip(rng, crack, tip, target=None, snap=None):
    """``crack`` grown at ``tip``: by a random kink and length, or straight
    to ``target``.  ``snap`` "line" moves the new tip onto the nearest
    vertical mesh line, "node" stretches the new segment through the mesh
    node nearest its end."""
    v = crack.vertices if tip == 1 else crack.vertices[::-1]
    if target is None:
        direction = v[-1] - v[-2]
        turn = rng.uniform(-0.6, 0.6)
        c, s = np.cos(turn), np.sin(turn)
        direction = np.array([[c, -s], [s, c]]) @ direction / np.linalg.norm(direction)
        target = v[-1] + rng.uniform(0.02, 0.08) * direction
    target = np.array(target, dtype=float)
    if snap == "line":
        target[0] = BAND_COLUMNS[np.argmin(np.abs(BAND_COLUMNS - target[0]))]
    elif snap == "node":
        node = BAND_MESH.nodes[np.argmin(np.linalg.norm(BAND_MESH.nodes - target, axis=1))]
        target = v[-1] + 1.3 * (node - v[-1])
    v = np.vstack([v, target])
    return CrackPath(vertices=v if tip == 1 else v[::-1], tip_start=crack.tip_start,
                     tip_end=crack.tip_end, id=crack.id)


class TestNarrowBand:
    """Classification against the last step's map against classification
    from scratch, in the style of the stamp rule's pinning test."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tip_enrichment=st.booleans())
    def test_every_step_equals_a_classification_from_scratch(self, seed, tip_enrichment):
        rng = np.random.default_rng(seed)
        start = rng.uniform(0.35, 0.65, size=2)
        angles = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(rng.uniform(-0.7, 0.7, rng.integers(2, 4)))
        steps = rng.uniform(0.05, 0.1, size=(angles.size, 1)) * np.column_stack(
            [np.cos(angles), np.sin(angles)])
        crack = CrackPath(vertices=np.vstack([start, start + np.cumsum(steps, axis=0)]),
                          tip_start=bool(rng.integers(2)), id=0)
        snap_at, node_at, hit_at = rng.choice(np.arange(1, 6), size=3, replace=False)
        cracks, base = [crack, BAND_OBSTACLE], None
        for step in range(6):
            expected = remedy_outcome(BAND_MESH, cracks, tip_enrichment)
            got = remedy_outcome(BAND_MESH, cracks, tip_enrichment, base)
            if isinstance(expected, Exception):
                assert type(got) is type(expected)
                assert str(got) == str(expected)
                break
            (emap, used), (base, cracks) = expected, got
            assert_same_map(base, emap)
            assert_same_cracks(cracks, used)
            crack = cracks[0]
            tip = int(rng.choice(crack.active_tips()))
            target = None
            if step + 1 == hit_at:  # into the nearest element the obstacle cuts
                cut = [e for e, c in emap.cut_elements.items() if c == 1]
                centers = BAND_MESH.element_centroids()[cut]
                target = centers[np.argmin(np.linalg.norm(centers - crack.tip_coord(tip), axis=1))]
            try:
                snap = {snap_at: "line", node_at: "node"}.get(step + 1)
                cracks = [grown_tip(rng, crack, tip, target, snap)] + cracks[1:]
            except CrackGeometryError:
                break

    def test_growth_at_an_end_reexamines_only_the_band(self):
        mesh = uniform_rect(1.0, 1.0, 40, 40)
        crack = CrackPath(vertices=np.array([[0.0, 0.512], [0.31, 0.512]]), tip_start=False, id=0)
        base = classify_enrichment(mesh, [crack])
        assert (base.band.clipped, base.band.measured) == (base.band.crossed,
                                                           base.band.candidates)
        for tip in ([0.34, 0.515], [0.37, 0.522], [0.41, 0.531], [0.44, 0.545]):
            crack = grown_tip(None, crack, 1, tip)
            emap = classify_enrichment(mesh, [crack], base=base)
            assert_same_map(emap, classify_enrichment(mesh, [crack]))
            # the elements the new segment enters, the nodes near its ends
            assert 0 < emap.band.clipped <= 4 < emap.band.crossed
            assert 0 < emap.band.measured < emap.band.candidates / 2
            base = emap

    def test_base_of_another_rule_is_ignored(self):
        mesh, crack = grid(), center_crack()
        base = classify_enrichment(mesh, [crack], rules=QuadratureSet.from_targets(cut=16))
        emap = classify_enrichment(mesh, [crack], base=base)
        assert emap.band.measured == emap.band.candidates > 0
        assert_same_map(emap, classify_enrichment(mesh, [crack]))


def _per_element_field_eval(mesh, emap, fields, eid, locs, xs):
    """The per-element field evaluation the batched kernel replaced."""
    conn = mesh.elements[eid]
    xy = mesh.nodes[conn]
    values, dref = reference_shape(locs[:, 0], locs[:, 1])
    dN = dref @ jacobian(xy, dref)[1]
    u = np.einsum("ki,ia->ka", values, fields.u_cont[conn])
    grad = np.einsum("kib,ia->kab", dN, fields.u_cont[conn])
    for li in range(4):
        n = int(conn[li])
        st = emap.status[n]
        if st == STANDARD:
            continue
        crack = emap.crack_by_id(int(emap.node_crack[n]))
        if st == HEAVISIDE:
            M = shifted_heaviside(emap.node_sign[n], signed_distance_batch(crack, xs))
            u += (values[:, li] * M)[:, None] * fields.u_disc[n]
            grad += np.einsum("k,kb,a->kab", M, dN[:, li], fields.u_disc[n])
        else:
            tinfo = emap.tips[int(emap.node_tip[n])]
            r, theta = branch_theta(tinfo, crack, xs)
            F, dF_local = branch_eval(np.maximum(r, 1e-30), theta)
            u += np.einsum("k,kj,ja->ka", values[:, li], F, fields.u_tip[n])
            dF = np.einsum("kjb,ab->kja", dF_local, enrichment.branch_frame(tinfo))
            G = F[..., None] * dN[:, li, None, :] + values[:, li, None, None] * dF
            grad += np.einsum("kjb,ja->kab", G, fields.u_tip[n])
    return u, grad


class TestBatchedKernel:
    """The batched field kernel against the per-element evaluation."""

    @staticmethod
    def two_cracks(tip_enrichment):
        mesh = uniform_rect(1.0, 1.0, 20, 20)
        cracks = [
            CrackPath(vertices=np.array([[0.121, 0.633], [0.437, 0.712]]), id=0),
            CrackPath(vertices=np.array([[0.561, 0.272], [0.723, 0.311],
                                         [0.884, 0.243]]), id=1),
        ]
        emap = classify_enrichment(mesh, cracks, tip_enrichment=tip_enrichment)
        assert emap.n_heaviside > 0
        assert emap.n_tip == (4 * 4 if tip_enrichment else 0)  # four tip elements
        return mesh, emap

    @pytest.mark.parametrize("tip_enrichment", [True, False])
    def test_matches_per_element_evaluation(self, tip_enrichment):
        mesh, emap = self.two_cracks(tip_enrichment)
        rng = np.random.default_rng(23)
        # Coefficients on every node, enriched or not: the kernel must read
        # only the rows each node's enrichment owns.
        fields = FieldTriplet(u_cont=rng.normal(size=(mesh.n_nodes, 2)),
                              u_disc=rng.normal(size=(mesh.n_nodes, 2)),
                              u_tip=rng.normal(size=(mesh.n_nodes, 4, 2)))
        near = []
        for crack in emap.cracks:
            v = crack.vertices
            s = rng.uniform(0.0, 1.0, 40)
            j = rng.integers(0, crack.n_segments, 40)
            on = v[j] + s[:, None] * (v[j + 1] - v[j])
            seg = v[j + 1] - v[j]
            normal = np.column_stack([-seg[:, 1], seg[:, 0]])
            normal /= np.linalg.norm(normal, axis=1, keepdims=True)
            off = rng.choice([-1.0, 1.0], 40) * 10.0 ** rng.uniform(-8, -3, 40)
            near.append(on + off[:, None] * normal)  # near the faces
        for tinfo in emap.tips:
            r = 10.0 ** rng.uniform(-5, -1.5, 30)
            t = rng.uniform(-np.pi, np.pi, 30)
            near.append(tinfo.frame.origin + r[:, None] * np.column_stack([np.cos(t),
                                                                           np.sin(t)]))
        pts = np.vstack([rng.uniform(0.0, 1.0, size=(300, 2))] + near)
        eids, locs = locate_points(mesh, pts)
        assert np.all(eids >= 0)
        u, grad = element_fields(mesh, emap, fields, eids, locs, pts)
        u_ref, grad_ref = np.empty_like(u), np.empty_like(grad)
        for eid in np.unique(eids):
            sel = np.nonzero(eids == eid)[0]
            u_ref[sel], grad_ref[sel] = _per_element_field_eval(
                mesh, emap, fields, int(eid), locs[sel], pts[sel])
        for new, ref in ((u, u_ref), (grad, grad_ref)):
            err = np.abs(new - ref).reshape(len(pts), -1).max(axis=1)
            scale = np.abs(ref).reshape(len(pts), -1).max(axis=1)
            assert np.all(err <= 1e-12 * scale)
        u_only, none = element_fields(mesh, emap, fields, eids, locs, pts, want_grad=False)
        assert none is None
        np.testing.assert_array_equal(u_only, u)

    @pytest.mark.parametrize("tip_enrichment", [True, False])
    def test_stiffness_matches_field_energy(self, tip_enrichment):
        # v^T K u is the energy of the strains element_fields evaluates,
        # integrated with each element's class rule.
        mesh, emap = self.two_cracks(tip_enrichment)
        material = MaterialModel(E=200e9, nu=0.3)
        rules = QuadratureSet.from_targets()
        system = assemble(mesh, emap, material, rules)
        rng = np.random.default_rng(31)
        u, v = rng.normal(size=(2, system.layout.total_dofs))
        D = elasticity_matrix(material)
        energy = 0.0
        for eids, rule in rules.classes(emap.element_kinds(mesh)):
            _, _, wdet, phys = element_geometry(mesh.element_coords(eids), rule)
            at = (np.repeat(eids, rule.n_points), np.tile(rule.points, (eids.size, 1)),
                  phys.reshape(-1, 2))
            eps_u, eps_v = (voigt_strain(element_fields(mesh, emap, system.layout.scatter(x),
                                                        *at)[1]) for x in (u, v))
            energy += np.einsum("k,ki,ij,kj->", wdet.ravel(), eps_v, D, eps_u)
        scale = np.sqrt((u @ (system.K @ u)) * (v @ (system.K @ v)))
        assert abs(v @ (system.K @ u) - energy) <= 1e-12 * scale


class TestFieldEvaluation:
    def _random_fields(self, mesh, emap, seed=3):
        rng = np.random.default_rng(seed)
        fields = FieldTriplet.zeros(mesh.n_nodes)
        fields.u_cont[:] = rng.normal(size=(mesh.n_nodes, 2))
        hs = emap.heaviside_nodes()
        fields.u_disc[hs] = rng.normal(size=(hs.size, 2))
        ts = emap.tip_nodes()
        fields.u_tip[ts] = rng.normal(size=(ts.size, 4, 2))
        return fields

    def test_reduces_to_standard_interpolation(self):
        mesh = grid()
        emap = classify_enrichment(mesh, [center_crack()])
        fields = FieldTriplet.zeros(mesh.n_nodes)
        rng = np.random.default_rng(11)
        fields.u_cont[:] = rng.normal(size=(mesh.n_nodes, 2))
        pts = rng.uniform(0.05, 0.35, size=(10, 2))  # away from the crack
        u, _ = evaluate_fields(pts, mesh, emap, fields)
        eids, locs = locate_points(mesh, pts)
        for k in range(10):
            values, _ = reference_shape(locs[k, 0], locs[k, 1])
            expected = values @ fields.u_cont[mesh.elements[eids[k]]]
            np.testing.assert_allclose(u[k], expected, atol=1e-13)

    def test_shift_makes_nodal_value_exact(self):
        mesh = grid()
        emap = classify_enrichment(mesh, [center_crack()])
        fields = self._random_fields(mesh, emap)
        n = node_at(mesh, 0.4, 0.5)
        assert emap.status[n] == HEAVISIDE
        u = total_displacement(mesh.nodes[n], fields, mesh, emap)
        np.testing.assert_allclose(u, fields.u_cont[n], atol=1e-12)

    def test_jump_equals_hand_formula(self):
        mesh = grid()
        crack = CrackPath(
            vertices=np.array([[-0.01, 0.55], [1.01, 0.55]]),
            tip_start=False,
            tip_end=False,
            id=0,
        )
        emap = classify_enrichment(mesh, [crack])
        fields = self._random_fields(mesh, emap)
        x = np.array([0.43, 0.55])
        eps = 1e-9
        u_up, _ = evaluate_fields([x + [0, eps]], mesh, emap, fields)
        u_dn, _ = evaluate_fields([x - [0, eps]], mesh, emap, fields)
        eids, locs = locate_points(mesh, x[None])
        values, _ = reference_shape(locs[0, 0], locs[0, 1])
        expected = 2.0 * np.einsum(
            "i,ia->a", values, fields.u_disc[mesh.elements[eids[0]]]
        )
        np.testing.assert_allclose(u_up[0] - u_dn[0], expected, atol=1e-7)
        opening = crack_opening(x, fields, mesh, emap, 0)
        assert opening == pytest.approx(expected[1], abs=1e-9)

    def test_continuous_across_edges_away_from_crack(self):
        # Evaluate the same edge point from both neighbor elements; any
        # mismatch would reveal an evaluation inconsistency (for example a
        # wrong branch-angle convention near the tip).
        mesh = grid()
        emap = classify_enrichment(mesh, [center_crack()])
        fields = self._random_fields(mesh, emap)
        crack = emap.cracks[0]
        checked = 0
        owners_of = {}
        for eid, quad in enumerate(mesh.elements.tolist()):
            for a, b in zip(quad, quad[1:] + quad[:1]):
                owners_of.setdefault((min(a, b), max(a, b)), []).append(eid)
        for (a, b), owners in owners_of.items():
            if len(owners) != 2:
                continue
            pa, pb = mesh.nodes[a], mesh.nodes[b]
            point = pa + 0.3 * (pb - pa)
            if abs(signed_distance(crack, point)) < 1e-6:
                continue
            us = []
            for eid in owners:
                lo = mesh.nodes[mesh.elements[eid]].min(axis=0)
                hi = mesh.nodes[mesh.elements[eid]].max(axis=0)
                loc = 2.0 * (point - lo) / (hi - lo) - 1.0
                u, _ = element_fields(
                    mesh, emap, fields, np.array([eid]), loc[None, :], point[None, :]
                )
                us.append(u[0])
            assert np.abs(us[0] - us[1]).max() < 1e-10
            checked += 1
        assert checked > 50

    def test_gradients_match_finite_differences(self):
        # Central differences of the evaluated displacement must agree with
        # the analytic gradients wherever the stencil stays inside a single
        # element and clear of the discontinuity line.  Near the tips this
        # couples the signed branch angle to its rotation frame, so a wrong
        # frame convention at either tip shows up here immediately.
        mesh = grid()
        emap = classify_enrichment(mesh, [center_crack()])
        fields = self._random_fields(mesh, emap, seed=5)
        rng = np.random.default_rng(17)
        h = 1e-6
        steps = np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
        checked = 0
        for _ in range(3000):
            if checked >= 250:
                break
            x = rng.uniform(0.02, 0.98, size=2)
            if abs(x[1] - 0.55) < 10 * h:
                continue
            stencil = x + steps
            hits, _ = locate_points(mesh, np.vstack([x[None, :], stencil]))
            if np.any(hits < 0) or np.unique(hits).size != 1:
                continue
            _, grad = evaluate_fields(x[None, :], mesh, emap, fields)
            u_st, _ = evaluate_fields(stencil, mesh, emap, fields, want_grad=False)
            fd = np.stack(
                [(u_st[0] - u_st[1]) / (2 * h), (u_st[2] - u_st[3]) / (2 * h)],
                axis=1,
            )
            assert np.abs(fd - grad[0]).max() < 2e-5 * (1.0 + np.abs(grad[0]).max())
            checked += 1
        assert checked >= 250

    def test_opening_zero_without_jump_coefficients(self):
        mesh = grid()
        emap = classify_enrichment(mesh, [center_crack()])
        fields = FieldTriplet.zeros(mesh.n_nodes)
        fields.u_cont[:] = 1.7
        assert crack_opening((0.45, 0.55), fields, mesh, emap, 0) == 0.0

    def test_uniform_jump_coefficients_give_constant_opening(self):
        mesh = grid()
        crack = CrackPath(
            vertices=np.array([[-0.01, 0.55], [1.01, 0.55]]),
            tip_start=False,
            tip_end=False,
            id=0,
        )
        emap = classify_enrichment(mesh, [crack])
        fields = FieldTriplet.zeros(mesh.n_nodes)
        c = 0.013
        for n in emap.heaviside_nodes():
            fields.u_disc[n] = c * np.array([0.0, 1.0])
        for x in (0.25, 0.43, 0.77):
            assert crack_opening((x, 0.55), fields, mesh, emap, 0) == pytest.approx(
                2.0 * c, abs=1e-12
            )

    def test_opening_at_a_kink_takes_the_bisector_normal(self):
        # At the vertex the nearest segment changes on the last bits of the
        # point; the opening must not change with it.
        mesh = grid()
        crack = CrackPath(vertices=np.array([[0.15, 0.52], [0.45, 0.57], [0.85, 0.53]]), id=0)
        emap = classify_enrichment(mesh, [crack])
        fields = self._random_fields(mesh, emap)
        vertex = crack.vertices[1]
        points = vertex + 1e-15 * np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])
        openings = [crack_opening(p, fields, mesh, emap, 0) for p in points]
        assert abs(openings[0]) > 1e-3
        np.testing.assert_allclose(openings, openings[0], rtol=1e-9, atol=0.0)
        np.testing.assert_array_equal(crack_opening(points, fields, mesh, emap, 0), openings)

    def test_opening_rejects_point_off_crack(self):
        mesh = grid()
        emap = classify_enrichment(mesh, [center_crack()])
        fields = FieldTriplet.zeros(mesh.n_nodes)
        with pytest.raises(ValueError, match="crack"):
            crack_opening((0.45, 0.75), fields, mesh, emap, 0)

    def test_outside_mesh_rejected(self):
        mesh = grid()
        emap = classify_enrichment(mesh, [center_crack()])
        fields = FieldTriplet.zeros(mesh.n_nodes)
        with pytest.raises(ValueError, match="outside"):
            evaluate_fields([[1.5, 0.5]], mesh, emap, fields)
        with pytest.raises(ValueError, match="outside"):
            psi_at(emap, mesh, (1.5, 0.5))
