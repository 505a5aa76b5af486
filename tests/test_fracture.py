"""Checks for tip-field formulas, the domain integral, its one pass over
all of a step's tips, and the kink angle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from xfem2d import benchmarks, fracture
from xfem2d.assembly import (
    BoundaryCondition,
    MaterialModel,
    QuadratureSet,
    apply_constraints,
    assemble,
    solve,
)
from xfem2d.config import ContourSpec
from xfem2d.cracks import CrackPath, signed_distance_batch
from xfem2d.driver import _extract_step, run_stationary, setup_problem
from xfem2d.enrichment import FieldTriplet, classify_enrichment
from xfem2d.fracture import (
    FractureError,
    auxiliary_fields,
    direct_j_integral,
    extract_sifs,
    j_from_sifs,
    k_equivalent,
    propagation_angle,
    tip_clearance,
    tip_rings,
    williams_displacement,
)
from xfem2d.meshgen import uniform_rect

STEEL = MaterialModel(E=200e9, nu=0.3, plane_strain=True)


def closed_form_displacement(mode, r, theta, material):
    """Tip-frame displacement of the unit-intensity field of one mode."""
    kappa = material.kolosov
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    amp = math.sqrt(r / (2.0 * math.pi)) / (2.0 * material.shear_modulus)
    if mode == 1:
        return amp * np.array([c * (kappa - 1.0 + 2.0 * s * s), s * (kappa + 1.0 - 2.0 * c * c)])
    return amp * np.array([s * (kappa + 1.0 + 2.0 * c * c), -c * (kappa - 1.0 - 2.0 * s * s)])


def closed_form_stress(mode, r, theta):
    """Tip-frame Voigt stress (xx, yy, xy) of the unit-intensity field of
    one mode, the same in plane strain and plane stress."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    c3, s3 = math.cos(1.5 * theta), math.sin(1.5 * theta)
    amp = 1.0 / math.sqrt(2.0 * math.pi * r)
    if mode == 1:
        return amp * np.array([c * (1.0 - s * s3), c * (1.0 + s * s3), c * s * c3])
    return amp * np.array([-s * (2.0 + c * c3), s * c * c3, c * (1.0 - s * s3)])


class TestAuxiliaryFields:
    def test_mode_one_ahead_of_tip(self):
        r = 0.37
        sigma, _ = auxiliary_fields(1, r, 0.0, STEEL)
        amp = 1.0 / math.sqrt(2.0 * math.pi * r)
        np.testing.assert_allclose(sigma, [amp, amp, 0.0], atol=1e-15 * amp)

    def test_mode_two_ahead_of_tip(self):
        r = 0.08
        sigma, _ = auxiliary_fields(2, r, 0.0, STEEL)
        amp = 1.0 / math.sqrt(2.0 * math.pi * r)
        np.testing.assert_allclose(sigma, [0.0, 0.0, amp], atol=1e-15 * amp)

    def test_faces_are_traction_free(self):
        r = 0.2
        amp = 1.0 / math.sqrt(2.0 * math.pi * r)
        for mode in (1, 2):
            for theta in (math.pi, -math.pi):
                sigma, _ = auxiliary_fields(mode, r, theta, STEEL)
                # face normal is +-y: components yy and xy must vanish
                assert abs(sigma[1]) < 1e-12 * amp
                assert abs(sigma[2]) < 1e-12 * amp

    @pytest.mark.parametrize("plane_strain", [True, False])
    @pytest.mark.parametrize("mode", [1, 2])
    def test_stress_matches_closed_form(self, mode, plane_strain):
        # the stress is Hooke's law of the branch-basis gradient; the
        # Williams stresses check it independently
        material = MaterialModel(E=71.7e9, nu=0.33, plane_strain=plane_strain)
        rng = np.random.default_rng(3)
        r = rng.uniform(0.05, 2.0, size=40)
        theta = rng.uniform(-math.pi, math.pi, size=40)
        sigma, _ = auxiliary_fields(mode, r, theta, material)
        expected = np.array([closed_form_stress(mode, a, b) for a, b in zip(r, theta)])
        np.testing.assert_allclose(sigma, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("mode", [1, 2])
    def test_gradient_matches_finite_differences(self, mode):
        h = 1e-7
        for x, y in [(0.3, 0.1), (0.1, -0.25), (-0.2, 0.3), (-0.15, -0.4)]:
            r = math.hypot(x, y)
            theta = math.atan2(y, x)
            _, grad = auxiliary_fields(mode, r, theta, STEEL)
            fd = np.empty((2, 2))
            for b, (dx, dy) in enumerate([(h, 0.0), (0.0, h)]):
                up = closed_form_displacement(
                    mode,
                    math.hypot(x + dx, y + dy),
                    math.atan2(y + dy, x + dx),
                    STEEL,
                )
                dn = closed_form_displacement(
                    mode,
                    math.hypot(x - dx, y - dy),
                    math.atan2(y - dy, x - dx),
                    STEEL,
                )
                fd[:, b] = (up - dn) / (2.0 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("mode", [1, 2])
    def test_displacement_matches_closed_form(self, mode):
        rng = np.random.default_rng(5)
        r = rng.uniform(0.05, 2.0, size=20)
        theta = rng.uniform(-math.pi, math.pi, size=20)
        expected = [closed_form_displacement(mode, a, b, STEEL) for a, b in zip(r, theta)]
        np.testing.assert_allclose(williams_displacement(mode, r, theta, STEEL), expected,
                                   rtol=1e-13, atol=1e-13 * np.abs(expected).max())

    def test_mode_one_opens_the_faces(self):
        # the crack opening of unit K_I: (kappa + 1) / mu * sqrt(r / (2 pi))
        r = 0.3
        upper, lower = williams_displacement(1, r, [math.pi, -math.pi], STEEL)
        opening = (STEEL.kolosov + 1.0) / STEEL.shear_modulus * math.sqrt(r / (2.0 * math.pi))
        assert upper[1] - lower[1] == pytest.approx(opening, rel=1e-14)
        assert upper[0] - lower[0] == pytest.approx(0.0, abs=1e-14 * opening)

    def test_invalid_input(self):
        with pytest.raises(ValueError, match="r > 0"):
            auxiliary_fields(1, 0.0, 0.0, STEEL)
        with pytest.raises(ValueError, match="mode"):
            auxiliary_fields(3, 1.0, 0.0, STEEL)
        with pytest.raises(ValueError, match="mode"):
            williams_displacement(3, 1.0, 0.0, STEEL)


class TestKinkAngle:
    def test_pure_opening_goes_straight(self):
        assert propagation_angle(2e6, 0.0) == 0.0

    def test_pure_sliding_limit(self):
        limit = math.acos(1.0 / 3.0)
        assert propagation_angle(0.0, 1e6) == pytest.approx(-limit, rel=1e-12)
        assert propagation_angle(0.0, -1e6) == pytest.approx(limit, rel=1e-12)
        assert math.degrees(limit) == pytest.approx(70.53, abs=0.01)

    def test_equal_mix(self):
        theta = propagation_angle(1e6, 1e6)
        assert math.degrees(theta) == pytest.approx(-53.13, abs=0.01)
        assert math.cos(theta) == pytest.approx(0.6, rel=1e-12)

    def test_sign_opposes_sliding(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            K_I = rng.uniform(0.1, 5.0)
            K_II = rng.uniform(-5.0, 5.0)
            if K_II == 0.0:
                continue
            theta = propagation_angle(K_I, K_II)
            assert np.sign(theta) == -np.sign(K_II)
            assert abs(theta) <= math.acos(1.0 / 3.0) + 1e-12

    @pytest.mark.parametrize("k", [1e-8, -1e-8, 1e-6, -1e-6, 1e-3, -1e-3])
    def test_mode_one_dominated_keeps_its_digits(self, k):
        # theta(k) at k = K_II / K_I has the series -2k + 14/3 k^3 - 102/5 k^5
        # + 758/7 k^7 - ..., whose terms shrink by about 5 k^2 each, so the
        # two terms kept are off by less than 21 |k|^5.  A handful of
        # roundings in the atan form add a few ulps of theta; the acos form
        # loses half the digits (5 % at |k| = 1e-8).
        K_I = 3.0e6
        K_II = k * K_I
        k = K_II / K_I
        series = -2.0 * k + 14.0 / 3.0 * k**3
        bound = 21.0 * abs(k) ** 5 + 8.0 * np.finfo(float).eps * abs(series)
        for sign in (1.0, -1.0):  # the angle sees K_I through |K_I|
            assert abs(propagation_angle(sign * K_I, K_II) - series) <= bound

    def test_zero_intensity_rejected(self):
        with pytest.raises(FractureError, match="zero-intensity"):
            propagation_angle(0.0, 0.0)

    def test_equivalent_intensity(self):
        assert k_equivalent(3e6, 0.0, 0.0) == pytest.approx(3e6)
        K_II = 2e6
        theta = propagation_angle(0.0, K_II)
        assert k_equivalent(0.0, K_II, theta) == pytest.approx(
            2.0 / math.sqrt(3.0) * K_II, rel=1e-6
        )


def center_crack_problem(angle_deg=0.0):
    """Tension plate with a center crack of half length 0.2."""
    mesh = uniform_rect(2.0, 2.0, 51, 51)
    a = 0.2
    if angle_deg == 0.0:
        cx, cy = 1.0, 1.0
        dx, dy = a, 0.0
    else:
        cx, cy = 1.0, 1.01  # keep the diagonal off the node lattice
        dx = a * math.cos(math.radians(angle_deg))
        dy = a * math.sin(math.radians(angle_deg))
    crack = CrackPath(
        vertices=np.array([[cx - dx, cy - dy], [cx + dx, cy + dy]]), id=0
    )
    emap = classify_enrichment(mesh, [crack])
    bcs = [
        BoundaryCondition("bottom", "displacement", (None, 0.0)),
        BoundaryCondition("top", "traction", (0.0, 1e6)),
    ]
    system = assemble(mesh, emap, STEEL, bcs=bcs)
    state = solve(apply_constraints(system, {0: 0.0}))
    return mesh, emap, state


@pytest.fixture(scope="module")
def tension_plate():
    return center_crack_problem()


class TestInteractionIntegral:
    def test_path_independence(self, tension_plate):
        mesh, emap, state = tension_plate
        a = 0.2
        values = [
            extract_sifs(state, mesh, emap, STEEL, 0, 1, radius=rho).K_I
            for rho in (0.7 * a, 0.9 * a, a)
        ]
        ref = values[-1]
        for v in values:
            assert abs(v - ref) / ref < 0.02

    def test_energy_release_consistency(self, tension_plate):
        mesh, emap, state = tension_plate
        res = extract_sifs(state, mesh, emap, STEEL, 0, 1)
        direct = direct_j_integral(state, mesh, emap, STEEL, 0, 1)
        assert res.J == pytest.approx(direct, rel=0.02)

    def test_mode_one_magnitude_and_purity(self, tension_plate):
        mesh, emap, state = tension_plate
        for tip in (0, 1):
            res = extract_sifs(state, mesh, emap, STEEL, 0, tip)
            exact = 1e6 * math.sqrt(math.pi * 0.2)
            # the finite width adds about +2.5% on top of discretization
            assert res.K_I == pytest.approx(exact, rel=0.05)
            assert abs(res.K_II) < 0.01 * res.K_I
            assert abs(math.degrees(res.theta_c)) < 1.0
            assert res.a_eff == pytest.approx(0.2)
            assert res.load_factor == 1.0

    def test_extraction_is_linear_in_the_solution(self, tension_plate):
        mesh, emap, state = tension_plate
        doubled = type(state)(
            fields=state.layout.scatter(2.0 * state.u),
            load_factor=2.0,
            layout=state.layout,
            u=2.0 * state.u,
            residual=state.residual,
        )
        base = extract_sifs(state, mesh, emap, STEEL, 0, 1, radius=0.2)
        twice = extract_sifs(doubled, mesh, emap, STEEL, 0, 1, radius=0.2)
        assert twice.K_I == pytest.approx(2.0 * base.K_I, rel=1e-12)
        assert twice.K_II == pytest.approx(2.0 * base.K_II, rel=1e-12)

    def test_rigid_translation_decouples(self, tension_plate):
        mesh, emap, state = tension_plate
        fields = FieldTriplet.zeros(mesh.n_nodes)
        fields.u_cont[:] = [0.37, -0.81]
        still = type(state)(
            fields=fields,
            load_factor=1.0,
            layout=state.layout,
            u=np.zeros_like(state.u),
            residual=0.0,
        )
        res = extract_sifs(still, mesh, emap, STEEL, 0, 1, radius=0.2)
        # K = E' I / 2 of an interaction integral I below 1e-10
        assert max(abs(res.K_I), abs(res.K_II)) < 0.5 * STEEL.E_effective * 1e-10

    @pytest.mark.parametrize("radius", [0.4, 0.5])
    def test_circle_reaching_the_other_end_rejected(self, tension_plate, radius):
        # The other tip sits 2a = 0.4 away: a circle through it or around
        # it takes in the crack's own faces.
        mesh, emap, state = tension_plate
        for tip in (0, 1):
            with pytest.raises(FractureError, match="reaches the crack's other end"):
                extract_sifs(state, mesh, emap, STEEL, 0, tip, radius=radius)

    def test_default_radius(self, tension_plate):
        mesh, emap, state = tension_plate
        assert extract_sifs(state, mesh, emap, STEEL, 0, 1).radius == pytest.approx(0.2)

    def test_missing_tip(self, tension_plate):
        mesh, emap, state = tension_plate
        with pytest.raises(FractureError, match="no active tip"):
            extract_sifs(state, mesh, emap, STEEL, 0, 5)


class TestInclinedCrack:
    def test_mixed_mode_signs_and_values(self):
        mesh, emap, state = center_crack_problem(angle_deg=45.0)
        res = extract_sifs(state, mesh, emap, STEEL, 0, 1)
        exact = 0.5 * 1e6 * math.sqrt(math.pi * 0.2)  # both modes at 45 deg
        assert res.K_I == pytest.approx(exact, rel=0.08)
        assert res.K_II == pytest.approx(exact, rel=0.05)
        assert res.K_II > 0.0
        assert math.degrees(res.theta_c) == pytest.approx(-53.13, abs=2.0)


class TestContourValidity:
    def setup_method(self):
        self.mesh = uniform_rect(1.0, 1.0, 20, 20)
        cracks = [
            CrackPath(vertices=np.array([[0.275, 0.425], [0.675, 0.425]]), id=0),
            CrackPath(vertices=np.array([[0.275, 0.575], [0.675, 0.575]]), id=1),
        ]
        self.emap = classify_enrichment(self.mesh, cracks)
        fields = FieldTriplet.zeros(self.mesh.n_nodes)
        self.state = type("S", (), {"fields": fields, "load_factor": 1.0})()

    def test_default_radius_shrinks_near_neighbor(self):
        # tip 1 of crack 0 sits 0.15 below crack 1, so the nominal radius is
        # 0.135; the element with corners (0.075, 0.075) and (0.125, 0.125)
        # away from the tip reaches past 0.15, and the radius stops at its
        # nearest corner
        res = extract_sifs(self.state, self.mesh, self.emap, STEEL, 0, 1)
        assert res.radius == pytest.approx(0.075 * math.sqrt(2.0))
        assert res.K_I == 0.0

    def test_no_default_radius_within_the_clearance(self):
        # a tip 0.075 from the boundary: every ring holding its tip element
        # (corners 0.035 away) has the boundary nodes beside it
        crack = CrackPath(vertices=np.array([[0.525, 0.425], [0.925, 0.425]]), id=0)
        emap = classify_enrichment(self.mesh, [crack])
        tip = [t for t in emap.tips if t.tip_id == 1]
        rings = tip_rings(self.state, self.mesh, emap, STEEL, tip, [None])
        assert np.isnan(rings.radius[0])
        with pytest.raises(FractureError, match="no domain around crack 0 tip 1 holds "
                                                r"its tip element, of size 0\.0707"):
            extract_sifs(self.state, self.mesh, emap, STEEL, 0, 1)

    @pytest.mark.parametrize("radius", [0.0, -0.1, math.inf, math.nan])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="^contour radius must be positive and finite$"):
            extract_sifs(self.state, self.mesh, self.emap, STEEL, 0, 1, radius=radius)

    def test_domain_must_hold_the_tip_element(self):
        # the tip's element corners lie 0.035 away: at a radius of 0.03 the
        # ring would hold the singular point, or be empty
        with pytest.raises(FractureError, match=r"radius 0\.03 .* tip element, of size 0\.0707"):
            extract_sifs(self.state, self.mesh, self.emap, STEEL, 0, 1, radius=0.03)

    def test_own_crack_coming_back_rejected(self):
        # a crack folded back on itself: from tip 1 it runs away to the
        # right, turns down, and then passes 0.1 below the tip
        mesh = uniform_rect(1.0, 1.0, 40, 40)
        folded = CrackPath(vertices=np.array([[0.2013, 0.4513], [0.7013, 0.4513],
                                              [0.7013, 0.5513], [0.5513, 0.5513]]), id=0)
        emap = classify_enrichment(mesh, [folded])
        state = type("S", (), {"fields": FieldTriplet.zeros(mesh.n_nodes), "load_factor": 1.0})()
        with pytest.raises(FractureError,
                           match="crack 0 tip 1 is re-entered by its own crack"):
            extract_sifs(state, mesh, emap, STEEL, 0, 1, radius=0.12)
        assert extract_sifs(state, mesh, emap, STEEL, 0, 1, radius=0.05).K_I == 0.0

    # crack 1 passes 0.15 from the tip: a radius of 0.14 stays short of it,
    # but the ring's outer nodes reach up to one element diameter beyond
    @pytest.mark.parametrize("radius", [0.2, 0.14])
    def test_crossing_other_crack_rejected(self, radius):
        with pytest.raises(FractureError, match="intersects crack 1"):
            extract_sifs(self.state, self.mesh, self.emap, STEEL, 0, 1, radius=radius)

    def test_clearance_is_the_nearest_other_crack_segment(self):
        cracks = [
            CrackPath(vertices=np.array([[0.275, 0.425], [0.675, 0.425]]), id=0),
            CrackPath(vertices=np.array([[0.275, 0.575], [0.675, 0.575]]), id=1),
            CrackPath(vertices=np.array([[0.723, 0.213], [0.761, 0.347], [0.912, 0.398]]), id=2),
        ]
        emap = classify_enrichment(self.mesh, cracks)
        for tinfo in emap.tips:
            origin = tinfo.frame.origin
            expected = min([self.mesh.boundary_distance(origin)] + [
                abs(signed_distance_batch(c, origin)[0]) for c in cracks if c.id != tinfo.crack_id])
            got = tip_clearance(self.mesh, emap, [tinfo]).clearance[0]
            assert got == pytest.approx(expected, rel=1e-15)
        # one pass over every tip gives each the same
        together = tip_clearance(self.mesh, emap, emap.tips).clearance
        assert together.tolist() == [tip_clearance(self.mesh, emap, [t]).clearance[0]
                                     for t in emap.tips]

    def test_leaving_domain_rejected(self):
        lone = classify_enrichment(
            self.mesh,
            [CrackPath(vertices=np.array([[0.275, 0.425], [0.675, 0.425]]), id=0)],
        )
        with pytest.raises(FractureError, match="leaves the domain"):
            extract_sifs(self.state, self.mesh, lone, STEEL, 0, 1, radius=0.35)


class TestEnergyReleaseMap:
    def test_j_from_sifs(self):
        J = j_from_sifs(2e6, 1e6, STEEL)
        e_prime = 200e9 / (1.0 - 0.09)
        assert J == pytest.approx((4e12 + 1e12) / e_prime, rel=1e-12)


def _kinked(crack):
    """The crack with its midpoint moved 0.013 off its line."""
    a, b = crack.vertices
    normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.linalg.norm(b - a)
    return CrackPath(vertices=np.array([a, 0.5 * (a + b) + 0.013 * normal, b]), id=crack.id)


@pytest.fixture(scope="module", params=["straight", "kinked"])
def crack_field(request):
    """The seventeen-crack field, as laid out and with every crack kinked,
    solved once each."""
    config = benchmarks.many_cracks_config()
    if request.param == "kinked":
        config = replace(config, cracks=tuple(_kinked(c) for c in config.cracks))
    problem = setup_problem(config)
    state, _ = run_stationary(config, problem)
    return problem, state


def _outcome(res):
    """Every number of a result, bit for bit."""
    return tuple(float(v).hex() for v in (res.K_I, res.K_II, res.J, res.theta_c, res.radius))


class TestBatchedPass:
    """All of a step's tips in one pass give, bit for bit, what each tip
    gives alone: every tip's integrals sum the same points in the same
    order, whatever other tips share the pass."""

    @pytest.mark.parametrize("scale", [None, 0.5])
    def test_one_pass_equals_each_tip_alone(self, crack_field, scale):
        problem, state = crack_field
        mesh, emap, material = problem.mesh, problem.emap, problem.material
        tips = emap.tips
        radii = [None if scale is None else scale * emap.effective_half_length(t.crack_id)
                 for t in tips]
        # some elements lie in the rings of two tips
        domains = fracture._domains(mesh, emap, tips, radii)
        assert np.unique(domains.eid[domains.ring]).size < np.count_nonzero(domains.ring)

        def outcomes(rings=None):
            out = {}
            for tinfo, radius in zip(tips, radii):
                key = (tinfo.crack_id, tinfo.tip_id)
                try:
                    out[key] = _outcome(extract_sifs(state, mesh, emap, material, *key,
                                                     radius=radius, rings=rings))
                except FractureError as exc:
                    out[key] = str(exc)
            return out

        rings = tip_rings(state, mesh, emap, material, tips, radii)
        alone = outcomes()
        assert outcomes(rings) == alone
        # the pass holds each tip's rejection, in the tips' order
        assert rings.failures == [v if isinstance(v, str) else None for v in alone.values()]
        if scale is not None:  # the set radius rejects the rings some cracks cross
            failures = [f for f in rings.failures if f is not None]
            assert failures and all("intersects crack" in f for f in failures)

    def test_one_field_evaluation_whatever_the_tip_count(self, crack_field, monkeypatch):
        problem, state = crack_field
        calls = {"element_fields": 0, "rule_points": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fracture, "element_fields",
                            counted("element_fields", fracture.element_fields))
        monkeypatch.setattr(QuadratureSet, "rule_points",
                            counted("rule_points", QuadratureSet.rule_points))
        auto = ContourSpec("auto")
        for tips in (problem.emap.tips[:1], problem.emap.tips[:5], problem.emap.tips):
            calls.update(element_fields=0, rule_points=0)
            sifs = _extract_step(problem, state, auto, tips, freezes=[])
            assert [(r.crack_id, r.tip_id) for r in sifs] == [(t.crack_id, t.tip_id)
                                                              for t in tips]
            assert calls == {"element_fields": 1, "rule_points": 1}

    def test_tips_without_a_domain_reported_in_tip_order(self):
        # crack 7 lies inside one element: every domain around either of its
        # tips holds its other end, while crack 0's are admissible
        mesh = uniform_rect(1.0, 1.0, 20, 20)
        cracks = [CrackPath(vertices=np.array([[0.275, 0.425], [0.675, 0.425]]), id=0),
                  CrackPath(vertices=np.array([[0.51, 0.71], [0.54, 0.71]]), id=7)]
        emap = classify_enrichment(mesh, cracks)
        state = type("S", (), {"fields": FieldTriplet.zeros(mesh.n_nodes), "load_factor": 1.0})()
        rings = tip_rings(state, mesh, emap, STEEL, emap.tips, [None] * len(emap.tips))
        assert [extract_sifs(state, mesh, emap, STEEL, 0, tip, rings=rings).tip_id
                for tip in (0, 1)] == [0, 1]
        failures = [(t, f) for t, f in zip(rings.tips, rings.failures) if f is not None]
        assert [(t.crack_id, t.tip_id) for t, _ in failures] == [(7, 0), (7, 1)]
        for tinfo, reason in failures:
            with pytest.raises(FractureError) as alone:
                extract_sifs(state, mesh, emap, STEEL, 7, tinfo.tip_id)
            assert reason == str(alone.value)
            assert reason.endswith(f"crack 7 tip {tinfo.tip_id} reaches the crack's other end")

    def test_tip_outside_the_pass_named(self, tension_plate):
        mesh, emap, state = tension_plate
        rings = tip_rings(state, mesh, emap, STEEL, emap.tips[:1], [None])
        assert (rings.tips[0].crack_id, rings.tips[0].tip_id) == (0, 0)
        with pytest.raises(FractureError, match=r"^crack 0 tip 1 is not in the given rings$"):
            extract_sifs(state, mesh, emap, STEEL, 0, 1, rings=rings)
