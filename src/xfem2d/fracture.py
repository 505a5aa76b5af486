"""Stress intensity factors, energy release rate, and kink angle.

Mixed-mode SIFs come from the interaction integral in its equivalent
domain form (Li, Shih & Needleman, EFM 21, 1985; Moës, Dolbow &
Belytschko, IJNME 46, 1999).  In the tip frame,

    I = ∫ [σ_ij u^aux_i,1 + σ^aux_ij u_i,1 − W^(1,2) δ_1j] q_,j dA,

with W^(1,2) = σ_ij ε^aux_ij, pairs the solved field with the closed-form
unit-intensity (Williams) field of one mode, and K = E' I / 2.  Half the
same integral of the solved field with itself is the J integral.

The weight q is bilinear on the mesh: 1 at the nodes strictly inside a
radius R around the tip, 0 at the others.  So q_,j vanishes outside the
*ring* of elements with corners on both sides of that circle, and the
integral runs over the ring alone: each of its integration classes at the
rule the stiffness takes for it, the solved field from one
:func:`~xfem2d.enrichment.element_fields` call over all its points.  The
auxiliary angle has its magnitude from the tip frame and its sign from
the side of the crack (:func:`~xfem2d.enrichment.branch_theta`), so its
discontinuity lies on the faces of a kinked crack as well.

A domain is rejected when the tip element is not wholly inside R (the
ring would reach the singular point, or be empty), and when the circle
through the ring's outermost node meets the domain boundary, the crack's
other end, a face of its own crack that has left the circle, or another
crack.  The ``auto`` radius is the largest, up to a nominal one, whose
ring stays inside the tip's clearance from the boundary and the other
cracks; when none holds the tip element, no radius is admissible.  The
kink direction follows the maximum hoop stress criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from xfem2d.assembly import MaterialModel, SolutionState, elasticity_matrix, voigt_strain
from xfem2d.enrichment import EnrichmentMap, TipInfo, branch_theta, element_fields
from xfem2d.mesh import Mesh, QuadratureSet, point_segment_distance

__all__ = [
    "FractureError",
    "SifResult",
    "auxiliary_fields",
    "direct_j_integral",
    "extract_sifs",
    "j_from_sifs",
    "propagation_angle",
    "k_equivalent",
    "default_contour_radius",
    "tip_clearance",
    "williams_displacement",
]

class FractureError(ValueError):
    """Invalid extraction domain or degenerate stress intensity input."""


@dataclass(frozen=True)
class SifResult:
    """Mixed-mode extraction at one crack tip."""

    crack_id: int
    tip_id: int
    K_I: float
    K_II: float
    J: float
    theta_c: float  # kink angle, radians, in the tip frame
    a_eff: float
    load_factor: float = 1.0


# ---------------------------------------------------------------------------
# closed-form unit-intensity tip fields
# ---------------------------------------------------------------------------

def _williams_angular(mode: int, c, s, kappa: float):
    """Angular functions g(theta) and g'(theta), shape (..., 2), of the
    unit-intensity displacement u = sqrt(r) g(theta) / (2 mu sqrt(2 pi)),
    given c = cos(theta/2) and s = sin(theta/2)."""
    if mode == 1:
        g = np.stack([c * (kappa - 1.0 + 2.0 * s * s),
                      s * (kappa + 1.0 - 2.0 * c * c)], axis=-1)
        gp = np.stack(
            [-0.5 * s * (kappa - 1.0) + s * (2.0 * c * c - s * s),
             0.5 * c * (kappa + 1.0) - c**3 + 2.0 * s * s * c],
            axis=-1,
        )
    elif mode == 2:
        g = np.stack([s * (kappa + 1.0 + 2.0 * c * c),
                      -c * (kappa - 1.0 - 2.0 * s * s)], axis=-1)
        gp = np.stack(
            [0.5 * c * (kappa + 1.0) + c**3 - 2.0 * s * s * c,
             0.5 * s * (kappa - 1.0) - s**3 + 2.0 * s * c * c],
            axis=-1,
        )
    else:
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    return g, gp


def williams_displacement(mode: int, r, theta, material: MaterialModel):
    """Unit-intensity near-tip displacement (..., 2) in the tip frame."""
    half = np.asarray(theta, dtype=float) / 2.0
    g, _ = _williams_angular(mode, np.cos(half), np.sin(half), material.kolosov)
    amp_u = 1.0 / (2.0 * material.shear_modulus * np.sqrt(2.0 * np.pi))
    return (amp_u * np.sqrt(r))[..., None] * g


def auxiliary_fields(mode: int, r, theta, material: MaterialModel):
    """Unit-intensity near-tip stress and displacement gradient.

    Returns ``(sigma, grad_u)`` in the tip frame: ``sigma`` has Voigt
    components (xx, yy, xy) with shape (..., 3) and ``grad_u[..., a, b]``
    is du_a/dx_b with shape (..., 2, 2).  Valid for r > 0.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("auxiliary fields require r > 0")
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    c3 = np.cos(3.0 * theta / 2.0)
    s3 = np.sin(3.0 * theta / 2.0)
    amp = 1.0 / np.sqrt(2.0 * np.pi * r)
    if mode == 1:
        sxx = amp * c * (1.0 - s * s3)
        syy = amp * c * (1.0 + s * s3)
        sxy = amp * c * s * c3
    else:
        sxx = -amp * s * (2.0 + c * c3)
        syy = amp * s * c * c3
        sxy = amp * c * (1.0 - s * s3)
    g, gp = _williams_angular(mode, c, s, material.kolosov)  # rejects modes but 1 and 2
    sigma = np.stack([sxx, syy, sxy], axis=-1)

    # grad u from u = A sqrt(r) g(theta), A = 1/(2 mu sqrt(2 pi)):
    # du/dx = (A/sqrt(r)) (g cos/2 - g' sin); du/dy = (A/sqrt(r)) (g sin/2 + g' cos)
    amp_u = 1.0 / (2.0 * material.shear_modulus * np.sqrt(2.0 * np.pi))
    inv = amp_u / np.sqrt(r)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    dudx = inv[..., None] * (0.5 * g * cos_t[..., None] - gp * sin_t[..., None])
    dudy = inv[..., None] * (0.5 * g * sin_t[..., None] + gp * cos_t[..., None])
    grad = np.stack([dudx, dudy], axis=-1)  # [..., a, b]
    return sigma, grad


# ---------------------------------------------------------------------------
# the integration domain
# ---------------------------------------------------------------------------

def tip_clearance(mesh: Mesh, emap: EnrichmentMap, crack_id: int,
                  tip_id: int) -> float:
    """Distance from a tip to the nearest other crack or boundary edge."""
    origin = _find_tip(emap, crack_id, tip_id).frame.origin
    _, distances = _other_crack_distances(emap, crack_id, origin)
    return min(mesh.boundary_distance(origin), float(np.min(distances, initial=np.inf)))


def _other_crack_distances(emap: EnrichmentMap, crack_id: int, point):
    """Ids of the cracks other than ``crack_id``, in map order, and the
    distance from ``point`` to each: one distance query over all their
    segments."""
    others = [c for c in emap.cracks if c.id != crack_id]
    if not others:
        return [], np.empty(0)
    d = point_segment_distance(point, np.concatenate([c.vertices[:-1] for c in others]),
                               np.concatenate([c.vertices[1:] for c in others]))
    starts = np.cumsum([0] + [c.n_segments for c in others[:-1]])
    return [c.id for c in others], np.minimum.reduceat(d, starts)


def _corner_distances(mesh: Mesh, origin, radius: float):
    """Ids, ascending, of the elements whose padded boxes meet the box of
    the disc of ``radius`` at ``origin``, and their corners' distances from
    it."""
    near = mesh.box_query(origin - radius, origin + radius)[1]
    return near, np.linalg.norm(mesh.element_coords(near) - origin, axis=2)


def default_contour_radius(mesh: Mesh, emap: EnrichmentMap, crack_id: int,
                           tip_id: int) -> float:
    """The domain radius of the ``auto`` rule."""
    return _auto_domain(mesh, emap, _find_tip(emap, crack_id, tip_id))[0]


def _auto_domain(mesh: Mesh, emap: EnrichmentMap, tinfo: TipInfo):
    """The ``auto`` radius, and :func:`_corner_distances` at the nominal one.

    The nominal radius is the effective half length, cut to 0.9 of the
    clearance, but never below the smallest radius holding the tip
    element.  It shrinks to the largest radius whose ring has no node as
    far as the clearance.  If that no longer holds the tip element, no
    domain clear of the boundary and the other cracks does.
    """
    origin = tinfo.frame.origin
    clearance = tip_clearance(mesh, emap, tinfo.crack_id, tinfo.tip_id)
    held = np.linalg.norm(mesh.element_coords([tinfo.element])[0] - origin, axis=1)
    smallest = float(np.nextafter(np.max(held), np.inf))
    nominal = max(min(emap.effective_half_length(tinfo.crack_id), 0.9 * clearance), smallest)
    near, dist = _corner_distances(mesh, origin, nominal)
    # an element reaching the clearance is in the ring of every radius in
    # (its nearest corner, its farthest corner]
    radius = min(nominal, float(np.min(dist.min(axis=1)[dist.max(axis=1) >= clearance],
                                       initial=np.inf)))
    if radius < smallest:
        raise FractureError(
            f"no domain around crack {tinfo.crack_id} tip {tinfo.tip_id} holds its tip "
            f"element, of size {mesh.element_sizes[tinfo.element]:g}, within its "
            f"clearance {clearance:g}")
    return radius, near, dist


def _find_tip(emap: EnrichmentMap, crack_id: int, tip_id: int) -> TipInfo:
    for tinfo in emap.tips:
        if tinfo.crack_id == crack_id and tinfo.tip_id == tip_id:
            return tinfo
    raise FractureError(f"crack {crack_id} has no active tip {tip_id}")


def _check_domain(mesh: Mesh, emap: EnrichmentMap, tinfo: TipInfo, reach: float,
                  where: str) -> None:
    """Reject a domain whose circle of radius ``reach`` (through the ring's
    outermost node) meets the boundary, its own crack's other end or a
    face the crack comes back with, or another crack."""
    origin = tinfo.frame.origin
    if mesh.boundary_distance(origin) <= reach:
        raise FractureError(f"{where} leaves the domain")
    own = emap.crack_by_id(tinfo.crack_id).vertices
    path = own if tinfo.tip_id == 0 else own[::-1]  # from the tip
    far = np.linalg.norm(path - origin, axis=1) > reach
    if not far[-1]:
        raise FractureError(f"{where} reaches the crack's other end")
    out = int(np.argmax(far))  # the first vertex past the circle
    if np.any(point_segment_distance(origin, path[out:-1], path[out + 1:]) <= reach):
        raise FractureError(f"{where} is re-entered by its own crack")
    ids, distances = _other_crack_distances(emap, tinfo.crack_id, origin)
    for other, d in zip(ids, distances.tolist()):
        if d <= reach:
            raise FractureError(f"{where} intersects crack {other}")


def _voigt_to_tensor(sig: np.ndarray) -> np.ndarray:
    """Symmetric 2x2 tensors (..., 2, 2) from Voigt components (..., 3)."""
    # contiguous: the integrand's einsums sum in an order set by the layout
    return np.ascontiguousarray(sig[..., [[0, 2], [2, 1]]])


def _domain_fields(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                   material: MaterialModel, crack_id: int, tip_id: int,
                   radius: float | None, rules: QuadratureSet | None):
    """Check one tip's domain and evaluate the solved field on its ring.

    Returns, at the ring's rule points, the tip-polar coordinates ``r``
    and ``theta`` of the auxiliary fields, ``w detJ`` times the gradient
    of q (n, 2), the Voigt stress (n, 3) and the displacement gradient
    (n, 2, 2), all in the tip frame.
    """
    tinfo = _find_tip(emap, crack_id, tip_id)
    if radius is not None and radius <= 0.0:
        raise ValueError("contour radius must be positive")
    radius, near, dist = (_auto_domain(mesh, emap, tinfo) if radius is None else
                          (radius, *_corner_distances(mesh, tinfo.frame.origin, radius)))
    rules = rules if rules is not None else QuadratureSet.from_targets()
    where = f"domain of radius {radius:g} around crack {crack_id} tip {tip_id}"
    if not np.all(dist[np.searchsorted(near, tinfo.element)] < radius):
        raise FractureError(f"{where} does not hold its tip element, of size "
                            f"{mesh.element_sizes[tinfo.element]:g}")
    inside = dist < radius
    at = np.flatnonzero(inside.any(axis=1) & ~inside.all(axis=1))
    ring = near[at]
    _check_domain(mesh, emap, tinfo, float(np.max(dist[at], initial=radius)), where)

    eids, local, dN, wdet, xs = rules.rule_points(mesh, ring, emap.kinds[ring])
    q = inside[at][np.searchsorted(ring, eids)].astype(float)  # at each point's corners
    dq = wdet[:, None] * np.einsum("nia,ni->na", dN, q)
    Q = np.column_stack([tinfo.frame.tangent, tinfo.frame.normal])
    grad = Q.T @ element_fields(mesh, emap, state.fields, eids, local, xs)[1] @ Q
    r, theta = branch_theta(tinfo, emap.crack_by_id(crack_id), xs)
    # branch_theta's angle grows toward the crack's positive side, which is
    # the frame normal's at tip 1 and the opposite at tip 0
    theta = theta if tip_id == 1 else -theta
    # the material is isotropic, so D gives the stress in any frame
    return r, theta, dq @ Q, voigt_strain(grad) @ elasticity_matrix(material).T, grad


def _interaction(sig, grad, sig_aux, grad_aux, dq) -> float:
    """Domain-form interaction integral of two fields at the ring's points,
    stresses in Voigt form; of the solved field with itself it is twice
    the J integral."""
    sig, sig_aux = _voigt_to_tensor(sig), _voigt_to_tensor(sig_aux)
    flux = (np.einsum("nab,na->nb", sig, grad_aux[:, :, 0])
            + np.einsum("nab,na->nb", sig_aux, grad[:, :, 0]))
    flux[:, 0] -= np.einsum("nab,nab->n", sig, grad_aux)  # W^(1,2): sigma is symmetric
    return float(np.einsum("nb,nb->", flux, dq))


def direct_j_integral(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                      material: MaterialModel, crack_id: int, tip_id: int,
                      radius: float | None = None,
                      rules: QuadratureSet | None = None) -> float:
    """Energy release rate from the solved field alone on the same domain:
    half the interaction integral of the solved field with itself."""
    _, _, dq, sig, grad = _domain_fields(state, mesh, emap, material, crack_id, tip_id,
                                         radius, rules)
    return 0.5 * _interaction(sig, grad, sig, grad, dq)


def j_from_sifs(K_I: float, K_II: float, material: MaterialModel) -> float:
    """Energy release rate of a mixed-mode tip state."""
    return (K_I**2 + K_II**2) / material.E_effective


def extract_sifs(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                 material: MaterialModel, crack_id: int, tip_id: int,
                 radius: float | None = None,
                 rules: QuadratureSet | None = None) -> SifResult:
    """Mixed-mode SIFs, energy release rate, and kink angle at one tip.

    The domain is built, checked and evaluated once for both modes.
    """
    r, theta, dq, sig, grad = _domain_fields(state, mesh, emap, material, crack_id, tip_id,
                                             radius, rules)
    K_I, K_II = (0.5 * material.E_effective
                 * _interaction(sig, grad, *auxiliary_fields(mode, r, theta, material), dq)
                 for mode in (1, 2))
    try:
        theta = propagation_angle(K_I, K_II)
    except FractureError:
        theta = 0.0
    return SifResult(
        crack_id=crack_id,
        tip_id=tip_id,
        K_I=K_I,
        K_II=K_II,
        J=j_from_sifs(K_I, K_II, material),
        theta_c=theta,
        a_eff=emap.effective_half_length(crack_id),
        load_factor=state.load_factor,
    )


def propagation_angle(K_I: float, K_II: float) -> float:
    """Kink angle (radians) of maximum hoop stress in the tip frame.

    Zero for pure opening; the sign opposes the sign of K_II; the pure
    sliding limit is -sign(K_II) * arccos(1/3) (about 70.5 degrees).
    """
    if K_I == 0.0 and K_II == 0.0:
        raise FractureError("kink angle undefined for a zero-intensity tip")
    if K_II == 0.0:
        return 0.0
    num = 3.0 * K_II**2 + math.sqrt(K_I**4 + 8.0 * K_I**2 * K_II**2)
    den = K_I**2 + 9.0 * K_II**2
    theta = math.acos(min(1.0, max(-1.0, num / den)))
    return -math.copysign(theta, K_II)


def k_equivalent(K_I: float, K_II: float, theta_c: float) -> float:
    """Hoop-stress intensity in the kink direction, compared against the
    material toughness to decide growth."""
    c = math.cos(theta_c / 2.0)
    return c * (K_I * c * c - 1.5 * K_II * math.sin(theta_c))
