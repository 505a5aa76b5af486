"""Stress intensity factors, energy release rate, and kink angle.

Mixed-mode SIFs come from a path-form interaction integral evaluated on a
circle around the tip: the solved field is paired with the closed-form
unit-intensity crack-tip (Williams) fields of each mode, and the contour
integrand is sampled at uniformly spaced midpoint angles so that no sample
falls exactly on the crack faces.  The kink direction follows the maximum
hoop stress criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from xfem2d.assembly import MaterialModel, SolutionState, elasticity_matrix, voigt_strain
from xfem2d.cracks import CrackPath, signed_distance_batch
from xfem2d.enrichment import EnrichmentMap, TipInfo, evaluate_fields
from xfem2d.mesh import Mesh, point_segment_distance

__all__ = [
    "FractureError",
    "SifResult",
    "auxiliary_fields",
    "interaction_integral",
    "direct_j_integral",
    "extract_sifs",
    "j_from_sifs",
    "propagation_angle",
    "k_equivalent",
    "default_contour_radius",
    "tip_clearance",
]

_FACE_TOL = 1e-9  # relative to the contour radius


class FractureError(ValueError):
    """Invalid contour or degenerate stress intensity input."""


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

def _aux_displacement(mode: int, r, theta, material: MaterialModel):
    """Tip-frame displacement of the unit-intensity field, shape (..., 2)."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    kappa = material.kolosov
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    amp = np.sqrt(r / (2.0 * np.pi)) / (2.0 * material.shear_modulus)
    if mode == 1:
        gx = c * (kappa - 1.0 + 2.0 * s * s)
        gy = s * (kappa + 1.0 - 2.0 * c * c)
    elif mode == 2:
        gx = s * (kappa + 1.0 + 2.0 * c * c)
        gy = -c * (kappa - 1.0 - 2.0 * s * s)
    else:
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    return np.stack([amp * gx, amp * gy], axis=-1)


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
    kappa = material.kolosov
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    c3 = np.cos(3.0 * theta / 2.0)
    s3 = np.sin(3.0 * theta / 2.0)
    amp = 1.0 / np.sqrt(2.0 * np.pi * r)
    if mode == 1:
        sxx = amp * c * (1.0 - s * s3)
        syy = amp * c * (1.0 + s * s3)
        sxy = amp * c * s * c3
        g = np.stack([c * (kappa - 1.0 + 2.0 * s * s),
                      s * (kappa + 1.0 - 2.0 * c * c)], axis=-1)
        gp = np.stack(
            [-0.5 * s * (kappa - 1.0) + s * (2.0 * c * c - s * s),
             0.5 * c * (kappa + 1.0) - c**3 + 2.0 * s * s * c],
            axis=-1,
        )
    elif mode == 2:
        sxx = -amp * s * (2.0 + c * c3)
        syy = amp * s * c * c3
        sxy = amp * c * (1.0 - s * s3)
        g = np.stack([s * (kappa + 1.0 + 2.0 * c * c),
                      -c * (kappa - 1.0 - 2.0 * s * s)], axis=-1)
        gp = np.stack(
            [0.5 * c * (kappa + 1.0) + c**3 - 2.0 * s * s * c,
             0.5 * s * (kappa - 1.0) - s**3 + 2.0 * s * c * c],
            axis=-1,
        )
    else:
        raise ValueError(f"mode must be 1 or 2, got {mode}")
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
# contour construction
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


def default_contour_radius(mesh: Mesh, emap: EnrichmentMap, crack_id: int,
                           tip_id: int) -> float:
    """Largest sensible circle: the effective half length, shrunk away from
    other cracks and the domain boundary."""
    radius = min(
        emap.effective_half_length(crack_id),
        0.9 * tip_clearance(mesh, emap, crack_id, tip_id),
    )
    if radius <= 0.0:
        raise FractureError(
            f"no admissible contour radius at crack {crack_id} tip {tip_id}"
        )
    return radius


def _find_tip(emap: EnrichmentMap, crack_id: int, tip_id: int) -> TipInfo:
    for tinfo in emap.tips:
        if tinfo.crack_id == crack_id and tinfo.tip_id == tip_id:
            return tinfo
    raise FractureError(f"crack {crack_id} has no active tip {tip_id}")


def _contour_points(tinfo: TipInfo, crack: CrackPath, radius: float,
                    n_points: int):
    """Sample points on the circle at midpoint angles, nudged off the faces.

    Angles are measured in the tip frame from the prolongation direction,
    so the crack faces sit near +-pi and the midpoint offsets keep every
    sample strictly off them.  Returns (points (n,2), angles (n,)).
    """
    step = 2.0 * np.pi / n_points
    angles = -np.pi + (np.arange(n_points) + 0.5) * step
    t_hat, n_hat = tinfo.frame.tangent, tinfo.frame.normal
    points = (tinfo.frame.origin[None, :]
              + radius * np.cos(angles)[:, None] * t_hat[None, :]
              + radius * np.sin(angles)[:, None] * n_hat[None, :])
    dist = np.abs(signed_distance_batch(crack, points))
    close = dist < _FACE_TOL * radius
    if np.any(close):
        shift = np.sign(np.sin(angles[close]))[:, None] * (
            10.0 * _FACE_TOL * radius
        ) * n_hat[None, :]
        points = points.copy()
        points[close] += shift
        still = np.abs(signed_distance_batch(crack, points[close]))
        if np.any(still < _FACE_TOL * radius):
            raise FractureError(
                "contour samples could not be moved off the crack face"
            )
    return points, angles


def _check_contour(mesh: Mesh, emap: EnrichmentMap, crack_id: int,
                   tip_id: int, origin: np.ndarray, radius: float) -> None:
    far_end = emap.crack_by_id(crack_id).vertices[-1 if tip_id == 0 else 0]
    if np.linalg.norm(far_end - origin) <= radius:
        raise FractureError(
            f"contour of radius {radius:g} around crack {crack_id} tip "
            f"{tip_id} reaches the crack's other end"
        )
    ids, distances = _other_crack_distances(emap, crack_id, origin)
    for other, d in zip(ids, distances.tolist()):
        if d <= radius:
            raise FractureError(
                f"contour of radius {radius:g} around crack {crack_id} tip "
                f"{tip_id} intersects crack {other}"
            )
    if mesh.boundary_distance(origin) <= radius:
        raise FractureError(
            f"contour of radius {radius:g} around crack {crack_id} tip "
            f"{tip_id} leaves the domain"
        )


def _voigt_to_tensor(sig: np.ndarray) -> np.ndarray:
    """Symmetric 2x2 tensors (..., 2, 2) from Voigt components (..., 3)."""
    # contiguous: the integrand's einsums sum in an order set by the layout
    return np.ascontiguousarray(sig[..., [[0, 2], [2, 1]]])


def _contour_fields(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                    material: MaterialModel, crack_id: int, tip_id: int,
                    radius: float | None, n_points: int):
    """Check one tip's contour and evaluate the solved field on it.

    Returns ``(sigma, grad, angles, radius)``: stress and displacement
    gradient tensors (n, 2, 2) rotated into the tip frame, the sample
    angles and the radius used.
    """
    if n_points < 32:
        raise ValueError("n_points must be at least 32")
    tinfo = _find_tip(emap, crack_id, tip_id)
    if radius is None:
        radius = default_contour_radius(mesh, emap, crack_id, tip_id)
    if radius <= 0.0:
        raise ValueError("contour radius must be positive")
    _check_contour(mesh, emap, crack_id, tip_id, tinfo.frame.origin, radius)
    points, angles = _contour_points(tinfo, emap.crack_by_id(crack_id), radius,
                                     n_points)
    _, grad = evaluate_fields(points, mesh, emap, state.fields)
    S = _voigt_to_tensor(voigt_strain(grad) @ elasticity_matrix(material).T)
    Q = np.column_stack([tinfo.frame.tangent, tinfo.frame.normal])
    sig_t = np.einsum("ar,nrs,sb->nab", Q.T, S, Q)
    grad_t = np.einsum("ar,nrs,sb->nab", Q.T, grad, Q)
    return sig_t, grad_t, angles, radius


def _contour_integral(sig_act, grad_act, sig_aux, grad_aux, angles,
                      radius: float) -> float:
    """Path-form interaction integral of two fields sampled on the circle;
    of the solved field with itself it is twice the J integral."""
    eps_act = 0.5 * (grad_act + np.swapaxes(grad_act, 1, 2))
    eps_aux = 0.5 * (grad_aux + np.swapaxes(grad_aux, 1, 2))
    w_mutual = 0.5 * (
        np.einsum("nab,nab->n", sig_act, eps_aux)
        + np.einsum("nab,nab->n", sig_aux, eps_act)
    )
    normal = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    t_act = np.einsum("nab,nb->na", sig_act, normal)
    t_aux = np.einsum("nab,nb->na", sig_aux, normal)
    integrand = (
        w_mutual * normal[:, 0]
        - np.einsum("na,na->n", t_act, grad_aux[:, :, 0])
        - np.einsum("na,na->n", t_aux, grad_act[:, :, 0])
    )
    return float(np.sum(integrand) * radius * (2.0 * np.pi / angles.size))


def _mode_integral(sig_act, grad_act, angles, radius: float, mode: int,
                   material: MaterialModel) -> float:
    """Interaction integral of the solved field with one unit mode."""
    sig_aux, grad_aux = auxiliary_fields(mode, np.full(angles.shape, radius),
                                         angles, material)
    return _contour_integral(sig_act, grad_act, _voigt_to_tensor(sig_aux),
                             grad_aux, angles, radius)


def interaction_integral(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                         material: MaterialModel, crack_id: int, tip_id: int,
                         mode: int, radius: float | None = None,
                         n_points: int = 128) -> float:
    """Path-form interaction integral of the solution with one unit mode.

    The integrand combines the mutual strain energy density and the
    traction/gradient cross terms of the solved and auxiliary fields on a
    circle of the given radius around the tip.
    """
    sig, grad, angles, radius = _contour_fields(state, mesh, emap, material,
                                                crack_id, tip_id, radius, n_points)
    return _mode_integral(sig, grad, angles, radius, mode, material)


def direct_j_integral(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                      material: MaterialModel, crack_id: int, tip_id: int,
                      radius: float | None = None,
                      n_points: int = 128) -> float:
    """Energy release rate from the solved field alone on the same contour:
    half the interaction integral of the solved field with itself."""
    sig, grad, angles, radius = _contour_fields(state, mesh, emap, material,
                                                crack_id, tip_id, radius, n_points)
    return 0.5 * _contour_integral(sig, grad, sig, grad, angles, radius)


def j_from_sifs(K_I: float, K_II: float, material: MaterialModel) -> float:
    """Energy release rate of a mixed-mode tip state."""
    return (K_I**2 + K_II**2) / material.E_effective


def extract_sifs(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                 material: MaterialModel, crack_id: int, tip_id: int,
                 radius: float | None = None, n_points: int = 128) -> SifResult:
    """Mixed-mode SIFs, energy release rate, and kink angle at one tip.

    The contour is built, checked and evaluated once for both modes.
    """
    sig, grad, angles, radius = _contour_fields(state, mesh, emap, material,
                                                crack_id, tip_id, radius, n_points)
    half = 0.5 * material.E_effective
    K_I = half * _mode_integral(sig, grad, angles, radius, 1, material)
    K_II = half * _mode_integral(sig, grad, angles, radius, 2, material)
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
