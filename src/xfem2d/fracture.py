"""Stress intensity factors, energy release rate, and kink angle.

Mixed-mode SIFs come from the interaction integral in its equivalent
domain form (Li, Shih & Needleman, EFM 21, 1985; Moës, Dolbow &
Belytschko, IJNME 46, 1999).  In the tip frame,

    I = ∫ [σ_ij u^aux_i,1 + σ^aux_ij u_i,1 − W^(1,2) δ_1j] q_,j dA,

with W^(1,2) = σ_ij ε^aux_ij, pairs the solved field with the
unit-intensity (Williams) field of one mode, and K = E' I / 2.  That field
is written in the four branch functions of the enriched basis, which span
it (Fleming, Chu, Moran & Belytschko, IJNME 40, 1997): its displacement is
W F / (2 μ √(2π)) with constant weights W per mode, its gradient W ∇F at
the same scale, and its stress Hooke's law of that gradient.  Half the
same integral of the solved field with itself is the J integral.

The weight q is bilinear on the mesh: 1 at the nodes strictly inside a
radius R around the tip, 0 at the others.  So q_,j vanishes outside the
*ring* of elements with corners on both sides of that circle, and the
integral runs over the ring alone, each of its integration classes at the
rule the stiffness takes for it.  The auxiliary angle is the enriched
basis's own (:func:`~xfem2d.enrichment.tip_polar`): its magnitude from the
tip frame and its sign from the side of the crack, so its discontinuity
lies on the faces of a kinked crack as well.

A domain is rejected when the tip element is not wholly inside R (the
ring would reach the singular point, or be empty), and when the circle
through the ring's outermost node meets the domain boundary, the crack's
other end, a face of its own crack that has left the circle, or another
crack.  The ``auto`` radius is the largest, up to a nominal one, whose
ring stays inside the tip's clearance from the boundary and the other
cracks; when none holds the tip element, no radius is admissible.  The
kink direction follows the maximum hoop stress criterion.

:func:`tip_rings` serves every tip of a step in one pass:
:func:`tip_clearance` finds each tip's distances to the boundary and to
every crack in one array pass (the driver's freeze check shares it); all
domains come from one :meth:`~xfem2d.mesh.Mesh.box_query` and are checked
with array operations; the rings' rule points, at the map's own rules
(:attr:`~xfem2d.enrichment.EnrichmentMap.rules`), and the solved field on
them come from one :meth:`~xfem2d.mesh.QuadratureSet.rule_points` and one
:func:`~xfem2d.enrichment.element_fields` call; and the auxiliary fields
of both modes from one branch-function evaluation, at each point's
:func:`~xfem2d.enrichment.tip_polar` from its tip.  The points are
regrouped by tip, stably, before the tip angles are taken, so each tip's
integrals sum the same terms in the same order as a pass over that tip
alone: the result at a tip does not depend on which other tips share its
pass.  :func:`extract_sifs` integrates one tip of such a pass,
or makes the pass of that tip alone, and its result records the radius the
tip took; :func:`direct_j_integral` is the pass at one tip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from xfem2d.assembly import MaterialModel, SolutionState, elasticity_matrix, voigt_strain
from xfem2d.cracks import heaviside, signed_distance_batch
from xfem2d.enrichment import EnrichmentMap, TipInfo, branch_eval, element_fields, tip_polar
from xfem2d.mesh import Mesh, point_segment_distance

__all__ = [
    "FractureError",
    "SifResult",
    "TipDistances",
    "TipRings",
    "auxiliary_fields",
    "direct_j_integral",
    "extract_sifs",
    "j_from_sifs",
    "propagation_angle",
    "k_equivalent",
    "tip_clearance",
    "tip_rings",
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
    radius: float = math.nan  # of the integration domain


# ---------------------------------------------------------------------------
# unit-intensity tip fields, in the branch basis
# ---------------------------------------------------------------------------

def _williams_weights(mode: int, material: MaterialModel):
    """W (2, 4) and the scale 2 mu sqrt(2 pi) of the unit-intensity
    displacement of ``mode`` in the tip frame, u = W F / (2 mu sqrt(2 pi)):
    F are the four branch functions of :func:`~xfem2d.enrichment.branch_eval`,
    which span it."""
    k = material.kolosov
    weights = {1: [[0.0, k - 1.0, 1.0, 0.0], [k + 1.0, 0.0, 0.0, -1.0]],
               2: [[k + 1.0, 0.0, 0.0, 1.0], [0.0, 1.0 - k, 1.0, 0.0]]}
    if mode not in weights:
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    return np.array(weights[mode]), 2.0 * material.shear_modulus * np.sqrt(2.0 * np.pi)


def williams_displacement(mode: int, r, theta, material: MaterialModel):
    """Unit-intensity near-tip displacement (..., 2) in the tip frame, at
    r > 0 and the branch angle theta."""
    W, scale = _williams_weights(mode, material)
    F, _ = branch_eval(r, theta)
    return (F @ W.T) / scale


def auxiliary_fields(mode: int, r, theta, material: MaterialModel):
    """Unit-intensity near-tip stress and displacement gradient.

    Returns ``(sigma, grad_u)`` in the tip frame: ``sigma`` has Voigt
    components (xx, yy, xy) with shape (..., 3) and ``grad_u[..., a, b]``
    is du_a/dx_b with shape (..., 2, 2).  Valid for r > 0.
    """
    return _auxiliary_fields((mode,), r, theta, material)[0]


def _auxiliary_fields(modes, r, theta, material: MaterialModel):
    """:func:`auxiliary_fields` of each of ``modes``, from one evaluation of
    the branch functions: the gradient is W dF / (2 mu sqrt(2 pi)), and the
    stress Hooke's law of it, as for the solved field."""
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError("auxiliary fields require r > 0")
    weights = [_williams_weights(mode, material) for mode in modes]
    _, dF = branch_eval(r, theta)
    D = elasticity_matrix(material).T
    fields = []
    for W, scale in weights:
        grad = (W @ dF) / scale
        fields.append((voigt_strain(grad) @ D, grad))
    return fields


# ---------------------------------------------------------------------------
# the integration domains of all requested tips, in one pass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TipDistances:
    """Distances from tips' origins, found in one array pass.

    ``boundary`` (T,) is each tip's distance to the nearest boundary edge,
    ``cracks`` (T, C) its distance to each crack of the map, in map order,
    with ``inf`` at its own crack.
    """

    boundary: np.ndarray
    cracks: np.ndarray

    @property
    def clearance(self) -> np.ndarray:
        """Distance (T,) to the nearest other crack or boundary edge."""
        return np.minimum(self.boundary, self.cracks.min(axis=1, initial=np.inf))

    def take(self, rows) -> TipDistances:
        """The distances of the tips at places ``rows``."""
        return TipDistances(self.boundary[rows], self.cracks[rows])


def _origins(tips) -> np.ndarray:
    return np.array([t.frame.origin for t in tips], dtype=float).reshape(-1, 2)


def tip_clearance(mesh: Mesh, emap: EnrichmentMap, tips) -> TipDistances:
    """The :class:`TipDistances` of ``tips``: every tip against every
    boundary edge and every crack segment, in two broadcasts."""
    if not tips:
        return TipDistances(np.empty(0), np.empty((0, len(emap.cracks))))
    origins = _origins(tips)
    starts = np.cumsum([0] + [c.n_segments for c in emap.cracks])[:-1]
    d = point_segment_distance(origins[:, None],
                               np.concatenate([c.vertices[:-1] for c in emap.cracks]),
                               np.concatenate([c.vertices[1:] for c in emap.cracks]))
    cracks = np.minimum.reduceat(d, starts, axis=1)
    place = {c.id: k for k, c in enumerate(emap.cracks)}
    cracks[np.arange(len(tips)), [place[t.crack_id] for t in tips]] = np.inf
    return TipDistances(mesh.boundary_distance(origins), cracks)


def _find_tip(emap: EnrichmentMap, crack_id: int, tip_id: int) -> TipInfo:
    for tinfo in emap.tips:
        if tinfo.crack_id == crack_id and tinfo.tip_id == tip_id:
            return tinfo
    raise FractureError(f"crack {crack_id} has no active tip {tip_id}")


class _Domains(NamedTuple):
    """The checked domains of T tips.

    ``radius`` (T,) is each tip's domain radius (nan where no ``auto``
    radius is admissible) and ``failures`` why each domain is rejected, or
    None.  The (tip, element) pairs ``box``, ``eid`` (P,) of the elements
    near each tip come by tip and then element; ``inside`` (P, 4) tells
    which of a pair's corners lie strictly inside the tip's radius, and
    ``ring`` (P,) whether the element is in the tip's ring.
    """

    radius: np.ndarray
    failures: list
    box: np.ndarray
    eid: np.ndarray
    inside: np.ndarray
    ring: np.ndarray


_NO_DOMAINS = _Domains(np.empty(0), [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                       np.empty((0, 4), dtype=bool), np.empty(0, dtype=bool))


def _own_crack_checks(emap: EnrichmentMap, tips, origins, reach):
    """Whether the circle of radius ``reach`` (T,) around each tip holds its
    crack's other end, and whether a face of its crack that has left the
    circle comes back into it: one pass over every tip's crack, walked
    from the tip."""
    paths = [emap.crack_by_id(t.crack_id).vertices[::1 if t.tip_id == 0 else -1] for t in tips]
    sizes = np.array([len(p) for p in paths])
    owner = np.repeat(np.arange(len(tips)), sizes)
    path = np.concatenate(paths)
    far = np.linalg.norm(path - origins[owner], axis=1) > reach[owner]
    index = np.arange(len(path))
    first_far = np.full(len(tips), len(path))  # the first vertex past the circle
    np.minimum.at(first_far, owner[far], index[far])
    seg = np.flatnonzero((owner[:-1] == owner[1:]) & (index[:-1] >= first_far[owner[:-1]]))
    back = (point_segment_distance(origins[owner[seg]], path[seg], path[seg + 1])
            <= reach[owner[seg]])
    reentered = np.zeros(len(tips), dtype=bool)
    reentered[owner[seg[back]]] = True
    return ~far[np.cumsum(sizes) - 1], reentered


def _domains(mesh: Mesh, emap: EnrichmentMap, tips, radii,
             near: TipDistances | None = None) -> _Domains:
    """Build and check the domains of ``tips``, of radius ``radii[i]`` or,
    where that is None, the ``auto`` radius, with one grid query for all.

    The ``auto`` rule's nominal radius is the effective half length, cut to
    0.9 of the clearance, but never below the smallest radius holding the
    tip element.  It shrinks to the largest radius whose ring has no node as
    far as the clearance.  If that no longer holds the tip element, no
    domain clear of the boundary and the other cracks does.  Each failure
    is the first, in this order, of: no ``auto`` radius, the tip element
    not held, and a circle through the ring's outermost node that meets the
    boundary, its own crack's other end or a face it comes back with, or
    another crack.
    """
    if any(r is not None and not 0.0 < r < math.inf for r in radii):
        raise ValueError("contour radius must be positive and finite")
    near = near if near is not None else tip_clearance(mesh, emap, tips)
    n = len(tips)
    origins = _origins(tips)
    element = np.array([t.element for t in tips], dtype=np.int64)
    auto = np.array([r is None for r in radii], dtype=bool)
    clearance = near.clearance
    held = np.linalg.norm(mesh.element_coords(element) - origins[:, None], axis=2)
    smallest = np.nextafter(held.max(axis=1), np.inf)
    half = np.array([emap.effective_half_length(t.crack_id) for t in tips])
    nominal = np.maximum(np.minimum(half, 0.9 * clearance), smallest)
    radius = np.where(auto, nominal, [np.nan if r is None else r for r in radii])
    box, eid = mesh.box_query(origins - radius[:, None], origins + radius[:, None])
    dist = np.linalg.norm(mesh.element_coords(eid) - origins[box, None], axis=2)
    closest, farthest = dist.min(axis=1), dist.max(axis=1)
    # an element reaching the clearance is in the ring of every radius in
    # (its nearest corner, its farthest corner]
    stop = np.full(n, np.inf)
    np.minimum.at(stop, box, np.where(farthest >= clearance[box], closest, np.inf))
    radius = np.where(auto, np.minimum(radius, stop), radius)
    unheld = auto & (radius < smallest)
    inside = dist < radius[box, None]
    ring = inside.any(axis=1) & ~inside.all(axis=1)
    holds = inside[np.searchsorted(box * mesh.n_elements + eid,
                                   np.arange(n) * mesh.n_elements + element)].all(axis=1)
    reach = radius.copy()  # of the circle through the ring's outermost node
    np.maximum.at(reach, box[ring], farthest[ring])
    other_end, reentered = _own_crack_checks(emap, tips, origins, reach)
    crossed = near.cracks <= reach[:, None]
    failures = []
    for i, t in enumerate(tips):
        where = f"domain of radius {radius[i]:g} around crack {t.crack_id} tip {t.tip_id}"
        size = mesh.element_sizes[t.element]
        if unheld[i]:
            failures.append(f"no domain around crack {t.crack_id} tip {t.tip_id} holds its tip "
                            f"element, of size {size:g}, within its clearance {clearance[i]:g}")
        elif not holds[i]:
            failures.append(f"{where} does not hold its tip element, of size {size:g}")
        elif near.boundary[i] <= reach[i]:
            failures.append(f"{where} leaves the domain")
        elif other_end[i]:
            failures.append(f"{where} reaches the crack's other end")
        elif reentered[i]:
            failures.append(f"{where} is re-entered by its own crack")
        elif crossed[i].any():
            failures.append(f"{where} intersects crack {emap.cracks[crossed[i].argmax()].id}")
        else:
            failures.append(None)
    return _Domains(np.where(unheld, np.nan, radius), failures, box, eid, inside, ring)


def _voigt_to_tensor(sig: np.ndarray) -> np.ndarray:
    """Symmetric 2x2 tensors (..., 2, 2) from Voigt components (..., 3)."""
    # contiguous: the integrand's einsums sum in an order set by the layout
    return np.ascontiguousarray(sig[..., [[0, 2], [2, 1]]])


class TipRings(NamedTuple):
    """The solved and auxiliary fields on the rings of T tips' domains.

    ``tips`` are the tips in the order asked, ``radius`` (T,) each one's
    domain radius (nan where no ``auto`` radius is admissible) and
    ``failures`` why each domain is rejected, or None.  Tip i's points are
    ``spans[i]`` (None where its domain is rejected) of the per-point
    arrays, all in the tip's frame: ``w detJ`` times the gradient of q
    ``dq`` (n, 2), the Voigt stress ``sig`` (n, 3), the displacement
    gradient ``grad`` (n, 2, 2), and ``aux``, the unit-intensity
    ``(sigma, grad_u)`` of modes 1 and 2.
    """

    tips: list
    radius: np.ndarray
    failures: list
    spans: list
    dq: np.ndarray
    sig: np.ndarray
    grad: np.ndarray
    aux: list


def tip_rings(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
              material: MaterialModel, tips, radii,
              near: TipDistances | None = None) -> TipRings:
    """Check the domains of ``tips`` and evaluate the fields on the rings
    of the admissible ones, in one pass.

    ``radii[i]`` is tip i's domain radius, None for the ``auto`` rule, and
    ``near`` the tips' :func:`tip_clearance` when already found.  Each
    ring element is integrated at its class's rule of
    :attr:`~xfem2d.enrichment.EnrichmentMap.rules`, that of the stiffness.
    One rule-point and one field evaluation cover every ring (two rings may
    share elements), and the auxiliary fields of both modes come from one
    branch-function evaluation.  The points are regrouped by tip, stably,
    so each tip's come in the order its ring alone gives them (by
    integration class, then element), and its integrals sum the same terms
    in the same order.
    """
    domains = _domains(mesh, emap, tips, radii, near) if tips else _NO_DOMAINS
    admissible = np.array([f is None for f in domains.failures], dtype=bool)
    pair = np.flatnonzero(domains.ring & admissible[domains.box])
    if not pair.size:
        empty = [np.empty((0, *shape)) for shape in ((2,), (3,), (2, 2))]
        return TipRings(tips, domains.radius, domains.failures, [None] * len(tips), *empty,
                        _auxiliary_fields((1, 2), np.empty(0), np.empty(0), material))
    place, N, dN, wdet, xs = emap.rules.rule_points(mesh, domains.eid[pair],
                                                    emap.kinds[domains.eid[pair]])
    grad = element_fields(mesh, emap, state.fields, domains.eid[pair[place]], N, dN, xs)[1]
    order = np.argsort(domains.box[pair[place]], kind="stable")
    dN, wdet, xs, grad = dN[order], wdet[order], xs[order], grad[order]
    place = pair[place[order]]
    owner = domains.box[place]
    q = domains.inside[place].astype(float)  # at each point's corners
    dq = wdet[:, None] * np.einsum("nia,ni->na", dN, q)
    ends = np.searchsorted(owner, np.arange(len(tips) + 1))
    D = elasticity_matrix(material).T
    r, theta, sig = np.empty(len(xs)), np.empty(len(xs)), np.empty((len(xs), 3))
    spans = []
    for i, tinfo in enumerate(tips):
        span = slice(ends[i], ends[i + 1]) if admissible[i] else None
        spans.append(span)
        if span is None:
            continue
        side = heaviside(signed_distance_batch(emap.crack_by_id(tinfo.crack_id), xs[span]))
        r[span], theta[span] = tip_polar(tinfo, xs[span], side)
        Q = tinfo.frame.axes
        grad[span] = Q.T @ grad[span] @ Q
        dq[span] = dq[span] @ Q
        # the material is isotropic, so D gives the stress in any frame
        sig[span] = voigt_strain(grad[span]) @ D
    return TipRings(tips, domains.radius, domains.failures, spans, dq, sig, grad,
                    _auxiliary_fields((1, 2), r, theta, material))


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
                      radius: float | None = None) -> float:
    """Energy release rate from the solved field alone on the same domain:
    half the interaction integral of the solved field with itself."""
    rings = tip_rings(state, mesh, emap, material, [_find_tip(emap, crack_id, tip_id)],
                      [radius])
    if rings.failures[0] is not None:
        raise FractureError(rings.failures[0])
    return 0.5 * _interaction(rings.sig, rings.grad, rings.sig, rings.grad, rings.dq)


def j_from_sifs(K_I: float, K_II: float, material: MaterialModel) -> float:
    """Energy release rate of a mixed-mode tip state."""
    return (K_I**2 + K_II**2) / material.E_effective


def extract_sifs(state: SolutionState, mesh: Mesh, emap: EnrichmentMap,
                 material: MaterialModel, crack_id: int, tip_id: int,
                 radius: float | None = None,
                 rings: TipRings | None = None) -> SifResult:
    """Mixed-mode SIFs, energy release rate and kink angle at one tip.

    ``rings`` is a :func:`tip_rings` pass holding the tip, made once for
    all the tips of a step, whose radius the tip then takes.  Without it
    the tip gets a pass of its own, at ``radius`` (None for the ``auto``
    rule).  Either way the ring is integrated at the map's rules.  A
    rejected domain raises its reason, and so does a tip that ``rings``
    does not hold.
    """
    if rings is None:
        rings = tip_rings(state, mesh, emap, material, [_find_tip(emap, crack_id, tip_id)],
                          [radius])
    held = [(t.crack_id, t.tip_id) for t in rings.tips]
    if (crack_id, tip_id) not in held:
        raise FractureError(f"crack {crack_id} tip {tip_id} is not in the given rings")
    i = held.index((crack_id, tip_id))
    span = rings.spans[i]
    if span is None:
        raise FractureError(rings.failures[i])
    K_I, K_II = (0.5 * material.E_effective
                 * _interaction(rings.sig[span], rings.grad[span], sig_aux[span],
                                grad_aux[span], rings.dq[span])
                 for sig_aux, grad_aux in rings.aux)
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
        radius=float(rings.radius[i]),
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
