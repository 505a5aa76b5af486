"""The paper's examples as gates against closed forms and physics.

The bound on the stationary examples is 1 %, the tolerance the
benchmark's own output checks use.  The 5 m plate's finite width accounts
for about +0.10 % of the Table 1 error (sqrt(sec(pi a / W)) with
a = 0.1 m, W = 5 m); the rest is mesh and extraction error.  The edge
crack in tension is gated on its handbook reference's stated accuracy
plus its own first-order discretization error.  The growth
example is gated on the direction physics gives it: a hole attracts a
crack passing beside it, and on the convergence of its path as the
growth increment shrinks.  The convergence ladder is gated on the rates
that the closed-form tip singularity sets.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from xfem2d import benchmarks
from xfem2d.driver import (LoadSchedule, cod_profile, run_propagation, run_stationary,
                           setup_problem)
from xfem2d.fracture import extract_sifs, tip_rings

TOLERANCE = 0.01
EXACT_KI = benchmarks.center_crack_exact_ki(benchmarks.TABLE1_SIGMA,
                                            benchmarks.TABLE1_HALF_LENGTH)


@functools.lru_cache(maxsize=None)
def _table1(ratio):
    """The problem, solved state and SIFs of one Table 1 rung, solved once."""
    config = benchmarks.table1_config(ratio, with_tip=True)
    problem = setup_problem(config)
    return (problem, *run_stationary(config, problem))


@pytest.mark.parametrize("ratio", [2.0, 5.0, 12.5])
def test_table1_tip_enriched_matches_the_infinite_plate(ratio):
    _, _, results = _table1(ratio)
    assert len(results) == 2
    for res in results:
        assert res.K_I == pytest.approx(EXACT_KI, rel=TOLERANCE)
        assert abs(res.K_II) < TOLERANCE * EXACT_KI
    # The plate, the mesh and the load are mirror-symmetric about the
    # crack's centre line, so the two tips see the same field.
    left, right = (res.K_I for res in results)
    assert left == pytest.approx(right, rel=1e-6)


@pytest.mark.parametrize("ratio", [5.0, 12.5])
def test_table1_sif_is_independent_of_the_domain(ratio):
    # The domain integral is exact for any q on the exact field, so its
    # spread over radii measures the discretization error alone: a small
    # fraction of the 1 % bound.
    problem, state, _ = _table1(ratio)
    for tip in (0, 1):
        values = [extract_sifs(state, problem.mesh, problem.emap, problem.material, 0, tip,
                               radius=m * benchmarks.TABLE1_HALF_LENGTH).K_I
                  for m in (0.5, 0.7, 1.0)]
        assert max(values) - min(values) < 0.0025 * EXACT_KI


def test_table1_results_carry_the_radius_they_took():
    problem, state, results = _table1(5.0)
    mesh, emap, material = problem.mesh, problem.emap, problem.material
    # the configured radius, the crack half length
    assert [res.radius for res in results] == [benchmarks.TABLE1_HALF_LENGTH] * 2
    for tip in (0, 1):
        assert extract_sifs(state, mesh, emap, material, 0, tip, radius=0.07).radius == 0.07
        auto = extract_sifs(state, mesh, emap, material, 0, tip)
        tinfo = [t for t in emap.tips if t.tip_id == tip]
        assert auto.radius == tip_rings(state, mesh, emap, material, tinfo, [None]).radius[0]


# Table 1's crack opening against Westergaard's 4 sigma sqrt(a^2 - x^2) / E'
# (infinite plate).  The mid-crack opening 4 sigma a / E' = 4 K sqrt(a / pi) / E'
# carries K's relative error one for one, so over the middle half of the crack,
# where the whole crack's field and not the tip's sets the opening, the bound
# is K_I's at this rung, TOLERANCE, plus the finite width's share: the 5 m
# plate (a/W = 0.02, a over the half width 0.04) opens wider than the infinite
# one by about sqrt(sec(pi a / W)) - 1 = 0.10 %.  Nearer the tips the tip
# element's opening is F_1's jump 2 sqrt(r) alone, which K_I, integrated on a
# ring a crack half length out, does not bound; there the crack in tension
# must open, as Westergaard's does everywhere inside it.
FINITE_WIDTH = 0.001


def test_table1_opening_matches_westergaard():
    problem, state, _ = _table1(12.5)
    a = benchmarks.TABLE1_HALF_LENGTH
    E_eff = problem.material.E_effective
    profile = cod_profile(state, problem.mesh, problem.emap, 0, n_samples=201)
    x, opening = profile[:, 1], profile[:, 3]
    exact = 4.0 * benchmarks.TABLE1_SIGMA * np.sqrt(np.maximum(a * a - x * x, 0.0)) / E_eff
    middle = np.abs(x) <= a / 2
    assert np.abs(opening - exact)[middle].max() <= ((TOLERANCE + FINITE_WIDTH)
                                                    * 4.0 * benchmarks.TABLE1_SIGMA * a / E_eff)
    assert np.all(opening[1:-1] > 0.0)


# The edge crack in tension at a/W = 0.5.  The reference F(a/W) of Tada,
# Paris & Irwin is stated accurate to 0.5 %.  The extraction's K_I error
# is first order in h (the ladder below gates that rate on the closed-form
# field): K_h = K + A h
# + O(h^2).  Two rungs h > h' then give the finer one's error to first
# order, e' = (K_h' - K_h) h' / (h - h'), and the finer rung lies within
# the reference's 0.5 % plus |e'| of the reference, up to the O(h^2)
# remainder that the first-order estimate leaves out.
EDGE_REFERENCE_ACCURACY = 0.005


def test_edge_crack_in_tension_matches_the_handbook():
    coarse, fine = 41, 81  # cells across the width: h = W / cells
    k_coarse, k_fine = (run_stationary(benchmarks.edge_tension_config(n))[1][0].K_I
                        for n in (coarse, fine))
    error = (k_fine - k_coarse) * (1.0 / fine) / (1.0 / coarse - 1.0 / fine)
    exact = benchmarks.edge_tension_exact_ki()
    # the error shrinks toward the reference as h halves ...
    assert abs(k_fine - exact) < abs(k_coarse - exact)
    # ... and what is left once it is taken off is the reference's own
    assert abs(k_fine - exact) <= EDGE_REFERENCE_ACCURACY * exact + abs(error)
    # an even count would put the tip on a node line
    with pytest.raises(ValueError, match="odd cell count"):
        benchmarks.edge_tension_config(40)


# 30 degrees in a quick run; the whole sweep, every angle inside the bound
# (worst K_I +0.23 % at 70 degrees, K_II -0.34 % at 20), under `slow`.
@pytest.mark.parametrize("beta", [pytest.param(beta, marks=() if beta == 30 else pytest.mark.slow)
                                  for beta in benchmarks.INCLINED_BETAS])
def test_inclined_crack_matches_both_modes(beta):
    _, results = run_stationary(benchmarks.inclined_config(beta))
    k1, k2 = benchmarks.inclined_exact(beta)
    assert len(results) == 2
    for res in results:
        assert res.K_I == pytest.approx(k1, rel=TOLERANCE)
        assert res.K_II == pytest.approx(k2, rel=TOLERANCE)


# The hole-attraction crack grows 60 mm in all, in 20 increments of 3 mm
# by default.
HOLE_GROWTH = 0.06


@functools.lru_cache(maxsize=None)
def _hole_attraction(steps=20):
    """The config and history of hole attraction grown in ``steps`` equal
    increments, run once."""
    config = benchmarks.hole_attraction_config()
    config = replace(config, schedule=LoadSchedule.uniform(steps),
                     propagation=replace(config.propagation, delta_a=HOLE_GROWTH / steps))
    return config, run_propagation(config)


def _hole_path(steps):
    """The crack path of :func:`_hole_attraction`, each increment taken."""
    _, history = _hole_attraction(steps)
    assert history.n_increments == steps
    path = history.final_cracks[0].vertices
    assert np.all(np.diff(path[:, 0]) > 0.0)  # it runs in +x, so y is a function of x
    return path


def _path_gap(a, b):
    """The largest |y_a(x) - y_b(x)| of two paths over the x both span."""
    x = np.linspace(max(a[0, 0], b[0, 0]), min(a[-1, 0], b[-1, 0]), 2001)
    return float(np.abs(np.interp(x, *a.T) - np.interp(x, *b.T)).max())


def test_hole_attraction_turns_the_crack_toward_the_hole():
    config, history = _hole_attraction()
    steps, delta_a = len(config.schedule.steps), config.propagation.delta_a
    assert history.n_increments == steps == 20
    start = config.cracks[0].vertices[-1]
    tip = history.final_cracks[0].vertices[-1]
    # The tip leaves the start line by more than one element (1 mm) ...
    assert tip[1] > start[1] + 1e-3
    # ... and ends nearer the hole centre than the straight path would.
    centre = np.array([0.05, 0.072])
    straight = start + [steps * delta_a, 0.0]
    assert np.linalg.norm(tip - centre) < np.linalg.norm(straight - centre)


# The kink-angle field's integral curve, stepped at a fixed increment, is
# first order in it (Bouchard, Bay & Chastel, CMAME 192, 2003).  Halving
# the 3 mm increment moves the path by 0.49 mm at most and the final tip
# by 0.28 mm, against the gate of one element (1 mm): the mesh's own
# resolution of the crack.
ELEMENT = 1e-3


def test_hole_attraction_path_converges_in_the_increment():
    assert _path_gap(_hole_path(20), _hole_path(40)) < ELEMENT


def test_hole_attraction_final_tip_converges_in_the_increment():
    assert np.linalg.norm(_hole_path(20)[-1] - _hole_path(40)[-1]) < ELEMENT


@pytest.mark.slow
def test_hole_attraction_path_is_first_order_in_the_increment():
    # 20, 40 and 80 increments: gaps 0.49 and 0.23 mm, observed order 1.07
    paths = [_hole_path(steps) for steps in (20, 40, 80)]
    order = np.log2(_path_gap(*paths[:2]) / _path_gap(*paths[1:]))
    assert order >= 0.8


# The ladder measures the true error against the closed-form field.  With
# the tip element alone enriched, bilinear elements carry the singular field
# everywhere else, so the energy error is e_h = C h^(1/2) (1 + d_h); the
# interaction integral's K_I error is of the order of e_h^2, k_h = A h (1 + d_h)
# (Laborde, Pommier, Renard & Salaun, IJNME 64, 2005).  The pre-asymptotic
# factor d_h holds the terms half an order higher: the smooth part's bilinear
# error and its cross term with the singular one, of relative size
# (h / L)^(1/2) with L = 1 the tip's distance to the boundary.  Taking the
# coefficient of that term at most one, |d_h| <= sqrt(h).
# The least-squares slope of log error on log h is then
# rate + sum_h w_h log(1 + d_h), w_h the weights of log h, and over every
# admissible d_h it lies in [rate + sum w log(1 - sign(w) sqrt(h)),
# rate + sum w log(1 + sign(w) sqrt(h))]: about [0.10, 0.81] for the energy
# and [0.60, 1.31] for K_I on the default rungs, so each band excludes the
# other rate.

@functools.lru_cache(maxsize=None)
def _ladder():
    return benchmarks.convergence_ladder()


def _slope_band(rate):
    logs = np.log(_ladder().sizes)
    x = logs - logs.mean()
    w = x / (x @ x)
    rho = np.sqrt(_ladder().sizes)
    return (rate + w @ np.log(1.0 - np.sign(w) * rho),
            rate + w @ np.log(1.0 + np.sign(w) * rho))


def _slope(errors):
    return np.polyfit(np.log(_ladder().sizes), np.log(np.abs(errors)), 1)[0]


def test_ladder_energy_error_converges_at_rate_one_half():
    low, high = _slope_band(0.5)
    assert high < 1.0
    assert low <= _ladder().slope <= high


def test_ladder_ki_error_converges_at_first_order():
    low, high = _slope_band(1.0)
    assert low > 0.5
    # |d_h| < 1 keeps the sign of A on every rung
    errors = np.asarray(_ladder().ki_errors)
    assert np.all(np.sign(errors) == np.sign(errors[0]))
    assert low <= _slope(errors) <= high
