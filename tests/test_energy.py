"""Energy functional, expansion constants, interaction and envelope checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ringnls import energy as energy_module
from ringnls.energy import (ansatz_fields, check_ksum_bound,
                            draw_sector_samples, energy, energy_breakdown,
                            expansion_compare, expansion_constants,
                            interaction_term, potential_field)
from ringnls.geometry import (bump_centers, bump_cubes_field, bump_sum_field,
                              radial_field, ring_fields)
from ringnls.grid import (Field, grid_for_radius, make_grid, quad_product,
                          zeros)
from ringnls.model import ModelParams, make_potential, mid_radius
from ringnls.radial import eval_profile, ground_state
from symmetry_oracles import unfold

# Expansion constants of the planar profile (c = alpha = 1), from the
# frozen radial moments: A0 = A1 = m4/4 and A2 = m2/2.  A1 and A2 agree
# because the planar cubic ground state satisfies int w^4 = 2 int w^2.
TOWNES_A0 = 5.85044826561159
TOWNES_A2 = 5.850448262964452


@pytest.fixture(scope="module")
def townes():
    return ground_state(1.0, 1.0, 2)


@pytest.fixture(scope="module")
def params():
    return ModelParams()


def _flat_potential(level: float):
    return lambda r: np.full_like(np.asarray(r, dtype=float), level)


def test_energy_zero_fields(townes, params):
    g = make_grid(2, 8.0, 0.25)
    z = zeros(g)
    mu = potential_field(g, make_potential(params))
    assert energy(z, z, mu, params) == 0.0


def test_energy_single_species_weak_identity(townes, params):
    # with V = 0 the energy collapses to (alpha0/4) int U0^4: the gradient
    # and mass terms cancel against 3/4 of the quartic through the profile
    # equation.  The 4e-7 level is the 8th-order stencil bias in the
    # kinetic term; the quadratures themselves agree to ~1e-10.
    g = make_grid(2, 16.0, 0.125)
    U0f = radial_field(g, townes)
    mu = potential_field(g, make_potential(params))
    e = energy(U0f, zeros(g), mu, params)
    a0_grid = 0.25 * params.alpha0 * quad_product(U0f, U0f, U0f, U0f)
    assert abs(e - a0_grid) / abs(a0_grid) < 2e-6
    assert e == pytest.approx(TOWNES_A0, rel=2e-6)


def test_energy_beta_additivity(townes, params):
    g = grid_for_radius(2.5, 1.0, 2, 6)
    U = radial_field(g, townes)
    V = bump_sum_field(g, townes, bump_centers(6, 2.5, 2))
    mu = potential_field(g, make_potential(params))
    z = zeros(g)
    whole = energy(U, V, mu, params)          # beta = 0 by default
    split = energy(U, z, mu, params) + energy(z, V, mu, params)
    assert abs(whole - split) <= 1e-12 * abs(whole)


def test_energy_beta_term_wiring(townes):
    g = grid_for_radius(2.5, 1.0, 2, 6)
    U = radial_field(g, townes)
    V = bump_sum_field(g, townes, bump_centers(6, 2.5, 2))
    p0 = ModelParams(beta=0.0)
    pb = ModelParams(beta=0.07)
    mu = potential_field(g, make_potential(p0))
    expect = energy(U, V, mu, p0) - 0.5 * 0.07 * quad_product(U, U, V, V)
    assert energy(U, V, mu, pb) == pytest.approx(expect, rel=1e-13)


def test_energy_group_action_invariance(townes, params):
    # a quarter turn and the axis flip act by exact node permutations, so
    # the quadrature must be blind to them down to rounding; the ring is
    # assembled on the part and unfolded onto the full box
    part = grid_for_radius(2.5, 1.0, 2, 6)
    g = part.with_mirrored(())
    mesh = g.mesh()
    bumpy = np.exp(-0.2 * ((mesh[0] - 1.0) ** 2 + mesh[1] ** 2))
    U = Field(g, radial_field(g, townes).data * (1.0 + 0.2 * bumpy))
    V = Field(g, unfold(bump_sum_field(part, townes,
                                       bump_centers(6, 2.5, 2))).data
              * (1.0 + 0.1 * np.broadcast_to(bumpy, g.shape)))
    mu = potential_field(g, make_potential(params))
    e0 = energy(U, V, mu, params)
    rot = lambda f: Field(g, np.rot90(f.data).copy())
    flip = lambda f: Field(g, f.data[:, ::-1].copy())
    assert energy(rot(U), rot(V), mu, params) == pytest.approx(e0, rel=1e-13)
    assert energy(flip(U), flip(V), mu, params) == pytest.approx(e0, rel=1e-13)


def test_expansion_constants_line_analogue(params):
    prof = ground_state(1.0, 1.0, 1)
    A0, A1, A2 = expansion_constants(prof, prof, params)
    # closed forms for the sech profile: int w^4 = 16/3, int w^2 = 4
    assert A0 == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert A1 == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert A2 == pytest.approx(2.0, rel=1e-10)


def test_expansion_constants_townes(townes, params):
    A0, A1, A2 = expansion_constants(townes, townes, params)
    assert A0 == pytest.approx(TOWNES_A0, rel=1e-10)
    assert A1 == pytest.approx(TOWNES_A0, rel=1e-10)
    assert A2 == pytest.approx(TOWNES_A2, rel=1e-10)
    # planar identity int w^4 = 2 int w^2 ties A1 to A2 (alpha1 = a = 1)
    assert abs(A1 - A2) < 1e-8


def test_expansion_constants_scaling(townes):
    base = expansion_constants(townes, townes, ModelParams(a=1.0))
    double = expansion_constants(townes, townes, ModelParams(a=2.0))
    assert double[2] == 2.0 * base[2]
    assert double[0] == base[0] and double[1] == base[1]
    half = expansion_constants(townes, townes, ModelParams(alpha0=0.5))
    assert half[0] == 0.5 * base[0]


def test_interaction_rejects_single_bump(townes, params):
    with pytest.raises(ValueError):
        interaction_term(townes, bump_centers(1, 3.0, 2), params)


def test_interaction_pair_symmetry(townes, params):
    # two bumps at +-R: the overlap integral is the same from either side
    # because y -> -y permutes the grid nodes exactly
    cfg = bump_centers(2, 4.0, 2)
    part = grid_for_radius(4.0, 1.0, 2, 2)
    rep = interaction_term(townes, cfg, params, g=part)
    # independent route: sample both bumps directly on the full box and
    # integrate
    g = part.with_mirrored(())
    mesh = g.mesh()
    r1 = np.sqrt((mesh[0] - 4.0) ** 2 + mesh[1] ** 2)
    r2 = np.sqrt((mesh[0] + 4.0) ** 2 + mesh[1] ** 2)
    v1 = Field(g, eval_profile(townes, r1))
    v2 = Field(g, eval_profile(townes, r2))
    pair = quad_product(v1, v1, v1, v2)
    mirror = quad_product(v2, v2, v2, v1)
    assert rep.total == pytest.approx(pair, rel=1e-12)
    assert pair == pytest.approx(mirror, rel=1e-12)
    # the exact chord of the pair is 2R = 8: J_exact = alpha1/2 * total
    # / (k/R)^(1/2) * e^8
    assert rep.J_exact == pytest.approx(
        0.5 * params.alpha1 * rep.total * math.sqrt(2.0) * math.exp(8.0),
        rel=1e-14)


def test_interaction_chord_level_stable(townes, params):
    # the overlap divided by e^{-d} d^{-1/2} approaches a constant level;
    # between d = 8 and d = 12 it moves by half a percent
    levels = []
    for R in (4.0, 6.0):
        rep = interaction_term(townes, bump_centers(2, R, 2), params)
        d = 2.0 * R
        levels.append(rep.total / (math.exp(-d) * d ** -0.5))
    assert abs(levels[0] / levels[1] - 1.0) < 0.2


def test_interaction_decreasing_in_radius(townes, params):
    totals = [interaction_term(townes, bump_centers(8, R, 2), params).total
              for R in (2.5, 3.25, 4.0)]
    assert totals[0] > totals[1] > totals[2] > 0.0


def potential_moment(V0prof, config, mu, params, g=None):
    """int (mu(|y|) - 1) V1^2 dy and its leading model (a/R^m) int V0^2.

    The integrand concentrates in a ball around the bump centre x1, so
    the quadrature runs on a bump-centred local grid: with z = y - x1 the
    integrand reads (mu(|z + x1|) - 1) V0(|z|)^2.  Both numbers are
    returned so callers can track the deviation as R grows.
    """
    if g is None:
        h = 0.125 if config.dim == 2 else 0.25
        g = make_grid(config.dim, h * math.ceil(22.0 / h), h)
    x1 = config.centers[0]
    mesh = g.mesh()
    rho2 = mesh[0] ** 2
    shift2 = (mesh[0] + x1[0]) ** 2
    for d in range(1, config.dim):
        rho2 = rho2 + mesh[d] ** 2
        shift2 = shift2 + (mesh[d] + x1[d]) ** 2
    integrand = (mu(np.sqrt(shift2)) - 1.0) \
        * eval_profile(V0prof, np.sqrt(rho2)) ** 2
    integral = quad_product(
        Field(g, np.broadcast_to(integrand, g.shape).copy()))
    leading = params.a / config.R ** params.m * V0prof.moment2
    return float(integral), float(leading)


def test_potential_moment_flat_mu_vanishes(townes, params):
    integral, _ = potential_moment(townes, bump_centers(1, 8.0, 2),
                                   _flat_potential(1.0), params)
    assert integral == 0.0


def test_potential_moment_frozen_constant(townes, params):
    # mu - 1 frozen at a/R^m: the constant walks out of the integral, so
    # the grid integral equals (a/R^m) * (grid int V0^2) identically and
    # matches the radial-moment leading term to cross-quadrature accuracy
    R = 8.0
    c0 = 1.0 / R
    cfg = bump_centers(1, R, 2)
    integral, leading = potential_moment(townes, cfg,
                                         _flat_potential(1.0 + c0), params)
    g = make_grid(2, 0.125 * math.ceil(22.0 / 0.125), 0.125)
    v = radial_field(g, townes)
    assert integral == pytest.approx(c0 * quad_product(v, v), rel=1e-13)
    assert integral == pytest.approx(leading, rel=1e-8)


def test_potential_moment_deviation_shrinks(townes, params):
    # the relative deviation from the leading term decays ~ 1/R^2 (the
    # linear term of the potential expansion integrates to zero against
    # the even profile), so doubling R should cut it by far more than 1.8
    mu = make_potential(params)
    devs = []
    for R in (6.0, 12.0):
        integral, leading = potential_moment(townes, bump_centers(1, R, 2),
                                             mu, params)
        devs.append(abs(integral - leading) / leading)
    assert devs[0] / devs[1] >= 1.8
    assert devs[1] < 0.05


def test_ksum_bound_midwindow(townes, params):
    k = 16
    R = mid_radius(k, params.m)
    cfg = bump_centers(k, R, 2)
    rng = np.random.default_rng(11)
    pts = draw_sector_samples(cfg, 500, rng)
    rep = check_ksum_bound(townes, cfg, 1.0, pts)
    assert rep.passed
    assert rep.max_ratio_tail < 0.5      # measured ~0.13: wide margin
    assert rep.max_ratio_all < 0.5
    assert rep.n_samples == 500


def test_ksum_bound_eta_validation(townes):
    cfg = bump_centers(8, 3.0, 2)
    pts = np.array([[3.5, 0.1]])
    for bad in (0.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            check_ksum_bound(townes, cfg, bad, pts)
    # both endpoints of the admissible range are usable
    check_ksum_bound(townes, cfg, 2.0, pts)
    check_ksum_bound(townes, cfg, 1e-6, pts)


def test_ksum_bound_single_bump_trivial(townes):
    cfg = bump_centers(1, 3.0, 2)
    rng = np.random.default_rng(5)
    pts = draw_sector_samples(cfg, 50, rng)
    rep = check_ksum_bound(townes, cfg, 1.0, pts)
    assert rep.max_ratio_tail == 0.0
    assert rep.passed


def test_ksum_bound_small_radius_reports(townes):
    # hypotheses violated on purpose: the check must report, not raise
    cfg = bump_centers(2, 0.8, 2)
    rng = np.random.default_rng(7)
    pts = draw_sector_samples(cfg, 100, rng)
    rep = check_ksum_bound(townes, cfg, 1.0, pts)
    assert isinstance(rep.passed, bool)
    assert np.isfinite(rep.max_ratio_tail) and np.isfinite(rep.max_ratio_all)


def test_draw_sector_samples_deterministic():
    cfg = bump_centers(16, 7.0, 2)
    a = draw_sector_samples(cfg, 200, np.random.default_rng(3))
    b = draw_sector_samples(cfg, 200, np.random.default_rng(3))
    c = draw_sector_samples(cfg, 200, np.random.default_rng(4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (200, 2)
    from ringnls.geometry import sector_membership
    assert np.all(sector_membership(a, cfg) == 1)


def _compare(prof, cfg, p, g=None):
    """expansion_compare on the fields ansatz_fields builds on g (by
    default grid_for_radius's part for the ring)."""
    if g is None:
        g = grid_for_radius(cfg.R, p.lam, cfg.dim, cfg.k)
    return expansion_compare(prof, prof, cfg, p,
                             ansatz_fields(prof, prof, cfg, g))


def test_expansion_compare_decoupled_limit(townes, monkeypatch):
    # beta = 0 and a flat potential decouple the species; at d = 24 the
    # overlaps are invisible and the direct energy is A0 + 2 A1 up to the
    # kinetic stencil bias (~4e-7 relative)
    p = ModelParams(beta=0.0)
    monkeypatch.setattr(energy_module, "make_potential",
                        lambda params: _flat_potential(1.0))
    rep = _compare(townes, bump_centers(2, 12.0, 2), p)
    target = 3.0 * TOWNES_A0
    assert abs(rep.direct - target) / target < 1e-6


def test_expansion_compare_internal_consistency(townes):
    p = ModelParams(beta=0.05)
    k = 12
    cfg = bump_centers(k, mid_radius(k, p.m), 2)
    rep = _compare(townes, cfg, p)
    model = rep.A0 + k * (rep.A1 + rep.A2 / cfg.R ** p.m) - rep.interaction_sum
    assert rep.model == pytest.approx(model, rel=1e-13)
    assert rep.rho == abs(rep.direct - rep.model) / k
    assert rep.J_exact > 0.0 and rep.J_surrogate > 0.0
    # the arc surrogate weakens the divisor, so it reports a larger level
    assert rep.J_surrogate > rep.J_exact


@pytest.mark.parametrize("k", [5, 8])
def test_expansion_compare_matches_separate_passes(townes, k):
    # one loop feeds W and the overlap sum on the folded part; the results
    # must be the same floats as bump_sum_field + energy and
    # interaction_term on that part, and the full-box energy and overlap
    # to rounding
    p = ModelParams(beta=0.05)
    cfg = bump_centers(k, mid_radius(k, p.m), 2)
    part = grid_for_radius(cfg.R, p.lam, 2, k, h=0.25)
    g = part.with_mirrored(())
    rep = _compare(townes, cfg, p, g=part)
    W = bump_sum_field(part, townes, cfg)
    direct = energy(radial_field(part, townes), W,
                    potential_field(part, make_potential(p)), p)
    inter = interaction_term(townes, cfg, p, g=part)
    # the energy absorbs last-bit changes of W, so W is compared directly
    assert np.array_equal(ring_fields(part, townes, cfg, overlap=True).W,
                          W.data)
    assert rep.direct == direct
    assert rep.interaction_sum == 0.5 * p.alpha1 * k * inter.total
    assert rep.J_exact == inter.J_exact
    assert rep.J_surrogate == inter.J_surrogate
    full = energy(radial_field(g, townes), unfold(W),
                  potential_field(g, make_potential(p)), p)
    assert abs(rep.direct - full) <= 1e-13 * abs(full)
    # the full-box overlap, bump by bump
    mesh = g.mesh()
    bumps = [Field(g, eval_profile(townes, np.sqrt(
        (mesh[0] - x[0]) ** 2 + (mesh[1] - x[1]) ** 2))) for x in cfg.centers]
    full_inter = sum(quad_product(bumps[0], bumps[0], bumps[0], v)
                     for v in bumps[1:])
    assert abs(inter.total - full_inter) <= 1e-13 * full_inter


def _synthetic_pair(g):
    mesh = g.mesh()
    xx, yy = mesh[0], mesh[1]
    u = Field(g, 0.11 * np.exp(-0.35 * ((xx - 0.7) ** 2 + (yy + 0.4) ** 2))
              * (1.0 + 0.3 * xx))
    v = Field(g, 0.07 * np.exp(-0.3 * (xx ** 2 + (yy - 1.1) ** 2))
              * (1.0 - 0.2 * yy))
    return u, v


def test_breakdown_identity_exact(townes):
    # the four-term split must reproduce the direct energy as algebra for
    # ANY corrector pair, converged or not: that is what makes it a safe
    # invariant later
    p = ModelParams(beta=0.05)
    cfg = bump_centers(6, 2.5, 2)
    part = grid_for_radius(2.5, 1.0, 2, 6)
    g = part.with_mirrored(())
    U0f = radial_field(g, townes)
    W = unfold(bump_sum_field(part, townes, cfg))
    mu = potential_field(g, make_potential(p))
    u, v = _synthetic_pair(g)
    bd = energy_breakdown(U0f, W, u, v, mu, p)
    lhs = bd.main + bd.l_val + bd.q_val + bd.h_val
    assert abs(bd.total - lhs) <= 1e-12 * abs(bd.total)


def test_breakdown_linear_term_matches_reduced_form(townes):
    # the raw linear part should agree with the reduced form (potential
    # deviation + cube mismatch - beta pairings) up to the sampled
    # profiles' discrete weak-form defect, measured at the 1e-9 level
    p = ModelParams(beta=0.05)
    cfg = bump_centers(6, 2.5, 2)
    part = grid_for_radius(2.5, 1.0, 2, 6)
    g = part.with_mirrored(())
    U0f = radial_field(g, townes)
    W = unfold(bump_sum_field(part, townes, cfg))
    cubes = unfold(bump_cubes_field(part, townes, cfg))
    mu = potential_field(g, make_potential(p))
    u, v = _synthetic_pair(g)
    bd = energy_breakdown(U0f, W, u, v, mu, p)
    reduced = (quad_product(mu - 1.0, W, v)
               + p.alpha1 * (quad_product(cubes, v)
                             - quad_product(W, W, W, v))
               - p.beta * (quad_product(U0f, U0f, W, v)
                           + quad_product(U0f, W, W, u)))
    assert abs(bd.l_val - reduced) < 1e-7


def test_breakdown_identity_three_dimensional():
    p = ModelParams(beta=0.05, dim=3)
    prof = ground_state(1.0, 1.0, 3)
    cfg = bump_centers(4, 2.0, 3)
    g = make_grid(3, 8.0, 0.25)
    part = g.with_mirrored((0, 1, 2))
    U0f = radial_field(g, prof)
    W = unfold(bump_sum_field(part, prof, cfg))
    mu = potential_field(g, make_potential(p))
    mesh = g.mesh()
    u = Field(g, 0.1 * np.exp(-0.5 * ((mesh[0] - 0.5) ** 2
                                      + mesh[1] ** 2 + mesh[2] ** 2)))
    v = Field(g, 0.06 * np.exp(-0.4 * (mesh[0] ** 2 + (mesh[1] + 0.3) ** 2
                                       + mesh[2] ** 2)))
    bd = energy_breakdown(U0f, W, u, v, mu, p)
    lhs = bd.main + bd.l_val + bd.q_val + bd.h_val
    assert abs(bd.total - lhs) <= 1e-12 * abs(bd.total)


def test_crossterm_decay(townes, params):
    # quad(U0^2 W^2) should fall off exponentially in R; the fitted rate
    # comes out near 1 (the product of unit-rate tails along the segment)
    radii = (2.5, 3.5, 4.5)
    vals = []
    for R in radii:
        g = grid_for_radius(R, 1.0, 2, 8)
        U = radial_field(g, townes)
        W = bump_sum_field(g, townes, bump_centers(8, R, 2))
        vals.append(quad_product(U, U, W, W))
    gamma = -0.5 * np.polyfit(radii, np.log(vals), 1)[0]
    assert gamma > 0.5


def test_radial_field_profile(townes):
    g = make_grid(2, 8.0, 0.25)
    f = radial_field(g, townes)
    centre = g.n_axis // 2
    assert f.data[centre, centre] == pytest.approx(townes.peak, abs=1e-14)
    assert np.array_equal(f.data, f.data.T)


def test_potential_field_values(params):
    g = make_grid(2, 8.0, 0.5)
    mu = make_potential(params)
    f = potential_field(g, mu)
    centre = g.n_axis // 2
    assert f.data[centre, centre] == pytest.approx(2.0, rel=1e-15)
    assert f.data[0, 0] == pytest.approx(float(mu(8.0 * math.sqrt(2.0))),
                                         rel=1e-15)
