from __future__ import annotations

import math

import numpy as np
import pytest

from ringnls import radial

# frozen regression values from the default-resolution solver; moments
# cross-validated against an independent adaptive integration carrying
# the integrals as extra ODE variables (agreement 6e-10 or better)
TOWNES_PEAK = 2.206200864650663
TOWNES_M2 = 11.700896525928904
TOWNES_M4 = 23.40179306244636
TOWNES_M = 3.5036693675025803
N3_PEAK = 4.337387679977044
N3_M2 = 18.897251302545257
N3_M4 = 75.58900521018317


def test_sech_oracle():
    p = radial.ground_state(1.0, 1.0, 1)
    exact = math.sqrt(2.0) / np.cosh(p.r)
    assert np.max(np.abs(p.values - exact)) < 1e-6
    assert np.max(np.abs(p.values - exact)) < 1e-9  # typically ~1e-12
    assert p.peak == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert p.moment2 == pytest.approx(4.0, abs=1e-9)
    assert p.moment4 == pytest.approx(16.0 / 3.0, abs=1e-9)
    # elementary bound sqrt(2) sech r <= 2 sqrt(2) e^-r is tight at r -> 0
    assert p.decay_const == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-2)
    assert p.decay_const == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-6)


def test_townes_frozen_values():
    p = radial.ground_state(1.0, 1.0, 2)
    assert p.peak == pytest.approx(TOWNES_PEAK, rel=1e-9)
    assert p.moment2 == pytest.approx(TOWNES_M2, rel=1e-8)
    assert p.moment4 == pytest.approx(TOWNES_M4, rel=1e-8)
    assert p.decay_const == pytest.approx(TOWNES_M, rel=1e-6)
    # literature anchors for the planar critical profile
    assert p.peak == pytest.approx(2.2062, abs=1e-3)
    assert p.moment2 == pytest.approx(11.7009, rel=1e-3)


def test_three_d_frozen_values():
    p = radial.ground_state(1.0, 1.0, 3)
    assert p.peak == pytest.approx(N3_PEAK, rel=1e-9)
    assert p.moment2 == pytest.approx(N3_M2, rel=1e-8)
    assert p.moment4 == pytest.approx(N3_M4, rel=1e-8)


@pytest.mark.parametrize("c,alpha,dim", [
    (1.0, 1.0, 1), (1.0, 1.0, 2), (1.0, 1.0, 3), (4.0, 1.0, 2),
])
def test_profile_invariants(c, alpha, dim):
    p = radial.ground_state(c, alpha, dim)
    assert np.all(p.values > 0.0)
    assert np.all(np.diff(p.values) < 0.0)
    assert np.all(p.deriv[1:] < 0.0) and p.deriv[0] == 0.0
    assert p.max_residual < 1e-8 * p.peak
    assert p.values[-1] < 1e-10 * p.peak
    # decay bound with the returned constant holds at every node
    rr = p.r[1:]
    env = p.decay_const * np.exp(-math.sqrt(c) * rr) \
        * np.minimum(1.0, rr ** (-0.5 * (dim - 1)))
    assert np.all(p.values[1:] <= env * (1.0 + 1e-12))


@pytest.mark.parametrize("c,alpha", [(4.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
@pytest.mark.parametrize("dim", [1, 2])
def test_scaling_covariance(c, alpha, dim):
    base = radial.ground_state(1.0, 1.0, dim)
    p = radial.ground_state(c, alpha, dim)
    rs = np.linspace(0.0, 8.0 / math.sqrt(c), 160)
    scaled = np.sqrt(alpha / c) * radial.eval_profile(p, rs)
    ref = radial.eval_profile(base, math.sqrt(c) * rs)
    assert np.max(np.abs(scaled - ref)) < 1e-6 * base.peak
    # moment scaling identities: m2 ~ c^(1-N/2)/alpha, m4 ~ c^(2-N/2)/alpha^2
    assert p.moment2 == pytest.approx(
        c ** (1.0 - 0.5 * dim) / alpha * base.moment2, rel=1e-8)
    assert p.moment4 == pytest.approx(
        c ** (2.0 - 0.5 * dim) / alpha ** 2 * base.moment4, rel=1e-8)


def test_scaling_covariance_three_d():
    base = radial.ground_state(1.0, 1.0, 3)
    p = radial.ground_state(2.0, 3.0, 3)
    assert p.peak == pytest.approx(math.sqrt(2.0 / 3.0) * base.peak, rel=1e-9)
    assert p.moment2 == pytest.approx(
        2.0 ** (-0.5) / 3.0 * base.moment2, rel=1e-8)


def test_moment_quadrature_refinement():
    p = radial.ground_state(1.0, 1.0, 2)
    n = p.r.size
    fine = radial.solve_ground_state(1.0, 1.0, 2, r_max=p.r[-1],
                                     n_nodes=2 * n - 1)
    assert abs(fine.moment2 - p.moment2) < 1e-6 * p.moment2
    assert abs(fine.moment4 - p.moment4) < 1e-6 * p.moment4
    assert abs(fine.moment2 - p.moment2) < 1e-3 * p.moment2


def test_eval_profile_and_deriv():
    p = radial.ground_state(1.0, 1.0, 1)
    assert radial.eval_profile(p, 0.0) == pytest.approx(p.peak, abs=1e-14)
    assert radial.eval_profile(p, 1.0) == pytest.approx(
        math.sqrt(2.0) / math.cosh(1.0), abs=1e-9)
    # parity pins the slope at the origin up to collocation round-off
    assert abs(radial.eval_profile_deriv(p, 0.0)) < 1e-15
    assert radial.eval_profile_deriv(p, 1.0) == pytest.approx(
        -math.sqrt(2.0) / math.cosh(1.0) * math.tanh(1.0), abs=1e-9)

    # beyond the grid: exponential continuation, monotone to zero
    r_end = p.r[-1]
    v_end = radial.eval_profile(p, r_end)
    for dr in (0.5, 1.0, 3.0):
        assert radial.eval_profile(p, r_end + dr) == pytest.approx(
            v_end * math.exp(-dr), rel=1e-12)
    tail = [radial.eval_profile(p, r_end + dr) for dr in (0.0, 1.0, 2.0, 5.0)]
    assert all(a > b > 0.0 for a, b in zip(tail, tail[1:]))

    # derivative agrees with a centered difference of the evaluator
    for r0 in (0.5, 1.5, 3.0):
        fd = (radial.eval_profile(p, r0 + 1e-5)
              - radial.eval_profile(p, r0 - 1e-5)) / 2e-5
        assert radial.eval_profile_deriv(p, r0) == pytest.approx(fd, abs=1e-6)


def test_deriv_nonpositive_everywhere():
    p = radial.ground_state(1.0, 1.0, 2)
    rs = np.linspace(0.0, p.r[-1] + 4.0, 5000)
    assert np.max(radial.eval_profile_deriv(p, rs)) <= 0.0


def test_csv_round_trip_bit_exact():
    p = radial.ground_state(1.0, 1.0, 2)
    q = radial.load_profile_csv(radial.dump_profile_csv(p))
    assert np.array_equal(q.r, p.r)
    assert np.array_equal(q.values, p.values)
    assert np.array_equal(q.deriv, p.deriv)
    assert q.peak == p.peak and q.decay_const == p.decay_const
    assert q.moment2 == p.moment2 and q.moment4 == p.moment4
    assert q.c == p.c and q.alpha == p.alpha and q.dim == p.dim


def test_input_validation():
    with pytest.raises(ValueError):
        radial.solve_ground_state(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        radial.solve_ground_state(1.0, -1.0, 2)
    with pytest.raises(ValueError):
        radial.solve_ground_state(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        radial.solve_ground_state(1.0, 1.0, 2, r_max=5.0)


def test_ground_state_memoized():
    a = radial.ground_state(1.0, 1.0, 2)
    b = radial.ground_state(1.0, 1.0, 2)
    assert a is b


def test_random_parameter_draws():
    # residual, monotonicity and the peak scaling law across random draws
    rng = np.random.default_rng(11)
    for _ in range(4):
        c = float(rng.uniform(0.6, 3.5))
        alpha = float(rng.uniform(0.5, 3.0))
        dim = int(rng.integers(1, 4))
        p = radial.solve_ground_state(c, alpha, dim)
        base = radial.ground_state(1.0, 1.0, dim)
        assert p.max_residual < 1e-8 * p.peak
        assert np.all(np.diff(p.values) < 0.0)
        assert p.peak == pytest.approx(
            math.sqrt(c / alpha) * base.peak, rel=1e-9)


def _where_value(p, r):
    """eval_profile as first written: the spline and the tail run on every
    radius and np.where picks one; kept as the oracle for the split."""
    r = np.asarray(r, dtype=float)
    out = p._spline(np.minimum(r, p.r_max))
    far = r > p.r_max
    if np.any(far):
        out = np.where(far, p.values[-1] * np.exp(-p.sqrt_c * (r - p.r_max)),
                       out)
    return out


def _where_deriv(p, r):
    """eval_profile_deriv as first written (see _where_value)."""
    r = np.asarray(r, dtype=float)
    out = p._dspline(np.minimum(r, p.r_max))
    far = r > p.r_max
    if np.any(far):
        out = np.where(far, -p.sqrt_c * p.values[-1]
                       * np.exp(-p.sqrt_c * (r - p.r_max)), out)
    return out


def _assert_matches_where_oracle(p, r):
    for fast, oracle in ((radial.eval_profile, _where_value),
                         (radial.eval_profile_deriv, _where_deriv)):
        got, want = fast(p, r), oracle(p, r)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


def test_eval_split_matches_where_on_production_grid():
    # k = 24 at its mid-window radius: the default 517^2 grid, where many
    # nodes lie beyond r_max = 30 from each bump
    from ringnls.geometry import _bump_radii, bump_centers
    from ringnls.grid import grid_for_radius
    from ringnls.model import mid_radius

    p = radial.ground_state(1.0, 1.0, 2)
    R = mid_radius(24, 1.0, 2.0)
    assert R == pytest.approx(12.14, abs=5e-3)
    g = grid_for_radius(R, 1.0, 2)
    assert g.n_axis == 517
    cfg = bump_centers(24, R, 2)
    for i in (0, 5, 13):
        rho = _bump_radii(cfg, i, g.mesh())
        far = rho > p.r_max
        assert 0 < np.count_nonzero(far) < rho.size
        _assert_matches_where_oracle(p, rho)


def test_eval_split_matches_where_three_d():
    from ringnls.geometry import _bump_radii, bump_centers
    from ringnls.grid import make_grid

    p = radial.ground_state(1.0, 1.0, 3)
    g = make_grid(3, 24.0, 1.0)
    rho = _bump_radii(bump_centers(2, 8.0, 3), 1, g.mesh())
    assert 0 < np.count_nonzero(rho > p.r_max) < rho.size
    _assert_matches_where_oracle(p, rho)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_eval_split_matches_where_at_scalars(dim):
    p = radial.ground_state(1.0, 1.0, dim)
    for r in (0.0, p.r_max, np.nextafter(p.r_max, -np.inf),
              np.nextafter(p.r_max, np.inf), p.r_max + 5.0):
        _assert_matches_where_oracle(p, r)
