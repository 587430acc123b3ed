from __future__ import annotations

import math

import numpy as np
import pytest

from ringnls import radial
from traced import traced_peak

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


def test_default_node_counts():
    # 140 r_max / s is exactly 4200 for N = 1, so the ceil of the node-count
    # rule must not see the solver's last digits
    for (c, alpha, dim), n in (((1.0, 1.0, 1), 4201), ((1.0, 1.0, 2), 5845),
                               ((1.0, 1.0, 3), 6001), ((4.0, 1.0, 2), 5845)):
        assert len(radial.ground_state(c, alpha, dim).r) == n


def test_nonconvergence_raises():
    r = np.linspace(0.0, 30.0, 801)
    with pytest.raises(radial.GroundStateError, match="Petviashvili"):
        radial._petviashvili(1.0, 1.0, 2, r, max_iter=3)
    with pytest.raises(radial.GroundStateError, match="Newton"):
        radial._newton(1.0, 1.0, 2, r, 2.0 * np.exp(-0.5 * r * r), 1e-10,
                       max_iter=2)
    assert issubclass(radial.GroundStateError, RuntimeError)


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
    fine = radial.solve_ground_state(1.0, 1.0, 2, n_nodes=2 * n - 1)
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


def _horner(table, step, r):
    """The Taylor table at radii r ≤ r_max by the operations of
    eval_profile, on every radius at once."""
    x = r / step
    i = np.clip(x.astype(np.intp), 0, table.shape[1] - 1)
    t = x - i
    acc = table[-1][i]
    for row in table[-2::-1]:
        acc = acc * t + row[i]
    return acc


def _tail_decay(p, r):
    """e^{-κ (r − r_max)}, κ = −w'/w at r_max, by the operations of the
    evaluators' tail."""
    kappa = -p.deriv[-1] / p.values[-1]
    return np.exp(-kappa * (r - p.r_max))


def _where_value(p, r):
    """eval_profile without the split: the table and the tail run on every
    radius and np.where picks one; kept as the oracle for the split."""
    r = np.asarray(r, dtype=float)
    out = _horner(p._table, p._step, np.minimum(r, p.r_max))
    far = r > p.r_max
    if np.any(far):
        out = np.where(far, p.values[-1] * _tail_decay(p, r), out)
    return out


def _where_deriv(p, r):
    """eval_profile_deriv without the split (see _where_value)."""
    r = np.asarray(r, dtype=float)
    out = _horner(p._dtable, p._step, np.minimum(r, p.r_max))
    far = r > p.r_max
    if np.any(far):
        out = np.where(far, p.deriv[-1] * _tail_decay(p, r), out)
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
    from ringnls.geometry import bump_centers, node_radii
    from ringnls.grid import grid_for_radius
    from ringnls.model import mid_radius

    p = radial.ground_state(1.0, 1.0, 2)
    R = mid_radius(24, 1.0)
    assert R == pytest.approx(12.14, abs=5e-3)
    g = grid_for_radius(R, 1.0, 2, 24).with_mirrored(())
    assert g.n_axis == 517
    cfg = bump_centers(24, R, 2)
    for i in (0, 5, 13):
        rho = node_radii(g, cfg.centers[i])
        far = rho > p.r_max
        assert 0 < np.count_nonzero(far) < rho.size
        _assert_matches_where_oracle(p, rho)


def test_eval_split_matches_where_three_d():
    from ringnls.geometry import bump_centers, node_radii
    from ringnls.grid import make_grid

    p = radial.ground_state(1.0, 1.0, 3)
    g = make_grid(3, 24.0, 1.0)
    rho = node_radii(g, bump_centers(2, 8.0, 3).centers[1])
    assert 0 < np.count_nonzero(rho > p.r_max) < rho.size
    _assert_matches_where_oracle(p, rho)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_eval_split_matches_where_at_scalars(dim):
    p = radial.ground_state(1.0, 1.0, dim)
    for r in (0.0, p.r_max, np.nextafter(p.r_max, -np.inf),
              np.nextafter(p.r_max, np.inf), p.r_max + 5.0):
        _assert_matches_where_oracle(p, r)


def _production_radii(dim):
    """Radii of every node of a default grid from one bump of a k = 24
    ring at its mid-window radius (2-D) or a k = 2 pair (3-D); many lie
    beyond r_max."""
    from ringnls.geometry import bump_centers, node_radii
    from ringnls.grid import grid_for_radius, make_grid
    from ringnls.model import mid_radius

    if dim == 2:
        R = mid_radius(24, 1.0)
        return node_radii(grid_for_radius(R, 1.0, 2, 24).with_mirrored(()),
                          bump_centers(24, R, 2).centers[5])
    return node_radii(make_grid(3, 24.0, 1.0),
                      bump_centers(2, 8.0, 3).centers[1])


@pytest.mark.parametrize("dim", [2, 3])
def test_eval_matches_hermite_and_tail(dim):
    # inside r_max the values and slopes are SciPy's piecewise quintic
    # that matches w, w' and w'' at every node, w'' from the equation,
    # and its derivative; beyond r_max they are the tail formula.  The
    # radii include (0, 5 Δr), which the production radii do not sample.
    # SciPy's derivative rounds to ~1e-13 of the peak slope even at the
    # nodes, so the slopes are held to that and to the stored nodes
    from scipy.interpolate import BPoly

    p = radial.ground_state(1.0, 1.0, dim)
    w, slope = p.values, p.deriv
    bend = np.empty_like(w)
    bend[1:] = (p.c * w[1:] - p.alpha * w[1:] ** 3
                - (dim - 1) / p.r[1:] * slope[1:])
    bend[0] = (p.c * w[0] - p.alpha * w[0] ** 3) / dim
    hermite = BPoly.from_derivatives(p.r, np.stack([w, slope, bend], axis=1))
    rho = _production_radii(dim)
    far = rho > p.r_max
    assert 0 < np.count_nonzero(far) < rho.size
    near_origin = np.random.default_rng(5).uniform(0.0, 5.0 * p.r[1], 500)
    inside = np.concatenate([[0.0, p.r_max], p.r, near_origin, rho[~far]])
    decay = _tail_decay(p, rho[far])
    top = np.max(np.abs(slope))
    assert np.max(np.abs(radial.eval_profile_deriv(p, p.r) - slope)) \
        <= 1e-15 * top
    for fast, oracle, tail_scale, tol in (
            (radial.eval_profile, hermite, w[-1], 1e-15 * p.peak),
            (radial.eval_profile_deriv, hermite.derivative(), slope[-1],
             1e-12 * top)):
        assert np.max(np.abs(fast(p, inside) - oracle(inside))) <= tol
        got = fast(p, rho)
        assert not np.any(np.isnan(got))
        assert np.array_equal(got[far], tail_scale * decay)
        for r in (0.0, p.r_max, p.r_max + 1.0):
            assert np.shape(fast(p, r)) == ()
            assert np.shape(fast(p, np.float64(r))) == ()


@pytest.mark.parametrize("dim", [2, 3])
def test_eval_end_intervals_and_tail_joint(dim):
    # the last two knot intervals agree with a solve on twice the nodes,
    # whose extra nodes are their midpoints (the mirrored end conditions
    # of a global spline fit were off by 9e-4 relative there), and value
    # and slope are continuous at r_max, where the tail takes over
    p = radial.ground_state(1.0, 1.0, dim)
    fine = radial.solve_ground_state(1.0, 1.0, dim, n_nodes=2 * p.r.size - 1)
    mids = fine.r[-4::2]
    assert p.r[-3] < mids[0] < p.r[-2] < mids[1] < p.r[-1]
    for fast, nodes in ((radial.eval_profile, fine.values),
                        (radial.eval_profile_deriv, fine.deriv)):
        want = nodes[-4::2]
        assert np.all(np.abs(fast(p, mids) - want) <= 1e-12 * np.abs(want))
        at, beyond = fast(p, p.r_max), fast(p, np.nextafter(p.r_max, np.inf))
        assert abs(at - beyond) <= 1e-13 * abs(at)


@pytest.mark.parametrize("dim", [2, 3])
def test_eval_into_out_matches_allocating_form(dim):
    # written into a caller's array, into the radii themselves, or into
    # a new one, the values are the same bits, and those of the oracle
    # without the split; the radii span chunks that are all near, all
    # far and mixed
    p = radial.ground_state(1.0, 1.0, dim)
    n = 3 * radial._CHUNK + 5
    r = np.concatenate([np.linspace(0.0, p.r_max, n),
                        np.linspace(p.r_max, 3.0 * p.r_max, n)])
    r = np.concatenate([r, np.random.default_rng(5).permutation(r)])
    r = r.reshape(4, -1)
    for fast, oracle in ((radial.eval_profile, _where_value),
                         (radial.eval_profile_deriv, _where_deriv)):
        want = fast(p, r)
        assert want.tobytes() == oracle(p, r).tobytes()
        out = np.full_like(r, np.nan)
        assert fast(p, r, out=out) is out
        assert out.tobytes() == want.tobytes()
        same = r.copy()
        assert fast(p, same, out=same) is same
        assert same.tobytes() == want.tobytes()


@pytest.mark.parametrize("where", ["mixed", "far"])
def test_eval_temporaries_bounded(where):
    # beside the returned array, one evaluation on N radii holds at most
    # 3 N float64 of temporaries (bounded memory for 3-D fields); a numpy
    # Horner over gathered coefficients of all N radii at once would hold
    # about 6 N
    p = radial.ground_state(1.0, 1.0, 2)
    n = 200_000
    lo = 0.0 if where == "mixed" else p.r_max + 1.0
    r = np.linspace(lo, 3.0 * p.r_max, n)
    for fast in (radial.eval_profile, radial.eval_profile_deriv):
        fast(p, r[:8])
        out, peak = traced_peak(fast, p, r)
        assert peak - out.nbytes <= 3 * n * 8


def _sparse_operator(c, dim, r):
    """radial._operator as first assembled with scipy.sparse: a ghost
    matrix maps the nodes onto the ghosted array, the 9-point stencils
    act on that, and the result is returned dense."""
    from scipy import sparse

    n = r.size
    h = r[1] - r[0]
    cols = np.concatenate([np.arange(4, 0, -1), np.arange(n), np.full(4, n - 1)])
    vals = np.concatenate([np.ones(n + 4), radial._far_ghosts(c, dim, r, 1.0)])
    ghosts = sparse.csr_matrix((vals, (np.arange(n + 8), cols)),
                               shape=(n + 8, n))
    d1, d2 = (sparse.diags(list(weights), range(9), shape=(n, n + 8))
              @ ghosts / h ** p
              for p, weights in ((1, radial._G8), (2, radial._D8)))
    curvature, friction = radial._coefficients(dim, r)
    return (c * sparse.identity(n) - sparse.diags(curvature) @ d2
            - sparse.diags(friction) @ d1).toarray()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_banded_operator_matches_sparse_assembly(dim):
    # every entry of the banded operator, the ghost-folded first and last
    # four rows included, against the sparse assembly on the floor grid
    c = 1.3
    r = np.linspace(0.0, 30.0 / math.sqrt(c), radial._FLOOR_NODES)
    n = r.size
    want = _sparse_operator(c, dim, r)
    bands = radial._operator(c, dim, r)
    assert bands.shape == (9, n)
    got = np.zeros((n, n))
    for u in range(9):
        d = 4 - u  # band u holds the entries (i, i + d)
        i = np.arange(n)
        inside = (i + d >= 0) & (i + d < n)
        got[i[inside], i[inside] + d] = bands[u, i[inside] + d]
        # the slots of the band layout outside the matrix stay empty
        assert np.all(bands[u, (i - d < 0) | (i - d >= n)] == 0.0)
    for rows in (slice(0, 4), slice(4, n - 4), slice(n - 4, n)):
        assert np.all(np.abs(got[rows] - want[rows])
                      <= 1e-14 * np.abs(want[rows]))
    w = np.exp(-r)
    assert np.max(np.abs(radial._band_product(bands, w) - want @ w)) \
        <= 1e-14 * np.max(np.abs(want @ w))
