"""Bump placement, sectors, the symmetry projector, and ∂V_i/∂R."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import ndimage

from ringnls import geometry, grid, radial
from symmetry_oracles import (apply_signed_permutation, fold, fold_even,
                              node_subgroup, ring_per_bump, rotation, sample,
                              symmetrize_per_element, unfold)
from traced import traced_peak


@pytest.fixture(scope="module")
def townes():
    return radial.ground_state(1.0, 1.0, 2)


@pytest.fixture(scope="module")
def ring8(townes):
    """k=8 ring on a production-padded grid, with its ansatz and Z."""
    conf = geometry.bump_centers(8, 3.0, 2)
    g = grid.grid_for_radius(3.0, 1.0, 2, 8)
    W = geometry.bump_sum_field(g, townes, conf)
    Z = geometry.constraint_field(g, townes, conf)
    return conf, g, W, Z


def test_centers_k4():
    conf = geometry.bump_centers(4, 2.0, 2)
    want = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])
    assert np.max(np.abs(conf.centers - want)) < 1e-14


def test_centers_k2_dim3():
    conf = geometry.bump_centers(2, 1.0, 3)
    want = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert np.max(np.abs(conf.centers - want)) < 1e-14


def test_chord_length():
    # adjacent centers are 2R sin(pi/k) apart; hexagon of unit radius
    # has unit side
    conf = geometry.bump_centers(6, 1.0, 2)
    assert abs(conf.nearest_distance - 1.0) < 1e-14
    d = np.linalg.norm(conf.centers[0] - conf.centers[1])
    assert abs(d - conf.nearest_distance) < 1e-14


def test_centers_on_circle_and_rotation_closed():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(2, 24))
        R = float(rng.uniform(0.5, 12.0))
        conf = geometry.bump_centers(k, R, 2)
        assert np.max(np.abs(np.linalg.norm(conf.centers, axis=1) - R)) < 1e-12 * R
        th = 2.0 * math.pi / k
        Q = np.array([[math.cos(th), -math.sin(th)],
                      [math.sin(th), math.cos(th)]])
        rotated = conf.centers @ Q.T
        # rotation advances each center to the next one
        assert np.max(np.abs(rotated - np.roll(conf.centers, -1, axis=0))) < 1e-12 * R


def test_bad_configuration_rejected():
    with pytest.raises(ValueError):
        geometry.bump_centers(0, 1.0, 2)
    with pytest.raises(ValueError):
        geometry.bump_centers(4, -1.0, 2)
    with pytest.raises(ValueError):
        geometry.bump_centers(4, 1.0, 4)


def d_bump_dR(profile, config, i, y):
    """∂V_i/∂R at y (1-based i): −V0'(ρ)·((y−x_i)·n_i)/ρ, ρ = |y−x_i|.

    The bump center moves radially outward with R, so the value rises on
    the far side of the bump and falls on the near side; at y = x_i the
    smooth limit is 0 since V0'(0) = 0.
    """
    if not 1 <= i <= config.k:
        raise ValueError(f"bump index {i} outside 1..{config.k}")
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    pts = y.reshape(-1, y.shape[-1])
    rho = np.linalg.norm(pts - config.centers[i - 1], axis=1)
    out = geometry._radial_derivative(profile, config, i - 1, pts.T, rho)
    if single:
        return float(out[0])
    return out.reshape(y.shape[:-1])


def test_d_bump_at_center_is_zero(townes):
    conf = geometry.bump_centers(5, 2.5, 2)
    for i in range(1, 6):
        assert d_bump_dR(townes, conf, i, conf.centers[i - 1]) == 0.0
    with pytest.raises(ValueError):
        d_bump_dR(townes, conf, 6, np.zeros(2))


def test_d_bump_matches_radius_difference(townes):
    """Central difference in R reproduces the chain-rule formula."""
    rng = np.random.default_rng(3)
    R, k = 2.5, 5
    conf = geometry.bump_centers(k, R, 2)
    h = 1e-5
    up = geometry.bump_centers(k, R + h, 2)
    dn = geometry.bump_centers(k, R - h, 2)
    for _ in range(200):
        y = rng.normal(size=2) * 3.0
        i = int(rng.integers(1, k + 1))
        got = d_bump_dR(townes, conf, i, y)
        rho_up = np.linalg.norm(y - up.centers[i - 1])
        rho_dn = np.linalg.norm(y - dn.centers[i - 1])
        fd = (radial.eval_profile(townes, rho_up)
              - radial.eval_profile(townes, rho_dn)) / (2.0 * h)
        assert abs(got - fd) < 1e-8 * (1.0 + abs(got))


def test_d_bump_sign_on_outward_ray(townes):
    # beyond the bump on its own ray the bump moves toward y as R grows,
    # so the value must rise
    conf = geometry.bump_centers(4, 2.0, 2)
    y = np.array([3.5, 0.0])
    assert d_bump_dR(townes, conf, 1, y) > 0.0
    # inside the ring the same motion carries the bump away
    assert d_bump_dR(townes, conf, 1, np.array([0.5, 0.0])) < 0.0


def test_single_bump_cubes(townes):
    conf = geometry.bump_centers(1, 1.0, 2)
    g = grid.make_grid(2, 6.0, 0.25).with_mirrored(grid.mirror_axes(1, 2))
    s = geometry.bump_sum_field(g, townes, conf)
    cubes = geometry.bump_cubes_field(g, townes, conf)
    assert np.max(np.abs(cubes.data - s.data ** 3)) < 1e-13


def test_symmetrize_idempotent_exact_k4():
    # rotations by multiples of pi/2 permute grid nodes, so the k=4
    # projector is exact: applying it twice changes nothing
    g = grid.make_grid(2, 6.0, 0.125)
    f = fold_even(sample(g, lambda x, y: np.exp(
        -2.0 * ((x - 1.2) ** 2 + (y - 0.4) ** 2))), (0, 1))
    s1 = geometry.symmetrize(f, 4)
    s2 = geometry.symmetrize(s1, 4)
    assert np.max(np.abs(s2.data - s1.data)) < 1e-13


def test_symmetrize_fixed_point_k4():
    g = grid.make_grid(2, 6.0, 0.125)
    f = fold(sample(g, lambda x, y: np.exp(-0.7 * (x * x + y * y))),
                  (0, 1))
    s = geometry.symmetrize(f, 4)
    assert np.max(np.abs(s.data - f.data)) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 4])
def test_symmetrize_exact_k_never_interpolates(monkeypatch, k):
    """When every group element permutes nodes, the spline interpolant
    is never built."""
    def boom(*args, **kwargs):
        raise AssertionError("interpolation path entered")

    monkeypatch.setattr(geometry, "spline_filter", boom)
    monkeypatch.setattr(geometry, "map_coordinates", boom)
    g = grid.make_grid(2, 4.0, 0.25)
    f = sample(g, lambda x, y: np.exp(-2.0 * ((x - 1.2) ** 2 + (y - 0.4) ** 2)))
    geometry.symmetrize(fold_even(f, grid.mirror_axes(k, 2)), k)


def _broad_bump(g):
    """An off-centre bump still O(1) at the box wall and in its corners,
    where rotated nodes leave the box and each node averages over fewer
    group elements."""
    if g.dim == 2:
        return sample(g, lambda x, y: 0.5 * np.exp(
            -0.02 * ((x - 0.7) ** 2 + (y + 0.3) ** 2)))
    return sample(g, lambda x, y, z: (0.5 + 0.05 * z) * np.exp(
        -0.02 * ((x - 0.7) ** 2 + (y + 0.3) ** 2 + z * z)))


@pytest.mark.parametrize("dim,k,wall", [
    *((2, k, wall) for k in (3, 5, 6, 8, 16) for wall in (False, True)),
    (2, 12, False), (2, 32, False), (2, 12, True),
    *((3, k, False) for k in (3, 5, 6, 8)), (3, 8, True)])
def test_symmetrize_matches_per_element_average(dim, k, wall):
    """Interpolating the H-average once per coset at one node per H-orbit
    of the folded part and scattering it back gives the per-element
    average of the full box to rounding, also (wall=True) for a field
    that does not vanish at the box wall."""
    if dim == 2:
        g = grid.make_grid(2, 6.0, 0.125)
        f = sample(g, lambda x, y: np.exp(
            -2.0 * ((x - 1.2) ** 2 + (y - 0.4) ** 2)))
    else:
        g = grid.make_grid(3, 4.0, 0.25)
        f = sample(g, lambda x, y, z: (1.0 + 0.3 * z) * np.exp(
            -2.0 * ((x - 1.0) ** 2 + (y - 0.3) ** 2 + z * z)))
    if wall:
        f = grid.Field(g, f.data + _broad_bump(g).data)
    axes = grid.mirror_axes(k, dim)
    want = fold(grid.Field(g, symmetrize_per_element(f, k)), axes).data
    got = geometry.symmetrize(fold_even(f, axes), k).data
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _node_permuting_elements(k, dim):
    """The group elements whose matrix is a signed permutation, found by
    testing every rotation by 2 pi m / k with and without y2 -> -y2."""
    out = []
    for m in range(k):
        for flip2 in (False, True):
            M = rotation(2.0 * math.pi * m / k, dim, flip2)
            if np.max(np.abs(M - np.round(M))) < 1e-12:
                out.append(np.round(M))
    return out


def _node_orbit_count(n_axis, k):
    """Number of orbits of the nodes of a 2-D grid under those elements."""
    c = (n_axis - 1) // 2
    elements = _node_permuting_elements(k, 2)
    seen = set()
    orbits = 0
    for i in range(n_axis):
        for j in range(n_axis):
            if (i, j) in seen:
                continue
            orbits += 1
            for M in elements:
                a, b = (M @ np.array([i - c, j - c])).astype(int)
                seen.add((int(a) + c, int(b) + c))
    return orbits


@pytest.mark.parametrize("k", [3, 5, 6, 8, 12, 16, 32])
def test_symmetrize_one_interpolation_per_coset(monkeypatch, k):
    """symmetrize interpolates k/gcd(k, 4) - 1 times, not 2k - |H|, and
    each time at exactly one node per orbit of the node permutations."""
    points = []

    def counted(coeffs, coords, **kwargs):
        points.append(coords.shape[1])
        return ndimage.map_coordinates(coeffs, coords, **kwargs)

    monkeypatch.setattr(geometry, "map_coordinates", counted)
    g = grid.make_grid(2, 4.0, 0.25)
    f = sample(g, lambda x, y: np.exp(-2.0 * ((x - 1.2) ** 2 + (y - 0.4) ** 2)))
    geometry.symmetrize(fold_even(f, grid.mirror_axes(k, 2)), k)
    orbits = _node_orbit_count(g.n_axis, k)
    assert points == [orbits] * (k // math.gcd(k, 4) - 1)


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("dim,k", [
    *((2, k) for k in (3, 5, 6, 8, 16)), (3, 3), (3, 8)])
def test_symmetrize_exactly_invariant(dim, k, wall):
    """The output, unfolded to the full box, is invariant bit for bit
    under every node permutation of the group, and in 3-D under y3 ->
    -y3, since it is scattered from one node per orbit; also (wall=True)
    where the corner zone of the box carries weight."""
    if dim == 2:
        g = grid.make_grid(2, 4.0, 0.25)
        f = sample(g, lambda x, y: np.exp(
            -2.0 * ((x - 1.2) ** 2 + (y - 0.4) ** 2)) + 0.1 * x)
    else:
        g = grid.make_grid(3, 3.0, 0.5)
        f = sample(g, lambda x, y, z: (1.0 + 0.3 * z) * np.exp(
            -2.0 * ((x - 1.0) ** 2 + (y - 0.3) ** 2 + z * z)))
    if wall:
        f = grid.Field(g, f.data + _broad_bump(g).data)
    s = unfold(geometry.symmetrize(
        fold_even(f, grid.mirror_axes(k, dim)), k)).data
    for M in _node_permuting_elements(k, dim):
        assert np.max(np.abs(apply_signed_permutation(s, M) - s)) == 0.0
    if dim == 3:
        assert np.max(np.abs(s[:, :, ::-1] - s)) == 0.0


def _even_field(g, axes):
    """Off-centre bumps made even in each of axes, with a broad part
    that is still O(1) at the box wall."""
    def fn(*y):
        out = 0.5 * np.exp(-0.02 * sum(c * c for c in y))
        for signs in np.ndindex(*(2,) * len(axes)):
            shift = [0.0] * g.dim
            shift[0], shift[1] = 1.2, 0.4
            for ax, s in zip(axes, signs):
                shift[ax] *= -1.0 if s else 1.0
            out = out + np.exp(-2.0 * sum((c - d) ** 2
                                          for c, d in zip(y, shift)))
        return out
    return sample(g, fn)


@pytest.mark.parametrize("dim,k", [(2, 3), (2, 5), (2, 6), (2, 16), (3, 6)])
def test_symmetrize_folded_stays_on_part(monkeypatch, dim, k):
    """The orbit average of a folded field is computed and returned on
    the part: the one spline prefilter runs on a part-sized array."""
    g = grid.make_grid(2, 6.0, 0.125) if dim == 2 else \
        grid.make_grid(3, 4.0, 0.25)
    axes = grid.mirror_axes(k, dim)
    f = _even_field(g, axes)
    part = g.with_mirrored(axes)
    filtered = []

    def part_filter(a, **kwargs):
        filtered.append(a.shape)
        return ndimage.spline_filter(a, **kwargs)

    monkeypatch.setattr(geometry, "spline_filter", part_filter)
    got = geometry.symmetrize(fold(f, axes), k)
    assert got.grid == part
    assert filtered == [part.shape]


def test_symmetrize_fast_peak_memory():
    """One interpolating call at k = 16 allocates at most 10 sizes of its
    folded input at its peak: the H-average, its spline coefficients, and
    arrays over half the part (7.6 of them)."""
    g = grid.make_grid(2, 12.0, 0.125)
    f = fold_even(sample(g, lambda x, y: np.exp(
        -0.5 * ((x - 3.0) ** 2 + y * y))), (0, 1))
    _, peak = traced_peak(geometry.symmetrize, f, 16)
    assert peak <= 10 * f.data.nbytes


def test_symmetrize_memory_independent_of_k():
    """The orbit average streams over the group: its peak allocation at
    k = 32 stays within that at k = 8 instead of growing with k."""
    g = grid.make_grid(2, 12.0, 0.125)
    f = fold_even(sample(g, lambda x, y: np.exp(
        -0.5 * ((x - 3.0) ** 2 + y * y))), (0, 1))

    def peak(k):
        return traced_peak(geometry.symmetrize, f, k)[1]

    assert peak(32) <= 1.25 * peak(8)


def test_symmetrize_orbit_average_k4():
    """A bump planted at x_1 alone spreads into four equal bumps of a
    quarter of the amplitude (8 group elements, each center hit twice)."""
    g = grid.make_grid(2, 4.0, 0.25)
    b = sample(g, lambda x, y: np.exp(-8.0 * ((x - 1.5) ** 2 + y * y)))
    folded = geometry.symmetrize(fold_even(b, (0, 1)), 4)
    s = unfold(folded)
    i0 = int(np.argmin(np.abs(g.axis - 1.5)))
    mid = g.n_axis // 2
    peaks = [s.data[i0, mid], s.data[mid, i0],
             s.data[g.n_axis - 1 - i0, mid], s.data[mid, g.n_axis - 1 - i0]]
    for pv in peaks:
        assert abs(pv - 0.25 * b.data[i0, mid]) < 1e-12
    # and the output is exactly invariant under a quarter turn
    assert np.max(np.abs(geometry.symmetrize(folded, 4).data
                         - folded.data)) < 1e-13


def test_symmetrize_dim3():
    g = grid.make_grid(3, 6.0, 0.25)
    f = sample(g, lambda x, y, z: (1.0 + 0.3 * z)
                    * np.exp(-2.0 * ((x - 1.0) ** 2 + (y - 0.3) ** 2 + z * z)))
    s1 = geometry.symmetrize(fold_even(f, (1, 2)), 3)
    # output stored folded on y3, so even in the third coordinate
    assert s1.grid.mirrored == (1, 2)
    full = unfold(s1).data
    assert np.max(np.abs(full - full[:, :, ::-1])) == 0.0


def test_fast_projector_consistent(ring8):
    conf, _, W, _ = ring8
    fast = geometry.symmetrize(W, conf.k)
    assert np.max(np.abs(fast.data - W.data)) < 2e-6


@pytest.mark.parametrize("dim,k", [
    *((2, k) for k in (1, 2, 3, 4, 5, 6, 8, 12, 16, 24)),
    *((3, k) for k in (2, 3, 4, 5))])
def test_ring_fields_match_per_bump_assembly(dim, k):
    """One evaluation per H+-orbit on the folded part, transposed onto
    the other bump of the orbit, gives the fold of the full-box per-bump
    sums to rounding."""
    profile = radial.ground_state(1.0, 1.0, dim)
    if dim == 2:
        R = 2.0 + 0.25 * k
        g = grid.make_grid(2, R + 8.0, 0.25)
    else:
        R = 2.5
        g = grid.make_grid(3, 7.0, 0.5)
    conf = geometry.bump_centers(k, R, dim)
    axes = grid.mirror_axes(k, dim)
    W, cubes, Z, _overlap = ring_per_bump(g, profile, conf)
    part = g.with_mirrored(axes)
    got = geometry.ring_fields(part, profile, conf, cubes=True,
                               constraint=True)
    for mine, want in ((got.W, W), (got.cubes, cubes), (got.Z, Z)):
        want = fold(grid.Field(g, want), axes).data
        assert mine.shape == part.shape
        assert np.max(np.abs(mine - want)) <= 1e-13 * np.max(np.abs(want))


def test_ring_fields_rejects_grid_folded_for_another_k():
    profile = radial.ground_state(1.0, 1.0, 2)
    g = grid.make_grid(2, 8.0, 0.5).with_mirrored(grid.mirror_axes(3, 2))
    with pytest.raises(ValueError, match="fold-4 class"):
        geometry.ring_fields(g, profile, geometry.bump_centers(4, 3.0, 2))


# grids that are not the part of the fold-k class: the full box, and
# boxes folded on a subset or a superset of mirror_axes(k)
WRONG_LAYOUTS = [(2, 3, ()), (2, 3, (0, 1)), (2, 4, ()), (2, 4, (1,)),
                 (3, 3, ()), (3, 3, (1,)), (3, 2, (0, 1))]


@pytest.mark.parametrize("dim,k,mirrored", WRONG_LAYOUTS)
def test_ring_fields_refuse_other_layouts(dim, k, mirrored):
    profile = radial.ground_state(1.0, 1.0, dim)
    g = grid.make_grid(dim, 6.0, 0.5).with_mirrored(mirrored)
    with pytest.raises(ValueError, match=f"fold-{k} class"):
        geometry.ring_fields(g, profile, geometry.bump_centers(k, 2.0, dim))


@pytest.mark.parametrize("dim,k,mirrored", WRONG_LAYOUTS)
def test_symmetrize_refuses_other_layouts(dim, k, mirrored):
    g = grid.make_grid(dim, 3.0, 0.5).with_mirrored(mirrored)
    with pytest.raises(ValueError, match=f"fold-{k} class"):
        geometry.symmetrize(grid.zeros(g), k)


@pytest.mark.parametrize("dim", [2, 3])
def test_ring_orbits_match_node_subgroup(dim):
    """For k = 1..40 the H+-orbits and their image order are those found
    from the node permutations of H that have no negative entry (the ones
    that map the folded part onto itself), bump j going to s - j or j - s
    (mod k) under the rotation by 2 pi s / k with or without the flip."""
    transpose = np.eye(dim)
    transpose[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    for k in range(1, 41):
        positive = [(s, flip2, h) for s, flip2, h in node_subgroup(k, dim)
                    if np.all(h >= 0.0)]
        want = []
        seen = set()
        for j in range(k):
            if j in seen:
                continue
            images = {}
            for s, flip2, h in positive:
                images.setdefault((s - j) % k if flip2 else (j - s) % k, h)
            seen.update(images)
            want.append((j, [(i, not np.array_equal(h, np.eye(dim)))
                             for i, h in images.items()]))
            assert all(np.array_equal(h, np.eye(dim))
                       or np.array_equal(h, transpose)
                       for h in images.values())
        assert geometry._ring_orbits(k) == want


def test_ring_fields_memory_independent_of_k():
    """The orbits stream through part-sized arrays: the peak allocation
    at k = 32 stays within one part size of that at k = 8."""
    profile = radial.ground_state(1.0, 1.0, 2)
    part = grid.make_grid(2, 14.0, 0.125).with_mirrored((0, 1))

    def peak(k):
        conf = geometry.bump_centers(k, 6.0, 2)
        return traced_peak(geometry.ring_fields, part, profile, conf,
                           cubes=True, constraint=True)[1]

    assert peak(32) <= peak(8) + part.size * 8


@pytest.mark.parametrize("dim,R,h", [(2, 7.06, 0.125), (3, 14.12, 0.5)])
def test_ring_fields_peak_memory(dim, R, h):
    """At k = 16 with Sigma V_i^3 and Z requested, ring_fields holds W,
    Sigma V_i^3 and Z and one orbit's rho (then V_j^3), V_j and V_j^2
    dV_j/dR, rows of one block with the projection (a plane beside it in
    3-D): its traced peak is 8.3 (2-D) and 6.2 (3-D) part sizes above its
    start."""
    profile = radial.ground_state(1.0, 1.0, dim)
    conf = geometry.bump_centers(16, R, dim)
    part = grid.grid_for_radius(R, 1.0, dim, 16, h=h)
    _, peak = traced_peak(geometry.ring_fields, part, profile, conf,
                          cubes=True, constraint=True)
    assert peak <= 9.0 * part.size * 8


# summed sizes passed to eval_profile and eval_profile_deriv by
# build_inputs at h = 0.5, on the full box before assembly moved onto the
# folded part, and now
POINTS_BEFORE_AND_NOW = {3: (36125, 25585), 5: (52983, 42108),
                         16: (86247, 59584), 24: (154449, 117612),
                         32: (257499, 207515)}


@pytest.mark.parametrize("k,orbits", [(3, 2), (5, 3), (16, 3), (24, 4),
                                      (32, 5)])
def test_build_inputs_one_evaluation_per_orbit(monkeypatch, k, orbits):
    """build_inputs evaluates the profile once for U0 and once per
    H+-orbit of bumps, and its derivative once per H+-orbit, each on the
    part of the box folded on mirror_axes(k).  orbits counts the H-orbits
    of the full-box assembly this replaced, which evaluated 1 + 2 orbits
    full boxes of points; the part never evaluates more."""
    from ringnls.corrector import build_inputs
    from ringnls.model import ModelParams, mid_radius

    points = {"value": 0, "deriv": 0}

    def counting(kind, fn):
        def wrapper(profile, r, out=None):
            points[kind] += r.size
            return fn(profile, r, out=out)
        return wrapper

    monkeypatch.setattr(geometry, "eval_profile",
                        counting("value", geometry.eval_profile))
    monkeypatch.setattr(geometry, "eval_profile_deriv",
                        counting("deriv", geometry.eval_profile_deriv))
    params = ModelParams()
    inputs = build_inputs(k, mid_radius(k, params.m), params,
                          h=0.5)
    full = inputs.g.with_mirrored(())
    part = full.with_mirrored(grid.mirror_axes(k, 2))
    assert inputs.g == part
    n_orbits = len(geometry._ring_orbits(k))
    assert points == {"value": (1 + n_orbits) * part.size,
                      "deriv": n_orbits * part.size}
    before, now = POINTS_BEFORE_AND_NOW[k]
    assert before == (1 + 2 * orbits) * full.size
    assert sum(points.values()) == now <= before
