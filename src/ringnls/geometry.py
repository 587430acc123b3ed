"""Ring placement of bumps, symmetry projection, R-derivatives.

The k bumps sit at x_i = (R cos(2(i-1)pi/k), R sin(2(i-1)pi/k)), padded
with a zero third coordinate in 3-D.  The symmetric class is generated
by the rotation Q through 2pi/k in the (y1, y2)-plane together with the
coordinate reflections y_n -> -y_n for n >= 2.  The reflections of the
axes mirror_axes(k) (y2, y3 in 3-D, and y1 for even k) lie in the group,
so a symmetric field is known from the part of the box they fix, the
nodes from the centre on along each of those axes: half the box for odd
k, a quarter (an eighth in 3-D) for even k.  That part, the grid
``grid.grid_for_radius`` builds, is the only layout symmetrize and
ring_fields accept.

The elements of the group whose matrix is a signed permutation of the
axes (the quarter-turn rotations it contains, with and without y2 ->
-y2) form a subgroup H of order 2 gcd(k, 4).  On the part, H+, the
elements of H that map the part onto itself, is the identity and, for k
= 0 mod 4, the transpose of y1 and y2; every other element of H agrees
there with one of H+, since the field is even in the mirrored axes.  The
other elements of the group form the cosets H r_m^-1, r_m the rotation
by 2pi m/k, 1 <= m < q = k/gcd(k, 4).  symmetrize therefore forms the
exact H-average F_H on the part, |H| f or |H|/2 (f + f^T), and
interpolates it (quintic splines) once per coset at r_m^-1 x, for one
node x per H-orbit only: the part, cut to y1 >= y2 when k = 0 mod 4,
about an eighth of the grid at k = 16.  The averages at those nodes are
scattered back by the transpose, so the result is H-invariant bit for
bit.  Memory is O(nodes) and independent of k.

H+ also permutes the bumps: the transpose maps the field of bump j to
that of bump k/4 - j (mod k).  ring_fields therefore assembles W = Sigma
V_i, Sigma V_i^3 and the radius mode Z = Sigma V_i^2 dV_i/dR on the part,
in one pass that evaluates the profile once per H+-orbit of bumps (9
orbits of a quarter box at k = 16, 2.25 full-box evaluations) and adds
that evaluation and its transposed image straight into the sums.  The
neighbour overlap Sigma_{i>=2} int V_1^3 V_i is no grid sum; the energy
module takes it off the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter

from .grid import Field, Grid, mirror_axes
from .radial import RadialProfile, eval_profile, eval_profile_deriv


@dataclass(frozen=True)
class BumpConfiguration:
    """k centers on the circle of radius R, first one on the +y1 axis."""

    k: int
    R: float
    dim: int
    centers: np.ndarray   # (k, dim)
    normals: np.ndarray   # (k, 2), unit vectors x_i / R

    @property
    def nearest_distance(self) -> float:
        """Chord length between adjacent centers, 2R sin(pi/k)."""
        if self.k == 1:
            return math.inf
        return 2.0 * self.R * math.sin(math.pi / self.k)


def bump_centers(k: int, R: float, dim: int) -> BumpConfiguration:
    if k < 1:
        raise ValueError(f"need at least one bump, got k={k}")
    if R <= 0:
        raise ValueError(f"ring radius must be positive, got R={R}")
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    ang = 2.0 * math.pi * np.arange(k) / k
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    centers = np.zeros((k, dim))
    centers[:, :2] = R * normals
    return BumpConfiguration(k=k, R=float(R), dim=dim,
                             centers=centers, normals=normals)


def node_radii(g: Grid, centre=None, out=None) -> np.ndarray:
    """|y - centre| at every node of g (|y| when centre is None), written
    into out when given (a new array otherwise).

    The squared distance is summed in place: the first two axes' terms
    are broadcast to the full shape by the first add, then the others are
    added one by one, in the order of the sum (y1 term + y2 term) + y3
    term.
    """
    mesh = g.mesh()
    if centre is None:
        centre = np.zeros(g.dim)
    if out is None:
        out = np.empty(g.shape)
    np.add((mesh[0] - centre[0]) ** 2, (mesh[1] - centre[1]) ** 2, out=out)
    for d in range(2, g.dim):
        out += (mesh[d] - centre[d]) ** 2
    return np.sqrt(out, out=out)


def _radial_derivative(profile: RadialProfile, config: BumpConfiguration,
                       i: int, y, rho: np.ndarray, out=None,
                       proj=None) -> np.ndarray:
    """∂V_i/∂R = −V0'(ρ)·((y−x_i)·n_i)/ρ for 0-based i, into out.

    y holds one coordinate array per axis, broadcastable to ρ = |y−x_i|;
    where ρ = 0 the smooth limit 0 is returned.  out (of ρ's shape) and
    proj (of the shape of the first two axes' broadcast) receive the
    result and the projection (y−x_i)·n_i when given; new arrays
    otherwise.
    """
    c, n = config.centers[i], config.normals[i]
    proj = np.add((y[0] - c[0]) * n[0], (y[1] - c[1]) * n[1], out=proj)
    # on the whole array, no gather of the ρ > 0 nodes, formed in place;
    # the 0/0 at ρ = 0 is then overwritten by the limit
    out = eval_profile_deriv(profile, rho, out=out)
    np.negative(out, out=out)
    out *= proj
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= rho
    out[rho == 0.0] = 0.0
    return out


@dataclass
class RingFields:
    """Sums over the ring on one grid, W = Sigma_i V_i, cubes = Sigma_i
    V_i^3 and Z = Sigma_i V_i^2 ∂V_i/∂R; the parts not requested are None."""

    W: np.ndarray
    cubes: np.ndarray | None = None
    Z: np.ndarray | None = None


def _ring_orbits(k: int) -> list:
    """The H+-orbits of the bump indices 0..k-1.

    Each orbit is (j, images): j its smallest index and images the pairs
    (i, swap), the identity's (j, False) first and, for k = 0 mod 4 when
    it is another bump, the transpose's (k/4 - j mod k, True): the field
    of bump j, transposed in y1 and y2 when swap, is bump i on the part.
    """
    orbits = []
    seen = set()
    for j in range(k):
        if j in seen:
            continue
        images = [(j, False)]
        t = (k // 4 - j) % k
        if k % 4 == 0 and t != j:
            images.append((t, True))
        seen.update(i for i, _swap in images)
        orbits.append((j, images))
    return orbits


def ring_fields(g: Grid, profile: RadialProfile, config: BumpConfiguration,
                cubes: bool = False, constraint: bool = False) -> RingFields:
    """W, and on request Sigma V_i^3 and Z, in one pass.

    g must be the part of the box folded on mirror_axes(k), as
    ``grid.grid_for_radius`` builds it; any other grid is refused
    (ValueError), and the arrays come back on g.  The profile (and, for
    Z, its derivative) is evaluated on g once per H+-orbit representative
    j; the other bump of the orbit, if any, is the y1/y2 transpose of V_j,
    V_j^3 and V_j^2 dV_j/dR there.  Each orbit adds straight into the
    sums, in orbit order, so W is the same floats for every caller.

    Every array but the returned sums is a row of one block, allocated
    once per call, reused by every orbit with the profile evaluated
    straight into it, and freed on return: rho, whose row takes V_j^3
    once rho is read for the last time, V_j, V_j^2 dV_j/dR and the
    projection (y - x_j).n_j (a separate plane in 3-D).  The peak is
    therefore the sums and the block, one part-sized allocation per call.
    """
    axes = mirror_axes(config.k, g.dim)
    if g.mirrored != axes:
        raise ValueError(f"grid folded on axes {g.mirrored}, the "
                         f"fold-{config.k} class mirrors {axes}")
    mesh = g.mesh()
    W = np.zeros(g.shape)
    C = np.zeros(g.shape) if cubes else None
    Z = np.zeros(g.shape) if constraint else None
    # one orbit's rho (then V^3), V, V^2 dV/dR and the projection when it
    # is part-sized
    plane = np.broadcast_shapes(mesh[0].shape, mesh[1].shape)
    full_proj = constraint and plane == g.shape
    block = np.empty((2 + constraint + full_proj,) + g.shape)
    rho_row, v_row = block[0], block[1]
    zj = proj = None
    if constraint:
        zj, proj = block[2], (block[3] if full_proj else np.empty(plane))
    for j, images in _ring_orbits(config.k):
        rho = node_radii(g, config.centers[j], out=rho_row)
        vj = eval_profile(profile, rho, out=v_row)
        if constraint:
            zj = _radial_derivative(profile, config, j, mesh, rho, out=zj,
                                    proj=proj)
            zj *= vj
            zj *= vj
        cj = np.power(vj, 3, out=rho_row) if cubes else None
        for _i, swap in images:
            for total, a in ((W, vj), (C, cj), (Z, zj)):
                if total is not None:
                    total += a.swapaxes(0, 1) if swap else a
    return RingFields(W=W, cubes=C, Z=Z)


def bump_sum_field(g: Grid, profile: RadialProfile,
                   config: BumpConfiguration) -> Field:
    """Sigma_i V0(|y - x_i|) sampled on the grid (ring_fields' W)."""
    return Field(g, ring_fields(g, profile, config).W)


def bump_cubes_field(g: Grid, profile: RadialProfile,
                     config: BumpConfiguration) -> Field:
    """Sigma_i V0(|y - x_i|)^3 sampled on the grid."""
    return Field(g, ring_fields(g, profile, config, cubes=True).cubes)


def constraint_field(g: Grid, profile: RadialProfile,
                     config: BumpConfiguration) -> Field:
    """Z(y) = Sigma_i V_i(y)^2 ∂V_i/∂R(y), the radius-mode direction."""
    return Field(g, ring_fields(g, profile, config, constraint=True).Z)


def radial_field(g: Grid, profile: RadialProfile) -> Field:
    """The origin-centred profile U0(|y|) sampled on the grid, evaluated
    in place over the radii."""
    r = node_radii(g)
    return Field(g, eval_profile(profile, r, out=r))


def _rotation_matrix(theta: float, dim: int) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    M = np.eye(dim)
    M[0, 0], M[0, 1] = c, -s
    M[1, 0], M[1, 1] = s, c
    return M


def symmetrize(f: Field, k: int) -> Field:
    """Average f over the symmetry group G (rotations by 2π/k and the
    reflections y_n → −y_n, n ≥ 2).

    f must be folded on mirror_axes(k), the layout of
    ``grid.grid_for_radius``; any other grid is refused (ValueError), and
    the answer comes back on f's grid.  f is even in those axes, so there
    every element of the subgroup H of node permutations (rotations by
    multiples of π/2, each with and without y2 → −y2) acts as the
    identity or, for k ≡ 0 mod 4, as the transpose of y1 and y2: the
    exact H-average is F_H = |H|/2 (f + fᵀ) or |H| f.  When H is all of G
    (q = k/gcd(k, 4) = 1) F_H / |H| is the answer.  Otherwise F_H is
    prefiltered once for quintic splines on the part (SciPy's spline
    boundary reflects the coefficients about index 0 of a folded axis,
    which is the fold), and each coset, 1 ≤ m < q, costs one
    interpolation of F_H at r_m⁻¹·x, r_m the rotation by 2π m/k, read at
    |r_m⁻¹·x| along the folded axes.  Only one node x per H-orbit is
    interpolated: the part itself (y2 ≥ 0; also y1 ≥ 0 for even k; y3 ≥ 0
    in 3-D), and within it y1 ≥ y2 when k ≡ 0 mod 4.  The average at
    those nodes is scattered back by the transpose for k ≡ 0 mod 4, so
    the output is H-invariant bit for bit.

    In exact arithmetic this is the average over every element of G:
    G = G⁻¹, so the elements h·r_m⁻¹ run over G as the r_m·h do; the
    spline commutes with the grid's signed permutations, so the spline
    of F_H read at r_m⁻¹·x is Σ_h of that of f read at h·r_m⁻¹·x; and h
    maps the box onto itself, so the number of elements that keep x in
    the box (the square's corner zone |y| > L is not rotation-covariant,
    and each node averages over those elements only) depends on m alone.
    Memory is O(nodes) and independent of k.
    """
    g = f.grid
    a = f.data
    dim = g.dim
    q = k // math.gcd(k, 4)
    axes = mirror_axes(k, dim)
    n_h = 2 * math.gcd(k, 4)
    if g.mirrored != axes:
        raise ValueError(f"field folded on axes {g.mirrored}, the "
                         f"fold-{k} class mirrors {axes}")
    # |H|/2 and |H| are powers of 2: the scalings are exact
    part_total = (0.5 * n_h * (a + a.swapaxes(0, 1)) if k % 4 == 0
                  else n_h * a)
    if q == 1:
        return Field(g, part_total / n_h)
    # The B-spline coefficients of F_H, prefiltered once rather than by
    # every map_coordinates call.  The prefilter's "mirror" boundary (the
    # same filter as "constant") and map_coordinates' "constant" mode
    # inside the array both reflect the coefficients about the end node
    # without repeating it: at index 0 of a folded axis that is the fold,
    # so the part's coefficients read at |y| give the box's value at y.
    coeffs = spline_filter(part_total, order=5, output=np.float64,
                           mode="mirror")
    mesh = np.meshgrid(*g.axes(), indexing="ij")
    rep = mesh[0] >= mesh[1] if k % 4 == 0 else np.ones(mesh[0].shape, bool)
    pts = np.stack([x[rep] for x in mesh])
    del mesh
    total = part_total[rep]
    del part_total
    cosets = np.ones(total.size, dtype=int)
    for m in range(1, q):
        coords = _rotation_matrix(-2.0 * math.pi * m / k, dim) @ pts
        inbox = np.all(np.abs(coords) <= g.L + 1e-12, axis=0)
        # node index of each coordinate, in place: |y| / h on an axis the
        # coefficients are folded on, (y + L) / h on a full axis
        for ax in range(dim):
            if ax in axes:
                np.abs(coords[ax], out=coords[ax])
            else:
                coords[ax] += g.L
        coords /= g.h
        vals = map_coordinates(coeffs, coords, order=5, mode="constant",
                               cval=0.0, prefilter=False)
        total += np.where(inbox, vals, 0.0)
        cosets += inbox
    out = np.zeros(rep.shape)
    out[rep] = total / (n_h * cosets)
    if k % 4 == 0:
        out = np.where(rep, out, out.swapaxes(0, 1))
    return Field(g, out)
