"""Ring placement of bumps, sectors, symmetry projection, R-derivatives.

The k bumps sit at x_i = (R cos(2(i-1)pi/k), R sin(2(i-1)pi/k)), padded
with a zero third coordinate in 3-D.  The symmetric class is generated
by the rotation Q through 2pi/k in the (y1, y2)-plane together with the
coordinate reflections y_n -> -y_n for n >= 2; symmetrize averages a
field over that group.  The elements whose matrix is a signed
permutation of the axes (the quarter-turn rotations the group contains,
with and without y2 -> -y2) form a subgroup H of order 2 gcd(k, 4) and
act by exact node permutations; _node_subgroup builds H once for both
users below.  The other elements form the cosets H r_m^-1, r_m the
rotation by 2pi m/k, 1 <= m < q = k/gcd(k, 4).  symmetrize therefore
forms the exact H-average F_H = Sigma_h f o h by node permutations and
interpolates it (quintic splines) once per coset at r_m^-1 x, for one
node x per H-orbit only: the half box of mirror_axes (y2 >= 0, y1 >= 0
for even k, y3 >= 0 in 3-D), cut to y1 >= y2 when k = 0 mod 4, about an
eighth of the grid at k = 16.  The averages at those nodes are scattered
back by the node permutations of H, so the result is H-invariant bit for
bit, and the half box is the same one on which the corrector's linear
solves run.  Memory is O(nodes) and independent of k.

H also permutes the bumps: the node permutation by h of the field of
bump j is the field of the bump at h^-1 x_j, whose index is j - s or
s - j (mod k) for h the rotation by 2pi s/k without or with the flip.
ring_fields therefore assembles W = Sigma V_i, Sigma V_i^3, the radius
mode Z = Sigma V_i^2 dV_i/dR and the overlap Sigma_{i>=2} int V_1^3 V_i
in one pass that evaluates the profile once per H-orbit of bumps (3
orbits at k = 16, 5 at k = 32) and adds the permuted images of that
one evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter

from .grid import Field, Grid, quad_product
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


def sector_membership(y, config: BumpConfiguration):
    """Index (1-based) of the sector cone containing y.

    Sector i is {z : x_i . z >= R |z| cos(pi/k)} in the first two
    coordinates; boundary ties go to the smaller index and the origin
    goes to sector 1.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    pts = y.reshape(-1, y.shape[-1])[:, :2]
    norms = np.linalg.norm(pts, axis=1)
    cosang = math.cos(math.pi / config.k)
    out = np.zeros(pts.shape[0], dtype=int)
    todo = norms > 0.0
    out[~todo] = 1
    for i in range(config.k):
        if not np.any(todo):
            break
        hit = todo & (pts @ config.normals[i] >= norms * cosang - 1e-15)
        out[hit] = i + 1
        todo &= ~hit
    out[todo] = 1  # numerical stragglers on cone boundaries
    if single:
        return int(out[0])
    return out.reshape(y.shape[:-1])


def _bump_radii(config: BumpConfiguration, i: int, mesh):
    ci = config.centers[i]
    rho2 = (mesh[0] - ci[0]) ** 2 + (mesh[1] - ci[1]) ** 2
    for d in range(2, config.dim):
        rho2 = rho2 + mesh[d] ** 2
    return np.sqrt(rho2)


def _radial_derivative(profile: RadialProfile, config: BumpConfiguration,
                       i: int, y, rho: np.ndarray) -> np.ndarray:
    """∂V_i/∂R = −V0'(ρ)·((y−x_i)·n_i)/ρ for 0-based i.

    y holds one coordinate array per axis, broadcastable to ρ = |y−x_i|;
    where ρ = 0 the smooth limit 0 is returned.
    """
    c, n = config.centers[i], config.normals[i]
    proj = np.broadcast_to((y[0] - c[0]) * n[0] + (y[1] - c[1]) * n[1],
                           rho.shape)
    out = np.zeros(rho.shape)
    ok = rho > 0.0
    out[ok] = -eval_profile_deriv(profile, rho[ok]) * proj[ok] / rho[ok]
    return out


def d_bump_dR(profile: RadialProfile, config: BumpConfiguration,
              i: int, y):
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
    out = _radial_derivative(profile, config, i - 1, pts.T, rho)
    if single:
        return float(out[0])
    return out.reshape(y.shape[:-1])


@dataclass
class RingFields:
    """Sums over the ring on one grid; the parts not requested are None.

    W = Sigma_i V_i, cubes = Sigma_i V_i^3, Z = Sigma_i V_i^2 ∂V_i/∂R and
    overlap = Sigma_{i>=2} int V_1^3 V_i (trapezoid quadrature).
    """

    W: np.ndarray
    cubes: np.ndarray | None = None
    Z: np.ndarray | None = None
    overlap: float | None = None


def _ring_orbits(k: int, dim: int) -> list:
    """The H-orbits of the bump indices 0..k-1.

    Each orbit is (j, images): j its smallest index and images the pairs
    (i, h), one h in H per distinct i with h^-1 x_j = x_i, so that the
    node permutation of bump j by h is bump i.  Bump 0's orbit comes last
    and ends with bump 0 itself.
    """
    subgroup = _node_subgroup(k, dim)
    orbits = []
    seen = set()
    for j in range(k):
        if j in seen:
            continue
        images = {}
        for s, flip2, h in subgroup:
            images.setdefault((s - j) % k if flip2 else (j - s) % k, h)
        seen.update(images)
        orbits.append((j, list(images.items())))
    # the identity comes first in H, so bump 0 is its orbit's first image
    _, first = orbits.pop(0)
    orbits.append((0, first[1:] + first[:1]))
    return orbits


def ring_fields(g: Grid, profile: RadialProfile, config: BumpConfiguration,
                cubes: bool = False, constraint: bool = False,
                overlap: bool = False) -> RingFields:
    """W, and on request Sigma V_i^3, Z and the overlap, in one pass.

    The profile (and, for Z, its derivative) is evaluated once per
    H-orbit representative j; every bump of the orbit is then a node
    permutation of V_j, V_j^3 and V_j^2 ∂V_j/∂R.  Bump 1's orbit is
    summed last: the overlap is taken against W while W holds every
    other bump, and V_1 is added after it.  The summation order does not
    depend on which parts are requested, so W is the same floats for
    every caller.
    """
    mesh = g.mesh()
    W = np.zeros(g.shape)
    C = np.zeros(g.shape) if cubes else None
    Z = np.zeros(g.shape) if constraint else None
    total = None
    for j, images in _ring_orbits(config.k, g.dim):
        rho = _bump_radii(config, j, mesh)
        vj = eval_profile(profile, rho)
        cj = vj ** 3 if cubes or (overlap and j == 0) else None
        zj = None
        if constraint:
            zj = vj * vj * _radial_derivative(profile, config, j, mesh, rho)
        del rho
        for i, h in images:
            if overlap and i == 0:
                total = quad_product(Field(g, cj), Field(g, W))
            W += _apply_signed_permutation(vj, h)
            if cubes:
                C += _apply_signed_permutation(cj, h)
            if constraint:
                Z += _apply_signed_permutation(zj, h)
    return RingFields(W=W, cubes=C, Z=Z, overlap=total)


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
    """The origin-centred profile U0(|y|) sampled on the grid."""
    mesh = g.mesh()
    r2 = mesh[0] ** 2 + mesh[1] ** 2
    for d in range(2, g.dim):
        r2 = r2 + mesh[d] ** 2
    return Field(g, eval_profile(profile, np.sqrt(r2)))


def _apply_signed_permutation(a: np.ndarray, M: np.ndarray) -> np.ndarray:
    """b with b[idx] = a[index of M @ y(idx)] for signed-permutation M."""
    dim = M.shape[0]
    perm = []
    flips = []
    for s in range(dim):
        d = int(np.argmax(np.abs(M[s])))
        perm.append(d)
        flips.append(slice(None, None, -1) if M[s, d] < 0 else slice(None))
    b = a[tuple(flips)]
    return np.transpose(b, axes=perm)


def _rotation_matrix(theta: float, dim: int, flip2: bool) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    M = np.eye(dim)
    M[0, 0], M[0, 1] = c, -s
    M[1, 0], M[1, 1] = s, c
    if flip2:
        M[:, 1] *= -1.0
    return M


def _node_subgroup(k: int, dim: int) -> list:
    """H as (s, flip2, h): h the rotation by 2πs/k, s a multiple of
    q = k/gcd(k, 4), composed with y2 → −y2 when flip2, as an exact
    signed-permutation matrix.  Enumerated rotation index first, then
    flip, the order in which the group is enumerated."""
    q = k // math.gcd(k, 4)
    return [(s, flip2,
             np.round(_rotation_matrix(2.0 * math.pi * s / k, dim, flip2)))
            for s in range(0, k, q) for flip2 in (False, True)]


def mirror_axes(k: int | None, dim: int) -> tuple:
    """The axes n whose reflection y_n -> -y_n lies in the fold-k class:
    y2 (and y3 in 3-D) always, y1 when k is even, since the rotation by
    pi then lies in the group.  With k None no axis is mirrored."""
    return () if k is None else tuple(range(k % 2, dim))


def half_box(g: Grid, axes: tuple) -> tuple:
    """Index of the part of the box from the centre node on along each of
    axes, the other axes whole."""
    c = (g.n_axis - 1) // 2
    return tuple(slice(c, None) if ax in axes else slice(None)
                 for ax in range(g.dim))


def mirror_back(a: np.ndarray, axes: tuple) -> np.ndarray:
    """The full-box array, even in each of axes, whose half_box part is a."""
    for ax in axes:
        mirror = [slice(None)] * a.ndim
        mirror[ax] = slice(None, 0, -1)
        a = np.concatenate([a[tuple(mirror)], a], axis=ax)
    return a


def symmetrize(f: Field, k: int) -> Field:
    """Average f over the symmetry group G (rotations by 2π/k and the
    reflections y_n → −y_n, n ≥ 2).

    The subgroup H of elements that permute grid nodes (rotations by
    multiples of π/2, each with and without y2 → −y2) is applied
    exactly: F_H = Σ_h f∘h, in 3-D also averaged with its y3 mirror.
    When H is all of G (q = k/gcd(k, 4) = 1) that is the answer.
    Otherwise F_H is prefiltered once for quintic splines, and each
    coset, 1 ≤ m < q, costs one interpolation of F_H at r_m⁻¹·x, r_m the
    rotation by 2πm/k.  Only one node x per H-orbit is interpolated: the
    half box of mirror_axes (y2 ≥ 0; also y1 ≥ 0 for even k; y3 ≥ 0 in
    3-D), and within it y1 ≥ y2 when k ≡ 0 mod 4.  The average at those
    nodes is scattered back by the |H| node permutations (a transpose
    for k ≡ 0 mod 4, then the axis mirrors), so the output is
    H-invariant bit for bit.

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
    subgroup = [h for _s, _flip2, h in _node_subgroup(k, dim)]

    exact_total = np.zeros(g.shape)
    for h in subgroup:
        exact_total += _apply_signed_permutation(a, h)
    if q == 1:
        out = exact_total / len(subgroup)
        if dim == 3:
            out = 0.5 * (out + out[:, :, ::-1])
        return Field(g, out)
    if dim == 3:
        exact_total = 0.5 * (exact_total + exact_total[:, :, ::-1])
    # the B-spline prefilter map_coordinates would otherwise rerun on
    # every call (mode "constant" needs no padding)
    coeffs = spline_filter(exact_total, order=5, output=np.float64,
                           mode="constant")
    axes = mirror_axes(k, dim)
    part = half_box(g, axes)
    mesh = np.meshgrid(*(g.axis[s] for s in part), indexing="ij")
    rep = mesh[0] >= mesh[1] if k % 4 == 0 else np.ones(mesh[0].shape, bool)
    pts = np.stack([x[rep] for x in mesh])
    del mesh
    total = exact_total[part][rep]
    del exact_total
    cosets = np.ones(total.size, dtype=int)
    for m in range(1, q):
        coords = _rotation_matrix(-2.0 * math.pi * m / k, dim, False) @ pts
        vals = map_coordinates(coeffs, (coords + g.L) / g.h, order=5,
                               mode="constant", cval=0.0, prefilter=False)
        inbox = np.all(np.abs(coords) <= g.L + 1e-12, axis=0)
        total += np.where(inbox, vals, 0.0)
        cosets += inbox
    out = np.zeros(rep.shape)
    out[rep] = total / (len(subgroup) * cosets)
    if k % 4 == 0:
        out = np.where(rep, out, out.swapaxes(0, 1))
    return Field(g, mirror_back(out, axes))
