"""Ring placement of bumps, sectors, symmetry projection, R-derivatives.

The k bumps sit at x_i = (R cos(2(i-1)pi/k), R sin(2(i-1)pi/k)), padded
with a zero third coordinate in 3-D.  The symmetric class is generated
by the rotation Q through 2pi/k in the (y1, y2)-plane together with the
coordinate reflections y_n -> -y_n for n >= 2; symmetrize averages a
field over that group.  The reflections of the axes mirror_axes(k) (y2,
y3 in 3-D, and y1 for even k) lie in the group, so a symmetric field is
known from the part of the box they fix, the nodes from the centre on
along each of those axes (``grid.fold``): half the box for odd k, a
quarter (an eighth in 3-D) for even k.  The elements whose matrix is a
signed permutation of the axes (the quarter-turn rotations the group
contains, with and without y2 -> -y2) form a subgroup H of order
2 gcd(k, 4) and act by exact node permutations; _node_subgroup builds H
once for both users below.  The other elements form the cosets H r_m^-1,
r_m the rotation by 2pi m/k, 1 <= m < q = k/gcd(k, 4).  symmetrize
therefore forms the exact H-average F_H = Sigma_h f o h by node
permutations and interpolates it (quintic splines) once per coset at
r_m^-1 x, for one node x per H-orbit only: the part of mirror_axes, cut
to y1 >= y2 when k = 0 mod 4, about an eighth of the grid at k = 16.
The averages at those nodes are scattered back by the node permutations
of H, so the result is H-invariant bit for bit.  A field already folded
onto the part is averaged there and returned folded: F_H, its spline
coefficients and the interpolation never touch the full box.  Memory is
O(nodes) and independent of k.

H also permutes the bumps: the node permutation by h of the field of
bump j is the field of the bump at h^-1 x_j, whose index is j - s or
s - j (mod k) for h the rotation by 2pi s/k without or with the flip.
On the part only H+, the elements of H that map the part onto itself
(the identity and, for k = 0 mod 4, the transpose of y1 and y2), act by
node permutations.  ring_fields therefore assembles W = Sigma V_i,
Sigma V_i^3, the radius mode Z = Sigma V_i^2 dV_i/dR and the overlap
Sigma_{i>=2} int V_1^3 V_i on the part, in one pass that evaluates the
profile once per H+-orbit of bumps on part-sized arrays (9 orbits of a
quarter box at k = 16, 2.25 full-box evaluations against the 3 of one
per H-orbit on the full box) and adds the permuted images of that one
evaluation; a full-box grid gets the part mirrored back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter

from .grid import Field, Grid, half_box, mirror_back, quad_product
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
    """The H+-orbits of the bump indices 0..k-1.

    H+ holds the elements of H that map the part of the box folded on
    mirror_axes(k) onto itself, those whose matrix has no negative entry:
    the identity and, for k = 0 mod 4, the transpose of y1 and y2.  Each
    orbit is (j, images): j its smallest index and images the pairs (i,
    h), one h in H+ per distinct i with h^-1 x_j = x_i, so that the node
    permutation of bump j by h is bump i on the part.
    """
    positive = [(s, flip2, h) for s, flip2, h in _node_subgroup(k, dim)
                if np.all(h >= 0.0)]
    orbits = []
    seen = set()
    for j in range(k):
        if j in seen:
            continue
        images = {}
        for s, flip2, h in positive:
            images.setdefault((s - j) % k if flip2 else (j - s) % k, h)
        seen.update(images)
        orbits.append((j, list(images.items())))
    return orbits


def ring_fields(g: Grid, profile: RadialProfile, config: BumpConfiguration,
                cubes: bool = False, constraint: bool = False,
                overlap: bool = False) -> RingFields:
    """W, and on request Sigma V_i^3, Z and the overlap, in one pass.

    The sums are assembled on the part of the box folded on mirror_axes(k)
    (``grid.fold``), whatever g is: the arrays come back folded for a grid
    folded there, mirrored back to the full box for an unfolded one, and
    a grid folded on other axes is refused (ValueError).  The profile
    (and, for Z, its derivative) is evaluated on the part once per
    H+-orbit representative j; every other bump of the orbit is a node
    permutation of V_j, V_j^3 and V_j^2 dV_j/dR there.

    V_1 alone is not even in y1, so for even k the overlap is half the
    part's quadrature of the mirror-even G = V_1^3 (W' + V_m) + V_m^3 (W'
    + V_1), m = k/2 + 1 the bump opposite x_1 and W' the sum of every
    other bump; for odd k it is the quadrature of V_1^3 W'.  Bumps 1 and
    m are held back and added last, after the overlap is taken, so every
    term is a sum of positive parts and no difference of sums cancels.
    The summation order does not depend on which parts are requested, so
    W is the same floats for every caller.
    """
    axes = mirror_axes(config.k, g.dim)
    if g.mirrored not in ((), axes):
        raise ValueError(f"grid folded on axes {g.mirrored}, the "
                         f"fold-{config.k} class mirrors {axes}")
    part = g.with_mirrored(axes)
    mesh = part.mesh()
    W = np.zeros(part.shape)
    C = np.zeros(part.shape) if cubes else None
    Z = np.zeros(part.shape) if constraint else None
    last = {0, config.k // 2} if config.k % 2 == 0 else {0}
    held = {}

    def add(parts):
        for total, a in zip((W, C, Z), parts):
            if total is not None:
                total += a

    for j, images in _ring_orbits(config.k, g.dim):
        rho = _bump_radii(config, j, mesh)
        vj = eval_profile(profile, rho)
        cj = None
        if cubes or (overlap and any(i in last for i, _h in images)):
            cj = vj ** 3
        zj = None
        if constraint:
            zj = vj * vj * _radial_derivative(profile, config, j, mesh, rho)
        del rho
        for i, h in images:
            parts = [None if a is None else _apply_signed_permutation(a, h)
                     for a in (vj, cj, zj)]
            if i in last:
                held[i] = parts
            else:
                add(parts)
        # a held bump keeps its arrays through held; free the others
        # before the next orbit allocates
        del vj, cj, zj, parts
    total = None
    if overlap:
        v1, c1, _ = held[0]
        if len(last) == 2:
            vm, cm, _ = held[config.k // 2]
            total = 0.5 * quad_product(Field(part, c1 * (W + vm)
                                             + cm * (W + v1)))
        else:
            total = quad_product(Field(part, c1), Field(part, W))
    for i in sorted(held, reverse=True):
        add(held.pop(i))
    if not g.mirrored:
        W, C, Z = (None if a is None else mirror_back(a, axes)
                   for a in (W, C, Z))
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


def symmetrize(f: Field, k: int) -> Field:
    """Average f over the symmetry group G (rotations by 2π/k and the
    reflections y_n → −y_n, n ≥ 2).

    The subgroup H of elements that permute grid nodes (rotations by
    multiples of π/2, each with and without y2 → −y2) is applied
    exactly: F_H = Σ_h f∘h, in 3-D also averaged with its y3 mirror.
    A field folded on mirror_axes(k) (``grid.fold``) is even in those
    axes, so there every element of H acts as the identity or, for
    k ≡ 0 mod 4, as the transpose of y1 and y2: F_H = |H|/2 (f + fᵀ) or
    |H| f, formed on the folded part, and the answer is folded too.
    When H is all of G (q = k/gcd(k, 4) = 1) that is the answer.
    Otherwise F_H is prefiltered once for quintic splines, on the part
    when f is folded (SciPy's spline boundary reflects the coefficients
    about index 0 of a folded axis, which is the fold), and each coset,
    1 ≤ m < q, costs one interpolation of F_H at r_m⁻¹·x, r_m the
    rotation by 2π m/k, read at |r_m⁻¹·x| along the folded axes.  Only
    one node x per H-orbit is interpolated: the half box of mirror_axes
    (y2 ≥ 0; also y1 ≥ 0 for even k; y3 ≥ 0 in 3-D), and within it
    y1 ≥ y2 when k ≡ 0 mod 4.  The average at those nodes is scattered
    back by the |H| node permutations (a transpose for k ≡ 0 mod 4, then,
    for a full-box f, the axis mirrors), so the output is H-invariant bit
    for bit.

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

    if g.mirrored:
        if g.mirrored != axes:
            raise ValueError(f"field folded on axes {g.mirrored}, the "
                             f"fold-{k} class mirrors {axes}")
        # |H|/2 and |H| are powers of 2: the scalings are exact
        part_total = (0.5 * n_h * (a + a.swapaxes(0, 1)) if k % 4 == 0
                      else n_h * a)
        if q == 1:
            return Field(g, part_total / n_h)
        source = part_total
    else:
        source = np.zeros(g.shape)
        for _s, _flip2, h in _node_subgroup(k, dim):
            source += _apply_signed_permutation(a, h)
        if q == 1:
            out = source / n_h
            if dim == 3:
                out = 0.5 * (out + out[:, :, ::-1])
            return Field(g, out)
        if dim == 3:
            source = 0.5 * (source + source[:, :, ::-1])
        part_total = source[half_box(g, axes)]
    # The B-spline coefficients of F_H, on the part when f is folded,
    # prefiltered once rather than by every map_coordinates call.  The
    # prefilter's "mirror" boundary (the same filter as "constant") and
    # map_coordinates' "constant" mode inside the array both reflect the
    # coefficients about the end node without repeating it: at index 0 of
    # a folded axis that is the fold, so the part's coefficients read at
    # |y| give the box's value at y.
    coeffs = spline_filter(source, order=5, output=np.float64, mode="mirror")
    del source
    mesh = np.meshgrid(*g.with_mirrored(axes).axes(), indexing="ij")
    rep = mesh[0] >= mesh[1] if k % 4 == 0 else np.ones(mesh[0].shape, bool)
    pts = np.stack([x[rep] for x in mesh])
    del mesh
    total = part_total[rep]
    del part_total
    cosets = np.ones(total.size, dtype=int)
    for m in range(1, q):
        coords = _rotation_matrix(-2.0 * math.pi * m / k, dim, False) @ pts
        inbox = np.all(np.abs(coords) <= g.L + 1e-12, axis=0)
        # node index of each coordinate, in place: |y| / h on an axis the
        # coefficients are folded on, (y + L) / h on a full axis
        for ax in range(dim):
            if ax in g.mirrored:
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
    return Field(g, out if g.mirrored else mirror_back(out, axes))
