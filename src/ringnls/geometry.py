"""Ring placement of bumps, sectors, symmetry projection, R-derivatives.

The k bumps sit at x_i = (R cos(2(i-1)pi/k), R sin(2(i-1)pi/k)), padded
with a zero third coordinate in 3-D.  The symmetric class is generated
by the rotation Q through 2pi/k in the (y1, y2)-plane together with the
coordinate reflections y_n -> -y_n for n >= 2; symmetrize averages a
field over that group.  The elements whose matrix is a signed
permutation of the axes (the quarter-turn rotations the group contains,
with and without y2 -> -y2) form a subgroup H of order 2 gcd(k, 4) and
act by exact node permutations.  Every other element is r_m h with r_m
the rotation by 2pi m/k, 1 <= m < q = k/gcd(k, 4), and h in H, so the
field is interpolated once per coset, f o r_m at the nodes (quintic
splines, on a Fourier-upsampled copy when the accurate tier is
requested), and the |H| elements of the coset are node permutations of
that one result.  The average streams over the cosets, so its memory is
O(nodes) and independent of k; the upsampled copy is built only when
q > 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter

from .grid import Field, Grid
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


def bump_sum_field(g: Grid, profile: RadialProfile,
                   config: BumpConfiguration) -> Field:
    """Sigma_i V0(|y - x_i|) sampled on the grid."""
    mesh = g.mesh()
    total = np.zeros(g.shape)
    for i in range(config.k):
        total += eval_profile(profile, _bump_radii(config, i, mesh))
    return Field(g, total)


def bump_cubes_field(g: Grid, profile: RadialProfile,
                     config: BumpConfiguration) -> Field:
    """Sigma_i V0(|y - x_i|)^3 sampled on the grid."""
    mesh = g.mesh()
    total = np.zeros(g.shape)
    for i in range(config.k):
        total += eval_profile(profile, _bump_radii(config, i, mesh)) ** 3
    return Field(g, total)


def radial_field(g: Grid, profile: RadialProfile) -> Field:
    """The origin-centred profile U0(|y|) sampled on the grid."""
    mesh = g.mesh()
    r2 = mesh[0] ** 2 + mesh[1] ** 2
    for d in range(2, g.dim):
        r2 = r2 + mesh[d] ** 2
    return Field(g, eval_profile(profile, np.sqrt(r2)))


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
    diff = pts - config.centers[i - 1]
    rho = np.linalg.norm(diff, axis=1)
    proj = diff[:, :2] @ config.normals[i - 1]
    out = np.zeros(pts.shape[0])
    ok = rho > 0.0
    out[ok] = -eval_profile_deriv(profile, rho[ok]) * proj[ok] / rho[ok]
    if single:
        return float(out[0])
    return out.reshape(y.shape[:-1])


def constraint_field(g: Grid, profile: RadialProfile,
                     config: BumpConfiguration) -> Field:
    """Z(y) = Sigma_i V_i(y)^2 ∂V_i/∂R(y), the radius-mode direction."""
    mesh = g.mesh()
    total = np.zeros(g.shape)
    for i in range(config.k):
        rho = _bump_radii(config, i, mesh)
        vi = eval_profile(profile, rho)
        proj = (mesh[0] - config.centers[i, 0]) * config.normals[i, 0] \
            + (mesh[1] - config.centers[i, 1]) * config.normals[i, 1]
        dvi = np.zeros(g.shape)
        ok = rho > 0.0
        dvi[ok] = -eval_profile_deriv(profile, rho[ok]) \
            * np.broadcast_to(proj, g.shape)[ok] / rho[ok]
        total += vi * vi * dvi
    return Field(g, total)


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


def _upsample_fft(a: np.ndarray, factor: int) -> np.ndarray:
    """Trigonometric upsampling of the two rotated axes; the field is ~0
    at the box wall, so the periodic extension over [−L, L) is smooth to
    that level.  The third axis (never rotated) keeps its spacing."""
    from scipy.signal import resample

    core = a[tuple(slice(0, -1) for _ in range(a.ndim))]
    for ax in (0, 1):
        core = resample(core, core.shape[ax] * factor, axis=ax)
    # re-append the wrapped end sample to recover the inclusive grid
    return np.pad(core, [(0, 1)] * a.ndim, mode="wrap")


def _upsample_factor(n_axis: int, dim: int) -> int:
    """Largest refinement whose upsampled copy stays comfortably in memory."""
    base = n_axis - 1
    for factor in (8, 4, 2):
        if (factor * base) ** 2 * (base if dim == 3 else 1) <= 75_000_000:
            return factor
    return 1


def symmetrize(f: Field, k: int, accurate: bool = True) -> Field:
    """Average f over the symmetry group (rotations by 2π/k and the
    reflections y_n → −y_n, n ≥ 2).

    The subgroup H of elements that permute grid nodes (rotations by
    multiples of π/2, each with and without y2 → −y2) is applied
    exactly.  Each other coset r_m·H, 1 ≤ m < k/gcd(k, 4), costs one
    quintic interpolation of f∘r_m at the nodes — on a copy
    trigonometrically upsampled in the rotated axes when accurate=True,
    which pushes the interpolation error of smooth decayed fields to the
    spectral floor — since f(r_m·h·y) is that result read at node h·y.
    The cosets are streamed one at a time, so memory is O(nodes) and
    independent of k; the upsampled copy and its spline coefficients are
    built only when some coset interpolates.
    """
    g = f.grid
    a = f.data
    dim = g.dim
    q = k // math.gcd(k, 4)
    # H in the order the group is enumerated: rotation index, then flip
    subgroup = [np.round(_rotation_matrix(2.0 * math.pi * m / k, dim, flip2))
                for m in range(0, k, q) for flip2 in (False, True)]

    exact_total = np.zeros(g.shape)
    for h in subgroup:
        exact_total += _apply_signed_permutation(a, h)
    counts = np.full(g.shape, len(subgroup))
    if q == 1:
        out = exact_total / counts
    else:
        factor = _upsample_factor(g.n_axis, dim) if accurate else 1
        # the B-spline prefilter map_coordinates would otherwise rerun on
        # every call (mode "constant" needs no padding)
        coeffs = spline_filter(_upsample_fft(a, factor) if factor > 1 else a,
                               order=5, output=np.float64, mode="constant")
        spacing = np.full((dim, 1), g.h / factor)
        if dim == 3:
            spacing[2, 0] = g.h
        pts = np.stack(np.meshgrid(*g.axes(), indexing="ij")).reshape(dim, -1)
        interp_total = np.zeros(g.shape)
        for m in range(1, q):
            coords = _rotation_matrix(2.0 * math.pi * m / k, dim, False) @ pts
            vals = map_coordinates(coeffs, (coords + g.L) / spacing, order=5,
                                   mode="constant", cval=0.0, prefilter=False)
            # the square's corner zone (|y| > L) is not rotation-covariant:
            # some rotated sample points leave the box.  Average each node
            # over the elements that stay inside instead of absorbing zeros.
            inbox = np.all(np.abs(coords) <= g.L + 1e-12,
                           axis=0).reshape(g.shape)
            vals = np.where(inbox, vals.reshape(g.shape), 0.0)
            for h in subgroup:
                interp_total += _apply_signed_permutation(vals, h)
                counts += _apply_signed_permutation(inbox, h)
        out = (exact_total + interp_total) / counts
    if dim == 3:
        out = 0.5 * (out + out[:, :, ::-1])
    return Field(g, out)


def symmetrize_fast(f: Field, k: int) -> Field:
    """Orbit average with direct quintic interpolation (no upsampling)."""
    return symmetrize(f, k, accurate=False)
