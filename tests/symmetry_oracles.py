"""Full-box references for the symmetry group of the fold-k class.

The package keeps ring fields only on the part of the box folded on
mirror_axes(k), where the node permutations of the group reduce to the
identity and the y1/y2 transpose.  These helpers state the group on the
full box, element by element, so that tests can check the folded code
against it, and convert fields between the full box and the part
(``fold`` and ``unfold``).
"""
from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from ringnls import geometry, grid


def fold(f: grid.Field, axes: tuple) -> grid.Field:
    """The full-box field f, even in each of axes, stored from the centre
    node on along them."""
    g = f.grid
    part = tuple(slice(g.centre, None) if ax in axes else slice(None)
                 for ax in range(g.dim))
    return grid.Field(g.with_mirrored(axes),
                      np.ascontiguousarray(f.data[part]))


def unfold(f: grid.Field) -> grid.Field:
    """The full-box field whose mirrored-axis halves are f."""
    a = f.data
    for ax in f.grid.mirrored:
        a = np.concatenate([a[grid._axis_slice(a.ndim, ax,
                                               slice(None, 0, -1))],
                            a], axis=ax)
    return grid.Field(f.grid.with_mirrored(()), a)


def rotation(theta: float, dim: int, flip2: bool) -> np.ndarray:
    """The rotation by theta in the (y1, y2)-plane, composed with
    y2 -> -y2 when flip2."""
    M = geometry._rotation_matrix(theta, dim)
    if flip2:
        M[:, 1] *= -1.0
    return M


def apply_signed_permutation(a: np.ndarray, M: np.ndarray) -> np.ndarray:
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


def node_subgroup(k: int, dim: int) -> list:
    """H as (s, flip2, h): h the rotation by 2πs/k, s a multiple of
    q = k/gcd(k, 4), composed with y2 → −y2 when flip2, as an exact
    signed-permutation matrix.  Enumerated rotation index first, then
    flip, the order in which the group is enumerated."""
    q = k // math.gcd(k, 4)
    return [(s, flip2, np.round(rotation(2.0 * math.pi * s / k, dim, flip2)))
            for s in range(0, k, q) for flip2 in (False, True)]


def fold_even(f: grid.Field, axes: tuple) -> grid.Field:
    """The full-box field f averaged over the reflections of axes, folded
    onto the part they fix.  Those reflections lie in the group, so the
    group average of the result is that of f."""
    a = f.data
    for ax in axes:
        a = 0.5 * (a + np.flip(a, ax))
    return fold(grid.Field(f.grid, a), axes)


def symmetrize_per_element(f: grid.Field, k: int) -> np.ndarray:
    """Reference orbit average of a full-box field: one interpolation per
    group element that does not permute nodes (2k - |H| of them)."""
    g = f.grid
    a = f.data
    dim = g.dim
    exact_total = np.zeros(g.shape)
    interp_total = np.zeros(g.shape)
    counts = np.zeros(g.shape, dtype=int)
    coeffs = None
    for m in range(k):
        for flip2 in (False, True):
            M = rotation(2.0 * math.pi * m / k, dim, flip2)
            if (4 * m) % k == 0:
                exact_total += apply_signed_permutation(a, np.round(M))
                counts += 1
                continue
            if coeffs is None:
                coeffs = ndimage.spline_filter(a, order=5, output=np.float64,
                                               mode="constant")
                pts = np.stack(np.meshgrid(*g.axes(), indexing="ij"))
                pts = pts.reshape(dim, -1)
            coords = M @ pts
            vals = ndimage.map_coordinates(
                coeffs, (coords + g.L) / g.h, order=5, mode="constant",
                cval=0.0, prefilter=False)
            inbox = np.all(np.abs(coords) <= g.L + 1e-12,
                           axis=0).reshape(g.shape)
            interp_total += np.where(inbox, vals.reshape(g.shape), 0.0)
            counts += inbox
    out = (exact_total + interp_total) / counts
    if dim == 3:
        out = 0.5 * (out + out[:, :, ::-1])
    return out
