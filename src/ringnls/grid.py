"""Uniform truncated grids, discrete fields, stencils and inner products.

The computational domain is the box [-L, L]^N with uniform spacing h and
homogeneous Dirichlet data outside the box.  Quadrature is the tensor
trapezoid rule (boundary nodes carry half weight per axis), summed by
numpy's pairwise float reduction, a fixed tree in C that calls no BLAS
and starts no thread, so results are bit-identical from run to run.  The
Dirichlet form

    inner(u, v, pot) = int grad u . grad v + pot u v,

pot a number (lam) or a nodewise potential field (mu(y)), is the one
gradient pairing of the package: the E-norm and the energy with its
four-term split all go through it.  It uses 8th-order centered
differences for the gradients: the energy
identities checked downstream need gradient quadrature errors well below
the 1e-4 tier, which second-order differences cannot deliver at the
default spacings.

The ring fields of the k-bump class are even in the axes mirror_axes(k)
and live on the part of the box those reflections fix, the nodes from
the centre on along each of them (``Grid.mirrored``).  grid_for_radius
is the one constructor of that part; a full box comes from make_grid.
The node at index -j of a mirrored axis is the mirror copy of node j:
``laplacian`` and ``grad8`` read it as their ghost there, and the
quadratures weight each stored node by its number of full-box copies w
(2 per mirrored axis off that axis's centre, 1 on it).  Stencil values
at the stored nodes are then exactly those of the full box, and every
quadrature is the full-box one of the even extension, summed in another
order.  ``dump_field`` writes the full box of a folded field without
unfolding it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# default spacings keeping desk-scale memory for k <= 32
DEFAULT_H = {2: 0.125, 3: 0.25}

# 8th-order centered first-derivative weights for offsets -4..4
_G8 = np.array([1.0 / 280, -4.0 / 105, 1.0 / 5, -4.0 / 5, 0.0,
                4.0 / 5, -1.0 / 5, 4.0 / 105, -1.0 / 280])


@dataclass(frozen=True)
class Grid:
    """Box [-L, L]^N sampled at spacing h, (2L/h + 1) nodes per axis.

    Along each axis in ``mirrored`` only the nodes from the centre index
    c = (n_axis - 1) / 2 on are stored, the field being even there.
    """

    dim: int
    L: float
    h: float
    n_axis: int
    axis: np.ndarray = field(compare=False, repr=False)
    mirrored: tuple = ()

    @property
    def centre(self) -> int:
        return (self.n_axis - 1) // 2

    @property
    def shape(self) -> tuple:
        return tuple(self.n_axis - self.centre if ax in self.mirrored
                     else self.n_axis for ax in range(self.dim))

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def axes(self) -> tuple:
        return tuple(self.axis[self.centre:] if ax in self.mirrored
                     else self.axis for ax in range(self.dim))

    def mesh(self) -> tuple:
        """Sparse broadcastable coordinate arrays, one per axis."""
        return np.meshgrid(*self.axes(), indexing="ij", sparse=True)

    def with_mirrored(self, axes: tuple) -> "Grid":
        """The same box storing the half from the centre on along axes."""
        return replace(self, mirrored=tuple(axes))

    def weights1d(self, ax: int) -> np.ndarray:
        """Trapezoid weights of the stored nodes along ax, times their
        number of mirror copies."""
        w = np.full(self.n_axis, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        if ax in self.mirrored:
            w = w[self.centre:]
            w[1:] *= 2.0
        return w

    def mirror_weights(self) -> np.ndarray:
        """w, the number of full-box copies of each stored node."""
        w = np.ones(self.shape)
        for ax in self.mirrored:
            w[_axis_slice(self.dim, ax, slice(1, None))] *= 2.0
        return w


@dataclass
class Field:
    """One scalar per grid node; zero outside the box by convention."""

    grid: Grid
    data: np.ndarray

    def __add__(self, other):
        return Field(self.grid, self.data + _raw(other))

    def __sub__(self, other):
        return Field(self.grid, self.data - _raw(other))

    def __mul__(self, other):
        return Field(self.grid, self.data * _raw(other))

    __rmul__ = __mul__


def _raw(x):
    return x.data if isinstance(x, Field) else x


def _axis_slice(dim: int, ax: int, sl) -> tuple:
    """Index taking sl along ax and everything along the other axes."""
    index = [slice(None)] * dim
    index[ax] = sl
    return tuple(index)


def make_grid(dim: int, L: float, h: float) -> Grid:
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    steps = L / h
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
        raise ValueError(f"L={L} is not an integer multiple of h={h}")
    half = int(round(steps))
    if half < 1:
        raise ValueError("box must span at least one spacing per side")
    n_axis = 2 * half + 1
    axis = (np.arange(n_axis) - half) * h
    return Grid(dim=dim, L=float(L), h=float(h), n_axis=n_axis, axis=axis)


def mirror_axes(k: int, dim: int) -> tuple:
    """The axes n whose reflection y_n -> -y_n lies in the fold-k class:
    y2 (and y3 in 3-D) always, y1 when k is even, since the rotation by
    pi then lies in the group."""
    return tuple(range(k % 2, dim))


def grid_for_radius(R: float, lam: float, dim: int, k: int,
                    h: float | None = None,
                    L: float | None = None) -> Grid:
    """The part, folded on mirror_axes(k), of the box sized so the k-ring
    of radius R sits >= max(20, 15/sqrt(lam)) from the wall.

    An explicit L overrides the padding rule but must still leave the
    ring strictly inside the box.
    """
    if h is None:
        h = DEFAULT_H[dim]
    if L is None:
        pad = max(20.0, 15.0 / math.sqrt(lam))
        L = h * math.ceil((R + pad) / h)
    elif L <= R:
        raise ValueError(f"box half-width L={L} does not contain "
                         f"the ring radius R={R}")
    return make_grid(dim, L, h).with_mirrored(mirror_axes(k, dim))


def laplacian(f: Field, out: np.ndarray | None = None) -> Field:
    """Second-order (2N+1)-point discrete Laplacian, Dirichlet-zero ghosts
    at the box wall and mirror ghosts at the centre of a mirrored axis.

    out, an array of f's shape that does not overlap f.data, receives
    the values when given (a new array otherwise); the returned field
    holds it."""
    g = f.grid
    a = f.data
    out = np.multiply(a, -2.0 * g.dim, out=out)
    for ax in range(g.dim):
        lo = _axis_slice(g.dim, ax, slice(0, -1))
        hi = _axis_slice(g.dim, ax, slice(1, None))
        out[lo] += a[hi]
        out[hi] += a[lo]
        if ax in g.mirrored:
            out[_axis_slice(g.dim, ax, 0)] += a[_axis_slice(g.dim, ax, 1)]
    out /= g.h * g.h
    return Field(g, out)


def laplacian_eigenvalues(n: int, h: float, j):
    """(2 - 2 cos(pi j / (n + 1))) / h^2: the eigenvalue of -``laplacian``
    along one axis of n nodes with zero ghosts for the sine mode
    sin(pi j (i + 1) / (n + 1)), i = 0..n-1, j = 1..n."""
    return (2.0 - 2.0 * np.cos(np.pi * np.asarray(j) / (n + 1))) / (h * h)


def _weighted_sum(g: Grid, prod: np.ndarray, out=None) -> float:
    """The sum of prod times the trapezoid weights of every axis, formed
    in out (a new array when None; prod itself for a caller that owns
    it) and summed by numpy's pairwise reduction."""
    for ax in range(g.dim):
        w = g.weights1d(ax)
        shape = [1] * g.dim
        shape[ax] = w.size
        prod = out = np.multiply(prod, w.reshape(shape), out=out)
    return float(np.add.reduce(out, axis=None))


def quad_product(*fields, out: np.ndarray | None = None) -> float:
    """Trapezoid quadrature of a nodewise product over the box, summed
    by numpy's pairwise reduction.

    The weighted product is formed in out when given, an array of the
    grid's shape that may be a field's own data, which the caller then
    gives up; in a new array otherwise."""
    g = fields[0].grid
    prod = fields[0].data
    if len(fields) > 1:
        prod = out = np.multiply(prod, _raw(fields[1]), out=out)
        for f in fields[2:]:
            prod *= _raw(f)
    return _weighted_sum(g, prod, out=out)


def grad8(f: Field, ax: int) -> Field:
    """8th-order centered difference along one axis, zero ghosts at the
    box wall and mirror ghosts at the centre of a mirrored axis."""
    g = f.grid
    a = f.data
    out = np.zeros_like(a)
    for j, w in enumerate(_G8):
        off = j - 4
        if w == 0.0:
            continue
        if off > 0:
            src, dst = slice(off, None), slice(0, -off)
        else:
            src, dst = slice(0, off), slice(-off, None)
        out[_axis_slice(g.dim, ax, dst)] += w * a[_axis_slice(g.dim, ax, src)]
        if off < 0 and ax in g.mirrored:
            # node i < -off reads index i + off < 0, the copy of -(i + off)
            out[_axis_slice(g.dim, ax, slice(0, -off))] += \
                w * a[_axis_slice(g.dim, ax, slice(-off, 0, -1))]
    out /= g.h
    return Field(g, out)


def inner(u: Field, v: Field, pot) -> float:
    """∫ ∇u·∇v + pot u v, pot a number (λ) or a nodewise Field (μ(y)).

    Symmetric bilinear, ≥ min(pot) ∫u² on the diagonal; differentiates
    once when v is u."""
    g = u.grid
    # a field weights the integrand, a number scales its integral
    if isinstance(pot, Field):
        prod, scale = pot.data * u.data * v.data, 1.0
    else:
        prod, scale = u.data * v.data, pot
    total = scale * _weighted_sum(g, prod, out=prod)
    for ax in range(g.dim):
        gu = grad8(u, ax).data
        gv = gu if v is u else grad8(v, ax).data
        prod = gu * gv
        total += _weighted_sum(g, prod, out=prod)
    return total


def norm_E(u: Field, v: Field, lam: float, mu: Field) -> float:
    """max{√inner(u, u, λ), √inner(v, v, μ)}, the product-space norm of
    the corrector pair."""
    n0 = math.sqrt(max(inner(u, u, lam), 0.0))
    n1 = math.sqrt(max(inner(v, v, mu), 0.0))
    return max(n0, n1)


def zeros(g: Grid) -> Field:
    return Field(g, np.zeros(g.shape))


def dump_field(f: Field, out) -> None:
    """Write the text form of f's full box into the open text file out:
    header "N L h", then row-major node values, one per line.

    Each value is its shortest round-trip repr.  A folded f is written as
    its even extension without building it: full-box row (i_1, ...,
    i_{N-1}) is the stored row at |i_a - c| along each mirrored leading
    axis, c the centre index, and along a mirrored last axis the stored
    half row is written mirrored, then as it is.  The text goes out one
    row at a time, so neither a full-box array nor the whole text is ever
    held, and each stored row is formatted once: its text is cached under
    its stored-row index, and the full-box rows that mirror it reuse it.
    """
    g = f.grid
    out.write(f"{g.dim} {g.L!r} {g.h!r}\n")
    full = np.arange(g.n_axis)
    rows = f.data.reshape(-1, f.data.shape[-1])
    # the stored row of each full-box row, in full-box order
    order = np.arange(rows.shape[0]).reshape(f.data.shape[:-1])[np.ix_(*(
        np.abs(full - g.centre) if ax in g.mirrored else full
        for ax in range(g.dim - 1)))]
    mirror_row = g.dim - 1 in g.mirrored
    row_text = {}
    for r in order.ravel().tolist():
        text = row_text.get(r)
        if text is None:
            strs = list(map(repr, rows[r].tolist()))
            if mirror_row:
                strs = strs[:0:-1] + strs
            strs.append("")  # ends the row's last line
            text = row_text[r] = "\n".join(strs)
        out.write(text)


def load_field(text: str) -> Field:
    lines = text.strip().splitlines()
    head = lines[0].split()
    g = make_grid(int(head[0]), float(head[1]), float(head[2]))
    vals = np.array([float(x) for x in lines[1:]])
    if vals.size != g.size:
        raise ValueError(
            f"field payload has {vals.size} values, grid wants {g.size}")
    return Field(g, vals.reshape(g.shape))
