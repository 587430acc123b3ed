"""Uniform truncated grids, discrete fields, stencils and inner products.

The computational domain is the box [-L, L]^N with uniform spacing h and
homogeneous Dirichlet data outside the box.  Quadrature is the tensor
trapezoid rule (boundary nodes carry half weight per axis), summed in a
fixed pairwise order so results are bit-identical from run to run.  The
inner products

    inner0(u, v) = int grad u . grad v + lam u v
    inner1(u, v) = int grad u . grad v + mu(y) u v

use 8th-order centered differences for the gradients: the energy
identities checked downstream need gradient quadrature errors well below
the 1e-4 tier, which second-order differences cannot deliver at the
default spacings.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# default spacings keeping desk-scale memory for k <= 32
DEFAULT_H = {2: 0.125, 3: 0.25}

# 8th-order centered first-derivative weights for offsets -4..4
_G8 = np.array([1.0 / 280, -4.0 / 105, 1.0 / 5, -4.0 / 5, 0.0,
                4.0 / 5, -1.0 / 5, 4.0 / 105, -1.0 / 280])


@dataclass(frozen=True)
class Grid:
    """Box [-L, L]^N sampled at spacing h, (2L/h + 1) nodes per axis."""

    dim: int
    L: float
    h: float
    n_axis: int
    axis: np.ndarray = field(compare=False, repr=False)

    @property
    def shape(self) -> tuple:
        return (self.n_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.n_axis ** self.dim

    def axes(self) -> tuple:
        return (self.axis,) * self.dim

    def mesh(self) -> tuple:
        """Sparse broadcastable coordinate arrays, one per axis."""
        return np.meshgrid(*self.axes(), indexing="ij", sparse=True)

    def weights1d(self) -> np.ndarray:
        w = np.full(self.n_axis, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass
class Field:
    """One scalar per grid node; zero outside the box by convention."""

    grid: Grid
    data: np.ndarray

    def copy(self) -> "Field":
        return Field(self.grid, self.data.copy())

    def __add__(self, other):
        return Field(self.grid, self.data + _raw(other))

    def __sub__(self, other):
        return Field(self.grid, self.data - _raw(other))

    def __mul__(self, other):
        return Field(self.grid, self.data * _raw(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.data)


def _raw(x):
    return x.data if isinstance(x, Field) else x


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


def grid_for_radius(R: float, lam: float, dim: int,
                    h: float | None = None,
                    L: float | None = None) -> Grid:
    """Box sized so the ring sits >= max(20, 15/sqrt(lam)) from the wall.

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
    return make_grid(dim, L, h)


def sample(g: Grid, fn) -> Field:
    """Node-wise evaluation of fn(y1, ..., yN) (broadcasting arrays)."""
    vals = np.asarray(fn(*g.mesh()), dtype=float)
    return Field(g, np.broadcast_to(vals, g.shape).copy())


def laplacian(f: Field) -> Field:
    """Second-order (2N+1)-point discrete Laplacian, Dirichlet-zero ghosts."""
    g = f.grid
    a = f.data
    out = (-2.0 * g.dim) * a.copy()
    for ax in range(g.dim):
        lo = [slice(None)] * g.dim
        hi = [slice(None)] * g.dim
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        out[tuple(lo)] += a[tuple(hi)]
        out[tuple(hi)] += a[tuple(lo)]
    out /= g.h * g.h
    return Field(g, out)


def _pairwise_sum(a: np.ndarray) -> float:
    """Fixed-tree pairwise reduction; bit-identical across thread counts."""
    a = a.ravel()
    while a.size > 1:
        if a.size % 2:
            a = np.concatenate([a[0:-1:2] + a[1::2], a[-1:]])
        else:
            a = a[0::2] + a[1::2]
    return float(a[0])


def _weighted(g: Grid, prod: np.ndarray) -> np.ndarray:
    w = g.weights1d()
    out = prod
    for ax in range(g.dim):
        shape = [1] * g.dim
        shape[ax] = g.n_axis
        out = out * w.reshape(shape)
    return out


def quad(f: Field) -> float:
    """Trapezoid quadrature over the box with a deterministic sum order.

    Warns when the integrand has not decayed to 1e-10 of its peak on the
    boundary shell (the Dirichlet truncation then pollutes the value).
    """
    g = f.grid
    a = f.data
    peak = float(np.max(np.abs(a)))
    if peak > 0.0:
        edge = 0.0
        for ax in range(g.dim):
            sl0 = [slice(None)] * g.dim
            sl1 = [slice(None)] * g.dim
            sl0[ax] = 0
            sl1[ax] = -1
            edge = max(edge, float(np.max(np.abs(a[tuple(sl0)]))),
                       float(np.max(np.abs(a[tuple(sl1)]))))
        if edge > 1e-10 * peak:
            warnings.warn(
                f"integrand carries boundary mass {edge:.3e} "
                f"(peak {peak:.3e}); enlarge the box",
                RuntimeWarning, stacklevel=2)
    return _pairwise_sum(_weighted(g, a))


def quad_product(*fields) -> float:
    """quad of a nodewise product, without the boundary-mass warning."""
    g = fields[0].grid
    prod = fields[0].data
    for f in fields[1:]:
        prod = prod * _raw(f)
    return _pairwise_sum(_weighted(g, prod))


def dot(u: Field, v: Field) -> float:
    """Plain h^N-weighted Euclidean pairing (no boundary halving)."""
    g = u.grid
    return g.h ** g.dim * _pairwise_sum(u.data * v.data)


def grad8(f: Field, ax: int) -> Field:
    """8th-order centered difference along one axis, zero ghosts."""
    g = f.grid
    a = f.data
    out = np.zeros_like(a)
    for j, w in enumerate(_G8):
        off = j - 4
        if w == 0.0:
            continue
        src = [slice(None)] * g.dim
        dst = [slice(None)] * g.dim
        if off > 0:
            src[ax] = slice(off, None)
            dst[ax] = slice(0, -off)
        else:
            src[ax] = slice(0, off)
            dst[ax] = slice(-off, None)
        out[tuple(dst)] += w * a[tuple(src)]
    out /= g.h
    return Field(g, out)


def _grad_pairing(u: Field, v: Field, ax: int) -> float:
    """∫ ∂u·∂v along one axis; differentiates once when v is u."""
    gu = grad8(u, ax).data
    gv = gu if v is u else grad8(v, ax).data
    return _pairwise_sum(_weighted(u.grid, gu * gv))


def inner0(u: Field, v: Field, lam: float) -> float:
    """⟨u,v⟩_0 = ∫ ∇u·∇v + λ u v (symmetric bilinear, ≥ λ∫u² on diag)."""
    g = u.grid
    total = lam * _pairwise_sum(_weighted(g, u.data * v.data))
    for ax in range(g.dim):
        total += _grad_pairing(u, v, ax)
    return total


def inner1(u: Field, v: Field, mu: Field) -> float:
    """⟨u,v⟩_1 = ∫ ∇u·∇v + μ(y) u v with a nodewise potential."""
    g = u.grid
    total = _pairwise_sum(_weighted(g, _raw(mu) * u.data * v.data))
    for ax in range(g.dim):
        total += _grad_pairing(u, v, ax)
    return total


def norm_E(u: Field, v: Field, lam: float, mu: Field) -> float:
    """max{‖u‖_0, ‖v‖_1}, the product-space norm of the corrector pair."""
    n0 = math.sqrt(max(inner0(u, u, lam), 0.0))
    n1 = math.sqrt(max(inner1(v, v, mu), 0.0))
    return max(n0, n1)


def zeros(g: Grid) -> Field:
    return Field(g, np.zeros(g.shape))


def dump_field(f: Field) -> str:
    """Text form: header "N L h", then row-major node values, one per line.

    Each value is its shortest round-trip repr; the text is built one
    grid row at a time, so no string per node is held at once.
    """
    g = f.grid
    lines = [f"{g.dim} {g.L!r} {g.h!r}"]
    lines.extend(repr(row.tolist())[1:-1].replace(", ", "\n")
                 for row in f.data.reshape(-1, g.n_axis))
    return "\n".join(lines) + "\n"


def load_field(text: str) -> Field:
    lines = text.strip().splitlines()
    head = lines[0].split()
    g = make_grid(int(head[0]), float(head[1]), float(head[2]))
    vals = np.array([float(x) for x in lines[1:]])
    if vals.size != g.size:
        raise ValueError(
            f"field payload has {vals.size} values, grid wants {g.size}")
    return Field(g, vals.reshape(g.shape))
