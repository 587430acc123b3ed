"""Radial ground-state profiles of  -w'' - (N-1)/r w' + c w = α w³.

The positive decreasing solution (w'(0) = 0, w(∞) = 0) is computed
directly on the uniform tabulation grid.  The equation is discretized
with 9-point 8th-order stencils closed by ghost nodes: w is even about
r = 0, and beyond r_max it follows the decaying linear tail (e^{-√c r}
for N = 1, K0(√c r) for N = 2, e^{-√c r}/r for N = 3) scaled from the
last node.  Petviashvili's iteration from a Gaussian, then Newton's
method, solves the discrete problem on the 801-node floor grid; its
peak sets the node count, and Newton on the final grid, started from
the interpolated coarse profile, gives the tabulated solution.

Both iterations hold the linear part as a 9-band matrix, the ghosts
folded into its bands, and solve with LAPACK's banded solver.

Field assembly samples the profile and its slope at every grid node
through eval_profile and eval_profile_deriv: inside r_max the quintic
interpolants of the tabulated nodes (of their parity extension about
r = 0), stored as tables of Taylor coefficients per knot interval and
evaluated by Horner's rule; the exponential tail beyond it.

N = 1 admits the closed form √(2c/α) sech(√c r) and is kept as an
oracle for tests; production runs use N ∈ {2, 3}.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.ndimage import map_coordinates, spline_filter1d
from scipy.special import k0e, k1e

from .grid import _G8

_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

# 8th-order central second-derivative weights at offsets -4..4
_D8 = np.array([-1.0 / 560, 8.0 / 315, -1.0 / 5, 8.0 / 5, -205.0 / 72,
                8.0 / 5, -1.0 / 5, 8.0 / 315, -1.0 / 560])

# the uniform quintic B-spline on one knot interval: row p holds 120 times
# the coefficients of t^p, t = r/Δr - i in [0, 1), of the B-splines at
# nodes i-2 .. i+3
_QUINTIC = np.array([[1, 26, 66, 26, 1, 0],
                     [-5, -50, 0, 50, 5, 0],
                     [10, 20, -60, 20, 10, 0],
                     [-10, 20, 0, -20, 10, 0],
                     [5, -20, 30, -20, 5, 0],
                     [-1, 5, -10, 10, -5, 1]], dtype=float)

_FLOOR_NODES = 801

# radii per pass of the profile evaluation: its temporaries stay under
# half a megabyte, in cache, whatever the number of radii
_CHUNK = 1 << 14


class GroundStateError(RuntimeError):
    """The discrete ground-state iteration did not converge."""


@dataclass
class RadialProfile:
    """Tabulated ground state with its derivative and summary scalars."""

    c: float
    alpha: float
    dim: int
    r: np.ndarray
    values: np.ndarray
    deriv: np.ndarray
    peak: float
    decay_const: float
    moment2: float
    moment4: float
    max_residual: float

    def __post_init__(self):
        # quintic interpolation of the parity extension over [-r_max,
        # r_max]: w is even and w' odd about r = 0, so the peak gets
        # interior accuracy (~h^6) instead of one-sided end conditions.
        # Field assembly samples these interpolants at every grid node,
        # and any evaluation error shows up directly as asymmetry of the
        # ansatz.  Each is stored as a table of Taylor coefficients per
        # knot interval (_quintic_table), which _spline_or_tail evaluates
        # by Horner's rule at the radii inside r_max.
        n = self.r.size
        self._step = float(self.r[-1]) / (n - 1)
        if self.r[0] != 0.0 or np.max(np.abs(np.diff(self.r) - self._step)) \
                > 1e-9 * self._step:
            raise ValueError("profile nodes must be uniform from r = 0")
        self._table = _quintic_table(self.values, 1.0)
        self._dtable = _quintic_table(self.deriv, -1.0)

    @property
    def r_max(self):
        return float(self.r[-1])

    @property
    def sqrt_c(self):
        return math.sqrt(self.c)


def _quintic_table(nodes, parity):
    """(6, n-1) Taylor coefficients of the quintic interpolant of uniform
    nodes at r = 0, Δr, ..., r_max: row p holds those of t^p on interval
    i, t = r/Δr - i.

    The B-spline coefficients are those of the parity extension (nodes
    even or odd about r = 0 by parity) over [-r_max, r_max], mirrored at
    both ends.  The constant row is the nodes themselves, so t = 0 returns
    the node value exactly and an odd profile is exactly 0 at r = 0.
    """
    n = nodes.size
    coef = spline_filter1d(np.concatenate([parity * nodes[:0:-1], nodes]),
                           order=5, mode="mirror")
    # nodes -2 .. n+1, the last two mirrored about r_max
    coef = np.concatenate([coef[n - 3:], coef[-2:-4:-1]])
    table = np.zeros((6, n - 1))
    for m in range(6):
        table += _QUINTIC[:, m, None] * coef[m:m + n - 1]
    table /= 120.0
    table[0] = nodes[:-1]
    return table


def _tail(c, dim, r):
    """Decaying solution of the linear far-field equation, and its slope."""
    s = math.sqrt(c)
    r = np.asarray(r, dtype=float)
    if dim == 1:
        v = np.exp(-s * r)
        return v, -s * v
    if dim == 2:
        e = np.exp(-s * r)
        return k0e(s * r) * e, -s * k1e(s * r) * e
    e = np.exp(-s * r) / r
    return e, -(s + 1.0 / r) * e


def _ghosted(f, far, parity=1.0):
    """f with four ghost nodes on each side: parity-mirrored copies of
    f[1:5] left of r = 0 and the values `far` beyond r_max."""
    return np.concatenate([parity * f[4:0:-1], f, far])


def _stencil(weights, ext):
    """Σ_k weights[k] (f[j+k-4] - f[j]) at each node j, read from the
    ghosted array ext of f.

    Taking differences makes the sum vanish exactly on constants.  The
    stored weights of the second-derivative stencil do not sum to zero in
    floating point, and that defect, divided by h², would shift c by ~1e-12.
    """
    n = ext.size - 8
    mid = ext[4:n + 4]
    out = np.zeros(n)
    for k, wk in enumerate(weights):
        if wk:
            out += wk * (ext[k:k + n] - mid)
    return out


def _far_ghosts(c, dim, r, last):
    """Ghost values beyond r_max: the linear tail through (r[-1], last)."""
    t = _tail(c, dim, r[-1] + (r[1] - r[0]) * np.arange(5))[0]
    return last * t[1:] / t[0]


def _coefficients(dim, r):
    """Factors of w'' and w' in the equation: 1 and (N-1)/r, except at
    r = 0, where the friction term tends to (N-1) w''(0)."""
    curvature = np.ones(r.size)
    curvature[0] = dim
    friction = np.zeros(r.size)
    friction[1:] = (dim - 1) / r[1:]
    return curvature, friction


def _defect(c, alpha, dim, r, w):
    """-w'' - (N-1)/r w' + c w - α w³ at the nodes, from 8th-order stencils."""
    h = r[1] - r[0]
    ext = _ghosted(w, _far_ghosts(c, dim, r, w[-1]))
    curvature, friction = _coefficients(dim, r)
    return (c * w - alpha * w ** 3 - curvature * _stencil(_D8, ext) / h ** 2
            - friction * _stencil(_G8, ext) / h)


def _operator(c, dim, r):
    """The linear part of _defect as a (9, n) banded matrix: entry (i, j)
    in row 4 + i - j, the layout of solve_banded((4, 4), ...).

    The ghost nodes are folded into the columns they copy: the even
    ghosts left of r = 0 into nodes 1..4, the tail ghosts beyond r_max
    into the last node with the tail's factors.
    """
    n = r.size
    h = r[1] - r[0]
    rows = np.repeat(np.arange(n), 9)
    k = np.tile(np.arange(9), n)
    cols = rows + k - 4
    tail = cols >= n
    scale = np.ones(cols.size)
    scale[tail] = _far_ghosts(c, dim, r, 1.0)[cols[tail] - n]
    cols = np.abs(np.minimum(cols, n - 1))
    curvature, friction = _coefficients(dim, r)
    d2 = _D8[k] * scale * (1.0 / h ** 2)
    d1 = _G8[k] * scale * (1.0 / h)
    entries = c * (k == 4) - curvature[rows] * d2 - friction[rows] * d1
    bands = np.zeros((9, n))
    np.add.at(bands, (4 + rows - cols, cols), entries)
    return bands


def _band_product(bands, w):
    """The banded matrix of _operator applied to w."""
    n = w.size
    out = np.zeros(n)
    for u in range(9):
        d = 4 - u  # band u holds the entries (i, i + d)
        if d >= 0:
            out[:n - d] += bands[u, d:] * w[d:]
        else:
            out[-d:] += bands[u, :n + d] * w[:n + d]
    return out


def _petviashvili(c, alpha, dim, r, max_iter=500):
    """Fixed point of w = M^{3/2} L^{-1}(α w³) from a Gaussian, where L is
    the linear part and the stabilizing factor M = <w, L w> / <w, α w³>
    is 1 at a solution."""
    op = _operator(c, dim, r)
    w = 2.0 * math.sqrt(c / alpha) * np.exp(-0.5 * c * r * r)
    for _ in range(max_iter):
        cube = alpha * w ** 3
        w_new = ((w @ _band_product(op, w) / (w @ cube)) ** 1.5
                 * solve_banded((4, 4), op, cube))
        if np.max(np.abs(w_new - w)) <= 1e-8 * np.max(np.abs(w_new)):
            return w_new
        w = w_new
    raise GroundStateError(
        f"Petviashvili iteration did not converge in {max_iter} steps")


def _newton(c, alpha, dim, r, w, tol, max_iter=20):
    """Newton's method for _defect = 0 from w; returns once a step is ≤ tol.

    Convergence is quadratic, so the error left after a step of size tol
    is far below the rounding floor of the defect.
    """
    op = _operator(c, dim, r)
    for _ in range(max_iter):
        jac = op.copy()
        jac[4] -= 3.0 * alpha * w * w
        step = solve_banded((4, 4), jac, -_defect(c, alpha, dim, r, w),
                            overwrite_ab=True)
        w = w + step
        if np.max(np.abs(step)) <= tol:
            return w
    raise GroundStateError(f"Newton iteration did not converge in {max_iter} steps")


def solve_ground_state(c: float, alpha: float, dim: int,
                       n_nodes: int | None = None) -> RadialProfile:
    """Solve for the ground state on a uniform grid of radii.

    The grid extends to r_max = 30/sqrt(c), thirty tail lengths, and by
    default the spacing resolves the curvature length at the peak, so the
    tabulated profile satisfies the ODE well below 1e-8*peak at every
    node (checked with an 8th-order stencil and stored in max_residual).
    The profile decays monotonically and carries the decay constant M
    plus the quadrature moments of w**2 and w**4.  Raises
    GroundStateError when the discrete iteration does not converge.
    """
    if c <= 0 or alpha <= 0:
        raise ValueError(f"need c > 0 and alpha > 0, got c={c}, alpha={alpha}")
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    r_max = 30.0 / math.sqrt(c)

    tol = 1e-10 * math.sqrt(c / alpha)
    r0 = np.linspace(0.0, r_max, _FLOOR_NODES)
    w = _newton(c, alpha, dim, r0, _petviashvili(c, alpha, dim, r0), tol)
    w0 = float(w[0])

    # spacing that resolves the curvature length at the peak,
    # s^2 = w(0)/|w''(0)| with w''(0) = (c*w0 - alpha*w0^3)/dim
    s = math.sqrt(dim / (alpha * w0 * w0 - c))
    if n_nodes is None:
        # dense enough that quintic interpolation between nodes stays
        # below ~1e-10 of the peak (field assembly resamples the profile
        # at arbitrary radii, so evaluation error must not dominate);
        # rounding keeps the solver's last digits out of the ceil, which
        # sits exactly on a node count for N = 1
        n_nodes = int(math.ceil(round(140.0 * r_max / s, 6))) + 1
        n_nodes += (-(n_nodes - 1)) % 4  # odd, and n-1 divisible by 4
        n_nodes = min(max(n_nodes, _FLOOR_NODES), 6001)

    r = np.linspace(0.0, r_max, n_nodes)
    h = r[1] - r[0]
    # Newton starts from the cubic spline of the floor solution, mirrored
    # (even) at r = 0
    start = map_coordinates(w, [r / (r0[1] - r0[0])], order=3, mode="mirror")
    values = _newton(c, alpha, dim, r, start, tol)
    deriv = _stencil(_G8, _ghosted(values, _far_ghosts(c, dim, r, values[-1]))) / h
    deriv[0] = 0.0  # the mirrored stencil cancels only to rounding

    # measure the defect on a subgrid near the validated spacing s/36:
    # the check differentiates the stored derivative once more, and on
    # finer grids its 1/h amplifies rounding without adding information
    stride = max(1, int(round(s / 36.0 / h)))
    while (r.size - 1) % stride:
        stride -= 1
    max_res = _residual_check(c, alpha, dim, r[::stride], values[::stride],
                              deriv[::stride], values[-1] / _tail(c, dim, r_max)[0])
    m2, m4 = _moments(dim, r, values)
    return RadialProfile(
        c=c, alpha=alpha, dim=dim, r=r, values=values, deriv=deriv,
        peak=float(values[0]), decay_const=_decay_const(c, dim, r, values),
        moment2=m2, moment4=m4, max_residual=max_res)


def _residual_check(c, alpha, dim, r, values, deriv, tail_coef):
    """Max defect of the first-order system over all nodes.

    Checks both w' = deriv and deriv' = -((N-1)/r) deriv + c w - alpha w^3
    with 8th-order first-derivative stencils; differentiating the stored
    arrays once keeps rounding amplified by only ~1/h rather than the
    ~1/h^2 of a direct second difference.  Parity supplies exact ghost
    data left of r = 0 (w even, w' odd); the linear tail through the last
    node supplies it beyond r_max.  The slope defect is weighted by
    sqrt(c) so both components share the units of the ODE residual.
    """
    h = r[1] - r[0]
    tail_v, tail_s = _tail(c, dim, r[-1] + h * np.arange(1, 5))
    res1 = _stencil(_G8, _ghosted(values, tail_coef * tail_v)) / h - deriv
    dslope = _stencil(_G8, _ghosted(deriv, tail_coef * tail_s, -1.0)) / h
    res2 = -dslope + c * values - alpha * values ** 3
    res2[1:] -= (dim - 1) / r[1:] * deriv[1:]
    # at r = 0 the friction term tends to (N-1) w''(0)
    res2[0] -= (dim - 1) * dslope[0]
    return float(max(np.max(np.abs(res2)), math.sqrt(c) * np.max(np.abs(res1))))


def _decay_const(c, dim, r, values):
    """Smallest M with w(r) ≤ M e^{-√c r} min{1, r^{-(N-1)/2}} at the nodes."""
    s = math.sqrt(c)
    rr = r[1:]
    envelope = np.exp(-s * rr) * np.minimum(1.0, rr ** (-0.5 * (dim - 1)))
    return float(np.max(values[1:] / envelope))


def _moments(dim, r, values):
    """Surface-weighted ∫ w² and ∫ w⁴ over R^N by composite Simpson."""
    surf = _SURFACE[dim]
    weight = r ** (dim - 1)
    m2 = surf * _simpson(values ** 2 * weight, r[1] - r[0])
    m4 = surf * _simpson(values ** 4 * weight, r[1] - r[0])
    return float(m2), float(m4)


def _simpson(f, h):
    n = f.size
    if n % 2 == 0:
        # trapezoid on the last interval keeps the node count unrestricted
        return _simpson(f[:-1], h) + 0.5 * h * (f[-2] + f[-1])
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-2:2].sum())


def _spline_or_tail(profile: RadialProfile, r, table, tail_scale, out=None):
    """The quintic table where r ≤ r_max, tail_scale·e^{-√c (r − r_max)}
    beyond, written into out (a new array of r's shape when None).

    The radii are taken _CHUNK at a time through one set of chunk-sized
    temporaries per call, so the temporaries beside out neither grow with
    r nor are allocated again per chunk, and no radius is gathered.  In
    each chunk x = r/Δr − i, i the knot interval, and where r > r_max the
    tail value replaces x by masked ufuncs; Horner's rule over the table
    rows then writes into out, skipped when every radius of the chunk is
    far, and the tail values are copied over the far radii, whose
    polynomial values are discarded.  Each radius therefore gets the
    operations, and the bits, of its own branch.  A chunk reads r before
    it writes out, so out may be r itself.
    """
    r = np.asarray(r, dtype=float)
    if out is None:
        out = np.empty(r.shape)
    flat_r, flat_out = r.reshape(-1), out.reshape(-1)
    last = table.shape[1] - 1
    n = min(flat_r.size, _CHUNK)
    far_buf, x_buf, tmp_buf = np.empty(n, bool), np.empty(n), np.empty(n)
    i_buf = np.empty(n, np.intp)
    for start in range(0, flat_r.size, _CHUNK):
        rc = flat_r[start:start + _CHUNK]
        oc = flat_out[start:start + _CHUNK]
        m = rc.size
        far = np.greater(rc, profile.r_max, out=far_buf[:m])
        n_far = np.count_nonzero(far)
        x = np.divide(rc, profile._step, out=x_buf[:m])
        # the unsafe cast truncates toward zero, as astype does
        i = i_buf[:m]
        np.copyto(i, x, casting="unsafe")
        np.clip(i, 0, last, out=i)
        x -= i
        if n_far:
            np.subtract(rc, profile.r_max, out=x, where=far)
            np.multiply(x, -profile.sqrt_c, out=x, where=far)
            np.exp(x, out=x, where=far)
            np.multiply(x, tail_scale, out=x, where=far)
        if n_far < m:
            acc = np.take(table[5], i, out=oc, mode="clip")
            tmp = tmp_buf[:m]
            for row in table[4::-1]:
                acc *= x
                acc += np.take(row, i, out=tmp, mode="clip")
        if n_far:
            np.copyto(oc, x, where=far)
    return out


def eval_profile(profile: RadialProfile, r, out=None):
    """Profile values at radii r ≥ 0; exponential decay beyond r_max.

    Inside r_max it is the quintic interpolant of the tabulated nodes,
    evaluated from its table of Taylor coefficients; each radius costs one
    evaluation, by the polynomial or by the exponential.  The result has
    the shape of r and is written into out when given (r itself
    included), a new array otherwise.
    """
    return _spline_or_tail(profile, r, profile._table, profile.values[-1],
                           out)


def eval_profile_deriv(profile: RadialProfile, r, out=None):
    """d/dr of the (extrapolated) profile at radii r ≥ 0: the quintic
    interpolant of the tabulated slopes, evaluated once per radius like
    eval_profile, into out when given."""
    return _spline_or_tail(profile, r, profile._dtable,
                           -profile.sqrt_c * profile.values[-1], out)


_CACHE: dict = {}


def ground_state(c: float, alpha: float, dim: int,
                 n_nodes: int | None = None) -> RadialProfile:
    """Memoized solve_ground_state; profiles are immutable in practice."""
    key = (round(float(c), 12), round(float(alpha), 12), dim, n_nodes)
    if key not in _CACHE:
        _CACHE[key] = solve_ground_state(c, alpha, dim, n_nodes=n_nodes)
    return _CACHE[key]


def dump_profile_csv(profile: RadialProfile) -> str:
    """Serialize as CSV with a header carrying the summary scalars."""
    buf = io.StringIO()
    buf.write(
        f"# c={profile.c!r} alpha={profile.alpha!r} dim={profile.dim} "
        f"peak={profile.peak!r} decay_const={profile.decay_const!r} "
        f"moment2={profile.moment2!r} moment4={profile.moment4!r} "
        f"max_residual={profile.max_residual!r}\n")
    buf.write("r,value,derivative\n")
    for ri, vi, di in zip(profile.r, profile.values, profile.deriv):
        buf.write(f"{float(ri)!r},{float(vi)!r},{float(di)!r}\n")
    return buf.getvalue()


def load_profile_csv(text: str) -> RadialProfile:
    lines = text.strip().splitlines()
    meta = {}
    for item in lines[0].lstrip("# ").split():
        key, val = item.split("=")
        meta[key] = float(val)
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    return RadialProfile(
        c=meta["c"], alpha=meta["alpha"], dim=int(meta["dim"]),
        r=rows[:, 0], values=rows[:, 1], deriv=rows[:, 2],
        peak=meta["peak"], decay_const=meta["decay_const"],
        moment2=meta["moment2"], moment4=meta["moment4"],
        max_residual=meta["max_residual"])
