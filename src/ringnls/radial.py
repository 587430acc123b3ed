"""Radial ground-state profiles of  -w'' - (N-1)/r w' + c w = α w³.

The positive decreasing homoclinic solution (w'(0) = 0, w(∞) = 0) is
found by amplitude shooting: integrating outward from a series start,
an amplitude that is too large drives w through zero while one that is
too small makes w turn back upward, and bisection on that dichotomy
pins the critical amplitude.  Because the homoclinic orbit is unstable
under forward integration, the final profile is assembled from two
stable pieces: the forward solution down to a merge radius, and a
backward integration seeded at r_max with the exact linear-tail shape
(e^{-√c r} for N = 1, K0(√c r) for N = 2, e^{-√c r}/r for N = 3) whose
amplitude is matched by a secant iteration.  The result is accurate to
integrator tolerance on the whole grid.

N = 1 admits the closed form √(2c/α) sech(√c r) and is kept as an
oracle for tests; production runs use N ∈ {2, 3}.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import make_interp_spline
from scipy.special import k0e, k1e

from .grid import _G8

_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


class ShootingError(RuntimeError):
    pass


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
        # quintic interpolation on a parity-mirrored extension: w is even
        # and w' odd about r = 0, so reflecting a few nodes gives interior
        # accuracy (~h^6) at the peak instead of one-sided end conditions.
        # Field assembly samples these splines at every grid node, and any
        # evaluation error shows up directly as asymmetry of the ansatz.
        rm = np.concatenate([-self.r[5:0:-1], self.r])
        vm = np.concatenate([self.values[5:0:-1], self.values])
        dm = np.concatenate([-self.deriv[5:0:-1], self.deriv])
        self._spline = make_interp_spline(rm, vm, k=5)
        self._dspline = make_interp_spline(rm, dm, k=5)

    @property
    def r_max(self):
        return float(self.r[-1])

    @property
    def sqrt_c(self):
        return math.sqrt(self.c)


def _rhs(c, alpha, dim):
    n1 = dim - 1

    def f(r, y):
        w, dw = y
        return (dw, c * w - alpha * w * w * w - (n1 / r) * dw)

    return f


def _series_start(c, alpha, dim, w0, r0):
    # w(r) = w0 + w2 r² + O(r⁴),  2N w2 = c w0 - α w0³
    w2 = (c * w0 - alpha * w0 ** 3) / (2.0 * dim)
    return np.array([w0 + w2 * r0 * r0, 2.0 * w2 * r0])


def _classify(c, alpha, dim, w0, r_end, rtol):
    """'high' if w crosses zero, 'low' if it turns back upward."""
    r0 = 1e-8 / math.sqrt(c)
    y0 = _series_start(c, alpha, dim, w0, r0)

    def ev_cross(r, y):
        return y[0]

    def ev_turn(r, y):
        return y[1]

    ev_cross.terminal = True
    ev_cross.direction = -1
    ev_turn.terminal = True
    ev_turn.direction = 1
    sol = solve_ivp(_rhs(c, alpha, dim), (r0, r_end), y0, method="RK45",
                    rtol=rtol, atol=1e-14 * w0, events=(ev_cross, ev_turn))
    if sol.t_events[0].size:
        return "high"
    if sol.t_events[1].size:
        return "low"
    return "low" if sol.y[0, -1] > 0 else "high"


def _bisect(c, alpha, dim, r_end, lo, hi, rtol, width):
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _classify(c, alpha, dim, mid, r_end, rtol) == "high":
            hi = mid
        else:
            lo = mid
    return lo, hi


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


def solve_ground_state(c: float, alpha: float, dim: int,
                       r_max: float | None = None,
                       n_nodes: int | None = None) -> RadialProfile:
    """Shoot for the ground state and tabulate it on a uniform grid.

    By default the grid extent scales with the tail length 1/sqrt(c) and
    the spacing resolves the curvature length at the peak, so the
    tabulated profile satisfies the ODE well below 1e-8*peak at every
    node (checked with an 8th-order stencil and stored in max_residual).
    The profile decays monotonically and carries the decay constant M
    plus the quadrature moments of w**2 and w**4.
    """
    if c <= 0 or alpha <= 0:
        raise ValueError(f"need c > 0 and alpha > 0, got c={c}, alpha={alpha}")
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if r_max is None:
        r_max = 30.0 / math.sqrt(c)
    if r_max < 15.0 / math.sqrt(c):
        raise ValueError(f"r_max={r_max} too small to resolve the tail")

    scale = math.sqrt(c / alpha)
    lo = 1.05 * scale
    if _classify(c, alpha, dim, lo, r_max, 1e-8) != "low":
        raise ShootingError(
            f"lower bracket amplitude {lo!r} did not re-increase")
    hi = 2.0 * math.sqrt(2.0) * scale
    tried = []
    for _ in range(8):
        if _classify(c, alpha, dim, hi, r_max, 1e-8) == "high":
            break
        tried.append(hi)
        hi *= 2.0
    else:
        raise ShootingError(
            f"failed to bracket the critical amplitude from above; "
            f"tried {tried!r}")

    # bisection pins the amplitude well enough to seed the matched solve
    lo, hi = _bisect(c, alpha, dim, r_max, lo, hi, 1e-8, 1e-6 * scale)
    w0 = 0.5 * (lo + hi)

    # spacing that resolves the curvature length at the peak,
    # s^2 = w(0)/|w''(0)| with w''(0) = (c*w0 - alpha*w0^3)/dim
    s = math.sqrt(dim / (alpha * w0 * w0 - c))
    if n_nodes is None:
        # dense enough that cubic-spline evaluation between nodes stays
        # below ~1e-10 of the peak (field assembly resamples the profile
        # at arbitrary radii, so evaluation error must not dominate)
        n_nodes = int(math.ceil(140.0 * r_max / s)) + 1
        n_nodes += (-(n_nodes - 1)) % 4  # odd, and n-1 divisible by 4
        n_nodes = min(max(n_nodes, 801), 6001)

    r = np.linspace(0.0, r_max, n_nodes)
    h = r[1] - r[0]
    rhs = _rhs(c, alpha, dim)
    r0 = 1e-8 / math.sqrt(c)

    # merge node: forward data stays contamination-free down to ~1e-2 peak
    thr = 1e-2 * w0

    def ev_thr(t, y):
        return y[0] - thr

    ev_thr.terminal = True
    ev_thr.direction = -1
    probe = solve_ivp(rhs, (r0, r_max), _series_start(c, alpha, dim, w0, r0),
                      method="DOP853", rtol=1e-11, atol=1e-14 * w0, events=ev_thr)
    if not probe.t_events[0].size:
        raise ShootingError("forward solution never reached the merge threshold")
    i_match = min(int(np.floor(float(probe.t_events[0][0]) / h)), n_nodes - 2)
    i_match = max(i_match, 1)
    r_match = r[i_match]

    # backward integration starts where the tail has decayed to ~3e-6 of
    # the peak: from there outward the linear tail is the solution to
    # better than 1e-14*peak (the nonlinear correction is O((w/w0)^3)),
    # so the remaining nodes are filled analytically
    coef_est = float(thr / _tail(c, dim, r_match)[0])
    tail_est = coef_est * _tail(c, dim, r[i_match:])[0]
    below = np.nonzero(tail_est <= 3e-6 * w0)[0]
    i_tail = i_match + int(below[0]) if below.size else n_nodes - 1
    i_tail = min(max(i_tail, i_match + 8), n_nodes - 1)
    r_tail = r[i_tail]
    t_val, t_slope = _tail(c, dim, r_tail)

    def fwd_at_match(amp, dense=False):
        step = 0.08 / math.sqrt(c) if dense else np.inf
        sol = solve_ivp(rhs, (r0, r_match), _series_start(c, alpha, dim, amp, r0),
                        method="DOP853", rtol=3e-13, atol=1e-16 * w0,
                        dense_output=dense, max_step=step)
        return sol

    def bwd_at_match(coef, dense=False):
        step = 0.08 / math.sqrt(c) if dense else np.inf
        sol = solve_ivp(rhs, (r_tail, r_match), [coef * t_val, coef * t_slope],
                        method="DOP853", rtol=3e-13, atol=1e-280,
                        dense_output=dense, max_step=step)
        return sol

    def matched_tail(w_match, coef_seed):
        # secant on the tail amplitude until the backward value meets w_match
        ca, sol_a = coef_seed, bwd_at_match(coef_seed)
        fa = sol_a.y[0, -1] - w_match
        cb = coef_seed * (1.0 + 1e-6)
        sol_b = bwd_at_match(cb)
        fb = sol_b.y[0, -1] - w_match
        for _ in range(12):
            if abs(fb) <= 1e-14 * w_match or fb == fa:
                break
            cn = cb - fb * (cb - ca) / (fb - fa)
            ca, fa = cb, fb
            cb = cn
            sol_b = bwd_at_match(cb)
            fb = sol_b.y[0, -1] - w_match
        return cb, sol_b

    def slope_gap(amp, state):
        fwd = fwd_at_match(amp)
        w_m, dw_m = fwd.y[0, -1], fwd.y[1, -1]
        coef, bwd = matched_tail(w_m, state["coef"] * w_m / state["w_m"])
        state.update(coef=coef, w_m=w_m)
        return float(bwd.y[1, -1] - dw_m)

    # secant polish of the amplitude on the merge-slope mismatch
    state = {"coef": float(thr / _tail(c, dim, r_match)[0]), "w_m": float(thr)}
    amp_a, amp_b = lo, hi
    gap_a = slope_gap(amp_a, state)
    gap_b = slope_gap(amp_b, state)
    for _ in range(14):
        if gap_b == gap_a:
            break
        amp_n = amp_b - gap_b * (amp_b - amp_a) / (gap_b - gap_a)
        if not (min(amp_a, amp_b) - 1e-6 * scale
                <= amp_n
                <= max(amp_a, amp_b) + 1e-6 * scale):
            amp_n = 0.5 * (amp_a + amp_b)
        amp_a, gap_a = amp_b, gap_b
        amp_b = amp_n
        gap_b = slope_gap(amp_b, state)
        if abs(gap_b) <= 2e-14 * w0:
            break
    w0 = float(amp_b)

    # final assembly at the polished amplitude
    fwd = fwd_at_match(w0, dense=True)
    w_match, dw_match = fwd.y[0, -1], fwd.y[1, -1]
    tail_coef, _ = matched_tail(w_match, state["coef"] * w_match / state["w_m"])
    bwd = bwd_at_match(tail_coef, dense=True)

    values = np.empty(n_nodes)
    deriv = np.empty(n_nodes)
    values[0], deriv[0] = w0, 0.0
    if i_match >= 1:
        wf = fwd.sol(r[1:i_match + 1])
        values[1:i_match + 1], deriv[1:i_match + 1] = wf[0], wf[1]
    wb = bwd.sol(r[i_match + 1:i_tail + 1])
    values[i_match + 1:i_tail + 1] = wb[0]
    deriv[i_match + 1:i_tail + 1] = wb[1]
    if i_tail + 1 < n_nodes:
        far_v, far_s = _tail(c, dim, r[i_tail + 1:])
        values[i_tail + 1:] = tail_coef * far_v
        deriv[i_tail + 1:] = tail_coef * far_s

    gap = abs(float(bwd.y[1, -1]) - dw_match)
    if gap > 1e-10 * w0:
        raise ShootingError(f"merge slope mismatch {gap:.3e} after polish")

    # measure the defect on a subgrid near the validated spacing s/36:
    # finer grids would amplify the integrator's node-level noise through
    # the 1/h of the difference stencil without improving the solution
    stride = max(1, int(round(s / 36.0 / h)))
    while (r.size - 1) % stride:
        stride -= 1
    max_res = _residual_check(c, alpha, dim, r[::stride], values[::stride],
                              deriv[::stride], tail_coef)
    m2, m4 = _moments(dim, r, values)
    profile = RadialProfile(
        c=c, alpha=alpha, dim=dim, r=r, values=values, deriv=deriv,
        peak=float(w0), decay_const=_decay_const(c, dim, r, values),
        moment2=m2, moment4=m4, max_residual=max_res)
    return profile


def _residual_check(c, alpha, dim, r, values, deriv, tail_coef):
    """Max defect of the first-order system over all nodes.

    Checks both w' = deriv and deriv' = -((N-1)/r) deriv + c w - alpha w^3
    with 8th-order first-derivative stencils; differentiating the stored
    arrays once keeps the node-level integration noise amplified by only
    ~1/h rather than the ~1/h^2 of a direct second difference.  Parity
    supplies exact ghost data left of r = 0 (w even, w' odd); the matched
    linear tail supplies it beyond r_max.  The slope defect is weighted
    by sqrt(c) so both components share the units of the ODE residual.
    """
    n = values.size
    h = r[1] - r[0]
    tail_v, tail_s = _tail(c, dim, r[-1] + h * np.arange(1, 5))
    ext_v = np.concatenate([values[4:0:-1], values, tail_coef * tail_v])
    ext_s = np.concatenate([-deriv[4:0:-1], deriv, tail_coef * tail_s])

    def d1(ext):
        out = np.zeros(n)
        for j, w in enumerate(_G8):
            if w:
                out += w * ext[j:j + n]
        return out / h

    res1 = d1(ext_v) - deriv
    dslope = d1(ext_s)
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


def eval_profile(profile: RadialProfile, r):
    """Profile values at radii r ≥ 0; exponential decay beyond r_max."""
    r = np.asarray(r, dtype=float)
    out = profile._spline(np.minimum(r, profile.r_max))
    far = r > profile.r_max
    if np.any(far):
        out = np.where(
            far,
            profile.values[-1] * np.exp(-profile.sqrt_c * (r - profile.r_max)),
            out)
    return out


def eval_profile_deriv(profile: RadialProfile, r):
    """d/dr of the (extrapolated) profile at radii r ≥ 0."""
    r = np.asarray(r, dtype=float)
    out = profile._dspline(np.minimum(r, profile.r_max))
    far = r > profile.r_max
    if np.any(far):
        out = np.where(
            far,
            -profile.sqrt_c * profile.values[-1]
            * np.exp(-profile.sqrt_c * (r - profile.r_max)),
            out)
    return out


_CACHE: dict = {}


def ground_state(c: float, alpha: float, dim: int, r_max: float | None = None,
                 n_nodes: int | None = None) -> RadialProfile:
    """Memoized solve_ground_state; profiles are immutable in practice."""
    key = (round(float(c), 12), round(float(alpha), 12), dim,
           None if r_max is None else round(float(r_max), 9), n_nodes)
    if key not in _CACHE:
        _CACHE[key] = solve_ground_state(c, alpha, dim, r_max=r_max, n_nodes=n_nodes)
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
