"""Linearized operators, constrained solves, and the corrector fixed point.

The ansatz (U0, sum of ring bumps) misses being a solution by small
forcing terms.  This module solves for the corrector pair (u, v): u
satisfies the first linearized equation, v the second one constrained to
be L2-orthogonal to the radius mode Z = sum V_i^2 dV_i/dR, with the
orthogonality enforced through a single Lagrange multiplier.  The pair is
found by iterating the contraction map

    (u, v)  <-  (L0^{-1} g0(u, v),  L1^{-1} g1(u, v))

from (0, 0), symmetrizing every iterate.

Linear systems are symmetric indefinite and solved by MINRES with a
spectral (sine-transform) preconditioner.  The second-order Laplacian
plus a positive shift, with zero ghost values one spacing outside a box,
is diagonalized exactly by the type-I discrete sine transform on that
box.  The transform runs on a centred box of m >= n_axis nodes per axis
with m + 1 5-smooth, so each apply is a fast FFT whatever the grid size:
the field is zero-padded into that box, the padded operator is inverted,
and the inner n_axis block is read back.  That block R A'^{-1} R^T of the
inverse of an SPD operator is itself SPD, as MINRES requires.  When
n_axis + 1 is already 5-smooth the box is the grid and the inverse is
exact for the shifted stencil.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dstn, next_fast_len
from scipy.sparse.linalg import LinearOperator, minres

from .energy import potential_field
from .geometry import (BumpConfiguration, bump_centers, bump_cubes_field,
                       bump_sum_field, constraint_field, radial_field,
                       symmetrize, symmetrize_fast)
from .grid import Field, Grid, grid_for_radius, laplacian, norm_E, quad_product
from .model import (CouplingBudget, ModelParams, bump_radius_interval,
                    compute_gamma0_f0, derive_exponents, make_potential)
from .radial import ground_state


class CorrectorDivergence(RuntimeError):
    """The Picard steps of the corrector map grow instead of contracting."""


class LinearSolveStalled(RuntimeError):
    """MINRES could not bring the true residual below the tolerance."""


# ---------------------------------------------------------------------------
# right-hand sides


def g0_rhs(u: Field, v: Field, U0f: Field, bumpsum: Field,
           params: ModelParams) -> Field:
    """3 a0 U0 u^2 + a0 u^3 + beta (U0 + u)(W + v)^2, nodewise."""
    ud, vd = u.data, v.data
    U, W = U0f.data, bumpsum.data
    out = 3.0 * params.alpha0 * U * ud * ud + params.alpha0 * ud ** 3 \
        + params.beta * (U + ud) * (W + vd) ** 2
    return Field(u.grid, out)


def g1_rhs(u: Field, v: Field, U0f: Field, bumpsum: Field, cubes: Field,
           mu: Field, params: ModelParams) -> Field:
    """Second-equation right-hand side, nodewise.

    3 a1 W v^2 + a1 v^3 + beta (U0 + u)^2 (W + v)
      - (mu - 1) W + a1 (W^3 - sum V_i^3).

    The last two groups are the forcing at (u, v) = (0, 0): the potential
    deviation felt by the ring and the cube/sum-of-cubes mismatch (which
    vanishes identically for a single bump).
    """
    ud, vd = u.data, v.data
    U, W = U0f.data, bumpsum.data
    out = 3.0 * params.alpha1 * W * vd * vd + params.alpha1 * vd ** 3 \
        + params.beta * (U + ud) ** 2 * (W + vd) \
        - (mu.data - 1.0) * W + params.alpha1 * (W ** 3 - cubes.data)
    return Field(u.grid, out)


# ---------------------------------------------------------------------------
# linearized operators (strong form, second-order stencil)


def apply_L0(u: Field, U0f: Field, params: ModelParams) -> Field:
    """-lap u + lam u - 3 a0 U0^2 u."""
    pot = params.lam - 3.0 * params.alpha0 * U0f.data ** 2
    return Field(u.grid, -laplacian(u).data + pot * u.data)


def apply_L1(v: Field, bumpsum: Field, mu: Field,
             params: ModelParams) -> Field:
    """-lap v + mu v - 3 a1 W^2 v."""
    pot = mu.data - 3.0 * params.alpha1 * bumpsum.data ** 2
    return Field(v.grid, -laplacian(v).data + pot * v.data)


# ---------------------------------------------------------------------------
# spectral preconditioner


def _padded_size(n_axis: int) -> int:
    """Smallest odd m >= n_axis (odd) with m + 1 5-smooth."""
    return 2 * next_fast_len((n_axis + 1) // 2, real=True) - 1


@lru_cache(maxsize=8)
def _inverse_spectrum(n_box: int, dim: int, h: float,
                      shift: float) -> np.ndarray:
    """1 / (stencil eigenvalues + shift) for -lap with zero ghosts on a
    box of n_box nodes per axis."""
    j = np.arange(1, n_box + 1)
    lam1 = (2.0 - 2.0 * np.cos(np.pi * j / (n_box + 1))) / (h * h)
    total = np.zeros((n_box,) * dim)
    for ax in range(dim):
        shape = [1] * dim
        shape[ax] = n_box
        total = total + lam1.reshape(shape)
    return 1.0 / (total + shift)


def _precondition(x: np.ndarray, g: Grid, inv: np.ndarray) -> np.ndarray:
    """Inner block of the inverse spectrum applied on the padded box."""
    pad = (inv.shape[0] - g.n_axis) // 2
    inner = (slice(pad, pad + g.n_axis),) * g.dim
    t = np.zeros(inv.shape)
    t[inner] = x.reshape(g.shape)
    t = dstn(t, type=1, norm="ortho", overwrite_x=True)
    t *= inv
    return dstn(t, type=1, norm="ortho", overwrite_x=True)[inner].ravel()


def _solve_minres(matvec, precond, b: np.ndarray, tol: float,
                  label: str) -> np.ndarray:
    """MINRES with verification of the true residual.

    The preconditioned convergence test can understate the true residual,
    so the solve is repeated with a tighter inner tolerance until
    ||A x - b|| <= tol ||b|| holds, or reported as stalled with the
    achieved residual history.
    """
    bnorm = math.sqrt(float(np.dot(b, b)))
    if bnorm == 0.0:
        return np.zeros_like(b)
    n = b.size
    A = LinearOperator((n, n), matvec=matvec, dtype=float)
    M = LinearOperator((n, n), matvec=precond, dtype=float)
    history = []
    x = None
    rtol = tol / 20.0
    maxiter = 1200
    for _ in range(3):
        x, _info = minres(A, b, x0=x, rtol=rtol, maxiter=maxiter, M=M)
        r = matvec(x) - b
        res = math.sqrt(float(np.dot(r, r))) / bnorm
        history.append(res)
        if res <= tol:
            return x
        rtol /= 100.0
        maxiter *= 2
    raise LinearSolveStalled(
        f"{label} solve stalled: relative residuals {history} "
        f"did not reach {tol:g} (near-singular symmetric operator?)")


def solve_L0(rhs: Field, U0f: Field, params: ModelParams, tol: float,
             k: int | None = None) -> Field:
    """u with ||apply_L0(u) - rhs||_L2 <= tol ||rhs||_L2.

    rhs is expected to lie in the symmetric subspace; when the fold order
    k is supplied the returned solution is re-symmetrized to clean the
    rounding-level drift of the Krylov iteration.
    """
    g = rhs.grid
    pot = params.lam - 3.0 * params.alpha0 * U0f.data ** 2
    inv = _inverse_spectrum(_padded_size(g.n_axis), g.dim, g.h, params.lam)

    def mv(x):
        a = x.reshape(g.shape)
        out = -laplacian(Field(g, a)).data + pot * a
        return out.ravel()

    x = _solve_minres(mv, lambda x: _precondition(x, g, inv),
                      rhs.data.ravel(), tol, "L0")
    u = Field(g, x.reshape(g.shape))
    if k is not None:
        u = symmetrize_fast(u, k)
    return u


def _project_off_Z(v: Field, Z: Field, zz: float) -> Field:
    """Exact L2 re-projection: v minus (quad(Z v) / zz) Z, zz = quad(Z^2)."""
    return Field(v.grid, v.data - (quad_product(Z, v) / zz) * Z.data)


def solve_L1_constrained(rhs: Field, bumpsum: Field, mu: Field, Z: Field,
                         params: ModelParams, tol: float,
                         k: int | None = None) -> tuple[Field, float]:
    """Solve apply_L1(v) + lam_c Z = rhs with quad(Z v) = 0.

    The augmented saddle system couples the field unknowns with one
    multiplier through the plain node sum of Z v (identical to the L2
    pairing away from the decayed boundary shell), which keeps the system
    exactly symmetric for MINRES.  Returns (v, lam_c).
    """
    g = rhs.grid
    zz = quad_product(Z, Z)
    if zz <= 1e-300:
        raise ValueError("degenerate constraint: quad(Z^2) is zero")
    pot = mu.data - 3.0 * params.alpha1 * bumpsum.data ** 2
    inv = _inverse_spectrum(_padded_size(g.n_axis), g.dim, g.h, 1.0)
    zflat = Z.data.ravel()
    n = zflat.size

    def mv(x):
        a = x[:-1].reshape(g.shape)
        out = -laplacian(Field(g, a)).data + pot * a + x[-1] * Z.data
        return np.concatenate([out.ravel(), [float(np.dot(zflat, x[:-1]))]])

    zprec = _precondition(zflat, g, inv)
    schur = float(np.dot(zflat, zprec))

    def pc(x):
        head = _precondition(x[:-1], g, inv)
        return np.concatenate([head, [x[-1] / schur]])

    b = np.concatenate([rhs.data.ravel(), [0.0]])
    x = _solve_minres(mv, pc, b, tol, "L1")
    v = Field(g, x[:-1].reshape(g.shape))
    lam_c = float(x[-1])
    if k is not None:
        v = symmetrize_fast(v, k)
    # the Krylov tolerance and the symmetrization leave a rounding-level
    # component along Z
    return _project_off_Z(v, Z, zz), lam_c


def rayleigh_floor(U0f: Field, params: ModelParams, k: int,
                   n_iter: int = 6, tol: float = 1e-7) -> float:
    """Smallest |eigenvalue| of the first linearized operator on the
    symmetric subspace, estimated by inverse iteration.

    A numeric stand-in for the invertibility constant rho_0: the test
    suite only asserts it stays bounded away from zero across grids.
    """
    g = U0f.grid
    mesh = g.mesh()
    r2 = sum(np.broadcast_to(m, g.shape) ** 2 for m in mesh)
    bump = np.exp(-0.5 * ((mesh[0] - 0.4) ** 2 + (mesh[1] + 0.2) ** 2))
    w = Field(g, np.exp(-0.25 * r2) * (1.0 + 0.3 * np.broadcast_to(bump,
                                                                   g.shape)))
    w = symmetrize_fast(w, k)
    quotient = math.inf
    for _ in range(n_iter):
        w = solve_L0(w, U0f, params, tol, k=k)
        scale = math.sqrt(quad_product(w, w))
        w = Field(g, w.data / scale)
        quotient = quad_product(w, apply_L0(w, U0f, params)) \
            / quad_product(w, w)
    return abs(quotient)


# ---------------------------------------------------------------------------
# fixed point


@dataclass
class CorrectorInputs:
    """Grid-sampled ingredients shared by the corrector solves at one R."""

    g: Grid
    config: BumpConfiguration
    u0_profile: object
    v0_profile: object
    U0f: Field
    W: Field
    cubes: Field
    mu: Field
    Z: Field
    budget: CouplingBudget


def build_inputs(k: int, Rvalue: float, params: ModelParams,
                 h: float | None = None,
                 L: float | None = None) -> CorrectorInputs:
    g = grid_for_radius(Rvalue, params.lam, params.dim, h=h, L=L)
    u0 = ground_state(params.lam, params.alpha0, params.dim)
    v0 = ground_state(1.0, params.alpha1, params.dim)
    config = bump_centers(k, Rvalue, params.dim)
    U0f = radial_field(g, u0)
    W = bump_sum_field(g, v0, config)
    cubes = bump_cubes_field(g, v0, config)
    mu = potential_field(g, make_potential(params))
    Z = constraint_field(g, v0, config)
    budget = compute_gamma0_f0(U0f.data, W.data, v0.decay_const)
    return CorrectorInputs(g=g, config=config, u0_profile=u0, v0_profile=v0,
                           U0f=U0f, W=W, cubes=cubes, mu=mu, Z=Z,
                           budget=budget)


@dataclass
class CorrectorResult:
    u: Field
    v: Field
    norm_E: float
    iterations: int
    contraction_factor: float
    lagrange: float
    converged: bool
    steps: list

    def as_dict(self) -> dict:
        return {
            "norm_E": self.norm_E,
            "iterations": self.iterations,
            "contraction_factor": self.contraction_factor,
            "lagrange": self.lagrange,
            "converged": self.converged,
            "steps": list(self.steps),
        }


def _forcing_split(inputs: CorrectorInputs, params: ModelParams) -> str:
    """L2 norms of the three parts of the forcing at (u, v) = (0, 0)."""
    U, W = inputs.U0f.data, inputs.W.data

    def l2(*parts):
        return math.sqrt(sum(quad_product(Field(inputs.g, p * p))
                             for p in parts))

    potential = l2((inputs.mu.data - 1.0) * W)
    overlap = l2(params.alpha1 * (W ** 3 - inputs.cubes.data))
    coupling = l2(params.beta * U * W ** 2, params.beta * U ** 2 * W)
    return (f"forcing L2 norms at (u, v) = (0, 0): potential (mu - 1) W "
            f"{potential:.4g}, overlap a1 (W^3 - sum V_i^3) {overlap:.4g}, "
            f"beta terms b U0 W^2 and b U0^2 W {coupling:.4g}")


def fixed_point_iterate(inputs: CorrectorInputs, params: ModelParams,
                        tol: float = 1e-8,
                        max_iter: int = 50) -> CorrectorResult:
    """Iterate the corrector map from (0, 0) until the E-norm step < tol.

    The fold order k and the radius R are read from ``inputs.config``.
    Both components are refreshed simultaneously from the previous pair;
    each iterate is symmetrized (fast projection in the loop, accurate one
    on the final pair).  Merely warns when R lies outside the admissible
    window.  Raises

    - ValueError when |beta| >= f0 (contraction hypothesis);
    - CorrectorDivergence after five consecutive non-decreasing step
      ratios;
    - CorrectorDivergence when a step exceeds 1e4 times the first step;
    - CorrectorDivergence when an inner solve raises LinearSolveStalled
      right after a non-decreasing step (any other stall propagates as
      LinearSolveStalled).
    """
    k, Rvalue = inputs.config.k, inputs.config.R
    if abs(params.beta) >= inputs.budget.f0:
        raise ValueError(
            f"|beta| = {abs(params.beta):g} >= f0 = {inputs.budget.f0:g}: "
            "coupling too strong for the contraction argument")
    delta0 = derive_exponents(params.m, params.theta).delta0
    if k >= 2:
        lo, hi = bump_radius_interval(k, params.m, delta0)
        if not lo <= Rvalue <= hi:
            warnings.warn(f"R = {Rvalue:g} outside the admissible window "
                          f"[{lo:g}, {hi:g}] for k = {k}", stacklevel=2)

    g = inputs.g
    lin_tol = tol / 10.0
    u = Field(g, np.zeros(g.shape))
    v = Field(g, np.zeros(g.shape))
    lagrange = 0.0
    steps: list[float] = []
    ratios: list[float] = []
    converged = False
    iterations = 0

    def _divergence_error():
        return CorrectorDivergence(
            f"fixed point diverging at R = {Rvalue:g}, k = {k}: "
            f"steps {steps}; {_forcing_split(inputs, params)}")

    for iterations in range(1, max_iter + 1):
        b0 = g0_rhs(u, v, inputs.U0f, inputs.W, params)
        b1 = g1_rhs(u, v, inputs.U0f, inputs.W, inputs.cubes, inputs.mu,
                    params)
        try:
            u_new = solve_L0(b0, inputs.U0f, params, lin_tol, k=k)
            v_new, lagrange = solve_L1_constrained(
                b1, inputs.W, inputs.mu, inputs.Z, params, lin_tol, k=k)
        except LinearSolveStalled as exc:
            # A stalled inner solve on a blown-up right-hand side is the
            # same failure the step-ratio test detects, reported sooner.
            if ratios and ratios[-1] >= 1.0:
                raise _divergence_error() from exc
            raise
        step = norm_E(u_new - u, v_new - v, params.lam, inputs.mu)
        if steps:
            ratios.append(step / steps[-1] if steps[-1] > 0 else 0.0)
        steps.append(step)
        u, v = u_new, v_new
        if step < tol:
            converged = True
            break
        if len(ratios) >= 5 and all(r >= 1.0 for r in ratios[-5:]):
            raise _divergence_error()
        if steps[0] > 0 and step > 1e4 * steps[0]:
            raise _divergence_error()

    u = symmetrize(u, k)
    v = _project_off_Z(symmetrize(v, k), inputs.Z,
                       quad_product(inputs.Z, inputs.Z))
    return CorrectorResult(
        u=u, v=v,
        norm_E=norm_E(u, v, params.lam, inputs.mu),
        iterations=iterations,
        contraction_factor=max(ratios) if ratios else 0.0,
        lagrange=lagrange,
        converged=converged,
        steps=steps,
    )
