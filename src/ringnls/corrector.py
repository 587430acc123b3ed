"""Linearized operators, constrained solves, and the corrector fixed point.

The ansatz (U0, sum of ring bumps) misses being a solution by small
forcing terms.  This module solves for the corrector pair (u, v): u
satisfies the first linearized equation, v the second one constrained to
be L2-orthogonal to the radius mode Z = sum V_i^2 dV_i/dR, with the
orthogonality enforced through a single Lagrange multiplier.  The pair is
found by iterating the contraction map

    (u, v)  <-  (L0^{-1} g0(u, v),  L1^{-1} g1(u, v))

from (0, 0), symmetrizing every iterate.  Once a step has shrunk, the
right-hand sides change by geometrically smaller amounts, so each linear
solve then starts from the previous iterate (u for L0, v with its
multiplier for L1) instead of from zero; until then, and whenever a step
fails to shrink, it starts from zero.

The symmetric class contains the reflections of the axes mirror_axes(k):
y2 (and y3 in 3-D) always, y1 for even k.  The iteration therefore runs
on the part of the box that they fix, the nodes from the centre on along
each mirrored axis, half the grid for odd k and a quarter (an eighth in
3-D) for even k: build_inputs samples U0, W, Sigma V_i^3, mu and Z on
that part (``CorrectorInputs`` holds them mirrored back to the full
grid), the loop cuts them to it once (``grid.fold``), and the iterates,
right-hand sides, linear solves, symmetrizations, Z projections and
E-norm steps all stay there.  The
folded stencils read the node at index -j of a mirrored axis as the
mirror copy of node j and the quadratures weight each node by its number
of full-grid copies, so every value on the part is that of the full
grid.  Only the returned pair is mirrored back to the full grid.

Linear systems are symmetric indefinite and solved by ``minres``, a
preconditioned MINRES with a spectral preconditioner.  Next to each
search direction w it recurs A w from the A v of its Lanczos step, so it
updates the residual b - A x in place and stops on ||b - A x|| <=
tol ||b|| itself, rather than on a backward-error estimate.  Each solve
runs on the grid its inputs carry, full or folded, with the unknowns
scaled by sqrt(w), w the number of full-grid mirror copies of a node (1
on an unmirrored grid).  That makes the folded stencil and
preconditioner symmetric and the Euclidean products those of the full
grid; in exact arithmetic the Krylov iterates are the full-grid ones and
the folded residual norm is the full-grid one.  Each MINRES pass then
recomputes its residual from the returned iterate, and a restart from
that iterate covers rounding drift of the recurred residual.  Given the
fold order k, the answer is projected onto the symmetric class.

The preconditioner inverts the second-order Laplacian plus a positive
shift, with zero ghost values one spacing outside a box, which the type-I
discrete sine transform diagonalizes exactly on that box.  The transform
runs on a centred box of m >= n_axis nodes per axis with m + 1 5-smooth,
so each apply is a fast FFT whatever the grid size: the field is
zero-padded into that box, the padded operator is inverted, and the inner
n_axis block is read back.  That block R A'^{-1} R^T of the inverse of an
SPD operator is itself SPD, as MINRES requires.  When n_axis + 1 is
already 5-smooth the box is the grid and the inverse is exact for the
shifted stencil.  On a folded axis only the sine modes even about the
centre, j = 2l + 1, are kept; on the half box of (m + 1) / 2 nodes they
are cosine modes, applied as a DCT-III, the spectrum, and a DCT-II.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dctn, dstn, next_fast_len

from .energy import potential_field
# bump_sum_field, bump_cubes_field, constraint_field and symmetrize are
# not called here, but perfbench/spans.py patches them on this module by
# name; it times the projections below under symmetrize_fast
from .geometry import (BumpConfiguration, bump_centers, bump_cubes_field,
                       bump_sum_field, constraint_field, mirror_axes,
                       radial_field, ring_fields, symmetrize)
from .geometry import symmetrize as symmetrize_fast
from .grid import (Field, Grid, fold, grid_for_radius, laplacian,
                   laplacian_eigenvalues, norm_E, quad_product, unfold,
                   zeros)
from .model import (CouplingBudget, ModelParams, bump_radius_interval,
                    compute_gamma0_f0, derive_exponents, make_potential)
from .radial import ground_state


class CorrectorDivergence(RuntimeError):
    """The Picard steps of the corrector map grow instead of contracting.

    ``steps`` holds the E-norm step of each completed Picard step and
    ``krylov_iters`` its [L0, L1] MINRES iterations, as in
    ``CorrectorResult``.
    """

    def __init__(self, message: str, steps=(), krylov_iters=()):
        super().__init__(message)
        self.steps = list(steps)
        self.krylov_iters = [list(p) for p in krylov_iters]


class LinearSolveStalled(RuntimeError):
    """MINRES could not bring the true residual below the tolerance."""


# ---------------------------------------------------------------------------
# right-hand sides


def g0_rhs(u: Field, v: Field, U0f: Field, bumpsum: Field,
           params: ModelParams) -> Field:
    """3 a0 U0 u^2 + a0 u^3 + beta (U0 + u)(W + v)^2, nodewise."""
    ud, vd = u.data, v.data
    U, W = U0f.data, bumpsum.data
    out = 3.0 * params.alpha0 * U * ud * ud + params.alpha0 * ud * ud * ud \
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
    out = 3.0 * params.alpha1 * W * vd * vd + params.alpha1 * vd * vd * vd \
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
# the spectral preconditioner and the scaled operator


def _padded_size(n_axis: int) -> int:
    """Smallest odd m >= n_axis (odd) with m + 1 5-smooth."""
    return 2 * next_fast_len((n_axis + 1) // 2, real=True) - 1


@lru_cache(maxsize=8)
def _inverse_spectrum(n_box: int, dim: int, h: float, shift: float,
                      folded: tuple = ()) -> np.ndarray:
    """1 / (stencil eigenvalues + shift) for -lap with zero ghosts on a
    box of n_box nodes per axis.

    An axis in ``folded`` keeps only the sine modes even about the box
    centre, j = 2l + 1, which are the cosine modes cos(pi (2l + 1) p /
    (2 M_b)) of the half box of M_b = (n_box + 1) / 2 nodes; the array
    also carries the 1 / (2 M_b) per folded axis that normalizes the
    unnormalized DCT-III/DCT-II pair of ``_precondition``.
    """
    j = np.arange(1, n_box + 1)
    total = np.zeros(tuple((n_box + 1) // 2 if ax in folded else n_box
                           for ax in range(dim)))
    for ax in range(dim):
        modes = j[::2] if ax in folded else j
        shape = [1] * dim
        shape[ax] = modes.size
        total = total + laplacian_eigenvalues(n_box, h, modes).reshape(shape)
    return 1.0 / (total + shift) / (n_box + 1) ** len(folded)


def _precondition(x: np.ndarray, g: Grid, inv: np.ndarray) -> np.ndarray:
    """Inner block of the inverse spectrum applied on the padded box.

    Unmirrored axes of g run the orthonormal DST-I over the centred box.
    On a mirrored axis x holds the half from the centre node on, the
    field being even there; it sits at the start of the half box and
    runs DCT-III, then the spectrum, then DCT-II, which is the full DST-I
    pair restricted to the even modes.  ``inv`` comes from
    ``_inverse_spectrum`` with ``g.mirrored`` as its folded axes.
    """
    axes = g.mirrored
    inner = tuple(slice(0, g.centre + 1) if ax in axes else
                  slice((inv.shape[ax] - g.n_axis) // 2,
                        (inv.shape[ax] + g.n_axis) // 2)
                  for ax in range(g.dim))
    plain = tuple(ax for ax in range(g.dim) if ax not in axes)
    t = np.zeros(inv.shape)
    t[inner] = x.reshape(t[inner].shape)
    if plain:
        t = dstn(t, type=1, norm="ortho", axes=plain, overwrite_x=True)
    if axes:
        t = dctn(t, type=3, axes=axes, overwrite_x=True)
    t *= inv
    if axes:
        t = dctn(t, type=2, axes=axes, overwrite_x=True)
    if plain:
        t = dstn(t, type=1, norm="ortho", axes=plain, overwrite_x=True)
    return t[inner].ravel()


def _shifted_operator(g: Grid, pot: np.ndarray, shift: float):
    """-lap + pot on g and its preconditioner, on sqrt(w)-scaled vectors.

    pot lives on g, the full box or a box folded by ``grid.fold``.
    Returns (root_w, matvec, precond): root_w is sqrt(w) flattened, w
    the number of full-box copies of each node (``Grid.mirror_weights``,
    1 everywhere on an unmirrored grid); matvec(x) = root_w (-lap +
    pot)(x / root_w), the expression of ``apply_L0`` and ``apply_L1``,
    and precond applies the padded-box inverse of -lap + shift in the
    same scaling.  On a mirrored axis the stencil reads the ghost at
    index -1 as the mirror copy of index 1, so the centre node sees its
    neighbour twice and the neighbour sees the centre once.  w (-lap) is
    symmetric, so both maps are symmetric up to rounding, and the
    Euclidean product of scaled vectors is the full-box product of the
    even extensions.
    """
    root_w = np.sqrt(g.mirror_weights()).ravel()
    inv = _inverse_spectrum(_padded_size(g.n_axis), g.dim, g.h, shift,
                            g.mirrored)

    def matvec(x):
        a = (x / root_w).reshape(g.shape)
        out = pot * a
        out -= laplacian(Field(g, a)).data
        out = out.ravel()
        out *= root_w
        return out

    def precond(x):
        out = _precondition(x / root_w, g, inv)
        out *= root_w
        return out

    return root_w, matvec, precond


def minres(matvec, precond, b: np.ndarray, tol: float, maxiter: int,
           x0: np.ndarray | None = None, callback=None) -> np.ndarray:
    """Preconditioned MINRES, stopped when ||b - A x|| <= tol ||b||.

    ``matvec`` applies a symmetric A and ``precond`` a symmetric positive
    definite approximation of its inverse.  The Lanczos and plane-rotation
    recurrences are those of Paige and Saunders (1975), as in SciPy's
    ``minres``.  Each search direction w comes with A w, recurred from the
    A v of the Lanczos step, so the residual r = b - A x is updated in
    place next to x and the stopping test is on its Euclidean norm, not
    on the preconditioner-weighted norm or a backward error.  A start x0
    (zero when None) that already meets the test is returned after 0
    iterations; after ``maxiter`` iterations the last iterate is
    returned.  The pass also stops when the Krylov space closes, that is
    when the next beta falls to rounding level, 8 eps times the largest
    alpha or beta of the Lanczos matrix T so far (not the first beta,
    which carries the scale of b rather than of the operator).  The step
    that closes the space is kept when its rotation is defined; when gbar
    is at rounding level too, T is singular on the closed space, the
    step would divide rounding by rounding, and the iterate from before
    it is returned.  ``callback(x)`` runs once per iteration that
    updates x.
    """
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - matvec(x) if x0 is not None else b.copy()
    target = tol * tol * float(np.dot(b, b))
    if float(np.dot(r, r)) <= target:
        return x
    y = precond(r)
    beta = float(np.dot(r, y))
    if beta <= 0.0:
        raise ValueError("MINRES preconditioner is not positive definite")
    beta = math.sqrt(beta)
    phibar = beta
    tnorm = 0.0   # the largest entry of the Lanczos matrix T so far
    oldb, dbar, epsln, cs, sn = 1.0, 0.0, 0.0, -1.0, 0.0
    # r1, r2: the last two Lanczos vectors before preconditioning, r1
    # zero on the first step (so the placeholder oldb is never felt);
    # w and A w of the last two directions, the older of each pair
    # overwritten by the new one
    r1, r2 = np.zeros_like(b), r.copy()
    w_old, w = np.zeros_like(b), np.zeros_like(b)
    aw_old, aw = np.zeros_like(b), np.zeros_like(b)
    eps = np.finfo(float).eps
    for _ in range(maxiter):
        v = y / beta
        del y
        av = matvec(v)
        # next Lanczos vector, built in r1's buffer
        r1 *= -(beta / oldb)
        r1 += av
        alfa = float(np.dot(v, r1))
        tnorm = max(tnorm, abs(alfa))
        r1 -= (alfa / beta) * r2
        r1, r2 = r2, r1
        # previous rotation on the new column
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        # gamma_k w_k = v_k - eps_k w_{k-2} - delta_k w_{k-1}, and A w_k
        # alike from A v_k; gamma_k needs the next beta, but v and A v
        # are released before the preconditioner allocates
        for new, prev, head in ((w_old, w, v), (aw_old, aw, av)):
            new *= -oldeps
            new -= delta * prev
            new += head
        del v, av
        y = precond(r2)
        oldb = beta
        beta = float(np.dot(r2, y))
        if beta < 0.0:
            raise ValueError("MINRES preconditioner is not positive definite")
        beta = math.sqrt(beta)
        rounding = 8.0 * eps * tnorm
        closed = beta <= rounding
        if closed and abs(gbar) <= rounding:
            break
        tnorm = max(tnorm, beta)
        # next rotation
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w_old /= gamma
        aw_old /= gamma
        w_old, w = w, w_old
        aw_old, aw = aw, aw_old
        x += phi * w
        r -= phi * aw
        if callback is not None:
            callback(x)
        if float(np.dot(r, r)) <= target or closed:
            break
    return x


def _solve_minres(matvec, precond, b: np.ndarray, tol: float,
                  label: str, x0: np.ndarray | None = None,
                  callback=None) -> np.ndarray:
    """MINRES with verification of the true residual.

    The first pass starts from x0 (zero when None); a good guess such as
    the previous Picard iterate saves Krylov iterations, and the answer
    meets the same test.  Each pass stops on its recurred residual,
    ||b - A x|| <= tol ||b||, which is then recomputed as matvec(x) - b
    from the returned iterate.  When the recomputed residual misses tol
    (rounding drift of the recurrence) the solve restarts from the last
    iterate with twice the iteration budget, and after three passes it
    is reported as stalled with the achieved residual history.  b = 0
    returns exact zeros whatever x0 is.  ``callback`` is handed to every
    pass, so it sees the iterations of all of them.
    """
    bnorm = math.sqrt(float(np.dot(b, b)))
    if bnorm == 0.0:
        return np.zeros_like(b)
    history = []
    x = x0
    maxiter = 1200
    for _ in range(3):
        x = minres(matvec, precond, b, tol, maxiter, x0=x,
                   callback=callback)
        r = matvec(x) - b
        res = math.sqrt(float(np.dot(r, r))) / bnorm
        history.append(res)
        if res <= tol:
            return x
        maxiter *= 2
    raise LinearSolveStalled(
        f"{label} solve stalled: relative residuals {history} "
        f"did not reach {tol:g} (near-singular symmetric operator?)")


def solve_L0(rhs: Field, U0f: Field, params: ModelParams, tol: float,
             k: int | None = None, x0: np.ndarray | None = None,
             callback=None) -> Field:
    """u with ||apply_L0(u) - rhs||_L2 <= tol ||rhs||_L2.

    rhs, U0f and the answer share one grid, the full box or a box folded
    by ``grid.fold``, and MINRES runs on its nodes with the sqrt(w)-scaled
    unknowns of ``_shifted_operator``, so on a folded box the residual
    test is on the full-box norm of the even extension.  With the fold
    order k the answer is projected by ``symmetrize``, which raises
    ValueError when the grid is folded on axes other than
    ``mirror_axes(k)``; rhs is expected to lie in the symmetric class.
    x0 (flat, rhs.grid.size values) is the Krylov starting guess, zero
    when None; ``callback`` is MINRES's per-iteration callback.
    """
    g = rhs.grid
    pot = params.lam - 3.0 * params.alpha0 * U0f.data ** 2
    root_w, mv, pc = _shifted_operator(g, pot, params.lam)
    x = _solve_minres(mv, pc, root_w * rhs.data.ravel(), tol, "L0",
                      x0=None if x0 is None else root_w * x0,
                      callback=callback)
    u = Field(g, (x / root_w).reshape(g.shape))
    if k is not None:
        u = symmetrize_fast(u, k)
    return u


def _project_off_Z(v: Field, Z: Field, zz: float) -> Field:
    """Exact L2 re-projection: v minus (quad(Z v) / zz) Z, zz = quad(Z^2)."""
    return Field(v.grid, v.data - (quad_product(Z, v) / zz) * Z.data)


def solve_L1_constrained(rhs: Field, bumpsum: Field, mu: Field, Z: Field,
                         params: ModelParams, tol: float,
                         k: int | None = None, x0: np.ndarray | None = None,
                         callback=None) -> tuple[Field, float]:
    """Solve apply_L1(v) + lam_c Z = rhs with quad(Z v) = 0.

    The augmented saddle system couples the field unknowns with one
    multiplier through the plain node sum of Z v (identical to the L2
    pairing away from the decayed boundary shell), which keeps the system
    symmetric for MINRES.  The inputs share one grid, full or folded, as
    in ``solve_L0``; the field block is that solve's scaled operator, and
    the bordered row and column are sqrt(w) Z, whose product with the
    scaled v is the full-box node sum.  k projects v as in ``solve_L0``.
    x0 is the Krylov starting guess for the bordered unknown [v
    flattened, lam_c] (rhs.grid.size + 1 values), zero when None;
    ``callback`` is MINRES's per-iteration callback.  Returns (v, lam_c).
    """
    g = rhs.grid
    zz = quad_product(Z, Z)
    if zz <= 1e-300:
        raise ValueError("degenerate constraint: quad(Z^2) is zero")
    pot = mu.data - 3.0 * params.alpha1 * bumpsum.data ** 2
    root_w, op, op_pc = _shifted_operator(g, pot, 1.0)
    zf = root_w * Z.data.ravel()

    def mv(x):
        return np.concatenate([op(x[:-1]) + x[-1] * zf,
                               [float(np.dot(zf, x[:-1]))]])

    schur = float(np.dot(zf, op_pc(zf)))

    def pc(x):
        return np.concatenate([op_pc(x[:-1]), [x[-1] / schur]])

    b = np.append(root_w * rhs.data.ravel(), 0.0)
    if x0 is not None:
        x0 = np.append(root_w * x0[:-1], x0[-1])
    x = _solve_minres(mv, pc, b, tol, "L1", x0=x0, callback=callback)
    v = Field(g, (x[:-1] / root_w).reshape(g.shape))
    lam_c = float(x[-1])
    if k is not None:
        v = symmetrize_fast(v, k)
    # the Krylov tolerance and the symmetrization leave a rounding-level
    # component along Z
    return _project_off_Z(v, Z, zz), lam_c


# ---------------------------------------------------------------------------
# fixed point


class _KrylovCount:
    """MINRES callback that counts iterations, over all restarts."""

    def __init__(self):
        self.n = 0

    def __call__(self, _xk):
        self.n += 1


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
    overlap: float        # Sigma_{i>=2} int V_1^3 V_i on g


def build_inputs(k: int, Rvalue: float, params: ModelParams,
                 h: float | None = None,
                 L: float | None = None) -> CorrectorInputs:
    """Sample U0, W, Sigma V_i^3, mu, Z and the overlap sum for the
    k-ring at Rvalue.

    Every field is sampled on the part of the box folded on
    mirror_axes(k) (``grid.fold``) and mirrored back to the full box with
    ``grid.unfold``; f0 reads the suprema there, which are those of the
    box.  W, Sigma V_i^3, Z and the overlap come from one ring_fields
    pass, which evaluates the profile and its derivative once per
    H+-orbit of bumps on the part, so W is the same floats as
    bump_sum_field's and the overlap as interaction_term's on g.
    """
    g = grid_for_radius(Rvalue, params.lam, params.dim, h=h, L=L)
    part = g.with_mirrored(mirror_axes(k, params.dim))
    u0 = ground_state(params.lam, params.alpha0, params.dim)
    v0 = ground_state(1.0, params.alpha1, params.dim)
    config = bump_centers(k, Rvalue, params.dim)
    U0f = radial_field(part, u0)
    ring = ring_fields(part, v0, config, cubes=True, constraint=True,
                       overlap=True)
    mu = potential_field(part, make_potential(params))
    budget = compute_gamma0_f0(U0f.data, ring.W, v0.decay_const)
    return CorrectorInputs(g=g, config=config, u0_profile=u0, v0_profile=v0,
                           U0f=unfold(U0f), W=unfold(Field(part, ring.W)),
                           cubes=unfold(Field(part, ring.cubes)),
                           mu=unfold(mu), Z=unfold(Field(part, ring.Z)),
                           budget=budget, overlap=ring.overlap)


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
    krylov_iters: list    # [L0, L1] MINRES iterations of each Picard step

    def as_dict(self) -> dict:
        return {
            "norm_E": self.norm_E,
            "iterations": self.iterations,
            "contraction_factor": self.contraction_factor,
            "lagrange": self.lagrange,
            "converged": self.converged,
            "steps": list(self.steps),
            "krylov_iters": [list(p) for p in self.krylov_iters],
        }


def _forcing_split(U0f: Field, W: Field, mu: Field, cubes: Field,
                   params: ModelParams) -> str:
    """L2 norms of the three parts of the forcing at (u, v) = (0, 0).

    The fields may be folded (``grid.fold``): the parts lie in the
    symmetric class, and the mirror-weighted quadrature of the folded box
    is the full-box one.
    """
    def l2(*parts):
        return math.sqrt(sum(quad_product(p, p) for p in parts))

    potential = l2((mu - 1.0) * W)
    overlap = l2(params.alpha1 * (W * W * W - cubes))
    coupling = l2(params.beta * U0f * W * W, params.beta * U0f * U0f * W)
    return (f"forcing L2 norms at (u, v) = (0, 0): potential (mu - 1) W "
            f"{potential:.4g}, overlap a1 (W^3 - sum V_i^3) {overlap:.4g}, "
            f"beta terms b U0 W^2 and b U0^2 W {coupling:.4g}")


def fixed_point_iterate(inputs: CorrectorInputs, params: ModelParams,
                        tol: float = 1e-8,
                        max_iter: int = 50) -> CorrectorResult:
    """Iterate the corrector map from (0, 0) until the E-norm step < tol.

    The fold order k and the radius R are read from ``inputs.config``.
    The iteration runs on the box folded on ``mirror_axes(k)``: U0, W,
    Sigma V_i^3, mu and Z are cut to that part once, and the iterates,
    right-hand sides, linear solves, Z projections and E-norm steps stay
    there.  Both components are refreshed simultaneously from the
    previous pair; the linear solves return each iterate symmetrized and
    v orthogonal to Z, so the last pair is returned as it is, mirrored
    back to the full box.  When the last step shrank (step ratio < 1),
    both linear solves start from the previous iterate: u for L0 and
    [v, lam_c] for the bordered L1 system; otherwise they start from
    zero.  The MINRES iterations of each step, summed over
    restarts, are kept as [L0, L1] pairs in ``krylov_iters``.  Merely
    warns when R lies outside the admissible window.  Raises

    - ValueError when |beta| >= f0 (contraction hypothesis);
    - CorrectorDivergence after five consecutive step ratios >= 1, that
      is, five steps in a row that did not shrink;
    - CorrectorDivergence when a step exceeds 1e4 times the first step;
    - CorrectorDivergence when an inner solve raises LinearSolveStalled
      right after a step ratio >= 1 (any other stall propagates as
      LinearSolveStalled).

    A CorrectorDivergence carries the steps and the [L0, L1] Krylov
    iterations of the Picard steps completed before it.
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

    axes = mirror_axes(k, inputs.g.dim)
    U0f, W, cubes, mu, Z = (fold(f, axes) for f in (
        inputs.U0f, inputs.W, inputs.cubes, inputs.mu, inputs.Z))
    lin_tol = tol / 10.0
    u, v = zeros(U0f.grid), zeros(U0f.grid)
    lagrange = 0.0
    steps: list[float] = []
    ratios: list[float] = []
    krylov: list[list[int]] = []
    converged = False
    iterations = 0

    def _divergence_error():
        return CorrectorDivergence(
            f"fixed point diverging at R = {Rvalue:g}, k = {k}: "
            f"steps {steps}; {_forcing_split(U0f, W, mu, cubes, params)}",
            steps=steps, krylov_iters=krylov)

    for iterations in range(1, max_iter + 1):
        b0 = g0_rhs(u, v, U0f, W, params)
        b1 = g1_rhs(u, v, U0f, W, cubes, mu, params)
        warm = bool(ratios) and ratios[-1] < 1.0
        count0, count1 = _KrylovCount(), _KrylovCount()
        try:
            u_new = solve_L0(b0, U0f, params, lin_tol, k=k,
                             x0=u.data.ravel() if warm else None,
                             callback=count0)
            v_new, lagrange = solve_L1_constrained(
                b1, W, mu, Z, params, lin_tol, k=k,
                x0=np.append(v.data.ravel(), lagrange) if warm else None,
                callback=count1)
        except LinearSolveStalled as exc:
            # A stalled inner solve on a blown-up right-hand side is the
            # same failure the step-ratio test detects, reported sooner.
            if ratios and ratios[-1] >= 1.0:
                raise _divergence_error() from exc
            raise
        krylov.append([count0.n, count1.n])
        # the old iterates are not read again: difference them in place
        # rather than allocate two more grid-size arrays per step
        np.subtract(u_new.data, u.data, out=u.data)
        np.subtract(v_new.data, v.data, out=v.data)
        step = norm_E(u, v, params.lam, mu)
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

    return CorrectorResult(
        u=unfold(u), v=unfold(v),
        norm_E=norm_E(u, v, params.lam, mu),
        iterations=iterations,
        contraction_factor=max(ratios) if ratios else 0.0,
        lagrange=lagrange,
        converged=converged,
        steps=steps,
        krylov_iters=krylov,
    )
