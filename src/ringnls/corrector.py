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

Linear systems are symmetric indefinite and solved by MINRES with a
spectral preconditioner.  Given the fold order k, each solve runs on the
part of the box that the axis reflections of the symmetric class fix: y2
(and y3 in 3-D) always fold, y1 folds for even k, so the unknowns are the
nodes from the centre on along each folded axis, half the grid for odd k
and a quarter (an eighth in 3-D) for even k.  The unknowns are scaled by
sqrt(w), w the number of full-grid mirror copies of a node, which makes
the folded stencil and preconditioner exactly symmetric and the Euclidean
products those of the full grid; in exact arithmetic the Krylov iterates
are the full-grid ones, and the axis reflections hold by construction.
The residual test is always on the full grid: each MINRES pass unfolds
its iterate and checks it against the full right-hand side.

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
from scipy.sparse.linalg import LinearOperator, minres

from .energy import potential_field
# bump_sum_field, bump_cubes_field, constraint_field and symmetrize are
# not called here, but perfbench/spans.py patches them on this module by
# name; it times the projections below under symmetrize_fast
from .geometry import (BumpConfiguration, bump_centers, bump_cubes_field,
                       bump_sum_field, constraint_field, half_box,
                       mirror_axes, mirror_back, radial_field, ring_fields,
                       symmetrize)
from .geometry import symmetrize as symmetrize_fast
from .grid import Field, Grid, grid_for_radius, laplacian, norm_E, quad_product
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
# the folded box and the spectral preconditioner


@dataclass(frozen=True)
class _Fold:
    """The part of the box that the axis reflections of the fold-k class fix.

    The folded axes are ``mirror_axes(k)``: y2 (and y3 in 3-D) always, y1
    when k is even.  A folded axis keeps the nodes from its centre index
    c = (n_axis - 1) / 2 on (``half_box``), the same nodes on which
    ``symmetrize`` interpolates unless k = 0 mod 4.  Vectors on the part are
    scaled by sqrt(w), w the number of full-grid mirror copies of a node
    (2 per folded axis off that axis's centre, 1 on it), so Euclidean
    products of scaled vectors equal full-grid products of even fields.
    With k None nothing folds and w = 1.
    """

    shape: tuple          # full grid shape
    axes: tuple           # folded axes
    part: tuple           # index of the kept part in a full-grid array
    root_w: np.ndarray    # sqrt(w) on the part

    def fold(self, a: np.ndarray) -> np.ndarray:
        """Scaled kept part of a full-grid array, flattened."""
        return (a.reshape(self.shape)[self.part] * self.root_w).ravel()

    def unfold(self, x: np.ndarray) -> np.ndarray:
        """Full-grid array of a scaled folded vector, mirrored back."""
        return mirror_back(x.reshape(self.root_w.shape) / self.root_w,
                           self.axes)


def _fold_for(g: Grid, k: int | None) -> _Fold:
    axes = mirror_axes(k, g.dim)
    c = (g.n_axis - 1) // 2
    half = np.full(g.n_axis - c, math.sqrt(2.0))
    half[0] = 1.0
    root_w = np.ones(tuple(g.n_axis - c if ax in axes else g.n_axis
                           for ax in range(g.dim)))
    for ax in axes:
        shape = [1] * g.dim
        shape[ax] = half.size
        root_w *= half.reshape(shape)
    return _Fold(shape=g.shape, axes=axes, part=half_box(g, axes),
                 root_w=root_w)


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
        lam1 = (2.0 - 2.0 * np.cos(np.pi * modes / (n_box + 1))) / (h * h)
        total = total + lam1.reshape(shape)
    return 1.0 / (total + shift) / (n_box + 1) ** len(folded)


def _precondition(x: np.ndarray, g: Grid, inv: np.ndarray,
                  axes: tuple = ()) -> np.ndarray:
    """Inner block of the inverse spectrum applied on the padded box.

    Unfolded axes run the orthonormal DST-I over the centred box.  On a
    folded axis (listed in ``axes``) x holds the half from the centre node
    on, the field being even there; it sits at the start of the half box
    and runs DCT-III, then the spectrum, then DCT-II, which is the full
    DST-I pair restricted to the even modes.  ``inv`` comes from
    ``_inverse_spectrum`` with the same folded axes.
    """
    c = (g.n_axis - 1) // 2
    inner = tuple(slice(0, c + 1) if ax in axes else
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


def _shifted_operator(g: Grid, pot: np.ndarray, shift: float,
                      k: int | None):
    """-lap + pot and its preconditioner on the folded box of fold order k.

    Returns (fold, matvec, precond).  matvec and precond act on
    sqrt(w)-scaled folded vectors and are exactly symmetric: the folded
    stencil reads the ghost at index -1 of a folded axis as the mirror
    copy of index 1, which after scaling makes the coupling of the centre
    node and its neighbour sqrt(2) in both directions; the far ghost
    stays zero.  The preconditioner is the padded-box inverse of the
    shifted Laplacian.
    """
    fold = _fold_for(g, k)
    potf = pot[fold.part]
    inv = _inverse_spectrum(_padded_size(g.n_axis), g.dim, g.h, shift,
                            fold.axes)
    edge = (math.sqrt(2.0) - 1.0) / (g.h * g.h)
    ends = []
    for ax in fold.axes:
        lo = [slice(None)] * g.dim
        hi = [slice(None)] * g.dim
        lo[ax], hi[ax] = 0, 1
        ends.append((tuple(lo), tuple(hi)))

    def matvec(x):
        a = x.reshape(fold.root_w.shape)
        lap = laplacian(Field(g, a)).data
        for lo, hi in ends:
            lap[lo] += edge * a[hi]
            lap[hi] += edge * a[lo]
        return (-lap + potf * a).ravel()

    def precond(x):
        a = x.reshape(fold.root_w.shape) / fold.root_w
        return (_precondition(a, g, inv, fold.axes).reshape(a.shape)
                * fold.root_w).ravel()

    return fold, matvec, precond


def _solve_minres(matvec, precond, b: np.ndarray, tol: float,
                  label: str, x0: np.ndarray | None = None,
                  callback=None, check=None) -> np.ndarray:
    """MINRES with verification of the true residual.

    The first pass starts from x0 (zero when None); a good guess such as
    the previous Picard iterate saves Krylov iterations, and the answer
    meets the same true-residual test.  The preconditioned convergence
    test can understate the true residual, so the solve is repeated from
    the last iterate with a tighter inner tolerance until
    ||A x - b|| <= tol ||b|| holds, or reported as stalled with the
    achieved residual history.  ``check`` is the system (apply, rhs) that
    test measures, with apply taking the Krylov iterate; when None it is
    (matvec, b).  A folded solve passes the full-grid system, so a
    right-hand side the fold cannot represent fails the test instead of
    passing unseen.  rhs = 0 returns exact zeros whatever x0 is.
    ``callback`` is handed to every MINRES pass, so it sees the
    iterations of all of them.
    """
    apply, rhs = check if check is not None else (matvec, b)
    bnorm = math.sqrt(float(np.dot(rhs, rhs)))
    if bnorm == 0.0:
        return np.zeros_like(b)
    n = b.size
    A = LinearOperator((n, n), matvec=matvec, dtype=float)
    M = LinearOperator((n, n), matvec=precond, dtype=float)
    history = []
    x = x0
    rtol = tol / 20.0
    maxiter = 1200
    for _ in range(3):
        x, _info = minres(A, b, x0=x, rtol=rtol, maxiter=maxiter, M=M,
                          callback=callback)
        r = apply(x) - rhs
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
             k: int | None = None, x0: np.ndarray | None = None,
             callback=None) -> Field:
    """u with ||apply_L0(u) - rhs||_L2 <= tol ||rhs||_L2.

    rhs is expected to lie in the symmetric subspace.  When the fold order
    k is supplied, MINRES runs on the folded box of ``_Fold`` (y2, y3 in
    3-D, and y1 for even k, fold; sqrt(w)-scaled unknowns) with the
    DCT-III/II preconditioner on the odd sine modes of the folded axes,
    and the returned solution is projected by ``symmetrize`` (the fold
    holds the axis reflections, not the rotations by 2 pi / k); with k
    None the solve runs on the full grid.  Either way the residual test
    is on the full grid, against the full rhs.  x0 (flat, g.size values)
    is the Krylov starting guess, zero when None, folded like rhs;
    ``callback`` is MINRES's per-iteration callback.
    """
    g = rhs.grid
    pot = params.lam - 3.0 * params.alpha0 * U0f.data ** 2
    fold, mv, pc = _shifted_operator(g, pot, params.lam, k)

    def apply_full(x):
        return apply_L0(Field(g, fold.unfold(x)), U0f, params).data.ravel()

    x = _solve_minres(mv, pc, fold.fold(rhs.data), tol, "L0",
                      x0=None if x0 is None else fold.fold(x0),
                      callback=callback, check=(apply_full, rhs.data.ravel()))
    u = Field(g, fold.unfold(x))
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
    exactly symmetric for MINRES.  With the fold order k the field block
    runs on the folded box as in ``solve_L0``; the bordered row and column
    are the scaled sqrt(w) Z, whose product with the scaled v is still the
    full-grid node sum.  The residual test is on the full bordered system
    on the full grid.  x0 is the Krylov starting guess for the bordered
    unknown [v flattened, lam_c] (g.size + 1 values), zero when None;
    ``callback`` is MINRES's per-iteration callback.  Returns (v, lam_c).
    """
    g = rhs.grid
    zz = quad_product(Z, Z)
    if zz <= 1e-300:
        raise ValueError("degenerate constraint: quad(Z^2) is zero")
    pot = mu.data - 3.0 * params.alpha1 * bumpsum.data ** 2
    fold, op, op_pc = _shifted_operator(g, pot, 1.0, k)
    zflat = Z.data.ravel()
    zf = fold.fold(Z.data)

    def mv(x):
        return np.concatenate([op(x[:-1]) + x[-1] * zf,
                               [float(np.dot(zf, x[:-1]))]])

    schur = float(np.dot(zf, op_pc(zf)))

    def pc(x):
        return np.concatenate([op_pc(x[:-1]), [x[-1] / schur]])

    def apply_full(x):
        v = Field(g, fold.unfold(x[:-1]))
        out = apply_L1(v, bumpsum, mu, params).data.ravel() + x[-1] * zflat
        return np.append(out, float(np.dot(zflat, v.data.ravel())))

    b = np.append(fold.fold(rhs.data), 0.0)
    if x0 is not None:
        x0 = np.append(fold.fold(x0[:-1]), x0[-1])
    x = _solve_minres(mv, pc, b, tol, "L1", x0=x0, callback=callback,
                      check=(apply_full, np.append(rhs.data.ravel(), 0.0)))
    v = Field(g, fold.unfold(x[:-1]))
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

    W, Sigma V_i^3, Z and the overlap come from one ring_fields pass,
    which evaluates the profile and its derivative once per H-orbit of
    bumps rather than once per bump, so W is the same floats as
    bump_sum_field's and the overlap as interaction_term's on g.
    """
    g = grid_for_radius(Rvalue, params.lam, params.dim, h=h, L=L)
    u0 = ground_state(params.lam, params.alpha0, params.dim)
    v0 = ground_state(1.0, params.alpha1, params.dim)
    config = bump_centers(k, Rvalue, params.dim)
    U0f = radial_field(g, u0)
    ring = ring_fields(g, v0, config, cubes=True, constraint=True,
                       overlap=True)
    mu = potential_field(g, make_potential(params))
    budget = compute_gamma0_f0(U0f.data, ring.W, v0.decay_const)
    return CorrectorInputs(g=g, config=config, u0_profile=u0, v0_profile=v0,
                           U0f=U0f, W=Field(g, ring.W),
                           cubes=Field(g, ring.cubes), mu=mu,
                           Z=Field(g, ring.Z), budget=budget,
                           overlap=ring.overlap)


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


def _forcing_split(inputs: CorrectorInputs, params: ModelParams) -> str:
    """L2 norms of the three parts of the forcing at (u, v) = (0, 0).

    The parts lie in the symmetric class, so each norm is a node sum over
    the folded part of ``_Fold`` with the mirror multiplicities as
    weights.  Plain node sums suffice: the parts have decayed at the box
    wall, where the trapezoid rule would halve the weights.
    """
    g = inputs.g
    fold = _fold_for(g, inputs.config.k)
    U, W, mu, cubes = (f.data[fold.part] for f in (
        inputs.U0f, inputs.W, inputs.mu, inputs.cubes))
    weights = g.h ** g.dim * fold.root_w ** 2

    def l2(*parts):
        return math.sqrt(sum(float(np.vdot(weights, p * p)) for p in parts))

    potential = l2((mu - 1.0) * W)
    overlap = l2(params.alpha1 * (W ** 3 - cubes))
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
    the linear solves return each iterate symmetrized and v orthogonal to
    Z, so the last pair is returned as it is.  When the last step shrank
    (step ratio < 1), both linear solves start from the previous iterate:
    u for L0 and [v, lam_c] for the bordered L1 system; otherwise they
    start from zero.  The MINRES iterations of each step, summed over
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

    g = inputs.g
    lin_tol = tol / 10.0
    u = Field(g, np.zeros(g.shape))
    v = Field(g, np.zeros(g.shape))
    lagrange = 0.0
    steps: list[float] = []
    ratios: list[float] = []
    krylov: list[list[int]] = []
    converged = False
    iterations = 0

    def _divergence_error():
        return CorrectorDivergence(
            f"fixed point diverging at R = {Rvalue:g}, k = {k}: "
            f"steps {steps}; {_forcing_split(inputs, params)}",
            steps=steps, krylov_iters=krylov)

    for iterations in range(1, max_iter + 1):
        b0 = g0_rhs(u, v, inputs.U0f, inputs.W, params)
        b1 = g1_rhs(u, v, inputs.U0f, inputs.W, inputs.cubes, inputs.mu,
                    params)
        warm = bool(ratios) and ratios[-1] < 1.0
        count0, count1 = _KrylovCount(), _KrylovCount()
        try:
            u_new = solve_L0(b0, inputs.U0f, params, lin_tol, k=k,
                             x0=u.data.ravel() if warm else None,
                             callback=count0)
            v_new, lagrange = solve_L1_constrained(
                b1, inputs.W, inputs.mu, inputs.Z, params, lin_tol, k=k,
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
        step = norm_E(u, v, params.lam, inputs.mu)
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
        u=u, v=v,
        norm_E=norm_E(u, v, params.lam, inputs.mu),
        iterations=iterations,
        contraction_factor=max(ratios) if ratios else 0.0,
        lagrange=lagrange,
        converged=converged,
        steps=steps,
        krylov_iters=krylov,
    )
