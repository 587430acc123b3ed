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
y2 (and y3 in 3-D) always, y1 for even k.  The corrector therefore lives
on the part of the box that they fix, the nodes from the centre on along
each mirrored axis, half the grid for odd k and a quarter (an eighth in
3-D) for even k: build_inputs samples U0, W, Sigma V_i^3, mu and Z on
that part and ``CorrectorInputs`` holds them there, and the iterates,
right-hand sides, linear solves, symmetrizations, Z projections, E-norm
steps and the returned pair all stay there.  The folded stencils read
the node at index -j of a mirrored axis as the mirror copy of node j and
the quadratures weight each node by its number of full-grid copies, so
every value on the part is that of the full grid.  Only
``grid.dump_field`` writes the full box, as the even extension.

Linear systems are symmetric indefinite and solved by ``minres``, a
preconditioned MINRES with a spectral preconditioner.  It recurs the
residual b - A x from the Lanczos vectors it already holds (Choi, Paige
and Saunders 2011), without a product with A, and stops on ||b - A x||
<= tol ||b|| itself, rather than on a backward-error estimate.  Each
solve runs on the grid its inputs carry, full or folded, with the
unknowns scaled by sqrt(w), w the number of full-grid mirror copies of a
node (1 on an unmirrored grid).  That makes the folded stencil and
preconditioner symmetric and the Euclidean products those of the full
grid; in exact arithmetic the Krylov iterates are the full-grid ones and
the folded residual norm is the full-grid one.  The operators act on the
scaled vectors directly: the stencil is the folded one with the two
couplings between the centre line of a mirrored axis and its neighbour
set to sqrt(2) / h^2, and the preconditioner's orthonormal transforms
carry the scaling themselves.  Each MINRES pass then recomputes its
residual from the returned iterate, and a restart from that iterate
covers rounding drift of the recurred residual.  Given the fold order
k, the answer is projected onto the symmetric class.

The solves' working set is what sets the memory peak of a corrector
run, so nothing in it is held twice.  The Picard loop builds each
right-hand side inside its solve's call, and the solve drops it once
sqrt(w) rhs (bordered by a zero for L1) is MINRES's b; the warm start
is scaled once into the vector MINRES iterates on.  sqrt(w) is never
stored: it is 2^(m/2) on each block of the part that lies off the
centre index along m of the mirrored axes, and the scalings, which run
only where a solve starts and ends (b, x0, x and Z), go block by block.
The operators write into MINRES's vectors rather than return new ones,
the L1 border included, and MINRES updates its eight vectors in place,
seven of them rows of one block per pass.  One workspace per solve, the
size of the preconditioner's padded box, serves in turn as the matvec's
scratch and as the preconditioner's zero-padded box, so no Krylov step
allocates.  The workspace goes with the operator when the solve
returns, before the projection onto the symmetric class, and nothing is
kept across solves or Picard steps.

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
are cosine modes, applied as an orthonormal DCT-III, the spectrum, and
an orthonormal DCT-II.  That pair is the unnormalized one conjugated by
sqrt(w) along the axis (the orthonormal DCT-III weighs its first input
1 / sqrt(2) against the rest, and the DCT-II its first output), so on
scaled vectors it needs no scaling of its own.
"""

from __future__ import annotations

import itertools
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
                       bump_sum_field, constraint_field, radial_field,
                       ring_fields, symmetrize)
from .geometry import symmetrize as symmetrize_fast
from .grid import (Field, Grid, _axis_slice, grid_for_radius, laplacian,
                   laplacian_eigenvalues, norm_E, quad_product, zeros)
from .model import (ModelParams, bump_radius_interval, coupling_bound,
                    make_potential)
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
    (2 M_b)) of the half box of M_b = (n_box + 1) / 2 nodes.  Every
    transform of ``_shifted_operator`` is orthonormal, so the array
    carries no normalization.
    """
    j = np.arange(1, n_box + 1)
    total = np.zeros(tuple((n_box + 1) // 2 if ax in folded else n_box
                           for ax in range(dim)))
    for ax in range(dim):
        modes = j[::2] if ax in folded else j
        shape = [1] * dim
        shape[ax] = modes.size
        total = total + laplacian_eigenvalues(n_box, h, modes).reshape(shape)
    return 1.0 / (total + shift)


def _root_w_blocks(g: Grid) -> list:
    """The blocks of g on which sqrt(w) is constant, as (index, sqrt(w)).

    w, the number of full-box copies of a node (``Grid.mirror_weights``),
    is 2^m for a node off the centre index 0 along m of the mirrored axes,
    so a block takes index 0 or the rest along each mirrored axis and
    everything along the others; sqrt(2.0**m) is np.sqrt of that weight
    bit for bit.  On an unmirrored grid the one block is the grid, with
    sqrt(w) = 1.
    """
    blocks = []
    for off in itertools.product((False, True), repeat=len(g.mirrored)):
        index = [slice(None)] * g.dim
        for ax, rest in zip(g.mirrored, off):
            index[ax] = slice(1, None) if rest else slice(0, 1)
        blocks.append((tuple(index), math.sqrt(2.0 ** sum(off))))
    return blocks


def _scale_root_w(op, blocks, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = op(x, sqrt(w)) block by block, op np.multiply or np.divide;
    x and out have the grid's shape, and out may be x."""
    for index, root in blocks:
        op(x[index], root, out=out[index])
    return out


def _shifted_operator(g: Grid, pot: np.ndarray, shift: float):
    """-lap + pot on g and its preconditioner, on sqrt(w)-scaled vectors.

    pot lives on g, the full box or the part folded on some axes, and w
    is the number of full-box copies of each node (1 everywhere on an
    unmirrored grid).  Returns (matvec, precond, work): matvec(x, out)
    writes sqrt(w) (-lap + pot)(x / sqrt(w)), the strong form of L0 or L1
    (second-order stencil), into the caller's flat array out, and
    precond(x, out) writes the padded-box inverse of -lap + shift in the
    same scaling.  On a mirrored axis the stencil reads the ghost at
    index -1 as the mirror copy of index 1, so the centre node sees its
    neighbour twice and the neighbour sees the centre once.  w (-lap) is
    symmetric, so both maps are symmetric up to rounding, and the
    Euclidean product of scaled vectors is the full-box product of the
    even extensions.

    Neither map divides or multiplies by sqrt(w).  matvec runs
    ``laplacian`` on the scaled x itself: sqrt(w) changes by sqrt(2)
    only between the centre line of a mirrored axis and its neighbour,
    so there the centre's coupling 2 / h^2 gains (sqrt(2) - 2) / h^2 and
    the neighbour's 1 / h^2 gains (sqrt(2) - 1) / h^2, which makes both
    sqrt(2) / h^2; then out = pot x - lap.  precond runs orthonormal
    transforms, which on a folded axis are the unnormalized DCT-III /
    DCT-II pair conjugated by sqrt(w), so x is copied into the inner
    block of the zero-padded box and the inner block is copied out.
    Unmirrored axes run the orthonormal DST-I over the centred box, in
    place.  On a mirrored axis the input holds the half from the centre
    node on, the field being even there; it sits at the start of the half
    box and runs DCT-III, then the spectrum, then DCT-II, which is the
    full DST-I pair restricted to the even modes.

    work, a flat array with room for the padded box and for g.size + 1
    values, is the one scratch of the solve, free between applies, and
    its lifetime is the operator's.  matvec uses it for the couplings'
    corrections and then for pot x; precond uses it as the padded box,
    whose slices are fixed here once.
    """
    axes = g.mirrored
    inv = _inverse_spectrum(_padded_size(g.n_axis), g.dim, g.h, shift, axes)
    inner = tuple(slice(0, g.centre + 1) if ax in axes else
                  slice((inv.shape[ax] - g.n_axis) // 2,
                        (inv.shape[ax] + g.n_axis) // 2)
                  for ax in range(g.dim))
    plain = tuple(ax for ax in range(g.dim) if ax not in axes)
    work = np.empty(max(inv.size, g.size + 1))
    box = work[:inv.size].reshape(inv.shape)
    scratch = work[:g.size].reshape(g.shape)
    # (centre line, its neighbour) of each mirrored axis, and the
    # corrections of the centre's and the neighbour's coupling
    seams = [(_axis_slice(g.dim, ax, 0), _axis_slice(g.dim, ax, 1))
             for ax in axes]
    to_centre = (math.sqrt(2.0) - 2.0) / (g.h * g.h)
    to_next = (math.sqrt(2.0) - 1.0) / (g.h * g.h)

    def matvec(x, out):
        x = x.reshape(g.shape)
        lap = out.reshape(g.shape)
        laplacian(Field(g, x), out=lap)
        for centre, nxt in seams:
            lap[centre] += np.multiply(x[nxt], to_centre, out=scratch[nxt])
            lap[nxt] += np.multiply(x[centre], to_next, out=scratch[centre])
        np.multiply(pot, x, out=scratch)
        np.subtract(scratch, lap, out=lap)

    def precond(x, out):
        box.fill(0.0)
        box[inner] = x.reshape(g.shape)
        t = box
        if plain:
            t = dstn(t, type=1, norm="ortho", axes=plain, overwrite_x=True)
        if axes:
            t = dctn(t, type=3, norm="ortho", axes=axes, overwrite_x=True)
        t *= inv
        if axes:
            t = dctn(t, type=2, norm="ortho", axes=axes, overwrite_x=True)
        if plain:
            t = dstn(t, type=1, norm="ortho", axes=plain, overwrite_x=True)
        out.reshape(g.shape)[...] = t[inner]

    return matvec, precond, work


def minres(matvec, precond, b: np.ndarray, tol: float, maxiter: int,
           x0: np.ndarray | None = None, callback=None) -> np.ndarray:
    """Preconditioned MINRES, stopped when ||b - A x|| <= tol ||b||.

    ``matvec(x, out)`` writes A x into out for a symmetric A, and
    ``precond(x, out)`` writes M x for a symmetric positive definite
    approximation M of its inverse; out never aliases x.  The Lanczos and
    plane-rotation recurrences are those of Paige and Saunders (1975), as
    in SciPy's ``minres``.  The residual r = b - A x is recurred next to
    x as r_k = s_k^2 r_{k-1} - (c_k phibar_k / beta_{k+1}) z_{k+1}, with
    (c_k, s_k) the k-th rotation, phibar_k the rotated right-hand side's
    last entry and z_{k+1} the next Lanczos vector before
    preconditioning (Choi, Paige and Saunders 2011), so the stopping test
    is on its Euclidean norm, not on the preconditioner-weighted norm or
    a backward error, and no product with A is recurred.  A start x0
    (zero when None) is taken over, not copied: the iteration updates it
    in place and returns it, and one that already meets the test is
    returned after 0 iterations; after ``maxiter`` iterations the last
    iterate is returned.  The pass also stops when the Krylov space
    closes, that is when the next beta falls to rounding level, 8 eps
    times the largest alpha or beta of the Lanczos matrix T so far (not
    the first beta, which carries the scale of b rather than of the
    operator).  The step that closes the space is kept when its rotation
    is defined; when gbar is at rounding level too, T is singular on the
    closed space, the step would divide rounding by rounding, and the
    iterate from before it is returned.  ``callback(x)`` runs once per
    iteration that updates x.

    Every vector is updated in place.  The pass holds eight of b's size:
    x, and as the rows of one block allocated once, r, the last two
    Lanczos vectors before preconditioning, the last two directions w, v
    (which first receives the preconditioned vector y, then y / beta) and
    A v.  A v is read once, right after the matvec, so its row then holds
    the products a p of the Lanczos, direction, x and r updates.
    """
    rows = np.empty((7, b.size))
    r, v, r1, r2, w_old, w, av = rows
    if x0 is None:
        x = np.zeros_like(b)
        np.copyto(r, b)
    else:
        x = x0
        matvec(x, r)
        np.subtract(b, r, out=r)
    target = tol * tol * float(np.dot(b, b))
    if float(np.dot(r, r)) <= target:
        return x
    precond(r, v)
    beta = float(np.dot(r, v))
    if beta <= 0.0:
        raise ValueError("MINRES preconditioner is not positive definite")
    beta = math.sqrt(beta)
    phibar = beta
    tnorm = 0.0   # the largest entry of the Lanczos matrix T so far
    oldb, dbar, epsln, cs, sn = 1.0, 0.0, 0.0, -1.0, 0.0
    # r1, r2: the last two Lanczos vectors before preconditioning, r1
    # zero on the first step (so the placeholder oldb is never felt); w
    # of the last two directions, the older overwritten by the new one
    r1.fill(0.0)
    np.copyto(r2, r)
    rows[4:6] = 0.0
    eps = np.finfo(float).eps
    for _ in range(maxiter):
        v /= beta
        matvec(v, av)
        # next Lanczos vector, built in r1's buffer
        r1 *= -(beta / oldb)
        r1 += av
        alfa = float(np.dot(v, r1))
        tnorm = max(tnorm, abs(alfa))
        r1 -= np.multiply(r2, alfa / beta, out=av)
        r1, r2 = r2, r1
        # previous rotation on the new column
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        # gamma_k w_k = v_k - eps_k w_{k-2} - delta_k w_{k-1}; gamma_k
        # needs the next beta, and the preconditioner then overwrites v
        w_old *= -oldeps
        w_old -= np.multiply(w, delta, out=av)
        w_old += v
        precond(r2, v)
        oldb = beta
        beta = float(np.dot(r2, v))
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
        w_old, w = w, w_old
        x += np.multiply(w, phi, out=av)
        if callback is not None:
            callback(x)
        if closed:
            break
        r *= sn * sn
        r -= np.multiply(r2, cs * phibar / beta, out=av)
        if float(np.dot(r, r)) <= target:
            break
    return x


def _solve_minres(matvec, precond, b: np.ndarray, tol: float,
                  label: str, x0: np.ndarray | None = None,
                  callback=None) -> np.ndarray:
    """MINRES with verification of the true residual.

    The first pass starts from x0 (zero when None), which it takes over
    as ``minres`` does; a good guess such as the previous Picard iterate
    saves Krylov iterations, and the answer meets the same test.  Each
    pass stops on its recurred residual, ||b - A x|| <= tol ||b||, which
    is then recomputed as matvec(x) - b from the returned iterate.  When
    the recomputed residual misses tol (rounding drift of the recurrence)
    the solve restarts from the last iterate with twice the iteration
    budget, and after three passes it is reported as stalled with the
    achieved residual history.  b = 0 returns exact zeros whatever x0 is.
    ``callback`` is handed to every pass, so it sees the iterations of
    all of them.
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
        r = np.empty_like(b)
        matvec(x, r)
        r -= b
        res = math.sqrt(float(np.dot(r, r))) / bnorm
        del r
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
    """u with ||L0 u - rhs||_L2 <= tol ||rhs||_L2, where
    L0 = -lap + lam - 3 a0 U0^2.

    rhs, U0f and the answer share one grid, the full box or the part
    folded on some axes, and MINRES runs on its nodes with the
    sqrt(w)-scaled unknowns of ``_shifted_operator``, so on a folded part
    the residual test is on the full-box norm of the even extension.
    With the fold order k the answer is projected by ``symmetrize``,
    which raises ValueError unless the grid is folded on
    ``mirror_axes(k)``; rhs is expected to lie in the symmetric class.
    x0 (flat, rhs.grid.size values) is the Krylov starting guess, zero
    when None; it is read, not changed.  ``callback`` is MINRES's
    per-iteration callback.  sqrt(w) rhs becomes MINRES's b and rhs is
    dropped, so a caller that keeps no reference to rhs frees it for the
    solve.  The operator and its scratch are dropped before the
    projection.
    """
    g = rhs.grid
    pot = params.lam - 3.0 * params.alpha0 * U0f.data ** 2
    blocks = _root_w_blocks(g)
    mv, pc, _work = _shifted_operator(g, pot, params.lam)
    del pot
    b = _scale_root_w(np.multiply, blocks, rhs.data, np.empty(g.shape))
    del rhs
    if x0 is not None:
        x0 = _scale_root_w(np.multiply, blocks, x0.reshape(g.shape),
                           np.empty(g.shape)).ravel()
    x = _solve_minres(mv, pc, b.ravel(), tol, "L0", x0=x0,
                      callback=callback)
    del b, mv, pc, _work
    u = Field(g, _scale_root_w(np.divide, blocks, x.reshape(g.shape),
                               x.reshape(g.shape)))
    if k is not None:
        u = symmetrize_fast(u, k)
    return u


def _project_off_Z(v: Field, Z: Field, zz: float) -> Field:
    """Exact L2 re-projection: v minus (quad(Z v) / zz) Z, zz = quad(Z^2)."""
    return Field(v.grid, v.data - (quad_product(Z, v) / zz) * Z.data)


def _bordered_operator(op, op_pc, zf: np.ndarray, work: np.ndarray):
    """The saddle matvec [[A, zf], [zf^T, 0]] and its block-diagonal
    preconditioner diag(M, 1 / (zf^T M zf)), from the field-block pair
    (op, op_pc) of ``_shifted_operator`` and its scratch work.

    Everything is in the scaled unknowns of ``_shifted_operator``: zf is
    sqrt(w) Z, scaled once by the caller, and neither map scales again.
    Both write into the caller's (zf.size + 1) array: the field block
    through op or op_pc on its leading zf.size entries, then the last
    entry; A x + x_last zf adds the product x_last zf, formed in work
    once op is done with it.
    """
    pz = np.empty_like(zf)
    op_pc(zf, pz)
    schur = float(np.dot(zf, pz))
    prod = work[:zf.size]

    def mv(x, out):
        op(x[:-1], out[:-1])
        out[:-1] += np.multiply(x[-1], zf, out=prod)
        out[-1] = np.dot(zf, x[:-1])

    def pc(x, out):
        op_pc(x[:-1], out[:-1])
        out[-1] = x[-1] / schur

    return mv, pc


def solve_L1_constrained(rhs: Field, bumpsum: Field, mu: Field, Z: Field,
                         params: ModelParams, tol: float,
                         k: int | None = None,
                         x0: tuple[np.ndarray, float] | None = None,
                         callback=None) -> tuple[Field, float]:
    """Solve L1 v + lam_c Z = rhs with quad(Z v) = 0, where
    L1 = -lap + mu - 3 a1 W^2.

    The augmented saddle system couples the field unknowns with one
    multiplier through the plain node sum of Z v (identical to the L2
    pairing away from the decayed boundary shell), which keeps the system
    symmetric for MINRES.  The inputs share one grid, full or folded, as
    in ``solve_L0``; the field block is that solve's scaled operator, and
    the bordered row and column are sqrt(w) Z, whose product with the
    scaled v is the full-box node sum; ``_bordered_operator`` applies the
    system and its preconditioner into MINRES's rhs.grid.size + 1
    vectors.  k projects v as in ``solve_L0``.  x0 = (v flattened, lam_c)
    is the Krylov starting guess, read once into the scaled bordered
    start that MINRES takes over; zero when None.  As in ``solve_L0``,
    rhs is dropped once scaled into MINRES's b, and the operator and its
    scratch before the projection.  ``callback`` is MINRES's
    per-iteration callback.  Returns (v, lam_c).
    """
    g = rhs.grid
    zz = quad_product(Z, Z)
    if zz <= 1e-300:
        raise ValueError("degenerate constraint: quad(Z^2) is zero")
    pot = mu.data - 3.0 * params.alpha1 * bumpsum.data ** 2
    blocks = _root_w_blocks(g)
    op, op_pc, work = _shifted_operator(g, pot, 1.0)
    del pot
    zf = _scale_root_w(np.multiply, blocks, Z.data, np.empty(g.shape))
    mv, pc = _bordered_operator(op, op_pc, zf.ravel(), work)
    del op, op_pc, zf

    def bordered(field, last):
        out = np.empty(g.size + 1)
        _scale_root_w(np.multiply, blocks, field.reshape(g.shape),
                      out[:-1].reshape(g.shape))
        out[-1] = last
        return out

    b = bordered(rhs.data, 0.0)
    del rhs
    x = _solve_minres(mv, pc, b, tol, "L1",
                      x0=None if x0 is None else bordered(*x0),
                      callback=callback)
    del b, mv, pc, work
    lam_c = float(x[-1])
    x = x[:-1].reshape(g.shape)
    v = Field(g, _scale_root_w(np.divide, blocks, x, x))
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
    """Grid-sampled ingredients shared by the corrector solves at one R.

    g is the part of the box folded on mirror_axes(k) (``Grid.mirrored``)
    and every field lies on it.
    """

    g: Grid
    config: BumpConfiguration
    U0f: Field
    W: Field
    cubes: Field
    mu: Field
    Z: Field
    f0: float             # the coupling bound |beta| must stay below


def build_inputs(k: int, Rvalue: float, params: ModelParams,
                 h: float | None = None,
                 L: float | None = None) -> CorrectorInputs:
    """Sample U0, W, Sigma V_i^3, mu and Z for the k-ring at Rvalue.

    Every field is sampled on the part of the box folded on
    mirror_axes(k), which is the returned ``g``; f0 reads the suprema
    there, which are those of the box.  W, Sigma V_i^3 and Z come from
    one ring_fields pass, which evaluates the profile and its derivative
    once per H+-orbit of bumps on the part, so W is the same floats as
    bump_sum_field's on g.
    """
    part = grid_for_radius(Rvalue, params.lam, params.dim, k, h=h, L=L)
    u0 = ground_state(params.lam, params.alpha0, params.dim)
    v0 = ground_state(1.0, params.alpha1, params.dim)
    config = bump_centers(k, Rvalue, params.dim)
    U0f = radial_field(part, u0)
    ring = ring_fields(part, v0, config, cubes=True, constraint=True)
    mu = potential_field(part, make_potential(params))
    return CorrectorInputs(g=part, config=config, U0f=U0f,
                           W=Field(part, ring.W),
                           cubes=Field(part, ring.cubes), mu=mu,
                           Z=Field(part, ring.Z),
                           f0=coupling_bound(U0f.data, ring.W))


@dataclass
class CorrectorResult:
    """The corrector pair, on the grid of its inputs, and its run."""

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

    The fields lie on the folded part: the parts lie in the symmetric
    class, and the mirror-weighted quadrature of the part is the full-box
    one.
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
    The iteration runs on ``inputs.g``, the box folded on
    ``mirror_axes(k)``: the iterates, right-hand sides, linear solves, Z
    projections and E-norm steps use the inputs' fields as they are.
    Both components are refreshed simultaneously from the previous pair;
    the linear solves return each iterate symmetrized and v orthogonal to
    Z, so the last pair is returned as it is, on ``inputs.g``.  When the
    last step shrank (step ratio < 1), both linear solves start from the
    previous iterate: u for L0 and [v, lam_c] for the bordered L1 system;
    otherwise they start from zero.  The MINRES iterations of each step,
    summed over restarts, are kept as [L0, L1] pairs in
    ``krylov_iters``.  Merely warns when R lies outside the admissible
    window.  Raises

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
    if abs(params.beta) >= inputs.f0:
        raise ValueError(
            f"|beta| = {abs(params.beta):g} >= f0 = {inputs.f0:g}: "
            "coupling too strong for the contraction argument")
    if k >= 2:
        lo, hi = bump_radius_interval(k, params.m)
        if not lo <= Rvalue <= hi:
            warnings.warn(f"R = {Rvalue:g} outside the admissible window "
                          f"[{lo:g}, {hi:g}] for k = {k}", stacklevel=2)

    U0f, W, cubes, mu, Z = (inputs.U0f, inputs.W, inputs.cubes, inputs.mu,
                            inputs.Z)
    lin_tol = tol / 10.0
    u, v = zeros(inputs.g), zeros(inputs.g)
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
        warm = bool(ratios) and ratios[-1] < 1.0
        count0, count1 = _KrylovCount(), _KrylovCount()
        try:
            # each right-hand side is built in its call, so the solve
            # holds the only reference and frees it once scaled into
            # MINRES's b; g1 is formed after the L0 solve, still from the
            # old (u, v)
            u_new = solve_L0(g0_rhs(u, v, U0f, W, params), U0f, params,
                             lin_tol, k=k,
                             x0=u.data.ravel() if warm else None,
                             callback=count0)
            v_new, lagrange = solve_L1_constrained(
                g1_rhs(u, v, U0f, W, cubes, mu, params), W, mu, Z, params,
                lin_tol, k=k,
                x0=(v.data.ravel(), lagrange) if warm else None,
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
        u=u, v=v,
        norm_E=norm_E(u, v, params.lam, mu),
        iterations=iterations,
        contraction_factor=max(ratios) if ratios else 0.0,
        lagrange=lagrange,
        converged=converged,
        steps=steps,
        krylov_iters=krylov,
    )
