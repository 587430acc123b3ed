"""Linearized operators, constrained solves, and the corrector fixed point."""

from __future__ import annotations

import ast
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from scipy.fft import dctn, dstn

import ringnls.corrector as corrector
import ringnls.grid as grid
from ringnls.corrector import (CorrectorDivergence, LinearSolveStalled,
                               _inverse_spectrum, _KrylovCount, _padded_size,
                               _shifted_operator, _solve_minres,
                               build_inputs, fixed_point_iterate, g0_rhs,
                               g1_rhs, solve_L0, solve_L1_constrained)
from ringnls.energy import potential_field
from ringnls.geometry import (bump_centers, bump_cubes_field, bump_sum_field,
                              constraint_field, radial_field, symmetrize)
from ringnls.grid import (Field, grid_for_radius, laplacian,
                         laplacian_eigenvalues, make_grid, mirror_axes,
                         quad_product, zeros)
from ringnls.model import ModelParams, make_potential, mid_radius
from ringnls.radial import ground_state
from symmetry_oracles import (apply_signed_permutation, fold, fold_even,
                              node_subgroup, unfold)
from traced import traced_peak


# ---------------------------------------------------------------------------
# reference operators: the linearized operators in strong form, with the
# second-order stencil, stated directly rather than through the solver's
# scaled operator


def apply_L0(u: Field, U0f: Field, params: ModelParams) -> Field:
    """-lap u + lam u - 3 a0 U0^2 u."""
    pot = params.lam - 3.0 * params.alpha0 * U0f.data ** 2
    return Field(u.grid, -laplacian(u).data + pot * u.data)


def apply_L1(v: Field, bumpsum: Field, mu: Field,
             params: ModelParams) -> Field:
    """-lap v + mu v - 3 a1 W^2 v."""
    pot = mu.data - 3.0 * params.alpha1 * bumpsum.data ** 2
    return Field(v.grid, -laplacian(v).data + pot * v.data)


@pytest.fixture(scope="module")
def townes():
    return ground_state(1.0, 1.0, 2)


@pytest.fixture(scope="module")
def ring2(townes):
    """Small two-bump scene shared by the right-hand-side tests, on the
    part of the box its class folds."""
    g = make_grid(2, 16.0, 0.25).with_mirrored(mirror_axes(2, 2))
    params = ModelParams(beta=0.05)
    config = bump_centers(2, 6.0, 2)
    return {
        "g": g,
        "params": params,
        "U0f": radial_field(g, townes),
        "W": bump_sum_field(g, townes, config),
        "cubes": bump_cubes_field(g, townes, config),
        "mu": potential_field(g, make_potential(params)),
    }


def _relerr(f: Field, ref: Field) -> float:
    num = math.sqrt(quad_product(f - ref, f - ref))
    return num / math.sqrt(quad_product(ref, ref))


# ---------------------------------------------------------------------------
# right-hand sides


def test_g0_at_zero_state(ring2):
    s = ring2
    z = zeros(s["g"])
    out = g0_rhs(z, z, s["U0f"], s["W"], s["params"])
    expected = s["params"].beta * s["U0f"].data * s["W"].data ** 2
    assert np.array_equal(out.data, expected)


def test_g1_at_zero_state(ring2):
    # at (0, 0) only the forcing survives: the beta cross term, the
    # potential deviation on the ring, and the cube-sum mismatch
    s = ring2
    z = zeros(s["g"])
    p = s["params"]
    out = g1_rhs(z, z, s["U0f"], s["W"], s["cubes"], s["mu"], p)
    W = s["W"].data
    expected = p.beta * s["U0f"].data ** 2 * W \
        - (s["mu"].data - 1.0) * W + p.alpha1 * (W ** 3 - s["cubes"].data)
    assert np.max(np.abs(out.data - expected)) < 1e-13


def test_g1_single_bump_cube_mismatch_vanishes(townes):
    # one bump: the sum of cubes IS the cube of the sum, bitwise
    g = make_grid(2, 16.0, 0.25).with_mirrored(mirror_axes(1, 2))
    config = bump_centers(1, 5.0, 2)
    W = bump_sum_field(g, townes, config)
    cubes = bump_cubes_field(g, townes, config)
    assert not np.any(W.data ** 3 - cubes.data)


def test_rhs_match_textbook_cubes_on_mixed_signs(ring2):
    """The cubes written as products give the ** 3 forms of both
    right-hand sides to 1e-14 relative where u and v change sign."""
    s = ring2
    p = s["params"]
    rng = np.random.default_rng(21)
    ud, vd = rng.standard_normal((2,) + s["g"].shape)
    assert (ud < 0).any() and (vd < 0).any()
    u, v = Field(s["g"], ud), Field(s["g"], vd)
    U, W = s["U0f"].data, s["W"].data
    ref0 = 3.0 * p.alpha0 * U * ud ** 2 + p.alpha0 * ud ** 3 \
        + p.beta * (U + ud) * (W + vd) ** 2
    ref1 = 3.0 * p.alpha1 * W * vd ** 2 + p.alpha1 * vd ** 3 \
        + p.beta * (U + ud) ** 2 * (W + vd) \
        - (s["mu"].data - 1.0) * W + p.alpha1 * (W ** 3 - s["cubes"].data)
    out0 = g0_rhs(u, v, s["U0f"], s["W"], p).data
    out1 = g1_rhs(u, v, s["U0f"], s["W"], s["cubes"], s["mu"], p).data
    assert np.max(np.abs(out0 - ref0)) <= 1e-14 * np.max(np.abs(ref0))
    assert np.max(np.abs(out1 - ref1)) <= 1e-14 * np.max(np.abs(ref1))


# ---------------------------------------------------------------------------
# linearized operators


def test_apply_L0_zero(townes):
    g = make_grid(2, 8.0, 0.25)
    U0f = radial_field(g, townes)
    out = apply_L0(zeros(g), U0f, ModelParams())
    assert not np.any(out.data)


@pytest.mark.parametrize("h,level", [(0.25, 1.5e-2), (0.125, 4e-3)])
def test_apply_L0_on_profile(townes, h, level):
    # the profile equation turns L0 U0 into -2 a0 U0^3; the defect is the
    # second-order stencil error (1.24e-2 at h=0.25, 3.17e-3 at h=0.125,
    # a 3.9x refinement ratio)
    params = ModelParams()
    g = make_grid(2, 16.0, h)
    U0f = radial_field(g, townes)
    lhs = apply_L0(U0f, U0f, params)
    ref = Field(g, -2.0 * params.alpha0 * U0f.data ** 3)
    assert _relerr(lhs, ref) < level


def test_laplacian_sine_mode_eigenpair():
    # product sine modes vanishing at the ghost nodes are exact discrete
    # eigenvectors; this pins the ghost convention the preconditioner
    # spectrum is built from
    g = make_grid(2, 8.0, 0.25)
    n, h = g.n_axis, g.h
    i = np.arange(n)
    s1 = np.sin(math.pi * 3 * (i + 1) / (n + 1))
    s2 = np.sin(math.pi * 5 * (i + 1) / (n + 1))
    mode = np.outer(s1, s2)
    eig = (2 - 2 * math.cos(math.pi * 3 / (n + 1))) / h ** 2 \
        + (2 - 2 * math.cos(math.pi * 5 / (n + 1))) / h ** 2
    defect = -laplacian(Field(g, mode)).data - eig * mode
    assert np.max(np.abs(defect)) < 1e-12
    # the 1-D eigenvalues the preconditioner spectrum is built from
    assert laplacian_eigenvalues(n, h, 3) + laplacian_eigenvalues(n, h, 5) \
        == pytest.approx(eig, rel=1e-15)


def _sine_mode_system():
    """A discrete eigenmode of -lap and its L0 right-hand side with no
    potential well (U0 = 0)."""
    g = make_grid(2, 8.0, 0.25)
    params = ModelParams()
    n, h = g.n_axis, g.h
    i = np.arange(n)
    mode = np.outer(np.sin(math.pi * 3 * (i + 1) / (n + 1)),
                    np.sin(math.pi * 5 * (i + 1) / (n + 1)))
    eig = (2 - 2 * math.cos(math.pi * 3 / (n + 1))) / h ** 2 \
        + (2 - 2 * math.cos(math.pi * 5 / (n + 1))) / h ** 2
    return g, params, mode, Field(g, (eig + params.lam) * mode)


def test_solve_L0_exact_on_sine_mode():
    # with no potential well the preconditioner inverts the operator
    # exactly, so the solve reproduces a discrete eigenmode to rounding
    g, params, mode, rhs = _sine_mode_system()
    sol = solve_L0(rhs, zeros(g), params, 1e-12)
    assert np.max(np.abs(sol.data - mode)) < 1e-12


def test_solve_minres_zero_rhs_ignores_start():
    # b = 0 short-circuits to exact zeros, whatever the starting guess
    b = np.zeros(6)
    count = _KrylovCount()
    x = _solve_minres(_diag(2.0), _diag(0.5), b, 1e-10, "t",
                      x0=np.arange(1.0, 7.0), callback=count)
    assert np.array_equal(x, np.zeros(6))
    assert count.n == 0


def test_solve_minres_reports_stall():
    # b has a component along the kernel of a singular A, so no pass
    # meets the recomputed residual test: after three passes the solve
    # reports its residual history.  Each pass stops once its Krylov
    # space has closed (6 unknowns), not after its whole budget, and
    # returns an iterate no worse than the zero start
    d = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 0.0])
    count = _KrylovCount()
    with pytest.raises(LinearSolveStalled, match="t solve stalled") as info:
        _solve_minres(_diag(d), _diag(1.0), np.ones(6),
                      1e-8, "t", callback=count)
    history = ast.literal_eval(
        re.search(r"residuals (\[.*?\])", str(info.value)).group(1))
    assert count.n <= 3 * 7
    assert len(history) == 3
    assert all(res <= 1.0 for res in history)


def _dense(a):
    """x -> a @ x, written into out as MINRES's operators are."""
    return lambda x, out: np.matmul(a, x, out=out)


def _diag(d):
    """x -> d x for an array or scalar d, written into out."""
    return lambda x, out: np.multiply(d, x, out=out)


def _apply(op, x):
    """An operator that writes into out, applied into a new array."""
    out = np.empty_like(x)
    op(x, out)
    return out


def _indefinite_system(n=60):
    """Dense symmetric indefinite A (eigenvalues of both signs, none
    near zero), an SPD diagonal preconditioner and a right-hand side."""
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.concatenate([-rng.uniform(0.5, 3.0, n // 3),
                          rng.uniform(0.5, 40.0, n - n // 3)])
    a = (q * eig) @ q.T
    a = 0.5 * (a + a.T)
    d = 1.0 / rng.uniform(1.0, 10.0, n)
    return a, d, rng.standard_normal(n), rng.standard_normal(n)


@pytest.mark.parametrize("start", ["zero", "x0"])
def test_minres_meets_true_residual(start):
    # the stop is on ||b - A x|| itself: recomputed from the returned
    # iterate it meets the tolerance; the callback sees every iterate,
    # whose preconditioned residual norm MINRES never lets grow
    a, d, b, guess = _indefinite_system()
    tol = 1e-10
    iterates = []
    x = corrector.minres(_dense(a), _diag(d), b, tol, 500,
                         x0=guess if start == "x0" else None,
                         callback=lambda xk: iterates.append(xk.copy()))
    assert np.linalg.norm(b - a @ x) <= tol * np.linalg.norm(b)
    assert 0 < len(iterates) < 500
    assert np.array_equal(iterates[-1], x)
    mnorm = [math.sqrt(float(np.dot(b - a @ xk, d * (b - a @ xk))))
             for xk in iterates]
    assert all(now <= before * (1 + 1e-8)
               for before, now in zip(mnorm, mnorm[1:]))


def test_minres_callback_once_per_iteration():
    # an unreachable tolerance runs the whole budget: one callback each
    a, d, b, _ = _indefinite_system()
    count = _KrylovCount()
    corrector.minres(_dense(a), _diag(d), b, 0.0, 7,
                     callback=count)
    assert count.n == 7


def test_minres_start_within_tolerance():
    # a start that already meets the test returns as it is, 0 iterations
    a, d, b, _ = _indefinite_system()
    exact = np.linalg.solve(a, b)
    count = _KrylovCount()
    x = corrector.minres(_dense(a), _diag(d), b, 1e-8, 500,
                         x0=exact, callback=count)
    assert count.n == 0
    assert np.array_equal(x, exact)


def test_minres_holds_eight_vectors():
    # one pass allocates x and one block of seven rows: r, the last two
    # Lanczos vectors, the last two directions, v and A v
    n = 200_000
    d = np.linspace(1.0, 3.0, n)
    b = np.ones(n)
    count = _KrylovCount()
    x, peak = traced_peak(corrector.minres, _diag(d), _diag(1.0), b, 0.0,
                          20, callback=count)
    assert count.n == 20
    assert peak <= 8 * b.nbytes + 65536
    assert np.linalg.norm(b - d * x) < 1e-3 * np.linalg.norm(b)


def test_minres_rejects_indefinite_preconditioner():
    a, d, b, _ = _indefinite_system()
    with pytest.raises(ValueError, match="not positive definite"):
        corrector.minres(_dense(a), _diag(-d), b, 1e-8, 500)


def test_solve_L0_started_at_solution():
    # a start at the solution is already within tolerance: no Krylov
    # iteration, and the true residual holds
    g, params, mode, rhs = _sine_mode_system()
    tol = 1e-12
    count = _KrylovCount()
    sol = solve_L0(rhs, zeros(g), params, tol, x0=mode.ravel(),
                   callback=count)
    assert count.n == 0
    res = apply_L0(sol, zeros(g), params) - rhs
    assert math.sqrt(quad_product(res, res)) \
        <= tol * math.sqrt(quad_product(rhs, rhs))


def test_pairing_symmetry(townes):
    # quad(f L0 g) = quad(g L0 f): the stencil plus trapezoid weights
    # form an exactly symmetric pairing on decayed fields
    g = make_grid(2, 10.0, 0.25)
    params = ModelParams()
    U0f = radial_field(g, townes)
    mesh = g.mesh()
    r2 = sum(np.broadcast_to(m, g.shape) ** 2 for m in mesh)
    x = np.broadcast_to(mesh[0], g.shape)
    y = np.broadcast_to(mesh[1], g.shape)
    f1 = Field(g, np.exp(-0.5 * r2) * (1 + 0.2 * x))
    f2 = Field(g, np.exp(-0.4 * r2) * (1 - 0.1 * y + 0.05 * x * y))
    p12 = quad_product(f1, apply_L0(f2, U0f, params))
    p21 = quad_product(f2, apply_L0(f1, U0f, params))
    assert abs(p12 - p21) < 1e-11 * abs(p12)


# ---------------------------------------------------------------------------
# preconditioner


@pytest.mark.parametrize("n,m", [(513, 539), (435, 449), (63, 63),
                                 (511, 511)])
def test_padded_size(n, m):
    # m + 1 is 5-smooth and m - n is even, so the grid sits centred
    assert _padded_size(n) == m


def _preconditioner(g, shift=1.0):
    """The preconditioner of _shifted_operator on g (the potential does
    not enter it), applied into a new array."""
    precond = _shifted_operator(g, np.zeros(g.shape), shift)[1]
    return lambda x: _apply(precond, x)


def test_preconditioner_symmetric_positive_on_padded_box():
    g = make_grid(2, 9.0, 0.25)
    assert g.n_axis == 73 and _padded_size(g.n_axis) > g.n_axis
    precond = _preconditioner(g)
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, g.size))
    xPy = float(np.dot(x, precond(y)))
    yPx = float(np.dot(y, precond(x)))
    assert abs(xPy - yPx) < 1e-12 * abs(xPy)
    assert float(np.dot(x, precond(x))) > 0.0


def test_preconditioner_unpadded_when_size_is_fast():
    # n_axis + 1 = 64: the padded box is the grid and the apply is the
    # plain transform pair, bit for bit
    g = make_grid(2, 7.75, 0.25)
    assert _padded_size(g.n_axis) == g.n_axis == 63
    inv = _inverse_spectrum(g.n_axis, g.dim, g.h, 1.0)
    x = np.random.default_rng(3).standard_normal(g.size)
    t = dstn(x.reshape(g.shape), type=1, norm="ortho")
    t *= inv
    plain = dstn(t, type=1, norm="ortho").ravel()
    assert np.array_equal(_preconditioner(g)(x), plain)


# fold sets: y2 always folds (and y3 in 3-D), y1 for even k; the 2-D grid
# is padded (73 -> 79 nodes), and so is the 3-D one (21 -> 23)
FOLDS = [(2, 1, (1,)), (2, 2, (0, 1)), (2, 3, (1,)),
         (3, 1, (1, 2)), (3, 2, (0, 1, 2))]


def _fold_grid(dim):
    return make_grid(2, 9.0, 0.25) if dim == 2 else make_grid(3, 5.0, 0.5)


def _even(a, axes):
    for ax in axes:
        a = 0.5 * (a + np.flip(a, ax))
    return a


@pytest.mark.parametrize("dim,k,axes", FOLDS)
def test_folded_preconditioner_matches_full_dst(dim, k, axes):
    # on a field even in the folded axes, the DCT-III/II apply on the odd
    # modes of the half box is the full DST-I apply read at the kept nodes
    g = _fold_grid(dim)
    m = _padded_size(g.n_axis)
    assert m > g.n_axis
    assert mirror_axes(k, dim) == axes
    x = fold_even(Field(g, np.random.default_rng(11).standard_normal(
        g.shape)), axes)
    full = _preconditioner(g)(unfold(x).data.ravel())
    full = fold(Field(g, full.reshape(g.shape)), axes).data
    # the folded apply, on sqrt(w)-scaled vectors, undone here
    precond = _shifted_operator(x.grid, np.zeros(x.grid.shape), 1.0)[1]
    root_w = np.sqrt(x.grid.mirror_weights()).ravel()
    half = _apply(precond, root_w * x.data.ravel()) / root_w
    assert np.max(np.abs(half.reshape(full.shape) - full)) \
        < 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("dim,k,axes", FOLDS)
def test_folded_operator_and_preconditioner_symmetric(dim, k, axes):
    # the sqrt(w) scaling makes both folded maps symmetric, the
    # preconditioner stays positive, and on an even field the scaled
    # matvec is the full-grid operator read at the kept nodes
    g = _fold_grid(dim)
    rng = np.random.default_rng(5)
    pot = _even(1.0 + rng.random(g.shape), axes)
    gf = g.with_mirrored(axes)
    matvec, precond, _work = _shifted_operator(
        gf, fold(Field(g, pot), axes).data, 1.0)
    root_w = _root_w(gf)
    assert np.array_equal(root_w, np.sqrt(gf.mirror_weights()).ravel())
    x, y = rng.standard_normal((2, gf.size))
    for op in (matvec, precond):
        xAy = float(np.dot(x, _apply(op, y)))
        yAx = float(np.dot(y, _apply(op, x)))
        assert abs(xAy - yAx) < 1e-12 * abs(xAy)
    assert float(np.dot(x, _apply(precond, x))) > 0.0
    f = Field(g, _even(rng.standard_normal(g.shape), axes))
    full = -laplacian(f).data + pot * f.data
    want = root_w * fold(Field(g, full), axes).data.ravel()
    got = _apply(matvec, root_w * fold(f, axes).data.ravel())
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def _root_w(g):
    """sqrt(w) on g as a flat array, from the blocks the solves scale
    by."""
    return corrector._scale_root_w(np.multiply, corrector._root_w_blocks(g),
                                   np.ones(g.shape), np.empty(g.shape)).ravel()


def _padded_box(g, shift):
    """The preconditioner's spectrum on g and the slices of g's nodes in
    its padded box."""
    axes = g.mirrored
    inv = _inverse_spectrum(_padded_size(g.n_axis), g.dim, g.h, shift, axes)
    inner = tuple(slice(0, g.centre + 1) if ax in axes else
                  slice((inv.shape[ax] - g.n_axis) // 2,
                        (inv.shape[ax] + g.n_axis) // 2)
                  for ax in range(g.dim))
    return inv, inner


def _reference_operator(g, pot, shift):
    """The scaled matvec and preconditioner as allocating applies, in the
    arithmetic of ``_shifted_operator``: the folded stencil on the scaled
    vector with the couplings between the centre line of each mirrored
    axis and its neighbour made sqrt(2) / h^2, and orthonormal
    transforms.  Kept as the bit-for-bit reference of the applies that
    write into caller arrays."""
    axes = g.mirrored
    plain = tuple(ax for ax in range(g.dim) if ax not in axes)
    inv, inner = _padded_box(g, shift)
    hh = g.h * g.h

    def matvec(x):
        a = x.reshape(g.shape)
        lap = laplacian(Field(g, a)).data
        for ax in axes:
            centre, nxt = (grid._axis_slice(g.dim, ax, i) for i in (0, 1))
            lap[centre] += a[nxt] * ((math.sqrt(2.0) - 2.0) / hh)
            lap[nxt] += a[centre] * ((math.sqrt(2.0) - 1.0) / hh)
        return (pot * a - lap).ravel()

    def precond(x):
        t = np.zeros(inv.shape)
        t[inner] = x.reshape(g.shape)
        if plain:
            t = dstn(t, type=1, norm="ortho", axes=plain)
        if axes:
            t = dctn(t, type=3, norm="ortho", axes=axes)
        t = t * inv
        if axes:
            t = dctn(t, type=2, norm="ortho", axes=axes)
        if plain:
            t = dstn(t, type=1, norm="ortho", axes=plain)
        return t[inner].ravel()

    return matvec, precond


def _conjugated_operator(g, pot, shift):
    """The same maps formed as sqrt(w) A (x / sqrt(w)): the folded stencil
    on x / sqrt(w), and the unnormalized DCT-III/DCT-II pair on a folded
    axis with the 1 / (n_box + 1) it needs in the spectrum.  The oracle
    of the scaled stencil and of the orthonormal transforms."""
    root_w = np.sqrt(g.mirror_weights()).ravel()
    axes = g.mirrored
    plain = tuple(ax for ax in range(g.dim) if ax not in axes)
    inv, inner = _padded_box(g, shift)
    inv = inv / (_padded_size(g.n_axis) + 1) ** len(axes)

    def matvec(x):
        a = (x / root_w).reshape(g.shape)
        return root_w * (pot * a - laplacian(Field(g, a)).data).ravel()

    def precond(x):
        t = np.zeros(inv.shape)
        t[inner] = (x / root_w).reshape(g.shape)
        if plain:
            t = dstn(t, type=1, norm="ortho", axes=plain)
        if axes:
            t = dctn(t, type=3, axes=axes)
        t = t * inv
        if axes:
            t = dctn(t, type=2, axes=axes)
        if plain:
            t = dstn(t, type=1, norm="ortho", axes=plain)
        return root_w * t[inner].ravel()

    return matvec, precond


def _reference_bordered(matvec, precond, zf):
    """The bordered L1 apply and preconditioner as they were, built with
    np.concatenate per apply."""
    schur = float(np.dot(zf, precond(zf)))

    def mv(x):
        return np.concatenate([matvec(x[:-1]) + x[-1] * zf,
                               [float(np.dot(zf, x[:-1]))]])

    def pc(x):
        return np.concatenate([precond(x[:-1]), [x[-1] / schur]])

    return mv, pc


# padded folded parts; k = 3 keeps a plain y1 axis
OPERATOR_CASES = [(2, 2), (2, 3), (2, 16), (3, 2), (3, 3)]


def _operator_case(dim, k):
    """A padded part folded on mirror_axes(k), a potential on it and a
    random bordered vector."""
    g = grid_for_radius(3.0, 1.0, dim, k, h=0.5 if dim == 2 else 1.0,
                        L=10.0 if dim == 2 else 6.0)
    assert _padded_size(g.n_axis) > g.n_axis
    assert g.mirrored == mirror_axes(k, dim)
    rng = np.random.default_rng(17)
    pot = 1.0 + rng.random(g.shape)
    return g, pot, rng


@pytest.mark.parametrize("dim,k", OPERATOR_CASES)
def test_operators_write_reference_bits(dim, k):
    # the applies that write into caller arrays give the allocating
    # reference's values bit for bit, plain, bordered and preconditioned,
    # and the block scaling by sqrt(w) at the solve boundaries gives
    # np.sqrt of the mirror weights' product bit for bit
    g, pot, rng = _operator_case(dim, k)
    shift = 1.0
    matvec, precond, work = _shifted_operator(g, pot, shift)
    ref_matvec, ref_precond = _reference_operator(g, pot, shift)
    blocks = corrector._root_w_blocks(g)
    ref_w = np.sqrt(g.mirror_weights()).ravel()
    root_w = _root_w(g)
    assert np.array_equal(root_w, ref_w)
    y = np.random.default_rng(23).standard_normal(g.shape)
    y.flat[:3] = [-0.0, np.inf, np.nan]
    for op in (np.multiply, np.divide):
        want = op(y.ravel(), ref_w)
        got = corrector._scale_root_w(op, blocks, y, np.empty(g.shape))
        assert got.tobytes() == want.tobytes()
        assert corrector._scale_root_w(op, blocks, y.copy(),
                                       y.copy()).tobytes() == want.tobytes()
    zf = root_w * rng.standard_normal(g.size)
    mv, pc = corrector._bordered_operator(matvec, precond, zf, work)
    ref_mv, ref_pc = _reference_bordered(ref_matvec, ref_precond, zf)
    x = rng.standard_normal(g.size + 1)
    for op, ref, vec in ((matvec, ref_matvec, x[:-1]),
                         (precond, ref_precond, x[:-1]),
                         (mv, ref_mv, x), (pc, ref_pc, x)):
        assert np.array_equal(_apply(op, vec), ref(vec))


@pytest.mark.parametrize("dim,k", OPERATOR_CASES)
def test_operators_match_sqrt_w_conjugation(dim, k):
    # the scaled stencil and the orthonormal transforms are sqrt(w) A
    # (x / sqrt(w)) and its preconditioner to rounding
    g, pot, rng = _operator_case(dim, k)
    matvec, precond, _work = _shifted_operator(g, pot, 1.0)
    oracle = _conjugated_operator(g, pot, 1.0)
    for _ in range(3):
        x = rng.standard_normal(g.size)
        for op, ref in zip((matvec, precond), oracle):
            want = ref(x)
            assert np.max(np.abs(_apply(op, x) - want)) \
                <= 4e-15 * np.max(np.abs(want))


def _ring_scene(townes, k):
    """Coarse k-bump scene on the full box with a right-hand side in the
    symmetric class; the ring fields are assembled on the part and
    unfolded."""
    params = ModelParams(beta=0.05)
    g = make_grid(2, 14.0, 0.25)
    part = g.with_mirrored(mirror_axes(k, 2))
    config = bump_centers(k, 5.0, 2)
    W = unfold(bump_sum_field(part, townes, config))
    Z = unfold(constraint_field(part, townes, config))
    U0f = radial_field(g, townes)
    mu = potential_field(g, make_potential(params))
    rhs = Field(g, U0f.data * W.data + W.data ** 2 + 0.1 * U0f.data ** 3)
    return params, g, U0f, W, Z, mu, rhs


@pytest.mark.parametrize("k", [2, 3])
def test_folded_solves_match_full_grid(townes, monkeypatch, k):
    # inputs folded on mirror_axes(k) give, unfolded and with the
    # re-symmetrization taken out, the full-grid solution, and meet the
    # tolerance in the full-grid residual
    monkeypatch.setattr(corrector, "symmetrize_fast", lambda f, _k: f)
    params, g, U0f, W, Z, mu, rhs = _ring_scene(townes, k)
    tol = 1e-11
    axes = mirror_axes(k, 2)
    fU0, fW, fZ, fmu, frhs = (fold(f, axes) for f in (U0f, W, Z, mu, rhs))

    u_full = solve_L0(rhs, U0f, params, tol)
    u = solve_L0(frhs, fU0, params, tol, k=k)
    assert u.grid == frhs.grid
    assert _relerr(unfold(u), u_full) < 1e-10
    res = apply_L0(unfold(u), U0f, params) - rhs
    assert np.linalg.norm(res.data) <= tol * np.linalg.norm(rhs.data)

    v_full, lam_full = solve_L1_constrained(rhs, W, mu, Z, params, tol)
    v, lam_c = solve_L1_constrained(frhs, fW, fmu, fZ, params, tol, k=k)
    assert _relerr(unfold(v), v_full) < 1e-10
    assert abs(lam_c - lam_full) < 1e-10 * abs(lam_full)
    res = Field(g, apply_L1(unfold(v), W, mu, params).data
                + lam_c * Z.data - rhs.data)
    assert np.linalg.norm(res.data) <= tol * np.linalg.norm(rhs.data)


@pytest.mark.parametrize("k", [2, 3])
def test_solves_on_folded_inputs(townes, k):
    # with the re-symmetrization in place, inputs folded on mirror_axes(k)
    # give the folded full-grid solution projected as the solves project
    # it under the same k (symmetrize, then v off Z); lam_c agrees and the
    # Z-orthogonality holds on the folded box
    params, g, U0f, W, Z, mu, rhs = _ring_scene(townes, k)
    tol = 1e-11
    axes = mirror_axes(k, 2)
    fU0, fW, fZ, fmu, frhs = (fold(f, axes) for f in (U0f, W, Z, mu, rhs))

    u_full = symmetrize(fold(solve_L0(rhs, U0f, params, tol), axes), k)
    u = solve_L0(frhs, fU0, params, tol, k=k)
    assert u.grid == frhs.grid
    assert _relerr(u, u_full) < 1e-10

    v_full, lam_full = solve_L1_constrained(rhs, W, mu, Z, params, tol)
    v_full = corrector._project_off_Z(symmetrize(fold(v_full, axes), k), fZ,
                                      quad_product(fZ, fZ))
    v, lam_c = solve_L1_constrained(frhs, fW, fmu, fZ, params, tol, k=k)
    assert v.grid == frhs.grid
    assert _relerr(v, v_full) < 1e-10
    assert abs(lam_c - lam_full) < 1e-10 * abs(lam_full)
    assert abs(quad_product(fZ, v)) < 1e-12 * math.sqrt(
        quad_product(fZ, fZ) * quad_product(v, v))


def test_solves_reject_inputs_folded_for_another_k(townes):
    # inputs folded on y2 alone are not the layout of the k = 2 class,
    # which also mirrors y1: the projection refuses them
    params, g, U0f, W, Z, mu, rhs = _ring_scene(townes, 2)
    fU0, fW, fZ, fmu, frhs = (fold(f, (1,)) for f in (U0f, W, Z, mu, rhs))
    with pytest.raises(ValueError, match="folded on axes"):
        solve_L0(frhs, fU0, params, 1e-9, k=2)
    with pytest.raises(ValueError, match="folded on axes"):
        solve_L1_constrained(frhs, fW, fmu, fZ, params, 1e-9, k=2)


# ---------------------------------------------------------------------------
# solves


def test_solve_L0_round_trip(townes):
    params = ModelParams()
    g = make_grid(2, 16.0, 0.125).with_mirrored(mirror_axes(1, 2))
    U0f = radial_field(g, townes)
    rhs = Field(g, -2.0 * params.alpha0 * U0f.data ** 3)
    u = solve_L0(rhs, U0f, params, 1e-9, k=1)
    back = apply_L0(u, U0f, params)
    assert _relerr(back, rhs) < 1e-9
    # and the solution is the profile itself up to the stencil bias
    assert _relerr(u, U0f) < 1e-2


def test_solve_L1_round_trip_and_constraint(townes):
    params = ModelParams()
    g = make_grid(2, 32.0, 0.25).with_mirrored(mirror_axes(2, 2))
    config = bump_centers(2, 12.0, 2)
    W = bump_sum_field(g, townes, config)
    Z = constraint_field(g, townes, config)
    mu = potential_field(g, make_potential(params))
    mesh = g.mesh()
    r2 = sum(np.broadcast_to(m, g.shape) ** 2 for m in mesh)
    rhs = Field(g, np.exp(-0.3 * r2)
                * (1.0 + 0.1 * np.broadcast_to(mesh[0], g.shape) ** 2))
    cold, warm = _KrylovCount(), _KrylovCount()
    v, lam_c = solve_L1_constrained(rhs, W, mu, Z, params, 1e-9, k=2,
                                    callback=cold)
    residual = Field(g, apply_L1(v, W, mu, params).data
                     + lam_c * Z.data - rhs.data)
    assert math.sqrt(quad_product(residual, residual)) \
        < 1e-9 * math.sqrt(quad_product(rhs, rhs))
    zv = quad_product(Z, v)
    assert abs(zv) < 1e-12 * math.sqrt(quad_product(Z, Z)
                                       * quad_product(v, v))

    # started from its own solution, the bordered solve takes fewer
    # Krylov iterations and lands on the same pair
    v2, lam2 = solve_L1_constrained(rhs, W, mu, Z, params, 1e-9, k=2,
                                    x0=(v.data.ravel(), lam_c),
                                    callback=warm)
    assert warm.n < cold.n
    assert _relerr(v2, v) < 1e-8
    assert abs(lam2 - lam_c) < 1e-8 * abs(lam_c)


def test_solve_L1_degenerate_constraint(townes):
    params = ModelParams()
    g = make_grid(2, 16.0, 0.25).with_mirrored(mirror_axes(2, 2))
    config = bump_centers(2, 6.0, 2)
    W = bump_sum_field(g, townes, config)
    mu = potential_field(g, make_potential(params))
    rhs = radial_field(g, townes)
    with pytest.raises(ValueError, match="degenerate constraint"):
        solve_L1_constrained(rhs, W, mu, zeros(g), params, 1e-9)


def rayleigh_floor(U0f: Field, params: ModelParams, k: int,
                   n_iter: int = 6, tol: float = 1e-7) -> float:
    """Smallest |eigenvalue| of the first linearized operator on the
    symmetric subspace, estimated by inverse iteration: a numeric
    stand-in for the invertibility constant rho_0.  U0f lies on the part
    of the box folded on mirror_axes(k); the start is the projection of
    a field sampled on the full box."""
    g = U0f.grid
    full = g.with_mirrored(())
    mesh = full.mesh()
    r2 = sum(np.broadcast_to(m, full.shape) ** 2 for m in mesh)
    bump = np.exp(-0.5 * ((mesh[0] - 0.4) ** 2 + (mesh[1] + 0.2) ** 2))
    w = Field(full, np.exp(-0.25 * r2)
              * (1.0 + 0.3 * np.broadcast_to(bump, full.shape)))
    w = symmetrize(fold_even(w, g.mirrored), k)
    quotient = math.inf
    for _ in range(n_iter):
        w = solve_L0(w, U0f, params, tol, k=k)
        scale = math.sqrt(quad_product(w, w))
        w = Field(g, w.data / scale)
        quotient = quad_product(w, apply_L0(w, U0f, params)) \
            / quad_product(w, w)
    return abs(quotient)


def test_rayleigh_floor_bounded_away_from_zero(townes):
    # on the fold-symmetric subspace (k >= 2 removes the translation
    # near-kernel) the smallest |eigenvalue| sits at the essential
    # spectrum edge ~lam and stays there across fold orders
    params = ModelParams()
    g = make_grid(2, 16.0, 0.25).with_mirrored(mirror_axes(2, 2))
    assert mirror_axes(4, 2) == g.mirrored
    U0f = radial_field(g, townes)
    fl2 = rayleigh_floor(U0f, params, k=2)
    fl4 = rayleigh_floor(U0f, params, k=4)
    assert fl2 > 0.5
    assert fl4 > 0.5
    assert abs(fl2 - fl4) < 0.05


# ---------------------------------------------------------------------------
# fixed point


def test_fixed_point_rejects_large_beta(corr_k2):
    params, inputs, _res = corr_k2
    big = ModelParams(beta=10.0)
    with pytest.raises(ValueError, match="f0"):
        fixed_point_iterate(inputs, big)


def test_fixed_point_warns_outside_window():
    params = ModelParams(beta=0.01)
    with pytest.warns(UserWarning, match="outside the admissible window"):
        res = fixed_point_iterate(build_inputs(2, 3.0, params, h=0.5),
                                  params, max_iter=1)
    assert not res.converged
    assert res.iterations == 1


@pytest.mark.parametrize("fixture,normE,lagr,contr", [
    ("corr_k2", 0.324377, 4.711486e-3, 0.0765),
    ("corr_k1", 0.342078, 1.017433e-2, 0.1155),
    ("corr_k3", 0.432934, 5.566517e-3, 0.0835),
])
def test_fixed_point_converges(request, fixture, normE, lagr, contr):
    _params, _inputs, res = request.getfixturevalue(fixture)
    assert res.converged
    assert res.iterations <= 15
    assert res.contraction_factor < 1.0
    assert abs(res.contraction_factor - contr) < 0.5 * contr
    assert abs(res.norm_E - normE) < 0.01
    assert abs(res.lagrange - lagr) < 0.05 * abs(lagr)
    assert res.steps[-1] < 1e-8
    # geometric decay all the way down
    assert all(b < a for a, b in zip(res.steps, res.steps[1:]))


@pytest.mark.parametrize("fixture,krylov", [
    # [L0, L1] per Picard step, as recorded while MINRES recurred A w and
    # the operators divided and multiplied by sqrt(w), but for the first
    # L0 solve at k = 1.  That class keeps the translation along y1, so
    # L0 is near singular on it and the solve's count moves with
    # rounding: it took 14 iterations with one BLAS thread and 15 with
    # two (the second solve the other way round), and 15 after any
    # one-ulp perturbation of its right-hand side (6 seeds of 6)
    ("corr_k2", [[13, 23], [12, 23], [9, 16], [8, 14], [3, 11], [2, 8],
                 [1, 7]]),
    ("corr_k1", [[15, 17], [15, 17], [12, 13], [11, 12], [10, 10], [8, 8],
                 [1, 6], [2, 5]]),
    ("corr_k3", [[0, 27], [0, 27]] + [[0, 21]] * 5),
])
def test_fixed_point_krylov_iterations(request, fixture, krylov):
    _params, _inputs, res = request.getfixturevalue(fixture)
    assert res.krylov_iters == krylov


@pytest.mark.parametrize("fixture,iterations,normE,lagr", [
    # recorded from the iteration on the full grid, before it ran on the
    # folded box
    ("corr_k2", 7, 0.32437693252722577, 0.00471148614333224),
    ("corr_k3", 7, 0.43293352048740247, 0.005566517127523741),
])
def test_fixed_point_same_as_full_grid_iteration(request, fixture,
                                                 iterations, normE, lagr):
    _params, _inputs, res = request.getfixturevalue(fixture)
    assert res.iterations == iterations
    assert abs(res.norm_E - normE) <= 1e-10 * normE
    assert abs(res.lagrange - lagr) <= 1e-10 * abs(lagr)


def test_fixed_point_converges_in_window_k16_m2():
    # inside S_16 at m = 2 the corrector contracts: the interpolating
    # q = 4 fold on the folded box takes the 6 steps it took on the full
    # grid (measured there at rho = 0.049)
    base = ModelParams(m=2.0)
    R = mid_radius(16, base.m)
    inputs = build_inputs(16, R, base, h=0.25)
    params = replace(base, beta=0.5 * inputs.f0)
    res = fixed_point_iterate(inputs, params)
    assert res.converged
    assert res.iterations == 6
    assert res.contraction_factor < 0.1
    # the pair stays on the part of the box folded on mirror_axes(16)
    assert inputs.g.mirrored == mirror_axes(16, 2)
    assert res.u.grid == inputs.g and res.v.grid == inputs.g


@pytest.mark.parametrize("dim,R,h,beta,bound", [
    # peaks with the iteration on the full grid: 13.4-13.8 and 11.7-11.8
    # field sizes; on the folded box 8.2-8.5 and 4.0-4.1 while the loop
    # cut full-box inputs to the part, 6.9-7.2 and 3.3-3.4 on inputs
    # built there, 5.8-6.2 and 2.6-2.8 with the Krylov temporaries cut,
    # 5.4 and 2.4 with MINRES's block at seven rows
    (2, 6.0, 0.25, 0.05, 5.7),
    (3, 4.0, 0.5, 0.02, 2.5),
])
def test_fixed_point_peak_memory(dim, R, h, beta, bound):
    assert _fixed_point_peak(2, dim, R, h, beta) <= bound


def _fixed_point_peak(k, dim, R, h, beta):
    """The traced peak of one call beyond its inputs, in full-grid field
    sizes (the inputs lie on the folded part, the unit stays the unfolded
    grid's field), over the first Picard steps (cold and warm solves)."""
    params = ModelParams(beta=beta, dim=dim)
    inputs = build_inputs(k, R, params, h=h, L=R + 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, peak = traced_peak(fixed_point_iterate, inputs, params,
                              max_iter=4)
    return peak / (inputs.g.with_mirrored(()).size * 8)


@pytest.mark.parametrize("dim,k,R,h,beta,bound", [
    # 3-D k = 3 (q = 3): 9.2 field sizes while symmetrize mirrored F_H
    # back to the full box, 8.0-8.3 with the orbit average on the part,
    # 6.7-7.0 once the inputs are built there rather than cut to it,
    # 5.4-5.7 with the Krylov temporaries cut
    (3, 3, 4.0, 0.5, 0.02, 6.2),
    # 2-D k = 3 peaks inside MINRES on the half box: 15.8-16.7 field
    # sizes with full-box inputs cut to it, 13.3-14.1 on inputs built
    # there, 10.7-11.6 with the Krylov temporaries cut
    (2, 3, 6.0, 0.25, 0.05, 12.5),
])
def test_fixed_point_peak_memory_interpolating_fold(dim, k, R, h, beta,
                                                    bound):
    assert _fixed_point_peak(k, dim, R, h, beta) <= bound


@pytest.fixture(scope="module")
def seed3_rings():
    """Corrector inputs and parameters of the benchmark workloads
    ring2_converge (k = 2, R = 12) and ring16_diverge (k = 16 at the
    mid-window radius) at seed 3, whose beta sits 2/7 % below nominal,
    as ``ringnls corrector`` builds them."""
    base = ModelParams()
    below = 1.0 - 0.02 / 7.0
    rings = {}
    for name, k, R, beta in (
            ("ring2", 2, 12.0, 0.05),
            ("ring16", 16, mid_radius(16, base.m),
             0.5 * 0.14650082444345194)):
        rings[name] = (build_inputs(k, R, base),
                       replace(base, beta=beta * below))
    return rings


def _cold_peak(inputs, fn, *args, **kwargs):
    """The traced peak of fn in part sizes of inputs.g, with the
    preconditioner spectra built inside the call."""
    _inverse_spectrum.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, peak = traced_peak(fn, *args, **kwargs)
    return peak / (inputs.g.size * 8)


@pytest.mark.parametrize("ring", ["ring2", "ring16"])
def test_fixed_point_peak_within_20_part_sizes(seed3_rings, ring):
    """Three Picard steps of the benchmark configs peak inside an L1
    matvec.  The right-hand sides are freed once scaled into MINRES's b,
    the bordered vectors are built in place, MINRES iterates on its start
    and the matvec holds one scratch: the peak was 24.5 (ring2) and 23.7
    (ring16) part sizes when the loop held b0 and b1 through both solves,
    19.6 and 19.8 while each solve stored sqrt(w), 18.7 and 18.8 with
    sqrt(w) applied by blocks and one workspace per solve, and is 16.6
    and 16.7 with MINRES's block at seven rows."""
    inputs, params = seed3_rings[ring]
    assert _cold_peak(inputs, fixed_point_iterate, inputs, params,
                      max_iter=3) <= 17.5


@pytest.mark.parametrize("solve", ["L0", "L1"])
def test_solve_peak_memory(seed3_rings, solve):
    """One cold solve on the ring2 seed-3 inputs, its right-hand side
    held by the caller: 17.5 (L0) and 18.5 (L1) part sizes while each
    matvec allocated x / sqrt(w), pot a and the Laplacian and L1 bordered
    its vectors with np.append, 15.5 and 16.5 while each solve stored
    sqrt(w), 14.6 and 15.6 with sqrt(w) applied by blocks, 12.6 and 13.6
    with MINRES's block at seven rows."""
    inputs, params = seed3_rings["ring2"]
    zero = zeros(inputs.g)
    if solve == "L0":
        rhs = g0_rhs(zero, zero, inputs.U0f, inputs.W, params)
        peak = _cold_peak(inputs, solve_L0, rhs, inputs.U0f, params, 1e-9,
                          k=2)
        assert peak <= 13.5
    else:
        rhs = g1_rhs(zero, zero, inputs.U0f, inputs.W, inputs.cubes,
                     inputs.mu, params)
        peak = _cold_peak(inputs, solve_L1_constrained, rhs, inputs.W,
                          inputs.mu, inputs.Z, params, 1e-9, k=2)
        assert peak <= 14.5


def test_build_inputs_on_folded_part_peak_memory():
    """build_inputs assembles and returns every field on the part of the
    box folded on mirror_axes(k), never on the full box: at 3-D k = 2
    (an eighth of the box) its traced peak was 46.5 part sizes while it
    mirrored its five fields back to the full box, and is 13.6 now."""
    params = ModelParams(dim=3)
    build_inputs(2, 4.0, params, h=0.5, L=12.0)   # warm the ground states
    inputs, peak = traced_peak(build_inputs, 2, 4.0, params, h=0.5, L=12.0)
    g = inputs.g
    assert g.mirrored == mirror_axes(2, 3)
    for f in (inputs.U0f, inputs.W, inputs.cubes, inputs.mu, inputs.Z):
        assert f.grid == g and f.data.shape == g.shape
    assert peak <= 30.0 * g.size * 8


@pytest.mark.parametrize("fixture,level", [
    # pi-rotation and identity folds symmetrize without interpolation, so
    # the converged pair satisfies the weak equations to the solver
    # tolerance; the k = 3 fold pays the interpolation error of the
    # projection after each linear solve
    ("corr_k2", 1e-8),
    ("corr_k1", 1e-8),
    ("corr_k3", 2e-2),
])
def test_fixed_point_weak_residuals(request, fixture, level):
    params, inputs, res = request.getfixturevalue(fixture)
    b0 = g0_rhs(res.u, res.v, inputs.U0f, inputs.W, params)
    b1 = g1_rhs(res.u, res.v, inputs.U0f, inputs.W, inputs.cubes,
                inputs.mu, params)
    r0 = apply_L0(res.u, inputs.U0f, params) - b0
    r1 = Field(inputs.g, apply_L1(res.v, inputs.W, inputs.mu, params).data
               + res.lagrange * inputs.Z.data - b1.data)
    assert math.sqrt(quad_product(r0, r0)) < 1e-7
    assert math.sqrt(quad_product(r1, r1)) \
        < level * math.sqrt(quad_product(b1, b1))


@pytest.mark.parametrize("fixture", ["corr_k1", "corr_k2", "corr_k3"])
def test_fixed_point_constraint_held(request, fixture):
    # the returned pair is the last one the linear solves produced: it is
    # invariant bit for bit under the node permutations of the group, and
    # v is orthogonal to Z
    _params, inputs, res = request.getfixturevalue(fixture)
    k = inputs.config.k
    for _s, _flip2, h in node_subgroup(k, 2):
        for f in (unfold(res.u), unfold(res.v)):
            assert np.array_equal(apply_signed_permutation(f.data, h),
                                  f.data)
    zv = quad_product(inputs.Z, res.v)
    assert abs(zv) < 1e-12 * math.sqrt(quad_product(inputs.Z, inputs.Z)
                                       * quad_product(res.v, res.v))


def test_fixed_point_beta_zero_u_identically_zero(corr_k3):
    params, _inputs, res = corr_k3
    assert params.beta == 0.0
    assert not np.any(res.u.data)


def test_fixed_point_diverges_at_ring_scale(divergent_k16):
    # at the admissible ring radius for k = 16 the second-equation
    # forcing exceeds any contraction ball and the plain iteration blows
    # up; the run must end in the divergence error, not a silent return
    assert divergent_k16["error"] is not None
    msg = str(divergent_k16["error"])
    assert "diverging" in msg or "stalled" in msg
    assert divergent_k16["result"] is None


def test_divergence_error_typed_with_forcing_split(divergent_k16):
    # the error is classified by type and reports the forcing at (0, 0)
    # after the step list, which stays the only bracketed list
    err = divergent_k16["error"]
    assert isinstance(err, CorrectorDivergence)
    msg = str(err)
    assert msg.count("[") == 1 and msg.index("steps [") < msg.index("]")
    for part in ("potential (mu - 1) W", "overlap a1 (W^3 - sum V_i^3)",
                 "beta terms"):
        assert part in msg


def _record_starts(monkeypatch):
    """Patch the corrector to record, per Picard step, whether each linear
    solve got a starting guess.

    The record is taken where a solve hands its start to the first MINRES
    pass; a restart pass always continues from the pass before it.
    """
    steps = []
    g0 = corrector.g0_rhs
    solve = corrector._solve_minres

    def step_marker(*args, **kwargs):
        steps.append([])
        return g0(*args, **kwargs)

    def recorder(*args, x0=None, **kwargs):
        steps[-1].append(x0 is not None)
        return solve(*args, x0=x0, **kwargs)

    monkeypatch.setattr(corrector, "g0_rhs", step_marker)
    monkeypatch.setattr(corrector, "_solve_minres", recorder)
    return steps


def test_warm_start_after_contracting_step(monkeypatch):
    # step 1 has no ratio and step 2 only the first one: both start from
    # zero; from step 3 on the previous step shrank and every solve
    # starts from the last iterate
    starts = _record_starts(monkeypatch)
    params = ModelParams(beta=0.05)
    with pytest.warns(UserWarning, match="outside the admissible window"):
        res = fixed_point_iterate(build_inputs(2, 12.0, params, h=0.25),
                                  params)
    assert res.converged and res.iterations >= 4
    assert len(starts) == res.iterations
    assert starts[:2] == [[False, False]] * 2
    assert all(s == [True, True] for s in starts[2:])
    assert all(b < a for a, b in zip(res.steps, res.steps[1:]))
    assert res.contraction_factor < 0.2
    # one [L0, L1] iteration count per step, fewer once warm
    assert len(res.krylov_iters) == res.iterations
    assert sum(res.krylov_iters[-1]) < sum(res.krylov_iters[0])


def test_one_minres_pass_per_solve_while_diverging(monkeypatch):
    # every linear solve of the diverging k = 16 ring stops on the
    # recurred residual that its recomputed check then confirms, so no
    # solve needs a restart pass
    passes = []

    def counted_solve(solve):
        def wrapper(*args, **kwargs):
            passes.append(0)
            return solve(*args, **kwargs)
        return wrapper

    minres = corrector.minres

    def counted_minres(*args, **kwargs):
        passes[-1] += 1
        return minres(*args, **kwargs)

    for name in ("solve_L0", "solve_L1_constrained"):
        monkeypatch.setattr(corrector, name,
                            counted_solve(getattr(corrector, name)))
    monkeypatch.setattr(corrector, "minres", counted_minres)
    base = ModelParams()
    inputs = build_inputs(16, mid_radius(16, base.m), base,
                          h=0.5)
    params = ModelParams(beta=0.5 * inputs.f0)
    with pytest.raises(CorrectorDivergence):
        fixed_point_iterate(inputs, params)
    assert len(passes) >= 6
    assert passes == [1] * len(passes)


def test_no_warm_start_while_diverging(monkeypatch):
    # the k = 16 mid-window ring never takes a shrinking step, so every
    # solve starts from zero up to the divergence error
    starts = _record_starts(monkeypatch)
    base = ModelParams()
    inputs = build_inputs(16, mid_radius(16, base.m), base,
                          h=0.5)
    params = ModelParams(beta=0.5 * inputs.f0)
    with pytest.raises(CorrectorDivergence):
        fixed_point_iterate(inputs, params)
    assert len(starts) >= 3
    assert not any(any(s) for s in starts)
