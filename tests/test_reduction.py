"""Reduced-energy evaluation, radius maximization, and assembly."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from ringnls.corrector import build_inputs, fixed_point_iterate
from ringnls.energy import potential_field
from ringnls.geometry import radial_field
from ringnls.grid import Field, laplacian, make_grid, quad_product, zeros
from ringnls.model import ModelParams, bump_radius_interval, make_potential
from ringnls.radial import ground_state
from ringnls.reduction import (Solution, assemble_solution, maximize_over_Sk,
                               pde_residual, reduced_energy)

# frozen second-species moment constant a/2 int V0^2 for the planar
# profile at a = 1 (same number the energy tests pin down)
TOWNES_A2 = 5.850448262964452


def test_reduced_energy_rejects_single_bump():
    params = ModelParams(beta=0.05)
    with pytest.raises(ValueError, match="ring"):
        reduced_energy(build_inputs(1, 8.0, params, h=0.5), params)


def test_reduced_energy_identity_at_converged_radius(corr_k2):
    params, inputs, _res = corr_k2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sample = reduced_energy(inputs, params)
    bd = sample.breakdown
    assert sample.F == bd.total
    split = bd.main + bd.l_val + bd.q_val + bd.h_val
    assert abs(bd.total - split) <= 1e-10 * abs(bd.total)
    assert sample.corrector["converged"]
    assert sample.corrector["iterations"] <= 15
    # frozen regression for the reduced value itself
    assert abs(sample.F - 18.52475978) < 1e-4
    assert sample.R == 12.0


def test_reduced_energy_identity_uncoupled(corr_k3):
    params, inputs, _res = corr_k3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sample = reduced_energy(inputs, params)
    bd = sample.breakdown
    split = bd.main + bd.l_val + bd.q_val + bd.h_val
    assert abs(bd.total - split) <= 1e-10 * abs(bd.total)


def test_reduced_energy_passes_max_iter(corr_k2):
    params, inputs, _res = corr_k2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sample = reduced_energy(inputs, params, max_iter=1)
    assert sample.corrector["iterations"] == 1
    assert not sample.corrector["converged"]


def test_reduced_energy_evaluates_profile_once_per_orbit(monkeypatch):
    """One radius of reduced_energy, its inputs included, evaluates the
    profile once for U0 and once per H+-orbit of bumps: the energy split
    assembles no field of its own."""
    from ringnls import geometry

    evals = []
    eval_profile = geometry.eval_profile

    def counted(*args, **kwargs):
        evals.append(1)
        return eval_profile(*args, **kwargs)

    monkeypatch.setattr(geometry, "eval_profile", counted)
    params = ModelParams(beta=0.0)
    inputs = build_inputs(3, 11.0, params, h=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reduced_energy(inputs, params, max_iter=2)
    # U0 once, then once per H+-orbit of bumps on the half box folded
    # on y2: {1}, {2} and {3} at k = 3
    assert len(geometry._ring_orbits(3)) == 3
    assert len(evals) == 1 + 3


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Plain golden-section maximizer, the independent reference."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    f1, f2 = f(c1), f(c2)
    while b - a > tol:
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = f(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = f(c1)
    return 0.5 * (a + b)


def test_maximize_surrogate_matches_independent_golden():
    # stand-in objective with the reduced model's shape: potential gain
    # A2/R against a neighbour-overlap loss; c chosen so the balance
    # lands inside the k = 16 window
    k, c = 16, 2.66

    def g_of_R(R: float) -> float:
        return TOWNES_A2 / R - c * math.exp(-2.0 * math.pi * R / k) \
            * math.sqrt(k / R)

    R0, report = maximize_over_Sk(g_of_R, k, 1.0)
    lo, hi = bump_radius_interval(k, 1.0)
    ref = _golden_max(g_of_R, lo, hi, 2e-4)
    assert abs(R0 - ref) < 1e-3
    assert report.interior
    assert report.evaluations == len(report.samples)
    assert lo <= R0 <= hi
    # the reported best value is the best value seen
    best = max(f for _, f in report.samples)
    assert g_of_R(R0) >= best - 1e-12


def test_maximize_endpoint_flagged_not_interior():
    R0, report = maximize_over_Sk(lambda R: 1.0 / R, 16, 1.0)
    lo, _hi = bump_radius_interval(16, 1.0)
    assert R0 == lo
    assert not report.interior
    assert report.evaluations == 9


def test_maximize_refinement_propagates_objective_errors():
    # a pipeline error during the golden refinement (here at every radius
    # off the coarse nodes) must surface, not return the coarse node
    nodes = set(np.linspace(*bump_radius_interval(16, 1.0), 9))
    peak = sorted(nodes)[4] + 0.1

    def objective(R: float) -> float:
        if R not in nodes:
            raise ValueError("|beta| >= f0 at a refined radius")
        return -(R - peak) ** 2

    with pytest.raises(ValueError, match="refined radius"):
        maximize_over_Sk(objective, 16, 1.0)


def test_maximize_plateau_keeps_coarse_node():
    # the best node tied with its right neighbour is no bracket: the scan
    # keeps the node without refining
    nodes = np.linspace(*bump_radius_interval(16, 1.0), 9)

    def objective(R: float) -> float:
        return -max(abs(R - nodes[4]), abs(R - nodes[5]))

    R0, report = maximize_over_Sk(objective, 16, 1.0)
    assert R0 == nodes[4]
    assert report.interior
    assert report.evaluations == 9


def test_maximize_evaluates_each_radius_once():
    # the golden search asks again for its bracket nodes and centre; F is
    # called once per distinct radius, and the search path, which reads
    # only the returned values, lands on the same R0 bit for bit
    lo, hi = bump_radius_interval(16, 2.0)
    c = lo + 0.43 * (hi - lo)
    calls = []

    def objective(R: float) -> float:
        calls.append(R)
        return -(R - c) ** 2

    R0, report = maximize_over_Sk(objective, 16, 2.0)
    assert len(calls) == 17
    assert len(set(calls)) == 17
    assert report.evaluations == 17
    assert [R for R, _ in report.samples] == calls
    assert R0 == 14.089662234833096
    assert report.interior


def test_maximize_rejects_sparse_scan():
    with pytest.raises(ValueError, match="coarse"):
        maximize_over_Sk(lambda R: -R, 16, 1.0, n_coarse=5)


def test_single_species_residual_refinement():
    # with V = 0 the second residual is exactly zero and the first is the
    # pure stencil defect of the profile equation, so halving h divides
    # it by ~4
    params = ModelParams()
    prof = ground_state(1.0, 1.0, 2)
    res_u = {}
    for h in (0.25, 0.125):
        g = make_grid(2, 16.0, h)
        U0f = radial_field(g, prof)
        sol = Solution(U=U0f, V=zeros(g), R0=0.0, residuals=(0.0, 0.0),
                       lagrange_at_R0=0.0)
        mu = potential_field(g, make_potential(params))
        rU, rV = pde_residual(sol.U, sol.V, mu, params)
        assert rV == 0.0
        res_u[h] = rU
    assert res_u[0.25] < 0.5
    assert 3.4 < res_u[0.25] / res_u[0.125] < 4.6


def test_pde_residual_matches_textbook_cubes_on_mixed_signs():
    """The cubes written as products give the ** 3 form of both
    residual norms to 1e-14 relative where U and V change sign."""
    params = ModelParams(beta=0.05)
    g = make_grid(2, 8.0, 0.25)
    mu = potential_field(g, make_potential(params))
    Ud, Vd = np.random.default_rng(4).standard_normal((2,) + g.shape)
    U, V = Field(g, Ud), Field(g, Vd)
    rU = (-laplacian(U).data + params.lam * Ud
          - params.alpha0 * Ud ** 3 - params.beta * Ud * Vd ** 2)
    rV = (-laplacian(V).data + mu.data * Vd
          - params.alpha1 * Vd ** 3 - params.beta * Ud ** 2 * Vd)
    refs = [math.sqrt(quad_product(Field(g, r), Field(g, r)))
            for r in (rU, rV)]
    assert pde_residual(U, V, mu, params) == pytest.approx(refs, rel=1e-14)


def test_assemble_solution_at_converged_radius(corr_k2):
    params, inputs, res = corr_k2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = assemble_solution(inputs, params)
    assert sol.R0 == 12.0
    assert abs(sol.lagrange_at_R0 - res.lagrange) < 1e-12
    # the assembled pair is ansatz plus corrector
    du = sol.U - inputs.U0f
    assert math.sqrt(quad_product(du, du)) \
        == pytest.approx(math.sqrt(quad_product(res.u, res.u)), rel=1e-12)
    # strong-form residuals are stencil-limited at this h (frozen levels)
    rU, rV = sol.residuals
    assert abs(rU - 5.346e-2) < 1.7e-2
    assert abs(rV - 8.071e-2) < 2.5e-2
    again = pde_residual(sol.U, sol.V, inputs.mu, params)
    assert again == sol.residuals
    d = sol.as_dict()
    assert d["R0"] == 12.0
    assert d["res_U"] == rU


def test_assembled_residual_refinement():
    # on a full corrected pair the first residual is pure stencil defect
    # and drops by ~4 under h -> h/2; the raw second residual carries the
    # h-independent multiplier component lagrange * Z (the pair solves
    # the projected equation away from the maximizing radius), so the
    # second-order drop shows once that component is added back
    params = ModelParams(beta=0.05)
    res_u, res_v_corr, lagranges = {}, {}, {}
    for h in (0.125, 0.0625):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inputs = build_inputs(1, 8.0, params, h=h)
            fp = fixed_point_iterate(inputs, params)
        U = inputs.U0f + fp.u
        V = inputs.W + fp.v
        g = inputs.g
        sol = Solution(U=U, V=V, R0=8.0, residuals=(0.0, 0.0),
                       lagrange_at_R0=fp.lagrange)
        rU, _rV = pde_residual(sol.U, sol.V, inputs.mu, params)
        rv_field = Field(g, -laplacian(V).data + inputs.mu.data * V.data
                         - params.alpha1 * V.data ** 3
                         - params.beta * U.data ** 2 * V.data
                         + fp.lagrange * inputs.Z.data)
        res_u[h] = rU
        res_v_corr[h] = math.sqrt(quad_product(rv_field, rv_field))
        lagranges[h] = fp.lagrange
    assert res_u[0.125] / res_u[0.0625] > 3.5
    assert res_v_corr[0.125] / res_v_corr[0.0625] > 3.5
    # the multiplier itself is a stable physical quantity, not noise
    assert abs(lagranges[0.125] - lagranges[0.0625]) \
        < 0.05 * abs(lagranges[0.125])


def test_reduce_attempt_propagates_divergence(reduce_k16_attempt):
    # every scan node embeds a corrector solve; at k = 16 the very first
    # radius diverges and the error must surface unchanged
    assert reduce_k16_attempt["error"] is not None
    msg = str(reduce_k16_attempt["error"])
    assert "diverging" in msg or "stalled" in msg
    assert reduce_k16_attempt["R0"] is None
