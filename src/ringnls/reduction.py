"""Reduced energy over the ring radius: evaluate, maximize, assemble.

The corrected pair (U0 + u, sum V_i + v) turns the two-species energy
into a function F of the single ring radius R once the corrector (u, v)
at that R is known.  This module evaluates F together with its exact
four-term split, maximizes any callable R -> F over the admissible
radius window by a coarse scan plus golden-section refinement, and
assembles the resulting field pair with its strong-form equation
residuals.

The radius search calls F once per distinct radius.  In the reduce and
solve pipelines F is build_inputs plus reduced_energy, a corrector
solve, so the scan propagates the corrector's divergence error where
the fixed point does not converge.  Scan evaluations are independent of
each other; they are executed serially so identical configurations
reproduce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corrector import CorrectorInputs, fixed_point_iterate
from .energy import EnergyBreakdown, energy_breakdown
from .grid import Field, laplacian, quad_product
from .model import ModelParams, bump_radius_interval


@dataclass
class ReducedEnergySample:
    """One evaluated radius: F, its exact split, and the corrector run."""

    R: float
    F: float
    breakdown: EnergyBreakdown
    corrector: dict


@dataclass
class ScanReport:
    """Everything a radius scan produced, in evaluation order."""

    samples: list = field(default_factory=list)   # (R, F), distinct R
    interior: bool = False

    @property
    def evaluations(self) -> int:
        """Calls of F, one per distinct radius."""
        return len(self.samples)


@dataclass
class Solution:
    """Assembled field pair at the maximizing radius, on the folded part
    of the box its corrector ran on (``CorrectorInputs.g``)."""

    U: Field
    V: Field
    R0: float
    residuals: tuple
    lagrange_at_R0: float

    def as_dict(self) -> dict:
        return {
            "R0": self.R0,
            "res_U": float(self.residuals[0]),
            "res_V": float(self.residuals[1]),
            "lagrange_at_R0": self.lagrange_at_R0,
        }


def reduced_energy(inputs: CorrectorInputs, params: ModelParams,
                   tol: float = 1e-8,
                   max_iter: int = 50) -> ReducedEnergySample:
    """Evaluate F(R) and its exact main + l + q + h split at one radius.

    k and R are read from ``inputs.config``.  Runs the corrector fixed
    point on ``inputs`` with at most max_iter steps (propagating its
    divergence error), then computes the energy of the corrected pair
    both directly and through the four-term decomposition, and insists
    the two agree to 1e-10 relative.
    """
    if inputs.config.k < 2:
        raise ValueError(f"reduced energy needs a ring, got k = "
                         f"{inputs.config.k}")
    res = fixed_point_iterate(inputs, params, tol=tol, max_iter=max_iter)
    breakdown = energy_breakdown(inputs.U0f, inputs.W, res.u, res.v,
                                 inputs.mu, params)
    split = (breakdown.main + breakdown.l_val + breakdown.q_val
             + breakdown.h_val)
    defect = abs(breakdown.total - split)
    if defect > 1e-10 * abs(breakdown.total):
        raise RuntimeError(
            f"decomposition identity violated at R = {inputs.config.R:g}: "
            f"|total - split| = {defect:.3e} vs total = {breakdown.total:.6e}")
    return ReducedEnergySample(R=inputs.config.R, F=breakdown.total,
                               breakdown=breakdown,
                               corrector=res.as_dict())


def maximize_over_Sk(F, k: int, m: float, n_coarse: int = 9,
                     tol_R: float = 2e-4) -> tuple:
    """Maximize F, a callable R -> float, over the window S_k for k bumps
    and potential decay exponent m.

    Coarse scan on n_coarse equispaced radii, then golden-section
    refinement bracketed at the best node, to radius tolerance tol_R.
    Returns (R0, ScanReport); the report flags whether R0 is interior
    (strictly between the second and second-to-last coarse nodes).  An
    endpoint maximum skips refinement and is reported as non-interior; a
    plateau, the best node tied with its right neighbour, skips it too
    and keeps the node.  Errors of the evaluations propagate.

    F is called once per distinct radius: the golden search asks again
    for the bracket nodes (the centre twice) and gets the values the scan
    already has.
    """
    if n_coarse < 9:
        raise ValueError(f"need at least 9 coarse nodes, got {n_coarse}")
    lo, hi = bump_radius_interval(k, m)
    nodes = np.linspace(lo, hi, n_coarse)
    seen: dict = {}   # R -> F(R), in evaluation order

    def evaluate(R: float) -> float:
        R = float(R)
        if R not in seen:
            seen[R] = float(F(R))
        return seen[R]

    values = [evaluate(r) for r in nodes]
    i_best = int(np.argmax(values))
    R0 = float(nodes[i_best])

    # the first argmax lies strictly above its left neighbour, so the tie
    # with its right one is the only bracket the golden search rejects
    if (0 < i_best < n_coarse - 1
            and values[i_best + 1] != values[i_best]):
        bracket = (float(nodes[i_best - 1]), float(nodes[i_best]),
                   float(nodes[i_best + 1]))
        # imported here so that only a refining scan loads scipy.optimize
        from scipy.optimize import minimize_scalar

        opt = minimize_scalar(lambda R: -evaluate(R), bracket=bracket,
                              method="golden", options={"xtol": tol_R})
        if -opt.fun >= values[i_best]:
            R0 = float(opt.x)

    return R0, ScanReport(samples=list(seen.items()),
                          interior=bool(nodes[1] < R0 < nodes[n_coarse - 2]))


def pde_residual(U: Field, V: Field, mu: Field, params: ModelParams) -> tuple:
    """L2 norms of the two strong-form equation defects (2nd-order stencil).

    Both norms are the O(h²) stencil defect of the sampled ansatz, which
    the corrector's forcing leaves out: the first reads the same at every
    radius (0.2085 at h = 0.25, 0.0535 at h = 0.125, the default
    potential and β = f0/2), and the second is about √k times it.  The multiplier
    term lagrange_at_R0 * Z of the second equation lies far below that
    defect, so neither norm marks the radius R* where the multiplier
    vanishes; R* lies above the window S_k.
    """
    Ud, Vd = U.data, V.data
    rU = (-laplacian(U).data + params.lam * Ud
          - params.alpha0 * Ud * Ud * Ud - params.beta * Ud * Vd ** 2)
    rV = (-laplacian(V).data + mu.data * Vd
          - params.alpha1 * Vd * Vd * Vd - params.beta * Ud ** 2 * Vd)
    fU = Field(U.grid, rU)
    fV = Field(V.grid, rV)
    return (float(np.sqrt(quad_product(fU, fU))),
            float(np.sqrt(quad_product(fV, fV))))


def assemble_solution(inputs: CorrectorInputs, params: ModelParams,
                      tol: float = 1e-8, max_iter: int = 50) -> Solution:
    """Run the corrector on ``inputs`` (at most max_iter steps) and
    assemble the corrected field pair at its radius R0 = inputs.config.R,
    on ``inputs.g``."""
    res = fixed_point_iterate(inputs, params, tol=tol, max_iter=max_iter)
    U = inputs.U0f + res.u
    V = inputs.W + res.v
    residuals = pde_residual(U, V, inputs.mu, params)
    return Solution(U=U, V=V, R0=inputs.config.R, residuals=residuals,
                    lagrange_at_R0=res.lagrange)
