"""Model parameters, the bump-radius window S_k, and the coupling budget.

The solver targets the coupled cubic system

    -ΔU + λU        = α0 U³ + β U V²       in R^N,
    -ΔV + μ(y) V    = α1 V³ + β U² V       in R^N,  N ∈ {2, 3},

where the trapping potential satisfies assumption (A):

    (A1)  μ(y) = 1 + a/|y|^m + O(|y|^{-m-θ})  as |y| → ∞, with a > 0,
          m > 1/2, θ > 0;
    (A2)  μ is bounded and μ(y) ≥ μ~0 > 0.

The construction places k copies of the single-bump profile on a circle
whose radius R grows like (m/2π) k log k, inside the window S_k of
half-width δ0 = ¼ min{τ0 m − ½, τ0 − ½, θ}, τ0 = (1 + 1/(2m))/2.  The
solver samples one potential, μ(r) = 1 + a (1 + r²)^(-m/2).  For a > 0
it is bounded with μ ≥ 1, so (A2) holds, and its tail exponent is
θ = 2.  That θ never binds in δ0: τ0 − ½ = 1/(4m) < ½ for every
m > ½, so S_k depends on (k, m) alone.  The module also computes the
coupling budget f0 = SAFETY/γ0 that bounds |β|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SAFETY = 0.9  # f0 = SAFETY/γ0 keeps |β| strictly below 1/γ0


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the coupled system plus potential parameters.

    lam, alpha0, alpha1 are the linear/cubic coefficients of the first
    equation and the self-interaction of the second; beta is the
    cross-species coupling (attractive or repulsive, small).  a and m
    describe the potential tail per assumption (A); dim is the ambient
    dimension N.
    """

    lam: float = 1.0
    alpha0: float = 1.0
    alpha1: float = 1.0
    beta: float = 0.0
    a: float = 1.0
    m: float = 1.0
    dim: int = 2

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.alpha0 <= 0 or self.alpha1 <= 0:
            raise ValueError(
                f"cubic coefficients must be positive, got alpha0={self.alpha0}, "
                f"alpha1={self.alpha1}"
            )
        if self.a <= 0:
            raise ValueError(
                f"potential amplitude a must be positive (assumption (A)), got {self.a}"
            )
        if self.m <= 0.5:
            raise ValueError(
                f"potential decay exponent m must exceed 1/2 (assumption (A)), got {self.m}"
            )
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")


def bump_radius_interval(k: int, m: float) -> tuple[float, float]:
    """Admissible radius window S_k = [(m∓δ0)/(2π) · k log k].

    Natural logarithm.  δ0 = ¼ min{τ0 m − ½, τ0 − ½} with
    τ0 = (1 + 1/(2m))/2, the midpoint of its admissible range; the
    potential's θ = 2 is never the minimum (see the module docstring).
    """
    if k < 2:
        raise ValueError(f"bump count k must be at least 2, got {k}")
    tau0 = 0.5 * (1.0 + 1.0 / (2.0 * m))
    delta0 = 0.25 * min(tau0 * m - 0.5, tau0 - 0.5)
    s = k * math.log(k) / (2.0 * math.pi)
    return ((m - delta0) * s, (m + delta0) * s)


def mid_radius(k: int, m: float) -> float:
    """Midpoint of the admissible radius window S_k."""
    lo, hi = bump_radius_interval(k, m)
    return 0.5 * (lo + hi)


def make_potential(params: ModelParams):
    """The trapping potential μ(r) = 1 + a (1 + r²)^(-m/2), r scalar or array.

    Smooth at the origin; it satisfies (A) with tail exponent θ = 2, so
    it is the one potential the solver samples.
    """
    a, m = params.a, params.m

    def mu(r):
        r = np.asarray(r, dtype=float)
        return 1.0 + a * (1.0 + r * r) ** (-0.5 * m)

    return mu


def coupling_bound(u0_field, bump_sum_field) -> float:
    """The bound f0 = SAFETY/γ0 on |β|, γ0 = sup max{U0², (ΣV_i)²}."""
    sup_u = float(np.max(np.abs(u0_field))) if np.size(u0_field) else 0.0
    sup_w = float(np.max(np.abs(bump_sum_field))) if np.size(bump_sum_field) else 0.0
    gamma0 = max(sup_u, sup_w) ** 2
    if gamma0 <= 0:
        raise ValueError("gamma0 vanished: both fields are identically zero")
    return SAFETY / gamma0
