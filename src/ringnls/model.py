"""Model parameters, asymptotic exponents, and the bump-radius window.

The solver targets the coupled cubic system

    -ΔU + λU        = α0 U³ + β U V²       in R^N,
    -ΔV + μ(y) V    = α1 V³ + β U² V       in R^N,  N ∈ {2, 3},

where the trapping potential satisfies assumption (A):

    (A1)  μ(y) = 1 + a/|y|^m + O(|y|^{-m-θ})  as |y| → ∞, with a > 0,
          m > 1/2, θ > 0;
    (A2)  μ is bounded and μ(y) ≥ μ~0 > 0.

The construction places k copies of the single-bump profile on a circle
whose radius R grows like (m/2π) k log k.  This module fixes the exponent
bookkeeping behind that statement: the decay-rate parameter τ0, the
window half-width δ0, the contraction rate p, and the admissible radius
interval S_k.  It also validates candidate potentials against (A) and
computes the coupling budget f0 = safety/γ0 that bounds |β|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SAFETY = 0.9


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the coupled system plus potential parameters.

    lam, alpha0, alpha1 are the linear/cubic coefficients of the first
    equation and the self-interaction of the second; beta is the
    cross-species coupling (attractive or repulsive, small).  a, m,
    theta describe the potential tail per assumption (A); dim is the
    ambient dimension N.
    """

    lam: float = 1.0
    alpha0: float = 1.0
    alpha1: float = 1.0
    beta: float = 0.0
    a: float = 1.0
    m: float = 1.0
    theta: float = 2.0
    dim: int = 2
    potential: str = "inverse_sqrt"

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
        if self.theta <= 0:
            raise ValueError(f"tail exponent theta must be positive, got {self.theta}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")


@dataclass(frozen=True)
class Exponents:
    """Derived asymptotic exponents for a given (m, theta)."""

    tau0: float
    delta0: float
    p: float

    def __post_init__(self):
        if not (0.5 < self.tau0 < 1.0):
            raise ValueError(f"tau0 must lie in (1/2, 1), got {self.tau0}")
        if self.delta0 <= 0 or self.p <= 0:
            raise ValueError(
                f"delta0 and p must be positive, got delta0={self.delta0}, p={self.p}"
            )


def derive_exponents(m: float, theta: float) -> Exponents:
    """Fix (tau0, delta0, p) from the potential exponents.

    tau0 = (1 + 1/(2m))/2 sits at the midpoint of the admissible range
    (max{1/2, 1/(2m)}, min{1, (1+θ)/(2m)} ∩ ...); the window half-width
    obeys 4δ0 = min{τ0 m − 1/2, τ0 − 1/2, θ} and the contraction rate is
    p = τ0 m − 1/2 − δ0.
    """
    if m <= 0.5:
        raise ValueError(
            f"potential decay exponent m must exceed 1/2 (assumption (A)), got {m}"
        )
    if theta <= 0:
        raise ValueError(f"tail exponent theta must be positive, got {theta}")
    tau0 = 0.5 * (1.0 + 1.0 / (2.0 * m))
    delta0 = 0.25 * min(tau0 * m - 0.5, tau0 - 0.5, theta)
    p = tau0 * m - 0.5 - delta0
    return Exponents(tau0=tau0, delta0=delta0, p=p)


def bump_radius_interval(k: int, m: float, delta0: float) -> tuple[float, float]:
    """Admissible radius window S_k = [(m∓δ0)/(2π) · k log k].

    Natural logarithm.  delta0 = 0 is allowed and collapses the window
    to the single point (m/2π) k log k.
    """
    if k < 2:
        raise ValueError(f"bump count k must be at least 2, got {k}")
    if delta0 < 0:
        raise ValueError(f"delta0 must be nonnegative, got {delta0}")
    s = k * math.log(k) / (2.0 * math.pi)
    return ((m - delta0) * s, (m + delta0) * s)


def mid_radius(k: int, m: float, theta: float) -> float:
    """Midpoint of the admissible radius window S_k for given exponents."""
    lo, hi = bump_radius_interval(k, m, derive_exponents(m, theta).delta0)
    return 0.5 * (lo + hi)


class Potential:
    """Radial trapping potential μ(r); callable on scalars or arrays."""

    def __init__(self, name, func, a, m, theta):
        self.name = name
        self._func = func
        self.a = a
        self.m = m
        self.theta = theta

    def __call__(self, r):
        return self._func(np.asarray(r, dtype=float))


def make_potential(params: ModelParams) -> Potential:
    """Build the named analytic potential for the given parameters.

    inverse_sqrt:  μ(r) = 1 + a (1 + r²)^(-m/2);  smooth at the origin,
                   satisfies (A) with tail exponent θ = 2.
    constant:      μ ≡ 1 + a; violates (A1) (no decaying tail), kept for
                   degenerate checks.
    """
    a, m = params.a, params.m
    if params.potential == "inverse_sqrt":
        return Potential(
            "inverse_sqrt", lambda r: 1.0 + a * (1.0 + r * r) ** (-0.5 * m), a, m, 2.0
        )
    if params.potential == "constant":
        return Potential("constant", lambda r: np.full_like(r, 1.0 + a), a, m, params.theta)
    raise ValueError(f"unknown potential form {params.potential!r}")


@dataclass
class ValidationReport:
    """Outcome of checking a potential against assumption (A).

    clause is "all" when every clause holds, otherwise the first violated
    one ("asymptotic" or "positivity").  witness_radius is the sample
    radius of the decisive measurement (0.0 for parameter-level failures
    such as a <= 0); measured_bound is the sup of
    r^(m+theta) |mu(r) - 1 - a r^(-m)| over the largest sampled decade.
    """

    passed: bool
    clause: str
    witness_radius: float
    measured_bound: float
    mu_min: float
    mu_max: float
    message: str = ""

    def as_dict(self):
        return {
            "clause": self.clause,
            "passed": self.passed,
            "witness_radius": self.witness_radius,
            "measured_bound": self.measured_bound,
        }


def validate_potential(mu, a: float, m: float, theta: float,
                       sample_radii) -> ValidationReport:
    """Check μ against assumption (A) on the given radii.

    Clause (A1) requires a > 0 and the scaled tail defect
    r^(m+θ) |μ(r) − 1 − a r^(-m)| to stay bounded on the largest sampled
    decade (no growth compared with the decade before it).  Clause (A2)
    requires positivity and boundedness of the sampled values.  The
    report carries the first violated clause and the measured bound.
    """
    r = np.sort(np.asarray(sample_radii, dtype=float))
    if r.size < 8 or r[0] <= 0:
        raise ValueError("sample_radii must hold at least 8 positive radii")
    vals = np.asarray(mu(r), dtype=float)
    mu_min = float(vals.min())
    mu_max = float(vals.max())

    defect = np.abs(vals - 1.0 - a * r ** (-m)) * r ** (m + theta)
    top = r >= r[-1] / 10.0
    prev = (r >= r[-1] / 100.0) & ~top
    i_top = int(np.argmax(np.where(top, defect, -np.inf)))
    tail_bound = float(defect[i_top])

    if a <= 0:
        return ValidationReport(
            passed=False, clause="asymptotic", witness_radius=0.0,
            measured_bound=tail_bound, mu_min=mu_min, mu_max=mu_max,
            message=f"assumption (A) needs a > 0, got a={a}",
        )
    if prev.any():
        prev_bound = float(defect[prev].max())
        # growth across the top decade signals a tail slower than r^(-m-theta)
        if tail_bound > 3.0 * prev_bound + 1e-12:
            return ValidationReport(
                passed=False, clause="asymptotic",
                witness_radius=float(r[i_top]), measured_bound=tail_bound,
                mu_min=mu_min, mu_max=mu_max,
                message=(
                    f"scaled tail defect grows across the largest decade "
                    f"({prev_bound:.3g} -> {tail_bound:.3g}); "
                    f"declared theta={theta} too large"
                ),
            )
    if mu_min <= 0 or not np.isfinite(mu_max):
        i_bad = int(np.argmin(vals)) if mu_min <= 0 else int(np.argmax(vals))
        return ValidationReport(
            passed=False, clause="positivity",
            witness_radius=float(r[i_bad]), measured_bound=tail_bound,
            mu_min=mu_min, mu_max=mu_max,
            message=f"assumption (A) needs 0 < mu bounded, sampled range "
                    f"[{mu_min:.3g}, {mu_max:.3g}]",
        )
    return ValidationReport(
        passed=True, clause="all", witness_radius=float(r[i_top]),
        measured_bound=tail_bound, mu_min=mu_min, mu_max=mu_max,
        message="assumption (A) holds on the sampled radii",
    )


def default_sample_radii(k: int, m: float, delta0: float, n: int = 400):
    """Log-spaced radii spanning [1, 10 · sup S_k] for potential checks."""
    _, hi = bump_radius_interval(k, m, delta0)
    return np.geomspace(1.0, 10.0 * max(hi, 1.0), n)


@dataclass(frozen=True)
class CouplingBudget:
    """Saturation level γ0 and the admissible coupling bound f0."""

    gamma0: float
    gamma0_crude: float
    f0: float
    safety: float = DEFAULT_SAFETY


def compute_gamma0_f0(u0_field, bump_sum_field, decay_const: float,
                      safety: float = DEFAULT_SAFETY) -> CouplingBudget:
    """Measure γ0 = sup max{U0², (ΣV_i)²} and the bound f0 = safety/γ0.

    The crude variant replaces the measured bump-sum peak with the 7M
    envelope from the tail lemma and is reported alongside for
    comparison; f0 always uses the measured γ0.
    """
    if not 0 < safety < 1:
        raise ValueError(f"safety must lie in (0, 1), got {safety}")
    sup_u = float(np.max(np.abs(u0_field))) if np.size(u0_field) else 0.0
    sup_w = float(np.max(np.abs(bump_sum_field))) if np.size(bump_sum_field) else 0.0
    gamma0 = max(sup_u, sup_w) ** 2
    if gamma0 <= 0:
        raise ValueError("gamma0 vanished: both fields are identically zero")
    gamma0_crude = max(sup_u, 7.0 * decay_const) ** 2
    return CouplingBudget(gamma0=gamma0, gamma0_crude=gamma0_crude,
                          f0=safety / gamma0, safety=safety)
