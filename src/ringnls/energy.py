"""Energy functional, expansion constants, and finite-k envelope checks.

The variational energy of a pair (U, V) is

    I(U, V) = 1/2 * int |grad U|^2 + lam U^2 + |grad V|^2 + mu(y) V^2
            - 1/4 * int alpha0 U^4 + alpha1 V^4 + 2 beta U^2 V^2,

evaluated with the grid module's trapezoid quadrature, its quadratic part
as grid.inner(U, U, lam) + grid.inner(V, V, mu).  Around the ring ansatz
(U0, Sigma V_i) the energy splits into the ansatz value plus parts
linear, quadratic, and higher-order in the corrector pair (u, v); the
split here is carried out as nodewise algebra, its linear and quadratic
parts again through grid.inner, so the four pieces reproduce the direct
energy to rounding on any grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# bump_sum_field is not called here, but perfbench/spans.py patches it
# on this module by name, so the import stays
from .geometry import (BumpConfiguration, RingFields, bump_sum_field,
                       node_radii, radial_field, ring_fields,
                       sector_membership)
from .grid import Field, Grid, grid_for_radius, inner, quad_product
from .model import ModelParams, make_potential
from .radial import RadialProfile, eval_profile


def potential_field(g: Grid, mu) -> Field:
    """Sample the radial trapping potential mu(|y|) on the grid."""
    return Field(g, mu(node_radii(g)))


def energy(U: Field, V: Field, mu: Field, params: ModelParams) -> float:
    """I(U, V): quadratic transport/trapping part minus the quartic well."""
    quartic = (params.alpha0 * quad_product(U, U, U, U)
               + params.alpha1 * quad_product(V, V, V, V)
               + 2.0 * params.beta * quad_product(U, U, V, V))
    return (0.5 * (inner(U, U, params.lam) + inner(V, V, mu))
            - 0.25 * quartic)


def expansion_constants(U0prof: RadialProfile, V0prof: RadialProfile,
                        params: ModelParams) -> tuple[float, float, float]:
    """(A0, A1, A2) = (alpha0/4 int U0^4, alpha1/4 int V0^4, a/2 int V0^2).

    All three come from the radial moments of the solved profiles, so they
    are independent of any box grid; A2 is exactly linear in a.
    """
    return (0.25 * params.alpha0 * U0prof.moment4,
            0.25 * params.alpha1 * V0prof.moment4,
            0.5 * params.a * V0prof.moment2)


@dataclass
class InteractionReport:
    """Neighbour-overlap sum Sigma_{i>=2} int V1^3 V_i and its level J.

    J divides out the expected decay e^{-d} (k/R)^{(N-1)/2} of the
    nearest-neighbour overlap; the surrogate variant uses the arc length
    2 pi R / k for d and the exact variant the true chord 2 R sin(pi/k).
    At desk-scale k the two differ measurably, so both are reported.
    """

    total: float
    J_surrogate: float
    J_exact: float


def _interaction_report(total: float, config: BumpConfiguration,
                        params: ModelParams) -> InteractionReport:
    """The overlap total Sigma_{i>=2} int V1^3 V_i with its levels J."""
    if config.k < 2:
        raise ValueError(f"interaction needs at least two bumps, got k={config.k}")
    scale = (config.k / config.R) ** (0.5 * (config.dim - 1))
    level = 0.5 * params.alpha1 * total / scale
    return InteractionReport(
        total=float(total),
        J_surrogate=_undo_decay(level, 2.0 * math.pi * config.R / config.k),
        J_exact=_undo_decay(level, config.nearest_distance),
    )


def _undo_decay(level: float, d: float) -> float:
    """level / e^{-d}, formed as e^{log(level) + d} (0 for level 0) so
    that it stays finite where e^{-d} underflows (d > ~745)."""
    if level == 0.0:
        return 0.0
    return math.copysign(math.exp(math.log(abs(level)) + d), level)


def interaction_term(V0prof: RadialProfile, config: BumpConfiguration,
                     params: ModelParams,
                     g: Grid | None = None) -> InteractionReport:
    """Sigma_{i>=2} int V1^3 V_i on g, normalized to its levels J.

    g is the part of the box folded on mirror_axes(k) (by default
    grid_for_radius's for the ring), and the sum comes from one
    ring_fields pass there, which evaluates the profile once per
    H+-orbit of bumps.
    """
    if g is None:
        g = grid_for_radius(config.R, 1.0, config.dim, config.k)
    ring = ring_fields(g, V0prof, config, overlap=True)
    return _interaction_report(ring.overlap, config, params)


@dataclass
class BoundReport:
    """Pointwise check of the two tail-sum envelopes in sector 1.

    max_ratio_tail compares Sigma_{i>=2} V_i(y) with
    6 M e^{-eta pi R / k} e^{(eta-1)|y-x1|}, and max_ratio_all compares
    the full sum Sigma_i V_i(y) with 7 M e^{(eta-1)|y-x1|}; passing means
    both ratios stay at or below one at every sample.
    """

    n_samples: int
    max_ratio_tail: float
    max_ratio_all: float
    passed: bool


def check_ksum_bound(V0prof: RadialProfile, config: BumpConfiguration,
                     eta: float, samples) -> BoundReport:
    """Evaluate both envelopes at each sample point of sector 1.

    M is the profile's measured envelope constant (its decay_const),
    valid for the plain bound V0(rho) <= M e^{-rho}.
    Hypotheses out of range (tiny R, radii far outside the admissible
    window) are not an error: the ratios simply come back above one and
    the report is the diagnostic.
    """
    if not 0.0 < eta <= 2.0:
        raise ValueError(f"eta must lie in (0, 2], got {eta}")
    pts = np.asarray(samples, dtype=float).reshape(-1, config.dim)
    envelope_const = V0prof.decay_const
    diffs = pts[:, None, :] - config.centers[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(axis=2))
    vals = eval_profile(V0prof, dists)
    d1 = dists[:, 0]
    lhs_tail = vals[:, 1:].sum(axis=1)
    lhs_all = lhs_tail + vals[:, 0]
    envelope = np.exp((eta - 1.0) * d1)
    rhs_tail = (6.0 * envelope_const
                * math.exp(-eta * math.pi * config.R / config.k) * envelope)
    rhs_all = 7.0 * envelope_const * envelope
    ratio_tail = float(np.max(lhs_tail / rhs_tail)) if len(pts) else 0.0
    ratio_all = float(np.max(lhs_all / rhs_all)) if len(pts) else 0.0
    return BoundReport(
        n_samples=len(pts), max_ratio_tail=ratio_tail,
        max_ratio_all=ratio_all,
        passed=bool(max(ratio_tail, ratio_all) <= 1.0),
    )


def draw_sector_samples(config: BumpConfiguration, n: int,
                        rng) -> np.ndarray:
    """n uniform points of sector 1, rejection-sampled from the box
    [-(R + 20), R + 20]^N around the ring.

    Deterministic for a fixed generator state, which is what makes the
    seeded bound checks reproducible run to run.
    """
    box_half = config.R + 20.0
    rows = []
    got = 0
    while got < n:
        cand = rng.uniform(-box_half, box_half,
                           size=(max(4 * n, 64), config.dim))
        keep = cand[sector_membership(cand, config) == 1]
        rows.append(keep[: n - got])
        got += len(rows[-1])
    return np.concatenate(rows, axis=0)


@dataclass
class ExpansionReport:
    """Direct ansatz energy against the three-constant model at one (k, R)."""

    k: int
    R: float
    direct: float
    model: float
    rho: float
    A0: float
    A1: float
    A2: float
    interaction_sum: float
    J_surrogate: float
    J_exact: float


def ansatz_fields(U0prof: RadialProfile, V0prof: RadialProfile,
                  config: BumpConfiguration,
                  g: Grid) -> tuple[Field, RingFields]:
    """U0 and the ring pass (W and the overlap sum) that expansion_compare
    reads, sampled on g, the part of the box folded on mirror_axes(k); a
    caller that also needs W, for f0, builds them once here, and sup |W|
    on the part is that of the box."""
    return radial_field(g, U0prof), ring_fields(g, V0prof, config,
                                                overlap=True)


def expansion_compare(U0prof: RadialProfile, V0prof: RadialProfile,
                      config: BumpConfiguration, params: ModelParams,
                      fields: tuple[Field, RingFields]) -> ExpansionReport:
    """Compare I(U0, Sigma V_i) with A0 + k (A1 + A2/R^m) - interaction_sum.

    The per-bump remainder rho = |direct - model| / k collects everything
    the model drops: the finite-R potential deviation, beyond-pair
    overlaps, and the beta cross term.  fields, from ansatz_fields, hold
    U0, W = Sigma V_i and the overlap sum on the part of the box folded on
    mirror_axes(k); mu is sampled there from params and the energy is
    evaluated there: the folded gradients and quadratures give the full
    box's values of the even fields, summed in another order.  The fields
    and sums equal those of bump_sum_field, energy and interaction_term on
    that part exactly.
    """
    U0f, ring = fields
    part = U0f.grid
    muf = potential_field(part, make_potential(params))
    inter = _interaction_report(ring.overlap, config, params)
    direct = energy(U0f, Field(part, ring.W), muf, params)
    A0, A1, A2 = expansion_constants(U0prof, V0prof, params)
    interaction_sum = 0.5 * params.alpha1 * config.k * inter.total
    model = A0 + config.k * (A1 + A2 / config.R ** params.m) - interaction_sum
    return ExpansionReport(
        k=config.k, R=config.R, direct=direct, model=model,
        rho=abs(direct - model) / config.k,
        A0=A0, A1=A1, A2=A2, interaction_sum=interaction_sum,
        J_surrogate=inter.J_surrogate, J_exact=inter.J_exact,
    )


@dataclass
class EnergyBreakdown:
    """Exact split of the corrected energy F into four grid integrals.

    total is the directly evaluated energy of (U0 + u, Sigma V_i + v);
    main is the ansatz energy, and l_val, q_val, h_val collect the parts
    linear, quadratic, and higher-order in the corrector pair.  The split
    is nodewise algebra, so main + l_val + q_val + h_val reproduces total
    to rounding.
    """

    main: float
    l_val: float
    q_val: float
    h_val: float
    total: float


def energy_breakdown(U0f: Field, W: Field, u: Field, v: Field, mu: Field,
                     params: ModelParams) -> EnergyBreakdown:
    """Assemble the exact four-term split of the corrected energy.

    The linear part is kept in raw form -- the weak pairing of the ansatz
    fields against (u, v) including their gradient terms -- rather than
    the reduced form in which the bump equations cancel those terms.  On
    the grid the raw form is what makes main + l + q + h match the direct
    energy exactly; the reduced form differs by the sampled profiles'
    discrete weak-form defect, which the tests measure separately.
    """
    lam, al0 = params.lam, params.alpha0
    al1, beta = params.alpha1, params.beta
    l_val = (inner(U0f, u, lam)
             - al0 * quad_product(U0f, U0f, U0f, u)
             - beta * quad_product(U0f, W, W, u)
             + inner(W, v, mu)
             - al1 * quad_product(W, W, W, v)
             - beta * quad_product(U0f, U0f, W, v))
    q_val = (0.5 * (inner(u, u, lam)
                    - 3.0 * al0 * quad_product(U0f, U0f, u, u))
             + 0.5 * (inner(v, v, mu)
                      - 3.0 * al1 * quad_product(W, W, v, v)))
    h_val = (-0.25 * (4.0 * al0 * quad_product(U0f, u, u, u)
                      + al0 * quad_product(u, u, u, u)
                      + 4.0 * al1 * quad_product(W, v, v, v)
                      + al1 * quad_product(v, v, v, v))
             - 0.5 * beta * (2.0 * quad_product(U0f, u, v, v)
                             + 2.0 * quad_product(W, u, u, v)
                             + quad_product(u, u, v, v))
             - 0.5 * beta * (quad_product(U0f, U0f, v, v)
                             + 4.0 * quad_product(U0f, W, u, v)
                             + quad_product(W, W, u, u)))
    main = energy(U0f, W, mu, params)
    total = energy(U0f + u, W + v, mu, params)
    return EnergyBreakdown(main=main, l_val=float(l_val),
                           q_val=float(q_val), h_val=float(h_val),
                           total=total)
