"""Energy functional, expansion constants, and finite-k envelope checks.

The variational energy of a pair (U, V) is

    I(U, V) = 1/2 * int |grad U|^2 + lam U^2 + |grad V|^2 + mu(y) V^2
            - 1/4 * int alpha0 U^4 + alpha1 V^4 + 2 beta U^2 V^2,

evaluated with the grid module's trapezoid quadrature and 8th-order
gradients.  Around the ring ansatz (U0, Sigma V_i) the energy splits into
the ansatz value plus parts linear, quadratic, and higher-order in the
corrector pair (u, v); the split here is carried out as nodewise algebra,
so the four pieces reproduce the direct energy to rounding on any grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# bump_sum_field is not called here, but perfbench/spans.py patches it
# on this module by name, so the import stays
from .geometry import (BumpConfiguration, RingFields, bump_sum_field,
                       mirror_axes, radial_field, ring_fields,
                       sector_membership)
from .grid import (Field, Grid, grad8, grid_for_radius, make_grid, quad,
                   quad_product)
from .model import ModelParams, Potential, make_potential
from .radial import RadialProfile, eval_profile


def potential_field(g: Grid, mu: Potential) -> Field:
    """Sample the radial trapping potential mu(|y|) on the grid."""
    mesh = g.mesh()
    r2 = mesh[0] ** 2 + mesh[1] ** 2
    for d in range(2, g.dim):
        r2 = r2 + mesh[d] ** 2
    return Field(g, np.broadcast_to(mu(np.sqrt(r2)), g.shape).copy())


def energy(U: Field, V: Field, mu: Field, params: ModelParams) -> float:
    """I(U, V): quadratic transport/trapping part minus the quartic well."""
    kin = 0.0
    for ax in range(U.grid.dim):
        gu = grad8(U, ax)
        gv = grad8(V, ax)
        kin += quad_product(gu, gu) + quad_product(gv, gv)
    quadratic = params.lam * quad_product(U, U) + quad_product(mu, V, V)
    quartic = (params.alpha0 * quad_product(U, U, U, U)
               + params.alpha1 * quad_product(V, V, V, V)
               + 2.0 * params.beta * quad_product(U, U, V, V))
    return 0.5 * (kin + quadratic) - 0.25 * quartic


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
    chord_surrogate: float
    chord_exact: float


def _interaction_report(total: float, config: BumpConfiguration,
                        params: ModelParams) -> InteractionReport:
    """The overlap total Sigma_{i>=2} int V1^3 V_i with its levels J."""
    if config.k < 2:
        raise ValueError(f"interaction needs at least two bumps, got k={config.k}")
    d_sur = 2.0 * math.pi * config.R / config.k
    d_ex = config.nearest_distance
    scale = (config.k / config.R) ** (0.5 * (config.dim - 1))
    level = 0.5 * params.alpha1 * total / scale
    return InteractionReport(
        total=float(total),
        J_surrogate=level / math.exp(-d_sur),
        J_exact=level / math.exp(-d_ex),
        chord_surrogate=d_sur,
        chord_exact=d_ex,
    )


def interaction_term(V0prof: RadialProfile, config: BumpConfiguration,
                     params: ModelParams,
                     g: Grid | None = None) -> InteractionReport:
    """Sigma_{i>=2} int V1^3 V_i on g, normalized to its levels J.

    The sum comes from one ring_fields pass on the part of g folded on
    mirror_axes(k), which evaluates the profile once per H+-orbit of
    bumps there.
    """
    if g is None:
        g = grid_for_radius(config.R, 1.0, config.dim)
    ring = ring_fields(g.with_mirrored(mirror_axes(config.k, config.dim)),
                       V0prof, config, overlap=True)
    return _interaction_report(ring.overlap, config, params)


def potential_moment(V0prof: RadialProfile, config: BumpConfiguration,
                     mu: Potential, params: ModelParams,
                     g: Grid | None = None) -> tuple[float, float]:
    """int (mu(|y|) - 1) V1^2 dy and its leading model (a/R^m) int V0^2.

    The integrand concentrates in a ball around the bump centre x1, so
    the quadrature runs on a bump-centred local grid: with z = y - x1 the
    integrand reads (mu(|z + x1|) - 1) V0(|z|)^2.  Both numbers are
    returned so callers can track the deviation as R grows.
    """
    if g is None:
        h = 0.125 if config.dim == 2 else 0.25
        g = make_grid(config.dim, h * math.ceil(22.0 / h), h)
    x1 = config.centers[0]
    mesh = g.mesh()
    rho2 = mesh[0] ** 2
    shift2 = (mesh[0] + x1[0]) ** 2
    for d in range(1, config.dim):
        rho2 = rho2 + mesh[d] ** 2
        shift2 = shift2 + (mesh[d] + x1[d]) ** 2
    integrand = (mu(np.sqrt(shift2)) - 1.0) \
        * eval_profile(V0prof, np.sqrt(rho2)) ** 2
    integral = quad(Field(g, np.broadcast_to(integrand, g.shape).copy()))
    leading = params.a / config.R ** params.m * V0prof.moment2
    return float(integral), float(leading)


@dataclass
class BoundReport:
    """Pointwise check of the two tail-sum envelopes in sector 1.

    max_ratio_tail compares Sigma_{i>=2} V_i(y) with
    6 M e^{-eta pi R / k} e^{(eta-1)|y-x1|}, and max_ratio_all compares
    the full sum Sigma_i V_i(y) with 7 M e^{(eta-1)|y-x1|}; passing means
    both ratios stay at or below one at every sample.
    """

    k: int
    R: float
    eta: float
    n_samples: int
    max_ratio_tail: float
    max_ratio_all: float
    decay_const: float
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
        k=config.k, R=config.R, eta=float(eta), n_samples=len(pts),
        max_ratio_tail=ratio_tail, max_ratio_all=ratio_all,
        decay_const=envelope_const,
        passed=bool(max(ratio_tail, ratio_all) <= 1.0),
    )


def draw_sector_samples(config: BumpConfiguration, n: int, rng,
                        box_half: float | None = None) -> np.ndarray:
    """n uniform points of sector 1, rejection-sampled from a box.

    Deterministic for a fixed generator state, which is what makes the
    seeded bound checks reproducible run to run.
    """
    if box_half is None:
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
    reads, sampled on the part of g's box folded on mirror_axes(k)
    (``grid.fold``); a caller that also needs W, for f0, builds them once
    here, and sup |W| on the part is that of the box."""
    part = g.with_mirrored(mirror_axes(config.k, config.dim))
    return radial_field(part, U0prof), ring_fields(part, V0prof, config,
                                                   overlap=True)


def expansion_compare(U0prof: RadialProfile, V0prof: RadialProfile,
                      config: BumpConfiguration, params: ModelParams,
                      mu: Potential | None = None,
                      g: Grid | None = None,
                      fields: tuple[Field, RingFields] | None = None
                      ) -> ExpansionReport:
    """Compare I(U0, Sigma V_i) with A0 + k (A1 + A2/R^m) - interaction_sum.

    The per-bump remainder rho = |direct - model| / k collects everything
    the model drops: the finite-R potential deviation, beyond-pair
    overlaps, and the beta cross term.  U0, W = Sigma V_i, mu and the
    overlap sum are built by ansatz_fields on the part of g's box folded
    on mirror_axes(k), and the energy is evaluated there: the folded
    gradients and quadratures give the full box's values of the even
    fields, summed in another order.  The fields and sums equal those of
    bump_sum_field, energy and interaction_term on that part exactly.
    fields, from ansatz_fields, skips that assembly.
    """
    if fields is None:
        if g is None:
            g = grid_for_radius(config.R, params.lam, config.dim)
        fields = ansatz_fields(U0prof, V0prof, config, g)
    U0f, ring = fields
    part = U0f.grid
    if mu is None:
        mu = make_potential(params)
    muf = potential_field(part, mu)
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
    to rounding.  The expansion constants, the potential term k A2 / R^m,
    and the interaction sum ride along for reporting.
    """

    A0: float
    A1: float
    A2: float
    potential_term: float
    interaction_sum: float
    J_estimate: float
    main: float
    l_val: float
    q_val: float
    h_val: float
    total: float

    def as_dict(self):
        return {
            "A0": self.A0,
            "A1": self.A1,
            "A2": self.A2,
            "potential_term": self.potential_term,
            "interaction_sum": self.interaction_sum,
            "J_estimate": self.J_estimate,
            "main": self.main,
            "l_val": self.l_val,
            "q_val": self.q_val,
            "h_val": self.h_val,
            "total": self.total,
        }


def _grad_quad(a: Field, b: Field) -> float:
    """Sum over axes of int (d_ax a)(d_ax b) with the 8th-order stencil."""
    out = 0.0
    for ax in range(a.grid.dim):
        out += quad_product(grad8(a, ax), grad8(b, ax))
    return out


def energy_breakdown(U0f: Field, W: Field, u: Field, v: Field, mu: Field,
                     params: ModelParams, config: BumpConfiguration,
                     constants: tuple[float, float, float],
                     interaction: InteractionReport) -> EnergyBreakdown:
    """Assemble the exact four-term split of the corrected energy.

    The linear part is kept in raw form -- the weak pairing of the ansatz
    fields against (u, v) including their gradient terms -- rather than
    the reduced form in which the bump equations cancel those terms.  On
    the grid the raw form is what makes main + l + q + h match the direct
    energy exactly; the reduced form differs by the sampled profiles'
    discrete weak-form defect, which the tests measure separately.
    """
    A0, A1, A2 = constants
    lam, al0 = params.lam, params.alpha0
    al1, beta = params.alpha1, params.beta
    l_val = (_grad_quad(U0f, u) + lam * quad_product(U0f, u)
             - al0 * quad_product(U0f, U0f, U0f, u)
             - beta * quad_product(U0f, W, W, u)
             + _grad_quad(W, v) + quad_product(mu, W, v)
             - al1 * quad_product(W, W, W, v)
             - beta * quad_product(U0f, U0f, W, v))
    q_val = (0.5 * (_grad_quad(u, u) + lam * quad_product(u, u)
                    - 3.0 * al0 * quad_product(U0f, U0f, u, u))
             + 0.5 * (_grad_quad(v, v) + quad_product(mu, v, v)
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
    return EnergyBreakdown(
        A0=A0, A1=A1, A2=A2,
        potential_term=config.k * A2 / config.R ** params.m,
        interaction_sum=0.5 * al1 * config.k * interaction.total,
        J_estimate=interaction.J_exact,
        main=main, l_val=float(l_val), q_val=float(q_val),
        h_val=float(h_val), total=total,
    )
