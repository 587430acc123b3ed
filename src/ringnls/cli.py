"""Configuration parsing, subcommand pipelines, and artifact emission.

    ringnls SUBCOMMAND [--config PATH] [--out DIR] [--seed S]

Subcommands: ground-state (radial profiles and their moments), bounds
(tail-envelope and cross-term decay reports), expansion (ansatz energy
against the three-constant model over k), corrector (fixed point at one
radius), reduce (radius scan and maximization), solve (full pipeline to
an assembled field pair).

Configs are flat ``key = value`` text with # comments; every key has a
documented default.  Each run writes a summary.json plus plot-ready CSVs
to the output directory, all atomically (write-then-rename).  The exit
status is 0 exactly when every invariant the subcommand asserts held;
otherwise a failure.json names the first violated invariant (a diverging
corrector also records its Picard steps and their Krylov iterations).
The warnings a run issues, such as a radius outside the admissible
window, are listed in the summary.json or failure.json it writes and are
issued again afterwards, so they still reach stderr.  A run that fails
by an exception leaves no summary.json or other artifact of its
subcommand, and a run that passes removes an earlier failure.json.

Field files (u.field, v.field, U.field, V.field) hold the folded part
of the box: the ASCII line "N L h axes" (axes the comma-joined mirrored
axes, or "-"), then the part as raw little-endian float64 in C order,
c + 1 nodes along a mirrored axis and 2c + 1 along the others, c = L/h.
grid.load_field reads one; the full box is its even extension np.pad(
part, [(c, 0) if ax in axes else (0, 0) for ax in range(N)], "reflect").

Scan and sampling stages run serially from a single seeded generator,
so identical config + seed produce bit-identical artifacts at a fixed
BLAS thread count (the output path is not echoed into them).  The
quadratures sum without BLAS, so bounds and expansion artifacts do not
depend on that count; the corrector's Krylov solves take their inner
products with np.dot, whose sum order can.

A run leaves the host process's memory allocator at its settings: the
Krylov solves and the field assembly reuse their own buffers (one
workspace per linear solve, one block per ring pass), so they do not
depend on the C library keeping freed memory for them.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .corrector import (CorrectorDivergence, LinearSolveStalled, build_inputs,
                        fixed_point_iterate)
from .energy import check_ksum_bound, draw_sector_samples, expansion_compare
from .geometry import bump_centers, bump_sum_field, radial_field
from .grid import (DEFAULT_H, dump_field, grid_for_radius, quad_product,
                   steps_per_side)
from .model import (ModelParams, bump_radius_interval, coupling_bound,
                    mid_radius)
from .radial import dump_profile_csv, ground_state
from .reduction import assemble_solution, maximize_over_Sk, reduced_energy


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration: model constants plus pipeline options."""

    lam: float = 1.0
    alpha0: float = 1.0
    alpha1: float = 1.0
    beta: float | None = None     # default: f0/2, resolved at run time
    a: float = 1.0
    m: float = 1.0
    dim: int = 2
    k: int = 16
    R: float | None = None        # default: mid-window radius for k
    L: float | None = None        # grid half-width override
    h: float | None = None        # grid spacing override
    tol: float = 1e-8
    tol_R: float = 2e-4
    max_iter: int = 50
    n_coarse: int = 9
    n_samples: int = 1000
    ks: str = "12,16,24"
    etas: str = "0.5,1,2"
    out: str = "out"
    seed: int = 0


_FLOAT_KEYS = {"lam", "alpha0", "alpha1", "beta", "a", "m", "R", "L", "h",
               "tol", "tol_R"}
_INT_KEYS = {"dim", "k", "max_iter", "n_coarse", "n_samples", "seed"}
_STR_KEYS = {"ks", "etas", "out"}


def _parse_list(text: str, cast, label: str) -> list:
    try:
        items = [cast(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"config key {label!r} expects comma-separated "
                         f"{cast.__name__} values, got {text!r}") from None
    if not items:
        raise ValueError(f"config key {label!r} is empty")
    return items


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines (# comments) into a validated config.

    Absent keys take the documented defaults; beta defaults to half the
    measured coupling bound f0 and is resolved when the run builds its
    fields.  A float key must be finite.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, "
                             f"got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in _FLOAT_KEYS:
            cast: type = float
        elif key in _INT_KEYS:
            cast = int
        elif key in _STR_KEYS:
            cast = str
        else:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = cast(val)
        except ValueError:
            raise ValueError(
                f"line {lineno}: key {key!r} expects {cast.__name__}, "
                f"got {val!r}") from None
        if cast is float and not math.isfinite(values[key]):
            raise ValueError(f"line {lineno}: key {key!r} must be finite, "
                             f"got {val!r}")

    config = RunConfig(**values)
    # parameter-level validation through the model record
    _base_params(config)
    for key in ("tol", "tol_R"):
        if getattr(config, key) <= 0:
            raise ValueError(f"{key} must be positive, "
                             f"got {getattr(config, key)}")
    if config.k < 1:
        raise ValueError(f"k must be at least 1, got {config.k}")
    if config.max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {config.max_iter}")
    if config.n_coarse < 9:
        raise ValueError(f"n_coarse must be at least 9, "
                         f"got {config.n_coarse}")
    if config.n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, "
                         f"got {config.n_samples}")
    for key in ("R", "L", "h"):
        value = getattr(config, key)
        if value is not None and value <= 0:
            raise ValueError(f"{key} must be positive, got {value}")
    if config.L is not None:
        steps_per_side(config.L, DEFAULT_H[config.dim] if config.h is None
                       else config.h)
    for k in _parse_list(config.ks, int, "ks"):
        if k < 2:
            raise ValueError(f"ks entries must be at least 2, got {k}")
    for eta in _parse_list(config.etas, float, "etas"):
        if not 0.0 < eta <= 2.0:
            raise ValueError(f"etas entries must lie in (0, 2], got {eta}")
    return config


# ---------------------------------------------------------------------------
# artifact plumbing


def _atomic_write(path: Path, content) -> None:
    """Write content to path through a temporary file and a rename: a str
    as its UTF-8 bytes, a Field as dump_field's header and stored part."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            if isinstance(content, str):
                fh.write(content.encode())
            else:
                dump_field(content, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_cell(x) for x in row) + "\n")
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _config_echo(config: RunConfig) -> dict:
    echo = asdict(config)
    # excluded so artifacts stay bit-identical across output paths
    echo.pop("out")
    return echo


def _base_params(config: RunConfig) -> ModelParams:
    """Model record with a placeholder beta = 0 (fields ignore beta)."""
    return ModelParams(
        lam=config.lam, alpha0=config.alpha0, alpha1=config.alpha1,
        beta=0.0, a=config.a, m=config.m, dim=config.dim)


def _resolve_beta(config: RunConfig, f0: float | None) -> float:
    return 0.5 * f0 if config.beta is None else config.beta


def _radius_for(config: RunConfig, k: int) -> float:
    if config.R is not None:
        return config.R
    return mid_radius(k, config.m)


# ---------------------------------------------------------------------------
# subcommands, each returning (summary_extras, checks)


def _run_ground_state(config: RunConfig, out: Path):
    checks = []
    rows = []
    summary: dict = {"dim": config.dim}
    species = (("u0", config.lam, config.alpha0),
               ("v0", 1.0, config.alpha1))
    for label, c, alpha in species:
        prof = ground_state(c, alpha, config.dim)
        fine = ground_state(c, alpha, config.dim,
                            n_nodes=2 * len(prof.r) - 1)
        _atomic_write(out / f"{label}_profile.csv", dump_profile_csv(prof))
        for tag, p in ((label, prof), (f"{label}_fine", fine)):
            rows.append((tag, len(p.r), float(p.peak), float(p.moment2),
                         float(p.moment4), float(p.max_residual)))
        rel = abs(prof.moment2 - fine.moment2) / abs(fine.moment2)
        checks.append((f"{label}_ode_residual",
                       prof.max_residual < 1e-8 * prof.peak,
                       f"max residual {prof.max_residual:.3e}, "
                       f"peak {prof.peak:.6f}"))
        checks.append((f"{label}_moment2_refinement", rel < 1e-3,
                       f"relative change under step halving {rel:.3e}"))
        summary[f"peak_{label}"] = float(prof.peak)
        summary[f"moment2_{label}"] = float(prof.moment2)
        summary[f"moment4_{label}"] = float(prof.moment4)
        summary[f"moment2_refinement_{label}"] = float(rel)
    _atomic_write(out / "moments.csv", _csv_text(
        ("species", "n_nodes", "peak", "moment2", "moment4",
         "max_residual"), rows))
    return summary, checks


def _run_bounds(config: RunConfig, out: Path):
    u0 = ground_state(config.lam, config.alpha0, config.dim)
    v0 = ground_state(1.0, config.alpha1, config.dim)
    rng = np.random.default_rng(config.seed)
    ks = _parse_list(config.ks, int, "ks")
    etas = _parse_list(config.etas, float, "etas")

    rows = []
    worst = 0.0
    all_pass = True
    for k in ks:
        R = mid_radius(k, config.m)
        cfg_k = bump_centers(k, R, config.dim)
        pts = draw_sector_samples(cfg_k, config.n_samples, rng)
        for eta in etas:
            rep = check_ksum_bound(v0, cfg_k, eta, pts)
            rows.append((k, float(R), float(eta), rep.n_samples,
                         float(rep.max_ratio_tail),
                         float(rep.max_ratio_all), rep.passed))
            worst = max(worst, rep.max_ratio_tail, rep.max_ratio_all)
            all_pass = all_pass and rep.passed
    _atomic_write(out / "ksum.csv", _csv_text(
        ("k", "R", "eta", "n_samples", "max_ratio_tail", "max_ratio_all",
         "passed"), rows))

    # cross-term decay: quad(U0^2 W^2) against R for an 8-bump ring, on
    # the part of the box its class folds
    radii = (2.5, 3.5, 4.5)
    cross_rows = []
    for R in radii:
        g = grid_for_radius(R, config.lam, config.dim, 8, h=config.h)
        U = radial_field(g, u0)
        W = bump_sum_field(g, v0, bump_centers(8, R, config.dim))
        cross_rows.append((float(R), float(quad_product(U, U, W, W))))
    gamma = float(-0.5 * np.polyfit(
        [r for r, _ in cross_rows],
        np.log([v for _, v in cross_rows]), 1)[0])
    _atomic_write(out / "crossprod.csv",
                  _csv_text(("R", "quad_U0sq_Wsq"), cross_rows))

    checks = [
        ("ksum_envelopes", all_pass,
         f"max envelope ratio {worst:.6f} over {len(rows)} reports"),
        ("crossprod_decay", gamma > 0.0,
         f"fitted decay rate {gamma:.4f} over R in {radii}"),
    ]
    summary = {"ksum_max_ratio": worst, "ksum_reports": len(rows),
               "crossprod_gamma": gamma}
    return summary, checks


def _run_expansion(config: RunConfig, out: Path):
    """Ansatz energy against the three-constant model for each k in ks.

    Per k it builds the grid and the ring, and samples U0 (radial_field)
    and W (bump_sum_field, one pass over the H+-orbits of bumps) on the
    part of the box folded on mirror_axes(k), where expansion_compare
    evaluates the energy; the overlap sum is taken off the grid.  When
    beta is unset, f0 is read from the same fields (the suprema on the
    part are those of the box); none of the other corrector inputs are
    assembled.
    """
    params0 = _base_params(config)
    u0 = ground_state(config.lam, config.alpha0, config.dim)
    v0 = ground_state(1.0, config.alpha1, config.dim)
    ks = _parse_list(config.ks, int, "ks")

    rows = []
    rhos = []
    j_exacts = []
    for k in ks:
        R = _radius_for(config, k)
        g = grid_for_radius(R, config.lam, config.dim, k, h=config.h,
                            L=config.L)
        ring = bump_centers(k, R, config.dim)
        U0f = radial_field(g, u0)
        W = bump_sum_field(g, v0, ring)
        f0 = (coupling_bound(U0f.data, W.data)
              if config.beta is None else None)
        beta = _resolve_beta(config, f0)
        rep = expansion_compare(u0, v0, ring, replace(params0, beta=beta),
                                U0f, W)
        # this k's fields go before the next k assembles its own
        del U0f, W
        rows.append((k, float(rep.R), float(beta), float(rep.direct),
                     float(rep.model), float(rep.rho), float(rep.A0),
                     float(rep.A1), float(rep.A2),
                     float(rep.interaction_sum), float(rep.J_surrogate),
                     float(rep.J_exact)))
        rhos.append(float(rep.rho))
        j_exacts.append(float(rep.J_exact))
    _atomic_write(out / "expansion.csv", _csv_text(
        ("k", "R", "beta", "direct", "model", "rho", "A0", "A1", "A2",
         "interaction_sum", "J_surrogate", "J_exact"), rows))

    decreasing = all(b < a for a, b in zip(rhos, rhos[1:]))
    checks = [("rho_decreasing", decreasing or len(rhos) < 2,
               f"per-bump remainders {rhos}")]
    summary = {"ks": ks, "rhos": rhos, "J_exacts": j_exacts}
    return summary, checks


def _run_corrector(config: RunConfig, out: Path):
    params0 = _base_params(config)
    k = config.k
    R = _radius_for(config, k)
    inputs = build_inputs(k, R, params0, h=config.h, L=config.L)
    beta = _resolve_beta(config, inputs.f0)
    params = replace(params0, beta=beta)
    res = fixed_point_iterate(inputs, params, tol=config.tol,
                              max_iter=config.max_iter)
    _atomic_write(out / "u.field", res.u)
    _atomic_write(out / "v.field", res.v)
    _atomic_write(out / "steps.csv", _csv_text(
        ("iteration", "step"),
        [(i + 1, float(s)) for i, s in enumerate(res.steps)]))

    vnorm = math.sqrt(quad_product(res.v, res.v))
    znorm = math.sqrt(quad_product(inputs.Z, inputs.Z))
    zrel = (abs(quad_product(inputs.Z, res.v)) / (znorm * vnorm)
            if vnorm > 0 else 0.0)
    # a contraction factor is a ratio of successive steps, so one step
    # measures none (corrector_converged judges such runs)
    contraction = (
        f"measured contraction factor {res.contraction_factor:.4f}"
        if len(res.steps) >= 2
        else f"not evaluated: {len(res.steps)} Picard step")
    checks = [
        ("corrector_converged", res.converged,
         f"{res.iterations} iterations, final step {res.steps[-1]:.3e}"),
        ("contraction_below_one", res.contraction_factor < 1.0, contraction),
        ("radius_mode_orthogonality", zrel <= 1e-10,
         # a rounding-level overlap is not printed digit by digit, so
         # the detail does not change with the last bits of v
         "relative Z overlap < 1e-14" if zrel <= 1e-14
         else f"relative Z overlap {zrel:.3e}"),
    ]
    summary = dict(res.as_dict())
    summary.update({"k": k, "R": float(R), "beta": float(beta),
                    "f0": float(inputs.f0)})
    return summary, checks


def _maximize(config: RunConfig, out: Path):
    """Resolve beta, maximize F over S_k and write the scan CSVs.

    f0 is the one build_inputs reports at the mid-window radius, the
    route the corrector subcommand takes.  F(R) builds the corrector
    inputs at R on the grid set by h and L and runs reduced_energy with
    tol and max_iter; the search calls it once per distinct radius, and
    each ReducedEnergySample it returns is kept for scan_terms.csv, one
    row per scan.csv row.
    """
    params0 = _base_params(config)
    k = config.k
    f0 = build_inputs(k, mid_radius(k, config.m), params0, h=config.h,
                      L=config.L).f0
    beta = _resolve_beta(config, f0)
    params = replace(params0, beta=beta)
    records = []

    def F(R: float) -> float:
        inputs = build_inputs(k, R, params, h=config.h, L=config.L)
        records.append(reduced_energy(inputs, params, tol=config.tol,
                                      max_iter=config.max_iter))
        return records[-1].F

    R0, report = maximize_over_Sk(F, k, config.m, n_coarse=config.n_coarse,
                                  tol_R=config.tol_R)
    _atomic_write(out / "scan.csv", _csv_text(
        ("R", "F"), [(float(r), float(f)) for r, f in report.samples]))
    _atomic_write(out / "scan_terms.csv", _csv_text(
        ("R", "F", "main", "l", "q", "h", "iterations",
         "contraction_factor"),
        [(float(s.R), float(s.F), float(s.breakdown.main),
          float(s.breakdown.l_val), float(s.breakdown.q_val),
          float(s.breakdown.h_val), s.corrector["iterations"],
          float(s.corrector["contraction_factor"])) for s in records]))
    return params, beta, f0, R0, report


def _run_reduce(config: RunConfig, out: Path):
    params, beta, f0, R0, report = _maximize(config, out)
    lo, hi = bump_radius_interval(config.k, config.m)
    checks = [("interior_maximizer", report.interior,
               f"R0 = {R0!r} in window [{lo!r}, {hi!r}]")]
    summary = {"k": config.k, "beta": float(beta), "f0": float(f0),
               "R0": float(R0),
               "F_R0": float(max(f for _, f in report.samples)),
               "interior": report.interior,
               "evaluations": report.evaluations}
    return summary, checks


def _run_solve(config: RunConfig, out: Path):
    params, beta, f0, R0, report = _maximize(config, out)
    inputs = build_inputs(config.k, R0, params, h=config.h, L=config.L)
    sol = assemble_solution(inputs, params, tol=config.tol,
                            max_iter=config.max_iter)
    _atomic_write(out / "U.field", sol.U)
    _atomic_write(out / "V.field", sol.V)
    res_U, res_V = sol.residuals
    h_eff = inputs.g.h
    budget = 50.0 * h_eff * h_eff
    checks = [
        ("interior_maximizer", report.interior, f"R0 = {R0!r}"),
        ("residual_budget", max(res_U, res_V) < budget,
         f"residuals ({res_U:.3e}, {res_V:.3e}) vs budget {budget:.3e} "
         f"at h = {h_eff:g}"),
    ]
    summary = {"k": config.k, "beta": float(beta), "f0": float(f0),
               "F_R0": float(max(f for _, f in report.samples)),
               "interior": report.interior,
               "evaluations": report.evaluations}
    summary.update(sol.as_dict())
    return summary, checks


# subcommand: (pipeline, what it writes besides summary/failure.json)
_HANDLERS = {
    "ground-state": (_run_ground_state,
                     ("u0_profile.csv", "v0_profile.csv", "moments.csv")),
    "bounds": (_run_bounds, ("ksum.csv", "crossprod.csv")),
    "expansion": (_run_expansion, ("expansion.csv",)),
    "corrector": (_run_corrector, ("u.field", "v.field", "steps.csv")),
    "reduce": (_run_reduce, ("scan.csv", "scan_terms.csv")),
    "solve": (_run_solve,
              ("scan.csv", "scan_terms.csv", "U.field", "V.field")),
}
SUBCOMMANDS = tuple(_HANDLERS)


def _failure_name(exc: Exception) -> str:
    if isinstance(exc, (CorrectorDivergence, LinearSolveStalled)):
        return "corrector_convergence"
    if isinstance(exc, (RuntimeError, ArithmeticError)):
        return "pipeline_error"
    return "parameter_bounds"


def run(subcommand: str, config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    if subcommand not in _HANDLERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    handler, artifacts = _HANDLERS[subcommand]
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        # each warning once per message and code location, whatever
        # filters the caller set, so the list is the same on every run
        warnings.simplefilter("default")
        try:
            summary, checks = handler(config, out)
        except (RuntimeError, ValueError, ArithmeticError) as exc:
            error = exc
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    warned = [f"{w.category.__name__}: {w.message}" for w in caught]

    if error is not None:
        record = {"subcommand": subcommand,
                  "invariant": _failure_name(error),
                  "detail": str(error), "warnings": warned}
        if isinstance(error, CorrectorDivergence):
            record.update(steps=error.steps, krylov_iters=error.krylov_iters)
        _atomic_write(out / "failure.json", _json_text(record))
        for name in ("summary.json",) + artifacts:
            (out / name).unlink(missing_ok=True)
        print(f"{subcommand}: FAIL ({record['invariant']}): {error}",
              file=sys.stderr)
        return 1

    payload = {"subcommand": subcommand, "config": _config_echo(config)}
    payload.update(summary)
    payload["checks"] = [
        {"invariant": name, "passed": passed, "detail": detail}
        for name, passed, detail in checks]
    payload["warnings"] = warned
    _atomic_write(out / "summary.json", _json_text(payload))

    failed = [(name, detail) for name, passed, detail in checks
              if not passed]
    if failed:
        name, detail = failed[0]
        _atomic_write(out / "failure.json", _json_text(
            {"subcommand": subcommand, "invariant": name,
             "detail": detail, "warnings": warned}))
        print(f"{subcommand}: FAIL ({name}): {detail}", file=sys.stderr)
        return 1
    (out / "failure.json").unlink(missing_ok=True)
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ringnls",
        description="ring-of-bumps pipelines for the coupled cubic system")
    p.add_argument("subcommand", choices=SUBCOMMANDS)
    p.add_argument("--config", metavar="PATH",
                   help="key = value config file (defaults when omitted)")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--seed", type=int, metavar="S",
                   help="seed for sample-based checks")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = Path(args.config).read_text() if args.config else ""
        config = parse_config(text)
        overrides = {}
        if args.out is not None:
            overrides["out"] = args.out
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            config = replace(config, **overrides)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(args.subcommand, config)


if __name__ == "__main__":
    sys.exit(main())
