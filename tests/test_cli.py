"""Config parsing, subcommand artifact contracts, and determinism."""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ringnls.cli as cli
from ringnls.cli import RunConfig, _failure_name, main, parse_config, run
from ringnls.corrector import CorrectorDivergence, LinearSolveStalled
from ringnls.grid import load_field
from ringnls.radial import load_profile_csv


# ---------------------------------------------------------------------------
# parse_config


def test_parse_config_empty_gives_defaults():
    assert parse_config("") == RunConfig()


def test_parse_config_merge_and_comments():
    config = parse_config(
        "# full-line comment\n"
        "k = 24\n"
        "beta = 0.05   # trailing comment\n"
        "\n"
        "etas = 0.5,1\n"
    )
    assert config.k == 24
    assert config.beta == 0.05
    assert config.etas == "0.5,1"
    # untouched keys keep their defaults
    assert config.m == RunConfig().m
    assert config.seed == 0


def test_parse_config_duplicate_key_last_wins():
    assert parse_config("k = 3\nk = 5").k == 5


def test_parse_config_rejects_shallow_potential_decay():
    with pytest.raises(ValueError, match=r"m must exceed 1/2"):
        parse_config("m = 0.4")


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key 'bogus'"):
        parse_config("bogus = 3")


def test_parse_config_rejects_type_mismatch():
    with pytest.raises(ValueError, match="'k' expects int"):
        parse_config("k = 2.5")


def test_parse_config_rejects_bad_list():
    with pytest.raises(ValueError, match="'ks'"):
        parse_config("ks = 6,oops")


@pytest.mark.parametrize("line", [
    # the one potential is the inverse-sqrt mu, so neither a flat one nor
    # a tail exponent other than its theta = 2 is a config choice
    "potential = constant", "theta = 2.3",
])
def test_parse_config_rejects_removed_keys(line):
    key = line.partition("=")[0].strip()
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        parse_config(line)


@pytest.mark.parametrize("line", [
    "tol = 0", "n_samples = 0", "h = -0.25", "a = -1",
    "R = -1", "R = 0", "L = -4", "L = 0", "ks = 0,6", "ks = 1", "etas = 3",
    "etas = 0", "etas = 0.5,-1", "dim = 1",
    # L off the spacing: h, or the dimension's default spacing when unset
    "L = 16.1", "h = 0.25\nL = 16.125", "dim = 3\nL = 16.125",
])
def test_parse_config_rejects_nonpositive(line):
    with pytest.raises(ValueError):
        parse_config(line)


@pytest.mark.parametrize("line", [
    "beta = nan", "tol = nan", "a = nan", "R = inf", "lam = inf",
])
def test_parse_config_rejects_nonfinite(line):
    with pytest.raises(ValueError, match="finite"):
        parse_config(line)


def test_parse_config_rejects_sparse_scan(tmp_path, capsys):
    with pytest.raises(ValueError, match="n_coarse"):
        parse_config("n_coarse = 8")
    cfg = tmp_path / "sparse.cfg"
    cfg.write_text("n_coarse = 5\n")
    out = tmp_path / "red"
    assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_main_returns_2_on_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("m = 0.4\n")
    assert main(["ground-state", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_returns_2_on_missing_config(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["ground-state", "--config", str(missing)]) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ground-state artifacts


def test_ground_state_artifacts(tmp_path):
    out = tmp_path / "gs"
    assert main(["ground-state", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert all(c["passed"] for c in summary["checks"])
    assert not (out / "failure.json").exists()

    prof = load_profile_csv((out / "u0_profile.csv").read_text())
    assert prof.values[0] == pytest.approx(summary["peak_u0"], rel=1e-12)
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[0].startswith("species,")
    assert len(lines) == 5  # header + (base, fine) per species


# ---------------------------------------------------------------------------
# determinism (identical config + seed => bit-identical artifacts)


def test_bounds_rerun_bit_identical(tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("n_samples = 40\nks = 6\netas = 1,2\nseed = 7\n")
    outs = []
    for tag in ("run1", "run2"):
        out = tmp_path / tag
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("summary.json", "ksum.csv", "crossprod.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    summary = json.loads((outs[0] / "summary.json").read_text())
    # host-dependent knobs stay out of the artifacts
    assert "out" not in summary["config"]
    assert "threads" not in summary["config"]
    assert summary["config"]["seed"] == 7


@pytest.mark.parametrize("dim", [2, 3])
def test_expansion_bit_identical_across_blas_threads(tmp_path, dim):
    # the quadratures and the pair rule (its own angular rule in 3-D) sum
    # without BLAS, so the expansion artifacts are the same bytes
    # whatever thread count the BLAS library is given
    cfg = tmp_path / "e.cfg"
    cfg.write_text(f"ks = 6\nh = 0.5\ndim = {dim}\n")
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(_child_env(), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ringnls.cli", "expansion",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        blobs.append(tuple((out / name).read_bytes()
                           for name in ("summary.json", "expansion.csv")))
    assert blobs[0] == blobs[1]


def test_bounds_crossterm_on_part_matches_full_box(tmp_path):
    # the cross-term quad(U0^2 W^2) runs on the part of the box the
    # 8-bump ring's class folds; the full-box quadrature of the unfolded
    # fields gives it to 1e-15 relative
    from ringnls.geometry import bump_centers, bump_sum_field, radial_field
    from ringnls.grid import grid_for_radius, quad_product
    from ringnls.radial import ground_state
    from symmetry_oracles import unfold

    cfg = tmp_path / "b.cfg"
    cfg.write_text("n_samples = 40\nks = 6\netas = 1\n")
    out = tmp_path / "bounds"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "crossprod.csv").read_text().splitlines()[1:]]
    u0 = ground_state(1.0, 1.0, 2)
    v0 = ground_state(1.0, 1.0, 2)
    assert [float(R) for R, _ in rows] == [2.5, 3.5, 4.5]
    for R, value in rows:
        part = grid_for_radius(float(R), 1.0, 2, 8)
        U = unfold(radial_field(part, u0))
        W = unfold(bump_sum_field(part, v0, bump_centers(8, float(R), 2)))
        full = quad_product(U, U, W, W)
        assert abs(float(value) - full) <= 1e-15 * full


# ---------------------------------------------------------------------------
# failure records


@pytest.mark.parametrize("exc,name", [
    (CorrectorDivergence("x"), "corrector_convergence"),
    (LinearSolveStalled("x"), "corrector_convergence"),
    (RuntimeError("fixed point diverging: solve stalled"), "pipeline_error"),
    (ValueError("x"), "parameter_bounds"),
])
def test_failure_name_by_type(exc, name):
    assert _failure_name(exc) == name


def test_corrector_failure_record_and_cleanup(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "big.cfg"
    cfg.write_text("k = 2\nR = 12\nbeta = 10\n")
    assert main(["corrector", "--config", str(cfg),
                 "--out", str(out)]) == 1
    record = json.loads((out / "failure.json").read_text())
    assert record["invariant"] == "parameter_bounds"
    assert "f0" in record["detail"]
    assert record["subcommand"] == "corrector"

    # a later success in the same directory clears the stale record
    assert main(["ground-state", "--out", str(out)]) == 0
    assert not (out / "failure.json").exists()
    assert (out / "summary.json").exists()


def test_failed_run_removes_stale_summary(tmp_path):
    # a run that fails by an exception leaves no earlier run's summary
    # beside its own failure record
    out = tmp_path / "run"
    assert main(["ground-state", "--out", str(out)]) == 0
    cfg = tmp_path / "big.cfg"
    cfg.write_text("k = 2\nR = 12\nh = 0.5\nbeta = 10\n")
    assert main(["corrector", "--config", str(cfg),
                 "--out", str(out)]) == 1
    assert (out / "failure.json").exists()
    assert not (out / "summary.json").exists()


def test_failed_run_removes_stale_fields(tmp_path):
    # a diverging corrector run leaves no earlier corrector run's fields
    # or steps beside its failure record
    out = tmp_path / "run"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("k = 2\nR = 12\nbeta = 0.05\nh = 0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["corrector", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "steps.csv", "summary.json", "u.field", "v.field"]
        cfg.write_text("k = 16\nh = 0.5\n")
        assert main(["corrector", "--config", str(cfg),
                     "--out", str(out)]) == 1
    assert json.loads((out / "failure.json").read_text())["invariant"] \
        == "corrector_convergence"
    assert [p.name for p in out.iterdir()] == ["failure.json"]


def test_arithmetic_fault_writes_failure_record(tmp_path, monkeypatch):
    # an ArithmeticError raised inside a subcommand's pipeline is a
    # pipeline_error with its failure record, not a traceback
    def divide_by_zero(*_args, **_kwargs):
        return 1.0 / 0.0

    monkeypatch.setattr(cli, "expansion_compare", divide_by_zero)
    out = tmp_path / "run"
    out.mkdir()
    (out / "summary.json").write_text("{}\n")
    cfg = tmp_path / "e.cfg"
    cfg.write_text("ks = 6\nh = 0.5\n")
    assert main(["expansion", "--config", str(cfg),
                 "--out", str(out)]) == 1
    record = json.loads((out / "failure.json").read_text())
    assert record["invariant"] == "pipeline_error"
    assert record["subcommand"] == "expansion"
    assert not (out / "summary.json").exists()


# ---------------------------------------------------------------------------
# corrector pipeline end to end


def test_corrector_run_artifacts(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("k = 2\nR = 12\nbeta = 0.05\n")
    out = tmp_path / "corr"
    with pytest.warns(UserWarning):
        rc = main(["corrector", "--config", str(cfg), "--out", str(out)])
    assert rc == 0

    summary = json.loads((out / "summary.json").read_text())
    assert all(c["passed"] for c in summary["checks"])
    assert summary["converged"] is True
    assert summary["norm_E"] == pytest.approx(0.324377, abs=1e-2)
    assert summary["beta"] == 0.05
    assert 0.0 < summary["beta"] < summary["f0"]

    u = load_field((out / "u.field").read_bytes())
    v = load_field((out / "v.field").read_bytes())
    assert u.data.shape == v.data.shape
    assert float(np.max(np.abs(v.data))) > float(np.max(np.abs(u.data)))

    rows = (out / "steps.csv").read_text().splitlines()
    assert rows[0] == "iteration,step"
    steps = [float(r.split(",")[1]) for r in rows[1:]]
    assert steps == summary["steps"]
    assert all(b < a for a, b in zip(steps, steps[1:]))

    # MINRES iterations per Picard step, as [L0, L1]
    krylov = summary["krylov_iters"]
    assert len(krylov) == summary["iterations"]
    assert all(len(pair) == 2 and min(pair) >= 1 for pair in krylov)


def test_contraction_not_evaluated_after_one_step(tmp_path):
    # one Picard step has no step ratio: the check says so instead of
    # reporting a measured factor of 0, and the run still fails on
    # corrector_converged
    cfg = tmp_path / "c.cfg"
    cfg.write_text("k = 1\nR = 8\nL = 16\nh = 0.5\nmax_iter = 1\n")
    out = tmp_path / "one"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["corrector", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["steps"]) == 1
    assert summary["contraction_factor"] == 0.0
    checks = {c["invariant"]: c for c in summary["checks"]}
    assert checks["contraction_below_one"] == {
        "invariant": "contraction_below_one", "passed": True,
        "detail": "not evaluated: 1 Picard step"}
    assert not checks["corrector_converged"]["passed"]
    failure = json.loads((out / "failure.json").read_text())
    assert failure["invariant"] == "corrector_converged"


def test_rounding_level_z_overlap_same_bytes(tmp_path, monkeypatch):
    # overlaps of v with Z at rounding level print as one bound, so
    # summary.json does not change with the last bits of v; above it the
    # measured value is printed
    real = cli.quad_product
    cfg = tmp_path / "c.cfg"
    cfg.write_text("k = 1\nR = 8\nL = 16\nh = 0.5\nmax_iter = 1\n")
    blobs = {}
    for zrel in (1.7e-17, 3.3e-17, 2.5e-13):
        def reported(a, b, *rest, zrel=zrel):
            # quad(Z, v) is the one call on two different fields
            if rest or a is b:
                return real(a, b, *rest)
            return zrel * math.sqrt(real(a, a) * real(b, b))

        monkeypatch.setattr(cli, "quad_product", reported)
        out = tmp_path / f"{zrel:g}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            main(["corrector", "--config", str(cfg), "--out", str(out)])
        blobs[zrel] = (out / "summary.json").read_bytes()
    assert blobs[1.7e-17] == blobs[3.3e-17]
    details = {zrel: {c["invariant"]: c for c in json.loads(blob)["checks"]}
               ["radius_mode_orthogonality"]["detail"]
               for zrel, blob in blobs.items()}
    assert details[1.7e-17] == "relative Z overlap < 1e-14"
    assert details[2.5e-13] == "relative Z overlap 2.500e-13"


def _assert_corrector_rerun_bit_identical(tmp_path, config_text):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text)
    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        with pytest.warns(UserWarning):
            rc = main(["corrector", "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 0
        blobs.append(tuple((out / name).read_bytes()
                           for name in ("summary.json", "u.field",
                                        "v.field", "steps.csv")))
    assert blobs[0] == blobs[1]


def test_corrector_rerun_bit_identical(tmp_path):
    _assert_corrector_rerun_bit_identical(
        tmp_path, "k = 2\nR = 12\nbeta = 0.05\nh = 0.5\nmax_iter = 30\n")


def test_corrector_rerun_bit_identical_interpolating_fold(tmp_path):
    # k = 3 symmetrizes through the spline interpolant (k = 2 never does)
    _assert_corrector_rerun_bit_identical(
        tmp_path, "k = 3\nR = 11\nbeta = 0\nh = 0.5\nmax_iter = 30\n")


def test_corrector_divergence_record_keeps_solver_data(tmp_path):
    # the k = 16 mid-window ring diverges; its failure.json carries the
    # Picard steps and their [L0, L1] Krylov iterations next to the
    # message, and a rerun writes the same bytes
    cfg = tmp_path / "k16.cfg"
    cfg.write_text("k = 16\nh = 0.5\n")
    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["corrector", "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 1
        blobs.append((out / "failure.json").read_bytes())
    assert blobs[0] == blobs[1]

    record = json.loads(blobs[0])
    assert record["invariant"] == "corrector_convergence"
    steps = record["steps"]
    assert len(steps) >= 3
    assert f"steps {steps}" in record["detail"]
    krylov = record["krylov_iters"]
    assert len(krylov) == len(steps)
    assert all(len(pair) == 2 and min(pair) >= 1 for pair in krylov)


@pytest.mark.parametrize("subcommand", ["reduce", "solve"])
def test_max_iter_reaches_corrector(tmp_path, monkeypatch, subcommand):
    from ringnls import cli, reduction

    seen = []

    def fake_fixed_point(*args, **kwargs):
        seen.append(kwargs.get("max_iter"))
        raise RuntimeError("stub corrector")

    monkeypatch.setattr(reduction, "fixed_point_iterate", fake_fixed_point)
    if subcommand == "solve":
        # skip the scan so the call reaches assemble_solution
        monkeypatch.setattr(cli, "maximize_over_Sk",
                            lambda F, k, m, **kw:
                            (3.0, reduction.ScanReport()))
    config = RunConfig(k=2, h=0.5, beta=0.01, max_iter=3,
                       out=str(tmp_path / subcommand))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(subcommand, config) == 1
    assert seen == [3]


def test_solve_writes_full_box_fields(tmp_path, monkeypatch):
    # the assembled pair lies on the folded part; U.field and V.field
    # hold that part bit for bit, and their header its fold, which
    # stands for the whole box
    from ringnls import cli, reduction
    from ringnls.grid import mirror_axes

    solutions = []

    def kept(*args, **kwargs):
        solutions.append(reduction.assemble_solution(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(cli, "assemble_solution", kept)
    monkeypatch.setattr(cli, "maximize_over_Sk", lambda F, k, m, **kw:
                        (3.0, reduction.ScanReport(samples=[(3.0, 0.0)])))
    out = tmp_path / "solve"
    config = RunConfig(k=2, h=0.5, beta=0.01, out=str(out))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # the stubbed scan has no interior maximizer
        assert run("solve", config) == 1
    assert json.loads((out / "failure.json").read_text())["invariant"] \
        == "interior_maximizer"
    (sol,) = solutions
    assert sol.U.grid.mirrored == mirror_axes(2, 2)
    for name, f in (("U.field", sol.U), ("V.field", sol.V)):
        got = load_field((out / name).read_bytes())
        assert got.grid == f.grid
        assert np.array_equal(got.data.view(np.uint64),
                              f.data.view(np.uint64))


def test_reduce_scan_artifacts_one_row_per_radius(tmp_path, monkeypatch):
    # a cheap quadratic F with an interior maximum stands in for the
    # corrector inputs and the reduced energy; the golden search asks for
    # its bracket nodes again, but F runs once per radius
    from types import SimpleNamespace

    from ringnls import cli
    from ringnls.model import bump_radius_interval
    from ringnls.reduction import ReducedEnergySample

    lo, hi = bump_radius_interval(2, 1.0)
    peak = lo + 0.43 * (hi - lo)

    def fake_reduced_energy(inputs, params, **kwargs):
        R = inputs.R
        F = -(R - peak) ** 2
        return ReducedEnergySample(
            R=R, F=F, breakdown=SimpleNamespace(main=F, l_val=0.0,
                                                q_val=0.0, h_val=0.0),
            corrector={"iterations": 1, "contraction_factor": 0.0})

    monkeypatch.setattr(cli, "build_inputs", lambda k, R, params, **kw:
                        SimpleNamespace(R=R, f0=0.1))
    monkeypatch.setattr(cli, "reduced_energy", fake_reduced_energy)
    out = tmp_path / "red"
    config = RunConfig(k=2, h=0.5, beta=0.01, out=str(out))
    assert run("reduce", config) == 0

    def rows(name):
        lines = (out / name).read_text().splitlines()
        return [line.split(",") for line in lines[1:]]

    scan = rows("scan.csv")
    radii = [r for r, _ in scan]
    assert len(set(radii)) == len(radii) > 9
    assert [row[:2] for row in rows("scan_terms.csv")] == scan
    summary = json.loads((out / "summary.json").read_text())
    assert summary["evaluations"] == len(scan)
    assert summary["interior"]


def _forbid_build_inputs(monkeypatch):
    from ringnls import cli

    def refuse(*args, **kwargs):
        raise AssertionError("build_inputs called")

    monkeypatch.setattr(cli, "build_inputs", refuse)


def test_reduce_resolves_beta_from_mid_window_inputs(tmp_path,
                                                     monkeypatch):
    # beta = f0/2 with f0 read from the corrector inputs at the
    # mid-window radius, the route the corrector subcommand takes; the
    # scan's inputs then carry that beta
    from ringnls import cli
    from ringnls.corrector import build_inputs
    from ringnls.model import bump_radius_interval, mid_radius

    calls = []

    def recorded(k, R, params, **kwargs):
        inputs = build_inputs(k, R, params, **kwargs)
        calls.append((R, params.beta, inputs.f0))
        return inputs

    def stub_reduced_energy(inputs, params, **kwargs):
        raise RuntimeError("stub reduced energy")

    monkeypatch.setattr(cli, "build_inputs", recorded)
    monkeypatch.setattr(cli, "reduced_energy", stub_reduced_energy)
    config = RunConfig(k=2, h=0.5, out=str(tmp_path / "red"))
    assert run("reduce", config) == 1
    (R_mid, beta_mid, f0), (R_scan, beta, _) = calls
    assert (R_mid, beta_mid) == (mid_radius(2, 1.0), 0.0)
    assert R_scan == bump_radius_interval(2, 1.0)[0]
    assert beta == 0.5 * f0


def _expansion_rows(out):
    lines = (out / "expansion.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.mark.parametrize("beta_line", ["beta = 0.07\n", ""])
def test_expansion_run_artifacts(tmp_path, monkeypatch, beta_line):
    from ringnls.corrector import build_inputs
    from ringnls.model import ModelParams

    _forbid_build_inputs(monkeypatch)
    cfg = tmp_path / "e.cfg"
    cfg.write_text("ks = 6,8\nh = 0.5\n" + beta_line)
    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["expansion", "--config", str(cfg),
                         "--out", str(out)]) == 0
        blobs.append(tuple((out / name).read_bytes()
                           for name in ("summary.json", "expansion.csv")))
    assert blobs[0] == blobs[1]

    rows = _expansion_rows(tmp_path / "one")
    assert [int(r["k"]) for r in rows] == [6, 8]
    for row in rows:
        beta = float(row["beta"])
        if beta_line:
            assert beta == 0.07
        else:
            f0 = build_inputs(int(row["k"]), float(row["R"]), ModelParams(),
                              h=0.5).f0
            assert beta == 0.5 * f0


def test_expansion_reports_levels_past_exp_underflow(tmp_path):
    # at k = 2, R = 240 both decays e^{-2 pi R / k} and e^{-2R} underflow
    # to zero, yet the levels J they divide out stay finite
    cfg = tmp_path / "e.cfg"
    cfg.write_text("ks = 2\nR = 240\nh = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["expansion", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    (row,) = _expansion_rows(tmp_path / "out")
    assert math.exp(-2.0 * math.pi * float(row["R"]) / 2) == 0.0
    for key in ("J_surrogate", "J_exact"):
        assert math.isfinite(float(row[key])) and float(row[key]) > 0.0


def test_expansion_levels_independent_of_h(tmp_path):
    # the overlap sum is taken off the grid, so the interaction columns
    # are the same floats whatever the grid spacing
    columns = []
    for h in (0.25, 0.125):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(f"ks = 3,6\nh = {h}\nbeta = 0.05\n")
        out = tmp_path / str(h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["expansion", "--config", str(cfg),
                         "--out", str(out)]) == 0
        columns.append([(r["interaction_sum"], r["J_surrogate"], r["J_exact"])
                        for r in _expansion_rows(out)])
    assert columns[0] == columns[1]
    assert len(columns[0]) == 2


def test_expansion_beta_unset_assembles_once(tmp_path, monkeypatch):
    """Resolving beta = f0/2 reuses the fields expansion_compare reads:
    per k, one U0 evaluation and one per H+-orbit of bumps on the folded
    part (6 orbits at k = 6, 5 at k = 8), the same count as with beta
    given, and no profile is evaluated on the full box.  The overlap sum
    adds exactly two evaluations per k, on the pair rule's nodes, none of
    them on a grid."""
    from ringnls import energy, geometry
    from ringnls.grid import grid_for_radius

    calls = []

    def counting(fn):
        def wrapper(profile, r, out=None):
            calls.append(np.size(r))
            return fn(profile, r, out=out)
        return wrapper

    for module in (geometry, energy):
        monkeypatch.setattr(module, "eval_profile",
                            counting(module.eval_profile))
    config = RunConfig()
    parts = [grid_for_radius(cli._radius_for(config, k), config.lam, 2, k,
                             h=0.5) for k in (6, 8)]
    grids = {g.size for g in parts} | {g.with_mirrored(()).size
                                       for g in parts}
    counts = []
    sizes = set()
    for beta_line in ("", "beta = 0.07\n"):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("ks = 6,8\nh = 0.5\n" + beta_line)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["expansion", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
        on_grid = [n for n in calls if n in grids]
        counts.append((len(on_grid), len(calls) - len(on_grid)))
        sizes.update(on_grid)
    assert [len(geometry._ring_orbits(k)) for k in (6, 8)] == [6, 5]
    assert counts == [(13, 4), (13, 4)]
    assert sizes == {g.size for g in parts}


# ---------------------------------------------------------------------------
# console entry point


def _child_env():
    """The environment of a child interpreter that imports the same
    ringnls as this process, however the test run put it on the path."""
    import ringnls

    src = str(Path(ringnls.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_leaves_out_interpolate_optimize_sparse():
    # every subcommand starts by importing ringnls.cli; these three
    # subpackages would add ~20 MB and ~0.2 s to each start, and only a
    # refining reduce scan needs scipy.optimize
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ringnls.cli; "
         "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"scipy.fft", "scipy.linalg", "scipy.ndimage"} <= loaded
    for name in ("scipy.interpolate", "scipy.optimize", "scipy.sparse"):
        assert name not in loaded


# the seed-3 inputs of the benchmark workloads ring2_converge,
# ring16_diverge and expansion_sweep (beta 2/7 % below nominal), with
# the minor page faults of one cli.run each: 19,000-19,500,
# 10,700-11,200 and 12,000-14,700 while the Krylov steps, the profile
# evaluator and the ring pass allocated and freed part-sized temporaries
# (a count that raising glibc's mmap and trim thresholds used to hide),
# 3,300-4,000, 3,500-3,900 and 2,000-2,700 now
_BELOW = 1.0 + 0.02 * (3 - 3.5) / 3.5
_BETA_K16 = 0.5 * 0.14650082444345194
FAULT_RUNS = (
    ("corrector", f"k = 2\nR = 12\nbeta = {0.05 * _BELOW!r}\n", 6000),
    ("corrector", f"k = 16\nbeta = {_BETA_K16 * _BELOW!r}\n", 5000),
    ("expansion", f"ks = 12,16,24\nbeta = {_BETA_K16 * _BELOW!r}\n", 3000),
)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="fault counts are those of glibc's allocator")
def test_workload_page_faults_bounded(tmp_path):
    # each run in a fresh interpreter with the allocator at its defaults,
    # the ground states warmed first; the faults counted are those of
    # cli.run alone
    code = ("import resource, sys\n"
            "from dataclasses import replace\n"
            "import ringnls.cli as cli, ringnls.radial as radial\n"
            "config = replace(cli.parse_config(sys.argv[2]),\n"
            "                 out=sys.argv[3])\n"
            "radial.ground_state(config.lam, config.alpha0, config.dim)\n"
            "radial.ground_state(1.0, config.alpha1, config.dim)\n"
            "start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "cli.run(sys.argv[1], config)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
            " - start)\n")
    faults = []
    for i, (subcommand, text, _bound) in enumerate(FAULT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", code, subcommand, text,
             str(tmp_path / str(i))],
            capture_output=True, text=True, timeout=300, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        faults.append(int(proc.stdout))
    bounds = [bound for _subcommand, _text, bound in FAULT_RUNS]
    assert all(n <= bound for n, bound in zip(faults, bounds)), faults


def test_console_entry_subprocess(tmp_path):
    env = _child_env()
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "ringnls.cli", "ground-state",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()

    bad = subprocess.run(
        [sys.executable, "-m", "ringnls.cli", "ground-state",
         "--config", "/nonexistent.cfg"],
        capture_output=True, text=True, timeout=60, env=env)
    assert bad.returncode == 2
    assert "config error" in bad.stderr


def test_corrector_warnings_recorded(tmp_path):
    # R = 12 lies outside S_2: the window warning is listed in
    # summary.json, still issued, and listed in failure.json as well when
    # a check fails
    cfg = tmp_path / "c.cfg"
    records = {}
    for tag, extra in (("ok", "max_iter = 30\n"), ("short", "max_iter = 1\n")):
        cfg.write_text("k = 2\nR = 12\nbeta = 0.05\nh = 0.5\n" + extra)
        out = tmp_path / tag
        with pytest.warns(UserWarning, match="outside the admissible window"):
            rc = main(["corrector", "--config", str(cfg), "--out", str(out)])
        assert rc == (0 if tag == "ok" else 1)
        records[tag] = json.loads((out / "summary.json").read_text())
    warned = records["ok"]["warnings"]
    assert len(warned) == 1
    assert warned[0].startswith("UserWarning: R = 12 outside the admissible "
                                "window [")
    assert records["short"]["warnings"] == warned
    failure = json.loads((tmp_path / "short" / "failure.json").read_text())
    assert failure["invariant"] == "corrector_converged"
    assert failure["warnings"] == warned


def test_warnings_recorded_on_error(tmp_path, monkeypatch):
    # a run that raises after warning lists the warning in failure.json,
    # whatever filter the caller has set
    def warn_then_diverge(*_args, **_kwargs):
        warnings.warn("integrand carries boundary mass", RuntimeWarning)
        raise CorrectorDivergence("fixed point diverging", steps=[1.0])

    monkeypatch.setattr(cli, "fixed_point_iterate", warn_then_diverge)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("k = 2\nR = 12\nh = 0.5\n")
    out = tmp_path / "err"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["corrector", "--config", str(cfg),
                     "--out", str(out)]) == 1
    failure = json.loads((out / "failure.json").read_text())
    assert failure["invariant"] == "corrector_convergence"
    assert failure["warnings"] == [
        "RuntimeWarning: integrand carries boundary mass"]
