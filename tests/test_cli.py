"""Config parsing, subcommand artifact contracts, and determinism."""

from __future__ import annotations

import json
import math
import os
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


def test_parse_config_rejects_flat_potential():
    # constant mu has no decaying tail, so assumption (A) cannot hold
    with pytest.raises(ValueError, match=r"assumption \(A\)"):
        parse_config("potential = constant")


@pytest.mark.parametrize("line", [
    "tol = 0", "n_samples = 0", "h = -0.25", "a = -1",
])
def test_parse_config_rejects_nonpositive(line):
    with pytest.raises(ValueError):
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


def test_ground_state_line_oracle(tmp_path):
    cfg = tmp_path / "line.cfg"
    cfg.write_text("dim = 1\n")
    out = tmp_path / "gs1"
    assert main(["ground-state", "--config", str(cfg),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_sech_error"] < 1e-6
    rows = (out / "sech_comparison.csv").read_text().splitlines()
    assert rows[0] == "r,profile,sech_reference,abs_error"
    errs = [float(r.split(",")[3]) for r in rows[1:]]
    assert max(errs) == summary["max_sech_error"]


# ---------------------------------------------------------------------------
# determinism (identical config + seed => bit-identical artifacts)


def test_bounds_bit_identical_across_threads(tmp_path):
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

    u = load_field((out / "u.field").read_text())
    v = load_field((out / "v.field").read_text())
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
        monkeypatch.setattr(cli, "maximize_over_Sk", lambda k, params, **kw:
                            (3.0, reduction.ScanReport()))
    config = RunConfig(k=2, h=0.5, beta=0.01, max_iter=3,
                       out=str(tmp_path / subcommand))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(subcommand, config) == 1
    assert seen == [3]


def _forbid_build_inputs(monkeypatch):
    from ringnls import cli

    def refuse(*args, **kwargs):
        raise AssertionError("build_inputs called")

    monkeypatch.setattr(cli, "build_inputs", refuse)


def test_reduce_resolves_beta_without_corrector_inputs(tmp_path,
                                                       monkeypatch):
    from ringnls import cli
    from ringnls.corrector import build_inputs
    from ringnls.model import ModelParams, mid_radius

    seen = []

    def fake_maximize(k, params, **kwargs):
        seen.append(params.beta)
        raise RuntimeError("stub scan")

    _forbid_build_inputs(monkeypatch)
    monkeypatch.setattr(cli, "maximize_over_Sk", fake_maximize)
    config = RunConfig(k=2, h=0.5, out=str(tmp_path / "red"))
    assert run("reduce", config) == 1
    params = ModelParams()
    f0 = build_inputs(2, mid_radius(2, params.m, params.theta), params,
                      h=0.5).budget.f0
    assert seen == [0.5 * f0]


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
                              h=0.5).budget.f0
            assert beta == 0.5 * f0


def test_expansion_beta_unset_assembles_once(tmp_path, monkeypatch):
    """Resolving beta = f0/2 reuses the fields expansion_compare reads:
    per k, one U0 evaluation and one per H+-orbit of bumps on the folded
    part (6 orbits at k = 6, 5 at k = 8), the same count as with beta
    given, and no profile is evaluated on the full box."""
    from ringnls import energy, geometry
    from ringnls.grid import grid_for_radius

    calls = []

    def counting(fn):
        def wrapper(profile, r):
            calls.append(np.size(r))
            return fn(profile, r)
        return wrapper

    for module in (geometry, energy):
        monkeypatch.setattr(module, "eval_profile",
                            counting(module.eval_profile))
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
        counts.append(len(calls))
        sizes.update(calls)
    assert [len(geometry._ring_orbits(k, 2)) for k in (6, 8)] == [6, 5]
    assert counts == [13, 13]
    config = RunConfig()
    parts = {grid_for_radius(cli._radius_for(config, k), config.lam, 2,
                             h=0.5).with_mirrored(geometry.mirror_axes(k, 2))
             .size for k in (6, 8)}
    assert sizes == parts


# ---------------------------------------------------------------------------
# console entry point


def test_console_entry_subprocess(tmp_path):
    # the child imports the same ringnls as this process, however the
    # test run put it on the path
    import ringnls

    src = str(Path(ringnls.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
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
