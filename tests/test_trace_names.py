"""The benchmark tracer wraps ringnls functions by (module, attribute)
name; every name it lists must resolve, so a rename fails here rather
than in a traced benchmark run, and the wrapped MINRES must be the one
the solves call, so its Krylov count cannot silently read 0."""
from __future__ import annotations

import importlib
import importlib.util
import warnings
from pathlib import Path

import ringnls.corrector as corrector
from ringnls.cli import RunConfig, run
from ringnls.grid import zeros
from ringnls.model import ModelParams

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    spans = _load_spans()
    missing = [(module, attr) for module, attr, _name
               in spans.SPANS + spans.COUNTS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_tracer_sees_every_krylov_iteration():
    # one bordered L1 solve on the folded inputs the Picard loop runs
    # on, with the tracer installed: its MINRES wrapper counts exactly
    # the iterations the solve's own callback does
    spans = _load_spans()
    params = ModelParams(beta=0.05)
    inputs = corrector.build_inputs(2, 6.0, params, h=0.5, L=12.0)
    U0f, W, cubes, mu, Z = (inputs.U0f, inputs.W, inputs.cubes, inputs.mu,
                            inputs.Z)
    zero = zeros(inputs.g)
    rhs = corrector.g1_rhs(zero, zero, U0f, W, cubes, mu, params)
    count = corrector._KrylovCount()
    tracer = spans.Tracer()
    tracer.install()
    try:
        corrector.solve_L1_constrained(rhs, W, mu, Z, params, 1e-9, k=2,
                                       callback=count)
    finally:
        tracer.uninstall()
    passes = [s for s in tracer.spans if s[0] == "corrector.minres"]
    assert count.n > 0
    assert tracer.counts[spans.KRYLOV] == count.n
    assert len(passes) == 1


def test_tracer_records_energy_and_assembly_of_expansion(tmp_path):
    # a tiny expansion run with the tracer installed: the energy of the
    # ansatz and the assembly of its fields must still show as spans
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            status = run("expansion", RunConfig(ks="6", h=0.5,
                                                out=str(tmp_path)))
    finally:
        tracer.uninstall()
    assert status == 0
    names = {s[0] for s in tracer.spans}
    assert {"energy.expansion_compare", "energy.energy",
            "geometry.assembly"} <= names
