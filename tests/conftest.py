"""Shared corrector fixtures.

The corrector solves are the expensive part of the suite, so the
configurations every module leans on are built once per session: two
rings in the contraction regime (k = 2 at R = 12 and k = 3 at R = 11),
the single-bump edge case (k = 1 at R = 8), and the default-coupling
attempt at the admissible k = 16 ring radius, which is expected to end
in the divergence error and is captured outcome-and-all.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest

from ringnls.corrector import build_inputs, fixed_point_iterate
from ringnls.model import ModelParams, mid_radius


def _run(k, R, params):
    inputs = build_inputs(k, R, params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = fixed_point_iterate(inputs, params)
    return params, inputs, res


@pytest.fixture(scope="session")
def params_coupled():
    return ModelParams(beta=0.05)


@pytest.fixture(scope="session")
def params_uncoupled():
    return ModelParams(beta=0.0)


@pytest.fixture(scope="session")
def corr_k2(params_coupled):
    """Converged corrector at k = 2, R = 12, beta = 0.05."""
    return _run(2, 12.0, params_coupled)


@pytest.fixture(scope="session")
def corr_k1(params_coupled):
    """Converged corrector at the single-bump edge case k = 1, R = 8."""
    return _run(1, 8.0, params_coupled)


@pytest.fixture(scope="session")
def corr_k3(params_uncoupled):
    """Converged corrector at k = 3, R = 11 with the coupling off."""
    return _run(3, 11.0, params_uncoupled)


@pytest.fixture(scope="session")
def divergent_k16():
    """Corrector attempt at k = 16, mid-window radius, beta = f0/2.

    The fixture captures whichever outcome occurs (result or raised
    error) so both the unit tests and the acceptance gate can assert on
    the same single run.
    """
    base = ModelParams()
    R = mid_radius(16, base.m)
    inputs = build_inputs(16, R, base)
    params = replace(base, beta=0.5 * inputs.f0)
    outcome = {"params": params, "inputs": inputs, "R": R,
               "result": None, "error": None}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            outcome["result"] = fixed_point_iterate(inputs, params)
        except RuntimeError as exc:
            outcome["error"] = exc
    return outcome


@pytest.fixture(scope="session")
def reduce_k16_attempt(divergent_k16):
    """Radius-scan attempt at k = 16 with the default coupling.

    Each scan node embeds a corrector solve, so the expected outcome is
    the propagated divergence error from the first evaluated radius.
    """
    from ringnls.corrector import build_inputs
    from ringnls.reduction import maximize_over_Sk, reduced_energy

    params = divergent_k16["params"]
    outcome = {"params": params, "R0": None, "report": None, "error": None}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            outcome["R0"], outcome["report"] = maximize_over_Sk(
                lambda R: reduced_energy(build_inputs(16, R, params),
                                         params).F, 16, params.m)
        except RuntimeError as exc:
            outcome["error"] = exc
    return outcome
