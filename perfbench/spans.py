"""Outside-in tracer: wraps ringnls layer functions where they are used.

The package binds names with ``from ... import``, so a call from
``corrector.solve_L0`` to ``dstn`` looks the name up in
``ringnls.corrector``.  Each wrapper is therefore installed on the
consuming module; patching only the defining module would miss those
calls.  Nothing under ``src/`` is edited.

Spans (name, start, end, parent) are kept in memory and written out by
the caller when the process ends.  Counters are kept at the same
boundaries.  ``layer_metrics`` turns one run's spans into the per-layer
metrics, where every ``_s`` metric but the Picard step time and the
tracing overhead is the summed self time of its spans: span time minus
the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter

# (consuming module, attribute, span name)
SPANS = (
    ("ringnls.cli", "build_inputs", "corrector.build_inputs"),
    ("ringnls.corrector", "g0_rhs", "corrector.g0_rhs"),
    ("ringnls.corrector", "g1_rhs", "corrector.g1_rhs"),
    ("ringnls.corrector", "solve_L0", "corrector.solve_L0"),
    ("ringnls.corrector", "solve_L1_constrained", "corrector.solve_L1"),
    ("ringnls.corrector", "minres", "corrector.minres"),
    ("ringnls.corrector", "dstn", "corrector.dst"),
    ("ringnls.corrector", "laplacian", "grid.laplacian"),
    ("ringnls.corrector", "norm_E", "grid.norm_E"),
    ("ringnls.cli", "dump_field", "grid.dump_field"),
    ("ringnls.corrector", "symmetrize_fast", "geometry.symmetrize_fast"),
    ("ringnls.corrector", "symmetrize", "geometry.symmetrize_accurate"),
    ("ringnls.corrector", "radial_field", "geometry.assembly"),
    ("ringnls.corrector", "bump_sum_field", "geometry.assembly"),
    ("ringnls.corrector", "bump_cubes_field", "geometry.assembly"),
    ("ringnls.corrector", "constraint_field", "geometry.assembly"),
    ("ringnls.corrector", "potential_field", "geometry.assembly"),
    ("ringnls.energy", "radial_field", "geometry.assembly"),
    ("ringnls.energy", "bump_sum_field", "geometry.assembly"),
    ("ringnls.energy", "potential_field", "geometry.assembly"),
    ("ringnls.cli", "expansion_compare", "energy.expansion_compare"),
    ("ringnls.energy", "interaction_term", "energy.interaction_term"),
    ("ringnls.energy", "energy", "energy.energy"),
    ("ringnls.radial", "ground_state", "radial.ground_state"),
    ("ringnls.cli", "ground_state", "radial.ground_state"),
    ("ringnls.corrector", "ground_state", "radial.ground_state"),
)

# (consuming module, attribute, counter name): calls counted, not timed
COUNTS = (
    ("ringnls.geometry", "eval_profile", "geometry.profile_evals"),
    ("ringnls.energy", "eval_profile", "geometry.profile_evals"),
)

KRYLOV = "corrector.krylov_iters"

# per-layer metrics in report order: (name, unit, better)
LAYER_METRICS = (
    ("corrector.dst_s", "s", "lower"),
    ("corrector.dst_calls", "count", "lower"),
    ("corrector.minres_s", "s", "lower"),
    ("corrector.minres_calls", "count", "lower"),
    ("corrector.krylov_iters", "count", "lower"),
    ("corrector.linear_solves", "count", "lower"),
    ("corrector.minres_calls_per_solve", "1", "lower"),
    ("corrector.picard_steps", "count", "lower"),
    ("corrector.picard_step_s", "s", "lower"),
    ("corrector.solve_L0_s", "s", "lower"),
    ("corrector.solve_L1_s", "s", "lower"),
    ("corrector.rhs_s", "s", "lower"),
    ("corrector.build_inputs_s", "s", "lower"),
    ("geometry.assembly_s", "s", "lower"),
    ("geometry.assembly_calls", "count", "lower"),
    ("geometry.profile_evals", "count", "lower"),
    ("geometry.symmetrize_fast_s", "s", "lower"),
    ("geometry.symmetrize_fast_calls", "count", "lower"),
    ("geometry.symmetrize_accurate_s", "s", "lower"),
    ("geometry.symmetrize_accurate_calls", "count", "lower"),
    ("grid.laplacian_s", "s", "lower"),
    ("grid.laplacian_calls", "count", "lower"),
    ("grid.norm_E_s", "s", "lower"),
    ("grid.dump_field_s", "s", "lower"),
    ("energy.expansion_compare_s", "s", "lower"),
    ("energy.interaction_term_s", "s", "lower"),
    ("energy.energy_s", "s", "lower"),
    ("radial.ground_state_s", "s", "lower"),
    ("radial.ground_state_calls", "count", "lower"),
    ("trace.coverage", "1", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, time.monotonic(), None, parent])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.monotonic()
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _krylov_counted(self, fn):
        """minres with a callback that counts iterations (chained to any
        callback the caller passed)."""
        @functools.wraps(fn)
        def wrapper(*args, callback=None, **kwargs):
            def count(xk):
                self.counts[KRYLOV] += 1
                if callback is not None:
                    callback(xk)
            return fn(*args, callback=count, **kwargs)
        return wrapper

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            if attr == "minres":
                self._patch(module_name, attr, lambda fn, name=name:
                            self._timed(name, self._krylov_counted(fn)))
            else:
                self._patch(module_name, attr,
                            lambda fn, name=name: self._timed(name, fn))
        for module_name, attr, name in COUNTS:
            self._patch(module_name, attr,
                        lambda fn, name=name: self._counted(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _picard_step_times(spans: list) -> list[float]:
    """Each Picard step runs from its g0_rhs call to the end of the next
    norm_E call; a step cut short by an error has no norm_E and is left
    out."""
    times = []
    start = None
    for name, t0, t1, _parent in spans:
        if name == "corrector.g0_rhs":
            start = t0
        elif name == "grid.norm_E" and start is not None:
            times.append(t1 - start)
            start = None
    return times


def layer_metrics(trace: dict, t_ready: float, t_done: float,
                  untraced_wall: float) -> dict:
    """Per-layer metrics of one traced run.

    Spans that started before ``t_ready`` belong to set-up (the warm-up of
    the ground states) and count toward the radial layer only.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    self_time = [t1 - t0 for _name, t0, t1, _parent in spans]
    for name, t0, t1, parent in spans:
        if parent is not None:
            self_time[parent] -= t1 - t0
    busy: Counter = Counter()
    calls: Counter = Counter()
    covered = 0.0
    for (name, t0, _t1, _parent), own in zip(spans, self_time):
        busy[name] += own
        calls[name] += 1
        if t0 >= t_ready:
            covered += own
    wall = t_done - t_ready
    solves = calls["corrector.solve_L0"] + calls["corrector.solve_L1"]
    steps = _picard_step_times(spans)
    values = {
        "corrector.dst_s": busy["corrector.dst"],
        "corrector.dst_calls": calls["corrector.dst"],
        "corrector.minres_s": busy["corrector.minres"],
        "corrector.minres_calls": calls["corrector.minres"],
        "corrector.krylov_iters": counts.get(KRYLOV, 0),
        "corrector.linear_solves": solves,
        "corrector.minres_calls_per_solve":
            calls["corrector.minres"] / solves if solves else 0.0,
        "corrector.picard_steps": calls["corrector.g0_rhs"],
        "corrector.picard_step_s": statistics.median(steps) if steps else 0.0,
        "corrector.solve_L0_s": busy["corrector.solve_L0"],
        "corrector.solve_L1_s": busy["corrector.solve_L1"],
        "corrector.rhs_s": busy["corrector.g0_rhs"] + busy["corrector.g1_rhs"],
        "corrector.build_inputs_s": busy["corrector.build_inputs"],
        "geometry.assembly_s": busy["geometry.assembly"],
        "geometry.assembly_calls": calls["geometry.assembly"],
        "geometry.profile_evals": counts.get("geometry.profile_evals", 0),
        "geometry.symmetrize_fast_s": busy["geometry.symmetrize_fast"],
        "geometry.symmetrize_fast_calls": calls["geometry.symmetrize_fast"],
        "geometry.symmetrize_accurate_s": busy["geometry.symmetrize_accurate"],
        "geometry.symmetrize_accurate_calls":
            calls["geometry.symmetrize_accurate"],
        "grid.laplacian_s": busy["grid.laplacian"],
        "grid.laplacian_calls": calls["grid.laplacian"],
        "grid.norm_E_s": busy["grid.norm_E"],
        "grid.dump_field_s": busy["grid.dump_field"],
        "energy.expansion_compare_s": busy["energy.expansion_compare"],
        "energy.interaction_term_s": busy["energy.interaction_term"],
        "energy.energy_s": busy["energy.energy"],
        "radial.ground_state_s": busy["radial.ground_state"],
        "radial.ground_state_calls": calls["radial.ground_state"],
        "trace.coverage": covered / wall,
        "trace.overhead_s": wall - untraced_wall,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in LAYER_METRICS}
