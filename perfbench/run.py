"""ringnls benchmark: runs the workloads and reports their metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-manifest
    python3 perfbench/run.py --record-references

Run from the repository root.  Each workload is one ``ringnls``
subcommand (see workloads.py) run in its own fresh interpreter
(child.py), one child at a time, with BLAS/OpenMP pinned to one thread.

--trace 0 runs workload children as long as the next one is expected to
end within S seconds (at least one), then SETUP_RUNS children that only
set up.  It reports the end-to-end metrics: the median ``cli.run`` time
(wall_s), the median time from spawning a fresh interpreter to calling
``cli.run`` (setup_s), and the largest peak RSS of a workload child, read
from that child's own rusage (peak_rss_mb).  fail_frac, the share of
workload children whose outputs fail the check, is printed and carried
by ``failed`` / ``attempted`` in the result line.

--trace 1 runs the workload once untraced and once traced (spans.py),
requires the two runs to write byte-identical artifacts, and reports the
per-layer metrics of the traced run.

The last line of standard output is the JSON result.  Exit status is 0
when a result was printed, non-zero when none could be (for instance
when the tree holds no ``src/ringnls``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from spans import LAYER_METRICS, layer_metrics
from workloads import (N_INPUTS, REFERENCES, SELF_TEST, WORKLOADS,
                       input_index)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MANIFEST = ROOT / "BENCHMARK.json"
HOST_FILE = HERE / "host.json"

RUN_SECONDS = 30
SETUP_RUNS = 5
RUN_BUDGET_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# (name, unit, better, bound)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def host_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "child_thread_env": THREAD_ENV}


class Runner:
    """Spawns child runs one at a time inside a scratch directory."""

    def __init__(self, deadline: float | None):
        if not (SRC / "ringnls" / "cli.py").is_file():
            raise BenchError(f"no ringnls sources under {SRC}")
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
        self.deadline = deadline
        self.env = dict(os.environ, **THREAD_ENV)
        self.n = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def child(self, workload, seed: int, trace: bool = False,
              setup_only: bool = False) -> dict:
        self.n += 1
        tag = f"{self.n:03d}"
        out = self.dir / f"out-{tag}"
        spec = {"src": str(SRC), "subcommand": workload.subcommand,
                "config": workload.config_text(seed), "out": str(out),
                "trace": trace, "setup_only": setup_only,
                "result": str(self.dir / f"result-{tag}.json")}
        spec_path = self.dir / f"spec-{tag}.json"
        spec_path.write_text(json.dumps(spec))
        log_path = self.dir / f"log-{tag}.txt"
        with open(log_path, "w") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env,
                cwd=self.dir)
            status, usage = self._wait(proc)
        if status != 0:
            tail = log_path.read_text()[-2000:]
            raise BenchError(f"child {tag} exited with {status}:\n{tail}")
        result = json.loads(Path(spec["result"]).read_text())
        result["setup_s"] = result["t_ready"] - t_spawn
        result["rss_mb"] = usage.ru_maxrss / 1024.0   # KiB on Linux
        result["out"] = out
        if not setup_only:
            result["wall_s"] = result["t_done"] - result["t_ready"]
            result["mismatches"] = check(workload, seed, result["exit"], out)
        return result

    def _wait(self, proc):
        """Reap the child with its own rusage, killing it at the deadline."""
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if self.deadline is not None and time.monotonic() > self.deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise BenchError("child run exceeded the time budget")
            time.sleep(0.02)


def check(workload, seed: int, code: int, out: Path) -> list[str]:
    """Mismatches between a run's outputs and the recorded reference."""
    got = workload.outcome(code, out)
    if workload is SELF_TEST:
        return workload.compare(got, None)
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    ref = refs.get(workload.name, {}).get(str(input_index(seed)))
    if ref is None:
        return [f"no reference for {workload.name} input "
                f"{input_index(seed)}"]
    return workload.compare(got, ref)


def _artifacts(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def measure(runner: Runner, workload, seed: int, seconds: int) -> dict:
    """Untraced run: the end-to-end metrics."""
    start = time.monotonic()
    runs = []
    while True:
        runs.append(runner.child(workload, seed))
        per_child = statistics.median(r["setup_s"] + r["wall_s"] for r in runs)
        if time.monotonic() - start + per_child > seconds:
            break
    setups = [r["setup_s"] for r in runs]
    for _ in range(SETUP_RUNS):
        setups.append(runner.child(workload, seed, setup_only=True)["setup_s"])
    failed = [r for r in runs if r["mismatches"]]
    for r in failed:
        print(f"check failed: {'; '.join(r['mismatches'])}", file=sys.stderr)
    values = {"wall_s": statistics.median(r["wall_s"] for r in runs),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": max(r["rss_mb"] for r in runs)}
    print(f"fail_frac = {len(failed) / len(runs)!r} 1 "
          f"({len(failed)} of {len(runs)} runs)")
    return {"correct": not failed, "attempted": len(runs),
            "failed": len(failed),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _better, _bound in END_TO_END}}


def traced(runner: Runner, workload, seed: int) -> dict:
    """Untraced and traced run of one seed: the per-layer metrics."""
    plain = runner.child(workload, seed)
    spans = runner.child(workload, seed, trace=True)
    runs = (plain, spans)
    failed = [r for r in runs if r["mismatches"]]
    for r in failed:
        print(f"check failed: {'; '.join(r['mismatches'])}", file=sys.stderr)
    identical = _artifacts(plain["out"]) == _artifacts(spans["out"])
    if not identical:
        print("traced and untraced runs wrote different artifacts",
              file=sys.stderr)
    print(f"artifacts identical traced/untraced: {identical}")
    WORK.joinpath(f"spans-{workload.name}.json").write_text(
        json.dumps(spans["trace"]))
    metrics = layer_metrics(spans["trace"], spans["t_ready"],
                            spans["t_done"], plain["wall_s"])
    return {"correct": identical and not failed, "attempted": len(runs),
            "failed": len(failed), "metrics": metrics}


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in LAYER_METRICS],
    }


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def write_manifest() -> None:
    """Write BENCHMARK.json, and host.json with this host's CPU model."""
    MANIFEST.write_text(_json_text(manifest()))
    host = host_info()
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            host["cpu"] = line.split(":", 1)[1].strip()
            break
    HOST_FILE.write_text(_json_text(host))


def record_references() -> None:
    """Record each workload's outputs for every seed input (slow)."""
    refs = {}
    runner = Runner(deadline=None)
    try:
        for workload in WORKLOADS.values():
            refs[workload.name] = {}
            for j in range(N_INPUTS):
                r = runner.child(workload, j)
                got = workload.outcome(r["exit"], r["out"])
                bad = workload.compare(got, got)
                if bad:
                    raise BenchError(f"{workload.name} input {j}: {bad}")
                refs[workload.name][str(j)] = got
                print(f"{workload.name} input {j}: {got} "
                      f"(wall_s {r['wall_s']:.3f})", flush=True)
    finally:
        runner.close()
    REFERENCES.write_text(_json_text(refs))


def self_test() -> list[str]:
    """Checks of the benchmark itself on a tiny corrector config; returns
    the problems found."""
    problems = []
    if json.loads(MANIFEST.read_text()) != manifest():
        problems.append("BENCHMARK.json differs from run.py --write-manifest")
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in WORKLOADS:
        if sorted(refs.get(name, {})) != sorted(map(str, range(N_INPUTS))):
            problems.append(f"references.json lacks inputs of {name}")
    runner = Runner(deadline=time.monotonic() + RUN_BUDGET_S)
    try:
        for trace, spec in ((0, END_TO_END), (1, LAYER_METRICS)):
            result = (traced(runner, SELF_TEST, 0) if trace
                      else measure(runner, SELF_TEST, 0, 0))
            problems += _shape_problems(result, spec, f"--trace {trace}")
    finally:
        runner.close()
    return problems


def _shape_problems(result: dict, spec, label: str) -> list[str]:
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: self-test run not correct")
    want = {row[0]: row[1] for row in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {got} != {want}")
    for name, m in result["metrics"].items():
        if sorted(m) != ["unit", "value"] or not isinstance(
                m["value"], (int, float)):
            problems.append(f"{label}: metric {name} malformed: {m}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--write-manifest", action="store_true")
    mode.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.write_manifest:
            write_manifest()
            return 0
        if args.record_references:
            record_references()
            return 0
        if args.self_test:
            problems = self_test()
            for line in problems:
                print(f"self-test: {line}", file=sys.stderr)
            print("self-test: " + ("FAILED" if problems else "ok"))
            return 1 if problems else 0
        if args.workload is None:
            p.error("--workload is required")
        workload = WORKLOADS[args.workload]
        runner = Runner(deadline=time.monotonic() + RUN_BUDGET_S)
        try:
            print("host: " + json.dumps(host_info(), sort_keys=True))
            print(f"workload {workload.name}, seed {args.seed}: config "
                  f"{workload.config_text(args.seed)!r}")
            result = (traced(runner, workload, args.seed) if args.trace
                      else measure(runner, workload, args.seed, args.seconds))
        finally:
            runner.close()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
