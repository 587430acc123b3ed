"""One workload run in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC names the source tree, the subcommand, the config text, the output
directory, whether to trace, and where to write the result.  Set-up is
importing ``ringnls.cli``, ``parse_config`` and warming the memoized
ground states of both profiles; ``t_ready`` is taken just before
``cli.run`` and ``t_done`` just after it returns, on the system-wide
monotonic clock, so the parent can time set-up from its own spawn time.
With ``setup_only`` the process stops at ``t_ready``.
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import ringnls.cli as cli
    import ringnls.radial as radial
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ringnls imported from {cli.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    config = replace(cli.parse_config(spec["config"]), out=spec["out"])
    radial.ground_state(config.lam, config.alpha0, config.dim)
    radial.ground_state(1.0, config.alpha1, config.dim)
    t_ready = time.monotonic()
    result = {"t_ready": t_ready}
    if not spec["setup_only"]:
        result["exit"] = cli.run(spec["subcommand"], config)
        result["t_done"] = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
