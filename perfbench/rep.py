"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py`` from the root of a checkout; not meant to be run by hand.
The process starts cold, like a command-line user's, so the package's
``lru_cache``s (studentized-range quadrature, soft-label targets) are empty.

Set-up time runs from the parent's spawn timestamp (``--t0``, read from the
system-wide monotonic clock) through interpreter start, ``import ordview``
and writing the workload inputs. A speed probe (``probe.py``) samples the
CPU from ``import numpy`` to the end of the workload; the slowdowns of the
set-up and workload stretches are reported separately. The result is a JSON
file (``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy
    from probe import SpeedProbe

    with SpeedProbe() as probe:
        import scipy

        import ordview
        from tracing import Tracer
        from workloads import WORKLOADS

        tracer = None
        missing: list[str] = []
        if args.trace:
            tracer = Tracer()
            missing = tracer.install()

        def span(name):
            return tracer.span(name) if tracer else nullcontext()

        setup, ops, summarize = WORKLOADS[args.workload]
        args.work.mkdir(parents=True, exist_ok=True)
        with span("setup"):
            state = setup(args.seed, args.work)
        setup_s = time.monotonic() - args.t0
        setup_probes = len(probe.samples)

        failures = []
        operations = ops(state)
        with span("workload"):
            start = time.perf_counter()
            for name, op in operations:
                try:
                    op()
                except Exception:
                    failures.append({"op": name, "traceback": traceback.format_exc()})
            wall_s = time.perf_counter() - start

    summary = None
    if not failures:
        try:
            summary = summarize(state)
        except Exception:
            failures.append({"op": "summary", "traceback": traceback.format_exc()})

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "setup_slowdown": probe.slowdown(0, setup_probes),
        "slowdown": probe.slowdown(setup_probes),
        "probes": len(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": len(operations),
        "failures": failures,
        "summary": summary,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "backend": getattr(ordview, "backend_name", lambda: "n/a")(),
            "ORDVIEW_NUMBA": os.environ.get("ORDVIEW_NUMBA", "(unset)"),
            "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
                "openblas configuration", "unknown"
            ),
        },
    }
    if tracer is not None:
        result["trace"] = {
            "setup": tracer.summary("setup"),
            "workload": tracer.summary("workload"),
            "spans": len(tracer.spans),
            "missing": missing,
        }
        args.spans.write_text(json.dumps(tracer.dump()))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
