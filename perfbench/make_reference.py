#!/usr/bin/env python3
"""Regenerate ``reference.json``: the expected outputs of every input variant.

Run from the root of a checkout, at a commit whose results are trusted:

    python3 perfbench/make_reference.py            # every workload
    python3 perfbench/make_reference.py report     # one workload

Each variant runs once through ``rep.py``, exactly as ``run.py`` runs it.
The file keeps what ``run.py`` compares with a tolerance: per-cell mean
QWK/AMAE, ANOVA F values and Tukey groupings, never raw bytes, so a change
that only reorders float sums still matches.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, WORK, WORKLOADS, ROOT, run_rep

KEPT = ("cell_means", "stats")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import VARIANTS

    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    WORK.mkdir(exist_ok=True)
    for workload in sys.argv[1:] or WORKLOADS:
        entries = {}
        for v in range(VARIANTS):
            rep = run_rep(workload, v, 0, 0, timeout=170.0)
            shutil.rmtree(WORK / f"{workload}-{v}", ignore_errors=True)
            if rep.get("crash") or rep["failures"]:
                print(f"{workload} variant {v} failed: {rep.get('crash') or rep['failures']}")
                return 1
            summary = rep["summary"]
            entries[str(summary["variant"])] = {k: summary[k] for k in KEPT if k in summary}
            print(f"{workload} variant {v}: {rep['wall_s']:.2f} s", flush=True)
        reference[workload] = entries
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
