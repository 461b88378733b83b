#!/usr/bin/env python3
"""Regenerate ``reference.json``: the expected modelled outputs every
workload's output check compares against.

* ``table4-eval``: for each of the ``REFERENCE_VARIANTS`` input seeds, the
  ``metrics_fingerprint`` of the four validated accelerators on the wi and
  po stand-ins, evaluated with ``backend="interpreter", metrics="trace"``
  (the reference path).  About 100 s per input seed on a 2-CPU Xeon.
* ``mapping-search``: for each of the ``SEARCH_POOL`` draws of wi, the
  search's energy-best candidate and its fingerprint, which must equal the
  interpreter+trace evaluation of that candidate.
* ``graph-vcp``: for each input seed, the iterations, modelled seconds,
  traffic and apply ops of every (algorithm, design) run, on the fl
  stand-in and on the smoke test's random graph.

Uses one process per CPU.  Run from the repository root:

    python3 perfbench/make_reference.py

Regenerate only when a change is *meant* to alter modelled metrics; a
change that is only meant to be faster must leave this file valid.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from workloads import (  # noqa: E402
    REFERENCE_FILE,
    REFERENCE_VARIANTS,
    SEARCH_POOL,
    graph_reference,
    search_reference,
    table4_reference,
)


def reference(task):
    workload, key = task
    if workload == "table4-eval":
        return table4_reference(key)
    if workload == "mapping-search":
        return search_reference(key)
    kind, variant = key.split("-")
    return graph_reference(int(variant), smoke=kind == "smoke")


def main() -> int:
    tasks = ([("table4-eval", v) for v in range(REFERENCE_VARIANTS)]
             + [("mapping-search", d) for d in range(SEARCH_POOL)]
             + [("graph-vcp", f"{kind}-{v}") for kind in ("fl", "smoke")
                for v in range(REFERENCE_VARIANTS)])
    with ProcessPoolExecutor(max_workers=min(len(tasks), os.cpu_count() or 1),
                             mp_context=get_context("spawn")) as pool:
        refs = list(pool.map(reference, tasks))
    doc = {"reference": "backend='interpreter', metrics='trace'"}
    for (workload, key), ref in zip(tasks, refs):
        doc.setdefault(workload, {})[str(key)] = ref
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
