"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``.  A timed
*pass* runs each of its ``item_keys`` once through ``run_item``, which
times one item (one evaluation, one cold search, one vertex-centric
run); ``check`` checks the outputs of every item run, outside every
timed region.  The program is called only
through its public entry points, looked up on their modules at call
time so the tracer's wrappers (see ``tracing.py``) see every call.

Why these three: see NOTES.md.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from collections import Counter
from typing import Dict, List, Tuple

import repro.graph as graph_api
import repro.model as model_api
import repro.search as search_api
from benchmarks._common import SCALED_PARAMS
from repro.accelerators import accelerator
from repro.analysis import SpecLintWarning
from repro.published import (
    FIG9A_EXTENSOR_TRAFFIC,
    FIG9B_GAMMA_TRAFFIC,
    FIG9C_OUTERSPACE_TRAFFIC,
    FIG13_PROPOSAL_OVER_GRAPHDYNS,
)
from repro.search.results import metrics_fingerprint
from repro.store import PersistentStore
from repro.workloads import (
    adjacency_from_dataset,
    random_graph,
    spmspm_pair,
    uniform_random,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

#: The paper's four validated accelerators (Figures 9-11).
ACCELERATORS = ("extensor", "gamma", "outerspace", "sigma")
#: wi: the smallest power-law stand-in; po: the only uniform one.
TABLE4_DATASETS = ("wi", "po")
#: table4-eval and graph-vcp draw their inputs from this many input seeds
#: (seed mod REFERENCE_VARIANTS), whose expected outputs are stored in
#: reference.json: the interpreter+trace reference of table4-eval costs
#: about 100 s per input set, so it is stored, not recomputed per run.
REFERENCE_VARIANTS = 4

FIG9_PUBLISHED = {
    "extensor": FIG9A_EXTENSOR_TRAFFIC,
    "gamma": FIG9B_GAMMA_TRAFFIC,
    "outerspace": FIG9C_OUTERSPACE_TRAFFIC,
}

SEARCH_TILES = {"K": [32, 64, 256]}
SEARCH_ARGS = dict(
    einsum="Z", tile_sizes=SEARCH_TILES, metric="energy", prune_to=4,
    prune_metrics="analytical", validate="strict", workers=2,
    executor="thread",
)
#: mapping-search passes cycle through this many draws of wi: the search's
#: host time depends on which candidates survive to phase 2, which moves
#: with the draw (by ~5% between seeds), so the run's median spans several.
SEARCH_DRAWS = 6
#: ... taken from this many stored draws (input seeds 0 to SEARCH_POOL-1),
#: starting at seed mod SEARCH_POOL.
SEARCH_POOL = 8
#: Store-hit re-runs per traced mapping-search pass; their median is
#: reported, because single re-runs split into two groups (~0.16 s and
#: ~0.3 s).  An untraced pass re-runs once, for the check alone, and
#: spends the time saved on more cold searches.
WARM_REPEATS = 5


def table4_pair(dataset: str, input_seed: int):
    a, b = spmspm_pair(dataset, seed=input_seed)
    return {"A": a, "B": b}


def table4_spec(accel: str):
    return accelerator(accel, **SCALED_PARAMS[accel])


def tiny_pair(seed: int, n: int = 24):
    """An n x n SpMSpM pair: enough to lower and compile every kernel
    flavor a spec uses, at negligible pricing cost."""
    a = uniform_random("A", ("K", "M"), (n, n), 0.1, seed=seed)
    b = a.copy(name="B")
    b.rank_ids = ["K", "N"]
    return {"A": a, "B": b}


def load_reference(workload: str) -> Dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def table4_reference(variant: int) -> Dict[str, Dict]:
    """The interpreter+trace reference: ``{accel: {dataset: fp}}``."""
    out: Dict[str, Dict] = {}
    for accel in ACCELERATORS:
        spec = table4_spec(accel)
        for ds in TABLE4_DATASETS:
            res = model_api.evaluate(spec, table4_pair(ds, variant),
                                     metrics="trace", backend="interpreter")
            out.setdefault(accel, {})[ds] = metrics_fingerprint(res)
    return out


def search_reference(draw: int) -> Dict[str, str]:
    """The search's energy-best on one draw and its fingerprint, which
    must equal the interpreter+trace evaluation of that candidate."""
    warnings.simplefilter("ignore", SpecLintWarning)
    spec = table4_spec("extensor")
    tensors = table4_pair("wi", draw)
    cand, res = search_api.search(spec, tensors,
                                  **SEARCH_ARGS).best("energy")
    fp = metrics_fingerprint(res)
    ref = model_api.evaluate(
        search_api.apply_candidate(spec, SEARCH_ARGS["einsum"], cand),
        tensors, metrics="trace", backend="interpreter")
    if metrics_fingerprint(ref) != fp:
        raise RuntimeError(f"draw {draw}: the search's best {cand} differs "
                           "from its interpreter+trace evaluation")
    return {"best": cand.describe(), "fingerprint": fp}


def graph_reference(variant: int, smoke: bool) -> Dict[str, List]:
    """Every vertex-centric run's modelled figures, keyed "alg/design"."""
    graphs = vcp_graphs(variant, smoke)
    source = hub(graphs["bfs"])
    return {f"{alg}/{key}": vcp_figures(graph_api.run_vertex_centric(
                design, graphs[alg], source, alg))
            for alg in VCP_ALGORITHMS
            for key, design in graph_api.DESIGNS.items()}


def mean_rel_err(pairs) -> float:
    """Mean of |measured - published| / published."""
    pairs = list(pairs)
    return sum(abs(m - p) / p for m, p in pairs) / len(pairs)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Workload:
    """One named workload: ``setup`` (counted in ``setup_s``),
    ``item_keys`` (the items of one pass, in order), ``run_item`` (runs
    one item, keeps its output and returns its host seconds), ``check``
    (untimed)."""

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: str, tracer):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = tracer
        self.outputs: List = []

    def setup(self) -> None:
        raise NotImplementedError

    def item_keys(self) -> List:
        raise NotImplementedError

    def run_item(self, key) -> float:
        raise NotImplementedError

    def check(self) -> Tuple[int, int]:
        """``(attempted, failed)`` operations over every item run."""
        raise NotImplementedError

    def sim(self) -> Dict[str, Tuple[float, str]]:
        """Simulated figures of the first pass: ``{name: (value, unit)}``.
        They repeat bit-exactly for a seed; see NOTES.md for why they
        are printed and recorded rather than bounded."""
        raise NotImplementedError

    def layer_counts(self) -> Dict[str, float]:
        """Per-pass counts read from the last whole pass's results."""
        return {}

    def workers(self) -> int:
        return model_api.default_workers()


class Table4Eval(Workload):
    name = "table4-eval"

    def setup(self) -> None:
        self.input_seed = self.seed % REFERENCE_VARIANTS
        self.datasets = ("wi",) if self.smoke else TABLE4_DATASETS
        self.specs = {a: table4_spec(a) for a in ACCELERATORS}
        self.inputs = {ds: table4_pair(ds, self.input_seed)
                       for ds in self.datasets}
        warm = tiny_pair(self.seed)
        for spec in self.specs.values():
            model_api.evaluate(spec, warm)

    def item_keys(self) -> List:
        return [(ds, accel) for ds in self.datasets for accel in ACCELERATORS]

    def run_item(self, key) -> float:
        ds, accel = key
        t0 = time.perf_counter()
        res = model_api.evaluate(self.specs[accel], self.inputs[ds])
        out = (accel, ds) + self.tracer.call("model.readout", _readout, res)
        wall = time.perf_counter() - t0
        self.outputs.append(out)
        return wall

    def check(self) -> Tuple[int, int]:
        ref = load_reference(self.name)[str(self.input_seed)]
        attempted = failed = 0
        for accel, ds, fp, _ in self.outputs:
            attempted += 1
            failed += fp != ref[accel][ds]
        return attempted, failed

    def sim(self) -> Dict[str, Tuple[float, str]]:
        nt = {}
        for a, ds, _, t in self.outputs:
            nt.setdefault((a, ds), t)
        err = mean_rel_err(
            (nt[a, ds], FIG9_PUBLISHED[a][ds])
            for a in FIG9_PUBLISHED for ds in self.datasets
        )
        return {"fig9_traffic_err": (err, "ratio")}


def _readout(res):
    """The metrics a Table-4 user reads off a result: the fingerprint
    reads cycles, traffic, energy and action counts."""
    return metrics_fingerprint(res), res.normalized_traffic()


class MappingSearch(Workload):
    name = "mapping-search"

    def setup(self) -> None:
        warnings.simplefilter("ignore", SpecLintWarning)
        self.spec = table4_spec("extensor")
        self.draws = [(self.seed + i) % SEARCH_POOL
                      for i in range(SEARCH_DRAWS)]
        self.inputs = {d: table4_pair("wi", d) for d in self.draws}
        # Warm the process-wide lazy state a sweep touches (lint
        # registry, imports) on small inputs, larger than the 64 tiles
        # of the scaled spec so the strict lint accepts them.
        self._search(tiny_pair(self.seed, n=96), self._fresh_store())

    def _fresh_store(self) -> str:
        return tempfile.mkdtemp(prefix="store-", dir=self.workdir)

    def _search(self, tensors, cache):
        # Every search lowers afresh, as a first sweep in a new process
        # does: with cache= the search compiles through its own
        # store-backed CompileCache (so the process-wide one is not
        # used), but phase 0 lowers through the analytical model's
        # process-wide IR memo, which is cleared here.
        sys.modules["repro.model.analytical"]._IR_CACHE.clear()
        return search_api.search(self.spec, tensors, cache=cache,
                                 **SEARCH_ARGS)

    @staticmethod
    def _summary(result):
        """What the checks need of a search, so passes do not pin every
        candidate's evaluation.  best("energy"), because best() ranks by
        exec_seconds whatever the search's metric was (see NOTES.md)."""
        cand, res = result.best("energy")
        return (cand, metrics_fingerprint(res), res.energy_pj,
                bool(result.failures))

    def item_keys(self) -> List:
        return ["search"]

    def run_item(self, key) -> float:
        draw = self.draws[len(self.outputs) % SEARCH_DRAWS]
        inputs = self.inputs[draw]
        store_dir = self._fresh_store()
        try:
            gc.collect()
            self.tracer.segment = "cold"
            t0 = time.perf_counter()
            cold = self._search(inputs, store_dir)
            wall = time.perf_counter() - t0
            stats = cold.stats
            cold = self._summary(cold)
            store_bytes = dir_bytes(store_dir)
            self.tracer.segment = "warm"
            warm, warm_times = [], []
            repeats = WARM_REPEATS if self.tracer.active else 1
            for _ in range(1 if self.smoke else repeats):
                t0 = time.perf_counter()
                res = self._search(inputs, PersistentStore(store_dir))
                warm_times.append(time.perf_counter() - t0)
                warm.append(self._summary(res))
            self.tracer.segment = None
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        self.outputs.append((cold, warm, stats, statistics.median(warm_times),
                             store_bytes, draw))
        return wall

    def check(self) -> Tuple[int, int]:
        """The cold best must be the stored best of its draw, and every
        warm re-run's best the cold one, bit-identically."""
        refs = load_reference(self.name)
        attempted = failed = 0
        for (cand, fp, _, cold_failed), warm, *_, draw in self.outputs:
            ref = refs[str(draw)]
            attempted += 1
            failed += (cold_failed or cand.describe() != ref["best"]
                       or fp != ref["fingerprint"])
            for w_cand, w_fp, _, w_failed in warm:
                attempted += 1
                failed += w_failed or w_cand != cand or w_fp != fp
        return attempted, failed

    def sim(self) -> Dict[str, Tuple[float, str]]:
        return {"best_energy_pj": (self.outputs[0][0][2], "pJ")}

    def layer_counts(self) -> Dict[str, float]:
        _, _, st, warm_s, store_bytes, _ = self.outputs[-1]
        return {
            "analysis.pruned": st["statically_pruned"],
            "search.n_scored": st["n_scored"],
            "search.n_repriced": st["n_repriced"],
            "search.repriced_share": st["n_repriced"] / st["n_scored"],
            "search.n_failed": st["n_failed"],
            "search.n_retried": st["n_retried"],
            "search.warm_s": warm_s,
            "store.bytes": store_bytes,
        }

    def workers(self) -> int:
        return self.outputs[-1][2]["workers"]


def hub(g) -> int:
    """The vertex with the most out-edges (lowest id on ties).  BFS from
    the hub of a power-law graph has a near-constant depth, so the work
    of a pass barely moves with the seed; a random source changed it by
    30% across seeds."""
    deg = Counter(s for (_, s), _ in g.leaves())
    return max(deg, key=lambda v: (deg[v], -v))


VCP_ALGORITHMS = ("bfs", "sssp")


def vcp_graphs(variant: int, smoke: bool):
    """The BFS (unweighted) and SSSP (weighted) graphs of one input seed:
    the fl stand-in, or a 300-vertex random graph for the smoke test."""
    def graph(weighted: bool):
        if smoke:
            return random_graph(n=300, seed=variant, weighted=weighted)
        return adjacency_from_dataset("fl", seed=variant, weighted=weighted)
    return {"bfs": graph(False), "sssp": graph(True)}


def vcp_figures(run) -> List:
    """A run's modelled figures: iterations, seconds, traffic, apply ops
    (floats survive a JSON round trip exactly)."""
    return [run.num_iterations, run.total_seconds, run.total_traffic_bytes,
            run.total_apply_ops]


class GraphVCP(Workload):
    name = "graph-vcp"

    def setup(self) -> None:
        self.variant = self.seed % REFERENCE_VARIANTS
        self.graphs = vcp_graphs(self.variant, self.smoke)
        self.source = hub(self.graphs["bfs"])
        tiny = random_graph(n=40, seed=self.seed)
        for alg in VCP_ALGORITHMS:
            for design in graph_api.DESIGNS.values():
                graph_api.run_vertex_centric(design, tiny, hub(tiny), alg)

    def item_keys(self) -> List:
        return [(alg, key) for alg in VCP_ALGORITHMS
                for key in graph_api.DESIGNS]

    def run_item(self, key) -> float:
        alg, design = key
        t0 = time.perf_counter()
        run = graph_api.run_vertex_centric(graph_api.DESIGNS[design],
                                           self.graphs[alg], self.source, alg)
        wall = time.perf_counter() - t0
        self.outputs.append((key, run))
        return wall

    def check(self) -> Tuple[int, int]:
        """Final properties must match the reference algorithms and the
        modelled figures those stored for the input seed."""
        props = {
            "bfs": graph_api.reference_bfs(self.graphs["bfs"],
                                           self.source),
            "sssp": graph_api.reference_sssp(self.graphs["sssp"],
                                             self.source),
        }
        figures = load_reference(self.name)[
            f"{'smoke' if self.smoke else 'fl'}-{self.variant}"]
        attempted = failed = 0
        for (alg, key), run in self.outputs:
            attempted += 1
            failed += (run.properties != props[alg]
                       or vcp_figures(run) != figures[f"{alg}/{key}"])
        return attempted, failed

    def sim(self) -> Dict[str, Tuple[float, str]]:
        runs = {}
        for key, run in self.outputs:
            runs.setdefault(key, run)
        gains = {alg: runs[alg, "graphdyns"].total_seconds
                 / runs[alg, "proposal"].total_seconds
                 for alg in VCP_ALGORITHMS}
        err = mean_rel_err((gains[alg], FIG13_PROPOSAL_OVER_GRAPHDYNS[alg])
                           for alg in VCP_ALGORITHMS)
        return {"fig13_gain_err": (err, "ratio"),
                "bfs_gain": (gains["bfs"], "x"),
                "sssp_gain": (gains["sssp"], "x")}

    def layer_counts(self) -> Dict[str, float]:
        last = self.outputs[-len(self.item_keys()):]
        return {"graph.iterations": sum(r.num_iterations for _, r in last)}


WORKLOADS = {w.name: w for w in (Table4Eval, MappingSearch, GraphVCP)}
