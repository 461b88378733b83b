"""Parallel, pruned mapping-space search over real tensors.

This is the evaluation engine behind :func:`search`, :func:`explore`
(the serial exhaustive sweep, a thin wrapper), and
:func:`explore_cascade` (the paper's named future-work rung: searching a
whole cascade's mappings Einsum by Einsum).

The runner composes three independent pieces:

* **A strategy** (:mod:`repro.search.strategies`) proposes candidate
  batches and sees only float scores back.
* **Parallel evaluation** fans each batch out over a thread pool
  sharing the compile cache and one thread-safe
  :class:`~repro.model.backend.PrepCache` per sweep.  A sweep that
  needs several processes runs as a leased batch job instead
  (:mod:`repro.search.jobs`: ``submit`` / ``run_worker`` /
  ``gather``, bit-identical to :func:`search`).  Every fan-out runs
  under a :class:`~repro.search.supervisor.SweepSupervisor`:
  per-candidate wall-clock ``timeout``, bounded retry of transient
  failures (``max_retries``/``retry_backoff``), and deterministic spec
  errors recorded on ``SearchResult.failures`` instead of killing the
  sweep.
  ``journal=path`` checkpoints every priced candidate to a crash-safe
  JSONL journal (plus an atomic ``manifest.json``);
  ``resume=path`` replays the deterministic strategy and adopts every
  journaled result bit-identically, so a killed sweep finishes from
  where it stopped (see :mod:`repro.search.journal`).
* **Two-phase pruning** (``prune_to=k``): every proposed candidate is
  scored first with the ``prune_metrics`` mode, then only the top-k
  survivors are kept.  Two modes are available:

  - ``"auto"`` (the default) — the vector kernels.  These are
    *bit-identical* to the traced reference (the differential suite
    enforces it), so phase 1 is already exact: the top-k are kept as
    priced and nothing is re-priced.
  - ``"analytical"`` — the statistics-based pricing tier
    (:func:`~repro.model.analytical.evaluate_analytical`): no tensor is
    walked at all, candidates are priced from sparsity statistics
    extracted once per sweep.  Orders of magnitude faster than
    executing a candidate, but approximate, so phase 2 re-prices the
    survivors exactly with ``metrics="auto"`` and the exact-survivor
    guarantee is relaxed to top-k recall: the true best survives
    whenever ``k`` absorbs the documented error bounds (the
    cross-validation suite in ``tests/model/test_analytical.py`` pins
    them).  Scored serially — each candidate prices in well under a
    millisecond, so pool dispatch would cost more than it saves.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..einsum.operators import ARITHMETIC, OpSet
from ..fibertree.rankid import rank_of_var
from ..model.backend import PrepCache, spec_fingerprint
from ..model.evaluate import (
    EvaluationResult,
    default_workers,
    evaluate,
    store_and_engine,
)
from ..spec.loader import AcceleratorSpec
from .journal import (
    SweepJournal,
    candidate_key,
    strategy_signature,
    workloads_fingerprint,
)
from .results import (
    CascadeSearchResult,
    SearchResult,
    metric_value,
    metrics_fingerprint,
)
from .space import Candidate, MappingSpace, apply_candidate
from .strategies import SearchStrategy, resolve_strategy
from .supervisor import DETERMINISTIC, FailureRecord, SweepSupervisor

#: How many consecutive all-duplicate proposal rounds the runner
#: tolerates before concluding a strategy is stuck (its contract allows
#: re-proposing seen candidates, so one stale round is not an error).
MAX_STALE_ROUNDS = 8


def _resolve_einsum(spec: AcceleratorSpec, einsum: Optional[str]) -> str:
    if einsum is not None:
        return einsum
    if len(spec.einsum.cascade) != 1:
        raise ValueError("name the Einsum to explore in a cascade "
                         "(or use explore_cascade to search them all)")
    return spec.einsum.cascade.produced[0]


def _einsum_ranks(spec: AcceleratorSpec, einsum: str) -> List[str]:
    return [rank_of_var(v) for v in spec.einsum.cascade[einsum].all_vars]


class SearchRunner:
    """Evaluates a strategy's candidate batches, in parallel, with
    optional two-phase pruning.  One runner covers one (spec, Einsum,
    tensors) sweep; construction resolves the backend and builds the
    sweep-wide :class:`~repro.model.backend.PrepCache`."""

    def __init__(
        self,
        spec: AcceleratorSpec,
        tensors,
        einsum: Optional[str] = None,
        opset: OpSet = ARITHMETIC,
        opsets=None,
        shapes: Optional[Dict[str, int]] = None,
        energy_model=None,
        backend=None,
        metrics: str = "auto",
        metric: str = "exec_seconds",
        workers: Optional[int] = None,
        prune_to: Optional[int] = None,
        prune_metrics: str = "auto",
        prep_cache: Optional[PrepCache] = None,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        journal: Optional[str] = None,
        resume: Optional[str] = None,
        cache=None,
        validate: str = "off",
    ):
        if validate not in ("off", "warn", "strict"):
            raise ValueError(
                f"unknown validate mode {validate!r}; known: 'off', "
                "'warn', 'strict'"
            )
        if prune_to is not None and prune_to < 1:
            raise ValueError("prune_to must be >= 1")
        if prune_metrics not in ("auto", "analytical"):
            raise ValueError(
                f"unknown prune_metrics {prune_metrics!r}; known: 'auto', "
                "'analytical'"
            )
        if journal is not None and resume is not None and journal != resume:
            raise ValueError(
                "journal= and resume= point at different paths; resume "
                "continues journaling in the same directory, so pass only "
                "resume= (or the same path for both)"
            )
        self.spec = spec
        self.tensors = dict(tensors)
        self.einsum = _resolve_einsum(spec, einsum)
        self.opset = opset
        self.opsets = opsets
        self.shapes = shapes
        self.energy_model = energy_model
        self.store, self.engine = store_and_engine(
            cache, backend, opset, opsets, energy_model)
        self.metrics = metrics
        self.metric = metric
        self.workers = workers if workers is not None else default_workers()
        self.prune_to = prune_to
        self.prune_metrics = prune_metrics
        self.prep_cache = prep_cache if prep_cache is not None else PrepCache()
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.journal_path = resume if resume is not None else journal
        self.resuming = resume is not None
        self.validate = validate
        self._lint_shapes: Optional[Dict[str, int]] = None
        if validate != "off":
            # The base spec is linted once up front: a strict run rejects
            # a statically-broken spec before the pools even spin up.
            from ..model.evaluate import lint_gate

            lint_gate(spec, tensors=self.tensors, shapes=shapes,
                      validate=validate)
        # Supervision state, owned by run(): one supervisor (and its
        # pool) serves every batch of a search — multi-round strategies
        # would otherwise pay pool spin-up per round.
        self._supervisor: Optional[SweepSupervisor] = None
        self._journal: Optional[SweepJournal] = None
        self._n_adopted = 0
        # Sweep-wide sparsity statistics for the analytical surrogate,
        # extracted lazily (and only once — they are mapping-independent,
        # so every candidate shares them).
        self._workload_stats = None

    # ---- evaluation ---------------------------------------------------
    def _stats(self):
        if self._workload_stats is None:
            from ..model.analytical import WorkloadStats

            self._workload_stats = WorkloadStats.from_tensors(self.tensors)
        return self._workload_stats

    def _shape_hints(self) -> Dict[str, int]:
        """Rank shapes for the feasibility rules: workload tensor shapes
        under any explicit ``shapes=`` overrides."""
        if self._lint_shapes is None:
            merged: Dict[str, int] = {}
            for t in self.tensors.values():
                for rank, span in zip(getattr(t, "rank_ids", ()) or (),
                                      getattr(t, "shape", ()) or ()):
                    if isinstance(span, int) and span > 0:
                        merged.setdefault(str(rank), span)
            if self.shapes:
                merged.update(self.shapes)
            self._lint_shapes = merged
        return self._lint_shapes

    def _statically_infeasible(self, candidate: Candidate) -> bool:
        """Does the cheap error-severity feasibility subset reject this
        candidate's spec?  Only *error* rules vote (warn findings never
        prune), so dropping the candidate cannot change the best: an
        infeasible mapping could not have executed as specified."""
        from ..analysis import feasibility_findings

        cand_spec = apply_candidate(self.spec, self.einsum, candidate)
        return bool(feasibility_findings(cand_spec,
                                         shapes=self._shape_hints()))

    def _evaluate_one(self, candidate: Candidate,
                      metrics: str) -> EvaluationResult:
        cand_spec = apply_candidate(self.spec, self.einsum, candidate)
        if metrics == "analytical":
            return evaluate(cand_spec, None, shapes=self.shapes,
                            energy_model=self.energy_model,
                            metrics="analytical", stats=self._stats())
        return evaluate(cand_spec, dict(self.tensors), opset=self.opset,
                        opsets=self.opsets, shapes=self.shapes,
                        energy_model=self.energy_model, backend=self.engine,
                        metrics=metrics, prep_cache=self.prep_cache,
                        cache=self.store)

    def _adopt_journaled(self, candidates: Sequence[Candidate],
                         phase: int) -> Tuple[Dict[Candidate,
                                                   EvaluationResult],
                                              List[Candidate]]:
        """Split a batch into journal-adopted results and work to run.

        A resumed sweep adopts every journaled completion (unpickling
        the stored result, so metrics are bit-identical to the original
        run) and every journaled *deterministic* failure (re-running a
        poison candidate would fail identically; the failure is
        re-surfaced on this run's ``failures`` instead).  Journaled
        transient failures — timeouts, worker deaths — get a fresh
        chance and land back in the to-run list.
        """
        adopted: Dict[Candidate, EvaluationResult] = {}
        to_run: List[Candidate] = []
        journal = self._journal
        if journal is None or not journal.resumed:
            return adopted, list(candidates)
        for cand in candidates:
            record = journal.lookup(phase, cand)
            if record is None:
                to_run.append(cand)
            elif record["type"] == "result":
                result = journal.unpack(record)
                if result is None:
                    to_run.append(cand)  # journaled without a payload
                else:
                    adopted[cand] = result
            elif record["classification"] == DETERMINISTIC:
                self._supervisor.failures.append(FailureRecord(
                    item=cand, key=candidate_key(cand),
                    kind=record["kind"],
                    classification=record["classification"],
                    error=record["error"], attempts=record["attempts"],
                    phase=phase,
                ))
            else:
                to_run.append(cand)
        return adopted, to_run

    def _evaluate_batch(self, candidates: Sequence[Candidate],
                        metrics: str, phase: int = 1
                        ) -> List[Tuple[Candidate, EvaluationResult]]:
        """Evaluate one batch under supervision, preserving candidate
        order (so parallel and serial sweeps yield bit-identical result
        lists).  Returns completions only — ``(candidate, result)``
        pairs; candidates whose evaluation failed terminally land on the
        supervisor's ``failures`` (and in the journal) instead."""
        supervisor = self._supervisor
        adopted, to_run = self._adopt_journaled(candidates, phase)
        self._n_adopted += len(adopted)

        def on_result(cand, result, attempts) -> None:
            if self._journal is not None:
                self._journal.record_result(
                    phase, cand, metric_value(result, self.metric),
                    metrics_fingerprint(result), result=result,
                )

        def on_failure(record: FailureRecord) -> None:
            record.phase = phase
            if self._journal is not None:
                self._journal.record_failure(
                    phase, record.item, record.kind,
                    record.classification, record.error, record.attempts,
                )

        if metrics == "analytical":
            # Statistics pricing is ~1000x cheaper than an executing
            # surrogate; pool dispatch would dominate the work.
            completed = supervisor.run_serial(
                to_run, lambda c: self._evaluate_one(c, metrics),
                phase=phase, on_result=on_result, on_failure=on_failure,
            )
        else:
            completed = supervisor.run_batch(
                to_run, lambda c: self._evaluate_one(c, metrics),
                phase=phase, on_result=on_result, on_failure=on_failure,
            )
        if not adopted:
            return completed
        done = dict(completed)
        done.update(adopted)
        return [(c, done[c]) for c in candidates if c in done]

    # ---- the search loop ----------------------------------------------
    def _manifest(self, strategy: SearchStrategy, pruning: bool) -> Dict:
        """The sweep's identity (plus audit fields) for the journal."""
        from .. import __version__

        return {
            "spec_fingerprint": spec_fingerprint(self.spec),
            "workloads": workloads_fingerprint(self.tensors),
            "einsum": self.einsum,
            "metric": self.metric,
            "metrics": self.metrics,
            "prune_metrics": self.prune_metrics if pruning else None,
            "prune_to": self.prune_to,
            "strategy": strategy_signature(strategy),
            # Audit-only fields (a resume may legitimately differ here).
            "library_version": __version__,
            "workers": self.workers,
            "timeout": self.timeout,
            "max_retries": self.max_retries,
        }

    def run(self, strategy: SearchStrategy,
            space: MappingSpace) -> SearchResult:
        """Drive one strategy over one space to a ranked result."""
        t_start = time.perf_counter()
        strategy.reset(space)
        pruning = self.prune_to is not None
        phase1_metrics = self.prune_metrics if pruning else self.metrics
        self._supervisor = SweepSupervisor(
            workers=self.workers, timeout=self.timeout,
            max_retries=self.max_retries, backoff=self.retry_backoff,
            key=candidate_key,
        )
        self._n_adopted = 0
        if self.journal_path is not None:
            manifest = self._manifest(strategy, pruning)
            if self.resuming:
                self._journal = SweepJournal.resume(self.journal_path,
                                                    manifest)
            else:
                self._journal = SweepJournal.create(self.journal_path,
                                                    manifest)

        scored: List[Tuple[Candidate, EvaluationResult]] = []
        scores: List[Tuple[Candidate, float]] = []
        seen = set()
        stale_rounds = 0
        n_statically_pruned = 0
        try:
            while True:
                proposal = strategy.propose(space, scores)
                if not proposal:
                    break  # the strategy is done
                batch = []
                for cand in proposal:  # dedup across *and* within batches
                    if cand not in seen:
                        seen.add(cand)
                        batch.append(cand)
                if not batch:
                    # Everything proposed was already evaluated.  The
                    # strategy contract allows that ("harmless but
                    # wasted"), so ask again — bounded, in case a
                    # strategy never produces anything new.
                    stale_rounds += 1
                    if stale_rounds >= MAX_STALE_ROUNDS:
                        break
                    continue
                stale_rounds = 0
                if self.validate != "off":
                    # Static feasibility pre-pass: drop candidates an
                    # error-severity lint rule proves cannot execute,
                    # before phase-1 spends anything pricing them.
                    feasible = []
                    for cand in batch:
                        if self._statically_infeasible(cand):
                            n_statically_pruned += 1
                        else:
                            feasible.append(cand)
                    batch = feasible
                    if not batch:
                        continue  # whole round was infeasible; ask again
                for cand, res in self._evaluate_batch(batch, phase1_metrics,
                                                      phase=1):
                    scored.append((cand, res))
                    scores.append((cand, metric_value(res, self.metric)))
            t_phase1 = time.perf_counter()

            n_repriced = 0
            if pruning and scored:
                k = min(self.prune_to, len(scored))
                # Deterministic top-k: ties break on proposal order.
                by_score = sorted(range(len(scored)),
                                  key=lambda i: (scores[i][1], i))
                keep = {scores[i][0] for i in by_score[:k]}
                if phase1_metrics == "analytical":
                    # The statistics tier is approximate: re-price the
                    # survivors exactly.
                    survivors = [c for c, _ in scored if c in keep]
                    candidates = self._evaluate_batch(survivors, "auto",
                                                      phase=2)
                    n_repriced = len(candidates)
                else:
                    # The vector kernels are exact: phase 1 already
                    # priced the survivors.
                    candidates = [(c, r) for c, r in scored if c in keep]
            else:
                candidates = scored

            if self._journal is not None:
                if candidates:
                    best_cand, best_res = min(
                        enumerate(candidates),
                        key=lambda ic: (metric_value(ic[1][1], self.metric),
                                        ic[0]),
                    )[1]
                    self._journal.finalize(
                        "complete", best_key=candidate_key(best_cand),
                        fingerprint=metrics_fingerprint(best_res),
                    )
                else:
                    self._journal.finalize("complete")
        except KeyboardInterrupt:
            # The supervisor already drained in-flight futures (their
            # results hit the journal via on_result); mark the journal
            # interrupted so the artifact is self-describing, then let
            # the interrupt propagate.
            if self._journal is not None:
                self._journal.finalize("interrupted")
            raise
        finally:
            supervisor = self._supervisor
            supervisor.close()
            self._supervisor = None
            if self._journal is not None:
                self._journal.close()
                self._journal = None
        t_end = time.perf_counter()

        return SearchResult(
            candidates=candidates,
            scores=scores,
            strategy=strategy.name,
            metric=self.metric,
            pruned_to=self.prune_to,
            stats={
                "seconds": t_end - t_start,
                "phase1_seconds": t_phase1 - t_start,
                "phase2_seconds": t_end - t_phase1,
                "n_scored": len(scored),
                "n_repriced": n_repriced,
                "statically_pruned": n_statically_pruned,
                "workers": self.workers,
                "n_retried": supervisor.retries,
                "n_failed": len(supervisor.failures),
                "n_adopted": self._n_adopted,
            },
            failures=list(supervisor.failures),
        )


def search(
    spec: AcceleratorSpec,
    tensors,
    einsum: Optional[str] = None,
    strategy="exhaustive",
    tile_sizes: Optional[Dict[str, Sequence[int]]] = None,
    max_loop_orders: Optional[int] = None,
    metric: str = "exec_seconds",
    prune_to: Optional[int] = None,
    prune_metrics: str = "auto",
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    seed: int = 0,
    samples: int = 32,
    beam_width: int = 4,
    opset: OpSet = ARITHMETIC,
    opsets=None,
    shapes: Optional[Dict[str, int]] = None,
    energy_model=None,
    backend=None,
    metrics: str = "auto",
    prep_cache: Optional[PrepCache] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.05,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
    cache=None,
    validate: str = "off",
) -> SearchResult:
    """Search one Einsum's mapping space and rank the outcomes.

    ``strategy`` picks the candidate generator: ``"exhaustive"`` (the
    whole space), ``"random"`` (``samples`` seeded draws), ``"beam"``
    (greedy refinement from ``beam_width`` survivors per round), or any
    :class:`~repro.search.strategies.SearchStrategy` instance.

    ``workers`` sizes the thread pool of the parallel candidate
    evaluation (default :func:`~repro.model.evaluate.default_workers`);
    ``workers=1`` forces the serial sweep.  Parallel and serial runs
    produce bit-identical candidate lists and rankings.  ``executor``
    accepts only ``None`` or ``"thread"`` (the one in-process pool);
    a sweep that needs several processes runs through
    :mod:`repro.search.jobs` instead.

    ``prune_to=k`` enables two-phase pruning: every candidate is scored
    with ``prune_metrics`` and only the best ``k`` are kept.  With
    ``"auto"`` (the vector kernels, bit-identical to the trace) the
    scores are exact and nothing is re-priced; with ``"analytical"``
    (sparsity statistics alone, which needs ``k`` large enough to
    absorb its documented error bounds) the ``k`` survivors are
    re-priced exactly with ``metrics="auto"``.  See the module
    docstring for the contract.
    ``metric`` picks the ranking scalar: ``"exec_seconds"``,
    ``"cycles"``, ``"traffic"``, or ``"energy"``.

    Every run is *supervised*: ``timeout`` bounds each candidate's
    wall-clock evaluation (pooled runs only — the serial path cannot
    preempt itself), transient worker failures retry up to
    ``max_retries`` times with ``retry_backoff``-seconded exponential
    backoff, and deterministic spec errors are recorded on
    ``result.failures`` (never retried) instead of killing the sweep.
    ``journal=path`` writes a crash-safe artifact directory —
    ``manifest.json`` (atomic) plus an append-only ``journal.jsonl``
    checkpointing every priced candidate — and ``resume=path`` picks a
    killed sweep back up, adopting every journaled result bit-identically
    and re-evaluating only what is missing.  See
    :mod:`repro.search.journal` for the layout and the resume-identity
    contract (:class:`~repro.search.journal.ResumeMismatchError`).

    ``cache=dir`` (a directory path or a
    :class:`~repro.store.PersistentStore`) makes the sweep read-through
    and write-through a disk-backed cross-process store: every priced
    candidate is published under its durable key (spec fingerprint +
    tensor content digests + opset + shapes), and a
    re-run of the same sweep — in this process or any other — adopts
    the stored results bit-identically instead of re-evaluating.  With
    the default backend the compile cache is store-backed too, so warm
    sweeps skip lowering.  The journal checkpoints *one sweep's*
    progress; the store is shared across sweeps and processes — they
    compose (a resumed journal run with ``cache=`` fills gaps from the
    store first).  Arguments without a durable key bypass the store
    with a :class:`~repro.model.evaluate.StoreBypassWarning`.

    ``validate`` engages static verification (see
    :func:`~repro.model.evaluate.lint_gate` and
    :mod:`repro.analysis`): the base spec is linted up front
    (``"strict"`` rejects it on error findings, ``"warn"`` warns), and
    every proposed candidate runs through the linter's cheap
    error-severity feasibility subset *before* phase-1 pricing —
    statically-infeasible mappings are dropped without evaluating
    anything, counted in ``result.stats["statically_pruned"]``.  Only
    error rules prune, so the surviving ranking (and the best
    candidate) is bit-identical to an unpruned run.
    """
    if executor not in (None, "thread"):
        raise ValueError(
            f"executor={executor!r} is not supported: search() fans out "
            "over threads only (executor=None or 'thread'); run a "
            "multi-process sweep through repro.search.jobs (submit / "
            "run_worker / gather)"
        )
    runner = SearchRunner(
        spec, tensors, einsum=einsum, opset=opset, opsets=opsets,
        shapes=shapes, energy_model=energy_model, backend=backend,
        metrics=metrics, metric=metric, workers=workers,
        prune_to=prune_to,
        prune_metrics=prune_metrics, prep_cache=prep_cache,
        timeout=timeout, max_retries=max_retries,
        retry_backoff=retry_backoff, journal=journal, resume=resume,
        cache=cache, validate=validate,
    )
    space = MappingSpace.of(_einsum_ranks(spec, runner.einsum),
                            tile_sizes, max_loop_orders)
    strat = resolve_strategy(strategy, seed=seed, samples=samples,
                             beam_width=beam_width)
    return runner.run(strat, space)


def explore(
    spec: AcceleratorSpec,
    tensors,
    einsum: Optional[str] = None,
    tile_sizes: Optional[Dict[str, Sequence[int]]] = None,
    max_loop_orders: Optional[int] = None,
    opset: OpSet = ARITHMETIC,
    backend=None,
    metrics: str = "auto",
) -> SearchResult:
    """Sweep mappings of one Einsum serially and evaluate each on real
    tensors — the simple exhaustive entry point (and the one for any
    caller that needs strictly sequential evaluation).  :func:`search`
    is the parallel, pruned superset.

    Each candidate runs through the selected execution ``backend``
    (compiled generated-Python kernels by default) with the given
    ``metrics`` mode (``"auto"`` by default); candidates share the
    process-wide compile cache and one sweep-wide
    :class:`~repro.model.backend.PrepCache`, so re-exploring after a
    workload change pays no lowering cost and candidates agreeing on a
    tensor's storage order reuse one prepared tensor and one arena.
    """
    return search(spec, tensors, einsum=einsum, strategy="exhaustive",
                  tile_sizes=tile_sizes, max_loop_orders=max_loop_orders,
                  opset=opset, backend=backend, metrics=metrics,
                  workers=1)


def explore_cascade(
    spec: AcceleratorSpec,
    tensors,
    tile_sizes: Optional[Dict[str, Sequence[int]]] = None,
    max_loop_orders: Optional[int] = None,
    strategy="exhaustive",
    metric: str = "exec_seconds",
    prune_to: Optional[int] = None,
    prune_metrics: str = "auto",
    workers: Optional[int] = None,
    seed: int = 0,
    samples: int = 32,
    beam_width: int = 4,
    opset: OpSet = ARITHMETIC,
    opsets=None,
    shapes: Optional[Dict[str, int]] = None,
    energy_model=None,
    backend=None,
    metrics: str = "auto",
    timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.05,
    validate: str = "off",
) -> CascadeSearchResult:
    """Search every Einsum's mapping in cascade (topological) order,
    carrying the best prefix forward — the paper's future-work rung.

    Einsum ``i`` is searched with Einsums ``0..i-1`` pinned to their
    already-chosen best mappings (and later Einsums at the spec's
    original mappings); every candidate is scored on the *whole
    cascade's* metric, so upstream choices that help downstream Einsums
    win.  ``tile_sizes`` applies per rank wherever that rank appears.

    Returns a :class:`~repro.search.results.CascadeSearchResult` whose
    ``spec`` carries every chosen mapping and whose ``best_result`` is
    the full-cascade evaluation under them.
    """
    out = CascadeSearchResult()
    current = spec
    prep_cache = PrepCache()
    for e in spec.einsum.cascade:
        ranks = [rank_of_var(v) for v in e.all_vars]
        ts = {r: sizes for r, sizes in (tile_sizes or {}).items()
              if r in ranks}
        result = search(
            current, tensors, einsum=e.name, strategy=strategy,
            tile_sizes=ts, max_loop_orders=max_loop_orders, metric=metric,
            prune_to=prune_to, prune_metrics=prune_metrics,
            workers=workers, seed=seed, samples=samples,
            beam_width=beam_width, opset=opset, opsets=opsets,
            shapes=shapes, energy_model=energy_model,
            backend=backend, metrics=metrics, prep_cache=prep_cache,
            timeout=timeout, max_retries=max_retries,
            retry_backoff=retry_backoff, validate=validate,
        )
        cand, res = result.best(metric)
        current = apply_candidate(current, e.name, cand)
        out.per_einsum[e.name] = result
        out.best_candidates[e.name] = cand
        out.best_result = res
    out.spec = current
    return out
