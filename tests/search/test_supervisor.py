"""Fault-injection coverage of the sweep supervision layer.

Every recovery path of :class:`repro.search.supervisor.SweepSupervisor`
is driven deterministically through the env-gated hook in
``repro.model.executor`` (armed by :class:`faults.FaultPlan`): poison
candidates recorded without retry, transient crashes retried to
bit-identical success, hangs timed out and their pools retired,
``KeyboardInterrupt`` drained into a finalized journal, and killed
sweeps resumed bit-identically from a truncated journal.  No test
sleeps to synchronize: hangs block on an event the harness releases at
teardown, and counters are exact across threads.
"""

import json
import os

import pytest

from faults import FaultPlan, WorkerCrash
from repro.model import evaluate_many
from repro.search import (
    CandidateTimeoutError,
    ResumeMismatchError,
    SweepJournal,
    classify_failure,
    metrics_fingerprint,
    search,
)
from repro.search.journal import JOURNAL_NAME
from repro.spec import load_spec
from repro.workloads import uniform_random

BASE = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""

BUFFERED = BASE + """
architecture:
  Buffered:
    clock: 1.0e9
    subtree:
      - name: System
        local:
          - name: DRAM
            class: DRAM
            attributes: {bandwidth: 128}
          - name: ABuf
            class: Buffer
            attributes: {type: buffet, width: 64, depth: 256}
          - name: ALU
            class: Compute
            attributes: {type: mul}
binding:
  Z:
    config: Buffered
    components:
      ABuf:
        - {tensor: A, rank: K, type: elem, style: lazy, evict-on: M}
      ALU:
        - op: mul
"""

#: How ``apply_candidate`` names one specific candidate's spec — rules
#: match on this substring, so faults target exactly one candidate.
TARGET = "loop=[K, N, M]"

#: Wall-clock budget per candidate in the hang tests.  Two orders of
#: magnitude above a real evaluation (~ms), so only the injected hang —
#: which blocks *forever* until released — can ever hit it.
TIMEOUT = 1.0


@pytest.fixture(scope="module")
def tensors():
    a = uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=1)
    b = uniform_random("B", ["K", "N"], (24, 16), 0.25, seed=2)
    return {"A": a, "B": b}


@pytest.fixture
def plan(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECTION", "1")
    p = FaultPlan(str(tmp_path / "faults"))
    os.makedirs(p.root, exist_ok=True)
    p.install()
    yield p
    p.uninstall()


def _fingerprints(result):
    return [(cand, metrics_fingerprint(res))
            for cand, res in result.candidates]


class TestSeam:
    def test_hook_refuses_to_arm_without_env_gate(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECTION", raising=False)
        p = FaultPlan(str(tmp_path))
        with pytest.raises(RuntimeError, match="REPRO_FAULT_INJECTION"):
            p.install()

    def test_classifier_splits_transient_from_deterministic(self):
        assert classify_failure(ValueError("spec")) == "deterministic"
        assert classify_failure(WorkerCrash("died")) == "transient"
        assert classify_failure(CandidateTimeoutError("slow")) == "transient"


class TestPoison:
    def test_poison_recorded_not_retried(self, plan, tensors):
        spec = load_spec(BASE)
        rule = plan.add(TARGET, "poison", times=99)
        result = search(spec, tensors, workers=1, retry_backoff=0)
        assert len(result.candidates) == 5  # the poisoned one is gone
        assert result.best() is not None    # sweep still ranks the rest
        [failure] = result.failures
        assert failure.classification == "deterministic"
        assert failure.attempts == 1
        assert "injected poison" in failure.error
        assert result.stats["n_retried"] == 0
        assert plan.fired(rule) == 1  # evaluated once, never retried

    def test_poison_in_thread_pool_same_outcome(self, plan, tensors):
        spec = load_spec(BASE)
        rule = plan.add(TARGET, "poison", times=99)
        result = search(spec, tensors, workers=2, executor="thread",
                        retry_backoff=0)
        assert len(result.candidates) == 5
        assert result.failures[0].classification == "deterministic"
        assert plan.fired(rule) == 1


class TestCrash:
    def test_transient_crash_retried_to_bitidentical_success(self, plan,
                                                             tensors):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)  # no rules armed yet
        rule = plan.add(TARGET, "crash", times=1)
        result = search(spec, tensors, workers=2, executor="thread",
                        retry_backoff=0)
        assert len(result.candidates) == 6
        assert not result.failures
        assert result.stats["n_retried"] == 1
        assert plan.fired(rule) == 2  # the crash, then the clean retry
        assert _fingerprints(result) == _fingerprints(baseline)

    def test_crash_exhausts_retry_budget(self, plan, tensors):
        spec = load_spec(BASE)
        rule = plan.add(TARGET, "crash", times=99)
        result = search(spec, tensors, workers=2, executor="thread",
                        max_retries=1, retry_backoff=0)
        assert len(result.candidates) == 5
        [failure] = result.failures
        assert failure.classification == "transient"
        assert failure.kind == "error"
        assert failure.attempts == 2  # the attempt plus one retry
        assert plan.fired(rule) == 2


class TestHang:
    def test_hang_times_out_then_retry_succeeds(self, plan, tensors):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        rule = plan.add(TARGET, "hang", times=1)
        result = search(spec, tensors, workers=2, executor="thread",
                        timeout=TIMEOUT, retry_backoff=0)
        assert len(result.candidates) == 6
        assert not result.failures
        assert result.stats["n_retried"] >= 1
        assert plan.fired(rule) == 2  # the hang, then the clean retry
        assert _fingerprints(result) == _fingerprints(baseline)

    def test_hang_exhausts_retries_records_timeout(self, plan, tensors):
        spec = load_spec(BASE)
        plan.add(TARGET, "hang", times=99)
        result = search(spec, tensors, workers=2, executor="thread",
                        timeout=TIMEOUT, max_retries=0, retry_backoff=0)
        assert len(result.candidates) == 5
        [failure] = result.failures
        assert failure.kind == "timeout"
        assert failure.classification == "transient"
        assert "wall-clock timeout" in failure.error


class TestInterrupt:
    def test_interrupt_drains_finalizes_and_resumes(self, plan, tensors,
                                                    tmp_path):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        path = str(tmp_path / "sweep")
        plan.add(TARGET, "interrupt", times=1)
        with pytest.raises(KeyboardInterrupt):
            search(spec, tensors, workers=2, executor="thread",
                   journal=path, retry_backoff=0)
        # The journal was finalized as interrupted, with every drained
        # in-flight result checkpointed before the interrupt propagated.
        journal = SweepJournal.resume(path)
        assert journal.final["status"] == "interrupted"
        drained = len(journal.results_for(1))
        assert drained >= 1
        journal.close()
        # Resume completes the sweep bit-identically (the interrupt rule
        # is spent, so the re-evaluated candidate now prices cleanly).
        resumed = search(spec, tensors, workers=1, resume=path)
        assert resumed.stats["n_adopted"] == drained
        assert _fingerprints(resumed) == _fingerprints(baseline)
        assert resumed.best()[0] == baseline.best()[0]

    def test_serial_interrupt_finalizes_journal(self, plan, tensors,
                                                tmp_path):
        spec = load_spec(BASE)
        path = str(tmp_path / "sweep")
        plan.add(TARGET, "interrupt", times=1)
        with pytest.raises(KeyboardInterrupt):
            search(spec, tensors, workers=1, journal=path)
        journal = SweepJournal.resume(path)
        assert journal.final["status"] == "interrupted"
        journal.close()


class TestKillAndResume:
    def _truncate(self, path, keep_lines):
        """Replay a mid-run kill: keep the first ``keep_lines`` journal
        records and a torn half of the next one."""
        journal_file = os.path.join(path, JOURNAL_NAME)
        lines = open(journal_file).readlines()
        assert len(lines) > keep_lines + 1
        torn = lines[keep_lines][: len(lines[keep_lines]) // 2].rstrip("\n")
        open(journal_file, "w").write("".join(lines[:keep_lines]) + torn)

    def test_truncated_journal_resumes_bit_identically(self, plan, tensors,
                                                       tmp_path):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        path = str(tmp_path / "sweep")
        full = search(spec, tensors, workers=1, journal=path)
        assert len(full.candidates) == 6
        self._truncate(path, keep_lines=3)

        rule = plan.add("accelerator", "count")  # counts every evaluation
        resumed = search(spec, tensors, workers=1, resume=path)
        # Only the candidates lost to the truncation were re-evaluated.
        assert resumed.stats["n_adopted"] == 3
        assert plan.fired(rule) == 3
        assert _fingerprints(resumed) == _fingerprints(baseline)
        assert resumed.best()[0] == baseline.best()[0]
        assert metrics_fingerprint(resumed.best()[1]) \
            == metrics_fingerprint(baseline.best()[1])
        # And the resumed journal is finalized with the same best.
        journal = SweepJournal.resume(path)
        assert journal.final["status"] == "complete"
        assert journal.final["fingerprint"] \
            == metrics_fingerprint(baseline.best()[1])
        journal.close()

    def test_pruned_sweep_resumes_phase2_bit_identically(self, plan,
                                                         tensors, tmp_path):
        # Phase 2 runs only behind the approximate analytical surrogate.
        spec = load_spec(BUFFERED)
        kwargs = dict(workers=1, prune_to=2, prune_metrics="analytical")
        baseline = search(spec, tensors, **kwargs)
        path = str(tmp_path / "sweep")
        full = search(spec, tensors, journal=path, **kwargs)
        assert len(full.candidates) == 2
        # Tear mid-way through phase 2: all 6 phase-1 records survive,
        # the phase-2 records are lost.
        self._truncate(path, keep_lines=6)

        rule = plan.add("accelerator", "count")
        resumed = search(spec, tensors, resume=path, **kwargs)
        assert resumed.stats["n_adopted"] == 6  # all of phase 1 adopted
        assert plan.fired(rule) == 2            # only phase 2 re-priced
        assert _fingerprints(resumed) == _fingerprints(baseline)

    def test_resume_under_different_sweep_raises(self, tensors, tmp_path):
        spec = load_spec(BASE)
        path = str(tmp_path / "sweep")
        search(spec, tensors, workers=1, journal=path)
        with pytest.raises(ResumeMismatchError, match="metric"):
            search(spec, tensors, workers=1, metric="energy", resume=path)
        other = {
            "A": uniform_random("A", ["K", "M"], (12, 10), 0.5, seed=7),
            "B": uniform_random("B", ["K", "N"], (12, 8), 0.5, seed=8),
        }
        with pytest.raises(ResumeMismatchError, match="workloads"):
            search(spec, other, workers=1, resume=path)


class TestEvaluateManySupervision:
    def _workloads(self, n=4):
        return [
            {"A": uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=s),
             "B": uniform_random("B", ["K", "N"], (24, 16), 0.25,
                                 seed=s + 100)}
            for s in range(n)
        ]

    def test_transient_crash_retried(self, plan):
        spec = load_spec(BASE)
        workloads = self._workloads()
        baseline = evaluate_many(spec, workloads, workers=1)
        rule = plan.add("accelerator", "crash", times=1)
        results = evaluate_many(spec, workloads, workers=2,
                                retry_backoff=0)
        assert len(results) == len(workloads)
        assert plan.fired(rule) == len(workloads) + 1  # one retry
        assert [metrics_fingerprint(r) for r in results] \
            == [metrics_fingerprint(r) for r in baseline]

    def test_deterministic_failure_reraises(self, plan):
        spec = load_spec(BASE)
        plan.add("accelerator", "poison", times=99)
        with pytest.raises(ValueError, match="injected poison"):
            evaluate_many(spec, self._workloads(), workers=2,
                          retry_backoff=0)

    def test_exhausted_timeout_reraises(self, plan):
        spec = load_spec(BASE)
        plan.add("accelerator", "hang", times=1)
        with pytest.raises(CandidateTimeoutError):
            evaluate_many(spec, self._workloads(2), workers=2,
                          timeout=TIMEOUT, max_retries=0, retry_backoff=0)


class TestJournalArtifacts:
    def test_manifest_identifies_the_sweep(self, tensors, tmp_path):
        spec = load_spec(BASE)
        path = str(tmp_path / "sweep")
        search(spec, tensors, workers=1, journal=path, seed=3,
               strategy="random", samples=4)
        manifest = json.load(open(os.path.join(path, "manifest.json")))
        assert manifest["einsum"] == "Z"
        assert manifest["strategy"]["name"] == "random"
        assert manifest["strategy"]["seed"] == 3
        assert manifest["strategy"]["samples"] == 4
        assert len(manifest["spec_fingerprint"]) == 64
        assert manifest["workloads"]["A"]["rank_ids"] == ["K", "M"]

    def test_journal_and_resume_paths_must_agree(self, tensors, tmp_path):
        spec = load_spec(BASE)
        with pytest.raises(ValueError, match="different paths"):
            search(spec, tensors, journal=str(tmp_path / "a"),
                   resume=str(tmp_path / "b"))


class TestDecorrelatedJitter:
    def _supervisor(self, **kw):
        import random

        from repro.search.supervisor import SweepSupervisor

        kw.setdefault("rng", random.Random(7))
        kw.setdefault("backoff", 0.05)
        return SweepSupervisor(workers=1, **kw)

    def test_seeded_rng_makes_the_schedule_deterministic(self):
        import random

        a = self._supervisor(rng=random.Random(42))
        b = self._supervisor(rng=random.Random(42))
        schedule = [a._backoff_for(i) for i in range(1, 8)]
        assert schedule == [b._backoff_for(i) for i in range(1, 8)]
        # ...and a different seed decorrelates two supervisors that
        # fail at the same instants.
        c = self._supervisor(rng=random.Random(43))
        assert schedule != [c._backoff_for(i) for i in range(1, 8)]

    def test_values_stay_within_base_and_cap(self):
        sup = self._supervisor(backoff_cap=0.4)
        for i in range(1, 50):
            value = sup._backoff_for(i)
            assert 0.05 <= value <= 0.4

    def test_cap_bounds_the_growth(self):
        sup = self._supervisor(backoff_cap=0.12)
        values = [sup._backoff_for(i) for i in range(1, 30)]
        assert max(values) <= 0.12
        # The schedule actually reaches the cap: growth is real.
        assert any(v > 0.1 for v in values)

    def test_zero_backoff_disables_sleeping_entirely(self):
        sup = self._supervisor(backoff=0)
        assert all(sup._backoff_for(i) == 0.0 for i in range(1, 5))

    def test_retries_sleep_jittered_durations(self):
        """End to end through ``run_batch``: a transiently failing item's
        retries sleep positive, non-identical, capped durations drawn
        from the injected schedule — and the item still completes."""
        import random

        from repro.search.supervisor import SweepSupervisor

        slept = []
        failures = [3]  # transient failures before the item succeeds

        def flaky(item):
            if failures[0] > 0:
                failures[0] -= 1
                raise RuntimeError("injected transient failure")
            return item * 10

        sup = SweepSupervisor(workers=1, backoff=0.05, max_retries=3,
                              rng=random.Random(7),
                              sleep=slept.append)
        results = sup.run_batch([1], flaky)
        assert results == [(1, 10)]
        assert len(slept) == 3
        assert all(0.05 <= s <= sup.backoff_cap for s in slept)
        assert len(set(slept)) > 1  # jitter: not a constant schedule
