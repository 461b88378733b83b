"""The leased batch job runner (:mod:`repro.search.jobs`).

Lifecycle (submit / poll / claim / drain / gather), bit-identity of a
gathered job against an in-process ``search()``, lease expiry and
takeover with an injected clock, epoch fencing of a taken-over claim
(and of a worker that wakes up after the takeover), a worker process
killed mid-shard, dup-tolerant result loading, and the named version
error on a foreign-protocol manifest.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from faults import FaultPlan
from repro.einsum.operators import OpSet
from repro.search import (
    JobError,
    LeaseLostError,
    PayloadVersionError,
    claim,
    gather,
    poll,
    run_worker,
    search,
    submit,
)
from repro.spec import load_spec
from repro.store import PersistentStore
from repro.workloads import uniform_random

FORK = multiprocessing.get_start_method() == "fork"

BASE = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""

#: One candidate of BASE's 6-candidate untiled space (see
#: test_supervisor.py for the naming convention the fault hook matches).
TARGET = "loop=[K, N, M]"


@pytest.fixture(scope="module")
def tensors():
    return {
        "A": uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=1),
        "B": uniform_random("B", ["K", "N"], (24, 16), 0.25, seed=2),
    }


@pytest.fixture
def plan(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECTION", "1")
    p = FaultPlan(str(tmp_path / "faults"))
    os.makedirs(p.root, exist_ok=True)
    p.install()
    yield p
    p.uninstall()


def _fingerprints(result):
    from repro.search.results import metrics_fingerprint

    return [(cand, metrics_fingerprint(res))
            for cand, res in result.candidates]


def _shard_state(path, shard):
    """The lease, the results file and the done/ directory of a job, as
    bytes — what a fenced claim must leave untouched."""
    def read(*parts):
        try:
            with open(os.path.join(path, *parts), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    return (read("leases", f"shard-{shard:04d}.lease"),
            read("results", f"shard-{shard:04d}.jsonl"),
            sorted(os.listdir(os.path.join(path, "done"))))


class TestSubmit:
    def test_submit_shards_round_robin(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        manifest = submit(path, load_spec(BASE), tensors, shards=2)
        assert manifest["shards"] == [0, 1]
        assert manifest["n_candidates"] == 6
        shard0 = json.load(open(os.path.join(path, "shards",
                                             "shard-0000.json")))
        assert len(shard0["candidates"]) == 3
        status = poll(path)
        assert status.shards_open == 2
        assert status.candidates_done == 0
        assert not status.done

    def test_more_shards_than_candidates(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        manifest = submit(path, load_spec(BASE), tensors, shards=8)
        assert len(manifest["shards"]) == 6  # empty shards dropped
        assert run_worker(path) == 6
        assert len(gather(path).candidates) == 6

    def test_requires_a_named_opset(self, tensors, tmp_path):
        with pytest.raises(JobError, match="named opset"):
            submit(str(tmp_path / "job"), load_spec(BASE), tensors,
                   opset=OpSet(name="bespoke"))

    def test_missing_manifest_is_a_job_error(self, tmp_path):
        with pytest.raises(JobError, match="manifest"):
            poll(str(tmp_path / "nowhere"))


class TestLifecycle:
    def test_claim_lease_and_mutual_exclusion(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        submit(path, load_spec(BASE), tensors, shards=2)
        first = claim(path, worker="w1")
        second = claim(path, worker="w2")
        # Two claimants hold different shards; a third finds none left.
        assert first.shard != second.shard
        assert claim(path, worker="w3") is None
        assert poll(path).shards_leased == 2

    def test_drain_complete_and_poll(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        submit(path, load_spec(BASE), tensors, shards=3)
        assert run_worker(path, worker="w1", max_shards=1) == 1
        status = poll(path)
        assert status.shards_done == 1
        assert status.candidates_done == 2
        assert run_worker(path, worker="w1") == 2
        assert poll(path).done

    def test_gather_is_bit_identical_to_search(self, tensors, tmp_path):
        spec = load_spec(BASE)
        ref = search(spec, tensors, tile_sizes={"K": [8, 24]}, workers=1)
        path = str(tmp_path / "job")
        submit(path, spec, tensors, tile_sizes={"K": [8, 24]}, shards=3)
        run_worker(path)
        job = gather(path)
        assert _fingerprints(job) == _fingerprints(ref)
        assert job.best()[0] == ref.best()[0]
        assert job.stats["n_failed"] == 0

    def test_strict_gather_refuses_unfinished(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        submit(path, load_spec(BASE), tensors, shards=2)
        run_worker(path, max_shards=1)
        with pytest.raises(JobError, match="not finished"):
            gather(path)
        partial = gather(path, strict=False)
        assert len(partial.candidates) == 3

    def test_workers_share_a_store(self, tensors, tmp_path):
        spec = load_spec(BASE)
        path = str(tmp_path / "job")
        cache = str(tmp_path / "cache")
        submit(path, spec, tensors, shards=2, cache=cache)
        run_worker(path)
        job = gather(path)
        ref = search(spec, tensors, workers=1)
        assert _fingerprints(job) == _fingerprints(ref)
        # The job populated the store; a plain cached search now runs warm.
        store = PersistentStore(cache)
        warm = search(spec, tensors, workers=1, cache=store)
        assert _fingerprints(warm) == _fingerprints(ref)
        assert store.stats.hits == len(ref.candidates)


class TestLeaseExpiry:
    def test_stale_lease_is_taken_over_and_work_adopted(
            self, tensors, tmp_path):
        path = str(tmp_path / "job")
        submit(path, load_spec(BASE), tensors, shards=2)
        now = [1000.0]
        clock = lambda: now[0]
        # w1 claims shard 0, records one candidate, then goes silent.
        c1 = claim(path, worker="w1", lease_ttl=30.0, clock=clock)
        assert c1.shard == 0 and c1.epoch == 1
        cand = c1.pending[0]
        from repro.model.evaluate import evaluate
        from repro.search.runner import apply_candidate

        spec = load_spec(BASE)
        result = evaluate(apply_candidate(spec, "Z", cand), dict(tensors))
        c1.record(cand, result, result.exec_seconds)
        # Within the TTL the lease repels claimants (w1 gets shard 1).
        c2 = claim(path, worker="w2", lease_ttl=30.0, clock=clock)
        assert c2.shard == 1
        assert claim(path, worker="w3", lease_ttl=30.0, clock=clock) is None
        # Past the TTL the lease is stale: w3 takes shard 0 over at the
        # next epoch, adopting the dead worker's one record.
        now[0] += 31.0
        c3 = claim(path, worker="w3", lease_ttl=30.0, clock=clock)
        assert c3.shard == 0
        assert c3.epoch == 2
        assert len(c3.done_keys) == 1
        assert len(c3.pending) == len(c3.candidates) - 1

    def test_taken_over_claim_is_fenced(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        spec = load_spec(BASE)
        submit(path, spec, tensors, shards=2)
        now = [1000.0]
        clock = lambda: now[0]
        c1 = claim(path, worker="w1", lease_ttl=30.0, clock=clock)
        from repro.model.evaluate import evaluate
        from repro.search.runner import apply_candidate

        cand = c1.pending[0]
        result = evaluate(apply_candidate(spec, "Z", cand), dict(tensors))
        c1.record(cand, result, result.exec_seconds)
        now[0] += 31.0
        c3 = claim(path, worker="w3", lease_ttl=30.0, clock=clock)
        assert (c3.shard, c3.epoch) == (c1.shard, 2)
        # w1 wakes up: every write of its stale claim is refused and
        # leaves w3's lease, the results and done/ exactly as they were.
        before = _shard_state(path, c1.shard)
        later = c1.pending[0]
        for write in (c1.heartbeat,
                      lambda: c1.record(later, result, 0.0),
                      lambda: c1.record_failure(later, "late"),
                      c1.complete):
            with pytest.raises(LeaseLostError, match="epoch 2"):
                write()
            assert _shard_state(path, c1.shard) == before
        assert isinstance(LeaseLostError("x"), JobError)
        # The new owner is unaffected and finishes the job.
        c3.heartbeat()
        c3.complete()
        assert json.load(open(os.path.join(
            path, "done", f"shard-{c3.shard:04d}")))["worker"] == "w3"

    def test_woken_worker_drops_its_fenced_shard(
            self, tensors, plan, tmp_path):
        """A worker paused at its first append (an injected hang) while
        a survivor takes its shard over: on waking it records nothing,
        claims no further shard, and the job gathers bit-identically."""
        spec = load_spec(BASE)
        ref = search(spec, tensors, workers=1)
        path = str(tmp_path / "job")
        submit(path, spec, tensors, shards=2)
        rule = plan.add("jobs-record:shard-0000", "hang", times=1)
        shards = []
        sleeper = threading.Thread(target=lambda: shards.append(
            run_worker(path, worker="sleeper", lease_ttl=30.0)))
        sleeper.start()
        deadline = time.monotonic() + 60.0
        while plan.fired(rule) == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert plan.fired(rule) == 1
        # The sleeper holds shard 0's lease; the survivor's clock runs
        # past its TTL, takes shard 0 over and completes both shards.
        clock = lambda: time.time() + 1000.0
        assert run_worker(path, worker="survivor", lease_ttl=30.0,
                          clock=clock) == 2
        before = _shard_state(path, 0)
        plan.release()
        sleeper.join(60.0)
        assert not sleeper.is_alive()
        assert shards == [0]  # fenced: the shard was dropped, not done
        assert _shard_state(path, 0) == before
        records = open(os.path.join(path, "results", "shard-0000.jsonl"),
                       "rb").read().decode()
        assert "sleeper" not in records
        job = gather(path)
        assert _fingerprints(job) == _fingerprints(ref)

    def test_heartbeat_keeps_a_slow_worker_alive(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        submit(path, load_spec(BASE), tensors, shards=1)
        now = [0.0]
        clock = lambda: now[0]
        c1 = claim(path, worker="w1", lease_ttl=30.0, clock=clock)
        now[0] += 29.0
        c1.heartbeat()
        now[0] += 29.0  # 58s since claim, 29s since heartbeat: still live
        assert claim(path, worker="w2", lease_ttl=30.0, clock=clock) is None


def _doomed_worker(path):
    run_worker(path, worker="doomed", lease_ttl=30.0)


class TestKilledWorkerProcess:
    @pytest.mark.skipif(not FORK, reason="needs fork start method")
    def test_killed_workers_shard_is_reclaimed_and_completed(
            self, tensors, plan, tmp_path):
        spec = load_spec(BASE)
        ref = search(spec, tensors, workers=1)
        path = str(tmp_path / "job")
        submit(path, spec, tensors, shards=2)
        # The worker process dies (os._exit) at its first append to
        # shard 0 — after claiming it, before recording anything.
        rule = plan.add("jobs-record:shard-0000", "exit", times=1)
        proc = multiprocessing.Process(target=_doomed_worker, args=(path,))
        proc.start()
        proc.join(120)
        assert proc.exitcode == 13
        assert plan.fired(rule) == 1
        # The dead worker left a live-looking lease behind...
        status = poll(path, lease_ttl=30.0)
        assert status.shards_done == 0
        assert status.shards_leased == 1
        # ...which a survivor takes over once it expires (injected
        # clock: no sleeping through a real TTL).
        clock = lambda: time.time() + 1000.0
        assert run_worker(path, worker="survivor", lease_ttl=30.0,
                          clock=clock) == 2
        done = json.load(open(os.path.join(path, "done", "shard-0000")))
        assert done["worker"] == "survivor"
        assert done["epoch"] == 2
        job = gather(path)
        assert _fingerprints(job) == _fingerprints(ref)
        assert job.best()[0] == ref.best()[0]


class TestDupTolerance:
    def test_garbage_and_duplicate_lines_are_dropped(
            self, tensors, tmp_path):
        spec = load_spec(BASE)
        ref = search(spec, tensors, workers=1)
        path = str(tmp_path / "job")
        submit(path, spec, tensors, shards=2)
        run_worker(path)
        results_file = os.path.join(path, "results", "shard-0000.jsonl")
        lines = open(results_file, "rb").readlines()
        with open(results_file, "ab") as fh:
            fh.write(b"torn half of a rec")           # no newline, no sha
            fh.write(b"\n{\"r\": {\"key\": \"x\"}}\n")  # sha missing
            fh.write(lines[0])                        # duplicate (wakes up)
        job = gather(path)
        assert _fingerprints(job) == _fingerprints(ref)

    def test_foreign_pickle_protocol_raises_named_error(
            self, tensors, tmp_path):
        path = str(tmp_path / "job")
        submit(path, load_spec(BASE), tensors, shards=1)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["pickle_protocol"] = 99
        json.dump(manifest, open(manifest_path, "w"))
        for op in (poll, run_worker, gather):
            with pytest.raises(PayloadVersionError, match="protocol"):
                op(path)


class TestFailures:
    def test_poison_candidate_is_recorded_not_fatal(
            self, tensors, plan, tmp_path):
        spec = load_spec(BASE)
        path = str(tmp_path / "job")
        submit(path, spec, tensors, shards=2)
        plan.add(TARGET, "poison", times=1)
        run_worker(path)
        assert poll(path).done
        job = gather(path)
        assert job.stats["n_failed"] == 1
        assert "poison" in job.failures[0]["error"]
        assert len(job.candidates) == 5  # the other five priced normally
        ref = search(spec, tensors, workers=1)
        ref_fps = dict(_fingerprints(ref))
        assert all(fp == ref_fps[c] for c, fp in _fingerprints(job))
