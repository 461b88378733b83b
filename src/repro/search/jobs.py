"""Leased batch jobs: a sweep sharded across independent processes.

:func:`search` parallelizes one sweep over threads *inside* one
process; this module is the one multi-process path.  It turns a sweep
into an on-disk **job directory** that any number of unrelated worker
processes — different shells, different machines on a shared
filesystem — chew through cooperatively and crash-safely:

* :func:`submit` enumerates the mapping space deterministically, splits
  the candidates round-robin into ``shards`` shard files, and writes the
  job manifest plus a checksummed pickled payload (spec + tensors +
  evaluation parameters).  Everything is committed write-temp →
  ``fsync`` → ``os.replace``, so a job directory is never observed
  half-submitted.
* :func:`claim` hands a worker the next available shard under an
  advisory ``flock`` on ``claim.lock``: done shards are skipped, live
  leases are respected, and a lease whose heartbeat is older than
  ``lease_ttl`` is **expired and re-claimed** — a worker that died
  mid-shard (kill -9, OOM, lost machine) never strands its shard.
* :class:`ShardClaim` is the worker's side of the lease: it heartbeats
  between candidates, appends one checksummed JSONL record per priced
  candidate (the journal record schema, plus a per-line digest), and
  commits an atomic done marker when the shard is exhausted.  Records
  already on disk — its own from a previous life, or a presumed-dead
  predecessor's — are adopted, not recomputed.  Every write is
  **fenced** by the lease epoch: once a shard was taken over, the old
  claim's heartbeat, record and complete raise :class:`LeaseLostError`
  instead of writing, and :func:`run_worker` drops the shard.
* :func:`poll` summarizes progress; :func:`gather` assembles the
  finished job into a :class:`~repro.search.results.SearchResult`
  **bit-identical** to what a serial in-process ``search()`` over the
  same space would return (results travel as pickled payloads, exactly
  like journal resume adoption).

Two workers can still transiently hold one shard — lease takeover is
by timeout, and a presumed-dead worker may be between its fence check
and its append.  That window is safe by construction: every evaluation
is deterministic (both writers compute bit-identical results), every
result line carries its own checksum (a torn or interleaved line is
detected and dropped, then recomputed or supplied by the other
writer's copy), and the loader deduplicates by candidate key.  The
``cache=`` store (shared with :func:`search`; see :mod:`repro.store`)
plugs in underneath so duplicated work degrades to a cache hit.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..einsum.operators import NAMED_OPSETS
from ..model.backend import spec_fingerprint
from ..model.evaluate import evaluate, store_and_engine
from ..model.executor import fault_point
from ..spec.loader import AcceleratorSpec
from ..store.persistent import (
    PayloadVersionError,
    _FileLock,
    read_entry,
    entry_meta,
    write_entry,
)
from .journal import (
    FORMAT_VERSION,
    PICKLE_PROTOCOL,
    JournalError,
    _pack_result,
    _unpack_result,
    candidate_from_json,
    candidate_key,
    candidate_to_json,
    workloads_fingerprint,
)
from .results import SearchResult, metric_value, metrics_fingerprint
from .runner import _einsum_ranks, _resolve_einsum
from .space import Candidate, MappingSpace, apply_candidate

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.bin"

#: Default seconds without a heartbeat before a lease counts as
#: abandoned and the shard becomes claimable again.
DEFAULT_LEASE_TTL = 30.0


class JobError(JournalError):
    """A job directory is missing, malformed, or used inconsistently."""


class LeaseLostError(JobError):
    """A claim's lease was taken over: the shard now belongs to a later
    epoch, so this claim may no longer write to it."""


def _atomic_json(path: str, obj: Any, fsync: bool = True) -> None:
    """Commit a JSON file atomically (write-temp + fsync + replace)."""
    tmp = path + f".tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    fault_point(f"jobs-commit:{os.path.basename(path)}")
    os.replace(tmp, path)


def _read_json(path: str) -> Optional[Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError:
        # Atomically committed files are never half-written; treat any
        # unparsable file as absent (a stamped-on lease mid-replace on
        # a non-POSIX filesystem, at worst) rather than crashing.
        return None


def _record_line(record: Dict[str, Any]) -> str:
    """One self-verifying JSONL line: the record plus its own digest."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return json.dumps({"r": record, "sha": digest},
                      sort_keys=True, separators=(",", ":")) + "\n"


def _parse_line(line: bytes) -> Optional[Dict[str, Any]]:
    """The verified record of one line, or None (torn / interleaved)."""
    try:
        wrapper = json.loads(line.decode("utf-8"))
        record = wrapper["r"]
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError):
        return None
    if digest != wrapper.get("sha"):
        return None
    return record


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


# ----------------------------------------------------------------------
# Submit
# ----------------------------------------------------------------------
def submit(
    path: str,
    spec: AcceleratorSpec,
    tensors,
    einsum: Optional[str] = None,
    tile_sizes=None,
    max_loop_orders: Optional[int] = None,
    shards: int = 4,
    metric: str = "exec_seconds",
    metrics: str = "auto",
    opset=None,
    shapes: Optional[Dict[str, int]] = None,
    cache: Optional[str] = None,
) -> Dict[str, Any]:
    """Create a job directory at ``path`` and return its manifest.

    The mapping space of ``einsum`` (resolved exactly as in
    :func:`~repro.search.runner.search`) is enumerated deterministically
    and split round-robin into ``shards`` shard files — candidate ``i``
    lands in shard ``i % shards``, so shards are balanced and the
    original enumeration order is recoverable from (shard, position).
    ``opset`` must be a *named* opset (or None for arithmetic): workers
    rebuild it by name.
    ``cache`` (a directory path) is recorded in the manifest; every
    worker then routes its evaluations through that shared
    :class:`~repro.store.PersistentStore`.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    from ..model.evaluate import _opset_token
    from ..einsum.operators import ARITHMETIC

    ops = ARITHMETIC if opset is None else opset
    token = _opset_token(ops)
    if token is None:
        raise JobError(
            "submit() requires a named opset (repro.einsum.operators."
            "NAMED_OPSETS): workers rebuild the opset by name"
        )
    name = _resolve_einsum(spec, einsum)
    space = MappingSpace.of(_einsum_ranks(spec, name), tile_sizes,
                            max_loop_orders)
    candidates = list(space.all())
    if not candidates:
        raise JobError("the mapping space is empty; nothing to submit")

    os.makedirs(path, exist_ok=True)
    for sub in ("shards", "leases", "results", "done"):
        os.makedirs(os.path.join(path, sub), exist_ok=True)

    shard_lists: List[List[Candidate]] = [[] for _ in range(shards)]
    for i, cand in enumerate(candidates):
        shard_lists[i % shards].append(cand)
    shard_ids = []
    for sid, cands in enumerate(shard_lists):
        if not cands:
            continue  # more shards than candidates
        shard_ids.append(sid)
        _atomic_json(
            os.path.join(path, "shards", f"shard-{sid:04d}.json"),
            {"shard": sid,
             "candidates": [candidate_to_json(c) for c in cands]},
        )

    blob = pickle.dumps(
        {"spec": spec, "tensors": dict(tensors)},
        protocol=PICKLE_PROTOCOL,
    )
    write_entry(
        os.path.join(path, PAYLOAD_NAME + ".tmp"),
        os.path.join(path, PAYLOAD_NAME),
        blob,
        entry_meta(blob, protocol=PICKLE_PROTOCOL),
    )

    manifest = {
        "format_version": FORMAT_VERSION,
        "pickle_protocol": PICKLE_PROTOCOL,
        "spec_fingerprint": spec_fingerprint(spec),
        "workloads": workloads_fingerprint(dict(tensors)),
        "einsum": name,
        "metric": metric,
        "metrics": metrics,
        "opset": token,
        "shapes": shapes,
        "cache": cache,
        "shards": shard_ids,
        "n_candidates": len(candidates),
    }
    _atomic_json(os.path.join(path, MANIFEST_NAME), manifest)
    # Touch the claim lock file so claimants need no create race.
    with open(os.path.join(path, "claim.lock"), "ab"):
        pass
    return manifest


def _load_manifest(path: str) -> Dict[str, Any]:
    manifest = _read_json(os.path.join(path, MANIFEST_NAME))
    if manifest is None:
        raise JobError(
            f"no job manifest at {os.path.join(path, MANIFEST_NAME)!r}; "
            "the directory was not written by submit()"
        )
    stamped = manifest.get("pickle_protocol")
    if stamped is not None and stamped > pickle.HIGHEST_PROTOCOL:
        raise PayloadVersionError(
            f"the job at {path!r} pickled its payloads with protocol "
            f"{stamped}, but this Python supports at most protocol "
            f"{pickle.HIGHEST_PROTOCOL}; run workers on the Python "
            "version that submitted the job"
        )
    return manifest


# ----------------------------------------------------------------------
# Poll
# ----------------------------------------------------------------------
@dataclass
class JobStatus:
    """A point-in-time summary of one job directory."""

    shards_total: int
    shards_done: int
    shards_leased: int
    shards_open: int
    candidates_total: int
    candidates_done: int

    @property
    def done(self) -> bool:
        return self.shards_done == self.shards_total


def poll(path: str, lease_ttl: float = DEFAULT_LEASE_TTL,
         clock=time.time) -> JobStatus:
    """Summarize a job's progress (done / live-leased / open shards).

    ``clock`` is the wall-clock source leases are judged against —
    injectable so tests expire leases without sleeping.
    """
    manifest = _load_manifest(path)
    now = clock()
    done = leased = candidates_done = 0
    for sid in manifest["shards"]:
        if os.path.exists(os.path.join(path, "done", f"shard-{sid:04d}")):
            done += 1
        else:
            lease = _read_json(
                os.path.join(path, "leases", f"shard-{sid:04d}.lease"))
            if lease is not None and now - lease["heartbeat"] < lease_ttl:
                leased += 1
        candidates_done += len(_shard_results(path, sid))
    total = len(manifest["shards"])
    return JobStatus(
        shards_total=total, shards_done=done, shards_leased=leased,
        shards_open=total - done - leased,
        candidates_total=manifest["n_candidates"],
        candidates_done=candidates_done,
    )


def _shard_results(path: str, sid: int) -> Dict[str, Dict[str, Any]]:
    """Verified records of one shard, deduplicated by candidate key.

    First record wins on duplicates — a takeover race appends the same
    deterministic result twice at worst.  Torn or interleaved lines
    fail their checksum and are dropped (the surviving writer, or the
    next claimant, re-supplies them).
    """
    out: Dict[str, Dict[str, Any]] = {}
    try:
        fh = open(os.path.join(path, "results", f"shard-{sid:04d}.jsonl"),
                  "rb")
    except FileNotFoundError:
        return out
    with fh:
        for line in fh:
            record = _parse_line(line)
            if record is not None and record["key"] not in out:
                out[record["key"]] = record
    return out


# ----------------------------------------------------------------------
# Claim / the worker side
# ----------------------------------------------------------------------
@dataclass
class ShardClaim:
    """A worker's lease on one shard: heartbeat, record, complete."""

    path: str
    shard: int
    worker: str
    epoch: int
    candidates: List[Candidate]
    done_keys: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    clock: Any = time.time

    @property
    def pending(self) -> List[Candidate]:
        """Candidates of this shard not yet recorded on disk."""
        return [c for c in self.candidates
                if candidate_key(c) not in self.done_keys]

    def _lease_path(self) -> str:
        return os.path.join(self.path, "leases",
                            f"shard-{self.shard:04d}.lease")

    def _check_lease(self) -> None:
        """Raise :class:`LeaseLostError` unless the lease still carries
        this claim's epoch."""
        lease = _read_json(self._lease_path())
        if lease is None or lease.get("epoch") != self.epoch:
            held = "no lease" if lease is None else (
                f"epoch {lease.get('epoch')} held by {lease.get('worker')!r}")
            raise LeaseLostError(
                f"shard {self.shard} was taken over ({held}); the claim "
                f"of {self.worker!r} at epoch {self.epoch} is fenced"
            )

    def heartbeat(self) -> None:
        """Re-stamp the lease so it stays live past ``lease_ttl``.

        Checked and stamped under ``claim.lock``, so a takeover can
        never be overwritten by the claim it replaced.
        """
        with _FileLock(os.path.join(self.path, "claim.lock")):
            self._check_lease()
            _atomic_json(
                self._lease_path(),
                {"worker": self.worker, "epoch": self.epoch,
                 "heartbeat": self.clock()},
                fsync=False,  # a lost heartbeat only risks a takeover
            )

    def _append(self, record: Dict[str, Any]) -> None:
        """Fence, then append one checksummed record, flushed whole."""
        self._check_lease()
        with open(os.path.join(self.path, "results",
                               f"shard-{self.shard:04d}.jsonl"),
                  "ab") as fh:
            fh.write(_record_line(record).encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
        self.done_keys[record["key"]] = record

    def record(self, cand: Candidate, result, score: float) -> None:
        """Append one priced candidate."""
        record = {
            "type": "result",
            "phase": 1,
            "key": candidate_key(cand),
            "candidate": candidate_to_json(cand),
            "score": score,
            "fingerprint": metrics_fingerprint(result),
            "payload": _pack_result(result),
            "worker": self.worker,
            "epoch": self.epoch,
        }
        fault_point(f"jobs-record:shard-{self.shard:04d}")
        self._append(record)

    def record_failure(self, cand: Candidate, error: str) -> None:
        record = {
            "type": "failure",
            "phase": 1,
            "key": candidate_key(cand),
            "candidate": candidate_to_json(cand),
            "error": error,
            "worker": self.worker,
            "epoch": self.epoch,
        }
        self._append(record)

    def complete(self) -> None:
        """Commit the shard's done marker (idempotent), fenced under
        ``claim.lock`` like :meth:`heartbeat`."""
        with _FileLock(os.path.join(self.path, "claim.lock")):
            self._check_lease()
            _atomic_json(
                os.path.join(self.path, "done", f"shard-{self.shard:04d}"),
                {"worker": self.worker, "epoch": self.epoch,
                 "n": len(self.done_keys)},
            )


def claim(path: str, worker: Optional[str] = None,
          lease_ttl: float = DEFAULT_LEASE_TTL,
          clock=time.time) -> Optional[ShardClaim]:
    """Claim the next available shard, or None when none is claimable.

    Claim decisions serialize on an advisory ``flock`` over
    ``claim.lock``, so two racing claimants never adopt the same shard
    *simultaneously*.  A shard is claimable when it has no done marker
    and either no lease or a lease whose last heartbeat is older than
    ``lease_ttl`` seconds by ``clock`` — the stale lease is overwritten
    with a fresh one at the next epoch (the takeover is visible in the
    shard's records).  The presumed-dead worker is fenced: should it
    wake up, its next heartbeat, record or complete sees the newer
    epoch and raises :class:`LeaseLostError` instead of writing.
    """
    manifest = _load_manifest(path)
    if worker is None:
        worker = default_worker_id()
    with _FileLock(os.path.join(path, "claim.lock")):
        now = clock()
        for sid in manifest["shards"]:
            if os.path.exists(os.path.join(path, "done",
                                           f"shard-{sid:04d}")):
                continue
            lease_path = os.path.join(path, "leases",
                                      f"shard-{sid:04d}.lease")
            lease = _read_json(lease_path)
            if lease is not None and now - lease["heartbeat"] < lease_ttl:
                continue  # live lease held by someone else
            epoch = (lease["epoch"] + 1) if lease else 1
            _atomic_json(lease_path, {"worker": worker, "epoch": epoch,
                                      "heartbeat": now})
            shard = _read_json(os.path.join(path, "shards",
                                            f"shard-{sid:04d}.json"))
            if shard is None:
                raise JobError(
                    f"shard file for shard {sid} is missing or corrupt "
                    f"in {path!r}"
                )
            return ShardClaim(
                path=path, shard=sid, worker=worker, epoch=epoch,
                candidates=[candidate_from_json(c)
                            for c in shard["candidates"]],
                done_keys=_shard_results(path, sid),
                clock=clock,
            )
    return None


def _job_payload(path: str):
    _meta, blob = read_entry(os.path.join(path, PAYLOAD_NAME))
    return pickle.loads(blob)


def run_worker(path: str, worker: Optional[str] = None,
               lease_ttl: float = DEFAULT_LEASE_TTL,
               clock=time.time, max_shards: Optional[int] = None) -> int:
    """Claim and complete shards until the job has none left to give.

    The drain loop of one worker process: claim a shard, evaluate its
    pending candidates (heartbeating after every candidate, so a live
    worker on a slow candidate is never mistaken for a dead one between
    candidates), append each result, commit the done marker, repeat.
    Already-recorded candidates — from this worker's previous life or a
    predecessor whose lease expired — are adopted, never recomputed.  A
    shard whose lease was taken over meanwhile (:class:`LeaseLostError`)
    is dropped unfinished and the next one claimed, so ``lease_ttl``
    must exceed the slowest candidate's evaluation: a shorter one lets
    claimants fence each other before anything is recorded.  Returns the
    number of shards this call completed.  ``max_shards`` bounds the
    loop (tests claim one shard at a time with it).
    """
    manifest = _load_manifest(path)
    payload = _job_payload(path)
    spec, tensors = payload["spec"], payload["tensors"]
    einsum = manifest["einsum"]
    opset = NAMED_OPSETS[manifest["opset"]]
    shapes = manifest["shapes"]
    metrics = manifest["metrics"]
    metric = manifest["metric"]
    store, engine = store_and_engine(manifest.get("cache"), opset=opset)
    completed = 0
    while max_shards is None or completed < max_shards:
        shard_claim = claim(path, worker, lease_ttl=lease_ttl, clock=clock)
        if shard_claim is None:
            break
        try:
            for cand in shard_claim.pending:
                cand_spec = apply_candidate(spec, einsum, cand)
                try:
                    result = evaluate(
                        cand_spec, dict(tensors), opset=opset,
                        shapes=shapes, metrics=metrics, backend=engine,
                        cache=store,
                    )
                except Exception as exc:  # recorded, not fatal to the shard
                    shard_claim.record_failure(
                        cand, f"{type(exc).__name__}: {exc}")
                else:
                    shard_claim.record(cand, result,
                                       metric_value(result, metric))
                shard_claim.heartbeat()
            shard_claim.complete()
        except LeaseLostError:
            continue  # the shard was taken over; it is someone else's now
        completed += 1
    return completed


# ----------------------------------------------------------------------
# Gather
# ----------------------------------------------------------------------
def gather(path: str, strict: bool = True) -> SearchResult:
    """Assemble a finished job into a ranked
    :class:`~repro.search.results.SearchResult`.

    Results are re-interleaved into the original enumeration order
    (candidate ``i`` came from position ``i // shards`` of shard
    ``i % shards``), and every evaluation payload is unpickled exactly
    as journal resume adoption does — so the gathered result is
    bit-identical (metrics fingerprints included) to a serial
    in-process ``search()`` over the same space.  With ``strict=True``
    (the default) an unfinished job raises :class:`JobError`; pass
    ``strict=False`` to gather a partial snapshot mid-flight.
    """
    manifest = _load_manifest(path)
    status = poll(path)
    if strict and not status.done:
        raise JobError(
            f"job at {path!r} is not finished ({status.shards_done}/"
            f"{status.shards_total} shards done); run more workers or "
            "gather(strict=False) for a partial snapshot"
        )
    # Round-robin inverse: candidate i of the original enumeration sits
    # at position i // n_shards of shard i % n_shards (the non-empty
    # shard ids are dense by construction, whatever shard count was
    # requested at submit time).
    n_shards = len(manifest["shards"])
    shard_cands: Dict[int, List[Candidate]] = {}
    shard_records: Dict[int, Dict[str, Dict[str, Any]]] = {}
    for sid in manifest["shards"]:
        shard = _read_json(os.path.join(path, "shards",
                                        f"shard-{sid:04d}.json"))
        if shard is None:
            raise JobError(f"shard file for shard {sid} is missing or "
                           f"corrupt in {path!r}")
        shard_cands[sid] = [candidate_from_json(c)
                            for c in shard["candidates"]]
        shard_records[sid] = _shard_results(path, sid)

    candidates = []
    scores = []
    failures: List[Dict[str, Any]] = []
    for i in range(manifest["n_candidates"]):
        sid = manifest["shards"][i % n_shards]
        cand = shard_cands[sid][i // n_shards]
        record = shard_records[sid].get(candidate_key(cand))
        if record is None:
            continue  # unfinished (strict=False) or torn tail
        if record["type"] == "failure":
            failures.append(record)
            continue
        result = _unpack_result(record["payload"])
        candidates.append((cand, result))
        scores.append((cand, record["score"]))
    return SearchResult(
        candidates=candidates,
        scores=scores,
        strategy="jobs",
        metric=manifest["metric"],
        pruned_to=None,
        stats={
            "shards": status.shards_total,
            "n_scored": len(candidates),
            "n_failed": len(failures),
        },
        failures=failures,
    )
