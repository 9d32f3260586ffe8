"""Socket-broker sweep service: the fault-tolerant sweep backend.

``BrokerBackend`` is the :class:`~repro.experiments.engine.SweepBackend` that
keeps its promises when workers are SIGKILLed, OOMed, hung, partitioned, or
added and removed mid-flight: lease-based claims, heartbeat renewal,
expired-lease stealing, exponential backoff with deterministic jitter, and
poison quarantine, coordinated by a tiny dependency-free TCP broker so any
host that can open a socket can join a fleet.  Every failed attempt goes
through one :func:`fail_transition`, and every lease is a
:func:`new_lease` dict judged by :func:`lease_expired`.  Completed results
publish through the artifact cache (kind ``sweep-shard``) and quarantined
tasks through the poison store (kind ``sweep-poison``); :func:`recall_settled`
reads both, which is why a restarted coordinator resumes with zero
recomputation.

State machine
-------------
All broker state lives in one socket-free :class:`SweepLedger`.  Its op
handlers check a request and decide the transition; the transition itself is
one journal entry, which ``SweepLedger._commit`` journals and then hands to
``SweepLedger._apply`` — the function journal replay runs — so ``_apply`` is
the only writer of ledger state (bar the unjournaled heartbeat renewal) and
live and replayed state agree by construction.  :class:`BrokerServer` is a
thin TCP transport around a ledger, and the coordinator's no-broker fallback
runs the same worker loop against an in-memory one.

Wire protocol
-------------
Newline-delimited JSON over a persistent TCP connection.  Every request is
one object with an ``op`` field; every reply is one object with ``ok``
(True, or False plus ``error``).  Task and result payloads travel as
base64-encoded pickles inside the JSON (the broker never unpickles them —
it routes opaque bytes; like every pickle-based channel in the stack, the
protocol assumes a trusted network).  Operations:

====================  =======================================================
``ping``              liveness probe; reports the sweep count
``enqueue``           register task records + the sweep's retries/backoff
                      policy; already-known and already-settled digests are
                      skipped, so concurrent or resumed coordinators are safe
``claim``             lease one claimable task (not leased, backoff window
                      passed).  Idempotent per owner: a worker re-sending a
                      claim whose reply was lost gets the same record back
``renew``             push the lease's heartbeat deadline forward (the hard
                      ``task_timeout`` deadline is never renewed)
``complete``          settle a task with its result bytes.  Idempotent: a
                      re-sent or late (post-steal) completion is absorbed
``fail``              report a failed attempt.  Keyed on the attempt number
                      the worker claimed, so a re-sent fail whose first copy
                      already requeued the task is ignored as stale
``collect``           coordinator poll: settled payloads for the digests it
                      still wants, plus pending/leased counts
``shutdown``          tell future claims to return ``shutdown: true``
``retire``            drop a fully-settled sweep and delete its journal
``stop``              stop the server loop (embedded teardown / CI cleanup)
====================  =======================================================

Journal
-------
Every state *transition* appends one JSON line to
``<journal_dir>/<sweep_id>.journal`` before the reply is sent: ``sweep``
(policy), ``task`` (enqueue or requeue — the full record, including the
backoff's ``not_before``), ``lease``, ``done`` (with the result bytes),
``poison``, and ``shutdown``.  Heartbeat renewals are deliberately *not*
journaled: on replay every live lease is restored with a fresh
``lease_seconds`` grace window, which is exactly the benefit of the doubt a
renewing worker had earned.  A SIGKILLed broker therefore restarts with
zero lost claims and zero lost results — replay rebuilds pending tasks,
leases, and settled payloads, tolerating a torn final line (the only kind
of tear a single-``write`` append can produce).  Requeues and settlements
overwrite/remove the lease on replay, so no explicit release entry exists.

Failure handling
----------------
Clients use bounded reconnect-with-backoff: attempt ``n`` sleeps
``min(1s, connect_backoff * 2**(n-1))`` before retrying, giving a default
window of roughly half a minute — wide enough to ride out a broker restart,
finite so nothing hangs forever.  Degradation is graceful at every layer: a
worker that cannot renew past its lease deadline *abandons* the task (the
broker re-leases it; the worker's store publish, if any, is absorbed
idempotently); an embedded broker that dies is restarted by the coordinator
(up to ``max_broker_restarts``) on the same port within one poll round —
the coordinator's own polls try a dead socket only twice before its
liveness check runs, so recovery does not wait out the reconnect window; a
coordinator that can never reach its broker — or whose restart budget is
spent — drains the remaining tasks inline on an in-memory ledger (the same
leases, retries, backoff and quarantine) rather than hanging.  Chaos for all
of this is injected by plan via the wire-level rules in
:mod:`repro.experiments.faults` (``drop-connection``, ``partition``,
``delay-ack``, ``kill-broker``).

Standalone usage::

    python -m repro.experiments.broker serve --port 7464 --supervise &
    python -m repro.experiments.fig09_sram --figure a --broker 127.0.0.1:7464
"""

from __future__ import annotations

import base64
import json
import multiprocessing
import os
import pickle
import re
import signal
import socket
import socketserver
import sys
import threading
import time
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .cache import (
    ArtifactCache,
    POISON_KIND,
    SHARD_RESULT_KIND,
    cache_digest,
    default_cache,
    poison_key,
    shard_result_key,
)
from .engine import (
    DEFAULT_BACKOFF,
    QuarantinedTask,
    SweepTask,
    retry_delay,
    store_label,
    task_digest,
    worker_identity,
)
from .faults import NULL_INJECTOR, FaultPlan

__all__ = [
    "BrokerBackend",
    "BrokerClient",
    "BrokerError",
    "BrokerServer",
    "BrokerUnreachable",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_RETRIES",
    "fail_transition",
    "lease_expired",
    "new_lease",
    "parse_address",
    "main",
    "recall_settled",
    "SweepLedger",
]

#: Default port for ``python -m repro.experiments.broker serve``.
DEFAULT_PORT = 7464

#: Default retry budget (used when the runner leaves it unset): unlike the
#: in-process backends, retrying here is what the backend is *for*.
DEFAULT_QUEUE_RETRIES = 2

_SWEEP_ID = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


def _encode(value: Any) -> str:
    """Pickle + base64: how tasks and results ride inside the JSON protocol."""
    return base64.b64encode(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)).decode(
        "ascii"
    )


def _decode(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


# ------------------------------------------------------------------ leases
#
# A lease means "this worker is executing the task".  The ledger keeps one
# per claimed task in memory and journals it; ``lease_expired`` decides when
# a peer may steal it.


def new_lease(
    owner: str,
    lease_seconds: float,
    hard_deadline: float | None = None,
    now: float | None = None,
) -> dict[str, Any]:
    """A fresh lease payload: the one lease shape every holder agrees on.

    ``heartbeat_deadline`` starts at now + ``lease_seconds`` and is pushed
    forward by renewals; ``hard_deadline`` (the ``--task-timeout`` bound) is
    absolute and never renewed.  The broker keeps it in memory and journals
    it; :func:`lease_expired` judges it.
    """
    now = time.time() if now is None else now
    return {
        "owner": str(owner),
        "acquired": now,
        "heartbeat_deadline": now + float(lease_seconds),
        "hard_deadline": float(hard_deadline) if hard_deadline is not None else None,
    }


def lease_expired(
    lease: Mapping[str, Any] | None, now: float | None = None
) -> bool:
    """Whether a lease may be stolen: past either deadline, or unreadable."""
    if lease is None:
        return True
    now = time.time() if now is None else now
    heartbeat = lease.get("heartbeat_deadline")
    hard = lease.get("hard_deadline")
    if isinstance(heartbeat, (int, float)) and now > heartbeat:
        return True
    if isinstance(hard, (int, float)) and now > hard:
        return True
    # a lease carrying neither deadline is malformed; holding it forever
    # would deadlock the sweep, so it counts as expired too
    return not isinstance(heartbeat, (int, float)) and not isinstance(hard, (int, float))


def fail_transition(
    record: dict[str, Any],
    error: str,
    retries: int,
    backoff: float,
    now: float | None = None,
) -> tuple[str, dict[str, Any]]:
    """The one requeue-or-quarantine decision for a failed attempt.

    Given a task record ``{task, digest, attempts, errors, ...}`` and the
    error that failed this attempt, returns either ``("requeue", record')``
    — attempts incremented, the error appended, and ``not_before`` pushed to
    now + :func:`~repro.experiments.engine.retry_delay` (exponential backoff
    with deterministic per-digest jitter) — or, once ``attempts > retries``,
    ``("poison", payload)`` where the payload is store-shaped
    ``{task, digest, attempts, errors}``, for :class:`SweepLedger` to commit.
    """
    now = time.time() if now is None else now
    digest = record["digest"]
    attempts = record.get("attempts", 0) + 1
    errors = [*record.get("errors", []), error]
    if attempts > int(retries):
        return "poison", {
            "task": record.get("task"),
            "digest": digest,
            "attempts": attempts,
            "errors": tuple(errors),
        }
    return "requeue", {
        **record,
        "attempts": attempts,
        "errors": errors,
        "not_before": now + retry_delay(backoff, digest, attempts),
    }


def recall_settled(
    store: ArtifactCache, label: str, worker_name: str, digest: str
) -> tuple[str, Any] | None:
    """Look a task up in the store's terminal states.

    Returns ``("result", value)`` for a published result, ``("poison",
    QuarantinedTask)`` for a quarantined task, or ``None`` while the task is
    still unsettled.  This is the single source of truth for "is this task
    done?" — workers use it to skip re-execution, and the coordinator uses
    it to recall prior work at zero recomputation.
    """
    payload = store.get(SHARD_RESULT_KIND, shard_result_key(label, worker_name, digest))
    if payload is not None:
        return "result", payload["result"]
    payload = store.get(POISON_KIND, poison_key(label, worker_name, digest))
    if payload is not None:
        return "poison", QuarantinedTask.from_payload(digest, payload)
    return None


def parse_address(spec: str | Sequence[Any]) -> tuple[str, int]:
    """``"host:port"`` (or a 2-sequence) → ``(host, port)`` tuple."""
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return str(spec[0]), int(spec[1])
    text = str(spec).strip()
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"broker address must be HOST:PORT (e.g. 127.0.0.1:{DEFAULT_PORT}), "
            f"got {spec!r}"
        )
    return host, int(port)


class BrokerError(RuntimeError):
    """The broker refused a request (protocol-level; retrying won't help)."""


class BrokerUnreachable(BrokerError):
    """No reply within the bounded reconnect-with-backoff budget."""


# ---------------------------------------------------------------------- ledger


class _SweepState:
    """One sweep's in-memory task state (mirrored 1:1 by its journal)."""

    def __init__(self) -> None:
        self.tasks: dict[str, dict[str, Any]] = {}
        self.leases: dict[str, dict[str, Any]] = {}
        self.settled: dict[str, dict[str, Any]] = {}
        self.retries = DEFAULT_QUEUE_RETRIES
        self.backoff = DEFAULT_BACKOFF
        self.shutdown = False
        self.journal: Any = None  # unbuffered append handle, opened lazily

    def close_journal(self) -> None:
        if self.journal is not None:
            try:
                self.journal.close()
            except OSError:
                pass
            self.journal = None


class SweepLedger:
    """The broker's socket-free state machine (see "State machine" above).

    :meth:`handle` answers one request object with one reply object.  Each
    transition is committed by :meth:`_commit` — journaled to
    ``<journal_dir>/<sweep_id>.journal``, then applied by :meth:`_apply`,
    which replay runs too.  ``journal_dir=None`` keeps everything in memory
    and writes nothing to disk; otherwise construction replays the journals
    there.  One lock guards every sweep: requests are short and an append is
    one unbuffered write, so it is never held across anything slow.

    ``fault_plan`` is consulted for :class:`~repro.experiments.faults.KillBroker`
    only: after journaling the N-th completion the process SIGKILLs itself
    *without replying* — the nastiest crash point, because the worker's ack
    is lost and must be re-sent to the restarted broker.
    """

    def __init__(
        self, journal_dir: Path | str | None = None, fault_plan: FaultPlan | None = None
    ):
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self._lock = threading.Lock()
        self._sweeps: dict[str, _SweepState] = {}
        self._completions = 0  # journaled `done` entries, replayed included
        self._kill_after = fault_plan.broker_kill_after() if fault_plan else None
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
            self._replay_all()

    def close(self) -> None:
        with self._lock:
            for state in self._sweeps.values():
                state.close_journal()

    # ----------------------------------------------------------- journaling

    def _journal_path(self, sweep_id: str) -> Path:
        return self.journal_dir / f"{sweep_id}.journal"

    def _commit(
        self, sweep_id: str, state: _SweepState, entry: dict[str, Any], now: float
    ) -> None:
        """Journal one transition, then apply it: the only way state changes."""
        if self.journal_dir is not None:
            if state.journal is None:
                # buffering=0: each write() is one os.write, so a SIGKILL can
                # tear at most the final line — which replay skips
                state.journal = open(self._journal_path(sweep_id), "ab", buffering=0)
            state.journal.write(json.dumps(entry).encode() + b"\n")
        self._apply(state, entry, now)

    def _replay_all(self) -> None:
        now = time.time()
        for path in sorted(self.journal_dir.glob("*.journal")):
            sweep_id = path.stem
            if not _SWEEP_ID.match(sweep_id):
                continue
            state = _SweepState()
            try:
                with open(path, "rb") as handle:
                    for raw in handle:
                        try:
                            entry = json.loads(raw)
                        except ValueError:
                            continue  # torn tail from a mid-append SIGKILL
                        if isinstance(entry, dict):
                            self._apply(state, entry, now)
            except OSError:
                continue
            self._sweeps[sweep_id] = state

    def _apply(self, state: _SweepState, entry: dict[str, Any], now: float) -> None:
        """Apply one journal entry, live or replayed."""
        kind = entry.get("entry")
        if kind == "sweep":
            state.retries = int(entry.get("retries", DEFAULT_QUEUE_RETRIES))
            state.backoff = float(entry.get("backoff", DEFAULT_BACKOFF))
            state.shutdown = False  # a (re)enqueueing coordinator reopens it
        elif kind == "task":
            record = entry.get("record")
            if isinstance(record, dict) and record.get("digest") not in state.settled:
                digest = record["digest"]
                state.tasks[digest] = record
                state.leases.pop(digest, None)  # a requeue implies release
        elif kind == "lease":
            digest = entry.get("digest")
            if digest in state.tasks:
                # the hard deadline is absolute — a replay never extends it;
                # the heartbeat deadline is (re)armed from `now`
                state.leases[digest] = new_lease(
                    entry.get("owner", "unknown"),
                    float(entry.get("lease_seconds", 15.0)),
                    entry.get("hard_deadline"),
                    now,
                )
        elif kind in ("done", "poison"):
            digest = entry.get("digest")
            if kind == "done":
                state.settled[digest] = {
                    "status": "done",
                    "result": entry.get("result"),
                    "attempts": int(entry.get("attempts", 1)),
                }
                # replayed completions count toward the kill threshold too,
                # so a restarted broker does not die again at the same trigger
                self._completions += 1
            else:
                state.settled[digest] = {
                    "status": "poison",
                    "task": entry.get("task"),
                    "attempts": int(entry.get("attempts", 0)),
                    "errors": list(entry.get("errors", [])),
                }
            state.tasks.pop(digest, None)
            state.leases.pop(digest, None)
        elif kind == "shutdown":
            state.shutdown = True

    # ------------------------------------------------------------- dispatch

    def handle(self, message: dict[str, Any]) -> dict[str, Any]:
        """Answer one request object (every op but the transport's ``stop``)."""
        op = message.get("op")
        try:
            with self._lock:
                if op == "ping":
                    return {"ok": True, "sweeps": len(self._sweeps)}
                sweep_id = message.get("sweep")
                if not isinstance(sweep_id, str) or not _SWEEP_ID.match(sweep_id):
                    return {"ok": False, "error": f"invalid sweep id {sweep_id!r}"}
                handler = getattr(self, f"_op_{op}", None)
                if handler is None:
                    return {"ok": False, "error": f"unknown op {op!r}"}
                return handler(sweep_id, message)
        except Exception as error:  # never let one request kill the server
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}

    def _counts(self, state: _SweepState) -> dict[str, int]:
        return {
            "pending": len(state.tasks),
            "leased": len(state.leases),
            "settled": len(state.settled),
        }

    def _reap(self, sweep_id: str, state: _SweepState, now: float) -> None:
        """Steal expired leases: requeue (or quarantine) their tasks.

        Runs inside claim/collect handling — the coordinator polls collect
        continuously, so expiry is noticed within one poll interval without
        any background thread.  ``_apply`` leases only pending tasks and
        drops a task's lease when it settles, so every lease has its record.
        """
        for digest in [d for d, lease in state.leases.items() if lease_expired(lease, now)]:
            owner = state.leases[digest].get("owner", "unknown")
            self._fail_record(
                sweep_id,
                state,
                state.tasks[digest],
                f"lease expired: worker {owner} died or hung past its deadline",
                now,
            )

    def _fail_record(
        self,
        sweep_id: str,
        state: _SweepState,
        record: dict[str, Any],
        error: str,
        now: float,
    ) -> str:
        outcome, payload = fail_transition(
            record, error, state.retries, state.backoff, now
        )
        if outcome == "poison":  # payload: {task, digest, attempts, errors}
            entry = {"entry": "poison", **payload, "errors": list(payload["errors"])}
        else:
            entry = {"entry": "task", "record": payload}
        self._commit(sweep_id, state, entry, now)
        return outcome

    # ------------------------------------------------------------ operations

    def _op_enqueue(self, sweep_id: str, message: dict[str, Any]) -> dict[str, Any]:
        # validate the whole request before touching any state: a refused
        # enqueue must leave neither a sweep nor a journal line behind
        state = self._sweeps.get(sweep_id) or _SweepState()
        retries = int(message.get("retries", state.retries))
        backoff = float(message.get("backoff", state.backoff))
        records = message.get("records", [])
        for record in records:
            digest = record.get("digest") if isinstance(record, dict) else None
            if not isinstance(digest, str) or not digest:
                return {"ok": False, "error": f"task record without digest: {record!r}"}
        self._sweeps[sweep_id] = state
        now = time.time()
        entry = {"entry": "sweep", "retries": retries, "backoff": backoff}
        self._commit(sweep_id, state, entry, now)
        enqueued = known = 0
        for record in records:
            if record["digest"] in state.settled or record["digest"] in state.tasks:
                known += 1
                continue
            self._commit(sweep_id, state, {"entry": "task", "record": record}, now)
            enqueued += 1
        return {"ok": True, "enqueued": enqueued, "known": known, **self._counts(state)}

    def _op_claim(self, sweep_id: str, message: dict[str, Any]) -> dict[str, Any]:
        state = self._sweeps.get(sweep_id) or _SweepState()  # unknown: nothing to claim
        now = time.time()
        self._reap(sweep_id, state, now)
        base = {"ok": True, "shutdown": state.shutdown, **self._counts(state)}
        if state.shutdown:
            return {**base, "record": None}
        owner = str(message.get("owner", ""))
        # idempotent re-claim: a worker whose claim reply was lost re-sends
        # the claim after reconnecting and gets its own lease's record back
        for digest, lease in state.leases.items():
            if lease.get("owner") == owner and digest in state.tasks:
                return {**base, "record": self._public_record(state.tasks[digest])}
        lease_seconds = float(message.get("lease_seconds", 15.0))
        hard_timeout = message.get("hard_timeout")
        for digest in sorted(state.tasks):
            record = state.tasks[digest]
            if digest in state.leases or record.get("not_before", 0.0) > now:
                continue
            hard = now + float(hard_timeout) if hard_timeout is not None else None
            entry = {
                "entry": "lease",
                "digest": digest,
                "owner": owner,
                "lease_seconds": lease_seconds,
                "hard_deadline": hard,
            }
            self._commit(sweep_id, state, entry, now)
            return {**base, **self._counts(state), "record": self._public_record(record)}
        return {**base, "record": None}

    @staticmethod
    def _public_record(record: dict[str, Any]) -> dict[str, Any]:
        return {
            "digest": record["digest"],
            "task": record.get("task"),
            "attempts": record.get("attempts", 0),
            "errors": list(record.get("errors", [])),
        }

    def _op_renew(self, sweep_id: str, message: dict[str, Any]) -> dict[str, Any]:
        state = self._sweeps.get(sweep_id)
        digest = message.get("digest")
        owner = message.get("owner")
        lease = state.leases.get(digest) if state is not None else None
        now = time.time()
        if lease is None or lease.get("owner") != owner or lease_expired(lease, now):
            return {"ok": True, "renewed": False}
        # renewals are deliberately not journaled: replay re-arms live leases
        # with a fresh grace window instead (see the module docstring)
        lease["heartbeat_deadline"] = now + float(message.get("lease_seconds", 15.0))
        return {"ok": True, "renewed": True}

    def _op_complete(self, sweep_id: str, message: dict[str, Any]) -> dict[str, Any]:
        state = self._sweeps.get(sweep_id)
        digest = message.get("digest")
        if state is None or digest in state.settled:
            # a re-sent or late (post-steal) completion, or one for a retired
            # sweep (everything settled, coordinator gone): already absorbed
            return {"ok": True, "settled": True, "duplicate": True}
        entry = {
            "entry": "done",
            "digest": digest,
            "result": message.get("result"),
            "attempts": int(message.get("attempts", 1)),
        }
        self._commit(sweep_id, state, entry, time.time())
        if self._kill_after is not None and self._completions == self._kill_after:
            # chaos: die after journaling, before replying — the worker's ack
            # is lost and must be re-sent to the replayed broker.  `==` (not
            # `>=`): after a restart replays exactly this many completions,
            # the counter passes the threshold without ever equalling it again
            os.kill(os.getpid(), signal.SIGKILL)
        return {"ok": True, "settled": True, "duplicate": False}

    def _op_fail(self, sweep_id: str, message: dict[str, Any]) -> dict[str, Any]:
        state = self._sweeps.get(sweep_id)
        digest = message.get("digest")
        if state is None or digest in state.settled:
            return {"ok": True, "state": "settled"}
        record = state.tasks.get(digest)
        if record is None:
            return {"ok": True, "state": "stale"}
        # idempotency key: the attempt count the worker saw at claim time.
        # A re-sent fail (dropped reply) or a fail racing a reaper's requeue
        # finds the count already advanced and is ignored
        if int(message.get("attempts", -1)) != int(record.get("attempts", 0)):
            return {"ok": True, "state": "stale"}
        outcome = self._fail_record(
            sweep_id, state, record, str(message.get("error", "unknown error")), time.time()
        )
        return {
            "ok": True,
            "state": "quarantined" if outcome == "poison" else "requeued",
        }

    def _op_collect(self, sweep_id: str, message: dict[str, Any]) -> dict[str, Any]:
        state = self._sweeps.get(sweep_id) or _SweepState()  # unknown: nothing settled
        self._reap(sweep_id, state, time.time())
        wanted = message.get("digests", [])
        found = {
            digest: state.settled[digest]
            for digest in wanted
            if digest in state.settled
        }
        counts = self._counts(state)
        return {
            "ok": True,
            "settled": found,
            "pending": counts["pending"],
            "leased": counts["leased"],
            "settled_count": counts["settled"],
        }

    def _op_shutdown(self, sweep_id: str, message: dict[str, Any]) -> dict[str, Any]:
        state = self._sweeps.get(sweep_id)
        if state is not None and not state.shutdown:
            self._commit(sweep_id, state, {"entry": "shutdown"}, time.time())
        return {"ok": True}

    def _op_retire(self, sweep_id: str, message: dict[str, Any]) -> dict[str, Any]:
        state = self._sweeps.pop(sweep_id, None)
        if state is not None:
            state.close_journal()
        if self.journal_dir is not None:
            try:
                self._journal_path(sweep_id).unlink()
            except OSError:
                pass
        return {"ok": True}


# ---------------------------------------------------------------------- server


class _BrokerRequestHandler(socketserver.StreamRequestHandler):
    """One persistent connection: read a JSON line, reply with a JSON line."""

    def handle(self) -> None:  # pragma: no cover - exercised via live sockets
        while True:
            try:
                line = self.rfile.readline()
            except OSError:
                return
            if not line:
                return  # client closed (or died: the kernel sends FIN for it)
            try:
                message = json.loads(line)
                if not isinstance(message, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as error:
                reply: dict[str, Any] = {"ok": False, "error": f"malformed request: {error}"}
            else:
                reply = self.server.handle_message(message)
            try:
                self.wfile.write(json.dumps(reply).encode() + b"\n")
                self.wfile.flush()
            except OSError:
                return


class BrokerServer(socketserver.ThreadingTCPServer):
    """The TCP transport around one :class:`SweepLedger`.

    Requests go to :meth:`SweepLedger.handle`, except ``stop``, which ends
    this server loop.  ``journal_dir`` defaults to ``<cache root>/broker``.
    """

    allow_reuse_address = True  # restarts rebind the same port immediately
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int] = ("127.0.0.1", 0),
        journal_dir: Path | str | None = None,
        fault_plan: FaultPlan | None = None,
        allow_stop: bool = True,
    ):
        if journal_dir is None:
            journal_dir = Path(default_cache().root) / "broker"
        self.ledger = SweepLedger(journal_dir, fault_plan)
        self.allow_stop = allow_stop
        super().__init__(tuple(address), _BrokerRequestHandler)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def handle_message(self, message: dict[str, Any]) -> dict[str, Any]:
        if message.get("op") != "stop":
            return self.ledger.handle(message)
        if not self.allow_stop:
            return {"ok": False, "error": "stop is disabled on this broker"}
        threading.Thread(target=self.shutdown, daemon=True).start()
        return {"ok": True, "stopping": True}

    def server_close(self) -> None:
        self.ledger.close()
        super().server_close()


def _broker_server_main(
    address: tuple[str, int], journal_dir: str, fault_plan: FaultPlan | None, conn: Any
) -> None:
    """Subprocess entry: bind, report the bound port, serve until stopped."""
    server = BrokerServer(address, journal_dir, fault_plan)
    conn.send(("ready", *server.address))
    conn.close()
    with server:
        server.serve_forever(poll_interval=0.1)


# ---------------------------------------------------------------------- client


class BrokerClient:
    """One persistent NDJSON connection with bounded reconnect-with-backoff.

    ``call`` sends a request and blocks for its reply, transparently
    reconnecting on any socket failure: attempt ``n`` sleeps
    ``min(1s, backoff * 2**(n-1))`` first, so the total window is bounded
    (and sized to ride out a broker restart) but never infinite.  After
    ``attempts`` consecutive failures it raises :class:`BrokerUnreachable`;
    a protocol refusal (``ok: false``) raises :class:`BrokerError`
    immediately — retrying a refused request cannot help.

    ``injector`` hooks the wire-level chaos rules: ``partition_active()``
    fails calls without touching the socket, and (when ``wire_faults`` is
    set — worker main connections only) ``wire_drop(op)`` severs the
    connection after a send so the reply is lost and the idempotent re-send
    path gets exercised.
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float = 10.0,
        attempts: int = 40,
        backoff: float = 0.05,
        injector: Any = None,
        wire_faults: bool = False,
    ):
        self.address = (str(address[0]), int(address[1]))
        self.timeout = float(timeout)
        self.attempts = max(1, int(attempts))
        self.backoff = float(backoff)
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.wire_faults = wire_faults
        self._sock: socket.socket | None = None
        self._file: Any = None

    def _disconnect(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    close = _disconnect

    def call(self, message: dict[str, Any], attempts: int | None = None) -> dict[str, Any]:
        payload = (json.dumps(message) + "\n").encode()
        op = str(message.get("op", ""))
        budget = self.attempts if attempts is None else max(1, int(attempts))
        last: Exception | None = None
        for attempt in range(budget):
            if attempt:
                time.sleep(min(1.0, self.backoff * (2 ** (attempt - 1))))
            if self.injector.partition_active():
                last = BrokerUnreachable("partitioned from broker (fault plan)")
                self._disconnect()
                continue
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(self.address, timeout=self.timeout)
                    self._sock.settimeout(self.timeout)
                    self._file = self._sock.makefile("rb")
                self._sock.sendall(payload)
                if self.wire_faults and self.injector.wire_drop(op):
                    self._disconnect()
                    last = ConnectionError("connection dropped by fault plan")
                    continue
                line = self._file.readline()
                if not line:
                    raise ConnectionError("broker closed the connection")
                reply = json.loads(line)
                if not isinstance(reply, dict):
                    raise ValueError(f"malformed broker reply: {reply!r}")
                if not reply.get("ok", False):
                    raise BrokerError(str(reply.get("error", "request refused")))
                return reply
            except BrokerUnreachable:
                raise
            except BrokerError:
                raise  # protocol refusal: not a transport failure
            except (OSError, ValueError) as error:
                last = error
                self._disconnect()
        self._disconnect()
        raise BrokerUnreachable(
            f"broker at {self.address[0]}:{self.address[1]} unreachable after "
            f"{budget} attempt(s): {last}"
        )

    def try_call(
        self, message: dict[str, Any], attempts: int | None = None
    ) -> dict[str, Any] | None:
        """``call`` that reports unreachability as ``None`` instead of raising."""
        try:
            return self.call(message, attempts=attempts)
        except BrokerUnreachable:
            return None


class _LocalClient:
    """:class:`BrokerClient`'s call surface over an in-process :class:`SweepLedger`."""

    def __init__(self, ledger: SweepLedger):
        self.ledger = ledger

    def call(self, message: dict[str, Any], attempts: int | None = None) -> dict[str, Any]:
        reply = self.ledger.handle(message)
        if not reply.get("ok", False):
            raise BrokerError(str(reply.get("error", "request refused")))
        return reply

    try_call = call  # an in-process ledger is never unreachable

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- worker


@dataclass
class _BrokerWorkerConfig:
    """Everything a broker worker process needs, in one picklable record."""

    address: tuple[str, int]
    sweep_id: str
    store: ArtifactCache
    label: str
    worker_name: str
    fn: Callable[[Any, SweepTask], Any]
    shared: Any
    lease_seconds: float
    heartbeat_seconds: float
    task_timeout: float | None
    poll_seconds: float
    worker_index: int
    fault_plan: FaultPlan | None = None
    connect_timeout: float = 10.0
    connect_attempts: int = 40
    connect_backoff: float = 0.05


class _WireHeartbeat(threading.Thread):
    """Daemon thread renewing one lease over the wire while the task runs.

    If renewals have been *unreachable* (not merely refused) for longer than
    the lease horizon, the broker has certainly re-leased the task —
    ``lost`` is set and the worker abandons the completion ack (its store
    publish, if any, is absorbed idempotently).  A *refused* renewal means the lease was
    stolen while the broker is healthy: renewal stops, execution finishes,
    and the publish stays idempotent.
    """

    def __init__(
        self,
        client: BrokerClient,
        sweep_id: str,
        owner: str,
        digest: str,
        lease_seconds: float,
        interval: float,
    ):
        super().__init__(daemon=True, name="repro-broker-heartbeat")
        self.client = client
        self.message = {
            "op": "renew",
            "sweep": sweep_id,
            "owner": owner,
            "digest": digest,
            "lease_seconds": float(lease_seconds),
        }
        self.lease_seconds = float(lease_seconds)
        self.interval = max(0.01, float(interval))
        self.lost = threading.Event()
        self._stop_event = threading.Event()

    def run(self) -> None:
        abandon_at: float | None = None
        while not self._stop_event.wait(self.interval):
            reply = self.client.try_call(self.message, attempts=2)
            if reply is None:
                if abandon_at is None:
                    abandon_at = time.time() + self.lease_seconds
                elif time.time() > abandon_at:
                    self.lost.set()
                    return
            elif not reply.get("renewed", False):
                return  # stolen while broker healthy; publish stays idempotent
            else:
                abandon_at = None

    def stop(self) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=5.0)


class _BrokerWorker:
    """The claim/execute/publish loop one broker worker runs to exhaustion.

    A ``client`` (:class:`_LocalClient`) replaces both socket connections.
    """

    def __init__(self, config: _BrokerWorkerConfig, client: _LocalClient | None = None):
        self.config = config
        self.owner = f"w{config.worker_index}:pid{os.getpid()}:{time.monotonic_ns():x}"
        self.completed = 0
        plan = config.fault_plan
        self.injector = (
            plan.for_worker(config.worker_index) if plan is not None else NULL_INJECTOR
        )
        if client is not None:
            self.client = self.heartbeat_client = client
            return
        self.client = BrokerClient(
            config.address,
            timeout=config.connect_timeout,
            attempts=config.connect_attempts,
            backoff=config.connect_backoff,
            injector=self.injector,
            wire_faults=True,
        )
        # separate connection for renewals (the main socket may be blocked
        # on a claim), short budget so each tick returns quickly — loss
        # tolerance lives in _WireHeartbeat, not in per-call retries
        self.heartbeat_client = BrokerClient(
            config.address,
            timeout=config.connect_timeout,
            attempts=2,
            backoff=config.connect_backoff,
            injector=self.injector,
        )

    def close(self) -> None:
        self.client.close()
        self.heartbeat_client.close()

    def step(self) -> str:
        """One claim attempt: 'worked', 'idle', 'drained', or 'shutdown'."""
        config = self.config
        reply = self.client.call(
            {
                "op": "claim",
                "sweep": config.sweep_id,
                "owner": self.owner,
                "lease_seconds": config.lease_seconds,
                "hard_timeout": config.task_timeout,
            }
        )
        if reply.get("shutdown"):
            return "shutdown"
        record = reply.get("record")
        if record is None:
            if reply.get("pending", 0) == 0 and reply.get("leased", 0) == 0:
                return "drained"
            return "idle"  # backoff windows or live leases: poll again
        self._execute(record)
        return "worked"

    def _execute(self, record: dict[str, Any]) -> None:
        config = self.config
        digest = record["digest"]
        found = recall_settled(config.store, config.label, config.worker_name, digest)
        if found is not None and found[0] == "result":
            # a previous holder published to this (shared) store but its ack
            # was lost: settle the broker from the store, skip re-execution
            self._complete(digest, found[1], record.get("attempts", 0) + 1)
            return
        # settled-check first, injection second:
        # a straggler delay injected here stalls a task that *will* execute,
        # which is what forces the steal + duplicate-absorption path
        self.injector.on_claim(self.completed)  # may SIGKILL / straggle / partition
        task = _decode(record["task"])
        heartbeat: _WireHeartbeat | None = None
        if self.injector.heartbeat_allowed(self.completed):
            heartbeat = _WireHeartbeat(
                self.heartbeat_client,
                config.sweep_id,
                self.owner,
                digest,
                config.lease_seconds,
                config.heartbeat_seconds,
            )
            heartbeat.start()
        try:
            try:
                self.injector.before_execute(task)  # may raise (poison rule)
                result = config.fn(config.shared, task)
            except Exception as error:
                self._fail(record, f"{type(error).__name__}: {error}")
                return
            published = config.store.put(
                SHARD_RESULT_KIND,
                shard_result_key(config.label, config.worker_name, digest),
                {"result": result, "attempts": record.get("attempts", 0) + 1},
            )
            if not published:
                self._fail(
                    record,
                    f"failed to publish result to the store at {config.store.root} "
                    "(unpicklable result or unwritable cache)",
                )
                return
        finally:
            if heartbeat is not None:
                heartbeat.stop()
        if heartbeat is not None and heartbeat.lost.is_set():
            # broker lost past the lease deadline: the task is certainly
            # re-leased — abandon the ack; the publish above is the durable
            # copy and any duplicate execution is absorbed idempotently
            self.completed += 1
            return
        delay = self.injector.ack_delay(self.completed)
        if delay > 0:
            time.sleep(delay)  # chaos: lease may expire in the publish→ack gap
        self._complete(digest, result, record.get("attempts", 0) + 1)
        self.completed += 1
        self.injector.on_publish(self.completed)  # may SIGKILL post-publish

    def _complete(self, digest: str, result: Any, attempts: int) -> None:
        try:
            self.client.call(
                {
                    "op": "complete",
                    "sweep": self.config.sweep_id,
                    "owner": self.owner,
                    "digest": digest,
                    "attempts": attempts,
                    "result": _encode(result),
                }
            )
        except BrokerUnreachable:
            pass  # abandoned: lease expiry requeues it; the store has the result

    def _fail(self, record: dict[str, Any], error: str) -> None:
        try:
            self.client.call(
                {
                    "op": "fail",
                    "sweep": self.config.sweep_id,
                    "owner": self.owner,
                    "digest": record["digest"],
                    "attempts": record.get("attempts", 0),
                    "error": error,
                }
            )
        except BrokerUnreachable:
            pass  # lease expiry will requeue it with this attempt uncounted

    def run(self) -> int:
        try:
            while True:
                try:
                    outcome = self.step()
                except BrokerUnreachable:
                    # exit abnormally so the coordinator respawns a fresh
                    # worker once it has restarted (or given up on) the broker
                    return 3
                if outcome in ("shutdown", "drained"):
                    return 0
                if outcome == "idle":
                    time.sleep(self.config.poll_seconds)
        finally:
            self.close()


def _broker_worker_main(config: _BrokerWorkerConfig) -> None:
    sys.exit(_BrokerWorker(config).run())


# ----------------------------------------------------------------- coordinator


class _EmbeddedBroker:
    """The one broker-process spawner: embedded mode and ``serve --supervise``."""

    def __init__(self, journal_dir: Path, fault_plan: FaultPlan | None, context: Any):
        self.journal_dir = journal_dir
        self.fault_plan = fault_plan
        self.context = context
        self.host = "127.0.0.1"
        self.port = 0  # first start picks a free port; restarts reuse it
        self.process: Any = None

    def start(self) -> tuple[str, int]:
        parent, child = self.context.Pipe()
        self.process = self.context.Process(
            target=_broker_server_main,
            args=((self.host, self.port), str(self.journal_dir), self.fault_plan, child),
            daemon=True,
        )
        self.process.start()
        child.close()
        try:
            if not parent.poll(15.0):
                raise RuntimeError("broker did not report ready within 15s")
            _tag, host, port = parent.recv()
        finally:
            parent.close()
        self.host, self.port = host, port
        return host, port

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)


@dataclass
class BrokerBackend:
    """Socket-distributed elastic sweep backend (leases, retries, quarantine).

    Satisfies the ``SweepBackend`` protocol with lease/retry/quarantine
    semantics — results publish through the artifact ``store`` under
    ``sweep_label`` so resubmission recomputes nothing — and coordination
    rides a TCP broker, so workers need no shared filesystem.

    Two modes:

    * **embedded** (``address=None``, the default and what ``--backend
      broker`` resolves to): the coordinator spawns its own broker
      subprocess on a free localhost port, supervises it, restarts it on
      the same port if it dies (up to ``max_broker_restarts``; the journal
      under ``<store.root>/broker`` makes the restart lossless), and stops
      it at the end.
    * **attached** (``address="host:port"``, what ``--broker`` sets): the
      broker is external (``python -m repro.experiments.broker serve``) and
      its lifecycle belongs to whoever started it.  A coordinator that can
      never reach it falls back to draining the sweep inline (serially,
      with full retry/quarantine semantics) instead of hanging.

    After each submission :attr:`last_stats` reports the sweep's counters
    (``recalled``, ``enqueued``, ``quarantined``, ``worker_deaths``,
    ``respawns``, ``inline_drained``, ``broker_restarts``);
    :attr:`quarantined` lists the :class:`QuarantinedTask` sentinels
    yielded in place of results.
    """

    address: str | tuple[str, int] | None = None
    journal_dir: Path | str | None = None
    store: ArtifactCache | None = None
    sweep_label: str = ""
    retries: int | None = None
    task_timeout: float | None = None
    backoff: float | None = None
    lease_seconds: float = 15.0
    heartbeat_seconds: float | None = None
    poll_seconds: float = 0.05
    respawn: bool = True
    max_respawns: int | None = None
    max_broker_restarts: int = 3
    connect_timeout: float = 10.0
    connect_attempts: int = 40
    connect_backoff: float = 0.05
    mp_context: str | None = None
    fault_plan: FaultPlan | None = None

    quarantined: list[QuarantinedTask] = field(default_factory=list, init=False)
    last_stats: dict[str, int] = field(default_factory=dict, init=False)

    name = "broker"
    #: never downgraded to the in-process serial path at 1 worker
    queue_semantics = True
    #: retries are handled natively (broker-side requeue/quarantine)
    handles_retries = True

    def configure_from_runner(self, runner: Any) -> None:
        """Adopt runner-level configuration for fields not set explicitly."""
        if self.store is None:
            self.store = runner.shard_store
        if not self.sweep_label and runner.sweep_label:
            self.sweep_label = runner.sweep_label
        if self.retries is None:
            self.retries = runner.retries
        if self.task_timeout is None:
            self.task_timeout = runner.task_timeout
        if self.backoff is None:
            self.backoff = runner.backoff
        if self.mp_context is None:
            self.mp_context = runner.mp_context

    def submit(
        self,
        fn: Callable[[Any, SweepTask], Any],
        shared: Any,
        tasks: Sequence[SweepTask],
        workers: int,
        chunksize: int,
    ) -> Iterator[tuple[int, Any]]:
        # chunksize is a pool-dispatch optimization; the broker hands out one
        # task per claim so stealing stays task-granular
        store = self.store if self.store is not None else default_cache()
        if not store.enabled:
            raise ValueError(
                "the broker backend publishes results through the artifact cache; "
                "the store must be enabled (unset $REPRO_CACHE_DISABLE or pass "
                "an enabled cache)"
            )
        label = store_label(self.sweep_label, shared)
        worker_name = worker_identity(fn)
        # same namespace axes as the store keys: sweeps share broker state
        # exactly when they would share published results
        sweep_id = cache_digest({"label": label, "worker": worker_name})[:24]
        config = _BrokerWorkerConfig(
            address=("127.0.0.1", 0),  # pinned once the broker is resolved
            sweep_id=sweep_id,
            store=store,
            label=label,
            worker_name=worker_name,
            fn=fn,
            shared=shared,
            lease_seconds=float(self.lease_seconds),
            heartbeat_seconds=(
                float(self.heartbeat_seconds)
                if self.heartbeat_seconds is not None
                else max(float(self.lease_seconds) / 4.0, 0.01)
            ),
            task_timeout=self.task_timeout,
            poll_seconds=float(self.poll_seconds),
            worker_index=0,
            fault_plan=(
                self.fault_plan if self.fault_plan is not None else FaultPlan.from_env()
            ),
            connect_timeout=float(self.connect_timeout),
            connect_attempts=int(self.connect_attempts),
            connect_backoff=float(self.connect_backoff),
        )
        return self._coordinate(config, list(tasks), max(1, int(workers)))

    def _coordinate(
        self, config: _BrokerWorkerConfig, tasks: list[SweepTask], workers: int
    ) -> Iterator[tuple[int, Any]]:
        self.quarantined = []
        stats = {
            "tasks": len(tasks),
            "recalled": 0,
            "enqueued": 0,
            "quarantined": 0,
            "worker_deaths": 0,
            "respawns": 0,
            "inline_drained": 0,
            "broker_restarts": 0,
        }
        self.last_stats = stats
        store = config.store
        digests = [task_digest(task) for task in tasks]
        positions: dict[str, list[int]] = {}
        for position, digest in enumerate(digests):
            positions.setdefault(digest, []).append(position)

        def consume(digest: str, kind: str, value: Any) -> list[tuple[int, Any]]:
            if kind == "poison":
                stats["quarantined"] += 1
                self.quarantined.append(value)
            return [(position, value) for position in positions.pop(digest)]

        # phase 1 — recall: everything a previous run already settled costs
        # zero recomputation (the acceptance criterion of a resume)
        ready: list[tuple[int, Any]] = []
        for digest in list(positions):
            found = recall_settled(store, config.label, config.worker_name, digest)
            if found is None:
                continue
            kind, value = found
            if kind == "result":
                stats["recalled"] += 1
            ready.extend(consume(digest, kind, value))
        yield from ready
        if not positions:
            return

        stats["enqueued"] = len(positions)
        retries = int(self.retries) if self.retries is not None else DEFAULT_QUEUE_RETRIES
        backoff = float(self.backoff) if self.backoff is not None else DEFAULT_BACKOFF
        enqueue = {
            "op": "enqueue",
            "sweep": config.sweep_id,
            "retries": retries,
            "backoff": backoff,
            "records": [
                {
                    "digest": digest,
                    "task": _encode(tasks[positions[digest][0]]),
                    "attempts": 0,
                    "not_before": 0.0,
                    "errors": [],
                }
                for digest in sorted(positions)
            ],
        }

        def unsettled() -> dict[str, Any]:
            """The enqueue request narrowed to the still-unsettled records."""
            records = [r for r in enqueue["records"] if r["digest"] in positions]
            return {**enqueue, "records": records}

        method = self.mp_context or ("fork" if sys.platform == "linux" else "spawn")
        context = multiprocessing.get_context(method)
        broker: _EmbeddedBroker | None = None
        processes: list[Any] = []
        inline: _BrokerWorker | None = None
        next_index = 0
        spawn_budget = workers + (
            int(self.max_respawns) if self.max_respawns is not None else 4 * workers + 4
        )

        def spawn() -> None:
            nonlocal next_index
            process = context.Process(
                target=_broker_worker_main,
                args=(replace(config, worker_index=next_index),),
                daemon=True,
            )
            process.start()
            processes.append(process)
            next_index += 1

        if self.address is None:
            journal_dir = (
                Path(self.journal_dir)
                if self.journal_dir is not None
                else Path(store.root) / "broker"
            )
            broker = _EmbeddedBroker(journal_dir, config.fault_plan, context)
        client: BrokerClient | None = None
        try:
            client = self._connect(broker)
            if client is not None:
                # phase 2 — enqueue only the unsettled remainder, spawn the fleet
                config = replace(config, address=client.address)
                client.call(enqueue)
                for _ in range(min(workers, len(positions))):
                    spawn()

            # phase 3 — stream results out of the broker until every task
            # settles or the broker is lost for good
            unreachable_rounds = 0
            while client is not None and positions:
                progressed = False
                # an embedded broker's liveness is checked below every round:
                # a dead one must be restarted there, not waited out over the
                # client's whole reconnect window
                reply = client.try_call(
                    {
                        "op": "collect",
                        "sweep": config.sweep_id,
                        "digests": sorted(positions),
                    },
                    attempts=2 if broker is not None else None,
                )
                if reply is not None:
                    unreachable_rounds = 0
                    settled = reply.get("settled", {})
                    for digest, payload in settled.items():
                        if digest not in positions:
                            continue
                        progressed = True
                        for item in self._absorb(config, digest, payload, consume):
                            yield item
                    if (
                        positions
                        and not settled
                        and reply.get("pending", 0) == 0
                        and reply.get("leased", 0) == 0
                    ):
                        # the broker has no trace of our remaining tasks (a
                        # restart with a wiped journal): re-enqueue them —
                        # idempotent against anything it does still know
                        client.try_call(unsettled())
                else:
                    unreachable_rounds += 1
                # the store also settles tasks: local workers publish there
                # before acking, so a lost ack never loses a result
                for digest in list(positions):
                    found = recall_settled(
                        store, config.label, config.worker_name, digest
                    )
                    if found is None:
                        continue
                    progressed = True
                    for item in consume(digest, *found):
                        yield item
                if not positions:
                    break
                # fleet liveness: absorb deaths, respawn within budget
                alive = []
                died = 0
                for process in processes:
                    if process.is_alive():
                        alive.append(process)
                    elif process.exitcode not in (0, None):
                        died += 1
                processes[:] = alive
                stats["worker_deaths"] += died
                if self.respawn:
                    for _ in range(died):
                        if next_index >= spawn_budget:
                            break
                        spawn()
                        stats["respawns"] += 1
                # broker liveness: restart the embedded broker on its pinned
                # port (journal replay makes the restart lossless); an
                # attached broker is someone else's to restart — after two
                # full unreachable windows it counts as lost
                if broker is not None and not broker.alive():
                    if stats["broker_restarts"] >= int(self.max_broker_restarts):
                        break
                    stats["broker_restarts"] += 1
                    try:
                        broker.start()
                    except (OSError, RuntimeError, EOFError):
                        break
                    progressed = True
                elif broker is None and unreachable_rounds >= 2:
                    break
                # fleet gone (drained early, dead, or respawn exhausted) with
                # work left: the coordinator claims through the broker itself
                # so leases/journal stay authoritative — a sweep must
                # terminate even with zero surviving workers
                if not processes and positions:
                    if inline is None:
                        inline = _BrokerWorker(
                            replace(config, worker_index=-1, fault_plan=None)
                        )
                    try:
                        if inline.step() == "worked":
                            stats["inline_drained"] += 1
                            progressed = True
                    except BrokerUnreachable:
                        pass  # broker liveness handling owns this next round
                if not progressed:
                    time.sleep(config.poll_seconds)

            if positions:
                # graceful degradation: a coordinator that cannot reach its
                # broker (or whose restart budget is spent) finishes the
                # sweep itself instead of hanging
                yield from self._drain_inline(config, unsettled(), positions, stats, consume)
        finally:
            if client is not None:
                client.try_call(
                    {"op": "shutdown", "sweep": config.sweep_id}, attempts=2
                )
            deadline = time.time() + 10.0
            for process in processes:
                process.join(timeout=max(0.1, deadline - time.time()))
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
            if inline is not None:
                inline.close()
            if client is not None:
                if not positions:
                    # sweep fully settled: retire the broker-side state (all
                    # state worth keeping lives in the store); an abandoned
                    # sweep keeps its journal so a resume picks it back up
                    client.try_call(
                        {"op": "retire", "sweep": config.sweep_id}, attempts=2
                    )
                client.close()
            if broker is not None:
                broker.stop()

    def _connect(self, broker: _EmbeddedBroker | None) -> BrokerClient | None:
        """Start (embedded) or locate (attached) the broker; None if unreachable."""
        try:
            address = broker.start() if broker is not None else parse_address(self.address)
        except (OSError, RuntimeError, EOFError):
            return None
        client = BrokerClient(
            address,
            timeout=float(self.connect_timeout),
            attempts=int(self.connect_attempts),
            backoff=float(self.connect_backoff),
        )
        if client.try_call({"op": "ping"}) is None:
            client.close()
            return None
        return client

    def _absorb(
        self,
        config: _BrokerWorkerConfig,
        digest: str,
        payload: dict[str, Any],
        consume: Callable[[str, str, Any], list[tuple[int, Any]]],
    ) -> list[tuple[int, Any]]:
        """Write one broker-settled payload into the store and yield its slots."""
        store = config.store
        if payload.get("status") == "done":
            value = _decode(payload["result"])
            store.put(
                SHARD_RESULT_KIND,
                shard_result_key(config.label, config.worker_name, digest),
                {"result": value, "attempts": int(payload.get("attempts", 1))},
            )
            return consume(digest, "result", value)
        task = _decode(payload["task"]) if payload.get("task") else None
        sentinel = QuarantinedTask.from_payload(digest, {**payload, "task": task})
        store.put(
            POISON_KIND,
            poison_key(config.label, config.worker_name, digest),
            {
                "task": task,
                "digest": digest,
                "attempts": sentinel.attempts,
                "errors": sentinel.errors,
            },
        )
        return consume(digest, "poison", sentinel)

    def _drain_inline(
        self,
        config: _BrokerWorkerConfig,
        enqueue: dict[str, Any],
        positions: dict[str, list[int]],
        stats: dict[str, int],
        consume: Callable[[str, str, Any], list[tuple[int, Any]]],
    ) -> Iterator[tuple[int, Any]]:
        """No-broker fallback: finish the sweep on an in-process ledger.

        Used when the broker can never be reached (attached mode) or its
        restart budget is spent (embedded mode).  ``enqueue`` (the unsettled
        records) goes into a journal-less :class:`SweepLedger`, and one
        :class:`_BrokerWorker` claims, executes and settles them through it —
        the broker's own leases, :func:`fail_transition` requeues, backoff
        windows and quarantine — so even total broker loss degrades to a
        slower, never a different, sweep.
        """
        client = _LocalClient(SweepLedger())
        client.call(enqueue)
        worker = _BrokerWorker(replace(config, worker_index=-1, fault_plan=None), client)
        try:
            while positions:
                if worker.step() == "idle":
                    time.sleep(config.poll_seconds)  # every task in backoff
                reply = client.call(
                    {"op": "collect", "sweep": config.sweep_id, "digests": sorted(positions)}
                )
                for digest, payload in reply["settled"].items():
                    yield from self._absorb(config, digest, payload, consume)
            stats["inline_drained"] += worker.completed
        finally:
            worker.close()


# -------------------------------------------------------------------- CLI


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.broker`` — run and manage a task broker."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.broker",
        description="Run and manage the socket sweep broker.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    serve_parser = commands.add_parser(
        "serve", help="run a broker (foreground; --supervise restarts it on death)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"bind port (0 picks a free one; default {DEFAULT_PORT})",
    )
    serve_parser.add_argument(
        "--journal-dir",
        default=None,
        help="journal directory (default: <cache root>/broker)",
    )
    serve_parser.add_argument(
        "--supervise",
        action="store_true",
        help="run the broker as a child process and restart it if it dies "
        "abnormally (journal replay makes the restart lossless)",
    )
    serve_parser.add_argument(
        "--max-restarts",
        type=int,
        default=2,
        metavar="N",
        help="restart budget under --supervise (default 2)",
    )
    for name in ("ping", "stop"):
        sub = commands.add_parser(
            name,
            help=(
                "probe a broker's liveness" if name == "ping" else "stop a broker"
            ),
        )
        sub.add_argument(
            "--broker",
            required=True,
            metavar="HOST:PORT",
            help="address of the broker to contact",
        )
    args = parser.parse_args(argv)

    if args.command in ("ping", "stop"):
        try:
            address = parse_address(args.broker)
        except ValueError as error:
            parser.error(str(error))
        client = BrokerClient(address, timeout=5.0, attempts=3, backoff=0.1)
        try:
            reply = client.call({"op": args.command})
        except BrokerError as error:
            print(f"broker at {args.broker}: {error}", file=sys.stderr)
            return 1
        finally:
            client.close()
        print(json.dumps({"broker": args.broker, **reply}))
        return 0

    plan = FaultPlan.from_env()
    journal_dir = (
        Path(args.journal_dir)
        if args.journal_dir is not None
        else Path(default_cache().root) / "broker"
    )
    if not args.supervise:
        server = BrokerServer((args.host, args.port), journal_dir, plan)
        host, port = server.address
        print(f"broker listening on {host}:{port} (journal: {journal_dir})", flush=True)
        with server:
            try:
                server.serve_forever(poll_interval=0.2)
            except KeyboardInterrupt:
                pass
        return 0

    broker = _EmbeddedBroker(
        journal_dir,
        plan,
        multiprocessing.get_context("fork" if sys.platform == "linux" else "spawn"),
    )
    broker.host, broker.port = args.host, int(args.port)
    restarts = 0
    while True:
        try:
            host, port = broker.start()
        except (OSError, RuntimeError, EOFError):
            pass  # died (or hung) before binding: judged by its exit code below
        else:
            print(f"broker listening on {host}:{port} (journal: {journal_dir})", flush=True)
        broker.process.join()
        exitcode = broker.process.exitcode
        if exitcode == 0:
            return 0
        if restarts >= int(args.max_restarts):
            print(
                f"broker died (exit {exitcode}) with the restart budget spent",
                file=sys.stderr,
            )
            return 1
        restarts += 1
        print(
            f"broker died (exit {exitcode}); restarting on {broker.host}:{broker.port} "
            f"({restarts}/{args.max_restarts})",
            flush=True,
        )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    from repro.experiments.common import dispatch_canonical_main

    raise SystemExit(dispatch_canonical_main(__spec__))
