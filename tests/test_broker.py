"""Chaos tests for the socket broker: leases, wire protocol, journal, backend.

Five layers, tested bottom-up: the *lease* expiry rule and the fault-plan
harness; the broker *protocol* (idempotent claims, stale fails, duplicate
completions) against a live in-process server; the *journal* (a SIGKILLed
broker restarts with zero lost claims and zero lost results, tolerating a
torn final line); the socket-free *ledger* (after any op sequence, a
replay of its journal equals its live state); and the *backend* (real
worker processes, partitions, dropped connections, and a broker killed
mid-sweep — the merged map must stay bit-identical to
:class:`SerialBackend`, a resume must recompute nothing, and a poisonous
task is quarantined after exactly ``retries + 1`` attempts instead of
deadlocking the sweep).  Last, ``serve --supervise`` runs as a real
subprocess and must restart a killed broker on the same port.
"""

from __future__ import annotations

import json
import os
import queue
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.broker import (
    BrokerBackend,
    BrokerClient,
    BrokerError,
    BrokerServer,
    BrokerUnreachable,
    DEFAULT_QUEUE_RETRIES,
    SweepLedger,
    lease_expired,
    new_lease,
    parse_address,
    _encode,
)
from repro.experiments.cache import ArtifactCache
from repro.experiments.engine import (
    QuarantinedTask,
    SweepRunner,
    expand_grid,
    resolve_backend,
)
from repro.experiments.faults import (
    ENV_FAULT_PLAN,
    DelayAck,
    DelayTask,
    DropConnection,
    FaultPlan,
    KillBroker,
    KillWorker,
    PartitionWorker,
    SuppressHeartbeat,
)


def _log_execution(log_path, tag):
    with open(log_path, "a") as handle:
        handle.write(f"{tag}\n")


def _log_counts(log_path):
    try:
        lines = open(log_path).read().split()
    except OSError:
        return {}
    counts: dict[str, int] = {}
    for line in lines:
        counts[line] = counts.get(line, 0) + 1
    return counts


def _draw_worker(shared, task):
    rng = np.random.default_rng(task.seed)
    return {
        "voltage": task.voltage,
        "offset": shared["offset"],
        "draw": float(rng.uniform()),
    }


def _logged_worker(shared, task):
    _log_execution(shared["log"], f"{task.voltage}")
    return _draw_worker(shared, task)


def _poison_worker(shared, task):
    if "log" in shared:
        _log_execution(shared["log"], f"{task.voltage}")
    if task.voltage == shared["bad"]:
        raise RuntimeError("injected poison")
    return task.voltage * 2.0


def _grid(n=8, seed=23):
    return expand_grid(
        voltages=tuple(round(0.40 + 0.02 * i, 2) for i in range(n)), seed=seed
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactCache(root=tmp_path / "cache")


def _broker_backend(store, **kw):
    kw.setdefault("lease_seconds", 10.0)
    kw.setdefault("poll_seconds", 0.01)
    kw.setdefault("connect_backoff", 0.02)
    return BrokerBackend(store=store, journal_dir=store.root / "broker", **kw)


def _runner(backend, store, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("sweep_label", "broker-test")
    return SweepRunner(backend=backend, shard_store=store, **kw)


def _no_repro_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-")]


# ------------------------------------------------------------------- protocol


SWEEP = "sweep-abc123"


@pytest.fixture
def live_broker(tmp_path):
    """An in-process broker server plus a connected client."""
    server = BrokerServer(("127.0.0.1", 0), journal_dir=tmp_path / "journal")
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    client = BrokerClient(server.address, timeout=5.0, attempts=3, backoff=0.01)
    try:
        yield server, client
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def _records(n):
    return [
        {
            "digest": f"digest-{i:02d}",
            "task": _encode({"index": i}),
            "attempts": 0,
            "not_before": 0.0,
            "errors": [],
        }
        for i in range(n)
    ]


def _enqueue(client, n, retries=2, backoff=0.01):
    return client.call(
        {
            "op": "enqueue",
            "sweep": SWEEP,
            "retries": retries,
            "backoff": backoff,
            "records": _records(n),
        }
    )


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:7464") == ("127.0.0.1", 7464)

    def test_sequence_passthrough(self):
        assert parse_address(("broker.lan", 80)) == ("broker.lan", 80)

    def test_rejects_malformed(self):
        for bad in ("localhost", "host:", ":80", "host:port"):
            with pytest.raises(ValueError, match="HOST:PORT"):
                parse_address(bad)


class TestLeases:
    """The one expiry rule every steal decision rests on."""

    def test_fresh_lease_not_expired(self):
        assert lease_expired(new_lease("w0", 30.0)) is False

    def test_missed_heartbeats_expire(self):
        lease = new_lease("w0", 5.0)
        assert lease["heartbeat_deadline"] > lease["acquired"]
        assert lease["hard_deadline"] is None
        assert lease_expired(lease, now=lease["heartbeat_deadline"] + 0.1) is True

    @staticmethod
    def _claim_one(live_broker, lease_seconds, hard_timeout=None):
        """Claim a single task as ``w0``; return the server and its digest."""
        server, client = live_broker
        _enqueue(client, 1)
        claim = client.call(
            {
                "op": "claim",
                "sweep": SWEEP,
                "owner": "w0",
                "lease_seconds": lease_seconds,
                "hard_timeout": hard_timeout,
            }
        )
        return server, client, claim["record"]["digest"]

    @staticmethod
    def _renew(client, digest, owner, lease_seconds):
        return client.call(
            {
                "op": "renew",
                "sweep": SWEEP,
                "digest": digest,
                "owner": owner,
                "lease_seconds": lease_seconds,
            }
        )["renewed"]

    def test_renew_pushes_heartbeat_deadline(self, live_broker):
        server, client, digest = self._claim_one(live_broker, 0.1)
        before = server.ledger._sweeps[SWEEP].leases[digest]["heartbeat_deadline"]
        assert self._renew(client, digest, "w0", 60.0) is True
        after = server.ledger._sweeps[SWEEP].leases[digest]["heartbeat_deadline"]
        assert after > before

    def test_renew_requires_ownership(self, live_broker):
        server, client, digest = self._claim_one(live_broker, 5.0)
        before = dict(server.ledger._sweeps[SWEEP].leases[digest])
        assert self._renew(client, digest, "impostor", 3600.0) is False
        assert server.ledger._sweeps[SWEEP].leases[digest] == before
        assert server.ledger._sweeps[SWEEP].leases[digest]["owner"] == "w0"

    def test_hard_deadline_survives_renewal(self, live_broker):
        """--task-timeout is absolute: heartbeats cannot extend it."""
        server, client, digest = self._claim_one(live_broker, 5.0, hard_timeout=0.5)
        assert self._renew(client, digest, "w0", 3600.0) is True
        lease = server.ledger._sweeps[SWEEP].leases[digest]
        assert lease["heartbeat_deadline"] > time.time() + 3000.0
        assert lease_expired(lease, now=lease["hard_deadline"] + 0.1) is True

    def test_malformed_lease_counts_as_expired(self):
        assert lease_expired({"owner": "w0"}) is True  # no deadlines at all
        assert lease_expired(None) is True


class TestFaultPlan:
    def _plan(self):
        return FaultPlan(
            rules=(
                KillWorker(worker=0, after_tasks=1, phase="publish"),
                DelayTask(worker=1, seconds=0.25, every=2),
                SuppressHeartbeat(worker=2, after_tasks=1),
            )
        )

    def test_json_round_trip(self):
        plan = self._plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_round_trip(self, monkeypatch):
        plan = self._plan()
        env: dict[str, str] = {}
        plan.to_env(env)
        monkeypatch.setenv(ENV_FAULT_PLAN, env[ENV_FAULT_PLAN])
        assert FaultPlan.from_env() == plan

    def test_from_env_absent(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
        assert FaultPlan.from_env() is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_json('[{"kind": "meteor", "worker": 0}]')

    def test_kill_phase_validated(self):
        with pytest.raises(ValueError, match="phase"):
            KillWorker(worker=0, phase="mid-air")

    def test_rules_dispatch_by_worker_index(self):
        plan = self._plan()
        # worker 2 is heartbeat-suppressed after 1 task; worker 0 is not
        assert plan.for_worker(2).heartbeat_allowed(0) is True
        assert plan.for_worker(2).heartbeat_allowed(1) is False
        assert plan.for_worker(0).heartbeat_allowed(100) is True

    def test_seeded_kill_point_is_deterministic(self):
        rule = KillWorker(worker=0, after_tasks=None)
        first = FaultPlan(rules=(rule,), seed=7).for_worker(0)._kill
        second = FaultPlan(rules=(rule,), seed=7).for_worker(0)._kill
        assert first == second
        assert 1 <= first[0] <= 3

    def test_delay_fires_every_nth_claim(self, monkeypatch):
        naps: list[float] = []
        monkeypatch.setattr(
            "repro.experiments.faults.time.sleep", lambda s: naps.append(s)
        )
        injector = self._plan().for_worker(1)
        for completed in range(4):
            injector.on_claim(completed)
        assert naps == [0.25, 0.25]  # claims 2 and 4 only


class TestProtocol:
    def test_ping(self, live_broker):
        _server, client = live_broker
        assert client.call({"op": "ping"}) == {"ok": True, "sweeps": 0}

    def test_enqueue_claim_complete_collect(self, live_broker):
        _server, client = live_broker
        reply = _enqueue(client, 2)
        assert (reply["enqueued"], reply["known"]) == (2, 0)
        claim = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        digest = claim["record"]["digest"]
        done = client.call(
            {
                "op": "complete",
                "sweep": SWEEP,
                "owner": "w0",
                "digest": digest,
                "attempts": 1,
                "result": _encode(41.5),
            }
        )
        assert done["duplicate"] is False
        collected = client.call(
            {"op": "collect", "sweep": SWEEP, "digests": [digest]}
        )
        payload = collected["settled"][digest]
        assert payload["status"] == "done" and payload["attempts"] == 1
        assert collected["pending"] == 1

    def test_enqueue_is_idempotent(self, live_broker):
        _server, client = live_broker
        _enqueue(client, 3)
        reply = _enqueue(client, 3)
        assert (reply["enqueued"], reply["known"]) == (0, 3)

    def test_claim_idempotent_per_owner(self, live_broker):
        """A re-sent claim (lost reply) returns the owner's own lease back."""
        _server, client = live_broker
        _enqueue(client, 2)
        first = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        again = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        assert again["record"]["digest"] == first["record"]["digest"]
        other = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w1", "lease_seconds": 5.0}
        )
        assert other["record"]["digest"] != first["record"]["digest"]

    def test_duplicate_complete_absorbed(self, live_broker):
        _server, client = live_broker
        _enqueue(client, 1)
        claim = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        message = {
            "op": "complete",
            "sweep": SWEEP,
            "owner": "w0",
            "digest": claim["record"]["digest"],
            "attempts": 1,
            "result": _encode("value"),
        }
        assert client.call(message)["duplicate"] is False
        assert client.call(message)["duplicate"] is True

    def test_stale_fail_ignored(self, live_broker):
        """fail is keyed on claim-time attempts: the re-send cannot double-count."""
        _server, client = live_broker
        _enqueue(client, 1, retries=5)
        claim = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        digest = claim["record"]["digest"]
        message = {
            "op": "fail",
            "sweep": SWEEP,
            "owner": "w0",
            "digest": digest,
            "attempts": 0,
            "error": "boom",
        }
        assert client.call(message)["state"] == "requeued"
        assert client.call(message)["state"] == "stale"

    def test_fail_quarantines_after_budget(self, live_broker):
        _server, client = live_broker
        _enqueue(client, 1, retries=0)
        claim = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        digest = claim["record"]["digest"]
        reply = client.call(
            {
                "op": "fail",
                "sweep": SWEEP,
                "owner": "w0",
                "digest": digest,
                "attempts": 0,
                "error": "boom",
            }
        )
        assert reply["state"] == "quarantined"
        collected = client.call({"op": "collect", "sweep": SWEEP, "digests": [digest]})
        payload = collected["settled"][digest]
        assert payload["status"] == "poison"
        assert payload["attempts"] == 1 and "boom" in payload["errors"][-1]

    def test_complete_after_retire_acks_duplicate(self, live_broker):
        """A late ack for a retired sweep must not error the worker."""
        _server, client = live_broker
        _enqueue(client, 1)
        client.call({"op": "retire", "sweep": SWEEP})
        reply = client.call(
            {
                "op": "complete",
                "sweep": SWEEP,
                "owner": "w0",
                "digest": "digest-00",
                "attempts": 1,
                "result": _encode(1),
            }
        )
        assert reply["duplicate"] is True

    def test_shutdown_stops_claims(self, live_broker):
        _server, client = live_broker
        _enqueue(client, 2)
        client.call({"op": "shutdown", "sweep": SWEEP})
        claim = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        assert claim["shutdown"] is True and claim["record"] is None

    def test_unknown_op_refused(self, live_broker):
        _server, client = live_broker
        with pytest.raises(BrokerError, match="unknown op"):
            client.call({"op": "teleport", "sweep": SWEEP})

    def test_invalid_sweep_id_refused(self, live_broker):
        _server, client = live_broker
        with pytest.raises(BrokerError, match="invalid sweep id"):
            client.call({"op": "claim", "sweep": "../escape", "owner": "w0"})

    def test_refused_enqueue_leaves_no_state(self, live_broker):
        """Validation precedes every commit: a refusal leaves nothing behind."""
        server, client = live_broker
        sweeps = client.call({"op": "ping"})["sweeps"]
        with pytest.raises(BrokerError, match="without digest"):
            client.call(
                {
                    "op": "enqueue",
                    "sweep": SWEEP,
                    "records": [_records(1)[0], {"task": "no digest"}],
                }
            )
        with pytest.raises(BrokerError, match="ValueError"):
            client.call(
                {"op": "enqueue", "sweep": SWEEP, "retries": "many", "records": _records(1)}
            )
        collected = client.call({"op": "collect", "sweep": SWEEP, "digests": []})
        assert collected["pending"] == 0
        assert not (server.ledger.journal_dir / f"{SWEEP}.journal").exists()
        assert client.call({"op": "ping"})["sweeps"] == sweeps

    def test_unreachable_raises_after_budget(self, tmp_path):
        client = BrokerClient(("127.0.0.1", 1), timeout=0.2, attempts=2, backoff=0.01)
        with pytest.raises(BrokerUnreachable, match="2 attempt"):
            client.call({"op": "ping"})
        assert client.try_call({"op": "ping"}) is None


class TestJournalReplay:
    def _fill(self, tmp_path, journal_dir):
        """Enqueue 3, complete one, fail one, leave one leased; close abruptly."""
        server = BrokerServer(("127.0.0.1", 0), journal_dir=journal_dir)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        client = BrokerClient(server.address, timeout=5.0, attempts=3, backoff=0.01)
        # wide backoff: the failed task's requeue must still be inside its
        # backoff window when the replay assertions run
        _enqueue(client, 3, retries=5, backoff=30.0)
        first = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 30.0}
        )["record"]["digest"]
        client.call(
            {
                "op": "complete",
                "sweep": SWEEP,
                "owner": "w0",
                "digest": first,
                "attempts": 1,
                "result": _encode("settled-value"),
            }
        )
        second = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 30.0}
        )["record"]["digest"]
        client.call(
            {
                "op": "fail",
                "sweep": SWEEP,
                "owner": "w0",
                "digest": second,
                "attempts": 0,
                "error": "first attempt failed",
            }
        )
        third = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w1", "lease_seconds": 30.0}
        )["record"]["digest"]
        client.close()
        # no retire, no clean shutdown of state: everything must come back
        # from the journal alone (server_close only closes file handles)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        return first, second, third

    def test_replay_restores_settled_pending_and_leases(self, tmp_path):
        journal_dir = tmp_path / "journal"
        first, second, third = self._fill(tmp_path, journal_dir)
        revived = BrokerServer(("127.0.0.1", 0), journal_dir=journal_dir)
        try:
            collected = revived.handle_message(
                {"op": "collect", "sweep": SWEEP, "digests": [first, second, third]}
            )
            # the completed task survives with its exact payload
            assert collected["settled"][first]["result"] == _encode("settled-value")
            # the failed task is pending again with its attempt counted
            assert collected["pending"] == 2
            # w1's live lease survives: w1 re-claims its own record, w2 is
            # refused it (the failed task is inside its backoff window and
            # third is leased, so w2 gets nothing)
            reclaim = revived.handle_message(
                {"op": "claim", "sweep": SWEEP, "owner": "w1", "lease_seconds": 30.0}
            )
            assert reclaim["record"]["digest"] == third
            stranger = revived.handle_message(
                {"op": "claim", "sweep": SWEEP, "owner": "w2", "lease_seconds": 30.0}
            )
            assert stranger["record"] is None
        finally:
            revived.server_close()

    def test_replay_skips_torn_final_line(self, tmp_path):
        journal_dir = tmp_path / "journal"
        first, _second, _third = self._fill(tmp_path, journal_dir)
        path = journal_dir / f"{SWEEP}.journal"
        with open(path, "ab") as handle:
            handle.write(b'{"entry": "done", "digest": "torn')  # no newline
        revived = BrokerServer(("127.0.0.1", 0), journal_dir=journal_dir)
        try:
            collected = revived.handle_message(
                {"op": "collect", "sweep": SWEEP, "digests": [first, "torn"]}
            )
            assert first in collected["settled"]
            assert "torn" not in collected["settled"]
        finally:
            revived.server_close()

    def test_retire_deletes_journal(self, tmp_path):
        journal_dir = tmp_path / "journal"
        self._fill(tmp_path, journal_dir)
        revived = BrokerServer(("127.0.0.1", 0), journal_dir=journal_dir)
        try:
            assert (journal_dir / f"{SWEEP}.journal").exists()
            revived.handle_message({"op": "retire", "sweep": SWEEP})
            assert not (journal_dir / f"{SWEEP}.journal").exists()
            assert revived.handle_message({"op": "ping"}) == {"ok": True, "sweeps": 0}
        finally:
            revived.server_close()


class TestSweepLedger:
    """The socket-free state machine: live state always equals its replay."""

    OPS = ("enqueue", "claim", "renew", "complete", "fail", "collect", "shutdown")

    @staticmethod
    def _state(ledger):
        # heartbeat deadlines are left out: replay re-arms them on purpose
        return {
            sweep_id: {
                "tasks": state.tasks,
                "settled": state.settled,
                "retries": state.retries,
                "backoff": state.backoff,
                "shutdown": state.shutdown,
                "leases": {
                    digest: (lease["owner"], lease["hard_deadline"])
                    for digest, lease in state.leases.items()
                },
            }
            for sweep_id, state in ledger._sweeps.items()
        }

    @staticmethod
    def _message(ledger, op, index, owner, lease_seconds, hard_timeout):
        digest = f"digest-{index:02d}"
        if op == "enqueue":
            return {
                "op": op,
                "sweep": SWEEP,
                "retries": index % 2,
                "backoff": 0.0,
                "records": _records(index + 1),
            }
        state = ledger._sweeps.get(SWEEP)
        record = state.tasks.get(digest, {}) if state is not None else {}
        return {
            "op": op,
            "sweep": SWEEP,
            "owner": owner,
            "digest": digest,
            "digests": [f"digest-{i:02d}" for i in range(4)],
            "lease_seconds": lease_seconds,
            "hard_timeout": hard_timeout,
            "attempts": record.get("attempts", 0) + (op == "complete"),
            "error": f"{owner} failed",
            "result": _encode(index),
        }

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(0, 3),
                st.sampled_from(("w0", "w1")),
                st.sampled_from((0, 30)),
                st.sampled_from((None, 0, 30)),
            ),
            max_size=25,
        )
    )
    def test_replay_matches_live_state(self, ops):
        with tempfile.TemporaryDirectory() as journal_dir:
            live = SweepLedger(journal_dir)
            try:
                for op in ops:
                    reply = live.handle(self._message(live, *op))
                    assert reply["ok"], reply
                    replayed = SweepLedger(journal_dir)
                    assert self._state(replayed) == self._state(live), op
            finally:
                live.close()

    def test_no_journal_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ledger = SweepLedger()
        assert ledger.journal_dir is None
        reply = ledger.handle(
            {"op": "enqueue", "sweep": SWEEP, "records": _records(2)}
        )
        assert reply["enqueued"] == 2
        claim = ledger.handle(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        digest = claim["record"]["digest"]
        ledger.handle(
            {"op": "complete", "sweep": SWEEP, "digest": digest, "result": _encode(1)}
        )
        ledger.handle({"op": "shutdown", "sweep": SWEEP})
        ledger.handle({"op": "retire", "sweep": SWEEP})
        ledger.close()
        assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------------- backend


class TestBrokerBackend:
    def test_resolve_backend_accepts_broker(self):
        assert isinstance(resolve_backend("broker"), BrokerBackend)

    def test_matches_serial_bit_identical(self, store):
        tasks = _grid(8)
        shared = {"offset": 4}
        backend = _broker_backend(store)
        broker = _runner(backend, store, workers=3).map(
            _draw_worker, tasks, shared=shared
        )
        serial = SweepRunner(workers=1).map(_draw_worker, tasks, shared=shared)
        assert broker == serial
        assert backend.last_stats["tasks"] == 8
        assert backend.last_stats["enqueued"] == 8
        assert backend.last_stats["quarantined"] == 0
        assert backend.last_stats["broker_restarts"] == 0
        # a fully settled sweep retires its journal
        journal_dir = store.root / "broker"
        assert not journal_dir.exists() or not list(journal_dir.glob("*.journal"))

    def test_restart_recomputes_nothing(self, store, tmp_path):
        tasks = _grid(6)
        shared = {"offset": 1, "log": str(tmp_path / "executions.log")}
        first = _runner(_broker_backend(store), store).map(
            _logged_worker, tasks, shared=shared
        )
        counts = _log_counts(shared["log"])
        assert set(counts.values()) == {1}
        second_backend = _broker_backend(store)
        second = _runner(second_backend, store).map(
            _logged_worker, tasks, shared=shared
        )
        assert second == first
        assert second_backend.last_stats["recalled"] == 6
        assert second_backend.last_stats["enqueued"] == 0
        assert _log_counts(shared["log"]) == counts  # zero recomputation

    def test_env_selects_broker_backend(self, monkeypatch, store):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "broker")
        tasks = _grid(4)
        shared = {"offset": 2}
        runner = SweepRunner(workers=2, shard_store=store, sweep_label="env-broker")
        results = runner.map(_draw_worker, tasks, shared=shared)
        serial = SweepRunner(workers=1, backend="serial").map(
            _draw_worker, tasks, shared=shared
        )
        assert results == serial

    def test_one_worker_keeps_broker_semantics(self, store):
        """SweepRunner must not downgrade the broker to in-process serial."""
        tasks = _grid(3)
        backend = _broker_backend(store)
        results = _runner(backend, store, workers=1).map(
            _draw_worker, tasks, shared={"offset": 0}
        )
        assert len(results) == 3
        assert backend.last_stats["enqueued"] == 3  # the broker actually ran

    def test_interrupted_coordinator_resumes_exactly_once(self, store, tmp_path):
        """Kill the coordinator mid-sweep; the resume finishes the remainder.

        Every task executes exactly once across both incarnations — the
        interrupted run's published results are never recomputed.
        """
        tasks = _grid(8)
        shared = {"offset": 5, "log": str(tmp_path / "executions.log")}
        backend = _broker_backend(store)
        execution = _runner(backend, store).submit(_logged_worker, tasks, shared=shared)
        stream = execution.as_completed()
        consumed = [next(stream) for _ in range(2)]
        assert len(consumed) == 2
        execution.close()  # the "coordinator killed mid-sweep" moment
        # an abandoned sweep keeps its journal for the resume
        assert list((store.root / "broker").glob("*.journal"))
        resumed_backend = _broker_backend(store)
        resumed = _runner(resumed_backend, store).map(
            _logged_worker, tasks, shared=shared
        )
        reference = SweepRunner(workers=1).map(
            _logged_worker,
            tasks,
            shared={"offset": 5, "log": str(tmp_path / "reference.log")},
        )
        assert resumed == reference
        counts = _log_counts(shared["log"])
        assert sorted(counts) == sorted(str(t.voltage) for t in tasks)
        assert set(counts.values()) == {1}

    def test_overlapping_sweeps_dedup_through_store(self, store, tmp_path):
        """Two sweeps over overlapping grids share every common task."""
        shared = {"offset": 2, "log": str(tmp_path / "executions.log")}
        narrow = _grid(5)
        _runner(_broker_backend(store), store).map(_logged_worker, narrow, shared=shared)
        wide_backend = _broker_backend(store)
        wide = _runner(wide_backend, store).map(_logged_worker, _grid(8), shared=shared)
        assert len(wide) == 8
        assert wide_backend.last_stats["recalled"] == 5
        assert wide_backend.last_stats["enqueued"] == 3
        counts = _log_counts(shared["log"])
        assert len(counts) == 8 and set(counts.values()) == {1}

    def test_suppressed_heartbeat_forces_steal(self, store, tmp_path):
        """A partitioned-but-alive worker loses its lease; the sweep absorbs
        the duplicate execution through idempotent publishes."""
        plan = FaultPlan(
            rules=(
                SuppressHeartbeat(worker=0, after_tasks=0),
                DelayTask(worker=0, seconds=1.0),
            )
        )
        backend = _broker_backend(
            store, lease_seconds=0.2, backoff=0.02, fault_plan=plan
        )
        tasks = _grid(3)
        shared = {"offset": 9, "log": str(tmp_path / "executions.log")}
        results = _runner(backend, store, workers=2).map(
            _logged_worker, tasks, shared=shared
        )
        reference = SweepRunner(workers=1).map(
            _logged_worker,
            tasks,
            shared={"offset": 9, "log": str(tmp_path / "reference.log")},
        )
        assert results == reference
        assert backend.last_stats["worker_deaths"] == 0  # nobody died
        counts = _log_counts(shared["log"])
        assert sorted(counts) == sorted(str(t.voltage) for t in tasks)
        assert max(counts.values()) >= 2  # the stalled task ran twice

    def test_kill_broker_restarts_without_recomputation(self, store, tmp_path):
        """SIGKILL the broker after journaling a completion (the ack is lost).

        The coordinator restarts it on the same port, journal replay restores
        every settled task, the worker re-sends the lost ack (absorbed as a
        duplicate), and nothing is ever executed twice.
        """
        plan = FaultPlan(rules=(KillBroker(after_completions=3),))
        backend = _broker_backend(
            store, lease_seconds=2.0, fault_plan=plan, backoff=0.02
        )
        tasks = _grid(8)
        shared = {"offset": 3, "log": str(tmp_path / "executions.log")}
        start = time.perf_counter()
        chaos = _runner(backend, store, workers=2).map(
            _logged_worker, tasks, shared=shared
        )
        elapsed = time.perf_counter() - start
        serial = SweepRunner(workers=1).map(
            _logged_worker,
            tasks,
            shared={"offset": 3, "log": str(tmp_path / "reference.log")},
        )
        assert chaos == serial
        # recovery is bounded by the lease horizon, not by the client's
        # whole reconnect window
        assert elapsed < backend.lease_seconds + 3.0
        assert backend.last_stats["broker_restarts"] == 1
        assert backend.last_stats["quarantined"] == 0
        counts = _log_counts(shared["log"])
        assert sorted(counts) == sorted(str(t.voltage) for t in tasks)
        assert set(counts.values()) == {1}  # replay made the restart lossless

    @staticmethod
    def _chaos_sweep(store, rules, lease_seconds, backoff, num_tasks):
        """Run ``num_tasks`` draws on four workers under ``rules``; return the
        backend, the chaos merge and the serial reference."""
        backend = _broker_backend(
            store,
            lease_seconds=lease_seconds,
            respawn=False,
            backoff=backoff,
            fault_plan=FaultPlan(rules=rules),
        )
        tasks = _grid(num_tasks)
        shared = {"offset": 7}
        chaos = _runner(backend, store, workers=4).map(
            _draw_worker, tasks, shared=shared
        )
        serial = SweepRunner(workers=1).map(_draw_worker, tasks, shared=shared)
        return backend, chaos, serial

    def test_kill_workers_mid_sweep_bit_identical(self, store):
        backend, chaos, serial = self._chaos_sweep(
            store,
            rules=(
                KillWorker(worker=0, after_tasks=1, phase="claim"),
                KillWorker(worker=1, after_tasks=1, phase="publish"),
            ),
            lease_seconds=0.4,
            backoff=0.02,
            num_tasks=10,
        )
        assert chaos == serial
        assert backend.last_stats["worker_deaths"] == 2
        assert backend.last_stats["quarantined"] == 0

    def test_every_chaos_rule_in_one_sweep_bit_identical(self, store):
        """Every chaos rule in one sweep: two workers SIGKILLed (one holding a
        fresh lease, one right after a publish), a third partitioned from the
        broker, a fourth losing its ``complete`` acks, and the broker itself
        SIGKILLed after journaling its third completion.  The merge must
        still equal the serial reference, and a brand-new coordinator over
        the same store must recall every task and recompute none.
        """
        backend, chaos, serial = self._chaos_sweep(
            store,
            rules=(
                KillWorker(worker=0, after_tasks=1, phase="claim"),
                KillWorker(worker=1, after_tasks=1, phase="publish"),
                PartitionWorker(worker=2, after_tasks=1, seconds=0.8),
                DropConnection(worker=3, every=2, op="complete", limit=2),
                KillBroker(after_completions=3),
            ),
            lease_seconds=0.5,
            backoff=0.05,
            num_tasks=12,
        )
        assert chaos == serial
        assert backend.last_stats["worker_deaths"] == 2
        assert backend.last_stats["broker_restarts"] == 1
        assert backend.last_stats["quarantined"] == 0

        resumed_backend = _broker_backend(store)
        resumed = _runner(resumed_backend, store).map(
            _draw_worker, _grid(12), shared={"offset": 7}
        )
        assert resumed == serial
        assert resumed_backend.last_stats["recalled"] == 12
        assert resumed_backend.last_stats["enqueued"] == 0

    def test_partition_forces_steal_and_absorbs_duplicate(self, store, tmp_path):
        """A partitioned worker's task is stolen; its late publish is absorbed.

        The straggler delay keeps the task mid-flight while the partition
        outlives the lease, so the broker re-leases it to the healthy worker
        and both executions land on the same idempotent store key.
        """
        plan = FaultPlan(
            rules=(
                PartitionWorker(worker=0, after_tasks=0, seconds=0.8),
                DelayTask(worker=0, seconds=0.6),
            )
        )
        backend = _broker_backend(
            store, lease_seconds=0.2, backoff=0.02, fault_plan=plan
        )
        tasks = _grid(3)
        shared = {"offset": 9, "log": str(tmp_path / "executions.log")}
        results = _runner(backend, store, workers=2).map(
            _logged_worker, tasks, shared=shared
        )
        reference = SweepRunner(workers=1).map(
            _logged_worker,
            tasks,
            shared={"offset": 9, "log": str(tmp_path / "reference.log")},
        )
        assert results == reference
        assert backend.last_stats["quarantined"] == 0
        counts = _log_counts(shared["log"])
        assert sorted(counts) == sorted(str(t.voltage) for t in tasks)
        assert max(counts.values()) >= 2  # the stolen task ran twice

    def test_dropped_ack_resent_and_absorbed(self, store, tmp_path):
        """DropConnection severs the socket after the complete is sent.

        The reply is lost; the client reconnects and re-sends; the broker
        answers ``duplicate: true``; the task is never executed twice.
        """
        plan = FaultPlan(
            rules=(DropConnection(worker=0, every=1, op="complete", limit=2),)
        )
        backend = _broker_backend(store, fault_plan=plan, backoff=0.02)
        tasks = _grid(4)
        shared = {"offset": 6, "log": str(tmp_path / "executions.log")}
        results = _runner(backend, store, workers=1).map(
            _logged_worker, tasks, shared=shared
        )
        reference = SweepRunner(workers=1).map(
            _logged_worker,
            tasks,
            shared={"offset": 6, "log": str(tmp_path / "reference.log")},
        )
        assert results == reference
        counts = _log_counts(shared["log"])
        assert set(counts.values()) == {1}  # re-sent acks, not re-executions

    def test_delayed_ack_expires_lease_and_absorbs(self, store, tmp_path):
        plan = FaultPlan(rules=(DelayAck(worker=0, seconds=0.5, every=1),))
        backend = _broker_backend(
            store, lease_seconds=0.2, backoff=0.02, fault_plan=plan
        )
        tasks = _grid(2)
        shared = {"offset": 8, "log": str(tmp_path / "executions.log")}
        results = _runner(backend, store, workers=2).map(
            _logged_worker, tasks, shared=shared
        )
        reference = SweepRunner(workers=1).map(
            _logged_worker,
            tasks,
            shared={"offset": 8, "log": str(tmp_path / "reference.log")},
        )
        assert results == reference
        assert backend.last_stats["quarantined"] == 0

    def test_unreachable_attached_broker_drains_inline(self, store):
        """A coordinator that can never reach its broker must not hang."""
        backend = _broker_backend(
            store,
            address="127.0.0.1:1",
            connect_timeout=0.2,
            connect_attempts=2,
        )
        tasks = _grid(4)
        shared = {"offset": 2}
        results = _runner(backend, store).map(_draw_worker, tasks, shared=shared)
        serial = SweepRunner(workers=1).map(_draw_worker, tasks, shared=shared)
        assert results == serial
        assert backend.last_stats["inline_drained"] == 4

    def test_broker_lost_past_restart_budget_drains_inline(self, store):
        """An embedded broker killed with no restart budget left: the sweep
        finishes on the coordinator's in-process ledger instead."""
        plan = FaultPlan(rules=(KillBroker(after_completions=2),))
        backend = _broker_backend(
            store,
            fault_plan=plan,
            max_broker_restarts=0,
            backoff=0.02,
            connect_timeout=0.5,
            connect_attempts=2,
        )
        tasks = _grid(8)
        shared = {"offset": 6}
        results = _runner(backend, store).map(_draw_worker, tasks, shared=shared)
        serial = SweepRunner(workers=1).map(_draw_worker, tasks, shared=shared)
        assert results == serial
        assert backend.last_stats["broker_restarts"] == 0
        assert backend.last_stats["inline_drained"] >= 1

    def test_inline_drain_keeps_retry_semantics(self, store):
        tasks = _grid(4)
        shared = {"offset": 0, "bad": tasks[1].voltage}
        backend = _broker_backend(
            store,
            address="127.0.0.1:1",
            connect_timeout=0.2,
            connect_attempts=2,
            backoff=0.01,
        )
        results = _runner(backend, store, retries=1).map(
            _poison_worker, tasks, shared=shared
        )
        poison = results[1]
        assert isinstance(poison, QuarantinedTask)
        assert poison.attempts == 2  # exactly retries + 1, same as the fleet
        assert backend.last_stats["quarantined"] == 1

    def test_poison_quarantined_after_exact_budget(self, store, tmp_path):
        tasks = _grid(5)
        shared = {
            "offset": 0,
            "log": str(tmp_path / "attempts.log"),
            "bad": tasks[2].voltage,
        }
        backend = _broker_backend(store, backoff=0.02)
        results = _runner(backend, store, retries=1).map(
            _poison_worker, tasks, shared=shared
        )
        poison = results[2]
        assert isinstance(poison, QuarantinedTask)
        assert poison.is_quarantined
        assert poison.attempts == 2  # exactly retries + 1
        assert "injected poison" in poison.errors[-1]
        assert f"voltage={tasks[2].voltage}" in poison.describe()
        healthy = [r for i, r in enumerate(results) if i != 2]
        assert healthy == [t.voltage * 2.0 for t in tasks if t is not tasks[2]]
        assert backend.last_stats["quarantined"] == 1
        assert backend.quarantined == [poison]
        assert _log_counts(shared["log"])[str(tasks[2].voltage)] == 2

    def test_poison_default_retry_budget(self, store, tmp_path):
        tasks = _grid(3)
        shared = {
            "offset": 0,
            "log": str(tmp_path / "attempts.log"),
            "bad": tasks[0].voltage,
        }
        backend = _broker_backend(store, backoff=0.01)
        results = _runner(backend, store).map(_poison_worker, tasks, shared=shared)
        assert results[0].attempts == DEFAULT_QUEUE_RETRIES + 1
        assert _log_counts(shared["log"])[str(tasks[0].voltage)] == (
            DEFAULT_QUEUE_RETRIES + 1
        )

    def test_poison_recalled_without_retrying(self, store, tmp_path):
        """A quarantined task is settled: resumes report it, never re-run it."""
        tasks = _grid(4)
        shared = {
            "offset": 0,
            "log": str(tmp_path / "attempts.log"),
            "bad": tasks[1].voltage,
        }
        first = _runner(_broker_backend(store, backoff=0.01), store, retries=1).map(
            _poison_worker, tasks, shared=shared
        )
        counts = _log_counts(shared["log"])
        backend = _broker_backend(store)
        second = _runner(backend, store, retries=1).map(
            _poison_worker, tasks, shared=shared
        )
        assert second == first
        assert backend.last_stats["enqueued"] == 0
        assert backend.last_stats["quarantined"] == 1
        assert _log_counts(shared["log"]) == counts

    def test_no_leaked_threads_or_processes(self, store):
        """Every sweep — healthy or degraded — must stop what it started."""
        assert _no_repro_threads() == []
        _runner(_broker_backend(store), store).map(
            _draw_worker, _grid(3), shared={"offset": 0}
        )
        assert _no_repro_threads() == []
        # the inline-drain path runs a worker (and its heartbeats) in-process
        degraded = _broker_backend(
            store, address="127.0.0.1:1", connect_timeout=0.2, connect_attempts=2
        )
        _runner(degraded, store).map(_draw_worker, _grid(3), shared={"offset": 5})
        assert _no_repro_threads() == []

    def test_disabled_store_rejected(self, tmp_path):
        backend = BrokerBackend(
            store=ArtifactCache(root=tmp_path / "cache", enabled=False)
        )
        with pytest.raises(ValueError, match="REPRO_CACHE_DISABLE"):
            _runner(backend, None).map(_draw_worker, _grid(2), shared={"offset": 0})

    def test_undigestable_shared_needs_label(self, store):
        backend = _broker_backend(store)
        runner = SweepRunner(backend=backend, workers=1, sweep_label="")
        with pytest.raises(ValueError, match="sweep_label"):
            runner.map(_draw_worker, _grid(2), shared={"offset": object()})

    def test_runner_configuration_adopted(self, store):
        backend = BrokerBackend()
        runner = SweepRunner(
            backend=backend,
            workers=1,
            shard_store=store,
            sweep_label="adopted",
            retries=5,
            task_timeout=33.0,
            backoff=0.125,
        )
        runner.map(_draw_worker, _grid(2), shared={"offset": 0})
        assert backend.store is store
        assert backend.sweep_label == "adopted"
        assert backend.retries == 5
        assert backend.task_timeout == 33.0
        assert backend.backoff == 0.125


class TestBackendEquivalenceMatrix:
    def test_serial_process_broker_identical(self, tmp_path):
        """The fig9a-shaped proof: three backends, one bit-identical table."""
        from repro.experiments import run_fig9a

        voltages = np.array([0.46, 0.52])
        store = ArtifactCache(root=tmp_path / "cache")
        broker = BrokerBackend(
            store=store,
            journal_dir=store.root / "broker",
            poll_seconds=0.01,
            connect_backoff=0.02,
        )
        runners = (
            SweepRunner(workers=1, backend="serial"),
            SweepRunner(workers=2, backend="process"),
            SweepRunner(
                workers=2, backend=broker, shard_store=store, sweep_label="matrix"
            ),
        )
        rows = []
        for runner in runners:
            result = run_fig9a(voltages=voltages, num_words=96, runner=runner)
            rows.append(
                [
                    (p.voltage, p.measured_rate, p.predicted_rate, p.word_rate)
                    for p in result.points
                ]
            )
        assert rows[0] == rows[1] == rows[2]


class TestWireFaultPlanValidation:
    def test_wire_rules_round_trip(self):
        plan = FaultPlan(
            rules=(
                DropConnection(worker=3, every=2, op="complete", limit=2),
                PartitionWorker(worker=2, after_tasks=1, seconds=0.8),
                DelayAck(worker=1, seconds=0.25, every=2),
                KillBroker(after_completions=3),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_kill_broker_never_reaches_workers(self):
        plan = FaultPlan(
            rules=(KillBroker(after_completions=2), DelayAck(worker=0, seconds=0.1))
        )
        assert plan.broker_kill_after() == 2
        injector = plan.for_worker(0)
        assert injector._kill is None
        assert injector.ack_delay(0) == 0.1

    def test_no_kill_broker_rule(self):
        assert FaultPlan(rules=(DelayAck(worker=0, seconds=0.1),)).broker_kill_after() is None

    def test_entry_must_be_object(self):
        with pytest.raises(ValueError, match=r'rule #1 must be a JSON object'):
            FaultPlan.from_json('[{"kind": "kill", "worker": 0}, "oops"]')

    def test_entry_needs_kind(self):
        with pytest.raises(ValueError, match=r'has no "kind"'):
            FaultPlan.from_json('[{"worker": 0}]')

    def test_unknown_kind_lists_accepted(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.from_json('[{"kind": "meteor"}]')
        message = str(excinfo.value)
        assert "unknown fault kind 'meteor'" in message
        assert "kill-broker" in message and "partition" in message

    def test_unknown_field_named(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.from_json('[{"kind": "partition", "worker": 0, "untl": 3}]')
        message = str(excinfo.value)
        assert "unknown field(s) ['untl']" in message
        assert "'after_tasks'" in message and "'seconds'" in message

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match=r"rule #0 \('delay-ack'\).*invalid"):
            FaultPlan.from_json('[{"kind": "delay-ack"}]')

    def test_plan_must_be_list(self):
        with pytest.raises(ValueError, match="must be a list"):
            FaultPlan.from_json('{"kind": "kill", "worker": 0}')

    def test_invalid_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("[{kind: kill}]")

    def test_env_errors_name_the_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULT_PLAN, '[{"kind": "meteor"}]')
        with pytest.raises(ValueError, match=rf"\${ENV_FAULT_PLAN}"):
            FaultPlan.from_env()

    def test_env_json_round_trip(self, monkeypatch):
        plan = FaultPlan(rules=(KillBroker(after_completions=2),))
        env: dict[str, str] = {}
        plan.to_env(env)
        monkeypatch.setenv(ENV_FAULT_PLAN, env[ENV_FAULT_PLAN])
        assert FaultPlan.from_env() == plan


class TestServeCli:
    """``serve --supervise`` restarts a killed broker on its pinned port."""

    @staticmethod
    def _lines(process):
        lines: queue.Queue = queue.Queue()

        def pump():
            for line in process.stdout:
                lines.put(line)

        threading.Thread(target=pump, daemon=True).start()

        def wait_for(pattern, timeout=30.0):
            deadline = time.time() + timeout
            while time.time() < deadline:
                try:
                    line = lines.get(timeout=max(0.01, deadline - time.time()))
                except queue.Empty:
                    break
                match = re.search(pattern, line)
                if match:
                    return match
            raise AssertionError(f"no line matching {pattern!r} within {timeout}s")

        return wait_for

    def test_supervise_restarts_killed_broker(self, tmp_path):
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            ENV_FAULT_PLAN: json.dumps([{"kind": "kill-broker", "after_completions": 1}]),
        }
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.broker", "serve",
                "--supervise", "--port", "0", "--max-restarts", "1",
                "--journal-dir", str(tmp_path / "journal"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        client = None
        try:
            wait_for = self._lines(process)
            port = int(wait_for(r"broker listening on 127\.0\.0\.1:(\d+)").group(1))
            client = BrokerClient(("127.0.0.1", port), timeout=5.0, attempts=40, backoff=0.05)
            _enqueue(client, 2)
            claim = client.call(
                {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 30.0}
            )
            # the first completion SIGKILLs the broker before it replies; the
            # re-sent ack reaches the restarted broker, which replayed it
            done = client.call(
                {
                    "op": "complete",
                    "sweep": SWEEP,
                    "owner": "w0",
                    "digest": claim["record"]["digest"],
                    "attempts": 1,
                    "result": _encode("value"),
                }
            )
            assert done["duplicate"] is True
            wait_for(rf"broker died \(exit -9\); restarting on 127\.0\.0\.1:{port} \(1/1\)")
            wait_for(rf"broker listening on 127\.0\.0\.1:{port}")
            assert client.call({"op": "ping"}) == {"ok": True, "sweeps": 1}
            assert client.call({"op": "stop"})["stopping"] is True
            assert process.wait(timeout=30.0) == 0
        finally:
            if client is not None:
                client.close()
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
            process.stdout.close()
