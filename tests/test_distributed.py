"""Lifecycle suite for the distributed execution backend.

Parity and crash-recovery of distributed *results* are locked by
``tests/test_parallel_parity.py`` (the executor matrix and the crash
matrix both include ``distributed`` cells).  This file covers the
fleet-lifecycle contracts those result-level suites cannot see:

* worker-agent reconnect -- a killed node agent is respawned and its
  ``LayerTable`` is re-shipped (the process backend's respawn contract
  carried over the wire), visible in the ``reships`` counter;
* handshake hygiene -- malformed or old-protocol connections are closed
  without registering a node or stopping the accept loop;
* external fleets -- agents started separately (the ``repro worker``
  CLI path) join a coordinator bound to ``$REPRO_BIND``-style fixed
  addresses, survive coordinator restarts, and serve successive
  backends;
* teardown hygiene -- after ``shutdown()`` / ``on_teardown`` no node
  agents, listener sockets, or reader threads are left behind;
* work stealing -- idle nodes drain the shared shard deque, counted in
  ``stolen_shards``; stealing is the only distributed schedule.
"""

from __future__ import annotations

import multiprocessing
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.costmodel import CostModel, LayerTable
from repro.models import get_model
from repro.parallel import (
    DistributedBackend,
    FaultPlan,
    ParallelCoordinator,
    default_nodes,
    worker_agent_main,
)
from repro.parallel.distributed import PROTOCOL_VERSION, send_frame

TIMEOUT_S = 30.0


@pytest.fixture(scope="module")
def workload():
    layers = get_model("mobilenet_v2")[:4]
    table = LayerTable.build(layers)
    model = CostModel()
    rng = np.random.default_rng(5)
    n = 512
    inputs = (
        rng.integers(0, len(layers), size=n),
        np.zeros(n, dtype=np.int64),
        rng.integers(1, 512, size=n),
        rng.integers(1, 8192, size=n),
    )
    reference = model.batched.evaluate(table, *inputs)
    return model, table, inputs, reference


def _assert_matches(report, reference):
    assert np.array_equal(report.latency_cycles, reference.latency_cycles)
    assert np.array_equal(report.energy_nj, reference.energy_nj)
    assert np.array_equal(report.pes_used, reference.pes_used)


def _wait_for(predicate, timeout_s=TIMEOUT_S):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting for fleet"
        time.sleep(0.05)


def _agent_processes():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-node")]


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _start_external(workload, port):
    """An external-mode backend whose first evaluate runs on a thread,
    parked on the startup barrier until an agent joins."""
    model, table, inputs, _ = workload
    backend = DistributedBackend(nodes=1, bind=f"127.0.0.1:{port}")
    results = []
    evaluating = threading.Thread(
        target=lambda: results.append(
            backend.evaluate(model.hw, table, *inputs)),
        daemon=True)
    evaluating.start()
    _wait_for(lambda: backend._accept_thread is not None)
    return backend, evaluating, results


def _join_agent(port, evaluating, results, reference):
    """A legitimate agent joins; the parked evaluate completes on it."""
    agent = threading.Thread(
        target=worker_agent_main, args=("127.0.0.1", port),
        kwargs={"name": "legit", "window_s": TIMEOUT_S}, daemon=True)
    agent.start()
    evaluating.join(TIMEOUT_S)
    assert results, "the legitimate agent never served the batch"
    _assert_matches(results[0], reference)


def _coordinator_hangs_up(port, send) -> bool:
    """Dial the listener, ``send(sock)``, and report whether the
    coordinator closed the connection without answering."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=TIMEOUT_S) as sock:
        send(sock)
        return sock.recv(1) == b""


def test_fleet_spawns_evaluates_and_tears_down(workload):
    model, table, inputs, reference = workload
    backend = DistributedBackend(nodes=2)
    try:
        report = backend.evaluate(model.hw, table, *inputs)
        _assert_matches(report, reference)
        # Under $REPRO_FAULTS (the chaos CI legs) an agent may have been
        # killed mid-batch; its replacement reconnects asynchronously,
        # so wait for the fleet to heal rather than racing it.
        _wait_for(lambda: backend.connected_nodes == 2)
        assert backend.fleet_nodes == 2
        _wait_for(lambda: len(_agent_processes()) == 2)
    finally:
        backend.shutdown()
    assert backend.alive_workers == 0
    assert backend.connected_nodes == 0
    # Teardown hygiene: no orphaned node agents after shutdown.
    _wait_for(lambda: not _agent_processes(), timeout_s=10.0)


def test_node_kill_reships_table_and_recovers(workload):
    """Killing a node mid-batch respawns it; on reconnect the table is
    re-shipped (the ``reships`` counter) and the batch completes
    bit-identically."""
    model, table, inputs, reference = workload
    plan = FaultPlan(kill_worker=[(0, 0)])
    backend = DistributedBackend(nodes=2, fault_plan=plan)
    try:
        first = backend.evaluate(model.hw, table, *inputs)
        _assert_matches(first, reference)
        assert backend.respawns == 1
        assert backend.retries == 1
        # The replacement agent reconnects asynchronously; the re-ship
        # happens on its first dispatched shard, so wait for the fleet
        # to heal before asserting the counter.
        _wait_for(lambda: backend.connected_nodes == 2)
        second = backend.evaluate(model.hw, table, *inputs)
        _assert_matches(second, reference)
        assert backend.reships == 1
    finally:
        backend.shutdown()
    assert backend.alive_workers == 0


def test_external_agents_reconnect_across_backends(workload, monkeypatch):
    """Persistent external agents (the ``repro worker`` path) serve two
    successive coordinators on one fixed bind address -- the session
    restart story -- with the table shipped fresh to each."""
    # The agents below run in *threads* for speed, so an env-injected
    # kill fault (the chaos CI legs) would ``os._exit`` the test runner
    # itself; external-fleet chaos is ``run_worker_agent``'s child
    # process supervision story, not this test's.
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    model, table, inputs, reference = workload
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    bind = f"127.0.0.1:{port}"
    agents = [
        threading.Thread(
            target=worker_agent_main,
            args=("127.0.0.1", port),
            kwargs={"name": f"ext-{i}", "reconnect": True,
                    "window_s": None},
            daemon=True)
        for i in range(2)
    ]
    for thread in agents:
        thread.start()
    for _round in range(2):
        backend = DistributedBackend(nodes=2, bind=bind)
        try:
            # The fleet starts lazily: the first evaluate binds the
            # listener and blocks on its startup barrier until at least
            # one external agent has joined.
            report = backend.evaluate(model.hw, table, *inputs)
            _assert_matches(report, reference)
            assert backend.connected_nodes >= 1
        finally:
            backend.shutdown()
        assert backend.connected_nodes == 0


def test_coordinator_teardown_leaves_no_fleet(workload):
    """ParallelCoordinator.on_teardown shuts the fleet down: no agents,
    and the listener port is released."""
    model, table, inputs, reference = workload
    coordinator = ParallelCoordinator("distributed", nodes=2,
                                      degrade=False)
    coordinator._ensure_backend()
    backend = coordinator.backend
    report = backend.evaluate(model.hw, table, *inputs)
    _assert_matches(report, reference)
    listener = backend._listener_box[0]
    assert listener is not None
    port = listener.getsockname()[1]
    coordinator.on_teardown()
    assert backend.alive_workers == 0
    assert backend._listener_box[0] is None
    _wait_for(lambda: not _agent_processes(), timeout_s=10.0)
    # The listener socket is closed: the port can be rebound at once.
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", port))


def test_work_stealing_pulls_shards_off_the_deque(workload, monkeypatch):
    """A 4-node fleet pulls shards off the shared deque (counted
    whenever a shard lands off its static owner) and the gathered
    report is bit-identical to the serial kernel."""
    # Exact scheduling counters only hold fault-free: an env-injected
    # kill (the chaos CI legs) re-dispatches the dead node's shard.
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    model, table, inputs, reference = workload
    stealing = DistributedBackend(nodes=4)
    try:
        _assert_matches(stealing.evaluate(model.hw, table, *inputs),
                        reference)
        assert stealing.sharded_batches == 1
    finally:
        stealing.shutdown()


def test_static_scheduling_mode_is_gone():
    with pytest.raises(TypeError):
        DistributedBackend(steal=False)


def test_break_even_inlines_small_batches(workload):
    """Batches below min_batch_per_worker * nodes never leave the
    coordinator process (the per-transport break-even contract)."""
    model, table, inputs, reference = workload
    backend = DistributedBackend(nodes=2, min_batch_per_worker=10_000)
    try:
        report = backend.evaluate(model.hw, table, *inputs)
        _assert_matches(report, reference)
        assert backend.inline_batches == 1
        assert backend.sharded_batches == 0
    finally:
        backend.shutdown()


def test_default_nodes_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_NODES", "3")
    assert default_nodes() == 3
    monkeypatch.setenv("REPRO_NODES", "0")
    with pytest.raises(ValueError):
        default_nodes()
    monkeypatch.delenv("REPRO_NODES")
    assert default_nodes() >= 1


def test_malformed_handshakes_leave_the_accept_loop_running(workload,
                                                            monkeypatch):
    """A truncated, corrupt, or wrongly shaped hello drops only its own
    connection: the accept thread survives and a real agent still
    joins."""
    # The legitimate agent runs in a thread; an env-injected kill fault
    # would ``os._exit`` the test runner.
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    _, _, _, reference = workload
    port = _free_port()
    backend, evaluating, results = _start_external(workload, port)
    try:
        for payload in (
                struct.pack("!Q", 0),                # empty frame
                struct.pack("!Q", 5) + b"junk!",     # not a pickle
        ):
            assert _coordinator_hangs_up(
                port, lambda sock: sock.sendall(payload))
        for message in (None, ("hello", PROTOCOL_VERSION)):
            assert _coordinator_hangs_up(
                port, lambda sock: send_frame(sock, message))
        assert backend._accept_thread.is_alive()
        assert backend.connected_nodes == 0
        _join_agent(port, evaluating, results, reference)
        assert backend.connected_nodes == 1
    finally:
        backend.shutdown()


def test_old_protocol_hello_is_closed_and_never_registered(workload,
                                                          monkeypatch):
    """Agents speaking protocol version 2 (whose ``load`` frames still
    carried a kernel name) or 3 (whose replies still carried a timing
    echo) are hung up on at handshake."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    _, _, _, reference = workload
    assert PROTOCOL_VERSION == 4
    port = _free_port()
    backend, evaluating, results = _start_external(workload, port)
    try:
        for version in (2, 3):
            assert _coordinator_hangs_up(
                port, lambda sock: send_frame(
                    sock, ("hello", version, None, "old-agent", 1)))
        assert backend.connected_nodes == 0
        assert backend.fleet_nodes == 0
        _join_agent(port, evaluating, results, reference)
        assert backend.fleet_nodes == 1
    finally:
        backend.shutdown()
