"""Multi-node execution over length-prefixed sockets.

:class:`DistributedBackend` extends the execution stack past one host:
the coordinator listens on a TCP socket, ``repro worker`` agent
processes connect to it, and population batches are sharded across the
fleet.  The batched kernel is pure and shard-invariant, so -- exactly as
for the thread and process backends -- the gathered report is
bit-identical to a serial evaluation no matter how many nodes computed
it, which shards they computed, or how often a shard had to be
re-dispatched after a node died.

Transport
---------
Every message is one *frame*: an 8-byte big-endian length prefix
followed by a pickled payload (NumPy arrays ride along natively).  The
protocol is deliberately tiny:

===========  =========================================================
direction    message
===========  =========================================================
node -> co   ``("hello", version, slot_or_None, name, cpus)``
co -> node   ``("welcome", slot, faults_or_None)``
co -> node   ``("load", table_id, hw, layers)``
co -> node   ``("eval", task_id, lo, hi, table_id, inputs)``
node -> co   ``("ok" | "fault" | "error", task_id, lo, hi, payload)``
co -> node   ``("exit",)``
===========  =========================================================

``load`` ships a ``LayerTable`` once per (node, table);
a node that reconnects (or is respawned after a kill) starts with an
empty cache and is **re-shipped on demand** -- the same contract the
process backend's respawn path established, surfaced in the ``reships``
counter.  Pickle is used as the wire format for the same reason the
process backend uses ``multiprocessing`` queues: the links are trusted
coordinator<->worker links inside one deployment, never an open
endpoint for untrusted peers.

Fleet modes
-----------
* **Self-spawned (default):** the backend binds an ephemeral localhost
  port and launches ``nodes`` agent processes itself (the same loop the
  ``repro worker`` CLI runs).  Hermetic -- tests and benches get a real
  socket fleet with zero setup -- and the mode the parity matrix locks.
* **External (``bind=`` / ``$REPRO_BIND``):** the backend binds the
  given address and waits for externally started agents
  (``repro worker --connect HOST:PORT``) to join.  Agents outlive any
  single backend: on coordinator shutdown they loop back to connecting,
  so one warmed fleet serves a whole CI suite of sessions.

Scheduling and supervision
--------------------------
:class:`DistributedBackend` is the socket data plane of
:class:`~repro.parallel.backend.SupervisedBackend`, the scheduler core
it shares with the process pool: ``SHARDS_PER_NODE`` shards per node
wait in a deque that nodes pull from, so a heterogeneous fleet
load-balances itself.  A dead node (socket EOF) is expelled and its
shards fall through to idle nodes while its replacement reconnects.
:class:`~repro.parallel.faults.FaultPlan` slices travel in the
``welcome`` frame, so seeded fault runs kill real node processes.
"""

from __future__ import annotations

import os
import pickle
import queue
import socket
import struct
import threading
import time
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.costmodel.batched import (
    LayerTable,
    evaluate_batch_kernel,
    table_token,
)
from repro.costmodel.report import BatchCostReport
from repro.parallel.backend import (
    SupervisedBackend,
    env_number,
    _fault_script,
)
from repro.parallel.errors import WorkerCrashError
from repro.parallel.faults import FaultPlan
from repro.parallel.shm import INPUT_FIELDS, REPORT_FIELDS

__all__ = [
    "DEFAULT_NODES",
    "DistributedBackend",
    "default_bind",
    "default_nodes",
    "recv_frame",
    "send_frame",
    "worker_agent_main",
]

#: Wire protocol version carried in the hello frame; a mismatch is a
#: deployment error (mixed checkouts), rejected at handshake.
#: Version 2 added a per-shard timing echo to replies; version 3
#: dropped the kernel name from ``load``; version 4 dropped the timing
#: echo again.
PROTOCOL_VERSION = 4

#: Node count when neither ``nodes=`` nor ``$REPRO_NODES`` is given.
#: Two keeps the default fleet cheap (each node is a full process) while
#: still exercising every multi-node code path.
DEFAULT_NODES = 2

_LENGTH = struct.Struct("!Q")
#: Sanity cap on a single frame (1 GiB); a corrupt length prefix should
#: fail loudly, not allocate the host away.
_MAX_FRAME = 1 << 30


def default_nodes() -> int:
    """Fleet size when none is requested: ``$REPRO_NODES`` if set, else
    :data:`DEFAULT_NODES` (capped at the core count)."""
    return env_number("REPRO_NODES", int, 1,
                       max(1, min(DEFAULT_NODES, os.cpu_count() or 1)))


def default_bind() -> Optional[str]:
    """The ``$REPRO_BIND`` listen address (``host:port``) selecting the
    external-fleet mode, or ``None`` for the self-spawned default."""
    value = os.environ.get("REPRO_BIND")
    return value or None


def _parse_address(value: str) -> Tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port:
        raise ValueError(
            f"expected HOST:PORT, got {value!r}")
    return host, int(port)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, message) -> None:
    """Write one length-prefixed pickled frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket):
    """Read one length-prefixed pickled frame (raises
    :class:`ConnectionError` on EOF)."""
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > _MAX_FRAME:
        raise ConnectionError(f"oversized frame ({length} bytes)")
    return pickle.loads(_recv_exact(sock, length))


# ----------------------------------------------------------------------
# Worker agent (the ``repro worker`` process)
# ----------------------------------------------------------------------
def _connect(host: str, port: int, retry_s: float,
             window_s: Optional[float]) -> Optional[socket.socket]:
    """Dial the coordinator, retrying with a capped backoff.

    ``window_s`` bounds the attempt (``None`` retries forever -- the
    external-agent mode, where the coordinator may not exist *yet*).
    """
    deadline = None if window_s is None else time.monotonic() + window_s
    delay = retry_s
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10)
            if sock.getsockname() == sock.getpeername():
                # Loopback self-connect: while the coordinator is down,
                # the kernel may pick the *target* port as this dial's
                # ephemeral source port and complete a simultaneous
                # open -- the socket is talking to itself and, worse,
                # holds the port so the coordinator can never bind it.
                sock.close()
                raise OSError("self-connect")
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(delay)
            delay = min(delay * 2, 1.0)


def _serve_coordinator(sock: socket.socket, name: Optional[str],
                       slot: Optional[int]) -> str:
    """Run one coordinator session; returns ``"exit"`` (told to stop)
    or ``"eof"`` (coordinator vanished)."""
    send_frame(sock, ("hello", PROTOCOL_VERSION, slot, name,
                      os.cpu_count() or 1))
    try:
        kind, *rest = recv_frame(sock)
    except (ConnectionError, OSError):
        return "eof"
    if kind != "welcome":
        return "eof"
    _slot, faults = rest
    run = _fault_script(faults)
    tables: Dict[int, Tuple[object, LayerTable]] = {}
    while True:
        try:
            message = recv_frame(sock)
        except (ConnectionError, OSError):
            return "eof"
        kind = message[0]
        if kind == "exit":
            return "exit"
        if kind == "load":
            _, table_id, hw, layers = message
            tables[table_id] = (hw, LayerTable.build(layers))
            continue
        _, task_id, lo, hi, table_id, inputs = message

        def compute() -> dict:
            hw, table = tables[table_id]
            report = evaluate_batch_kernel(
                hw, table, *(inputs[field] for field, _ in INPUT_FIELDS))
            return {field: getattr(report, field)
                    for field, _ in REPORT_FIELDS}

        status, payload = run(task_id, f"node {name or _slot}", compute)
        try:
            send_frame(sock, (status, task_id, lo, hi, payload))
        except (ConnectionError, OSError):
            return "eof"


def worker_agent_main(host: str, port: int, name: Optional[str] = None,
                      slot: Optional[int] = None,
                      reconnect: bool = False,
                      retry_s: float = 0.05,
                      window_s: Optional[float] = 15.0) -> int:
    """The node agent loop behind ``repro worker --connect HOST:PORT``.

    Connects, handshakes, evaluates shards until the coordinator says
    ``exit`` or disappears.  With ``reconnect=True`` (the CLI's mode)
    the agent then loops back to dialing -- retrying forever -- so one
    long-lived agent serves every coordinator that comes and goes on
    that address; self-spawned agents run single-session instead
    (``reconnect=False``), because their coordinator owns them.

    Returns a process exit code (0: clean stop, 1: connect window
    expired with no coordinator).
    """
    while True:
        sock = _connect(host, port, retry_s,
                        None if reconnect else window_s)
        if sock is None:
            return 1
        try:
            outcome = _serve_coordinator(sock, name, slot)
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best effort
                pass
        if not reconnect:
            return 0
        if outcome == "exit":
            # The coordinator finished a session; go back to listening
            # for the next one (fresh handshake, caches re-shipped).
            continue


def run_worker_agent(connect: str, name: Optional[str] = None) -> int:
    """Supervised entry point for the ``repro worker`` CLI.

    Runs :func:`worker_agent_main` in a child process and respawns it
    when it dies abnormally -- which is exactly what an injected
    ``kill_worker`` fault does (``os._exit(1)``) -- so a fault run
    against an external fleet self-heals just like the self-spawned
    mode.  Stops cleanly on KeyboardInterrupt.
    """
    import multiprocessing

    host, port = _parse_address(connect)
    context = multiprocessing.get_context("spawn")
    generation = 0
    while True:
        agent_name = name or f"repro-node-ext-{os.getpid()}"
        if generation:
            agent_name = f"{agent_name}-r{generation}"
        process = context.Process(
            target=worker_agent_main,
            args=(host, port, agent_name),
            kwargs={"reconnect": True},
            name=agent_name)
        process.start()
        try:
            process.join()
        except KeyboardInterrupt:
            process.terminate()
            process.join(timeout=5)
            return 0
        if process.exitcode == 0:
            return 0
        generation += 1


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _Node:
    """One connected agent: socket, identity, and shipping state."""

    __slots__ = ("slot", "sock", "name", "shipped")

    def __init__(self, slot: int, sock: socket.socket,
                 name: Optional[str]) -> None:
        self.slot = slot
        self.sock = sock
        self.name = name or f"node-{slot}"
        #: Table ids shipped over *this* connection; a reconnect starts
        #: a fresh node object, so re-ships happen on demand.
        self.shipped: set = set()


def _shutdown_fleet(listener_box: List, registry: Dict[int, _Node],
                    agents: Dict[int, object], lock) -> None:
    """Tell every node to exit and reap self-spawned agents (module
    level so a ``weakref.finalize`` can run it after the backend is
    garbage).

    The listener is retired *first*, under the registration lock: a
    reconnecting agent (its ``exit`` handling re-dials immediately)
    could otherwise be accepted mid-shutdown and registered after the
    registry sweep, leaving an orphaned ESTABLISHED socket that holds
    the listen port against the next backend.  With the box emptied
    under the lock, the accept loop's registration check refuses any
    in-flight handshake.
    """
    with lock:
        listener = listener_box[0] if listener_box else None
        if listener_box:
            listener_box[0] = None
        nodes = list(registry.values())
        registry.clear()
    if listener is not None:
        try:
            # close() alone leaves a thread blocked in accept() holding
            # the kernel socket -- the LISTEN entry (and the port) would
            # survive until that syscall returns, which it never does
            # once no more agents dial in.  shutdown() aborts it.
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
    for node in nodes:
        try:
            send_frame(node.sock, ("exit",))
        except OSError:
            pass
        try:
            node.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
    for process in agents.values():
        process.join(timeout=5)
    for process in agents.values():
        if process.is_alive():  # pragma: no cover - stuck agent
            process.terminate()
            process.join(timeout=5)
    agents.clear()


class DistributedBackend(SupervisedBackend):
    """Shard batches across a fleet of socket-connected node agents.

    Args:
        nodes: Fleet size (``None``: ``$REPRO_NODES`` or
            :data:`DEFAULT_NODES`).  In self-spawned mode this many
            agents are launched; in external mode it is the break-even
            denominator and the size the startup wait hopes for.
        bind: ``HOST:PORT`` to listen on for externally started
            ``repro worker`` agents (``None``: ``$REPRO_BIND``, else
            self-spawned localhost mode on an ephemeral port).
        min_batch_per_worker: Adaptive-dispatch threshold (see
            :class:`~repro.parallel.backend.ExecutionBackend`); the
            distributed transport has the highest per-batch cost of the
            ladder, so its spec-resolved default is the largest.
        max_retries / backoff_base_s / task_timeout_s / fault_plan:
            The recovery knobs of
            :class:`~repro.parallel.backend.SupervisedBackend`.
        connect_timeout_s: How long startup -- or a batch whose whole
            fleet died -- waits for nodes to connect.

    Attributes:
        reships: Tables re-shipped to a node that
            already had them on a previous connection (respawn or
            reconnect).
        fleet_nodes: Peak number of simultaneously connected nodes.
    """

    name = "distributed"

    #: Shards per node in each batch's deque: more shards mean
    #: finer-grained stealing at slightly more framing overhead.
    SHARDS_PER_NODE = 4

    def __init__(self, nodes: Optional[int] = None,
                 bind: Optional[str] = None,
                 min_batch_per_worker: int = 0,
                 max_retries: Optional[int] = None,
                 backoff_base_s: float = 0.05,
                 task_timeout_s: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 connect_timeout_s: float = 30.0) -> None:
        nodes = default_nodes() if nodes is None else nodes
        super().__init__(nodes, min_batch_per_worker, max_retries,
                         backoff_base_s, task_timeout_s, fault_plan)
        self.nodes = nodes
        if bind is None:
            bind = default_bind()
        self.bind = bind
        self.connect_timeout_s = connect_timeout_s
        self.reships = 0
        self.fleet_nodes = 0
        self._listener_box: List = [None]
        self._registry: Dict[int, _Node] = {}
        self._agents: Dict[int, object] = {}
        self._generations: Dict[int, int] = {}
        #: Table ids ever shipped per slot across connections -- what
        #: distinguishes a *re*-ship from a first ship.
        self._ever_shipped: Dict[int, set] = {}
        self._events: "queue.Queue" = queue.Queue()
        self._accept_thread: Optional[threading.Thread] = None
        self._finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    @property
    def alive_workers(self) -> int:
        if self._agents:
            return sum(1 for process in self._agents.values()
                       if process.is_alive())
        return len(self._registry)

    @property
    def connected_nodes(self) -> int:
        """Nodes currently in the registry."""
        return len(self._registry)

    # ------------------------------------------------------------------
    def _accept_loop(self, listener: socket.socket) -> None:
        """Registry feeder: accept agents, handshake, start a reader."""
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed: shutdown
            try:
                conn.settimeout(10)
                hello = recv_frame(conn)
                if (not isinstance(hello, tuple) or len(hello) != 5
                        or hello[0] != "hello"
                        or hello[1] != PROTOCOL_VERSION):
                    conn.close()
                    continue
                _, _, slot, name, _cpus = hello
                with self._lock:
                    if slot is None or slot in self._registry:
                        slot = 0
                        while slot in self._registry:
                            slot += 1
                faults = self._fault_wire(slot)
                send_frame(conn, ("welcome", slot, faults))
                conn.settimeout(None)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                # Accepted sockets share the listen port; without
                # SO_REUSEADDR their FIN_WAIT remnants block a later
                # backend from rebinding a fixed $REPRO_BIND address.
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            except Exception:  # noqa: BLE001 - only this peer failed
                # Any failure during one peer's handshake (a truncated
                # or corrupt frame, a payload of the wrong shape) drops
                # that connection; the loop must keep accepting others.
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            node = _Node(slot, conn, name)
            with self._lock:
                if self._listener_box[0] is not listener:
                    # Shutdown retired this listener between accept and
                    # registration (a reconnecting agent re-dials the
                    # instant it is told to exit).  Registering now
                    # would orphan the socket past the registry sweep.
                    conn.close()
                    return
                self._registry[slot] = node
                self.fleet_nodes = max(self.fleet_nodes,
                                       len(self._registry))
            reader = threading.Thread(
                target=self._reader_loop, args=(node,),
                name=f"repro-node-reader-{slot}", daemon=True)
            reader.start()
            self._events.put(("join", slot))

    def _reader_loop(self, node: _Node) -> None:
        while True:
            try:
                message = recv_frame(node.sock)
            except (ConnectionError, OSError):
                self._events.put(("gone", node))
                return
            self._events.put(("ack", node.slot, *message))

    # ------------------------------------------------------------------
    def _spawn_agent(self, slot: int) -> None:
        import multiprocessing

        listener = self._listener_box[0]
        host, port = listener.getsockname()[:2]
        generation = self._generations.get(slot, 0)
        suffix = f"-r{generation}" if generation else ""
        # The spawn start method costs an interpreter start per agent
        # but inherits no descriptors -- a forked agent would keep the
        # coordinator's listener and peer sockets alive past shutdown.
        context = multiprocessing.get_context("spawn")
        process = context.Process(
            target=worker_agent_main,
            args=(host, port),
            kwargs={"name": f"repro-node-{slot}{suffix}", "slot": slot,
                    "reconnect": False},
            daemon=True,
            name=f"repro-node-{slot}{suffix}")
        process.start()
        self._agents[slot] = process

    def _ensure_started(self) -> None:
        if self._listener_box[0] is not None:
            return
        if self.bind is not None:
            host, port = _parse_address(self.bind)
        else:
            host, port = "127.0.0.1", 0
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        self._listener_box[0] = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name="repro-node-accept", daemon=True)
        self._accept_thread.start()
        if self.bind is None:
            for slot in range(self.nodes):
                self._spawn_agent(slot)
        self._finalizer = weakref.finalize(
            self, _shutdown_fleet, self._listener_box, self._registry,
            self._agents, self._lock)
        # Startup barrier: self-spawned fleets wait for every agent
        # (deterministic tests); external fleets for the first joiner
        # (the rest can trickle in mid-batch -- stealing absorbs them).
        self._await_nodes(self.nodes if self.bind is None else 1)

    def _await_nodes(self, want: int) -> None:
        """Block until ``want`` nodes are connected; after
        ``connect_timeout_s`` shut down and raise."""
        deadline = time.monotonic() + self.connect_timeout_s
        while len(self._registry) < want:
            if time.monotonic() >= deadline:
                have = len(self._registry)
                self.shutdown()
                raise WorkerCrashError(
                    f"distributed fleet: {have}/{want} node(s) "
                    f"connected within {self.connect_timeout_s}s")
            time.sleep(0.01)

    # ------------------------------------------------------------------
    def evaluate(self, hw, table, layer_idx, style_idx, pes,
                 l1_bytes) -> BatchCostReport:
        batch = layer_idx.size
        if self._below_break_even(batch):
            self.inline_batches += 1
            return evaluate_batch_kernel(hw, table, layer_idx, style_idx,
                                         pes, l1_bytes)
        self.sharded_batches += 1
        self._ensure_started()
        inputs = {"layer_idx": layer_idx, "style_idx": style_idx,
                  "pes": pes, "l1_bytes": l1_bytes}
        for name, dtype in INPUT_FIELDS:
            inputs[name] = np.ascontiguousarray(inputs[name], dtype=dtype)
        outputs = {name: np.empty(batch, dtype=dtype)
                   for name, dtype in REPORT_FIELDS}
        self._run_task(batch, self.SHARDS_PER_NODE,
                       (hw, table, inputs, outputs))
        return BatchCostReport(**outputs)

    # Data-plane hooks ------------------------------------------------
    def _live_workers(self) -> List[int]:
        """Registered slots, waiting out a fully dead registry (a
        respawned or reconnecting agent lands via the accept thread)."""
        while True:
            with self._lock:
                live = sorted(self._registry)
            if live:
                return live
            self._await_nodes(1)

    def _send(self, key, task_id, lo, hi, job) -> bool:
        hw, table, inputs, _ = job
        node = self._registry.get(key)
        if node is None:
            return False
        table_id = table_token(table)
        try:
            if table_id not in node.shipped:
                ever = self._ever_shipped.setdefault(key, set())
                if table_id in ever:
                    self.reships += 1
                ever.add(table_id)
                send_frame(node.sock, ("load", table_id, hw, table.layers))
                node.shipped.add(table_id)
            send_frame(node.sock, (
                "eval", task_id, lo, hi, table_id,
                {name: array[lo:hi] for name, array in inputs.items()}))
        except (ConnectionError, OSError):
            return False
        return True

    def _next_events(self, wait, busy) -> List[tuple]:
        # Socket EOF, reported by the node's reader thread, is what
        # reveals a dead node -- no liveness polling.
        try:
            event = self._events.get(timeout=wait)
        except queue.Empty:
            return []
        if event[0] != "gone":
            return [event]
        # A node already expelled (missed deadline) is old news.
        node = event[1]
        if self._registry.get(node.slot) is not node:
            return []
        return [("gone", node.slot, node.name)]

    def _lose(self, key) -> None:
        """Expel node ``key`` and, when self-spawned, respawn its agent
        (the replacement reconnects asynchronously)."""
        with self._lock:
            node = self._registry.pop(key, None)
        if node is None:
            return
        try:
            node.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        process = self._agents.get(key)
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5)
            self._generations[key] = self._generations.get(key, 0) + 1
            self._spawn_agent(key)
            self.respawns += 1

    def _store(self, job, lo, hi, payload) -> None:
        outputs = job[3]
        for field, _ in REPORT_FIELDS:
            outputs[field][lo:hi] = payload[field]

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if self._listener_box[0] is None and not self._registry:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        _shutdown_fleet(self._listener_box, self._registry, self._agents,
                        self._lock)
        if self._accept_thread is not None:
            # The listener's shutdown() wakes the blocked accept();
            # joining makes the port release synchronous, so a caller
            # can rebind the address the moment shutdown() returns.
            self._accept_thread.join(timeout=5)
        while True:
            try:
                self._events.get_nowait()
            except queue.Empty:
                break
        self._generations = {}
        self._ever_shipped = {}
        self._accept_thread = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "external" if self.bind else "self-spawned"
        return f"DistributedBackend(nodes={self.nodes}, mode={mode})"
