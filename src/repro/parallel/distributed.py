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
node -> co   ``("ok" | "fault" | "error", task_id, lo, hi, payload,
node -> co   elapsed_s)``
co -> node   ``("exit",)``
===========  =========================================================

``load`` ships a ``LayerTable`` once per (node, table);
a node that reconnects (or is respawned after a kill) starts with an
empty cache and is **re-shipped on demand** -- the same contract the
process backend's respawn path established, surfaced in the ``reships``
counter.  Every reply carries the node-side kernel time (``elapsed_s``,
the evaluate call only -- never queue wait or framing, which would make
a starved node look slow), feeding the coordinator's throughput model
when adaptive shard planning is on.  Pickle is used as the wire format for the same reason the
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

Work stealing
-------------
Batches are cut into ``shards_per_node x fleet`` shards kept in a
shared deque; every node is primed with one shard and *pulls* the next
when it acks -- fast nodes simply come back more often, so a
heterogeneous fleet load-balances itself without any rate model.  A
dispatch that lands on a node other than the shard's static round-robin
owner counts as ``stolen_shards``.  ``steal=False`` restores static
round-robin (one shard per node, assigned upfront) -- the baseline the
scaling bench compares against.

Fault handling reuses the process backend's taxonomy wholesale: a dead
node (socket EOF) has its in-flight shards returned to the deque and
re-dispatched bit-identically, bounded by the per-batch ``max_retries``
budget; exhaustion raises
:class:`~repro.parallel.errors.WorkerCrashError`, which is the
degradation ladder's cue to downshift ``distributed -> process``.
:class:`~repro.parallel.faults.FaultPlan` slices travel in the
``welcome`` frame, so seeded chaos runs kill real node processes.
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
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.costmodel.batched import (
    LayerTable,
    evaluate_batch_kernel,
    table_token,
)
from repro.costmodel.report import BatchCostReport
from repro.parallel.backend import (
    ExecutionBackend,
    default_max_retries,
    default_task_timeout,
    shard_bounds,
)
from repro.parallel.errors import (
    FaultInjected,
    TaskTimeoutError,
    WorkerCrashError,
)
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
#: Version 2 added the per-shard ``elapsed_s`` timing echo to replies;
#: version 3 dropped the kernel name from ``load``.
PROTOCOL_VERSION = 3

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
    env = os.environ.get("REPRO_NODES")
    if env is not None:
        nodes = int(env)
        if nodes < 1:
            raise ValueError(f"REPRO_NODES must be >= 1, got {env!r}")
        return nodes
    return max(1, min(DEFAULT_NODES, os.cpu_count() or 1))


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
    kill_at = list(faults["kill"]) if faults else []
    raise_at = list(faults["raise"]) if faults else []
    throttle = float(faults.get("throttle", 0.0)) if faults else 0.0
    delay_at: Dict[int, float] = {}
    if faults:
        for batch_idx, seconds in faults["delay"]:
            delay_at[batch_idx] = delay_at.get(batch_idx, 0.0) + seconds
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
        if task_id in kill_at:
            os._exit(1)
        delay = delay_at.pop(task_id, 0.0)
        if throttle:
            delay += throttle * (hi - lo)
        if delay:
            time.sleep(delay)
        elapsed = 0.0
        try:
            if task_id in raise_at:
                raise_at.remove(task_id)
                raise FaultInjected(
                    f"injected fault on node {name or _slot} at batch "
                    f"{task_id}")
            hw, table = tables[table_id]
            # Time the kernel only: queue wait and (un)framing are
            # coordinator- and transport-side costs; charging them here
            # would make a starved node look slow and starve it further.
            # Injected delays emulate a straggler node, so they ARE
            # charged: the throughput model must see the slow node the
            # adaptive plan routes around.
            start = time.perf_counter()
            report = evaluate_batch_kernel(
                hw, table,
                inputs["layer_idx"], inputs["style_idx"],
                inputs["pes"], inputs["l1_bytes"])
            elapsed = time.perf_counter() - start + delay
            reply = ("ok", task_id, lo, hi,
                     {field: getattr(report, field)
                      for field, _ in REPORT_FIELDS}, elapsed)
        except FaultInjected as error:
            reply = ("fault", task_id, lo, hi, repr(error), elapsed)
        except BaseException as error:  # noqa: BLE001 - forwarded verbatim
            import traceback

            reply = ("error", task_id, lo, hi,
                     f"{error!r}\n{traceback.format_exc()}", elapsed)
        try:
            send_frame(sock, reply)
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
    ``kill_worker`` fault does (``os._exit(1)``) -- so a chaos run
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

    __slots__ = ("slot", "sock", "name", "alive", "shipped", "lock")

    def __init__(self, slot: int, sock: socket.socket,
                 name: Optional[str]) -> None:
        self.slot = slot
        self.sock = sock
        self.name = name or f"node-{slot}"
        self.alive = True
        #: Table ids shipped over *this* connection; a reconnect starts
        #: a fresh node object, so re-ships happen on demand.
        self.shipped: set = set()
        self.lock = threading.Lock()


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
        for node in nodes:
            node.alive = False
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


class DistributedBackend(ExecutionBackend):
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
        max_retries / backoff_base_s / task_timeout_s / fault_plan /
            tuner: Exactly the process backend's knobs; the
            tuner (a ``TuningState``) keys node throughput by slot, so
            rates survive respawns and reconnects.
        steal: Pull-based work stealing (default).  ``False`` restores
            static round-robin -- the scaling bench's baseline.
        shards_per_node: Deque depth factor under stealing; more shards
            mean finer-grained stealing at slightly more framing
            overhead.
        connect_timeout_s: How long startup waits for the fleet.

    Attributes:
        stolen_shards: Shards executed off their static owner.
        reships: Tables re-shipped to a node that
            already had them on a previous connection (respawn or
            reconnect).
        fleet_nodes: Peak number of simultaneously connected nodes.
    """

    name = "distributed"

    POLL_S = 0.25

    def __init__(self, nodes: Optional[int] = None,
                 bind: Optional[str] = None,
                 min_batch_per_worker: int = 0,
                 max_retries: Optional[int] = None,
                 backoff_base_s: float = 0.05,
                 task_timeout_s: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 steal: bool = True,
                 shards_per_node: int = 4,
                 connect_timeout_s: float = 30.0,
                 tuner=None) -> None:
        nodes = default_nodes() if nodes is None else nodes
        super().__init__(nodes, min_batch_per_worker, tuner=tuner)
        if shards_per_node < 1:
            raise ValueError("shards_per_node must be >= 1")
        self.nodes = nodes
        if bind is None:
            bind = default_bind()
        self.bind = bind
        self.steal = steal
        self.shards_per_node = shards_per_node
        self.connect_timeout_s = connect_timeout_s
        self.max_retries = (default_max_retries() if max_retries is None
                            else max_retries)
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        self.backoff_base_s = backoff_base_s
        if task_timeout_s is None:
            task_timeout_s = default_task_timeout()
        if task_timeout_s < 0:
            raise ValueError("task_timeout_s must be >= 0 (0 disables)")
        self.task_timeout_s = float(task_timeout_s) or None
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self.fault_plan = fault_plan
        self._kills: Dict[int, List[int]] = {}
        self._delays: Dict[int, List[Tuple[int, float]]] = {}
        self.retries = 0
        self.respawns = 0
        self.timeouts = 0
        self.stolen_shards = 0
        self.reships = 0
        self.fleet_nodes = 0
        self._lock = threading.Lock()
        self._listener_box: List = [None]
        self._registry: Dict[int, _Node] = {}
        self._agents: Dict[int, object] = {}
        self._generations: Dict[int, int] = {}
        #: Table ids ever shipped per slot across connections -- what
        #: distinguishes a *re*-ship from a first ship.
        self._ever_shipped: Dict[int, set] = {}
        self._events: "queue.Queue" = queue.Queue()
        self._tables: Dict[int, LayerTable] = {}
        self._next_task = 0
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

    def _fault_wire(self, slot: int) -> Optional[dict]:
        if self.fault_plan is None:
            return None
        with self._lock:
            if slot not in self._kills:
                self._kills[slot] = self.fault_plan.kills_for(slot)
                self._delays[slot] = self.fault_plan.delays_for(slot)
            return {
                "kill": list(self._kills[slot]),
                "raise": self.fault_plan.raises_for(slot),
                "delay": [[batch, seconds] for batch, seconds
                          in self._delays[slot]],
                # Persistent straggler emulation: never pruned, a
                # respawned node stays slow.
                "throttle": self.fault_plan.throttle_for(slot),
            }

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
            self._events.put(("join", node))

    def _reader_loop(self, node: _Node) -> None:
        while True:
            try:
                message = recv_frame(node.sock)
            except (ConnectionError, OSError):
                self._events.put(("gone", node))
                return
            self._events.put(("msg", node, message))

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
        want = self.nodes if self.bind is None else 1
        deadline = time.monotonic() + self.connect_timeout_s
        while len(self._registry) < want:
            if time.monotonic() >= deadline:
                have = len(self._registry)
                self.shutdown()
                raise WorkerCrashError(
                    f"distributed fleet never came up: {have}/{want} "
                    f"node(s) connected within {self.connect_timeout_s}s")
            time.sleep(0.01)

    # ------------------------------------------------------------------
    def _ship_table(self, node: _Node, hw, table: LayerTable) -> int:
        table_id = table_token(table)
        self._tables[table_id] = table
        if table_id not in node.shipped:
            ever = self._ever_shipped.setdefault(node.slot, set())
            if table_id in ever:
                self.reships += 1
            else:
                ever.add(table_id)
            send_frame(node.sock, ("load", table_id, hw, table.layers))
            node.shipped.add(table_id)
        return table_id

    def _dispatch(self, node: _Node, task_id: int, shard: int,
                  lo: int, hi: int, hw, table, inputs,
                  static_owner: List[int],
                  pending: Dict[Tuple[int, int], int]) -> bool:
        """Send one shard to one node; False if the node is dead (the
        caller re-queues the shard and the reader's ``gone`` event
        drives recovery)."""
        if not node.alive:
            return False
        try:
            with node.lock:
                table_id = self._ship_table(node, hw, table)
                send_frame(node.sock, (
                    "eval", task_id, lo, hi, table_id,
                    {name: array[lo:hi] for name, array in inputs.items()}))
        except (ConnectionError, OSError):
            return False
        pending[(lo, hi)] = node.slot
        if static_owner[shard] != node.slot:
            self.stolen_shards += 1
        return True

    def evaluate(self, hw, table, layer_idx, style_idx, pes,
                 l1_bytes) -> BatchCostReport:
        if self._route_inline(layer_idx.size):
            self.inline_batches += 1
            start = time.perf_counter()
            report = evaluate_batch_kernel(hw, table, layer_idx,
                                           style_idx, pes, l1_bytes)
            self._observe_route(layer_idx.size, True,
                                time.perf_counter() - start)
            return report
        self.sharded_batches += 1
        self._ensure_started()
        task_id = self._next_task
        self._next_task += 1
        inputs = {"layer_idx": layer_idx, "style_idx": style_idx,
                  "pes": pes, "l1_bytes": l1_bytes}
        for name, dtype in INPUT_FIELDS:
            inputs[name] = np.ascontiguousarray(inputs[name], dtype=dtype)
        outputs = {name: np.empty(layer_idx.size, dtype=dtype)
                   for name, dtype in REPORT_FIELDS}
        start = time.perf_counter()
        self._run_task(task_id, hw, table, inputs, outputs,
                       int(layer_idx.size))
        self._observe_route(layer_idx.size, False,
                            time.perf_counter() - start)
        return BatchCostReport(**outputs)

    # ------------------------------------------------------------------
    def _live_nodes(self) -> List[_Node]:
        with self._lock:
            return [self._registry[slot]
                    for slot in sorted(self._registry)]

    def _await_fleet(self, task_id: int) -> List[_Node]:
        """The current fleet, waiting out a fully-dead registry (a
        respawn or external reconnect lands via the accept thread)."""
        live = self._live_nodes()
        if live:
            return live
        deadline = time.monotonic() + self.connect_timeout_s
        while not live:
            if time.monotonic() >= deadline:
                self.shutdown()
                raise WorkerCrashError(
                    f"distributed batch {task_id}: no nodes connected "
                    f"within {self.connect_timeout_s}s")
            time.sleep(0.01)
            live = self._live_nodes()
        return live

    def _run_task(self, task_id: int, hw, table, inputs, outputs,
                  batch: int) -> None:
        """Dispatch one batch's shards over the fleet and supervise
        them to completion -- the socket twin of
        ``ProcessBackend._run_task``, with the static per-worker
        assignment replaced by a shared shard deque that idle nodes
        pull from."""
        live = self._await_fleet(task_id)
        keys = [node.slot for node in live]
        chunks = self.shards_per_node if self.steal else 1
        if self.tuner is not None and self.tuner.plan_shards:
            # Adaptive plan: shard spans sized to each node's measured
            # rows/sec (uniform round-robin until rates exist).  Under
            # stealing the plan only sets the *initial* spans -- the
            # deque still rebalances tails.
            bounds, static_owner = self.tuner.plan(
                batch, self.name, keys, chunks)
        else:
            # The static assignment both modes are measured against:
            # shard i belongs to the i-th live node, round-robin.
            bounds = shard_bounds(batch, len(live) * chunks)
            static_owner = [keys[i % len(keys)]
                            for i in range(len(bounds))]
        todo = deque(range(len(bounds)))
        pending: Dict[Tuple[int, int], int] = {}
        shard_of: Dict[Tuple[int, int], int] = {
            bounds[i]: i for i in range(len(bounds))}
        attempts = 0
        failures: List[Tuple[int, str]] = []

        def feed(node: _Node, limit: Optional[int] = None) -> int:
            """Give ``node`` work from the deque (its pull)."""
            fed = 0
            while todo and (limit is None or fed < limit):
                shard = todo.popleft()
                lo, hi = bounds[shard]
                if self._dispatch(node, task_id, shard, lo, hi, hw,
                                  table, inputs, static_owner, pending):
                    fed += 1
                else:
                    todo.appendleft(shard)
                    break
            return fed

        def refill() -> None:
            """Hand deque work to live nodes after a fleet change (a
            join, or shards reclaimed from a dead node)."""
            if self.steal:
                busy = set(pending.values())
                for node in self._live_nodes():
                    if not todo:
                        return
                    if node.slot not in busy:
                        feed(node, limit=1)
                return
            # Static mode recovery: spread reclaimed shards round-robin
            # over whoever is still alive (the static assignment is per
            # batch, not sacred across failures).
            while todo:
                progressed = 0
                for node in self._live_nodes():
                    if not todo:
                        return
                    progressed += feed(node, limit=1)
                if not progressed:
                    return  # nobody alive took work; await a join

        if self.steal:
            for node in live:
                feed(node, limit=1)
        else:
            # Static mode: every shard goes straight to its owner.  A
            # shard whose owner died mid-prime stays in the deque; the
            # owner's ``gone`` event redistributes it below.
            by_slot = {node.slot: node for node in live}
            for _ in range(len(todo)):
                shard = todo.popleft()
                lo, hi = bounds[shard]
                if not self._dispatch(by_slot[static_owner[shard]],
                                      task_id, shard, lo, hi, hw, table,
                                      inputs, static_owner, pending):
                    todo.append(shard)

        def lose_node(node: _Node) -> None:
            """Idempotent node-loss handling: expel, reclaim its
            in-flight shards, prune consumed faults, respawn when
            self-spawned."""
            if not node.alive:
                return
            node.alive = False
            with self._lock:
                if self._registry.get(node.slot) is node:
                    del self._registry[node.slot]
                kills = self._kills.get(node.slot)
                if kills and task_id in kills:
                    kills.remove(task_id)
                delays = self._delays.get(node.slot)
                if delays:
                    for entry in delays:
                        if entry[0] == task_id:
                            delays.remove(entry)
                            break
            try:
                node.sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
            for (lo, hi), slot in list(pending.items()):
                if slot == node.slot:
                    del pending[(lo, hi)]
                    todo.appendleft(shard_of[(lo, hi)])
            if self._agents and node.slot in self._agents:
                process = self._agents[node.slot]
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5)
                self._generations[node.slot] = (
                    self._generations.get(node.slot, 0) + 1)
                self._spawn_agent(node.slot)
                self.respawns += 1

        timeout = self.task_timeout_s
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while pending or todo:
            if todo and not pending:
                # Nothing in flight to ack: drive dispatch ourselves
                # (all feeds failed against dying nodes, or the fleet
                # emptied and is coming back).
                if not self._live_nodes():
                    self._await_fleet(task_id)
                refill()
            wait = self.POLL_S
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            event = None
            try:
                event = self._events.get(timeout=wait)
            except queue.Empty:
                pass
            if event is not None:
                kind = event[0]
                if kind == "join":
                    refill()
                    continue
                node = event[1]
                if kind == "gone":
                    if not node.alive:
                        continue  # already expelled (send failure)
                    name = node.name
                    had_work = node.slot in set(pending.values())
                    lose_node(node)
                    if had_work:
                        # Only a node carrying in-flight shards costs
                        # the batch a recovery; an idle death is just a
                        # (respawned) fleet change.
                        attempts = self._account_recovery(
                            task_id, attempts, "crash",
                            f"node died mid-batch: {name}",
                            worker_names=[name])
                    refill()
                    if deadline is not None:
                        deadline = time.monotonic() + timeout
                    continue
                _, _, message = event
                status, done_id, lo, hi, payload, elapsed = message
                if done_id != task_id or (lo, hi) not in pending:
                    continue  # stale ack from a recovered attempt
                if status == "ok":
                    del pending[(lo, hi)]
                    for field, _ in REPORT_FIELDS:
                        outputs[field][lo:hi] = payload[field]
                    self._observe_shard(node.slot, hi - lo, elapsed)
                    if self.steal:
                        feed(node, limit=1)
                elif status == "fault":
                    attempts = self._account_recovery(
                        task_id, attempts, "fault",
                        f"injected fault on node {node.name}")
                    shard = shard_of[(lo, hi)]
                    del pending[(lo, hi)]
                    if not self._dispatch(node, task_id, shard, lo, hi,
                                          hw, table, inputs,
                                          static_owner, pending):
                        todo.appendleft(shard)
                else:
                    # Deterministic kernel bug: never retried (see the
                    # process backend); drain the rest, then surface.
                    failures.append((node.slot, payload))
                    del pending[(lo, hi)]
                    if self.steal:
                        feed(node, limit=1)
                continue
            # Quiet poll window: check the deadline; socket EOF (not a
            # liveness poll) is what reports dead nodes here.
            if deadline is not None and time.monotonic() >= deadline:
                hung = {slot for slot in pending.values()}
                self.timeouts += 1
                attempts = self._account_recovery(
                    task_id, attempts, "timeout",
                    f"distributed batch {task_id} missed its {timeout}s "
                    f"deadline ({len(pending)} shard(s) outstanding)")
                for node in self._live_nodes():
                    if node.slot in hung:
                        lose_node(node)
                refill()
                deadline = time.monotonic() + timeout
        if failures:
            slot, detail = failures[0]
            raise RuntimeError(
                f"distributed node {slot} failed:\n{detail}")

    def _account_recovery(self, task_id: int, attempts: int, kind: str,
                          reason: str, worker_names=()) -> int:
        """Charge one recovery against the batch budget (the process
        backend's accounting, verbatim semantics)."""
        attempts += 1
        self.retries += 1
        if attempts > self.max_retries:
            self.shutdown()
            message = (f"distributed batch {task_id}: {reason}; retry "
                       f"budget ({self.max_retries}) exhausted")
            if kind == "timeout":
                raise TaskTimeoutError(message,
                                       timeout_s=self.task_timeout_s or 0.0)
            if kind == "fault":
                raise FaultInjected(message)
            raise WorkerCrashError(message, worker_names=worker_names)
        if self.backoff_base_s:
            time.sleep(self.backoff_base_s * 2 ** (attempts - 1))
        return attempts

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
        self._tables = {}
        self._accept_thread = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "external" if self.bind else "self-spawned"
        return (f"DistributedBackend(nodes={self.nodes}, mode={mode}, "
                f"steal={self.steal})")
