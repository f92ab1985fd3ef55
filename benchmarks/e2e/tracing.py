"""Span tracer installed from outside: runtime wrappers around each layer.

Nothing under ``src/`` knows it is being measured.  :func:`install`
replaces public (and a few private, where no public seam exists)
callables on the program's classes and modules with timing wrappers and
returns an undo function.  Every wrapper is synchronous and the program
is single-threaded, so spans nest as a stack: a span's *self* time is
its duration minus the duration of the spans opened inside it.

Aggregates (count, inclusive ns, self ns per span name) are kept for
every span; the span records themselves are kept only up to
``SPAN_CAP`` so a ten-second traced window cannot exhaust memory.  The
records are written as JSON lines by :meth:`Tracer.write`.
"""

from __future__ import annotations

import gc
import importlib
import json
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span records kept for the ``.jsonl`` file (aggregates cover all spans).
SPAN_CAP = 200_000


class Tracer:
    """In-memory span store with on-the-fly self-time aggregation."""

    def __init__(self, enabled: bool = True) -> None:
        #: While False every wrapper just calls through.  Handlers and
        #: journal hooks are bound when a node is built, so the wrappers
        #: must be installed before the in-process cluster exists and
        #: switched on only for the traced window.
        self.enabled = enabled
        #: name -> [count, inclusive_ns, self_ns]
        self.agg: Dict[str, List[int]] = {}
        # Retained span records, as parallel columns: five containers
        # instead of 200k small objects, so the per-round ``gc.collect()``
        # of the simulator workloads does not pay for the trace.
        self.names: List[str] = []
        self.txns: List[Any] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.dropped = 0
        #: open frames: [child_ns, retained_index]
        self._stack: List[list] = []
        #: free-form sample lists / counters the specific hooks fill.
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}

    # -- the wrapper factory --------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        txn_of: Optional[Callable[..., Any]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``."""
        agg = self.agg
        stack = self._stack
        names, txns = self.names, self.txns
        starts, ends, parents = self.starts, self.ends, self.parents

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if len(names) < SPAN_CAP:
                index = len(names)
                names.append(name)
                txns.append(txn_of(*args, **kwargs) if txn_of is not None else None)
                starts.append(0)
                ends.append(0)
                parents.append(stack[-1][1] if stack else -1)
            else:
                index = -1
                self.dropped += 1
            frame = [0, index]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                entry = agg.get(name)
                if entry is None:
                    agg[name] = [1, duration, duration - frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[0]
                if index >= 0:
                    starts[index] = start
                    ends[index] = end

        traced.__wrapped__ = fn
        return traced

    # -- reading --------------------------------------------------------------

    def count(self, *names: str) -> int:
        return sum(self.agg[n][0] for n in names if n in self.agg)

    def inclusive_ms(self, *names: str) -> float:
        return sum(self.agg[n][1] for n in names if n in self.agg) / 1e6

    def self_ms(self, *prefixes: str) -> float:
        """Self time of every span whose name starts with a prefix."""
        return (
            sum(
                entry[2]
                for name, entry in self.agg.items()
                if name.startswith(prefixes)
            )
            / 1e6
        )

    def add_sample(self, key: str, value: float) -> None:
        if self.enabled:
            self.samples.setdefault(key, []).append(value)

    def add_count(self, key: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[key] = self.counts.get(key, 0) + value

    def write(self, path: str) -> int:
        """Write the retained spans as JSON lines; returns the line count."""
        origin = min(self.starts, default=0)
        with open(path, "w") as fh:
            for index, name in enumerate(self.names):
                txn = self.txns[index]
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_us": (self.starts[index] - origin) / 1e3,
                            "end_us": (self.ends[index] - origin) / 1e3,
                            "parent": self.parents[index],
                            "txn": None if txn is None else str(txn),
                        }
                    )
                )
                fh.write("\n")
        return len(self.names)


# -- which layer a dynamically dispatched callable belongs to -----------------

_PROCESS_LAYERS = (
    ("cmd:", "ldbs.ltm:command-process"),
    ("local:", "ldbs.ltm:local-process"),
    ("coord:", "core.coordinator:process"),
    ("resume:", "core.coordinator:process"),
    ("resubmit:", "core.agent:resubmit-process"),
)

_ADDRESS_LAYERS = (
    ("agent:", "core.agent:handle"),
    ("coord:", "core.coordinator:handle"),
    ("fd:", "net.failure_detector:handle"),
)


def _layer_of_module(module: Optional[str]) -> str:
    if not module or not module.startswith("repro."):
        return "bench"
    return module[len("repro."):]


def _owner_module(callback: Callable) -> Optional[str]:
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return type(owner).__module__
    return getattr(callback, "__module__", None)


class Patcher:
    """Applies attribute replacements and remembers how to undo them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _txn_of_message(_self, message, *_a, **_k):
    return getattr(message, "txn", None)


def _txn_first_arg(_self, txn=None, *_a, **_k):
    return txn


def _txn_of_localtxn(self, *_a, **_k):
    return self.subtxn.txn


def install(tracer: Tracer, rt: bool = False) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that undoes it.

    ``rt`` adds the real-runtime layers (codec, wire, journal, realtime
    kernel) used by the in-process traced cluster.
    """
    patch = Patcher()
    wrap = tracer.wrap

    def method(module: str, cls: str, attr: str, name: str, txn_of=None) -> None:
        owner = getattr(importlib.import_module(module), cls)
        patch.set(owner, attr, wrap(name, owner.__dict__[attr], txn_of))

    def function(module: str, attr: str, name: str, consumers=()) -> None:
        """Wrap a module-level function and every by-name import of it."""
        home = importlib.import_module(module)
        original = home.__dict__[attr]
        traced = wrap(name, original)
        patch.set(home, attr, traced)
        for consumer in consumers:
            mod = importlib.import_module(consumer)
            if mod.__dict__.get(attr) is original:
                patch.set(mod, attr, traced)

    def per_name(fn: Callable, txn_of=None) -> Callable[[str], Callable]:
        """``wrap(name, fn)`` memoised by name, for callables whose layer
        is only known call by call (a process, a timer, a handler)."""
        cache: Dict[str, Callable] = {}

        def named(name: str) -> Callable:
            traced = cache.get(name)
            if traced is None:
                traced = cache[name] = wrap(name, fn, txn_of)
            return traced

        return named

    def prefixed(text: str, table, default: str) -> str:
        for prefix, layer in table:
            if text.startswith(prefix):
                return layer
        return default

    # -- kernel ---------------------------------------------------------------
    method("repro.kernel.events", "EventKernel", "run", "kernel:run")

    from repro.kernel.events import Event, Timer
    from repro.kernel.process import Process

    resume = per_name(Process.__dict__["_resume"])

    def traced_resume(self, mode, payload):
        layer = prefixed(self.name, _PROCESS_LAYERS, "core.dtm:process")
        return resume(layer)(self, mode, payload)

    patch.set(Process, "_resume", traced_resume)

    expire = per_name(Timer.__dict__["_expire"])

    def traced_expire(self):
        layer = _layer_of_module(_owner_module(self._callback)) + ":timer"
        return expire(layer)(self)

    patch.set(Timer, "_expire", traced_expire)

    # Completion callbacks run as bare kernel events; name them after the
    # module that subscribed so they are not booked as kernel self time.
    subscribe = Event.__dict__["subscribe"]
    invoke_callback = per_name(lambda cb, event: cb(event))

    def traced_subscribe(self, callback):
        module = _owner_module(callback)
        if module and module.startswith("repro.") and module != "repro.kernel.process":
            invoke = invoke_callback(_layer_of_module(module) + ":callback")
            inner = callback
            callback = lambda event: invoke(inner, event)  # noqa: E731
        return subscribe(self, callback)

    patch.set(Event, "subscribe", traced_subscribe)

    # -- net --------------------------------------------------------------------
    invoke_handler = per_name(lambda h, message: h(message), _txn_of_message)

    def traced_register(original, default_layer: str):
        def register(self, address, handler, replace=False):
            if _owner_module(handler) == "repro.net.reliable":
                layer = "net.reliable:receive"
            else:
                layer = prefixed(address, _ADDRESS_LAYERS, default_layer)
            # An object with ``__self__`` again, so the session layer's
            # own receive hook is still recognised through the wrapper.
            traced_handler = _BoundHandler(invoke_handler(layer), handler)
            return original(self, address, traced_handler, replace=replace)

        return register

    from repro.net.network import Network
    from repro.net.reliable import SessionLayer

    patch.set(
        Network,
        "register",
        traced_register(Network.__dict__["register"], "net:handle"),
    )
    patch.set(
        SessionLayer,
        "register",
        traced_register(SessionLayer.__dict__["register"], "net:handle"),
    )
    method("repro.net.network", "Network", "send", "net:send", _txn_of_message)
    method("repro.net.network", "Network", "_deliver", "net:deliver", _txn_of_message)
    method("repro.net.reliable", "SessionLayer", "send", "net.reliable:send", _txn_of_message)
    method("repro.net.reliable", "SessionLayer", "_on_timeout", "net.reliable:timeout")

    # -- ldbs -----------------------------------------------------------------
    for attr in ("execute", "commit", "abort"):
        method("repro.ldbs.ltm", "LocalTxn", attr, f"ldbs.ltm:{attr}", _txn_of_localtxn)
    method("repro.ldbs.locks", "LockManager", "release_all", "ldbs.locks:release_all")
    _install_lock_wait(tracer, patch)

    # -- core -----------------------------------------------------------------
    for attr in ("certify_prepare", "certify_commit", "insert"):
        method("repro.core.certifier", "Certifier", attr, f"core.certifier:{attr}", _txn_first_arg)
    # the agent's call_soon continuations (no handler or timer above them)
    method("repro.core.agent", "TwoPCAgent", "_guarded_try_commit", "core.agent:deferred")
    method("repro.core.agent", "TwoPCAgent", "_flush_prepare_batch", "core.agent:deferred")
    method("repro.core.dtm", "MultidatabaseSystem", "__init__", "core.dtm:build")
    method("repro.core.dtm", "MultidatabaseSystem", "submit", "core.dtm:submit")
    method("repro.core.dtm", "MultidatabaseSystem", "submit_local", "core.dtm:submit_local")
    method("repro.core.dtm", "MultidatabaseSystem", "close", "core.dtm:close")

    # -- durability -----------------------------------------------------------
    for attr in ("write_prepare", "write_commit", "discard"):
        method("repro.durability.agent_log", "DurableAgentLog", attr, f"durability.agent_log:{attr}", _txn_first_arg)
    for attr in ("log_decision", "log_end"):
        method("repro.durability.decision_log", "DurableDecisionLog", attr, f"durability.decision_log:{attr}")
    _install_wal(tracer, patch)

    # -- overload, workload, failure injection, metrics ------------------------
    method("repro.overload.admission", "AdmissionController", "try_admit", "overload:try_admit")
    method("repro.overload.admission", "AdmissionController", "release", "overload:release")
    method("repro.workload.generator", "WorkloadGenerator", "generate", "workload:generate")
    method("repro.sim.failures", "RandomFailureInjector", "_fire", "sim.failures:inject")
    method("repro.sim.failures", "RandomFailureInjector", "_observe", "sim.failures:observe")
    function("repro.sim.driver", "run_schedule", "sim.driver:run_schedule")
    function("repro.sim.metrics", "collect_metrics", "sim.metrics:collect", ("repro.explore.harness",))

    # -- history (the oracle) -------------------------------------------------
    function("repro.sim.failures", "invariant_battery", "history:battery", ("repro.explore.harness",))
    function("repro.sim.failures", "wal_battery", "history:wal_battery", ("repro.explore.harness",))
    function("repro.sim.metrics", "committed_projection", "history.committed:projection")
    function("repro.sim.metrics", "check_view_serializable", "history.viewser:check")
    function("repro.sim.metrics", "find_distortions", "history.distortion:find")
    function("repro.sim.metrics", "check_rigorous", "history.rigor:check")
    function("repro.sim.metrics", "serialization_graph", "history.graphs:serialization_graph")
    function("repro.sim.metrics", "find_cycle", "history.graphs:find_cycle")
    function("repro.sim.failures", "check_atomic_commitment", "history.invariants:atomic")
    function("repro.sim.failures", "check_correctness_invariant", "history.invariants:ci")

    # -- explore --------------------------------------------------------------
    function("repro.explore.harness", "build_system", "explore:build_system")
    function("repro.explore.harness", "run_fingerprint", "explore:run_fingerprint")
    function("repro.explore.harness", "_coverage_of", "explore:coverage")
    function("repro.explore.harness", "run_once", "explore:run_once", ("repro.explore",))

    # -- interpreter ------------------------------------------------------------
    patch.set(gc, "collect", wrap("py:gc_collect", gc.collect))

    if rt:
        _install_rt(tracer, patch, traced_register)
    return patch.undo


class _BoundHandler:
    """Callable standing in for a wrapped message handler.

    Exposes ``__self__`` of the original bound method so code that asks
    "whose handler is this?" (:func:`_owner_module`) still gets the
    answer after wrapping.
    """

    __slots__ = ("_invoke", "_inner", "__self__")

    def __init__(self, invoke: Callable, inner: Callable) -> None:
        self._invoke = invoke
        self._inner = inner
        self.__self__ = getattr(inner, "__self__", None)

    def __call__(self, message):
        return self._invoke(self._inner, message)


def _install_lock_wait(tracer: Tracer, patch: Patcher) -> None:
    """``acquire`` span plus wall time between queueing and grant."""
    from repro.ldbs.locks import LockManager

    acquire = tracer.wrap("ldbs.locks:acquire", LockManager.__dict__["acquire"])
    grant = LockManager.__dict__["_grant"]
    waiting: Dict[tuple, int] = {}

    def traced_acquire(self, owner, resource, mode, timeout=None):
        event = acquire(self, owner, resource, mode, timeout)
        if not event.done:
            waiting[(id(self), owner, resource)] = perf_counter_ns()
        return event

    def traced_grant(self, state, owner, resource, mode):
        queued_at = waiting.pop((id(self), owner, resource), None)
        if queued_at is not None:
            tracer.add_count("lock_wait_ns", perf_counter_ns() - queued_at)
            tracer.add_count("lock_waits")
        return grant(self, state, owner, resource, mode)

    patch.set(LockManager, "acquire", traced_acquire)
    patch.set(LockManager, "_grant", traced_grant)


def _install_wal(tracer: Tracer, patch: Patcher) -> None:
    """WAL append/sync spans plus the bytes each append put in the segment."""
    from repro.durability.wal import WriteAheadLog

    append = tracer.wrap("durability.wal:append", WriteAheadLog.__dict__["append"])

    def traced_append(self, kind, body, force=False):
        before = self._writer.size
        try:
            return append(self, kind, body, force)
        finally:
            after = self._writer.size
            # a rotation inside append starts a fresh segment at size 0
            tracer.add_count("wal_bytes", after - before if after >= before else after)

    patch.set(WriteAheadLog, "append", traced_append)
    patch.set(
        WriteAheadLog,
        "sync",
        tracer.wrap("durability.wal:sync", WriteAheadLog.__dict__["sync"]),
    )


def _install_rt(tracer: Tracer, patch: Patcher, traced_register) -> None:
    """Codec, wire, journal and realtime-kernel wrappers (in-process cluster)."""
    import asyncio

    from repro.rt import codec, wire
    from repro.rt.journal import HistoryJournal
    from repro.rt.kernel import RealtimeKernel
    from repro.rt.wire import TcpTransport

    encode = tracer.wrap("rt.codec:encode_frame", codec.encode_frame)

    def traced_encode(kind, body):
        frame = encode(kind, body)
        tracer.add_count("codec_bytes_out", len(frame))
        return frame

    patch.set(codec, "encode_frame", traced_encode)
    for consumer in (wire, importlib.import_module("repro.rt.cluster")):
        patch.set(consumer, "encode_frame", traced_encode)

    decode = codec.decode_frame
    decode_ok = tracer.wrap("rt.codec:decode_frame", lambda buffer, offset: decode(buffer, offset))

    def traced_decode(buffer, offset=0):
        # The stream decoder probes for a frame on every read; only a
        # buffer that holds a whole header is a decode worth a span.
        if len(buffer) - offset < 8:
            return decode(buffer, offset)
        return decode_ok(buffer, offset)

    patch.set(codec, "decode_frame", traced_decode)

    patch.set(
        TcpTransport,
        "register",
        traced_register(TcpTransport.__dict__["register"], "rt.wire:handle"),
    )
    for attr, name in (
        ("send", "rt.wire:send"),
        ("send_control", "rt.wire:send_control"),
        ("_dispatch_frame", "rt.wire:dispatch_frame"),
        ("_invoke_control", "rt.wire:control"),
    ):
        patch.set(TcpTransport, attr, tracer.wrap(name, TcpTransport.__dict__[attr]))

    # Outbound queue wait: from _enqueue to the socket write of that frame.
    enqueue = tracer.wrap("rt.wire:enqueue", TcpTransport.__dict__["_enqueue"])
    queued: Dict[int, int] = {}

    def traced_enqueue(self, route, frame):
        queued[id(frame)] = perf_counter_ns()
        return enqueue(self, route, frame)

    patch.set(TcpTransport, "_enqueue", traced_enqueue)
    stream_write = asyncio.StreamWriter.__dict__["write"]

    def traced_stream_write(self, data):
        queued_at = queued.pop(id(data), None)
        if queued_at is not None:
            tracer.add_sample("wire_queue_ms", (perf_counter_ns() - queued_at) / 1e6)
        return stream_write(self, data)

    patch.set(asyncio.StreamWriter, "write", traced_stream_write)

    patch.set(
        HistoryJournal,
        "append",
        tracer.wrap("rt.journal:append", HistoryJournal.__dict__["append"]),
    )

    pump = tracer.wrap("rt.kernel:pump", RealtimeKernel.__dict__["_pump"])

    def traced_pump(self):
        due = self._wake_time
        if due is not None:
            tracer.add_sample("timer_slack_ms", max(0.0, self.wall - due) * 1e3)
        return pump(self)

    patch.set(RealtimeKernel, "_pump", traced_pump)
