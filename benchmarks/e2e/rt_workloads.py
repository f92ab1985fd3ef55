"""Real-cluster workloads: ``rt_serial`` and ``rt_closed8``.

The gated run drives ``python -m repro serve cluster`` — one
coordinator and three agents as OS processes, default ``RtTuning`` —
with a closed loop of debit-credit transactions from this one process
(one asyncio loop, one outbound and one inbound TCP connection).
``rt_serial`` runs on cores kept awake by ``warm_core.py``, and
``rt_closed8`` is reported at reference speed: what each would read
otherwise depends on the host more than on the program (README.md,
"The real cluster").  The traced run adds a second phase on an
*in-process* cluster (the same node classes on this loop, still over
loopback TCP), where the wrappers of ``tracing.py`` can see every layer.
"""

from __future__ import annotations

import asyncio
import contextlib
import glob
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Tuple

import layers
import reference
from harness import HERE, SRC_ROOT, WORK_ROOT, Window, fresh_dir, percentile
from tracing import Patcher, Tracer, install

CLIENT_CONTROL = "ctl:bench"
WARM_CORE = os.path.join(HERE, "warm_core.py")
REMOTE_FRACTION = 0.3
#: No transaction of these workloads waits longer than the 5 s lock
#: timeout; one that is silent for this long is counted missing.
TXN_TIMEOUT_S = 20.0
READY_TIMEOUT_S = 60.0
#: Transactions generated per second of window: above any rate the
#: cluster reaches (rt_closed8 runs at ~280/s here).
MAX_RATE_PER_INFLIGHT = 150
#: Traced run: share of the seconds on the process cluster (for the
#: /proc-based node metrics), then untraced and traced in-process.
NODE_SHARE, UNTRACED_SHARE = 0.3, 0.2
SPEED_SAMPLE_EVERY_S = 1.0
#: CPU seconds ``reference.kernel`` takes inside an ``rt_closed8`` window
#: on a quiet box of the defining kind.  More than ``reference.NOMINAL_S``:
#: it shares the caches with five busy processes there.  Only ratios
#: between runs matter; the constant keeps the values in real units.
NOMINAL_KERNEL_S = 0.018
#: The cluster slows down less than the kernel does: over three series
#: of 30-40 ``rt_closed8`` runs, during which the kernel's time drifted
#: by up to 45 %, the cluster's CPU per commit followed it with exponent
#: 0.63, 0.43 and 0.49 (so did a 3 ms kernel and an arithmetic loop: it is
#: not the kernel's appetite for cache).  0.6 left the least spread in
#: the worst ten consecutive runs of all three.
SPEED_EXPONENT = 0.6


# -- /proc ---------------------------------------------------------------------

def proc_cpu_s(pid: int) -> float:
    """On-CPU seconds of every thread of ``pid`` so far.

    From ``schedstat`` (the scheduler's own nanosecond run time), not
    ``stat``: this kernel accounts utime/stime by sampling at the 100 Hz
    tick, and node processes that wake on timers are sampled so unevenly
    that the same run's CPU per commit spread 7 % (IQR/median).
    """
    total_ns = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
            total_ns += int(fh.read().split()[0])
    return total_ns / 1e9


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def stale_cluster_pids() -> List[int]:
    """Processes of an earlier run: nodes still serving a data root under
    this benchmark's work dir, or its core warmers."""
    stale = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue
        if WARM_CORE.encode() in argv or (
            b"serve" in argv
            and any(arg.startswith(WORK_ROOT.encode()) for arg in argv)
        ):
            stale.append(int(entry))
    return stale


class WarmCores:
    """One ``warm_core.py`` spinner per core, so that no core goes idle
    while an rt workload runs (why: see that file)."""

    def __init__(self) -> None:
        self.procs: List[subprocess.Popen] = []

    def start(self) -> None:
        for _ in range(len(os.sched_getaffinity(0))):
            self.procs.append(
                subprocess.Popen([sys.executable, WARM_CORE, str(os.getpid())])
            )

    def stop(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
        self.procs = []


# -- the two kinds of cluster --------------------------------------------------


class ProcessCluster:
    """``serve cluster`` in its own process group, torn down on every path."""

    def __init__(self, data_root: str) -> None:
        self.data_root = data_root
        self.proc: Optional[subprocess.Popen] = None
        self.info: dict = {}

    def start(self) -> None:
        stale = stale_cluster_pids()
        if stale:
            raise RuntimeError(
                f"a previous run's cluster processes are still alive: {stale}"
            )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        self._stderr = open(os.path.join(self.data_root, "cluster.stderr"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "cluster",
             "--data-root", self.data_root, "--json"],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            start_new_session=True,
        )
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            line = self.proc.stdout.readline()
            if not line or time.monotonic() > deadline:
                raise RuntimeError("cluster never became ready: " + self._stderr_tail())
            event = json.loads(line)
            if event.get("event") == "ready" and event.get("role") == "cluster":
                break
        with open(os.path.join(self.data_root, "cluster.json")) as fh:
            self.info = json.load(fh)

    def _stderr_tail(self) -> str:
        with contextlib.suppress(OSError):
            with open(os.path.join(self.data_root, "cluster.stderr")) as fh:
                return fh.read()[-2000:]
        return ""

    def pids(self) -> Dict[str, List[int]]:
        return {
            "coordinator": [c["pid"] for c in self.info["coordinators"]],
            "agents": [a["pid"] for a in self.info["agents"]],
            "supervisor": [self.proc.pid],
        }

    def stop(self) -> None:
        """SIGTERM the supervisor, then SIGKILL whatever is left of the group."""
        if self.proc is not None:
            pgid = self.proc.pid
            if self.proc.poll() is None:
                self.proc.terminate()
                with contextlib.suppress(subprocess.TimeoutExpired):
                    self.proc.wait(timeout=5.0)
            # The nodes are the supervisor's children, not ours: kill what
            # is left of the group and wait until the group is empty.
            deadline = time.monotonic() + 5.0
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(pgid, signal.SIGKILL)
                self.proc.wait()
                while time.monotonic() < deadline:
                    os.killpg(pgid, signal.SIGKILL)
                    time.sleep(0.02)
            self.proc.wait()
            self.proc.stdout.close()
            self._stderr.close()
            self.proc = None
        shutil.rmtree(self.data_root, ignore_errors=True)


class InProcessCluster:
    """The same four nodes on the caller's asyncio loop (traced phase)."""

    def __init__(self, data_root: str) -> None:
        self.data_root = data_root
        self.nodes: list = []
        self.info: dict = {}

    async def start(self) -> None:
        from repro.rt.cluster import send_control_frame
        from repro.rt.node import (
            AgentNode, CoordinatorNode, agent_address, agent_control,
            coordinator_address, coordinator_control,
        )
        from repro.rt.tuning import BankConfig, RtTuning

        tuning, bank = RtTuning(), BankConfig()
        coordinator = CoordinatorNode("c1", self.data_root, tuning)
        agents = [AgentNode(site, self.data_root, tuning, bank) for site in bank.sites]
        self.nodes = [coordinator] + agents
        addresses = {coordinator.name: [coordinator_address("c1"), coordinator_control("c1")]}
        for agent in agents:
            addresses[agent.name] = [agent_address(agent.site), agent_control(agent.site)]
        peers = []
        for node in self.nodes:
            host, port = await node.host.start("127.0.0.1", 0)
            peers.append({"name": node.name, "host": host, "port": port,
                          "addresses": addresses[node.name]})
        for node, peer in zip(self.nodes, peers):
            await send_control_frame(
                peer["host"], peer["port"],
                {"dst": peer["addresses"][1], "op": "routes", "peers": peers},
            )
        while not all(node.routes_installed for node in self.nodes):
            await asyncio.sleep(0.005)
        entry = lambda p: {"host": p["host"], "port": p["port"]}  # noqa: E731
        self.info = {
            "coordinators": [dict(entry(peers[0]), name="c1")],
            "agents": [dict(entry(p), site=a.site) for a, p in zip(agents, peers[1:])],
            "bank": bank.to_dict(),
            "tuning": tuning.to_dict(),
        }

    async def stop(self) -> None:
        for node in self.nodes:
            await node.close()
        self.nodes = []
        shutil.rmtree(self.data_root, ignore_errors=True)


# -- the client ----------------------------------------------------------------


@dataclass
class LoopResult:
    wall_s: float = 0.0
    #: (txn number, committed, latency seconds) in completion order
    outcomes: List[tuple] = field(default_factory=list)
    missing: List[int] = field(default_factory=list)
    #: CPU seconds of each ``reference.kernel`` pass run inside the loop,
    #: and the wall seconds they took together
    kernel_cpu_s: List[float] = field(default_factory=list)
    paused_s: float = 0.0

    @property
    def committed(self) -> List[int]:
        return [number for number, ok, _lat in self.outcomes if ok]

    @property
    def latencies_ms(self) -> List[float]:
        return [1000.0 * lat for _n, ok, lat in self.outcomes if ok]


class Client:
    """Submits specs to the coordinator over control frames, closed loop."""

    def __init__(self, info: dict) -> None:
        self.info = info
        self.host = None
        self.reply: dict = {}
        self._outcomes: Dict[int, asyncio.Future] = {}
        self._stats: Dict[str, asyncio.Future] = {}
        #: txn number -> ns instants (send, recv), for the phase timeline
        self.sent_ns: Dict[int, int] = {}
        self.received_ns: Dict[int, int] = {}

    async def attach(self) -> None:
        from repro.rt.host import ProtocolHost
        from repro.rt.node import agent_control, coordinator_control

        self.host = ProtocolHost("bench")
        host, port = await self.host.start("127.0.0.1", 0)
        self.reply = {"address": CLIENT_CONTROL, "host": host, "port": port}
        self.host.wire.register_control(CLIENT_CONTROL, self._on_control)
        coordinator = self.info["coordinators"][0]
        self.coordinator_ctl = coordinator_control(coordinator["name"])
        self.host.wire.add_route(
            self.coordinator_ctl, coordinator["host"], coordinator["port"]
        )
        self.agent_ctls = {}
        for agent in self.info["agents"]:
            ctl = self.agent_ctls[agent["site"]] = agent_control(agent["site"])
            self.host.wire.add_route(ctl, agent["host"], agent["port"])

    def _on_control(self, body: dict) -> None:
        op = body.get("op")
        if op == "outcome":
            self.received_ns[body["txn"]] = perf_counter_ns()
            waiter = self._outcomes.pop(body["txn"], None)
        elif op == "stats":
            waiter = self._stats.pop(body.get("from", ""), None)
        else:
            return
        if waiter is not None and not waiter.done():
            waiter.set_result(body)

    async def submit(self, spec) -> Optional[dict]:
        number = spec.txn.number
        waiter = asyncio.get_running_loop().create_future()
        self._outcomes[number] = waiter
        self.sent_ns[number] = perf_counter_ns()
        self.host.wire.send_control(
            self.coordinator_ctl, {"op": "submit", "spec": spec, "reply": self.reply}
        )
        try:
            return await asyncio.wait_for(waiter, TXN_TIMEOUT_S)
        except asyncio.TimeoutError:
            self._outcomes.pop(number, None)
            return None

    async def closed_loop(
        self, specs: Iterator, inflight: int, seconds: Optional[float] = None,
        sample_speed: bool = False,
    ) -> LoopResult:
        """``inflight`` workers, each submitting its next spec when the
        previous one is decided; stops issuing at ``seconds`` (or when
        ``specs`` runs dry) and waits for what is in flight.

        With ``sample_speed``, the first worker about to submit after
        each whole second runs ``reference.kernel`` once; those pauses
        (~2 % of the window) are not part of ``wall_s``."""
        result = LoopResult()
        started = time.perf_counter()
        next_sample_s = 0.0

        async def worker() -> None:
            nonlocal next_sample_s
            while True:
                elapsed = time.perf_counter() - started
                if seconds is not None and elapsed >= seconds:
                    return
                if sample_speed and elapsed >= next_sample_s:
                    next_sample_s = elapsed + SPEED_SAMPLE_EVERY_S
                    cpu_before = time.process_time()
                    result.paused_s += reference.kernel()
                    result.kernel_cpu_s.append(time.process_time() - cpu_before)
                spec = next(specs, None)
                if spec is None:
                    return
                sent = time.perf_counter()
                outcome = await self.submit(spec)
                if outcome is None:
                    result.missing.append(spec.txn.number)
                else:
                    result.outcomes.append(
                        (spec.txn.number, bool(outcome["committed"]),
                         time.perf_counter() - sent)
                    )

        await asyncio.gather(*(worker() for _ in range(inflight)))
        result.wall_s = time.perf_counter() - started - result.paused_s
        return result

    async def stats(self, name: str, address: str) -> Optional[dict]:
        waiter = asyncio.get_running_loop().create_future()
        self._stats[name] = waiter
        self.host.wire.send_control(address, {"op": "stats", "reply": self.reply})
        try:
            return (await asyncio.wait_for(waiter, 10.0))["stats"]
        except asyncio.TimeoutError:
            self._stats.pop(name, None)
            return None

    async def close(self) -> None:
        if self.host is not None:
            await self.host.close()
            self.host = None


# -- correctness: what StormClient verifies ------------------------------------


async def verify_cluster(
    client: Client, data_root: str, generated, results: List[LoopResult], label: str
) -> Tuple[List[str], float]:
    """0 missing, atomic commitment over the merged journals, bank
    conservation.  Returns the problems, and the data operations (reads
    and writes) the journals hold per committed transaction."""
    from repro.history.invariants import check_atomic_commitment
    from repro.history.model import OpKind
    from repro.rt.journal import merge_journals
    from repro.rt.tuning import BankConfig

    problems: List[str] = []
    missing = [n for r in results for n in r.missing]
    if missing:
        problems.append(f"{label}: {len(missing)} transactions never reported an outcome")
    # Store totals include in-place writes of undecided subtransactions,
    # so the bank invariants are only defined once every agent is idle.
    deadline = time.monotonic() + 10.0
    while True:
        stats = {
            site: await client.stats(f"agent-{site}", ctl)
            for site, ctl in client.agent_ctls.items()
        }
        if None in stats.values():
            return problems + [f"{label}: an agent did not answer the stats op"], 0.0
        open_txns = sum(s["open_txns"] for s in stats.values())
        if open_txns == 0:
            break
        if time.monotonic() > deadline:
            return problems + [f"{label}: {open_txns} subtransactions never closed"], 0.0
        await asyncio.sleep(0.1)

    merged = merge_journals(sorted(glob.glob(os.path.join(data_root, "journal-*.log"))))
    for violation in check_atomic_commitment(merged):
        problems.append(f"{label}: atomic commitment: {violation}")
    journal_committed = {txn.number for txn in merged.globally_committed()}
    stray = {n for r in results for n in r.committed} - journal_committed
    if stray:
        problems.append(f"{label}: client saw commits the journals lack: {sorted(stray)[:10]}")

    bank = BankConfig.from_dict(client.info["bank"])
    committed_delta = sum(
        delta for txn, (_h, _a, delta) in generated.deltas.items()
        if txn.number in journal_committed
    )
    initial = len(bank.sites) * bank.accounts_per_branch * bank.initial_account_balance
    accounts = sum(s["tables"]["accounts"] for s in stats.values())
    branch = sum(s["tables"]["branch"] for s in stats.values())
    for site, s in stats.items():
        if s["tables"]["branch"] != s["tables"]["tellers"]:
            problems.append(f"{label}: {site}: branch != tellers: {s['tables']}")
    if accounts != initial + committed_delta:
        problems.append(
            f"{label}: accounts total {accounts} != {initial} + committed {committed_delta}"
        )
    if branch != committed_delta:
        problems.append(f"{label}: branch total {branch} != committed {committed_delta}")
    data_ops = sum(op.kind in (OpKind.READ, OpKind.WRITE) for op in merged.ops)
    return problems, data_ops / max(1, len(journal_committed))


# -- the phase timeline of the traced cluster ------------------------------------


class Timeline:
    """Coordinator-side instants per transaction, from send/deliver hooks."""

    def __init__(self) -> None:
        self.enabled = False
        self.instants: Dict[int, Dict[str, int]] = {}
        self._patch = Patcher()

    def _mark(self, number: int, key: str, last: bool = False) -> None:
        if not self.enabled:
            return
        marks = self.instants.setdefault(number, {})
        if last or key not in marks:
            marks[key] = perf_counter_ns()

    def install(self) -> None:
        from repro.core.coordinator import Coordinator
        from repro.net.messages import MsgType
        from repro.net.reliable import SessionLayer
        from repro.rt.wire import TcpTransport

        submit = Coordinator.__dict__["submit"]
        send = SessionLayer.__dict__["send"]
        deliver = TcpTransport.__dict__["_deliver_message"]
        send_control = TcpTransport.__dict__["send_control"]
        first_sends = {MsgType.PREPARE: "prepare", MsgType.COMMIT: "commit"}

        def traced_submit(coordinator, spec):
            self._mark(spec.txn.number, "submit")
            return submit(coordinator, spec)

        def traced_send(session, message):
            key = first_sends.get(message.type)
            if key is not None and message.src.startswith("coord:"):
                self._mark(message.txn.number, key)
            return send(session, message)

        def traced_deliver(transport, message):
            if message.type is MsgType.READY and message.dst.startswith("coord:"):
                self._mark(message.txn.number, "ready", last=True)
            return deliver(transport, message)

        def traced_send_control(transport, address, body):
            if body.get("op") == "outcome":
                self._mark(body["txn"], "done")
            return send_control(transport, address, body)

        self._patch.set(Coordinator, "submit", traced_submit)
        self._patch.set(SessionLayer, "send", traced_send)
        self._patch.set(TcpTransport, "_deliver_message", traced_deliver)
        self._patch.set(TcpTransport, "send_control", traced_send_control)

    def undo(self) -> None:
        self._patch.undo()

    def phases(self, client: Client, committed: List[int]) -> Dict[str, float]:
        """p50 of each phase over the committed transactions, in ms."""
        order = ("sent", "submit", "prepare", "ready", "commit", "done", "received")
        names = ("submit", "execute", "prepare", "decide", "commit", "reply")
        samples: Dict[str, List[float]] = {name: [] for name in names}
        for number in committed:
            marks = dict(self.instants.get(number, {}))
            marks["sent"] = client.sent_ns.get(number)
            marks["received"] = client.received_ns.get(number)
            if any(marks.get(key) is None for key in order):
                continue
            for name, a, b in zip(names, order, order[1:]):
                samples[name].append((marks[b] - marks[a]) / 1e6)
        return {f"phase.{name}_ms": percentile(samples[name], 0.5) for name in names}


# -- the workloads -------------------------------------------------------------


class RtWorkload:
    name = ""
    inflight = 0
    warmup = 0
    #: Report the gated window as it would read at reference speed.
    at_reference_speed = False
    #: Spin on every core the cluster leaves idle (see ``warm_core.py``).
    keep_cores_warm = False

    def __init__(self, seed: int, quick: bool, seconds: float) -> None:
        self.seed = seed
        if quick:
            self.warmup = 20
        self.planned_txns = self.warmup + int(
            MAX_RATE_PER_INFLIGHT * self.inflight * seconds
        ) + 100
        self.loop = asyncio.new_event_loop()
        self.cluster: Optional[ProcessCluster] = None
        self.warm_cores = WarmCores()
        self.client: Optional[Client] = None
        self.results: List[LoopResult] = []
        self.problems: Optional[List[str]] = None
        self.verify_s = 0.0
        self.data_ops_per_commit = 0.0

    def _run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def _generate(self, bank, n: int, seed: int):
        from repro.workload.debitcredit import DebitCreditConfig, DebitCreditGenerator

        return DebitCreditGenerator(
            DebitCreditConfig(
                sites=tuple(bank.sites),
                n_transactions=n,
                accounts_per_branch=bank.accounts_per_branch,
                tellers_per_branch=bank.tellers_per_branch,
                remote_fraction=REMOTE_FRACTION,
                initial_account_balance=bank.initial_account_balance,
                seed=seed,
            )
        ).generate()

    # -- lifecycle ------------------------------------------------------------

    def setup(self) -> None:
        from repro.rt.tuning import BankConfig

        self.cluster = ProcessCluster(fresh_dir(f"{self.name}-{os.getpid()}"))
        self.cluster.start()  # refuses to, over an earlier run's processes
        if self.keep_cores_warm:
            self.warm_cores.start()
        bank = BankConfig.from_dict(self.cluster.info["bank"])
        self.generated = self._generate(bank, self.planned_txns, self.seed)
        self.specs = (entry.spec for entry in self.generated.schedule.globals_)
        self.client = Client(self.cluster.info)
        self._run(self.client.attach())
        warm = self._run(
            self.client.closed_loop(itertools.islice(self.specs, self.warmup), self.inflight)
        )
        self.results.append(warm)

    def _measure_process_cluster(self, seconds: float, sample_speed: bool = False):
        """One closed-loop window with every process's CPU read at its edges."""
        pids = self.cluster.pids()
        before = {role: sum(map(proc_cpu_s, ps)) for role, ps in pids.items()}
        client_before = time.process_time()
        result = self._run(
            self.client.closed_loop(self.specs, self.inflight, seconds, sample_speed)
        )
        cpu = {role: sum(map(proc_cpu_s, pids[role])) - before[role] for role in pids}
        cpu["client"] = time.process_time() - client_before - sum(result.kernel_cpu_s)
        self.results.append(result)
        return result, cpu

    def _window(self, result: LoopResult, cpu_s: float, op_sleep_ms: float = 0.0) -> Window:
        """The window as measured or, when the loop sampled the box's
        speed, as it would have read at reference speed.

        A transaction's latency is ``op_sleep_ms`` of simulated operation
        time, which no core shortens, plus everything else — CPU bursts,
        waiting for a core, waiting for a lock another transaction holds
        meanwhile — which stretches with the box's slowness.  The
        window's wall seconds shrink like its mean latency: the loop is
        closed.  See "The real cluster" in README.md for the measurements.
        """
        latencies = result.latencies_ms
        attempted = len(result.outcomes) + len(result.missing)
        commits = len(result.committed)
        factor = 1.0
        if result.kernel_cpu_s:
            factor = (
                NOMINAL_KERNEL_S / statistics.median(result.kernel_cpu_s)
            ) ** SPEED_EXPONENT

        def scaled(ms: float) -> float:
            return ms if ms <= op_sleep_ms else op_sleep_ms + (ms - op_sleep_ms) * factor

        mean_ms = statistics.fmean(latencies) if latencies else 1.0
        wall_s = result.wall_s * scaled(mean_ms) / mean_ms
        p50, p95 = percentile(latencies, 0.50), percentile(latencies, 0.95)
        return Window(
            attempted=attempted,
            failed=attempted - commits,
            commits=commits,
            wall_s=result.wall_s,
            metrics={
                "commits_per_s": commits / wall_s,
                "commit_latency_p50_ms": scaled(p50),
                "commit_latency_p95_ms": scaled(p95),
            },
            diagnostics={
                "cpu_ms_per_commit": 1000.0 * cpu_s / max(1, commits),
                "commit_latency_p99_ms": percentile(latencies, 0.99),
                "inflight_mean": sum(latencies) / 1000.0 / result.wall_s,
                "speed_factor": factor,
                "op_sleep_ms": op_sleep_ms,
                "raw_commits_per_s": commits / result.wall_s,
                "raw_commit_latency_p50_ms": p50,
                "raw_commit_latency_p95_ms": p95,
            },
        )

    def measure(self, seconds: float) -> Window:
        result, cpu = self._measure_process_cluster(seconds, self.at_reference_speed)
        self.verify()  # the journals say how many operations a transaction slept through
        op_sleep_ms = (
            1000.0 * self.cluster.info["tuning"]["op_duration"] * self.data_ops_per_commit
        )
        return self._window(result, sum(cpu.values()), op_sleep_ms)

    def verify(self) -> List[str]:
        """The process cluster's problems; checked once, while it is up."""
        if self.problems is None:
            started = time.perf_counter()
            self.problems, self.data_ops_per_commit = self._run(
                verify_cluster(
                    self.client, self.cluster.data_root, self.generated, self.results,
                    self.name,
                )
            )
            self.verify_s = time.perf_counter() - started
        return self.problems

    def close(self) -> None:
        try:
            if self.client is not None:
                with contextlib.suppress(Exception):
                    self._run(self.client.close())
        finally:
            try:
                self.warm_cores.stop()
            finally:
                if self.cluster is not None:
                    self.cluster.stop()
                self.loop.close()

    # -- the traced run -----------------------------------------------------------

    def trace(self, seconds: float, trace_path: str):
        # Phase A: the process cluster, for what only /proc can see.
        result, cpu = self._measure_process_cluster(seconds * NODE_SHARE)
        commits = max(1, len(result.committed))
        self.verify()
        pids = self.cluster.pids()
        values = {
            "rt.node.cpu_ms_per_commit": 1000.0 * sum(cpu.values()) / commits,
            "rt.node.coordinator_cpu_ms_per_commit": 1000.0 * cpu["coordinator"] / commits,
            "rt.node.agents_cpu_ms_per_commit": 1000.0 * cpu["agents"] / commits,
            "rt.node.client_cpu_ms_per_commit": 1000.0 * cpu["client"] / commits,
            "rt.node.rss_mb_max": max(
                proc_peak_rss_mb(pid) for pid in pids["coordinator"] + pids["agents"]
            ),
            "rt.node.verify_s": self.verify_s,
        }
        self._run(self.client.close())
        self.client = None
        self.cluster.stop()
        self.cluster = None
        # Phase B: the in-process cluster, untraced then traced.
        window, traced_values, traced_problems = self._run(
            self._trace_in_process(seconds, trace_path)
        )
        values.update(traced_values)
        window.failures = traced_problems
        return window, values

    async def _trace_in_process(self, seconds: float, trace_path: str):
        from repro.rt.tuning import BankConfig

        root = fresh_dir(f"{self.name}-inproc-{os.getpid()}")
        cluster = InProcessCluster(root)
        client = None
        # Wrappers go in before the nodes exist (they bind their handlers
        # at construction) and stay switched off until the traced window.
        tracer = Tracer(enabled=False)
        timeline = Timeline()
        undo = install(tracer, rt=True)
        timeline.install()
        try:
            await cluster.start()
            bank = BankConfig.from_dict(cluster.info["bank"])
            generated = self._generate(bank, self.planned_txns, self.seed + 1)
            specs = (entry.spec for entry in generated.schedule.globals_)
            client = Client(cluster.info)
            await client.attach()
            warm = await client.closed_loop(itertools.islice(specs, self.warmup // 2), self.inflight)
            plain = await client.closed_loop(specs, self.inflight, seconds * UNTRACED_SHARE)
            journals_before = _journal_bytes(root)
            counters_before = _node_counters(cluster.nodes)
            tracer.enabled = timeline.enabled = True
            cpu_before = time.process_time()
            traced = await client.closed_loop(
                specs, self.inflight, seconds * (1.0 - NODE_SHARE - UNTRACED_SHARE)
            )
            traced_cpu_s = time.process_time() - cpu_before
            tracer.enabled = timeline.enabled = False
            counters = {
                key: value - counters_before[key]
                for key, value in _node_counters(cluster.nodes).items()
            }
            counters["journal_bytes"] = _journal_bytes(root) - journals_before
            counters["lock_wait_wall_ms"] = tracer.counts.get("lock_wait_ns", 0) / 1e6
            counters["op_sleep_ms"] = (
                1000.0 * cluster.info["tuning"]["op_duration"] * counters.pop("data_ops")
            )
            problems, _data_ops = await verify_cluster(
                client, root, generated, [warm, plain, traced], f"{self.name} (in-process)"
            )
        finally:
            if client is not None:
                await client.close()
            await cluster.stop()
            timeline.undo()
            undo()
        window = self._window(traced, 0.0)
        commits = max(1, window.commits)
        values = layers.compute(tracer, counters, commits, root_span="")
        phases = timeline.phases(client, traced.committed)
        values.update(phases)
        window.diagnostics["traced_commit_latency_p50_ms"] = percentile(
            traced.latencies_ms, 0.5
        )
        window.diagnostics["phase_sum_ms"] = sum(phases.values())
        values["client.commit_latency_p99_ms"] = window.diagnostics["commit_latency_p99_ms"]
        values["client.inflight_mean"] = window.diagnostics["inflight_mean"]
        values["trace.overhead_share"] = 1.0 - (
            (len(traced.committed) / traced.wall_s)
            / (len(plain.committed) / plain.wall_s)
        )
        # There is no root span on an asyncio loop; what no layer owns is
        # the CPU this process burned outside every span (the loop itself,
        # stream readers, task switches).  Idle waiting burns none.
        in_spans_s = sum(entry[2] for entry in tracer.agg.values()) / 1e9
        values["trace.unattributed_share"] = max(0.0, 1.0 - in_spans_s / traced_cpu_s)
        tracer.write(trace_path)
        return window, values, problems


def _journal_bytes(root: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(root, "journal-*.log")))


def _node_counters(nodes) -> Dict[str, float]:
    """Exact counters read straight off the in-process nodes."""
    from repro.history.model import OpKind

    coordinator, agents = nodes[0], nodes[1:]
    wals = [coordinator.decision_log.wal] + [a.log.wal for a in agents]
    sessions = [n.host.session for n in nodes]
    return {
        "events": sum(n.kernel.events_fired for n in nodes),
        "messages": sum(n.host.wire.messages_sent for n in nodes),
        "acks_sent": sum(s.acks_sent for s in sessions),
        "retransmits": sum(s.retransmits for s in sessions),
        "lock_waits": sum(a.ltm.locks.waits for a in agents),
        "resubmissions": sum(a.agent.resubmissions for a in agents),
        "unilateral_aborts": sum(a.ltm.unilateral_aborts for a in agents),
        "commit_delays": sum(a.agent.certifier.commit_delays for a in agents),
        "prepare_checks": sum(a.agent.certifier.prepare_checks for a in agents),
        "commit_checks": sum(a.agent.certifier.commit_checks for a in agents),
        "refusals": sum(sum(a.agent.refusals.values()) for a in agents),
        "wal_forced_appends": sum(w.forced_appends for w in wals),
        "fsyncs": sum(w.fsyncs for w in wals),
        "data_ops": sum(
            1
            for a in agents
            for op in a.history.ops
            if op.kind in (OpKind.READ, OpKind.WRITE)
        ),
    }


class RtSerial(RtWorkload):
    name = "rt_serial"
    inflight = 1
    warmup = 40
    # Both cores are ~75 % idle here, so the host's idle policy decides the
    # numbers unless the cores are kept awake.  Not so with 8 in flight,
    # where the spinners would get in the way instead: the scheduler does
    # not pull a waiting node process over to a core that runs one, and
    # throughput drops a quarter.
    keep_cores_warm = True


class RtClosed8(RtWorkload):
    name = "rt_closed8"
    inflight = 8
    warmup = 200
    # Five processes keep both cores ~75 % busy, so this window follows
    # the box's speed, which drifts 20-30 % within minutes.  (On rt_serial
    # the same correction did not help: its 4 ms that are not sleep did not
    # slow down with the kernel.)
    at_reference_speed = True
