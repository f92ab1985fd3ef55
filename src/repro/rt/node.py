"""Runtime processes: one 2PC Agent or one Coordinator per OS process.

``python -m repro serve agent --site branch1`` /
``python -m repro serve coordinator --name c1`` build their role with
:mod:`repro.core.assembly`, as the simulator does, against a
:class:`~repro.rt.host.ProtocolHost` (realtime kernel + TCP transport
+ session layer) with the durability subsystem's WAL as the real
recovery log.  An agent also replays its history journal: the
committed store image, and which logged subtransactions committed.
Both boot when the launcher's route table arrives; until then an
agent leaves inbound protocol traffic unacknowledged.

Readiness handshake: after the listener is bound (port 0 welcome) the
process prints exactly one status line on stdout — a JSON object under
``--json``, a human banner otherwise — carrying the bound address.
Launchers block on that line instead of sleep-polling.

Control plane (``FRAME_CONTROL`` frames addressed ``ctl:...``):
``routes`` installs the peer table and boots the role, ``submit`` runs
one global transaction and replies with its outcome, ``arm-kill``
installs a crash probe that SIGKILLs the process at an exact protocol
point, ``stats`` reports counters and store sums, ``quit`` shuts down
cleanly.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from typing import List, Optional

from repro.core.agent import CRASH_POINTS
from repro.core.assembly import build_coordinator, build_site, build_sn_source
from repro.core.coordinator import COORDINATOR_KILL_POINTS
from repro.durability.segments import DiskFault
from repro.history.model import History
from repro.rt.host import ProtocolHost
from repro.rt.journal import (
    HistoryJournal,
    committed_state,
    journal_path,
    read_journal,
)
from repro.rt.tuning import BankConfig, RtTuning

#: ``--at`` aliases for the agent's protocol crash points.
KILL_POINT_ALIASES = {
    "prepared": "post-prepare",
    "ready": "post-ready",
    "committed": "post-commit-record",
}

#: Exit code of a process that fail-stopped on an injected (or real)
#: disk fault — distinguishable from a SIGKILL (-9) in supervisor
#: ``exited`` events, so drills can attribute respawns per fault class.
EXIT_DISK_FAULT = 3


def agent_address(site: str) -> str:
    return f"agent:{site}"


def agent_control(site: str) -> str:
    return f"ctl:agent:{site}"


def coordinator_address(name: str) -> str:
    return f"coord:{name}"


def coordinator_control(name: str) -> str:
    return f"ctl:coord:{name}"


def resolve_kill_point(at: str) -> str:
    point = KILL_POINT_ALIASES.get(at, at)
    if point not in CRASH_POINTS:
        choices = sorted(set(CRASH_POINTS) | set(KILL_POINT_ALIASES))
        raise ValueError(f"unknown kill point {at!r} (choose from {choices})")
    return point


def resolve_coordinator_kill_point(at: str) -> str:
    if at not in COORDINATOR_KILL_POINTS:
        raise ValueError(
            f"unknown coordinator kill point {at!r} "
            f"(choose from {sorted(COORDINATOR_KILL_POINTS)})"
        )
    return at


def fail_stop_on_disk_fault(exc: BaseException) -> None:
    """A process that cannot persist must stop participating *now*.

    ``os._exit`` (not ``sys.exit``): nothing here is recoverable, no
    finalizer should run against a disk we just watched fail, and the
    supervisor's respawn + WAL recovery scanner own what happens next.
    """
    print(f"rt: fatal disk fault, failing stop: {exc}", file=sys.stderr, flush=True)
    os._exit(EXIT_DISK_FAULT)


def _parse_listen(listen: str):
    host, _, port = listen.rpartition(":")
    return host or "127.0.0.1", int(port)


class _NodeBase:
    """Shared lifecycle: host, journal, status line, control plane.

    A role defines ``boot()``, its recovery step, run when the route
    table arrives, and ``arm_kill(at, after)``.
    """

    role = "node"

    def __init__(self, name: str, data_root: str, tuning: RtTuning) -> None:
        self.name = name
        self.data_root = data_root
        self.tuning = tuning
        self.host = ProtocolHost(
            name,
            reliable=tuning.reliable_config(),
            outbox_limit=tuning.outbox_limit,
        )
        self.kernel = self.host.kernel
        # A WAL append that fails inside a message handler (injected or
        # real EIO) must fail-stop the process, not be swallowed as a
        # protocol error: a 2PC participant that cannot log must not
        # keep voting.  Timer-driven appends funnel through the loop's
        # exception handler (installed in _run_node).
        self.host.wire.fatal_error_types = (DiskFault,)
        self.host.wire.on_fatal = fail_stop_on_disk_fault
        self.history = History()
        self.journal_file = journal_path(data_root, name)
        self.prior_ops = read_journal(self.journal_file)
        self.journal = HistoryJournal(self.journal_file)
        self.journal.attach(self.history)
        self.stop = asyncio.Event()
        self.routes_installed = False
        self.kills_armed = 0

    async def start(self, listen: str, json_mode: bool) -> None:
        host, port = _parse_listen(listen)
        bound = await self.host.start(host, port)
        self.announce(bound, json_mode)

    def status(self, bound) -> dict:
        return {
            "event": "ready",
            "role": self.role,
            "name": self.name,
            "host": bound[0],
            "port": bound[1],
            "pid": os.getpid(),
            "boot": self.host.wire.boot_id,
            "data_root": self.data_root,
        }

    def announce(self, bound, json_mode: bool) -> None:
        status = self.status(bound)
        if json_mode:
            print(json.dumps(status, sort_keys=True), flush=True)
        else:
            extra = ", ".join(
                f"{k}={v}"
                for k, v in status.items()
                if k not in ("event", "role", "name", "host", "port")
            )
            print(
                f"serving {self.role} {self.name} on "
                f"{bound[0]}:{bound[1]} ({extra})",
                flush=True,
            )

    def install_routes(self, peers: List[dict]) -> None:
        for peer in peers:
            if peer.get("name") == self.name:
                continue
            self.host.add_peer(
                peer["name"],
                peer["host"],
                int(peer["port"]),
                tuple(peer.get("addresses", ())),
            )
        self.routes_installed = True

    def reply_to(self, body: dict, response: dict) -> None:
        reply = body.get("reply")
        if not reply:
            return
        self.host.wire.add_route(reply["address"], reply["host"], reply["port"])
        response = dict(response)
        response.setdefault("from", self.name)
        self.host.wire.send_control(reply["address"], response)

    def _on_control(self, body: dict) -> None:
        op = body.get("op")
        if op == "routes":
            self.install_routes(body.get("peers", ()))
            self.boot()
            self.reply_to(body, {"op": "routes-ok"})
        elif op == "arm-kill":
            point = self.arm_kill(body.get("at"), int(body.get("after", 1)))
            self.reply_to(body, {"op": "armed", "point": point})
        elif op == "stats":
            self.reply_to(body, {"op": "stats", "stats": self.stats()})
        elif op == "quit":
            self.request_stop()

    def _kill_at(self, point: str, after: int):
        """A probe that SIGKILLs this process at the ``after``-th hit of
        ``point``: a genuine SIGKILL at the exact protocol point.  The
        WAL and the journal flush on every append, so everything the
        protocol acted on before this instant is on disk — and nothing
        after it."""
        self.kills_armed += 1
        remaining = [max(1, after)]

        def probe(hit_point: str, _txn) -> bool:
            if hit_point == point:
                remaining[0] -= 1
                if remaining[0] == 0:
                    os.kill(os.getpid(), signal.SIGKILL)
            return False

        return probe

    def _stats(self, wal, **fields) -> dict:
        """The ``stats`` reply: the role's ``fields`` plus what every
        node reports."""
        session = self.host.session
        return dict(
            fields,
            role=self.role,
            pid=os.getpid(),
            boot=self.host.wire.boot_id,
            kills_armed=self.kills_armed,
            session={
                "retransmits": session.retransmits,
                "session_resets": session.session_resets,
                "dups_dropped": session.dups_dropped,
                "dead_letters": len(session.dead_letters),
            },
            peer_resets=self.host.peer_resets,
            journal_ops=self.journal.appended,
            wire=self.host.wire.stats(),
            wal={
                "recovery_clean": wal.recovery.clean,
                "damaged_segment": wal.recovery.damaged_segment,
                "repaired_files": wal.repaired_files,
                "disk_fault_fired": wal.disk_fault_fired,
            },
        )

    def request_stop(self) -> None:
        self.stop.set()

    async def close(self) -> None:
        await self.host.close()
        self.journal.close()


class AgentNode(_NodeBase):
    """One branch site: LTM + certifier + 2PC Agent, WAL-recovered."""

    role = "agent"

    def __init__(
        self, site: str, data_root: str, tuning: RtTuning, bank: BankConfig
    ) -> None:
        super().__init__(f"agent-{site}", data_root, tuning)
        self.site = site
        self.bank = bank
        replayed, committed_subs = committed_state(self.prior_ops)
        self.agent = build_site(
            site,
            self.kernel,
            self.host.transport,
            self.history,
            ltm_config=tuning.ltm_config(),
            config=tuning.agent_config(),
            dlu_wait_timeout=tuning.lock_timeout,
            durability=tuning.durability_config(data_root, owner=site),
            committed=committed_subs,
        )
        self.ltm = self.agent.ltm
        self.log = self.agent.log
        # The in-memory store died with the previous incarnation:
        # deterministic initial tables + the journal's committed image.
        for table, rows in bank.initial_tables(site).items():
            self.ltm.store.load(table, dict(rows))
        for item, value in replayed.items():
            if value is not None:
                self.ltm.store.load(item.table, {item.key: value})
        self.wal_entries_at_boot = len(list(self.log.entries()))
        self.recovered_at_boot = 0
        self.host.wire.register_control(agent_control(site), self._on_control)

    def status(self, bound) -> dict:
        status = super().status(bound)
        status["site"] = self.site
        status["recovery"] = self.wal_entries_at_boot > 0
        status["wal_entries"] = self.wal_entries_at_boot
        return status

    def boot(self) -> None:
        # A no-op once the agent is up (a repeated route table).
        self.recovered_at_boot += self.agent.boot()

    def arm_kill(self, at: Optional[str], after: int) -> str:
        point = resolve_kill_point(at or "prepared")
        self.agent.crash_probe = self._kill_at(point, after)
        return point

    def stats(self) -> dict:
        return self._stats(
            self.log.wal,
            site=self.site,
            wal_entries_at_boot=self.wal_entries_at_boot,
            recovered_at_boot=self.recovered_at_boot,
            crashes=self.agent.crashes,
            restarts=self.agent.restarts,
            inquiries_sent=self.agent.inquiries_sent,
            # Entries not yet DONE: while any remain, in-place writes of
            # undecided subtransactions are visible in ``tables`` and the
            # bank invariants are not yet meaningful (verifiers poll this
            # down to zero before checking totals).
            open_txns=self.agent.open_txn_count(),
            tables={
                table: sum(self.ltm.store.snapshot(table).values())
                for table in ("accounts", "tellers", "branch")
            },
            ltm={
                "commits": self.ltm.commits,
                "aborts": self.ltm.aborts,
                "unilateral_aborts": self.ltm.unilateral_aborts,
            },
        )

    async def close(self) -> None:
        await super().close()
        self.log.close()


class CoordinatorNode(_NodeBase):
    """One Coordinating Site, decision-logged and resumable.

    Its SNs are the paper's site-clock readings extended with its name,
    from :func:`repro.core.assembly.coordinator_clock`; any number of
    these may run side by side.
    """

    role = "coordinator"

    def __init__(self, name: str, data_root: str, tuning: RtTuning) -> None:
        super().__init__(f"coord-{name}", data_root, tuning)
        self.coord_name = name
        self.sn_generator = build_sn_source(self.kernel)
        self.coordinator = build_coordinator(
            name,
            self.kernel,
            self.host.transport,
            self.history,
            self.sn_generator,
            wall=time.time(),
            durability=tuning.durability_config(data_root, owner=name),
            timeouts=tuning.coordinator_timeouts(),
        )
        self.decision_log = self.coordinator.decision_log
        self.in_doubt_at_boot = len(self.decision_log.in_doubt())
        self.resumed_at_boot = 0
        self._pending_submits: List[dict] = []
        self.submitted = 0
        self.host.wire.register_control(
            coordinator_control(name), self._on_control
        )

    def status(self, bound) -> dict:
        status = super().status(bound)
        status["coordinator"] = self.coord_name
        status["in_doubt"] = self.in_doubt_at_boot
        return status

    def _on_control(self, body: dict) -> None:
        if body.get("op") != "submit":
            super()._on_control(body)
        elif not self.routes_installed:
            # Raced ahead of the launcher's route table: hold it.
            self._pending_submits.append(body)
        else:
            self._submit(body)

    def boot(self) -> None:
        # Now that agents are reachable, re-drive logged decisions whose
        # acks never landed, then the submits that came before routes.
        self.resumed_at_boot += self.coordinator.resume_in_doubt()
        pending, self._pending_submits = self._pending_submits, []
        for queued in pending:
            self._submit(queued)

    def arm_kill(self, at: Optional[str], after: int) -> str:
        """The three COORDINATOR_KILL_POINTS bracket the DECISION record:
        ``sn_drawn`` dies with nothing logged, ``decision_logged`` dies
        with the decision forced but **zero** COMMITs sent (the widest
        in-doubt window), ``mid_broadcast`` dies with the broadcast
        half-delivered (it only fires on >= 2 participants).  In every
        case the respawned incarnation must replay ``DurableDecisionLog``
        and ``resume_in_doubt()`` must finish delivery — that is exactly
        what the chaos drill asserts."""
        point = resolve_coordinator_kill_point(at or "decision_logged")
        self.coordinator.kill_probe = self._kill_at(point, after)
        return point

    def _submit(self, body: dict) -> None:
        spec = body["spec"]
        self.submitted += 1

        def reply(committed: bool, reason, **fields) -> None:
            self.reply_to(
                body,
                dict(
                    fields,
                    op="outcome",
                    txn=spec.txn.number,
                    committed=committed,
                    reason=reason,
                ),
            )

        def finished(event) -> None:
            if event.error is not None:
                reply(False, f"error: {event.error}")
                return
            outcome, sn = event.value, event.value.sn
            reply(
                outcome.committed,
                None if outcome.reason is None else str(outcome.reason),
                # Exact through JSON; str(sn) keeps six digits, so
                # wall-clock SNs seconds apart would print alike.
                sn=None if sn is None else [sn.clock, sn.site, sn.seq],
                latency=outcome.latency,
            )

        try:
            self.coordinator.submit(spec).subscribe(finished)
        except Exception as exc:
            reply(False, f"submit failed: {exc}")

    def stats(self) -> dict:
        return self._stats(
            self.decision_log.wal,
            name=self.coord_name,
            submitted=self.submitted,
            committed=self.coordinator.committed,
            aborted=self.coordinator.aborted,
            in_doubt_at_boot=self.in_doubt_at_boot,
            resumed_at_boot=self.resumed_at_boot,
            decisions=len(self.decision_log.decisions()),
            inquiries=self.coordinator.inquiries,
            inquiries_presumed_abort=self.coordinator.inquiries_presumed_abort,
        )

    async def close(self) -> None:
        await super().close()
        self.decision_log.close()


async def _run_node(factory, listen: str, json_mode: bool) -> int:
    # built inside the running loop: the RealtimeKernel and the
    # transport bind to the loop that drives them.
    node: _NodeBase = factory()
    loop = asyncio.get_running_loop()

    # WAL appends driven by kernel timers (commit retries, alive
    # checks) raise outside any message handler; they surface here.
    def on_loop_exception(loop_, context) -> None:
        exc = context.get("exception")
        if isinstance(exc, DiskFault):
            fail_stop_on_disk_fault(exc)
        loop_.default_exception_handler(context)

    loop.set_exception_handler(on_loop_exception)
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, node.request_stop)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    await node.start(listen, json_mode)
    await node.stop.wait()
    await node.close()
    return 0


def _tuning_from_args(args) -> RtTuning:
    if getattr(args, "tuning_json", None):
        return RtTuning.from_dict(json.loads(args.tuning_json))
    return RtTuning()


def _bank_from_args(args) -> BankConfig:
    sites = tuple(
        s for s in (args.bank_sites or "").split(",") if s
    ) or BankConfig().sites
    return BankConfig(
        sites=sites,
        accounts_per_branch=args.accounts,
        tellers_per_branch=args.tellers,
        initial_account_balance=args.balance,
    )


def run_serve_agent(args) -> int:
    factory = lambda: AgentNode(  # noqa: E731
        args.site, args.data_root, _tuning_from_args(args), _bank_from_args(args)
    )
    return asyncio.run(_run_node(factory, args.listen, args.json))


def run_serve_coordinator(args) -> int:
    factory = lambda: CoordinatorNode(  # noqa: E731
        args.name, args.data_root, _tuning_from_args(args)
    )
    return asyncio.run(_run_node(factory, args.listen, args.json))
