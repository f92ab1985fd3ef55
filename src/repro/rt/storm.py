"""``python -m repro storm``: drive a live cluster, kill, recover, verify.

The storm client reads ``cluster.json`` (or ``--launch``\\ es a cluster
itself), generates the deterministic debit-credit workload against the
same bank shape and seed the agents loaded, and submits it to the live
coordinators over control frames with a bounded in-flight window,
measuring wall-clock commit latency client-side.  Transaction ``n``
goes to coordinator ``n mod M`` of the ``M`` in ``cluster.json``
(``--launch --coordinators M`` starts that many).

``--kill-agent N --at prepared`` arms a crash probe inside agent ``N``
that SIGKILLs the process at the exact ``post-prepare`` protocol point
(after the forced prepare record, before the READY vote leaves). The
cluster supervisor respawns the process on the same port; the new
incarnation replays its WAL + journal, re-enters the prepared state,
and resumes in-doubt subtransactions to the coordinator's logged
decision.

``--kill-coordinator --at sn_drawn|decision_logged|mid_broadcast``
does the same to the first Coordinating Site, bracketing its DECISION
record: before it exists, right after it is forced (zero COMMITs
sent), and halfway through the commit broadcast.  Outcome replies for
in-flight transactions die with the process — they are *not*
resubmitted (that would risk double-apply); instead verification
derives the committed set from the merged journals, where
GLOBAL_COMMIT is flushed before any COMMIT leaves, and checks that
everything the client *did* see committed is in that set.

Afterwards the client runs the invariant battery:

- the merged per-process history journals must pass
  ``check_atomic_commitment`` (no site commits what another aborted);
- per site, ``sum(branch) == sum(tellers)``;
- across all sites, ``sum(accounts)`` must equal the initial balance
  plus exactly the deltas of transactions reported committed — the
  end-to-end exactly-once test across the kill;
- a killed agent must actually have restarted from a non-empty WAL.

The run's record (label, throughput, p50/p99 commit latency, counters,
invariant results) is printed as prose, or as one JSON line with
``--json-report``.
"""

from __future__ import annotations

import asyncio
import contextlib
import glob
import json
import os
import sys
from collections import deque
from typing import Dict, List, Optional

from repro.history.invariants import check_atomic_commitment
from repro.rt.host import ProtocolHost
from repro.rt.journal import merge_journals
from repro.rt.node import (
    agent_control,
    coordinator_control,
    resolve_coordinator_kill_point,
    resolve_kill_point,
)
from repro.rt.tuning import BankConfig
from repro.sim.metrics import percentile
from repro.workload.debitcredit import DebitCreditConfig, DebitCreditGenerator

CLIENT_CONTROL = "ctl:storm"
LAUNCH_TIMEOUT = 60.0


class StormClient:
    def __init__(self, args) -> None:
        self.args = args
        self.data_root = args.data_root
        self.cluster_proc: Optional[asyncio.subprocess.Process] = None
        self.cluster_restarts = 0
        self._cluster_drain: Optional[asyncio.Task] = None
        self._cluster_stderr_task: Optional[asyncio.Task] = None
        self._cluster_stderr: deque = deque(maxlen=40)
        #: Every supervisor event (exited/restarted/...) with a client
        #: clock timestamp — the chaos drill turns these into per-fault
        #: recovery times.
        self.cluster_events: List[dict] = []
        self.host: Optional[ProtocolHost] = None
        self.reply: Dict[str, object] = {}
        self.outcomes: Dict[int, dict] = {}
        self.outcome_events: Dict[int, asyncio.Event] = {}
        self.stats_waiters: Dict[str, asyncio.Future] = {}
        self.ack_waiters: Dict[str, asyncio.Future] = {}
        self.missing: List[int] = []
        self.failures: List[str] = []
        #: Extra argv for the ``--launch``\ ed cluster (``--nemesis``,
        #: ``--tuning-json ...``); set by the chaos drill.
        self.extra_cluster_args: List[str] = []
        #: Optional ``async f(info) -> None`` run concurrently with the
        #: traffic (the chaos drill's nemesis plan executor).
        self.side_task_factory = None
        self.killed_coordinator: Optional[str] = None
        self.report: Optional[dict] = None
        #: Control addresses of cluster.json's coordinators, in order.
        self.ctl_coords: List[str] = []
        self.coordinator_infos: List[dict] = []

    # -- cluster attachment ---------------------------------------------------

    async def _launch_cluster(self) -> None:
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "cluster",
            "--data-root",
            self.data_root,
            "--json",
        ]
        argv += list(self.extra_cluster_args)
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        self.cluster_proc = await asyncio.create_subprocess_exec(
            *argv,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            env=env,
        )
        self._cluster_stderr_task = asyncio.ensure_future(
            self._drain_cluster_stderr()
        )
        while True:
            line = await asyncio.wait_for(
                self.cluster_proc.stdout.readline(), LAUNCH_TIMEOUT
            )
            if not line:
                await asyncio.sleep(0.2)  # let stderr drain
                excerpt = "".join(self._cluster_stderr)[-2000:].strip()
                raise RuntimeError(
                    "cluster exited before becoming ready"
                    + (f"; stderr: {excerpt}" if excerpt else "")
                )
            event = json.loads(line)
            if event.get("event") == "ready" and event.get("role") == "cluster":
                break
        self._cluster_drain = asyncio.ensure_future(self._watch_cluster())

    async def _drain_cluster_stderr(self) -> None:
        with contextlib.suppress(Exception):
            while True:
                line = await self.cluster_proc.stderr.readline()
                if not line:
                    return
                text = line.decode(errors="replace")
                self._cluster_stderr.append(text)
                print(f"[cluster!] {text.rstrip()}", file=sys.stderr, flush=True)

    async def _watch_cluster(self) -> None:
        loop = asyncio.get_running_loop()
        with contextlib.suppress(Exception):
            while True:
                line = await self.cluster_proc.stdout.readline()
                if not line:
                    return
                event = json.loads(line)
                event["t"] = round(loop.time(), 4)
                self.cluster_events.append(event)
                if event.get("event") == "restarted":
                    self.cluster_restarts += 1

    async def _stop_cluster(self) -> None:
        if self.cluster_proc is None:
            return
        for task in (self._cluster_drain, self._cluster_stderr_task):
            if task is not None:
                task.cancel()
        if self.cluster_proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                self.cluster_proc.terminate()
            try:
                await asyncio.wait_for(self.cluster_proc.wait(), 10.0)
            except asyncio.TimeoutError:
                with contextlib.suppress(ProcessLookupError):
                    self.cluster_proc.kill()
                await self.cluster_proc.wait()

    # -- control plane --------------------------------------------------------

    def _on_control(self, body: dict) -> None:
        op = body.get("op")
        if op == "outcome":
            number = body["txn"]
            self.outcomes[number] = body
            event = self.outcome_events.get(number)
            if event is not None:
                event.set()
        elif op == "stats":
            waiter = self.stats_waiters.pop(body.get("from", ""), None)
            if waiter is not None and not waiter.done():
                waiter.set_result(body["stats"])
        elif op in ("armed", "routes-ok"):
            waiter = self.ack_waiters.pop(op, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(body)

    async def _attach(self, info: dict) -> None:
        self.host = ProtocolHost("storm")
        await self.host.start("127.0.0.1", 0)
        bound = self.host.bound
        self.reply = {
            "address": CLIENT_CONTROL,
            "host": bound[0],
            "port": bound[1],
        }
        self.host.wire.register_control(CLIENT_CONTROL, self._on_control)
        self.coordinator_infos = list(info["coordinators"])
        for coord in self.coordinator_infos:
            ctl = coordinator_control(coord["name"])
            self.ctl_coords.append(ctl)
            self.host.wire.add_route(ctl, coord["host"], coord["port"])
        self.ctl_coord = self.ctl_coords[0]
        for agent in info["agents"]:
            self.host.wire.add_route(
                agent_control(agent["site"]), agent["host"], agent["port"]
            )

    async def _await_ack(self, op: str, timeout: float = 10.0) -> dict:
        waiter = asyncio.get_running_loop().create_future()
        self.ack_waiters[op] = waiter
        return await asyncio.wait_for(waiter, timeout)

    async def _fetch_stats(self, name: str, address: str) -> Optional[dict]:
        waiter = asyncio.get_running_loop().create_future()
        self.stats_waiters[name] = waiter
        try:
            self.host.wire.send_control(
                address, {"op": "stats", "reply": self.reply}
            )
            return await asyncio.wait_for(waiter, 10.0)
        except (asyncio.TimeoutError, Exception):
            self.stats_waiters.pop(name, None)
            return None

    # -- the run --------------------------------------------------------------

    async def run(self) -> int:
        args = self.args
        if getattr(args, "coordinators", 1) > 1 and args.launch:
            self.extra_cluster_args += ["--coordinators", str(args.coordinators)]
        if args.launch:
            await self._launch_cluster()
        cluster_json = os.path.join(self.data_root, "cluster.json")
        with open(cluster_json) as fh:
            info = json.load(fh)
        bank = BankConfig.from_dict(info["bank"])
        await self._attach(info)

        if getattr(args, "kill_coordinator", False):
            point = resolve_coordinator_kill_point(args.at)
            self.host.wire.send_control(
                self.ctl_coord,
                {
                    "op": "arm-kill",
                    "at": point,
                    "after": args.kill_after,
                    "reply": self.reply,
                },
            )
            armed = await self._await_ack("armed")
            self.killed_coordinator = self.coordinator_infos[0]["name"]
            print(
                f"storm: armed SIGKILL in coordinator "
                f"{self.killed_coordinator} at {armed['point']} "
                f"(hit #{args.kill_after})",
                flush=True,
            )

        killed_site = None
        if args.kill_agent:
            index = args.kill_agent - 1
            if not 0 <= index < len(bank.sites):
                raise SystemExit(
                    f"--kill-agent {args.kill_agent} out of range "
                    f"(1..{len(bank.sites)})"
                )
            killed_site = bank.sites[index]
            point = resolve_kill_point(args.at)
            self.host.wire.send_control(
                agent_control(killed_site),
                {
                    "op": "arm-kill",
                    "at": point,
                    "after": args.kill_after,
                    "reply": self.reply,
                },
            )
            armed = await self._await_ack("armed")
            print(
                f"storm: armed SIGKILL in agent {killed_site} at "
                f"{armed['point']} (hit #{args.kill_after})",
                flush=True,
            )

        workload = DebitCreditConfig(
            sites=tuple(bank.sites),
            n_transactions=args.txns,
            accounts_per_branch=bank.accounts_per_branch,
            tellers_per_branch=bank.tellers_per_branch,
            remote_fraction=args.remote_fraction,
            initial_account_balance=bank.initial_account_balance,
            seed=args.seed,
        )
        generated = DebitCreditGenerator(workload).generate()
        scheduled = generated.schedule.globals_

        loop = asyncio.get_running_loop()
        window = asyncio.Semaphore(args.inflight)
        latencies: List[float] = []
        started = loop.time()

        async def submit_one(item) -> None:
            async with window:
                number = item.spec.txn.number
                t0 = loop.time()
                event = asyncio.Event()
                self.outcome_events[number] = event
                self.host.wire.send_control(
                    self.ctl_coords[number % len(self.ctl_coords)],
                    {"op": "submit", "spec": item.spec, "reply": self.reply},
                )
                try:
                    await asyncio.wait_for(event.wait(), args.txn_timeout)
                except asyncio.TimeoutError:
                    self.missing.append(number)
                    return
                outcome = self.outcomes[number]
                outcome["wall_latency"] = loop.time() - t0
                outcome["t_done"] = loop.time()
                if outcome["committed"]:
                    latencies.append(outcome["wall_latency"])

        side = None
        if self.side_task_factory is not None:
            side = asyncio.ensure_future(self.side_task_factory(info))
        try:
            await asyncio.wait_for(
                asyncio.gather(*(submit_one(item) for item in scheduled)),
                args.timeout,
            )
        except asyncio.TimeoutError:
            self.failures.append(
                f"overall deadline ({args.timeout}s) hit with "
                f"{len(self.outcomes)}/{len(scheduled)} outcomes"
            )
        duration = loop.time() - started
        if side is not None:
            # the fault plan may outlast the traffic: let it finish (it
            # heals the cluster at its end) before verifying.
            try:
                await asyncio.wait_for(side, args.timeout)
            except Exception as exc:
                side.cancel()
                self.failures.append(f"nemesis side task failed: {exc!r}")

        # settle: let COMMIT-ACK / ROLLBACK retransmissions drain so
        # the store images below are final.
        await asyncio.sleep(args.settle)

        committed = sorted(
            number for number, out in self.outcomes.items() if out["committed"]
        )
        aborted = sorted(
            number
            for number, out in self.outcomes.items()
            if not out["committed"]
        )
        report = await self._verify(
            info, bank, generated, committed, killed_site
        )
        if self.killed_coordinator:
            label = "coord_kill"
        elif killed_site:
            label = "kill_recover"
        else:
            label = "healthy"
        report.update(
            {
                "label": label,
                "txns": len(scheduled),
                "committed": len(committed),
                "aborted": len(aborted),
                "missing": len(self.missing),
                "duration_s": round(duration, 3),
                "throughput_committed_per_s": round(
                    len(committed) / duration, 3
                )
                if duration > 0
                else 0.0,
                "latency_p50_s": round(percentile(latencies, 0.50), 4),
                "latency_p99_s": round(percentile(latencies, 0.99), 4),
                "kill": {
                    "site": killed_site,
                    "coordinator": self.killed_coordinator,
                    "at": (
                        args.at
                        if (killed_site or self.killed_coordinator)
                        else None
                    ),
                    "cluster_restarts": self.cluster_restarts,
                },
                "failures": self.failures,
            }
        )
        self.report = report
        self._print_report(report)

        if args.quit_cluster and not args.launch:
            for agent in info["agents"]:
                with contextlib.suppress(Exception):
                    self.host.wire.send_control(
                        agent_control(agent["site"]), {"op": "quit"}
                    )
            for ctl in self.ctl_coords:
                with contextlib.suppress(Exception):
                    self.host.wire.send_control(ctl, {"op": "quit"})
            await asyncio.sleep(0.2)

        await self.host.close()
        if args.launch:
            await self._stop_cluster()
        return 1 if self.failures else 0

    # -- verification ---------------------------------------------------------

    async def _verify(
        self, info, bank, generated, committed, killed_site
    ) -> dict:
        # (1) atomic commitment over the merged per-process journals.
        journals = sorted(
            glob.glob(os.path.join(self.data_root, "journal-*.log"))
        )
        merged = merge_journals(journals)
        violations = check_atomic_commitment(merged)
        if violations:
            self.failures.extend(
                f"atomic commitment: {violation}" for violation in violations
            )
        # The *journals* are the authority on what committed: the
        # coordinator journals GLOBAL_COMMIT (flushed) before any COMMIT
        # leaves — in particular before any kill probe can fire — so the
        # set survives a coordinator SIGKILL that takes the client-bound
        # outcome replies with it.
        journal_committed = {
            txn.number for txn in merged.globally_committed()
        }
        stray = sorted(set(committed) - journal_committed)
        if stray:
            self.failures.append(
                f"client saw commits the journals never logged: {stray[:10]}"
            )
        if self.missing and not self.killed_coordinator:
            self.failures.append(
                f"{len(self.missing)} transactions never reported an outcome: "
                f"{self.missing[:10]}"
            )

        # (2)+(3) bank invariants from the live stores.  The store
        # totals include in-place writes of still-open (undecided)
        # subtransactions, so the invariants are only defined at
        # quiescence: poll ``open_txns`` down to zero first — with the
        # decision inquiry enabled, every orphan of a killed
        # coordinator resolves to presumed abort within bounded time.
        stats: Dict[str, Optional[dict]] = {}
        deadline = asyncio.get_running_loop().time() + max(
            10.0, self.args.settle
        )
        while True:
            for agent in info["agents"]:
                site = agent["site"]
                stats[site] = await self._fetch_stats(
                    f"agent-{site}", agent_control(site)
                )
            open_txns = sum(
                s.get("open_txns", 0) for s in stats.values() if s is not None
            )
            if open_txns == 0:
                break
            if asyncio.get_running_loop().time() >= deadline:
                self.failures.append(
                    f"{open_txns} subtransactions still open at "
                    "verification (quiescence never reached)"
                )
                break
            await asyncio.sleep(0.5)
        coords_stats: Dict[str, Optional[dict]] = {}
        for coord in self.coordinator_infos:
            name = coord["name"]
            coords_stats[name] = await self._fetch_stats(
                f"coord-{name}", coordinator_control(name)
            )
        coord_stats = coords_stats[self.coordinator_infos[0]["name"]]

        total_accounts = 0
        total_branch = 0
        for site, site_stats in stats.items():
            if site_stats is None:
                self.failures.append(f"agent {site} unreachable for stats")
                continue
            tables = site_stats["tables"]
            total_accounts += tables["accounts"]
            total_branch += tables["branch"]
            if tables["branch"] != tables["tellers"]:
                self.failures.append(
                    f"site {site}: branch={tables['branch']} != "
                    f"tellers={tables['tellers']}"
                )
        committed_delta = sum(
            generated.deltas[txn][2]
            for txn in generated.deltas
            if txn.number in journal_committed
        )
        initial_total = (
            len(bank.sites)
            * bank.accounts_per_branch
            * bank.initial_account_balance
        )
        if None not in stats.values():
            if total_accounts != initial_total + committed_delta:
                self.failures.append(
                    f"accounts total {total_accounts} != initial "
                    f"{initial_total} + committed deltas {committed_delta}"
                )
            if total_branch != committed_delta:
                self.failures.append(
                    f"branch total {total_branch} != committed deltas "
                    f"{committed_delta}"
                )

        # (4) the killed agent really died and really recovered.
        kill_stats = stats.get(killed_site) if killed_site else None
        if killed_site:
            if kill_stats is None:
                self.failures.append(
                    f"killed agent {killed_site} never came back"
                )
            elif kill_stats["wal_entries_at_boot"] < 1:
                self.failures.append(
                    f"killed agent {killed_site} restarted with an empty WAL "
                    "(the kill never hit the prepared window)"
                )

        # (5) a killed coordinator really respawned and replayed its
        # decision log.  At decision_logged / mid_broadcast the DECISION
        # record is forced but unacked, so the new incarnation must see
        # it in-doubt and re-drive it over the live sockets.
        if self.killed_coordinator:
            victim_stats = coords_stats.get(
                self.killed_coordinator, coord_stats
            )
            if victim_stats is None:
                self.failures.append(
                    f"killed coordinator {self.killed_coordinator} "
                    "never came back"
                )
            elif getattr(self.args, "kill_coordinator", False) and (
                self.args.at in ("decision_logged", "mid_broadcast")
            ):
                if victim_stats["in_doubt_at_boot"] < 1:
                    self.failures.append(
                        f"coordinator killed at {self.args.at} restarted "
                        "with no in-doubt decision (the kill missed the "
                        "in-doubt window)"
                    )

        return {
            "invariants": {
                "atomic_commitment_violations": len(violations),
                "journals_merged": len(journals),
                "merged_ops": len(merged.ops),
                "journal_committed": len(journal_committed),
                "bank_checked": None not in stats.values(),
            },
            "agents": stats,
            "coordinator": coord_stats,
            "coordinators": coords_stats,
        }

    # -- reporting ------------------------------------------------------------

    def _print_report(self, report: dict) -> None:
        if self.args.json_report:
            print(json.dumps(report, sort_keys=True, default=str), flush=True)
            return
        print(
            f"storm[{report['label']}]: {report['committed']}/{report['txns']} "
            f"committed, {report['aborted']} aborted, "
            f"{report['missing']} missing in {report['duration_s']}s "
            f"({report['throughput_committed_per_s']} commits/s, "
            f"p50 {report['latency_p50_s']}s, p99 {report['latency_p99_s']}s)",
            flush=True,
        )
        inv = report["invariants"]
        print(
            f"storm: merged {inv['journals_merged']} journals "
            f"({inv['merged_ops']} ops) -> "
            f"{inv['atomic_commitment_violations']} atomic-commitment "
            f"violations; bank checked: {inv['bank_checked']}",
            flush=True,
        )
        victim = report["kill"]["site"] or report["kill"].get("coordinator")
        if victim:
            print(
                f"storm: killed {victim} at "
                f"{report['kill']['at']}; cluster restarts observed: "
                f"{report['kill']['cluster_restarts']}",
                flush=True,
            )
        for failure in report["failures"]:
            print(f"storm: FAIL {failure}", flush=True)
        if not report["failures"]:
            print("storm: all invariants hold", flush=True)


def run_storm(args) -> int:
    async def _main() -> int:
        return await StormClient(args).run()

    return asyncio.run(_main())
