"""``python -m repro chaos-rt``: the composed real-cluster chaos drill.

One seed drives everything:

* the debit-credit **workload** (same seed the storm client uses);
* the **nemesis plan** — seeded latency spikes, throttles, connection
  resets, half-open blackholes, and timed bidirectional partitions,
  executed live over the nemesis control socket while traffic runs;
* the **kill mode** (``seed % 4``): SIGKILL the coordinator at
  ``sn_drawn`` / ``decision_logged`` / ``mid_broadcast``, or an agent
  at ``prepared``;
* a **disk fault**: one agent site's WAL injects a one-shot fsync EIO
  mid-run; the process fail-stops (exit code 3), the supervisor
  respawns it, and the marker file keeps the respawn from crash-looping
  on the same injected fault.

After the traffic drains and the plan heals, the storm client's full
merged-journal invariant battery runs (atomic commitment, bank sums,
journal-derived committed set), plus the drill's own assertions: the
partition really cut a coordinator link, the fsync fault really fired
and the victim really died with exit code 3 and came back, the kill
victim really died with SIGKILL and came back, and (for the in-doubt
coordinator kill points) the respawned coordinator really replayed its
decision log and re-drove the in-doubt global.

The drill's record — goodput, p99, and a measured **recovery time per
fault class** (process kill and disk fault from supervisor
exited→restarted event timestamps, network partition from
heal-to-first-commit) — is printed as prose, or as one JSON line with
``--json-report``.  The fired nemesis plan and fault log are kept in
``nemesis-faults.json`` under the data root.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
from argparse import Namespace
from typing import Dict, List, Optional

from repro.durability.segments import atomic_write
from repro.rt.nemesis import (
    NemesisControlClient,
    NemesisPlanConfig,
    execute_plan,
    generate_plan,
)
from repro.rt.node import EXIT_DISK_FAULT
from repro.rt.storm import StormClient
from repro.rt.tuning import BankConfig, RtTuning

#: ``seed % 4`` -> who dies, and where in the protocol.
KILL_MODES = (
    ("coordinator", "sn_drawn"),
    ("coordinator", "decision_logged"),
    ("coordinator", "mid_broadcast"),
    ("agent", "prepared"),
)


class ChaosRtDrill:
    """One seeded end-to-end chaos run against a real cluster."""

    def __init__(self, args) -> None:
        self.args = args
        self.seed = args.seed
        self.kill_role, self.kill_at = KILL_MODES[self.seed % 4]
        self.bank = BankConfig()
        sites = list(self.bank.sites)
        if self.kill_role == "agent":
            # distinct victims: the kill hits one site, the disk
            # another, so each respawn attributes to exactly one class.
            self.kill_agent_index = 1 + (self.seed // 4) % len(sites)
            self.fault_site = sites[
                (self.kill_agent_index) % len(sites)
            ]
        else:
            self.kill_agent_index = 0
            self.fault_site = sites[self.seed % len(sites)]
        self.failures: List[str] = []
        self.plan_fired: List[dict] = []
        self.nemesis_stats: Optional[dict] = None
        self.fault_log: List[dict] = []
        self.partition_ends: List[float] = []

    # -- the nemesis side task (runs concurrently with the traffic) -----------

    async def _nemesis_task(self, info: dict) -> None:
        control = info["nemesis"]["control"]
        client = NemesisControlClient(control["host"], control["port"])
        await client.connect()
        try:
            coordinator = f"coord-{info['coordinator']['name']}"
            agents = [f"agent-{a['site']}" for a in info["agents"]]
            plan = generate_plan(
                NemesisPlanConfig(
                    seed=self.seed, duration=self.args.plan_duration
                ),
                coordinator,
                agents,
            )
            loop = asyncio.get_running_loop()

            def on_event(at: float, op: dict, ack: dict) -> None:
                now = loop.time()
                self.plan_fired.append({"at": at, "op": op, "ack": ack})
                if not ack.get("ok"):
                    self.failures.append(f"nemesis op rejected: {op} -> {ack}")
                elif op["op"] == "partition":
                    self.partition_ends.append(now + float(op["duration"]))

            await execute_plan(client, plan, on_event)
            # let the longest still-ticking fault expire, then heal
            # explicitly — verification must run against a clean fabric.
            tail = max(
                (
                    float(item["op"].get("duration", 0.0))
                    for item in self.plan_fired
                ),
                default=0.0,
            )
            await asyncio.sleep(tail + 0.2)
            await client.request({"op": "heal"})
            stats = await client.request({"op": "stats", "log": True})
            self.nemesis_stats = stats.get("stats")
            self.fault_log = stats.get("fault_log", [])
        finally:
            await client.close()

    # -- recovery-time extraction from supervisor events ----------------------

    @staticmethod
    def _recovery_from_events(
        events: List[dict], role: str, name: str, returncode: int
    ) -> Optional[float]:
        """Seconds from the matching ``exited`` to the next ``restarted``."""
        exited_at = None
        for event in events:
            kind = event.get("event")
            if (
                exited_at is None
                and kind == "exited"
                and event.get("role") == role
                and event.get("name") == name
                and event.get("returncode") == returncode
            ):
                exited_at = event["t"]
            elif (
                exited_at is not None
                and kind == "restarted"
                and event.get("role") == role
                and event.get("name") == name
            ):
                return round(event["t"] - exited_at, 4)
        return None

    def _partition_recovery(self, outcomes: Dict[int, dict]) -> Optional[float]:
        """Heal-to-first-commit over the earliest partition window."""
        if not self.partition_ends:
            return None
        heal = min(self.partition_ends)
        after = [
            out["t_done"]
            for out in outcomes.values()
            if out.get("committed") and out.get("t_done", 0.0) >= heal
        ]
        if not after:
            return None
        return round(min(after) - heal, 4)

    # -- the run --------------------------------------------------------------

    def _storm_args(self) -> Namespace:
        args = self.args
        return Namespace(
            data_root=args.data_root,
            launch=True,
            txns=args.txns,
            seed=self.seed,
            remote_fraction=args.remote_fraction,
            inflight=args.inflight,
            kill_agent=self.kill_agent_index,
            kill_coordinator=self.kill_role == "coordinator",
            at=self.kill_at,
            kill_after=3 if self.kill_role == "coordinator" else 2,
            txn_timeout=args.txn_timeout,
            timeout=args.timeout,
            settle=args.settle,
            json_report=False,
            quit_cluster=False,
        )

    def _tuning(self) -> RtTuning:
        return RtTuning(
            disk_faults={
                self.fault_site: {"seed": self.seed, "fail_fsync_at": 2}
            }
        )

    async def run(self) -> int:
        args = self.args
        client = StormClient(self._storm_args())
        client.extra_cluster_args = [
            "--nemesis",
            "--tuning-json",
            json.dumps(self._tuning().to_dict(), sort_keys=True),
        ]
        client.side_task_factory = self._nemesis_task
        print(
            f"chaos-rt seed {self.seed}: kill {self.kill_role} at "
            f"{self.kill_at}"
            + (
                f" (agent #{self.kill_agent_index})"
                if self.kill_role == "agent"
                else ""
            )
            + f", fsync fault on {self.fault_site}",
            flush=True,
        )
        try:
            await client.run()
        except Exception as exc:
            self.failures.append(f"storm run crashed: {exc}")
            with contextlib.suppress(Exception):
                await client._stop_cluster()
        self.failures.extend(client.failures)
        report = client.report or {}
        events = client.cluster_events

        # -- drill assertions over and above the storm battery ----------------
        if not any(
            item["op"]["op"] == "partition" for item in self.plan_fired
        ):
            self.failures.append("no partition was ever applied")
        marker = os.path.join(
            args.data_root, f"agent-{self.fault_site}", "disk-fault-fired"
        )
        if not os.path.exists(marker):
            self.failures.append(
                f"injected fsync fault on {self.fault_site} never fired "
                f"(no marker at {marker})"
            )
        disk_recovery = self._recovery_from_events(
            events, "agent", self.fault_site, EXIT_DISK_FAULT
        )
        if disk_recovery is None:
            self.failures.append(
                f"no exited(rc={EXIT_DISK_FAULT})->restarted pair for "
                f"disk-faulted agent {self.fault_site}"
            )
        if self.kill_role == "coordinator":
            victim_role, victim_name = (
                "coordinator",
                report.get("kill", {}).get("coordinator") or "c1",
            )
        else:
            victim_role = "agent"
            victim_name = self.bank.sites[self.kill_agent_index - 1]
        kill_recovery = self._recovery_from_events(
            events, victim_role, victim_name, -9
        )
        if kill_recovery is None:
            self.failures.append(
                f"no exited(rc=-9)->restarted pair for killed "
                f"{victim_role} {victim_name}"
            )
        if self.kill_role == "coordinator" and self.kill_at in (
            "decision_logged",
            "mid_broadcast",
        ):
            coord_stats = report.get("coordinator")
            if coord_stats and coord_stats.get("resumed_at_boot", 0) < 1:
                self.failures.append(
                    f"respawned coordinator resumed no in-doubt globals "
                    f"after a {self.kill_at} kill"
                )
        partition_recovery = self._partition_recovery(client.outcomes)

        # -- evidence + record ------------------------------------------------
        self._persist_fault_log(args.data_root)
        entry = {
            "seed": self.seed,
            "kill": {"role": self.kill_role, "at": self.kill_at},
            "fault_site": self.fault_site,
            "txns": report.get("txns"),
            "committed_journal": report.get("invariants", {}).get(
                "journal_committed"
            ),
            "goodput_committed_per_s": report.get(
                "throughput_committed_per_s"
            ),
            "latency_p99_s": report.get("latency_p99_s"),
            "recovery_s": {
                "kill": kill_recovery,
                "disk_fault": disk_recovery,
                "partition": partition_recovery,
            },
            "nemesis": {
                "faults_applied": (self.nemesis_stats or {}).get(
                    "faults_applied"
                ),
                "bytes_dropped": (self.nemesis_stats or {}).get(
                    "bytes_dropped"
                ),
                "conns_reset": (self.nemesis_stats or {}).get("conns_reset"),
            },
            "violations": report.get("invariants", {}).get(
                "atomic_commitment_violations"
            ),
            "ok": not self.failures,
        }
        self._print_report(entry)
        return 1 if self.failures else 0

    def _persist_fault_log(self, data_root: str) -> None:
        path = os.path.join(data_root, "nemesis-faults.json")
        with contextlib.suppress(OSError):
            with atomic_write(path, "w") as fh:
                json.dump(
                    {
                        "seed": self.seed,
                        "fired": self.plan_fired,
                        "fault_log": self.fault_log,
                        "stats": self.nemesis_stats,
                    },
                    fh,
                    indent=2,
                    sort_keys=True,
                    default=str,
                )
                fh.write("\n")

    def _print_report(self, entry: dict) -> None:
        if self.args.json_report:
            print(
                json.dumps(
                    {"entry": entry, "failures": self.failures},
                    sort_keys=True,
                    default=str,
                ),
                flush=True,
            )
            return
        recovery = entry["recovery_s"]
        print(
            f"chaos-rt[seed {self.seed}]: "
            f"{entry['committed_journal']} journal-committed of "
            f"{entry['txns']} at {entry['goodput_committed_per_s']} "
            f"commits/s (p99 {entry['latency_p99_s']}s)",
            flush=True,
        )
        print(
            f"chaos-rt: recovery kill={recovery['kill']}s "
            f"disk_fault={recovery['disk_fault']}s "
            f"partition={recovery['partition']}s; "
            f"nemesis applied {entry['nemesis']['faults_applied']} faults, "
            f"dropped {entry['nemesis']['bytes_dropped']} bytes",
            flush=True,
        )
        for failure in self.failures:
            print(f"chaos-rt: FAIL {failure}", flush=True)
        if not self.failures:
            print("chaos-rt: all invariants hold", flush=True)


def run_chaos(args) -> int:
    async def _main() -> int:
        return await ChaosRtDrill(args).run()

    return asyncio.run(_main())
