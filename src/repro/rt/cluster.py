"""Cluster launcher/supervisor: coordinators + agents as subprocesses.

``python -m repro serve cluster`` spawns one coordinator and N agents
by default; ``--coordinators M`` spawns M coordinators c1..cM, each the
paper's coordinator with its own site-clock SNs, listed under
``coordinators`` in ``cluster.json``.  Each role is its own OS
process (``python -m repro serve coordinator|agent``) listening on an
ephemeral port (``--listen 127.0.0.1:0``), blocks on each child's JSON
readiness line (no sleep-polling, no port collisions), distributes the
full route table to every child over a control frame, writes
``cluster.json`` into the data root for clients, and then supervises:
a child that dies unexpectedly — say, SIGKILLed mid-prepare — is
respawned *on the same port* (routes held by its peers stay valid) and
WAL/journal recovery happens automatically in the new process, because
recovery is driven purely by what the data root contains.

Stdout protocol (``--json``): one ``{"event": "ready", "role":
"cluster", ...}`` line once the cluster is serving, then one
``exited`` + ``restarted`` line pair per supervised respawn (plus
``respawn-failed`` / ``gave-up`` when the crash-loop guard trips). The
storm client's ``--launch`` mode consumes these.

``--nemesis`` inserts a :class:`~repro.rt.nemesis.NemesisProxy` relay
between every ordered peer pair: the route table each child receives
points at the relays, so every protocol byte between cluster processes
is fault-injectable live over the nemesis control socket (advertised
in ``cluster.json`` under ``"nemesis"``). Supervisor↔child control
frames stay direct — supervision survives partitions.

Crash-loop guard: a child that keeps dying right after becoming ready
is respawned with exponential backoff, and after ``max_restarts``
respawns the supervisor gives up on it (``gave-up`` event, recorded in
``cluster.json``) instead of burning CPU forever.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import sys
import time
from collections import deque
from typing import List, Optional

from repro.durability.segments import atomic_write
from repro.rt.codec import FRAME_CONTROL, encode_frame
from repro.rt.nemesis import NemesisProxy, link_key
from repro.rt.node import (
    agent_address,
    agent_control,
    coordinator_address,
    coordinator_control,
)
from repro.rt.tuning import BankConfig, RtTuning

READY_TIMEOUT = 30.0
STOP_TIMEOUT = 5.0
#: A child that died sooner than this after becoming ready is "hot
#: failing": its next respawn is delayed with exponential backoff.
MIN_UPTIME = 2.0
BACKOFF_BASE = 0.5
BACKOFF_MAX = 10.0


async def send_control_frame(host: str, port: int, body: dict) -> None:
    """One-shot control frame over a raw TCP connection."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_frame(FRAME_CONTROL, dict(body)))
        await writer.drain()
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


class _Child:
    """One supervised subprocess and its last known coordinates."""

    def __init__(self, role: str, name: str) -> None:
        self.role = role  # "coordinator" | "agent"
        self.name = name  # coordinator name or site
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.host: Optional[str] = None
        self.port: int = 0
        self.pid: int = 0
        self.drain_task: Optional[asyncio.Task] = None
        self.stderr_task: Optional[asyncio.Task] = None
        #: Last stderr lines, kept for readiness/give-up diagnostics.
        self.stderr_tail: deque = deque(maxlen=40)
        self.restarts = 0
        self.backoff = 0.0
        self.started_at = 0.0
        self.gave_up = False

    def stderr_excerpt(self) -> str:
        return "".join(self.stderr_tail)[-2000:]

    @property
    def process_name(self) -> str:
        prefix = "coord" if self.role == "coordinator" else "agent"
        return f"{prefix}-{self.name}"

    @property
    def control_address(self) -> str:
        if self.role == "coordinator":
            return coordinator_control(self.name)
        return agent_control(self.name)

    @property
    def addresses(self) -> List[str]:
        if self.role == "coordinator":
            return [coordinator_address(self.name), self.control_address]
        return [agent_address(self.name), self.control_address]


class ClusterSupervisor:
    """Spawn, introduce, and keep alive M coordinators + N agents.

    Every name in ``coordinators`` (default: just ``coordinator``)
    becomes its own coordinator process; any of them may run any global
    transaction, and the per-site certifiers alone keep the commit
    order consistent.
    """

    def __init__(
        self,
        data_root: str,
        *,
        coordinator: str = "c1",
        coordinators: Optional[List[str]] = None,
        bank: Optional[BankConfig] = None,
        tuning: Optional[RtTuning] = None,
        json_mode: bool = False,
        nemesis: bool = False,
        max_restarts: int = 10,
    ) -> None:
        self.data_root = data_root
        self.bank = bank if bank is not None else BankConfig()
        self.tuning = tuning if tuning is not None else RtTuning()
        self.json_mode = json_mode
        self.coordinator_names = list(coordinators) if coordinators else [coordinator]
        self.children: List[_Child] = [
            _Child("coordinator", name) for name in self.coordinator_names
        ]
        self.children.extend(_Child("agent", site) for site in self.bank.sites)
        self.stop = asyncio.Event()
        self.shutting_down = False
        self.restarts = 0
        self.max_restarts = max_restarts
        self.nemesis: Optional[NemesisProxy] = NemesisProxy() if nemesis else None
        self._supervisors: List[asyncio.Task] = []

    # -- reporting ------------------------------------------------------------

    def _emit(self, event: dict) -> None:
        if self.json_mode:
            print(json.dumps(event, sort_keys=True), flush=True)
        else:
            detail = ", ".join(
                f"{k}={v}" for k, v in event.items() if k != "event"
            )
            print(f"[cluster] {event['event']}: {detail}", flush=True)

    # -- child lifecycle ------------------------------------------------------

    def _child_argv(self, child: _Child, port: int) -> List[str]:
        argv = [sys.executable, "-m", "repro", "serve"]
        if child.role == "agent":
            argv += [
                "agent",
                "--site",
                child.name,
                "--bank-sites",
                ",".join(self.bank.sites),
                "--accounts",
                str(self.bank.accounts_per_branch),
                "--tellers",
                str(self.bank.tellers_per_branch),
                "--balance",
                str(self.bank.initial_account_balance),
            ]
        else:
            argv += ["coordinator", "--name", child.name]
        argv += [
            "--data-root",
            self.data_root,
            "--listen",
            f"127.0.0.1:{port}",
            "--json",
            "--tuning-json",
            json.dumps(self.tuning.to_dict(), sort_keys=True),
        ]
        return argv

    async def _start_child(self, child: _Child, port: int = 0) -> dict:
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        child.stderr_tail.clear()
        child.started_at = time.monotonic()
        child.proc = await asyncio.create_subprocess_exec(
            *self._child_argv(child, port),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            env=env,
        )
        child.stderr_task = asyncio.ensure_future(self._drain_stderr(child))
        try:
            line = await asyncio.wait_for(
                child.proc.stdout.readline(), READY_TIMEOUT
            )
        except asyncio.TimeoutError:
            await self._reap(child)
            raise RuntimeError(
                f"{child.process_name} never became ready within "
                f"{READY_TIMEOUT}s{self._stderr_suffix(child)}"
            )
        if not line:
            # Dead before the readiness line: reap it and say *why*
            # (its stderr), instead of leaving a zombie and a mystery.
            await self._reap(child)
            raise RuntimeError(
                f"{child.process_name} exited before its ready line "
                f"(rc={child.proc.returncode}){self._stderr_suffix(child)}"
            )
        try:
            status = json.loads(line)
        except ValueError:
            await self._reap(child)
            raise RuntimeError(
                f"{child.process_name} printed a non-JSON ready line "
                f"{line!r}{self._stderr_suffix(child)}"
            )
        child.host = status["host"]
        child.port = int(status["port"])
        child.pid = int(status["pid"])
        child.drain_task = asyncio.ensure_future(self._drain_stdout(child))
        return status

    async def _reap(self, child: _Child) -> None:
        """Kill + wait a half-started child and collect its stderr."""
        if child.proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                child.proc.kill()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(child.proc.wait(), STOP_TIMEOUT)
        if child.stderr_task is not None:
            with contextlib.suppress(asyncio.TimeoutError, Exception):
                await asyncio.wait_for(child.stderr_task, 1.0)

    def _stderr_suffix(self, child: _Child) -> str:
        excerpt = child.stderr_excerpt().strip()
        return f"; stderr: {excerpt}" if excerpt else ""

    async def _drain_stdout(self, child: _Child) -> None:
        # children stay quiet after their ready line, but anything they
        # do print must not fill the pipe and block them.
        proc = child.proc
        with contextlib.suppress(Exception):
            while True:
                line = await proc.stdout.readline()
                if not line:
                    return
                print(
                    f"[{child.process_name}] {line.decode().rstrip()}",
                    file=sys.stderr,
                    flush=True,
                )

    async def _drain_stderr(self, child: _Child) -> None:
        proc = child.proc
        with contextlib.suppress(Exception):
            while True:
                line = await proc.stderr.readline()
                if not line:
                    return
                child.stderr_tail.append(line.decode(errors="replace"))
                print(
                    f"[{child.process_name}!] {line.decode(errors='replace').rstrip()}",
                    file=sys.stderr,
                    flush=True,
                )

    def _cancel_drains(self, child: _Child) -> None:
        for task in (child.drain_task, child.stderr_task):
            if task is not None:
                task.cancel()

    def _peers_for(self, viewer: _Child) -> List[dict]:
        """The route table ``viewer`` receives.

        Under the nemesis every *other* peer's coordinates are the
        viewer→peer relay, so each ordered pair crosses its own
        fault-injectable hop (a partition of (a, b) blocks both
        directions without touching anyone else's links).
        """
        peers = []
        for child in self.children:
            host, port = child.host, child.port
            if self.nemesis is not None and child is not viewer:
                link = self.nemesis.links.get(
                    link_key(viewer.process_name, child.process_name)
                )
                if link is not None and link.listen is not None:
                    host, port = link.listen
            peers.append(
                {
                    "name": child.process_name,
                    "host": host,
                    "port": port,
                    "addresses": child.addresses,
                }
            )
        return peers

    async def _send_routes(self, child: _Child) -> None:
        await send_control_frame(
            child.host,
            child.port,
            {
                "dst": child.control_address,
                "op": "routes",
                "peers": self._peers_for(child),
            },
        )

    def _write_cluster_json(self) -> str:
        def entry(child: _Child) -> dict:
            return {
                "name": child.name,
                "host": child.host,
                "port": child.port,
                "pid": child.pid,
                "restarts": child.restarts,
                "gave_up": child.gave_up,
            }

        coordinators = [c for c in self.children if c.role == "coordinator"]
        agents = [c for c in self.children if c.role == "agent"]
        info = {
            # Singular "coordinator" (the first one) stays for single-
            # coordinator clients; "coordinators" is the full route table.
            "coordinator": entry(coordinators[0]),
            "coordinators": [entry(c) for c in coordinators],
            "agents": [
                {
                    "site": child.name,
                    "host": child.host,
                    "port": child.port,
                    "pid": child.pid,
                    "restarts": child.restarts,
                    "gave_up": child.gave_up,
                }
                for child in agents
            ],
            "bank": self.bank.to_dict(),
            "tuning": self.tuning.to_dict(),
            "data_root": self.data_root,
            "max_restarts": self.max_restarts,
        }
        if self.nemesis is not None:
            info["nemesis"] = self.nemesis.describe()
        path = os.path.join(self.data_root, "cluster.json")
        # Clients poll this file while the supervisor rewrites it.
        with atomic_write(path, "w") as fh:
            json.dump(info, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    # -- supervision ----------------------------------------------------------

    async def _supervise(self, child: _Child) -> None:
        while not self.shutting_down:
            returncode = await child.proc.wait()
            self._cancel_drains(child)
            if self.shutting_down:
                return
            uptime = time.monotonic() - child.started_at
            self._emit(
                {
                    "event": "exited",
                    "role": child.role,
                    "name": child.name,
                    "returncode": returncode,
                    "uptime_s": round(uptime, 3),
                }
            )
            # Crash-loop guard: a bounded respawn budget, and
            # exponential backoff between attempts while the child
            # keeps dying young (a genuinely broken child otherwise
            # hot-loops the supervisor).
            if child.restarts >= self.max_restarts:
                child.gave_up = True
                self._emit(
                    {
                        "event": "gave-up",
                        "role": child.role,
                        "name": child.name,
                        "restarts": child.restarts,
                        "stderr": child.stderr_excerpt().strip(),
                    }
                )
                self._write_cluster_json()
                return
            if uptime < MIN_UPTIME:
                child.backoff = min(
                    max(child.backoff * 2.0, BACKOFF_BASE), BACKOFF_MAX
                )
                await asyncio.sleep(child.backoff)
            else:
                child.backoff = 0.0
            # Respawn on the SAME port: every peer's routes to this
            # child stay valid, and the new process recovers from the
            # WAL + journal it finds in the data root.
            child.restarts += 1
            try:
                await self._start_child(child, port=child.port)
            except Exception as exc:
                # The respawn itself failed (died before readiness).
                # Loop: proc.wait() returns at once, backoff grows,
                # and the budget above still bounds the retries.
                self._emit(
                    {
                        "event": "respawn-failed",
                        "role": child.role,
                        "name": child.name,
                        "restarts": child.restarts,
                        "error": str(exc),
                    }
                )
                continue
            try:
                await self._send_routes(child)
            except OSError as exc:
                # Died between readiness and the route push: the next
                # proc.wait() wakes immediately and we respawn again.
                self._emit(
                    {
                        "event": "respawn-failed",
                        "role": child.role,
                        "name": child.name,
                        "restarts": child.restarts,
                        "error": f"route push failed: {exc}",
                    }
                )
                continue
            self._write_cluster_json()
            self.restarts += 1
            self._emit(
                {
                    "event": "restarted",
                    "role": child.role,
                    "name": child.name,
                    "pid": child.pid,
                    "port": child.port,
                    "restarts": child.restarts,
                }
            )

    # -- entrypoint -----------------------------------------------------------

    async def run(self) -> int:
        os.makedirs(self.data_root, exist_ok=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, self.stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        try:
            for child in self.children:
                await self._start_child(child)
            if self.nemesis is not None:
                # One relay per ordered pair, built after the children so
                # the upstreams are the real (stable, respawn-surviving)
                # child ports.
                await self.nemesis.start_control()
                for viewer in self.children:
                    for peer in self.children:
                        if viewer is peer:
                            continue
                        await self.nemesis.add_link(
                            viewer.process_name,
                            peer.process_name,
                            peer.host,
                            peer.port,
                        )
            for child in self.children:
                await self._send_routes(child)
        except Exception:
            # A boot failure must not orphan the children that DID
            # start: tear them down before surfacing the error.
            await self._shutdown()
            raise
        path = self._write_cluster_json()
        ready = {
            "event": "ready",
            "role": "cluster",
            "cluster_json": path,
            "coordinator": f"{self.children[0].host}:{self.children[0].port}",
            "coordinators": {
                child.name: f"{child.host}:{child.port}"
                for child in self.children
                if child.role == "coordinator"
            },
            "agents": {
                child.name: f"{child.host}:{child.port}"
                for child in self.children
                if child.role == "agent"
            },
            "pid": os.getpid(),
        }
        if self.nemesis is not None:
            control = self.nemesis.control_bound
            ready["nemesis"] = f"{control[0]}:{control[1]}"
        self._emit(ready)
        self._supervisors = [
            asyncio.ensure_future(self._supervise(child))
            for child in self.children
        ]
        await self.stop.wait()
        return await self._shutdown()

    async def _shutdown(self) -> int:
        self.shutting_down = True
        for task in self._supervisors:
            task.cancel()
        await asyncio.gather(*self._supervisors, return_exceptions=True)
        for child in self.children:
            if child.proc is not None and child.proc.returncode is None:
                with contextlib.suppress(ProcessLookupError):
                    child.proc.terminate()
        for child in self.children:
            if child.proc is None:
                continue
            try:
                await asyncio.wait_for(child.proc.wait(), STOP_TIMEOUT)
            except asyncio.TimeoutError:
                with contextlib.suppress(ProcessLookupError):
                    child.proc.kill()
                await child.proc.wait()
            self._cancel_drains(child)
        if self.nemesis is not None:
            await self.nemesis.close()
        self._emit({"event": "stopped", "restarts": self.restarts})
        return 0


def run_serve_cluster(args) -> int:
    sites = tuple(
        s for s in (args.bank_sites or "").split(",") if s
    ) or BankConfig().sites
    bank = BankConfig(
        sites=sites,
        accounts_per_branch=args.accounts,
        tellers_per_branch=args.tellers,
        initial_account_balance=args.balance,
    )
    tuning = RtTuning()
    if getattr(args, "tuning_json", None):
        tuning = RtTuning.from_dict(json.loads(args.tuning_json))
    n_coordinators = getattr(args, "coordinators", 1)
    coordinators = (
        [f"c{i + 1}" for i in range(n_coordinators)]
        if n_coordinators > 1
        else None
    )
    supervisor = ClusterSupervisor(
        args.data_root,
        coordinator=args.name,
        coordinators=coordinators,
        bank=bank,
        tuning=tuning,
        json_mode=args.json,
        nemesis=getattr(args, "nemesis", False),
        max_restarts=getattr(args, "max_restarts", 10),
    )
    return asyncio.run(supervisor.run())
