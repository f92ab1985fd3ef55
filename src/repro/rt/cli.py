"""``serve`` / ``storm`` subcommands for ``python -m repro``.

``serve agent|coordinator`` run one protocol process over asyncio TCP;
``serve cluster`` launches and supervises M coordinators + N agents;
``storm`` drives the live cluster with the debit-credit workload (and
optionally a SIGKILL at an exact protocol point) and verifies the
invariant battery afterwards. See docs/DEPLOY.md.
"""

from __future__ import annotations

import argparse

from repro.rt.tuning import BankConfig

_DEFAULT_BANK = BankConfig()


def _add_common_node_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help="host:port to bind (port 0 = ephemeral, default)",
    )
    parser.add_argument(
        "--data-root",
        default="rt-data",
        help="directory for WAL segments + history journals",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the readiness status as one JSON line on stdout",
    )
    parser.add_argument(
        "--tuning-json",
        default=None,
        help="RtTuning overrides as a JSON object (cluster launcher use)",
    )


def _add_bank_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bank-sites",
        default=",".join(_DEFAULT_BANK.sites),
        help="comma-separated branch sites (all processes must agree)",
    )
    parser.add_argument(
        "--accounts", type=int, default=_DEFAULT_BANK.accounts_per_branch
    )
    parser.add_argument(
        "--tellers", type=int, default=_DEFAULT_BANK.tellers_per_branch
    )
    parser.add_argument(
        "--balance", type=int, default=_DEFAULT_BANK.initial_account_balance
    )


def add_rt_parsers(subparsers) -> None:
    serve = subparsers.add_parser(
        "serve",
        help="run protocol processes over real TCP (agent/coordinator/cluster)",
    )
    roles = serve.add_subparsers(dest="role", required=True)

    agent = roles.add_parser("agent", help="serve one 2PC Agent site")
    agent.add_argument("--site", required=True, help="branch site name")
    _add_common_node_args(agent)
    _add_bank_args(agent)
    agent.set_defaults(run=_run_agent)

    coordinator = roles.add_parser(
        "coordinator", help="serve one Coordinating Site"
    )
    coordinator.add_argument("--name", default="c1")
    _add_common_node_args(coordinator)
    coordinator.set_defaults(run=_run_coordinator)

    cluster = roles.add_parser(
        "cluster", help="launch + supervise coordinators + N agents"
    )
    cluster.add_argument(
        "--name", default="c1", help="coordinator name (one coordinator)"
    )
    cluster.add_argument(
        "--coordinators",
        type=int,
        default=1,
        metavar="M",
        help="spawn M coordinators c1..cM, each drawing SNs from its "
        "own site clock (default 1, named --name)",
    )
    cluster.add_argument(
        "--nemesis",
        action="store_true",
        help="route all peer links through a fault-injection proxy "
        "(control socket advertised in cluster.json)",
    )
    cluster.add_argument(
        "--max-restarts",
        type=int,
        default=10,
        help="crash-loop guard: give up on a child after this many respawns",
    )
    _add_common_node_args(cluster)
    _add_bank_args(cluster)
    cluster.set_defaults(run=_run_cluster)

    storm = subparsers.add_parser(
        "storm", help="drive a live cluster: debit-credit + kill/recover"
    )
    storm.add_argument(
        "--data-root",
        default="rt-data",
        help="cluster data root (holds cluster.json, WALs, journals)",
    )
    storm.add_argument(
        "--launch",
        action="store_true",
        help="launch the cluster as a subprocess for the run",
    )
    storm.add_argument("--txns", type=int, default=40)
    storm.add_argument("--seed", type=int, default=0)
    storm.add_argument("--remote-fraction", type=float, default=0.3)
    storm.add_argument(
        "--inflight", type=int, default=8, help="submission window size"
    )
    storm.add_argument(
        "--kill-agent",
        type=int,
        default=0,
        metavar="N",
        help="SIGKILL the N-th agent (1-based) mid-run",
    )
    storm.add_argument(
        "--kill-coordinator",
        action="store_true",
        help="SIGKILL the coordinator mid-run (--at sn_drawn, "
        "decision_logged, or mid_broadcast)",
    )
    storm.add_argument(
        "--at",
        default="prepared",
        help="protocol point for the kill (agents: prepared, ready, "
        "committed, or any CRASH_POINT; coordinator: sn_drawn, "
        "decision_logged, mid_broadcast)",
    )
    storm.add_argument(
        "--kill-after",
        type=int,
        default=2,
        help="kill on the k-th hit of the crash point",
    )
    storm.add_argument("--txn-timeout", type=float, default=30.0)
    storm.add_argument(
        "--timeout", type=float, default=120.0, help="overall run deadline"
    )
    storm.add_argument(
        "--settle",
        type=float,
        default=2.0,
        help="post-run drain before verification (seconds)",
    )
    storm.add_argument(
        "--json-report",
        action="store_true",
        help="print the full report as JSON instead of prose",
    )
    storm.add_argument(
        "--quit-cluster",
        action="store_true",
        help="send quit to all processes after the run (attached mode)",
    )
    storm.add_argument(
        "--coordinators",
        type=int,
        default=1,
        metavar="M",
        help="with --launch: start M coordinators c1..cM; submissions "
        "go round-robin by transaction number (default 1)",
    )
    storm.set_defaults(run=_run_storm)

    chaos = subparsers.add_parser(
        "chaos-rt",
        help="composed drill: storm traffic x nemesis faults x process "
        "kills x disk faults -> heal -> invariant battery",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="drives the fault plan, the workload, AND the kill mode "
        "(seed %% 4: coord@sn_drawn, coord@decision_logged, "
        "coord@mid_broadcast, agent@prepared)",
    )
    chaos.add_argument("--txns", type=int, default=60)
    chaos.add_argument("--data-root", default="chaos-rt-data")
    chaos.add_argument("--remote-fraction", type=float, default=0.4)
    chaos.add_argument("--inflight", type=int, default=8)
    chaos.add_argument(
        "--plan-duration",
        type=float,
        default=10.0,
        help="nemesis plan horizon (every fault starts inside it)",
    )
    chaos.add_argument("--txn-timeout", type=float, default=20.0)
    chaos.add_argument(
        "--timeout", type=float, default=150.0, help="overall run deadline"
    )
    chaos.add_argument(
        "--settle",
        type=float,
        default=8.0,
        help="post-heal drain before verification (covers lock-timeout "
        "aborts of orphaned subtransactions)",
    )
    chaos.add_argument(
        "--json-report",
        action="store_true",
        help="print the drill record as one JSON line instead of prose",
    )
    chaos.set_defaults(run=_run_chaos)


def _run_agent(args) -> int:
    from repro.rt.node import run_serve_agent

    return run_serve_agent(args)


def _run_coordinator(args) -> int:
    from repro.rt.node import run_serve_coordinator

    return run_serve_coordinator(args)


def _run_cluster(args) -> int:
    from repro.rt.cluster import run_serve_cluster

    return run_serve_cluster(args)


def _run_storm(args) -> int:
    from repro.rt.storm import run_storm

    return run_storm(args)


def _run_chaos(args) -> int:
    from repro.rt.chaos import run_chaos

    return run_chaos(args)
