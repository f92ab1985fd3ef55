"""repro — a reproduction of Veijalainen & Wolski, "Prepare and Commit
Certification for Decentralized Transaction Management in Rigorous
Heterogeneous Multidatabases" (ICDE 1992).

The package implements the paper's fully decentralized Distributed
Transaction Manager — the **2PC Agent Certifier method** — together
with every substrate it needs (rigorous local database systems, a 2PC
network, drifting site clocks), the baselines it is compared against
(the Commit Graph Method, naive resubmission, predefined total order),
and the correctness machinery its guarantees are stated in (committed
projections, serialization and commit-order graphs, an exact view-
serializability checker, distortion detectors).

Quick start::

    from repro import (
        GlobalTransactionSpec, MultidatabaseSystem, SystemConfig,
        ReadItem, UpdateItem, AddValue, global_txn, audit,
    )

    system = MultidatabaseSystem(SystemConfig(sites=("a", "b")))
    system.load("a", "acct", {"X": 100})
    system.load("b", "acct", {"Z": 10})
    done = system.submit(GlobalTransactionSpec(
        txn=global_txn(1),
        steps=(
            ("a", UpdateItem("acct", "X", AddValue(-5))),
            ("b", UpdateItem("acct", "Z", AddValue(5))),
        ),
    ))
    system.run()
    assert done.value.committed
    assert audit(system).ok

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced artifact.
"""

from repro.common.errors import (
    CertificationRefused,
    ConfigError,
    DLUViolation,
    LockTimeout,
    RefusalReason,
    ReproError,
    TransactionAborted,
)
from repro.common.ids import (
    DataItemId,
    SerialNumber,
    SubtxnId,
    TxnId,
    global_txn,
    local_txn,
)
from repro.core.agent import AgentConfig, TwoPCAgent
from repro.core.certifier import Certifier, CertifierConfig
from repro.core.coordinator import (
    AbortRequested,
    Coordinator,
    GlobalOutcome,
    GlobalTransactionSpec,
)
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.core.intervals import AliveInterval
from repro.core.serial import CentralCounterSN, RealTimeClockSN, SiteClock
from repro.history.committed import committed_projection
from repro.history.distortion import find_distortions
from repro.history.graphs import commit_order_graph, serialization_graph
from repro.history.model import History, OpKind, Operation
from repro.history.rigor import check_rigorous
from repro.history.viewser import check_view_serializable
from repro.ldbs.commands import (
    AddValue,
    DeleteItem,
    DeleteWhere,
    InsertItem,
    KeyIn,
    ReadItem,
    ScanTable,
    SelectWhere,
    SetValue,
    TrueP,
    UpdateItem,
    UpdateWhere,
    ValueEq,
    ValueGt,
    ValueLt,
)
from repro.ldbs.dlu import DLUPolicy
from repro.ldbs.sql import SqlError, parse_script, parse_sql
from repro.ldbs.ltm import LTMConfig
from repro.net.network import LatencyModel
from repro.sim.driver import SimulationResult, run_schedule
from repro.sim.failures import RandomFailureInjector
from repro.sim.metrics import audit, collect_metrics
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.scenarios import run_h1, run_h2, run_h3, run_hx

__version__ = "1.0.0"

__all__ = [
    "AbortRequested",
    "AddValue",
    "AgentConfig",
    "AliveInterval",
    "CentralCounterSN",
    "CertificationRefused",
    "Certifier",
    "CertifierConfig",
    "ConfigError",
    "Coordinator",
    "DLUPolicy",
    "DLUViolation",
    "DataItemId",
    "DeleteItem",
    "DeleteWhere",
    "GlobalOutcome",
    "GlobalTransactionSpec",
    "History",
    "InsertItem",
    "KeyIn",
    "LTMConfig",
    "LatencyModel",
    "LockTimeout",
    "MultidatabaseSystem",
    "OpKind",
    "Operation",
    "RandomFailureInjector",
    "ReadItem",
    "RealTimeClockSN",
    "RefusalReason",
    "ReproError",
    "ScanTable",
    "SelectWhere",
    "SerialNumber",
    "SetValue",
    "SimulationResult",
    "SiteClock",
    "SubtxnId",
    "SystemConfig",
    "TransactionAborted",
    "TrueP",
    "TwoPCAgent",
    "TxnId",
    "UpdateItem",
    "UpdateWhere",
    "ValueEq",
    "ValueGt",
    "ValueLt",
    "WorkloadConfig",
    "WorkloadGenerator",
    "audit",
    "check_rigorous",
    "check_view_serializable",
    "collect_metrics",
    "commit_order_graph",
    "committed_projection",
    "find_distortions",
    "SqlError",
    "global_txn",
    "local_txn",
    "parse_script",
    "parse_sql",
    "run_h1",
    "run_h2",
    "run_h3",
    "run_hx",
    "run_schedule",
    "serialization_graph",
]
