"""The paper's contribution: the decentralized DTM (systems S8–S12).

* :mod:`repro.core.serial` — serial-number generation (drifting site
  clocks, central counter) and the per-site clock model;
* :mod:`repro.core.intervals` — alive time intervals and the
  intersection rule;
* :mod:`repro.core.agent_log` — the durable Agent log (commands,
  prepare and commit records) resubmission replays from;
* :mod:`repro.core.certifier` — prepare certification (basic and
  extended) and commit certification, per the paper's Appendix;
* :mod:`repro.core.agent` — the 2PC Agent: simulated prepared state,
  alive checks, subtransaction resubmission, binding of bound data;
* :mod:`repro.core.coordinator` — global transaction execution and the
  2PC coordinator;
* :mod:`repro.core.dtm` — the whole multidatabase system wired together
  (Fig. 1 of the paper), with method presets for every baseline.
"""

from repro.core.agent import AgentConfig, TwoPCAgent
from repro.core.certifier import Certifier, CertifierConfig
from repro.core.coordinator import (
    Coordinator,
    CoordinatorTimeouts,
    GlobalOutcome,
    GlobalTransactionSpec,
)
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.core.intervals import AliveInterval
from repro.core.serial import (
    CentralCounterSN,
    RealTimeClockSN,
    SiteClock,
    SNGenerator,
)

__all__ = [
    "AgentConfig",
    "AliveInterval",
    "CentralCounterSN",
    "Certifier",
    "CertifierConfig",
    "Coordinator",
    "CoordinatorTimeouts",
    "GlobalOutcome",
    "GlobalTransactionSpec",
    "MultidatabaseSystem",
    "RealTimeClockSN",
    "SNGenerator",
    "SiteClock",
    "SystemConfig",
    "TwoPCAgent",
]
