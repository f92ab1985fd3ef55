"""One assembly for every role, on both substrates.

The simulator (:mod:`repro.core.dtm`) and the real cluster
(:mod:`repro.rt.node`) build sites and coordinators here and nowhere
else.  Each role boots once routes to its peers exist (at build time in
the simulator): :meth:`TwoPCAgent.boot` replays the Agent log,
:meth:`Coordinator.resume_in_doubt` re-drives the unfinished decisions
of the replayed decision log.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Collection, Optional

from repro.common.ids import SerialNumber, SubtxnId
from repro.core.agent import TwoPCAgent
from repro.core.certifier import Certifier, CertifierConfig
from repro.core.coordinator import Coordinator
from repro.core.serial import CentralCounterSN, RealTimeClockSN, SiteClock, SNGenerator
from repro.history.model import History
from repro.kernel.events import EventKernel
from repro.ldbs.dlu import BoundDataGuard, DLUPolicy
from repro.ldbs.ltm import LTMConfig, LocalTransactionManager
from repro.net.network import Network

if TYPE_CHECKING:
    from repro.durability.config import DurabilityConfig


def build_site(
    site: str,
    kernel: EventKernel,
    transport: Network,
    history: History,
    *,
    ltm_config: LTMConfig,
    certifier_config: CertifierConfig = CertifierConfig(),
    dlu_policy: DLUPolicy = DLUPolicy.ABORT,
    dlu_wait_timeout: Optional[float] = None,
    static_denied: frozenset = frozenset(),
    durability: Optional["DurabilityConfig"] = None,
    committed: Collection[SubtxnId] = (),
    **agent_options,
) -> TwoPCAgent:
    """Guard, LTM, certifier, Agent log and a (down) 2PC Agent.

    With ``durability`` the Agent log is reopened, and each
    subtransaction it names is restored in the fresh LTM: committed if
    in ``committed`` (the LDBS's own log), otherwise died with the
    previous process.  ``agent_options`` go to :class:`TwoPCAgent`.
    """
    guard = BoundDataGuard(
        kernel, dlu_policy, dlu_wait_timeout, statically_denied_tables=static_denied
    )
    ltm = LocalTransactionManager(site, kernel, history, ltm_config, guard)
    log = None
    if durability is not None:
        # Imported here: repro.durability imports repro.core.agent_log.
        from repro.durability.agent_log import DurableAgentLog

        log = DurableAgentLog.open_site(site, durability)
        for entry in log.entries():
            subtxn = SubtxnId(entry.txn, site, entry.incarnations - 1)
            ltm.restore(subtxn, committed=subtxn in committed)
    certifier = Certifier(site, certifier_config)
    return TwoPCAgent(
        site, kernel, transport, history, ltm, certifier, guard,
        log=log, **agent_options,
    )


def build_sn_source(kernel: EventKernel, ticket: bool = False) -> SNGenerator:
    """The paper's site clocks, or the ``ticket`` baseline's counter."""
    return CentralCounterSN() if ticket else RealTimeClockSN(kernel, {})


def coordinator_clock(
    name: str,
    kernel: EventKernel,
    high_water: Optional[SerialNumber],
    wall: float,
    rate: float = 0.0,
) -> SiteClock:
    """A coordinator incarnation's clock: it reads ``wall`` now (the wall
    clock at boot on the real cluster, a configured offset in the
    simulator) and never at or below ``high_water``, the decision log's
    largest SN — a restart stays above every commit its predecessor
    sealed, even after the wall clock stepped back."""
    offset = wall - kernel.now
    if high_water is not None:
        offset = max(offset, math.nextafter(high_water.clock, math.inf))
    return SiteClock(name, offset=offset, rate=rate)


def build_coordinator(
    name: str,
    kernel: EventKernel,
    transport: Network,
    history: History,
    sn_source: SNGenerator,
    *,
    wall: float = 0.0,
    rate: float = 0.0,
    durability: Optional["DurabilityConfig"] = None,
    **options,
) -> Coordinator:
    """A coordinator drawing from ``sn_source`` on its floored clock.

    With ``durability`` its decision log is reopened (replayed) first,
    and ``sn_source`` draws strictly above its SN high-water.
    ``options`` go to :class:`Coordinator`.
    """
    decision_log = None
    if durability is not None:
        from repro.durability.decision_log import DurableDecisionLog

        decision_log = DurableDecisionLog.open_name(name, durability)
    high_water = None if decision_log is None else decision_log.sn_high_water
    if high_water is not None:
        sn_source.floor(high_water)
    sn_source.add_site(coordinator_clock(name, kernel, high_water, wall, rate))
    return Coordinator(
        name, name, kernel, transport, history, sn_source,
        decision_log=decision_log, **options,
    )
