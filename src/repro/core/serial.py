"""Serial-number generation (paper Sec. 5.2) and the site clock model.

The commit certification needs a globally unique serial number ``SN(k)``
per global transaction, assigned by its Coordinator "when the
application submits the Commit".  Requirement (2) of the paper: if
``T_x`` precedes ``T_y`` in a local serialization order, then
``SN(x) < SN(y)``.  With SNs drawn at commit-submission time this holds
whenever the SN source is monotone w.r.t. real time across coordinators.

The paper recommends *real-time site clocks expanded with the unique
site identifier*, noting that clock drift "has no influence on the
correctness ... [it] may cause unnecessary aborts, only".  We model
drift explicitly so experiment E9 can sweep it:

    reading(site) = (1 + rate) * simulated_time + offset

The one alternative, a centralized counter (the paper calls such
sources "cumbersome ... in an autonomous environment"), serves the
``ticket`` baseline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict

from repro.common.errors import ConfigError
from repro.common.ids import SerialNumber
from repro.kernel.events import EventKernel


@dataclass
class SiteClock:
    """A drifting local clock: ``(1 + rate) * now + offset``."""

    site: str
    offset: float = 0.0
    rate: float = 0.0

    def read(self, kernel: EventKernel) -> float:
        return (1.0 + self.rate) * kernel.now + self.offset


class SNGenerator:
    """Interface of serial-number sources."""

    def generate(self, site: str) -> SerialNumber:  # pragma: no cover
        raise NotImplementedError

    def add_site(self, clock: SiteClock) -> None:
        """Register a coordinator site's clock; a source that reads no
        site clock (the central counter) ignores it."""

    def floor(self, high_water: SerialNumber) -> None:
        """Never again draw an SN at or below ``high_water``.  Site
        clocks are floored one by one when they are built
        (:func:`repro.core.assembly.coordinator_clock`); the central
        counter, which reads none, floors itself here."""


class RealTimeClockSN(SNGenerator):
    """The paper's recommended source: drifting site clock + site id.

    A per-site sequence number keeps SNs unique even when two commits
    fall on the same clock reading at one site; the site id breaks ties
    across sites.
    """

    def __init__(self, kernel: EventKernel, clocks: Dict[str, SiteClock]) -> None:
        self._kernel = kernel
        self._clocks = dict(clocks)
        self._seq: Dict[str, "itertools.count"] = {}

    def add_site(self, clock: SiteClock) -> None:
        self._clocks[clock.site] = clock

    def generate(self, site: str) -> SerialNumber:
        clock = self._clocks.get(site)
        if clock is None:
            raise ConfigError(f"no clock configured for site {site!r}")
        seq = self._seq.setdefault(site, itertools.count())
        return SerialNumber(clock=clock.read(self._kernel), site=site, seq=next(seq))


class CentralCounterSN(SNGenerator):
    """A single global counter — trivially correct, architecturally
    centralized (what the decentralized design avoids)."""

    def __init__(self) -> None:
        self._next = 1

    def floor(self, high_water: SerialNumber) -> None:
        self._next = max(self._next, math.floor(high_water.clock) + 1)

    def generate(self, site: str) -> SerialNumber:
        ticket, self._next = self._next, self._next + 1
        return SerialNumber(clock=float(ticket), site="central", seq=0)

