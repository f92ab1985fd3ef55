"""Unit tests for serial-number generation (repro.core.serial)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.ids import SerialNumber
from repro.core.serial import (
    CentralCounterSN,
    RealTimeClockSN,
    SiteClock,
)
from repro.kernel import EventKernel


class TestSiteClock:
    def test_reads_simulated_time(self):
        kernel = EventKernel()
        clock = SiteClock("c1")
        kernel.schedule(10.0, lambda: None)
        kernel.run()
        assert clock.read(kernel) == 10.0

    def test_offset_shifts_reading(self):
        kernel = EventKernel()
        assert SiteClock("c1", offset=-3.0).read(kernel) == -3.0

    def test_rate_skews_reading(self):
        kernel = EventKernel()
        kernel.schedule(100.0, lambda: None)
        kernel.run()
        assert SiteClock("c1", rate=0.1).read(kernel) == pytest.approx(110.0)


class TestRealTimeClockSN:
    def make(self, offsets=None):
        kernel = EventKernel()
        offsets = offsets or {}
        clocks = {
            site: SiteClock(site, offset=offsets.get(site, 0.0))
            for site in ("c1", "c2")
        }
        return kernel, RealTimeClockSN(kernel, clocks)

    def test_sn_carries_clock_site_seq(self):
        kernel, gen = self.make()
        sn = gen.generate("c1")
        assert sn == SerialNumber(0.0, "c1", 0)

    def test_same_instant_same_site_unique_by_seq(self):
        _kernel, gen = self.make()
        first = gen.generate("c1")
        second = gen.generate("c1")
        assert first < second

    def test_same_instant_distinct_sites_ordered_by_site(self):
        _kernel, gen = self.make()
        assert gen.generate("c1") < gen.generate("c2")

    def test_drift_reorders_but_stays_unique(self):
        kernel, gen = self.make(offsets={"c1": +50.0})
        early_sn_from_drifted = gen.generate("c1")
        kernel.schedule(10.0, lambda: None)
        kernel.run()
        later_sn = gen.generate("c2")
        # c1's clock runs 50 ahead: its earlier commit gets a BIGGER sn.
        assert later_sn < early_sn_from_drifted

    def test_unknown_site_rejected(self):
        _kernel, gen = self.make()
        with pytest.raises(ConfigError):
            gen.generate("nope")

    def test_add_site(self):
        kernel, gen = self.make()
        gen.add_site(SiteClock("c9", offset=1.0))
        assert gen.generate("c9").clock == 1.0


class TestCentralCounterSN:
    def test_strictly_increasing_across_sites(self):
        gen = CentralCounterSN()
        sns = [gen.generate(site) for site in ("c1", "c2", "c1")]
        assert sns == sorted(sns)
        assert len(set(sns)) == 3

    def test_site_field_is_central(self):
        assert CentralCounterSN().generate("c1").site == "central"

