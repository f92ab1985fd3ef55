"""Adversarial configuration search: find the anomalies automatically.

The scripted scenarios pin one corrupting interleaving each.  This
module *searches* for them: it draws random timing configurations
(per-channel latencies, submission offsets, failure injection delays)
for a small transaction template, runs each under the naive method, and
collects the configurations whose history corrupts.  Each discovered
configuration is then replayed under 2CM, which must come out clean —
an automated version of the paper's "anomaly, then fix" argument over a
whole family of races instead of a hand-picked one.

The knobs are drawn through the same choice-point machinery the
schedule explorer uses (:mod:`repro.explore.trace`): each knob is one
recorded decision over a fixed menu (:data:`MENU`), so a configuration
*is* a flat choice trace — ``config_from_chooser(TraceChooser(trace))``
rebuilds it, and a corrupting configuration can be persisted and
replayed exactly like an explorer ``.schedule``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.ids import global_txn
from repro.core.agent import AgentConfig
from repro.core.coordinator import GlobalTransactionSpec
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.explore.trace import TraceChooser, UniformChooser
from repro.history.model import OpKind
from repro.ldbs.commands import (
    AddValue,
    DeleteItem,
    InsertItem,
    ReadItem,
    UpdateItem,
)
from repro.ldbs.ltm import LTMConfig
from repro.net.network import LatencyModel
from repro.sim.failures import abort_current_incarnation
from repro.sim.metrics import audit

#: The (coordinator, site) channels whose latency the adversary sets.
CHANNELS: Tuple[Tuple[str, str], ...] = (
    ("coord:c1", "agent:a"),
    ("coord:c1", "agent:b"),
    ("coord:c2", "agent:a"),
    ("coord:c2", "agent:b"),
)

#: The decision menu of the template race, in draw order: one
#: ``(kind, options)`` entry per knob.  A configuration is one index
#: per entry — the explorer's flat choice-trace format.
MENU: Tuple[Tuple[str, Tuple[object, ...]], ...] = tuple(
    [
        (
            f"adv:latency:{src.split(':')[1]}->{dst.split(':')[1]}",
            (5.0, 15.0, 40.0, 80.0, 120.0),
        )
        for src, dst in CHANNELS
    ]
    + [
        ("adv:t2-delay", (1.0, 5.0, 15.0, 40.0)),
        ("adv:local-delay", (5.0, 20.0, 50.0, 90.0)),
        ("adv:abort-delay", (None, 1.0, 5.0, 20.0)),
    ]
)


@dataclass(frozen=True)
class AdversaryConfig:
    """One timing configuration of the template race."""

    #: Latency per (coordinator, site) channel.
    latencies: Tuple[Tuple[Tuple[str, str], float], ...]
    #: When T2 starts, relative to C_1 being decided.
    t2_delay: float
    #: When the local reader starts, relative to C_1.
    local_delay: float
    #: Unilateral-abort injection delay after C_1 (site a), or None.
    abort_delay: Optional[float]

    def describe(self) -> str:
        lat = ", ".join(f"{src.split(':')[1]}->{dst.split(':')[1]}={v:g}"
                        for (src, dst), v in self.latencies)
        abort = "none" if self.abort_delay is None else f"{self.abort_delay:g}"
        return (
            f"latencies[{lat}] t2@C1+{self.t2_delay:g} "
            f"local@C1+{self.local_delay:g} abort@C1+{abort}"
        )

    def to_trace(self) -> List[int]:
        """This configuration as a flat choice trace over :data:`MENU`."""
        values = [value for _, value in self.latencies]
        values += [self.t2_delay, self.local_delay, self.abort_delay]
        return [
            options.index(value)
            for (_, options), value in zip(MENU, values)
        ]


def config_from_chooser(chooser) -> AdversaryConfig:
    """Draw every knob through one chooser (the choice-point protocol)."""
    picks = [
        options[chooser.choose(kind, len(options), context=kind)]
        for kind, options in MENU
    ]
    n = len(CHANNELS)
    return AdversaryConfig(
        latencies=tuple(zip(CHANNELS, picks[:n])),
        t2_delay=picks[n],
        local_delay=picks[n + 1],
        abort_delay=picks[n + 2],
    )


def config_from_trace(trace: List[int]) -> AdversaryConfig:
    """Rebuild a configuration from its recorded choice trace."""
    return config_from_chooser(TraceChooser(trace))


@dataclass
class SearchResult:
    """Outcome of one adversarial search."""

    tried: int = 0
    corrupting: List[AdversaryConfig] = field(default_factory=list)
    #: Configurations that corrupted naive but ALSO corrupted 2cm
    #: (must stay empty — the headline assertion).
    defeats_2cm: List[AdversaryConfig] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return len(self.corrupting) / self.tried if self.tried else 0.0


def draw_config(rng: random.Random) -> AdversaryConfig:
    """Sample one configuration of the template race.

    A uniform draw per menu entry — exactly the distribution (and, for
    a given ``rng`` state, the exact draw sequence) the old inline
    ``rng.choice`` knob-drawing produced, but recorded as choice
    points.
    """
    return config_from_chooser(UniformChooser(rng))


def run_template(method: str, config: AdversaryConfig) -> bool:
    """Run the race template under ``config``; True = history clean.

    Template: T1 (read X, update Y at a; update Z at b) races T2
    (delete Y, update X at a; update Z at b) around an optional
    unilateral abort of T1 at site a, with a local reader of X/Y at a
    in the middle — the H1/H2 family, with every timing free.
    """
    system = MultidatabaseSystem(
        SystemConfig(
            sites=("a", "b"),
            n_coordinators=2,
            method=method,
            latency=LatencyModel(base=5.0, overrides=dict(config.latencies)),
            ltm=LTMConfig(lock_timeout=3000.0),
            agent=AgentConfig(alive_check_interval=400.0),
        )
    )
    system.load("a", "acct", {"X": 100, "Y": 50})
    system.load("b", "acct", {"Z": 10})

    t1 = GlobalTransactionSpec(
        txn=global_txn(1),
        steps=(
            ("a", ReadItem("acct", "X")),
            ("a", UpdateItem("acct", "Y", AddValue(5))),
            ("b", UpdateItem("acct", "Z", AddValue(1))),
        ),
    )
    t2 = GlobalTransactionSpec(
        txn=global_txn(2),
        steps=(
            ("a", DeleteItem("acct", "Y")),
            ("a", UpdateItem("acct", "X", AddValue(-10))),
            ("b", UpdateItem("acct", "Z", AddValue(2))),
        ),
    )
    system.submit(t1, coordinator=0)

    fired = [False]

    def on_decision(op) -> None:
        if fired[0] or op.kind is not OpKind.GLOBAL_COMMIT or op.txn != t1.txn:
            return
        fired[0] = True
        if config.abort_delay is not None:
            system.kernel.schedule(
                config.abort_delay,
                lambda: abort_current_incarnation(system, t1.txn, "a"),
            )
        system.kernel.schedule(
            config.t2_delay, lambda: system.submit(t2, coordinator=1)
        )
        system.kernel.schedule(
            config.local_delay,
            lambda: system.submit_local(
                "a",
                [
                    ReadItem("acct", "X"),
                    ReadItem("acct", "Y"),
                    InsertItem("acct", "U", 1),
                ],
                number=4,
            ),
        )

    system.history.subscribe(on_decision)
    system.run(until=50_000.0, advance=False)
    report = audit(system)
    return report.ok and report.distortions.commit_graph_cycle is None


def search(
    n_configs: int = 100, seed: int = 0, verify_2cm: bool = True
) -> SearchResult:
    """Fuzz ``n_configs`` random configurations.

    Every configuration that corrupts ``naive`` is (optionally)
    replayed under ``2cm``; any that corrupts 2CM too lands in
    ``defeats_2cm`` — which the benchmark asserts is empty.
    """
    rng = random.Random(seed)
    result = SearchResult()
    for _ in range(n_configs):
        config = draw_config(rng)
        result.tried += 1
        if run_template("naive", config):
            continue
        result.corrupting.append(config)
        if verify_2cm and not run_template("2cm", config):
            result.defeats_2cm.append(config)
    return result
