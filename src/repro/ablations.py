"""Ablations: every way to switch a piece of the protocol off, in one
registry.

The paper claims each piece of 2PCA carries weight: the basic
alive-interval rule (Sec. 4), the prepare-certification extension
(Sec. 5.3) and SN-ordered commit certification (Sec. 5.2).  The
experiments reproduce those claims by switching one piece off and
watching the oracle fire, and the schedule explorer proves its own
teeth the same way.  Each :class:`Ablation` is a patch over a *built*
system; the production certifier (:mod:`repro.core.certifier`)
implements the paper's rule and nothing else.

A certifier ablation is a small :class:`~repro.core.certifier.Certifier`
subclass that overrides one check; ``apply`` swaps it in at every site
before the first event runs.  ``MultidatabaseSystem`` applies the entry
named by its ``method`` (``cgm`` runs on the ``naive`` entry's
certifiers), and ``python -m repro explore --mutant NAME`` applies any
entry over a ``2cm`` system.

``expected_kinds`` names the violation kinds the oracle reports when
the explorer finds the ablation (any match counts as found).  It is
empty for entries the explorer's default workload does not reach yet;
the experiments named in ``claim`` exercise those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Type

from repro.common.ids import SerialNumber, TxnId
from repro.core.agent import AgentPhase, TwoPCAgent
from repro.core.certifier import (
    APPROVE,
    CertDecision,
    Certifier,
    CertifierConfig,
    PreparedEntry,
)
from repro.core.intervals import AliveInterval
from repro.net.messages import MsgType

if TYPE_CHECKING:
    from repro.core.dtm import MultidatabaseSystem


@dataclass(frozen=True)
class Ablation:
    """One switched-off protocol piece: a name, the claim it tests, and
    the patch."""

    name: str
    #: The paper claim the ablation tests (experiment id and section).
    claim: str
    description: str
    #: Violation kinds the oracle is expected to report; empty when the
    #: explorer cannot reach the ablation yet.
    expected_kinds: Tuple[str, ...]
    apply: Callable[["MultidatabaseSystem"], None]


# ----------------------------------------------------------------------
# Certifier ablations
# ----------------------------------------------------------------------


class NoExtensionCertifier(Certifier):
    """Prepare certification without the Sec. 5.3 extension: a PREPARE
    below an already-committed SN is not refused."""

    def _check_extension(self, sn: Optional[SerialNumber]) -> Optional[CertDecision]:
        return None


class NoCommitCertificationCertifier(Certifier):
    """Local commits are issued as soon as the COMMIT arrives."""

    def _check_commit(self, entry: PreparedEntry) -> CertDecision:
        return APPROVE


class PrepareOrderCertifier(NoExtensionCertifier):
    """Commit order = the order of entering the prepared state, the
    alternative Sec. 5.2/5.3 rejects (it fails on indirect conflicts,
    history H3).  The table keeps insertion order, so the oldest
    prepared entry is the first one."""

    def _check_commit(self, entry: PreparedEntry) -> CertDecision:
        oldest = next(iter(self._table.values()))
        if oldest is entry:
            return APPROVE
        self.commit_delays += 1
        return CertDecision(ok=False, detail=f"{oldest.txn.label} prepared earlier")


class NoPrepareCertificationCertifier(NoExtensionCertifier):
    """Every PREPARE is approved: no alive-interval rule, no extension."""

    def _check_basic(self, txn: TxnId, candidate: AliveInterval) -> CertDecision:
        return APPROVE


class NoCertificationCertifier(
    NoPrepareCertificationCertifier, NoCommitCertificationCertifier
):
    """Plain resubmission: every certification check approves."""


class ConflictAwareCertifier(Certifier):
    """UNSOUND: refuse a disjoint-interval candidate only when its access
    set *directly* intersects the prepared entry's (the predicate /
    command-knowledge approach of the authors' earlier 2PC-Agent
    paper).  It cannot see indirect conflicts through local
    transactions — which is exactly why the paper's rule is
    conflict-blind.  Always a linear scan: every miss needs the
    entry's access set.

    ``access_set_of(txn)`` reads the items the candidate's current
    incarnation touched; an entry keeps the set its candidate had when
    it was certified (an entry re-inserted by agent recovery has none).
    """

    def __init__(
        self,
        site: str,
        config: CertifierConfig,
        access_set_of: Callable[[TxnId], frozenset],
    ) -> None:
        super().__init__(site, config)
        self._access_set_of = access_set_of
        self._access_sets: Dict[TxnId, frozenset] = {}
        self._certified: Tuple[Optional[TxnId], frozenset] = (None, frozenset())

    def fresh(self) -> "ConflictAwareCertifier":
        return type(self)(self.site, self.config, self._access_set_of)

    def _check_basic(self, txn: TxnId, candidate: AliveInterval) -> CertDecision:
        access_set = self._access_set_of(txn)
        self._certified = (txn, access_set)
        for entry in self._table.values():
            if entry.intersects(candidate):
                continue
            if not access_set & self._access_sets.get(entry.txn, frozenset()):
                # The unsound shortcut: "their access sets are disjoint,
                # so they cannot conflict" — blind to indirect conflicts
                # through local transactions.
                continue
            return self._refuse_intersection(entry, candidate)
        return APPROVE

    def insert(
        self, txn: TxnId, sn: Optional[SerialNumber], interval: AliveInterval
    ) -> PreparedEntry:
        entry = super().insert(txn, sn, interval)
        certified, access_set = self._certified
        self._access_sets[txn] = access_set if certified == txn else frozenset()
        return entry

    def remove(self, txn: TxnId) -> None:
        super().remove(txn)
        self._access_sets.pop(txn, None)


class IntervalMemoryCertifier(Certifier):
    """Remember the last ``depth`` alive intervals of each prepared
    subtransaction (Sec. 4.2: "As an optimization, several of them
    might be stored"); a candidate needs to intersect only *some*
    remembered interval of each entry.  Always a linear scan."""

    def __init__(self, site: str, config: CertifierConfig, depth: int) -> None:
        if depth < 2:
            raise ValueError(f"an interval memory needs depth >= 2, got {depth}")
        super().__init__(site, config)
        self.depth = depth
        self._archive: Dict[TxnId, List[AliveInterval]] = {}

    def fresh(self) -> "IntervalMemoryCertifier":
        return type(self)(self.site, self.config, self.depth)

    def _check_basic(self, txn: TxnId, candidate: AliveInterval) -> CertDecision:
        for entry in self._table.values():
            if entry.intersects(candidate):
                continue
            archived = self._archive.get(entry.txn, ())
            if any(candidate.intersects(known) for known in archived):
                continue
            return self._refuse_intersection(entry, candidate)
        return APPROVE

    def restart_interval(self, txn: TxnId, now: float) -> None:
        archive = self._archive.setdefault(txn, [])
        archive.append(self.interval_of(txn))
        del archive[: -(self.depth - 1)]
        super().restart_interval(txn, now)

    def remove(self, txn: TxnId) -> None:
        super().remove(txn)
        self._archive.pop(txn, None)


def _swap_certifiers(
    system: "MultidatabaseSystem", make: Callable[[TwoPCAgent], Certifier]
) -> None:
    """Replace every site's certifier with ``make(agent)``."""
    for agent in system.agents.values():
        agent.certifier = make(agent)


def _swap_to(cls: Type[Certifier]) -> Callable[["MultidatabaseSystem"], None]:
    def apply(system: "MultidatabaseSystem") -> None:
        _swap_certifiers(system, lambda agent: cls(agent.site, agent.certifier.config))

    return apply


def _apply_conflict_aware(system: "MultidatabaseSystem") -> None:
    def make(agent: TwoPCAgent) -> Certifier:
        def access_set_of(txn: TxnId) -> frozenset:
            subtxn = agent.current_incarnation(txn)
            if subtxn is None:
                return frozenset()
            return frozenset(agent.ltm.access_set_of(subtxn))

        return ConflictAwareCertifier(agent.site, agent.certifier.config, access_set_of)

    _swap_certifiers(system, make)


def remember_intervals(system: "MultidatabaseSystem", depth: int) -> None:
    """E14's interval memory: keep ``depth`` alive intervals per prepared
    subtransaction.  Depth 1 is the paper's easiest implementation —
    the plain certifier — so it changes nothing."""
    if depth != 1:
        _swap_certifiers(
            system,
            lambda agent: IntervalMemoryCertifier(
                agent.site, agent.certifier.config, depth
            ),
        )


# ----------------------------------------------------------------------
# Seeded regressions outside the certifier
# ----------------------------------------------------------------------


def _apply_refuse_blind(system: "MultidatabaseSystem") -> None:
    for coordinator in system.coordinators:
        original = coordinator._on_message

        def patched(msg, _original=original):
            if msg.type is MsgType.REFUSE:
                msg.type = MsgType.READY
                msg.reason = None
            _original(msg)

        # The network holds the bound method captured at registration,
        # so re-register the wrapper rather than patching the attribute.
        system.network.register(coordinator.address, patched, replace=True)


def _apply_rollback_blind(system: "MultidatabaseSystem") -> None:
    for site in system.config.sites:
        agent = system.agent(site)
        original = agent._on_rollback

        def patched(msg, _agent=agent, _original=original):
            state = _agent._states.get(msg.txn)
            if (
                state is not None
                and state.phase is AgentPhase.PREPARED
                and not state.uan
                and not state.resubmitting
                and _agent.ltm.is_alive(state.local.subtxn)
            ):
                # "A healthy prepared subtransaction can only be told to
                # commit" — the decision-phase abort edge (some *other*
                # site refused) is dropped, the coordinator is pacified
                # with an ack, and the prepared state never ends.
                _agent._reply(msg, MsgType.ROLLBACK_ACK)
                return
            _original(msg)

        agent._on_rollback = patched  # type: ignore[method-assign]


#: Violations a PREPARE slipping into a still-open prepared window
#: produces (Correctness Invariant part 1, usually with a
#: serializability violation in tow).
_PREPARE_WINDOW_KINDS = ("ci.1", "ci.2", "audit.viewser", "audit.distortion")

ABLATIONS: Dict[str, Ablation] = {
    ablation.name: ablation
    for ablation in (
        Ablation(
            name="2cm-noext",
            claim="E5, Sec. 5.3",
            description=(
                "no prepare-certification extension: a COMMIT overtaking a "
                "PREPARE lets the late PREPARE through (history Hx)"
            ),
            expected_kinds=(),
            apply=_swap_to(NoExtensionCertifier),
        ),
        Ablation(
            name="2cm-nocommitcert",
            claim="E3/E4, Sec. 5.1-5.2",
            description=(
                "no commit certification: local commits land in different "
                "orders at different sites (histories H2, H3)"
            ),
            expected_kinds=(),
            apply=_swap_to(NoCommitCertificationCertifier),
        ),
        Ablation(
            name="2cm-prepare-order",
            claim="E4, Sec. 5.2-5.3",
            description=(
                "commit order = order of entering the prepared state, the "
                "rejected alternative; fails on indirect conflicts (H3)"
            ),
            expected_kinds=(),
            apply=_swap_to(PrepareOrderCertifier),
        ),
        Ablation(
            name="2cm-conflict-aware",
            claim="E17, Sec. 4",
            description=(
                "UNSOUND predicate-style basic certification: refuse only "
                "on direct access-set conflicts; blind to indirect "
                "conflicts through local transactions (H2')"
            ),
            expected_kinds=(),
            apply=_apply_conflict_aware,
        ),
        Ablation(
            name="naive",
            claim="E2/E3/E8, Sec. 3-5; baseline S18",
            description=(
                "resubmission without any certification: the 2PC Agent "
                "architecture (agent log, simulated prepared state, "
                "resubmission) with every check approving.  With failures "
                "it shows H1 (global view distortion) and H2/H3 (local "
                "view distortion, cyclic CG(C(H))); without unilateral "
                "aborts it is correct, E8's zero-failure point"
            ),
            expected_kinds=_PREPARE_WINDOW_KINDS,
            apply=_swap_to(NoCertificationCertifier),
        ),
        Ablation(
            name="cert-blind",
            claim="E2, Sec. 4",
            description=(
                "prepare certification approves everything; one unilateral "
                "abort lets a conflicting transaction prepare into the "
                "still-open prepared window (CI part 1)"
            ),
            expected_kinds=_PREPARE_WINDOW_KINDS,
            apply=_swap_to(NoPrepareCertificationCertifier),
        ),
        Ablation(
            name="refuse-blind",
            claim="atomic commitment, Sec. 2",
            description=(
                "the coordinator counts a REFUSE vote as READY; the refusing "
                "site rolled back, the others commit (atomicity)"
            ),
            expected_kinds=("atomicity",),
            apply=_apply_refuse_blind,
        ),
        Ablation(
            name="rollback-blind",
            claim="simulated prepared state, Sec. 3",
            description=(
                "the agent drops ROLLBACK for a healthy prepared "
                "subtransaction (a remote refusal aborts the global "
                "transaction, but this site never lets go); the prepared "
                "state never ends (orphaned-PREPARED)"
            ),
            expected_kinds=("orphaned-prepared", "quiesce"),
            apply=_apply_rollback_blind,
        ),
    )
}
