"""Shared test helpers: draining a system, building an ablated
certifier, hand-building histories in paper notation."""

from typing import Optional

from repro.ablations import ABLATIONS, remember_intervals
from repro.common.ids import DataItemId, SubtxnId, TxnId, global_txn, local_txn
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.history.model import History


def drain(system, limit=100_000.0):
    """Run ``system`` in 50k-event slices until it quiesces; fail if
    events are still pending once simulated time passes ``limit``."""
    while system.kernel.pending and system.kernel.now <= limit:
        system.run(max_events=50_000)
    assert not system.kernel.pending, "system did not quiesce"


def ablated_certifier(name: str, engine: str = "naive", depth: int = 1):
    """Site ``a``'s certifier after the ablation ``name`` is applied to a
    one-site system (``"memory"`` = E14's interval memory of ``depth``)."""
    system = MultidatabaseSystem(SystemConfig(sites=("a",), certifier_engine=engine))
    if name == "memory":
        remember_intervals(system, depth)
    else:
        ABLATIONS[name].apply(system)
    return system.certifier("a")


class HistoryBuilder:
    """Builds a :class:`History` op by op with auto-advancing time.

    The fluent methods mirror the paper's notation::

        h = HistoryBuilder()
        h.r(1, "a", "X")          # R10[X^a]
        h.w(1, "a", "Y")          # W10[Y^a]
        h.p(1, "a")               # P^a_1
        h.c(1)                    # C_1
        h.cl(1, "a")              # C^a_10
        h.al(1, "a", inc=0)       # A^a_10 (unilateral)

    Reads-from is positional by default: a read observes the most
    recent *non-undone* write on the item, tracked by a tiny writer-tag
    replay (exactly what physical storage would report).  Pass
    ``frm=...`` to override.
    """

    def __init__(self) -> None:
        self.history = History()
        self._time = 0.0
        self._tags = {}
        self._undo = {}

    def _next_time(self) -> float:
        self._time += 1.0
        return self._time

    @staticmethod
    def txn(number, site: Optional[str] = None) -> TxnId:
        if site is None:
            return global_txn(number)
        return local_txn(number, site)

    def _sub(self, number, site, inc, local) -> SubtxnId:
        txn = local_txn(number, site) if local else global_txn(number)
        return SubtxnId(txn, site, 0 if local else inc)

    def r(self, number, site, key, inc=0, local=False, frm="auto"):
        sub = self._sub(number, site, inc, local)
        item = DataItemId("t", key)
        if frm == "auto":
            frm = self._tags.get((site, key))
        self.history.record_read(self._next_time(), sub, site, item, read_from=frm)
        return self

    def w(self, number, site, key, inc=0, local=False):
        sub = self._sub(number, site, inc, local)
        item = DataItemId("t", key)
        self._undo.setdefault(sub, []).append(
            ((site, key), self._tags.get((site, key)))
        )
        self._tags[(site, key)] = sub
        self.history.record_write(self._next_time(), sub, site, item)
        return self

    def p(self, number, site, sn=None):
        self.history.record_prepare(self._next_time(), global_txn(number), site, sn)
        return self

    def c(self, number):
        self.history.record_global_commit(self._next_time(), global_txn(number))
        return self

    def a(self, number):
        self.history.record_global_abort(self._next_time(), global_txn(number))
        return self

    def cl(self, number, site, inc=0, local=False):
        sub = self._sub(number, site, inc, local)
        self._undo.pop(sub, None)
        self.history.record_local_commit(self._next_time(), sub, site)
        return self

    def al(self, number, site, inc=0, local=False, unilateral=True):
        sub = self._sub(number, site, inc, local)
        for key, previous in reversed(self._undo.pop(sub, [])):
            self._tags[key] = previous
        self.history.record_local_abort(
            self._next_time(), sub, site, unilateral=unilateral
        )
        return self
