"""A partition storm: 2PC through a hostile network, invariants intact.

The paper assumes the Network never loses, duplicates or reorders a
message (Sec. 2).  This example drops that assumption on purpose:
seeded partitions repeatedly cut sites off, the wire loses and
duplicates traffic, delay spikes reorder it, and agents crash and
recover mid-protocol — while the session layer re-derives the paper's
lossless-FIFO contract underneath the unchanged 2PC and the heartbeat
failure detector quarantines unreachable sites so the coordinator
degrades gracefully instead of piling up doomed transactions.

After the storm heals, the full invariant battery is re-checked: no
transaction committed at one site and rolled back at another, no
prepared subtransaction left orphaned, `C(H)` still view serializable.

Run:  python examples/partition_storm.py [seed]
"""

import sys

from repro.sim.driver import DrillResult
from repro.sim.failures import ChaosConfig, build_fault_plan, run_chaos


def storm(seed: int) -> DrillResult:
    config = ChaosConfig(
        seed=seed,
        duration=3000,
        n_partitions=3,
        partition_min=200,
        partition_max=500,
        loss=0.03,
        duplication=0.05,
        crash_probability=0.04,
    )
    plan = build_fault_plan(config)
    print("Nemesis schedule:")
    print(plan.describe())
    print()
    return run_chaos(config)


def main(seed: int = 0) -> int:
    result = storm(seed)
    print(result.summary())
    print()
    counters = result.counters
    print(
        f"The wire dropped {counters['messages_lost']} messages "
        f"(+{counters['partition_drops']} severed by partitions), "
        f"duplicated {counters['messages_duplicated']}, and the session "
        f"layer retransmitted {counters['retransmits']} times to repair it."
    )
    print(
        f"Agents crashed {counters['agent_crashes']} times; the failure "
        f"detector quarantined sites for "
        f"{counters['quarantine_refusals']} refused submissions."
    )
    print()
    if result.ok:
        print(
            "Every invariant held: atomic commitment, no orphaned "
            "prepared subtransactions, C(H) view serializable."
        )
        return 0
    print("INVARIANT VIOLATIONS:")
    for violation in result.violations:
        print(f"  - {violation}")
    return 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 0))
