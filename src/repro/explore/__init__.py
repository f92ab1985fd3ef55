"""Deterministic schedule exploration: search, shrink, replay.

Every nondeterministic decision of a simulated run — which same-time
event fires first, whether a message is dropped/duplicated/delayed,
whether an agent crashes at a protocol point, whether the LDBS
unilaterally aborts a prepared subtransaction — flows through the
kernel's choice-point API and is recorded as a flat *choice trace*.
The explorer searches trace space (DFS, random walks, coverage-guided
walks), runs the invariant battery as the oracle on every terminal
state, shrinks failures to minimal traces, and persists them as
replayable ``.schedule`` files.

See ``docs/TESTING.md`` for the workflow and ``python -m repro
explore --help`` for the CLI.
"""

from repro.explore.harness import ExploreSpec, RunResult, matrix, run_once
from repro.explore.schedule_file import (
    load_schedule,
    replay_schedule,
    save_schedule,
)
from repro.explore.shrink import ShrinkResult, shrink
from repro.explore.strategies import (
    Exploration,
    STRATEGIES,
    explore,
    explore_coverage,
    explore_dfs,
    explore_random,
)
from repro.explore.trace import (
    ChoicePoint,
    DefaultChooser,
    HybridChooser,
    RandomChooser,
    RecordingChooser,
    TraceChooser,
    strip_trailing_defaults,
)

__all__ = [
    "ChoicePoint",
    "DefaultChooser",
    "Exploration",
    "ExploreSpec",
    "HybridChooser",
    "RandomChooser",
    "RecordingChooser",
    "RunResult",
    "STRATEGIES",
    "ShrinkResult",
    "TraceChooser",
    "explore",
    "explore_coverage",
    "explore_dfs",
    "explore_random",
    "load_schedule",
    "matrix",
    "replay_schedule",
    "run_once",
    "save_schedule",
    "shrink",
    "strip_trailing_defaults",
]
