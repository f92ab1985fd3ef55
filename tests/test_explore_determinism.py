"""Determinism regression: same seed + same choice trace ⇒ the same run.

The replay contract is the foundation under shrinking and ``.schedule``
repro files: any trace, however it was produced (random walk, DFS
deviation, shrink candidate, hand edit), must replay to a
byte-identical history fingerprint — including with the WAL-backed
durability layer on and with more than one coordinator.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.explore import (
    ExploreSpec,
    RandomChooser,
    TraceChooser,
    run_once,
    strip_trailing_defaults,
)

_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def walk_specs(draw):
    seed = draw(st.integers(min_value=0, max_value=50))
    walk = draw(st.integers(min_value=0, max_value=50))
    return seed, walk


class TestReplayDeterminism:
    @_SETTINGS
    @given(walk_specs())
    def test_random_walk_replays_byte_identical(self, case):
        seed, walk = case
        spec = ExploreSpec(seed=seed)
        original = run_once(spec, RandomChooser(random.Random(walk)))
        replay = run_once(spec, TraceChooser(original.trace))
        assert replay.fingerprint == original.fingerprint
        assert replay.trace == original.trace
        assert replay.violation_kinds() == original.violation_kinds()

    @_SETTINGS
    @given(walk_specs())
    def test_stripped_trace_replays_identically(self, case):
        seed, walk = case
        spec = ExploreSpec(seed=seed)
        original = run_once(spec, RandomChooser(random.Random(walk)))
        stripped = strip_trailing_defaults(original.trace)
        replay = run_once(spec, TraceChooser(stripped))
        assert replay.fingerprint == original.fingerprint

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=20),
        st.lists(
            st.integers(min_value=0, max_value=4), min_size=0, max_size=60
        ),
    )
    def test_arbitrary_int_lists_are_valid_deterministic_traces(
        self, seed, trace
    ):
        # Out-of-range picks degrade to the default, so *any* int list
        # is a valid schedule — the property shrinking relies on.
        spec = ExploreSpec(seed=seed)
        first = run_once(spec, TraceChooser(trace))
        second = run_once(spec, TraceChooser(trace))
        assert first.fingerprint == second.fingerprint


class TestMatrixDeterminism:
    def test_durability_run_replays_byte_identical(self):
        spec = ExploreSpec(durability=True)
        original = run_once(spec, RandomChooser(random.Random(7)))
        replay = run_once(spec, TraceChooser(original.trace))
        assert replay.fingerprint == original.fingerprint

    def test_federation_run_replays_byte_identical(self):
        spec = ExploreSpec(n_coordinators=2)
        original = run_once(spec, RandomChooser(random.Random(7)))
        replay = run_once(spec, TraceChooser(original.trace))
        assert replay.fingerprint == original.fingerprint

    def test_full_matrix_point_replays_byte_identical(self):
        spec = ExploreSpec(
            certifier_engine="indexed", durability=True, n_coordinators=2
        )
        original = run_once(spec, RandomChooser(random.Random(11)))
        replay = run_once(spec, TraceChooser(original.trace))
        assert replay.fingerprint == original.fingerprint
        assert replay.committed == original.committed
        assert replay.aborted == original.aborted
