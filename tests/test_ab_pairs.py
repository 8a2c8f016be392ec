"""The pair script's summary gives each metric its verdict against its bound."""

import pytest

from ab_pairs import summary

DECLARED = [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25}]


def runs_of(parent, change):
    """Hand-made runs: one ``pass_s`` value each, 1 of 10 operations failed
    on every parent run and none on the change's."""
    return {
        side: [{"metrics": {"pass_s": {"value": v}}, "failed": f, "attempted": 10} for v in values]
        for side, values, f in (("parent", parent, 1), ("change", change, 0))
    }


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        # the change's median is 0.3 s above the parent's, past the 0.25 s bound
        ([1.0, 1.0, 1.1, 1.0], [1.3, 1.3, 1.4, 1.3], "worse"),
        # the parent spreads over 1 s, wider than the bound
        ([1.0, 2.0, 1.5, 2.5], [1.5, 2.0, 1.6, 2.4], "unresolved"),
        # as wide, but every change run beats every parent run
        ([3.0, 4.0, 3.5, 4.5], [1.0, 2.0, 1.5, 2.5], "within bound"),
        ([1.0, 1.1, 1.05, 1.0], [1.2, 1.1, 1.15, 1.2], "within bound"),
    ],
    ids=["worse", "unresolved", "clear-win", "within"],
)
def test_verdict_against_bound(parent, change, verdict):
    lines = summary(DECLARED, runs_of(parent, change), len(parent))
    assert lines[0].endswith(f"bound 0.25: {verdict}"), lines[0]
    assert lines[-1] == "operations failed: parent 4/40; change 0/40"


def test_higher_is_better_flips_the_sides():
    declared = [{"name": "pass_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
    lines = summary(declared, runs_of([1.3, 1.3, 1.4, 1.3], [1.0, 1.0, 1.1, 1.0]), 4)
    assert lines[0].endswith("bound 0.25: worse"), lines[0]
