"""A breadth-first replay of the explorer's search, for differential tests.

:func:`replay_search` visits the schedules ``explore_program`` visits
without forking a machine: each schedule is replayed from cycle 0 by
:func:`~repro.campaign.spec.execute_spec_guarded`, one breadth-first
wave at a time, and its children are read off its result's choice log
through the walk's own child rule (``_Walk._children``).  The report it
returns must equal the walk's (:func:`report_key`, ``run_traces``
included) whenever the search is not cut short by ``max_runs``.
"""

from __future__ import annotations

import dataclasses

from repro.campaign import PolicySpec, RunSpec, execute_spec_guarded
from repro.explore import explorer
from repro.explore.prune import (
    conflict_free_locations,
    supports_message_pruning,
)
from repro.memsys.config import NET_CACHE


def report_key(report):
    """Everything two equal exploration reports share."""
    return (
        report.runs, report.outcomes, report.pruned_decisions,
        report.incomplete_runs, report.exhausted, report.preempted,
        report.describe(), report.run_traces,
    )


def replay_search(
    program, policy, *, max_delays=2, config=None, max_cycles=200_000,
    trace=None, sanitize=None, prune=True,
):
    """The :class:`~repro.explore.explorer.ExplorationReport` of a
    breadth-first search replaying every schedule from cycle 0."""
    config = (config or NET_CACHE).with_overrides(start_skew=0)
    policy_spec = PolicySpec.of(policy)
    message_pruning = prune and supports_message_pruning(config)
    spec = RunSpec(
        program=program, policy=policy_spec, config=config, seed=0,
        max_cycles=max_cycles, schedule=(), trace=trace, sanitize=sanitize,
    )
    report = explorer.ExplorationReport(
        program=program, policy_name=policy_spec.name,
        max_delays=max_delays, runs=0,
    )
    walk = explorer._Walk(
        spec, report, max_delays, 1_000_000, message_pruning,
        conflict_free_locations(program) if message_pruning else frozenset(),
        None, None,
    )
    wave, walk.queued = walk.queued, []
    while wave:
        walk.started += len(wave)
        for prefix in wave:
            result = execute_spec_guarded(
                dataclasses.replace(spec, schedule=prefix)
            )
            walk._fold(prefix, result)
            budget = max_delays - sum(prefix)
            log = result.choice_log or ()
            details = result.choice_details or ()
            for point in range(len(prefix), len(log)):
                walk.queued.extend(walk._children(
                    prefix, budget, point, log[point],
                    details[point] if point < len(details) else None,
                ))
        walk._commit()
        wave, walk.queued = walk.queued, []
    report.exhausted = not walk.dropped
    return report
