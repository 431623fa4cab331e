"""Property tests over small random task sets.

Each example draws a task set of one to four tasks with integer-ms periods,
either harmonic or not, on one to three cores (so sometimes more cores than
tasks), with a mean actual-to-worst-case ratio up to 1, E_sw of 0 or 0.5 mJ
and a horizon in quarter milliseconds, which no integer period need divide.
Under every policy the ledger's total energy must agree with the dense
oracle, and all three policies must see the same actual time for each job.

Zero deadline misses is not among the properties: rounding drift makes a
core whose speed equals its utilization finish a job 1 ns late (see the
strict xfail in ``test_engine.py``).
"""

from dataclasses import replace

import pytest
from dense_oracle import integrate_trace_energy
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from coresleep.engine import SimConfig, run
from coresleep.partition import PartitionError, ltf_partition
from coresleep.policies import PolicyKind
from coresleep.workload import NS_PER_MS, TaskSet, task_from_ms

HARMONIC_PERIODS_MS = (1, 2, 4, 8)


@st.composite
def instances(draw):
    """(task set, assignment, keyword inputs of SimConfig but the policy)."""
    harmonic = draw(st.booleans())
    periods = st.sampled_from(HARMONIC_PERIODS_MS) if harmonic else st.integers(1, 12)
    tasks = []
    for task_id in range(draw(st.integers(1, 4))):
        period_ms = draw(periods)
        utilization = draw(st.integers(1, 12)) / 20
        tasks.append(task_from_ms(task_id, period_ms, period_ms * utilization))
    task_set = TaskSet(tasks=tuple(tasks))
    m = draw(st.integers(1, 3))
    try:
        assignment = ltf_partition(task_set, m)
    except PartitionError:
        reject()
    inputs = dict(
        cores=m,
        duration_ms=draw(st.integers(10, 120)) / 4,
        cc_mean_ratio=draw(st.sampled_from((0.25, 0.5, 0.75, 1.0))),
        e_sw_j=draw(st.sampled_from((0.0, 5e-4))),
        seed=draw(st.integers(0, 3)),
    )
    return task_set, assignment, inputs


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(instance=instances())
def test_energy_matches_oracle_and_draws_match_across_policies(params, power_table, instance):
    task_set, assignment, inputs = instance
    cfg = SimConfig(params=params, power_table=power_table, collect_trace=True, **inputs)
    duration_ns = round(cfg.duration_ms * NS_PER_MS)
    releases = {}
    for policy in PolicyKind:
        ledger, trace = run(replace(cfg, policy=policy), task_set, assignment)
        oracle = integrate_trace_energy(trace, duration_ns, cfg.cores, params, cfg.e_sw_j)
        assert ledger.total_j == pytest.approx(oracle, rel=1e-3)
        # a release row's instant and task name the job; its detail is the
        # job's actual time
        releases[policy] = sorted(
            (task, t, cc) for t, _c, event, task, cc in trace if event == "release"
        )
    assert releases[PolicyKind.LA_DVS] == releases[PolicyKind.PURE_DVS]
    assert releases[PolicyKind.LA_REALLOC] == releases[PolicyKind.PURE_DVS]
