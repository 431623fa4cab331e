import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from coresleep.engine import SimConfig
from coresleep.partition import ltf_partition
from coresleep.power import PowerTable, default_power_params, derive_speeds
from coresleep.workload import TaskSet, task_from_ms


@pytest.fixture(scope="session")
def params():
    return default_power_params()


@pytest.fixture(scope="session")
def derived(params):
    return derive_speeds(params)


@pytest.fixture(scope="session")
def power_table(params, derived):
    return PowerTable(params, derived)


@pytest.fixture(scope="session")
def motivational_tasks():
    """Two-core scenario with a hand-computable schedule: tasks (period,
    wcet) = (2, 0.6), (4, 0.4), (2, 0.2) in milliseconds."""
    return TaskSet(tasks=(
        task_from_ms(1, 2.0, 0.6),
        task_from_ms(2, 4.0, 0.4),
        task_from_ms(3, 2.0, 0.2),
    ))


@pytest.fixture(scope="session")
def motivational_assignment(motivational_tasks):
    return ltf_partition(motivational_tasks, 2)


def motivational_config(params, policy, duration_ms=16.0, collect_trace=True):
    """Pinned configuration for the hand-computed scenario: actual execution
    equals the worst case, critical scale 0.4, sleep threshold 2 ms."""
    return SimConfig(
        params=params,
        cores=2,
        duration_ms=duration_ms,
        e_sw_j=5e-4,
        cc_mean_ratio=1.0,
        policy=policy,
        seed=0,
        critical_scale_override=0.4,
        t_th_ms_override=2.0,
        collect_trace=collect_trace,
    )


def idle_gaps_between_jobs(trace, core):
    """Gaps between a completion and the next start on one core."""
    events = [(t, ev) for (t, c, ev, _task, _d) in trace if c == core and ev in ("start", "complete")]
    gaps = []
    last_complete = None
    for t, ev in events:
        if ev == "start":
            if last_complete is not None:
                gaps.append(t - last_complete)
                last_complete = None
        else:
            last_complete = t
    return gaps


def edf_pick(jobs):
    """Reference for the engine's EDF pick, the top of a core's ready heap:
    the job with the earliest deadline, ties by smaller task id."""
    if not jobs:
        return None
    return min(jobs, key=lambda jb: (jb.deadline_ns, jb.task_id))


def next_release(task, t_ns):
    """First release of ``task`` strictly after ``t_ns``."""
    return (t_ns // task.period_ns) * task.period_ns + task.period_ns


def core_next_release_ns(core, t_ns):
    """Reference for the engine's next-release heap: the first release on a
    core strictly after t, rescanned from its members, or None when empty."""
    if not core.members:
        return None
    return min(next_release(run.task, t_ns) for run in core.members)


def core_static_utilization(core):
    """Reference for the engine's static sum: a float re-sum of the members."""
    return sum(run.task.utilization for run in core.members)


def compute_load_ns(core, t_ns):
    """Reference for the pending load the engine passes to ``compute_dt_ns``:
    the worst case of every member whose invocation current at t (arrived at
    or before t) has not finished, summed in task-id order."""
    total = 0.0
    for run in core.members:
        # the current invocation, the latest to arrive at or before t, is
        # job t // P + 1
        if run.done != t_ns // run.task.period_ns + 1:
            total += run.task.wcet_ns
    return total
