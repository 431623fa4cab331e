import sys
from itertools import groupby
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from coresleep.engine import SimConfig
from coresleep.partition import Assignment, PartitionError, ltf_partition
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


def capped_first_fit(task_set, m, critical_scale):
    """Reference static consolidation: tasks largest first (ties by id), each
    onto the lowest-index core that stays at or below the critical scale;
    when no core does, onto the least loaded core (worst fit), which must
    stay at or below 1."""
    load = [0.0] * m
    bins = [[] for _ in range(m)]
    for task in sorted(task_set, key=lambda t: (-t.utilization, t.id)):
        u = task.utilization
        fits = [i for i in range(m) if load[i] + u <= critical_scale]
        j = fits[0] if fits else min(range(m), key=lambda i: (load[i], i))
        if load[j] + u > 1.0:
            raise PartitionError(f"core {j} would reach utilization {load[j] + u:.6f}")
        load[j] += u
        bins[j].append(task.id)
    return Assignment(core_tasks=tuple(tuple(sorted(b)) for b in bins),
                      core_utilization=tuple(load))


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


def wake_rule_violations(trace):
    """The wake rule, read from the trace alone: a core has a ``wake`` row at
    t exactly when it was asleep before t and kept a job released on it at t
    (no ``realloc`` row at t moved that job away).  Returns each (t, core)
    with a missing or an extra wake."""
    asleep, violations = set(), []
    for t, rows in groupby(trace, key=lambda row: row[0]):
        rows = list(rows)
        kept = {(c, task) for (_t, c, ev, task, _d) in rows if ev == "release"}
        kept -= {(int(d.split("=")[1]), task) for (_t, _c, ev, task, d) in rows if ev == "realloc"}
        due = {c for c, _task in kept if c in asleep}
        woke = {c for (_t, c, ev, _x, _d) in rows if ev == "wake"}
        violations += [(t, c) for c in sorted(due ^ woke)]
        for _t, c, ev, _x, _d in rows:
            if ev == "sleep":
                asleep.add(c)
            elif ev == "wake":
                asleep.discard(c)
    return violations


def assert_one_core_per_job(trace):
    """Assert from the trace that every job runs on exactly one core over its
    lifetime: a task moves only by a ``realloc`` row at its release instant."""
    job_core = {}
    last_release = {}
    for t, c, ev, task, _detail in trace:
        if ev == "release":
            job_core[task] = c
            last_release[task] = t
        elif ev == "realloc":
            # only legal at the release instant of that task
            assert last_release[task] == t
            job_core[task] = c
        elif ev in ("start", "preempt", "complete"):
            assert job_core[task] == c


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


def current_job_finished(run, t_ns):
    """True when a task's current invocation at t, the latest to arrive at or
    before t (job t // P + 1), has completed."""
    return run.done == t_ns // run.task.period_ns + 1


def dynamic_terms(runs, t_ns, last_cc_ns):
    """The (task, actual time) pairs that ``policies.core_dynamic_utilization``
    takes for ``runs`` at t, in the order given: the actual time of each
    task's latest completed job (``last_cc_ns``, by task id) once its current
    invocation finished, None while it is pending."""
    return [(run.task, last_cc_ns[run.task.id] if current_job_finished(run, t_ns) else None)
            for run in runs]


def compute_load_ns(core, t_ns):
    """Reference for the pending load the engine passes to ``compute_dt_ns``:
    the worst case of every member whose invocation current at t (arrived at
    or before t) has not finished, summed in task-id order."""
    total = 0.0
    for run in core.members:
        if not current_job_finished(run, t_ns):
            total += run.task.wcet_ns
    return total
