"""Speed-scaling policies and the run-time task reallocation heuristic.

Three policies share the engine: plain utilization-tracking DVS, DVS with a
leakage-aware floor at the critical speed, and the latter extended with task
reallocation at job release.  The reallocation hook decides, each time a job
arrives, whether shifting its task to another awake core would open up an
idle interval long enough to put the home core to sleep.

Functions here operate on the engine's core/task-run state objects but keep
no state of their own except the candidate-core set ``S`` owned by the
simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .workload import next_release

# Slack for utilization-threshold comparisons; keeps exact-boundary cases
# (for example dynamic utilization landing exactly on the critical scale)
# from flipping on float roundoff.
_EPS = 1e-12


class PolicyKind(Enum):
    PURE_DVS = "pure_dvs"
    LA_DVS = "la_dvs"
    LA_REALLOC = "la_realloc"


@dataclass(frozen=True)
class ReallocOptions:
    """Switch for the ambiguous reading of the reallocation rule.

    bonus: how the freed execution time of the shifted task enters the
      idle-interval test.  'scaled' converts the worst case to execution
      time at the critical speed (default); 'literal' adds it unscaled.
    """

    bonus: str = "scaled"

    def __post_init__(self):
        if self.bonus not in ("scaled", "literal"):
            raise ValueError(f"bad bonus mode {self.bonus!r}")


def current_arrival(period_ns: int, t_ns: int) -> int:
    """Arrival of the invocation current at time t (latest arrival <= t)."""
    return (t_ns // period_ns) * period_ns


def task_dynamic_utilization(run, t_ns: int) -> float:
    """Utilization of one task at time t: actual/period once the current
    invocation finished, worst-case/period while it is pending."""
    task = run.task
    if run.last_completed_arrival == current_arrival(task.period_ns, t_ns):
        return run.last_cc_ns / task.period_ns
    return task.wcet_ns / task.period_ns


def core_dynamic_utilization(core, t_ns: int) -> float:
    u = 0.0
    for run in core.members:
        u += task_dynamic_utilization(run, t_ns)
    return u


def core_static_utilization(core) -> float:
    return sum(run.task.utilization for run in core.members)


def compute_load_ns(core, t_ns: int) -> float:
    """Pending work on a core: full worst case of every task with an arrived,
    unfinished invocation (including one arriving exactly at t), as execution
    time at maximum speed."""
    total = 0.0
    for run in core.members:
        if run.last_completed_arrival != current_arrival(run.task.period_ns, t_ns):
            total += run.task.wcet_ns
    return total


def core_next_release_ns(core, t_ns: int) -> int | None:
    """First release on a core strictly after t, or None for an empty core."""
    if not core.members:
        return None
    return min(next_release(run.task, t_ns) for run in core.members)


def compute_dt_ns(core, t_ns: int, critical_scale: float) -> float:
    """Minimum idle interval ahead of a core if nothing is shifted: time to
    the next release on the core minus the time to drain its pending work at
    the critical speed.  May be negative when the backlog exceeds the gap."""
    gap = core_next_release_ns(core, t_ns) - t_ns
    return gap - compute_load_ns(core, t_ns) / critical_scale


def select_core(run, t_ns: int, candidates, cores, critical_scale):
    """Pick the reallocation destination for ``run``'s task, or None.

    Among candidate cores other than the task's home whose static utilization
    stays within 1, takes the one with the lowest dynamic utilization (ties
    by index).  Accepts it only if the move keeps that core's dynamic
    utilization at or below the critical scale factor, so the shift can never
    push the global speed up.
    """
    u_i = run.task.utilization
    best = None
    for idx in sorted(candidates):
        if idx == run.core:
            continue
        core = cores[idx]
        if core_static_utilization(core) + u_i > 1.0 + _EPS:
            continue
        u_dyn = core_dynamic_utilization(core, t_ns)
        if best is None or (u_dyn, idx) < (best[0], best[1]):
            best = (u_dyn, idx, core)
    if best is not None and best[0] + u_i <= critical_scale + _EPS:
        return best[2]
    return None


def upon_task_release(run, t_ns: int, sim):
    """Reallocation hook, invoked after the newly released job is enqueued.

    Returns the destination core when the task was shifted, else None.
    The home core leaves the candidate set on a shift and joins it otherwise.
    """
    home = sim.cores[run.core]
    task = run.task
    dest = None
    # An unfinished older job pins the task: jobs never migrate mid-flight,
    # so the shift is skipped for this release (counts as a failed attempt).
    backlog = any(
        job.task_id == task.id and job.arrival_ns < t_ns for job in home.ready
    )
    if not backlog:
        dt = compute_dt_ns(home, t_ns, sim.critical_scale)
        if sim.realloc_opts.bonus == "scaled":
            bonus = task.wcet_ns / sim.critical_scale
        else:
            bonus = task.wcet_ns
        if dt + bonus >= sim.t_th_ns:
            dest = select_core(run, t_ns, sim.realloc_candidates, sim.cores, sim.critical_scale)
    if dest is not None:
        sim.realloc_candidates.discard(home.index)
        sim.commit_reallocation(run, dest, t_ns)
    else:
        sim.realloc_candidates.add(home.index)
    return dest


def policy_speed(kind: PolicyKind, u_max: float, min_scale: float, critical_scale: float) -> float:
    """Global normalized speed for the highest per-core dynamic utilization."""
    if kind is PolicyKind.PURE_DVS:
        return min(max(u_max, min_scale), 1.0)
    return min(max(u_max, critical_scale), 1.0)
