"""Speed-scaling policies and the run-time task reallocation heuristic.

Three policies share the engine: plain utilization-tracking DVS, DVS with a
leakage-aware floor at the critical speed, and the latter extended with task
reallocation at job release.  The reallocation rules decide, each time a job
arrives, whether shifting its task to another awake core would open up an
idle interval long enough to put the home core to sleep, and where to.

Every rule here is a function of numbers: the reference dynamic
utilizations, the idle interval, the gate, the destination choice and the
speed.
The engine owns the candidate-core set ``S``, each core's next release, its
utilization sums and pending load, and commits the shifts.
"""

from __future__ import annotations

from enum import Enum

from .workload import UTIL_EPS


class PolicyKind(Enum):
    PURE_DVS = "pure_dvs"
    LA_DVS = "la_dvs"
    LA_REALLOC = "la_realloc"


def task_dynamic_utilization(task, last_cc_ns=None) -> float:
    """Utilization of one task: worst-case/period while its current
    invocation is pending (``last_cc_ns`` None), actual/period once it has
    finished in ``last_cc_ns``."""
    return (task.wcet_ns if last_cc_ns is None else last_cc_ns) / task.period_ns


def core_dynamic_utilization(terms) -> float:
    """Sum of ``task_dynamic_utilization`` over (task, last_cc_ns) pairs, in
    the order given."""
    u = 0.0
    for task, last_cc_ns in terms:
        u += task_dynamic_utilization(task, last_cc_ns)
    return u


def compute_dt_ns(gap_ns: int, load_ns: float, critical_scale: float) -> float:
    """Minimum idle interval ahead of a core if nothing is shifted: the time
    ``gap_ns`` to the next release on the core minus the time to drain its
    pending work ``load_ns`` at the critical speed.  May be negative when the
    backlog exceeds the gap."""
    return gap_ns - load_ns / critical_scale


def select_core(u_i: float, options, critical_scale: float):
    """Pick the reallocation destination for a task of utilization ``u_i``.

    ``options`` holds (dynamic utilization, index, static utilization) of
    each awake candidate core other than the task's home.  Among those whose
    static utilization stays within 1, takes the one with the lowest dynamic
    utilization (ties by index), and returns its index if the move keeps its
    dynamic utilization at or below the critical scale factor, so the shift
    can never push the global speed up; else None.
    """
    best = None
    for u_dyn, idx, u_static in options:
        if u_static + u_i > 1.0 + UTIL_EPS:
            continue
        if best is None or (u_dyn, idx) < best:
            best = (u_dyn, idx)
    if best is not None and best[0] + u_i <= critical_scale + UTIL_EPS:
        return best[1]
    return None


def upon_task_release(dt_ns: float, wcet_ns: float, critical_scale: float,
                      t_th_ns: float) -> bool:
    """Reallocation gate at a job release: True when the home core's idle
    interval ``dt_ns`` plus the released task's worst case, as execution time
    at the critical speed, reaches the sleep threshold."""
    return dt_ns + wcet_ns / critical_scale >= t_th_ns


def policy_speed(kind: PolicyKind, u_max: float, min_scale: float, critical_scale: float) -> float:
    """Global normalized speed for the highest per-core dynamic utilization:
    ``min(max(u_max, floor), 1.0)``, written out as comparisons."""
    floor = min_scale if kind is PolicyKind.PURE_DVS else critical_scale
    s = floor if floor > u_max else u_max
    return 1.0 if s > 1.0 else s
