"""Periodic tasks, jobs, utilizations, and the random task-set generator.

Time is kept in integer nanoseconds so event ordering in the simulator is
exact; public constructors accept milliseconds.  Work quantities (worst-case
and actual execution time at maximum speed) are float nanoseconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

NS_PER_MS = 1_000_000
# Most tasks the generator draws for one set.
MAX_TASKS = 20


class WorkloadError(ValueError):
    """Raised for invalid task parameters or infeasible generator targets."""


@dataclass(frozen=True)
class Task:
    """One periodic task: period and worst-case execution time at f_max.

    The relative deadline equals the period.
    """

    id: int
    period_ns: int
    wcet_ns: float

    def __post_init__(self):
        if self.period_ns <= 0:
            raise WorkloadError(f"task {self.id}: period must be positive")
        if not (0 < self.wcet_ns <= self.period_ns):
            raise WorkloadError(f"task {self.id}: need 0 < wcet <= period")

    @property
    def utilization(self) -> float:
        return self.wcet_ns / self.period_ns


def task_from_ms(task_id: int, period_ms: float, wcet_ms: float) -> Task:
    return Task(id=task_id, period_ns=round(period_ms * NS_PER_MS), wcet_ns=wcet_ms * NS_PER_MS)


class Job:
    """A released instance of a task.  ``remaining_ns`` is work left,
    expressed as execution time at maximum speed, as of the job's release or
    its latest preemption; while the job runs, the engine's work clock
    tracks its progress instead."""

    __slots__ = ("task_id", "index", "arrival_ns", "deadline_ns", "cc_ns", "remaining_ns")

    def __init__(self, task: Task, index: int, cc_ns: float):
        self.task_id = task.id
        self.index = index
        self.arrival_ns = (index - 1) * task.period_ns
        self.deadline_ns = index * task.period_ns
        self.cc_ns = cc_ns
        self.remaining_ns = cc_ns

    def __repr__(self):
        return (f"Job(task={self.task_id}, j={self.index}, a={self.arrival_ns}, "
                f"d={self.deadline_ns}, cc={self.cc_ns})")


@dataclass(frozen=True)
class TaskSet:
    tasks: tuple[Task, ...]

    def __post_init__(self):
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise WorkloadError("duplicate task ids")
        object.__setattr__(self, "tasks", tuple(sorted(self.tasks, key=lambda t: t.id)))

    @property
    def total_utilization(self) -> float:
        return sum(t.utilization for t in self.tasks)

    def __len__(self):
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)


def uunifast(n: int, u_target: float, rng: random.Random) -> list[float]:
    """Unbiased split of ``u_target`` into ``n`` task utilizations."""
    sum_u = u_target
    out = []
    for i in range(1, n):
        next_sum = sum_u * rng.random() ** (1.0 / (n - i))
        out.append(sum_u - next_sum)
        sum_u = next_sum
    out.append(sum_u)
    return out


def check_period_range(period_range_ms: tuple[float, float]) -> None:
    lo_ms, hi_ms = period_range_ms
    if not (0 < lo_ms <= hi_ms and math.isfinite(hi_ms)):
        raise WorkloadError(f"period range {lo_ms!r}:{hi_ms!r} needs 0 < MIN <= MAX, both finite")


def check_task_range(n_range: tuple[int, int]) -> None:
    lo, hi = n_range
    if not (1 <= lo <= hi <= MAX_TASKS):
        raise WorkloadError(f"task range {lo}:{hi} needs 1 <= MIN <= MAX <= {MAX_TASKS}")


def generate_task_set(
    n: int,
    u_target: float,
    period_range_ms: tuple[float, float] = (10.0, 100.0),
    seed: int | str = 0,
) -> TaskSet:
    """Random task set: ``n`` tasks, utilizations summing to ``u_target``.

    Periods are uniform over ``period_range_ms``; utilizations come from the
    UUniFast recursion, resampled until every task fits on one core
    (u_i <= 1).  Deterministic for a given ``seed``.
    """
    check_task_range((n, n))
    if u_target <= 0:
        raise WorkloadError("u_target must be positive")
    if u_target > n:
        raise WorkloadError(f"cannot split U={u_target} into {n} tasks with u_i <= 1")
    check_period_range(period_range_ms)
    lo_ms, hi_ms = period_range_ms

    rng = random.Random(seed)
    tries = 1000
    for _ in range(tries):
        utils = uunifast(n, u_target, rng)
        if all(0.0 < u <= 1.0 for u in utils):
            break
    else:
        raise WorkloadError(f"no feasible utilization split after {tries} tries")

    tasks = []
    for i, u in enumerate(utils):
        period_ns = round(rng.uniform(lo_ms, hi_ms) * NS_PER_MS)
        tasks.append(Task(id=i, period_ns=period_ns, wcet_ns=u * period_ns))
    return TaskSet(tasks=tuple(tasks))


def draw_actual_ratio(mean_ratio: float, rng: random.Random) -> float:
    """Actual-to-worst-case execution ratio for one invocation.

    Uniform on [max(0, 2m-1), min(1, 2m)] so the expectation is exactly
    ``mean_ratio``; strictly positive.
    """
    if not (0.0 < mean_ratio <= 1.0):
        raise WorkloadError(f"mean ratio {mean_ratio} outside (0, 1]")
    # The same floats as max(0.0, 2m - 1), min(1.0, 2m) and rng.uniform(lo, hi).
    twice = 2.0 * mean_ratio
    lo = twice - 1.0 if twice > 1.0 else 0.0
    hi = twice if twice < 1.0 else 1.0
    span = hi - lo
    while True:
        r = lo + span * rng.random()
        if r > 0.0:
            return r
