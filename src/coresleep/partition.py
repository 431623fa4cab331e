"""Static task-to-core partitioning: largest task first onto the least
loaded core (worst fit)."""

from __future__ import annotations

from dataclasses import dataclass

from .workload import TaskSet

# Utilization comparisons tolerate float roundoff at exact boundaries.
_EPS = 1e-12


class PartitionError(Exception):
    """The task set does not fit: some core would exceed utilization 1."""


@dataclass(frozen=True)
class Assignment:
    """Initial tasks of each core, plus the per-core static utilization."""

    core_tasks: tuple[tuple[int, ...], ...]
    core_utilization: tuple[float, ...]

    @property
    def cores(self) -> int:
        return len(self.core_tasks)


def ltf_partition(task_set: TaskSet, m: int) -> Assignment:
    """Assign tasks in non-increasing utilization order to the core with the
    lowest accumulated utilization.

    Ties (equal utilizations, equally loaded cores) break by ascending id and
    core index, so the result is independent of input order.
    """
    if m < 1:
        raise PartitionError("need at least one core")
    order = sorted(task_set, key=lambda t: (-t.utilization, t.id))
    load = [0.0] * m
    bins: list[list[int]] = [[] for _ in range(m)]
    for task in order:
        j = min(range(m), key=lambda i: (load[i], i))
        if load[j] + task.utilization > 1.0 + _EPS:
            raise PartitionError(
                f"core {j} would reach utilization {load[j] + task.utilization:.6f}"
            )
        load[j] += task.utilization
        bins[j].append(task.id)
    return Assignment(
        core_tasks=tuple(tuple(sorted(b)) for b in bins),
        core_utilization=tuple(load),
    )
