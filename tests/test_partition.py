import random

import pytest

from conftest import capped_first_fit

from coresleep.partition import PartitionError, ltf_partition
from coresleep.workload import TaskSet, generate_task_set, task_from_ms


def test_motivational_example(motivational_tasks):
    asg = ltf_partition(motivational_tasks, 2)
    assert asg.core_tasks == ((1,), (2, 3))
    assert asg.core_utilization == pytest.approx((0.3, 0.2), abs=1e-12)


def test_single_core():
    ts = generate_task_set(10, 0.8, seed=4)
    asg = ltf_partition(ts, 1)
    assert asg.core_tasks == (tuple(t.id for t in ts),)
    assert asg.core_utilization[0] == pytest.approx(ts.total_utilization, abs=1e-12)


def test_equal_tasks_alternate():
    ts = TaskSet(tasks=tuple(task_from_ms(i, 4.0, 1.0) for i in range(4)))
    asg = ltf_partition(ts, 2)
    assert asg.core_tasks == ((0, 2), (1, 3))


def test_input_order_irrelevant():
    rng = random.Random(9)
    for seed in range(50):
        ts = generate_task_set(10, 1.4, seed=seed)
        reference = ltf_partition(ts, 2)
        shuffled = list(ts.tasks)
        rng.shuffle(shuffled)
        assert ltf_partition(TaskSet(tasks=tuple(shuffled)), 2) == reference


def test_worst_fit_load_bound():
    # max core load never exceeds the largest task plus the average load
    checked = 0
    for seed in range(1000):
        ts = generate_task_set(12, 1.6, seed=seed)
        try:
            asg = ltf_partition(ts, 2)
        except PartitionError:
            continue
        checked += 1
        bound = max(t.utilization for t in ts) + ts.total_utilization / 2
        assert max(asg.core_utilization) <= bound + 1e-9
    assert checked > 900


def test_infeasible_rejected():
    ts = TaskSet(tasks=tuple(task_from_ms(i, 10.0, 9.0) for i in range(3)))
    with pytest.raises(PartitionError):
        ltf_partition(ts, 2)


def test_needs_a_core(motivational_tasks):
    with pytest.raises(PartitionError):
        ltf_partition(motivational_tasks, 0)


def eighths_task_set(*wcets_ms):
    """Tasks of period 8 ms, ids in order, with utilization wcet / 8."""
    return TaskSet(tasks=tuple(task_from_ms(i, 8.0, c) for i, c in enumerate(wcets_ms)))


def test_capped_first_fit_takes_the_lowest_core_at_or_below_the_cap():
    asg = capped_first_fit(eighths_task_set(2, 2, 1, 1), 3, 0.5)
    assert asg.core_tasks == ((0, 1), (2, 3), ())
    assert asg.core_utilization == (0.5, 0.25, 0.0)


def test_capped_first_fit_falls_back_to_worst_fit_up_to_one():
    # 0.75 fits under the cap nowhere and goes to the least loaded core; the
    # first 0.5 fits core 1 under the cap; the second 0.5 and the 0.25 fit
    # nowhere under it and go to the least loaded core in turn
    asg = capped_first_fit(eighths_task_set(6, 4, 4, 2), 2, 0.5)
    assert asg.core_tasks == ((0, 3), (1, 2))
    assert asg.core_utilization == (1.0, 1.0)
    with pytest.raises(PartitionError):
        capped_first_fit(eighths_task_set(6, 6, 6), 2, 0.5)
