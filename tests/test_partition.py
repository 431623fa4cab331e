import random

import pytest

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
