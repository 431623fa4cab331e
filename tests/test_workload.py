import random

import pytest

from conftest import next_release

from coresleep.engine import TaskRun
from coresleep.policies import task_dynamic_utilization
from coresleep.workload import (
    MAX_TASKS,
    NS_PER_MS,
    Job,
    Task,
    TaskSet,
    WorkloadError,
    draw_actual_ratio,
    generate_task_set,
    task_from_ms,
)


def finished_run(task, cc_ns):
    """Task state with its first invocation completed at ``cc_ns``."""
    run = TaskRun(task, 0, seed=0)
    run.done = 1
    run.last_cc_ns = cc_ns
    return run


class TestTask:
    def test_static_utilization_examples(self):
        assert task_from_ms(1, 2.0, 0.6).utilization == 0.3
        assert task_from_ms(2, 4.0, 0.4).utilization == 0.1
        assert task_from_ms(3, 1.0, 1.0).utilization == 1.0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            Task(id=0, period_ns=0, wcet_ns=1.0)
        with pytest.raises(WorkloadError):
            Task(id=0, period_ns=1000, wcet_ns=0.0)
        with pytest.raises(WorkloadError):
            Task(id=0, period_ns=1000, wcet_ns=1001.0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(WorkloadError):
            TaskSet(tasks=(task_from_ms(1, 2, 1), task_from_ms(1, 4, 1)))


class TestDynamicUtilization:
    def test_unfinished_uses_worst_case(self):
        task = task_from_ms(0, 2.0, 0.6)
        assert task_dynamic_utilization(TaskRun(task, 0, seed=0), 0) == 0.3

    def test_finished_uses_actual(self):
        task = task_from_ms(0, 4.0, 0.4)
        assert task_dynamic_utilization(finished_run(task, 0.2 * NS_PER_MS), 0) == 0.05

    def test_finished_at_worst_case_equals_static(self):
        task = task_from_ms(0, 4.0, 0.4)
        assert task_dynamic_utilization(finished_run(task, task.wcet_ns), 0) == task.utilization


class TestNextRelease:
    def test_at_release_instant(self):
        assert next_release(task_from_ms(0, 2.0, 0.5), 2 * NS_PER_MS) == 4 * NS_PER_MS

    def test_mid_period(self):
        assert next_release(task_from_ms(0, 4.0, 0.5), 2 * NS_PER_MS) == 4 * NS_PER_MS

    def test_start_of_time(self):
        assert next_release(task_from_ms(0, 10.0, 0.5), 0) == 10 * NS_PER_MS


class TestJob:
    def test_arrival_deadline_arithmetic(self):
        task = task_from_ms(0, 3.0, 1.0)
        for j in range(1, 6):
            job = Job(task, j, task.wcet_ns)
            assert job.arrival_ns == (j - 1) * task.period_ns
            assert job.deadline_ns == j * task.period_ns
            assert job.deadline_ns - job.arrival_ns == task.period_ns

    def test_deadline_meets_next_arrival(self):
        task = task_from_ms(0, 7.0, 2.0)
        jobs = [Job(task, j, task.wcet_ns) for j in range(1, 10)]
        for a, b in zip(jobs, jobs[1:]):
            assert a.deadline_ns == b.arrival_ns


class TestGenerator:
    def test_single_task_degenerate(self):
        ts = generate_task_set(1, 0.5, seed=42)
        assert len(ts) == 1
        assert ts.tasks[0].utilization == pytest.approx(0.5, abs=1e-12)

    def test_sum_and_bounds_over_many_seeds(self):
        for seed in range(1000):
            ts = generate_task_set(8, 1.7, seed=seed)
            assert abs(ts.total_utilization - 1.7) <= 1e-9
            for t in ts:
                assert 0.0 < t.utilization <= 1.0
                assert 10 * NS_PER_MS <= t.period_ns <= 100 * NS_PER_MS

    def test_deterministic(self):
        a = generate_task_set(12, 0.9, seed=123)
        b = generate_task_set(12, 0.9, seed=123)
        assert a == b

    def test_infeasible_target(self):
        with pytest.raises(WorkloadError):
            generate_task_set(3, 3.5, seed=0)

    def test_count_bounds(self):
        with pytest.raises(WorkloadError):
            generate_task_set(0, 0.5, seed=0)
        with pytest.raises(WorkloadError):
            generate_task_set(MAX_TASKS + 1, 0.5, seed=0)
        assert len(generate_task_set(MAX_TASKS, 0.5, seed=0)) == MAX_TASKS

    def test_dynamic_never_exceeds_static(self):
        # actual execution is a ratio in (0, 1] of the worst case
        rng = random.Random(5)
        task = task_from_ms(0, 10.0, 3.0)
        for _ in range(1000):
            cc = draw_actual_ratio(0.5, rng) * task.wcet_ns
            assert task_dynamic_utilization(finished_run(task, cc), 0) <= task.utilization


class TestActualRatio:
    def test_mean_one_degenerate(self):
        rng = random.Random(0)
        assert all(draw_actual_ratio(1.0, rng) == 1.0 for _ in range(20))

    def test_mean_half_bounds_and_mean(self):
        rng = random.Random(1)
        draws = [draw_actual_ratio(0.5, rng) for _ in range(100_000)]
        assert all(0.0 < d <= 1.0 for d in draws)
        assert abs(sum(draws) / len(draws) - 0.5) <= 0.01

    def test_mean_09_interval(self):
        rng = random.Random(2)
        draws = [draw_actual_ratio(0.9, rng) for _ in range(10_000)]
        assert all(0.8 <= d <= 1.0 for d in draws)

    @pytest.mark.parametrize("mean_ratio", [0.05, 0.3, 0.5, 0.75, 1.0])
    def test_equals_uniform_reference_bit_for_bit(self, mean_ratio):
        def reference(rng):
            while True:
                r = rng.uniform(max(0.0, 2 * mean_ratio - 1), min(1.0, 2 * mean_ratio))
                if r > 0.0:
                    return r

        for seed in range(6):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(2000):
                assert draw_actual_ratio(mean_ratio, rng).hex() == reference(ref_rng).hex()

    def test_domain(self):
        rng = random.Random(3)
        with pytest.raises(WorkloadError):
            draw_actual_ratio(0.0, rng)
        with pytest.raises(WorkloadError):
            draw_actual_ratio(1.1, rng)
